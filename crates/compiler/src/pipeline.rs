//! The compile pipeline: [`compile`]/[`compile_traced`] run one fixed
//! sequence of phases over a method and produce a [`CompiledMethod`].
//!
//! `compile_impl` is that sequence, one call per phase over locals: build
//! (bytecode → graph, inlining included) → canonicalize → escape analysis
//! (per [`OptLevel`]) + canonicalize → `verify_structure` → schedule +
//! `verify_scheduled` → lower to the linear register-machine form. Each
//! phase times itself into [`PhaseTimes`] (both verification halves are
//! charged to `schedule`), and any phase can end the compilation with a
//! [`Bailout`]; the method then stays interpreted.

use crate::builder::{build_graph_with, Bailout, BuildOptions, InlineDecisionRec};
use crate::canon::canonicalize;
use crate::linear::LinearArtifact;
use pea_bytecode::{MethodId, Program};
use pea_core::{run_ees, run_pea, run_pea_traced, PeaOptions, PeaResult};
use pea_ir::cfg::Cfg;
use pea_ir::dom::DomTree;
use pea_ir::schedule::Schedule;
use pea_ir::Graph;
use pea_runtime::profile::ProfileStore;
use pea_trace::{PhaseMicros, TraceEvent, TraceSink, Tracer};
use std::time::{Duration, Instant};

/// Which escape analysis the pipeline runs — the three configurations the
/// paper's evaluation compares (§6: none vs. PEA; §6.2: the
/// flow-insensitive server-compiler-style baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No escape analysis (the paper's "without" configuration — the
    /// original Graal performed none).
    None,
    /// Flow-insensitive Equi-Escape-Sets baseline.
    Ees,
    /// Partial Escape Analysis (the paper's contribution).
    Pea,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::None => "none",
            OptLevel::Ees => "ees",
            OptLevel::Pea => "pea",
        })
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(OptLevel::None),
            "ees" => Ok(OptLevel::Ees),
            "pea" => Ok(OptLevel::Pea),
            other => Err(format!("unknown opt level `{other}` (none|ees|pea)")),
        }
    }
}

/// Full compiler configuration.
#[derive(Clone, Debug)]
pub struct CompilerOptions {
    /// Escape-analysis configuration.
    pub opt_level: OptLevel,
    /// Graph-building (inlining/speculation) options.
    pub build: BuildOptions,
    /// PEA tuning and ablations.
    pub pea: PeaOptions,
}

impl CompilerOptions {
    /// Defaults with the given escape-analysis level.
    pub fn with_opt_level(opt_level: OptLevel) -> Self {
        CompilerOptions {
            opt_level,
            build: BuildOptions::default(),
            pea: PeaOptions::default(),
        }
    }
}

impl Default for CompilerOptions {
    fn default() -> Self {
        Self::with_opt_level(OptLevel::Pea)
    }
}

/// Wall-clock time spent in each compilation phase, for the compile-speed
/// benchmark and compile-service telemetry. Purely observational: two
/// compilations of the same method differ only here, never in the
/// artifact itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Bytecode → graph construction (including inlining).
    pub build: Duration,
    /// All canonicalization passes (constant folding, GVN, phi
    /// simplification), across every run.
    pub canonicalize: Duration,
    /// The escape-analysis run.
    pub escape_analysis: Duration,
    /// CFG construction, dominators and scheduling.
    pub schedule: Duration,
    /// Lowering of the schedule to the linear register-machine form.
    pub lower: Duration,
}

impl PhaseTimes {
    /// Accumulates another compilation's phase times into this one.
    pub fn absorb(&mut self, other: &PhaseTimes) {
        self.build += other.build;
        self.canonicalize += other.canonicalize;
        self.escape_analysis += other.escape_analysis;
        self.schedule += other.schedule;
        self.lower += other.lower;
    }

    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.build + self.canonicalize + self.escape_analysis + self.schedule + self.lower
    }
}

/// The compiled form of a method: the optimized graph plus the CFG and
/// schedule the evaluator executes.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    /// The compiled method.
    pub method: MethodId,
    /// Optimized graph.
    pub graph: Graph,
    /// Its control-flow graph.
    pub cfg: Cfg,
    /// Execution schedule (floating nodes placed).
    pub schedule: Schedule,
    /// Scheduled node count — the "machine code size" for the cost
    /// model's instruction-cache term.
    pub code_size: u64,
    /// What the escape-analysis phase did (for reporting).
    pub pea_result: PeaResult,
    /// Wall-clock per-phase compile times (observational; excluded from
    /// artifact-equality comparisons).
    pub times: PhaseTimes,
    /// Dense register-machine form of the schedule — what the VM
    /// executes. Always `Some` out of [`compile`]: a lowering failure is a
    /// [`Bailout`], not an artifact without a linear form.
    pub linear: Option<LinearArtifact>,
    /// Every inline decision the builder took (one record per considered
    /// call site), for reporting — `perfbench`'s `compiler.inlined_calls`
    /// counts the accepted ones.
    pub inline_decisions: Vec<InlineDecisionRec>,
}

// Compile requests cross thread boundaries in the background compile
// service, and finished artifacts are shared between the VM and the
// service, so both directions must be thread-safe by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledMethod>();
    assert_send_sync::<CompilerOptions>();
    assert_send_sync::<ProfileStore>();
};

/// Compiles `method` at the given options.
///
/// # Errors
///
/// [`Bailout`] when the method cannot be compiled; the VM keeps
/// interpreting it.
pub fn compile(
    program: &Program,
    method: MethodId,
    profiles: Option<&ProfileStore>,
    options: &CompilerOptions,
) -> Result<CompiledMethod, Bailout> {
    compile_impl(program, method, profiles, options, Tracer::off())
}

/// Like [`compile`], but emits [`TraceEvent`]s describing the compilation:
/// a [`TraceEvent::CompileStart`]/[`TraceEvent::CompileEnd`] bracket, with
/// every PEA decision in between (see [`pea_core::run_pea_traced`]).
///
/// # Errors
///
/// [`Bailout`] as for [`compile`] (no `CompileEnd` is emitted then).
pub fn compile_traced(
    program: &Program,
    method: MethodId,
    profiles: Option<&ProfileStore>,
    options: &CompilerOptions,
    sink: &mut dyn TraceSink,
) -> Result<CompiledMethod, Bailout> {
    compile_impl(program, method, profiles, options, Tracer::new(sink))
}

fn compile_impl<'a>(
    program: &'a Program,
    method: MethodId,
    profiles: Option<&'a ProfileStore>,
    options: &'a CompilerOptions,
    mut tracer: Tracer<'a>,
) -> Result<CompiledMethod, Bailout> {
    tracer.emit_with(|| TraceEvent::CompileStart {
        method: program.method(method).qualified_name(program),
        level: options.opt_level.to_string(),
    });
    let mut times = PhaseTimes::default();
    let (mut graph, inline_decisions) =
        build(program, method, profiles, options, &mut tracer, &mut times)?;
    canonicalize_phase(&mut graph, &mut times, "after canonicalize");
    let pea_result = escape_analysis(&mut graph, program, options, &mut tracer, &mut times);
    canonicalize_phase(&mut graph, &mut times, "after the final canonicalization");
    verify_structure(&graph, &mut times)?;
    let (cfg, schedule) = schedule(&graph, &mut times)?;
    let code_size = schedule.code_size();
    let linear = lower(program, method, &graph, &cfg, &schedule, &mut times)?;
    tracer.emit_with(|| TraceEvent::CompileEnd {
        method: program.method(method).qualified_name(program),
        code_size,
        phases: PhaseMicros {
            build: times.build.as_micros() as u64,
            canonicalize: times.canonicalize.as_micros() as u64,
            escape_analysis: times.escape_analysis.as_micros() as u64,
            schedule: times.schedule.as_micros() as u64,
            lower: times.lower.as_micros() as u64,
        },
    });
    Ok(CompiledMethod {
        method,
        graph,
        cfg,
        schedule,
        code_size,
        pea_result,
        times,
        linear: Some(linear),
        inline_decisions,
    })
}

/// Bytecode → graph construction, inlining included. Emits one
/// [`TraceEvent::InlineDecision`] per call site the builder considered and
/// one [`TraceEvent::DevirtGuard`] per guarded devirtualization.
fn build(
    program: &Program,
    method: MethodId,
    profiles: Option<&ProfileStore>,
    options: &CompilerOptions,
    tracer: &mut Tracer<'_>,
    times: &mut PhaseTimes,
) -> Result<(Graph, Vec<InlineDecisionRec>), Bailout> {
    let t = Instant::now();
    let (graph, decisions, guards) = build_graph_with(program, method, profiles, &options.build)?;
    times.build += t.elapsed();
    for d in &decisions {
        tracer.emit_with(|| TraceEvent::InlineDecision {
            method: program.method(d.caller).qualified_name(program),
            bci: d.bci,
            callee: program.method(d.callee).qualified_name(program),
            inlined: d.inlined,
            reason: d.reason.to_string(),
        });
    }
    for g in &guards {
        tracer.emit_with(|| TraceEvent::DevirtGuard {
            method: program.method(g.caller).qualified_name(program),
            bci: g.bci,
            callee: program.method(g.callee).qualified_name(program),
            classes: g
                .classes
                .iter()
                .map(|c| program.classes[c.index()].name.clone())
                .collect(),
        });
    }
    debug_assert_verify(&graph, "after build");
    Ok((graph, decisions))
}

/// Constant folding, GVN, phi simplification, dead-node pruning.
fn canonicalize_phase(graph: &mut Graph, times: &mut PhaseTimes, stage: &str) {
    let t = Instant::now();
    canonicalize(graph);
    graph.prune_dead();
    times.canonicalize += t.elapsed();
    debug_assert_verify(graph, stage);
}

/// One run of the escape analysis [`OptLevel`] names; only PEA emits
/// decision events.
fn escape_analysis(
    graph: &mut Graph,
    program: &Program,
    options: &CompilerOptions,
    tracer: &mut Tracer<'_>,
    times: &mut PhaseTimes,
) -> PeaResult {
    let t = Instant::now();
    let result = match options.opt_level {
        OptLevel::None => PeaResult::default(),
        OptLevel::Ees => run_ees(graph, program, &options.pea),
        OptLevel::Pea => match tracer.sink() {
            Some(sink) => run_pea_traced(graph, program, &options.pea, sink),
            None => run_pea(graph, program, &options.pea),
        },
    };
    times.escape_analysis += t.elapsed();
    debug_assert_verify(graph, "after escape analysis");
    result
}

/// The structural half of the final IR verification
/// ([`pea_ir::verify::verify_structure`]): what [`Cfg::build`] relies on.
/// A failure is a [`Bailout`], so the VM keeps interpreting rather than
/// executing a corrupt graph.
fn verify_structure(graph: &Graph, times: &mut PhaseTimes) -> Result<(), Bailout> {
    let t = Instant::now();
    let verified = pea_ir::verify::verify_structure(graph);
    times.schedule += t.elapsed();
    verified.map_err(verification_failed)
}

/// CFG construction, dominators, scheduling, then the SSA half of the
/// final IR verification ([`pea_ir::verify::verify_scheduled`]) over those
/// products: the one CFG and schedule of the final graph.
fn schedule(graph: &Graph, times: &mut PhaseTimes) -> Result<(Cfg, Schedule), Bailout> {
    let t = Instant::now();
    let cfg = Cfg::build(graph);
    let dom = DomTree::build(&cfg);
    let schedule = Schedule::build(graph, &cfg, &dom);
    let verified = pea_ir::verify::verify_scheduled(graph, &cfg, &dom, &schedule);
    times.schedule += t.elapsed();
    verified.map_err(verification_failed)?;
    Ok((cfg, schedule))
}

/// Lowering of the scheduled graph to the dense register-machine form
/// ([`crate::linear`]), the only form the VM executes; a lowering failure
/// is a `lowering:` [`Bailout`] and the method stays interpreted.
fn lower(
    program: &Program,
    method: MethodId,
    graph: &Graph,
    cfg: &Cfg,
    schedule: &Schedule,
    times: &mut PhaseTimes,
) -> Result<LinearArtifact, Bailout> {
    let t = Instant::now();
    let lowered = crate::linear::lower(program, method, graph, cfg, schedule)
        .map_err(|e| Bailout::Unsupported(e.to_string()))?;
    times.lower += t.elapsed();
    Ok(lowered)
}

fn verification_failed(e: pea_ir::verify::IrError) -> Bailout {
    Bailout::Unsupported(format!("verification failed: {e}"))
}

fn debug_assert_verify(graph: &Graph, stage: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = pea_ir::verify::verify(graph) {
            panic!("{stage}: {e}\n{}", pea_ir::dump::dump(graph));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;
    use pea_ir::NodeKind;

    /// The graph of `f` after the build and the first canonicalization.
    fn built(program: &Program, options: &CompilerOptions, times: &mut PhaseTimes) -> Graph {
        let method = program.static_method_by_name("f").unwrap();
        let mut tracer = Tracer::off();
        let (mut graph, _) = build(program, method, None, options, &mut tracer, times).unwrap();
        canonicalize_phase(&mut graph, times, "after canonicalize");
        graph
    }

    /// A `LowerError` from a broken graph invariant cannot be provoked
    /// from bytecode (the register limit can: `compile_eval.rs`): break an
    /// invariant by hand and run the lowering on the result.
    #[test]
    fn lowering_failure_is_a_bailout() {
        let program = parse_program(
            "method g 0 returns { const 1 retv }
             method f 0 returns { invokestatic g retv }",
        )
        .unwrap();
        let method = program.static_method_by_name("f").unwrap();
        let mut options = CompilerOptions::default();
        options.build.inline = false; // keep the call residual
        let mut times = PhaseTimes::default();
        let mut graph = built(&program, &options, &mut times);
        let invoke = graph
            .live_nodes()
            .find(|&n| matches!(graph.kind(n), NodeKind::Invoke { .. }))
            .expect("residual call");
        graph.set_state_after(invoke, None);
        let (cfg, schedule) = schedule(&graph, &mut times).unwrap();
        let err = lower(&program, method, &graph, &cfg, &schedule, &mut times).unwrap_err();
        assert!(
            matches!(&err, Bailout::Unsupported(s) if s.starts_with("lowering: ")),
            "{err}"
        );
    }

    /// The SSA half of the verification runs on the schedule phase's own
    /// products: a dominance violation that the structural half cannot
    /// see still ends the compilation as a bailout, not as an artifact.
    #[test]
    fn ssa_violation_is_a_verification_bailout() {
        let program = parse_program(
            "class C { field v int }
             method f 2 returns {
                load 0 const 0 ifcmp eq Lelse
                load 1 getfield C.v retv
             Lelse:
                const 0 retv
             }",
        )
        .unwrap();
        let options = CompilerOptions::default();
        let mut times = PhaseTimes::default();
        let mut graph = built(&program, &options, &mut times);
        // Return the field read of one arm from the other arm: its input
        // no longer dominates its use.
        let load = graph
            .live_nodes()
            .find(|&n| matches!(graph.kind(n), NodeKind::LoadField { .. }))
            .expect("field read");
        let other_return = graph
            .live_nodes()
            .find(|&n| {
                matches!(graph.kind(n), NodeKind::Return) && graph.node(n).inputs()[0] != load
            })
            .expect("second return");
        graph.set_input(other_return, 0, load);
        verify_structure(&graph, &mut times).unwrap();
        let Err(err) = schedule(&graph, &mut times) else {
            panic!("no artifact from a broken graph");
        };
        assert!(
            matches!(&err, Bailout::Unsupported(s)
                if s.starts_with("verification failed: ") && s.contains("dominate")),
            "{err}"
        );
    }
}
