//! Explicit per-compilation state ([`CompilationUnit`]) and phase
//! sequencing ([`PhaseManager`]).
//!
//! Each compilation owns a `CompilationUnit` that carries everything the
//! phases produce — the graph under construction, inline decisions,
//! per-phase wall-clock times — and a `PhaseManager` drives an explicit
//! list of [`PhaseKind`]s over it. Every phase reads and writes the unit
//! through one named interface.
//!
//! Phases are an enum rather than trait objects because they emit through
//! the lifetime-bound [`Tracer`], which a `dyn Phase` could not carry
//! without infecting every signature with the sink lifetime.

use crate::builder::{build_graph_with, Bailout, InlineDecisionRec};
use crate::canon::canonicalize;
use crate::pipeline::{CompilerOptions, OptLevel, PhaseTimes};
use pea_bytecode::{MethodId, Program};
use pea_core::{run_ees, run_pea, run_pea_traced, PeaResult};
use pea_ir::cfg::Cfg;
use pea_ir::dom::DomTree;
use pea_ir::schedule::Schedule;
use pea_ir::Graph;
use pea_runtime::profile::ProfileStore;
use pea_trace::{TraceEvent, Tracer};
use std::time::Instant;

/// One compilation phase. The order a [`PhaseManager`] runs them in is the
/// pipeline; each phase reads its inputs from and writes its outputs to
/// the [`CompilationUnit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Bytecode → graph construction, inlining included; records one
    /// [`InlineDecisionRec`] per call site and emits it as a
    /// [`TraceEvent::InlineDecision`].
    Build,
    /// Constant folding, GVN, phi simplification, dead-node pruning.
    Canonicalize,
    /// One escape-analysis run (per [`OptLevel`]) followed by one
    /// canonicalization pass.
    EscapeAnalysis,
    /// The structural half of the final IR verification
    /// ([`pea_ir::verify::verify_structure`]); the `Schedule` phase checks
    /// the rest on what it builds. A failure degrades into a [`Bailout`]
    /// so the VM keeps interpreting rather than executing a corrupt graph.
    VerifyIr,
    /// CFG construction, dominators, scheduling, then the SSA half of the
    /// final IR verification ([`pea_ir::verify::verify_scheduled`]) over
    /// those products — the one CFG and schedule of the final graph.
    Schedule,
    /// Lowering of the scheduled graph to the dense register-machine form
    /// (`crate::linear`), the only form the VM executes; a lowering failure
    /// is a [`Bailout`] and the method stays interpreted.
    Lower,
}

/// Everything one compilation accumulates while its phases run.
pub struct CompilationUnit<'a> {
    pub program: &'a Program,
    pub method: MethodId,
    pub profiles: Option<&'a ProfileStore>,
    pub options: &'a CompilerOptions,
    /// The graph under construction (present after [`PhaseKind::Build`]).
    pub graph: Option<Graph>,
    /// Every inline decision the builder made, in call-site order.
    pub inline_decisions: Vec<InlineDecisionRec>,
    /// Escape-analysis counters.
    pub pea_result: PeaResult,
    /// Wall-clock per-phase times.
    pub times: PhaseTimes,
    /// Scheduling artifacts (present after [`PhaseKind::Schedule`]).
    pub artifact: Option<Artifact>,
}

/// The back-end products of a compilation: the schedule plus its CFG,
/// size and (once [`PhaseKind::Lower`] ran) the linear register-machine
/// form.
pub struct Artifact {
    pub cfg: Cfg,
    pub schedule: Schedule,
    pub code_size: u64,
    pub linear: Option<crate::linear::LinearArtifact>,
}

impl<'a> CompilationUnit<'a> {
    pub fn new(
        program: &'a Program,
        method: MethodId,
        profiles: Option<&'a ProfileStore>,
        options: &'a CompilerOptions,
    ) -> CompilationUnit<'a> {
        CompilationUnit {
            program,
            method,
            profiles,
            options,
            graph: None,
            inline_decisions: Vec::new(),
            pea_result: PeaResult::default(),
            times: PhaseTimes::default(),
            artifact: None,
        }
    }

    fn graph_mut(&mut self) -> &mut Graph {
        self.graph.as_mut().expect("build phase ran")
    }
}

/// An explicit, inspectable phase sequence over a [`CompilationUnit`].
#[derive(Clone, Debug)]
pub struct PhaseManager {
    phases: Vec<PhaseKind>,
}

impl PhaseManager {
    /// The standard pipeline, the same for every configuration.
    pub fn standard() -> PhaseManager {
        PhaseManager {
            phases: vec![
                PhaseKind::Build,
                PhaseKind::Canonicalize,
                PhaseKind::EscapeAnalysis,
                PhaseKind::VerifyIr,
                PhaseKind::Schedule,
                PhaseKind::Lower,
            ],
        }
    }

    /// Runs every phase in order over `unit`.
    ///
    /// # Errors
    ///
    /// The first phase [`Bailout`] aborts the sequence.
    pub fn run(
        &self,
        unit: &mut CompilationUnit<'_>,
        tracer: &mut Tracer<'_>,
    ) -> Result<(), Bailout> {
        for &phase in &self.phases {
            run_phase(phase, unit, tracer)?;
        }
        Ok(())
    }
}

fn run_phase(
    phase: PhaseKind,
    unit: &mut CompilationUnit<'_>,
    tracer: &mut Tracer<'_>,
) -> Result<(), Bailout> {
    match phase {
        PhaseKind::Build => {
            let t = Instant::now();
            let (graph, decisions, guards) = build_graph_with(
                unit.program,
                unit.method,
                unit.profiles,
                &unit.options.build,
            )?;
            unit.times.build += t.elapsed();
            for d in &decisions {
                tracer.emit_with(|| TraceEvent::InlineDecision {
                    method: unit.program.method(d.caller).qualified_name(unit.program),
                    bci: d.bci,
                    callee: unit.program.method(d.callee).qualified_name(unit.program),
                    inlined: d.inlined,
                    reason: d.reason.to_string(),
                });
            }
            for g in &guards {
                tracer.emit_with(|| TraceEvent::DevirtGuard {
                    method: unit.program.method(g.caller).qualified_name(unit.program),
                    bci: g.bci,
                    callee: unit.program.method(g.callee).qualified_name(unit.program),
                    classes: g
                        .classes
                        .iter()
                        .map(|c| unit.program.classes[c.index()].name.clone())
                        .collect(),
                });
            }
            unit.inline_decisions = decisions;
            debug_assert_verify(&graph, "after build");
            unit.graph = Some(graph);
            Ok(())
        }
        PhaseKind::Canonicalize => {
            let t = Instant::now();
            let graph = unit.graph_mut();
            canonicalize(graph);
            graph.prune_dead();
            unit.times.canonicalize += t.elapsed();
            debug_assert_verify(unit.graph_mut(), "after canonicalize");
            Ok(())
        }
        PhaseKind::EscapeAnalysis => {
            let t = Instant::now();
            let graph = unit.graph.as_mut().expect("build phase ran");
            unit.pea_result = match unit.options.opt_level {
                OptLevel::None => PeaResult::default(),
                OptLevel::Ees => run_ees(graph, unit.program, &unit.options.pea),
                OptLevel::Pea => match tracer.sink() {
                    Some(sink) => run_pea_traced(graph, unit.program, &unit.options.pea, sink),
                    None => run_pea(graph, unit.program, &unit.options.pea),
                },
            };
            unit.times.escape_analysis += t.elapsed();
            debug_assert_verify(unit.graph_mut(), "after escape analysis");
            let t = Instant::now();
            let graph = unit.graph_mut();
            canonicalize(graph);
            graph.prune_dead();
            unit.times.canonicalize += t.elapsed();
            debug_assert_verify(unit.graph_mut(), "after the final canonicalization");
            Ok(())
        }
        // Both halves of the verification are charged to `schedule`, whose
        // products the second half reads.
        PhaseKind::VerifyIr => {
            let t = Instant::now();
            let graph = unit.graph.as_ref().expect("build phase ran");
            let verified = pea_ir::verify::verify_structure(graph);
            unit.times.schedule += t.elapsed();
            verified.map_err(verification_failed)
        }
        PhaseKind::Schedule => {
            let t = Instant::now();
            let graph = unit.graph.as_ref().expect("build phase ran");
            let cfg = Cfg::build(graph);
            let dom = DomTree::build(&cfg);
            let schedule = Schedule::build(graph, &cfg, &dom);
            let verified = pea_ir::verify::verify_scheduled(graph, &cfg, &dom, &schedule);
            unit.times.schedule += t.elapsed();
            verified.map_err(verification_failed)?;
            let code_size = schedule.code_size();
            unit.artifact = Some(Artifact {
                cfg,
                schedule,
                code_size,
                linear: None,
            });
            Ok(())
        }
        PhaseKind::Lower => {
            let t = Instant::now();
            let graph = unit.graph.as_ref().expect("build phase ran");
            let artifact = unit.artifact.as_mut().expect("schedule phase ran");
            let lowered = crate::linear::lower(
                unit.program,
                unit.method,
                graph,
                &artifact.cfg,
                &artifact.schedule,
            )
            .map_err(|e| Bailout::Unsupported(e.to_string()))?;
            artifact.linear = Some(lowered);
            unit.times.lower += t.elapsed();
            Ok(())
        }
    }
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

    /// A `LowerError` from a broken graph invariant cannot be provoked
    /// from bytecode (the register limit can: `compile_eval.rs`): break an
    /// invariant by hand and run the `Lower` phase on the result.
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
        let mut unit = CompilationUnit::new(&program, method, None, &options);
        let mut tracer = Tracer::off();
        for phase in [PhaseKind::Build, PhaseKind::Canonicalize] {
            run_phase(phase, &mut unit, &mut tracer).unwrap();
        }
        let graph = unit.graph_mut();
        let invoke = graph
            .live_nodes()
            .find(|&n| matches!(graph.kind(n), NodeKind::Invoke { .. }))
            .expect("residual call");
        graph.set_state_after(invoke, None);
        run_phase(PhaseKind::Schedule, &mut unit, &mut tracer).unwrap();
        let err = run_phase(PhaseKind::Lower, &mut unit, &mut tracer).unwrap_err();
        assert!(
            matches!(&err, Bailout::Unsupported(s) if s.starts_with("lowering: ")),
            "{err}"
        );
    }

    /// The SSA half of the verification runs on the `Schedule` phase's own
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
        let method = program.static_method_by_name("f").unwrap();
        let options = CompilerOptions::default();
        let mut unit = CompilationUnit::new(&program, method, None, &options);
        let mut tracer = Tracer::off();
        for phase in [PhaseKind::Build, PhaseKind::Canonicalize] {
            run_phase(phase, &mut unit, &mut tracer).unwrap();
        }
        // Return the field read of one arm from the other arm: its input
        // no longer dominates its use.
        let graph = unit.graph_mut();
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
        run_phase(PhaseKind::VerifyIr, &mut unit, &mut tracer).unwrap();
        let err = run_phase(PhaseKind::Schedule, &mut unit, &mut tracer).unwrap_err();
        assert!(
            matches!(&err, Bailout::Unsupported(s)
                if s.starts_with("verification failed: ") && s.contains("dominate")),
            "{err}"
        );
        assert!(unit.artifact.is_none(), "no artifact from a broken graph");
    }
}
