//! Pipeline entry points and configuration: [`compile`]/[`compile_traced`]
//! build a [`phases::CompilationUnit`](crate::phases::CompilationUnit) and
//! run the standard [`phases::PhaseManager`](crate::phases::PhaseManager)
//! sequence over it, producing a [`CompiledMethod`].

use crate::builder::{Bailout, BuildOptions};
use crate::phases::{CompilationUnit, PhaseManager};
use pea_bytecode::{MethodId, Program};
use pea_core::{PeaOptions, PeaResult};
use pea_ir::cfg::Cfg;
use pea_ir::schedule::Schedule;
use pea_ir::Graph;
use pea_runtime::profile::ProfileStore;
use pea_trace::{PhaseMicros, TraceEvent, TraceSink, Tracer};
use std::time::Duration;

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
    pub linear: Option<crate::linear::LinearArtifact>,
    /// Every inline decision the builder took (one record per considered
    /// call site), for reporting — `perfbench`'s `compiler.inlined_calls`
    /// counts the accepted ones.
    pub inline_decisions: Vec<crate::builder::InlineDecisionRec>,
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
/// every PEA decision in between (see [`run_pea_traced`]).
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
    let mut unit = CompilationUnit::new(program, method, profiles, options);
    PhaseManager::standard().run(&mut unit, &mut tracer)?;
    let times = unit.times;
    let artifact = unit.artifact.expect("schedule phase ran");
    let graph = unit.graph.expect("build phase ran");
    tracer.emit_with(|| TraceEvent::CompileEnd {
        method: program.method(method).qualified_name(program),
        code_size: artifact.code_size,
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
        cfg: artifact.cfg,
        schedule: artifact.schedule,
        code_size: artifact.code_size,
        pea_result: unit.pea_result,
        times,
        linear: artifact.linear,
        inline_decisions: unit.inline_decisions,
    })
}
