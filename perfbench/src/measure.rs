//! The measurement method shared by the end-to-end and the per-layer
//! pass: set-up, and rounds on fresh VMs.
//!
//! A round builds a fresh `Vm`, runs iterations `0..warm` as the cold
//! start (interpret, profile, compile, run compiled) and then `measured`
//! more in timed batches. Every round replays the same indices, so heap
//! growth per VM is bounded and the same in every round and on every
//! commit; the heap never reclaims, so one long-lived VM would slow down
//! as it grew.

use crate::calib::{cns, Calib, Sample, CALIB_NOMINAL_NS};
use crate::spans::Spans;
use crate::workloads;
use pea_bytecode::asm::parse_program;
use pea_bytecode::{verify_program, Program};
use pea_compiler::{CompiledMethod, CompilerOptions, OptLevel, PhaseTimes};
use pea_runtime::{Stats, Value};
use pea_vm::{Vm, VmOptions};
use std::time::Instant;

/// How much work a run does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Index of a round's first iteration; the seed chooses it.
    pub first_index: i64,
    /// Iterations of the cold start: interpret, profile, compile.
    pub warm: i64,
    /// Measured iterations after the cold start.
    pub measured: i64,
    /// Iterations per timed batch.
    pub batch: i64,
    /// Times set-up is repeated for `setup_s`.
    pub setups: usize,
    /// Seconds of measurement after set-up.
    pub seconds: f64,
    /// Least rounds per configuration, whatever `seconds` says.
    pub min_rounds: usize,
}

impl Plan {
    /// The plan every comparable result uses.
    pub fn full(seed: u64, seconds: f64) -> Plan {
        Plan {
            first_index: workloads::first_index(seed),
            warm: 200,
            measured: 1000,
            batch: 20,
            setups: 3,
            seconds,
            min_rounds: 2,
        }
    }

    /// The least plan that still compiles the entry method, for tests.
    #[cfg(test)]
    pub fn tiny() -> Plan {
        Plan {
            first_index: 0,
            warm: 60,
            measured: 40,
            batch: 20,
            setups: 1,
            seconds: 0.0,
            min_rounds: 1,
        }
    }

    /// A short plan that exercises every code path; its numbers are not
    /// comparable with anything.
    pub fn smoke(seed: u64) -> Plan {
        Plan {
            first_index: workloads::first_index(seed),
            warm: 60,
            measured: 60,
            batch: 20,
            setups: 1,
            seconds: 0.3,
            min_rounds: 2,
        }
    }
}

/// What one iteration produced: its return value or the error text.
pub type Outcome = Result<Option<Value>, String>;

/// One round's measurements.
pub struct Round {
    /// `Vm::new`, then iterations `0..warm` in batches.
    pub cold: Vec<Sample>,
    /// Time per iteration, one sample per batch.
    pub steady: Vec<Sample>,
    /// `Stats` delta over the measured iterations.
    pub window: Stats,
    /// Σ `code_size` over the methods compiled at the end of the round.
    pub code_size: u64,
    /// Every iteration's outcome, cold start included.
    pub outcomes: Vec<Outcome>,
}

impl Round {
    /// The cold start in calibrated nanoseconds.
    pub fn cold_cns(&self) -> f64 {
        self.cold.iter().map(Sample::cns).sum()
    }

    /// The cold start in wall nanoseconds.
    pub fn cold_raw_ns(&self) -> f64 {
        self.cold.iter().map(|s| s.raw_ns).sum()
    }

    /// Counts the outcomes that differ from the reference for the same
    /// indices (a shorter round is checked against the reference's first
    /// iterations) and lets go of them: rounds are kept until the run ends
    /// and must not make the process grow with the number of rounds.
    /// Returns iterations checked and iterations that differ.
    pub fn check(&mut self, reference: &[Outcome]) -> (u64, u64) {
        let outcomes = std::mem::take(&mut self.outcomes);
        let differing = outcomes
            .iter()
            .zip(reference)
            .filter(|(got, want)| got != want)
            .count();
        let unmatched = outcomes.len().saturating_sub(reference.len());
        (outcomes.len() as u64, (differing + unmatched) as u64)
    }
}

/// Every steady sample of `rounds` in calibrated nanoseconds.
pub fn steady_cns(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().flat_map(|r| cns(&r.steady)).collect()
}

/// Runs one round of `program` under `options`, calling `at_window` when
/// the cold start is over and the measured window begins. The VM comes
/// back with the measurements so the caller can read its compiled code and
/// profiles; it holds the round's whole heap, so drop it before the next
/// round.
pub fn run_round(
    program: &Program,
    options: VmOptions,
    plan: &Plan,
    calib: &mut Calib,
    spans: &mut Spans,
    at_window: impl FnOnce(),
) -> (Round, Vm) {
    spans.enter("round", "harness");
    let mut outcomes = Vec::with_capacity((plan.warm + plan.measured) as usize);
    let before = calib.run();
    let (mut vm, created, mut before) = calib.time(before, || {
        spans.within("Vm::new", "vm", || Vm::new(program.clone(), options))
    });
    // Times iterations `from..to` in batches, one sample per batch.
    let mut batches = |vm: &mut Vm, from: i64, to: i64| {
        let mut samples = Vec::new();
        let mut next = from;
        while next < to {
            let end = (next + plan.batch).min(to);
            let (_, sample, after) = calib.time(before, || {
                for i in next..end {
                    outcomes.push(spans.within("call_entry", "vm", || {
                        vm.call_entry("iterate", &[Value::Int(plan.first_index + i)])
                            .map_err(|e| e.to_string())
                    }));
                }
            });
            samples.push((sample, end - next));
            before = after;
            next = end;
        }
        samples
    };
    let mut cold = vec![created];
    cold.extend(batches(&mut vm, 0, plan.warm).into_iter().map(|(s, _)| s));
    at_window();
    let stats_before = vm.stats();
    let steady = batches(&mut vm, plan.warm, plan.warm + plan.measured)
        .into_iter()
        .map(|(sample, iterations)| Sample {
            raw_ns: sample.raw_ns / iterations as f64,
            ..sample
        })
        .collect();
    let round = Round {
        cold,
        steady,
        window: vm.stats().delta(&stats_before),
        code_size: vm
            .compiled_methods()
            .iter()
            .filter_map(|&method| vm.compiled(method))
            .map(|code| code.code_size)
            .sum(),
        outcomes,
    };
    spans.exit();
    (round, vm)
}

/// A workload ready to measure.
pub struct Setup {
    /// FNV-1a-64 of the generated assembly.
    pub hash: u64,
    pub program: Program,
    /// The interpreter-only round: its outcomes are the reference every
    /// other configuration is compared with, and its timings are the
    /// interpreter's.
    pub interp: Round,
    pub parse_us: f64,
    pub verify_us: f64,
    /// Wall time of the whole set-up.
    pub raw_seconds: f64,
    /// The same in calibrated seconds, by the mean kernel time over the
    /// set-up.
    pub seconds: f64,
}

/// Generates, pins, parses and verifies the workload, warms the
/// calibration kernel up and runs the reference interpreter round.
pub fn setup(name: &str, plan: &Plan, spans: &mut Spans) -> Result<(Setup, Calib), String> {
    let start = Instant::now();
    spans.enter("setup", "harness");
    let source = workloads::generate(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    let hash = workloads::fnv1a64(source.as_bytes());
    workloads::check_pinned(name, hash)?;
    let timer = Instant::now();
    let program = spans
        .within("parse_program", "bytecode", || parse_program(&source))
        .map_err(|e| format!("{name}: {e}"))?;
    let parse_us = timer.elapsed().as_secs_f64() * 1e6;
    let timer = Instant::now();
    spans
        .within("verify_program", "bytecode", || verify_program(&program))
        .map_err(|e| format!("{name}: {e}"))?;
    let verify_us = timer.elapsed().as_secs_f64() * 1e6;
    let mut calib = Calib::warmed_up();
    let (interp, _) = run_round(
        &program,
        VmOptions::interpreter_only(),
        plan,
        &mut calib,
        spans,
        || {},
    );
    spans.exit();
    let raw_seconds = start.elapsed().as_secs_f64();
    let kernel_mean = calib.history.iter().sum::<f64>() / calib.history.len() as f64;
    let setup = Setup {
        hash,
        program,
        interp,
        parse_us,
        verify_us,
        raw_seconds,
        seconds: raw_seconds * CALIB_NOMINAL_NS / kernel_mean,
    };
    Ok((setup, calib))
}

/// Field `name` of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn proc_status_bytes(name: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0)
        .ok_or_else(|| format!("no {name} in /proc/self/status"))
}

/// Compilations of every method a sample compiles, back to back, so that
/// even a workload with two small methods is timed over about a
/// millisecond.
const COMPILES_PER_SAMPLE: usize = 4;

/// Repeated compilations of every method a warmed VM compiled.
pub struct CompileReps {
    /// Time to compile all the methods once, one sample per repetition.
    pub total: Vec<Sample>,
    /// The artifacts of the last repetition.
    pub methods: Vec<CompiledMethod>,
    /// The compiler's own phase timers, summed over every repetition.
    pub phases: PhaseTimes,
}

/// Compiles every method `vm` holds compiled code for, `reps` times, at
/// `level` and from the VM's own warmed profiles.
pub fn compile_reps(
    vm: &Vm,
    level: OptLevel,
    reps: usize,
    calib: &mut Calib,
    spans: &mut Spans,
) -> Result<CompileReps, String> {
    let options = CompilerOptions::with_opt_level(level);
    let program = vm.program();
    let mut total = Vec::with_capacity(reps);
    let mut methods = Vec::new();
    let mut phases = PhaseTimes::default();
    let mut before = calib.run();
    for _ in 0..reps {
        let (compiled, sample, after) = calib.time(before, || {
            let mut all = Ok(Vec::new());
            for _ in 0..COMPILES_PER_SAMPLE {
                all = vm
                    .compiled_methods()
                    .into_iter()
                    .map(|method| {
                        spans.within("compile", "compiler", || {
                            pea_compiler::compile(program, method, Some(vm.profiles()), &options)
                        })
                    })
                    .collect::<Result<Vec<_>, _>>();
            }
            all
        });
        methods = compiled.map_err(|bailout| format!("compile bailed out: {bailout:?}"))?;
        for method in &methods {
            phases.absorb(&method.times);
        }
        total.push(Sample {
            raw_ns: sample.raw_ns / COMPILES_PER_SAMPLE as f64,
            ..sample
        });
        before = after;
    }
    Ok(CompileReps {
        total,
        methods,
        phases,
    })
}
