//! Multi-threaded mutator determinism: N mutators on one shared VM must
//! each behave **byte-identically** to a solo VM running the same call
//! sequence — per-iteration results, the full `Stats` struct, and the
//! normalized trace stream — while the shared hubs (metrics, profiler)
//! reconcile as the sum over threads.

use pea_bytecode::asm::parse_program;
use pea_metrics::MetricsHub;
use pea_runtime::{Stats, Value};
use pea_trace::{MemorySink, SharedSink, TraceEvent};
use pea_vm::{ExecMode, JitMode, Mutator, OptLevel, ProfilerHub, Vm, VmOptions};
use pea_workloads::{all_workloads, Pattern, Suite, Workload, WorkloadSpec};
use proptest::prelude::*;

fn strict_options(exec_mode: ExecMode) -> VmOptions {
    VmOptions {
        exec_mode,
        metrics: MetricsHub::enabled(),
        ..VmOptions::with_opt_level(OptLevel::Pea)
    }
}

/// What one mutator observed over a run: per-iteration results, the
/// final statistics, and the normalized trace stream.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Option<Value>>,
    stats: Stats,
    trace: Vec<TraceEvent>,
}

/// Drives `iters` `iterate(i)` calls on one mutator with a fresh memory
/// trace sink attached, capturing everything the determinism contract
/// compares.
fn observe(m: &mut Mutator, name: &str, iters: i64) -> Observed {
    let (sink, events) = SharedSink::new(MemorySink::new());
    m.set_trace(sink);
    let results = (0..iters)
        .map(|i| {
            m.call_entry("iterate", &[Value::Int(i)])
                .unwrap_or_else(|e| panic!("{name} iteration {i}: {e}"))
        })
        .collect();
    let trace = events
        .lock()
        .expect("trace sink poisoned")
        .events
        .iter()
        .map(TraceEvent::normalized)
        .collect();
    Observed {
        results,
        stats: m.stats(),
        trace,
    }
}

/// The solo oracle: a fresh single-mutator VM running the same call
/// sequence under the same options (its own metrics hub, discarded).
fn solo_oracle(workload: &Workload, iters: i64, exec_mode: ExecMode) -> Observed {
    let mut vm = Vm::new(workload.program.clone(), strict_options(exec_mode));
    observe(&mut vm, &workload.name, iters)
}

/// Metrics counters that replay deterministically per mutator, so the
/// threaded hub total must be exactly `threads ×` the solo total.
const REPLAYED_COUNTERS: &[&str] = &[
    "heap.allocs",
    "vm.installs",
    "pea.virtualized",
    "pea.materialized",
    "pea.locks_elided",
];

/// The core contract: `threads` mutators running `workload` concurrently
/// each match the solo oracle byte-for-byte, and shared-layer totals
/// reconcile as sums over threads.
fn assert_threads_match_solo(workload: &Workload, iters: i64, threads: usize, exec_mode: ExecMode) {
    let solo = solo_oracle(workload, iters, exec_mode);

    let vm = Vm::new(workload.program.clone(), strict_options(exec_mode));
    let observed = vm
        .run_threads(threads, |_, m| observe(m, &workload.name, iters))
        .expect("spawns the mutator threads");

    for (t, o) in observed.iter().enumerate() {
        assert_eq!(
            o.results, solo.results,
            "{} thread {t}: per-iteration results diverged from solo run",
            workload.name
        );
        assert_eq!(
            o.stats, solo.stats,
            "{} thread {t}: statistics diverged from solo run",
            workload.name
        );
        assert_eq!(
            o.trace, solo.trace,
            "{} thread {t}: normalized trace diverged from solo run",
            workload.name
        );
    }

    // Shared-hub reconciliation: replayed counters sum over threads. The
    // main mutator ran nothing, so the threaded total is threads × solo.
    let solo_vm = Vm::new(workload.program.clone(), strict_options(exec_mode));
    let mut solo_main = solo_vm.spawn_mutator();
    observe(&mut solo_main, &workload.name, iters);
    drop(solo_main); // flush buffered heap counters into the hub
    let solo_counters = solo_vm.metrics().snapshot().expect("metrics enabled");
    let threaded = vm.metrics().snapshot().expect("metrics enabled");
    for name in REPLAYED_COUNTERS {
        assert_eq!(
            threaded.counter(name),
            threads as u64 * solo_counters.counter(name),
            "{}: hub counter {name} is not {threads}× the solo total",
            workload.name
        );
    }
}

fn corpus(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload named {name}"))
}

#[test]
fn threads_match_solo_linear_tier() {
    for name in ["fop", "SPECjbb2005"] {
        assert_threads_match_solo(&corpus(name), 100, 3, ExecMode::Linear);
    }
}

#[test]
fn threads_match_solo_graph_tier() {
    assert_threads_match_solo(&corpus("luindex"), 100, 3, ExecMode::Graph);
}

/// Background mode: per-iteration results still match the solo oracle
/// exactly (each mutator tiers against its own profile timeline, same as
/// a solo background VM), and every thread installs its own artifacts.
#[test]
fn background_threads_match_solo_results() {
    let workload = corpus("fop");
    let options = || VmOptions {
        jit_mode: JitMode::Background,
        compile_workers: Some(2),
        ..VmOptions::with_opt_level(OptLevel::Pea)
    };

    let mut solo = Vm::new(workload.program.clone(), options());
    let solo_results: Vec<_> = (0..150)
        .map(|i| solo.call_entry("iterate", &[Value::Int(i)]).unwrap())
        .collect();
    solo.await_background_compiles();

    let vm = Vm::new(workload.program.clone(), options());
    let threaded = vm
        .run_threads(3, |t, m| {
            let results: Vec<_> = (0..150)
                .map(|i| {
                    m.call_entry("iterate", &[Value::Int(i)])
                        .unwrap_or_else(|e| panic!("thread {t} iteration {i}: {e}"))
                })
                .collect();
            let installed = m.await_background_compiles();
            (results, installed)
        })
        .expect("spawns the mutator threads");
    for (t, (results, installed)) in threaded.iter().enumerate() {
        assert_eq!(
            results, &solo_results,
            "thread {t} diverged from the solo background run"
        );
        assert!(
            *installed > 0,
            "thread {t} installed no background artifacts"
        );
    }
}

/// The guard-failure workload of the profiler tests: compiled code
/// speculates the rare branch away; large arguments deopt it, and enough
/// deopts evict the method for re-profiling.
const DEOPT_SRC: &str = "
    class Box { field v int }
    static g ref
    method f 1 returns {
        new Box store 1
        load 1 load 0 putfield Box.v
        load 0 const 100 ifcmp gt Lrare
        load 1 getfield Box.v const 1 add retv
    Lrare:
        load 1 putstatic g
        load 1 getfield Box.v const 1000 add retv
    }";

fn deopt_program() -> pea_bytecode::Program {
    let program = parse_program(DEOPT_SRC).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    program
}

/// One mutator's install → deopt → evict → recompile lifecycle: warm up
/// on the speculated fast path, hammer the rare branch until eviction,
/// then re-warm on a mixed distribution so the method recompiles without
/// the failed speculation.
fn churn(m: &mut Mutator, label: &str) -> (Vec<Option<Value>>, Stats) {
    let mut results = Vec::new();
    let mut call = |m: &mut Mutator, arg: i64| {
        results.push(
            m.call_entry("f", &[Value::Int(arg)])
                .unwrap_or_else(|e| panic!("{label} f({arg}): {e}")),
        );
    };
    for i in 0..80 {
        call(m, i % 50);
    }
    for i in 0..20 {
        call(m, 500 + i);
    }
    for i in 0..120 {
        call(m, if i % 3 == 0 { 500 } else { i % 50 });
    }
    (results, m.stats())
}

/// Concurrent install/evict/recompile stress: every
/// thread's results and statistics are byte-identical to a solo run.
#[test]
fn concurrent_eviction_churn_matches_solo() {
    let options = || VmOptions {
        compile_threshold: 20,
        ..VmOptions::with_opt_level(OptLevel::Pea)
    };

    let mut solo = Vm::new(deopt_program(), options());
    let solo_run = churn(&mut solo, "solo");
    assert!(solo.stats().deopts > 0, "workload must deopt");
    assert!(
        solo.stats().compiles >= 2,
        "workload must evict and recompile (compiles: {})",
        solo.stats().compiles
    );

    let vm = Vm::new(deopt_program(), options());
    let runs = vm
        .run_threads(4, |t, m| churn(m, &format!("thread {t}")))
        .expect("spawns the mutator threads");
    for (t, run) in runs.iter().enumerate() {
        assert_eq!(run, &solo_run, "thread {t} diverged from the solo run");
    }
}

/// Two mutators running *different* methods concurrently: the profiler
/// hub must attribute each method's cycles to the thread that ran it —
/// per-method totals equal the respective solo totals, never a mixture.
#[test]
fn concurrent_mutators_never_cross_charge_the_profiler() {
    const SRC: &str = "
        class A { field v int }
        method fa 1 returns {
            new A store 1
            load 1 load 0 putfield A.v
            load 1 getfield A.v const 2 mul retv
        }
        method fb 1 returns {
            load 0 const 3 mul const 1 add retv
        }";
    let program = || {
        let p = parse_program(SRC).unwrap();
        pea_bytecode::verify_program(&p).unwrap();
        p
    };
    let options = |hub: &ProfilerHub| VmOptions {
        profiler: hub.clone(),
        ..VmOptions::with_opt_level(OptLevel::Pea)
    };
    let drive = |m: &mut Mutator, method: &str| {
        for i in 0..200 {
            m.call_entry(method, &[Value::Int(i)]).unwrap();
        }
    };

    // Solo baselines, one hub per method.
    let method_total = |hub: &ProfilerHub, method: &str| {
        hub.snapshot()
            .unwrap()
            .rows
            .iter()
            .filter(|r| r.method == method)
            .map(|r| r.cycles)
            .sum::<u64>()
    };
    let hub_a = ProfilerHub::enabled();
    drive(&mut Vm::new(program(), options(&hub_a)), "fa");
    let solo_a = method_total(&hub_a, "fa");
    let hub_b = ProfilerHub::enabled();
    drive(&mut Vm::new(program(), options(&hub_b)), "fb");
    let solo_b = method_total(&hub_b, "fb");
    assert!(solo_a > 0 && solo_b > 0);

    // Concurrent run on one shared hub: thread 0 runs only fa, thread 1
    // only fb. Any cross-charge would inflate one total and deflate the
    // other; per-mutator recorder contexts keep both exact.
    let hub = ProfilerHub::enabled();
    let vm = Vm::new(program(), options(&hub));
    vm.run_threads(2, |t, m| drive(m, if t == 0 { "fa" } else { "fb" }))
        .expect("spawns the mutator threads");
    assert_eq!(
        method_total(&hub, "fa"),
        solo_a,
        "fa cycles cross-charged between threads"
    );
    assert_eq!(
        method_total(&hub, "fb"),
        solo_b,
        "fb cycles cross-charged between threads"
    );
}

fn pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        (1i64..5).prop_map(|n| Pattern::BoxingArith { n }),
        (1i64..5).prop_map(|n| Pattern::TupleReturn { n }),
        (1i64..5).prop_map(|n| Pattern::SyncCounter { n }),
        (1i64..4).prop_map(|n| Pattern::ScratchVector { n }),
        (1i64..5, 1i64..4).prop_map(|(n, escape_every)| Pattern::MixedEscape { n, escape_every }),
        (1i64..4, 2i64..5).prop_map(|(n, pool)| Pattern::EscapeHeavy { n, pool }),
        (1i64..4).prop_map(|n| Pattern::PolyDispatch { n }),
        (1i64..6).prop_map(|n| Pattern::Ballast { n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Fuzzed workloads stay byte-identical to the solo oracle with two
    /// concurrent mutators on the default (linear) tier.
    #[test]
    fn generated_workloads_deterministic_across_threads(
        parts in prop::collection::vec(pattern(), 1..4),
    ) {
        let spec = WorkloadSpec {
            name: "generated",
            suite: Suite::DaCapo,
            significant: false,
            parts,
        };
        let workload = Workload::from_spec(&spec);
        assert_threads_match_solo(&workload, 60, 2, ExecMode::Linear);
    }
}
