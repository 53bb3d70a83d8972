//! Cycle-attribution profiler: exact reconciliation against the VM's
//! independently maintained counters, deopt-site identity across tiers,
//! and the flight-recorder dump triggers.
//!
//! The reconciliation invariant is the profiler's core contract: every
//! cycle the VM charges is attributed to exactly one `(method, tier)`
//! cell, so the profiler total equals the `stats.cycles` delta — not
//! approximately, *exactly*, in every jit-mode × exec-mode combination.

use pea_bytecode::asm::parse_program;
use pea_metrics::profile::{ProfilerHub, Reconciliation, Tier};
use pea_runtime::Value;
use pea_trace::timeline::validate_json;
use pea_trace::{MemorySink, SharedSink, TraceEvent};
use pea_vm::{ExecMode, JitMode, OptLevel, Vm, VmOptions};
use pea_workloads::all_workloads;

fn options(jit_mode: JitMode, exec_mode: ExecMode, hub: &ProfilerHub) -> VmOptions {
    VmOptions {
        jit_mode,
        exec_mode,
        profiler: hub.clone(),
        ..VmOptions::with_opt_level(OptLevel::Pea)
    }
}

#[test]
fn profiler_reconciles_exactly_over_the_corpus_in_every_mode() {
    for jit_mode in [JitMode::Sync, JitMode::Background] {
        for exec_mode in [ExecMode::Linear, ExecMode::Graph] {
            let hub = ProfilerHub::enabled();
            let mut recon = Reconciliation::default();
            for w in all_workloads() {
                let mut vm = Vm::new(w.program.clone(), options(jit_mode, exec_mode, &hub));
                for i in 0..80 {
                    vm.call_entry("iterate", &[Value::Int(i)])
                        .unwrap_or_else(|e| panic!("{} ({jit_mode:?}/{exec_mode:?}): {e}", w.name));
                }
                if jit_mode == JitMode::Background {
                    vm.await_background_compiles();
                }
                let stats = vm.stats();
                recon.stats_cycles += stats.cycles;
                recon.vm_deopts += stats.deopts;
                recon.vm_installs += stats.compiles;
            }
            let snapshot = hub.snapshot().unwrap();
            recon.profiler_cycles = snapshot.total_cycles();
            recon.profiler_deopts = snapshot.deopts;
            recon.profiler_installs = snapshot.installs;
            assert!(
                recon.ok(),
                "{jit_mode:?}/{exec_mode:?}: reconciliation failed: {recon:?}"
            );
            assert!(recon.profiler_cycles > 0);
            assert!(
                recon.profiler_installs > 0,
                "{jit_mode:?}/{exec_mode:?}: corpus warmup must install compiled code"
            );
            // Both the interpreter and a compiled tier must have cycles:
            // the corpus warms up from cold.
            assert!(snapshot.tier_cycles(Tier::Interp) > 0);
            let compiled_tier = match exec_mode {
                ExecMode::Linear => Tier::Linear,
                ExecMode::Graph => Tier::Graph,
            };
            assert!(
                snapshot.tier_cycles(compiled_tier) > 0,
                "{jit_mode:?}/{exec_mode:?}: compiled tier saw no cycles"
            );
        }
    }
}

/// The guard-failure workload of the VM unit tests: compiled code
/// speculates the rare branch away, a large argument deopts it.
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

fn deopt_vm(exec_mode: ExecMode, hub: &ProfilerHub, sink: Option<SharedSink>) -> Vm {
    let program = parse_program(DEOPT_SRC).unwrap();
    let mut opts = options(JitMode::Sync, exec_mode, hub);
    opts.trace = sink;
    Vm::new(program, opts)
}

#[test]
fn deopts_allocations_and_hot_spots_attribute_to_the_right_cells() {
    let hub = ProfilerHub::enabled();
    let mut vm = deopt_vm(ExecMode::Linear, &hub, None);
    for i in 0..80 {
        vm.call_entry("f", &[Value::Int(i)]).unwrap();
    }
    assert_eq!(vm.compiled_method_count(), 1);
    vm.call_entry("f", &[Value::Int(500)]).unwrap();
    let snapshot = hub.snapshot().unwrap();
    let linear = snapshot
        .rows
        .iter()
        .find(|r| r.method == "f" && r.tier == Tier::Linear)
        .expect("compiled executions must appear under the linear tier");
    assert_eq!(linear.deopts, 1, "the guard failure lands on (f, linear)");
    assert!(linear.invocations > 0);
    let interp = snapshot
        .rows
        .iter()
        .find(|r| r.method == "f" && r.tier == Tier::Interp)
        .expect("warmup must appear under the interpreter tier");
    // Interpreter warmup allocates a Box per call; the compiled tier
    // scalar-replaces it on the fast path but rematerializes on deopt.
    assert!(interp.allocs >= 50, "interp allocs: {}", interp.allocs);
    assert!(linear.allocs >= 1, "deopt rematerialization allocates");
    assert!(
        snapshot.hot_bcis.iter().any(|(m, _, c)| m == "f" && *c > 0),
        "interpreted execution must fill per-bci buckets"
    );
    assert!(
        snapshot.opcode_cycles.iter().any(|&c| c > 0),
        "interpreted execution must fill opcode buckets"
    );
    assert_eq!(snapshot.deopts, vm.stats().deopts);
    assert_eq!(snapshot.total_cycles(), vm.stats().cycles);
}

/// Satellite: every `DeoptTaken`/`Deopt` pair carries the same `(site,
/// bci)`, the identity is the innermost frame, and — because both tiers
/// rebuild the same frame chain — it is byte-identical between the linear
/// and graph executors.
#[test]
fn deopt_events_carry_identical_site_and_bci_across_tiers() {
    let mut per_tier: Vec<Vec<(String, String, u32, String)>> = Vec::new();
    for exec_mode in [ExecMode::Linear, ExecMode::Graph] {
        let (sink, mem) = SharedSink::new(MemorySink::new());
        let hub = ProfilerHub::enabled();
        let mut vm = deopt_vm(exec_mode, &hub, Some(sink));
        for i in 0..80 {
            vm.call_entry("f", &[Value::Int(i)]).unwrap();
        }
        vm.call_entry("f", &[Value::Int(500)]).unwrap();
        let log = mem.lock().unwrap();
        let mut seen = Vec::new();
        for (i, event) in log.events.iter().enumerate() {
            match event {
                TraceEvent::DeoptTaken {
                    method,
                    site,
                    bci,
                    reason,
                } => {
                    assert!(!site.is_empty());
                    // The generic Deopt record follows with the same identity.
                    let Some(TraceEvent::Deopt {
                        method: m,
                        site: s,
                        bci: b,
                        reason: r,
                        ..
                    }) = log.events.get(i + 1)
                    else {
                        panic!("{exec_mode:?}: DeoptTaken not followed by Deopt");
                    };
                    assert_eq!((m, s, b, r), (method, site, bci, reason));
                    seen.push((method.clone(), site.clone(), *bci, reason.clone()));
                }
                TraceEvent::Deopt { site, .. } => assert!(!site.is_empty()),
                _ => {}
            }
        }
        assert!(!seen.is_empty(), "{exec_mode:?}: no deopt observed");
        // No inlining here: the innermost frame is the method itself.
        assert!(seen.iter().all(|(m, s, _, _)| m == "f" && s == "f"));
        per_tier.push(seen);
    }
    assert_eq!(
        per_tier[0], per_tier[1],
        "deopt (site, bci) identities must match between linear and graph tiers"
    );
}

fn flight_path(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("pea-flight-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn flight_ring_dumps_on_vm_error() {
    let path = flight_path("vmerror");
    let hub = ProfilerHub::enabled();
    let program = parse_program(DEOPT_SRC).unwrap();
    let mut opts = options(JitMode::Sync, ExecMode::Linear, &hub);
    opts.flight = Some(path.clone());
    opts.fuel = Some(100_000);
    let mut vm = Vm::new(program, opts);
    let mut failed = false;
    for i in 0..100_000 {
        // Warm up, deopt occasionally, eventually exhaust the fuel budget.
        let arg = if i % 90 == 89 { 500 } else { i % 50 };
        if vm.call_entry("f", &[Value::Int(arg)]).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "the fuel budget must run out");
    let dump = std::fs::read_to_string(&path).expect("FLIGHT.json written on VmError");
    validate_json(&dump).expect("flight dump must be valid JSON");
    assert!(dump.starts_with("{\"schema\":\"pea-flight/1\""));
    assert!(
        dump.contains("\"event\":\"deopt\"") || dump.contains("\"event\":\"compile-start\""),
        "ring must hold the events leading up to the failure: {dump}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flight_ring_dumps_when_a_panic_unwinds_past_the_vm() {
    let path = flight_path("panic");
    let path_clone = path.clone();
    let result = std::panic::catch_unwind(move || {
        let hub = ProfilerHub::enabled();
        let program = parse_program(DEOPT_SRC).unwrap();
        let mut opts = options(JitMode::Sync, ExecMode::Linear, &hub);
        opts.flight = Some(path_clone);
        let mut vm = Vm::new(program, opts);
        for i in 0..80 {
            vm.call_entry("f", &[Value::Int(i)]).unwrap();
        }
        // Stand-in for a compiler invariant failure or a test assertion:
        // the unwind drops the VM, which persists the ring.
        panic!("induced failure");
    });
    assert!(result.is_err());
    let dump = std::fs::read_to_string(&path).expect("FLIGHT.json written on panic");
    validate_json(&dump).expect("flight dump must be valid JSON");
    assert!(dump.contains("compile-start") || dump.contains("compile-end"));
    let _ = std::fs::remove_file(&path);
}
