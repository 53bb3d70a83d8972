//! Metrics/trace consistency: the `pea.*` metrics counters and the trace
//! stream's [`SiteAggregator`] fold the *same* event buffers, so their
//! totals must agree exactly — in synchronous mode and in background mode
//! (where per-worker buffers are merged through a [`SequencedMerge`]).
//! The same runs without a trace sink count the same compilations: the
//! VM's compile driver buffers events for the metrics fold alone.

use pea_metrics::{MetricsHub, MetricsSnapshot};
use pea_runtime::Value;
use pea_trace::{MemorySink, SharedSink, SiteAggregator, TraceEvent};
use pea_vm::{JitMode, OptLevel, Vm, VmOptions};
use pea_workloads::{all_workloads, Workload};

fn metrics_options(background: bool) -> VmOptions {
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.metrics = MetricsHub::enabled();
    if background {
        options.jit_mode = JitMode::Background;
        options.compile_workers = Some(2);
    }
    options
}

/// Per-site totals folded by the aggregator, in the same order as the
/// metrics names checked below.
fn aggregator_totals(agg: &SiteAggregator) -> [u64; 5] {
    let mut t = [0u64; 5];
    for c in agg.sites.values() {
        t[0] += c.virtualized;
        t[1] += c.materialized;
        t[2] += c.locks_elided;
        t[3] += c.loads_elided;
        t[4] += c.stores_elided;
    }
    t
}

/// Runs 200 iterations of `workload` with metrics on and `trace` attached
/// (if any), and snapshots the metrics once every compile has settled.
fn run(workload: &Workload, background: bool, trace: Option<SharedSink>) -> MetricsSnapshot {
    let mut options = metrics_options(background);
    options.trace = trace;
    let mut vm = Vm::new(workload.program.clone(), options);
    for i in 0..200 {
        vm.call_entry("iterate", &[Value::Int(i)])
            .unwrap_or_else(|e| panic!("{} iteration {i}: {e}", workload.name));
    }
    vm.await_background_compiles();
    vm.metrics().snapshot().expect("metrics enabled")
}

/// Every compilation started ends once: as a success, with one total-time
/// sample, or as a bailout.
fn assert_compiles_balance(snapshot: &MetricsSnapshot, label: &str) {
    let succeeded = snapshot.counter("compile.succeeded");
    assert_eq!(
        snapshot.counter("compile.started"),
        succeeded + snapshot.counter("compile.bailouts"),
        "{label}: compile.started != compile.succeeded + compile.bailouts"
    );
    let total = snapshot
        .histogram("compile.total_us")
        .expect("total_us histogram present");
    assert_eq!(
        total.count(),
        succeeded,
        "{label}: one compile.total_us sample per successful compilation"
    );
}

/// The `compile.*` and `pea.*` counter rows of a snapshot.
fn compile_counters(snapshot: &MetricsSnapshot) -> Vec<(String, u64)> {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("compile.") || name.starts_with("pea."))
        .cloned()
        .collect()
}

fn assert_consistent(workload: &Workload, background: bool) {
    let (sink, agg) = SharedSink::new(SiteAggregator::new());
    let snapshot = run(workload, background, Some(sink));
    let agg = agg.lock().expect("aggregator lock poisoned");

    let totals = aggregator_totals(&agg);
    let mode = if background { "background" } else { "sync" };
    for (name, expected) in [
        ("pea.virtualized", totals[0]),
        ("pea.materialized", totals[1]),
        ("pea.locks_elided", totals[2]),
        ("pea.loads_elided", totals[3]),
        ("pea.stores_elided", totals[4]),
        ("compile.started", agg.compiles),
        ("vm.evictions", agg.evictions),
        (
            "vm.deopts",
            agg.deopts.values().map(|(deopts, _)| *deopts).sum(),
        ),
        (
            "vm.rematerialized_objects",
            agg.deopts.values().map(|(_, remat)| *remat).sum(),
        ),
    ] {
        assert_eq!(
            snapshot.counter(name),
            expected,
            "{} ({mode}): {name} disagrees with the trace aggregator",
            workload.name
        );
    }

    // Sanity: the run actually exercised the layers being counted.
    assert!(snapshot.counter("interp.steps") > 0);
    assert!(snapshot.counter("vm.installs") > 0);
    assert!(snapshot.counter("heap.allocs") > 0);
    assert!(snapshot.counter("pea.virtualized") > 0);
    let phases = snapshot
        .histogram("compile.total_us")
        .expect("total_us histogram present");
    assert_eq!(
        phases.count(),
        snapshot.counter("compile.started"),
        "{} ({mode}): one total-time sample per compilation",
        workload.name
    );

    // Without a trace sink the metrics fold still sees every compilation.
    let untraced = run(workload, background, None);
    assert_compiles_balance(&snapshot, &format!("{} ({mode}, traced)", workload.name));
    assert_compiles_balance(&untraced, &format!("{} ({mode}, untraced)", workload.name));
    if !background {
        assert_eq!(
            compile_counters(&untraced),
            compile_counters(&snapshot),
            "{} (sync): an untraced run counts different compilations",
            workload.name
        );
    }
}

#[test]
fn sync_metrics_match_trace_aggregator() {
    let names = ["fop", "pmd", "factorie", "SPECjbb2005"];
    for w in all_workloads()
        .iter()
        .filter(|w| names.contains(&w.name.as_str()))
    {
        assert_consistent(w, false);
    }
}

#[test]
fn background_metrics_match_trace_aggregator() {
    let names = ["fop", "luindex", "factorie", "SPECjbb2005"];
    for w in all_workloads()
        .iter()
        .filter(|w| names.contains(&w.name.as_str()))
    {
        assert_consistent(w, true);
    }
}

#[test]
fn background_mode_records_queue_latency() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "fop")
        .unwrap();
    let mut vm = Vm::new(w.program.clone(), metrics_options(true));
    for i in 0..200 {
        vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
    }
    vm.await_background_compiles();
    let snapshot = vm.metrics().snapshot().unwrap();
    let latency = snapshot
        .histogram("compile.queue_latency_us")
        .expect("queue latency histogram present");
    assert_eq!(
        latency.count(),
        snapshot.counter("vm.installs"),
        "one latency sample per installed background compilation"
    );
    assert!(latency.count() > 0, "background run installed nothing");
    assert!(snapshot.counter("compile.enqueued") >= latency.count());
}

#[test]
fn metrics_disabled_snapshot_is_none() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "fop")
        .unwrap();
    let mut vm = Vm::new(w.program.clone(), VmOptions::with_opt_level(OptLevel::Pea));
    for i in 0..40 {
        vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
    }
    assert!(vm.metrics().snapshot().is_none());
}

#[test]
fn background_trace_carries_periodic_metrics_snapshots() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "fop")
        .unwrap();
    let (sink, buffer) = SharedSink::new(MemorySink::new());
    let mut options = metrics_options(true);
    options.trace = Some(sink);
    let mut vm = Vm::new(w.program.clone(), options);
    for i in 0..200 {
        vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
    }
    vm.await_background_compiles();
    drop(vm);
    let buffer = buffer.lock().expect("sink lock poisoned");
    let snapshots: Vec<(u64, usize)> = buffer
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::MetricsSnapshot { seq, counters } => Some((*seq, counters.len())),
            _ => None,
        })
        .collect();
    assert!(
        !snapshots.is_empty(),
        "no MetricsSnapshot events in the background trace"
    );
    for (expected, (seq, len)) in snapshots.iter().enumerate() {
        assert_eq!(*seq, expected as u64, "snapshot sequence has gaps");
        assert!(*len > 0, "empty deltas must be skipped, not emitted");
    }
}

/// Background snapshot events carry the main mutator's heap counts as of
/// the safepoint that emits them, not as of its last outermost call exit:
/// one call allocates, then spins past many snapshot points without
/// allocating, and the `heap.allocs` deltas of the events emitted before
/// `await_background_compiles` already sum to every allocation it made.
#[test]
fn background_snapshot_events_carry_the_main_mutators_heap_counts() {
    // `step` turns hot in the spin loop, which starts the compile service;
    // from then on each of `run`'s back-edges is a snapshot point.
    const SRC: &str = "
        class Box { field v int }
        static last ref
        method step 1 returns { load 0 const 1 add retv }
        method run 1 returns {
            const 0 store 1
        Lalloc:
            load 1 const 100 ifcmp ge Lspin
            new Box putstatic last
            load 1 const 1 add store 1
            goto Lalloc
        Lspin:
            load 1 load 0 ifcmp ge Ldone
            load 1 invokestatic step store 1
            goto Lspin
        Ldone:
            load 1 retv
        }";
    let program = pea_bytecode::asm::parse_program(SRC).unwrap();
    let (sink, buffer) = SharedSink::new(MemorySink::new());
    let mut options = metrics_options(true);
    options.trace = Some(sink);
    let mut vm = Vm::new(program, options);
    assert_eq!(
        vm.call_entry("run", &[Value::Int(20_000)]),
        Ok(Some(Value::Int(20_000)))
    );
    let heap_allocs = |buffer: &MemorySink| -> (usize, u64) {
        let deltas: Vec<&Vec<String>> = buffer
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MetricsSnapshot { counters, .. } => Some(counters),
                _ => None,
            })
            .collect();
        let sum = deltas
            .iter()
            .flat_map(|lines| lines.iter())
            .filter_map(|line| line.strip_prefix("heap.allocs="))
            .map(|n| n.parse::<u64>().expect("counter value"))
            .sum();
        (deltas.len(), sum)
    };
    let (events, during) = heap_allocs(&buffer.lock().expect("sink lock poisoned"));
    let allocs = vm.stats().alloc_count;
    assert_eq!(allocs, 100);
    assert!(events > 1, "the spin loop emitted {events} snapshot events");
    assert_eq!(
        during, allocs,
        "snapshot events emitted during the call lag the main mutator's allocations"
    );
    vm.await_background_compiles();
    let (_, settled) = heap_allocs(&buffer.lock().expect("sink lock poisoned"));
    assert_eq!(settled, allocs);
}
