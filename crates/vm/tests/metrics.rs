//! Metrics/trace consistency: the `pea.*` metrics counters and the trace
//! stream's [`SiteAggregator`] fold the *same* event buffers, so their
//! totals must agree exactly — in synchronous mode and in background mode
//! (where per-worker buffers are merged through a [`SequencedMerge`]).

use pea_metrics::MetricsHub;
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

fn assert_consistent(workload: &Workload, background: bool) {
    let (sink, agg) = SharedSink::new(SiteAggregator::new());
    let mut options = metrics_options(background);
    options.trace = Some(sink);
    let mut vm = Vm::new(workload.program.clone(), options);
    for i in 0..200 {
        vm.call_entry("iterate", &[Value::Int(i)])
            .unwrap_or_else(|e| panic!("{} iteration {i}: {e}", workload.name));
    }
    vm.await_background_compiles();
    let snapshot = vm.metrics().snapshot().expect("metrics enabled");
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
