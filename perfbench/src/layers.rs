//! The traced pass: one figure per layer, measured from outside through
//! public functions, with a span around every call into a layer. The
//! layers are the crates; a metric's prefix names the crate it measures.

use crate::calib::{cns, Calib};
use crate::measure::{self, steady_cns, Plan, Round};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, percentile, quartiles, sort};
use crate::workloads;
use pea_analysis::ProgramSummaries;
use pea_bytecode::asm::parse_program;
use pea_bytecode::{MethodId, ValueKind};
use pea_compiler::OptLevel;
use pea_metrics::profile::ProfilerHub;
use pea_metrics::MetricsHub;
use pea_runtime::{Heap, Value};
use pea_trace::{SharedSink, TraceEvent, TraceSink};
use pea_vm::{JitMode, Vm, VmOptions};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Samples of each stand-alone compilation.
const COMPILE_REPS: usize = 11;
/// Operations per heap micro-loop and rounds of each.
const HEAP_OPS: usize = 200_000;
const HEAP_ROUNDS: usize = 3;

fn steady_median(rounds: &[Round]) -> f64 {
    median(&steady_cns(rounds))
}

fn pct_over(value: f64, base: f64) -> f64 {
    (value / base - 1.0) * 100.0
}

/// Counts trace events by the kinds the metrics need.
#[derive(Clone, Copy, Default)]
struct EventCounts {
    all: u64,
    deopts: u64,
    failed_guards: u64,
    evictions: u64,
}

impl TraceSink for EventCounts {
    fn emit(&mut self, event: &TraceEvent) {
        self.all += 1;
        match event {
            TraceEvent::Deopt { .. } => self.deopts += 1,
            TraceEvent::DeoptTaken { .. } => self.failed_guards += 1,
            TraceEvent::Evict { .. } => self.evictions += 1,
            _ => {}
        }
    }
}

/// What is attached to the VM of a configuration.
#[derive(Clone, Copy, PartialEq)]
enum Hook {
    Nothing,
    /// The benchmark's own spans around every call.
    Spans,
    Sink,
    MetricsHub,
    Profiler,
}

struct Config {
    label: &'static str,
    level: OptLevel,
    hook: Hook,
    background: bool,
    /// Runs `phase_shift` with its phase frozen instead of the workload.
    frozen: bool,
    rounds: Vec<Round>,
    /// Trace events of the last round's measured window (`Hook::Sink`).
    events: EventCounts,
}

impl Config {
    fn new(label: &'static str, level: OptLevel, hook: Hook) -> Config {
        Config {
            label,
            level,
            hook,
            background: false,
            frozen: false,
            rounds: Vec::new(),
            events: EventCounts::default(),
        }
    }
}

/// Measures every per-layer metric of workload `name`.
pub fn run(name: &str, plan: &Plan) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::on();
    spans.enter("traced_pass", "harness");

    // The heap micro-loops run first: resident memory grows with the
    // allocations only while the allocator has nothing to reuse.
    heap_micro(&mut report, &mut spans)?;

    let (setup, mut calib) = measure::setup(name, plan, &mut spans)?;
    println!("input {name} fnv1a64 {:016x}", setup.hash);
    let program = &setup.program;
    let reference = &setup.interp.outcomes;
    report.attempted += reference.len() as u64;
    report.failed += reference.iter().filter(|o| o.is_err()).count() as u64;
    let start = Instant::now();
    let measured = plan.measured as f64;

    report.push("bytecode.parse_us", setup.parse_us, "us");
    report.push("bytecode.verify_us", setup.verify_us, "us");
    let insns: usize = program.methods.iter().map(|m| m.code.len()).sum();
    report.push("bytecode.insns", insns as f64, "count");

    // Interpreter: instructions from the metrics hub's step counter over
    // a short interpreted run, time from the reference round.
    let hub = MetricsHub::enabled();
    let counted = Plan {
        warm: 0,
        measured: 3 * plan.batch,
        ..*plan
    };
    spans.set_on(false);
    measure::run_round(
        program,
        VmOptions {
            metrics: hub.clone(),
            ..VmOptions::interpreter_only()
        },
        &counted,
        &mut calib,
        &mut spans,
        || {},
    );
    spans.set_on(true);
    let steps = hub.snapshot().map_or(0, |s| s.counter("interp.steps"));
    let insns_per_iter = steps as f64 / counted.measured as f64;
    let interp_cns = steady_median(std::slice::from_ref(&setup.interp));
    report.push("interp.insns_per_iter", insns_per_iter, "count");
    report.push("interp.cns_per_insn", interp_cns / insns_per_iter, "cns");
    report.push(
        "interp.cns_per_vcycle",
        interp_cns / (setup.interp.window.cycles as f64 / measured),
        "cns",
    );

    // Rounds of every configuration, in turn, until the time is up.
    let mut configs = vec![
        Config::new("pea", OptLevel::Pea, Hook::Nothing),
        Config::new("pea+spans", OptLevel::Pea, Hook::Spans),
        Config::new("none", OptLevel::None, Hook::Nothing),
        Config::new("ees", OptLevel::Ees, Hook::Nothing),
        Config::new("pea+sink", OptLevel::Pea, Hook::Sink),
        Config::new("pea+hub", OptLevel::Pea, Hook::MetricsHub),
        Config::new("pea+profiler", OptLevel::Pea, Hook::Profiler),
        Config {
            background: true,
            ..Config::new("pea background", OptLevel::Pea, Hook::Nothing)
        },
    ];
    let frozen_program = if name == "phase_shift" {
        let source = workloads::phase_frozen();
        configs.push(Config {
            frozen: true,
            ..Config::new("pea frozen", OptLevel::Pea, Hook::Nothing)
        });
        Some(parse_program(&source).map_err(|e| format!("frozen phase_shift: {e}"))?)
    } else {
        None
    };
    let mut compiled = None;
    loop {
        let lap = Instant::now();
        for config in &mut configs {
            let mut options = VmOptions::with_opt_level(config.level);
            let sink = (config.hook == Hook::Sink).then(|| SharedSink::new(EventCounts::default()));
            match config.hook {
                Hook::Sink => options.trace = sink.as_ref().map(|(shared, _)| shared.clone()),
                Hook::MetricsHub => options.metrics = MetricsHub::enabled(),
                Hook::Profiler => options.profiler = ProfilerHub::enabled(),
                Hook::Nothing | Hook::Spans => {}
            }
            if config.background {
                options.jit_mode = JitMode::Background;
                options.compile_workers = Some(1);
            }
            spans.set_on(config.hook == Hook::Spans);
            let (mut round, vm) = measure::run_round(
                match &frozen_program {
                    Some(frozen) if config.frozen => frozen,
                    _ => program,
                },
                options,
                plan,
                &mut calib,
                &mut spans,
                || {
                    // Count the measured window only.
                    if let Some((_, counts)) = &sink {
                        *counts.lock().expect("sink lock") = EventCounts::default();
                    }
                },
            );
            spans.set_on(true);
            if config.frozen {
                // Another program: it has no reference, only errors count.
                report.attempted += round.outcomes.len() as u64;
                report.failed += round.outcomes.iter().filter(|o| o.is_err()).count() as u64;
            } else {
                report.count(round.check(reference));
            }
            if let Some((_, counts)) = &sink {
                config.events = *counts.lock().expect("sink lock");
            }
            if config.label == "pea" && compiled.is_none() {
                compiled = Some((
                    measure::compile_reps(
                        &vm,
                        OptLevel::Pea,
                        COMPILE_REPS,
                        &mut calib,
                        &mut spans,
                    )?,
                    measure::compile_reps(
                        &vm,
                        OptLevel::Ees,
                        COMPILE_REPS,
                        &mut calib,
                        &mut spans,
                    )?,
                ));
            }
            config.rounds.push(round);
        }
        let rounds = configs[0].rounds.len();
        if rounds >= plan.min_rounds
            && start.elapsed().as_secs_f64() + lap.elapsed().as_secs_f64() > plan.seconds
        {
            break;
        }
    }
    let by_label = |label: &str| -> &Config {
        configs
            .iter()
            .find(|c| c.label == label)
            .expect("the label names a configuration")
    };
    let pea = by_label("pea");
    let none = by_label("none");
    let ees = by_label("ees");
    let pea_cns = steady_median(&pea.rounds);
    let none_cns = steady_median(&none.rounds);
    let pea_window = pea.rounds[0].window;
    let none_window = none.rounds[0].window;
    let ees_window = ees.rounds[0].window;
    let per_iter = |count: u64| count as f64 / measured;
    let per_kiter = |count: u64| count as f64 * 1000.0 / measured;

    // Compiler and escape analysis, from stand-alone compilations with
    // the warmed profiles of the first product round.
    let (at_pea, at_ees) = compiled.ok_or("no product round ran")?;
    let methods = &at_pea.methods;
    let compile_cns = median(&cns(&at_pea.total));
    let phases = at_pea.phases;
    let total = phases.total().as_secs_f64();
    let share = |d: std::time::Duration| d.as_secs_f64() / total;
    report.push("compiler.methods_compiled", methods.len() as f64, "count");
    report.push(
        "compiler.graph_nodes",
        methods.iter().map(|m| m.graph.live_count()).sum::<usize>() as f64,
        "nodes",
    );
    report.push(
        "compiler.linear_words",
        methods
            .iter()
            .filter_map(|m| m.linear.as_ref())
            .map(|l| l.code.len())
            .sum::<usize>() as f64,
        "words",
    );
    report.push(
        "compiler.inlined_calls",
        methods
            .iter()
            .flat_map(|m| &m.inline_decisions)
            .filter(|d| d.inlined)
            .count() as f64,
        "count",
    );
    report.push(
        "compiler.compile_cus_per_method",
        compile_cns / 1e3 / methods.len() as f64,
        "cus",
    );
    report.push("compiler.build_share", share(phases.build), "ratio");
    report.push(
        "compiler.canonicalize_share",
        share(phases.canonicalize),
        "ratio",
    );
    report.push(
        "compiler.escape_analysis_share",
        share(phases.escape_analysis),
        "ratio",
    );
    report.push("compiler.schedule_share", share(phases.schedule), "ratio");
    report.push("compiler.lower_share", share(phases.lower), "ratio");
    report.push(
        "compiler.linear_cns_per_vcycle",
        pea_cns / per_iter(pea_window.cycles),
        "cns",
    );

    let pea_sum = |field: fn(&pea_core::PeaResult) -> usize| -> f64 {
        methods.iter().map(|m| field(&m.pea_result)).sum::<usize>() as f64
    };
    report.push(
        "core.virtualized_allocs",
        pea_sum(|r| r.virtualized_allocs),
        "count",
    );
    report.push(
        "core.materializations",
        pea_sum(|r| r.materializations),
        "count",
    );
    report.push(
        "core.elided_monitors",
        pea_sum(|r| r.elided_monitors),
        "count",
    );
    report.push("core.deleted_loads", pea_sum(|r| r.deleted_loads), "count");
    report.push(
        "core.deleted_stores",
        pea_sum(|r| r.deleted_stores),
        "count",
    );
    report.push("core.loop_rounds", pea_sum(|r| r.loop_rounds), "count");
    report.push(
        "core.pea_cus",
        compile_cns / 1e3 * share(phases.escape_analysis),
        "cus",
    );
    report.push(
        "core.ees_cus",
        median(&cns(&at_ees.total)) / 1e3 * at_ees.phases.escape_analysis.as_secs_f64()
            / at_ees.phases.total().as_secs_f64(),
        "cus",
    );
    report.push(
        "core.none_allocs_per_iter",
        per_iter(none_window.alloc_count),
        "count",
    );
    report.push(
        "core.ees_allocs_per_iter",
        per_iter(ees_window.alloc_count),
        "count",
    );
    report.push(
        "core.ees_steady_cns_per_iter",
        steady_median(&ees.rounds),
        "cns",
    );
    report.push("core.pea_wall_gain_pct", -pct_over(pea_cns, none_cns), "%");
    report.push(
        "core.pea_vcycle_gain_pct",
        -pct_over(pea_window.cycles as f64, none_window.cycles as f64),
        "%",
    );

    // Static analysis.
    let mut summaries_us = Vec::new();
    let mut excluded = 0;
    for _ in 0..5 {
        let timer = Instant::now();
        let summaries = spans.within("ProgramSummaries::compute", "analysis", || {
            ProgramSummaries::compute(program)
        });
        summaries_us.push(timer.elapsed().as_secs_f64() * 1e6);
        excluded = (0..program.methods.len())
            .map(|m| {
                summaries
                    .excluded_sites_flow(program, MethodId::from_index(m))
                    .len()
            })
            .sum();
    }
    report.push("analysis.summaries_us", median(&summaries_us), "us");
    report.push("analysis.sites_excluded", excluded as f64, "count");

    // Tiering: counts over the measured window of the product rounds.
    let events = by_label("pea+sink").events;
    report.push(
        "vm.call_entry_cns",
        call_entry_cns(&mut calib, &mut spans)?,
        "cns",
    );
    report.push(
        "vm.deopts_per_kiter",
        per_kiter(events.failed_guards),
        "count",
    );
    report.push(
        "vm.unwinds_per_kiter",
        per_kiter(events.deopts - events.failed_guards),
        "count",
    );
    report.push(
        "vm.remat_per_kiter",
        per_kiter(pea_window.rematerialized),
        "count",
    );
    report.push(
        "vm.compiles_per_kiter",
        per_kiter(pea_window.compiles),
        "count",
    );
    report.push(
        "vm.evictions_per_kiter",
        per_kiter(events.evictions),
        "count",
    );
    let deopt_cycle_cus = match configs.iter().find(|c| c.frozen) {
        Some(frozen) if events.failed_guards > 0 => {
            (pea_cns - steady_median(&frozen.rounds)) * measured / events.failed_guards as f64 / 1e3
        }
        _ => 0.0,
    };
    report.push("vm.deopt_cycle_cus", deopt_cycle_cus, "cus");
    let cold_cms = |rounds: &[Round]| {
        median(
            &rounds
                .iter()
                .map(|r| r.cold_cns() / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    report.push(
        "vm.bg_cold_start_cms",
        cold_cms(&by_label("pea background").rounds),
        "cms",
    );

    // What switching each observability hook on costs.
    let overhead = |label: &str| pct_over(steady_median(&by_label(label).rounds), pea_cns);
    report.push("trace.sink_overhead_pct", overhead("pea+sink"), "%");
    report.push("trace.events_per_kiter", per_kiter(events.all), "count");
    report.push("metrics.hub_overhead_pct", overhead("pea+hub"), "%");
    report.push(
        "metrics.profiler_overhead_pct",
        overhead("pea+profiler"),
        "%",
    );

    // The harness itself.
    let mut kernel = calib.history.clone();
    sort(&mut kernel);
    let (q1, q3) = quartiles(&kernel);
    report.push("calib.ns_median", percentile(&kernel, 50.0), "ns");
    report.push(
        "calib.ns_iqr_pct",
        (q3 - q1) / percentile(&kernel, 50.0) * 100.0,
        "%",
    );
    let raw: Vec<f64> = pea
        .rounds
        .iter()
        .flat_map(|r| r.steady.iter().map(|s| s.raw_ns))
        .collect();
    report.push("raw.steady_ns_per_iter", median(&raw), "ns");
    report.push(
        "raw.cold_start_ms",
        median(
            &pea.rounds
                .iter()
                .map(|r| r.cold_raw_ns() / 1e6)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let mut steady: Vec<f64> = pea.rounds.iter().flat_map(|r| cns(&r.steady)).collect();
    sort(&mut steady);
    report.push("e2e.steady_cns_per_iter", pea_cns, "cns");
    report.push(
        "e2e.steady_cns_per_iter_p10",
        percentile(&steady, 10.0),
        "cns",
    );
    report.push(
        "e2e.steady_cns_per_iter_p95",
        percentile(&steady, 95.0),
        "cns",
    );
    report.push("e2e.steady_samples", steady.len() as f64, "count");
    report.push("e2e.cold_start_cms", cold_cms(&pea.rounds), "cms");
    report.push("bench.span_overhead_pct", overhead("pea+spans"), "%");

    spans.exit();
    let path = trace_path(name)?;
    std::fs::write(&path, spans.to_chrome_trace(name).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{name}: {} rounds per configuration, {} spans written to {}",
        pea.rounds.len(),
        spans.spans.len(),
        path.display()
    );
    for (layer, self_ns) in spans.self_ns_by_layer() {
        println!("  self time {layer:10} {:>10.1} ms", self_ns as f64 / 1e6);
    }
    Ok(report)
}

/// Where the Chrome trace goes: beside the running binary, so inside the
/// build directory and never in the source tree.
fn trace_path(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("the binary has no directory")?
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("trace-{name}.json")))
}

/// Direct `Heap` micro-loops on a fresh heap each round: what one
/// allocation, one field or array read-modify-write and one monitor pair
/// cost without interpreter or compiled code around them.
fn heap_micro(report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let program =
        parse_program("class P { field a int field b int }").map_err(|e| e.to_string())?;
    let class = program.class_by_name("P").ok_or("class P")?;
    let field = program.field_by_name(class, "a").ok_or("field P.a")?;
    let fail = |e: pea_runtime::VmError| e.to_string();
    let mut calib = Calib::warmed_up();
    let mut before = calib.run();
    let mut samples: [Vec<f64>; 5] = Default::default();
    let mut rss_per_byte = Vec::new();
    for _ in 0..HEAP_ROUNDS {
        spans.enter("heap_micro", "runtime");
        let mut heap = Heap::new();
        let rss = measure::proc_status_bytes("VmRSS")?;
        let (_, instance, after) = calib.time(before, || {
            for _ in 0..HEAP_OPS {
                black_box(heap.alloc_instance(&program, class));
            }
        });
        rss_per_byte
            .push((measure::proc_status_bytes("VmRSS")? - rss) / heap.stats.alloc_bytes as f64);
        let (arrays, array, after) = calib.time(after, || {
            (0..HEAP_OPS)
                .map(|_| heap.alloc_array(ValueKind::Int, 16))
                .collect::<Result<Vec<_>, _>>()
        });
        let arrays = arrays.map_err(fail)?;
        let object = heap.alloc_instance(&program, class);
        let (done, field_rw, after) = calib.time(after, || {
            for i in 0..HEAP_OPS {
                let old = heap.get_field(&program, object, field)?.as_int()?;
                heap.put_field(&program, object, field, Value::Int(old + i as i64))?;
            }
            Ok(())
        });
        done.map_err(fail)?;
        let (done, array_rw, after) = calib.time(after, || {
            for i in 0..HEAP_OPS {
                let array = arrays[i % arrays.len()];
                let old = heap.array_get(array, (i % 16) as i64)?.as_int()?;
                heap.array_set(array, (i % 16) as i64, Value::Int(old + 1))?;
            }
            Ok(())
        });
        done.map_err(fail)?;
        let (done, monitor, after) = calib.time(after, || {
            for _ in 0..HEAP_OPS {
                black_box(&mut heap).monitor_enter(object);
                black_box(&mut heap).monitor_exit(object)?;
            }
            Ok(())
        });
        done.map_err(fail)?;
        before = after;
        black_box(&heap);
        for (slot, sample) in [instance, array, field_rw, array_rw, monitor]
            .iter()
            .enumerate()
        {
            samples[slot].push(sample.cns() / HEAP_OPS as f64);
        }
        spans.exit();
    }
    let names = [
        "runtime.alloc_instance_cns",
        "runtime.alloc_array_cns",
        "runtime.field_rw_cns",
        "runtime.array_rw_cns",
        "runtime.monitor_pair_cns",
    ];
    for (name, values) in names.iter().zip(&samples) {
        report.push(name, median(values), "cns");
    }
    // The first round only: later rounds reuse what it freed.
    report.push("runtime.rss_bytes_per_alloc_byte", rss_per_byte[0], "ratio");
    Ok(())
}

/// One `call_entry` of a compiled method that does nothing: the fixed cost
/// of entering the VM.
fn call_entry_cns(calib: &mut Calib, spans: &mut Spans) -> Result<f64, String> {
    const CALLS: usize = 1000;
    let program =
        parse_program("method iterate 1 returns { load 0 retv }").map_err(|e| e.to_string())?;
    let mut vm = Vm::new(program, VmOptions::with_opt_level(OptLevel::Pea));
    let call = |vm: &mut Vm, i: usize| {
        vm.call_entry("iterate", &[Value::Int(i as i64)])
            .map_err(|e| e.to_string())
    };
    for i in 0..200 {
        call(&mut vm, i)?;
    }
    if vm.compiled_method_count() != 1 {
        return Err("the empty method was not compiled".to_string());
    }
    spans.enter("call_entry x 50000", "vm");
    let mut per_call = Vec::new();
    let mut before = calib.run();
    for _ in 0..50 {
        let (done, sample, after) = calib.time(before, || {
            for i in 0..CALLS {
                black_box(call(&mut vm, i)?);
            }
            Ok::<(), String>(())
        });
        done?;
        per_call.push(sample.cns() / CALLS as f64);
        before = after;
    }
    spans.exit();
    Ok(median(&per_call))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn the_traced_pass_reports_exactly_the_per_layer_metrics_of_benchmark_json() {
        let report = run("phase_shift", &Plan::tiny()).expect("the traced pass runs");
        assert_eq!((report.failed, &report.notes), (0, &Vec::new()));
        assert!(report.attempted > 0);
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let text = |metric: &Json, key: &str| match metric.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let listed: Vec<(String, String)> = doc
            .get("per_layer")
            .expect("per_layer")
            .elements()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let reported: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(reported, listed);
        assert!(report.correct(), "every value is a number");
        // The workload's point: guards fail and objects come back.
        assert!(report.value("vm.deopts_per_kiter").unwrap() > 0.0);
        assert!(report.value("vm.remat_per_kiter").unwrap() > 0.0);
    }
}
