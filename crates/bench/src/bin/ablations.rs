//! Per-feature ablation study over the benchmark suites: how much of
//! PEA's effect comes from lock elision, per-field phis at merges
//! (§5.3), and iterative loop processing (§5.4)?
//!
//! Each row disables exactly one feature and reports the suite-average
//! allocation-count change and speedup against the no-escape-analysis
//! baseline; the `full` row is the complete algorithm for reference.

//!
//! With `--per-site`, each variant row is followed by its materialization
//! reason totals (folded from the PEA trace stream), showing *which*
//! decisions each disabled feature forces the analysis into.

use pea_bench::{measure, measure_per_site, Row, DEFAULT_ITERS, DEFAULT_WARMUP};
use pea_vm::{OptLevel, Vm, VmOptions};
use pea_workloads::{suite_workloads, Suite, Workload};

/// Measures `workload` under `options`, also returning how much work the
/// escape-analysis phase did: the sites it processed to a virtual state,
/// summed over the compiled methods.
fn measure_with(workload: &Workload, options: &VmOptions) -> (pea_bench::Measurement, usize) {
    let mut vm = Vm::new(workload.program.clone(), options.clone());
    for i in 0..DEFAULT_WARMUP {
        vm.call_entry("iterate", &[pea_runtime::Value::Int(i as i64)])
            .expect("warmup");
    }
    let before = vm.stats();
    let start = std::time::Instant::now();
    for i in DEFAULT_WARMUP..DEFAULT_WARMUP + DEFAULT_ITERS {
        vm.call_entry("iterate", &[pea_runtime::Value::Int(i as i64)])
            .expect("iterate");
    }
    let wall = start.elapsed();
    let d = vm.stats().delta(&before);
    let virtualized = vm
        .compiled_methods()
        .into_iter()
        .map(|method| {
            let compiled = vm.compiled(method).expect("listed method is cached");
            compiled.pea_result.virtualized_allocs
        })
        .sum();
    let measurement = pea_bench::Measurement {
        bytes_per_iter: d.alloc_bytes as f64 / DEFAULT_ITERS as f64,
        allocs_per_iter: d.alloc_count as f64 / DEFAULT_ITERS as f64,
        monitor_ops_per_iter: d.monitor_ops() as f64 / DEFAULT_ITERS as f64,
        cycles_per_iter: d.cycles as f64 / DEFAULT_ITERS as f64,
        wall_ns_per_iter: wall.as_nanos() as f64 / DEFAULT_ITERS as f64,
        deopts: d.deopts,
        compiles: vm.stats().compiles,
    };
    (measurement, virtualized)
}

fn variant(name: &'static str, mutate: impl Fn(&mut VmOptions)) -> (&'static str, VmOptions) {
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    mutate(&mut options);
    (name, options)
}

fn main() {
    let per_site = std::env::args().any(|a| a == "--per-site");
    let variants: Vec<(&'static str, VmOptions)> = vec![
        variant("full", |_| {}),
        variant("no-lock-elision", |o| o.compiler.pea.lock_elision = false),
        variant("no-field-phis", |o| o.compiler.pea.field_phis = false),
        variant("no-loop-fixpoint", |o| {
            o.compiler.pea.loop_processing = false
        }),
    ];
    println!("PEA ablations — suite-average deltas vs. no escape analysis");
    println!(
        "{:<18} {:>34} {:>34} {:>34}",
        "", "DaCapo", "ScalaDaCapo", "SPECjbb2005"
    );
    println!(
        "{:<18} {:>13} {:>10} {:>9} {:>13} {:>10} {:>9} {:>13} {:>10} {:>9}",
        "variant",
        "allocsΔ",
        "speedup",
        "ns/op",
        "allocsΔ",
        "speedup",
        "ns/op",
        "allocsΔ",
        "speedup",
        "ns/op"
    );
    for (name, options) in &variants {
        print!("{name:<18}");
        let mut virtualized = 0;
        for suite in [Suite::DaCapo, Suite::ScalaDaCapo, Suite::SpecJbb] {
            let workloads = suite_workloads(suite);
            let rows: Vec<Row> = workloads
                .iter()
                .map(|w| {
                    let (with, sites) = measure_with(w, options);
                    virtualized += sites;
                    Row {
                        name: w.name.clone(),
                        significant: w.significant,
                        without: measure(w, OptLevel::None, DEFAULT_WARMUP, DEFAULT_ITERS),
                        with,
                    }
                })
                .collect();
            let n = rows.len() as f64;
            let allocs = rows.iter().map(Row::allocs_delta).sum::<f64>() / n;
            let speed = rows.iter().map(Row::speedup).sum::<f64>() / n;
            let wall = rows.iter().map(|r| r.with.wall_ns_per_iter).sum::<f64>() / n;
            print!(" {allocs:>+12.1}% {speed:>+9.1}% {wall:>9.0}");
        }
        println!();
        println!("    pea work: {virtualized} sites virtualized");
        if per_site {
            // Fold materialization reasons over every workload of every
            // suite for this variant.
            let mut totals = std::collections::BTreeMap::new();
            for suite in [Suite::DaCapo, Suite::ScalaDaCapo, Suite::SpecJbb] {
                for w in &suite_workloads(suite) {
                    let agg = measure_per_site(w, options.clone(), DEFAULT_WARMUP, DEFAULT_ITERS);
                    for (reason, count) in agg.reason_totals() {
                        *totals.entry(reason).or_insert(0u64) += count;
                    }
                }
            }
            let line = totals
                .iter()
                .map(|(r, c)| format!("{r} {c}"))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "    materializations: {}",
                if line.is_empty() { "none" } else { &line }
            );
        }
    }
    println!("\n(expect: no-lock-elision keeps monitor ops and loses part of the");
    println!(" speedup; no-field-phis and no-loop-fixpoint materialize objects");
    println!(" that the full algorithm keeps virtual, cutting allocation wins)");
}
