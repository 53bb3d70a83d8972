//! The end-to-end pass: what a user of the VM sees, with every
//! observability hook off and no spans recorded.

use crate::calib::cns;
use crate::measure::{self, steady_cns, Outcome, Plan, Round};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, percentile, sort};
use pea_compiler::OptLevel;
use pea_runtime::Stats;
use pea_vm::VmOptions;
use std::time::Instant;

/// Samples of the stand-alone compilation behind `compile_cms` taken after
/// every product round.
const COMPILE_REPS: usize = 8;
/// Iterations of an interpreter round between the compiled rounds.
const INTERP_ITERATIONS: i64 = 200;

/// The exact quantities of one round: identical in every round of a
/// deterministic VM.
fn exact(round: &Round) -> (Stats, u64) {
    (round.window, round.code_size)
}

/// Measures every end-to-end metric of workload `name`.
pub fn run(name: &str, plan: &Plan) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::off();

    // Set-up, several times: `setup_s` is their median. Its interpreter
    // round is the reference every other round is checked against.
    let mut setup_seconds = Vec::new();
    let mut last = None;
    let mut reference: Option<(Vec<Outcome>, Stats)> = None;
    for _ in 0..plan.setups {
        let (mut setup, calib) = measure::setup(name, plan, &mut spans)?;
        setup_seconds.push(setup.seconds);
        match &reference {
            None => {
                let outcomes = std::mem::take(&mut setup.interp.outcomes);
                report.attempted += outcomes.len() as u64;
                report.failed += outcomes.iter().filter(|o| o.is_err()).count() as u64;
                reference = Some((outcomes, setup.interp.window));
            }
            Some((outcomes, window)) => {
                report.count(setup.interp.check(outcomes));
                if setup.interp.window != *window {
                    report.violation("interpreter counts differ between set-ups".to_string());
                }
            }
        }
        println!(
            "input {name} fnv1a64 {:016x}; set-up took {:.3} s by the wall clock",
            setup.hash, setup.raw_seconds
        );
        last = Some((setup.program, calib));
    }
    let (program, mut calib) = last.ok_or("the plan has no set-up")?;
    let (reference, interp_window) = reference.ok_or("the plan has no set-up")?;

    // Rounds: the product configuration, no escape analysis and the
    // interpreter in turn, so slow drift of the machine hits all alike.
    // The interpreter needs no cold start and is slow, so its rounds are
    // the first `INTERP_ITERATIONS` indices only.
    let interp_plan = Plan {
        warm: 0,
        measured: INTERP_ITERATIONS.min(plan.measured),
        ..*plan
    };
    let start = Instant::now();
    let mut pea: Vec<Round> = Vec::new();
    let mut none: Vec<Round> = Vec::new();
    let mut interp: Vec<Round> = Vec::new();
    let mut compile_cns = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        let lap = Instant::now();
        let product = VmOptions::with_opt_level(OptLevel::Pea);
        let without = VmOptions::with_opt_level(OptLevel::None);
        for (options, plan, rounds, time_compiles) in [
            (product, plan, &mut pea, true),
            (without, plan, &mut none, false),
            (
                VmOptions::interpreter_only(),
                &interp_plan,
                &mut interp,
                false,
            ),
        ] {
            let (mut round, vm) =
                measure::run_round(&program, options, plan, &mut calib, &mut spans, || {});
            report.count(round.check(&reference));
            if rounds
                .first()
                .is_some_and(|first| exact(first) != exact(&round))
            {
                report.violation("exact counts differ between rounds".to_string());
            }
            if time_compiles {
                let reps = measure::compile_reps(
                    &vm,
                    OptLevel::Pea,
                    COMPILE_REPS,
                    &mut calib,
                    &mut spans,
                )?;
                compile_cns.extend(cns(&reps.total));
            }
            rounds.push(round);
        }
        if pea.len() == 1 {
            // Every configuration has built its largest heap once; later
            // laps add only the allocator's fragmentation, which grows
            // with the number of rounds the machine happened to fit in.
            peak_rss_mib = measure::proc_status_bytes("VmHWM")? / (1024.0 * 1024.0);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if pea.len() >= plan.min_rounds && elapsed + lap.elapsed().as_secs_f64() > plan.seconds {
            break;
        }
    }

    let (pea_window, code_size) = exact(&pea[0]);
    let none_window = none[0].window;
    if none_window.alloc_count != interp_window.alloc_count
        || none_window.alloc_bytes != interp_window.alloc_bytes
    {
        report.violation(format!(
            "none allocates {} objects per window, the interpreter {}",
            none_window.alloc_count, interp_window.alloc_count
        ));
    }
    if pea_window.alloc_count > none_window.alloc_count {
        report.violation(format!(
            "pea allocates {} objects per window, none only {}",
            pea_window.alloc_count, none_window.alloc_count
        ));
    }

    let per_iter = |count: u64| count as f64 / plan.measured as f64;
    let cold: Vec<f64> = pea.iter().map(|r| r.cold_cns()).collect();
    for (name, unit, scale, samples) in [
        ("steady_cns_per_iter", "cns", 1.0, steady_cns(&pea)),
        ("steady_none_cns_per_iter", "cns", 1.0, steady_cns(&none)),
        ("interp_cns_per_iter", "cns", 1.0, steady_cns(&interp)),
        ("cold_start_cms", "cms", 1e6, cold),
        ("compile_cms", "cms", 1e6, compile_cns),
    ] {
        let mut sorted: Vec<f64> = samples.iter().map(|s| s / scale).collect();
        sort(&mut sorted);
        println!(
            "{name}: p10 {:.4}, median {:.4}, p95 {:.4} {unit} over {} samples",
            percentile(&sorted, 10.0),
            percentile(&sorted, 50.0),
            percentile(&sorted, 95.0),
            sorted.len()
        );
        report.push(name, percentile(&sorted, 50.0), unit);
    }
    report.push("allocs_per_iter", per_iter(pea_window.alloc_count), "count");
    report.push(
        "alloc_bytes_per_iter",
        per_iter(pea_window.alloc_bytes),
        "bytes",
    );
    report.push(
        "monitor_ops_per_iter",
        per_iter(pea_window.monitor_ops()),
        "count",
    );
    report.push("vcycles_per_iter", per_iter(pea_window.cycles), "cycles");
    report.push("code_size_nodes", code_size as f64, "nodes");
    report.push("peak_rss_mb", peak_rss_mib, "MiB");
    report.push("setup_s", median(&setup_seconds), "s");
    println!(
        "{name}: {} rounds per configuration, {} steady samples each, {:.1} s measuring, \
         calibration kernel median {:.0} ns",
        pea.len(),
        pea.len() * pea[0].steady.len(),
        start.elapsed().as_secs_f64(),
        median(&calib.history)
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    #[test]
    fn the_end_to_end_pass_reports_every_metric_and_none_is_zero() {
        let report = run("partial_escape", &Plan::tiny()).expect("the pass runs");
        assert_eq!((report.failed, &report.notes), (0, &Vec::new()));
        // The reference round, one round each of pea and none, and one
        // interpreter round of the measured length.
        assert_eq!(report.attempted, 3 * 100 + 40);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(name, _, _)| *name).collect();
        assert_eq!(names, expected);
        for (metric, (_, unit, _)) in report.metrics.iter().zip(END_TO_END) {
            assert_eq!(metric.unit, unit, "{}", metric.name);
            assert!(metric.value > 0.0 && metric.value.is_finite(), "{metric:?}");
        }
    }

    #[test]
    fn a_wrong_result_is_counted_as_failed() {
        let mut spans = Spans::off();
        let plan = Plan::tiny();
        let (mut setup, _) = measure::setup("compute_ballast", &plan, &mut spans).unwrap();
        let mut reference = setup.interp.outcomes.clone();
        assert_eq!(setup.interp.check(&reference.clone()), (100, 0));
        // `check` let go of the outcomes; run again and corrupt the oracle.
        let (mut setup, _) = measure::setup("compute_ballast", &plan, &mut spans).unwrap();
        reference[3] = Err("boom".to_string());
        reference.pop();
        assert_eq!(setup.interp.check(&reference), (100, 2));
    }
}
