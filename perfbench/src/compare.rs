//! Result files and `--compare`.
//!
//! A result file holds one or more *sets*; a set is one run of every
//! workload. `--compare A.json B.json` judges B against the base A, one
//! row per workload and end-to-end metric.

use crate::json::Json;
use crate::report::END_TO_END;
use crate::stats::{median, quartiles};
use crate::workloads::NAMES;
use std::fmt::Write as _;

/// The verdict on one metric of one workload. Lower is better for every
/// end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B reads below every run of A.
    Better,
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse by more than the bound and the quartile ranges
    /// do not overlap.
    Worse,
    /// The run-to-run spread is wider than the bound, or the medians
    /// differ by more than the bound while the quartile ranges (with fewer
    /// than four runs: the ranges) overlap: these runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` against the base runs `a`.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    if max(b) < min(a) {
        return Verdict::Better;
    }
    // Below four runs the quartile formula extrapolates beyond the data;
    // the range of the runs themselves is the honest spread.
    let range = |v: &[f64]| match v.len() {
        0..=3 => (min(v), max(v)),
        _ => quartiles(v),
    };
    let (a1, a3) = range(a);
    let (b1, b3) = range(b);
    let spread = ((a3 - a1) / med_a).max((b3 - b1) / med_b);
    let worse_by = (med_b - med_a) / med_a;
    if worse_by > bound {
        if b1 > a3 {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// The values of one end-to-end metric of one workload, one per set.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("sets")
        .map(Json::elements)
        .unwrap_or_default()
        .iter()
        .filter_map(|set| {
            set.get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compares two result files. Returns the table and whether any row is
/// `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (label, file) in [("A", a), ("B", b)] {
        if file.get("comparable") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{label} is not a comparable result file (a smoke run?)"
            ));
        }
    }
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:16} {:26} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for workload in NAMES {
        for (metric, unit, bound) in END_TO_END {
            let (va, vb) = (values(a, workload, metric), values(b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{metric}: missing from a result file"));
            }
            let verdict = judge(&va, &vb, bound);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{workload:16} {metric:26} {:>14.4} {:>14.4} {:>9.4} {:>5.0}%  {} ({unit}, {}+{} runs)",
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                bound * 100.0,
                verdict.word(),
                va.len(),
                vb.len(),
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_median_bound_and_overlap() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&base, &[90.0, 91.0, 92.0], 0.10), Verdict::Better);
        assert_eq!(judge(&base, &[100.0, 102.0, 101.0], 0.10), Verdict::Within);
        assert_eq!(
            judge(&[100.0, 104.0], &[101.0, 103.0], 0.10),
            Verdict::Within
        );
        assert_eq!(judge(&base, &[120.0, 121.0, 119.0], 0.10), Verdict::Worse);
        // Worse by the median, but the runs are all over the place.
        assert_eq!(
            judge(&base, &[95.0, 115.0, 140.0], 0.10),
            Verdict::Unresolved
        );
        // Medians agree, spread wider than the bound.
        assert_eq!(
            judge(&base, &[80.0, 100.0, 125.0], 0.10),
            Verdict::Unresolved
        );
        // Single runs: only the medians can speak.
        assert_eq!(judge(&[100.0], &[100.0], 0.0), Verdict::Within);
        assert_eq!(judge(&[100.0], &[101.0], 0.0), Verdict::Worse);
    }

    fn file(steady: &[f64], comparable: bool) -> Json {
        let set = |value: f64| {
            Json::object(NAMES.iter().map(|workload| {
                let metrics = END_TO_END.iter().map(|(metric, unit, _)| {
                    let v = if *metric == "steady_cns_per_iter" {
                        value
                    } else {
                        5.0
                    };
                    (
                        *metric,
                        Json::object([("value", Json::Num(v)), ("unit", Json::from(*unit))]),
                    )
                });
                (
                    *workload,
                    Json::object([("end_to_end", Json::object(metrics))]),
                )
            }))
        };
        Json::object([
            ("comparable", Json::Bool(comparable)),
            ("sets", Json::Arr(steady.iter().map(|&v| set(v)).collect())),
        ])
    }

    #[test]
    fn compare_flags_a_regression_and_refuses_smoke_files() {
        let a = file(&[100.0, 101.0, 99.0], true);
        let (table, worse) = compare(&a, &file(&[100.5, 100.0, 101.5], true)).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.lines().count(), 1 + NAMES.len() * END_TO_END.len());
        let (table, worse) = compare(&a, &file(&[130.0, 131.0, 129.0], true)).unwrap();
        assert!(worse);
        assert!(table.contains("worse"));
        assert!(compare(&a, &file(&[100.0], false)).is_err());
        assert!(compare(&a, &Json::object([("comparable", Json::Bool(true))])).is_err());
    }
}
