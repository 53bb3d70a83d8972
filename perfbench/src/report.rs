//! What a run reports: named metrics with units, and the result line.

use crate::json::Json;

/// The end-to-end metrics: name, unit and the share of the baseline
/// median by which a later change may worsen it. `BENCHMARK.json` at the
/// repository root lists the same (a test keeps them in step). Lower is
/// better for all of them.
pub const END_TO_END: [(&str, &str, f64); 12] = [
    ("steady_cns_per_iter", "cns", 0.15),
    ("steady_none_cns_per_iter", "cns", 0.15),
    ("interp_cns_per_iter", "cns", 0.15),
    ("cold_start_cms", "cms", 0.15),
    ("compile_cms", "cms", 0.15),
    ("allocs_per_iter", "count", 0.01),
    ("alloc_bytes_per_iter", "bytes", 0.01),
    ("monitor_ops_per_iter", "count", 0.01),
    ("vcycles_per_iter", "cycles", 0.01),
    ("code_size_nodes", "nodes", 0.01),
    ("peak_rss_mb", "MiB", 0.15),
    ("setup_s", "s", 0.25),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run on one workload.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Iterations whose outcome was checked, over all configurations.
    pub attempted: u64,
    /// Iterations that differed from the reference or raised an error,
    /// plus one per violated invariant.
    pub failed: u64,
    /// What failed, in words.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds the `(checked, differing)` iterations of one round.
    pub fn count(&mut self, (checked, differing): (u64, u64)) {
        self.attempted += checked;
        self.failed += differing;
    }

    /// Records a violated invariant.
    pub fn violation(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// The value of metric `name`.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// A run is correct when nothing failed and every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> Json {
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::object([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The metrics as aligned `name value unit` lines.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        self.metrics
            .iter()
            .map(|m| format!("  {:width$}  {:>16.4} {}\n", m.name, m.value, m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut report = Report {
            attempted: 1000,
            ..Report::default()
        };
        report.push("latency_ms", 1.2034, "ms");
        assert_eq!(
            report.result_line().to_string(),
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\
             \"metrics\":{\"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"}}}"
        );
        report.violation("pea allocated more than none".to_string());
        assert!(!report.correct());
        assert_eq!(report.result_line().get("failed"), Some(&Json::Num(1.0)));
        assert_eq!(report.value("latency_ms"), Some(1.2034));
    }

    #[test]
    fn a_value_that_is_not_a_number_is_not_correct() {
        let mut report = Report::default();
        report.push("ratio", f64::NAN, "cns");
        assert!(!report.correct());
    }

    #[test]
    fn benchmark_json_lists_the_same_end_to_end_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String, f64)> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .elements()
            .iter()
            .map(|m| {
                let text = |key| match m.get(key) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key}: {other:?}"),
                };
                assert_eq!(text("better"), "lower");
                (
                    text("name"),
                    text("unit"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|&(name, unit, bound)| (name.to_string(), unit.to_string(), bound))
            .collect();
        assert_eq!(listed, ours);
        let workloads: Vec<&Json> = doc.get("workloads").unwrap().elements().iter().collect();
        let names: Vec<String> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
