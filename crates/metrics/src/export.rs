//! Renderers for [`MetricsSnapshot`]: human-readable report, stable JSON,
//! and Prometheus-style text exposition — plus file helpers that create
//! missing parent directories (so `--metrics-json out/run1/METRICS.json`
//! just works).

use crate::{bucket_upper_bound, HistogramSnapshot, MetricsSnapshot};
use pea_trace::json::ObjectWriter;
use std::fmt::Write as _;
use std::fs::File;
use std::io;
use std::path::Path;

/// Renders the end-of-run human-readable report (`--metrics` prints this
/// to stderr).
pub fn render_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("== metrics ==\n");
    let mut group = "";
    for (name, value) in &snapshot.counters {
        let g = name.split('.').next().unwrap_or("");
        if g != group {
            group = g;
            let _ = writeln!(out, "[{g}]");
        }
        let _ = writeln!(out, "  {name:<40} {value}");
    }
    let _ = writeln!(out, "[gauges]");
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "  {name:<40} {value}");
    }
    let _ = writeln!(out, "[histograms]");
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "  {name:<40} count={} sum={} mean={} p50<={} p90<={} p99<={} max={}",
            h.count(),
            h.sum,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max,
        );
    }
    out
}

fn histogram_json(o: &mut ObjectWriter, h: &HistogramSnapshot) {
    o.num("count", h.count());
    o.num("sum", h.sum);
    o.num("max", h.max);
    o.num("mean", h.mean());
    o.num("p50", h.quantile(0.5));
    o.num("p90", h.quantile(0.9));
    o.num("p99", h.quantile(0.99));
    o.array("buckets", |buckets| {
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            buckets.object(|b| {
                match bucket_upper_bound(i) {
                    u64::MAX => b.str("le", "+Inf"),
                    le => b.num("le", le),
                }
                b.num("count", c);
            });
        }
    });
}

/// Renders the snapshot as one stable-schema JSON document
/// (`pea-metrics/1`): counters and gauges as flat name→value maps,
/// histograms as summaries with non-empty `{le, count}` buckets.
pub fn render_json(snapshot: &MetricsSnapshot) -> String {
    let mut doc = ObjectWriter::new();
    doc.str("schema", "pea-metrics/1");
    doc.object("counters", |o| {
        for (name, value) in &snapshot.counters {
            o.num(name, *value);
        }
    });
    doc.object("gauges", |o| {
        for (name, value) in &snapshot.gauges {
            o.num(name, *value);
        }
    });
    doc.object("histograms", |o| {
        for (name, h) in &snapshot.histograms {
            o.object(name, |o| histogram_json(o, h));
        }
    });
    let mut out = doc.finish();
    out.push('\n');
    out
}

/// Maps a dotted metric name onto a Prometheus-legal one.
fn prometheus_name(name: &str) -> String {
    let mut out = String::from("pea_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// must be backslash-escaped inside the quoted value.
fn escape_label_value(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a counter name into its Prometheus metric family and optional
/// label set. Per-class heap rows (`heap.class.<Name>.allocs` /
/// `.bytes`) become one labeled family
/// (`pea_heap_class_allocs{class="<Name>"}`) instead of a mangled metric
/// name per class, with the class name escaped as a label value.
fn family_and_labels(name: &str) -> (String, Option<String>) {
    if let Some(rest) = name.strip_prefix("heap.class.") {
        if let Some(class) = rest.strip_suffix(".allocs") {
            return (
                "pea_heap_class_allocs".to_string(),
                Some(format!("class=\"{}\"", escape_label_value(class))),
            );
        }
        if let Some(class) = rest.strip_suffix(".bytes") {
            return (
                "pea_heap_class_bytes".to_string(),
                Some(format!("class=\"{}\"", escape_label_value(class))),
            );
        }
    }
    (prometheus_name(name), None)
}

/// One-line help text for a metric family.
fn help_text(family: &str) -> &'static str {
    match family {
        "pea_interp_steps" => "Bytecode instructions interpreted.",
        "pea_interp_invocations" => "Method invocations dispatched to the interpreter.",
        "pea_vm_cycles" => "Virtual cycles charged by the cost model.",
        "pea_heap_class_allocs" => "Heap allocations per class.",
        "pea_heap_class_bytes" => "Heap bytes allocated per class.",
        "pea_compile_queue_depth" => "Compile-service queue depth.",
        _ => "pea VM metric (virtual units; see DESIGN.md cost model).",
    }
}

/// Writes the `# HELP` / `# TYPE` header for `family` unless it was the
/// previously announced family (labeled series share one header).
fn write_header(out: &mut String, announced: &mut Option<String>, family: &str, kind: &str) {
    if announced.as_deref() != Some(family) {
        let _ = writeln!(out, "# HELP {family} {}", help_text(family));
        let _ = writeln!(out, "# TYPE {family} {kind}");
        *announced = Some(family.to_string());
    }
}

/// Renders the snapshot as a Prometheus-style text exposition (the format
/// a future `/metrics` server endpoint would serve): `# HELP`/`# TYPE`
/// headers per family, per-class heap rows as labeled series with escaped
/// label values, and cumulative histogram buckets with `_sum`/`_count`
/// series.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut announced = None;
    // Group counter samples by family first: labeled per-class rows
    // (`…allocs`/`…bytes`) interleave in the snapshot's name order, but
    // the exposition format wants each family's samples contiguous under
    // one header.
    let mut order: Vec<String> = Vec::new();
    let mut families: std::collections::BTreeMap<String, Vec<String>> =
        std::collections::BTreeMap::new();
    for (name, value) in &snapshot.counters {
        let (family, labels) = family_and_labels(name);
        let line = match labels {
            Some(l) => format!("{family}{{{l}}} {value}"),
            None => format!("{family} {value}"),
        };
        if !families.contains_key(&family) {
            order.push(family.clone());
        }
        families.entry(family).or_default().push(line);
    }
    for family in order {
        write_header(&mut out, &mut announced, &family, "counter");
        for line in &families[&family] {
            let _ = writeln!(out, "{line}");
        }
    }
    for (name, value) in &snapshot.gauges {
        let n = prometheus_name(name);
        write_header(&mut out, &mut announced, &n, "gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let n = prometheus_name(name);
        write_header(&mut out, &mut announced, &n, "histogram");
        let mut cumulative = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let le = bucket_upper_bound(i);
            if le == u64::MAX {
                continue; // folded into the +Inf bucket below
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

/// Creates (truncating) a file, first creating any missing parent
/// directories.
///
/// # Errors
///
/// Any I/O error from directory creation or file creation.
pub fn create_file_with_dirs(path: &Path) -> io::Result<File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    File::create(path)
}

/// Writes `contents` to `path`, creating missing parent directories.
///
/// # Errors
///
/// Any I/O error from directory or file creation, or the write.
pub fn write_with_dirs(path: &Path, contents: &str) -> io::Result<()> {
    use io::Write as _;
    let mut f = create_file_with_dirs(path)?;
    f.write_all(contents.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmMetrics;

    fn sample() -> MetricsSnapshot {
        let m = VmMetrics::default();
        m.interp.steps.add(42);
        m.pea.virtualized.add(3);
        m.compile.queue_depth.set(2);
        m.compile.total_us.record(100);
        m.compile.total_us.record(3000);
        m.heap.classes.resolve("Key").allocs.inc();
        m.snapshot()
    }

    #[test]
    fn text_report_contains_every_section() {
        let t = render_text(&sample());
        assert!(t.contains("[interp]"));
        assert!(t.contains("interp.steps"));
        assert!(t.contains("42"));
        assert!(t.contains("[gauges]"));
        assert!(t.contains("compile.queue_depth"));
        assert!(t.contains("[histograms]"));
        assert!(t.contains("compile.total_us"));
        assert!(t.contains("count=2"));
        assert!(t.contains("heap.class.Key.allocs"));
    }

    #[test]
    fn json_is_parseable_enough_and_stable() {
        let j = render_json(&sample());
        assert!(j.starts_with("{\"schema\":\"pea-metrics/1\""));
        assert!(j.contains("\"interp.steps\":42"));
        assert!(j.contains("\"compile.queue_depth\":2"));
        assert!(j.contains("\"compile.total_us\":{\"count\":2,\"sum\":3100"));
        assert!(j.contains("\"le\":127,\"count\":1"));
        // Two renders of the same snapshot are byte-identical.
        assert_eq!(j, render_json(&sample()));
    }

    /// The exact `pea-metrics/1` bytes for [`sample`], trailing newline
    /// included.
    #[test]
    fn render_json_bytes_are_pinned() {
        const PINNED: &str = concat!(
            r#"{"schema":"pea-metrics/1","counters":{"interp.steps":42,"interp.back_edges":0,"#,
            r#""interp.safepoint_polls":0,"interp.invocations":0,"vm.invocations_compiled":0,"#,
            r#""vm.deopts":0,"vm.rematerialized_objects":0,"vm.installs":0,"vm.evictions":0,"#,
            r#""vm.recompiles":0,"vm.safepoint_polls":0,"compile.started":0,"compile.succeeded":0,"#,
            r#""compile.bailouts":0,"compile.enqueued":0,"compile.dedup_rejected":0,"#,
            r#""compile.queue_rejected":0,"compile.queue_evicted":0,"compile.stale_dropped":0,"#,
            r#""compile.devirt_guards":0,"compile.inline_accepted":0,"compile.inline_rejected":0,"#,
            r#""pea.virtualized":3,"pea.materialized":0,"pea.locks_elided":0,"pea.loads_elided":0,"#,
            r#""pea.stores_elided":0,"pea.checks_folded":0,"pea.phis_created":0,"pea.loop_rounds":0,"#,
            r#""heap.allocs":0,"heap.bytes":0,"heap.collections":0,"heap.reclaimed":0,"#,
            r#""heap.copied_slots":0,"#,
            r#""heap.class.Key.allocs":1,"heap.class.Key.bytes":0},"gauges":{"compile.queue_depth":2},"#,
            r#""histograms":{"compile.queue_latency_us":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"#,
            r#""p90":0,"p99":0,"buckets":[]},"compile.build_us":{"count":0,"sum":0,"max":0,"mean":0,"#,
            r#""p50":0,"p90":0,"p99":0,"buckets":[]},"compile.canonicalize_us":{"count":0,"sum":0,"#,
            r#""max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]},"#,
            r#""compile.escape_analysis_us":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"#,
            r#""buckets":[]},"compile.schedule_us":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"p90":0,"#,
            r#""p99":0,"buckets":[]},"compile.lower_us":{"count":0,"sum":0,"max":0,"mean":0,"p50":0,"#,
            r#""p90":0,"p99":0,"buckets":[]},"compile.total_us":{"count":2,"sum":3100,"max":3000,"#,
            r#""mean":1550,"p50":127,"p90":3000,"p99":3000,"buckets":[{"le":127,"count":1},{"le":4095,"#,
            r#""count":1}]}}}"#,
            "\n",
        );
        assert_eq!(render_json(&sample()), PINNED);
    }

    /// Escaped names, a negative gauge, counts past `i64::MAX` and the
    /// `+Inf` bucket, byte for byte.
    #[test]
    fn render_json_bytes_of_edge_values_are_pinned() {
        let mut buckets = vec![0; crate::HISTOGRAM_BUCKETS];
        buckets[1] = 1;
        buckets[crate::HISTOGRAM_BUCKETS - 1] = 1;
        let snapshot = MetricsSnapshot {
            counters: vec![("heap.class.we\"ird\\name.allocs".into(), u64::MAX)],
            gauges: vec![("g\n".into(), -3)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    buckets,
                    sum: 0,
                    max: u64::MAX,
                },
            )],
        };
        const PINNED: &str = concat!(
            r#"{"schema":"pea-metrics/1","counters":{"heap.class.we\"ird\\name.allocs":18446744073709551615},"#,
            r#""gauges":{"g\n":-3},"histograms":{"h":{"count":2,"sum":0,"max":18446744073709551615,"mean":0,"#,
            r#""p50":1,"p90":18446744073709551615,"p99":18446744073709551615,"#,
            r#""buckets":[{"le":1,"count":1},{"le":"+Inf","count":1}]}}}"#,
            "\n",
        );
        assert_eq!(render_json(&snapshot), PINNED);

        // The codec reads every edge value back exactly.
        let root = pea_trace::json::parse(PINNED).unwrap();
        let root = root.as_object().unwrap();
        let counters = root.get_object("counters").unwrap();
        assert_eq!(
            counters.get_num::<u64>("heap.class.we\"ird\\name.allocs"),
            Ok(u64::MAX)
        );
        let gauges = root.get_object("gauges").unwrap();
        assert_eq!(gauges.get_num::<i64>("g\n"), Ok(-3));
        let h = root
            .get_object("histograms")
            .unwrap()
            .get_object("h")
            .unwrap();
        for (key, value) in [
            ("count", 2),
            ("sum", 0),
            ("max", u64::MAX),
            ("mean", 0),
            ("p50", 1),
            ("p90", u64::MAX),
            ("p99", u64::MAX),
        ] {
            assert_eq!(h.get_num::<u64>(key), Ok(value), "{key}");
        }
        assert!(h.get_num::<i64>("max").is_err(), "past i64 is refused");
    }

    #[test]
    fn prometheus_exposition_has_types_buckets_and_counts() {
        let p = render_prometheus(&sample());
        assert!(p.contains("# TYPE pea_interp_steps counter"));
        assert!(p.contains("pea_interp_steps 42"));
        assert!(p.contains("# TYPE pea_compile_queue_depth gauge"));
        assert!(p.contains("# TYPE pea_compile_total_us histogram"));
        assert!(p.contains("pea_compile_total_us_bucket{le=\"127\"} 1"));
        assert!(p.contains("pea_compile_total_us_bucket{le=\"+Inf\"} 2"));
        assert!(p.contains("pea_compile_total_us_sum 3100"));
        assert!(p.contains("pea_compile_total_us_count 2"));
        assert!(p.contains("pea_heap_class_allocs{class=\"Key\"} 1"));
    }

    #[test]
    fn prometheus_scrape_format_is_well_formed() {
        let m = VmMetrics::default();
        m.interp.steps.add(1);
        m.heap.classes.resolve("Key").allocs.inc();
        m.heap.classes.resolve("Pair$Inner").allocs.add(2);
        m.heap.classes.resolve("we\"ird\\name").allocs.inc();
        m.compile.total_us.record(9);
        let p = render_prometheus(&m.snapshot());

        // Every metric family is announced with # HELP then # TYPE, exactly
        // once, before its first sample line.
        let mut seen = std::collections::HashSet::new();
        let mut pending_help: Option<String> = None;
        let mut announced = std::collections::HashSet::new();
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split_whitespace().next().unwrap().to_string();
                assert!(seen.insert(family.clone()), "duplicate HELP for {family}");
                pending_help = Some(family);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let family = parts.next().unwrap();
                assert!(
                    matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                    "bad TYPE line: {line}"
                );
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(family),
                    "TYPE without HELP"
                );
                announced.insert(family.to_string());
            } else if !line.is_empty() {
                let name = line
                    .split(['{', ' '])
                    .next()
                    .unwrap()
                    .trim_end_matches("_bucket")
                    .trim_end_matches("_sum")
                    .trim_end_matches("_count");
                assert!(
                    announced.contains(name),
                    "sample {line:?} before its family header"
                );
            }
        }

        // Per-class rows are one labeled family with escaped label values.
        assert!(p.contains("pea_heap_class_allocs{class=\"Key\"} 1"));
        assert!(p.contains("pea_heap_class_allocs{class=\"Pair$Inner\"} 2"));
        assert!(p.contains("pea_heap_class_allocs{class=\"we\\\"ird\\\\name\"} 1"));
        assert_eq!(
            p.matches("# TYPE pea_heap_class_allocs counter").count(),
            1,
            "labeled series share one header"
        );
        assert!(p.contains("# HELP pea_heap_class_allocs Heap allocations per class."));
    }

    #[test]
    fn write_with_dirs_creates_missing_parents() {
        let dir = std::env::temp_dir().join(format!("pea-metrics-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a/b/METRICS.json");
        write_with_dirs(&path, "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
