//! The runner behind the paper's evaluation tables: Table 1 (allocated
//! bytes, allocation counts and iterations/minute per benchmark, without
//! vs. with Partial Escape Analysis), the §6.1 monitor statistics, the
//! §6.2 comparison against the flow-insensitive baseline, and the
//! per-feature ablations.
//!
//! [`run_corpus`] runs every corpus workload once per [`Config`],
//! [`render_blocks`] renders the runs as named markdown tables beside the
//! paper's figures, and [`splice`] writes those tables between a
//! document's `<!-- generated:NAME -->` and `<!-- end generated:NAME -->`
//! markers. The `report` binary drives the three; `pealint` is the crate's
//! other binary.

use pea_runtime::Value;
use pea_trace::{MaterializeReason, SharedSink, SiteAggregator};
use pea_vm::{OptLevel, Vm, VmOptions};
use pea_workloads::{all_workloads, Suite, Workload};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A VM configuration every workload runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// No escape analysis: the baseline every delta is taken against.
    None,
    /// The flow-insensitive Equi-Escape-Sets baseline (§6.2).
    Ees,
    /// Partial Escape Analysis with every feature on.
    Pea,
    /// PEA without lock elision.
    NoLockElision,
    /// PEA without per-field phis at merges (§5.3).
    NoFieldPhis,
    /// PEA without iterative loop processing (§5.4).
    NoLoopFixpoint,
}

impl Config {
    /// Every configuration, in run order; [`WorkloadRuns::runs`] is indexed
    /// the same way.
    pub const ALL: [Config; 6] = [
        Config::None,
        Config::Ees,
        Config::Pea,
        Config::NoLockElision,
        Config::NoFieldPhis,
        Config::NoLoopFixpoint,
    ];

    /// The full algorithm and its ablations: the rows of the ablation table.
    const PEA_VARIANTS: [Config; 4] = [
        Config::Pea,
        Config::NoLockElision,
        Config::NoFieldPhis,
        Config::NoLoopFixpoint,
    ];

    fn options(self) -> VmOptions {
        let level = match self {
            Config::None => OptLevel::None,
            Config::Ees => OptLevel::Ees,
            _ => OptLevel::Pea,
        };
        let mut options = VmOptions::with_opt_level(level);
        let pea = &mut options.compiler.pea;
        match self {
            Config::NoLockElision => pea.lock_elision = false,
            Config::NoFieldPhis => pea.field_phis = false,
            Config::NoLoopFixpoint => pea.loop_processing = false,
            _ => {}
        }
        options
    }

    fn label(self) -> &'static str {
        match self {
            Config::None => "none",
            Config::Ees => "ees",
            Config::Pea => "full",
            Config::NoLockElision => "no lock elision",
            Config::NoFieldPhis => "no field phis (§5.3)",
            Config::NoLoopFixpoint => "no loop fixpoint (§5.4)",
        }
    }
}

/// Steady-state per-iteration measurements of one workload under one
/// configuration.
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    /// Heap bytes allocated per iteration.
    pub bytes_per_iter: f64,
    /// Allocations per iteration (including rematerializations).
    pub allocs_per_iter: f64,
    /// Monitor operations (enter + exit) per iteration.
    pub monitor_ops_per_iter: f64,
    /// Virtual cycles per iteration.
    pub cycles_per_iter: f64,
    /// Allocation sites PEA processed to a virtual state, summed over the
    /// methods compiled by the end of the run.
    pub virtualized: usize,
    /// Materializations per reason over the whole run, warm-up included,
    /// folded from the trace stream; empty for `None` and `Ees`, which run
    /// untraced. Tracing does not change the virtual cycles.
    pub materializations: BTreeMap<MaterializeReason, u64>,
}

/// Warmup iterations (enough to cross the compile threshold and stabilize
/// speculation).
const WARMUP: u64 = 120;

/// Measured iterations.
const ITERS: u64 = 40;

/// Runs `workload` under `config`: warms up, then measures `iters`
/// iterations.
///
/// # Panics
///
/// Panics if the workload raises a runtime error (generated kernels never
/// do; a panic indicates a compiler bug).
pub fn measure(workload: &Workload, config: Config, warmup: u64, iters: u64) -> Measurement {
    let mut options = config.options();
    let aggregator = (!matches!(config, Config::None | Config::Ees)).then(|| {
        let (sink, aggregator) = SharedSink::new(SiteAggregator::new());
        options.trace = Some(sink);
        aggregator
    });
    let mut vm = Vm::new(workload.program.clone(), options);
    let mut before = vm.stats();
    for i in 0..warmup + iters {
        if i == warmup {
            before = vm.stats();
        }
        vm.call_entry("iterate", &[Value::Int(i as i64)])
            .unwrap_or_else(|e| panic!("{} iteration {i}: {e}", workload.name));
    }
    let d = vm.stats().delta(&before);
    let virtualized = vm
        .compiled_methods()
        .into_iter()
        .map(|method| {
            let compiled = vm.compiled(method).expect("listed method is cached");
            compiled.pea_result.virtualized_allocs
        })
        .sum();
    drop(vm);
    let per_iter = |n: u64| n as f64 / iters as f64;
    Measurement {
        bytes_per_iter: per_iter(d.alloc_bytes),
        allocs_per_iter: per_iter(d.alloc_count),
        monitor_ops_per_iter: per_iter(d.monitor_ops()),
        cycles_per_iter: per_iter(d.cycles),
        virtualized,
        materializations: aggregator
            .map(|a| a.lock().expect("aggregator lock poisoned").reason_totals())
            .unwrap_or_default(),
    }
}

/// A workload measured without and with an optimization.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    /// Baseline (no escape analysis).
    pub without: &'a Measurement,
    /// With the optimization under test.
    pub with: &'a Measurement,
}

impl Row<'_> {
    /// Relative change in allocated bytes (negative = reduction).
    pub fn bytes_delta(&self) -> f64 {
        pct(self.without.bytes_per_iter, self.with.bytes_per_iter)
    }

    /// Relative change in allocation count.
    pub fn allocs_delta(&self) -> f64 {
        pct(self.without.allocs_per_iter, self.with.allocs_per_iter)
    }

    /// Relative change in monitor operations.
    pub fn monitors_delta(&self) -> f64 {
        pct(
            self.without.monitor_ops_per_iter,
            self.with.monitor_ops_per_iter,
        )
    }

    /// Speedup in iterations per minute (positive = faster).
    pub fn speedup(&self) -> f64 {
        pct(
            1.0 / self.without.cycles_per_iter,
            1.0 / self.with.cycles_per_iter,
        )
    }
}

fn pct(without: f64, with: f64) -> f64 {
    if without == 0.0 {
        0.0
    } else {
        (with - without) / without * 100.0
    }
}

/// One corpus workload measured under every [`Config`].
#[derive(Clone, Debug)]
pub struct WorkloadRuns {
    /// Benchmark name.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Whether the paper lists the row individually.
    pub significant: bool,
    /// One measurement per configuration, in [`Config::ALL`] order.
    pub runs: Vec<Measurement>,
}

impl WorkloadRuns {
    /// The workload under `config` against the no-escape-analysis baseline.
    pub fn row(&self, config: Config) -> Row<'_> {
        Row {
            without: &self.runs[Config::None as usize],
            with: &self.runs[config as usize],
        }
    }
}

/// Runs every corpus workload once per configuration.
pub fn run_corpus() -> Vec<WorkloadRuns> {
    all_workloads()
        .into_iter()
        .map(|workload| WorkloadRuns {
            runs: Config::ALL
                .iter()
                .map(|&config| measure(&workload, config, WARMUP, ITERS))
                .collect(),
            name: workload.name,
            suite: workload.suite,
            significant: workload.significant,
        })
        .collect()
}

/// The paper's figures, in percent, one entry per Table 1 row it lists and
/// per suite (keyed by the suite's name; SPECjbb2005 is both): allocated
/// bytes Δ, allocations Δ and speedup (a suite's are Table 1's averages,
/// which §6.2 quotes for Graal PEA), §6.1's monitor-operation Δ where the
/// paper states one, and §6.2's server-compiler EA speedup.
type PaperEntry = (&'static str, f64, f64, f64, Option<f64>, Option<f64>);

const PAPER: &[PaperEntry] = &[
    ("fop", -3.5, -5.6, 14.4, None, None),
    ("h2", -5.2, -5.9, 2.9, None, None),
    ("jython", -8.3, -15.2, -2.1, None, None),
    ("sunflow", -25.7, -30.6, 1.6, None, None),
    ("tomcat", -0.8, -2.4, 4.4, Some(-4.0), None),
    ("tradebeans", -7.8, -11.1, 6.4, None, None),
    ("xalan", -1.4, -2.2, 1.9, None, None),
    ("DaCapo", -4.9, -8.0, 2.2, None, Some(0.9)),
    ("actors", -17.0, -18.5, 10.0, None, None),
    ("apparat", -3.3, -5.5, 13.7, None, None),
    ("factorie", -58.5, -60.9, 33.0, None, None),
    ("kiama", -6.6, -11.2, 16.5, None, None),
    ("scalac", -14.5, -22.6, 4.4, None, None),
    ("scaladoc", -12.0, -24.0, 3.0, None, None),
    ("scalap", -8.8, -12.5, 17.6, None, None),
    ("scalariform", -13.3, -16.5, 7.8, None, None),
    ("scalatest", -1.0, -2.4, 7.1, None, None),
    ("scalaxb", -5.9, -13.8, 4.7, None, None),
    ("specs", -38.4, -72.0, 4.0, None, None),
    ("tmt", -3.6, -12.2, 3.3, None, None),
    ("ScalaDaCapo", -15.2, -22.7, 10.4, None, Some(7.4)),
    ("SPECjbb2005", -16.1, -38.1, 8.7, Some(-3.8), Some(5.4)),
];

fn paper(name: &str) -> Option<&'static PaperEntry> {
    PAPER.iter().find(|entry| entry.0 == name)
}

/// The suites in table order.
const SUITES: [Suite; 3] = [Suite::DaCapo, Suite::ScalaDaCapo, Suite::SpecJbb];

/// Every block [`render_blocks`] writes, in order.
pub const BLOCKS: [&str; 6] = [
    "table1-dacapo",
    "table1-scaladacapo",
    "table1-specjbb",
    "monitors",
    "comparison",
    "ablations",
];

/// A percentage with its sign, a typographic minus and one decimal.
fn signed(v: f64) -> String {
    format!("{v:+.1}%").replace('-', "−")
}

fn paper_figure(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), signed)
}

fn suite_average<'r>(runs: &[&'r WorkloadRuns], config: Config, f: fn(&Row<'r>) -> f64) -> f64 {
    runs.iter().map(|&w| f(&w.row(config))).sum::<f64>() / runs.len() as f64
}

/// Renders `runs` as the markdown tables named in [`BLOCKS`], each ending
/// in a newline.
pub fn render_blocks(runs: &[WorkloadRuns]) -> Vec<(&'static str, String)> {
    let by_suite: Vec<Vec<&WorkloadRuns>> = SUITES
        .iter()
        .map(|&suite| runs.iter().filter(|w| w.suite == suite).collect())
        .collect();
    let mut blocks: Vec<(&'static str, String)> = BLOCKS[..3]
        .iter()
        .zip(SUITES.iter().zip(&by_suite))
        .map(|(&name, (suite, rows))| (name, render_table1(&suite.to_string(), rows)))
        .collect();
    blocks.push((BLOCKS[3], render_monitors(runs)));
    blocks.push((BLOCKS[4], render_comparison(&by_suite)));
    blocks.push((BLOCKS[5], render_ablations(runs, &by_suite)));
    blocks
}

/// One suite block of Table 1: the rows the paper lists, then the suite
/// average over every row (none for a one-row suite, whose row is it).
fn render_table1(suite: &str, runs: &[&WorkloadRuns]) -> String {
    let mut out = String::from(
        "| row | paper bytes Δ | ours bytes Δ | paper allocs Δ | ours allocs Δ | paper speedup | \
         ours speedup |\n|---|---:|---:|---:|---:|---:|---:|\n",
    );
    let mut line = |label: &str, name: &str, ours: [f64; 3]| {
        let (_, bytes, allocs, speedup, _, _) = *paper(name).expect("the paper lists the row");
        let _ = writeln!(
            out,
            "| {label} | {} | {} | {} | {} | {} | {} |",
            signed(bytes),
            signed(ours[0]),
            signed(allocs),
            signed(ours[1]),
            signed(speedup),
            signed(ours[2]),
        );
    };
    for w in runs.iter().filter(|w| w.significant) {
        let row = w.row(Config::Pea);
        line(
            &w.name,
            &w.name,
            [row.bytes_delta(), row.allocs_delta(), row.speedup()],
        );
    }
    if runs.len() > 1 {
        let folded: Vec<&str> = runs
            .iter()
            .filter(|w| !w.significant)
            .map(|w| w.name.as_str())
            .collect();
        let label = if folded.is_empty() {
            "average".to_string()
        } else {
            format!("average (incl. {})", folded.join(", "))
        };
        let ours = [Row::bytes_delta, Row::allocs_delta, Row::speedup]
            .map(|f| suite_average(runs, Config::Pea, f));
        line(&label, suite, ours);
    }
    out
}

/// §6.1: monitor operations per iteration of every workload that has any.
fn render_monitors(runs: &[WorkloadRuns]) -> String {
    let mut out = String::from(
        "| row | paper monitor ops Δ | ours per iteration without | ours with | ours Δ |\n\
         |---|---:|---:|---:|---:|\n",
    );
    for w in runs {
        let row = w.row(Config::Pea);
        if row.without.monitor_ops_per_iter > 0.0 {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {:.1} | {} |",
                w.name,
                paper_figure(paper(&w.name).and_then(|p| p.4)),
                row.without.monitor_ops_per_iter,
                row.with.monitor_ops_per_iter,
                signed(row.monitors_delta()),
            );
        }
    }
    out
}

/// §6.2: suite-average speedups of the EES baseline and of PEA.
fn render_comparison(by_suite: &[Vec<&WorkloadRuns>]) -> String {
    let mut out = String::from(
        "| suite | paper server-compiler EA | ours EES baseline | paper Graal PEA | ours PEA |\n\
         |---|---:|---:|---:|---:|\n",
    );
    for (suite, runs) in SUITES.iter().zip(by_suite) {
        let (_, _, _, pea, _, server_ea) = *paper(&suite.to_string()).expect("the paper lists it");
        let _ = writeln!(
            out,
            "| {suite} | {} | {} | {} | {} |",
            paper_figure(server_ea),
            signed(suite_average(runs, Config::Ees, Row::speedup)),
            signed(pea),
            signed(suite_average(runs, Config::Pea, Row::speedup)),
        );
    }
    out
}

/// The ablations: suite-average allocation Δ and speedup per PEA variant,
/// with the sites it virtualized and its materializations by reason,
/// summed over the corpus.
fn render_ablations(runs: &[WorkloadRuns], by_suite: &[Vec<&WorkloadRuns>]) -> String {
    let mut out = String::from("| variant |");
    for suite in SUITES {
        let _ = write!(out, " {suite} allocs Δ / speedup |");
    }
    out.push_str(" sites virtualized | materializations |\n|---|---:|---:|---:|---:|---|\n");
    for config in Config::PEA_VARIANTS {
        let _ = write!(out, "| {} |", config.label());
        for runs in by_suite {
            let _ = write!(
                out,
                " {} / {} |",
                signed(suite_average(runs, config, Row::allocs_delta)),
                signed(suite_average(runs, config, Row::speedup)),
            );
        }
        let mut reasons = BTreeMap::new();
        for m in runs.iter().map(|w| &w.runs[config as usize]) {
            for (&reason, &n) in &m.materializations {
                *reasons.entry(reason).or_insert(0u64) += n;
            }
        }
        let reasons: Vec<String> = reasons.iter().map(|(r, n)| format!("{r} {n}")).collect();
        let _ = writeln!(
            out,
            " {} | {} |",
            runs.iter()
                .map(|w| w.runs[config as usize].virtualized)
                .sum::<usize>(),
            reasons.join(", "),
        );
    }
    out
}

/// Why [`splice`] refused a document; each case names the block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpliceError {
    /// A start marker names a block that is not being written.
    Unknown(String),
    /// A block being written has no start marker.
    Missing(String),
    /// A block has a second start marker, or an end marker outside it.
    Duplicated(String),
    /// A start marker has no matching end marker before the next block.
    Unclosed(String),
}

impl fmt::Display for SpliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpliceError::Unknown(name) => write!(f, "unknown block `{name}`"),
            SpliceError::Missing(name) => write!(f, "no marker for block `{name}`"),
            SpliceError::Duplicated(name) => write!(f, "block `{name}` is marked twice"),
            SpliceError::Unclosed(name) => write!(f, "block `{name}` is not closed"),
        }
    }
}

const OPEN: &str = "<!-- generated:";
const CLOSE: &str = "<!-- end generated:";
const MARKER_END: &str = " -->";

/// The first `prefix NAME -->` marker in `text`: its byte offset, NAME,
/// and the offset just past it (`None` if the line does not close the
/// marker, in which case NAME is the rest of the line).
fn find_marker<'t>(text: &'t str, prefix: &str) -> Option<(usize, &'t str, Option<usize>)> {
    let start = text.find(prefix)?;
    let rest = &text[start + prefix.len()..];
    let line = rest.lines().next().unwrap_or("");
    Some(match line.find(MARKER_END) {
        Some(n) => (
            start,
            &line[..n],
            Some(start + prefix.len() + n + MARKER_END.len()),
        ),
        None => (start, line.trim(), None),
    })
}

/// Replaces the text between `<!-- generated:NAME -->` and
/// `<!-- end generated:NAME -->` with `"\n"` followed by NAME's entry in
/// `blocks`, leaving every byte outside the markers as it was. Each block
/// must be marked exactly once, and every marker must name a block.
pub fn splice(doc: &str, blocks: &[(&str, String)]) -> Result<String, SpliceError> {
    let mut out = String::with_capacity(doc.len());
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = doc;
    loop {
        let open = find_marker(rest, OPEN);
        let outside = &rest[..open.map_or(rest.len(), |(at, _, _)| at)];
        if let Some((_, name, _)) = find_marker(outside, CLOSE) {
            return Err(SpliceError::Duplicated(name.to_string()));
        }
        out.push_str(outside);
        let Some((at, name, past)) = open else { break };
        let Some((_, body)) = blocks.iter().find(|(n, _)| *n == name) else {
            return Err(SpliceError::Unknown(name.to_string()));
        };
        if seen.contains(&name) {
            return Err(SpliceError::Duplicated(name.to_string()));
        }
        seen.push(name);
        let unclosed = || SpliceError::Unclosed(name.to_string());
        let past = past.ok_or_else(unclosed)?;
        let inside = &rest[past..];
        let close = format!("{CLOSE}{name}{MARKER_END}");
        let end = inside
            .find(&close)
            .filter(|&end| !inside[..end].contains(OPEN))
            .ok_or_else(unclosed)?;
        out.push_str(&rest[at..past]);
        out.push('\n');
        out.push_str(body);
        out.push_str(&close);
        rest = &inside[end + close.len()..];
    }
    match blocks.iter().find(|(name, _)| !seen.contains(name)) {
        Some((name, _)) => Err(SpliceError::Missing(name.to_string())),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_workloads::suite_workloads;

    fn workload(suite: Suite, name: &str) -> Workload {
        suite_workloads(suite)
            .into_iter()
            .find(|w| w.name == name)
            .unwrap()
    }

    #[test]
    fn measurement_computes_rates() {
        let w = workload(Suite::ScalaDaCapo, "factorie");
        let m = measure(&w, Config::Pea, 60, 5);
        assert!(m.cycles_per_iter > 0.0);
        assert!(m.virtualized > 0, "workload methods must get compiled");
        let untraced = measure(&w, Config::None, 60, 5);
        assert!(untraced.materializations.is_empty());
    }

    #[test]
    fn factorie_row_has_expected_shape() {
        let w = workload(Suite::ScalaDaCapo, "factorie");
        let (without, with) = (
            measure(&w, Config::None, 60, 10),
            measure(&w, Config::Pea, 60, 10),
        );
        let row = Row {
            without: &without,
            with: &with,
        };
        assert!(
            row.allocs_delta() < -40.0,
            "factorie-like allocation reduction, got {:.1}%",
            row.allocs_delta()
        );
        assert!(
            row.speedup() > 5.0,
            "factorie-like speedup, got {:.1}%",
            row.speedup()
        );
    }

    /// The paper's jython row is the one slowdown; our stand-in must
    /// reproduce the sign (deterministic: the clock is virtual).
    #[test]
    fn jython_like_regresses() {
        let w = workload(Suite::DaCapo, "jython");
        let (without, with) = (
            measure(&w, Config::None, 80, 10),
            measure(&w, Config::Pea, 80, 10),
        );
        let row = Row {
            without: &without,
            with: &with,
        };
        assert!(
            row.speedup() < 0.0,
            "jython-like must slow down under PEA, got {:+.1}%",
            row.speedup()
        );
    }

    /// §6.1: "the relative decrease in the number of allocations is
    /// usually higher than the decrease in the number of allocated
    /// bytes, since the allocations not removed often contain large
    /// arrays" — checked on the array-heavy tmt stand-in.
    #[test]
    fn count_reduction_exceeds_byte_reduction_when_arrays_survive() {
        let w = workload(Suite::ScalaDaCapo, "tmt");
        let (without, with) = (
            measure(&w, Config::None, 80, 10),
            measure(&w, Config::Pea, 80, 10),
        );
        let row = Row {
            without: &without,
            with: &with,
        };
        assert!(
            row.allocs_delta() < row.bytes_delta(),
            "allocation-count cut ({:+.1}%) must exceed byte cut ({:+.1}%)",
            row.allocs_delta(),
            row.bytes_delta()
        );
    }

    fn fake(name: &str, suite: Suite, significant: bool) -> WorkloadRuns {
        let at = |bytes: f64, allocs: f64, monitors: f64, cycles: f64| Measurement {
            bytes_per_iter: bytes,
            allocs_per_iter: allocs,
            monitor_ops_per_iter: monitors,
            cycles_per_iter: cycles,
            ..Measurement::default()
        };
        let mut runs = vec![at(2048.0, 100.0, 10.0, 1000.0)];
        runs.extend(
            Config::ALL[1..]
                .iter()
                .map(|_| at(1024.0, 50.0, 0.0, 800.0)),
        );
        runs[Config::Pea as usize].virtualized = 3;
        runs[Config::Pea as usize]
            .materializations
            .insert(MaterializeReason::EscapeToStore, 2);
        WorkloadRuns {
            name: name.into(),
            suite,
            significant,
            runs,
        }
    }

    #[test]
    fn blocks_put_paper_and_measured_columns_side_by_side() {
        let runs = [
            fake("tomcat", Suite::DaCapo, true),
            fake("avrora", Suite::DaCapo, false),
            fake("factorie", Suite::ScalaDaCapo, true),
            fake("SPECjbb2005", Suite::SpecJbb, true),
        ];
        let blocks = render_blocks(&runs);
        assert_eq!(blocks.iter().map(|b| b.0).collect::<Vec<_>>(), BLOCKS);
        let block = |name| &blocks.iter().find(|b| b.0 == name).unwrap().1;
        assert!(block("table1-dacapo")
            .contains("| tomcat | −0.8% | −50.0% | −2.4% | −50.0% | +4.4% | +25.0% |"));
        assert!(block("table1-dacapo").contains("| average (incl. avrora) | −4.9% |"));
        assert!(!block("table1-specjbb").contains("average"));
        assert!(block("monitors").contains("| tomcat | −4.0% | 10.0 | 0.0 | −100.0% |"));
        assert!(block("monitors").contains("| factorie | — |"));
        assert!(block("comparison").contains("| DaCapo | +0.9% | +25.0% | +2.2% | +25.0% |"));
        assert!(block("ablations").contains("| full | −50.0% / +25.0% |"));
        assert!(block("ablations").contains("| 12 | escape-to-store 8 |"));
    }

    fn blocks() -> Vec<(&'static str, String)> {
        vec![("a", "| x | 1 |\n".into()), ("b", "B\n".into())]
    }

    const DOC: &str = "# Title\n\nprose ✓ <!-- not a marker -->\n\
                       <!-- generated:a -->\nstale\n<!-- end generated:a -->\n\
                       between\n<!-- generated:b --><!-- end generated:b -->tail\n";

    #[test]
    fn splice_rewrites_only_inside_the_markers() {
        let out = splice(DOC, &blocks()).unwrap();
        assert_eq!(
            out,
            "# Title\n\nprose ✓ <!-- not a marker -->\n\
             <!-- generated:a -->\n| x | 1 |\n<!-- end generated:a -->\n\
             between\n<!-- generated:b -->\nB\n<!-- end generated:b -->tail\n"
        );
    }

    #[test]
    fn splice_is_idempotent_and_restores_hand_edits() {
        let once = splice(DOC, &blocks()).unwrap();
        assert_eq!(splice(&once, &blocks()).unwrap(), once);
        let edited = once.replace("| x | 1 |", "| x | 2 |");
        assert_ne!(edited, once);
        assert_eq!(splice(&edited, &blocks()).unwrap(), once);
    }

    #[test]
    fn splice_refuses_bad_markers_naming_the_block() {
        let a = "<!-- generated:a -->\n<!-- end generated:a -->\n";
        let b = "<!-- generated:b -->\n<!-- end generated:b -->\n";
        let cases = [
            (
                format!("{a}{b}<!-- generated:c -->\n<!-- end generated:c -->\n"),
                SpliceError::Unknown("c".into()),
            ),
            (a.to_string(), SpliceError::Missing("b".into())),
            (format!("{a}{b}{a}"), SpliceError::Duplicated("a".into())),
            (
                format!("{a}{b}<!-- end generated:b -->"),
                SpliceError::Duplicated("b".into()),
            ),
            (
                format!("<!-- generated:a -->\n{b}<!-- end generated:a -->"),
                SpliceError::Unclosed("a".into()),
            ),
            (
                format!("{a}<!-- generated:b -->\n"),
                SpliceError::Unclosed("b".into()),
            ),
        ];
        for (doc, expected) in cases {
            let err = splice(&doc, &blocks()).unwrap_err();
            assert_eq!(err, expected, "{doc}");
            let name = match &expected {
                SpliceError::Unknown(n)
                | SpliceError::Missing(n)
                | SpliceError::Duplicated(n)
                | SpliceError::Unclosed(n) => n,
            };
            assert!(err.to_string().contains(&format!("`{name}`")));
        }
    }
}
