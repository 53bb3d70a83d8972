//! Lock-free runtime metrics for the tiered VM.
//!
//! The trace layer (`pea-trace`) explains *what* the compiler decided,
//! event by event; this crate answers the aggregate questions — how many
//! interpreter steps ran, how deep the compile queue got, how long a
//! request waited between enqueue and install, how the per-phase compile
//! times are distributed — without perturbing the measured system.
//!
//! Three primitives, all updated with relaxed atomics so any thread can
//! record without locking:
//!
//! * [`Counter`] — monotonically increasing `u64`;
//! * [`Gauge`] — instantaneous `i64` level (queue depth);
//! * [`Histogram`] — fixed-bucket log₂-scale distribution of `u64`
//!   samples (latencies in µs), with count/sum/max and quantile
//!   estimates.
//!
//! Instrumented code holds a [`MetricsHub`]: a clonable handle that is
//! either *enabled* (an `Arc` of the [`VmMetrics`] registry) or
//! *disabled* (`None`). Every metric is a **struct field** resolved at
//! compile time — the *static handle* pattern — so recording is a direct
//! atomic add with no name lookup, and the disabled path is a single
//! `Option` branch with no allocation (asserted by an allocator-counting
//! test in `pea-interp`).
//!
//! [`MetricsHub::snapshot`] freezes the registry into an ordered
//! [`MetricsSnapshot`]; [`export`] renders it as a human-readable report,
//! a stable JSON document, or a Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub mod export;
pub mod profile;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (e.g. queue depth). Signed so transient
/// decrements below an unsynchronized zero cannot wrap.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i` holds samples whose bit length
/// is `i` — i.e. bucket 0 holds the value 0, bucket `i ≥ 1` holds
/// `2^(i-1) ..= 2^i - 1` — and the last bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket log₂-scale histogram of `u64` samples.
///
/// Recording is one relaxed `fetch_add` into the sample's bucket plus two
/// more for the running sum and max — no locks, no allocation, safe from
/// any thread.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: its bit length, clamped to the last bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freezes the histogram into a plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data frozen histogram (see [`Histogram::snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen (not delta-correct; reported as-is).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0.0..=1.0`).
    /// A log-bucket estimate: correct to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Per-bucket difference against an earlier snapshot of the same
    /// histogram (`max` is carried over from `self`, as it cannot be
    /// un-recorded).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// Per-class allocation counters, registered by name.
///
/// Registration (`resolve`) takes a lock, but it happens once per VM at
/// construction; recording goes through the returned [`ClassCell`]s and is
/// lock-free. Keying by *name* lets several VMs (e.g. a benchmark corpus
/// of many programs) share one hub: same-named classes merge.
#[derive(Debug, Default)]
pub struct ClassRegistry {
    cells: Mutex<BTreeMap<String, Arc<ClassCell>>>,
}

/// Allocation counters for one class (or the synthetic `array` slot).
#[derive(Debug, Default)]
pub struct ClassCell {
    /// Allocations of this class.
    pub allocs: Counter,
    /// Bytes allocated for this class.
    pub bytes: Counter,
}

impl ClassRegistry {
    /// Returns (creating if needed) the cell for `name`.
    pub fn resolve(&self, name: &str) -> Arc<ClassCell> {
        let mut cells = self.cells.lock().expect("class registry poisoned");
        Arc::clone(cells.entry(name.to_string()).or_default())
    }

    /// All registered `(name, allocs, bytes)` rows, in name order.
    pub fn rows(&self) -> Vec<(String, u64, u64)> {
        let cells = self.cells.lock().expect("class registry poisoned");
        cells
            .iter()
            .map(|(name, c)| (name.clone(), c.allocs.get(), c.bytes.get()))
            .collect()
    }
}

/// Interpreter-side counters.
#[derive(Debug, Default)]
pub struct InterpMetrics {
    /// Bytecode instructions dispatched.
    pub steps: Counter,
    /// Loop back-edges taken.
    pub back_edges: Counter,
    /// Safepoint polls issued at back-edges.
    pub safepoint_polls: Counter,
    /// Method invocations executed in the interpreter tier.
    pub invocations: Counter,
}

/// Tiering/deoptimization counters.
#[derive(Debug, Default)]
pub struct TierMetrics {
    /// Method invocations that ran compiled code.
    pub invocations_compiled: Counter,
    /// Deoptimizations (compiled → interpreter transfers).
    pub deopts: Counter,
    /// Scalar-replaced objects rematerialized across all deopts.
    pub rematerialized_objects: Counter,
    /// Compiled methods installed into the code cache.
    pub installs: Counter,
    /// Compiled methods evicted after repeated deopts.
    pub evictions: Counter,
    /// Recompilations of previously evicted methods requested.
    pub recompiles: Counter,
    /// Safepoint polls issued from compiled code (loop back-edges in the
    /// evaluator); the interpreter's polls are counted separately in
    /// `interp.safepoint_polls`.
    pub safepoint_polls: Counter,
}

/// Compile-pipeline and compile-service counters.
#[derive(Debug, Default)]
pub struct CompileMetrics {
    /// Compilations started.
    pub started: Counter,
    /// Compilations that produced an artifact.
    pub succeeded: Counter,
    /// Compilations that bailed out.
    pub bailouts: Counter,
    /// Requests accepted into the background queue.
    pub enqueued: Counter,
    /// Requests rejected because the method was already in flight.
    pub dedup_rejected: Counter,
    /// Requests rejected because the queue was full of hotter work.
    pub queue_rejected: Counter,
    /// Queued requests evicted to admit a strictly hotter newcomer.
    pub queue_evicted: Counter,
    /// Finished artifacts dropped at install because the method was
    /// evicted after the request (stale eviction epoch).
    pub stale_dropped: Counter,
    /// Receiver-type speculations planted (mono guards and inline caches).
    pub devirt_guards: Counter,
    /// Inline candidates the inliner accepted.
    pub inline_accepted: Counter,
    /// Inline candidates the inliner refused.
    pub inline_rejected: Counter,
    /// Current background queue depth.
    pub queue_depth: Gauge,
    /// Enqueue→install latency of background compilations, µs.
    pub queue_latency_us: Histogram,
    /// Graph-building phase time per compilation, µs.
    pub build_us: Histogram,
    /// Canonicalization time per compilation, µs.
    pub canonicalize_us: Histogram,
    /// Escape-analysis time per compilation, µs.
    pub escape_analysis_us: Histogram,
    /// Scheduling time per compilation, µs.
    pub schedule_us: Histogram,
    /// Linear-lowering time per compilation, µs.
    pub lower_us: Histogram,
    /// Total compile time per compilation, µs.
    pub total_us: Histogram,
}

/// PEA decision totals, fed from the same event stream the trace
/// `SiteAggregator` folds — the two views are cross-checkable exactly.
#[derive(Debug, Default)]
pub struct PeaMetrics {
    /// Allocations taken virtual.
    pub virtualized: Counter,
    /// Materializations (one per group member forced into existence).
    pub materialized: Counter,
    /// Monitor operations elided on virtual objects.
    pub locks_elided: Counter,
    /// Loads satisfied from virtual state.
    pub loads_elided: Counter,
    /// Stores absorbed into virtual state.
    pub stores_elided: Counter,
    /// Reference checks folded via virtual identity.
    pub checks_folded: Counter,
    /// Field/reference phis created at merges.
    pub phis_created: Counter,
    /// Loop fixpoint re-analysis rounds.
    pub loop_rounds: Counter,
}

/// Heap allocation counters.
#[derive(Debug, Default)]
pub struct HeapMetrics {
    /// Total heap allocations (instances + arrays + rematerializations).
    pub allocs: Counter,
    /// Total allocated bytes.
    pub bytes: Counter,
    /// Per-class breakdown (the synthetic name `array` covers arrays).
    pub classes: ClassRegistry,
}

/// The full metrics registry: one instance shared (via [`MetricsHub`]) by
/// every layer of one VM — or by several VMs, when a harness wants
/// corpus-wide totals.
#[derive(Debug, Default)]
pub struct VmMetrics {
    /// Interpreter counters.
    pub interp: InterpMetrics,
    /// Tiering/deopt counters.
    pub vm: TierMetrics,
    /// Compile pipeline and service counters.
    pub compile: CompileMetrics,
    /// PEA decision totals.
    pub pea: PeaMetrics,
    /// Heap allocation counters.
    pub heap: HeapMetrics,
}

impl VmMetrics {
    /// Freezes every metric into an ordered [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = vec![
            ("interp.steps".into(), self.interp.steps.get()),
            ("interp.back_edges".into(), self.interp.back_edges.get()),
            (
                "interp.safepoint_polls".into(),
                self.interp.safepoint_polls.get(),
            ),
            ("interp.invocations".into(), self.interp.invocations.get()),
            (
                "vm.invocations_compiled".into(),
                self.vm.invocations_compiled.get(),
            ),
            ("vm.deopts".into(), self.vm.deopts.get()),
            (
                "vm.rematerialized_objects".into(),
                self.vm.rematerialized_objects.get(),
            ),
            ("vm.installs".into(), self.vm.installs.get()),
            ("vm.evictions".into(), self.vm.evictions.get()),
            ("vm.recompiles".into(), self.vm.recompiles.get()),
            ("vm.safepoint_polls".into(), self.vm.safepoint_polls.get()),
            ("compile.started".into(), self.compile.started.get()),
            ("compile.succeeded".into(), self.compile.succeeded.get()),
            ("compile.bailouts".into(), self.compile.bailouts.get()),
            ("compile.enqueued".into(), self.compile.enqueued.get()),
            (
                "compile.dedup_rejected".into(),
                self.compile.dedup_rejected.get(),
            ),
            (
                "compile.queue_rejected".into(),
                self.compile.queue_rejected.get(),
            ),
            (
                "compile.queue_evicted".into(),
                self.compile.queue_evicted.get(),
            ),
            (
                "compile.stale_dropped".into(),
                self.compile.stale_dropped.get(),
            ),
            (
                "compile.devirt_guards".into(),
                self.compile.devirt_guards.get(),
            ),
            (
                "compile.inline_accepted".into(),
                self.compile.inline_accepted.get(),
            ),
            (
                "compile.inline_rejected".into(),
                self.compile.inline_rejected.get(),
            ),
            ("pea.virtualized".into(), self.pea.virtualized.get()),
            ("pea.materialized".into(), self.pea.materialized.get()),
            ("pea.locks_elided".into(), self.pea.locks_elided.get()),
            ("pea.loads_elided".into(), self.pea.loads_elided.get()),
            ("pea.stores_elided".into(), self.pea.stores_elided.get()),
            ("pea.checks_folded".into(), self.pea.checks_folded.get()),
            ("pea.phis_created".into(), self.pea.phis_created.get()),
            ("pea.loop_rounds".into(), self.pea.loop_rounds.get()),
            ("heap.allocs".into(), self.heap.allocs.get()),
            ("heap.bytes".into(), self.heap.bytes.get()),
        ];
        for (name, allocs, bytes) in self.heap.classes.rows() {
            counters.push((format!("heap.class.{name}.allocs"), allocs));
            counters.push((format!("heap.class.{name}.bytes"), bytes));
        }
        let gauges = vec![("compile.queue_depth".into(), self.compile.queue_depth.get())];
        let histograms = vec![
            (
                "compile.queue_latency_us".into(),
                self.compile.queue_latency_us.snapshot(),
            ),
            ("compile.build_us".into(), self.compile.build_us.snapshot()),
            (
                "compile.canonicalize_us".into(),
                self.compile.canonicalize_us.snapshot(),
            ),
            (
                "compile.escape_analysis_us".into(),
                self.compile.escape_analysis_us.snapshot(),
            ),
            (
                "compile.schedule_us".into(),
                self.compile.schedule_us.snapshot(),
            ),
            ("compile.lower_us".into(), self.compile.lower_us.snapshot()),
            ("compile.total_us".into(), self.compile.total_us.snapshot()),
        ];
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// An ordered, plain-data freeze of a [`VmMetrics`] registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter rows, in stable report order.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` gauge rows.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` histogram rows.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Difference against an earlier snapshot: counters and histogram
    /// buckets subtract (names missing from `earlier` count from zero);
    /// gauges keep their current level (a gauge has no meaningful delta).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| {
                    let d = match earlier.histogram(n) {
                        Some(e) => h.delta(e),
                        None => h.clone(),
                    };
                    (n.clone(), d)
                })
                .collect(),
        }
    }

    /// Compact `name=value` lines for embedding the snapshot in a trace
    /// event: non-zero counters, non-zero gauges, and `count`/`sum` of
    /// non-empty histograms.
    pub fn delta_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (n, v) in &self.counters {
            if *v != 0 {
                lines.push(format!("{n}={v}"));
            }
        }
        for (n, v) in &self.gauges {
            if *v != 0 {
                lines.push(format!("{n}={v}"));
            }
        }
        for (n, h) in &self.histograms {
            let count = h.count();
            if count != 0 {
                lines.push(format!("{n}.count={count}"));
                lines.push(format!("{n}.sum={}", h.sum));
            }
        }
        lines
    }
}

/// The handle instrumented code holds: enabled (shared registry) or
/// disabled (`None`). Cloning shares the registry; the default is
/// disabled.
#[derive(Clone, Debug, Default)]
pub struct MetricsHub(Option<Arc<VmMetrics>>);

/// The process-wide disabled hub, for trait-default methods that must
/// return a `&'static` handle.
static DISABLED: MetricsHub = MetricsHub::disabled();

impl MetricsHub {
    /// A hub with a fresh registry attached.
    pub fn enabled() -> MetricsHub {
        MetricsHub(Some(Arc::new(VmMetrics::default())))
    }

    /// A recording-nothing hub (const: usable in statics).
    pub const fn disabled() -> MetricsHub {
        MetricsHub(None)
    }

    /// A `'static` reference to the disabled hub.
    pub fn disabled_ref() -> &'static MetricsHub {
        &DISABLED
    }

    /// The registry, when enabled. The instrumentation idiom is
    /// `if let Some(m) = hub.on() { m.interp.steps.inc(); }` — one branch
    /// and nothing else when disabled.
    #[inline]
    pub fn on(&self) -> Option<&VmMetrics> {
        self.0.as_deref()
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Snapshot of the registry, when enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|m| m.snapshot())
    }
}

/// Pre-resolved heap-allocation recorder held by the managed heap.
///
/// Class cells are resolved once (by class *index* into the program's class
/// table) when the VM attaches metrics. An allocation adds to plain
/// counts the recorder owns — no lock, no name lookup, no shared cache
/// line — and [`flush`](HeapRecorder::flush) folds them into the shared
/// registry, which is exact at every quiescent point that flushes
/// (outermost call exit, metrics snapshot, mutator teardown). The default
/// recorder is disabled and records nothing.
#[derive(Clone, Debug, Default)]
pub struct HeapRecorder(Option<Box<AllocBuffer>>);

/// An enabled recorder's registry, cells and unflushed counts.
#[derive(Clone, Debug)]
struct AllocBuffer {
    metrics: Arc<VmMetrics>,
    total: Pending,
    /// One cell per class index.
    classes: Vec<(Arc<ClassCell>, Pending)>,
    /// The synthetic `array` cell.
    arrays: (Arc<ClassCell>, Pending),
}

/// Allocations and bytes recorded since the last flush.
#[derive(Clone, Copy, Debug, Default)]
struct Pending {
    allocs: u64,
    bytes: u64,
}

impl Pending {
    #[inline]
    fn add(&mut self, bytes: u64) {
        self.allocs += 1;
        self.bytes += bytes;
    }

    /// Adds the counts to the shared counters and clears them.
    fn drain_into(&mut self, allocs: &Counter, bytes: &Counter) {
        if self.allocs != 0 {
            allocs.add(self.allocs);
            bytes.add(self.bytes);
            *self = Pending::default();
        }
    }
}

impl HeapRecorder {
    /// Builds a recorder for `hub`, resolving one cell per class name (in
    /// class-index order) plus the synthetic `array` cell. A disabled hub
    /// yields the recording-nothing default.
    pub fn new<'a>(hub: &MetricsHub, class_names: impl IntoIterator<Item = &'a str>) -> Self {
        let Some(metrics) = &hub.0 else {
            return HeapRecorder::default();
        };
        let cell = |name| (metrics.heap.classes.resolve(name), Pending::default());
        HeapRecorder(Some(Box::new(AllocBuffer {
            metrics: Arc::clone(metrics),
            total: Pending::default(),
            classes: class_names.into_iter().map(cell).collect(),
            arrays: cell("array"),
        })))
    }

    /// Records an instance allocation of the class at `class_index`.
    #[inline]
    pub fn record_instance(&mut self, class_index: usize, bytes: u64) {
        if let Some(b) = &mut self.0 {
            b.total.add(bytes);
            if let Some((_, class)) = b.classes.get_mut(class_index) {
                class.add(bytes);
            }
        }
    }

    /// Records an array allocation.
    #[inline]
    pub fn record_array(&mut self, bytes: u64) {
        if let Some(b) = &mut self.0 {
            b.total.add(bytes);
            b.arrays.1.add(bytes);
        }
    }

    /// Folds the unflushed counts into the shared registry and clears
    /// them. A no-op for the disabled recorder and when nothing was
    /// recorded since the last flush.
    pub fn flush(&mut self) {
        let Some(b) = self.0.as_mut().filter(|b| b.total.allocs != 0) else {
            return;
        };
        let heap = &b.metrics.heap;
        b.total.drain_into(&heap.allocs, &heap.bytes);
        for (cell, pending) in b.classes.iter_mut().chain([&mut b.arrays]) {
            pending.drain_into(&cell.allocs, &cell.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_count_sum_max_and_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), 1106 / 5);
        // p50 of [1,2,3,100,1000] lands in the bucket of 3 (bound 3).
        assert_eq!(s.quantile(0.5), 3);
        // p100 is clamped to the observed max.
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(HistogramSnapshot::default().quantile(0.9), 0);
    }

    #[test]
    fn histogram_bucket_boundaries_at_powers_of_two() {
        // Exhaustive boundary sweep: for every power of two the values
        // 2^k - 1, 2^k, 2^k + 1 land in the documented buckets, and every
        // value is <= its bucket's inclusive upper bound while being above
        // the previous bucket's.
        for k in 0..64u32 {
            let p = 1u64 << k;
            assert_eq!(
                bucket_index(p),
                ((k + 1) as usize).min(HISTOGRAM_BUCKETS - 1)
            );
            for v in [p.saturating_sub(1), p, p.saturating_add(1)] {
                let i = bucket_index(v);
                assert!(
                    v <= bucket_upper_bound(i),
                    "v={v} above bound of bucket {i}"
                );
                if i > 0 && i < HISTOGRAM_BUCKETS - 1 {
                    assert!(
                        v > bucket_upper_bound(i - 1),
                        "v={v} also fits bucket {}",
                        i - 1
                    );
                }
            }
        }
        // The extremes.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Upper bounds are strictly increasing across the whole table.
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
        // Values past the 2^30 clamp point all share the last bucket.
        assert_eq!(bucket_index(1 << 31), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1 << 63), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_snapshot_and_delta_under_concurrent_increments() {
        let h = Histogram::default();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (h, stop) = (&h, &stop);
                s.spawn(move || {
                    let mut v = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 4096);
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                });
            }
            // Snapshots taken mid-flight must stay internally consistent:
            // monotone counts/sums, and deltas that never underflow.
            let mut prev = h.snapshot();
            for _ in 0..50 {
                let now = h.snapshot();
                assert!(now.count() >= prev.count());
                assert!(now.sum >= prev.sum);
                assert!(now.max >= prev.max);
                let d = now.delta(&prev);
                assert_eq!(d.count(), now.count() - prev.count());
                assert!(d.sum <= now.sum);
                assert_eq!(d.max, now.max);
                for (i, &b) in d.buckets.iter().enumerate() {
                    assert!(b <= now.buckets[i]);
                }
                prev = now;
            }
            stop.store(true, Ordering::Relaxed);
        });
        // After the writers join, per-bucket counts sum to the total count
        // and the delta against an empty snapshot reproduces the snapshot.
        let fin = h.snapshot();
        assert_eq!(fin.buckets.iter().sum::<u64>(), fin.count());
        let d = fin.delta(&HistogramSnapshot::default());
        assert_eq!(d.count(), fin.count());
        assert_eq!(d.sum, fin.sum);
    }

    #[test]
    fn histogram_records_from_many_threads() {
        let h = Histogram::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().max, 999);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_buckets() {
        let m = VmMetrics::default();
        m.interp.steps.add(10);
        m.compile.total_us.record(100);
        let early = m.snapshot();
        m.interp.steps.add(5);
        m.compile.total_us.record(200);
        let late = m.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.counter("interp.steps"), 5);
        assert_eq!(d.histogram("compile.total_us").unwrap().count(), 1);
        assert_eq!(d.histogram("compile.total_us").unwrap().sum, 200);
    }

    #[test]
    fn class_registry_merges_by_name_and_reports_rows() {
        let m = VmMetrics::default();
        let a = m.heap.classes.resolve("Key");
        let b = m.heap.classes.resolve("Key");
        a.allocs.inc();
        b.allocs.inc();
        b.bytes.add(32);
        m.heap.classes.resolve("array").allocs.inc();
        assert_eq!(
            m.heap.classes.rows(),
            vec![("Key".into(), 2, 32), ("array".into(), 1, 0)]
        );
        let snap = m.snapshot();
        assert_eq!(snap.counter("heap.class.Key.allocs"), 2);
        assert_eq!(snap.counter("heap.class.array.allocs"), 1);
    }

    #[test]
    fn disabled_hub_records_nothing_and_snapshots_none() {
        let hub = MetricsHub::disabled();
        assert!(hub.on().is_none());
        assert!(!hub.is_enabled());
        assert!(hub.snapshot().is_none());
        assert!(!MetricsHub::disabled_ref().is_enabled());
        assert!(!MetricsHub::default().is_enabled());
    }

    #[test]
    fn enabled_hub_shares_the_registry_across_clones() {
        let hub = MetricsHub::enabled();
        let clone = hub.clone();
        hub.on().unwrap().interp.steps.inc();
        clone.on().unwrap().interp.steps.inc();
        assert_eq!(hub.snapshot().unwrap().counter("interp.steps"), 2);
    }

    #[test]
    fn heap_recorder_feeds_totals_and_class_cells() {
        let hub = MetricsHub::enabled();
        let mut rec = HeapRecorder::new(&hub, ["Key", "Value"]);
        rec.record_instance(0, 32);
        rec.record_instance(1, 16);
        rec.record_instance(0, 32);
        rec.record_array(96);
        rec.record_instance(99, 8); // unknown index: totals only
        rec.flush();
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.counter("heap.allocs"), 5);
        assert_eq!(snap.counter("heap.bytes"), 32 + 16 + 32 + 96 + 8);
        assert_eq!(snap.counter("heap.class.Key.allocs"), 2);
        assert_eq!(snap.counter("heap.class.Key.bytes"), 64);
        assert_eq!(snap.counter("heap.class.Value.allocs"), 1);
        assert_eq!(snap.counter("heap.class.array.allocs"), 1);
        assert_eq!(snap.counter("heap.class.array.bytes"), 96);

        let mut off = HeapRecorder::default();
        off.record_instance(0, 8);
        off.record_array(8);
        off.flush();
    }

    #[test]
    fn buffered_recorder_defers_until_flush() {
        let hub = MetricsHub::enabled();
        let mut rec = HeapRecorder::new(&hub, ["Key"]);
        rec.record_instance(0, 32);
        rec.record_array(96);
        assert_eq!(hub.snapshot().unwrap().counter("heap.allocs"), 0);
        rec.flush();
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.counter("heap.allocs"), 2);
        assert_eq!(snap.counter("heap.bytes"), 128);
        assert_eq!(snap.counter("heap.class.Key.allocs"), 1);
        assert_eq!(snap.counter("heap.class.array.bytes"), 96);
        rec.flush(); // empty flush is a no-op
        assert_eq!(hub.snapshot().unwrap().counter("heap.allocs"), 2);
    }

    #[test]
    fn delta_lines_keep_only_nonzero_entries() {
        let m = VmMetrics::default();
        m.pea.virtualized.add(3);
        m.compile.queue_depth.set(2);
        m.compile.queue_latency_us.record(50);
        let lines = m.snapshot().delta_lines();
        assert!(lines.contains(&"pea.virtualized=3".to_string()));
        assert!(lines.contains(&"compile.queue_depth=2".to_string()));
        assert!(lines.contains(&"compile.queue_latency_us.count=1".to_string()));
        assert!(lines.contains(&"compile.queue_latency_us.sum=50".to_string()));
        assert!(!lines.iter().any(|l| l.starts_with("interp.steps")));
    }
}
