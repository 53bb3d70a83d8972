//! Cycle-attribution profiler for the tiered VM.
//!
//! The metrics registry answers "how many cycles did the whole run burn";
//! this module answers **where**: virtual cycles and allocation counts per
//! `(method, tier)`, per-bytecode-index hot-spot buckets for interpreted
//! code, and a per-opcode-kind breakdown — all fed from the points that
//! already charge the `pea_runtime::cost` constants.
//!
//! The design mirrors [`crate::MetricsHub`] exactly:
//!
//! * [`ProfilerHub`] is the clonable enabled/disabled handle (an
//!   `Option<Arc<VmProfiler>>`), with a `const` disabled value and a
//!   `'static` disabled reference for trait-default methods;
//! * the VM pre-resolves one [`MethodStats`] cell per program method at
//!   construction into a [`ProfileRecorder`] (the [`crate::HeapRecorder`]
//!   pattern), so the hot path is array indexing plus relaxed atomic adds
//!   — no lock, no name lookup, no allocation;
//! * attribution context (which method, which tier) lives *in* the
//!   recorder: the VM's `charge` implementation calls
//!   [`ProfileRecorder::charge`] and every cycle lands in the current
//!   `(method, tier)` cell. Because every charged cycle is attributed to
//!   exactly one cell, the profiler's total reconciles **exactly** with
//!   the VM's `stats.cycles` — asserted over the corpus in both JIT modes
//!   and both exec tiers.
//!
//! When disabled, every recording entry point is a single branch (an
//! empty-table or `Option` check) with zero allocations, pinned by a
//! counting-allocator test in `pea-vm`.
//!
//! With several mutator threads on one VM, every mutator carries its
//! **own** [`ProfileRecorder`] — the attribution context (current
//! method, current tier) is recorder state, so concurrent threads can
//! never cross-charge each other's cycles. Same-named cells resolved
//! from one hub share their atomics, so a [`ProfilerHub`] snapshot is
//! the exact sum over threads; per-thread exactness is asserted in
//! `crates/vm/tests/threads.rs` (two mutators running distinct methods
//! match their solo totals cell for cell).

use crate::Counter;
use pea_trace::json::ObjectWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Execution tiers cycles are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The profiling interpreter.
    Interp = 0,
    /// The graph-walking evaluator (`--exec-mode graph`).
    Graph = 1,
    /// The linear register-machine tier (`--exec-mode linear`).
    Linear = 2,
}

/// Number of tiers (array dimension of per-method cells).
pub const TIERS: usize = 3;

impl Tier {
    /// Stable kebab-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Interp => "interp",
            Tier::Graph => "graph",
            Tier::Linear => "linear",
        }
    }

    /// The tier with index `i` (inverse of `as usize`).
    pub fn from_index(i: usize) -> Tier {
        match i {
            0 => Tier::Interp,
            1 => Tier::Graph,
            _ => Tier::Linear,
        }
    }
}

/// Number of per-opcode-kind buckets (generously above the bytecode's
/// opcode count; out-of-range slots clamp into the last bucket).
pub const OPCODE_BUCKETS: usize = 64;

/// Counters for one `(method, tier)` pair.
#[derive(Debug, Default)]
pub struct TierStats {
    /// Virtual cycles charged while this method ran on this tier.
    pub cycles: Counter,
    /// Heap allocations performed while this method ran on this tier
    /// (including commit-group and deopt rematerializations).
    pub allocs: Counter,
    /// Invocations dispatched to this tier.
    pub invocations: Counter,
    /// Deoptimizations taken while this method ran on this tier.
    pub deopts: Counter,
}

/// Per-method profile cells, shared between the registry (for reporting)
/// and the recorder (for lock-free recording by method index).
#[derive(Debug)]
pub struct MethodStats {
    /// Method name (registry key).
    pub name: String,
    /// Per-tier counters, indexed by `Tier as usize`.
    pub tiers: [TierStats; TIERS],
    /// Interpreter cycles per bytecode index (hot-spot buckets); sized by
    /// the method's code length at registration.
    pub bci_cycles: Vec<AtomicU64>,
}

impl MethodStats {
    fn new(name: String, code_len: usize) -> Self {
        MethodStats {
            name,
            tiers: Default::default(),
            bci_cycles: (0..code_len).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The profiler registry: every cell of every VM attached to one hub.
#[derive(Debug, Default)]
pub struct VmProfiler {
    methods: Mutex<BTreeMap<String, Arc<MethodStats>>>,
    opcode_cycles: Vec<AtomicU64>,
    /// Deoptimizations recorded (reconciles with `vm.deopts`).
    pub deopts: Counter,
    /// Compiled-method installs recorded (reconciles with `vm.installs`).
    pub installs: Counter,
}

impl VmProfiler {
    fn new() -> Self {
        VmProfiler {
            methods: Mutex::new(BTreeMap::new()),
            opcode_cycles: (0..OPCODE_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            deopts: Counter::default(),
            installs: Counter::default(),
        }
    }

    /// Returns (creating if needed) the cell for `name`. Same-named
    /// methods of several VMs sharing one hub merge, like
    /// [`crate::ClassRegistry`] rows.
    pub fn resolve(&self, name: &str, code_len: usize) -> Arc<MethodStats> {
        let mut methods = self.methods.lock().expect("profiler registry poisoned");
        Arc::clone(
            methods
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(MethodStats::new(name.to_string(), code_len))),
        )
    }

    /// Adds interpreter cycles to an opcode-kind bucket.
    #[inline]
    pub fn record_opcode(&self, slot: usize, cycles: u64) {
        self.opcode_cycles[slot.min(OPCODE_BUCKETS - 1)].fetch_add(cycles, Ordering::Relaxed);
    }

    /// Freezes the registry into a plain-data [`ProfileSnapshot`].
    pub fn snapshot(&self) -> ProfileSnapshot {
        let methods = self.methods.lock().expect("profiler registry poisoned");
        let mut rows = Vec::new();
        let mut hot_bcis = Vec::new();
        for stats in methods.values() {
            for (i, t) in stats.tiers.iter().enumerate() {
                let (cycles, allocs, invocations, deopts) = (
                    t.cycles.get(),
                    t.allocs.get(),
                    t.invocations.get(),
                    t.deopts.get(),
                );
                if cycles | allocs | invocations | deopts != 0 {
                    rows.push(ProfileRow {
                        method: stats.name.clone(),
                        tier: Tier::from_index(i),
                        cycles,
                        allocs,
                        invocations,
                        deopts,
                    });
                }
            }
            for (bci, c) in stats.bci_cycles.iter().enumerate() {
                let cycles = c.load(Ordering::Relaxed);
                if cycles != 0 {
                    hot_bcis.push((stats.name.clone(), bci as u32, cycles));
                }
            }
        }
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.method.cmp(&b.method)));
        hot_bcis.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        ProfileSnapshot {
            rows,
            hot_bcis,
            opcode_cycles: self
                .opcode_cycles
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            deopts: self.deopts.get(),
            installs: self.installs.get(),
        }
    }
}

/// One `(method, tier)` row of a [`ProfileSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    pub method: String,
    pub tier: Tier,
    pub cycles: u64,
    pub allocs: u64,
    pub invocations: u64,
    pub deopts: u64,
}

/// Plain-data freeze of a [`VmProfiler`], ordered hottest-first.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Per-`(method, tier)` rows with any non-zero counter, by cycles
    /// descending.
    pub rows: Vec<ProfileRow>,
    /// `(method, bci, cycles)` interpreter hot spots, by cycles descending.
    pub hot_bcis: Vec<(String, u32, u64)>,
    /// Interpreter cycles per opcode-kind bucket ([`OPCODE_BUCKETS`]
    /// entries; index with the interpreter's opcode-slot mapping).
    pub opcode_cycles: Vec<u64>,
    /// Total deopts recorded.
    pub deopts: u64,
    /// Total installs recorded.
    pub installs: u64,
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 * 100.0 / total as f64
    }
}

impl ProfileSnapshot {
    /// Sum of attributed cycles across every `(method, tier)` cell — the
    /// quantity that must equal the VM's `stats.cycles` delta.
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    /// Sum of attributed allocations.
    pub fn total_allocs(&self) -> u64 {
        self.rows.iter().map(|r| r.allocs).sum()
    }

    /// Cycles attributed to one tier.
    pub fn tier_cycles(&self, tier: Tier) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.tier == tier)
            .map(|r| r.cycles)
            .sum()
    }

    /// Renders the top-`n` table: `(method, tier)` rows hottest-first with
    /// cycle share, allocations, invocations and deopts.
    pub fn render_top(&self, n: usize) -> String {
        let total = self.total_cycles();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>7} {:>14} {:>6} {:>10} {:>10} {:>7}\n",
            "method", "tier", "cycles", "%", "allocs", "invocs", "deopts"
        ));
        for row in self.rows.iter().take(n) {
            out.push_str(&format!(
                "{:<40} {:>7} {:>14} {:>6.2} {:>10} {:>10} {:>7}\n",
                row.method,
                row.tier.as_str(),
                row.cycles,
                pct(row.cycles, total),
                row.allocs,
                row.invocations,
                row.deopts
            ));
        }
        out.push_str(&format!(
            "total: {} cycles over {} (method, tier) rows; {} deopts, {} installs\n",
            total,
            self.rows.len(),
            self.deopts,
            self.installs
        ));
        out
    }

    /// Renders collapsed-stack lines (`method;tier cycles`), the input
    /// format of flamegraph generators.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            if row.cycles != 0 {
                out.push_str(&format!(
                    "{};{} {}\n",
                    row.method,
                    row.tier.as_str(),
                    row.cycles
                ));
            }
        }
        out
    }

    /// Renders the per-opcode table using `names[slot]` labels (slots past
    /// the table render as `op<slot>`).
    pub fn render_opcodes(&self, names: &[&str]) -> String {
        let mut rows: Vec<(usize, u64)> = self
            .opcode_cycles
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c != 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total: u64 = rows.iter().map(|&(_, c)| c).sum();
        let mut out = String::new();
        for (slot, cycles) in rows {
            let name = names
                .get(slot)
                .copied()
                .map_or_else(|| format!("op{slot}"), str::to_string);
            out.push_str(&format!(
                "{name:<16} {cycles:>14} {:>6.2}%\n",
                pct(cycles, total)
            ));
        }
        out
    }

    /// Serializes the snapshot (plus an optional reconciliation section)
    /// as a `pea-profile/1` JSON document.
    pub fn to_json(&self, opcode_names: &[&str], recon: Option<&Reconciliation>) -> String {
        let mut doc = ObjectWriter::new();
        doc.str("schema", "pea-profile/1");
        doc.num("total_cycles", self.total_cycles());
        doc.num("total_allocs", self.total_allocs());
        doc.num("deopts", self.deopts);
        doc.num("installs", self.installs);
        doc.array("rows", |rows| {
            for row in &self.rows {
                rows.object(|o| {
                    o.str("method", &row.method);
                    o.str("tier", row.tier.as_str());
                    o.num("cycles", row.cycles);
                    o.num("allocs", row.allocs);
                    o.num("invocations", row.invocations);
                    o.num("deopts", row.deopts);
                });
            }
        });
        doc.array("hot_bcis", |hot| {
            for (method, bci, cycles) in &self.hot_bcis {
                hot.object(|o| {
                    o.str("method", method);
                    o.num("bci", *bci);
                    o.num("cycles", *cycles);
                });
            }
        });
        doc.array("opcodes", |ops| {
            for (slot, &cycles) in self.opcode_cycles.iter().enumerate() {
                if cycles != 0 {
                    ops.object(|o| {
                        match opcode_names.get(slot) {
                            Some(name) => o.str("op", name),
                            None => o.str("op", &format!("op{slot}")),
                        }
                        o.num("cycles", cycles);
                    });
                }
            }
        });
        if let Some(r) = recon {
            doc.object("reconciliation", |o| {
                o.num("profiler_cycles", r.profiler_cycles);
                o.num("stats_cycles", r.stats_cycles);
                o.num("profiler_deopts", r.profiler_deopts);
                o.num("vm_deopts", r.vm_deopts);
                o.num("profiler_installs", r.profiler_installs);
                o.num("vm_installs", r.vm_installs);
                o.bool("ok", r.ok());
            });
        }
        doc.finish()
    }
}

/// Profiler totals next to the independently maintained VM counters they
/// must match (`stats.cycles`, `vm.deopts`, `vm.installs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reconciliation {
    pub profiler_cycles: u64,
    pub stats_cycles: u64,
    pub profiler_deopts: u64,
    pub vm_deopts: u64,
    pub profiler_installs: u64,
    pub vm_installs: u64,
}

impl Reconciliation {
    /// Whether every pair agrees exactly.
    pub fn ok(&self) -> bool {
        self.profiler_cycles == self.stats_cycles
            && self.profiler_deopts == self.vm_deopts
            && self.profiler_installs == self.vm_installs
    }
}

/// The handle instrumented code holds: enabled (shared registry) or
/// disabled. Mirrors [`crate::MetricsHub`].
#[derive(Clone, Debug, Default)]
pub struct ProfilerHub(Option<Arc<VmProfiler>>);

static DISABLED_HUB: ProfilerHub = ProfilerHub::disabled();

impl ProfilerHub {
    /// A hub with a fresh registry attached.
    pub fn enabled() -> ProfilerHub {
        ProfilerHub(Some(Arc::new(VmProfiler::new())))
    }

    /// A recording-nothing hub (const: usable in statics).
    pub const fn disabled() -> ProfilerHub {
        ProfilerHub(None)
    }

    /// A `'static` reference to the disabled hub.
    pub fn disabled_ref() -> &'static ProfilerHub {
        &DISABLED_HUB
    }

    /// The registry, when enabled.
    #[inline]
    pub fn on(&self) -> Option<&VmProfiler> {
        self.0.as_deref()
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Snapshot of the registry, when enabled.
    pub fn snapshot(&self) -> Option<ProfileSnapshot> {
        self.0.as_ref().map(|p| p.snapshot())
    }
}

/// Sentinel context meaning "no method entered yet" (out of range of any
/// resolved table, so charges before the first dispatch drop harmlessly —
/// the VM enters a context before anything charges).
const NO_CTX: u64 = u64::MAX;

/// Pre-resolved recorder held by one VM: per-method cells in method-index
/// order plus the current attribution context `(method, tier)`.
///
/// The context is packed into one relaxed atomic (`method << 2 | tier`) so
/// the recorder can live in a `static` for the disabled default and the
/// hot path stays a load + two array indexes + an atomic add.
#[derive(Debug)]
pub struct ProfileRecorder {
    hub: ProfilerHub,
    methods: Vec<Arc<MethodStats>>,
    ctx: AtomicU64,
}

static DISABLED_RECORDER: ProfileRecorder = ProfileRecorder::disabled();

/// A per-frame handle the interpreter resolves once at method entry, so
/// per-instruction hot-spot recording needs no map or registry access.
#[derive(Debug)]
pub struct FrameProfile {
    method: Arc<MethodStats>,
    registry: Arc<VmProfiler>,
}

impl FrameProfile {
    /// Adds `cycles` to the frame's per-bci bucket and the global
    /// per-opcode bucket.
    #[inline]
    pub fn record_op(&self, bci: u32, opcode_slot: usize, cycles: u64) {
        if let Some(cell) = self.method.bci_cycles.get(bci as usize) {
            cell.fetch_add(cycles, Ordering::Relaxed);
        }
        self.registry.record_opcode(opcode_slot, cycles);
    }
}

impl ProfileRecorder {
    /// A recording-nothing recorder (const: usable in statics). Every
    /// entry point is one branch on the empty method table.
    pub const fn disabled() -> Self {
        ProfileRecorder {
            hub: ProfilerHub::disabled(),
            methods: Vec::new(),
            ctx: AtomicU64::new(NO_CTX),
        }
    }

    /// A `'static` reference to the disabled recorder, for trait-default
    /// methods.
    pub fn disabled_ref() -> &'static ProfileRecorder {
        &DISABLED_RECORDER
    }

    /// Builds a recorder for `hub`, resolving one cell per method in
    /// method-index order. A disabled hub yields the recording-nothing
    /// default.
    pub fn new<'a>(
        hub: &ProfilerHub,
        methods: impl IntoIterator<Item = (&'a str, usize)>,
    ) -> ProfileRecorder {
        let Some(p) = hub.on() else {
            return ProfileRecorder::disabled();
        };
        ProfileRecorder {
            hub: hub.clone(),
            methods: methods
                .into_iter()
                .map(|(name, code_len)| p.resolve(name, code_len))
                .collect(),
            ctx: AtomicU64::new(NO_CTX),
        }
    }

    /// Whether this recorder is attached to an enabled hub.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !self.methods.is_empty()
    }

    /// The hub this recorder records into.
    pub fn hub(&self) -> &ProfilerHub {
        &self.hub
    }

    /// Enters attribution context `(method, tier)`, returning the packed
    /// previous context to pass to [`restore`](Self::restore) on exit.
    #[inline]
    pub fn enter(&self, method: usize, tier: Tier) -> u64 {
        if self.methods.is_empty() {
            return NO_CTX;
        }
        self.ctx
            .swap(((method as u64) << 2) | tier as u64, Ordering::Relaxed)
    }

    /// Restores a context saved by [`enter`](Self::enter).
    #[inline]
    pub fn restore(&self, prev: u64) {
        if self.methods.is_empty() {
            return;
        }
        self.ctx.store(prev, Ordering::Relaxed);
    }

    #[inline]
    fn current(&self) -> Option<(&MethodStats, usize)> {
        let ctx = self.ctx.load(Ordering::Relaxed);
        let stats = self.methods.get((ctx >> 2) as usize)?;
        Some((stats, (ctx & 3) as usize))
    }

    /// Attributes `cycles` to the current `(method, tier)` context. The
    /// VM calls this from its `charge` implementation, so *every* charged
    /// cycle lands in exactly one cell.
    #[inline]
    pub fn charge(&self, cycles: u64) {
        if self.methods.is_empty() {
            return;
        }
        if let Some((stats, tier)) = self.current() {
            stats.tiers[tier].cycles.add(cycles);
        }
    }

    /// Attributes one heap allocation to the current context.
    #[inline]
    pub fn record_alloc(&self) {
        if self.methods.is_empty() {
            return;
        }
        if let Some((stats, tier)) = self.current() {
            stats.tiers[tier].allocs.inc();
        }
    }

    /// Counts an invocation of `method` on `tier`.
    #[inline]
    pub fn record_invocation(&self, method: usize, tier: Tier) {
        if let Some(stats) = self.methods.get(method) {
            stats.tiers[tier as usize].invocations.inc();
        }
    }

    /// Counts a deoptimization, attributed to the current context.
    #[inline]
    pub fn record_deopt(&self) {
        if self.methods.is_empty() {
            return;
        }
        if let Some((stats, tier)) = self.current() {
            stats.tiers[tier].deopts.inc();
        }
        if let Some(p) = self.hub.on() {
            p.deopts.inc();
        }
    }

    /// Counts a compiled-method install.
    #[inline]
    pub fn record_install(&self) {
        if let Some(p) = self.hub.on() {
            p.installs.inc();
        }
    }

    /// The per-frame hot-spot handle for `method`, when enabled.
    #[inline]
    pub fn frame(&self, method: usize) -> Option<FrameProfile> {
        let stats = self.methods.get(method)?;
        let registry = self.hub.0.as_ref()?;
        Some(FrameProfile {
            method: Arc::clone(stats),
            registry: Arc::clone(registry),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(hub: &ProfilerHub) -> ProfileRecorder {
        ProfileRecorder::new(hub, [("Main.f", 8), ("Main.g", 4)])
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = ProfileRecorder::disabled();
        assert!(!rec.is_enabled());
        let prev = rec.enter(0, Tier::Interp);
        rec.charge(100);
        rec.record_alloc();
        rec.record_invocation(0, Tier::Interp);
        rec.record_deopt();
        rec.record_install();
        assert!(rec.frame(0).is_none());
        rec.restore(prev);
        assert!(ProfileRecorder::disabled_ref().frame(0).is_none());
        assert!(ProfilerHub::disabled_ref().snapshot().is_none());
    }

    #[test]
    fn charges_land_in_the_current_method_and_tier() {
        let hub = ProfilerHub::enabled();
        let rec = recorder(&hub);
        let outer = rec.enter(0, Tier::Interp);
        rec.record_invocation(0, Tier::Interp);
        rec.charge(10);
        // Nested call on another tier: save/restore brackets it.
        let inner = rec.enter(1, Tier::Linear);
        rec.record_invocation(1, Tier::Linear);
        rec.charge(7);
        rec.record_alloc();
        rec.restore(inner);
        rec.charge(5);
        rec.restore(outer);
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.total_cycles(), 22);
        assert_eq!(snap.total_allocs(), 1);
        let f = snap
            .rows
            .iter()
            .find(|r| r.method == "Main.f" && r.tier == Tier::Interp)
            .unwrap();
        assert_eq!(f.cycles, 15);
        assert_eq!(f.invocations, 1);
        let g = snap
            .rows
            .iter()
            .find(|r| r.method == "Main.g" && r.tier == Tier::Linear)
            .unwrap();
        assert_eq!(g.cycles, 7);
        assert_eq!(g.allocs, 1);
        assert_eq!(snap.tier_cycles(Tier::Interp), 15);
        assert_eq!(snap.tier_cycles(Tier::Linear), 7);
    }

    #[test]
    fn frame_handle_feeds_bci_and_opcode_buckets() {
        let hub = ProfilerHub::enabled();
        let rec = recorder(&hub);
        let frame = rec.frame(0).unwrap();
        frame.record_op(2, 1, 14);
        frame.record_op(2, 1, 14);
        frame.record_op(7, 3, 40);
        frame.record_op(999, 999, 5); // out-of-range bci drops, opcode clamps
        let snap = hub.snapshot().unwrap();
        assert_eq!(
            snap.hot_bcis,
            vec![("Main.f".into(), 7, 40), ("Main.f".into(), 2, 28),]
        );
        assert_eq!(snap.opcode_cycles[1], 28);
        assert_eq!(snap.opcode_cycles[3], 40);
        assert_eq!(snap.opcode_cycles[OPCODE_BUCKETS - 1], 5);
    }

    #[test]
    fn deopts_and_installs_reconcile() {
        let hub = ProfilerHub::enabled();
        let rec = recorder(&hub);
        let prev = rec.enter(0, Tier::Linear);
        rec.record_deopt();
        rec.record_deopt();
        rec.record_install();
        rec.restore(prev);
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.deopts, 2);
        assert_eq!(snap.installs, 1);
        let row = snap
            .rows
            .iter()
            .find(|r| r.method == "Main.f" && r.tier == Tier::Linear)
            .unwrap();
        assert_eq!(row.deopts, 2);
        let recon = Reconciliation {
            profiler_cycles: 0,
            stats_cycles: 0,
            profiler_deopts: snap.deopts,
            vm_deopts: 2,
            profiler_installs: snap.installs,
            vm_installs: 1,
        };
        assert!(recon.ok());
    }

    /// One interpreted method with a charge, an allocation and a hot bci,
    /// and a reconciliation that agrees on cycles.
    fn sample_snapshot() -> (ProfileSnapshot, Reconciliation) {
        let hub = ProfilerHub::enabled();
        let rec = recorder(&hub);
        let prev = rec.enter(0, Tier::Interp);
        rec.charge(100);
        rec.record_alloc();
        rec.restore(prev);
        let frame = rec.frame(0).unwrap();
        frame.record_op(3, 2, 100);
        let recon = Reconciliation {
            profiler_cycles: 100,
            stats_cycles: 100,
            ..Default::default()
        };
        (hub.snapshot().unwrap(), recon)
    }

    #[test]
    fn renders_table_stacks_and_json() {
        let (snap, recon) = sample_snapshot();
        let table = snap.render_top(10);
        assert!(table.contains("Main.f"));
        assert!(table.contains("interp"));
        assert!(table.contains("100.00"));
        let stacks = snap.collapsed_stacks();
        assert_eq!(stacks, "Main.f;interp 100\n");
        let ops = snap.render_opcodes(&["a", "b", "load"]);
        assert!(ops.contains("load"));
        let json = snap.to_json(&["a", "b", "load"], Some(&recon));
        assert!(json.starts_with("{\"schema\":\"pea-profile/1\""));
        assert!(json.contains("\"method\":\"Main.f\""));
        assert!(json.contains("\"tier\":\"interp\""));
        assert!(json.contains("\"hot_bcis\":[{\"method\":\"Main.f\",\"bci\":3,\"cycles\":100}]"));
        assert!(json.contains("\"op\":\"load\""));
        assert!(json.contains("\"reconciliation\":"));
        assert!(json.contains("\"ok\":true"));
    }

    /// The exact `pea-profile/1` bytes for [`sample_snapshot`].
    #[test]
    fn to_json_bytes_are_pinned() {
        let (snap, recon) = sample_snapshot();
        const PINNED: &str = concat!(
            r#"{"schema":"pea-profile/1","total_cycles":100,"total_allocs":1,"deopts":0,"installs":0,"#,
            r#""rows":[{"method":"Main.f","tier":"interp","cycles":100,"allocs":1,"invocations":0,"deopts":0}],"#,
            r#""hot_bcis":[{"method":"Main.f","bci":3,"cycles":100}],"opcodes":[{"op":"load","cycles":100}],"#,
            r#""reconciliation":{"profiler_cycles":100,"stats_cycles":100,"profiler_deopts":0,"vm_deopts":0,"#,
            r#""profiler_installs":0,"vm_installs":0,"ok":true}}"#,
        );
        assert_eq!(snap.to_json(&["a", "b", "load"], Some(&recon)), PINNED);
        // No reconciliation section, and a slot past the names is `op<slot>`.
        const UNRECONCILED: &str = concat!(
            r#"{"schema":"pea-profile/1","total_cycles":100,"total_allocs":1,"deopts":0,"installs":0,"#,
            r#""rows":[{"method":"Main.f","tier":"interp","cycles":100,"allocs":1,"invocations":0,"deopts":0}],"#,
            r#""hot_bcis":[{"method":"Main.f","bci":3,"cycles":100}],"opcodes":[{"op":"op2","cycles":100}]}"#,
        );
        assert_eq!(snap.to_json(&["a"], None), UNRECONCILED);
    }

    #[test]
    fn shared_hub_merges_same_named_methods_across_recorders() {
        let hub = ProfilerHub::enabled();
        let a = recorder(&hub);
        let b = recorder(&hub);
        let pa = a.enter(0, Tier::Interp);
        a.charge(3);
        a.restore(pa);
        let pb = b.enter(0, Tier::Interp);
        b.charge(4);
        b.restore(pb);
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.total_cycles(), 7);
        assert_eq!(snap.rows.len(), 1);
    }
}
