//! Safepoint-published shared code cache and mutator rendezvous.
//!
//! With N mutator threads on one VM, compiled artifacts live in two
//! places: a **mutator-local pinned table** (the dispatch hot path — a
//! plain `Vec` indexed by method, owned by the thread, zero shared
//! accesses per call) and this
//! **shared [`CodeCache`]**, the publication layer mutators consult when a
//! method crosses the compile threshold. The shared cache is read-mostly
//! and its read path acquires no lock:
//!
//! * every mutator holds a [`CacheView`] — a generation number plus an
//!   `Arc` replica of the published map. A lookup loads the cache's
//!   generation with one `Acquire` load; when it matches the view, the
//!   lookup is answered entirely from the replica (`read_fast`).
//! * when the generation moved, the reader *tries* to refresh its replica
//!   with `try_lock` (`read_refresh`). If a writer holds the lock at that
//!   instant the reader keeps its stale replica and proceeds
//!   (`read_stale`) — publication at safepoints is best-effort by design,
//!   so the read path **never blocks**. The `read_blocked` counter exists
//!   to pin that invariant: it is structurally zero and asserted by tests.
//!
//! Writers (install/evict) take the single inner mutex, clone-on-write
//! the map, and advance the generation. Evicted entries are not dropped
//! immediately — a reader may still answer lookups from a stale replica —
//! but **retired** at the new generation and reclaimed only after every
//! registered mutator has polled a safepoint past that generation (the
//! [`SafepointRegistry`] rendezvous). Everything is `Arc`-based and safe:
//! the rendezvous bounds the retire bin, it is not a memory-safety
//! requirement.

use pea_bytecode::MethodId;
use pea_compiler::{Bailout, CompiledMethod};
use pea_trace::TraceEvent;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Published variants kept per method; beyond this the oldest is retired.
/// Variants exist because mutators promote the same method from different
/// profile snapshots (different fingerprints).
pub const MAX_VARIANTS: usize = 4;

/// One published compilation: the artifact (or bailout) plus everything a
/// consumer needs to behave byte-identically to having compiled it
/// itself — the buffered decision events (replayed into the consumer's
/// trace sink and metrics fold) and any sanitizer findings (replayed as
/// the same panic).
#[derive(Debug)]
pub struct CachedCompile {
    /// The compiled artifact, or the bailout that keeps it interpreted.
    pub result: Result<Arc<CompiledMethod>, Bailout>,
    /// Hash of the profile-store snapshot the compilation consumed; equal
    /// fingerprints mean equal inputs mean an identical artifact.
    pub fingerprint: u64,
    /// Whether `events` was captured (the publisher compiled through a
    /// buffer). Consumers that need events for trace/metrics/sanitizer
    /// replay skip untraced entries and compile themselves.
    pub traced: bool,
    /// The compilation's decision-event stream, for consumer replay.
    pub events: Vec<TraceEvent>,
    /// Sanitizer findings (checked mode), replayed as a panic on reuse.
    pub findings: Vec<String>,
}

type CodeMap = HashMap<MethodId, Vec<Arc<CachedCompile>>>;

#[derive(Default)]
struct CacheInner {
    map: Arc<CodeMap>,
    /// Entries removed from `map` at some generation, awaiting the
    /// rendezvous: `(retire_generation, entry)`.
    retired: Vec<(u64, Arc<CachedCompile>)>,
}

/// A mutator's replica of the published map. Refreshed opportunistically
/// at safepoints and lookups; never a source of blocking.
pub struct CacheView {
    generation: u64,
    map: Arc<CodeMap>,
}

impl CacheView {
    /// The generation this replica reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Counter snapshot of the shared cache (see [`CodeCache::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Current publication generation.
    pub generation: u64,
    /// Reader fast paths: generation matched, replica answered.
    pub read_fast: u64,
    /// Reader refreshes: generation moved, `try_lock` succeeded.
    pub read_refresh: u64,
    /// Reader stale reads: generation moved, a writer held the lock, the
    /// reader kept its replica. (Contention visible, but non-blocking.)
    pub read_stale: u64,
    /// Reader blocking lock acquisitions. **Structurally zero** — there is
    /// no code path that can increment it; tests assert it stays zero.
    pub read_blocked: u64,
    /// Entries published.
    pub installs: u64,
    /// Methods evicted.
    pub evictions: u64,
    /// Retired entries reclaimed after the safepoint rendezvous.
    pub reclaimed: u64,
    /// Retired entries currently awaiting the rendezvous.
    pub retired: usize,
    /// Published `(method, variant)` entries currently live.
    pub entries: usize,
}

/// The shared, read-mostly compiled-code store. See the module docs.
#[derive(Default)]
pub struct CodeCache {
    generation: AtomicU64,
    /// Mirror of `inner.retired.len()`, so the common no-retirees case
    /// skips the lock in [`Self::maybe_reclaim`].
    retired_len: AtomicUsize,
    inner: Mutex<CacheInner>,
    read_fast: AtomicU64,
    read_refresh: AtomicU64,
    read_stale: AtomicU64,
    read_blocked: AtomicU64,
    installs: AtomicU64,
    evictions: AtomicU64,
    reclaimed: AtomicU64,
}

impl CodeCache {
    /// An empty cache at generation 0.
    pub fn new() -> CodeCache {
        CodeCache::default()
    }

    /// Current publication generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A fresh replica of the published map at the current generation.
    pub fn view(&self) -> CacheView {
        let inner = self.inner.lock().expect("code cache poisoned");
        CacheView {
            generation: self.generation.load(Ordering::Acquire),
            map: Arc::clone(&inner.map),
        }
    }

    /// Opportunistically brings `view` up to the current generation. Uses
    /// `try_lock` only: under writer contention the view stays stale and
    /// the caller proceeds — this path cannot block. Returns whether the
    /// view is now current.
    pub fn refresh(&self, view: &mut CacheView) -> bool {
        if self.generation.load(Ordering::Acquire) == view.generation {
            return true;
        }
        match self.inner.try_lock() {
            Ok(inner) => {
                // Generation only moves under the inner lock, so reading
                // it while holding the lock is exact.
                view.map = Arc::clone(&inner.map);
                view.generation = self.generation.load(Ordering::Acquire);
                true
            }
            Err(_) => false,
        }
    }

    /// Looks `method` up through `view`, refreshing the replica first when
    /// the generation moved (non-blocking; see [`Self::refresh`]). Returns
    /// the variant whose fingerprint matches, requiring a traced entry
    /// when `needs_events` (the consumer replays events into its own
    /// trace/metrics/sanitizer).
    pub fn lookup(
        &self,
        view: &mut CacheView,
        method: MethodId,
        fingerprint: u64,
        needs_events: bool,
    ) -> Option<Arc<CachedCompile>> {
        if self.generation.load(Ordering::Acquire) == view.generation {
            self.read_fast.fetch_add(1, Ordering::Relaxed);
        } else if self.refresh(view) {
            self.read_refresh.fetch_add(1, Ordering::Relaxed);
        } else {
            self.read_stale.fetch_add(1, Ordering::Relaxed);
        }
        view.map
            .get(&method)?
            .iter()
            .find(|c| c.fingerprint == fingerprint && (c.traced || !needs_events))
            .cloned()
    }

    /// Publishes one compilation. On a `(method, fingerprint)` collision
    /// the incumbent wins (both are identical by construction, and keeping
    /// the incumbent makes concurrent duplicate publishes idempotent).
    /// When a method exceeds [`MAX_VARIANTS`], the oldest variant is
    /// retired at the new generation.
    pub fn publish(&self, method: MethodId, entry: CachedCompile) {
        let mut inner = self.inner.lock().expect("code cache poisoned");
        let fingerprint = entry.fingerprint;
        if inner
            .map
            .get(&method)
            .is_some_and(|vs| vs.iter().any(|c| c.fingerprint == fingerprint))
        {
            return;
        }
        let next_gen = self.generation.load(Ordering::Acquire) + 1;
        // Clone-on-write: readers hold replicas of the old map.
        let map = Arc::make_mut(&mut inner.map);
        let variants = map.entry(method).or_default();
        variants.push(Arc::new(entry));
        let overflow = if variants.len() > MAX_VARIANTS {
            Some(variants.remove(0))
        } else {
            None
        };
        if let Some(old) = overflow {
            inner.retired.push((next_gen, old));
            self.retired_len
                .store(inner.retired.len(), Ordering::Release);
        }
        self.installs.fetch_add(1, Ordering::Relaxed);
        self.generation.store(next_gen, Ordering::Release);
    }

    /// Evicts every published variant of `method`, retiring them at the
    /// new generation (reclaimed after the safepoint rendezvous — see
    /// [`Self::maybe_reclaim`]). No-op when the method is not published.
    pub fn evict(&self, method: MethodId) {
        let mut inner = self.inner.lock().expect("code cache poisoned");
        if !inner.map.contains_key(&method) {
            return;
        }
        let next_gen = self.generation.load(Ordering::Acquire) + 1;
        let map = Arc::make_mut(&mut inner.map);
        let variants = map.remove(&method).unwrap_or_default();
        for v in variants {
            inner.retired.push((next_gen, v));
        }
        self.retired_len
            .store(inner.retired.len(), Ordering::Release);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.generation.store(next_gen, Ordering::Release);
    }

    /// Drops retired entries whose retire generation every registered
    /// mutator has polled past. The common no-retirees case is one relaxed
    /// load; eviction epochs therefore advance (storage-wise) only after
    /// the full rendezvous, which is the protocol the starvation test
    /// exercises.
    pub fn maybe_reclaim(&self, registry: &SafepointRegistry) {
        if self.retired_len.load(Ordering::Acquire) == 0 {
            return;
        }
        // Registry lock is taken and released before the inner lock: the
        // two are never held together.
        let min_seen = registry.min_seen();
        let mut inner = self.inner.lock().expect("code cache poisoned");
        let before = inner.retired.len();
        inner.retired.retain(|(gen, _)| *gen > min_seen);
        let freed = before - inner.retired.len();
        if freed > 0 {
            self.reclaimed.fetch_add(freed as u64, Ordering::Relaxed);
            self.retired_len
                .store(inner.retired.len(), Ordering::Release);
        }
    }

    /// Retired entries currently awaiting the rendezvous.
    pub fn retired_len(&self) -> usize {
        self.retired_len.load(Ordering::Acquire)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("code cache poisoned");
        CacheStats {
            generation: self.generation.load(Ordering::Acquire),
            read_fast: self.read_fast.load(Ordering::Relaxed),
            read_refresh: self.read_refresh.load(Ordering::Relaxed),
            read_stale: self.read_stale.load(Ordering::Relaxed),
            read_blocked: self.read_blocked.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            retired: inner.retired.len(),
            entries: inner.map.values().map(Vec::len).sum(),
        }
    }
}

/// One mutator's presence in the rendezvous protocol.
#[derive(Debug)]
pub struct MutatorSlot {
    /// Latest generation this mutator has polled a safepoint at.
    seen: AtomicU64,
    /// False once the mutator is dropped; inactive slots are pruned.
    active: AtomicBool,
    /// True while the mutator is outside any VM call (idle). Parked
    /// mutators are excluded from `min_seen` so an idle thread cannot
    /// stall reclamation; they re-poll before touching the cache again.
    parked: AtomicBool,
}

impl MutatorSlot {
    /// Records that this mutator polled a safepoint at `generation`.
    pub fn poll(&self, generation: u64) {
        self.seen.store(generation, Ordering::Release);
    }

    /// Latest polled generation.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Acquire)
    }

    /// Marks the mutator idle (outside any VM call).
    pub fn park(&self) {
        self.parked.store(true, Ordering::Release);
    }

    /// Marks the mutator running again.
    pub fn unpark(&self) {
        self.parked.store(false, Ordering::Release);
    }

    /// Permanently removes the mutator from the rendezvous.
    pub fn retire(&self) {
        self.active.store(false, Ordering::Release);
    }
}

/// Registry of every live mutator's [`MutatorSlot`].
#[derive(Default)]
pub struct SafepointRegistry {
    slots: Mutex<Vec<Arc<MutatorSlot>>>,
}

impl SafepointRegistry {
    /// An empty registry.
    pub fn new() -> SafepointRegistry {
        SafepointRegistry::default()
    }

    /// Registers a new mutator, whose slot starts at `generation` (the
    /// cache generation its initial view reflects) and parked (it has not
    /// entered a call yet).
    pub fn register(&self, generation: u64) -> Arc<MutatorSlot> {
        let slot = Arc::new(MutatorSlot {
            seen: AtomicU64::new(generation),
            active: AtomicBool::new(true),
            parked: AtomicBool::new(true),
        });
        self.slots
            .lock()
            .expect("safepoint registry poisoned")
            .push(Arc::clone(&slot));
        slot
    }

    /// Number of registered (live) mutators.
    pub fn len(&self) -> usize {
        let mut slots = self.slots.lock().expect("safepoint registry poisoned");
        slots.retain(|s| s.active.load(Ordering::Acquire));
        slots.len()
    }

    /// Whether no mutator is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The minimum safepoint generation over every active, running
    /// mutator — the rendezvous frontier. Parked and retired mutators are
    /// excluded; with none eligible everything retired is reclaimable.
    pub fn min_seen(&self) -> u64 {
        let mut slots = self.slots.lock().expect("safepoint registry poisoned");
        slots.retain(|s| s.active.load(Ordering::Acquire));
        slots
            .iter()
            .filter(|s| !s.parked.load(Ordering::Acquire))
            .map(|s| s.seen.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;
    use pea_compiler::{compile, CompilerOptions};

    fn artifact() -> Arc<CompiledMethod> {
        let program = parse_program("method f 1 returns { load 0 const 1 add retv }").unwrap();
        let code = compile(
            &program,
            MethodId::from_index(0),
            None,
            &CompilerOptions::default(),
        )
        .unwrap();
        Arc::new(code)
    }

    fn entry(fingerprint: u64, code: &Arc<CompiledMethod>) -> CachedCompile {
        CachedCompile {
            result: Ok(Arc::clone(code)),
            fingerprint,
            traced: false,
            events: Vec::new(),
            findings: Vec::new(),
        }
    }

    #[test]
    fn publish_lookup_round_trip_and_fingerprint_miss() {
        let cache = CodeCache::new();
        let mut view = cache.view();
        let m = MethodId::from_index(0);
        let code = artifact();
        cache.publish(m, entry(7, &code));
        assert!(cache.lookup(&mut view, m, 7, false).is_some());
        assert!(cache.lookup(&mut view, m, 8, false).is_none());
        // Untraced entries are invisible to consumers that need events.
        assert!(cache.lookup(&mut view, m, 7, true).is_none());
        let s = cache.stats();
        assert_eq!(s.installs, 1);
        assert_eq!(s.entries, 1);
        assert_eq!(s.read_blocked, 0);
    }

    #[test]
    fn duplicate_fingerprint_keeps_incumbent_and_generation() {
        let cache = CodeCache::new();
        let m = MethodId::from_index(0);
        let code = artifact();
        cache.publish(m, entry(7, &code));
        let gen = cache.generation();
        cache.publish(m, entry(7, &code));
        assert_eq!(cache.generation(), gen, "idempotent republish");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn variant_overflow_retires_the_oldest() {
        let cache = CodeCache::new();
        let m = MethodId::from_index(0);
        let code = artifact();
        for fp in 0..(MAX_VARIANTS as u64 + 1) {
            cache.publish(m, entry(fp, &code));
        }
        let mut view = cache.view();
        assert!(cache.lookup(&mut view, m, 0, false).is_none(), "oldest out");
        assert!(cache.lookup(&mut view, m, 1, false).is_some());
        assert_eq!(cache.stats().entries, MAX_VARIANTS);
        assert_eq!(cache.retired_len(), 1);
    }

    #[test]
    fn eviction_retires_until_every_mutator_polls_past_it() {
        let cache = CodeCache::new();
        let registry = SafepointRegistry::new();
        let m = MethodId::from_index(0);
        let code = artifact();
        cache.publish(m, entry(7, &code));
        let a = registry.register(cache.generation());
        let b = registry.register(cache.generation());
        a.unpark();
        b.unpark();
        cache.evict(m);
        assert_eq!(cache.retired_len(), 1);
        a.poll(cache.generation());
        cache.maybe_reclaim(&registry);
        assert_eq!(cache.retired_len(), 1, "b has not polled past the evict");
        b.poll(cache.generation());
        cache.maybe_reclaim(&registry);
        assert_eq!(cache.retired_len(), 0, "rendezvous complete");
        assert_eq!(cache.stats().reclaimed, 1);
    }

    #[test]
    fn parked_and_retired_mutators_do_not_stall_reclamation() {
        let cache = CodeCache::new();
        let registry = SafepointRegistry::new();
        let m = MethodId::from_index(0);
        let code = artifact();
        cache.publish(m, entry(7, &code));
        let runner = registry.register(cache.generation());
        let idle = registry.register(cache.generation());
        let dead = registry.register(cache.generation());
        runner.unpark();
        idle.unpark();
        dead.unpark();
        cache.evict(m);
        idle.park();
        dead.retire();
        runner.poll(cache.generation());
        cache.maybe_reclaim(&registry);
        assert_eq!(cache.retired_len(), 0);
        assert_eq!(registry.len(), 2, "retired slot pruned");
    }

    #[test]
    fn concurrent_readers_never_block_while_writers_churn() {
        let cache = Arc::new(CodeCache::new());
        let code = artifact();
        let m = MethodId::from_index(0);
        cache.publish(m, entry(0, &code));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let cache = Arc::clone(&cache);
                let stop = Arc::clone(&stop);
                let code = Arc::clone(&code);
                scope.spawn(move || {
                    let mut view = cache.view();
                    let (mut hits, mut fast_hits) = (0u64, 0u64);
                    // Read until the writer is done *and* this reader has
                    // hit, once through the fast path: the last published
                    // state holds fingerprint 0 at a generation that no
                    // longer moves, so both are bound to happen however
                    // late this thread is first scheduled.
                    loop {
                        let done = stop.load(Ordering::Acquire);
                        let current = done && view.generation() == cache.generation();
                        // Fingerprint 0 is evicted and republished by the
                        // writer; a hit must always carry fingerprint 0.
                        if let Some(hit) = cache.lookup(&mut view, m, 0, false) {
                            assert_eq!(hit.fingerprint, 0);
                            assert!(Arc::ptr_eq(hit.result.as_ref().unwrap(), &code));
                            hits += 1;
                            fast_hits += u64::from(current);
                        }
                        if done && fast_hits > 0 {
                            break;
                        }
                    }
                    assert!(hits > 0, "readers made progress");
                });
            }
            let writer_cache = Arc::clone(&cache);
            let writer_stop = Arc::clone(&stop);
            scope.spawn(move || {
                for _ in 0..2_000 {
                    writer_cache.evict(m);
                    writer_cache.publish(m, entry(0, &code));
                }
                writer_stop.store(true, Ordering::Release);
            });
        });
        let s = cache.stats();
        assert_eq!(s.read_blocked, 0, "the read path never blocks");
        assert!(s.read_fast > 0, "generation-match fast path exercised");
        assert_eq!(s.evictions, 2_000);
    }
}
