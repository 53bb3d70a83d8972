//! The background JIT compilation service: a worker-thread pool fed by a
//! bounded, hotness-ordered priority queue with request deduplication.
//!
//! This mirrors the HotSpot execution model the paper's system lives in
//! (§2): compilation happens on **background compiler threads** while the
//! interpreter keeps serving execution, and finished code is installed at
//! safepoints. In this reproduction a mutator requests a compilation when
//! a method crosses the hotness threshold, hands the service an immutable
//! [`ProfileStore`] snapshot (so the artifact is a deterministic function
//! of the request, independent of concurrent profile updates), keeps
//! interpreting, and drains finished [`CompiledMethod`]s into its code
//! cache at the next safepoint (method entry or an interpreter loop
//! back-edge).
//!
//! One service serves **every mutator thread** of a VM. Each mutator
//! registers a [`Mailbox`]; requests carry the requester's mailbox and
//! finished outcomes are deposited there, so a mutator only ever installs
//! what it asked for — its tiering schedule stays a function of its own
//! execution, exactly as with a private service. Per-mailbox trace merge
//! sequencing keeps each mutator's event stream pop-deterministic.
//!
//! Queue policy:
//!
//! * **priority** — requests are ordered by hotness (invocation count at
//!   request time); ties go to the earlier request;
//! * **dedup** — a `(mailbox, method)` pair that is queued, compiling, or
//!   finished but not yet drained is never enqueued twice (two mutators
//!   may have the same method in flight — each compiles from its own
//!   profile snapshot);
//! * **bounded with backpressure** — when `QUEUE_CAPACITY` requests are
//!   pending, a new request evicts the coldest queued one if the newcomer
//!   is strictly hotter (the evicted method stays interpreted, keeps
//!   getting hotter, and is retried at a later threshold check);
//!   otherwise the newcomer itself is rejected.

use pea_bytecode::{MethodId, Program};
use pea_compiler::{compile, compile_traced, Bailout, CompiledMethod, CompilerOptions};
use pea_metrics::MetricsHub;
use pea_runtime::profile::ProfileStore;
use pea_trace::{MemorySink, SequencedMerge, SharedSink};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of the service's pool and queue.
#[derive(Clone, Debug)]
pub struct CompileServiceOptions {
    /// Worker thread count; `None` picks [`default_workers`].
    pub workers: Option<usize>,
    /// Metrics handle; queue admission/rejection counters, the depth
    /// gauge, and per-compilation PEA/phase metrics flow through it.
    pub metrics: MetricsHub,
}

/// Maximum queued (not yet started) requests; at capacity a new request
/// either evicts the coldest pending one (if strictly hotter) or is
/// rejected.
const QUEUE_CAPACITY: usize = 128;

/// Default worker count: all hardware threads minus one (the one running
/// the VM), but at least one.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(1)
        .max(1)
}

/// A mutator's registration with the service: where its finished
/// compilations are deposited, and the per-mutator trace fan-in.
///
/// Obtained from [`CompileService::register_mailbox`]; cheap to clone via
/// `Arc`. The `ready` counter lets the draining safepoint skip both locks
/// when nothing has finished — the common case on a hot loop back-edge.
pub struct Mailbox {
    id: u64,
    /// Sequence-ordered fan-in to this mutator's trace sink (`Some` iff a
    /// sink was attached at registration): each worker buffers a
    /// compilation's events privately and flushes the block here, keyed by
    /// per-mailbox pop order, so the mutator sees deterministically
    /// ordered, never-interleaved compilation streams.
    merge: Option<SequencedMerge>,
    /// Next flush sequence for `merge`; assigned when a worker *pops* a
    /// request of this mailbox (under the queue lock), so the per-mailbox
    /// sequence is dense and pop-deterministic.
    flush_seq: AtomicU64,
    /// Finished-outcome count (lock-free emptiness check for safepoints).
    ready: AtomicUsize,
    outcomes: Mutex<Vec<CompileOutcome>>,
}

impl Mailbox {
    /// Whether any finished compilation awaits
    /// [`CompileService::take`].
    pub fn has_ready(&self) -> bool {
        self.ready.load(AtomicOrdering::Acquire) != 0
    }
}

/// One finished compilation, ready to install at a safepoint.
#[derive(Debug)]
pub struct CompileOutcome {
    /// The compiled method.
    pub method: MethodId,
    /// Eviction epoch of the method at request time; the requester
    /// discards outcomes from before its latest eviction (their
    /// speculation is the one that kept deoptimizing).
    pub epoch: u64,
    /// The artifact, or the bailout that keeps the method interpreted.
    pub result: Result<CompiledMethod, Bailout>,
    /// When the request entered the queue; the VM measures the
    /// enqueue→install latency histogram from this.
    pub enqueued_at: Instant,
}

/// A queued compilation request.
struct Request {
    hotness: u64,
    /// Monotonic sequence number; earlier requests win hotness ties.
    seq: u64,
    epoch: u64,
    method: MethodId,
    mailbox: Arc<Mailbox>,
    profiles: ProfileStore,
    enqueued_at: Instant,
}

impl PartialEq for Request {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Request {}

impl PartialOrd for Request {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Request {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: hotter first, then FIFO.
        (self.hotness, std::cmp::Reverse(self.seq))
            .cmp(&(other.hotness, std::cmp::Reverse(other.seq)))
    }
}

struct Queue {
    heap: BinaryHeap<Request>,
    /// `(mailbox, method)` pairs queued, compiling, or awaiting drain
    /// (the dedup set).
    inflight: HashSet<(u64, MethodId)>,
    seq: u64,
    /// Workers currently compiling.
    active: usize,
    shutdown: bool,
}

impl Queue {
    /// Backpressure policy for a full queue: evict the coldest pending
    /// request if it is strictly colder than a newcomer of `hotness`,
    /// freeing its slot (and dedup entry, so the method can re-request
    /// later). Returns whether a slot was freed. On a hotness tie the
    /// incumbent wins — eviction must not livelock two equally hot
    /// methods displacing each other.
    fn evict_coldest_below(&mut self, hotness: u64) -> bool {
        let colder = self.heap.iter().min().is_some_and(|r| r.hotness < hotness);
        if !colder {
            return false;
        }
        let mut pending = std::mem::take(&mut self.heap).into_vec();
        let victim_at = pending
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.cmp(b))
            .map(|(i, _)| i)
            .expect("non-empty: min exists");
        let victim = pending.swap_remove(victim_at);
        self.inflight.remove(&(victim.mailbox.id, victim.method));
        self.heap = pending.into();
        true
    }
}

struct Shared {
    program: Arc<Program>,
    options: CompilerOptions,
    metrics: MetricsHub,
    /// Next mailbox id.
    mailbox_seq: AtomicU64,
    queue: Mutex<Queue>,
    /// Signals workers that work (or shutdown) is available.
    work: Condvar,
    /// Signals waiters that the queue went empty with no active compile.
    idle: Condvar,
}

/// The compilation service. Dropping it shuts the pool down (workers
/// finish their current compile and exit).
pub struct CompileService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    capacity: usize,
}

impl CompileService {
    /// Starts `options.workers` worker threads compiling against
    /// `program` at `compiler` options.
    pub fn start(
        program: Arc<Program>,
        compiler: CompilerOptions,
        options: &CompileServiceOptions,
    ) -> CompileService {
        Self::start_bounded(program, compiler, options, QUEUE_CAPACITY)
    }

    /// [`Self::start`] with a queue of `capacity` pending requests.
    fn start_bounded(
        program: Arc<Program>,
        compiler: CompilerOptions,
        options: &CompileServiceOptions,
        capacity: usize,
    ) -> CompileService {
        let shared = Arc::new(Shared {
            program,
            options: compiler,
            metrics: options.metrics.clone(),
            mailbox_seq: AtomicU64::new(0),
            queue: Mutex::new(Queue {
                heap: BinaryHeap::new(),
                inflight: HashSet::new(),
                seq: 0,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let worker_count = options.workers.unwrap_or_else(default_workers).max(1);
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pea-compile-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn compile worker")
            })
            .collect();
        CompileService {
            shared,
            workers: Mutex::new(workers),
            capacity,
        }
    }

    /// Registers a mutator with the service. When `trace` is set, each of
    /// the mutator's compilations flushes its buffered decision events to
    /// the sink as one contiguous block, in per-mailbox pop order.
    pub fn register_mailbox(&self, trace: Option<SharedSink>) -> Arc<Mailbox> {
        Arc::new(Mailbox {
            id: self
                .shared
                .mailbox_seq
                .fetch_add(1, AtomicOrdering::Relaxed),
            merge: trace.map(SequencedMerge::new),
            flush_seq: AtomicU64::new(0),
            ready: AtomicUsize::new(0),
            outcomes: Mutex::new(Vec::new()),
        })
    }

    /// Enqueues a compilation of `method` for `mailbox` from the given
    /// profile snapshot. Returns `false` (and does nothing) if the pair is
    /// already in flight, or if the queue is full and every pending
    /// request is at least as hot (a full queue evicts its coldest
    /// request to admit a strictly hotter newcomer).
    pub fn request(
        &self,
        mailbox: &Arc<Mailbox>,
        method: MethodId,
        hotness: u64,
        epoch: u64,
        profiles: ProfileStore,
    ) -> bool {
        let metrics = &self.shared.metrics;
        let mut q = self.lock_queue();
        if q.inflight.contains(&(mailbox.id, method)) {
            if let Some(m) = metrics.on() {
                m.compile.dedup_rejected.inc();
            }
            return false;
        }
        if q.heap.len() >= self.capacity {
            if q.evict_coldest_below(hotness) {
                if let Some(m) = metrics.on() {
                    m.compile.queue_evicted.inc();
                }
            } else {
                if let Some(m) = metrics.on() {
                    m.compile.queue_rejected.inc();
                }
                return false;
            }
        }
        q.inflight.insert((mailbox.id, method));
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(Request {
            hotness,
            seq,
            epoch,
            method,
            mailbox: Arc::clone(mailbox),
            profiles,
            enqueued_at: Instant::now(),
        });
        if let Some(m) = metrics.on() {
            m.compile.enqueued.inc();
            m.compile.queue_depth.set(q.heap.len() as i64);
        }
        drop(q);
        self.shared.work.notify_one();
        true
    }

    /// Collects `mailbox`'s finished compilations without blocking.
    /// Drained `(mailbox, method)` pairs leave the dedup set and may be
    /// requested again (the VM does so after evictions). The empty case
    /// is one atomic load.
    pub fn take(&self, mailbox: &Mailbox) -> Vec<CompileOutcome> {
        if !mailbox.has_ready() {
            return Vec::new();
        }
        let out = std::mem::take(&mut *mailbox.outcomes.lock().expect("mailbox poisoned"));
        mailbox.ready.fetch_sub(out.len(), AtomicOrdering::Release);
        let mut q = self.lock_queue();
        for o in &out {
            q.inflight.remove(&(mailbox.id, o.method));
        }
        out
    }

    /// Number of requests in flight (queued, compiling, or awaiting
    /// drain), across every mailbox.
    pub fn inflight(&self) -> usize {
        self.lock_queue().inflight.len()
    }

    /// Blocks until the queue is empty and no worker is mid-compile.
    /// Finished outcomes may still be waiting in [`take`](Self::take).
    pub fn wait_idle(&self) {
        let mut q = self.lock_queue();
        while !(q.heap.is_empty() && q.active == 0) {
            q = self.shared.idle.wait(q).expect("compile queue poisoned");
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.shared.queue.lock().expect("compile queue poisoned")
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.lock_queue().shutdown = true;
        self.shared.work.notify_all();
        let mut workers = self.workers.lock().expect("worker handles poisoned");
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (request, flush_seq) = {
            let mut q = shared.queue.lock().expect("compile queue poisoned");
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(r) = q.heap.pop() {
                    q.active += 1;
                    // Flush order is fixed here, under the queue lock, so
                    // each mailbox's merged trace stream is
                    // pop-deterministic however the workers themselves
                    // get scheduled.
                    let flush_seq = r.mailbox.flush_seq.fetch_add(1, AtomicOrdering::Relaxed);
                    if let Some(m) = shared.metrics.on() {
                        m.compile.queue_depth.set(q.heap.len() as i64);
                    }
                    break (r, flush_seq);
                }
                q = shared.work.wait(q).expect("compile queue poisoned");
            }
        };
        let result = run_one(shared, &request, flush_seq);
        let mailbox = Arc::clone(&request.mailbox);
        mailbox
            .outcomes
            .lock()
            .expect("mailbox poisoned")
            .push(CompileOutcome {
                method: request.method,
                epoch: request.epoch,
                result,
                enqueued_at: request.enqueued_at,
            });
        mailbox.ready.fetch_add(1, AtomicOrdering::Release);
        let mut q = shared.queue.lock().expect("compile queue poisoned");
        q.active -= 1;
        if q.heap.is_empty() && q.active == 0 {
            shared.idle.notify_all();
        }
    }
}

fn run_one(shared: &Shared, request: &Request, flush_seq: u64) -> Result<CompiledMethod, Bailout> {
    let merge = &request.mailbox.merge;
    if merge.is_none() && !shared.metrics.is_enabled() {
        return compile(
            &shared.program,
            request.method,
            Some(&request.profiles),
            &shared.options,
        );
    }
    // Buffer locally, flush as one block: compilations stay parallel and
    // each method's event run stays contiguous. The metrics fold reads
    // the same buffer.
    let mut buffer = MemorySink::new();
    let result = compile_traced(
        &shared.program,
        request.method,
        Some(&request.profiles),
        &shared.options,
        &mut buffer,
    );
    if let Some(m) = shared.metrics.on() {
        crate::record_compile_metrics(m, &buffer.events, result.as_ref());
    }
    if let Some(merge) = merge {
        merge.flush(flush_seq, buffer.events);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> Queue {
        Queue {
            heap: BinaryHeap::new(),
            inflight: HashSet::new(),
            seq: 0,
            active: 0,
            shutdown: false,
        }
    }

    fn mailbox() -> Arc<Mailbox> {
        Arc::new(Mailbox {
            id: 0,
            merge: None,
            flush_seq: AtomicU64::new(0),
            ready: AtomicUsize::new(0),
            outcomes: Mutex::new(Vec::new()),
        })
    }

    fn push(q: &mut Queue, mailbox: &Arc<Mailbox>, method: u32, hotness: u64) {
        let method = MethodId::from_index(method as usize);
        assert!(
            q.inflight.insert((mailbox.id, method)),
            "test enqueued {method:?} twice"
        );
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(Request {
            hotness,
            seq,
            epoch: 0,
            method,
            mailbox: Arc::clone(mailbox),
            profiles: ProfileStore::new(),
            enqueued_at: Instant::now(),
        });
    }

    fn queued_methods(q: &Queue) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = q
            .heap
            .iter()
            .map(|r| (r.method.index() as u32, r.hotness))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn evicts_the_coldest_for_a_strictly_hotter_newcomer() {
        let mut q = queue();
        let mb = mailbox();
        push(&mut q, &mb, 0, 50);
        push(&mut q, &mb, 1, 80);
        push(&mut q, &mb, 2, 120);
        assert!(q.evict_coldest_below(60));
        assert_eq!(queued_methods(&q), vec![(1, 80), (2, 120)]);
        // The victim left the dedup set: it may be re-requested later.
        assert!(!q.inflight.contains(&(mb.id, MethodId::from_index(0))));
        assert!(q.inflight.contains(&(mb.id, MethodId::from_index(1))));
    }

    #[test]
    fn equal_hotness_keeps_the_incumbent() {
        // Strictly-hotter only: otherwise two equally hot methods would
        // displace each other forever without either compiling.
        let mut q = queue();
        let mb = mailbox();
        push(&mut q, &mb, 0, 50);
        push(&mut q, &mb, 1, 80);
        assert!(!q.evict_coldest_below(50));
        assert_eq!(queued_methods(&q), vec![(0, 50), (1, 80)]);
        assert!(q.inflight.contains(&(mb.id, MethodId::from_index(0))));
    }

    #[test]
    fn among_equally_cold_requests_the_newest_is_evicted() {
        let mut q = queue();
        let mb = mailbox();
        push(&mut q, &mb, 0, 50); // older request at the coldest hotness
        push(&mut q, &mb, 1, 50); // newer request at the coldest hotness
        assert!(q.evict_coldest_below(99));
        // FIFO among ties: the earlier request keeps its slot.
        assert_eq!(queued_methods(&q), vec![(0, 50)]);
    }

    #[test]
    fn capacity_one_queue_still_upgrades() {
        let mut q = queue();
        let mb = mailbox();
        push(&mut q, &mb, 0, 10);
        assert!(!q.evict_coldest_below(10), "not strictly hotter");
        assert!(q.evict_coldest_below(11));
        assert!(q.heap.is_empty());
        assert!(q.inflight.is_empty());
    }

    #[test]
    fn duplicate_requests_are_rejected_per_mailbox() {
        let program =
            pea_bytecode::asm::parse_program("method f 1 returns { load 0 const 1 add retv }")
                .unwrap();
        let service = CompileService::start_bounded(
            Arc::new(program),
            CompilerOptions::default(),
            &CompileServiceOptions {
                workers: Some(1),
                metrics: MetricsHub::disabled(),
            },
            4,
        );
        let a = service.register_mailbox(None);
        let b = service.register_mailbox(None);
        let m = MethodId::from_index(0);
        assert!(service.request(&a, m, 5, 0, ProfileStore::new()));
        // In flight (queued or compiling): dedup rejects, even hotter.
        assert!(!service.request(&a, m, 100, 0, ProfileStore::new()));
        // A different mutator's request for the same method is distinct.
        assert!(service.request(&b, m, 5, 0, ProfileStore::new()));
        service.wait_idle();
        assert_eq!(service.take(&a).len(), 1);
        assert_eq!(service.take(&b).len(), 1);
        assert!(!a.has_ready() && !b.has_ready());
        // Drained: the pair may be requested again.
        assert!(service.request(&a, m, 5, 0, ProfileStore::new()));
        service.wait_idle();
        assert_eq!(service.take(&a).len(), 1);
    }
}
