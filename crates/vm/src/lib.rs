//! The tiered virtual machine: profiling interpreter → JIT compilation →
//! compiled execution → deoptimization back to the interpreter.
//!
//! This mirrors the HotSpot+Graal execution model of the paper's §2
//! (Figure 1): methods start in the interpreter, which gathers invocation
//! counts, branch profiles and receiver types; hot methods are compiled
//! (speculatively, guided by those profiles); compiled code that violates
//! a speculation **deoptimizes** — the VM rebuilds interpreter frames from
//! the compiled frame state (rematerializing scalar-replaced objects,
//! §5.5) and resumes interpretation. Methods that deoptimize repeatedly
//! are evicted, re-profiled and recompiled.
//!
//! # Threading model
//!
//! One VM hosts **N mutator threads**. The state split is:
//!
//! * [`VmShared`] — everything program-wide and thread-safe: the program,
//!   the background [`CompileService`] (started lazily, shared by every
//!   mutator) and the metrics/profiler hubs.
//! * [`Mutator`] — everything per-thread and lock-free on the hot path:
//!   the heap (a private bump arena whose heap-metrics counts fold into
//!   the shared hub on flush), statics, profiles, the interpreter's value
//!   stack, the **pinned** code table (a plain `Vec` indexed by method —
//!   compiled-call dispatch performs no lock acquisition and no shared
//!   access), the cycle-attribution recorder, and the trace tee.
//!
//! [`Vm`] owns the shared state plus a main mutator and dereferences to
//! it, so single-threaded use is unchanged. [`Vm::spawn_mutator`] /
//! [`Vm::run_threads`] run additional mutators; each compiles (or bails
//! out on) what it promotes, exactly as a solo VM does, and so behaves
//! like one over its own workload (same results, same virtual cycles,
//! same PEA decision traces), which the cross-thread determinism tests
//! assert byte-for-byte. A warm fork ([`Vm::spawn_warm_mutator`]) shares
//! the main mutator's compiled artifacts themselves: it clones the `Arc`s
//! of its pinned table.
//!
//! ```
//! use pea_vm::{Vm, VmOptions, OptLevel};
//! use pea_bytecode::asm::parse_program;
//! use pea_runtime::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program("method f 1 returns { load 0 const 1 add retv }")?;
//! let mut vm = Vm::new(program, VmOptions::with_opt_level(OptLevel::Pea));
//! assert_eq!(vm.call_entry("f", &[Value::Int(41)])?, Some(Value::Int(42)));
//! # Ok(())
//! # }
//! ```

pub mod compile_service;

pub use compile_service::{
    default_workers, CompileOutcome, CompileService, CompileServiceOptions, Mailbox,
};
use pea_bytecode::{MethodId, Program};
pub use pea_compiler::OptLevel;
use pea_compiler::{
    compile, compile_traced, evaluate, ArgBuffer, Bailout, Call, CompiledMethod, CompilerOptions,
    EvalEnv, EvalOutcome, RegisterStack,
};
use pea_interp::{
    check_arity, interpret, resume, unwind, Activation, Callee, InterpEnv, VALUE_STACK_RESERVE,
};
pub use pea_metrics::profile::{ProfileRecorder, ProfilerHub, Tier};
pub use pea_metrics::MetricsHub;
use pea_metrics::{HeapRecorder, MetricsSnapshot, VmMetrics};
use pea_runtime::profile::ProfileStore;
use pea_runtime::{Heap, ObjRef, Statics, Stats, Value, VmError, MAX_CALL_DEPTH};
pub use pea_trace::SharedSink;
use pea_trace::{FlightEntry, FlightRecorder, MemorySink, TraceEvent, TraceSink};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// How JIT compilation is scheduled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JitMode {
    /// Compile synchronously at the call site that crosses the threshold
    /// (the default: virtual-cycle measurements and decision traces stay
    /// deterministic).
    #[default]
    Sync,
    /// Hand hot methods to the background [`CompileService`]; the
    /// interpreter keeps running and finished code is installed at the
    /// next safepoint (method entry or interpreter loop back-edge).
    Background,
}

impl std::str::FromStr for JitMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sync" => Ok(JitMode::Sync),
            "background" => Ok(JitMode::Background),
            other => Err(format!("unknown jit mode `{other}` (sync|background)")),
        }
    }
}

/// Which executor runs compiled methods.
///
/// The product executes only lowered code ([`Linear`](Self::Linear)); a
/// method that cannot be lowered is a compile bailout and stays
/// interpreted. [`Graph`](Self::Graph) is *the oracle*: the graph-walking
/// evaluator (`pea_compiler::eval`) runs the same artifact with the same
/// cycle cost model, traces and deopt behavior, and exists so the tests
/// can check the linear tier against an executable reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Dense register-machine dispatch over the lowered artifact.
    #[default]
    Linear,
    /// Graph-walking evaluation of the scheduled IR (the oracle).
    Graph,
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "linear" => Ok(ExecMode::Linear),
            "graph" => Ok(ExecMode::Graph),
            other => Err(format!("unknown exec mode `{other}` (linear|graph)")),
        }
    }
}

/// VM configuration.
#[derive(Clone, Debug)]
pub struct VmOptions {
    /// Invocations before a method is JIT-compiled.
    pub compile_threshold: u64,
    /// Compiler configuration (escape-analysis level, inlining,
    /// speculation, PEA ablations).
    pub compiler: CompilerOptions,
    /// Optional total cycle budget.
    pub fuel: Option<u64>,
    /// Master switch for JIT compilation (off = pure interpreter).
    pub jit: bool,
    /// Synchronous or background compilation.
    pub jit_mode: JitMode,
    /// Which executor runs compiled methods (see [`ExecMode`]).
    pub exec_mode: ExecMode,
    /// Background compile worker threads; `None` picks
    /// [`default_workers`] (hardware threads minus one).
    pub compile_workers: Option<usize>,
    /// Optional event log: compiles (with every PEA decision), deopts
    /// (with rematerialization inventories), evictions and recompiles all
    /// flow into this sink. `None` (the default) is zero-cost. The sink is
    /// **per mutator**: spawned mutators start without one and attach
    /// their own via [`Mutator::set_trace`], so event streams never
    /// interleave across threads.
    pub trace: Option<SharedSink>,
    /// Metrics handle shared by every layer (interpreter, tiering,
    /// compile service, PEA, heap). The default disabled hub records
    /// nothing at the cost of one branch per site. With several mutators
    /// the hub aggregates: totals are the sum over threads (every mutator
    /// buffers its heap counters and folds them in on flush).
    pub metrics: MetricsHub,
    /// Cycle-attribution profiler handle. The default disabled hub records
    /// nothing at the cost of at most one branch per charge site; when
    /// enabled, every charged cycle and every heap allocation is
    /// attributed to the `(method, tier)` executing it, with per-bci and
    /// per-opcode hot-spot buckets for interpreted code. Each mutator
    /// carries its own recorder context, so concurrent threads never
    /// cross-charge; same-named cells merge in the hub, making totals the
    /// sum over threads.
    pub profiler: ProfilerHub,
    /// Flight-recorder dump path. When set, the VM tees every trace event
    /// into a bounded in-memory ring (alongside `trace`, which may stay
    /// `None`) and writes the ring to this path as `FLIGHT.json` when a
    /// run ends in a [`VmError`] or a panic — the last
    /// compiles/installs/deopts/evictions with sequence numbers and
    /// timestamps, for post-mortem analysis.
    pub flight: Option<PathBuf>,
}

impl VmOptions {
    /// Defaults with the given escape-analysis level.
    pub fn with_opt_level(level: OptLevel) -> Self {
        VmOptions {
            compile_threshold: 50,
            compiler: CompilerOptions::with_opt_level(level),
            fuel: None,
            jit: true,
            jit_mode: JitMode::Sync,
            exec_mode: ExecMode::Linear,
            compile_workers: None,
            trace: None,
            metrics: MetricsHub::disabled(),
            profiler: ProfilerHub::disabled(),
            flight: None,
        }
    }

    /// A pure-interpreter configuration.
    pub fn interpreter_only() -> Self {
        VmOptions {
            jit: false,
            ..Self::with_opt_level(OptLevel::None)
        }
    }
}

impl Default for VmOptions {
    fn default() -> Self {
        Self::with_opt_level(OptLevel::Pea)
    }
}

/// The state one VM shares across all of its mutator threads. Everything
/// here is thread-safe; per-thread state lives on [`Mutator`].
pub struct VmShared {
    program: Arc<Program>,
    /// Template options for spawned mutators: the user's options with the
    /// per-mutator sinks (`trace`, `flight`) stripped.
    options: VmOptions,
    /// Background compilation pool, started lazily on the first request
    /// from any mutator.
    service: OnceLock<CompileService>,
    /// `(qualified name, code length)` per method, precomputed once for
    /// constructing per-mutator profiler recorders.
    profile_names: Vec<(String, usize)>,
}

impl VmShared {
    /// The executed program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Constructs a mutator against this shared state. Its heap buffers
    /// heap metrics and folds them into the hub on flush, so concurrent
    /// threads do not contend on the shared atomics.
    fn new_mutator(self: &Arc<VmShared>, mut options: VmOptions) -> Mutator {
        let statics = Statics::new(&self.program.statics);
        let mut heap = Heap::new();
        // The graph oracle keeps values in host frames no root scan sees.
        if options.exec_mode == ExecMode::Linear {
            heap.enable_collection();
        }
        // Safepoints test the heap's flag alone; background installs, and
        // under `gc-stress` the collections, are due at every one.
        if options.jit_mode == JitMode::Background || cfg!(feature = "gc-stress") {
            heap.poll_always();
        }
        if options.metrics.is_enabled() {
            let classes = self.program.classes.iter().map(|c| c.name.as_str());
            heap.set_metrics(HeapRecorder::new(&options.metrics, classes));
        }
        let profile = ProfileRecorder::new(
            &options.profiler,
            self.profile_names.iter().map(|(n, l)| (n.as_str(), *l)),
        );
        let flight = options.flight.as_ref().map(|_| {
            let ring = Arc::new(Mutex::new(FlightRecorder::new()));
            let tee = FlightTee {
                user: options.trace.take(),
                flight: Arc::clone(&ring),
            };
            options.trace = Some(SharedSink::new(tee).0);
            ring
        });
        let methods = self.program.methods.len();
        Mutator {
            shared: Arc::clone(self),
            heap,
            statics,
            profiles: ProfileStore::new(),
            stack: Vec::with_capacity(VALUE_STACK_RESERVE),
            activations: Vec::with_capacity(MAX_CALL_DEPTH),
            registers: RegisterStack::default(),
            returned: Value::Null,
            pinned: vec![None; methods],
            bailed_out: vec![false; methods],
            deopt_counts: vec![0; methods],
            evicted: vec![false; methods],
            evict_epochs: vec![0; methods],
            mailbox: None,
            profile,
            flight,
            options,
            depth: 0,
            snapshot_polls: 0,
            snapshot_seq: 0,
            last_snapshot: MetricsSnapshot::default(),
        }
    }
}

/// Deoptimizations of one compiled method tolerated before it is
/// evicted and re-profiled.
const MAX_DEOPTS: u64 = 8;

/// Installing safepoints between two metrics snapshot trace events.
const METRICS_SNAPSHOT_EVERY: u64 = 64;

/// One mutator thread's execution state: interpreter state, heap,
/// profiles, pinned code cache, profiler context and trace tee. Obtained
/// from [`Vm::spawn_mutator`] (or implicitly as the [`Vm`]'s main
/// mutator); safe to move to another thread.
pub struct Mutator {
    shared: Arc<VmShared>,
    heap: Heap,
    statics: Statics,
    profiles: ProfileStore,
    /// The value stack every interpreted frame of this mutator lives on.
    stack: Vec<Value>,
    /// The interpreted callers suspended while the interpreter's loop runs
    /// their callees.
    activations: Vec<Activation>,
    /// The windows of every compiled activation of this mutator, and the
    /// compiled callers suspended while the linear tier's loop runs their
    /// callees.
    registers: RegisterStack,
    /// What the last [`Mutator::call_entry`] returned (null after an
    /// error or a void call): a root, so that a harness may pass it into
    /// the next call.
    returned: Value,
    // Per-method tiering state, indexed by `MethodId`.
    /// The dispatch hot path: compiled methods this mutator installed.
    /// Thread-private — a compiled call performs no lock acquisition and
    /// no shared-memory access beyond its own table.
    pinned: Vec<Option<Arc<CompiledMethod>>>,
    bailed_out: Vec<bool>,
    deopt_counts: Vec<u64>,
    /// Methods evicted at least once (a later compile is a recompile).
    evicted: Vec<bool>,
    /// Per-method eviction epoch; background outcomes compiled before the
    /// mutator's latest eviction are discarded (their speculation is the
    /// one that kept deoptimizing).
    evict_epochs: Vec<u64>,
    /// This mutator's registration with the shared compile service,
    /// created lazily with the first background request.
    mailbox: Option<Arc<Mailbox>>,
    /// Cycle-attribution recorder (disabled by default: one branch per
    /// charge site, zero allocations). Per-mutator context — concurrent
    /// threads never cross-charge; cells merge in the shared hub.
    profile: ProfileRecorder,
    /// Flight-recorder ring, present when [`VmOptions::flight`] is set.
    /// Every trace event is teed into it via the sink chain.
    flight: Option<Arc<Mutex<FlightRecorder>>>,
    options: VmOptions,
    /// Re-entrancy depth (interpreter/compiled frames currently active).
    depth: usize,
    /// Installing safepoints seen since the last metrics snapshot event.
    snapshot_polls: u64,
    /// Sequence number of the next metrics snapshot event.
    snapshot_seq: u64,
    /// Baseline for metrics snapshot deltas.
    last_snapshot: MetricsSnapshot,
}

/// The virtual machine: the shared state plus its main mutator.
/// Dereferences to [`Mutator`], so single-threaded call sites are
/// unchanged.
pub struct Vm {
    shared: Arc<VmShared>,
    main: Mutator,
}

impl std::ops::Deref for Vm {
    type Target = Mutator;

    fn deref(&self) -> &Mutator {
        &self.main
    }
}

impl std::ops::DerefMut for Vm {
    fn deref_mut(&mut self) -> &mut Mutator {
        &mut self.main
    }
}

impl Vm {
    /// Creates a VM for `program`.
    pub fn new(program: Program, options: VmOptions) -> Vm {
        let program = Arc::new(program);
        let profile_names: Vec<(String, usize)> = (0..program.methods.len())
            .map(|i| {
                let m = program.method(MethodId::from_index(i));
                (m.qualified_name(&program), m.code.len())
            })
            .collect();
        let template = VmOptions {
            trace: None,
            flight: None,
            ..options.clone()
        };
        let shared = Arc::new(VmShared {
            program,
            options: template,
            service: OnceLock::new(),
            profile_names,
        });
        let main = shared.new_mutator(options);
        Vm { shared, main }
    }

    /// The shared half of the VM (read access for tests and harnesses).
    pub fn shared(&self) -> &Arc<VmShared> {
        &self.shared
    }

    /// Spawns a fresh mutator on this VM: its own heap, statics, profiles
    /// and pinned code, sharing the program, the compile service and the
    /// metrics/profiler hubs. It compiles what it promotes itself. Move it
    /// to another thread and call into it exactly like a solo VM.
    pub fn spawn_mutator(&self) -> Mutator {
        self.shared.new_mutator(self.shared.options.clone())
    }

    /// Spawns a mutator pre-warmed from the main mutator's **tiering
    /// state**: profiles, bailout and eviction records are cloned and the
    /// pinned table's `Arc`s are shared, so the new thread starts at the
    /// main mutator's tier, running the very same artifacts, without
    /// re-profiling or recompiling. Application state (heap, statics) starts
    /// fresh — warm spawning shares code, not data.
    pub fn spawn_warm_mutator(&self) -> Mutator {
        self.main.fork()
    }

    /// Runs `f(thread_index, &mut mutator)` on `n` freshly spawned
    /// mutators, one OS thread of [`MUTATOR_STACK_SIZE`] each, and returns
    /// the results in thread order. Panics propagate; a thread the OS
    /// refuses to spawn is the error, once the threads already started
    /// have run to completion.
    pub fn run_threads<T, F>(&self, n: usize, f: F) -> std::io::Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &mut Mutator) -> T + Sync,
    {
        let mutators = (0..n).map(|_| self.spawn_mutator()).collect();
        run_mutators(mutators, f)
    }

    /// [`run_threads`](Self::run_threads) over pre-warmed mutators (see
    /// [`spawn_warm_mutator`](Self::spawn_warm_mutator)).
    pub fn run_threads_warm<T, F>(&self, n: usize, f: F) -> std::io::Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &mut Mutator) -> T + Sync,
    {
        let mutators = (0..n).map(|_| self.spawn_warm_mutator()).collect();
        run_mutators(mutators, f)
    }
}

/// Stack size of a thread that runs a mutator: room for
/// [`MAX_CALL_DEPTH`] levels at 64 KiB each, plus 8 MiB for the thread's
/// own caller and a synchronous compile at the deepest level. A call
/// within a tier takes no host stack: an interpreted callee of interpreted
/// code runs in its caller's loop, and a compiled callee of compiled code
/// in the linear tier's. Only a switch of tier takes a level — compiled
/// code entered from the interpreter, the interpreter entered from
/// compiled code (a call or a deopt) — and so does every call of the
/// graph oracle. An unoptimized x86-64 build measured up to 39 KiB per
/// graph-oracle level, so a deep recursion that keeps switching reaches
/// [`VmError::StackOverflow`] instead of overflowing the host stack.
/// [`Vm::run_threads`] spawns its threads with it; a host that runs a
/// [`Vm`] on a thread of its own should give that thread as much.
pub const MUTATOR_STACK_SIZE: usize = MAX_CALL_DEPTH * (64 << 10) + (8 << 20);

/// Runs each mutator on its own scoped thread of [`MUTATOR_STACK_SIZE`]
/// and collects results in thread order; a panicking thread re-raises on
/// the caller, and a thread that cannot be spawned is the error.
///
/// Every thread waits at a gate until all have been spawned, so a spawn
/// error is reported before any mutator has run (and allocated): the gate
/// then opens with "cancel" and the spawned threads return at once.
fn run_mutators<T, F>(mutators: Vec<Mutator>, f: F) -> std::io::Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, &mut Mutator) -> T + Sync,
{
    let f = &f;
    // `None` holds the threads; `Some(run)` releases them.
    let gate = &(Mutex::new(None::<bool>), Condvar::new());
    let wait = move || {
        let (lock, opened) = gate;
        let mut run = lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match *run {
                Some(run) => return run,
                None => run = opened.wait(run).unwrap_or_else(PoisonError::into_inner),
            }
        }
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(mutators.len());
        let mut refused = None;
        for (i, mut m) in mutators.into_iter().enumerate() {
            let spawned = std::thread::Builder::new()
                .stack_size(MUTATOR_STACK_SIZE)
                .spawn_scoped(scope, move || wait().then(|| f(i, &mut m)));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        let (lock, opened) = gate;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = Some(refused.is_none());
        opened.notify_all();
        let results: Vec<Option<T>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        match refused {
            Some(e) => Err(e),
            None => Ok(results.into_iter().flatten().collect()),
        }
    })
}

impl Mutator {
    /// Spawns a mutator pre-warmed from this one's tiering state (see
    /// [`Vm::spawn_warm_mutator`]).
    pub fn fork(&self) -> Mutator {
        let mut m = self.shared.new_mutator(self.shared.options.clone());
        m.profiles = self.profiles.clone();
        m.pinned = self.pinned.clone();
        m.bailed_out = self.bailed_out.clone();
        m.deopt_counts = self.deopt_counts.clone();
        m.evicted = self.evicted.clone();
        m.evict_epochs = self.evict_epochs.clone();
        m
    }

    /// Attaches (or replaces) this mutator's event-log sink after
    /// construction.
    ///
    /// In background mode, attach the sink before the first method turns
    /// hot: the compile service captures the sink when the mutator's
    /// mailbox registers. When the flight recorder is active, the new sink
    /// is teed through it so the ring keeps seeing every event.
    pub fn set_trace(&mut self, sink: SharedSink) {
        self.options.trace = Some(match &self.flight {
            Some(ring) => {
                let tee = FlightTee {
                    user: Some(sink),
                    flight: Arc::clone(ring),
                };
                SharedSink::new(tee).0
            }
            None => sink,
        });
    }

    /// The flight-recorder ring contents in sequence order, when the
    /// recorder is active.
    pub fn flight_entries(&self) -> Option<Vec<FlightEntry>> {
        self.flight.as_ref().map(|ring| match ring.lock() {
            Ok(f) => f.entries(),
            Err(poisoned) => poisoned.into_inner().entries(),
        })
    }

    /// The flight ring serialized as `pea-flight/1` JSON, when active.
    pub fn flight_json(&self) -> Option<String> {
        self.flight.as_ref().map(|ring| match ring.lock() {
            Ok(f) => f.dump_json(),
            Err(poisoned) => poisoned.into_inner().dump_json(),
        })
    }

    /// Writes the flight ring to the configured dump path. Called on
    /// [`VmError`] and panics; best-effort (a failed write must not mask
    /// the original failure).
    fn dump_flight(&self) {
        let (Some(json), Some(path)) = (self.flight_json(), &self.options.flight) else {
            return;
        };
        let _ = std::fs::write(path, json);
    }

    /// The executed program.
    pub fn program(&self) -> &Program {
        &self.shared.program
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> Stats {
        self.heap.stats
    }

    /// The managed heap (read access for tests and harnesses).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Gathered profiles (read access).
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// Replaces the profile store with an imported one (see
    /// [`ProfileStore::import_json`]): methods that were hot in a previous
    /// run cross the compile threshold immediately.
    pub fn import_profiles(&mut self, profiles: ProfileStore) {
        self.profiles = profiles;
    }

    /// The VM's metrics handle.
    pub fn metrics(&self) -> &MetricsHub {
        &self.options.metrics
    }

    /// Static variable storage (read access for tests and harnesses).
    pub fn statics_ref(&self) -> &Statics {
        &self.statics
    }

    /// Number of methods currently JIT-compiled (pinned by this mutator).
    pub fn compiled_method_count(&self) -> usize {
        self.pinned.iter().filter(|code| code.is_some()).count()
    }

    /// The compiled form of `method`, if this mutator has it pinned.
    pub fn compiled(&self, method: MethodId) -> Option<&CompiledMethod> {
        self.pinned.get(method.index())?.as_deref()
    }

    /// Methods currently pinned (for artifact comparisons).
    pub fn compiled_methods(&self) -> Vec<MethodId> {
        (0..self.pinned.len())
            .filter(|&m| self.pinned[m].is_some())
            .map(MethodId::from_index)
            .collect()
    }

    /// Resets static variables to defaults (heap contents and statistics
    /// are preserved; benchmarks use deltas).
    pub fn reset_statics(&mut self) {
        self.statics.reset(&self.shared.program.statics);
    }

    /// Calls a static method by name.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchMethod`] for unknown names,
    /// [`VmError::ArityMismatch`] for the wrong number of arguments (before
    /// any frame is built); otherwise whatever the program raises.
    pub fn call_entry(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, VmError> {
        let program = Arc::clone(&self.shared.program);
        let method = program
            .static_method_by_name(name)
            .ok_or_else(|| VmError::NoSuchMethod(name.to_string()))?;
        check_arity(&program, method, args)?;
        let result = match self.call_with(&program, method, args) {
            // An exception escaped every frame: report it structurally
            // (class name + int fields) — raw heap ids differ between
            // tiers when scalar replacement elides allocations.
            Err(VmError::Thrown(obj)) => Err(self.uncaught(obj)),
            result => result,
        };
        if result.is_err() {
            self.dump_flight();
        }
        self.returned = match &result {
            Ok(Some(v)) => *v,
            _ => Value::Null,
        };
        result
    }

    /// Converts an in-flight exception object that escaped the entry call
    /// into its structural [`VmError::UncaughtException`] identity.
    fn uncaught(&self, obj: ObjRef) -> VmError {
        let heap = &self.heap;
        match heap
            .class_of(obj)
            .and_then(|c| Ok((c, heap.slots_of(obj)?)))
        {
            Ok((class, slots)) => VmError::UncaughtException {
                class: self.shared.program.class(class).name.clone(),
                fields: slots
                    .iter()
                    .filter_map(|v| match v {
                        Value::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect(),
            },
            Err(VmError::TypeMismatch { .. }) => VmError::Internal("thrown array".into()),
            Err(e) => e,
        }
    }

    /// Calls a method through the tiering policy, with arguments the
    /// caller holds in a slice: the entry call and compiled code's
    /// out-of-line calls.
    fn call_with(
        &mut self,
        program: &Program,
        method: MethodId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        self.depth += 1;
        // Outermost call: establish a base attribution context so cycles
        // charged before a tier takes over (call overhead, unwinding) are
        // never dropped — profiler totals must reconcile exactly with
        // `stats.cycles`.
        let base = if self.depth == 1 {
            Some(self.profile.enter(method.index(), Tier::Interp))
        } else {
            None
        };
        let result = self.call_inner(program, method, args);
        if let Some(prev) = base {
            self.profile.restore(prev);
            self.heap.flush_metrics();
        }
        self.depth -= 1;
        result
    }

    fn call_inner(
        &mut self,
        program: &Program,
        method: MethodId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        if self.depth > MAX_CALL_DEPTH {
            return Err(VmError::StackOverflow);
        }
        match self.tier(program, method) {
            Some(code) => self.run_compiled(program, &code, args),
            None => interpret(program, self, method, args),
        }
    }

    /// The one tier decision of a call: the compiled code to run `method`
    /// with, or `None` to interpret it.
    #[inline(always)]
    fn tier(&mut self, program: &Program, method: MethodId) -> Option<Arc<CompiledMethod>> {
        self.poll_entry(program, method, None);
        // A call that switches tier pays the `Arc` clone (~10 ns): it keeps
        // the artifact alive while it runs, since a recursive activation
        // may evict or replace this entry, and holding a borrow of
        // `self.pinned` across the `&mut self` run would take `unsafe`.
        // The linear tier's own calls hold artifacts in its code table.
        self.pinned[method.index()].clone()
    }

    /// The method-entry half of a call's tier decision: the safepoint
    /// (background installs, a due collection, with `registers` the
    /// linear tier's register stack when the host does not hold it), and
    /// [`Mutator::promote`] for a method past the compile threshold.
    /// Afterwards `pinned` holds the code to run the method with, if any —
    /// a thread-private table: no locks, no shared loads.
    #[inline(always)]
    fn poll_entry(
        &mut self,
        program: &Program,
        method: MethodId,
        registers: Option<&RegisterStack>,
    ) {
        // Method-entry safepoint: install anything the background
        // compilers finished since the last poll, and collect if due.
        if self.heap.safepoint_due() {
            self.poll_safepoint(registers);
        }
        let m = method.index();
        if self.pinned[m].is_none()
            && self.options.jit
            && !self.bailed_out[m]
            && self.profiles.invocation_count(method) >= self.options.compile_threshold
        {
            self.promote(program, method);
        }
    }

    /// A method that crossed the compile threshold: compiles and installs
    /// it (sync), or requests its compilation and keeps interpreting
    /// (background).
    #[inline(never)]
    fn promote(&mut self, program: &Program, method: MethodId) {
        match self.options.jit_mode {
            JitMode::Sync => {
                self.note_recompile(method);
                let (result, events) = compile_for_vm(
                    program,
                    method,
                    &self.profiles,
                    &self.options.compiler,
                    &self.options.metrics,
                    self.options.trace.is_some(),
                );
                if let Some(sink) = &self.options.trace {
                    sink.with_sink(|s| {
                        for event in &events {
                            s.emit(event);
                        }
                    });
                }
                self.install(method, result);
            }
            JitMode::Background => {
                // Snapshot the profiles and keep interpreting; the
                // artifact is installed at a later safepoint.
                self.request_background(method);
            }
        }
    }

    /// Runs compiled code, as one more activation, on the `argc`
    /// arguments an interpreted caller left on the value stack: they are
    /// copied out (into a register-sized buffer when they fit) and popped
    /// first.
    #[inline(never)]
    fn run_compiled_with(
        &mut self,
        program: &Program,
        code: Arc<CompiledMethod>,
        argc: usize,
    ) -> Result<Option<Value>, VmError> {
        let base = self.stack.len() - argc;
        let args = ArgBuffer::copy(&self.stack[base..]);
        self.stack.truncate(base);
        self.depth += 1;
        let result = self.run_compiled(program, &code, &args);
        self.depth -= 1;
        result
    }

    /// Pins a finished compilation on this mutator and accounts for it
    /// (`stats.compiles`, the profiler's install count, `vm.installs`), or
    /// marks a method that bailed out as interpreted for good — the one
    /// install step of sync compiles and background outcomes.
    fn install(&mut self, method: MethodId, result: Result<CompiledMethod, Bailout>) {
        match result {
            Ok(code) => {
                self.heap.stats.compiles += 1;
                self.profile.record_install();
                if let Some(m) = self.options.metrics.on() {
                    m.vm.installs.inc();
                }
                self.pinned[method.index()] = Some(Arc::new(code));
            }
            Err(_) => self.bailed_out[method.index()] = true,
        }
    }

    /// Counts and traces the recompilation of a method evicted before:
    /// called before a sync compile and after an accepted background
    /// request.
    fn note_recompile(&self, method: MethodId) {
        if !self.evicted[method.index()] {
            return;
        }
        if let Some(m) = self.options.metrics.on() {
            m.vm.recompiles.inc();
        }
        if let Some(sink) = &self.options.trace {
            let program = &self.shared.program;
            sink.emit_event(&TraceEvent::Recompile {
                method: program.method(method).qualified_name(program),
            });
        }
    }

    /// Enqueues a background compilation of `method` (deduplicated per
    /// mailbox by the service). The profile snapshot makes the artifact a
    /// deterministic function of the request: later interpreter profiling
    /// cannot leak into an in-flight compilation. The service is shared by
    /// every mutator and started by whichever requests first.
    fn request_background(&mut self, method: MethodId) {
        let shared = Arc::clone(&self.shared);
        let service = shared.service.get_or_init(|| {
            CompileService::start(
                Arc::clone(&shared.program),
                shared.options.compiler.clone(),
                &CompileServiceOptions {
                    workers: shared.options.compile_workers,
                    metrics: shared.options.metrics.clone(),
                },
            )
        });
        if self.mailbox.is_none() {
            self.mailbox = Some(service.register_mailbox(self.options.trace.clone()));
        }
        let mailbox = Arc::clone(self.mailbox.as_ref().expect("mailbox just registered"));
        let hotness = self.profiles.invocation_count(method);
        let epoch = self.evict_epochs[method.index()];
        let snapshot = self.profiles.clone();
        if service.request(&mailbox, method, hotness, epoch, snapshot) {
            self.note_recompile(method);
        }
    }

    /// Installs finished background compilations (a safepoint action:
    /// called at method entry and interpreter loop back-edges). Only this
    /// mutator's mailbox is drained — its tiering schedule stays a
    /// function of its own execution.
    fn drain_background(&mut self) {
        let shared = Arc::clone(&self.shared);
        let Some(service) = shared.service.get() else {
            return;
        };
        let Some(mailbox) = self.mailbox.clone() else {
            return;
        };
        for outcome in service.take(&mailbox) {
            if outcome.epoch != self.evict_epochs[outcome.method.index()] {
                // Compiled before the method's latest eviction: the
                // speculation that kept deoptimizing. Drop it; the fresh
                // profile will trigger a new request.
                if let Some(m) = self.options.metrics.on() {
                    m.compile.stale_dropped.inc();
                }
                continue;
            }
            if let (Ok(_), Some(m)) = (&outcome.result, self.options.metrics.on()) {
                m.compile
                    .queue_latency_us
                    .record(outcome.enqueued_at.elapsed().as_micros() as u64);
            }
            self.install(outcome.method, outcome.result);
        }
        self.maybe_emit_metrics_snapshot();
    }

    /// Emits a [`TraceEvent::MetricsSnapshot`] delta into the trace sink
    /// every [`METRICS_SNAPSHOT_EVERY`] installing safepoints (background
    /// mode only — that is the only caller of [`Self::drain_background`])
    /// when both `metrics` and `trace` are attached.
    fn maybe_emit_metrics_snapshot(&mut self) {
        if !self.options.metrics.is_enabled() || self.options.trace.is_none() {
            return;
        }
        self.snapshot_polls += 1;
        if self.snapshot_polls < METRICS_SNAPSHOT_EVERY {
            return;
        }
        self.snapshot_polls = 0;
        self.emit_metrics_snapshot();
    }

    /// Unconditionally emits one metrics snapshot delta (skipping empty
    /// deltas), advancing the snapshot baseline. This mutator's heap
    /// counts are flushed first, so the delta includes them.
    fn emit_metrics_snapshot(&mut self) {
        self.heap.flush_metrics();
        let (Some(snapshot), Some(sink)) = (self.options.metrics.snapshot(), &self.options.trace)
        else {
            return;
        };
        let counters = snapshot.delta(&self.last_snapshot).delta_lines();
        if counters.is_empty() {
            return;
        }
        sink.emit_event(&TraceEvent::MetricsSnapshot {
            seq: self.snapshot_seq,
            counters,
        });
        self.snapshot_seq += 1;
        self.last_snapshot = snapshot;
    }

    /// Blocks until every requested background compilation has finished,
    /// then installs this mutator's artifacts. Returns the number of
    /// methods now pinned. No-op in sync mode.
    pub fn await_background_compiles(&mut self) -> usize {
        let shared = Arc::clone(&self.shared);
        if let Some(service) = shared.service.get() {
            service.wait_idle();
            self.drain_background();
            // Close the metrics stream with a final delta so the event log
            // accounts for everything up to the settle point.
            self.emit_metrics_snapshot();
        }
        self.compiled_method_count()
    }

    fn run_compiled(
        &mut self,
        program: &Program,
        code: &CompiledMethod,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        let prev_ctx = self.enter_compiled(code);
        let outcome = match self.options.exec_mode {
            ExecMode::Linear => pea_compiler::linear::execute(program, self, code, args),
            ExecMode::Graph => evaluate(program, self, code, args),
        };
        match outcome {
            Ok(EvalOutcome::Return(v)) => {
                self.profile.restore(prev_ctx);
                Ok(v)
            }
            outcome => self.finish_compiled(program, code, outcome, prev_ctx),
        }
    }

    /// Counts an activation of compiled `code` and enters its attribution
    /// context, returning the context to restore when it ends.
    #[inline(always)]
    fn enter_compiled(&self, code: &CompiledMethod) -> u64 {
        let tier = match self.options.exec_mode {
            ExecMode::Linear => Tier::Linear,
            ExecMode::Graph => Tier::Graph,
        };
        self.profile.record_invocation(code.method.index(), tier);
        let prev_ctx = self.profile.enter(code.method.index(), tier);
        if let Some(m) = self.options.metrics.on() {
            m.vm.invocations_compiled.inc();
        }
        prev_ctx
    }

    /// Ends a compiled activation of `code` with `outcome` and restores
    /// the attribution context `prev_ctx`: a return is its value, an error
    /// passes through, and a deopt or an exception unwinding through it
    /// is counted, traced, may evict the method, and continues in the
    /// interpreter. The one exit of every compiled activation but the
    /// linear tier's plain returns from its in-loop callees.
    fn finish_compiled(
        &mut self,
        program: &Program,
        code: &CompiledMethod,
        outcome: Result<EvalOutcome, VmError>,
        prev_ctx: u64,
    ) -> Result<Option<Value>, VmError> {
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.profile.restore(prev_ctx);
                return Err(e);
            }
        };
        // A deopt carries its `reason`; an unwind, the exception an
        // out-of-line callee threw into this compiled frame.
        let (reason, frames, rematerialized, exception) = match outcome {
            EvalOutcome::Return(v) => {
                self.profile.restore(prev_ctx);
                return Ok(v);
            }
            EvalOutcome::Deopt {
                reason,
                frames,
                rematerialized,
            } => (Some(reason), frames, rematerialized, None),
            EvalOutcome::Unwind {
                exception,
                frames,
                rematerialized,
            } => (None, frames, rematerialized, Some(exception)),
        };
        // Frames are rebuilt and objects rematerialized alike for both;
        // the count is attributed to the compiled (method, tier) whose
        // context is still entered here.
        let method = code.method;
        self.heap.stats.deopts += 1;
        self.profile.record_deopt();
        if let Some(m) = self.options.metrics.on() {
            m.vm.deopts.inc();
            m.vm.rematerialized_objects.add(rematerialized.len() as u64);
        }
        if let Some(sink) = &self.options.trace {
            // The innermost frame names the site actually executing when
            // the guard failed or the exception crossed the compiled
            // boundary (it differs from the compiled root under inlining).
            let (site, bci) = frames
                .innermost()
                .map_or((method, 0), |f| (f.method, f.bci));
            let site = program.method(site).qualified_name(program);
            if let Some(reason) = reason {
                // DeoptTaken first: the narrow guard-failure marker, then
                // the generic deopt record with the inventory.
                sink.emit_event(&TraceEvent::DeoptTaken {
                    method: program.method(method).qualified_name(program),
                    site: site.clone(),
                    bci,
                    reason: reason.to_string(),
                });
            }
            sink.emit_event(&TraceEvent::Deopt {
                method: program.method(method).qualified_name(program),
                site,
                bci,
                reason: reason.map_or_else(|| "exception-unwind".to_string(), |r| r.to_string()),
                rematerialized: rematerialized.iter().map(|s| s.label(program)).collect(),
            });
        }
        // An unwind is an exception transfer, not a misspeculation: it
        // does not count toward eviction — the compiled code would deopt
        // there for every throw, and exception-heavy but
        // correctly-speculated methods must stay compiled.
        let m = method.index();
        if reason.is_some() {
            self.deopt_counts[m] += 1;
        }
        let deopts = self.deopt_counts[m];
        if deopts >= MAX_DEOPTS {
            // Evict and re-profile: the speculation no longer matches
            // reality. Only this mutator's table changes: a warm fork
            // sharing the artifact keeps its `Arc` until it evicts on its
            // own.
            self.pinned[m] = None;
            self.bailed_out[m] = false;
            self.profiles.clear_method(method);
            self.deopt_counts[m] = 0;
            self.evicted[m] = true;
            // Invalidate in-flight background compilations of this
            // method: they speculate from the profile that just failed.
            self.evict_epochs[m] += 1;
            if let Some(m) = self.options.metrics.on() {
                m.vm.evictions.inc();
            }
            if let Some(sink) = &self.options.trace {
                sink.emit_event(&TraceEvent::Evict {
                    method: program.method(method).qualified_name(program),
                    deopts,
                });
            }
        }
        self.profile.restore(prev_ctx);
        match exception {
            Some(exc) => unwind(program, self, &frames, exc),
            None => resume(program, self, &frames),
        }
    }

    /// A method-entry or interpreter safepoint whose heap flag is set:
    /// [`Self::safepoint_work`], then the collection if one is due.
    #[inline(never)]
    fn poll_safepoint(&mut self, registers: Option<&RegisterStack>) {
        if self.safepoint_work() {
            self.collect(registers);
        }
    }

    /// What every safepoint whose heap flag is set does first: installs
    /// finished background compilations. Returns whether a collection is
    /// due, which the caller makes with the roots it holds.
    #[inline(never)]
    fn safepoint_work(&mut self) -> bool {
        if self.options.jit_mode == JitMode::Background {
            self.drain_background();
        }
        self.collection_due()
    }

    /// Whether this safepoint collects: when the heap says a collection
    /// is due, and under the `gc-stress` feature at every safepoint of a
    /// collecting mutator.
    #[inline(always)]
    fn collection_due(&self) -> bool {
        if cfg!(feature = "gc-stress") {
            self.heap.collects()
        } else {
            self.heap.collection_due()
        }
    }

    /// Collects the heap at a safepoint. The roots are the interpreter's
    /// value stack, every register of the linear tier's register stack
    /// (`registers`, or the one the mutator holds), the statics, the held
    /// monitors (the heap's own) and the last value
    /// [`Mutator::call_entry`] returned. Every reference the mutator holds
    /// at a safepoint is in one of them: the tiers keep none in host
    /// frames across one. Nothing is charged.
    #[cold]
    #[inline(never)]
    fn collect(&mut self, registers: Option<&RegisterStack>) {
        let registers = registers.unwrap_or(&self.registers);
        self.heap.collect(&[
            &self.stack,
            registers.values(),
            self.statics.values(),
            std::slice::from_ref(&self.returned),
        ]);
    }

    fn charge_cycles(&mut self, cycles: u64) -> Result<(), VmError> {
        self.profile.charge(cycles);
        self.heap.stats.cycles += cycles;
        match self.options.fuel {
            Some(limit) if self.heap.stats.cycles > limit => Err(VmError::OutOfFuel),
            _ => Ok(()),
        }
    }
}

impl Drop for Mutator {
    fn drop(&mut self) {
        // Fold any buffered heap counters and — when a panic anywhere above
        // the VM (compiler invariant, test assertion) unwinds through this
        // drop — persist the flight ring so the post-mortem has the last
        // events leading up to it.
        self.heap.flush_metrics();
        if std::thread::panicking() {
            self.dump_flight();
        }
    }
}

/// Tees every trace event into the flight ring alongside the user's sink
/// (which may be absent: the flight recorder works without an event log
/// attached).
struct FlightTee {
    user: Option<SharedSink>,
    flight: Arc<Mutex<FlightRecorder>>,
}

impl TraceSink for FlightTee {
    fn emit(&mut self, event: &TraceEvent) {
        if let Some(user) = &self.user {
            user.emit_event(event);
        }
        if let Ok(mut ring) = self.flight.lock() {
            ring.emit(event);
        }
    }
}

/// Compiles `method` for the VM from `profiles`: the one compile driver of
/// sync promotion and the background workers. The compilation traces into
/// a buffer only when `traced` (a trace sink waits for its events) or the
/// metrics hub folds them; the caller delivers the returned events.
pub(crate) fn compile_for_vm(
    program: &Program,
    method: MethodId,
    profiles: &ProfileStore,
    options: &CompilerOptions,
    metrics: &MetricsHub,
    traced: bool,
) -> (Result<CompiledMethod, Bailout>, Vec<TraceEvent>) {
    if !traced && !metrics.is_enabled() {
        return (
            compile(program, method, Some(profiles), options),
            Vec::new(),
        );
    }
    let mut buffer = MemorySink::new();
    let result = compile_traced(program, method, Some(profiles), options, &mut buffer);
    if let Some(m) = metrics.on() {
        record_compile_metrics(m, &buffer.events, result.as_ref());
    }
    (result, buffer.events)
}

/// Folds one compilation's buffered decision events (plus its result) into
/// the metrics registry. This is the same stream the trace
/// [`pea_trace::SiteAggregator`] consumes, so the `pea.*` totals and the
/// per-site trace aggregation cross-check exactly — which the test suite
/// asserts on every corpus program.
fn record_compile_metrics(
    m: &VmMetrics,
    events: &[TraceEvent],
    result: Result<&CompiledMethod, &Bailout>,
) {
    for event in events {
        match event {
            TraceEvent::CompileStart { .. } => m.compile.started.inc(),
            TraceEvent::CompileEnd { phases, .. } => {
                m.compile.build_us.record(phases.build);
                m.compile.canonicalize_us.record(phases.canonicalize);
                m.compile.escape_analysis_us.record(phases.escape_analysis);
                m.compile.schedule_us.record(phases.schedule);
                m.compile.lower_us.record(phases.lower);
                m.compile.total_us.record(phases.total());
            }
            TraceEvent::Virtualized { .. } => m.pea.virtualized.inc(),
            TraceEvent::Materialized { .. } => m.pea.materialized.inc(),
            TraceEvent::LockElided { .. } => m.pea.locks_elided.inc(),
            TraceEvent::LoadElided { .. } => m.pea.loads_elided.inc(),
            TraceEvent::StoreElided { .. } => m.pea.stores_elided.inc(),
            TraceEvent::CheckFolded { .. } => m.pea.checks_folded.inc(),
            TraceEvent::PhiCreated { .. } => m.pea.phis_created.inc(),
            TraceEvent::LoopRound { .. } => m.pea.loop_rounds.inc(),
            TraceEvent::InlineDecision { inlined, .. } => {
                if *inlined {
                    m.compile.inline_accepted.inc();
                } else {
                    m.compile.inline_rejected.inc();
                }
            }
            TraceEvent::DevirtGuard { .. } => m.compile.devirt_guards.inc(),
            // VM-side events are counted at their emission sites.
            TraceEvent::Deopt { .. }
            | TraceEvent::DeoptTaken { .. }
            | TraceEvent::Evict { .. }
            | TraceEvent::Recompile { .. }
            | TraceEvent::MetricsSnapshot { .. } => {}
        }
    }
    match result {
        Ok(_) => m.compile.succeeded.inc(),
        Err(_) => m.compile.bailouts.inc(),
    }
}

impl InterpEnv for Mutator {
    fn heap(&mut self) -> &mut Heap {
        &mut self.heap
    }
    fn statics(&mut self) -> &mut Statics {
        &mut self.statics
    }
    fn profiles(&mut self) -> &mut ProfileStore {
        &mut self.profiles
    }
    fn value_stack(&mut self) -> &mut Vec<Value> {
        &mut self.stack
    }
    fn charge(&mut self, cycles: u64) -> Result<(), VmError> {
        self.charge_cycles(cycles)
    }
    fn has_fuel_limit(&self) -> bool {
        self.options.fuel.is_some()
    }
    fn activations(&mut self) -> &mut Vec<Activation> {
        &mut self.activations
    }
    // Inlined into the loop, so admitting an interpreted callee is a few
    // loads and compares; running compiled code is a call.
    #[inline(always)]
    fn enter(
        &mut self,
        program: &Program,
        method: MethodId,
        argc: usize,
    ) -> Result<Callee, VmError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(VmError::StackOverflow);
        }
        match self.tier(program, method) {
            None => {
                self.depth += 1;
                Ok(Callee::Interpret)
            }
            Some(code) => self
                .run_compiled_with(program, code, argc)
                .map(Callee::Returned),
        }
    }
    fn leave(&mut self) {
        self.depth -= 1;
    }
    fn safepoint(&mut self) {
        // Loop back-edge: install finished background compilations so a
        // long-running interpreted loop still picks up compiled callees,
        // and collect if due.
        if self.heap.safepoint_due() {
            self.poll_safepoint(None);
        }
    }
    fn metrics(&self) -> &MetricsHub {
        &self.options.metrics
    }
    fn profiler(&self) -> &ProfileRecorder {
        &self.profile
    }
}

impl EvalEnv for Mutator {
    fn heap(&mut self) -> &mut Heap {
        &mut self.heap
    }
    fn statics(&mut self) -> &mut Statics {
        &mut self.statics
    }
    fn charge(&mut self, cycles: u64) -> Result<(), VmError> {
        self.charge_cycles(cycles)
    }
    fn invoke(
        &mut self,
        program: &Program,
        method: MethodId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        self.call_with(program, method, args)
    }
    // The decisions of `call_with` and `run_compiled`, in their order,
    // inlined into the linear tier's loop: a compiled callee stays
    // counted in `depth` until `leave`.
    #[inline(always)]
    fn call(
        &mut self,
        program: &Program,
        method: MethodId,
        argc: usize,
        stack: &mut RegisterStack,
    ) -> Result<Call<'_>, VmError> {
        self.depth += 1;
        if self.depth > MAX_CALL_DEPTH {
            self.depth -= 1;
            return Err(VmError::StackOverflow);
        }
        self.poll_entry(program, method, Some(stack));
        if self.pinned[method.index()].is_none() {
            let args = ArgBuffer::copy(stack.args(argc));
            std::mem::swap(&mut self.registers, stack);
            let result = interpret(program, self, method, &args);
            std::mem::swap(&mut self.registers, stack);
            self.depth -= 1;
            return result.map(Call::Returned);
        }
        let Some(code) = &self.pinned[method.index()] else {
            unreachable!("installed code was just found")
        };
        Ok(Call::Compiled(code, self.enter_compiled(code)))
    }
    // Out of the loop: only what is not a plain return comes here.
    #[inline(never)]
    fn finish(
        &mut self,
        program: &Program,
        code: &CompiledMethod,
        outcome: Result<EvalOutcome, VmError>,
        ctx: u64,
    ) -> Result<Option<Value>, VmError> {
        self.finish_compiled(program, code, outcome, ctx)
    }
    fn leave(&mut self) {
        self.depth -= 1;
    }
    fn register_stack(&mut self) -> Option<&mut RegisterStack> {
        Some(&mut self.registers)
    }
    fn has_fuel_limit(&self) -> bool {
        self.options.fuel.is_some()
    }
    fn safepoint(&mut self) -> bool {
        if let Some(m) = self.options.metrics.on() {
            m.vm.safepoint_polls.inc();
        }
        // Compiled-loop back-edge: install anything the background
        // compilers finished, so compiled-only phases (hot caller with
        // inlined or compiled callees) cannot starve installs, and ask for
        // the register stack if a collection is due. In sync mode with no
        // collection due the poll is only counted.
        self.heap.safepoint_due() && self.safepoint_work()
    }
    fn collect(&mut self, stack: &RegisterStack) {
        Mutator::collect(self, Some(stack));
    }
    fn profiler(&self) -> &ProfileRecorder {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn vm(src: &str, options: VmOptions) -> Vm {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        Vm::new(program, options)
    }

    #[test]
    fn interprets_then_compiles() {
        let mut v = vm(
            "method f 1 returns { load 0 const 1 add retv }",
            VmOptions::with_opt_level(OptLevel::Pea),
        );
        for i in 0..100 {
            let r = v.call_entry("f", &[Value::Int(i)]).unwrap();
            assert_eq!(r, Some(Value::Int(i + 1)));
        }
        assert_eq!(v.compiled_method_count(), 1);
        assert_eq!(v.stats().compiles, 1);
    }

    #[test]
    fn interpreter_only_never_compiles() {
        let mut v = vm(
            "method f 0 returns { const 7 retv }",
            VmOptions::interpreter_only(),
        );
        for _ in 0..200 {
            v.call_entry("f", &[]).unwrap();
        }
        assert_eq!(v.compiled_method_count(), 0);
    }

    #[test]
    fn deopt_resumes_in_interpreter_with_correct_result() {
        // Branch taken only after warmup: the compiled code speculates it
        // never happens and must deopt, producing the same result the
        // interpreter would.
        let src = "
            class Box { field v int }
            static g ref
            method f 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 0 const 100 ifcmp gt Lrare
                load 1 getfield Box.v const 1 add retv
            Lrare:
                load 1 putstatic g
                load 1 getfield Box.v const 1000 add retv
            }";
        let mut v = vm(src, VmOptions::with_opt_level(OptLevel::Pea));
        for i in 0..80 {
            assert_eq!(
                v.call_entry("f", &[Value::Int(i)]).unwrap(),
                Some(Value::Int(i + 1))
            );
        }
        assert_eq!(v.compiled_method_count(), 1);
        let before = v.stats();
        let r = v.call_entry("f", &[Value::Int(500)]).unwrap();
        assert_eq!(r, Some(Value::Int(1500)));
        let delta = v.stats().delta(&before);
        assert_eq!(delta.deopts, 1);
        assert_eq!(delta.rematerialized, 1);
        // The interpreter finished the rare path: the box escaped into g.
        let g = v.program().static_by_name("g").unwrap();
        assert!(matches!(v.statics_ref().get(g), Value::Ref(_)));
    }

    #[test]
    fn repeated_deopts_evict_and_recompile() {
        let src = "
            static g int
            method f 1 returns {
                load 0 const 0 ifcmp le Lneg
                const 1 retv
            Lneg:
                const -1 retv
            }";
        let mut v = vm(src, VmOptions::with_opt_level(OptLevel::Pea));
        // Warm up with positive args: speculation = never negative.
        for _ in 0..80 {
            v.call_entry("f", &[Value::Int(5)]).unwrap();
        }
        assert_eq!(v.compiled_method_count(), 1);
        // Hammer the cold branch until eviction.
        for _ in 0..20 {
            assert_eq!(
                v.call_entry("f", &[Value::Int(-3)]).unwrap(),
                Some(Value::Int(-1))
            );
        }
        // Evicted at MAX_DEOPTS, then re-profiled; it may have been
        // recompiled without the failing speculation afterwards.
        assert!(v.stats().deopts >= 8);
        // Re-warm: both branches now profiled, recompilation must not
        // speculate the branch away.
        for _ in 0..80 {
            v.call_entry("f", &[Value::Int(-3)]).unwrap();
            v.call_entry("f", &[Value::Int(3)]).unwrap();
        }
        let before = v.stats();
        v.call_entry("f", &[Value::Int(-3)]).unwrap();
        v.call_entry("f", &[Value::Int(3)]).unwrap();
        assert_eq!(
            v.stats().delta(&before).deopts,
            0,
            "stable after re-profile"
        );
    }

    #[test]
    fn fuel_limit_applies_across_tiers() {
        let mut v = vm(
            "method f 0 returns { Lx: goto Lx }",
            VmOptions {
                fuel: Some(100_000),
                ..VmOptions::default()
            },
        );
        assert_eq!(v.call_entry("f", &[]).unwrap_err(), VmError::OutOfFuel);
    }

    #[test]
    fn virtual_dispatch_through_tiers() {
        let src = "
            class A { }
            class B extends A { }
            method virtual A.tag 1 returns { const 1 retv }
            method virtual B.tag 1 returns { const 2 retv }
            method mk 1 returns {
                load 0 const 0 ifcmp eq La
                new B retv
            La:
                new A retv
            }
            method f 1 returns { load 0 invokestatic mk invokevirtual A.tag retv }";
        let mut v = vm(src, VmOptions::with_opt_level(OptLevel::Pea));
        for i in 0..200 {
            let r = v.call_entry("f", &[Value::Int(i % 2)]).unwrap();
            assert_eq!(r, Some(Value::Int(if i % 2 == 0 { 1 } else { 2 })));
        }
    }

    #[test]
    fn spawned_mutators_tier_independently_and_agree_with_solo() {
        let src = "method f 1 returns { load 0 const 1 add retv }";
        let v = vm(src, VmOptions::with_opt_level(OptLevel::Pea));
        let results = v
            .run_threads(2, |t, m| {
                let mut out = Vec::new();
                for i in 0..100 {
                    out.push(m.call_entry("f", &[Value::Int(i + t as i64)]).unwrap());
                }
                (out, m.compiled_method_count(), m.stats().compiles)
            })
            .expect("spawns the mutator threads");
        for (t, (out, pinned, compiles)) in results.iter().enumerate() {
            assert_eq!(out.len(), 100);
            assert_eq!(out[0], Some(Value::Int(1 + t as i64)));
            assert_eq!(*pinned, 1, "each thread tiers on its own");
            assert_eq!(*compiles, 1);
        }
    }

    #[test]
    fn cold_mutators_each_compile_their_own_artifact() {
        let src = "method f 1 returns { load 0 const 1 add retv }";
        let v = vm(src, VmOptions::with_opt_level(OptLevel::Pea));
        let f = v.program().static_method_by_name("f").unwrap();
        // Both mutators stay alive until both have read their artifact's
        // address, so equal addresses could only mean a shared artifact.
        let barrier = std::sync::Barrier::new(2);
        let runs = v
            .run_threads(2, |_, m| {
                for i in 0..100 {
                    m.call_entry("f", &[Value::Int(i)]).unwrap();
                }
                let code = m.compiled(f).map(|c| c as *const CompiledMethod as usize);
                barrier.wait();
                (code, m.stats().compiles)
            })
            .expect("spawns the mutator threads");
        let (a, b) = (
            runs[0].0.expect("thread 0 compiled f"),
            runs[1].0.expect("thread 1 compiled f"),
        );
        assert_ne!(a, b, "cold mutators must not share an artifact");
        assert_eq!(runs[0].1, runs[1].1);
        assert_eq!(runs[0].1, 1);
    }

    #[test]
    fn warm_fork_starts_compiled() {
        let src = "method f 1 returns { load 0 const 1 add retv }";
        let mut v = vm(src, VmOptions::with_opt_level(OptLevel::Pea));
        for i in 0..100 {
            v.call_entry("f", &[Value::Int(i)]).unwrap();
        }
        assert_eq!(v.compiled_method_count(), 1);
        let mut warm = v.spawn_warm_mutator();
        assert_eq!(warm.compiled_method_count(), 1, "pinned code carried over");
        let f = v.program().static_method_by_name("f").unwrap();
        assert!(
            std::ptr::eq(v.compiled(f).unwrap(), warm.compiled(f).unwrap()),
            "a warm fork shares the artifact itself"
        );
        assert_eq!(
            warm.call_entry("f", &[Value::Int(41)]).unwrap(),
            Some(Value::Int(42))
        );
        assert_eq!(warm.stats().compiles, 0, "no recompilation needed");
    }
}
