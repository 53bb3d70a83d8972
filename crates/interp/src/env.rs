//! The execution environment the interpreter runs against.

use crate::Activation;
use pea_bytecode::{MethodId, Program};
use pea_metrics::profile::ProfileRecorder;
use pea_metrics::MetricsHub;
use pea_runtime::profile::ProfileStore;
use pea_runtime::{Heap, Statics, Value, VmError, MAX_CALL_DEPTH};
use std::sync::Arc;

/// Values a fresh host's value stack has room for before it first grows:
/// far deeper than any call chain the bundled programs build.
pub const VALUE_STACK_RESERVE: usize = 1 << 12;

/// What the host made of a call the interpreter put to it.
#[derive(Clone, Copy, Debug)]
pub enum Callee {
    /// The interpreter runs the callee itself, in the caller's loop: its
    /// arguments stay where they are as its first locals, and the host has
    /// counted one more activation, until [`InterpEnv::leave`].
    Interpret,
    /// The host ran the callee in its own tier; this is what it returned.
    /// Its arguments are gone from the value stack.
    Returned(Option<Value>),
}

/// Services the interpreter needs from its host.
///
/// The tiered VM implements this to decide each call's tier in
/// [`InterpEnv::enter`] by its compilation policy; tests use
/// [`SimpleEnv`], which always interprets. The interpreter is generic over
/// the host, so each host gets its own monomorphic dispatch loop.
pub trait InterpEnv {
    /// The managed heap.
    fn heap(&mut self) -> &mut Heap;
    /// Static variable storage.
    fn statics(&mut self) -> &mut Statics;
    /// Profile sink; the interpreter records branches, receivers and
    /// invocations here.
    fn profiles(&mut self) -> &mut ProfileStore;
    /// The value stack every interpreted frame of this host lives on: a
    /// frame is a window of locals followed by its operands, and a call's
    /// arguments, pushed by the caller, become the callee's first locals.
    /// Reused across calls, so calls allocate nothing while it has room.
    fn value_stack(&mut self) -> &mut Vec<Value>;
    /// Charges virtual cycles.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfFuel`] once the host's budget is exhausted.
    fn charge(&mut self, cycles: u64) -> Result<(), VmError>;
    /// Whether [`InterpEnv::charge`] enforces a fuel budget. When it does,
    /// every instruction charges its dispatch and its operation apart, so
    /// `OutOfFuel` leaves exactly the cycles it always has; otherwise a
    /// run of the loop adds its charges up, makes one charge when it ends
    /// and runs the fused dispatch stream.
    fn has_fuel_limit(&self) -> bool;
    /// The activation stack: the interpreted callers suspended while the
    /// loop runs their callees, beside the value stack their windows live
    /// on. Reused across calls, so calls allocate nothing while it has
    /// room.
    fn activations(&mut self) -> &mut Vec<Activation>;
    /// Decides the tier of a (resolved) call whose `argc` arguments are the
    /// top of [`InterpEnv::value_stack`]: either admits an interpreted
    /// activation, which counts toward [`MAX_CALL_DEPTH`] until the
    /// matching [`InterpEnv::leave`], or runs the callee itself and
    /// returns its result. The host's method-entry safepoint goes here.
    /// The interpreter's loop inlines this, so a host keeps the common
    /// answers in line and the rest out of it.
    ///
    /// # Errors
    ///
    /// [`VmError::StackOverflow`] past [`MAX_CALL_DEPTH`] activations, or
    /// whatever a callee the host ran raises. Either way the interpreter
    /// discards the caller's window.
    fn enter(
        &mut self,
        program: &Program,
        method: MethodId,
        argc: usize,
    ) -> Result<Callee, VmError>;
    /// Releases an activation [`InterpEnv::enter`] admitted, whether it
    /// returned, threw or was abandoned on an error.
    fn leave(&mut self);
    /// Safepoint poll, called at loop back-edges (method entry is
    /// [`InterpEnv::enter`]'s). The tiered VM uses this to install
    /// methods finished by background compiler threads without waiting
    /// for the current (possibly long-running) interpreted loop to exit.
    /// Each mutator thread implements its own `InterpEnv`, so a poll
    /// touches only that mutator's mailbox.
    fn safepoint(&mut self) {}
    /// The host's metrics handle; the interpreter counts steps, back-edges
    /// and safepoint polls through it. Defaults to the disabled hub, which
    /// records nothing.
    fn metrics(&self) -> &MetricsHub {
        MetricsHub::disabled_ref()
    }
    /// The host's cycle-attribution profiler; the interpreter resolves a
    /// per-frame handle from it at method entry and feeds per-bci and
    /// per-opcode hot-spot buckets plus allocation counts. Defaults to the
    /// disabled recorder, which records nothing.
    fn profiler(&self) -> &ProfileRecorder {
        ProfileRecorder::disabled_ref()
    }
}

/// Checks an entry call's argument count against `method`'s parameters,
/// before any frame is built.
///
/// # Errors
///
/// [`VmError::ArityMismatch`] naming the method and both counts.
pub fn check_arity(program: &Program, method: MethodId, args: &[Value]) -> Result<(), VmError> {
    let m = program.method(method);
    if args.len() == m.param_count as usize {
        return Ok(());
    }
    Err(VmError::ArityMismatch {
        method: m.qualified_name(program),
        expected: m.param_count as usize,
        found: args.len(),
    })
}

/// A minimal interpret-everything environment for tests and examples: owns
/// the heap and statics and interprets every call in the caller's loop, up
/// to [`MAX_CALL_DEPTH`] activations.
#[derive(Debug)]
pub struct SimpleEnv {
    program: Arc<Program>,
    /// The managed heap (public for inspection in tests).
    pub heap: Heap,
    /// Static variable storage.
    pub statics: Statics,
    /// Gathered profiles.
    pub profiles: ProfileStore,
    /// Optional cycle budget; `None` means unlimited.
    pub fuel: Option<u64>,
    /// Metrics handle (disabled by default).
    pub metrics: MetricsHub,
    spent: u64,
    stack: Vec<Value>,
    activations: Vec<Activation>,
    /// Activations running, the entry call included.
    depth: usize,
}

impl SimpleEnv {
    /// Creates an environment for `program` with unlimited fuel.
    pub fn new(program: Program) -> Self {
        let statics = Statics::new(&program.statics);
        SimpleEnv {
            program: Arc::new(program),
            heap: Heap::new(),
            statics,
            profiles: ProfileStore::new(),
            fuel: None,
            metrics: MetricsHub::disabled(),
            spent: 0,
            stack: Vec::with_capacity(VALUE_STACK_RESERVE),
            activations: Vec::with_capacity(MAX_CALL_DEPTH),
            depth: 0,
        }
    }

    /// Creates an environment with a cycle budget.
    pub fn with_fuel(program: Program, fuel: u64) -> Self {
        let mut env = Self::new(program);
        env.fuel = Some(fuel);
        env
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Cycles charged so far.
    pub fn cycles_spent(&self) -> u64 {
        self.spent
    }

    /// Runs a static method by name.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchMethod`] if the name does not resolve,
    /// [`VmError::ArityMismatch`] for the wrong number of arguments,
    /// [`VmError::StackOverflow`] past [`MAX_CALL_DEPTH`] activations,
    /// otherwise whatever execution raises.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, VmError> {
        let method = self
            .program
            .static_method_by_name(name)
            .ok_or_else(|| VmError::NoSuchMethod(name.to_string()))?;
        check_arity(&self.program, method, args)?;
        let program = Arc::clone(&self.program);
        self.depth += 1;
        let result = crate::interpret(&program, self, method, args);
        self.depth -= 1;
        result
    }
}

impl InterpEnv for SimpleEnv {
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
        self.spent += cycles;
        self.heap.stats.cycles += cycles;
        match self.fuel {
            Some(limit) if self.spent > limit => Err(VmError::OutOfFuel),
            _ => Ok(()),
        }
    }

    fn has_fuel_limit(&self) -> bool {
        self.fuel.is_some()
    }

    fn activations(&mut self) -> &mut Vec<Activation> {
        &mut self.activations
    }

    fn enter(&mut self, _: &Program, _: MethodId, _: usize) -> Result<Callee, VmError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(VmError::StackOverflow);
        }
        self.depth += 1;
        Ok(Callee::Interpret)
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }
}
