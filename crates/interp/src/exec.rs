//! The interpreter execution loop, including resume-after-deoptimization.

use crate::{Callee, InterpEnv};
use pea_bytecode::{Fused, Insn, MethodId, Program};
use pea_metrics::profile::Tier;
use pea_metrics::MetricsHub;
use pea_runtime::cost;
use pea_runtime::{FrameChain, FrameHeader, ObjRef, Value, VmError};

/// Display names for the profiler's per-opcode buckets, indexed by
/// [`opcode_slot`].
pub const OPCODE_NAMES: &[&str] = &[
    "const",
    "cnull",
    "load",
    "store",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "and",
    "or",
    "xor",
    "shl",
    "shr",
    "neg",
    "pop",
    "dup",
    "swap",
    "goto",
    "ifcmp",
    "ifnull",
    "ifnonnull",
    "ifrefeq",
    "ifrefne",
    "new",
    "getfield",
    "putfield",
    "getstatic",
    "putstatic",
    "newarray",
    "aload",
    "astore",
    "arraylen",
    "instanceof",
    "checkcast",
    "monitorenter",
    "monitorexit",
    "invokestatic",
    "invokevirtual",
    "ret",
    "retv",
    "throw",
    "athrow",
];

/// The profiler bucket slot for an instruction (dense, one per opcode
/// kind; see [`OPCODE_NAMES`]).
pub fn opcode_slot(insn: &Insn) -> usize {
    match insn {
        Insn::Const(_) => 0,
        Insn::ConstNull => 1,
        Insn::Load(_) => 2,
        Insn::Store(_) => 3,
        Insn::Add => 4,
        Insn::Sub => 5,
        Insn::Mul => 6,
        Insn::Div => 7,
        Insn::Rem => 8,
        Insn::And => 9,
        Insn::Or => 10,
        Insn::Xor => 11,
        Insn::Shl => 12,
        Insn::Shr => 13,
        Insn::Neg => 14,
        Insn::Pop => 15,
        Insn::Dup => 16,
        Insn::Swap => 17,
        Insn::Goto(_) => 18,
        Insn::IfCmp(..) => 19,
        Insn::IfNull(_) => 20,
        Insn::IfNonNull(_) => 21,
        Insn::IfRefEq(_) => 22,
        Insn::IfRefNe(_) => 23,
        Insn::New(_) => 24,
        Insn::GetField(_) => 25,
        Insn::PutField(_) => 26,
        Insn::GetStatic(_) => 27,
        Insn::PutStatic(_) => 28,
        Insn::NewArray(_) => 29,
        Insn::ArrayLoad => 30,
        Insn::ArrayStore => 31,
        Insn::ArrayLength => 32,
        Insn::InstanceOf(_) => 33,
        Insn::CheckCast(_) => 34,
        Insn::MonitorEnter => 35,
        Insn::MonitorExit => 36,
        Insn::InvokeStatic(_) => 37,
        Insn::InvokeVirtual(_) => 38,
        Insn::Return => 39,
        Insn::ReturnValue => 40,
        Insn::Throw => 41,
        Insn::Athrow => 42,
    }
}

/// The statically known cycle cost an instruction charges beyond
/// [`cost::INTERP_DISPATCH`]. Size-dependent charges (`new`, `newarray`)
/// and callee time (invokes charge inside the callee) report 0 here and
/// are attributed at their execution site instead.
fn static_op_cost(insn: &Insn) -> u64 {
    match insn {
        Insn::Goto(_)
        | Insn::IfCmp(..)
        | Insn::IfNull(_)
        | Insn::IfNonNull(_)
        | Insn::IfRefEq(_)
        | Insn::IfRefNe(_)
        | Insn::Athrow => cost::BRANCH_OP,
        Insn::GetField(_)
        | Insn::PutField(_)
        | Insn::GetStatic(_)
        | Insn::PutStatic(_)
        | Insn::ArrayLoad
        | Insn::ArrayStore
        | Insn::ArrayLength => cost::MEMORY_OP,
        Insn::MonitorEnter | Insn::MonitorExit => cost::MONITOR_OP,
        Insn::New(_)
        | Insn::NewArray(_)
        | Insn::InvokeStatic(_)
        | Insn::InvokeVirtual(_)
        | Insn::Return
        | Insn::ReturnValue
        | Insn::Throw => 0,
        _ => cost::ALU_OP,
    }
}

// What one plain instruction charges in the unobserved loop, by the class
// of its operation: a superinstruction adds these up for its constituents.
const ALU_STEP: u64 = cost::INTERP_DISPATCH + cost::ALU_OP;
const BRANCH_STEP: u64 = cost::INTERP_DISPATCH + cost::BRANCH_OP;
const MEMORY_STEP: u64 = cost::INTERP_DISPATCH + cost::MEMORY_OP;

/// One interpreted activation: a window on the host's value stack, locals
/// first, then operands.
///
/// The loop keeps the running activation to itself; the callers it runs on
/// behalf of wait on the host's activation stack
/// ([`InterpEnv::activations`]), each at the `bci` of its invoke. Hosts
/// only own the storage: the fields are the loop's business.
#[derive(Clone, Copy, Debug)]
pub struct Activation {
    method: MethodId,
    /// Next instruction to execute; a suspended caller's invoke.
    bci: u32,
    /// Stack index of local 0.
    locals: usize,
    /// Stack index of the operand stack's bottom, just past the locals.
    operands: usize,
    /// The receiver whose monitor this synchronized activation holds and
    /// releases when it returns (explicit `monitorenter` / `monitorexit`
    /// pairs are the bytecode's own business).
    locked: Option<ObjRef>,
    /// Whether the host admitted this activation through
    /// [`InterpEnv::enter`], so ending it releases the admission. The
    /// activations a run is handed (its entry call, the frames of a
    /// deoptimized chain) were not.
    admitted: bool,
}

/// The stretch of the host's activation stack one run of the loop owns.
#[derive(Clone, Copy)]
struct Chain {
    /// The activation stack's length when the run began: an activation
    /// that returns or unwinds at this length is the run's bottom one.
    floor: usize,
}

/// How a run of the loop begins.
#[derive(Clone, Copy)]
enum Start {
    /// A call of `method` whose arguments start at value-stack index
    /// `base`.
    Call { method: MethodId, base: usize },
    /// A handed-over activation, at its `bci`.
    Resume(Activation),
    /// A handed-over activation with an exception in flight at its `bci`.
    Unwind(Activation, ObjRef),
}

/// Interprets one method call to completion.
///
/// # Errors
///
/// Any [`VmError`] the method raises, including errors propagated out of
/// callees.
pub fn interpret<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    method: MethodId,
    args: &[Value],
) -> Result<Option<Value>, VmError> {
    let base = env.value_stack().len();
    env.value_stack().extend_from_slice(args);
    let chain = Chain {
        floor: env.activations().len(),
    };
    let result = run(program, env, Start::Call { method, base }, chain);
    env.value_stack().truncate(base);
    result
}

/// Resumes execution from a reconstructed frame chain after
/// deoptimization. `frames` is outermost-first; the innermost frame
/// resumes at its `bci`, and when it returns, each outer frame continues
/// *after* the `invoke` instruction at its own `bci`, consuming the return
/// value if the callee returns one.
///
/// # Errors
///
/// Any [`VmError`] the resumed execution raises, and
/// [`VmError::Internal`] for a chain that is empty, has an outer frame
/// that is not at an invoke or an innermost `bci` outside its method.
pub fn resume<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    frames: &FrameChain,
) -> Result<Option<Value>, VmError> {
    hand_over(program, env, frames, None)
}

/// Dispatches an in-flight exception over a reconstructed frame chain
/// (outermost-first), innermost frame first, *without* re-executing the
/// faulting instruction: each frame's `bci` is the athrow/invoke where the
/// exception arose. The first frame with a matching handler catches it and
/// execution continues as in [`resume`]; frames unwound past release their
/// held monitors.
///
/// # Errors
///
/// [`VmError::Thrown`] if no frame catches (an empty chain included), plus
/// any [`VmError`] the resumed execution raises and the
/// [`VmError::Internal`] errors of [`resume`].
pub fn unwind<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    frames: &FrameChain,
    exc: ObjRef,
) -> Result<Option<Value>, VmError> {
    if frames.innermost().is_none() {
        return Err(VmError::Thrown(exc));
    }
    hand_over(program, env, frames, Some(exc))
}

/// Runs a frame chain handed over by deoptimization or unwinding: one
/// activation per frame, outermost first, on fresh windows at the top of
/// the value stack.
fn hand_over<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    frames: &FrameChain,
    thrown: Option<ObjRef>,
) -> Result<Option<Value>, VmError> {
    let base = env.value_stack().len();
    let floor = env.activations().len();
    let result = match lay_out(program, env, frames) {
        Ok(act) => {
            let chain = Chain { floor };
            let start = match thrown {
                Some(exc) => Start::Unwind(act, exc),
                None => Start::Resume(act),
            };
            run(program, env, start, chain)
        }
        Err(e) => {
            env.activations().truncate(floor);
            Err(e)
        }
    };
    env.value_stack().truncate(base);
    result
}

/// Lays `frames` out on the value stack, suspends every frame but the
/// innermost on the activation stack, and returns the innermost.
fn lay_out<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    frames: &FrameChain,
) -> Result<Activation, VmError> {
    let frames = frames.iter();
    let mut outer = frames.len();
    for (frame, locals, operands) in frames {
        outer -= 1;
        let act = window(program, env, frame, locals, operands, outer > 0)?;
        if outer == 0 {
            return Ok(act);
        }
        env.activations().push(act);
    }
    Err(VmError::Internal("resume with an empty frame chain".into()))
}

/// One handed-over frame's window at the top of the value stack. A
/// `suspended` frame waits for its callee at an invoke.
fn window<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    frame: &FrameHeader,
    locals: &[Value],
    operands: &[Value],
    suspended: bool,
) -> Result<Activation, VmError> {
    let m = program.method(frame.method);
    let at = m.code.get(frame.bci as usize);
    let fault = match at {
        None => Some("outside its code"),
        Some(Insn::InvokeStatic(_) | Insn::InvokeVirtual(_)) => None,
        Some(_) if suspended => Some("not at an invoke"),
        Some(_) => None,
    };
    if let Some(fault) = fault {
        return Err(VmError::Internal(format!(
            "handed-over frame of {} at bci {} is {fault}",
            m.qualified_name(program),
            frame.bci
        )));
    }
    let stack = env.value_stack();
    let base = stack.len();
    stack.extend_from_slice(locals);
    stack.resize(base + locals.len().max(m.max_locals as usize), Value::Null);
    let operands_at = stack.len();
    stack.extend_from_slice(operands);
    Ok(Activation {
        method: frame.method,
        bci: frame.bci,
        locals: base,
        operands: operands_at,
        locked: frame.monitor,
        admitted: false,
    })
}

/// Runs the loop instance the host asks for, once per entry: when
/// something watches single instructions — a fuel limit, the metrics hub
/// or the profiler — the observed one, otherwise the unobserved one.
fn run<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    start: Start,
    chain: Chain,
) -> Result<Option<Value>, VmError> {
    let observed =
        env.has_fuel_limit() || env.metrics().is_enabled() || env.profiler().hub().is_enabled();
    if observed {
        run_chain::<E, true>(program, env, start, chain)
    } else {
        run_chain::<E, false>(program, env, start, chain)
    }
}

/// Runs `start` and everything it calls in the loop until the chain's
/// bottom activation returns or an error leaves it. The cycle-attribution
/// context follows the running activation — frames entered by deopt
/// resume and exception unwinding included, which never pass through the
/// host's call path — and is restored on exit; the unobserved loop's
/// batched charges are flushed then, by return or by error. On an error,
/// every activation still in the chain is dropped, and those the host
/// admitted are released.
fn run_chain<E: InterpEnv + ?Sized, const OBSERVED: bool>(
    program: &Program,
    env: &mut E,
    start: Start,
    chain: Chain,
) -> Result<Option<Value>, VmError> {
    let mut pending = 0;
    let mut act = match start {
        Start::Call { method, base } => {
            match open::<E, OBSERVED>(program, env, method, base, &mut pending) {
                Ok(act) => act,
                Err(e) => return flush::<E, OBSERVED>(env, pending, Err(e)),
            }
        }
        Start::Resume(act) | Start::Unwind(act, _) => act,
    };
    let prev_ctx = env.profiler().enter(act.method.index(), Tier::Interp);
    let caught = match start {
        Start::Unwind(_, exc) => match catch(program, env, &mut act, exc) {
            Err(VmError::Thrown(exc)) => unwind_callers(program, env, &mut act, chain, exc),
            caught => caught,
        }
        .map(|handler| act.bci = handler),
        _ => Ok(()),
    };
    let result =
        caught.and_then(|()| run_loop::<E, OBSERVED>(program, env, &mut act, chain, &mut pending));
    if result.is_err() {
        while let Some(caller) = end(env, chain, &act) {
            act = caller;
        }
    }
    let result = flush::<E, OBSERVED>(env, pending, result);
    env.profiler().restore(prev_ctx);
    result
}

/// The unobserved loop's one charge of its batched cycles. No fuel limit
/// is in force there (the observed loop charges as it goes), so the flush
/// cannot fail.
#[inline]
fn flush<E: InterpEnv + ?Sized, const OBSERVED: bool>(
    env: &mut E,
    pending: u64,
    result: Result<Option<Value>, VmError>,
) -> Result<Option<Value>, VmError> {
    if OBSERVED {
        result
    } else {
        env.charge(pending).and(result)
    }
}

/// Opens an activation of `method` whose arguments start at value-stack
/// index `base` — the call's charge and counts, the other locals' null
/// start (slot kinds are dynamic) and a synchronized method's monitor —
/// in the caller's attribution context.
#[inline(always)]
fn open<E: InterpEnv + ?Sized, const OBSERVED: bool>(
    program: &Program,
    env: &mut E,
    method: MethodId,
    base: usize,
    pending: &mut u64,
) -> Result<Activation, VmError> {
    let m = program.method(method);
    if OBSERVED {
        env.charge(cost::CALL_OVERHEAD)?;
        if let Some(m) = env.metrics().on() {
            m.interp.invocations.inc();
        }
        env.profiler()
            .record_invocation(method.index(), Tier::Interp);
    } else {
        *pending += cost::CALL_OVERHEAD;
    }
    env.profiles().record_invocation(method);
    let operands = base + m.max_locals as usize;
    env.value_stack().resize(operands, Value::Null);
    let mut act = Activation {
        method,
        bci: 0,
        locals: base,
        operands,
        locked: None,
        admitted: false,
    };
    if m.is_synchronized {
        let receiver = env.value_stack()[base].as_ref()?;
        env.heap().monitor_enter(receiver);
        if OBSERVED {
            env.charge(cost::MONITOR_OP)?;
        } else {
            *pending += cost::MONITOR_OP;
        }
        act.locked = Some(receiver);
    }
    Ok(act)
}

/// Ends the running activation `act`: releases the host's admission of
/// it, if the host made one, and pops its caller, unless it is the
/// chain's bottom activation.
#[inline(always)]
fn end<E: InterpEnv + ?Sized>(env: &mut E, chain: Chain, act: &Activation) -> Option<Activation> {
    if act.admitted {
        env.leave();
    }
    if env.activations().len() == chain.floor {
        return None;
    }
    env.activations().pop()
}

/// The handler `method` runs at `bci` for the exception `exc`, if any.
fn handler<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    method: MethodId,
    bci: u32,
    exc: ObjRef,
) -> Result<Option<u32>, VmError> {
    let class = env.heap().class_of(exc)?;
    Ok(program.find_handler(program.method(method), bci, class))
}

/// Either sets `act` up to enter the matching exception handler for `exc`
/// thrown at `act.bci` (operand stack cleared to just the exception,
/// handler bci returned), or — when the method's table has no match —
/// releases the activation's monitor and returns the exception as
/// [`VmError::Thrown`] so unwinding goes on in the caller.
fn catch<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    act: &mut Activation,
    exc: ObjRef,
) -> Result<u32, VmError> {
    match handler(program, env, act.method, act.bci, exc)? {
        Some(handler) => {
            let stack = env.value_stack();
            stack.truncate(act.operands);
            stack.push(Value::Ref(exc));
            Ok(handler)
        }
        None => {
            release_locked(env, act)?;
            Err(VmError::Thrown(exc))
        }
    }
}

/// Carries `exc` out of `act`, which has no handler for it and has
/// released its monitor: each caller in turn becomes `act` and dispatches
/// the exception at its invoke, in its own attribution context, until one
/// catches it (its handler's bci is returned) or the chain's bottom
/// activation lets it go as [`VmError::Thrown`].
#[inline(never)]
fn unwind_callers<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    act: &mut Activation,
    chain: Chain,
    exc: ObjRef,
) -> Result<u32, VmError> {
    while let Some(caller) = end(env, chain, act) {
        *act = caller;
        env.profiler().enter(act.method.index(), Tier::Interp);
        match catch(program, env, act, exc) {
            Err(VmError::Thrown(_)) => {}
            caught => return caught,
        }
    }
    Err(VmError::Thrown(exc))
}

fn release_locked<E: InterpEnv + ?Sized>(env: &mut E, act: &mut Activation) -> Result<(), VmError> {
    match act.locked.take() {
        Some(r) => {
            env.charge(cost::MONITOR_OP)?;
            env.heap().monitor_exit(r)
        }
        None => Ok(()),
    }
}

#[cold]
#[inline(never)]
fn underflow(what: &str) -> VmError {
    VmError::Internal(format!("operand stack underflow{what}"))
}

/// Pops an operand of the activation whose operand stack starts at
/// `floor`.
#[inline(always)]
fn pop(stack: &mut Vec<Value>, floor: usize) -> Result<Value, VmError> {
    match stack.pop() {
        Some(v) if stack.len() >= floor => Ok(v),
        _ => Err(underflow("")),
    }
}

/// Executes `act` and every activation it calls, until the chain's bottom
/// activation returns. An interpreted call suspends `act` on the host's
/// activation stack and opens the callee in its place; a return pops the
/// caller back and continues after its invoke; an exception the running
/// activation does not catch is dispatched in each caller in turn. The
/// running activation's `bci` selects the next instruction throughout, so
/// a frame reconstructed mid-method continues seamlessly.
///
/// `OBSERVED` is set when something watches single instructions: a fuel
/// limit, the metrics hub or the profiler. Then each instruction charges
/// its dispatch, is counted, and charges its operation — `OutOfFuel` can
/// fall between the two. Otherwise nothing is counted, charges add up in
/// `pending`, which the caller flushes once, and where the method's fused
/// stream has a superinstruction one dispatch runs the whole sequence; the
/// totals are the same.
#[allow(clippy::too_many_lines)]
fn run_loop<E: InterpEnv + ?Sized, const OBSERVED: bool>(
    program: &Program,
    env: &mut E,
    act: &mut Activation,
    chain: Chain,
    pending: &mut u64,
) -> Result<Option<Value>, VmError> {
    let mut code: &[Insn] = &program.method(act.method).code;
    let mut fused: &[Fused] = program.fused(act.method);
    // One hub clone per run (an `Option<Arc>` bump, no allocation) and one
    // per-activation profiler handle (two `Arc` bumps when enabled), so
    // the observed per-instruction path is a branch each.
    let metrics = if OBSERVED {
        env.metrics().clone()
    } else {
        MetricsHub::disabled()
    };
    let mut profiler = if OBSERVED {
        env.profiler().frame(act.method.index())
    } else {
        None
    };
    // After a call, a return or an unwinding changed `act`: its method's
    // code, stream and profiler handle, and the attribution context.
    macro_rules! switched {
        () => {
            code = &program.method(act.method).code;
            fused = program.fused(act.method);
            if OBSERVED {
                env.profiler().enter(act.method.index(), Tier::Interp);
                profiler = env.profiler().frame(act.method.index());
            }
        };
    }
    // The handler bci for `exc` thrown at `act.bci`, in `act` or, after
    // unwinding, in the caller that catches it (then `act`).
    macro_rules! throw {
        ($exc:expr) => {
            match catch(program, env, act, $exc) {
                Err(VmError::Thrown(exc)) => {
                    let handler = unwind_callers(program, env, act, chain, exc)?;
                    switched!();
                    handler
                }
                caught => caught?,
            }
        };
    }
    // The operation's charge: on top of the dispatch already charged when
    // observed, together with it (and batched) otherwise.
    macro_rules! op {
        ($cycles:expr) => {
            if OBSERVED {
                let cycles = $cycles;
                if cycles != 0 {
                    env.charge(cycles)?;
                }
            } else {
                *pending += cost::INTERP_DISPATCH + $cycles;
            }
        };
    }
    macro_rules! pop {
        () => {
            pop(env.value_stack(), act.operands)?
        };
    }
    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            env.value_stack().push(v);
        }};
    }
    macro_rules! binop {
        (|$a:ident, $b:ident| $body:expr) => {{
            op!(cost::ALU_OP);
            let stack = env.value_stack();
            let $b = pop(stack, act.operands)?.as_int()?;
            let $a = pop(stack, act.operands)?.as_int()?;
            stack.push(Value::Int($body));
        }};
    }
    macro_rules! branch {
        ($taken:expr, $target:expr) => {{
            let taken = $taken;
            env.profiles().record_branch(act.method, act.bci, taken);
            if taken {
                $target
            } else {
                act.bci + 1
            }
        }};
    }
    // A call of the resolved `callee`, whose `argc` arguments top the
    // stack: the host runs it and this activation goes on at `next`, or
    // the host admits it and it becomes the running activation.
    macro_rules! invoke {
        ($next:ident, $callee:expr, $argc:expr) => {{
            let (callee, argc) = ($callee, $argc);
            match env.enter(program, callee, argc) {
                Ok(Callee::Interpret) => {
                    let base = env.value_stack().len() - argc;
                    match open::<E, OBSERVED>(program, env, callee, base, pending) {
                        Ok(opened) => {
                            env.activations().push(*act);
                            *act = Activation {
                                admitted: true,
                                ..opened
                            };
                        }
                        Err(e) => {
                            env.leave();
                            return Err(e);
                        }
                    }
                    switched!();
                    continue;
                }
                Ok(Callee::Returned(Some(v))) => push!(v),
                Ok(Callee::Returned(None)) => {}
                Err(VmError::Thrown(exc)) => $next = throw!(exc),
                Err(e) => return Err(e),
            }
        }};
    }
    loop {
        if !OBSERVED {
            // A superinstruction charges what its constituents charge one
            // by one, each before it can fail, so an error inside the
            // sequence leaves the cycles the plain loop leaves.
            let next = match fused.get(act.bci as usize) {
                Some(&Fused::LoadConstIfCmp {
                    local,
                    cmp,
                    target,
                    k,
                }) => {
                    *pending += 2 * ALU_STEP + BRANCH_STEP;
                    let a = env.value_stack()[act.locals + local as usize].as_int()?;
                    // The branch's profile and back-edge test are at its
                    // own bci.
                    act.bci += 2;
                    Some(branch!(cmp.apply(a, k), target))
                }
                Some(&Fused::LoadLoadIfCmp { a, b, cmp, target }) => {
                    *pending += 2 * ALU_STEP + BRANCH_STEP;
                    let stack = env.value_stack();
                    let b = stack[act.locals + b as usize].as_int()?;
                    let a = stack[act.locals + a as usize].as_int()?;
                    act.bci += 2;
                    Some(branch!(cmp.apply(a, b), target))
                }
                Some(&Fused::LoadConstOpStore { local, op, dst, k }) => {
                    *pending += 3 * ALU_STEP;
                    let stack = env.value_stack();
                    let a = stack[act.locals + local as usize].as_int()?;
                    *pending += ALU_STEP;
                    stack[act.locals + dst as usize] = Value::Int(op.apply(a, k));
                    Some(act.bci + 4)
                }
                Some(&Fused::LoadConstOp { local, op, k }) => {
                    *pending += 3 * ALU_STEP;
                    let stack = env.value_stack();
                    let a = stack[act.locals + local as usize].as_int()?;
                    stack.push(Value::Int(op.apply(a, k)));
                    Some(act.bci + 3)
                }
                Some(&Fused::LoadLoadOp { a, b, op }) => {
                    *pending += 3 * ALU_STEP;
                    let stack = env.value_stack();
                    let b = stack[act.locals + b as usize].as_int()?;
                    let a = stack[act.locals + a as usize].as_int()?;
                    stack.push(Value::Int(op.apply(a, b)));
                    Some(act.bci + 3)
                }
                Some(&Fused::LoadOpStore { local, op, dst }) => {
                    *pending += 2 * ALU_STEP;
                    let stack = env.value_stack();
                    let b = stack[act.locals + local as usize].as_int()?;
                    let a = pop(stack, act.operands)?.as_int()?;
                    *pending += ALU_STEP;
                    stack[act.locals + dst as usize] = Value::Int(op.apply(a, b));
                    Some(act.bci + 3)
                }
                Some(&Fused::LoadGetField {
                    local,
                    field,
                    declaring,
                    slot,
                }) => {
                    *pending += ALU_STEP + MEMORY_STEP;
                    let r = env.value_stack()[act.locals + local as usize].as_ref()?;
                    let v = env
                        .heap()
                        .get_field_at(program, r, declaring, slot as usize, field)?;
                    push!(v);
                    Some(act.bci + 2)
                }
                Some(Fused::Plain) | None => None,
            };
            if let Some(next) = next {
                if next <= act.bci {
                    env.safepoint();
                }
                act.bci = next;
                continue;
            }
        }
        let insn = code[act.bci as usize];
        if OBSERVED {
            env.charge(cost::INTERP_DISPATCH)?;
            if let Some(m) = metrics.on() {
                m.interp.steps.inc();
            }
            if let Some(p) = &profiler {
                p.record_op(
                    act.bci,
                    opcode_slot(&insn),
                    cost::INTERP_DISPATCH + static_op_cost(&insn),
                );
            }
        }
        let mut next = act.bci + 1;
        match insn {
            Insn::Const(v) => {
                op!(cost::ALU_OP);
                push!(Value::Int(v));
            }
            Insn::ConstNull => {
                op!(cost::ALU_OP);
                push!(Value::Null);
            }
            Insn::Load(n) => {
                op!(cost::ALU_OP);
                let stack = env.value_stack();
                let v = stack[act.locals + n as usize];
                stack.push(v);
            }
            Insn::Store(n) => {
                op!(cost::ALU_OP);
                let stack = env.value_stack();
                let v = pop(stack, act.operands)?;
                stack[act.locals + n as usize] = v;
            }
            Insn::Add => binop!(|a, b| a.wrapping_add(b)),
            Insn::Sub => binop!(|a, b| a.wrapping_sub(b)),
            Insn::Mul => binop!(|a, b| a.wrapping_mul(b)),
            Insn::Div => binop!(|a, b| {
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                a.wrapping_div(b)
            }),
            Insn::Rem => binop!(|a, b| {
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                a.wrapping_rem(b)
            }),
            Insn::And => binop!(|a, b| a & b),
            Insn::Or => binop!(|a, b| a | b),
            Insn::Xor => binop!(|a, b| a ^ b),
            Insn::Shl => binop!(|a, b| a.wrapping_shl((b & 63) as u32)),
            Insn::Shr => binop!(|a, b| a.wrapping_shr((b & 63) as u32)),
            Insn::Neg => {
                op!(cost::ALU_OP);
                let a = pop!().as_int()?;
                push!(Value::Int(a.wrapping_neg()));
            }
            Insn::Pop => {
                op!(cost::ALU_OP);
                pop!();
            }
            Insn::Dup => {
                op!(cost::ALU_OP);
                let stack = env.value_stack();
                let v = pop(stack, act.operands)?;
                stack.push(v);
                stack.push(v);
            }
            Insn::Swap => {
                op!(cost::ALU_OP);
                let stack = env.value_stack();
                let b = pop(stack, act.operands)?;
                let a = pop(stack, act.operands)?;
                stack.push(b);
                stack.push(a);
            }
            Insn::Goto(t) => {
                op!(cost::BRANCH_OP);
                next = t;
            }
            Insn::IfCmp(cmp, t) => {
                op!(cost::BRANCH_OP);
                let stack = env.value_stack();
                let b = pop(stack, act.operands)?.as_int()?;
                let a = pop(stack, act.operands)?.as_int()?;
                next = branch!(cmp.apply(a, b), t);
            }
            Insn::IfNull(t) | Insn::IfNonNull(t) => {
                op!(cost::BRANCH_OP);
                let v = pop!().as_ref_or_null()?;
                next = branch!(v.is_none() == matches!(insn, Insn::IfNull(_)), t);
            }
            Insn::IfRefEq(t) | Insn::IfRefNe(t) => {
                op!(cost::BRANCH_OP);
                let stack = env.value_stack();
                let b = pop(stack, act.operands)?.as_ref_or_null()?;
                let a = pop(stack, act.operands)?.as_ref_or_null()?;
                next = branch!((a == b) == matches!(insn, Insn::IfRefEq(_)), t);
            }
            Insn::New(class) => {
                let cycles = cost::alloc_cost(program.object_size(class));
                op!(cycles);
                if OBSERVED {
                    if let Some(p) = &profiler {
                        p.record_op(act.bci, opcode_slot(&insn), cycles);
                    }
                }
                let r = env.heap().try_alloc_instance(program, class)?;
                if OBSERVED {
                    env.profiler().record_alloc();
                }
                push!(Value::Ref(r));
            }
            Insn::GetField(field) => {
                op!(cost::MEMORY_OP);
                let r = pop!().as_ref()?;
                let v = env.heap().get_field(program, r, field)?;
                push!(v);
            }
            Insn::PutField(field) => {
                op!(cost::MEMORY_OP);
                let stack = env.value_stack();
                let v = pop(stack, act.operands)?;
                let r = pop(stack, act.operands)?.as_ref()?;
                env.heap().put_field(program, r, field, v)?;
            }
            Insn::GetStatic(s) => {
                op!(cost::MEMORY_OP);
                let v = env.statics().get(s);
                push!(v);
            }
            Insn::PutStatic(s) => {
                op!(cost::MEMORY_OP);
                let v = pop!();
                env.statics().set(s, v);
            }
            Insn::NewArray(kind) => {
                op!(0);
                let len = pop!().as_int()?;
                let cycles = cost::array_alloc_cost(len);
                if OBSERVED {
                    env.charge(cycles)?;
                } else {
                    *pending += cycles;
                }
                if OBSERVED {
                    if let Some(p) = &profiler {
                        p.record_op(act.bci, opcode_slot(&insn), cycles);
                    }
                }
                let r = env.heap().alloc_array(kind, len)?;
                if OBSERVED {
                    env.profiler().record_alloc();
                }
                push!(Value::Ref(r));
            }
            Insn::ArrayLoad => {
                op!(cost::MEMORY_OP);
                let stack = env.value_stack();
                let i = pop(stack, act.operands)?.as_int()?;
                let r = pop(stack, act.operands)?.as_ref()?;
                let v = env.heap().array_get(r, i)?;
                push!(v);
            }
            Insn::ArrayStore => {
                op!(cost::MEMORY_OP);
                let stack = env.value_stack();
                let v = pop(stack, act.operands)?;
                let i = pop(stack, act.operands)?.as_int()?;
                let r = pop(stack, act.operands)?.as_ref()?;
                env.heap().array_set(r, i, v)?;
            }
            Insn::ArrayLength => {
                op!(cost::MEMORY_OP);
                let r = pop!().as_ref()?;
                let len = env.heap().array_length(r)?;
                push!(Value::Int(len));
            }
            Insn::InstanceOf(class) => {
                op!(cost::ALU_OP);
                let is = match pop!().as_ref_or_null()? {
                    Some(r) => {
                        let dynamic = env.heap().class_of(r)?;
                        program.is_subclass_of(dynamic, class)
                    }
                    None => false,
                };
                push!(Value::from_bool(is));
            }
            Insn::CheckCast(class) => {
                op!(cost::ALU_OP);
                let v = pop!();
                if let Some(r) = v.as_ref_or_null()? {
                    let dynamic = env.heap().class_of(r)?;
                    if !program.is_subclass_of(dynamic, class) {
                        return Err(VmError::ClassCast {
                            expected: program.class(class).name.clone(),
                            found: program.class(dynamic).name.clone(),
                        });
                    }
                }
                push!(v);
            }
            Insn::MonitorEnter => {
                op!(cost::MONITOR_OP);
                let r = pop!().as_ref()?;
                env.heap().monitor_enter(r);
            }
            Insn::MonitorExit => {
                op!(cost::MONITOR_OP);
                let r = pop!().as_ref()?;
                env.heap().monitor_exit(r)?;
            }
            Insn::InvokeStatic(target) => {
                op!(0);
                let argc = arguments(program, env, act, target)?;
                invoke!(next, target, argc);
            }
            Insn::InvokeVirtual(target) => {
                op!(0);
                let argc = arguments(program, env, act, target)?;
                let receiver = {
                    let stack = env.value_stack();
                    stack[stack.len() - argc].as_ref()?
                };
                let dynamic = env.heap().class_of(receiver)?;
                env.profiles().record_receiver(act.method, act.bci, dynamic);
                let resolved = program
                    .resolve_virtual(dynamic, target)
                    .map_err(|e| VmError::NoSuchMethod(e.to_string()))?;
                invoke!(next, resolved, argc);
            }
            Insn::Return | Insn::ReturnValue => {
                op!(0);
                let v = match insn {
                    Insn::ReturnValue => Some(pop!()),
                    _ => None,
                };
                release_locked(env, act)?;
                let Some(caller) = end(env, chain, act) else {
                    return Ok(v);
                };
                env.value_stack().truncate(act.locals);
                *act = caller;
                if let Some(v) = v {
                    push!(v);
                }
                act.bci += 1;
                switched!();
                continue;
            }
            Insn::Throw => {
                op!(0);
                let code = pop!().as_int()?;
                return Err(VmError::UserException(code));
            }
            Insn::Athrow => {
                op!(cost::BRANCH_OP);
                // Throwing null raises the plain null-pointer error
                // (uncatchable, like the other runtime errors).
                let exc = pop!().as_ref()?;
                next = throw!(exc);
            }
        }
        // Loop back-edge safepoint: lets the host install finished
        // background compilations even while a single interpreted loop
        // keeps spinning (the other safepoint is method entry). A handler
        // before the throwing instruction or invoke counts as one.
        if next <= act.bci {
            if let Some(m) = metrics.on() {
                m.interp.back_edges.inc();
                m.interp.safepoint_polls.inc();
            }
            env.safepoint();
        }
        act.bci = next;
    }
}

/// The argument count of a call to `target`, checked against the
/// caller's operand stack.
#[inline]
fn arguments<E: InterpEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    act: &Activation,
    target: MethodId,
) -> Result<usize, VmError> {
    let argc = program.method(target).param_count as usize;
    if env.value_stack().len() - act.operands < argc {
        return Err(underflow(" at call"));
    }
    Ok(argc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimpleEnv;
    use pea_bytecode::asm::parse_program;
    use pea_bytecode::{verify_program, CmpOp};

    fn run(source: &str, entry: &str, args: &[Value]) -> Result<Option<Value>, VmError> {
        let program = parse_program(source).expect("asm");
        verify_program(&program).expect("verify");
        let mut env = SimpleEnv::new(program);
        env.call(entry, args)
    }

    /// A handed-over chain of `(method, bci, locals)` frames, outermost
    /// first, with empty operand stacks.
    fn chain(frames: &[(MethodId, u32, &[Value])]) -> FrameChain {
        let mut chain = FrameChain::default();
        for &(method, bci, locals) in frames {
            chain.push_frame(method, bci);
            for &v in locals {
                chain.push_local(v);
            }
        }
        chain
    }

    #[test]
    fn arithmetic_and_locals() {
        let r = run(
            "method f 2 returns { load 0 load 1 add const 2 mul retv }",
            "f",
            &[Value::Int(3), Value::Int(4)],
        );
        assert_eq!(r.unwrap(), Some(Value::Int(14)));
    }

    #[test]
    fn division_by_zero_raises() {
        let r = run(
            "method f 1 returns { load 0 const 0 div retv }",
            "f",
            &[Value::Int(3)],
        );
        assert_eq!(r.unwrap_err(), VmError::DivisionByZero);
    }

    #[test]
    fn branches_and_loops() {
        // sum 0..n
        let src = "method f 1 returns {
            const 0 store 1
            const 0 store 2
        Lhead:
            load 2 load 0 ifcmp ge Ldone
            load 1 load 2 add store 1
            load 2 const 1 add store 2
            goto Lhead
        Ldone:
            load 1 retv
        }";
        assert_eq!(
            run(src, "f", &[Value::Int(5)]).unwrap(),
            Some(Value::Int(10))
        );
    }

    #[test]
    fn enabled_metrics_count_steps_invocations_and_back_edges() {
        let src = "method f 1 returns {
            const 0 store 1
        Lhead:
            load 1 load 0 ifcmp ge Ldone
            load 1 const 1 add store 1
            goto Lhead
        Ldone:
            load 1 retv
        }";
        let program = parse_program(src).expect("asm");
        let mut env = SimpleEnv::new(program);
        env.metrics = pea_metrics::MetricsHub::enabled();
        env.call("f", &[Value::Int(7)]).unwrap();
        let snap = env.metrics.snapshot().unwrap();
        assert_eq!(snap.counter("interp.invocations"), 1);
        // One `goto Lhead` back-edge per completed iteration.
        assert_eq!(snap.counter("interp.back_edges"), 7);
        assert_eq!(snap.counter("interp.safepoint_polls"), 7);
        // 2 setup insns, 8 per completed iteration, 5 on the exit path
        // (final header check plus `load 1 retv`).
        assert_eq!(snap.counter("interp.steps"), 2 + 7 * 8 + 5);
    }

    #[test]
    fn objects_fields_and_identity() {
        let src = "
        class Box { field v int }
        method f 1 returns {
            new Box
            store 1
            load 1 load 0 putfield Box.v
            load 1 getfield Box.v
            retv
        }";
        assert_eq!(
            run(src, "f", &[Value::Int(9)]).unwrap(),
            Some(Value::Int(9))
        );
    }

    #[test]
    fn null_field_access_raises() {
        let src = "
        class Box { field v int }
        method f 0 returns { cnull getfield Box.v retv }";
        assert_eq!(run(src, "f", &[]).unwrap_err(), VmError::NullPointer);
    }

    #[test]
    fn statics_round_trip() {
        let src = "
        static g int
        method f 1 returns { load 0 putstatic g getstatic g retv }";
        assert_eq!(
            run(src, "f", &[Value::Int(7)]).unwrap(),
            Some(Value::Int(7))
        );
    }

    #[test]
    fn arrays_work() {
        let src = "method f 1 returns {
            const 4 newarray int store 1
            load 1 const 2 load 0 astore
            load 1 const 2 aload
            load 1 arraylen
            add retv
        }";
        assert_eq!(
            run(src, "f", &[Value::Int(5)]).unwrap(),
            Some(Value::Int(9))
        );
    }

    #[test]
    fn static_calls_pass_arguments() {
        let src = "
        method g 2 returns { load 0 load 1 sub retv }
        method f 0 returns { const 10 const 4 invokestatic g retv }";
        assert_eq!(run(src, "f", &[]).unwrap(), Some(Value::Int(6)));
    }

    #[test]
    fn virtual_dispatch_picks_override() {
        let src = "
        class A { }
        class B extends A { }
        method virtual A.tag 1 returns { const 1 retv }
        method virtual B.tag 1 returns { const 2 retv }
        method f 0 returns { new B invokevirtual A.tag retv }";
        assert_eq!(run(src, "f", &[]).unwrap(), Some(Value::Int(2)));
    }

    #[test]
    fn synchronized_methods_balance_monitors() {
        let src = "
        class C { field v int }
        method virtual C.get 1 returns synchronized { load 0 getfield C.v retv }
        method f 0 returns { new C store 0 load 0 invokevirtual C.get retv }";
        let program = parse_program(src).unwrap();
        let mut env = SimpleEnv::new(program);
        let r = env.call("f", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(0)));
        assert_eq!(env.heap.stats.monitor_enters, 1);
        assert_eq!(env.heap.stats.monitor_exits, 1);
        assert_eq!(env.heap.total_lock_holds(), 0);
    }

    #[test]
    fn explicit_monitors() {
        let src = "
        class C { }
        method f 0 returns {
            new C store 0
            load 0 monitorenter
            load 0 monitorexit
            const 1 retv
        }";
        let program = parse_program(src).unwrap();
        let mut env = SimpleEnv::new(program);
        env.call("f", &[]).unwrap();
        assert_eq!(env.heap.stats.monitor_ops(), 2);
        assert_eq!(env.heap.total_lock_holds(), 0);
    }

    #[test]
    fn throw_propagates_through_calls() {
        let src = "
        method g 0 { const 42 throw }
        method f 0 returns { invokestatic g const 1 retv }";
        assert_eq!(run(src, "f", &[]).unwrap_err(), VmError::UserException(42));
    }

    #[test]
    fn athrow_caught_by_typed_handler() {
        let src = "
        class Err { field code int }
        method f 1 returns {
            try Ls Le Lh Err
        Ls:
            new Err
            dup load 0 putfield Err.code
            athrow
        Le:
        Lh:
            getfield Err.code
            retv
        }";
        assert_eq!(
            run(src, "f", &[Value::Int(41)]).unwrap(),
            Some(Value::Int(41))
        );
    }

    #[test]
    fn athrow_dispatch_matches_subclass_and_order() {
        // Inner typed handler matches a subclass throw before the outer
        // catch-all; a sibling class falls through to the catch-all.
        let src = "
        class Err { }
        class IoErr extends Err { }
        class NumErr extends Err { }
        method f 1 returns {
            try Ls Le Lio IoErr
            try Ls Le Lall *
        Ls:
            load 0 const 0 ifcmp eq Lnum
            new IoErr athrow
        Lnum:
            new NumErr athrow
        Le:
        Lio:
            pop const 1 retv
        Lall:
            pop const 2 retv
        }";
        assert_eq!(
            run(src, "f", &[Value::Int(1)]).unwrap(),
            Some(Value::Int(1))
        );
        assert_eq!(
            run(src, "f", &[Value::Int(0)]).unwrap(),
            Some(Value::Int(2))
        );
    }

    #[test]
    fn athrow_propagates_to_caller_handler() {
        let src = "
        class Err { field code int }
        method g 1 {
            new Err dup load 0 putfield Err.code athrow
        }
        method f 1 returns {
            try Ls Le Lh *
        Ls:
            load 0 invokestatic g
            const -1 retv
        Le:
        Lh:
            getfield Err.code
            const 100 add retv
        }";
        assert_eq!(
            run(src, "f", &[Value::Int(7)]).unwrap(),
            Some(Value::Int(107))
        );
    }

    #[test]
    fn uncaught_athrow_is_thrown_error() {
        let src = "
        class Err { }
        method f 0 returns { new Err athrow }";
        assert!(matches!(
            run(src, "f", &[]).unwrap_err(),
            VmError::Thrown(_)
        ));
    }

    #[test]
    fn throwing_null_is_null_pointer() {
        let src = "method f 0 returns { cnull athrow }";
        assert_eq!(run(src, "f", &[]).unwrap_err(), VmError::NullPointer);
    }

    #[test]
    fn unwinding_releases_synchronized_monitors() {
        let src = "
        class Err { }
        class C { }
        method virtual C.boom 1 synchronized { new Err athrow }
        method f 0 returns {
            try Ls Le Lh *
        Ls:
            new C invokevirtual C.boom
            const 0 retv
        Le:
        Lh:
            pop const 1 retv
        }";
        let program = parse_program(src).unwrap();
        verify_program(&program).expect("verify");
        let mut env = SimpleEnv::new(program);
        assert_eq!(env.call("f", &[]).unwrap(), Some(Value::Int(1)));
        assert_eq!(env.heap.total_lock_holds(), 0, "monitor leaked past unwind");
    }

    #[test]
    fn try_finally_lock_region_balances_on_throw() {
        // Explicit monitorenter with a catch-all region acting as finally:
        // the handler releases the lock and rethrows.
        let src = "
        class Err { }
        class L { }
        method f 1 returns {
            new L store 1
            load 1 monitorenter
            try Ls Le Lfin *
        Ls:
            load 0 const 0 ifcmp eq Lok
            new Err athrow
        Lok:
            goto Lout
        Le:
        Lfin:
            load 1 monitorexit
            athrow
        Lout:
            load 1 monitorexit
            const 9 retv
        }";
        let program = parse_program(src).unwrap();
        verify_program(&program).expect("verify");
        let mut env = SimpleEnv::new(program.clone());
        assert_eq!(
            env.call("f", &[Value::Int(0)]).unwrap(),
            Some(Value::Int(9))
        );
        assert_eq!(env.heap.total_lock_holds(), 0);
        let mut env = SimpleEnv::new(program);
        assert!(matches!(
            env.call("f", &[Value::Int(1)]).unwrap_err(),
            VmError::Thrown(_)
        ));
        assert_eq!(env.heap.total_lock_holds(), 0, "finally must release");
    }

    #[test]
    fn unwind_dispatches_over_frame_chain() {
        // Reconstructed chain: g (innermost, at its athrow) inside f
        // (suspended at the invokestatic covered by a catch-all).
        let src = "
        class Err { field code int }
        method g 1 {
            new Err dup load 0 putfield Err.code athrow
        }
        method f 1 returns {
            try Ls Le Lh *
        Ls:
            load 0 invokestatic g
            const -1 retv
        Le:
        Lh:
            getfield Err.code
            retv
        }";
        let program = parse_program(src).unwrap();
        verify_program(&program).expect("verify");
        let f = program.static_method_by_name("f").unwrap();
        let g = program.static_method_by_name("g").unwrap();
        let mut env = SimpleEnv::new(program.clone());
        let exc = env
            .heap
            .alloc_instance(&program, program.class_by_name("Err").unwrap());
        env.heap
            .put_field(
                &program,
                exc,
                program
                    .field_by_name(program.class_by_name("Err").unwrap(), "code")
                    .unwrap(),
                Value::Int(55),
            )
            .unwrap();
        let frames = chain(&[
            // The invokestatic inside the protected region.
            (f, 1, &[Value::Int(55)]),
            // The athrow itself; no table in g, so unwind outward.
            (g, 4, &[Value::Int(55)]),
        ]);
        let r = unwind(&program, &mut env, &frames, exc).unwrap();
        assert_eq!(r, Some(Value::Int(55)));
    }

    #[test]
    fn instanceof_and_checkcast() {
        let src = "
        class A { }
        class B extends A { }
        method f 0 returns {
            new B
            dup
            instanceof A
            swap
            checkcast A
            pop
            retv
        }";
        assert_eq!(run(src, "f", &[]).unwrap(), Some(Value::Int(1)));
    }

    #[test]
    fn checkcast_failure() {
        let src = "
        class A { }
        class B extends A { }
        method f 0 returns { new A checkcast B pop const 0 retv }";
        assert!(matches!(
            run(src, "f", &[]).unwrap_err(),
            VmError::ClassCast { .. }
        ));
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let src = "method f 0 returns { Lx: goto Lx }";
        let program = parse_program(src).unwrap();
        let mut env = SimpleEnv::with_fuel(program, 10_000);
        assert_eq!(env.call("f", &[]).unwrap_err(), VmError::OutOfFuel);
    }

    #[test]
    fn profiles_record_branches_and_receivers() {
        let src = "
        class A { }
        method virtual A.id 1 returns { const 5 retv }
        method f 1 returns {
            load 0 const 0 ifcmp le Lneg
            new A invokevirtual A.id retv
        Lneg:
            const -1 retv
        }";
        let program = parse_program(src).unwrap();
        let f = program.static_method_by_name("f").unwrap();
        let mut env = SimpleEnv::new(program);
        env.call("f", &[Value::Int(5)]).unwrap();
        env.call("f", &[Value::Int(5)]).unwrap();
        env.call("f", &[Value::Int(-1)]).unwrap();
        let b = env.profiles.branch(f, 2).unwrap();
        assert_eq!(b.taken, 1);
        assert_eq!(b.not_taken, 2);
        assert_eq!(env.profiles.invocation_count(f), 3);
        // receiver profile exists at the invokevirtual bci (5)
        assert!(env.profiles.receiver(f, 4).is_some());
    }

    #[test]
    fn resume_continues_mid_method() {
        // f computes local1 = a*2 at bci 0..3, then returns local1 + 1.
        let src = "method f 1 returns {
            load 0 const 2 mul store 1
            load 1 const 1 add retv
        }";
        let program = parse_program(src).unwrap();
        let f = program.static_method_by_name("f").unwrap();
        let mut env = SimpleEnv::new(program.clone());
        // Resume at bci 4 (after the store) with locals [a=3, local1=99].
        let frames = chain(&[(f, 4, &[Value::Int(3), Value::Int(99)])]);
        let r = resume(&program, &mut env, &frames).unwrap();
        assert_eq!(r, Some(Value::Int(100)));
    }

    #[test]
    fn resume_pops_frame_chain() {
        // caller suspended at its invokestatic; callee resumed mid-body.
        let src = "
        method g 1 returns { load 0 const 10 add retv }
        method f 0 returns { const 1 invokestatic g const 100 add retv }";
        let program = parse_program(src).unwrap();
        let f = program.static_method_by_name("f").unwrap();
        let g = program.static_method_by_name("g").unwrap();
        let mut env = SimpleEnv::new(program.clone());
        // `f` waits at the invokestatic.
        let frames = chain(&[(f, 1, &[]), (g, 0, &[Value::Int(1)])]);
        let r = resume(&program, &mut env, &frames).unwrap();
        assert_eq!(r, Some(Value::Int(111)));
    }

    #[test]
    fn malformed_hand_overs_are_internal_errors() {
        let src = "
        method g 1 returns { load 0 const 10 add retv }
        method f 0 returns { const 1 invokestatic g const 100 add retv }";
        let program = parse_program(src).unwrap();
        let f = program.static_method_by_name("f").unwrap();
        let g = program.static_method_by_name("g").unwrap();
        let mut env = SimpleEnv::new(program.clone());
        let internal = |r: Result<Option<Value>, VmError>| match r {
            Err(VmError::Internal(msg)) => msg,
            other => panic!("expected an internal error, got {other:?}"),
        };
        let empty = internal(resume(&program, &mut env, &FrameChain::default()));
        assert!(empty.contains("empty frame chain"), "{empty}");
        // `f` suspended at its `const 100` instead of its invoke.
        let frames = chain(&[(f, 2, &[]), (g, 0, &[Value::Int(1)])]);
        let msg = internal(resume(&program, &mut env, &frames));
        assert!(
            msg.contains("f at bci 2") && msg.contains("not at an invoke"),
            "{msg}"
        );
        let exc = env
            .heap
            .alloc_array(pea_bytecode::ValueKind::Int, 0)
            .unwrap();
        let msg = internal(unwind(&program, &mut env, &frames, exc));
        assert!(msg.contains("f at bci 2"), "{msg}");
        let past = internal(resume(
            &program,
            &mut env,
            &chain(&[(g, 9, &[Value::Int(1)])]),
        ));
        assert!(
            past.contains("g at bci 9") && past.contains("outside"),
            "{past}"
        );
        // Nothing was left behind: a well-formed chain still runs.
        assert!(env.value_stack().is_empty() && env.activations().is_empty());
        let frames = chain(&[(f, 1, &[]), (g, 0, &[Value::Int(1)])]);
        assert_eq!(
            resume(&program, &mut env, &frames),
            Ok(Some(Value::Int(111)))
        );
    }

    #[test]
    fn comparison_ops_in_branches() {
        for (op, a, b, expect) in [
            (CmpOp::Lt, 1, 2, 1),
            (CmpOp::Ge, 1, 2, 0),
            (CmpOp::Ne, 3, 3, 0),
        ] {
            let src = format!(
                "method f 2 returns {{ load 0 load 1 ifcmp {op} Lt const 0 retv Lt: const 1 retv }}"
            );
            assert_eq!(
                run(&src, "f", &[Value::Int(a), Value::Int(b)]).unwrap(),
                Some(Value::Int(expect))
            );
        }
    }
}
