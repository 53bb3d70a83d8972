//! The direct-threaded dispatch loop over a [`LinearArtifact`].
//!
//! Executes the dense `u32` instruction stream without touching
//! [`pea_ir::Graph`] or `NodeId` anywhere on the hot path: operands are
//! registers in a window of the host's [`RegisterStack`], field offsets
//! and call targets come pre-resolved from the artifact, and deopt
//! metadata is read from the compiled side tables.
//!
//! A call the host answers with compiled code ([`Call::Compiled`]) stays
//! in the loop: the caller waits on the register stack at its `INVOKE`,
//! the callee runs in the next window, and its `RETURN` resumes the
//! caller. Only an interpreted callee, and a callee that ends any other
//! way than by a plain return, go back through the host
//! ([`EvalEnv::call`], [`EvalEnv::finish`]).
//!
//! Cycle parity with graph evaluation is bit-exact: every handler charges
//! the same `pea_runtime::cost` constants in the same order `evaluate`
//! does. When the host enforces no fuel limit
//! ([`EvalEnv::has_fuel_limit`]), charges are accumulated locally and
//! flushed when the run ends, and whenever the running activation changes
//! while the host's profiler attributes cycles — the running total is
//! observationally equivalent because only the fuel check ever reads
//! intermediate values, and each flush lands in the attribution context
//! of the activation that incurred it.
//!
//! The loop is monomorphic: [`execute`] is generic over the host, so heap
//! access and charges are direct calls the optimizer can inline, and the
//! loop is instantiated once per charging discipline (`EXACT`), so the
//! unobserved loop carries no per-charge test.

use super::{
    decode_kind, decode_reason, op, DeoptPoint, LinearArtifact, SlotSrc, INSN_WORDS, NO_REG, WINDOW,
};
use crate::eval::{Call, EvalEnv, EvalOutcome};
use crate::pipeline::CompiledMethod;
use pea_bytecode::{ClassId, FieldId, MethodId, Program, StaticId};
use pea_ir::AllocShape;
use pea_runtime::cost;
use pea_runtime::{FrameChain, Heap, ObjRef, SlotInit, Value, VmError};
use std::sync::Arc;

/// The registers of a host's compiled activations: one window per
/// activation, of its artifact's `num_regs` registers, whose first ones
/// are its parameters — the caller writes the arguments there — plus the
/// compiled callers suspended while the loop runs their callees and the
/// artifacts they run. A host keeps one
/// ([`EvalEnv::register_stack`]) for every call, so a call allocates
/// nothing once the stack has grown to the deepest chain.
#[derive(Debug, Default)]
pub struct RegisterStack {
    /// Every window. It only grows: registers are written before every
    /// read (SSA dominance carries over to the lowered form), so a
    /// window's stale contents are never observed. It holds [`WINDOW`]
    /// slots past the start of every window a run has entered.
    values: Vec<Value>,
    /// Where the next window starts: past the running activation's.
    top: usize,
    /// The callers waiting at an `INVOKE`, innermost last.
    frames: Vec<Suspended>,
    /// The callees' artifacts, each held once however many activations
    /// run it: a call counts a user instead of cloning an `Arc`, and the
    /// host may evict or replace an artifact while its activations run.
    codes: Vec<Held>,
}

impl RegisterStack {
    /// The `argc` arguments of the call being made: an `INVOKE` writes
    /// them into the first registers of the window past the running
    /// activation's, where a compiled callee finds them as its
    /// parameters. A host that runs the callee itself copies them out
    /// first ([`crate::ArgBuffer`]): compiled code the callee reaches
    /// starts its windows there.
    pub fn args(&self, argc: usize) -> &[Value] {
        &self.values[self.top..self.top + argc]
    }

    /// Every register of every window a run has entered, the stale ones
    /// of finished activations included: what a collector takes for the
    /// compiled activations' roots.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// An artifact of the code table and the activations that run it.
#[derive(Debug)]
struct Held {
    code: Arc<CompiledMethod>,
    users: u32,
}

/// Distinct artifacts one run of the loop holds before it reuses the
/// slot of one that no activation runs any more: a long-running caller
/// whose callees are evicted and recompiled keeps a bounded number alive.
const HELD_CODES: usize = 16;

/// The code-table slot of the activation a run of the loop was entered
/// with, whose code the run borrows.
const ENTRY: u32 = u32::MAX;

/// A compiled caller waiting at its `INVOKE` while the loop runs its
/// callee.
#[derive(Debug)]
struct Suspended {
    /// The caller's code-table slot, or [`ENTRY`].
    code: u32,
    /// The caller's `INVOKE`.
    pc: usize,
    /// Start of the caller's window.
    base: usize,
    /// The attribution context to restore when the callee ends.
    ctx: u64,
}

/// Executes the lowered form of `code` with `args`, and every compiled
/// callee the host hands back, in one loop.
///
/// # Errors
///
/// Runtime errors ([`VmError`]) exactly as graph evaluation (and the
/// interpreter) would raise them for the same program state.
///
/// # Panics
///
/// Panics if `code` has no [`LinearArtifact`], which a successful
/// `compile` always produces: a method that cannot be lowered is a compile
/// bailout and stays interpreted.
pub fn execute<E: EvalEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    code: &CompiledMethod,
    args: &[Value],
) -> Result<EvalOutcome, VmError> {
    env.charge(cost::CALL_OVERHEAD + cost::icache_cost(code.code_size))?;
    if env.has_fuel_limit() {
        run::<E, true>(program, env, code, args)
    } else {
        run::<E, false>(program, env, code, args)
    }
}

/// The compiled form every activation runs.
#[inline(always)]
fn linear(code: &CompiledMethod) -> &LinearArtifact {
    code.linear.as_ref().expect("method has no linear artifact")
}

/// Why [`dispatch`] stopped.
enum Exit {
    /// The run's entry activation returned.
    Return(Option<Value>),
    /// The safepoint of the loop back-edge at this `pc` asked for a
    /// collection; the edge's moves are still to be made.
    Collect(usize),
    /// The running activation deoptimized, or an exception from a callee
    /// unwinds into it.
    End(EvalOutcome),
}

/// Charges the batched cycles to the running activation's context. No
/// fuel limit is in force when anything is batched, so this cannot fail
/// on a host that keeps [`EvalEnv::has_fuel_limit`]'s contract.
#[inline(always)]
fn flush<E: EvalEnv + ?Sized>(env: &mut E, pending: &mut u64) -> Result<(), VmError> {
    match std::mem::take(pending) {
        0 => Ok(()),
        cycles => env.charge(cycles),
    }
}

/// Swaps `stack` with the host's register stack, if it keeps one: a run
/// takes the stack when it starts, and hands it back around every host
/// call that may enter the loop again and when it ends.
#[inline(always)]
pub(crate) fn swap_stack<E: EvalEnv + ?Sized>(env: &mut E, stack: &mut RegisterStack) {
    if let Some(own) = env.register_stack() {
        std::mem::swap(own, stack);
    }
}

/// The code-table slot of `code`, with one more user: the slot that holds
/// it already, else a new one, or past [`HELD_CODES`] slots of the run
/// that began at `held`, a slot of the run that no activation uses.
#[inline(always)]
fn hold(codes: &mut Vec<Held>, held: usize, code: &Arc<CompiledMethod>) -> u32 {
    let slot = match codes.iter().rposition(|h| Arc::ptr_eq(&h.code, code)) {
        Some(slot) => slot,
        None => {
            let spare = if codes.len() - held >= HELD_CODES {
                codes[held..].iter().position(|h| h.users == 0)
            } else {
                None
            };
            match spare {
                Some(i) => {
                    codes[held + i].code = Arc::clone(code);
                    held + i
                }
                None => {
                    codes.push(Held {
                        code: Arc::clone(code),
                        users: 0,
                    });
                    codes.len() - 1
                }
            }
        }
    };
    codes[slot].users += 1;
    slot as u32
}

/// A running activation's registers as the dispatch loop indexes them:
/// `regs[r as u8 as usize]` needs no bounds check.
type Window = [Value; WINDOW];

/// The window that starts at `base`.
#[inline(always)]
fn window(values: &mut [Value], base: usize) -> &mut Window {
    (&mut values[base..base + WINDOW])
        .try_into()
        .expect("a window is WINDOW registers")
}

/// The fixed part of the instruction at `pc`: one bounds check, which
/// holds for every instruction because the code stream is padded.
#[inline(always)]
fn insn(c: &[u32], pc: usize) -> &[u32; INSN_WORDS] {
    c[pc..pc + INSN_WORDS]
        .try_into()
        .expect("an instruction's fixed part is INSN_WORDS words")
}

/// Takes what the call at `pc` returned into `regs` and steps past it.
#[inline(always)]
fn returned(c: &[u32], pc: &mut usize, regs: &mut Window, v: Option<Value>) {
    let w = insn(c, *pc);
    if let Some(v) = v {
        if w[3] != NO_REG {
            regs[w[3] as u8 as usize] = v;
        }
    }
    *pc += 6 + w[5] as usize;
}

/// One run of the loop: the register stack it took from the host, where
/// its own part of the stack begins, and the running activation. The
/// dispatch loop keeps only the running activation's code and registers
/// at hand and comes here when it switches activations.
struct Machine<'a> {
    stack: RegisterStack,
    /// The activation the run was entered with.
    entry: &'a CompiledMethod,
    /// The frame count, window start and code-table length at entry.
    floor: usize,
    bottom: usize,
    held: usize,
    /// Batched charges reach the host whenever the running activation
    /// changes if the profiler attributes them to activations, and
    /// otherwise once, when the run ends: only the total is observable
    /// then.
    attributed: bool,
    /// The running activation's code-table slot and window start.
    running: u32,
    base: usize,
}

/// The code of the activation in code-table slot `running`.
#[inline(always)]
fn artifact<'m>(entry: &'m CompiledMethod, codes: &'m [Held], running: u32) -> &'m LinearArtifact {
    if running == ENTRY {
        linear(entry)
    } else {
        linear(&codes[running as usize].code)
    }
}

/// The running activation's code and registers.
#[inline(always)]
fn registers<'m>(m: &'m mut Machine<'_>) -> (&'m LinearArtifact, &'m mut Window) {
    let art = artifact(m.entry, &m.stack.codes, m.running);
    (art, window(&mut m.stack.values, m.base))
}

/// Runs `entry` with `entry_args` and the compiled callees it reaches
/// until `entry` ends. Each activation is one window of the register
/// stack; `entry_args` are copied into the first registers of the entry's
/// window once. [`dispatch`] makes calls and plain returns in line; every
/// other end of an activation comes back here, goes through
/// [`EvalEnv::finish`], and its caller takes what it receives at its
/// `INVOKE`.
fn run<E: EvalEnv + ?Sized, const EXACT: bool>(
    program: &Program,
    env: &mut E,
    entry: &CompiledMethod,
    entry_args: &[Value],
) -> Result<EvalOutcome, VmError> {
    let mut stack = RegisterStack::default();
    swap_stack(env, &mut stack);
    let mut m = Machine {
        floor: stack.frames.len(),
        bottom: stack.top,
        held: stack.codes.len(),
        base: stack.top,
        stack,
        entry,
        attributed: env.profiler().is_enabled(),
        running: ENTRY,
    };
    if m.stack.values.len() < m.base + WINDOW {
        m.stack.values.resize(m.base + WINDOW, Value::Null);
    }
    for (param, &arg) in m.stack.values[m.base..].iter_mut().zip(entry_args) {
        *param = arg;
    }
    let mut pending: u64 = 0;
    let mut pc = 0;
    // Hands the stack back and leaves the run with `$outcome`.
    macro_rules! exit {
        ($outcome:expr) => {{
            m.stack.top = m.bottom;
            m.stack.codes.truncate(m.held);
            swap_stack(env, &mut m.stack);
            return $outcome;
        }};
    }
    loop {
        let mut outcome = match dispatch::<E, EXACT>(program, env, &mut m, pc, &mut pending) {
            Ok(Exit::Return(v)) => {
                exit!(flush(env, &mut pending).map(|()| EvalOutcome::Return(v)))
            }
            Ok(Exit::Collect(at)) => {
                // Out of the loop: the host collects with every register
                // as a root and moves no register's value; then the edge.
                env.collect(&m.stack);
                let (art, regs) = registers(&mut m);
                pc = edge(&art.code, at, regs);
                continue;
            }
            Ok(Exit::End(outcome)) => Ok(outcome),
            Err(e) => Err(e),
        };
        // End the running activation with `outcome`, and each caller that
        // ends with what it receives, until one takes a value or the run's
        // entry activation ends.
        loop {
            outcome = flush(env, &mut pending).and(outcome);
            if m.stack.frames.len() == m.floor {
                exit!(outcome);
            }
            let caller = m.stack.frames.pop().expect("a callee has a caller");
            let ended = &mut m.stack.codes[m.running as usize];
            ended.users -= 1;
            let code = Arc::clone(&ended.code);
            m.stack.top = m.base;
            swap_stack(env, &mut m.stack);
            let result = env.finish(program, &code, outcome, caller.ctx);
            swap_stack(env, &mut m.stack);
            env.leave();
            m.running = caller.code;
            (m.base, pc) = (caller.base, caller.pc);
            let (art, regs) = registers(&mut m);
            outcome = match result {
                Ok(v) => {
                    returned(&art.code, &mut pc, regs, v);
                    break;
                }
                Err(VmError::Thrown(exc)) => unwinding::<E, EXACT>(
                    program,
                    env,
                    art,
                    pc,
                    regs,
                    code.method,
                    exc,
                    &mut pending,
                ),
                Err(e) => Err(e),
            };
        }
    }
}

/// The exception path of the `INVOKE` at `pc`, whose callee threw `exc`
/// into this activation: deoptimize at the call site, so the interpreter
/// dispatches the exception over the rematerialized frames.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn unwinding<E: EvalEnv + ?Sized, const EXACT: bool>(
    program: &Program,
    env: &mut E,
    art: &LinearArtifact,
    pc: usize,
    regs: &mut [Value],
    callee: MethodId,
    exc: ObjRef,
    pending: &mut u64,
) -> Result<EvalOutcome, VmError> {
    let c = &art.code;
    if EXACT {
        env.charge(cost::DEOPT_PENALTY)?;
    } else {
        *pending += cost::DEOPT_PENALTY;
    }
    let dst = c[pc + 3];
    let returns = program.method(callee).returns_value;
    if returns && dst != NO_REG {
        // The after-state has the (never produced) result on the stack:
        // stand in a null.
        regs[dst as usize] = Value::Null;
    }
    let point = &art.deopts[c[pc + 4] as usize];
    let (mut frames, rematerialized) = materialize_frames(program, env, point, regs)?;
    frames.rewind_to_invoke(returns);
    Ok(EvalOutcome::Unwind {
        exception: exc,
        frames,
        rematerialized,
    })
}

/// The dispatch loop. Runs the running activation of `m` from `pc`, and
/// calls and returns from compiled callees in line, until the run's entry
/// activation returns or the running activation ends any other way.
/// `EXACT` charges every cost through the host as it is incurred (a fuel
/// limit is in force); otherwise charges add up in `pending`.
///
/// It is out of line so that the running activation's code and registers
/// get host registers while the rest of the run's state stays in `m`. The
/// batched charges add up in a local of this function, which `ops` passes
/// to nothing it does not inline: each operation's charge is an addition
/// in a register, not a store the next operation waits for.
#[inline(never)]
fn dispatch<E: EvalEnv + ?Sized, const EXACT: bool>(
    program: &Program,
    env: &mut E,
    m: &mut Machine<'_>,
    pc: usize,
    pending: &mut u64,
) -> Result<Exit, VmError> {
    let mut batched = *pending;
    let exit = ops::<E, EXACT>(program, env, m, pc, &mut batched);
    *pending = batched;
    exit
}

/// [`dispatch`]'s loop. `pending` never reaches a function that is not
/// inlined here, and neither does the address of `pc`: each instruction
/// reads its fixed part as one array ([`insn`]), and its register
/// operands index the running activation's [`Window`] without a check.
#[allow(clippy::too_many_lines)]
#[inline(always)]
fn ops<E: EvalEnv + ?Sized, const EXACT: bool>(
    program: &Program,
    env: &mut E,
    m: &mut Machine<'_>,
    mut pc: usize,
    pending: &mut u64,
) -> Result<Exit, VmError> {
    let mut art: &LinearArtifact;
    let mut c: &[u32];
    let mut regs: &mut Window;
    // The running instruction's fixed part.
    let mut w: &[u32; INSN_WORDS];
    // After a switch: the running activation's code and window.
    macro_rules! load {
        () => {
            art = artifact(m.entry, &m.stack.codes, m.running);
            c = &art.code;
            regs = window(&mut m.stack.values, m.base);
        };
    }
    load!();

    // The register operand `$k` words past the opcode.
    macro_rules! reg {
        ($k:expr) => {
            regs[w[$k] as u8 as usize]
        };
    }

    macro_rules! charge {
        ($n:expr) => {
            if EXACT {
                env.charge($n)?;
            } else {
                *pending += $n;
            }
        };
    }

    // `[dst, a, b]` integer arithmetic, `b` a register or, after `imm`, a
    // pool index: binds the operands to `$a` and `$b` and stores `$body`,
    // which may trap with `?`.
    macro_rules! arith {
        ($a:ident, $b:ident => $body:expr) => {
            arith!(@ reg!(3).as_int()?, $a, $b => $body)
        };
        (imm $a:ident, $b:ident => $body:expr) => {
            arith!(@ art.pool[w[3] as usize], $a, $b => $body)
        };
        (@ $right:expr, $a:ident, $b:ident => $body:expr) => {{
            charge!(cost::ALU_OP);
            let $a = reg!(2).as_int()?;
            let $b = $right;
            reg!(1) = Value::Int($body);
            pc += 4;
        }};
    }

    loop {
        w = insn(c, pc);
        match w[0] {
            op::CONST_INT => {
                reg!(1) = Value::Int(art.pool[w[2] as usize]);
                pc += 3;
            }
            op::CONST_NULL => {
                reg!(1) = Value::Null;
                pc += 2;
            }
            op::ADD => arith!(a, b => a.wrapping_add(b)),
            op::SUB => arith!(a, b => a.wrapping_sub(b)),
            op::MUL => arith!(a, b => a.wrapping_mul(b)),
            op::DIV => arith!(a, b => div(a, b)?),
            op::REM => arith!(a, b => rem(a, b)?),
            op::AND => arith!(a, b => a & b),
            op::OR => arith!(a, b => a | b),
            op::XOR => arith!(a, b => a ^ b),
            op::SHL => arith!(a, b => a.wrapping_shl((b & 63) as u32)),
            op::SHR => arith!(a, b => a.wrapping_shr((b & 63) as u32)),
            op::ADD_I => arith!(imm a, b => a.wrapping_add(b)),
            op::SUB_I => arith!(imm a, b => a.wrapping_sub(b)),
            op::MUL_I => arith!(imm a, b => a.wrapping_mul(b)),
            op::DIV_I => arith!(imm a, b => div(a, b)?),
            op::REM_I => arith!(imm a, b => rem(a, b)?),
            op::AND_I => arith!(imm a, b => a & b),
            op::OR_I => arith!(imm a, b => a | b),
            op::XOR_I => arith!(imm a, b => a ^ b),
            op::SHL_I => arith!(imm a, b => a.wrapping_shl((b & 63) as u32)),
            op::SHR_I => arith!(imm a, b => a.wrapping_shr((b & 63) as u32)),
            op::NEG => {
                charge!(cost::ALU_OP);
                let a = reg!(2).as_int()?;
                reg!(1) = Value::Int(a.wrapping_neg());
                pc += 3;
            }
            op::COMPARE => {
                charge!(cost::ALU_OP);
                let a = reg!(3).as_int()?;
                let b = reg!(4).as_int()?;
                reg!(2) = Value::from_bool(compare(w[1], a, b));
                pc += 5;
            }
            op::REF_EQ => {
                charge!(cost::ALU_OP);
                let a = reg!(2).as_ref_or_null()?;
                let b = reg!(3).as_ref_or_null()?;
                reg!(1) = Value::from_bool(a == b);
                pc += 4;
            }
            op::IS_NULL => {
                charge!(cost::ALU_OP);
                let v = reg!(2).as_ref_or_null()?;
                reg!(1) = Value::from_bool(v.is_none());
                pc += 3;
            }
            op::INSTANCE_OF => {
                charge!(cost::ALU_OP);
                let v = reg!(2).as_ref_or_null()?;
                let class = ClassId(w[3]);
                let is = match v {
                    Some(r) => {
                        let dynamic = env.heap().class_of(r)?;
                        if w[4] != 0 {
                            dynamic == class
                        } else {
                            program.is_subclass_of(dynamic, class)
                        }
                    }
                    None => false,
                };
                reg!(1) = Value::from_bool(is);
                pc += 5;
            }
            op::CHECK_CAST => {
                charge!(cost::ALU_OP);
                let v = reg!(2);
                if let Some(r) = v.as_ref_or_null()? {
                    let class = ClassId(w[3]);
                    let dynamic = env.heap().class_of(r)?;
                    if !program.is_subclass_of(dynamic, class) {
                        return Err(VmError::ClassCast {
                            expected: program.class(class).name.clone(),
                            found: program.class(dynamic).name.clone(),
                        });
                    }
                }
                reg!(1) = v;
                pc += 4;
            }
            op::NEW => {
                charge!(u64::from(w[3]));
                let r = env.heap().try_alloc_instance(program, ClassId(w[2]))?;
                env.profiler().record_alloc();
                reg!(1) = Value::Ref(r);
                pc += 4;
            }
            op::NEW_ARRAY => {
                let len = reg!(2).as_int()?;
                charge!(cost::array_alloc_cost(len));
                let r = env.heap().alloc_array(decode_kind(w[3]), len)?;
                env.profiler().record_alloc();
                reg!(1) = Value::Ref(r);
                pc += 4;
            }
            op::LOAD_FIELD => {
                charge!(cost::MEMORY_OP);
                let obj = reg!(2).as_ref()?;
                let v = env.heap().get_field_at(
                    program,
                    obj,
                    ClassId(w[3]),
                    w[4] as usize,
                    FieldId(w[5]),
                )?;
                reg!(1) = v;
                pc += 6;
            }
            op::STORE_FIELD => {
                charge!(cost::MEMORY_OP);
                let obj = reg!(1).as_ref()?;
                let v = reg!(2);
                env.heap().put_field_at(
                    program,
                    obj,
                    ClassId(w[3]),
                    w[4] as usize,
                    FieldId(w[5]),
                    v,
                )?;
                pc += 6;
            }
            op::LOAD_INDEXED => {
                charge!(cost::MEMORY_OP);
                let arr = reg!(2).as_ref()?;
                let idx = reg!(3).as_int()?;
                reg!(1) = env.heap().array_get(arr, idx)?;
                pc += 4;
            }
            op::STORE_INDEXED => {
                charge!(cost::MEMORY_OP);
                let arr = reg!(1).as_ref()?;
                let idx = reg!(2).as_int()?;
                let v = reg!(3);
                env.heap().array_set(arr, idx, v)?;
                pc += 4;
            }
            op::ARRAY_LEN => {
                charge!(cost::MEMORY_OP);
                let arr = reg!(2).as_ref()?;
                let len = env.heap().array_length(arr)?;
                reg!(1) = Value::Int(len);
                pc += 3;
            }
            op::MONITOR_ENTER => {
                charge!(cost::MONITOR_OP);
                let obj = reg!(1).as_ref()?;
                env.heap().try_monitor_enter(obj)?;
                pc += 2;
            }
            op::MONITOR_EXIT => {
                charge!(cost::MONITOR_OP);
                let obj = reg!(1).as_ref()?;
                env.heap().monitor_exit(obj)?;
                pc += 2;
            }
            op::GET_STATIC => {
                charge!(cost::MEMORY_OP);
                reg!(1) = env.statics().get(StaticId(w[2]));
                pc += 3;
            }
            op::PUT_STATIC => {
                charge!(cost::MEMORY_OP);
                let v = reg!(1);
                env.statics().set(StaticId(w[2]), v);
                pc += 3;
            }
            op::INVOKE => {
                let resolved = if w[2] != 0 {
                    let recv = reg!(6).as_ref()?;
                    let dynamic = env.heap().class_of(recv)?;
                    program
                        .resolve_virtual(dynamic, MethodId(w[1]))
                        .map_err(|e| VmError::NoSuchMethod(e.to_string()))?
                } else {
                    MethodId(w[1])
                };
                let argc = w[5] as usize;
                let top = m.base + art.num_regs as usize;
                pass_args(&mut m.stack.values, m.base, top, &c[pc + 6..pc + 6 + argc]);
                if m.attributed {
                    flush(env, pending)?;
                }
                m.stack.top = top;
                match env.call(program, resolved, argc, &mut m.stack) {
                    Ok(Call::Compiled(code, ctx)) => {
                        let cycles = cost::CALL_OVERHEAD + cost::icache_cost(code.code_size);
                        if m.stack.values.len() < top + WINDOW {
                            grow(&mut m.stack.values, top + WINDOW);
                        }
                        let slot = hold(&mut m.stack.codes, m.held, code);
                        m.stack.frames.push(Suspended {
                            code: m.running,
                            pc,
                            base: m.base,
                            ctx,
                        });
                        (m.running, m.base, pc) = (slot, top, 0);
                        load!();
                        charge!(cycles);
                    }
                    Ok(Call::Returned(v)) => {
                        load!();
                        returned(c, &mut pc, regs, v);
                    }
                    Err(VmError::Thrown(exc)) => {
                        let (art, regs) = registers(m);
                        let mut cycles = 0;
                        let outcome = unwinding::<E, EXACT>(
                            program,
                            env,
                            art,
                            pc,
                            regs,
                            resolved,
                            exc,
                            &mut cycles,
                        );
                        *pending += cycles;
                        return outcome.map(Exit::End);
                    }
                    Err(e) => return Err(e),
                }
            }
            op::COMMIT => {
                let mut cycles = 0;
                let done = commit::<E, EXACT>(
                    program,
                    env,
                    &art.commits[w[1] as usize],
                    regs,
                    &mut cycles,
                );
                *pending += cycles;
                done?;
                pc += 2;
            }
            op::GUARD => {
                charge!(cost::BRANCH_OP);
                let cond = reg!(1).as_bool()?;
                if cond == (w[2] != 0) {
                    charge!(cost::DEOPT_PENALTY);
                    let point = &art.deopts[w[4] as usize];
                    let (frames, rematerialized) = materialize_frames(program, env, point, regs)?;
                    return Ok(Exit::End(EvalOutcome::Deopt {
                        reason: decode_reason(w[3]),
                        frames,
                        rematerialized,
                    }));
                }
                pc += 5;
            }
            op::GUARD_CMP | op::GUARD_CMP_I => {
                charge!(cost::ALU_OP);
                let a = reg!(2).as_int()?;
                let b = if w[0] == op::GUARD_CMP_I {
                    art.pool[w[3] as usize]
                } else {
                    reg!(3).as_int()?
                };
                charge!(cost::BRANCH_OP);
                if compare(w[1], a, b) {
                    charge!(cost::DEOPT_PENALTY);
                    let point = &art.deopts[w[5] as usize];
                    let (frames, rematerialized) = materialize_frames(program, env, point, regs)?;
                    return Ok(Exit::End(EvalOutcome::Deopt {
                        reason: decode_reason(w[4]),
                        frames,
                        rematerialized,
                    }));
                }
                pc += 6;
            }
            op::DEOPT => {
                charge!(cost::DEOPT_PENALTY);
                let point = &art.deopts[w[2] as usize];
                let (frames, rematerialized) = materialize_frames(program, env, point, regs)?;
                return Ok(Exit::End(EvalOutcome::Deopt {
                    reason: decode_reason(w[1]),
                    frames,
                    rematerialized,
                }));
            }
            op::IF => {
                charge!(cost::BRANCH_OP);
                let cond = reg!(1).as_bool()?;
                pc = if cond { w[2] } else { w[3] } as usize;
            }
            op::IF_CMP | op::IF_CMP_I => {
                charge!(cost::ALU_OP);
                let a = reg!(2).as_int()?;
                let b = if w[0] == op::IF_CMP_I {
                    art.pool[w[3] as usize]
                } else {
                    reg!(3).as_int()?
                };
                charge!(cost::BRANCH_OP);
                pc = if compare(w[1], a, b) { w[4] } else { w[5] } as usize;
            }
            op::EDGE => {
                charge!(cost::BRANCH_OP);
                pc = edge(c, pc, regs);
            }
            op::LOOP_EDGE => {
                charge!(cost::BRANCH_OP);
                // Compiled-code safepoint at the loop back-edge: a
                // collection leaves the loop, which hands the host the
                // register stack and then makes the edge.
                if env.safepoint() {
                    return Ok(Exit::Collect(pc));
                }
                pc = edge(c, pc, regs);
            }
            op::MOVE => {
                reg!(1) = reg!(2);
                pc += 3;
            }
            op::RETURN => {
                let v = if w[1] == NO_REG { None } else { Some(reg!(1)) };
                if m.stack.frames.len() == m.floor {
                    return Ok(Exit::Return(v));
                }
                if m.attributed {
                    flush(env, pending)?;
                }
                let caller = m.stack.frames.pop().expect("a callee has a caller");
                m.stack.codes[m.running as usize].users -= 1;
                env.profiler().restore(caller.ctx);
                env.leave();
                (m.running, m.base, pc) = (caller.code, caller.base, caller.pc);
                load!();
                returned(c, &mut pc, regs, v);
            }
            op::THROW => {
                let code_v = reg!(1).as_int()?;
                return Err(VmError::UserException(code_v));
            }
            op::UNWIND => {
                let exc = reg!(1).as_ref()?;
                return Err(VmError::Thrown(exc));
            }
            other => return Err(invalid_opcode(other, pc)),
        }
    }
}

/// The error for an opcode the loop does not know. Out of line, and `pc`
/// passed by value: formatting it in the loop took its address, and the
/// loop kept `pc` in memory for every instruction.
#[cold]
#[inline(never)]
fn invalid_opcode(op: u32, pc: usize) -> VmError {
    VmError::Internal(format!("linear dispatch: invalid opcode {op} at pc {pc}"))
}

/// Writes each argument of a call once, from the registers `arg_regs` of
/// the caller's window at `base` into the first registers of the next
/// window, at `top`: a compiled callee's parameters. Out of line:
/// inlined into the dispatch loop, this loop and its growth path
/// reshaped the register allocation of every handler, and loops that
/// hardly call ran 14 % slower.
#[inline(never)]
fn pass_args(values: &mut Vec<Value>, base: usize, top: usize, arg_regs: &[u32]) {
    if values.len() < top + arg_regs.len() {
        grow(values, top + arg_regs.len());
    }
    let (caller, callee) = values.split_at_mut(top);
    for (arg, &r) in callee.iter_mut().zip(arg_regs) {
        *arg = caller[base + r as usize];
    }
}

/// Grows the register stack to `len` registers, once per new depth.
#[cold]
#[inline(never)]
fn grow(values: &mut Vec<Value>, len: usize) {
    values.resize(len, Value::Null);
}

/// Performs the phi moves of the edge instruction at `pc` and returns
/// its target.
#[inline(always)]
fn edge(c: &[u32], pc: usize, regs: &mut Window) -> usize {
    let w = insn(c, pc);
    let n = w[2] as usize;
    for m in c[pc + 3..pc + 3 + 2 * n].chunks_exact(2) {
        regs[m[0] as u8 as usize] = regs[m[1] as u8 as usize];
    }
    w[1] as usize
}

/// Wrapping division; traps on a zero divisor.
#[inline(always)]
fn div(a: i64, b: i64) -> Result<i64, VmError> {
    if b == 0 {
        return Err(VmError::DivisionByZero);
    }
    Ok(a.wrapping_div(b))
}

/// Wrapping remainder; traps on a zero divisor.
#[inline(always)]
fn rem(a: i64, b: i64) -> Result<i64, VmError> {
    if b == 0 {
        return Err(VmError::DivisionByZero);
    }
    Ok(a.wrapping_rem(b))
}

/// Evaluates comparison `code` (see [`super::cmp_code`]).
#[inline(always)]
fn compare(code: u32, a: i64, b: i64) -> bool {
    match code {
        0 => a == b,
        1 => a != b,
        2 => a < b,
        3 => a <= b,
        4 => a > b,
        _ => a >= b,
    }
}

/// Group materialization (paper §4): allocates each object of the
/// template already filled, then re-enters monitors. The heap queues the
/// members' handles first ([`Heap::group`]) and nothing else allocates in
/// between, so a cyclic reference can name a member before it exists. An
/// instance is filled as it is allocated, one write per field; an array
/// is allocated with default elements and then filled.
/// Out of line: what a commit costs is its work per object, not the
/// call, and a fast path inlined into the dispatch loop grew it and
/// slowed the arms that do not commit.
#[inline(never)]
fn commit<E: EvalEnv + ?Sized, const EXACT: bool>(
    program: &Program,
    env: &mut E,
    t: &super::LinearCommit,
    regs: &mut [Value],
    pending: &mut u64,
) -> Result<(), VmError> {
    let mut charge = |env: &mut E, cycles: u64| {
        if EXACT {
            env.charge(cycles)
        } else {
            *pending += cycles;
            Ok(())
        }
    };
    let group = env.heap().group(t.objects.len())?;
    for o in &t.objects {
        charge(env, o.alloc_cycles)?;
        // The object is exactly its template's shape, so the template's
        // field order is its slot order.
        let values = o.fields.iter().map(|src| match *src {
            super::CommitFieldSrc::Reg(rg) => SlotInit::from(regs[rg as usize]),
            super::CommitFieldSrc::Int(v) => SlotInit::from(Value::Int(v)),
            super::CommitFieldSrc::Null => SlotInit::from(Value::Null),
            super::CommitFieldSrc::SameCommit(j) => group.member(j as usize),
        });
        let heap = env.heap();
        let r = match o.shape {
            AllocShape::Instance { class } => {
                heap.try_alloc_instance_with(program, class, values)?
            }
            AllocShape::Array { kind, length } => {
                let r = heap.alloc_array(kind, i64::from(length))?;
                heap.init_slots(r, values)?;
                r
            }
        };
        env.profiler().record_alloc();
        // A fresh SSA register: no field source reads it.
        if o.dst != NO_REG {
            regs[o.dst as usize] = Value::Ref(r);
        }
    }
    for (i, o) in t.objects.iter().enumerate() {
        for _ in 0..o.lock_count {
            charge(env, cost::MONITOR_OP)?;
            let heap = env.heap();
            heap.try_monitor_enter(heap.member(group, i))?;
        }
    }
    Ok(())
}

/// Allocates the default-valued object of a rematerialization template
/// (both tiers).
pub(crate) fn alloc_shape(
    program: &Program,
    heap: &mut Heap,
    shape: AllocShape,
) -> Result<ObjRef, VmError> {
    match shape {
        AllocShape::Instance { class } => heap.try_alloc_instance(program, class),
        AllocShape::Array { kind, length } => heap.alloc_array(kind, i64::from(length)),
    }
}

/// Reconstructs the interpreter frame chain from a compiled deopt point,
/// rematerializing virtual objects (paper §5.5). Mirrors the graph
/// evaluator's `build_deopt_frames` exactly — same allocation order, same
/// inventory, same lock re-entries — so traces and stats are
/// byte-identical between the tiers.
fn materialize_frames<E: EvalEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    point: &DeoptPoint,
    regs: &[Value],
) -> Result<(FrameChain, Vec<AllocShape>), VmError> {
    let mut cache: Vec<Option<ObjRef>> = vec![None; point.vobjs.len()];
    let mut inventory = Vec::new();
    let slots = point.frames.iter().map(|f| f.locals.len() + f.stack.len());
    let mut frames = FrameChain::with_capacity(point.frames.len(), slots.sum());
    let mut resolve =
        |env: &mut E, s| resolve_slot(program, env, point, regs, &mut cache, &mut inventory, s);
    for f in &point.frames {
        frames.push_frame(f.method, f.bci);
        for &s in &f.locals {
            frames.push_local(resolve(env, s)?);
        }
        for &s in &f.stack {
            frames.push_operand(resolve(env, s)?);
        }
        for &(s, sync) in &f.locks {
            frames.push_lock(resolve(env, s)?.as_ref()?, sync)?;
        }
    }
    Ok((frames, inventory))
}

/// Resolves one compiled frame-state slot: registers read the frame,
/// constants are themselves, virtual objects are rematerialized
/// (cycle-safe two-phase construction, locks re-entered).
fn resolve_slot<E: EvalEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    point: &DeoptPoint,
    regs: &[Value],
    cache: &mut [Option<ObjRef>],
    inventory: &mut Vec<AllocShape>,
    src: SlotSrc,
) -> Result<Value, VmError> {
    let vi = match src {
        SlotSrc::Reg(r) => return Ok(regs[r as usize]),
        SlotSrc::Int(v) => return Ok(Value::Int(v)),
        SlotSrc::Null => return Ok(Value::Null),
        SlotSrc::Virtual(i) => i as usize,
    };
    if let Some(r) = cache[vi] {
        return Ok(Value::Ref(r));
    }
    let vo = &point.vobjs[vi];
    let r = alloc_shape(program, env.heap(), vo.shape)?;
    env.heap().stats.rematerialized += 1;
    env.profiler().record_alloc();
    inventory.push(vo.shape);
    cache[vi] = Some(r);
    // Each field is written as soon as it is resolved: a field that is
    // itself virtual is allocated in between, in the same depth-first
    // order as the graph oracle's.
    for (k, &fsrc) in vo.fields.iter().enumerate() {
        let value = resolve_slot(program, env, point, regs, cache, inventory, fsrc)?;
        env.heap().init_slot(r, k, value)?;
    }
    for _ in 0..vo.lock_count {
        env.heap().try_monitor_enter(r)?;
    }
    Ok(Value::Ref(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompilerOptions, OptLevel};

    /// A run that calls more distinct artifacts than [`HELD_CODES`] — a
    /// callee recompiled again and again — reuses the slots no activation
    /// uses, so its code table stays bounded, and never a slot in use.
    #[test]
    fn code_table_reuses_slots_no_activation_uses() {
        let program =
            pea_bytecode::asm::parse_program("method f 0 returns { const 1 retv }").unwrap();
        let method = program.static_method_by_name("f").unwrap();
        let options = CompilerOptions::with_opt_level(OptLevel::Pea);
        let fresh = || Arc::new(compile(&program, method, None, &options).unwrap());
        let mut codes = Vec::new();
        // A caller suspended for the whole run.
        let caller = fresh();
        let caller_slot = hold(&mut codes, 0, &caller) as usize;
        for _ in 0..3 * HELD_CODES {
            let callee = fresh();
            let slot = hold(&mut codes, 0, &callee) as usize;
            assert!(Arc::ptr_eq(&codes[slot].code, &callee));
            assert_eq!(hold(&mut codes, 0, &callee) as usize, slot, "held once");
            // Both of the callee's activations end.
            codes[slot].users -= 2;
        }
        assert_eq!(codes.len(), HELD_CODES);
        assert!(Arc::ptr_eq(&codes[caller_slot].code, &caller));
        assert_eq!(codes[caller_slot].users, 1);
    }
}
