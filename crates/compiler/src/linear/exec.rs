//! The direct-threaded dispatch loop over a [`LinearArtifact`](super::LinearArtifact).
//!
//! Executes the dense `u32` instruction stream without touching
//! [`pea_ir::Graph`] or `NodeId` anywhere on the hot path: operands are
//! registers in a pooled per-thread frame, field offsets and call targets
//! come pre-resolved from the artifact, and deopt metadata is read from
//! the compiled side tables.
//!
//! Cycle parity with graph evaluation is bit-exact: every handler charges
//! the same `pea_runtime::cost` constants in the same order `evaluate`
//! does. When the host enforces no fuel limit
//! ([`EvalEnv::has_fuel_limit`]), charges are accumulated locally and
//! flushed once on exit — the running total is observationally equivalent
//! because only the fuel check ever reads intermediate values.
//!
//! The loop is monomorphic: [`execute`] is generic over the host, so heap
//! access and charges are direct calls the optimizer can inline, and `run`
//! is instantiated once per charging discipline (`EXACT`), so the
//! unobserved loop carries no per-charge test.

use super::{decode_kind, decode_reason, op, DeoptPoint, SlotSrc, NO_REG};
use crate::eval::{DeoptFrame, EvalEnv, EvalOutcome, INLINE_ARGS};
use crate::pipeline::CompiledMethod;
use pea_bytecode::{ClassId, FieldId, MethodId, Program, StaticId};
use pea_ir::AllocShape;
use pea_runtime::cost;
use pea_runtime::{Heap, ObjRef, Value, VmError};
use std::cell::RefCell;

thread_local! {
    /// Register-file pool: frames are reused across calls (and across the
    /// recursion through [`EvalEnv::invoke`]) so the hot path never
    /// allocates.
    static REG_POOL: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

/// Executes the lowered form of `code` with `args`.
///
/// # Errors
///
/// Runtime errors ([`VmError`]) exactly as graph evaluation (and the
/// interpreter) would raise them for the same program state.
///
/// # Panics
///
/// Panics if `code` has no [`super::LinearArtifact`], which a successful
/// `compile` always produces: a method that cannot be lowered is a compile
/// bailout and stays interpreted.
pub fn execute<E: EvalEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    code: &CompiledMethod,
    args: &[Value],
) -> Result<EvalOutcome, VmError> {
    let art = code.linear.as_ref().expect("method has no linear artifact");
    env.charge(cost::CALL_OVERHEAD + cost::icache_cost(code.code_size))?;
    let mut regs = REG_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    // Registers are written before every read (SSA dominance carries over
    // to the lowered form), so stale values from the frame's previous use
    // are never observable; only the size must fit.
    regs.resize(art.num_regs as usize, Value::Null);
    let mut pending: u64 = 0;
    let result = if env.has_fuel_limit() {
        run::<E, true>(program, env, art, args, &mut regs, &mut pending)
    } else {
        run::<E, false>(program, env, art, args, &mut regs, &mut pending)
    };
    REG_POOL.with(|p| p.borrow_mut().push(std::mem::take(&mut regs)));
    if pending > 0 {
        // No fuel limit is in force (exact mode charges inline), so this
        // flush cannot fail.
        env.charge(pending)?;
    }
    result
}

/// The dispatch loop. `EXACT` charges every cost through the host as it
/// is incurred (a fuel limit is in force); otherwise charges add up in
/// `pending`, which the caller flushes once.
#[allow(clippy::too_many_lines)]
fn run<E: EvalEnv + ?Sized, const EXACT: bool>(
    program: &Program,
    env: &mut E,
    art: &super::LinearArtifact,
    args: &[Value],
    regs: &mut [Value],
    pending: &mut u64,
) -> Result<EvalOutcome, VmError> {
    let c: &[u32] = &art.code;
    let mut pc = 0usize;

    macro_rules! charge {
        ($n:expr) => {
            if EXACT {
                env.charge($n)?;
            } else {
                *pending += $n;
            }
        };
    }

    // `[dst, a, b]` integer arithmetic: binds the operands to `$a` and
    // `$b` and stores `$body`, which may trap with `return`.
    macro_rules! arith {
        ($a:ident, $b:ident => $body:expr) => {{
            charge!(cost::ALU_OP);
            let $a = regs[c[pc + 2] as usize].as_int()?;
            let $b = regs[c[pc + 3] as usize].as_int()?;
            regs[c[pc + 1] as usize] = Value::Int($body);
            pc += 4;
        }};
    }

    loop {
        match c[pc] {
            op::LOAD_PARAM => {
                regs[c[pc + 1] as usize] = args[c[pc + 2] as usize];
                pc += 3;
            }
            op::CONST_INT => {
                regs[c[pc + 1] as usize] = Value::Int(art.pool[c[pc + 2] as usize]);
                pc += 3;
            }
            op::CONST_NULL => {
                regs[c[pc + 1] as usize] = Value::Null;
                pc += 2;
            }
            op::ADD => arith!(a, b => a.wrapping_add(b)),
            op::SUB => arith!(a, b => a.wrapping_sub(b)),
            op::MUL => arith!(a, b => a.wrapping_mul(b)),
            op::DIV => arith!(a, b => {
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                a.wrapping_div(b)
            }),
            op::REM => arith!(a, b => {
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                a.wrapping_rem(b)
            }),
            op::AND => arith!(a, b => a & b),
            op::OR => arith!(a, b => a | b),
            op::XOR => arith!(a, b => a ^ b),
            op::SHL => arith!(a, b => a.wrapping_shl((b & 63) as u32)),
            op::SHR => arith!(a, b => a.wrapping_shr((b & 63) as u32)),
            op::NEG => {
                charge!(cost::ALU_OP);
                let a = regs[c[pc + 2] as usize].as_int()?;
                regs[c[pc + 1] as usize] = Value::Int(a.wrapping_neg());
                pc += 3;
            }
            op::COMPARE => {
                charge!(cost::ALU_OP);
                let a = regs[c[pc + 3] as usize].as_int()?;
                let b = regs[c[pc + 4] as usize].as_int()?;
                regs[c[pc + 2] as usize] = Value::from_bool(compare(c[pc + 1], a, b));
                pc += 5;
            }
            op::REF_EQ => {
                charge!(cost::ALU_OP);
                let a = regs[c[pc + 2] as usize].as_ref_or_null()?;
                let b = regs[c[pc + 3] as usize].as_ref_or_null()?;
                regs[c[pc + 1] as usize] = Value::from_bool(a == b);
                pc += 4;
            }
            op::IS_NULL => {
                charge!(cost::ALU_OP);
                let v = regs[c[pc + 2] as usize].as_ref_or_null()?;
                regs[c[pc + 1] as usize] = Value::from_bool(v.is_none());
                pc += 3;
            }
            op::INSTANCE_OF => {
                charge!(cost::ALU_OP);
                let v = regs[c[pc + 2] as usize].as_ref_or_null()?;
                let class = ClassId(c[pc + 3]);
                let is = match v {
                    Some(r) => {
                        let dynamic = env.heap().class_of(r)?;
                        if c[pc + 4] != 0 {
                            dynamic == class
                        } else {
                            program.is_subclass_of(dynamic, class)
                        }
                    }
                    None => false,
                };
                regs[c[pc + 1] as usize] = Value::from_bool(is);
                pc += 5;
            }
            op::CHECK_CAST => {
                charge!(cost::ALU_OP);
                let v = regs[c[pc + 2] as usize];
                if let Some(r) = v.as_ref_or_null()? {
                    let class = ClassId(c[pc + 3]);
                    let dynamic = env.heap().class_of(r)?;
                    if !program.is_subclass_of(dynamic, class) {
                        return Err(VmError::ClassCast {
                            expected: program.class(class).name.clone(),
                            found: program.class(dynamic).name.clone(),
                        });
                    }
                }
                regs[c[pc + 1] as usize] = v;
                pc += 4;
            }
            op::NEW => {
                charge!(u64::from(c[pc + 3]));
                env.profiler().record_alloc();
                let r = env.heap().try_alloc_instance(program, ClassId(c[pc + 2]))?;
                regs[c[pc + 1] as usize] = Value::Ref(r);
                pc += 4;
            }
            op::NEW_ARRAY => {
                let len = regs[c[pc + 2] as usize].as_int()?;
                charge!(cost::array_alloc_cost(len));
                env.profiler().record_alloc();
                let r = env.heap().alloc_array(decode_kind(c[pc + 3]), len)?;
                regs[c[pc + 1] as usize] = Value::Ref(r);
                pc += 4;
            }
            op::LOAD_FIELD => {
                charge!(cost::MEMORY_OP);
                let obj = regs[c[pc + 2] as usize].as_ref()?;
                let v = env.heap().get_field_at(
                    program,
                    obj,
                    ClassId(c[pc + 3]),
                    c[pc + 4] as usize,
                    FieldId(c[pc + 5]),
                )?;
                regs[c[pc + 1] as usize] = v;
                pc += 6;
            }
            op::STORE_FIELD => {
                charge!(cost::MEMORY_OP);
                let obj = regs[c[pc + 1] as usize].as_ref()?;
                let v = regs[c[pc + 2] as usize];
                env.heap().put_field_at(
                    program,
                    obj,
                    ClassId(c[pc + 3]),
                    c[pc + 4] as usize,
                    FieldId(c[pc + 5]),
                    v,
                )?;
                pc += 6;
            }
            op::LOAD_INDEXED => {
                charge!(cost::MEMORY_OP);
                let arr = regs[c[pc + 2] as usize].as_ref()?;
                let idx = regs[c[pc + 3] as usize].as_int()?;
                regs[c[pc + 1] as usize] = env.heap().array_get(arr, idx)?;
                pc += 4;
            }
            op::STORE_INDEXED => {
                charge!(cost::MEMORY_OP);
                let arr = regs[c[pc + 1] as usize].as_ref()?;
                let idx = regs[c[pc + 2] as usize].as_int()?;
                let v = regs[c[pc + 3] as usize];
                env.heap().array_set(arr, idx, v)?;
                pc += 4;
            }
            op::ARRAY_LEN => {
                charge!(cost::MEMORY_OP);
                let arr = regs[c[pc + 2] as usize].as_ref()?;
                let len = env.heap().array_length(arr)?;
                regs[c[pc + 1] as usize] = Value::Int(len);
                pc += 3;
            }
            op::MONITOR_ENTER => {
                charge!(cost::MONITOR_OP);
                let obj = regs[c[pc + 1] as usize].as_ref()?;
                env.heap().monitor_enter(obj);
                pc += 2;
            }
            op::MONITOR_EXIT => {
                charge!(cost::MONITOR_OP);
                let obj = regs[c[pc + 1] as usize].as_ref()?;
                env.heap().monitor_exit(obj)?;
                pc += 2;
            }
            op::GET_STATIC => {
                charge!(cost::MEMORY_OP);
                regs[c[pc + 1] as usize] = env.statics().get(StaticId(c[pc + 2]));
                pc += 3;
            }
            op::PUT_STATIC => {
                charge!(cost::MEMORY_OP);
                let v = regs[c[pc + 1] as usize];
                env.statics().set(StaticId(c[pc + 2]), v);
                pc += 3;
            }
            op::INVOKE => {
                let dst = c[pc + 3];
                let argc = c[pc + 5] as usize;
                let arg_regs = &c[pc + 6..pc + 6 + argc];
                let mut inline = [Value::Null; INLINE_ARGS];
                let spilled: Vec<Value>;
                let call_args: &[Value] = if argc <= INLINE_ARGS {
                    for (slot, &r) in inline.iter_mut().zip(arg_regs) {
                        *slot = regs[r as usize];
                    }
                    &inline[..argc]
                } else {
                    spilled = arg_regs.iter().map(|&r| regs[r as usize]).collect();
                    &spilled
                };
                let resolved = if c[pc + 2] != 0 {
                    let recv = call_args[0].as_ref()?;
                    let dynamic = env.heap().class_of(recv)?;
                    program
                        .resolve_virtual(dynamic, MethodId(c[pc + 1]))
                        .map_err(|e| VmError::NoSuchMethod(e.to_string()))?
                } else {
                    MethodId(c[pc + 1])
                };
                match env.invoke(program, resolved, call_args) {
                    Ok(result) => {
                        if let Some(v) = result {
                            if dst != NO_REG {
                                regs[dst as usize] = v;
                            }
                        }
                    }
                    Err(VmError::Thrown(exc)) => {
                        // The callee threw a catchable exception:
                        // deoptimize at the call site and let the
                        // interpreter unwind the rematerialized frames.
                        charge!(cost::DEOPT_PENALTY);
                        let returns = program.method(resolved).returns_value;
                        if returns && dst != NO_REG {
                            // The after-state has the (never produced)
                            // result on the stack: stand in a null.
                            regs[dst as usize] = Value::Null;
                        }
                        let point = &art.deopts[c[pc + 4] as usize];
                        let (mut frames, rematerialized) =
                            materialize_frames(program, env, point, regs)?;
                        let inner = frames.last_mut().expect("invoke state has a frame");
                        if returns {
                            inner.stack.pop();
                        }
                        inner.bci = inner.bci.saturating_sub(1);
                        return Ok(EvalOutcome::Unwind {
                            exception: exc,
                            frames,
                            rematerialized,
                        });
                    }
                    Err(e) => return Err(e),
                }
                pc += 6 + argc;
            }
            op::COMMIT => {
                commit::<E, EXACT>(
                    program,
                    env,
                    &art.commits[c[pc + 1] as usize],
                    regs,
                    pending,
                )?;
                pc += 2;
            }
            op::GUARD => {
                charge!(cost::BRANCH_OP);
                let cond = regs[c[pc + 1] as usize].as_bool()?;
                if cond == (c[pc + 2] != 0) {
                    charge!(cost::DEOPT_PENALTY);
                    let point = &art.deopts[c[pc + 4] as usize];
                    let (frames, rematerialized) = materialize_frames(program, env, point, regs)?;
                    return Ok(EvalOutcome::Deopt {
                        reason: decode_reason(c[pc + 3]),
                        frames,
                        rematerialized,
                    });
                }
                pc += 5;
            }
            op::DEOPT => {
                charge!(cost::DEOPT_PENALTY);
                let point = &art.deopts[c[pc + 2] as usize];
                let (frames, rematerialized) = materialize_frames(program, env, point, regs)?;
                return Ok(EvalOutcome::Deopt {
                    reason: decode_reason(c[pc + 1]),
                    frames,
                    rematerialized,
                });
            }
            op::IF => {
                charge!(cost::BRANCH_OP);
                let cond = regs[c[pc + 1] as usize].as_bool()?;
                pc = if cond { c[pc + 2] } else { c[pc + 3] } as usize;
            }
            op::IF_CMP => {
                charge!(cost::ALU_OP);
                let a = regs[c[pc + 2] as usize].as_int()?;
                let b = regs[c[pc + 3] as usize].as_int()?;
                charge!(cost::BRANCH_OP);
                pc = if compare(c[pc + 1], a, b) {
                    c[pc + 4]
                } else {
                    c[pc + 5]
                } as usize;
            }
            op::EDGE => {
                charge!(cost::BRANCH_OP);
                pc = edge(c, pc, regs);
            }
            op::LOOP_EDGE => {
                charge!(cost::BRANCH_OP);
                // Compiled-code safepoint at the loop back-edge.
                env.safepoint();
                pc = edge(c, pc, regs);
            }
            op::MOVE => {
                regs[c[pc + 1] as usize] = regs[c[pc + 2] as usize];
                pc += 3;
            }
            op::RETURN => {
                let src = c[pc + 1];
                let v = if src == NO_REG {
                    None
                } else {
                    Some(regs[src as usize])
                };
                return Ok(EvalOutcome::Return(v));
            }
            op::THROW => {
                let code_v = regs[c[pc + 1] as usize].as_int()?;
                return Err(VmError::UserException(code_v));
            }
            op::UNWIND => {
                let exc = regs[c[pc + 1] as usize].as_ref()?;
                return Err(VmError::Thrown(exc));
            }
            other => {
                return Err(VmError::Internal(format!(
                    "linear dispatch: invalid opcode {other} at pc {pc}"
                )))
            }
        }
    }
}

/// Performs the phi moves of the edge instruction at `pc` and returns
/// its target.
#[inline(always)]
fn edge(c: &[u32], pc: usize, regs: &mut [Value]) -> usize {
    let n = c[pc + 2] as usize;
    for m in c[pc + 3..pc + 3 + 2 * n].chunks_exact(2) {
        regs[m[0] as usize] = regs[m[1] as usize];
    }
    c[pc + 1] as usize
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

/// Group materialization (paper §4): allocates and fills each object of
/// the template in turn, then re-enters monitors. Objects are numbered in
/// allocation order and nothing else allocates in between, so member `i`
/// is `first + i` and a cyclic reference can name a member before it
/// exists. Out of line: the dispatch loop stays small.
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
    let mut first = 0;
    for (i, o) in t.objects.iter().enumerate() {
        charge(env, o.alloc_cycles)?;
        let heap = env.heap();
        let r = alloc_shape(program, heap, o.shape)?;
        if i == 0 {
            first = r.index();
        }
        // The object is exactly its template's shape, so the template's
        // field order is its slot order.
        let values = o.fields.iter().map(|src| match *src {
            super::CommitFieldSrc::Reg(rg) => regs[rg as usize],
            super::CommitFieldSrc::SameCommit(j) => {
                Value::Ref(ObjRef::from_index(first + j as usize))
            }
        });
        heap.init_slots(r, values)?;
        env.profiler().record_alloc();
        // A fresh SSA register: no field source reads it.
        if o.dst != NO_REG {
            regs[o.dst as usize] = Value::Ref(r);
        }
    }
    for (i, o) in t.objects.iter().enumerate() {
        for _ in 0..o.lock_count {
            charge(env, cost::MONITOR_OP)?;
            env.heap().monitor_enter(ObjRef::from_index(first + i));
        }
    }
    Ok(())
}

/// Allocates the default-valued object of a commit or rematerialization
/// template.
fn alloc_shape(program: &Program, heap: &mut Heap, shape: AllocShape) -> Result<ObjRef, VmError> {
    match shape {
        AllocShape::Instance { class } => heap.try_alloc_instance(program, class),
        AllocShape::Array { kind, length } => heap.alloc_array(kind, i64::from(length)),
    }
}

/// Reconstructs the interpreter frame chain from a compiled deopt point,
/// rematerializing virtual objects (paper §5.5). Mirrors the graph
/// evaluator's `build_deopt_frames` exactly — same allocation order, same
/// inventory labels, same lock re-entries — so traces and stats are
/// byte-identical between the tiers.
fn materialize_frames<E: EvalEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    point: &DeoptPoint,
    regs: &[Value],
) -> Result<(Vec<DeoptFrame>, Vec<String>), VmError> {
    let mut cache: Vec<Option<ObjRef>> = vec![None; point.vobjs.len()];
    let mut inventory: Vec<String> = Vec::new();
    let mut frames = Vec::with_capacity(point.frames.len());
    for f in &point.frames {
        let mut locals = Vec::with_capacity(f.locals.len());
        for &s in &f.locals {
            locals.push(resolve_slot(
                program,
                env,
                point,
                regs,
                &mut cache,
                &mut inventory,
                s,
            )?);
        }
        let mut stack = Vec::with_capacity(f.stack.len());
        for &s in &f.stack {
            stack.push(resolve_slot(
                program,
                env,
                point,
                regs,
                &mut cache,
                &mut inventory,
                s,
            )?);
        }
        let mut locked = Vec::with_capacity(f.locks.len());
        for &(s, sync) in &f.locks {
            let obj =
                resolve_slot(program, env, point, regs, &mut cache, &mut inventory, s)?.as_ref()?;
            locked.push((obj, sync));
        }
        frames.push(DeoptFrame {
            method: f.method,
            bci: f.bci,
            locals,
            stack,
            locked,
        });
    }
    Ok((frames, inventory))
}

/// Resolves one compiled frame-state slot: registers read the frame,
/// virtual objects are rematerialized (cycle-safe two-phase construction,
/// locks re-entered).
fn resolve_slot<E: EvalEnv + ?Sized>(
    program: &Program,
    env: &mut E,
    point: &DeoptPoint,
    regs: &[Value],
    cache: &mut [Option<ObjRef>],
    inventory: &mut Vec<String>,
    src: SlotSrc,
) -> Result<Value, VmError> {
    let vi = match src {
        SlotSrc::Reg(r) => return Ok(regs[r as usize]),
        SlotSrc::Virtual(i) => i as usize,
    };
    if let Some(r) = cache[vi] {
        return Ok(Value::Ref(r));
    }
    let vo = &point.vobjs[vi];
    let r = alloc_shape(program, env.heap(), vo.shape)?;
    env.heap().stats.rematerialized += 1;
    env.profiler().record_alloc();
    inventory.push(vo.name.clone());
    cache[vi] = Some(r);
    let values = vo
        .fields
        .iter()
        .map(|&fsrc| resolve_slot(program, env, point, regs, cache, inventory, fsrc))
        .collect::<Result<Vec<_>, _>>()?;
    env.heap().init_slots(r, values)?;
    for _ in 0..vo.lock_count {
        env.heap().monitor_enter(r);
    }
    Ok(Value::Ref(r))
}
