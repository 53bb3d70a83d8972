//! The compiled-code evaluator: executes a scheduled IR graph against the
//! managed heap under the virtual cycle cost model, standing in for
//! machine code. Implements full deoptimization (paper §2/§5.5): on a
//! failed guard it walks the frame-state chain, **rematerializes** virtual
//! objects (allocating them, filling their fields and re-entering their
//! monitors) and hands reconstructed interpreter frames back to the VM.

use crate::linear::exec::{alloc_shape, swap_stack, RegisterStack};
use crate::pipeline::CompiledMethod;
use pea_bytecode::{MethodId, Program};
use pea_ir::cfg::BlockId;
use pea_ir::{AllocShape, ArithOp, DeoptReason, NodeId, NodeKind};
use pea_runtime::cost;
use pea_runtime::{FrameChain, Heap, ObjRef, Statics, Value, VmError};
use std::sync::Arc;

/// Most arguments a call copies into a fixed buffer on the host stack
/// ([`ArgBuffer`]): a host that interprets a callee of the linear tier
/// copies them there out of the register stack, and the VM copies an
/// interpreted caller's arguments there on their way into compiled code.
/// A call with more spills them to a `Vec`.
pub const INLINE_ARGS: usize = 8;

/// A copy of a call's arguments, taken off a stack the call itself
/// reuses: in a buffer on the host stack when there are at most
/// [`INLINE_ARGS`], else in a `Vec`.
pub enum ArgBuffer {
    /// The first `len` values are the arguments.
    Inline([Value; INLINE_ARGS], usize),
    /// More than [`INLINE_ARGS`] arguments.
    Spilled(Vec<Value>),
}

impl ArgBuffer {
    /// Copies `args`.
    #[inline(always)]
    pub fn copy(args: &[Value]) -> Self {
        if args.len() <= INLINE_ARGS {
            let mut inline = [Value::Null; INLINE_ARGS];
            inline[..args.len()].copy_from_slice(args);
            ArgBuffer::Inline(inline, args.len())
        } else {
            ArgBuffer::Spilled(args.to_vec())
        }
    }
}

impl std::ops::Deref for ArgBuffer {
    type Target = [Value];
    #[inline(always)]
    fn deref(&self) -> &[Value] {
        match self {
            ArgBuffer::Inline(inline, len) => &inline[..*len],
            ArgBuffer::Spilled(args) => args,
        }
    }
}

/// Host services for compiled code (the VM implements this; tests use a
/// trivial implementation).
pub trait EvalEnv {
    /// The managed heap.
    fn heap(&mut self) -> &mut Heap;
    /// Static variable storage.
    fn statics(&mut self) -> &mut Statics;
    /// Charges virtual cycles.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfFuel`] when the budget is exhausted.
    fn charge(&mut self, cycles: u64) -> Result<(), VmError>;
    /// Performs an out-of-line call of the resolved `method` (tier chosen
    /// by the host): every call of the graph evaluator, and the linear
    /// tier's unless the host overrides [`EvalEnv::call`]. Both the
    /// program and the arguments are borrowed from the caller.
    ///
    /// # Errors
    ///
    /// Whatever the callee raises.
    fn invoke(
        &mut self,
        program: &Program,
        method: MethodId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError>;
    /// The linear tier's out-of-line call of the resolved `method`, whose
    /// `argc` arguments the loop wrote into the first registers of the
    /// next window of `stack` ([`RegisterStack::args`]). The host either
    /// hands back the callee's compiled code, which the loop runs in that
    /// window, its arguments already in place, after counting the
    /// activation and entering its attribution context; or it copies the
    /// arguments out ([`ArgBuffer`]) and runs the callee itself — with
    /// `stack`, the loop's register stack, put back as its own
    /// [`EvalEnv::register_stack`] meanwhile, so compiled code the callee
    /// reaches runs on it. The loop inlines this; the default runs every
    /// callee through [`EvalEnv::invoke`].
    ///
    /// # Errors
    ///
    /// Whatever a callee the host ran raises, or a refusal to make the
    /// call at all ([`VmError::StackOverflow`]).
    #[inline(always)]
    fn call(
        &mut self,
        program: &Program,
        method: MethodId,
        argc: usize,
        stack: &mut RegisterStack,
    ) -> Result<Call<'_>, VmError> {
        let args = ArgBuffer::copy(stack.args(argc));
        swap_stack(self, stack);
        let result = self.invoke(program, method, &args);
        swap_stack(self, stack);
        result.map(Call::Returned)
    }
    /// Ends a callee that [`EvalEnv::call`] handed to the linear tier with
    /// any `outcome` but a plain return — a deoptimization, an exception
    /// unwinding through it, or an error — and restores the attribution
    /// context `ctx`. Returns what the callee's caller receives at its
    /// call: a value, an exception to unwind ([`VmError::Thrown`]), or an
    /// error that ends the caller too. The default passes returns and
    /// errors through; a host that hands out no compiled code never sees
    /// anything else.
    ///
    /// # Errors
    ///
    /// What the caller receives instead of a value.
    fn finish(
        &mut self,
        _program: &Program,
        _code: &CompiledMethod,
        outcome: Result<EvalOutcome, VmError>,
        ctx: u64,
    ) -> Result<Option<Value>, VmError> {
        self.profiler().restore(ctx);
        match outcome? {
            EvalOutcome::Return(v) => Ok(v),
            EvalOutcome::Deopt { .. } | EvalOutcome::Unwind { .. } => Err(VmError::Internal(
                "the host cannot resume a compiled callee in the interpreter".into(),
            )),
        }
    }
    /// Releases the activation [`EvalEnv::call`] counted for a compiled
    /// callee, once the callee has ended and its context is restored.
    fn leave(&mut self) {}
    /// The register stack the linear tier's activations live on. `None`
    /// (the default) gives each entry into the loop a stack of its own.
    fn register_stack(&mut self) -> Option<&mut RegisterStack> {
        None
    }
    /// Safepoint poll, issued at every compiled loop back-edge. The VM
    /// installs finished background compilations here — without this,
    /// a long compiled-only loop (hot caller with every callee inlined or
    /// itself compiled) would never reach an interpreter safepoint and
    /// background installs would starve. Returns whether the host wants
    /// to collect its heap: the linear tier then hands it its register
    /// stack ([`EvalEnv::collect`]); the graph evaluator, whose values
    /// live in host frames no collector sees, never collects. The default
    /// does nothing and wants no collection.
    fn safepoint(&mut self) -> bool {
        false
    }
    /// Collects the host's heap at a compiled loop back-edge whose
    /// [`EvalEnv::safepoint`] asked for it; `stack` holds the registers
    /// of every compiled activation. The default does nothing.
    fn collect(&mut self, _stack: &RegisterStack) {}
    /// Whether [`EvalEnv::charge`] enforces a fuel budget. When it does
    /// not (the default), executors may batch charges locally and flush
    /// the sum on exit — the cycle total is identical because only the
    /// fuel check ever observes intermediate values. The VM overrides
    /// this when `--fuel` is set so out-of-fuel positions stay exact.
    fn has_fuel_limit(&self) -> bool {
        false
    }
    /// The host's cycle-attribution profiler; compiled tiers count heap
    /// allocations (including commit-group and deopt rematerializations)
    /// through it. Defaults to the disabled recorder: one branch per
    /// allocation site, nothing recorded.
    fn profiler(&self) -> &pea_metrics::profile::ProfileRecorder {
        pea_metrics::profile::ProfileRecorder::disabled_ref()
    }
}

/// What the host made of a call from the linear tier ([`EvalEnv::call`]).
#[derive(Debug)]
pub enum Call<'a> {
    /// The loop runs this compiled code itself. The host counted one more
    /// activation and entered the callee's attribution context; the
    /// context it left is the second field, which the loop restores when
    /// the callee ends, before [`EvalEnv::leave`].
    Compiled(&'a Arc<CompiledMethod>, u64),
    /// The host ran the callee; this is what it returned.
    Returned(Option<Value>),
}

/// Result of running compiled code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalOutcome {
    /// Normal return.
    Return(Option<Value>),
    /// Deoptimization: the VM must resume the interpreter with `frames`.
    Deopt {
        /// Why the speculation failed.
        reason: DeoptReason,
        /// Reconstructed frames, outermost first.
        frames: FrameChain,
        /// Shapes of the virtual objects rematerialized while rebuilding
        /// the frames (§5.5), in allocation order — the deopt's
        /// rematerialization inventory for tracing and invariant checks.
        rematerialized: Vec<AllocShape>,
    },
    /// An exception thrown by an out-of-line callee is propagating
    /// through this compiled frame: the VM must dispatch it over the
    /// rematerialized `frames` (innermost frame last, positioned at the
    /// faulting call's bci) with the interpreter's unwinder.
    Unwind {
        /// The in-flight exception object.
        exception: ObjRef,
        /// Reconstructed frames, outermost first.
        frames: FrameChain,
        /// Rematerialization inventory, as for [`EvalOutcome::Deopt`].
        rematerialized: Vec<AllocShape>,
    },
}

/// Executes `code` with `args`.
///
/// # Errors
///
/// Runtime errors ([`VmError`]) exactly as the interpreter would raise
/// them for the same program state — the differential test suite depends
/// on this equivalence.
pub fn evaluate(
    program: &Program,
    env: &mut dyn EvalEnv,
    code: &CompiledMethod,
    args: &[Value],
) -> Result<EvalOutcome, VmError> {
    env.charge(cost::CALL_OVERHEAD + cost::icache_cost(code.code_size))?;
    // Dense value table: one slot per node id (compiled graphs are
    // compact after pruning; O(1) access dominates the evaluator). The
    // backing vector is pooled per thread so the per-call cost is a
    // clear-and-refill, not an allocation — keeping the graph oracle's
    // wall-clock comparison against the linear tier about dispatch, not
    // malloc. The pop/push bracket is reentrancy-safe: recursive calls
    // through `env.invoke` pop their own buffer.
    let mut values = VALUES_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    values.clear();
    values.resize(code.graph.len(), None);
    let result = evaluate_inner(program, env, code, args, &mut values);
    VALUES_POOL.with(|p| p.borrow_mut().push(values));
    result
}

thread_local! {
    /// Value-table pool for [`evaluate`] (one entry per in-flight nesting
    /// depth, reused across calls).
    static VALUES_POOL: std::cell::RefCell<Vec<Vec<Option<Value>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn evaluate_inner(
    program: &Program,
    env: &mut dyn EvalEnv,
    code: &CompiledMethod,
    args: &[Value],
    values: &mut [Option<Value>],
) -> Result<EvalOutcome, VmError> {
    let graph = &code.graph;
    let mut block: BlockId = code.cfg.entry();
    let mut came_from_end: Option<NodeId> = None;
    // Phi-update scratch, hoisted out of the block loop.
    let mut updates: Vec<(NodeId, Value)> = Vec::new();

    'blocks: loop {
        let first = code.cfg.block(block).first();
        // Phi updates on entry to merge-like blocks (parallel assignment).
        if let NodeKind::Merge | NodeKind::LoopBegin = graph.kind(first) {
            let end = came_from_end.expect("merge entered without an end");
            let idx = graph
                .merge_ends(first)
                .iter()
                .position(|&e| e == end)
                .expect("end not registered on merge");
            updates.clear();
            for phi in graph.iter_phis(first) {
                let input = graph.node(phi).inputs()[idx];
                let v = values[input.index()]
                    .ok_or_else(|| VmError::Internal(format!("phi input {input} not computed")))?;
                updates.push((phi, v));
            }
            for &(phi, v) in &updates {
                set(values, phi, v);
            }
        }
        came_from_end = None;

        let order = &code.schedule.per_block[block.index()];
        for &n in order {
            let node = graph.node(n);
            let inputs = node.inputs();
            let val = |values: &[Option<Value>], id: NodeId| -> Result<Value, VmError> {
                values[id.index()]
                    .ok_or_else(|| VmError::Internal(format!("value {id} not computed")))
            };
            match graph.kind(n) {
                NodeKind::Start
                | NodeKind::Begin
                | NodeKind::LoopExit { .. }
                | NodeKind::Merge
                | NodeKind::LoopBegin => {}
                NodeKind::Param { index } => {
                    set(values, n, args[*index as usize]);
                }
                NodeKind::ConstInt { value } => {
                    set(values, n, Value::Int(*value));
                }
                NodeKind::ConstNull => {
                    set(values, n, Value::Null);
                }
                NodeKind::Arith { op } | NodeKind::FixedArith { op } => {
                    env.charge(cost::ALU_OP)?;
                    let a = val(values, inputs[0])?.as_int()?;
                    let r = if *op == ArithOp::Neg {
                        a.wrapping_neg()
                    } else {
                        let b = val(values, inputs[1])?.as_int()?;
                        apply_arith(*op, a, b)?
                    };
                    set(values, n, Value::Int(r));
                }
                NodeKind::Compare { op } => {
                    env.charge(cost::ALU_OP)?;
                    let a = val(values, inputs[0])?.as_int()?;
                    let b = val(values, inputs[1])?.as_int()?;
                    set(values, n, Value::from_bool(op.apply(a, b)));
                }
                NodeKind::Phi { .. } => {
                    unreachable!("phis are not scheduled")
                }
                NodeKind::New { class } => {
                    let bytes = program.object_size(*class);
                    env.charge(cost::alloc_cost(bytes))?;
                    let r = env.heap().try_alloc_instance(program, *class)?;
                    env.profiler().record_alloc();
                    set(values, n, Value::Ref(r));
                }
                NodeKind::NewArray { kind } => {
                    let len = val(values, inputs[0])?.as_int()?;
                    env.charge(cost::array_alloc_cost(len))?;
                    let r = env.heap().alloc_array(*kind, len)?;
                    env.profiler().record_alloc();
                    set(values, n, Value::Ref(r));
                }
                NodeKind::LoadField { field } => {
                    env.charge(cost::MEMORY_OP)?;
                    let obj = val(values, inputs[0])?.as_ref()?;
                    let v = env.heap().get_field(program, obj, *field)?;
                    set(values, n, v);
                }
                NodeKind::StoreField { field } => {
                    env.charge(cost::MEMORY_OP)?;
                    let obj = val(values, inputs[0])?.as_ref()?;
                    let v = val(values, inputs[1])?;
                    env.heap().put_field(program, obj, *field, v)?;
                }
                NodeKind::LoadIndexed => {
                    env.charge(cost::MEMORY_OP)?;
                    let arr = val(values, inputs[0])?.as_ref()?;
                    let idx = val(values, inputs[1])?.as_int()?;
                    let v = env.heap().array_get(arr, idx)?;
                    set(values, n, v);
                }
                NodeKind::StoreIndexed => {
                    env.charge(cost::MEMORY_OP)?;
                    let arr = val(values, inputs[0])?.as_ref()?;
                    let idx = val(values, inputs[1])?.as_int()?;
                    let v = val(values, inputs[2])?;
                    env.heap().array_set(arr, idx, v)?;
                }
                NodeKind::ArrayLen => {
                    env.charge(cost::MEMORY_OP)?;
                    let arr = val(values, inputs[0])?.as_ref()?;
                    let len = env.heap().array_length(arr)?;
                    set(values, n, Value::Int(len));
                }
                NodeKind::MonitorEnter => {
                    env.charge(cost::MONITOR_OP)?;
                    let obj = val(values, inputs[0])?.as_ref()?;
                    env.heap().try_monitor_enter(obj)?;
                }
                NodeKind::MonitorExit => {
                    env.charge(cost::MONITOR_OP)?;
                    let obj = val(values, inputs[0])?.as_ref()?;
                    env.heap().monitor_exit(obj)?;
                }
                NodeKind::GetStatic { id } => {
                    env.charge(cost::MEMORY_OP)?;
                    let v = env.statics().get(*id);
                    set(values, n, v);
                }
                NodeKind::PutStatic { id } => {
                    env.charge(cost::MEMORY_OP)?;
                    let v = val(values, inputs[0])?;
                    env.statics().set(*id, v);
                }
                NodeKind::RefEq => {
                    env.charge(cost::ALU_OP)?;
                    let a = val(values, inputs[0])?.as_ref_or_null()?;
                    let b = val(values, inputs[1])?.as_ref_or_null()?;
                    set(values, n, Value::from_bool(a == b));
                }
                NodeKind::IsNull => {
                    env.charge(cost::ALU_OP)?;
                    let v = val(values, inputs[0])?.as_ref_or_null()?;
                    set(values, n, Value::from_bool(v.is_none()));
                }
                NodeKind::InstanceOf { class, exact } => {
                    env.charge(cost::ALU_OP)?;
                    let v = val(values, inputs[0])?.as_ref_or_null()?;
                    let is = match v {
                        Some(r) => {
                            let dynamic = env.heap().class_of(r)?;
                            if *exact {
                                dynamic == *class
                            } else {
                                program.is_subclass_of(dynamic, *class)
                            }
                        }
                        None => false,
                    };
                    set(values, n, Value::from_bool(is));
                }
                NodeKind::CheckCast { class } => {
                    env.charge(cost::ALU_OP)?;
                    let v = val(values, inputs[0])?;
                    if let Some(r) = v.as_ref_or_null()? {
                        let dynamic = env.heap().class_of(r)?;
                        if !program.is_subclass_of(dynamic, *class) {
                            return Err(VmError::ClassCast {
                                expected: program.class(*class).name.clone(),
                                found: program.class(dynamic).name.clone(),
                            });
                        }
                    }
                    set(values, n, v);
                }
                NodeKind::Invoke {
                    target,
                    virtual_call,
                } => {
                    let mut call_args = Vec::with_capacity(inputs.len());
                    for &i in inputs {
                        call_args.push(val(values, i)?);
                    }
                    let resolved = if *virtual_call {
                        let recv = call_args[0].as_ref()?;
                        let dynamic = env.heap().class_of(recv)?;
                        program
                            .resolve_virtual(dynamic, *target)
                            .map_err(|e| VmError::NoSuchMethod(e.to_string()))?
                    } else {
                        *target
                    };
                    let result = match env.invoke(program, resolved, &call_args) {
                        Ok(r) => r,
                        Err(VmError::Thrown(exc)) => {
                            // The callee threw a catchable exception:
                            // deoptimize at the call site and let the
                            // interpreter unwind the rematerialized
                            // frames (handler dispatch happens there).
                            let fs = node.state_after.expect("invoke without frame state");
                            env.charge(cost::DEOPT_PENALTY)?;
                            // The after-state sits past the call with the
                            // (never produced) result on the stack: stand
                            // in a null so frame reconstruction resolves,
                            // then drop the slot and step the innermost
                            // frame back onto the invoke itself so the
                            // unwinder consults the right handler ranges.
                            let returns = program.method(resolved).returns_value;
                            if returns {
                                set(values, n, Value::Null);
                            }
                            let (mut frames, rematerialized) =
                                build_deopt_frames(program, env, graph, values, fs)?;
                            frames.rewind_to_invoke(returns);
                            return Ok(EvalOutcome::Unwind {
                                exception: exc,
                                frames,
                                rematerialized,
                            });
                        }
                        Err(e) => return Err(e),
                    };
                    if let Some(v) = result {
                        set(values, n, v);
                    }
                }
                NodeKind::Commit { objects } => {
                    // Group materialization: allocate all objects first so
                    // cyclic field references resolve, then fill fields and
                    // re-enter monitors (paper §4 "materialization"). The
                    // group is numbered from `first` in allocation order,
                    // and the commit's value is its first member.
                    let first = env.heap().len();
                    for obj in objects {
                        match obj.shape {
                            AllocShape::Instance { class } => {
                                env.charge(cost::alloc_cost(program.object_size(class)))?;
                                env.heap().try_alloc_instance(program, class)?;
                            }
                            AllocShape::Array { kind, length } => {
                                env.charge(cost::alloc_cost(Program::array_size(u64::from(
                                    length,
                                ))))?;
                                env.heap().alloc_array(kind, i64::from(length))?;
                            }
                        }
                        env.profiler().record_alloc();
                    }
                    let member = |i: usize| ObjRef::from_index(first + i);
                    let mut input_pos = 0usize;
                    for (oi, obj) in objects.iter().enumerate() {
                        // The object is exactly its template's shape: one
                        // input per slot, in slot order.
                        let slots = match obj.shape {
                            AllocShape::Instance { class } => program.slot_kinds(class).len(),
                            AllocShape::Array { length, .. } => length as usize,
                        };
                        for slot in 0..slots {
                            let input = inputs[input_pos];
                            input_pos += 1;
                            let v = match graph.kind(input) {
                                NodeKind::AllocatedObject { index }
                                    if graph.node(input).inputs()[0] == n =>
                                {
                                    Value::Ref(member(*index))
                                }
                                _ => val(values, input)?,
                            };
                            env.heap().init_slot(member(oi), slot, v)?;
                        }
                        for _ in 0..obj.lock_count {
                            env.charge(cost::MONITOR_OP)?;
                            env.heap().try_monitor_enter(member(oi))?;
                        }
                    }
                    set(values, n, Value::Ref(member(0)));
                }
                NodeKind::AllocatedObject { index } => {
                    let first = val(values, inputs[0])
                        .map_err(|_| VmError::Internal("allocated object before commit".into()))?
                        .as_ref()?;
                    let r = ObjRef::from_index(first.index() + index);
                    set(values, n, Value::Ref(r));
                }
                NodeKind::Guard { reason, negated } => {
                    env.charge(cost::BRANCH_OP)?;
                    let cond = val(values, inputs[0])?.as_bool()?;
                    if cond == *negated {
                        let fs = node.state_after.expect("guard without frame state");
                        env.charge(cost::DEOPT_PENALTY)?;
                        let (frames, rematerialized) =
                            build_deopt_frames(program, env, graph, values, fs)?;
                        return Ok(EvalOutcome::Deopt {
                            reason: *reason,
                            frames,
                            rematerialized,
                        });
                    }
                }
                NodeKind::Deopt { reason } => {
                    let fs = node.state_after.expect("deopt without frame state");
                    env.charge(cost::DEOPT_PENALTY)?;
                    let (frames, rematerialized) =
                        build_deopt_frames(program, env, graph, values, fs)?;
                    return Ok(EvalOutcome::Deopt {
                        reason: *reason,
                        frames,
                        rematerialized,
                    });
                }
                NodeKind::If => {
                    env.charge(cost::BRANCH_OP)?;
                    let cond = val(values, inputs[0])?.as_bool()?;
                    let succ = node.successors()[usize::from(!cond)];
                    block = code.cfg.block_of(succ);
                    continue 'blocks;
                }
                NodeKind::End | NodeKind::LoopEnd => {
                    env.charge(cost::BRANCH_OP)?;
                    if matches!(node.kind, NodeKind::LoopEnd) {
                        // Compiled-code safepoint at the loop back-edge
                        // (no collection: see `EvalEnv::safepoint`).
                        env.safepoint();
                    }
                    came_from_end = Some(n);
                    let succ = code.cfg.block(block).succs[0];
                    block = succ;
                    continue 'blocks;
                }
                NodeKind::Return => {
                    let v = match inputs.first() {
                        Some(&i) => Some(val(values, i)?),
                        None => None,
                    };
                    return Ok(EvalOutcome::Return(v));
                }
                NodeKind::Throw => {
                    let code_v = val(values, inputs[0])?.as_int()?;
                    return Err(VmError::UserException(code_v));
                }
                NodeKind::Unwind => {
                    // Frame monitors were already released by the explicit
                    // MonitorExit nodes the builder emits before the sink.
                    let exc = val(values, inputs[0])?.as_ref()?;
                    return Err(VmError::Thrown(exc));
                }
                NodeKind::FrameState(_) | NodeKind::VirtualObjectMapping { .. } => {
                    unreachable!("metadata scheduled for execution")
                }
            }
        }
        // A block's last node is always a terminator handled above.
        return Err(VmError::Internal(format!(
            "block {block} fell through without terminator"
        )));
    }
}

#[inline]
fn set(values: &mut [Option<Value>], id: NodeId, v: Value) {
    values[id.index()] = Some(v);
}

fn apply_arith(op: ArithOp, a: i64, b: i64) -> Result<i64, VmError> {
    Ok(match op {
        ArithOp::Add => a.wrapping_add(b),
        ArithOp::Sub => a.wrapping_sub(b),
        ArithOp::Mul => a.wrapping_mul(b),
        ArithOp::Div => {
            if b == 0 {
                return Err(VmError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        ArithOp::Rem => {
            if b == 0 {
                return Err(VmError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        ArithOp::And => a & b,
        ArithOp::Or => a | b,
        ArithOp::Xor => a ^ b,
        ArithOp::Shl => a.wrapping_shl((b & 63) as u32),
        ArithOp::Shr => a.wrapping_shr((b & 63) as u32),
        ArithOp::Neg => unreachable!("unary handled by caller"),
    })
}

/// Reconstructs the interpreter frame chain from a frame state,
/// rematerializing virtual objects (paper §5.5). Returns the frames plus
/// the shapes of the objects rematerialized, in allocation order.
fn build_deopt_frames(
    program: &Program,
    env: &mut dyn EvalEnv,
    graph: &pea_ir::Graph,
    values: &[Option<Value>],
    innermost: NodeId,
) -> Result<(FrameChain, Vec<AllocShape>), VmError> {
    // Collect the chain innermost → outermost, then reverse.
    let mut states = vec![innermost];
    let mut cur = innermost;
    let mut slots = 0;
    loop {
        let data = graph.frame_state_data(cur);
        slots += data.n_locals as usize + data.n_stack as usize;
        let Some(outer_idx) = data.outer_index() else {
            break;
        };
        cur = graph.node(cur).inputs()[outer_idx];
        states.push(cur);
    }
    states.reverse();

    // Rematerialized objects, keyed by their mapping: a deopt has few.
    let mut remat: Vec<(NodeId, ObjRef)> = Vec::new();
    let mut inventory = Vec::new();
    let mut frames = FrameChain::with_capacity(states.len(), slots);
    for fs in states {
        let data = graph.frame_state_data(fs);
        let inputs = graph.node(fs).inputs();
        let mut resolve = |env: &mut dyn EvalEnv, id: NodeId| -> Result<Value, VmError> {
            resolve_slot(program, env, graph, values, &mut remat, &mut inventory, id)
        };
        frames.push_frame(data.method, data.bci);
        for i in data.locals_range() {
            frames.push_local(resolve(env, inputs[i])?);
        }
        for i in data.stack_range() {
            frames.push_operand(resolve(env, inputs[i])?);
        }
        for (k, i) in data.locks_range().enumerate() {
            let obj = resolve(env, inputs[i])?.as_ref()?;
            frames.push_lock(obj, data.lock_is_from_sync(k))?;
        }
    }
    Ok((frames, inventory))
}

/// Resolves one frame-state slot: plain values come from the value table,
/// virtual-object mappings are rematerialized (cycle-safe two-phase
/// construction, locks re-entered).
fn resolve_slot(
    program: &Program,
    env: &mut dyn EvalEnv,
    graph: &pea_ir::Graph,
    values: &[Option<Value>],
    remat: &mut Vec<(NodeId, ObjRef)>,
    inventory: &mut Vec<AllocShape>,
    id: NodeId,
) -> Result<Value, VmError> {
    if let NodeKind::VirtualObjectMapping { shape, lock_count } = graph.kind(id) {
        if let Some(&(_, r)) = remat.iter().find(|&&(m, _)| m == id) {
            return Ok(Value::Ref(r));
        }
        let r = alloc_shape(program, env.heap(), *shape)?;
        env.heap().stats.rematerialized += 1;
        env.profiler().record_alloc();
        inventory.push(*shape);
        remat.push((id, r));
        let field_inputs = graph.node(id).inputs();
        match shape {
            AllocShape::Instance { class } => {
                let fields = program.instance_fields(*class);
                for (fi, &input) in field_inputs.iter().enumerate() {
                    let v = resolve_slot(program, env, graph, values, remat, inventory, input)?;
                    env.heap().put_field(program, r, fields[fi], v)?;
                }
            }
            AllocShape::Array { .. } => {
                for (fi, &input) in field_inputs.iter().enumerate() {
                    let v = resolve_slot(program, env, graph, values, remat, inventory, input)?;
                    env.heap().array_set(r, fi as i64, v)?;
                }
            }
        }
        for _ in 0..*lock_count {
            env.heap().try_monitor_enter(r)?;
        }
        return Ok(Value::Ref(r));
    }
    values[id.index()]
        .ok_or_else(|| VmError::Internal(format!("frame-state slot {id} not computed")))
}
