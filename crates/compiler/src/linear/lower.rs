//! Lowering: scheduled graph → [`LinearArtifact`].
//!
//! The instruction stream is emitted block by block in the CFG's reverse
//! post order (entry first), with every scheduled node translated in its
//! exact schedule position so the per-instruction cycle charges replay in
//! the same order graph evaluation performs them. Each edge into a merge
//! is one instruction carrying its branch charge, its phi updates as a
//! sequentialized parallel move (a merge block's predecessor order follows
//! its `ends` list, which is phi-input order) and its target.
//!
//! The scheduler puts a compare whose only user is an `If` or a `Guard`
//! right before that user; the lowering fuses every such adjacent pair
//! into one compare-and-branch ([`op::IF_CMP`]) or compare-and-guard
//! ([`op::GUARD_CMP`]). A fused compare and a binary arithmetic operation
//! read an integer constant operand from the pool ([`op::IF_CMP_I`],
//! [`op::GUARD_CMP_I`], [`op::ADD_I`]`..=`[`op::SHR_I`]), as the right
//! operand; a constant left operand swaps sides when the operation allows
//! it.
//!
//! Frame states are compiled into self-contained [`DeoptPoint`] tables so
//! execution never touches the graph; they and commit templates carry
//! constants themselves. A constant gets a register, and an instruction
//! that writes it, only when some instruction reads it from one.
//! Parameters are the first registers and are written by the caller.
//!
//! The stream ends with `INSN_WORDS - 1` zero words, so the executor can
//! read any instruction's fixed part as one array ([`INSN_WORDS`]).

use super::{
    arith_imm_opcode, arith_opcode, class_code, cmp_code, kind_code, op, reason_code,
    CommitFieldSrc, DeoptPoint, LinearArtifact, LinearCommit, LinearCommitObj, LinearFrame,
    LinearVObj, SlotSrc, INSN_WORDS, NO_REG, WINDOW,
};
use pea_bytecode::{ClassId, CmpOp, FieldId, MethodId, Program, ValueKind};
use pea_ir::cfg::{BlockId, Cfg};
use pea_ir::schedule::Schedule;
use pea_ir::{AllocShape, ArithOp, Graph, NodeId, NodeKind};
use pea_runtime::cost;
use std::collections::HashMap;

/// Why a graph could not be lowered. The `Lower` phase turns it into a
/// compile bailout, so the method stays interpreted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// Lowers a scheduled graph into a [`LinearArtifact`].
///
/// # Errors
///
/// [`LowerError`] when the encoding cannot represent the method: more
/// registers than a [`WINDOW`] holds (`too many registers`), or a code
/// stream or table past `u32`.
pub fn lower(
    program: &Program,
    method: MethodId,
    graph: &Graph,
    cfg: &Cfg,
    schedule: &Schedule,
) -> Result<LinearArtifact, LowerError> {
    Lowerer {
        program,
        graph,
        cfg,
        schedule,
        code: Vec::new(),
        pool: Vec::new(),
        pool_map: HashMap::new(),
        regs: vec![NO_REG; graph.len()],
        next_reg: u32::from(program.method(method).param_count),
        read_consts: vec![false; graph.len()],
        temp_reg: NO_REG,
        block_pc: vec![u32::MAX; cfg.blocks.len()],
        fixups: Vec::new(),
        deopts: Vec::new(),
        deopt_map: HashMap::new(),
        commits: Vec::new(),
        commit_map: HashMap::new(),
        alloc_dsts: HashMap::new(),
        alloc_primary: HashMap::new(),
        fused: None,
    }
    .run()
}

struct Lowerer<'a> {
    program: &'a Program,
    graph: &'a Graph,
    cfg: &'a Cfg,
    schedule: &'a Schedule,
    code: Vec<u32>,
    pool: Vec<i64>,
    pool_map: HashMap<i64, u32>,
    regs: Vec<u32>,
    next_reg: u32,
    /// Per node: a constant some instruction reads from a register.
    read_consts: Vec<bool>,
    temp_reg: u32,
    block_pc: Vec<u32>,
    /// `(code index, target block)` pairs patched after layout.
    fixups: Vec<(usize, BlockId)>,
    deopts: Vec<DeoptPoint>,
    deopt_map: HashMap<NodeId, u32>,
    commits: Vec<LinearCommit>,
    commit_map: HashMap<NodeId, u32>,
    /// `(commit, object index)` → register of the designated
    /// `AllocatedObject` node (written directly by the commit).
    alloc_dsts: HashMap<(NodeId, usize), u32>,
    /// The designated `AllocatedObject` node per `(commit, object index)`;
    /// other nodes for the same slot become register moves.
    alloc_primary: HashMap<(NodeId, usize), NodeId>,
    /// The compare the next node, an `If` or a `Guard`, absorbs.
    fused: Option<NodeId>,
}

impl Lowerer<'_> {
    fn run(mut self) -> Result<LinearArtifact, LowerError> {
        let (graph, schedule) = (self.graph, self.schedule);
        // Pre-pass: designate one AllocatedObject node per commit slot so
        // the commit template can write its register directly; give each
        // parameter its register; and find the constants an instruction
        // reads from a register.
        for b in &self.cfg.rpo {
            let order = &schedule.per_block[b.index()];
            for (at, &n) in order.iter().enumerate() {
                match graph.kind(n) {
                    NodeKind::AllocatedObject { index } => {
                        let commit = graph.node(n).inputs()[0];
                        let key = (commit, *index);
                        if let std::collections::hash_map::Entry::Vacant(e) =
                            self.alloc_primary.entry(key)
                        {
                            e.insert(n);
                            let reg = self.reg_of(n);
                            self.alloc_dsts.insert(key, reg);
                        }
                    }
                    NodeKind::Param { index } => self.regs[n.index()] = u32::from(*index),
                    // Its template carries constant fields.
                    NodeKind::Commit { .. } => continue,
                    _ => {}
                }
                let pooled = self.pooled_input(order, at);
                for (side, &input) in graph.node(n).inputs().iter().enumerate() {
                    if Some(side) != pooled {
                        self.note_read(input);
                    }
                }
            }
            let first = self.cfg.block(*b).first();
            if let NodeKind::Merge { .. } | NodeKind::LoopBegin { .. } = graph.kind(first) {
                for phi in graph.iter_phis(first) {
                    for &input in graph.node(phi).inputs() {
                        self.note_read(input);
                    }
                }
            }
        }

        debug_assert_eq!(
            self.cfg.rpo[0],
            self.cfg.entry(),
            "entry block lays out first"
        );
        for bi in 0..self.cfg.rpo.len() {
            let b = self.cfg.rpo[bi];
            self.block_pc[b.index()] = self.pc()?;
            let order = &schedule.per_block[b.index()];
            for (at, &n) in order.iter().enumerate() {
                if self.fuses(order, at) {
                    // The next node emits it.
                    self.fused = Some(n);
                } else {
                    self.emit_node(b, n)?;
                }
            }
        }
        for (idx, blk) in std::mem::take(&mut self.fixups) {
            let pc = self.block_pc[blk.index()];
            debug_assert_ne!(pc, u32::MAX, "jump into un-laid-out block");
            self.code[idx] = pc;
        }
        if self.next_reg as usize > WINDOW {
            return Err(LowerError("too many registers".into()));
        }
        self.code.extend_from_slice(&[0; INSN_WORDS - 1]);
        Ok(LinearArtifact {
            code: self.code,
            pool: self.pool,
            num_regs: self.next_reg,
            deopts: self.deopts,
            commits: self.commits,
        })
    }

    /// Records that an instruction reads `input` from a register, which a
    /// constant then needs.
    fn note_read(&mut self, input: NodeId) {
        if let NodeKind::ConstInt { .. } | NodeKind::ConstNull = self.graph.kind(input) {
            self.read_consts[input.index()] = true;
        }
    }

    /// Whether `order[at]` is a compare that fuses into the node after it:
    /// an `If` or a `Guard` that is its only user. The scheduler sinks
    /// every such compare to that position, and the compare's charge
    /// stays where the schedule puts it.
    fn fuses(&self, order: &[NodeId], at: usize) -> bool {
        let graph = self.graph;
        let n = order[at];
        matches!(graph.kind(n), NodeKind::Compare { .. })
            && order.get(at + 1).is_some_and(|&user| {
                matches!(graph.kind(user), NodeKind::If | NodeKind::Guard { .. })
                    && graph.sole_use(n) == Some(user)
            })
    }

    /// The input of `order[at]` its instruction reads from the pool: the
    /// constant operand of a binary arithmetic operation or of a compare
    /// that fuses.
    fn pooled_input(&self, order: &[NodeId], at: usize) -> Option<usize> {
        let n = order[at];
        let swaps = match *self.graph.kind(n) {
            NodeKind::Arith { op } | NodeKind::FixedArith { op } if op != ArithOp::Neg => {
                commutes(op)
            }
            // A compare swaps sides with its condition mirrored.
            NodeKind::Compare { .. } if self.fuses(order, at) => true,
            _ => return None,
        };
        pooled_side(self.graph, n, swaps)
    }

    fn pc(&self) -> Result<u32, LowerError> {
        u32::try_from(self.code.len()).map_err(|_| LowerError("code stream exceeds u32".into()))
    }

    fn reg_of(&mut self, n: NodeId) -> u32 {
        debug_assert!(
            self.read_consts[n.index()]
                || !matches!(
                    self.graph.kind(n),
                    NodeKind::ConstInt { .. } | NodeKind::ConstNull
                ),
            "{n} is read from a register the lowering never writes"
        );
        let slot = &mut self.regs[n.index()];
        if *slot == NO_REG {
            *slot = self.next_reg;
            self.next_reg += 1;
        }
        *slot
    }

    fn temp(&mut self) -> u32 {
        if self.temp_reg == NO_REG {
            self.temp_reg = self.next_reg;
            self.next_reg += 1;
        }
        self.temp_reg
    }

    fn pool_idx(&mut self, v: i64) -> u32 {
        if let Some(&i) = self.pool_map.get(&v) {
            return i;
        }
        let i = u32::try_from(self.pool.len()).expect("constant pool exceeds u32");
        self.pool.push(v);
        self.pool_map.insert(v, i);
        i
    }

    fn emit(&mut self, words: &[u32]) {
        self.code.extend_from_slice(words);
    }

    /// Emits a jump-target operand, recording a fixup for `target`.
    fn emit_target(&mut self, target: BlockId) {
        self.fixups.push((self.code.len(), target));
        self.code.push(u32::MAX);
    }

    fn charge_u32(&self, cycles: u64, what: &str) -> Result<u32, LowerError> {
        u32::try_from(cycles).map_err(|_| LowerError(format!("{what} charge exceeds u32")))
    }

    fn emit_node(&mut self, block: BlockId, n: NodeId) -> Result<(), LowerError> {
        let graph = self.graph;
        let node = graph.node(n);
        let inputs = node.inputs();
        match *graph.kind(n) {
            // A parameter's register is written by the caller.
            NodeKind::Start
            | NodeKind::Begin
            | NodeKind::LoopExit { .. }
            | NodeKind::Merge { .. }
            | NodeKind::LoopBegin { .. }
            | NodeKind::Param { .. } => {}
            NodeKind::ConstInt { value } => {
                if self.read_consts[n.index()] {
                    let dst = self.reg_of(n);
                    let idx = self.pool_idx(value);
                    self.emit(&[op::CONST_INT, dst, idx]);
                }
            }
            NodeKind::ConstNull => {
                if self.read_consts[n.index()] {
                    let dst = self.reg_of(n);
                    self.emit(&[op::CONST_NULL, dst]);
                }
            }
            NodeKind::Arith { op: ArithOp::Neg } | NodeKind::FixedArith { op: ArithOp::Neg } => {
                let a = self.reg_of(inputs[0]);
                let dst = self.reg_of(n);
                self.emit(&[op::NEG, dst, a]);
            }
            NodeKind::Arith { op: aop } | NodeKind::FixedArith { op: aop } => {
                let (a, b, pooled) = operands(graph, n, pooled_side(graph, n, commutes(aop)));
                let a = self.reg_of(a);
                let dst = self.reg_of(n);
                let ops = (arith_opcode(aop), arith_imm_opcode(aop));
                self.emit_binary(ops, dst, a, b, pooled);
            }
            NodeKind::Compare { op: cop } => {
                let a = self.reg_of(inputs[0]);
                let b = self.reg_of(inputs[1]);
                let dst = self.reg_of(n);
                self.emit(&[op::COMPARE, cmp_code(cop), dst, a, b]);
            }
            NodeKind::Phi { .. } => unreachable!("phis are not scheduled"),
            NodeKind::New { class } => {
                let cost =
                    self.charge_u32(cost::alloc_cost(self.program.object_size(class)), "alloc")?;
                let dst = self.reg_of(n);
                self.emit(&[op::NEW, dst, class_code(class), cost]);
            }
            NodeKind::NewArray { kind } => {
                let len = self.reg_of(inputs[0]);
                let dst = self.reg_of(n);
                self.emit(&[op::NEW_ARRAY, dst, len, kind_code(kind)]);
            }
            NodeKind::LoadField { field } => {
                let obj = self.reg_of(inputs[0]);
                let dst = self.reg_of(n);
                let (declaring, slot) = self.field_offset(field)?;
                self.emit(&[op::LOAD_FIELD, dst, obj, declaring, slot, field.0]);
            }
            NodeKind::StoreField { field } => {
                let obj = self.reg_of(inputs[0]);
                let val = self.reg_of(inputs[1]);
                let (declaring, slot) = self.field_offset(field)?;
                self.emit(&[op::STORE_FIELD, obj, val, declaring, slot, field.0]);
            }
            NodeKind::LoadIndexed => {
                let arr = self.reg_of(inputs[0]);
                let idx = self.reg_of(inputs[1]);
                let dst = self.reg_of(n);
                self.emit(&[op::LOAD_INDEXED, dst, arr, idx]);
            }
            NodeKind::StoreIndexed => {
                let arr = self.reg_of(inputs[0]);
                let idx = self.reg_of(inputs[1]);
                let val = self.reg_of(inputs[2]);
                self.emit(&[op::STORE_INDEXED, arr, idx, val]);
            }
            NodeKind::ArrayLen => {
                let arr = self.reg_of(inputs[0]);
                let dst = self.reg_of(n);
                self.emit(&[op::ARRAY_LEN, dst, arr]);
            }
            NodeKind::MonitorEnter => {
                let obj = self.reg_of(inputs[0]);
                self.emit(&[op::MONITOR_ENTER, obj]);
            }
            NodeKind::MonitorExit => {
                let obj = self.reg_of(inputs[0]);
                self.emit(&[op::MONITOR_EXIT, obj]);
            }
            NodeKind::GetStatic { id } => {
                let dst = self.reg_of(n);
                self.emit(&[op::GET_STATIC, dst, id.0]);
            }
            NodeKind::PutStatic { id } => {
                let val = self.reg_of(inputs[0]);
                self.emit(&[op::PUT_STATIC, val, id.0]);
            }
            NodeKind::RefEq => {
                let a = self.reg_of(inputs[0]);
                let b = self.reg_of(inputs[1]);
                let dst = self.reg_of(n);
                self.emit(&[op::REF_EQ, dst, a, b]);
            }
            NodeKind::IsNull => {
                let a = self.reg_of(inputs[0]);
                let dst = self.reg_of(n);
                self.emit(&[op::IS_NULL, dst, a]);
            }
            NodeKind::InstanceOf { class, exact } => {
                let a = self.reg_of(inputs[0]);
                let dst = self.reg_of(n);
                self.emit(&[op::INSTANCE_OF, dst, a, class_code(class), u32::from(exact)]);
            }
            NodeKind::CheckCast { class } => {
                let a = self.reg_of(inputs[0]);
                let dst = self.reg_of(n);
                self.emit(&[op::CHECK_CAST, dst, a, class_code(class)]);
            }
            NodeKind::Invoke {
                target,
                virtual_call,
            } => {
                let fs = node
                    .state_after
                    .ok_or_else(|| LowerError("invoke without frame state".into()))?;
                // Allocate the result register before compiling the deopt
                // metadata: the after-state references the call's result.
                let dst = self.reg_of(n);
                let arg_regs: Vec<u32> = inputs.iter().map(|&i| self.reg_of(i)).collect();
                let deopt = self.deopt_point(fs)?;
                let argc = u32::try_from(arg_regs.len())
                    .map_err(|_| LowerError("too many call arguments".into()))?;
                self.emit(&[
                    op::INVOKE,
                    target.0,
                    u32::from(virtual_call),
                    dst,
                    deopt,
                    argc,
                ]);
                self.code.extend_from_slice(&arg_regs);
            }
            NodeKind::Commit { ref objects } => {
                if let Some((dst, class)) = self.fresh_instance(n, objects, inputs) {
                    // Materialized before any store reached it: a plain
                    // allocation, at the same charge.
                    let cost = self
                        .charge_u32(cost::alloc_cost(self.program.object_size(class)), "alloc")?;
                    self.emit(&[op::NEW, dst, class_code(class), cost]);
                    return Ok(());
                }
                let mut template = Vec::with_capacity(objects.len());
                let mut input_pos = 0usize;
                for (oi, obj) in objects.iter().enumerate() {
                    let (alloc_cycles, slots) = match obj.shape {
                        AllocShape::Instance { class } => (
                            cost::alloc_cost(self.program.object_size(class)),
                            self.program.instance_fields(class).len(),
                        ),
                        AllocShape::Array { length, .. } => (
                            cost::alloc_cost(Program::array_size(u64::from(length))),
                            length as usize,
                        ),
                    };
                    let mut fields = Vec::with_capacity(slots);
                    for _ in 0..slots {
                        let input = inputs[input_pos];
                        input_pos += 1;
                        let src = match *graph.kind(input) {
                            NodeKind::AllocatedObject { index }
                                if graph.node(input).inputs()[0] == n =>
                            {
                                CommitFieldSrc::SameCommit(index as u32)
                            }
                            NodeKind::ConstInt { value } => CommitFieldSrc::Int(value),
                            NodeKind::ConstNull => CommitFieldSrc::Null,
                            _ => CommitFieldSrc::Reg(self.reg_of(input)),
                        };
                        fields.push(src);
                    }
                    let dst = self.alloc_dsts.get(&(n, oi)).copied().unwrap_or(NO_REG);
                    template.push(LinearCommitObj {
                        shape: obj.shape,
                        lock_count: obj.lock_count,
                        alloc_cycles,
                        dst,
                        fields,
                    });
                }
                let idx = u32::try_from(self.commits.len())
                    .map_err(|_| LowerError("commit table exceeds u32".into()))?;
                self.commits.push(LinearCommit { objects: template });
                self.commit_map.insert(n, idx);
                self.emit(&[op::COMMIT, idx]);
            }
            NodeKind::AllocatedObject { index } => {
                let commit = inputs[0];
                let key = (commit, index);
                let primary = self.alloc_primary.get(&key).copied();
                if primary == Some(n) {
                    // Register written directly by the commit instruction.
                } else {
                    let src = *self
                        .alloc_dsts
                        .get(&key)
                        .ok_or_else(|| LowerError("allocated object before commit".into()))?;
                    let dst = self.reg_of(n);
                    self.emit(&[op::MOVE, dst, src]);
                }
            }
            NodeKind::Guard { reason, negated } => {
                let fs = node
                    .state_after
                    .ok_or_else(|| LowerError("guard without frame state".into()))?;
                if let Some(cmp) = self.fused.take() {
                    // The guard deoptimizes when its condition equals
                    // `negated`: when the compare holds if it is negated,
                    // else when the negated compare holds.
                    let (cop, a, b, imm) = fused_operands(graph, cmp);
                    let cop = if negated { cop } else { cop.negated() };
                    let a = self.reg_of(a);
                    self.emit_binary((op::GUARD_CMP, op::GUARD_CMP_I), cmp_code(cop), a, b, imm);
                } else {
                    let cond = self.reg_of(inputs[0]);
                    self.emit(&[op::GUARD, cond, u32::from(negated)]);
                }
                let deopt = self.deopt_point(fs)?;
                self.emit(&[reason_code(reason), deopt]);
            }
            NodeKind::Deopt { reason } => {
                let fs = node
                    .state_after
                    .ok_or_else(|| LowerError("deopt without frame state".into()))?;
                let deopt = self.deopt_point(fs)?;
                self.emit(&[op::DEOPT, reason_code(reason), deopt]);
            }
            NodeKind::If => {
                let t = self.cfg.block_of(node.successors()[0]);
                let f = self.cfg.block_of(node.successors()[1]);
                if let Some(cmp) = self.fused.take() {
                    let (cop, a, b, imm) = fused_operands(graph, cmp);
                    let a = self.reg_of(a);
                    self.emit_binary((op::IF_CMP, op::IF_CMP_I), cmp_code(cop), a, b, imm);
                } else {
                    let cond = self.reg_of(inputs[0]);
                    self.emit(&[op::IF, cond]);
                }
                self.emit_target(t);
                self.emit_target(f);
            }
            NodeKind::End | NodeKind::LoopEnd => {
                let is_loop = matches!(graph.kind(n), NodeKind::LoopEnd);
                let succ = self.cfg.block(block).succs[0];
                let moves = self.phi_moves(succ, n)?;
                self.emit(&[if is_loop { op::LOOP_EDGE } else { op::EDGE }]);
                self.emit_target(succ);
                let count = u32::try_from(moves.len())
                    .map_err(|_| LowerError("too many phi moves".into()))?;
                self.emit(&[count]);
                for (d, s) in moves {
                    self.emit(&[d, s]);
                }
            }
            NodeKind::Return => {
                let src = match inputs.first() {
                    Some(&i) => self.reg_of(i),
                    None => NO_REG,
                };
                self.emit(&[op::RETURN, src]);
            }
            NodeKind::Throw => {
                let src = self.reg_of(inputs[0]);
                self.emit(&[op::THROW, src]);
            }
            NodeKind::Unwind => {
                let src = self.reg_of(inputs[0]);
                self.emit(&[op::UNWIND, src]);
            }
            NodeKind::FrameState(_) | NodeKind::VirtualObjectMapping { .. } => {
                unreachable!("metadata scheduled for execution")
            }
        }
        Ok(())
    }

    /// Emits the opcode and first operands of a binary operation,
    /// `[reg_op, lead, a, b]`, or `[pool_op, lead, a, pool_idx]` when the
    /// right operand is the constant `pooled`: `lead` is an arithmetic
    /// operation's destination or a fused compare's condition.
    fn emit_binary(
        &mut self,
        (reg_op, pool_op): (u32, u32),
        lead: u32,
        a: u32,
        b: NodeId,
        pooled: Option<i64>,
    ) {
        match pooled {
            Some(v) => {
                let idx = self.pool_idx(v);
                self.emit(&[pool_op, lead, a, idx]);
            }
            None => {
                let b = self.reg_of(b);
                self.emit(&[reg_op, lead, a, b]);
            }
        }
    }

    /// The phi parallel assignment for the edge `end → succ` as a sequence
    /// of `(dst, src)` moves (cycles broken through the dedicated temp
    /// register). Free of cycle charges, like graph evaluation's phi
    /// update.
    fn phi_moves(&mut self, succ: BlockId, end: NodeId) -> Result<Vec<(u32, u32)>, LowerError> {
        let first = self.cfg.block(succ).first();
        let ends: Vec<NodeId> = match self.graph.kind(first) {
            NodeKind::Merge { ends } | NodeKind::LoopBegin { ends } => ends.clone(),
            _ => return Ok(Vec::new()),
        };
        let idx = ends
            .iter()
            .position(|&e| e == end)
            .ok_or_else(|| LowerError("end not registered on merge".into()))?;
        let mut moves: Vec<(u32, u32)> = Vec::new();
        for phi in self.graph.phis_of(first) {
            let input = self.graph.node(phi).inputs()[idx];
            let dst = self.reg_of(phi);
            let src = self.reg_of(input);
            if dst != src {
                moves.push((dst, src));
            }
        }
        // Sequentialize the parallel assignment: take moves whose
        // destination no pending move still reads; break cycles by
        // parking the overwritten value in the temp register.
        let mut sequence = Vec::with_capacity(moves.len());
        while !moves.is_empty() {
            let ready = moves
                .iter()
                .position(|&(d, _)| moves.iter().all(|&(_, s)| s != d));
            match ready {
                Some(i) => sequence.push(moves.remove(i)),
                None => {
                    let (d, s) = moves.remove(0);
                    let t = self.temp();
                    sequence.push((t, d));
                    sequence.push((d, s));
                    for m in &mut moves {
                        if m.1 == d {
                            m.1 = t;
                        }
                    }
                }
            }
        }
        Ok(sequence)
    }

    /// A commit of one unlocked instance whose every field still holds its
    /// default and whose reference is read: `(register, class)`.
    fn fresh_instance(
        &self,
        commit: NodeId,
        objects: &[pea_ir::CommitObject],
        inputs: &[NodeId],
    ) -> Option<(u32, ClassId)> {
        let [object] = objects else { return None };
        let AllocShape::Instance { class } = object.shape else {
            return None;
        };
        let dst = *self.alloc_dsts.get(&(commit, 0))?;
        let fresh = object.lock_count == 0
            && inputs
                .iter()
                .zip(self.program.slot_kinds(class))
                .all(|(&input, kind)| {
                    matches!(
                        (self.graph.kind(input), kind),
                        (NodeKind::ConstInt { value: 0 }, ValueKind::Int)
                            | (NodeKind::ConstNull, ValueKind::Ref)
                    )
                });
        fresh.then_some((dst, class))
    }

    /// Pre-resolves a field access to `(declaring class, slot)`. Object
    /// layouts are prefix-stable (superclass fields first), so the slot is
    /// valid for every subclass of the declaring class.
    fn field_offset(&self, field: FieldId) -> Result<(u32, u32), LowerError> {
        let declaring = self.program.field(field).class;
        let slot = self
            .program
            .field_slot(declaring, field)
            .ok_or_else(|| LowerError(format!("field {field} missing from its class")))?;
        Ok((
            class_code(declaring),
            u32::try_from(slot).map_err(|_| LowerError("field slot exceeds u32".into()))?,
        ))
    }

    /// Compiles the frame-state chain rooted at `fs` into a
    /// [`DeoptPoint`], memoized per frame-state node.
    fn deopt_point(&mut self, fs: NodeId) -> Result<u32, LowerError> {
        if let Some(&i) = self.deopt_map.get(&fs) {
            return Ok(i);
        }
        // Chain innermost → outermost, then reverse (as deoptimization
        // reconstructs frames outermost first).
        let mut chain = vec![fs];
        let mut cur = fs;
        while let Some(outer_idx) = self.graph.frame_state_data(cur).outer_index() {
            cur = self.graph.node(cur).inputs()[outer_idx];
            chain.push(cur);
        }
        chain.reverse();

        let mut vobjs: Vec<LinearVObj> = Vec::new();
        let mut vo_map: HashMap<NodeId, u32> = HashMap::new();
        let mut frames = Vec::with_capacity(chain.len());
        for fsn in chain {
            let data = self.graph.frame_state_data(fsn).clone();
            let inputs = self.graph.node(fsn).inputs().to_vec();
            let mut locals = Vec::with_capacity(data.n_locals as usize);
            for i in data.locals_range() {
                locals.push(self.slot_src(inputs[i], &mut vobjs, &mut vo_map)?);
            }
            let mut stack = Vec::with_capacity(data.n_stack as usize);
            for i in data.stack_range() {
                stack.push(self.slot_src(inputs[i], &mut vobjs, &mut vo_map)?);
            }
            let mut locks = Vec::with_capacity(data.n_locks as usize);
            for (k, i) in data.locks_range().enumerate() {
                let src = self.slot_src(inputs[i], &mut vobjs, &mut vo_map)?;
                locks.push((src, data.lock_from_sync[k]));
            }
            frames.push(LinearFrame {
                method: data.method,
                bci: data.bci,
                locals,
                stack,
                locks,
            });
        }
        let idx = u32::try_from(self.deopts.len())
            .map_err(|_| LowerError("deopt table exceeds u32".into()))?;
        self.deopts.push(DeoptPoint { frames, vobjs });
        self.deopt_map.insert(fs, idx);
        Ok(idx)
    }

    /// Compiles one frame-state slot source: virtual-object mappings are
    /// added to the point's table (cycle-safe: the index is reserved
    /// before field sources are compiled), constants are carried as they
    /// are, everything else reads a register.
    fn slot_src(
        &mut self,
        id: NodeId,
        vobjs: &mut Vec<LinearVObj>,
        vo_map: &mut HashMap<NodeId, u32>,
    ) -> Result<SlotSrc, LowerError> {
        let (shape, lock_count) = match *self.graph.kind(id) {
            NodeKind::VirtualObjectMapping { shape, lock_count } => (shape, lock_count),
            NodeKind::ConstInt { value } => return Ok(SlotSrc::Int(value)),
            NodeKind::ConstNull => return Ok(SlotSrc::Null),
            _ => return Ok(SlotSrc::Reg(self.reg_of(id))),
        };
        if let Some(&i) = vo_map.get(&id) {
            return Ok(SlotSrc::Virtual(i));
        }
        let idx = u32::try_from(vobjs.len())
            .map_err(|_| LowerError("virtual-object table exceeds u32".into()))?;
        vo_map.insert(id, idx);
        vobjs.push(LinearVObj {
            shape,
            lock_count,
            fields: Vec::new(),
        });
        let field_inputs = self.graph.node(id).inputs().to_vec();
        let mut fields = Vec::with_capacity(field_inputs.len());
        for input in field_inputs {
            fields.push(self.slot_src(input, vobjs, vo_map)?);
        }
        vobjs[idx as usize].fields = fields;
        Ok(SlotSrc::Virtual(idx))
    }
}

/// Whether a binary operation gives the same result with its operands
/// swapped.
fn commutes(op: ArithOp) -> bool {
    matches!(
        op,
        ArithOp::Add | ArithOp::Mul | ArithOp::And | ArithOp::Or | ArithOp::Xor
    )
}

/// The input of binary node `n` its instruction reads from the pool: the
/// right one when it is an integer constant, else the left one when it is
/// and the operands may swap sides.
fn pooled_side(graph: &Graph, n: NodeId, swaps: bool) -> Option<usize> {
    let is_const = |side: usize| {
        matches!(
            graph.kind(graph.node(n).inputs()[side]),
            NodeKind::ConstInt { .. }
        )
    };
    if is_const(1) {
        Some(1)
    } else if swaps && is_const(0) {
        Some(0)
    } else {
        None
    }
}

/// The operands `(a, b, pooled)` of binary node `n` when its instruction
/// reads input `side` from the pool: `a` is read from a register, and so
/// is `b` unless `pooled` holds its value.
fn operands(graph: &Graph, n: NodeId, side: Option<usize>) -> (NodeId, NodeId, Option<i64>) {
    let inputs = graph.node(n).inputs();
    let value = |i: usize| match *graph.kind(inputs[i]) {
        NodeKind::ConstInt { value } => value,
        _ => unreachable!("only integer constants are pooled"),
    };
    match side {
        Some(1) => (inputs[0], inputs[1], Some(value(1))),
        Some(_) => (inputs[1], inputs[0], Some(value(0))),
        None => (inputs[0], inputs[1], None),
    }
}

/// A fused compare's condition and operands `(cmp, a, b, pooled)`, as
/// [`operands`] gives them; when the operands swap sides, the condition
/// is mirrored.
fn fused_operands(graph: &Graph, cmp: NodeId) -> (CmpOp, NodeId, NodeId, Option<i64>) {
    let NodeKind::Compare { op } = *graph.kind(cmp) else {
        unreachable!("only compares fuse")
    };
    let side = pooled_side(graph, cmp, true);
    let (a, b, pooled) = operands(graph, cmp, side);
    let op = if side == Some(0) { op.flipped() } else { op };
    (op, a, b, pooled)
}
