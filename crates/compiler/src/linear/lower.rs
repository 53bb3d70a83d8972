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

/// Marks "none" in the node-indexed tables below.
const NONE: u32 = u32::MAX;

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
        phi_moves: 0,
        read_consts: vec![false; graph.len()],
        temp_reg: NO_REG,
        block_pc: vec![u32::MAX; cfg.num_blocks()],
        fixups: Vec::new(),
        deopts: Vec::new(),
        deopt_map: vec![NONE; graph.len()],
        commits: Vec::new(),
        alloc_base: vec![NONE; graph.len()],
        alloc_slots: Vec::new(),
        vo_map: vec![NONE; graph.len()],
        vo_nodes: Vec::new(),
        chain: Vec::new(),
        args: Vec::new(),
        moves: Vec::new(),
        sequence: Vec::new(),
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
    /// Moves emitted on edges so far ([`LinearArtifact::phi_moves`]).
    phi_moves: u32,
    /// Per node: a constant some instruction reads from a register.
    read_consts: Vec<bool>,
    temp_reg: u32,
    block_pc: Vec<u32>,
    /// `(code index, target block)` pairs patched after layout.
    fixups: Vec<(usize, BlockId)>,
    deopts: Vec<DeoptPoint>,
    /// Per frame-state node: its [`DeoptPoint`] index, or [`NONE`].
    deopt_map: Vec<u32>,
    commits: Vec<LinearCommit>,
    /// Per commit node: where its objects' rows start in
    /// [`Lowerer::alloc_slots`], or [`NONE`] before the first
    /// `AllocatedObject` of the commit is seen.
    alloc_base: Vec<u32>,
    /// One row per `(commit, object index)`: the designated
    /// `AllocatedObject` node and its register, written directly by the
    /// commit; other nodes for the same slot become register moves.
    /// `NO_REG` marks an object no node reads.
    alloc_slots: Vec<(NodeId, u32)>,
    /// Per virtual-object mapping: its index in the deopt point being
    /// built, or [`NONE`]; [`Lowerer::vo_nodes`] lists the entries to reset
    /// once the point is done.
    vo_map: Vec<u32>,
    vo_nodes: Vec<NodeId>,
    /// Work lists reused by every instruction: a frame-state chain, call
    /// argument registers, and the phi moves of an edge before and after
    /// sequentialization.
    chain: Vec<NodeId>,
    args: Vec<u32>,
    moves: Vec<(u32, u32)>,
    sequence: Vec<(u32, u32)>,
    /// The compare the next node, an `If` or a `Guard`, absorbs.
    fused: Option<NodeId>,
}

impl Lowerer<'_> {
    fn run(mut self) -> Result<LinearArtifact, LowerError> {
        let (graph, schedule) = (self.graph, self.schedule);
        // Pre-pass: designate one AllocatedObject node per commit slot so
        // the commit template can write its register directly; give each
        // parameter its register; find the constants an instruction reads
        // from a register; and coalesce phis with their inputs.
        let mut marks = None;
        for b in &self.cfg.rpo {
            let order = &schedule.per_block[b.index()];
            for (at, &n) in order.iter().enumerate() {
                match graph.kind(n) {
                    NodeKind::AllocatedObject { index } => {
                        let commit = graph.inputs(n)[0];
                        let row = self.alloc_row(commit, *index);
                        if self.alloc_slots[row].1 == NO_REG {
                            let reg = self.reg_of(n);
                            self.alloc_slots[row] = (n, reg);
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
            if let NodeKind::Merge | NodeKind::LoopBegin = graph.kind(first) {
                for phi in graph.iter_phis(first) {
                    for &input in graph.node(phi).inputs() {
                        self.note_read(input);
                    }
                }
                self.coalesce(*b, &mut marks);
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
            phi_moves: self.phi_moves,
            deopts: self.deopts,
            commits: self.commits,
        })
    }

    /// Gives every phi input that can share its phi's register that
    /// register, so that its edge carries no move for that phi. A phi
    /// shares with its input `v` on the edge `E` when
    ///
    /// - `v` is computed in `E`'s predecessor block and into a register
    ///   of its own (not a phi, parameter, constant or allocated object);
    /// - `E` is a back edge, or a forward edge into a merge of two or more
    ///   edges: there, the predecessor does not dominate the merge, so
    ///   nothing past `E` reads `v` but the phi, and the phi is read
    ///   nowhere in the predecessor;
    /// - `v` feeds no other phi on `E`, and no other phi reads the phi on
    ///   `E`;
    /// - on a back edge, nothing after `v` in its block reads the phi's
    ///   value of the turn before: no operand, and no deopt point with its
    ///   frame states and virtual-object mappings (`v`'s own included).
    ///
    /// Writing `v` then overwrites only a phi value nothing reads again.
    /// `block` is a merge's block; `v` has no register yet. Borrows the
    /// work lists [`Lowerer::chain`] (the merge's phis), [`Lowerer::moves`]
    /// (an edge's phi inputs) and [`Lowerer::sequence`] (a back edge's
    /// candidates); `marks` is made at the first back edge with a
    /// candidate.
    fn coalesce(&mut self, block: BlockId, marks: &mut Option<Marks>) {
        let (graph, cfg) = (self.graph, self.cfg);
        let block = cfg.block(block);
        let merge = block.first();
        let is_loop = matches!(graph.kind(merge), NodeKind::LoopBegin);
        if !is_loop && block.preds.len() < 2 {
            return;
        }
        let mut phis = std::mem::take(&mut self.chain);
        let mut inputs = std::mem::take(&mut self.moves);
        let mut candidates = std::mem::take(&mut self.sequence);
        phis.clear();
        phis.extend(graph.iter_phis(merge));
        for (edge, &pred) in block.preds.iter().enumerate() {
            // A loop's forward edge comes from a block that dominates it.
            if phis.is_empty()
                || is_loop && !matches!(graph.kind(cfg.block(pred).last()), NodeKind::LoopEnd)
            {
                continue;
            }
            candidates.clear();
            for &phi in &phis {
                let v = graph.inputs(phi)[edge];
                if self.computed_in(v, pred) {
                    candidates.push((v.0, phi.0));
                }
            }
            if !candidates.is_empty() && phis.len() > 1 {
                inputs.clear();
                inputs.extend(phis.iter().map(|&phi| (graph.inputs(phi)[edge].0, phi.0)));
                inputs.sort_unstable();
                let feeds = |n: u32| {
                    let from = inputs.partition_point(|&(input, _)| input < n);
                    inputs[from..]
                        .iter()
                        .take_while(|&&(input, _)| input == n)
                        .count()
                };
                candidates.retain(|&(v, phi)| feeds(v) == 1 && feeds(phi) == 0);
            }
            if candidates.is_empty() {
                continue;
            }
            if is_loop {
                let marks = marks.get_or_insert_with(|| Marks {
                    at: vec![NONE; graph.len()],
                    work: Vec::with_capacity(graph.len()),
                });
                self.coalesce_back_edge(marks, merge, pred, &candidates);
                for &phi in &phis {
                    marks.at[phi.index()] = NONE;
                }
            } else {
                for &(v, phi) in &candidates {
                    self.regs[v as usize] = self.reg_of(NodeId(phi));
                }
            }
        }
        self.chain = phis;
        self.moves = inputs;
        self.sequence = candidates;
    }

    /// Whether `v` is computed in block `b` into a register of its own.
    fn computed_in(&self, v: NodeId, b: BlockId) -> bool {
        match self.graph.kind(v) {
            NodeKind::Phi { .. }
            | NodeKind::Param { .. }
            | NodeKind::ConstInt { .. }
            | NodeKind::ConstNull
            | NodeKind::AllocatedObject { .. } => false,
            kind if kind.is_floating() => self.schedule.placement_of(v) == Some(b),
            _ => self.cfg.try_block_of(v) == Some(b),
        }
    }

    /// Gives each `(v, phi)` of `candidates`, inputs computed in `pred`
    /// for the back edge to `merge`, its phi's register unless something
    /// after `v` in `pred` reads the phi. Walks `pred` from its end down
    /// to its earliest candidate, so a phi is marked read once any node
    /// after the current one reads it.
    fn coalesce_back_edge(
        &mut self,
        marks: &mut Marks,
        merge: NodeId,
        pred: BlockId,
        candidates: &[(u32, u32)],
    ) {
        let graph = self.graph;
        for &(v, phi) in candidates {
            marks.at[v as usize] = phi;
        }
        let mut left = candidates.len();
        for &n in self.schedule.per_block[pred.index()].iter().rev() {
            // `n`'s own deopt point counts as a read after its write.
            marks.note_state_reads(graph, merge, n, pred.0);
            let phi = std::mem::replace(&mut marks.at[n.index()], NONE);
            if phi != NONE {
                if marks.at[phi as usize] == NONE {
                    self.regs[n.index()] = self.reg_of(NodeId(phi));
                }
                left -= 1;
                if left == 0 {
                    break;
                }
            }
            // `n` reads its operands before it writes.
            for &input in graph.inputs(n) {
                marks.note(graph, merge, input);
            }
        }
        debug_assert_eq!(left, 0, "a candidate outside its block");
    }

    /// The row of `(commit, index)` in [`Lowerer::alloc_slots`], adding
    /// the commit's rows on first sight.
    fn alloc_row(&mut self, commit: NodeId, index: usize) -> usize {
        if self.alloc_base[commit.index()] == NONE {
            let NodeKind::Commit { objects } = self.graph.kind(commit) else {
                unreachable!("allocated object of a non-commit {commit}")
            };
            self.alloc_base[commit.index()] = self.alloc_slots.len() as u32;
            let rows = self.alloc_slots.len() + objects.len();
            self.alloc_slots.resize(rows, (commit, NO_REG));
        }
        self.alloc_base[commit.index()] as usize + index
    }

    /// The register the commit `commit` writes its object `index` to, if
    /// some `AllocatedObject` node reads it.
    fn alloc_dst(&self, commit: NodeId, index: usize) -> Option<u32> {
        let base = self.alloc_base[commit.index()];
        let (_, reg) = *self
            .alloc_slots
            .get((base != NONE).then_some(base as usize + index)?)?;
        (reg != NO_REG).then_some(reg)
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
            | NodeKind::Merge
            | NodeKind::LoopBegin
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
                // A void target writes none.
                let dst = if self.program.method(target).returns_value {
                    self.reg_of(n)
                } else {
                    NO_REG
                };
                // Argument registers are numbered before the deopt
                // point's.
                let mut arg_regs = std::mem::take(&mut self.args);
                arg_regs.clear();
                for &i in inputs {
                    arg_regs.push(self.reg_of(i));
                }
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
                self.args = arg_regs;
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
                    let dst = self.alloc_dst(n, oi).unwrap_or(NO_REG);
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
                self.emit(&[op::COMMIT, idx]);
            }
            NodeKind::AllocatedObject { index } => {
                let commit = inputs[0];
                let primary = self.alloc_dst(commit, index).map(|_| {
                    let row = self.alloc_base[commit.index()] as usize + index;
                    self.alloc_slots[row].0
                });
                if primary == Some(n) {
                    // Register written directly by the commit instruction.
                } else {
                    let src = self
                        .alloc_dst(commit, index)
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
                self.phi_moves(succ, n)?;
                self.emit(&[if is_loop { op::LOOP_EDGE } else { op::EDGE }]);
                self.emit_target(succ);
                let count = u32::try_from(self.sequence.len())
                    .map_err(|_| LowerError("too many phi moves".into()))?;
                self.phi_moves = self.phi_moves.saturating_add(count);
                self.emit(&[count]);
                for k in 0..self.sequence.len() {
                    let (d, s) = self.sequence[k];
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
    /// register), left in [`Lowerer::sequence`]. Free of cycle charges,
    /// like graph evaluation's phi update.
    fn phi_moves(&mut self, succ: BlockId, end: NodeId) -> Result<(), LowerError> {
        let graph = self.graph;
        let first = self.cfg.block(succ).first();
        let mut moves = std::mem::take(&mut self.moves);
        let mut sequence = std::mem::take(&mut self.sequence);
        moves.clear();
        sequence.clear();
        if let NodeKind::Merge | NodeKind::LoopBegin = graph.kind(first) {
            let idx = graph
                .merge_ends(first)
                .iter()
                .position(|&e| e == end)
                .ok_or_else(|| LowerError("end not registered on merge".into()))?;
            for phi in graph.iter_phis(first) {
                let input = graph.inputs(phi)[idx];
                let dst = self.reg_of(phi);
                let src = self.reg_of(input);
                if dst != src {
                    moves.push((dst, src));
                }
            }
        }
        // Sequentialize the parallel assignment: take moves whose
        // destination no pending move still reads; break cycles by
        // parking the overwritten value in the temp register.
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
        self.moves = moves;
        self.sequence = sequence;
        Ok(())
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
        let dst = self.alloc_dst(commit, 0)?;
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
        let known = self.deopt_map[fs.index()];
        if known != NONE {
            return Ok(known);
        }
        let graph = self.graph;
        // Chain innermost → outermost, then reverse (as deoptimization
        // reconstructs frames outermost first).
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        chain.push(fs);
        let mut cur = fs;
        while let Some(outer_idx) = graph.frame_state_data(cur).outer_index() {
            cur = graph.inputs(cur)[outer_idx];
            chain.push(cur);
        }
        chain.reverse();

        let mut vobjs: Vec<LinearVObj> = Vec::new();
        let mut frames = Vec::with_capacity(chain.len());
        for &fsn in &chain {
            let data = *graph.frame_state_data(fsn);
            let inputs = graph.inputs(fsn);
            let mut locals = Vec::with_capacity(data.n_locals as usize);
            for i in data.locals_range() {
                locals.push(self.slot_src(inputs[i], &mut vobjs)?);
            }
            let mut stack = Vec::with_capacity(data.n_stack as usize);
            for i in data.stack_range() {
                stack.push(self.slot_src(inputs[i], &mut vobjs)?);
            }
            let mut locks = Vec::with_capacity(data.n_locks as usize);
            for (k, i) in data.locks_range().enumerate() {
                let src = self.slot_src(inputs[i], &mut vobjs)?;
                locks.push((src, data.lock_is_from_sync(k)));
            }
            frames.push(LinearFrame {
                method: data.method,
                bci: data.bci,
                locals,
                stack,
                locks,
            });
        }
        self.chain = chain;
        for k in 0..self.vo_nodes.len() {
            let node = self.vo_nodes[k];
            self.vo_map[node.index()] = NONE;
        }
        self.vo_nodes.clear();
        let idx = u32::try_from(self.deopts.len())
            .map_err(|_| LowerError("deopt table exceeds u32".into()))?;
        self.deopts.push(DeoptPoint { frames, vobjs });
        self.deopt_map[fs.index()] = idx;
        Ok(idx)
    }

    /// Compiles one frame-state slot source: virtual-object mappings are
    /// added to the point's table (cycle-safe: the index is reserved
    /// before field sources are compiled), constants are carried as they
    /// are, everything else reads a register.
    fn slot_src(&mut self, id: NodeId, vobjs: &mut Vec<LinearVObj>) -> Result<SlotSrc, LowerError> {
        let graph = self.graph;
        let (shape, lock_count) = match *graph.kind(id) {
            NodeKind::VirtualObjectMapping { shape, lock_count } => (shape, lock_count),
            NodeKind::ConstInt { value } => return Ok(SlotSrc::Int(value)),
            NodeKind::ConstNull => return Ok(SlotSrc::Null),
            _ => return Ok(SlotSrc::Reg(self.reg_of(id))),
        };
        let known = self.vo_map[id.index()];
        if known != NONE {
            return Ok(SlotSrc::Virtual(known));
        }
        let idx = u32::try_from(vobjs.len())
            .map_err(|_| LowerError("virtual-object table exceeds u32".into()))?;
        self.vo_map[id.index()] = idx;
        self.vo_nodes.push(id);
        vobjs.push(LinearVObj {
            shape,
            lock_count,
            fields: Vec::new(),
        });
        let field_inputs = graph.inputs(id);
        let mut fields = Vec::with_capacity(field_inputs.len());
        for &input in field_inputs {
            fields.push(self.slot_src(input, vobjs)?);
        }
        vobjs[idx as usize].fields = fields;
        Ok(SlotSrc::Virtual(idx))
    }
}

/// The work tables of [`Lowerer::coalesce`].
struct Marks {
    /// Per node, by kind (the three never overlap), [`NONE`] by default:
    /// for a candidate input of the back edge being looked at, its phi;
    /// for a loop phi, `0` once a node after the current one reads it;
    /// for a metadata node, the block whose walk visited it last.
    at: Vec<u32>,
    work: Vec<NodeId>,
}

impl Marks {
    /// Marks the phis of `merge` that the deopt point of `n`, if `n` is
    /// one, reads through its frame states and virtual-object mappings,
    /// those `block`'s walk has not visited yet.
    fn note_state_reads(&mut self, graph: &Graph, merge: NodeId, n: NodeId, block: u32) {
        let node = graph.node(n);
        let state = match node.kind {
            NodeKind::Invoke { .. } | NodeKind::Guard { .. } | NodeKind::Deopt { .. } => {
                node.state_after
            }
            _ => None,
        };
        let Some(state) = state.filter(|s| self.at[s.index()] != block) else {
            return;
        };
        self.at[state.index()] = block;
        self.work.push(state);
        while let Some(m) = self.work.pop() {
            for &input in graph.inputs(m) {
                if !graph.kind(input).is_meta() {
                    self.note(graph, merge, input);
                } else if self.at[input.index()] != block {
                    self.at[input.index()] = block;
                    self.work.push(input);
                }
            }
        }
    }

    /// Marks `n` read if it is a phi of `merge`.
    fn note(&mut self, graph: &Graph, merge: NodeId, n: NodeId) {
        if matches!(*graph.kind(n), NodeKind::Phi { merge: m } if m == merge) {
            self.at[n.index()] = 0;
        }
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
