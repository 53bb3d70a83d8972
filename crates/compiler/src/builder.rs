//! Bytecode → Graal-IR-style graph construction, with method inlining,
//! frame-state bookkeeping and profile-guided speculation.
//!
//! The builder abstract-interprets the bytecode per basic block, mapping
//! locals and operand-stack slots to SSA value nodes. Control-flow joins
//! become `Merge` nodes with phis; loop headers become `LoopBegin` nodes
//! with eagerly created phis for every slot (redundant ones are cleaned by
//! canonicalization). Frame states are captured after every side effect
//! and at every merge, exactly as §2 of the paper describes, and inlined
//! callees chain their states to the caller's state at the call site.

use pea_bytecode::{ClassId, CmpOp, ExceptionEntry, Insn, MethodFacts, MethodId, Program};
use pea_ir::{ArithOp, DeoptReason, FrameStateData, Graph, NodeId, NodeKind};
use pea_runtime::profile::ProfileStore;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Why a method cannot be compiled (the VM falls back to interpretation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bailout {
    /// The bytecode control flow is irreducible.
    Irreducible,
    /// `monitorexit` does not match the innermost tracked lock, or lock
    /// stacks disagree at a control-flow merge.
    UnstructuredLocking,
    /// The graph exceeded the node budget.
    TooLarge,
    /// Anything else.
    Unsupported(String),
}

impl fmt::Display for Bailout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bailout::Irreducible => f.write_str("irreducible control flow"),
            Bailout::UnstructuredLocking => f.write_str("unstructured locking"),
            Bailout::TooLarge => f.write_str("graph too large"),
            Bailout::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl Error for Bailout {}

/// One recorded inline decision: every resolved call site parsed during
/// graph construction gets exactly one, accepted or not. The pipeline
/// turns these into `InlineDecision` trace events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InlineDecisionRec {
    /// Method whose bytecode contains the call site (the root method or
    /// an already-inlined callee).
    pub caller: MethodId,
    /// Call-site bytecode index within `caller`.
    pub bci: u32,
    /// The resolved (devirtualized if possible) call target.
    pub callee: MethodId,
    /// Whether the callee was inlined.
    pub inlined: bool,
    /// Kebab-case decision reason.
    pub reason: &'static str,
}

/// One receiver-type speculation planted at a virtual call site: a
/// monomorphic type guard (one class) or a polymorphic inline cache
/// (2..=[`MAX_PIC_CLASSES`] classes, hottest first). The pipeline turns
/// these into `DevirtGuard` trace events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DevirtGuardRec {
    /// Method whose bytecode contains the call site.
    pub caller: MethodId,
    /// Call-site bytecode index within `caller`.
    pub bci: u32,
    /// The declared (virtual) call target.
    pub callee: MethodId,
    /// Speculated receiver classes, hottest first.
    pub classes: Vec<ClassId>,
}

/// Graph-construction options. Never-taken branches always become
/// deoptimizing guards, and virtual call sites with
/// 2–[`MAX_PIC_CLASSES`] observed receiver classes always become a
/// polymorphic inline cache, once their profiles pass the thresholds.
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Minimum branch executions before a zero count is trusted.
    pub branch_threshold: u64,
    /// Inline eligible callees during parsing.
    pub inline: bool,
    /// Minimum observed dispatches before devirtualizing a monomorphic
    /// virtual call with a type guard, or building an inline cache over
    /// a polymorphic one.
    pub devirtualize_threshold: u64,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            branch_threshold: 20,
            inline: true,
            devirtualize_threshold: 20,
        }
    }
}

/// Maximum inline nesting depth: a call parsed at this depth stays a
/// call, so the active inline chain holds at most `INLINE_MAX_DEPTH + 1`
/// methods.
const INLINE_MAX_DEPTH: usize = 4;

/// Longest callee bytecode inlined.
const INLINE_MAX_CALLEE_CODE: usize = 64;

/// Node budget; a graph exceeding it is a [`Bailout::TooLarge`].
const MAX_GRAPH_NODES: usize = 20_000;

/// Most receiver classes a polymorphic inline cache will speculate on;
/// sites with more observed classes stay genuinely virtual.
pub const MAX_PIC_CLASSES: usize = 4;

/// One tracked monitor.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LockEntry {
    object: NodeId,
    from_sync: bool,
}

/// The abstract frame during parsing.
#[derive(Debug)]
struct FlowState {
    locals: Vec<NodeId>,
    stack: Vec<NodeId>,
    locks: Vec<LockEntry>,
    /// Frame state guards/deopts refer to (last side effect or merge).
    deopt_state: NodeId,
}

impl FlowState {
    /// A state owning no buffers.
    fn empty() -> Self {
        FlowState {
            locals: Vec::new(),
            stack: Vec::new(),
            locks: Vec::new(),
            deopt_state: NodeId(0),
        }
    }
}

struct LoopCtx {
    loop_begin: NodeId,
    /// One phi per local slot then per stack slot: a range of
    /// [`MethodCtx::loop_phis`].
    phis: std::ops::Range<usize>,
    /// The lock stack every back edge must match.
    locks: Vec<LockEntry>,
}

/// Per-(possibly inlined) method parsing context; the per-bci tables are
/// indexed by block leader.
struct MethodCtx<'a> {
    method: MethodId,
    depth: usize,
    /// The method's sealed bytecode facts (blocks, loop headers,
    /// liveness).
    facts: &'a MethodFacts,
    /// Edges not yet consumed: (target leader, attach point, state), in
    /// arrival order.
    pending: Vec<(u32, NodeId, FlowState)>,
    loops: Vec<Option<LoopCtx>>,
    /// The phis of every loop header, loop after loop.
    loop_phis: Vec<NodeId>,
    processed: Vec<bool>,
    /// (attach point, return value) per reachable return.
    exits: Vec<(NodeId, Option<NodeId>)>,
}

/// The graph builder.
pub struct GraphBuilder<'a> {
    program: &'a Program,
    profiles: Option<&'a ProfileStore>,
    options: &'a BuildOptions,
    graph: Graph,
    /// Methods on the active inline chain (root included) — a set, so the
    /// per-call-site recursion check is O(1) instead of O(depth).
    inline_active: HashSet<MethodId>,
    /// Inline decisions in parse order, one per resolved call site.
    decisions: Vec<InlineDecisionRec>,
    /// Receiver-type speculations in parse order (mono guards and PICs).
    guards: Vec<DevirtGuardRec>,
    /// Frame state of the innermost enclosing caller while building an
    /// inlined callee (becomes the `outer` of the callee's frame states).
    current_outer: Option<NodeId>,
    /// Abstract states whose buffers are free for the next edge: an edge
    /// copies its state into a recycled one instead of cloning it.
    spare: Vec<FlowState>,
    /// The edges into the block being entered.
    edges: Vec<(NodeId, FlowState)>,
    /// Input list under construction (frame states, phis, merge ends).
    inputs: Vec<NodeId>,
}

/// Builds the IR graph of `method`, inlining per `options` and speculating
/// from `profiles`.
///
/// # Errors
///
/// Returns a [`Bailout`] when the method cannot be represented (the VM
/// then keeps interpreting it).
pub fn build_graph(
    program: &Program,
    method: MethodId,
    profiles: Option<&ProfileStore>,
    options: &BuildOptions,
) -> Result<Graph, Bailout> {
    build_graph_with(program, method, profiles, options).map(|(graph, _, _)| graph)
}

/// [`build_graph`], also returning the per-call-site inline decisions and
/// the receiver-type speculations planted.
///
/// # Errors
///
/// Returns a [`Bailout`] when the method cannot be represented.
pub fn build_graph_with(
    program: &Program,
    method: MethodId,
    profiles: Option<&ProfileStore>,
    options: &BuildOptions,
) -> Result<(Graph, Vec<InlineDecisionRec>, Vec<DevirtGuardRec>), Bailout> {
    let mut builder = GraphBuilder {
        program,
        profiles,
        options,
        graph: Graph::new(),
        inline_active: HashSet::from([method]),
        decisions: Vec::new(),
        guards: Vec::new(),
        current_outer: None,
        spare: Vec::new(),
        edges: Vec::new(),
        inputs: Vec::new(),
    };
    let m = program.method(method);
    let mut args = Vec::new();
    for i in 0..m.param_count {
        args.push(builder.graph.add(NodeKind::Param { index: i }, &[]));
    }
    let start = builder.graph.start;
    let exits = builder.build_method(method, &args, None, 0, start)?;
    for (attach, value) in exits {
        let ret = builder.graph.add(NodeKind::Return, value.as_slice());
        builder.graph.set_next(attach, ret);
    }
    builder.demote_empty_loops();
    Ok((builder.graph, builder.decisions, builder.guards))
}

impl<'a> GraphBuilder<'a> {
    fn check_budget(&self) -> Result<(), Bailout> {
        if self.graph.len() > MAX_GRAPH_NODES {
            return Err(Bailout::TooLarge);
        }
        Ok(())
    }

    /// A copy of `state` in recycled buffers.
    fn clone_state(&mut self, state: &FlowState) -> FlowState {
        let mut copy = self.spare.pop().unwrap_or_else(FlowState::empty);
        copy.locals.clone_from(&state.locals);
        copy.stack.clone_from(&state.stack);
        copy.locks.clone_from(&state.locks);
        copy.deopt_state = state.deopt_state;
        copy
    }

    /// Returns a consumed state's buffers for reuse.
    fn recycle(&mut self, state: FlowState) {
        if state.locals.capacity() + state.stack.capacity() > 0 {
            self.spare.push(state);
        }
    }

    fn make_state(&mut self, method: MethodId, bci: u32, st: &FlowState) -> NodeId {
        self.make_state_with(method, bci, bci, &st.locals, &st.stack, &st.locks)
    }

    /// The state after an out-of-line call at `bci`. It resumes at
    /// `bci + 1`, but an exception from the callee rewinds it to `bci`
    /// (`FrameChain::rewind_to_invoke`), where a covering handler may read
    /// a local dead after the call: its locals are cleared by liveness at
    /// the call itself, which counts the handlers' reads.
    fn call_state(&mut self, method: MethodId, bci: u32, st: &FlowState) -> NodeId {
        self.make_state_with(method, bci + 1, bci, &st.locals, &st.stack, &st.locks)
    }

    /// A frame state at `bci` whose locals dead at `live_at` are cleared.
    fn make_state_with(
        &mut self,
        method: MethodId,
        bci: u32,
        live_at: u32,
        locals: &[NodeId],
        stack: &[NodeId],
        locks: &[LockEntry],
    ) -> NodeId {
        let outer = self.current_outer;
        // Dead locals are cleared (stored as null), as in HotSpot frames:
        // this keeps dead values — especially allocations — from being
        // pinned by deoptimization metadata.
        let mut inputs = std::mem::take(&mut self.inputs);
        inputs.clear();
        inputs.extend_from_slice(locals);
        if (live_at as usize) < self.program.method(method).code.len() {
            let facts = self.program.facts(method);
            let null = self.graph.const_null();
            for (slot, v) in inputs.iter_mut().enumerate() {
                if !facts.is_live(live_at, slot) {
                    *v = null;
                }
            }
        }
        inputs.extend_from_slice(stack);
        inputs.extend(locks.iter().map(|l| l.object));
        if let Some(o) = outer {
            inputs.push(o);
        }
        let mut data = FrameStateData::new(
            method,
            bci,
            locals.len() as u32,
            stack.len() as u32,
            locks.len() as u32,
            outer.is_some(),
        );
        for (k, lock) in locks.iter().enumerate() {
            if lock.from_sync {
                // A synchronized method's lock is the first of its frame.
                debug_assert_eq!(k, 0, "sync lock above another lock");
                data.lock_from_sync |= 1 << k;
            }
        }
        let fs = self.graph.add_frame_state(data, &inputs);
        self.inputs = inputs;
        fs
    }

    /// Parses `method` into the graph starting at `attach`; returns the
    /// open exit edges (attach point + return value).
    fn build_method(
        &mut self,
        method: MethodId,
        args: &[NodeId],
        outer_state: Option<NodeId>,
        depth: usize,
        attach: NodeId,
    ) -> Result<Vec<(NodeId, Option<NodeId>)>, Bailout> {
        let program = self.program;
        let m = program.method(method);
        let facts = program.facts(method);
        // Irreducible regions (a cycle entered other than through its
        // header) cannot be expressed with `LoopBegin`/`LoopEnd` and force
        // an interpreter fallback — the same policy as structured-IR JITs.
        if !facts.is_reducible() {
            return Err(Bailout::Irreducible);
        }
        let mut ctx = MethodCtx {
            method,
            depth,
            facts,
            pending: Vec::new(),
            loops: (0..m.code.len()).map(|_| None).collect(),
            loop_phis: Vec::new(),
            processed: vec![false; m.code.len()],
            exits: Vec::new(),
        };

        // Entry state: parameters in the first locals.
        let mut state = self.spare.pop().unwrap_or_else(FlowState::empty);
        state.locals.clear();
        state.locals.extend_from_slice(args);
        let null = self.graph.const_null();
        state.locals.resize(m.max_locals as usize, null);
        state.stack.clear();
        state.locks.clear();
        let saved_outer = self.current_outer;
        self.current_outer = outer_state;
        state.deopt_state = self.make_state_with(method, 0, 0, &state.locals, &[], &[]);

        let mut tail = attach;
        if m.is_synchronized {
            let recv = state.locals[0];
            let me = self.graph.add(NodeKind::MonitorEnter, &[recv]);
            self.graph.set_next(tail, me);
            tail = me;
            state.locks.push(LockEntry {
                object: recv,
                from_sync: true,
            });
            let fs = self.make_state(method, 0, &state);
            self.graph.set_state_after(me, Some(fs));
            state.deopt_state = fs;
        }
        ctx.pending.push((0, tail, state));

        for &leader in facts.rpo() {
            self.check_budget()?;
            self.process_bc_block(&mut ctx, leader)?;
        }
        self.current_outer = saved_outer;
        Ok(ctx.exits)
    }

    fn process_bc_block(&mut self, ctx: &mut MethodCtx, leader: u32) -> Result<(), Bailout> {
        // This leader's edges, in arrival order.
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        let mut i = 0;
        while i < ctx.pending.len() {
            if ctx.pending[i].0 == leader {
                let (_, attach, state) = ctx.pending.remove(i);
                edges.push((attach, state));
            } else {
                i += 1;
            }
        }
        if edges.is_empty() {
            self.edges = edges;
            return Ok(()); // unreachable (e.g. a speculated-away branch)
        }
        ctx.processed[leader as usize] = true;
        let is_header = ctx.facts.is_loop_header(leader);
        let entered = if is_header {
            self.enter_loop_header(ctx, leader, &mut edges)
        } else if edges.len() == 1 {
            Ok(edges.pop().unwrap())
        } else {
            self.merge_edges(ctx, leader, &mut edges)
        };
        for (_, state) in edges.drain(..) {
            self.recycle(state);
        }
        self.edges = edges;
        let (mut tail, mut state) = entered?;

        let block = ctx.facts.block(leader);
        let mut bci = block.start;
        loop {
            self.check_budget()?;
            let insn = self.program.method(ctx.method).code[bci as usize];
            let done = self.interpret_insn(ctx, insn, bci, &mut tail, &mut state)?;
            if done || bci == block.last {
                break;
            }
            bci += 1;
        }
        // Fall-through edge (block ended without a branch/terminator).
        let last_insn = self.program.method(ctx.method).code[block.last as usize];
        if !last_insn.is_terminator() && last_insn.branch_target().is_none() {
            self.emit_edge(ctx, block.last + 1, tail, state)?;
        } else {
            self.recycle(state);
        }
        Ok(())
    }

    /// Joins `edges` (two or more) in a new merge. The first edge's state
    /// becomes the merged state; the others are left in `edges`.
    fn merge_edges(
        &mut self,
        ctx: &mut MethodCtx,
        leader: u32,
        edges: &mut [(NodeId, FlowState)],
    ) -> Result<(NodeId, FlowState), Bailout> {
        // Lock stacks must agree structurally.
        for (_, s) in &edges[1..] {
            if s.locks != edges[0].1.locks {
                return Err(Bailout::UnstructuredLocking);
            }
        }
        let mut ends = std::mem::take(&mut self.inputs);
        ends.clear();
        for (attach, _) in edges.iter() {
            let end = self.graph.add(NodeKind::End, &[]);
            self.graph.set_next(*attach, end);
            ends.push(end);
        }
        let merge = self.graph.add_merge(NodeKind::Merge, &ends);
        let mut inputs = ends;
        let mut merged = std::mem::replace(&mut edges[0].1, FlowState::empty());
        let n_locals = merged.locals.len();
        let n_stack = merged.stack.len();
        debug_assert!(edges[1..].iter().all(|(_, s)| s.stack.len() == n_stack));
        let get = |s: &FlowState, slot: usize| {
            if slot < n_locals {
                s.locals[slot]
            } else {
                s.stack[slot - n_locals]
            }
        };
        for slot in 0..n_locals + n_stack {
            let first = get(&merged, slot);
            if edges[1..].iter().all(|(_, s)| get(s, slot) == first) {
                continue;
            }
            inputs.clear();
            inputs.push(first);
            inputs.extend(edges[1..].iter().map(|(_, s)| get(s, slot)));
            let phi = self.graph.add(NodeKind::Phi { merge }, &inputs);
            if slot < n_locals {
                merged.locals[slot] = phi;
            } else {
                merged.stack[slot - n_locals] = phi;
            }
        }
        self.inputs = inputs;
        let fs = self.make_state(ctx.method, leader, &merged);
        self.graph.set_state_after(merge, Some(fs));
        merged.deopt_state = fs;
        Ok((merge, merged))
    }

    fn enter_loop_header(
        &mut self,
        ctx: &mut MethodCtx,
        leader: u32,
        edges: &mut Vec<(NodeId, FlowState)>,
    ) -> Result<(NodeId, FlowState), Bailout> {
        // Pre-merge multiple forward entries so the LoopBegin has exactly
        // one forward end.
        let (attach, mut template) = if edges.len() == 1 {
            edges.pop().unwrap()
        } else {
            self.merge_edges(ctx, leader, edges)?
        };
        let end = self.graph.add(NodeKind::End, &[]);
        self.graph.set_next(attach, end);
        let loop_begin = self.graph.add_merge(NodeKind::LoopBegin, &[end]);
        let n_locals = template.locals.len();
        let first_phi = ctx.loop_phis.len();
        for slot in 0..n_locals + template.stack.len() {
            let value = if slot < n_locals {
                template.locals[slot]
            } else {
                template.stack[slot - n_locals]
            };
            let phi = self
                .graph
                .add(NodeKind::Phi { merge: loop_begin }, &[value]);
            ctx.loop_phis.push(phi);
            if slot < n_locals {
                template.locals[slot] = phi;
            } else {
                template.stack[slot - n_locals] = phi;
            }
        }
        let fs = self.make_state(ctx.method, leader, &template);
        self.graph.set_state_after(loop_begin, Some(fs));
        template.deopt_state = fs;
        ctx.loops[leader as usize] = Some(LoopCtx {
            loop_begin,
            phis: first_phi..ctx.loop_phis.len(),
            locks: template.locks.clone(),
        });
        Ok((loop_begin, template))
    }

    fn emit_edge(
        &mut self,
        ctx: &mut MethodCtx,
        target: u32,
        attach: NodeId,
        state: FlowState,
    ) -> Result<(), Bailout> {
        if let Some(loop_ctx) = &ctx.loops[target as usize] {
            // Back edge.
            if state.locks != loop_ctx.locks {
                return Err(Bailout::UnstructuredLocking);
            }
            let loop_begin = loop_ctx.loop_begin;
            let phis = &ctx.loop_phis[loop_ctx.phis.clone()];
            let n_locals = state.locals.len();
            let le = self.graph.add(NodeKind::LoopEnd, &[]);
            self.graph.set_next(attach, le);
            self.graph.add_merge_end(loop_begin, le);
            for (slot, &phi) in phis.iter().enumerate() {
                let value = if slot < n_locals {
                    state.locals[slot]
                } else {
                    state.stack[slot - n_locals]
                };
                self.graph.push_input(phi, value);
            }
            self.recycle(state);
            return Ok(());
        }
        if ctx.processed[target as usize] {
            return Err(Bailout::Irreducible);
        }
        ctx.pending.push((target, attach, state));
        Ok(())
    }

    fn append(&mut self, tail: &mut NodeId, node: NodeId) {
        self.graph.set_next(*tail, node);
        *tail = node;
    }

    fn branch_profile(&self, method: MethodId, bci: u32) -> Option<(u64, u64)> {
        self.profiles
            .and_then(|p| p.branch(method, bci))
            .map(|b| (b.taken, b.not_taken))
    }

    /// Translates one conditional branch: emits either a speculation guard
    /// (when the profile says one side never happens) or an `If`.
    #[allow(clippy::too_many_arguments)]
    fn branch(
        &mut self,
        ctx: &mut MethodCtx,
        cond: NodeId,
        taken: u32,
        fall: u32,
        bci: u32,
        tail: &mut NodeId,
        state: &mut FlowState,
    ) -> Result<(), Bailout> {
        if let Some((t, nt)) = self.branch_profile(ctx.method, bci) {
            let total = t + nt;
            if total >= self.options.branch_threshold {
                if t == 0 {
                    // Deopt if the condition is true.
                    let guard = self.graph.add(
                        NodeKind::Guard {
                            reason: DeoptReason::UntakenBranch,
                            negated: true,
                        },
                        &[cond],
                    );
                    self.graph.set_state_after(guard, Some(state.deopt_state));
                    self.append(tail, guard);
                    let s = std::mem::replace(state, FlowState::empty());
                    return self.emit_edge(ctx, fall, *tail, s);
                }
                if nt == 0 {
                    let guard = self.graph.add(
                        NodeKind::Guard {
                            reason: DeoptReason::UntakenBranch,
                            negated: false,
                        },
                        &[cond],
                    );
                    self.graph.set_state_after(guard, Some(state.deopt_state));
                    self.append(tail, guard);
                    let s = std::mem::replace(state, FlowState::empty());
                    return self.emit_edge(ctx, taken, *tail, s);
                }
            }
        }
        let iff = self.graph.add(NodeKind::If, &[cond]);
        self.graph.set_next(*tail, iff);
        let bt = self.graph.add(NodeKind::Begin, &[]);
        let bf = self.graph.add(NodeKind::Begin, &[]);
        self.graph.set_if_targets(iff, bt, bf);
        let s = self.clone_state(state);
        self.emit_edge(ctx, taken, bt, s)?;
        let s = std::mem::replace(state, FlowState::empty());
        self.emit_edge(ctx, fall, bf, s)
    }

    /// Lowers `athrow` control flow: wires exception edges to covering
    /// handlers — statically when the thrown value's dynamic class is
    /// known exactly (a direct allocation), otherwise through an
    /// `InstanceOf` dispatch cascade in table order — and funnels the
    /// uncaught remainder into an [`NodeKind::Unwind`] sink after
    /// releasing every monitor the frame holds. The throw is a hard
    /// escape: `pea-core` materializes the exception (and anything
    /// reachable from it) at each handler entry and at the sink.
    fn lower_throw(
        &mut self,
        ctx: &mut MethodCtx,
        exc: NodeId,
        bci: u32,
        attach: NodeId,
        state: FlowState,
    ) -> Result<(), Bailout> {
        let mut tail = attach;
        let static_class = match self.graph.kind(exc) {
            NodeKind::New { class } => Some(*class),
            _ => None,
        };
        let entries: Vec<ExceptionEntry> = self
            .program
            .method(ctx.method)
            .handlers_at(bci)
            .cloned()
            .collect();
        for e in &entries {
            match (e.catch_class, static_class) {
                (None, _) => {
                    // A catch-all always matches: dispatch ends here.
                    return self.emit_handler_edge(ctx, e.handler, tail, &state, exc);
                }
                (Some(c), Some(k)) => {
                    if self.program.is_subclass_of(k, c) {
                        return self.emit_handler_edge(ctx, e.handler, tail, &state, exc);
                    }
                    // Statically known not to match: skip the entry.
                }
                (Some(c), None) => {
                    let cond = self.graph.add(
                        NodeKind::InstanceOf {
                            class: c,
                            exact: false,
                        },
                        &[exc],
                    );
                    self.append(&mut tail, cond);
                    let iff = self.graph.add(NodeKind::If, &[cond]);
                    self.graph.set_next(tail, iff);
                    let bt = self.graph.add(NodeKind::Begin, &[]);
                    let bf = self.graph.add(NodeKind::Begin, &[]);
                    self.graph.set_if_targets(iff, bt, bf);
                    self.emit_handler_edge(ctx, e.handler, bt, &state, exc)?;
                    tail = bf;
                }
            }
        }
        // No (remaining) handler covers the throw: the exception leaves
        // the frame. Release held monitors innermost-first — exactly what
        // the interpreter does when unwinding past a frame — then sink.
        let mut st = state;
        while let Some(entry) = st.locks.pop() {
            let mx = self.graph.add(NodeKind::MonitorExit, &[entry.object]);
            self.append(&mut tail, mx);
            let fs = self.make_state_with(ctx.method, bci, bci, &st.locals, &[exc], &st.locks);
            self.graph.set_state_after(mx, Some(fs));
            st.deopt_state = fs;
        }
        self.recycle(st);
        let uw = self.graph.add(NodeKind::Unwind, &[exc]);
        self.graph.set_next(tail, uw);
        Ok(())
    }

    /// Emits one exception edge into `handler`: the handler block starts
    /// with the frame's locals and locks intact and an operand stack
    /// holding exactly the exception object.
    fn emit_handler_edge(
        &mut self,
        ctx: &mut MethodCtx,
        handler: u32,
        attach: NodeId,
        state: &FlowState,
        exc: NodeId,
    ) -> Result<(), Bailout> {
        let mut hstate = self.clone_state(state);
        hstate.stack.clear();
        hstate.stack.push(exc);
        let fs = self.make_state(ctx.method, handler, &hstate);
        hstate.deopt_state = fs;
        self.emit_edge(ctx, handler, attach, hstate)
    }

    /// Interprets one instruction. Returns `true` when the block's control
    /// flow is complete (branch, return, throw).
    #[allow(clippy::too_many_lines)]
    fn interpret_insn(
        &mut self,
        ctx: &mut MethodCtx,
        insn: Insn,
        bci: u32,
        tail: &mut NodeId,
        state: &mut FlowState,
    ) -> Result<bool, Bailout> {
        let g = &mut self.graph;
        match insn {
            Insn::Const(v) => {
                let c = g.const_int(v);
                state.stack.push(c);
            }
            Insn::ConstNull => {
                let c = g.const_null();
                state.stack.push(c);
            }
            Insn::Load(n) => state.stack.push(state.locals[n as usize]),
            Insn::Store(n) => {
                let v = state.stack.pop().expect("verified stack");
                state.locals[n as usize] = v;
            }
            Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::And
            | Insn::Or
            | Insn::Xor
            | Insn::Shl
            | Insn::Shr => {
                let b = state.stack.pop().expect("stack");
                let a = state.stack.pop().expect("stack");
                let op = match insn {
                    Insn::Add => ArithOp::Add,
                    Insn::Sub => ArithOp::Sub,
                    Insn::Mul => ArithOp::Mul,
                    Insn::And => ArithOp::And,
                    Insn::Or => ArithOp::Or,
                    Insn::Xor => ArithOp::Xor,
                    Insn::Shl => ArithOp::Shl,
                    _ => ArithOp::Shr,
                };
                let r = g.add(NodeKind::Arith { op }, &[a, b]);
                state.stack.push(r);
            }
            Insn::Div | Insn::Rem => {
                let b = state.stack.pop().expect("stack");
                let a = state.stack.pop().expect("stack");
                let op = if insn == Insn::Div {
                    ArithOp::Div
                } else {
                    ArithOp::Rem
                };
                let r = g.add(NodeKind::FixedArith { op }, &[a, b]);
                self.append(tail, r);
                state.stack.push(r);
            }
            Insn::Neg => {
                let a = state.stack.pop().expect("stack");
                let r = g.add(NodeKind::Arith { op: ArithOp::Neg }, &[a]);
                state.stack.push(r);
            }
            Insn::Pop => {
                state.stack.pop().expect("stack");
            }
            Insn::Dup => {
                let v = *state.stack.last().expect("stack");
                state.stack.push(v);
            }
            Insn::Swap => {
                let len = state.stack.len();
                state.stack.swap(len - 1, len - 2);
            }
            Insn::Goto(t) => {
                let s = std::mem::replace(state, FlowState::empty());
                let at = *tail;
                self.emit_edge(ctx, t, at, s)?;
                return Ok(true);
            }
            Insn::IfCmp(op, t) => {
                let b = state.stack.pop().expect("stack");
                let a = state.stack.pop().expect("stack");
                let cond = self.graph.add(NodeKind::Compare { op }, &[a, b]);
                self.branch(ctx, cond, t, bci + 1, bci, tail, state)?;
                return Ok(true);
            }
            Insn::IfNull(t) | Insn::IfNonNull(t) => {
                let v = state.stack.pop().expect("stack");
                let mut cond = self.graph.add(NodeKind::IsNull, &[v]);
                self.append(tail, cond);
                if matches!(insn, Insn::IfNonNull(_)) {
                    let zero = self.graph.const_int(0);
                    cond = self
                        .graph
                        .add(NodeKind::Compare { op: CmpOp::Eq }, &[cond, zero]);
                }
                self.branch(ctx, cond, t, bci + 1, bci, tail, state)?;
                return Ok(true);
            }
            Insn::IfRefEq(t) | Insn::IfRefNe(t) => {
                let b = state.stack.pop().expect("stack");
                let a = state.stack.pop().expect("stack");
                let mut cond = self.graph.add(NodeKind::RefEq, &[a, b]);
                self.append(tail, cond);
                if matches!(insn, Insn::IfRefNe(_)) {
                    let zero = self.graph.const_int(0);
                    cond = self
                        .graph
                        .add(NodeKind::Compare { op: CmpOp::Eq }, &[cond, zero]);
                }
                self.branch(ctx, cond, t, bci + 1, bci, tail, state)?;
                return Ok(true);
            }
            Insn::New(class) => {
                let n = self.graph.add(NodeKind::New { class }, &[]);
                self.graph.set_provenance(n, ctx.method, bci);
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::NewArray(kind) => {
                let len = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::NewArray { kind }, &[len]);
                self.graph.set_provenance(n, ctx.method, bci);
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::GetField(field) => {
                let obj = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::LoadField { field }, &[obj]);
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::PutField(field) => {
                let value = state.stack.pop().expect("stack");
                let obj = state.stack.pop().expect("stack");
                let n = self
                    .graph
                    .add(NodeKind::StoreField { field }, &[obj, value]);
                self.append(tail, n);
                let fs = self.make_state(ctx.method, bci + 1, state);
                self.graph.set_state_after(n, Some(fs));
                state.deopt_state = fs;
            }
            Insn::GetStatic(id) => {
                let n = self.graph.add(NodeKind::GetStatic { id }, &[]);
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::PutStatic(id) => {
                let value = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::PutStatic { id }, &[value]);
                self.append(tail, n);
                let fs = self.make_state(ctx.method, bci + 1, state);
                self.graph.set_state_after(n, Some(fs));
                state.deopt_state = fs;
            }
            Insn::ArrayLoad => {
                let idx = state.stack.pop().expect("stack");
                let arr = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::LoadIndexed, &[arr, idx]);
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::ArrayStore => {
                let value = state.stack.pop().expect("stack");
                let idx = state.stack.pop().expect("stack");
                let arr = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::StoreIndexed, &[arr, idx, value]);
                self.append(tail, n);
                let fs = self.make_state(ctx.method, bci + 1, state);
                self.graph.set_state_after(n, Some(fs));
                state.deopt_state = fs;
            }
            Insn::ArrayLength => {
                let arr = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::ArrayLen, &[arr]);
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::InstanceOf(class) => {
                let v = state.stack.pop().expect("stack");
                let n = self.graph.add(
                    NodeKind::InstanceOf {
                        class,
                        exact: false,
                    },
                    &[v],
                );
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::CheckCast(class) => {
                let v = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::CheckCast { class }, &[v]);
                self.append(tail, n);
                state.stack.push(n);
            }
            Insn::MonitorEnter => {
                let obj = state.stack.pop().expect("stack");
                let n = self.graph.add(NodeKind::MonitorEnter, &[obj]);
                self.append(tail, n);
                state.locks.push(LockEntry {
                    object: obj,
                    from_sync: false,
                });
                let fs = self.make_state(ctx.method, bci + 1, state);
                self.graph.set_state_after(n, Some(fs));
                state.deopt_state = fs;
            }
            Insn::MonitorExit => {
                let obj = state.stack.pop().expect("stack");
                match state.locks.last() {
                    Some(entry) if entry.object == obj && !entry.from_sync => {
                        state.locks.pop();
                    }
                    _ => return Err(Bailout::UnstructuredLocking),
                }
                let n = self.graph.add(NodeKind::MonitorExit, &[obj]);
                self.append(tail, n);
                let fs = self.make_state(ctx.method, bci + 1, state);
                self.graph.set_state_after(n, Some(fs));
                state.deopt_state = fs;
            }
            Insn::InvokeStatic(target) => {
                self.do_invoke(ctx, target, false, bci, tail, state)?;
            }
            Insn::InvokeVirtual(target) => {
                self.do_invoke(ctx, target, true, bci, tail, state)?;
            }
            Insn::Return | Insn::ReturnValue => {
                let value = if insn == Insn::ReturnValue {
                    Some(state.stack.pop().expect("stack"))
                } else {
                    None
                };
                // Release the synchronized-method monitor, if any.
                if let Some(entry) = state.locks.last().cloned() {
                    if entry.from_sync {
                        state.locks.pop();
                        let mx = self.graph.add(NodeKind::MonitorExit, &[entry.object]);
                        self.append(tail, mx);
                        // The state the interpreter resumes with holds
                        // the return value on the stack.
                        state.stack.extend(value);
                        let fs = self.make_state(ctx.method, bci, state);
                        state
                            .stack
                            .truncate(state.stack.len() - usize::from(value.is_some()));
                        self.graph.set_state_after(mx, Some(fs));
                        state.deopt_state = fs;
                    }
                }
                if !state.locks.is_empty() {
                    return Err(Bailout::UnstructuredLocking);
                }
                ctx.exits.push((*tail, value));
                return Ok(true);
            }
            Insn::Throw => {
                let code = state.stack.pop().expect("stack");
                let t = self.graph.add(NodeKind::Throw, &[code]);
                self.graph.set_next(*tail, t);
                return Ok(true);
            }
            Insn::Athrow => {
                if ctx.depth > 0 {
                    // Safety net: an inlined `athrow` must never be parsed.
                    // The `may-throw` gate keeps every callee that can
                    // throw out of line, so reaching this point means that
                    // gate and the parser disagree — bail out rather than
                    // wire a frame-local `Unwind` that would skip caller
                    // handlers.
                    return Err(Bailout::Unsupported(
                        "athrow reachable in inlined callee".to_string(),
                    ));
                }
                let exc = state.stack.pop().expect("stack");
                // Throwing null raises an (uncatchable) NullPointer
                // runtime error: guard and let the interpreter re-execute
                // the athrow and raise it.
                let test = self.graph.add(NodeKind::IsNull, &[exc]);
                self.append(tail, test);
                let guard = self.graph.add(
                    NodeKind::Guard {
                        reason: DeoptReason::NullCheck,
                        negated: true,
                    },
                    &[test],
                );
                self.graph.set_state_after(guard, Some(state.deopt_state));
                self.append(tail, guard);
                let at = *tail;
                let st = std::mem::replace(state, FlowState::empty());
                self.lower_throw(ctx, exc, bci, at, st)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Emits (or inlines) a call.
    fn do_invoke(
        &mut self,
        ctx: &mut MethodCtx,
        target: MethodId,
        virtual_call: bool,
        bci: u32,
        tail: &mut NodeId,
        state: &mut FlowState,
    ) -> Result<(), Bailout> {
        let program = self.program;
        let callee_meta = program.method(target);
        let argc = callee_meta.param_count as usize;
        let args: Vec<NodeId> = state.stack.split_off(state.stack.len() - argc);

        // Resolve the inline target.
        let mut resolved = target;
        let mut needs_type_guard = None;
        let mut devirtualized = !virtual_call;
        let mut pic_classes: Vec<ClassId> = Vec::new();
        if virtual_call {
            let mono = self
                .profiles
                .and_then(|p| p.receiver(ctx.method, bci))
                .and_then(|r| {
                    (r.total() >= self.options.devirtualize_threshold)
                        .then(|| r.monomorphic_class())
                        .flatten()
                });
            match mono {
                Some(class) => {
                    resolved = self
                        .program
                        .resolve_virtual(class, target)
                        .map_err(|e| Bailout::Unsupported(e.to_string()))?;
                    needs_type_guard = Some(class);
                    devirtualized = true;
                    self.guards.push(DevirtGuardRec {
                        caller: ctx.method,
                        bci,
                        callee: target,
                        classes: vec![class],
                    });
                }
                None => {
                    // Class-hierarchy fallback: if only one implementation
                    // exists among all loaded classes, call it directly
                    // (no guard needed in our closed world).
                    let mut impls = HashSet::new();
                    for c in 0..self.program.classes.len() {
                        let cid = pea_bytecode::ClassId::from_index(c);
                        if let Ok(m) = self.program.resolve_virtual(cid, target) {
                            impls.insert(m);
                        }
                    }
                    if impls.len() == 1 {
                        // Dispatch can only reach this one implementation
                        // in our closed world (class-hierarchy analysis).
                        resolved = impls.into_iter().next().unwrap();
                        devirtualized = true;
                    } else if let Some(r) = self.profiles.and_then(|p| p.receiver(ctx.method, bci))
                    {
                        // Polymorphic but shallow receiver profile: build
                        // an inline cache over the observed classes.
                        if r.total() >= self.options.devirtualize_threshold
                            && (2..=MAX_PIC_CLASSES).contains(&r.classes().len())
                        {
                            // Hottest receiver first; class id breaks ties
                            // so the cascade is deterministic.
                            let mut cs = r.classes().to_vec();
                            cs.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c.index()));
                            pic_classes = cs.into_iter().map(|(c, _)| c).collect();
                        }
                    }
                }
            }
        }
        if !pic_classes.is_empty() {
            self.decisions.push(InlineDecisionRec {
                caller: ctx.method,
                bci,
                callee: target,
                inlined: false,
                reason: "polymorphic-inline-cache",
            });
            self.guards.push(DevirtGuardRec {
                caller: ctx.method,
                bci,
                callee: target,
                classes: pic_classes.clone(),
            });
            return self.emit_pic(ctx, target, &pic_classes, args, bci, tail, state);
        }

        // Inline decision: hard gates first, then the size rule; every
        // resolved site records exactly one decision for the trace.
        let (can_inline, reason) = if !self.options.inline {
            (false, "inlining-disabled")
        } else if !devirtualized {
            (false, "megamorphic")
        } else if self.inline_active.contains(&resolved) {
            (false, "recursive")
        } else if ctx.depth >= INLINE_MAX_DEPTH {
            (false, "depth-limit")
        } else if program.facts(resolved).may_throw() {
            // A callee that can raise a catchable exception stays
            // out-of-line: compiled frames then never contain cross-frame
            // exception edges, and a throwing callee is handled by
            // deoptimizing at the call site and unwinding rematerialized
            // interpreter frames.
            (false, "may-throw")
        } else if self.program.method(resolved).code.len() <= INLINE_MAX_CALLEE_CODE {
            (true, "within-size-budget")
        } else {
            (false, "over-size-budget")
        };
        self.decisions.push(InlineDecisionRec {
            caller: ctx.method,
            bci,
            callee: resolved,
            inlined: can_inline,
            reason,
        });

        if can_inline {
            if virtual_call && needs_type_guard.is_none() {
                // CHA devirtualization has no type guard; a null receiver
                // must still raise, so guard on it (deopt → interpreter →
                // NullPointer).
                let recv = args[0];
                let test = self.graph.add(NodeKind::IsNull, &[recv]);
                self.append(tail, test);
                let guard = self.graph.add(
                    NodeKind::Guard {
                        reason: DeoptReason::NullCheck,
                        negated: true,
                    },
                    &[test],
                );
                self.graph.set_state_after(guard, Some(state.deopt_state));
                self.append(tail, guard);
            }
            if let Some(class) = needs_type_guard {
                let recv = args[0];
                let test = self
                    .graph
                    .add(NodeKind::InstanceOf { class, exact: true }, &[recv]);
                self.append(tail, test);
                let guard = self.graph.add(
                    NodeKind::Guard {
                        reason: DeoptReason::TypeCheck,
                        negated: false,
                    },
                    &[test],
                );
                self.graph.set_state_after(guard, Some(state.deopt_state));
                self.append(tail, guard);
            }
            // Caller state at the call site (arguments already popped);
            // the interpreter's resume pushes the return value and
            // continues after the invoke.
            let caller_state = self.make_state(ctx.method, bci, state);
            self.inline_active.insert(resolved);
            let exits =
                self.build_method(resolved, &args, Some(caller_state), ctx.depth + 1, *tail)?;
            self.inline_active.remove(&resolved);
            if exits.is_empty() {
                // The callee never returns (always throws); compiling the
                // continuation is pointless — bail and keep interpreting.
                return Err(Bailout::Unsupported("inlined callee never returns".into()));
            }
            let (cont_tail, ret_val) = if exits.len() == 1 {
                exits.into_iter().next().unwrap()
            } else {
                let returns_value = callee_meta.returns_value;
                let mut ends = Vec::new();
                let mut values = Vec::new();
                for (attach, v) in &exits {
                    let end = self.graph.add(NodeKind::End, &[]);
                    self.graph.set_next(*attach, end);
                    ends.push(end);
                    if returns_value {
                        values.push(v.expect("value-returning callee"));
                    }
                }
                let merge = self.graph.add_merge(NodeKind::Merge, &ends);
                let v = if returns_value {
                    if values.windows(2).all(|w| w[0] == w[1]) {
                        Some(values[0])
                    } else {
                        Some(self.graph.add(NodeKind::Phi { merge }, &values))
                    }
                } else {
                    None
                };
                (merge, v)
            };
            *tail = cont_tail;
            if let Some(v) = ret_val {
                state.stack.push(v);
            }
            // Continuation state: resume after the invoke with the result
            // on the stack.
            let fs = self.make_state(ctx.method, bci + 1, state);
            if matches!(self.graph.kind(*tail), NodeKind::Merge) {
                self.graph.set_state_after(*tail, Some(fs));
            }
            state.deopt_state = fs;
            return Ok(());
        }

        // Out-of-line call.
        let invoke = self.graph.add(
            NodeKind::Invoke {
                target: resolved,
                virtual_call: virtual_call && resolved == target,
            },
            &args,
        );
        self.append(tail, invoke);
        if callee_meta.returns_value {
            state.stack.push(invoke);
        }
        let fs = self.call_state(ctx.method, bci, state);
        self.graph.set_state_after(invoke, Some(fs));
        state.deopt_state = fs;
        Ok(())
    }

    /// Compiles a polymorphic virtual call as an inline cache: a chain of
    /// exact receiver-type tests, one direct (still out-of-line) call per
    /// profiled class, and a deoptimizing final arm for receivers the
    /// profile never saw (`Deopt[type-check]` — the interpreter
    /// re-executes the dispatch and extends the profile).
    #[allow(clippy::too_many_arguments)]
    fn emit_pic(
        &mut self,
        ctx: &mut MethodCtx,
        target: MethodId,
        classes: &[ClassId],
        args: Vec<NodeId>,
        bci: u32,
        tail: &mut NodeId,
        state: &mut FlowState,
    ) -> Result<(), Bailout> {
        let returns_value = self.program.method(target).returns_value;
        let recv = args[0];
        let mut cur = *tail;
        let mut ends = Vec::with_capacity(classes.len());
        let mut vals = Vec::with_capacity(classes.len());
        for &class in classes {
            let m = self
                .program
                .resolve_virtual(class, target)
                .map_err(|e| Bailout::Unsupported(e.to_string()))?;
            let test = self
                .graph
                .add(NodeKind::InstanceOf { class, exact: true }, &[recv]);
            self.graph.set_next(cur, test);
            let iff = self.graph.add(NodeKind::If, &[test]);
            self.graph.set_next(test, iff);
            let bt = self.graph.add(NodeKind::Begin, &[]);
            let bf = self.graph.add(NodeKind::Begin, &[]);
            self.graph.set_if_targets(iff, bt, bf);
            let inv = self.graph.add(
                NodeKind::Invoke {
                    target: m,
                    virtual_call: false,
                },
                &args,
            );
            self.graph.set_next(bt, inv);
            // The state after this arm's call holds its result.
            if returns_value {
                state.stack.push(inv);
            }
            let fs = self.call_state(ctx.method, bci, state);
            if returns_value {
                state.stack.pop();
            }
            self.graph.set_state_after(inv, Some(fs));
            let end = self.graph.add(NodeKind::End, &[]);
            self.graph.set_next(inv, end);
            ends.push(end);
            vals.push(inv);
            cur = bf;
        }
        // Unprofiled receiver (or null): transfer to the interpreter,
        // which re-dispatches (raising NullPointer for null receivers)
        // and extends the profile.
        let deopt = self.graph.add(
            NodeKind::Deopt {
                reason: DeoptReason::TypeCheck,
            },
            &[],
        );
        self.graph.set_next(cur, deopt);
        self.graph.set_state_after(deopt, Some(state.deopt_state));
        let merge = self.graph.add_merge(NodeKind::Merge, &ends);
        *tail = merge;
        if returns_value {
            let phi = self.graph.add(NodeKind::Phi { merge }, &vals);
            state.stack.push(phi);
        }
        let fs = self.make_state(ctx.method, bci + 1, state);
        self.graph.set_state_after(merge, Some(fs));
        state.deopt_state = fs;
        Ok(())
    }

    /// LoopBegins whose back edges were all speculated away degrade to
    /// plain merges (a LoopBegin needs at least one back edge).
    fn demote_empty_loops(&mut self) {
        let loops: Vec<NodeId> = self
            .graph
            .live_nodes()
            .filter(|&n| matches!(self.graph.kind(n), NodeKind::LoopBegin))
            .collect();
        for lb in loops {
            if self.graph.merge_ends(lb).len() == 1 {
                *self.graph.kind_mut(lb) = NodeKind::Merge;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;
    use pea_ir::verify::verify;

    fn build(src: &str, entry: &str) -> Graph {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let method = program.static_method_by_name(entry).unwrap();
        let g = build_graph(&program, method, None, &BuildOptions::default()).unwrap();
        verify(&g)
            .unwrap_or_else(|e| panic!("graph does not verify: {e}\n{}", pea_ir::dump::dump(&g)));
        g
    }

    fn count(g: &Graph, pred: impl Fn(&NodeKind) -> bool) -> usize {
        g.live_nodes().filter(|&n| pred(g.kind(n))).count()
    }

    #[test]
    fn straight_line_arithmetic() {
        let g = build(
            "method f 2 returns { load 0 load 1 add const 2 mul retv }",
            "f",
        );
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Return)), 1);
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Arith { .. })), 2);
    }

    #[test]
    fn diamond_produces_merge_and_phi() {
        let g = build(
            "method f 1 returns {
                load 0 const 0 ifcmp lt Lneg
                const 1 goto Lend
            Lneg:
                const -1
            Lend:
                retv
            }",
            "f",
        );
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Merge)), 1);
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Phi { .. })), 1);
        assert_eq!(count(&g, |k| matches!(k, NodeKind::If)), 1);
    }

    #[test]
    fn loop_produces_loop_begin_with_phis() {
        let g = build(
            "method f 1 returns {
                const 0 store 1
            Lhead:
                load 1 load 0 ifcmp ge Ldone
                load 1 const 1 add store 1
                goto Lhead
            Ldone:
                load 1 retv
            }",
            "f",
        );
        assert_eq!(count(&g, |k| matches!(k, NodeKind::LoopBegin)), 1);
        assert!(count(&g, |k| matches!(k, NodeKind::Phi { .. })) >= 1);
    }

    #[test]
    fn objects_and_frame_states() {
        let g = build(
            "class Box { field v int }
             method f 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v
                retv
             }",
            "f",
        );
        assert_eq!(count(&g, |k| matches!(k, NodeKind::New { .. })), 1);
        let store = g
            .live_nodes()
            .find(|&n| matches!(g.kind(n), NodeKind::StoreField { .. }))
            .unwrap();
        assert!(g.node(store).state_after.is_some());
    }

    #[test]
    fn static_call_inlined() {
        let g = build(
            "method g 2 returns { load 0 load 1 add retv }
             method f 0 returns { const 1 const 2 invokestatic g retv }",
            "f",
        );
        // Inlined: no Invoke node remains.
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Invoke { .. })), 0);
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Arith { .. })), 1);
    }

    #[test]
    fn recursive_call_not_inlined() {
        let g = build(
            "method f 1 returns {
                load 0 const 0 ifcmp le Lbase
                load 0 const 1 sub invokestatic f retv
            Lbase:
                const 0 retv
            }",
            "f",
        );
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Invoke { .. })), 1);
    }

    #[test]
    fn recursion_is_rejected_with_a_dedicated_reason() {
        let program = parse_program(
            "method f 1 returns {
                load 0 const 0 ifcmp le Lbase
                load 0 const 1 sub invokestatic f retv
            Lbase:
                const 0 retv
            }",
        )
        .unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let method = program.static_method_by_name("f").unwrap();
        let (_, decisions, _) =
            build_graph_with(&program, method, None, &BuildOptions::default()).unwrap();
        assert_eq!(decisions.len(), 1);
        assert!(!decisions[0].inlined);
        assert_eq!(decisions[0].reason, "recursive");
        assert_eq!(decisions[0].callee, method);
    }

    #[test]
    fn synchronized_callee_gets_monitors() {
        let g = build(
            "class C { field v int }
             method virtual C.get 1 returns synchronized { load 0 getfield C.v retv }
             method f 0 returns { new C invokevirtual C.get retv }",
            "f",
        );
        // Monomorphic in a closed world: inlined with monitors.
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Invoke { .. })), 0);
        assert_eq!(count(&g, |k| matches!(k, NodeKind::MonitorEnter)), 1);
        assert_eq!(count(&g, |k| matches!(k, NodeKind::MonitorExit)), 1);
        // Inner frame states chain to the caller.
        let has_outer = g
            .live_nodes()
            .any(|n| matches!(g.kind(n), NodeKind::FrameState(d) if d.has_outer));
        assert!(has_outer, "inlined frame states must chain to the caller");
    }

    #[test]
    fn never_taken_branch_becomes_guard_with_profile() {
        let src = "method f 1 returns {
            load 0 const 100 ifcmp gt Lrare
            load 0 const 1 add retv
        Lrare:
            const -1 retv
        }";
        let program = parse_program(src).unwrap();
        let f = program.static_method_by_name("f").unwrap();
        let mut profiles = ProfileStore::new();
        for _ in 0..50 {
            profiles.record_branch(f, 2, false);
        }
        let g = build_graph(&program, f, Some(&profiles), &BuildOptions::default()).unwrap();
        verify(&g).unwrap();
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Guard { .. })), 1);
        assert_eq!(count(&g, |k| matches!(k, NodeKind::If)), 0);
        // The rare branch's return disappeared.
        assert_eq!(count(&g, |k| matches!(k, NodeKind::Return)), 1);
    }

    #[test]
    fn unbalanced_monitor_bails() {
        let program = parse_program(
            "class C { }
             method f 0 returns { new C monitorenter const 1 retv }",
        )
        .unwrap();
        let f = program.static_method_by_name("f").unwrap();
        let err = build_graph(&program, f, None, &BuildOptions::default()).unwrap_err();
        assert_eq!(err, Bailout::UnstructuredLocking);
    }

    #[test]
    fn loop_with_two_back_edges() {
        let g = build(
            "method f 2 returns {
                const 0 store 2
            Lhead:
                load 2 load 0 ifcmp ge Ldone
                load 1 const 1 ifcmp eq Lplus2
                load 2 const 1 add store 2
                goto Lhead
            Lplus2:
                load 2 const 2 add store 2
                goto Lhead
            Ldone:
                load 2 retv
            }",
            "f",
        );
        let lb = g
            .live_nodes()
            .find(|&n| matches!(g.kind(n), NodeKind::LoopBegin))
            .unwrap();
        assert_eq!(g.merge_ends(lb).len(), 3, "entry + two back edges");
    }
}
