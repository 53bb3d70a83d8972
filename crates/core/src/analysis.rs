//! The control-flow iteration driving Partial Escape Analysis (paper §5),
//! including the loop fixpoint of §5.4 (Figure 7).

use crate::effects::{Effect, EffectApplier};
use crate::state::{AllocId, AllocInfo, PeaState};
use pea_bytecode::Program;
use pea_ir::cfg::{BlockId, Cfg};
use pea_ir::{Graph, NodeId, NodeKind};
use pea_trace::{MaterializeReason, TraceEvent, TraceSink, Tracer};
use std::collections::{HashMap, HashSet};

/// Tuning knobs, including the ablation switches exercised by the
/// benchmark harness.
#[derive(Clone, Debug)]
pub struct PeaOptions {
    /// When set, only these allocation nodes may be virtualized (the EES
    /// baseline restricts to provably never-escaping sites).
    pub allowed: Option<HashSet<NodeId>>,
    /// Track monitors on virtual objects (Lock Elision, §4). When off,
    /// any monitor operation materializes its object.
    pub lock_elision: bool,
    /// Create per-field phis at merges (§5.3). When off, a field-value
    /// mismatch at a merge materializes the object instead (ablation).
    pub field_phis: bool,
    /// Process loops iteratively to a fixpoint (§5.4). When off, every
    /// virtual object live at a loop entry is materialized there
    /// (ablation).
    pub loop_processing: bool,
}

impl Default for PeaOptions {
    fn default() -> Self {
        PeaOptions {
            allowed: None,
            lock_elision: true,
            field_phis: true,
            loop_processing: true,
        }
    }
}

/// Safety cap on loop fixpoint rounds; exceeded ⇒ materialize all
/// loop-entry objects and continue.
const MAX_LOOP_ROUNDS: usize = 16;

/// What the analysis did, for reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeaResult {
    /// Allocation sites removed from the fast path (their `New` nodes were
    /// deleted; some may rematerialize on escape paths).
    pub virtualized_allocs: usize,
    /// Field/array loads replaced by tracked values.
    pub deleted_loads: usize,
    /// Field/array stores absorbed into the tracked state.
    pub deleted_stores: usize,
    /// Monitor enter/exit nodes removed (Lock Elision).
    pub elided_monitors: usize,
    /// Identity/type/null checks folded to constants.
    pub folded_checks: usize,
    /// Commit (materialization) nodes inserted.
    pub materializations: usize,
    /// Total loop fixpoint rounds executed.
    pub loop_rounds: usize,
}

impl PeaResult {
    /// Whether the graph was changed at all.
    pub fn changed(&self) -> bool {
        self.virtualized_allocs
            + self.deleted_loads
            + self.deleted_stores
            + self.elided_monitors
            + self.folded_checks
            + self.materializations
            > 0
    }
}

/// Shared mutable context for one analysis run.
pub(crate) struct PeaContext<'a> {
    pub graph: &'a mut Graph,
    pub program: &'a Program,
    pub options: &'a PeaOptions,
    pub cfg: Cfg,
    /// Metadata per discovered allocation id.
    pub infos: Vec<AllocInfo>,
    /// Deferred mutations, grouped by the block that generated them so
    /// abandoned loop rounds can be discarded (§5.4); indexed by
    /// [`BlockId`].
    pub effects: Vec<Vec<Effect>>,
    /// Frame states already rewritten, with the block that did it.
    pub rewritten_states: HashMap<NodeId, BlockId>,
    /// Phis created by the merge processor, cached per
    /// `(merge, id, field)` so loop rounds converge; `usize::MAX` keys the
    /// materialized-value phi.
    pub phi_cache: HashMap<(NodeId, AllocId, usize), NodeId>,
    /// Block out-states, indexed by [`BlockId`] (`None` until the block
    /// is processed).
    pub states: Vec<Option<PeaState>>,
    /// Per-block entry liveness (see [`crate::liveness`]); merges drop
    /// object states none of whose aliases are live.
    pub live_in: Vec<crate::liveness::NodeSet>,
    /// Bumped on every materialization; the merge processor restarts when
    /// it observes a change (§5.3's "iterated until no additional
    /// materializations happen").
    pub materialize_ticks: usize,
    pub result: PeaResult,
    /// Where decision events go when tracing is enabled.
    pub tracer: Tracer<'a>,
    /// Trace events buffered per generating block, mirroring `effects`, so
    /// abandoned loop rounds discard their events too and the final trace
    /// reports only decisions that stuck. Indexed by [`BlockId`].
    pub trace_buf: Vec<Vec<TraceEvent>>,
    /// Loop fixpoint rounds; every executed round is real analysis work,
    /// so these are never discarded.
    pub loop_trace: Vec<TraceEvent>,
}

impl<'a> PeaContext<'a> {
    pub(crate) fn record(&mut self, block: BlockId, effect: Effect) {
        self.effects[block.index()].push(effect);
    }

    /// Whether decision events should be constructed at all.
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Buffers `event` against the block whose processing produced it.
    pub(crate) fn trace(&mut self, block: BlockId, event: TraceEvent) {
        self.trace_buf[block.index()].push(event);
    }

    /// The allocation site (origin `New`/`NewArray` node) of `id`, as the
    /// stable key used in trace events.
    pub(crate) fn site_of(&self, id: AllocId) -> u32 {
        self.infos[id.index()].origin.index() as u32
    }

    /// Human-readable shape for trace events: class *name* rather than the
    /// bare `ClassId` the [`pea_ir::AllocShape`] display would give.
    pub(crate) fn shape_str(&self, shape: pea_ir::AllocShape) -> String {
        match shape {
            pea_ir::AllocShape::Instance { class } => self.program.class(class).name.clone(),
            pea_ir::AllocShape::Array { kind, length } => format!("{kind}[{length}]"),
        }
    }

    /// The out-state of block `b` (empty before `b` is processed).
    fn state_of(&self, b: BlockId) -> PeaState {
        self.states[b.index()].clone().unwrap_or_default()
    }

    fn set_state(&mut self, b: BlockId, state: PeaState) {
        self.states[b.index()] = Some(state);
    }

    fn clear_block_effects(&mut self, block: BlockId) {
        self.effects[block.index()].clear();
        self.trace_buf[block.index()].clear();
        self.rewritten_states.retain(|_, b| *b != block);
    }

    /// Fresh allocation id.
    pub(crate) fn new_alloc(&mut self, info: AllocInfo) -> AllocId {
        self.infos.push(info);
        AllocId((self.infos.len() - 1) as u32)
    }

    /// Processes a list of sibling blocks (RPO order); loop headers pull
    /// in their whole body recursively.
    fn process_blocks(&mut self, list: &[BlockId]) {
        let mut skip = vec![false; self.cfg.blocks.len()];
        for &b in list {
            if skip[b.index()] {
                continue;
            }
            let first = self.cfg.block(b).first();
            if matches!(self.graph.kind(first), NodeKind::LoopBegin { .. }) {
                let members = self.cfg.loop_members(b);
                for &m in &members {
                    if m != b {
                        skip[m.index()] = true;
                    }
                }
                self.process_loop(b, &members);
            } else {
                let entry = self.entry_state_for(b);
                self.process_block_nodes(b, entry);
            }
        }
    }

    /// Computes the state on entry to a (non-loop-header) block.
    fn entry_state_for(&mut self, b: BlockId) -> PeaState {
        let first = self.cfg.block(b).first();
        match self.graph.kind(first) {
            NodeKind::Start => PeaState::new(),
            NodeKind::Merge { ends } => {
                let anchors: Vec<(NodeId, BlockId)> =
                    ends.iter().map(|&e| (e, self.cfg.block_of(e))).collect();
                let mut pred_states: Vec<PeaState> =
                    anchors.iter().map(|&(_, pb)| self.state_of(pb)).collect();
                let merged = crate::merge::merge_states(self, first, &mut pred_states, &anchors);
                // Write back pred mutations (merge materializations).
                for ((_, pb), st) in anchors.iter().zip(pred_states) {
                    self.set_state(*pb, st);
                }
                merged
            }
            NodeKind::Begin | NodeKind::LoopExit { .. } => {
                let pred = self
                    .graph
                    .node(first)
                    .control_pred()
                    .expect("begin without predecessor");
                let pb = self.cfg.block_of(pred);
                self.state_of(pb)
            }
            other => panic!("unexpected block head {other:?}"),
        }
    }

    /// Processes the fixed nodes of one block, storing its out-state.
    fn process_block_nodes(&mut self, b: BlockId, mut state: PeaState) {
        self.clear_block_effects(b);
        // Indexed iteration instead of cloning the node list: graph
        // mutations are deferred as `Effect`s, so the CFG's block
        // membership is stable during analysis, but `process_node` needs
        // `&mut self` and would otherwise force a per-block Vec clone on
        // the analysis hot path.
        let mut i = 0;
        while let Some(&n) = self.cfg.block(b).nodes.get(i) {
            crate::process::process_node(self, &mut state, n, b);
            i += 1;
        }
        self.set_state(b, state);
    }

    /// The loop fixpoint of §5.4: speculate the entry state, process the
    /// body, merge entry + back edges, compare, repeat until stable.
    fn process_loop(&mut self, header: BlockId, members: &[BlockId]) {
        let loop_begin = self.cfg.block(header).first();
        let ends = self.graph.merge_ends(loop_begin).to_vec();
        let entry_end = ends[0];
        let entry_block = self.cfg.block_of(entry_end);
        let mut speculative = self.state_of(entry_block);

        if !self.options.loop_processing {
            // Ablation: no loop support — everything live at entry exists.
            let ids = speculative.virtual_ids();
            for id in ids {
                crate::process::materialize(
                    self,
                    &mut speculative,
                    id,
                    entry_end,
                    entry_block,
                    MaterializeReason::LoopStateMismatch,
                );
            }
            self.set_state(entry_block, speculative.clone());
        }

        // Member lists in RPO, header excluded (processed separately).
        let mut body: Vec<BlockId> = members.to_vec();
        body.sort_by_key(|&m| self.cfg.rpo_position(m));
        let body: Vec<BlockId> = body.into_iter().filter(|&m| m != header).collect();

        let phis = self.graph.phis_of(loop_begin);
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            self.result.loop_rounds += 1;
            if self.tracing() {
                self.loop_trace.push(TraceEvent::LoopRound {
                    loop_begin: loop_begin.index() as u32,
                    round: rounds as u32,
                });
            }
            // Speculative header state: loop phis alias whatever their
            // entry input aliases (checked against back edges below).
            let mut header_state = speculative.clone();
            for &phi in &phis {
                let entry_input = self.graph.node(phi).inputs()[0];
                // Only virtual objects may flow through a phi untouched;
                // escaped ones are ordinary values (§5.3).
                if let Some(id) = header_state.virtual_alias(entry_input) {
                    header_state.add_alias(phi, id);
                }
            }
            let header_entry = header_state.clone();
            self.process_block_nodes(header, header_state);
            self.process_blocks(&body);

            // Merge entry + back-edge states.
            let anchors: Vec<(NodeId, BlockId)> =
                ends.iter().map(|&e| (e, self.cfg.block_of(e))).collect();
            let mut pred_states: Vec<PeaState> =
                anchors.iter().map(|&(_, pb)| self.state_of(pb)).collect();
            let merged = crate::merge::merge_states(self, loop_begin, &mut pred_states, &anchors);
            // Write back (entry materializations must persist).
            for ((_, pb), st) in anchors.iter().zip(pred_states) {
                self.set_state(*pb, st);
            }

            if merged == header_entry {
                break;
            }
            if rounds >= MAX_LOOP_ROUNDS {
                // Safety net: force everything at the entry into the heap
                // and re-run once; with no virtual state left the merge is
                // trivially stable.
                let mut entry_state = self.state_of(entry_block);
                let ids = entry_state.virtual_ids();
                for id in ids {
                    crate::process::materialize(
                        self,
                        &mut entry_state,
                        id,
                        entry_end,
                        entry_block,
                        MaterializeReason::LoopStateMismatch,
                    );
                }
                self.set_state(entry_block, entry_state.clone());
                speculative = entry_state;
            } else {
                speculative = merged;
            }
        }
    }
}

/// Runs Partial Escape Analysis over `graph`, applying Scalar Replacement
/// and Lock Elision as it goes (paper §4/§5).
///
/// The graph must verify ([`pea_ir::verify::verify`]) beforehand; it will
/// verify afterwards as well, which the test suite asserts.
pub fn run_pea(graph: &mut Graph, program: &Program, options: &PeaOptions) -> PeaResult {
    run_pea_impl(graph, program, options, Tracer::off())
}

/// Like [`run_pea`], but emits a [`TraceEvent`] for every decision that
/// survives into the final graph: allocations virtualized/materialized
/// (with forcing node, block, and reason), locks elided, loads/stores
/// absorbed, checks folded, phis created at merges, and loop fixpoint
/// rounds.
///
/// Events are buffered per block alongside the [`Effect`] lists and
/// flushed in reverse-postorder once the analysis commits, so decisions
/// from abandoned loop rounds never reach the sink (the exception being
/// [`TraceEvent::LoopRound`], which reports real analysis work per round).
pub fn run_pea_traced(
    graph: &mut Graph,
    program: &Program,
    options: &PeaOptions,
    sink: &mut dyn TraceSink,
) -> PeaResult {
    run_pea_impl(graph, program, options, Tracer::new(sink))
}

fn run_pea_impl<'a>(
    graph: &'a mut Graph,
    program: &'a Program,
    options: &'a PeaOptions,
    tracer: Tracer<'a>,
) -> PeaResult {
    let cfg = Cfg::build(graph);
    let rpo = cfg.rpo.clone();
    let n_blocks = cfg.blocks.len();
    let live_in = crate::liveness::live_at_entry(graph, &cfg);
    let mut ctx = PeaContext {
        graph,
        program,
        options,
        cfg,
        infos: Vec::new(),
        effects: vec![Vec::new(); n_blocks],
        rewritten_states: HashMap::new(),
        phi_cache: HashMap::new(),
        states: vec![None; n_blocks],
        live_in,
        materialize_ticks: 0,
        result: PeaResult::default(),
        tracer,
        trace_buf: vec![Vec::new(); n_blocks],
        loop_trace: Vec::new(),
    };
    ctx.process_blocks(&rpo);

    // Apply effects in RPO order; count what actually happened. Trace
    // events flush in the same order, so the emitted trace reads as the
    // final per-block decision sequence.
    let mut applier = EffectApplier::new();
    let mut result = ctx.result;
    let effects = std::mem::take(&mut ctx.effects);
    let trace_buf = std::mem::take(&mut ctx.trace_buf);
    for &b in &rpo {
        for e in &trace_buf[b.index()] {
            ctx.tracer.emit(e);
        }
        for e in &effects[b.index()] {
            match e {
                Effect::DeleteFixed { node } | Effect::ReplaceAndDeleteFixed { node, .. } => {
                    match ctx.graph.kind(*node) {
                        NodeKind::New { .. } | NodeKind::NewArray { .. } => {
                            result.virtualized_allocs += 1
                        }
                        NodeKind::LoadField { .. } | NodeKind::LoadIndexed => {
                            result.deleted_loads += 1
                        }
                        NodeKind::StoreField { .. } | NodeKind::StoreIndexed => {
                            result.deleted_stores += 1
                        }
                        NodeKind::MonitorEnter | NodeKind::MonitorExit => {
                            result.elided_monitors += 1
                        }
                        NodeKind::RefEq
                        | NodeKind::IsNull
                        | NodeKind::InstanceOf { .. }
                        | NodeKind::CheckCast { .. }
                        | NodeKind::ArrayLen => result.folded_checks += 1,
                        _ => {}
                    }
                }
                Effect::InsertFixedBefore { node, .. } => {
                    if matches!(ctx.graph.kind(*node), NodeKind::Commit { .. }) {
                        result.materializations += 1;
                    }
                }
                Effect::SetInput { .. } => {}
            }
            applier.apply(ctx.graph, e);
        }
    }
    ctx.graph.prune_dead();

    if ctx.tracer.enabled() {
        // Phis are cached across merge restarts and loop rounds (and some
        // end up unused after an abandoned round), so they are reported
        // from the cache after pruning: exactly the phis that survived.
        let mut phis: Vec<(NodeId, NodeId, AllocId, usize)> = ctx
            .phi_cache
            .iter()
            .map(|(&(merge, id, key), &phi)| (phi, merge, id, key))
            .collect();
        phis.sort_unstable();
        for (phi, merge, id, key) in phis {
            if ctx.graph.node(phi).is_deleted() {
                continue;
            }
            let event = TraceEvent::PhiCreated {
                merge: merge.index() as u32,
                site: ctx.site_of(id),
                field: (key != crate::merge::MAT_PHI_KEY).then_some(key as u32),
            };
            ctx.tracer.emit(&event);
        }
        let loop_trace = std::mem::take(&mut ctx.loop_trace);
        for e in &loop_trace {
            ctx.tracer.emit(e);
        }
    }
    result
}
