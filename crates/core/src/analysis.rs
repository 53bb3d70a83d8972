//! The control-flow iteration driving Partial Escape Analysis (paper §5),
//! including the loop fixpoint of §5.4 (Figure 7).

use crate::ees::NodeSet;
use crate::effects::{Effect, EffectApplier};
use crate::liveness::{HeadPhis, Liveness};
use crate::state::{AllocId, AllocInfo, PeaState};
use pea_bytecode::Program;
use pea_ir::cfg::{BlockId, Cfg};
use pea_ir::{Graph, NodeId, NodeKind};
use pea_trace::{MaterializeReason, TraceEvent, TraceSink, Tracer};
use std::collections::HashMap;

/// Tuning knobs, including the ablation switches exercised by the
/// benchmark harness.
#[derive(Clone, Debug)]
pub struct PeaOptions {
    /// When set, only these allocation nodes may be virtualized (the EES
    /// baseline restricts to provably never-escaping sites).
    pub allowed: Option<NodeSet>,
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

/// "No block" / "no entry" in the dense tables below.
const NONE: u32 = u32::MAX;

/// The first and last arena index of one block's list in a [`Lists`].
type Ends = (u32, u32);

const NO_ITEMS: Ends = (NONE, NONE);

/// One append-only arena of items threaded into a list per block, so a
/// block's items can be appended to at any time, dropped wholesale when
/// the block is processed again (§5.4), and read back in insertion order,
/// without a vector per block. The list ends live in the block's
/// [`BlockSlot`]; dropped items stay in the arena until the run ends.
struct Lists<T> {
    /// Each item with the arena index of the next one in its list.
    items: Vec<(T, u32)>,
}

impl<T> Lists<T> {
    fn with_capacity(capacity: usize) -> Self {
        Lists {
            items: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, ends: &mut Ends, item: T) {
        let at = self.items.len() as u32;
        self.items.push((item, NONE));
        match ends.1 {
            NONE => ends.0 = at,
            last => self.items[last as usize].1 = at,
        }
        ends.1 = at;
    }

    fn iter(&self, ends: Ends) -> impl Iterator<Item = &T> + '_ {
        let mut at = ends.0;
        std::iter::from_fn(move || {
            let (item, next) = self.items.get(at as usize)?;
            at = *next;
            Some(item)
        })
    }
}

/// What the analysis keeps per block.
#[derive(Clone)]
struct BlockSlot {
    /// The out-state: `None` until the block is processed, and again once
    /// its last reader took it.
    state: Option<PeaState>,
    /// Reads of the out-state still to come: one per successor. The last
    /// reader takes the state; earlier ones copy it.
    readers: u32,
    /// The loop level that processes the block: the innermost loop header
    /// containing it (a header is processed by its enclosing loop), or
    /// [`NONE`] for the method body.
    level: u32,
    /// For a loop header: the RPO position of its last member.
    last: u32,
    /// The block's effects and trace events.
    effects: Ends,
    trace: Ends,
    /// Whether the block claimed a frame state since it was last
    /// processed (see [`PeaContext::claim_frame_state`]).
    rewrote: bool,
}

impl BlockSlot {
    const EMPTY: BlockSlot = BlockSlot {
        state: None,
        readers: 0,
        level: NONE,
        last: 0,
        effects: NO_ITEMS,
        trace: NO_ITEMS,
        rewrote: false,
    };
}

/// One [`BlockSlot`] per block, with each block's loop level read off
/// the CFG's loop forest: its innermost loop header, except that a
/// header belongs to the loop around it (its entry predecessor's). A
/// header's `last` is the last RPO position at its level; blocks of
/// inner loops may follow, but their own header processes them.
fn block_slots(graph: &Graph, cfg: &Cfg) -> Vec<BlockSlot> {
    let mut slots = vec![BlockSlot::EMPTY; cfg.num_blocks()];
    for (pos, &b) in cfg.rpo.iter().enumerate() {
        let mut outer = b;
        if is_loop_header(graph, cfg, b) {
            slots[b.index()].last = pos as u32;
            outer = cfg.block_of(graph.merge_ends(cfg.block(b).first())[0]);
        }
        if let Some(h) = cfg.block(outer).loop_header {
            slots[b.index()].level = h.0;
            slots[h.index()].last = pos as u32;
        }
    }
    slots
}

fn is_loop_header(graph: &Graph, cfg: &Cfg, b: BlockId) -> bool {
    matches!(graph.kind(cfg.block(b).first()), NodeKind::LoopBegin)
}

/// Buffers reused by every merge, materialization and frame-state
/// rewrite of a run, so that none allocates once they have grown to the
/// method's largest need.
#[derive(Default)]
pub(crate) struct Scratch {
    /// A materialization's group with the object allocated for each, or
    /// a frame-state rewrite's virtual-object mappings (never both at
    /// once).
    pub objects: Vec<(AllocId, NodeId)>,
    /// A merge's surviving ids, its phis' sorted inputs, per-field plans
    /// and phi inputs under construction.
    pub surviving: Vec<AllocId>,
    pub phi_inputs: Vec<NodeId>,
    pub plans: Vec<crate::merge::Plan>,
    pub values: Vec<NodeId>,
    /// A merge's predecessor states.
    preds: Vec<PeaState>,
}

/// Shared mutable context for one analysis run.
pub(crate) struct PeaContext<'a> {
    pub graph: &'a mut Graph,
    pub program: &'a Program,
    pub options: &'a PeaOptions,
    pub cfg: Cfg,
    /// Metadata per discovered allocation id.
    pub infos: Vec<AllocInfo>,
    /// Deferred mutations, listed per block that generated them so
    /// abandoned loop rounds can be discarded (§5.4).
    effects: Lists<Effect>,
    /// The block that rewrote each frame state, indexed by node
    /// ([`NONE`] if none has yet). A block only rewrites the states of its
    /// own nodes, so those are what processing it again undoes.
    rewritten_by: Vec<u32>,
    /// Phis created by the merge processor, cached per
    /// `(merge, id, field)` so loop rounds converge; `usize::MAX` keys the
    /// materialized-value phi.
    pub phi_cache: HashMap<(NodeId, AllocId, usize), NodeId>,
    /// Every phi the merge processor created, as `(merge, phi)` in
    /// creation (and so id) order; they follow [`PeaContext::head_phis`].
    pub created_phis: Vec<(NodeId, NodeId)>,
    /// The graph's phis at each block head when the analysis began.
    pub head_phis: HeadPhis,
    /// Per-block state, indexed by [`BlockId`].
    slots: Vec<BlockSlot>,
    /// Emptied states whose buffers the next copy reuses.
    spare: Vec<PeaState>,
    /// Per-block entry liveness (see [`crate::liveness`]); merges drop
    /// object states none of whose aliases are live.
    pub live: Liveness,
    /// Bumped on every materialization; the merge processor restarts when
    /// it observes a change (§5.3's "iterated until no additional
    /// materializations happen").
    pub materialize_ticks: usize,
    pub result: PeaResult,
    /// Where decision events go when tracing is enabled.
    pub tracer: Tracer<'a>,
    /// Trace events buffered per generating block, mirroring `effects`, so
    /// abandoned loop rounds discard their events too and the final trace
    /// reports only decisions that stuck.
    trace_buf: Lists<TraceEvent>,
    /// Loop fixpoint rounds; every executed round is real analysis work,
    /// so these are never discarded.
    pub loop_trace: Vec<TraceEvent>,
    pub scratch: Scratch,
}

impl<'a> PeaContext<'a> {
    pub(crate) fn record(&mut self, block: BlockId, effect: Effect) {
        self.effects
            .push(&mut self.slots[block.index()].effects, effect);
    }

    /// Whether decision events should be constructed at all.
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Buffers `event` against the block whose processing produced it.
    pub(crate) fn trace(&mut self, block: BlockId, event: TraceEvent) {
        self.trace_buf
            .push(&mut self.slots[block.index()].trace, event);
    }

    /// The allocation site (origin `New`/`NewArray` node) of `id`, as the
    /// stable key used in trace events.
    pub(crate) fn site_of(&self, id: AllocId) -> u32 {
        self.infos[id.index()].origin.index() as u32
    }

    /// Marks `fs` rewritten by `block`; false if some block already did.
    pub(crate) fn claim_frame_state(&mut self, fs: NodeId, block: BlockId) -> bool {
        if self.rewritten_by[fs.index()] != NONE {
            return false;
        }
        self.rewritten_by[fs.index()] = block.0;
        self.slots[block.index()].rewrote = true;
        true
    }

    /// An empty state, reusing a recycled one's buffers.
    pub(crate) fn fresh_state(&mut self) -> PeaState {
        self.spare.pop().unwrap_or_default()
    }

    fn copy_state(&mut self, source: &PeaState) -> PeaState {
        let mut state = self.fresh_state();
        state.clone_from(source);
        state
    }

    fn recycle(&mut self, mut state: PeaState) {
        state.clear();
        self.spare.push(state);
    }

    /// Hands block `b`'s out-state to one of its successors: the last
    /// reader takes it, earlier ones get a copy.
    fn take_state(&mut self, b: BlockId) -> PeaState {
        let slot = &mut self.slots[b.index()];
        if slot.readers > 1 {
            slot.readers -= 1;
            let mut state = self.spare.pop().unwrap_or_default();
            if let Some(source) = &slot.state {
                state.clone_from(source);
            }
            return state;
        }
        slot.readers = 0;
        debug_assert!(slot.state.is_some(), "{b} read before it ran");
        match slot.state.take() {
            Some(state) => state,
            None => self.fresh_state(),
        }
    }

    fn set_state(&mut self, b: BlockId, state: PeaState) {
        let readers = self.cfg.block(b).succs.len() as u32;
        let slot = &mut self.slots[b.index()];
        slot.readers = readers;
        let old = if readers == 0 {
            Some(state)
        } else {
            slot.state.replace(state)
        };
        if let Some(old) = old {
            self.recycle(old);
        }
    }

    fn clear_block_effects(&mut self, block: BlockId) {
        let slot = &mut self.slots[block.index()];
        slot.effects = NO_ITEMS;
        slot.trace = NO_ITEMS;
        if !std::mem::take(&mut slot.rewrote) {
            return;
        }
        for &node in self.cfg.block(block).nodes {
            let mut fs = self.graph.node(node).state_after;
            while let Some(state) = fs {
                if self.rewritten_by[state.index()] == block.0 {
                    self.rewritten_by[state.index()] = NONE;
                }
                let data = self.graph.frame_state_data(state);
                fs = data
                    .outer_index()
                    .map(|outer| self.graph.node(state).inputs()[outer]);
            }
        }
    }

    /// Fresh allocation id.
    pub(crate) fn new_alloc(&mut self, info: AllocInfo) -> AllocId {
        self.infos.push(info);
        AllocId((self.infos.len() - 1) as u32)
    }

    /// Processes one level's blocks (RPO order); loop headers pull in
    /// their own level recursively.
    fn process_level(&mut self, level: u32) {
        let positions = match level {
            NONE => 0..self.cfg.rpo.len(),
            h => {
                let h = BlockId(h);
                self.cfg.rpo_position(h) + 1..self.slots[h.index()].last as usize + 1
            }
        };
        for pos in positions {
            let b = self.cfg.rpo[pos];
            if self.slots[b.index()].level != level {
                continue;
            }
            if is_loop_header(self.graph, &self.cfg, b) {
                self.process_loop(b);
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
            NodeKind::Start => self.fresh_state(),
            NodeKind::Merge => self.merge_preds(b, None),
            NodeKind::Begin | NodeKind::LoopExit { .. } => {
                let pred = self
                    .graph
                    .node(first)
                    .control_pred()
                    .expect("begin without predecessor");
                let pb = self.cfg.block_of(pred);
                self.take_state(pb)
            }
            other => panic!("unexpected block head {other:?}"),
        }
    }

    /// Merges the out-states of merge block `b`'s predecessors (§5.3). A
    /// loop passes its entry state, which it keeps across rounds: it is
    /// merged in place of the entry predecessor's and handed back with the
    /// merge's materializations applied.
    fn merge_preds(&mut self, b: BlockId, mut entry: Option<&mut PeaState>) -> PeaState {
        let merge = self.cfg.block(b).first();
        let mut preds = std::mem::take(&mut self.scratch.preds);
        for k in 0..self.graph.merge_ends(merge).len() {
            let state = match entry.as_deref_mut() {
                Some(state) if k == 0 => std::mem::take(state),
                _ => {
                    let end = self.graph.merge_ends(merge)[k];
                    self.take_state(self.cfg.block_of(end))
                }
            };
            preds.push(state);
        }
        let merged = crate::merge::merge_states(self, merge, &mut preds);
        let mut drained = preds.drain(..);
        if let Some(state) = entry {
            *state = drained.next().expect("a loop has an entry");
        }
        for state in drained {
            self.recycle(state);
        }
        self.scratch.preds = preds;
        merged
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

    /// Materializes every object still virtual in `state` before `anchor`
    /// (a loop entry the analysis gives up speculating on).
    fn materialize_all(&mut self, state: &mut PeaState, anchor: NodeId, block: BlockId) {
        for i in 0..state.objects().len() {
            let (id, object) = state.objects()[i];
            // An earlier group may already have taken this one along.
            if object.is_virtual() {
                crate::process::materialize(
                    self,
                    state,
                    id,
                    anchor,
                    block,
                    MaterializeReason::LoopStateMismatch,
                );
            }
        }
    }

    /// The loop fixpoint of §5.4: speculate the entry state, process the
    /// body, merge entry + back edges, compare, repeat until stable.
    fn process_loop(&mut self, header: BlockId) {
        let loop_begin = self.cfg.block(header).first();
        let entry_end = self.graph.merge_ends(loop_begin)[0];
        let entry_block = self.cfg.block_of(entry_end);
        let mut entry_state = self.take_state(entry_block);

        if !self.options.loop_processing {
            // Ablation: no loop support — everything live at entry exists.
            self.materialize_all(&mut entry_state, entry_end, entry_block);
        }
        let mut speculative = self.copy_state(&entry_state);

        // The loop phis: the graph's, then any an enclosing loop's earlier
        // round created here.
        let created_before = self.created_phis.len();
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
            let mut header_state = self.copy_state(&speculative);
            let created = self.created_phis[..created_before]
                .iter()
                .filter(|&&(merge, _)| merge == loop_begin)
                .map(|&(_, phi)| phi);
            for phi in self.head_phis.of(header).iter().copied().chain(created) {
                let entry_input = self.graph.node(phi).inputs()[0];
                // Only virtual objects may flow through a phi untouched;
                // escaped ones are ordinary values (§5.3).
                if let Some(id) = header_state.virtual_alias(entry_input) {
                    header_state.add_alias(phi, id);
                }
            }
            let header_entry = self.copy_state(&header_state);
            self.process_block_nodes(header, header_state);
            self.process_level(header.0);

            // Merge entry + back-edge states (entry materializations
            // persist in `entry_state`).
            let merged = self.merge_preds(header, Some(&mut entry_state));
            let stable = merged == header_entry;
            self.recycle(header_entry);
            if stable {
                self.recycle(merged);
                break;
            }
            let old = if rounds >= MAX_LOOP_ROUNDS {
                // Safety net: force everything at the entry into the heap
                // and re-run once; with no virtual state left the merge is
                // trivially stable.
                self.recycle(merged);
                self.materialize_all(&mut entry_state, entry_end, entry_block);
                let copy = self.copy_state(&entry_state);
                std::mem::replace(&mut speculative, copy)
            } else {
                std::mem::replace(&mut speculative, merged)
            };
            self.recycle(old);
        }
        self.recycle(speculative);
        self.recycle(entry_state);
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
    let n_blocks = cfg.num_blocks();
    let head_phis = HeadPhis::new(graph, &cfg);
    let live = crate::liveness::live_at_entry(graph, &cfg, &head_phis);
    // Room for one effect per fixed node and an id per allocation site,
    // so a run without loops seldom grows either.
    let fixed = cfg.fixed_nodes();
    let sites = fixed
        .iter()
        .filter(|&&n| {
            matches!(
                graph.kind(n),
                NodeKind::New { .. } | NodeKind::NewArray { .. }
            )
        })
        .count();
    let tracing = tracer.enabled();
    let slots = block_slots(graph, &cfg);
    let mut ctx = PeaContext {
        rewritten_by: vec![NONE; graph.len()],
        graph,
        program,
        options,
        infos: Vec::with_capacity(sites),
        effects: Lists::with_capacity(fixed.len()),
        phi_cache: HashMap::new(),
        created_phis: Vec::new(),
        head_phis,
        slots,
        spare: Vec::with_capacity(n_blocks + 8),
        live,
        materialize_ticks: 0,
        result: PeaResult::default(),
        tracer,
        trace_buf: Lists::with_capacity(0),
        loop_trace: Vec::new(),
        scratch: Scratch::default(),
        cfg,
    };
    ctx.process_level(NONE);

    // Apply effects in RPO order; count what actually happened. Trace
    // events flush in the same order, so the emitted trace reads as the
    // final per-block decision sequence.
    let mut applier = EffectApplier::new();
    let mut result = ctx.result;
    for &b in &ctx.cfg.rpo {
        if tracing {
            for e in ctx.trace_buf.iter(ctx.slots[b.index()].trace) {
                ctx.tracer.emit(e);
            }
        }
        for e in ctx.effects.iter(ctx.slots[b.index()].effects) {
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

    if tracing {
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
