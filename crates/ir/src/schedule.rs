//! Scheduling of floating value nodes into basic blocks.
//!
//! The paper (§7) notes Graal's PEA relies on the scheduler to order
//! nodes. Our IR pins object-sensitive nodes, so the analysis itself is
//! schedule-free — but the compiled-code *evaluator* still needs every
//! floating value node placed and ordered. Placement follows Click's
//! global code motion ("Global Code Motion / Global Value Numbering",
//! PLDI 1995), as Graal's scheduler does:
//!
//! - parameters and constants go to the entry block;
//! - every `Arith` and `Compare` is placed **late**: first at the common
//!   dominator of its uses, where a phi reads its input at the end of
//!   that input's predecessor block and a frame state or virtual-object
//!   mapping is read at the block of every deopt point (`Invoke`, `Guard`,
//!   `Deopt`) whose state reaches it; then, on the dominator path from there up to its early block
//!   (the deepest block among its inputs'), at the block of the
//!   shallowest loop depth, the latest among equals. A value only the
//!   code after a loop reads is computed once, after the loop; one that
//!   only a branch arm reads is computed in that arm; a loop-invariant one
//!   still leaves the loop;
//! - phis go to their merge's block and `AllocatedObject`s to their
//!   commit's.
//!
//! Moving a floating node is safe because floating nodes are pure and
//! non-trapping (trapping division is a fixed node).
//!
//! Within a block, fixed nodes keep their chain order and floating nodes
//! go as early as their inputs allow, with one exception: a `Compare`
//! whose only user is the `If` or `Guard` of its own block **sinks** to
//! the position right before that user, so the linear tier can fuse the
//! pair into one compare-and-branch or compare-and-guard. Late placement
//! puts every compare that only a branch or a guard reads into that
//! user's block, unless the compare is loop-invariant and its user is
//! not. Sinking moves the compare's `ALU_OP` charge past the fixed nodes
//! between its two positions: a run that returns normally charges the
//! same total, and one that leaves the method between them (a failing
//! guard, an exception) no longer pays for the compare. Both compiled
//! tiers walk this one order — the graph evaluator node by node, the
//! linear tier through the lowering, which emits in schedule order — so
//! they charge the same cycles at every point and run out of fuel at the
//! same charge.
//!
//! One requirement inherited from the JVM: bytecode must be
//! *type-consistent* — integer arithmetic never consumes references. The
//! JVM verifier enforces this statically; our bytecode verifier only
//! checks stack discipline. Late placement computes a node at the
//! common dominator of its uses, so it observes its operands no earlier
//! than the interpreter would, except where it hoists a loop-invariant
//! node out of its loop (before a loop whose body never runs, say) or
//! where value numbering merged the equal computations of two paths. In
//! a type-inconsistent program such a node could observe a reference and
//! raise earlier than the interpreter would. All bundled programs
//! (assembler sources, generators, fuzzers) are type-consistent.

use crate::cfg::{BlockId, Cfg};
use crate::dom::DomTree;
use crate::{Graph, NodeId, NodeKind};

/// Node lists of every block, stored flat: block `b`'s list is
/// `nodes[starts[b]..starts[b + 1]]`. Indexing by block index yields the
/// block's slice, and `{:?}` prints a list of lists, as a
/// `Vec<Vec<NodeId>>` would.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BlockLists {
    nodes: Vec<NodeId>,
    starts: Vec<u32>,
}

impl BlockLists {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocks' lists in block order.
    pub fn iter(&self) -> Lists<'_> {
        Lists {
            lists: self,
            next: 0,
        }
    }

    /// Every list's nodes, block after block.
    pub fn flat(&self) -> &[NodeId] {
        &self.nodes
    }
}

impl std::ops::Index<usize> for BlockLists {
    type Output = [NodeId];

    fn index(&self, b: usize) -> &[NodeId] {
        &self.nodes[self.starts[b] as usize..self.starts[b + 1] as usize]
    }
}

impl<'a> IntoIterator for &'a BlockLists {
    type Item = &'a [NodeId];
    type IntoIter = Lists<'a>;

    fn into_iter(self) -> Lists<'a> {
        self.iter()
    }
}

/// Iterator over the lists of a [`BlockLists`], in block order.
#[derive(Clone, Debug)]
pub struct Lists<'a> {
    lists: &'a BlockLists,
    next: usize,
}

impl<'a> Iterator for Lists<'a> {
    type Item = &'a [NodeId];

    fn next(&mut self) -> Option<&'a [NodeId]> {
        let b = self.next;
        (b < self.lists.len()).then(|| {
            self.next += 1;
            &self.lists[b]
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.lists.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Lists<'_> {}

impl std::fmt::Debug for BlockLists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A complete per-block execution order.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// For each block (by index): fixed and floating nodes in an order
    /// that respects data dependencies and the fixed chain.
    pub per_block: BlockLists,
    /// Block assignment of every scheduled floating node, indexed by
    /// [`NodeId`]; `None` for fixed, metadata and unplaced nodes (see
    /// [`Schedule::placement_of`]).
    placement: Vec<Option<BlockId>>,
}

impl Schedule {
    /// Builds the schedule.
    ///
    /// # Panics
    ///
    /// Panics on SSA violations (an input that does not dominate its use),
    /// which [`crate::verify::verify`] reports more gracefully.
    pub fn build(graph: &Graph, cfg: &Cfg, dom: &DomTree) -> Schedule {
        let mut placement: Vec<Option<BlockId>> = vec![None; graph.len()];

        // Pinned placements first.
        for n in graph.live_nodes() {
            match graph.kind(n) {
                NodeKind::Phi { merge } => {
                    placement[n.index()] = cfg.try_block_of(*merge);
                }
                NodeKind::AllocatedObject { .. } => {
                    let commit = graph.inputs(n)[0];
                    placement[n.index()] = cfg.try_block_of(commit);
                }
                _ => {}
            }
        }

        // Early placement for the remaining floating value nodes; `placed`
        // lists them inputs first.
        let mut placed = Vec::with_capacity(graph.len());
        for n in graph.live_nodes() {
            if graph.kind(n).is_floating()
                && !matches!(
                    graph.kind(n),
                    NodeKind::Phi { .. } | NodeKind::AllocatedObject { .. }
                )
            {
                place_early(graph, cfg, dom, n, &mut placement, &mut placed);
            }
        }

        // Late placement of arithmetic and compares, users first. The
        // blocks deopt metadata is read in are worked out at the first
        // metadata user.
        let mut read_at = None;
        for &n in placed.iter().rev() {
            if let NodeKind::Arith { .. } | NodeKind::Compare { .. } = graph.kind(n) {
                let early = placement[n.index()].expect("placed early");
                if let Some(late) = common_use_block(graph, cfg, dom, n, &placement, &mut read_at) {
                    placement[n.index()] = Some(shallowest(cfg, dom, early, late));
                }
            }
        }
        drop((placed, read_at));

        // Each block's floaters in ascending node order, flat: a counting
        // sort by block.
        let n_blocks = cfg.num_blocks();
        let floater = |i: usize| -> Option<BlockId> {
            placement[i]
                .filter(|_| !matches!(graph.kind(NodeId::from_index(i)), NodeKind::Phi { .. }))
        };
        let mut floater_starts = vec![0u32; n_blocks + 1];
        let mut dependents_bound = 0;
        for i in 0..placement.len() {
            if let Some(b) = floater(i) {
                floater_starts[b.index() + 1] += 1;
                dependents_bound += graph.inputs(NodeId::from_index(i)).len();
            }
        }
        for b in 0..n_blocks {
            floater_starts[b + 1] += floater_starts[b];
        }
        let n_floaters = floater_starts[n_blocks] as usize;
        let mut floaters = vec![NodeId(0); n_floaters];
        let mut fill = floater_starts.clone();
        for i in 0..placement.len() {
            if let Some(b) = floater(i) {
                floaters[fill[b.index()] as usize] = NodeId::from_index(i);
                fill[b.index()] += 1;
            }
        }
        drop(fill);

        // Per-block topological ordering (fixed chain + floating nodes).
        let n_fixed: usize = cfg.blocks().map(|b| b.nodes.len()).sum();
        let mut per_block = BlockLists {
            nodes: Vec::with_capacity(n_fixed + n_floaters),
            starts: Vec::with_capacity(n_blocks + 1),
        };
        per_block.starts.push(0);
        let mut orderer = BlockOrderer::new(graph, dependents_bound, n_floaters);
        for block in cfg.blocks() {
            let b = block.id.index();
            let range = floater_starts[b] as usize..floater_starts[b + 1] as usize;
            orderer.order(block.nodes, &floaters[range], &mut per_block.nodes);
            per_block.starts.push(per_block.nodes.len() as u32);
        }

        Schedule {
            per_block,
            placement,
        }
    }

    /// Block a floating node was placed in.
    #[inline]
    pub fn placement_of(&self, node: NodeId) -> Option<BlockId> {
        self.placement.get(node.index()).copied().flatten()
    }

    /// Total number of scheduled nodes — the "machine code size" used by
    /// the cost model's instruction-cache term.
    pub fn code_size(&self) -> u64 {
        self.per_block.flat().len() as u64
    }
}

/// Places `node` at the deepest block among its inputs' (the entry block
/// when it has none) and appends it to `placed` once its inputs are.
fn place_early(
    graph: &Graph,
    cfg: &Cfg,
    dom: &DomTree,
    node: NodeId,
    placement: &mut [Option<BlockId>],
    placed: &mut Vec<NodeId>,
) -> BlockId {
    if let Some(b) = placement[node.index()] {
        return b;
    }
    if let Some(b) = cfg.try_block_of(node) {
        // Fixed node: defined by its chain position.
        return b;
    }
    let mut best = cfg.entry();
    // Temporarily claim entry to break impossible cycles defensively
    // (valid SSA has no cycles among non-phi floating nodes).
    placement[node.index()] = Some(best);
    for &input in graph.inputs(node) {
        let b = place_early(graph, cfg, dom, input, placement, placed);
        if dom.depth(b) > dom.depth(best) {
            debug_assert!(
                dom.dominates(best, b),
                "inputs of {node} not on a dominance chain"
            );
            best = b;
        } else {
            debug_assert!(
                dom.dominates(b, best),
                "inputs of {node} not on a dominance chain"
            );
        }
    }
    placement[node.index()] = Some(best);
    placed.push(node);
    best
}

/// The block each frame state and virtual-object mapping is read in,
/// indexed by [`NodeId`]: the common dominator of the blocks of the
/// deopt points (`Invoke`, `Guard` and `Deopt`) whose `state_after`
/// reaches it, through outer frame states and mappings (cycles
/// included). [`NONE`] for every other node and for metadata no deopt
/// point reaches. The states of other fixed nodes served the escape
/// analysis; neither compiled tier reads them.
fn state_blocks(graph: &Graph, cfg: &Cfg, dom: &DomTree) -> Vec<u32> {
    let mut t = StateBlocks {
        at: vec![NONE; graph.len()],
        work: Vec::with_capacity(graph.len()),
    };
    for &f in cfg.fixed_nodes() {
        let node = graph.node(f);
        if let (
            NodeKind::Invoke { .. } | NodeKind::Guard { .. } | NodeKind::Deopt { .. },
            Some(state),
        ) = (node.kind, node.state_after)
        {
            t.raise(dom, state, cfg.block_of(f));
        }
    }
    while let Some(m) = t.work.pop() {
        t.at[m.index()] &= !QUEUED;
        let b = BlockId(t.at[m.index()]);
        for &input in graph.inputs(m) {
            if graph.kind(input).is_meta() {
                t.raise(dom, input, b);
            }
        }
    }
    t.at
}

/// Marks "no block" in [`state_blocks`]'s table.
const NONE: u32 = u32::MAX;

/// Marks, in [`state_blocks`]'s table, a node on the worklist.
const QUEUED: u32 = 1 << 31;

/// The tables of [`state_blocks`]: `at` holds each node's block, with
/// [`QUEUED`] set while it is on `work`, the metadata whose block rose
/// since it was last taken off.
struct StateBlocks {
    at: Vec<u32>,
    work: Vec<NodeId>,
}

impl StateBlocks {
    /// Raises `m`'s block to its common dominator with `b`, and queues
    /// `m` if that moved it.
    fn raise(&mut self, dom: &DomTree, m: NodeId, b: BlockId) {
        let old = self.at[m.index()];
        let (block, queued) = if old == NONE {
            (None, false)
        } else {
            (Some(BlockId(old & !QUEUED)), old & QUEUED != 0)
        };
        let new = block.map_or(b, |a| dom.common_dominator(a, b));
        if block != Some(new) {
            debug_assert!(
                new.0 & QUEUED == 0,
                "block id {new} overlaps the queued bit"
            );
            self.at[m.index()] = new.0 | QUEUED;
            if !queued {
                self.work.push(m);
            }
        }
    }
}

/// The common dominator of the blocks that read `n`: a fixed user's own
/// block, a floating user's placement, the predecessor block of each
/// edge along which a phi reads it, and the block a metadata user is read
/// in ([`state_blocks`], computed into `read_at` at the first metadata
/// user). `None` when nothing placed reads it.
fn common_use_block(
    graph: &Graph,
    cfg: &Cfg,
    dom: &DomTree,
    n: NodeId,
    placement: &[Option<BlockId>],
    read_at: &mut Option<Vec<u32>>,
) -> Option<BlockId> {
    let mut common: Option<BlockId> = None;
    let mut join = |b: BlockId| {
        common = Some(common.map_or(b, |c| dom.common_dominator(c, b)));
    };
    for user in graph.raw_uses(n) {
        if graph.is_deleted(user) {
            continue;
        }
        let kind = graph.kind(user);
        if let NodeKind::Phi { merge } = kind {
            let Some(merge_block) = cfg.try_block_of(*merge) else {
                continue;
            };
            let preds = cfg.block(merge_block).preds;
            for (i, &input) in graph.inputs(user).iter().enumerate() {
                if input == n {
                    join(preds[i]);
                }
            }
        } else if let Some(b) = if kind.is_meta() {
            let read_at = read_at.get_or_insert_with(|| state_blocks(graph, cfg, dom));
            Some(read_at[user.index()])
                .filter(|&b| b != NONE)
                .map(BlockId)
        } else {
            cfg.try_block_of(user).or(placement[user.index()])
        } {
            join(b);
        }
    }
    common
}

/// The block of the shallowest loop depth on the dominator path from
/// `late` up to `early`, the latest among equals: the walk stops at the
/// first block outside every loop. `early` when the walk reaches the
/// entry without meeting it (not a dominance chain).
fn shallowest(cfg: &Cfg, dom: &DomTree, early: BlockId, late: BlockId) -> BlockId {
    let depth = |b: BlockId| cfg.loop_depth(b);
    let (mut best, mut b) = (late, late);
    while b != early && depth(best) > 0 {
        match dom.idom(b) {
            Some(up) if up != b => b = up,
            // The entry, and `early` not met: not a dominance chain.
            _ => return early,
        }
        if depth(b) < depth(best) {
            best = b;
        }
    }
    best
}

/// Kahn's algorithm over one block at a time: fixed nodes keep chain
/// order; floating nodes are emitted as soon as their same-block inputs
/// are available, except a compare that [`BlockOrderer::sinks`], which is
/// emitted right before its user. The per-node tables are shared by every
/// block of one schedule.
struct BlockOrderer<'g> {
    graph: &'g Graph,
    /// 1 + index of the block being ordered, for nodes in it.
    stamp: Vec<u32>,
    /// Remaining same-block dependency count per floating node.
    pending: Vec<u32>,
    /// Reverse edges `(input, floating dependent)` of the current block,
    /// sorted by input.
    dependents: Vec<(NodeId, NodeId)>,
    /// Floating nodes whose dependencies are all emitted, ascending.
    ready: Vec<NodeId>,
    current: u32,
}

impl<'g> BlockOrderer<'g> {
    /// An orderer for blocks whose floaters have at most `dependents`
    /// inputs and number at most `floaters`, both in total.
    fn new(graph: &'g Graph, dependents: usize, floaters: usize) -> Self {
        BlockOrderer {
            graph,
            stamp: vec![0; graph.len()],
            pending: vec![0; graph.len()],
            dependents: Vec::with_capacity(dependents),
            ready: Vec::with_capacity(floaters),
            current: 0,
        }
    }

    /// Appends the block's order to `out`.
    fn order(&mut self, fixed: &[NodeId], floaters: &[NodeId], out: &mut Vec<NodeId>) {
        let graph = self.graph;
        self.current += 1;
        for &n in fixed.iter().chain(floaters) {
            self.stamp[n.index()] = self.current;
        }
        self.dependents.clear();
        for &f in floaters {
            let mut count = 0;
            for &input in graph.inputs(f) {
                if self.stamp[input.index()] == self.current
                    && !matches!(graph.kind(input), NodeKind::Phi { .. })
                {
                    count += 1;
                    self.dependents.push((input, f));
                }
            }
            // A sinking compare waits for its user as well: the user
            // releases it.
            self.pending[f.index()] = count + u32::from(self.sinks(f));
        }
        self.dependents.sort_by_key(|&(input, _)| input);

        let start = out.len();
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        ready.extend(
            floaters
                .iter()
                .copied()
                .filter(|f| self.pending[f.index()] == 0),
        );
        ready.sort_unstable();

        for &fx in fixed {
            // A Commit's inputs may include AllocatedObjects of itself; those
            // are dependents of the commit, never prerequisites, because
            // AllocatedObject's input is the commit (acyclic in that
            // direction). Floating nodes ready before this fixed node go
            // first, smallest first (new nodes may become ready at the
            // front).
            while !ready.is_empty() {
                let f = ready.remove(0);
                self.emit(f, out, &mut ready);
            }
            if let NodeKind::If | NodeKind::Guard { .. } = graph.kind(fx) {
                let cond = graph.inputs(fx)[0];
                if self.stamp[cond.index()] == self.current && self.sinks(cond) {
                    // Every input of the compare precedes its user.
                    self.pending[cond.index()] -= 1;
                    debug_assert_eq!(self.pending[cond.index()], 0, "{cond} sinks unready");
                    self.emit(cond, out, &mut ready);
                }
            }
            self.emit(fx, out, &mut ready);
        }
        // Trailing floaters (depend on the block terminator's value — rare,
        // e.g. nothing in practice, but drain for completeness).
        while let Some(f) = ready.pop() {
            self.emit(f, out, &mut ready);
        }
        self.ready = ready;
        debug_assert_eq!(
            out.len() - start,
            fixed.len() + floaters.len(),
            "schedule lost nodes"
        );
    }

    /// Whether the floating node `f` of the current block is a compare
    /// whose only user is an `If` or `Guard` of the same block, so that it
    /// sinks to the position right before that user.
    fn sinks(&self, f: NodeId) -> bool {
        let graph = self.graph;
        matches!(graph.kind(f), NodeKind::Compare { .. })
            && graph.sole_use(f).is_some_and(|user| {
                self.stamp[user.index()] == self.current
                    && matches!(graph.kind(user), NodeKind::If | NodeKind::Guard { .. })
            })
    }

    fn emit(&mut self, n: NodeId, out: &mut Vec<NodeId>, ready: &mut Vec<NodeId>) {
        out.push(n);
        let from = self.dependents.partition_point(|&(input, _)| input < n);
        for &(input, d) in &self.dependents[from..] {
            if input != n {
                break;
            }
            let c = &mut self.pending[d.index()];
            *c -= 1;
            if *c == 0 {
                ready.push(d);
                ready.sort_unstable();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArithOp;
    use pea_bytecode::{CmpOp, MethodId, StaticId};

    #[test]
    fn consts_and_params_go_to_entry() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let iff = g.add(NodeKind::If, &[p]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let r1 = g.add(NodeKind::Return, &[p]);
        g.set_next(t, r1);
        let c = g.const_int(7);
        let sum = g.add(NodeKind::Arith { op: ArithOp::Add }, &[p, c]);
        let r2 = g.add(NodeKind::Return, &[sum]);
        g.set_next(f, r2);
        let cfg = Cfg::build(&g);
        let dom = DomTree::build(&cfg);
        let sched = Schedule::build(&g, &cfg, &dom);
        // Parameters and constants go to the entry, before the If, even
        // when only one arm reads them; the sum goes to its reader's arm.
        assert_eq!(sched.placement_of(p), Some(cfg.entry()));
        assert_eq!(sched.placement_of(c), Some(cfg.entry()));
        assert_eq!(sched.placement_of(sum), Some(cfg.block_of(f)));
        let entry_order = &sched.per_block[cfg.entry().index()];
        let pos = |n: NodeId| entry_order.iter().position(|&x| x == n).unwrap();
        assert!(pos(p) < pos(iff));
        assert!(pos(c) < pos(iff));
    }

    #[test]
    fn load_dependent_float_ordered_after_load() {
        use pea_bytecode::FieldId;
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let load = g.add(NodeKind::LoadField { field: FieldId(0) }, &[p]);
        g.set_next(g.start, load);
        let c = g.const_int(1);
        let sum = g.add(NodeKind::Arith { op: ArithOp::Add }, &[load, c]);
        let ret = g.add(NodeKind::Return, &[sum]);
        g.set_next(load, ret);
        let cfg = Cfg::build(&g);
        let dom = DomTree::build(&cfg);
        let sched = Schedule::build(&g, &cfg, &dom);
        let order = &sched.per_block[0];
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(load) < pos(sum));
        assert!(pos(sum) < pos(ret));
        assert_eq!(sched.code_size(), order.len() as u64);
    }

    #[test]
    fn phi_users_schedule_into_merge_block() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let iff = g.add(NodeKind::If, &[p]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let te = g.add(NodeKind::End, &[]);
        g.set_next(t, te);
        let fe = g.add(NodeKind::End, &[]);
        g.set_next(f, fe);
        let merge = g.add_merge(NodeKind::Merge, &[te, fe]);
        let c1 = g.const_int(1);
        let c2 = g.const_int(2);
        let phi = g.add(NodeKind::Phi { merge }, &[c1, c2]);
        let dbl = g.add(NodeKind::Arith { op: ArithOp::Add }, &[phi, phi]);
        let ret = g.add(NodeKind::Return, &[dbl]);
        g.set_next(merge, ret);
        let cfg = Cfg::build(&g);
        let dom = DomTree::build(&cfg);
        let sched = Schedule::build(&g, &cfg, &dom);
        let mb = cfg.block_of(merge);
        assert_eq!(sched.placement_of(phi), Some(mb));
        assert_eq!(sched.placement_of(dbl), Some(mb));
        // phis are not in the ordered list (handled at edges)
        assert!(!sched.per_block[mb.index()].contains(&phi));
        assert!(sched.per_block[mb.index()].contains(&dbl));
    }

    /// One block `putstatic 5; if (p0 < 0)`, or with `guard`
    /// `putstatic 5; guard (p0 < 0); if p0`: the compare's inputs are
    /// ready before the store, so early ordering alone puts it first.
    struct Chain {
        g: Graph,
        cmp: NodeId,
        store: NodeId,
        user: NodeId,
    }

    fn chain(guard: bool) -> Chain {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let zero = g.const_int(0);
        let cmp = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[p, zero]);
        let five = g.const_int(5);
        let store = g.add(NodeKind::PutStatic { id: StaticId(0) }, &[five]);
        g.set_next(g.start, store);
        let (last, guard) = if guard {
            let fs = g.add_frame_state(state(), &[p]);
            let guard = g.add(
                NodeKind::Guard {
                    reason: crate::DeoptReason::UntakenBranch,
                    negated: true,
                },
                &[cmp],
            );
            g.set_state_after(guard, Some(fs));
            g.set_next(store, guard);
            (guard, Some(guard))
        } else {
            (store, None)
        };
        let iff = g.add(NodeKind::If, &[if guard.is_some() { p } else { cmp }]);
        g.set_next(last, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let one = g.const_int(1);
        let r1 = g.add(NodeKind::Return, &[one]);
        g.set_next(t, r1);
        let r2 = g.add(NodeKind::Return, &[zero]);
        g.set_next(f, r2);
        Chain {
            g,
            cmp,
            store,
            user: guard.unwrap_or(iff),
        }
    }

    /// A one-local frame state.
    fn state() -> crate::FrameStateData {
        crate::FrameStateData::new(MethodId(0), 1, 1, 0, 0, false)
    }

    /// The entry block's order.
    fn entry_order(g: &Graph) -> Vec<NodeId> {
        let cfg = Cfg::build(g);
        let dom = DomTree::build(&cfg);
        let sched = Schedule::build(g, &cfg, &dom);
        sched.per_block[cfg.entry().index()].to_vec()
    }

    fn pos(order: &[NodeId], n: NodeId) -> usize {
        order.iter().position(|&x| x == n).unwrap()
    }

    #[test]
    fn a_compare_only_its_branch_reads_sinks_right_before_it() {
        let c = chain(false);
        let order = entry_order(&c.g);
        assert!(pos(&order, c.store) < pos(&order, c.cmp), "{order:?}");
        assert_eq!(pos(&order, c.cmp) + 1, pos(&order, c.user), "{order:?}");
    }

    #[test]
    fn a_compare_only_its_guard_reads_sinks_right_before_it() {
        let c = chain(true);
        let order = entry_order(&c.g);
        assert!(pos(&order, c.store) < pos(&order, c.cmp), "{order:?}");
        assert_eq!(pos(&order, c.cmp) + 1, pos(&order, c.user), "{order:?}");
    }

    #[test]
    fn a_compare_with_two_users_stays_early() {
        let mut c = chain(false);
        // A second fixed reader: the returned value of the true arm.
        let t = c.g.node(c.user).successors()[0];
        let ret = c.g.node(t).successors()[0];
        c.g.set_input(ret, 0, c.cmp);
        let order = entry_order(&c.g);
        assert!(pos(&order, c.cmp) < pos(&order, c.store), "{order:?}");
    }

    #[test]
    fn a_compare_a_frame_state_reads_stays_early() {
        let mut c = chain(true);
        let fs = c.g.node(c.user).state_after.unwrap();
        c.g.set_input(fs, 0, c.cmp);
        let order = entry_order(&c.g);
        assert!(pos(&order, c.cmp) < pos(&order, c.store), "{order:?}");
    }

    #[test]
    fn a_compare_a_phi_reads_stays_early() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let zero = g.const_int(0);
        let cmp = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[p, zero]);
        let store = g.add(NodeKind::PutStatic { id: StaticId(0) }, &[zero]);
        g.set_next(g.start, store);
        let iff = g.add(NodeKind::If, &[cmp]);
        g.set_next(store, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let te = g.add(NodeKind::End, &[]);
        g.set_next(t, te);
        let fe = g.add(NodeKind::End, &[]);
        g.set_next(f, fe);
        let merge = g.add_merge(NodeKind::Merge, &[te, fe]);
        let phi = g.add(NodeKind::Phi { merge }, &[cmp, zero]);
        let ret = g.add(NodeKind::Return, &[phi]);
        g.set_next(merge, ret);
        let order = entry_order(&g);
        assert!(pos(&order, cmp) < pos(&order, store), "{order:?}");
    }

    /// A diamond whose true arm holds `guard` (a guard on `cond` with
    /// frame state `fs`) before its return; `cond` is computed by `make`.
    struct GuardArm {
        g: Graph,
        store: NodeId,
        guard: NodeId,
        fs: NodeId,
        arm: NodeId,
    }

    fn guard_arm(make: impl FnOnce(&mut Graph, NodeId) -> NodeId) -> GuardArm {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let zero = g.const_int(0);
        let store = g.add(NodeKind::PutStatic { id: StaticId(0) }, &[zero]);
        g.set_next(g.start, store);
        let iff = g.add(NodeKind::If, &[p]);
        g.set_next(store, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let cond = make(&mut g, p);
        let fs = g.add_frame_state(state(), &[p]);
        let guard = g.add(
            NodeKind::Guard {
                reason: crate::DeoptReason::UntakenBranch,
                negated: false,
            },
            &[cond],
        );
        g.set_state_after(guard, Some(fs));
        g.set_next(t, guard);
        let r1 = g.add(NodeKind::Return, &[p]);
        g.set_next(guard, r1);
        let r2 = g.add(NodeKind::Return, &[zero]);
        g.set_next(f, r2);
        GuardArm {
            g,
            store,
            guard,
            fs,
            arm: t,
        }
    }

    /// The schedule of `g` and the order of `node`'s block.
    fn order_of(g: &Graph, node: NodeId) -> (Schedule, Cfg, Vec<NodeId>) {
        let cfg = Cfg::build(g);
        let dom = DomTree::build(&cfg);
        let sched = Schedule::build(g, &cfg, &dom);
        let order = sched.per_block[cfg.block_of(node).index()].to_vec();
        (sched, cfg, order)
    }

    #[test]
    fn a_compare_whose_guard_is_in_a_later_block_moves_there_and_sinks() {
        // The compare reads only the parameter, so its early block is the
        // entry; its guard sits in the true arm, and so does the compare,
        // right before the guard.
        let mut cmp = NodeId(0);
        let c = guard_arm(|g, p| {
            let zero = g.const_int(0);
            cmp = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[p, zero]);
            cmp
        });
        let (sched, cfg, order) = order_of(&c.g, c.guard);
        assert_eq!(sched.placement_of(cmp), Some(cfg.block_of(c.arm)));
        assert!(!sched.per_block[cfg.entry().index()].contains(&cmp));
        assert_eq!(pos(&order, cmp) + 1, pos(&order, c.guard), "{order:?}");
        assert_ne!(cfg.block_of(c.store), cfg.block_of(c.guard));
    }

    #[test]
    fn a_compare_whose_if_is_in_a_later_block_moves_there_and_sinks() {
        // if (p0) { if (p0 < 0) return 1 else return 2 } else return 0
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let zero = g.const_int(0);
        let cmp = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[p, zero]);
        let outer = g.add(NodeKind::If, &[p]);
        g.set_next(g.start, outer);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(outer, t, f);
        let store = g.add(NodeKind::PutStatic { id: StaticId(0) }, &[zero]);
        g.set_next(t, store);
        let inner = g.add(NodeKind::If, &[cmp]);
        g.set_next(store, inner);
        let (tt, tf) = (g.add(NodeKind::Begin, &[]), g.add(NodeKind::Begin, &[]));
        g.set_if_targets(inner, tt, tf);
        for (arm, v) in [(tt, 1), (tf, 2)] {
            let c = g.const_int(v);
            let r = g.add(NodeKind::Return, &[c]);
            g.set_next(arm, r);
        }
        let r0 = g.add(NodeKind::Return, &[zero]);
        g.set_next(f, r0);
        let (sched, cfg, order) = order_of(&g, inner);
        assert_eq!(sched.placement_of(cmp), Some(cfg.block_of(t)));
        // After the store, right before its branch: the two fuse.
        assert!(pos(&order, store) < pos(&order, cmp), "{order:?}");
        assert_eq!(pos(&order, cmp) + 1, pos(&order, inner), "{order:?}");
    }

    #[test]
    fn a_value_read_in_one_arm_lands_in_that_arm() {
        let mut sum = NodeId(0);
        let mut c = guard_arm(|g, p| {
            let one = g.const_int(1);
            sum = g.add(NodeKind::Arith { op: ArithOp::Add }, &[p, one]);
            p
        });
        // The true arm's return reads the sum too.
        let ret = c.g.node(c.guard).successors()[0];
        c.g.set_input(ret, 0, sum);
        let (sched, cfg, order) = order_of(&c.g, c.guard);
        assert_eq!(sched.placement_of(sum), Some(cfg.block_of(c.arm)));
        assert!(pos(&order, sum) < pos(&order, ret), "{order:?}");
        assert!(!sched.per_block[cfg.entry().index()].contains(&sum));
    }

    #[test]
    fn a_value_only_a_guards_frame_state_reads_lands_before_the_guard() {
        // The guard's state has an outer state whose one local is a
        // virtual object; the object's fields are the value and the
        // object itself.
        let mut v = NodeId(0);
        let mut c = guard_arm(|g, p| {
            let seven = g.const_int(7);
            v = g.add(NodeKind::Arith { op: ArithOp::Mul }, &[p, seven]);
            p
        });
        let vom = c.g.add(
            NodeKind::VirtualObjectMapping {
                shape: crate::AllocShape::Instance {
                    class: pea_bytecode::ClassId(0),
                },
                lock_count: 0,
            },
            &[v],
        );
        c.g.push_input(vom, vom);
        let outer = c.g.add_frame_state(state(), &[vom]);
        let data = crate::FrameStateData::new(MethodId(0), 2, 1, 0, 0, true);
        let p = c.g.inputs(c.fs)[0];
        let inner = c.g.add_frame_state(data, &[p, outer]);
        c.g.set_state_after(c.guard, Some(inner));
        let (sched, cfg, order) = order_of(&c.g, c.guard);
        assert_eq!(sched.placement_of(v), Some(cfg.block_of(c.arm)));
        assert!(pos(&order, v) < pos(&order, c.guard), "{order:?}");
    }

    /// start -> loop { if (i < p0) { body } else exit }: the body computes
    /// `i + step` for the back edge, where `step = make(graph, p0)`; the
    /// exit returns `after(graph, i)`.
    struct Loop {
        g: Graph,
        body: NodeId,
        exit: NodeId,
        next: NodeId,
    }

    fn counted_loop(
        make: impl FnOnce(&mut Graph, NodeId) -> NodeId,
        after: impl FnOnce(&mut Graph, NodeId) -> NodeId,
    ) -> Loop {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let entry_end = g.add(NodeKind::End, &[]);
        g.set_next(g.start, entry_end);
        let lb = g.add_merge(NodeKind::LoopBegin, &[entry_end]);
        let zero = g.const_int(0);
        let phi = g.add(NodeKind::Phi { merge: lb }, &[zero]);
        let cmp = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[phi, p]);
        let iff = g.add(NodeKind::If, &[cmp]);
        g.set_next(lb, iff);
        let body = g.add(NodeKind::Begin, &[]);
        let exit = g.add(NodeKind::LoopExit { loop_begin: lb }, &[]);
        g.set_if_targets(iff, body, exit);
        let step = make(&mut g, p);
        let next = g.add(NodeKind::Arith { op: ArithOp::Add }, &[phi, step]);
        let le = g.add(NodeKind::LoopEnd, &[]);
        g.set_next(body, le);
        g.add_merge_end(lb, le);
        g.push_input(phi, next);
        let result = after(&mut g, phi);
        let ret = g.add(NodeKind::Return, &[result]);
        g.set_next(exit, ret);
        Loop {
            g,
            body,
            exit,
            next,
        }
    }

    #[test]
    fn a_value_read_only_after_a_loop_lands_in_the_exit_block() {
        let mut x = NodeId(0);
        let l = counted_loop(
            |g, _| g.const_int(1),
            |g, i| {
                let three = g.const_int(3);
                x = g.add(NodeKind::Arith { op: ArithOp::Mul }, &[i, three]);
                x
            },
        );
        let (sched, cfg, _) = order_of(&l.g, l.exit);
        assert_eq!(sched.placement_of(x), Some(cfg.block_of(l.exit)));
        // The back edge's input stays in the body that ends with it.
        assert_eq!(sched.placement_of(l.next), Some(cfg.block_of(l.body)));
    }

    #[test]
    fn loop_invariant_arithmetic_still_leaves_the_loop() {
        let mut step = NodeId(0);
        let l = counted_loop(
            |g, p| {
                let five = g.const_int(5);
                step = g.add(NodeKind::Arith { op: ArithOp::Mul }, &[p, five]);
                step
            },
            |_, i| i,
        );
        let (sched, cfg, _) = order_of(&l.g, l.body);
        assert_eq!(cfg.block(cfg.block_of(l.body)).loop_depth, 1);
        assert_eq!(sched.placement_of(step), Some(cfg.entry()));
        assert_eq!(sched.placement_of(l.next), Some(cfg.block_of(l.body)));
    }
}
