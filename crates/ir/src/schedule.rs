//! Scheduling of floating value nodes into basic blocks.
//!
//! The paper (§7) notes Graal's PEA relies on the scheduler to order
//! nodes. Our IR pins object-sensitive nodes, so the analysis itself is
//! schedule-free — but the compiled-code *evaluator* still needs every
//! floating value node placed and ordered. We schedule **early**: each
//! floating node goes to the deepest block among its inputs' blocks
//! (input-free nodes go to the entry block). Early placement is safe
//! because floating nodes are pure and non-trapping (trapping division is
//! a fixed node), and it doubles as loop-invariant code motion.
//!
//! Within a block, fixed nodes keep their chain order and floating nodes
//! go as early as their inputs allow, with one exception: a `Compare`
//! whose only user is the `If` or `Guard` of its own block **sinks** to
//! the position right before that user, so the linear tier can fuse the
//! pair into one compare-and-branch or compare-and-guard. A compare with
//! another user (a second fixed node, a phi, a frame state) or with its
//! user in another block stays where early placement put it, and no node
//! moves across blocks. Sinking moves the compare's `ALU_OP` charge past
//! the fixed nodes between its two positions: a run that returns normally
//! charges the same total, and one that leaves the method between them
//! (a failing guard, an exception) no longer pays for the compare. Both
//! compiled tiers walk this one order — the graph evaluator node by node,
//! the linear tier through the lowering, which emits in schedule order —
//! so they charge the same cycles at every point and run out of fuel at
//! the same charge.
//!
//! One requirement inherited from the JVM: bytecode must be
//! *type-consistent* — integer arithmetic never consumes references. The
//! JVM verifier enforces this statically; our bytecode verifier only
//! checks stack discipline, so a type-inconsistent program could make a
//! speculatively hoisted arithmetic node observe a reference and raise
//! earlier than the interpreter would. All bundled programs (assembler
//! sources, generators, fuzzers) are type-consistent.

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

        // Early placement for the remaining floating value nodes.
        for n in graph.live_nodes() {
            if graph.kind(n).is_floating()
                && !matches!(
                    graph.kind(n),
                    NodeKind::Phi { .. } | NodeKind::AllocatedObject { .. }
                )
            {
                place_early(graph, cfg, dom, n, &mut placement);
            }
        }

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

fn place_early(
    graph: &Graph,
    cfg: &Cfg,
    dom: &DomTree,
    node: NodeId,
    placement: &mut [Option<BlockId>],
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
        let b = place_early(graph, cfg, dom, input, placement);
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
        // p, c, sum all have entry-block inputs → scheduled in entry.
        assert_eq!(sched.placement_of(p), Some(cfg.entry()));
        assert_eq!(sched.placement_of(c), Some(cfg.entry()));
        assert_eq!(sched.placement_of(sum), Some(cfg.entry()));
        // entry order: floating nodes before the If, inputs before uses.
        let entry_order = &sched.per_block[cfg.entry().index()];
        let pos = |n: NodeId| entry_order.iter().position(|&x| x == n).unwrap();
        assert!(pos(p) < pos(sum));
        assert!(pos(c) < pos(sum));
        assert!(pos(sum) < pos(iff));
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

    #[test]
    fn a_compare_whose_user_is_in_another_block_stays_in_its_own() {
        // The compare reads only the parameter, so it is placed in the
        // entry block; its guard sits in the true arm.
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let zero = g.const_int(0);
        let cmp = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[p, zero]);
        let store = g.add(NodeKind::PutStatic { id: StaticId(0) }, &[zero]);
        g.set_next(g.start, store);
        let iff = g.add(NodeKind::If, &[p]);
        g.set_next(store, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let fs = g.add_frame_state(state(), &[p]);
        let guard = g.add(
            NodeKind::Guard {
                reason: crate::DeoptReason::UntakenBranch,
                negated: false,
            },
            &[cmp],
        );
        g.set_state_after(guard, Some(fs));
        g.set_next(t, guard);
        let r1 = g.add(NodeKind::Return, &[p]);
        g.set_next(guard, r1);
        let r2 = g.add(NodeKind::Return, &[zero]);
        g.set_next(f, r2);
        let cfg = Cfg::build(&g);
        let dom = DomTree::build(&cfg);
        let sched = Schedule::build(&g, &cfg, &dom);
        assert_eq!(sched.placement_of(cmp), Some(cfg.entry()));
        let order = &sched.per_block[cfg.entry().index()];
        assert!(pos(order, cmp) < pos(order, store), "{order:?}");
    }
}
