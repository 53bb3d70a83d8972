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

/// A complete per-block execution order.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// For each block (by index): fixed and floating nodes in an order
    /// that respects data dependencies and the fixed chain.
    pub per_block: Vec<Vec<NodeId>>,
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
                    let commit = graph.node(n).inputs()[0];
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

        // Per-block topological ordering (fixed chain + floating nodes);
        // each block's floaters in ascending node order.
        let mut block_floaters: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.blocks.len()];
        for (i, b) in placement.iter().enumerate() {
            if let Some(b) = b {
                let n = NodeId::from_index(i);
                if !matches!(graph.kind(n), NodeKind::Phi { .. }) {
                    block_floaters[b.index()].push(n);
                }
            }
        }
        let mut orderer = BlockOrderer::new(graph);
        let per_block = cfg
            .blocks
            .iter()
            .map(|block| orderer.order(&block.nodes, &block_floaters[block.id.index()]))
            .collect();

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
        self.per_block.iter().map(|b| b.len() as u64).sum()
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
    for &input in graph.node(node).inputs() {
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
/// are available. The per-node tables are shared by every block of one
/// schedule.
struct BlockOrderer<'g> {
    graph: &'g Graph,
    /// 1 + index of the block being ordered, for nodes in it.
    stamp: Vec<u32>,
    /// Remaining same-block dependency count per floating node.
    pending: Vec<u32>,
    /// Reverse edges `(input, floating dependent)` of the current block,
    /// sorted by input.
    dependents: Vec<(NodeId, NodeId)>,
    current: u32,
}

impl<'g> BlockOrderer<'g> {
    fn new(graph: &'g Graph) -> Self {
        BlockOrderer {
            graph,
            stamp: vec![0; graph.len()],
            pending: vec![0; graph.len()],
            dependents: Vec::new(),
            current: 0,
        }
    }

    fn order(&mut self, fixed: &[NodeId], floaters: &[NodeId]) -> Vec<NodeId> {
        let graph = self.graph;
        self.current += 1;
        for &n in fixed.iter().chain(floaters) {
            self.stamp[n.index()] = self.current;
        }
        self.dependents.clear();
        for &f in floaters {
            let mut count = 0;
            for &input in graph.node(f).inputs() {
                if self.stamp[input.index()] == self.current
                    && !matches!(graph.kind(input), NodeKind::Phi { .. })
                {
                    count += 1;
                    self.dependents.push((input, f));
                }
            }
            self.pending[f.index()] = count;
        }
        self.dependents.sort_by_key(|&(input, _)| input);

        let mut out = Vec::with_capacity(fixed.len() + floaters.len());
        let mut ready: Vec<NodeId> = floaters
            .iter()
            .copied()
            .filter(|f| self.pending[f.index()] == 0)
            .collect();
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
                self.emit(f, &mut out, &mut ready);
            }
            self.emit(fx, &mut out, &mut ready);
        }
        // Trailing floaters (depend on the block terminator's value — rare,
        // e.g. nothing in practice, but drain for completeness).
        while let Some(f) = ready.pop() {
            self.emit(f, &mut out, &mut ready);
        }
        debug_assert_eq!(
            out.len(),
            fixed.len() + floaters.len(),
            "schedule lost nodes"
        );
        out
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

    #[test]
    fn consts_and_params_go_to_entry() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, vec![]);
        let iff = g.add(NodeKind::If, vec![p]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, vec![]);
        let f = g.add(NodeKind::Begin, vec![]);
        g.set_if_targets(iff, t, f);
        let r1 = g.add(NodeKind::Return, vec![p]);
        g.set_next(t, r1);
        let c = g.const_int(7);
        let sum = g.add(NodeKind::Arith { op: ArithOp::Add }, vec![p, c]);
        let r2 = g.add(NodeKind::Return, vec![sum]);
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
        let p = g.add(NodeKind::Param { index: 0 }, vec![]);
        let load = g.add(NodeKind::LoadField { field: FieldId(0) }, vec![p]);
        g.set_next(g.start, load);
        let c = g.const_int(1);
        let sum = g.add(NodeKind::Arith { op: ArithOp::Add }, vec![load, c]);
        let ret = g.add(NodeKind::Return, vec![sum]);
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
        let p = g.add(NodeKind::Param { index: 0 }, vec![]);
        let iff = g.add(NodeKind::If, vec![p]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, vec![]);
        let f = g.add(NodeKind::Begin, vec![]);
        g.set_if_targets(iff, t, f);
        let te = g.add(NodeKind::End, vec![]);
        g.set_next(t, te);
        let fe = g.add(NodeKind::End, vec![]);
        g.set_next(f, fe);
        let merge = g.add(NodeKind::Merge { ends: vec![te, fe] }, vec![]);
        let c1 = g.const_int(1);
        let c2 = g.const_int(2);
        let phi = g.add(NodeKind::Phi { merge }, vec![c1, c2]);
        let dbl = g.add(NodeKind::Arith { op: ArithOp::Add }, vec![phi, phi]);
        let ret = g.add(NodeKind::Return, vec![dbl]);
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
}
