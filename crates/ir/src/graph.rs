//! The node arena with def-use tracking and control-flow wiring helpers.

use crate::pool::{EdgeList, EdgePool};
use crate::{FrameStateData, Node, NodeId, NodeKind};
use pea_bytecode::MethodId;

/// Marks "no node" in the dense tables of [`Graph::prune_dead`].
const NONE: u32 = u32::MAX;

/// One arena slot. Its edge lists live in the graph's [`EdgePool`].
#[derive(Clone, Debug)]
struct NodeData {
    kind: NodeKind,
    inputs: EdgeList,
    /// Users of this node, one entry per input slot naming it.
    uses: EdgeList,
    /// Predecessor ends of a merge-like node; empty for other kinds.
    ends: EdgeList,
    /// Control successors, `successors[..n_successors]`.
    successors: [NodeId; 2],
    n_successors: u8,
    control_pred: Option<NodeId>,
    state_after: Option<NodeId>,
    deleted: bool,
}

/// An SSA graph for one compiled method (possibly with inlined callees).
///
/// Nodes live in an arena and are never moved; deletion tombstones them.
/// Data inputs are tracked with use lists so optimizations can rewrite
/// usages in O(uses). Every edge list — inputs, uses, merge ends — lives
/// in one pooled array (see `pool.rs`), so adding a node allocates
/// nothing once the arena and the pool have room.
#[derive(Clone, Debug)]
pub struct Graph {
    nodes: Vec<NodeData>,
    pool: EdgePool,
    /// `(merge, phi)` for every phi ever created, sorted, so the phis of
    /// one merge are a contiguous run in id order; deleted ones stay
    /// listed. Eight bytes per phi, not per node: compiled methods keep
    /// their graphs.
    phis: Vec<(NodeId, NodeId)>,
    /// The [`NodeKind::Start`] node.
    pub start: NodeId,
    /// Interned integer constants, sorted by value.
    const_cache: Vec<(i64, NodeId)>,
    null_cache: Option<NodeId>,
    /// Bytecode origin `(method, bci)` of allocation nodes
    /// (`New`/`NewArray`), recorded by the graph builder, sorted by node.
    /// Entries survive node deletion on purpose: trace events keep
    /// referring to virtualized allocations by their original node id.
    provenance: Vec<(NodeId, MethodId, u32)>,
    /// Work tables of [`Graph::prune_dead`], kept between calls.
    prune_scratch: PruneScratch,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates a graph containing only its start node.
    pub fn new() -> Self {
        let mut g = Graph {
            nodes: Vec::new(),
            pool: EdgePool::default(),
            phis: Vec::new(),
            start: NodeId(0),
            const_cache: Vec::new(),
            null_cache: None,
            provenance: Vec::new(),
            prune_scratch: PruneScratch::default(),
        };
        let start = g.add(NodeKind::Start, &[]);
        g.start = start;
        g
    }

    /// Adds a node with the given data inputs.
    pub fn add(&mut self, kind: NodeKind, inputs: &[NodeId]) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        for &input in inputs {
            let uses = &mut self.nodes[input.index()].uses;
            self.pool.push(uses, id);
        }
        if let NodeKind::Phi { merge } = kind {
            // `id` is the largest id yet: it goes last among `merge`'s.
            let at = self.phis.partition_point(|&(m, _)| m <= merge);
            self.phis.insert(at, (merge, id));
        }
        let inputs = self.pool.list(inputs);
        self.nodes.push(NodeData {
            kind,
            inputs,
            uses: EdgeList::default(),
            ends: EdgeList::default(),
            successors: [NodeId(NONE); 2],
            n_successors: 0,
            control_pred: None,
            state_after: None,
            deleted: false,
        });
        id
    }

    /// Adds a merge-like node ([`NodeKind::Merge`] or
    /// [`NodeKind::LoopBegin`]) with the given predecessor ends.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not merge-like.
    pub fn add_merge(&mut self, kind: NodeKind, ends: &[NodeId]) -> NodeId {
        assert!(
            matches!(kind, NodeKind::Merge | NodeKind::LoopBegin),
            "add_merge of {kind:?}"
        );
        let id = self.add(kind, &[]);
        self.nodes[id.index()].ends = self.pool.list(ends);
        id
    }

    /// Interned integer constant.
    pub fn const_int(&mut self, value: i64) -> NodeId {
        let at = self.const_cache.partition_point(|&(v, _)| v < value);
        if let Some(&(v, id)) = self.const_cache.get(at) {
            if v == value && !self.nodes[id.index()].deleted {
                return id;
            }
        }
        let id = self.add(NodeKind::ConstInt { value }, &[]);
        match self.const_cache.get_mut(at) {
            Some(entry) if entry.0 == value => entry.1 = id,
            _ => self.const_cache.insert(at, (value, id)),
        }
        id
    }

    /// Interned null constant.
    pub fn const_null(&mut self) -> NodeId {
        if let Some(id) = self.null_cache {
            if !self.nodes[id.index()].deleted {
                return id;
            }
        }
        let id = self.add(NodeKind::ConstNull, &[]);
        self.null_cache = Some(id);
        id
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let n = &self.nodes[id.index()];
        Node {
            kind: &n.kind,
            inputs: self.pool.get(n.inputs),
            successors: &n.successors[..usize::from(n.n_successors)],
            control_pred: n.control_pred,
            state_after: n.state_after,
            deleted: n.deleted,
        }
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// The node's data inputs in kind order.
    #[inline]
    pub fn inputs(&self, id: NodeId) -> &[NodeId] {
        self.pool.get(self.nodes[id.index()].inputs)
    }

    /// The node's control successors.
    #[inline]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        let n = &self.nodes[id.index()];
        &n.successors[..usize::from(n.n_successors)]
    }

    /// Whether the node has been deleted.
    #[inline]
    pub fn is_deleted(&self, id: NodeId) -> bool {
        self.nodes[id.index()].deleted
    }

    /// Mutable access to a node's kind (used by canonicalization and by
    /// the builder's loop demotion).
    pub fn kind_mut(&mut self, id: NodeId) -> &mut NodeKind {
        &mut self.nodes[id.index()].kind
    }

    /// Number of arena slots (including tombstones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty (never true: the start node exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of live (non-deleted) nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.deleted).count()
    }

    /// Iterates over live node ids.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.deleted)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Current users of `id` (nodes listing it among their inputs),
    /// deduplicated and with deleted users filtered out.
    pub fn uses(&self, id: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.raw_uses(id).filter(|&u| !self.is_deleted(u)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The use list of `id` as stored: one entry per input slot naming
    /// `id`, deleted users included, in edit order. Allocates nothing.
    pub fn raw_uses(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pool.get(self.nodes[id.index()].uses).iter().copied()
    }

    /// Whether `id` has any live user.
    pub fn has_uses(&self, id: NodeId) -> bool {
        self.raw_uses(id).any(|u| !self.is_deleted(u))
    }

    /// The live user of `id` when exactly one node uses it, however many
    /// of that node's inputs name `id`. Allocates nothing.
    pub fn sole_use(&self, id: NodeId) -> Option<NodeId> {
        let mut sole = None;
        for u in self.raw_uses(id) {
            if self.is_deleted(u) || sole == Some(u) {
                continue;
            }
            if sole.is_some() {
                return None;
            }
            sole = Some(u);
        }
        sole
    }

    // ----- input editing -----

    /// Rewrites input `index` of `user` to `new_input`, updating use lists.
    pub fn set_input(&mut self, user: NodeId, index: usize, new_input: NodeId) {
        let inputs = self.nodes[user.index()].inputs;
        let old = self.pool.get(inputs)[index];
        if old == new_input {
            return;
        }
        self.pool
            .remove_one(&mut self.nodes[old.index()].uses, user);
        self.pool
            .push(&mut self.nodes[new_input.index()].uses, user);
        self.pool.get_mut(inputs)[index] = new_input;
    }

    /// Appends an input to `user` (phi growth at loop back edges).
    pub fn push_input(&mut self, user: NodeId, input: NodeId) {
        self.pool.push(&mut self.nodes[input.index()].uses, user);
        self.pool.push(&mut self.nodes[user.index()].inputs, input);
    }

    /// Replaces every occurrence of `old` in every live user's inputs with
    /// `new`. Returns the number of rewritten slots.
    pub fn replace_at_usages(&mut self, old: NodeId, new: NodeId) -> usize {
        assert_ne!(old, new, "self-replacement");
        let mut users = std::mem::take(&mut self.nodes[old.index()].uses);
        let mut count = 0;
        for k in 0..users.len() {
            let user = self.pool.get(users)[k];
            if self.nodes[user.index()].deleted {
                continue;
            }
            let inputs = self.nodes[user.index()].inputs;
            for i in 0..inputs.len() {
                let slot = &mut self.pool.get_mut(inputs)[i];
                if *slot == old {
                    *slot = new;
                    count += 1;
                    self.pool.push(&mut self.nodes[new.index()].uses, user);
                }
            }
        }
        self.pool.clear(&mut users);
        count
    }

    /// Removes all input edges of `id` (releasing its uses of others).
    fn clear_inputs(&mut self, id: NodeId) {
        let mut inputs = std::mem::take(&mut self.nodes[id.index()].inputs);
        for k in 0..inputs.len() {
            let input = self.pool.get(inputs)[k];
            self.pool
                .remove_one(&mut self.nodes[input.index()].uses, id);
        }
        self.pool.clear(&mut inputs);
    }

    /// Tombstones a node. The node must have no remaining live users.
    ///
    /// # Panics
    ///
    /// Panics if live users remain (that would leave dangling edges).
    pub fn kill(&mut self, id: NodeId) {
        assert!(
            !self.has_uses(id),
            "killing {id} which still has users: {:?}",
            self.uses(id)
        );
        self.kill_unchecked(id);
    }

    /// Tombstones a node even if used (only for bulk dead-code sweeps where
    /// all members of a dead cycle go together). Its input and use lists
    /// go back to the pool: a dead user swept later finds nothing to
    /// remove. A dead merge keeps its ends.
    pub(crate) fn kill_unchecked(&mut self, id: NodeId) {
        self.clear_inputs(id);
        self.pool.clear(&mut self.nodes[id.index()].uses);
        let node = &mut self.nodes[id.index()];
        node.deleted = true;
        node.n_successors = 0;
        node.state_after = None;
        node.control_pred = None;
    }

    // ----- control-flow wiring -----

    fn push_successor(&mut self, from: NodeId, to: NodeId) {
        let f = &mut self.nodes[from.index()];
        f.successors[usize::from(f.n_successors)] = to;
        f.n_successors += 1;
    }

    /// Wires `from.next = to` for straight-line fixed nodes, maintaining
    /// `to.control_pred`.
    ///
    /// # Panics
    ///
    /// Panics if `from` already has a successor or is a block end.
    pub fn set_next(&mut self, from: NodeId, to: NodeId) {
        assert!(
            self.nodes[from.index()].n_successors == 0,
            "{from} already has a successor"
        );
        self.push_successor(from, to);
        self.nodes[to.index()].control_pred = Some(from);
    }

    /// Wires an [`NodeKind::If`]'s two successors.
    pub fn set_if_targets(&mut self, iff: NodeId, true_target: NodeId, false_target: NodeId) {
        let n = &self.nodes[iff.index()];
        assert!(matches!(n.kind, NodeKind::If));
        assert!(n.n_successors == 0);
        self.push_successor(iff, true_target);
        self.push_successor(iff, false_target);
        self.nodes[true_target.index()].control_pred = Some(iff);
        self.nodes[false_target.index()].control_pred = Some(iff);
    }

    /// Single `next` successor of a straight-line fixed node.
    pub fn next(&self, id: NodeId) -> Option<NodeId> {
        let n = &self.nodes[id.index()];
        (n.n_successors == 1).then_some(n.successors[0])
    }

    /// Points `pred`'s successor edge to `old` at `new`.
    fn redirect_successor(&mut self, pred: NodeId, old: NodeId, new: NodeId) {
        let p = &mut self.nodes[pred.index()];
        let slot = p.successors[..usize::from(p.n_successors)]
            .iter()
            .position(|&s| s == old)
            .expect("pred does not list node as successor");
        p.successors[slot] = new;
    }

    /// Unlinks a straight-line fixed node from its chain, connecting its
    /// predecessor directly to its successor. The node itself is left
    /// alive (kill it separately once its value uses are gone).
    ///
    /// # Panics
    ///
    /// Panics if the node is not a straight-line fixed node with both a
    /// predecessor and a successor.
    pub fn unlink_fixed(&mut self, id: NodeId) {
        let pred = self.node(id).control_pred.expect("unlink without pred");
        let succ = self.next(id).expect("unlink without successor");
        self.redirect_successor(pred, id, succ);
        self.nodes[succ.index()].control_pred = Some(pred);
        let node = &mut self.nodes[id.index()];
        node.n_successors = 0;
        node.control_pred = None;
    }

    /// Inserts a straight-line fixed node `new` immediately before `at`
    /// (which must have a unique control predecessor).
    pub fn insert_fixed_before(&mut self, at: NodeId, new: NodeId) {
        let pred = self
            .node(at)
            .control_pred
            .expect("insert before pred-less node");
        self.redirect_successor(pred, at, new);
        assert!(self.nodes[new.index()].n_successors == 0);
        self.push_successor(new, at);
        self.nodes[new.index()].control_pred = Some(pred);
        self.nodes[at.index()].control_pred = Some(new);
    }

    /// Records the bytecode origin of an allocation node. With inlining,
    /// `method` is the (possibly inlined) method whose code contains the
    /// `new`/`newarray` at `bci`.
    pub fn set_provenance(&mut self, node: NodeId, method: MethodId, bci: u32) {
        let at = self.provenance.partition_point(|&(n, _, _)| n < node);
        match self.provenance.get_mut(at) {
            Some(entry) if entry.0 == node => *entry = (node, method, bci),
            _ => self.provenance.insert(at, (node, method, bci)),
        }
    }

    /// The recorded bytecode origin of an allocation node, if any. Still
    /// answers for deleted (virtualized) allocations — see the field docs.
    pub fn provenance(&self, node: NodeId) -> Option<(MethodId, u32)> {
        let at = self.provenance.partition_point(|&(n, _, _)| n < node);
        match self.provenance.get(at) {
            Some(&(n, m, b)) if n == node => Some((m, b)),
            _ => None,
        }
    }

    /// All recorded allocation origins, in node order.
    pub fn provenance_entries(&self) -> impl Iterator<Item = (NodeId, MethodId, u32)> + '_ {
        self.provenance.iter().copied()
    }

    /// Attaches a frame state to a node.
    pub fn set_state_after(&mut self, node: NodeId, state: Option<NodeId>) {
        self.nodes[node.index()].state_after = state;
    }

    /// Registers `end` as a predecessor of `merge` (a
    /// [`NodeKind::Merge`] or [`NodeKind::LoopBegin`]); returns the new
    /// predecessor index.
    ///
    /// # Panics
    ///
    /// Panics if `merge` is not a merge-like node.
    pub fn add_merge_end(&mut self, merge: NodeId, end: NodeId) -> usize {
        let m = &mut self.nodes[merge.index()];
        assert!(
            matches!(m.kind, NodeKind::Merge | NodeKind::LoopBegin),
            "add_merge_end on {:?}",
            m.kind
        );
        self.pool.push(&mut m.ends, end);
        m.ends.len() - 1
    }

    /// The predecessor ends of a merge-like node.
    ///
    /// # Panics
    ///
    /// Panics if `merge` is not a merge-like node.
    pub fn merge_ends(&self, merge: NodeId) -> &[NodeId] {
        let m = &self.nodes[merge.index()];
        assert!(
            matches!(m.kind, NodeKind::Merge | NodeKind::LoopBegin),
            "merge_ends on {:?}",
            m.kind
        );
        self.pool.get(m.ends)
    }

    /// All live phis attached to a merge-like node, in id order.
    pub fn phis_of(&self, merge: NodeId) -> Vec<NodeId> {
        self.iter_phis(merge).collect()
    }

    /// [`Graph::phis_of`] without collecting them.
    pub fn iter_phis(&self, merge: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let from = self.phis.partition_point(|&(m, _)| m < merge);
        self.phis[from..]
            .iter()
            .take_while(move |&&(m, _)| m == merge)
            .map(|&(_, p)| p)
            .filter(|&p| !self.is_deleted(p))
    }

    /// Creates a frame-state node.
    pub fn add_frame_state(&mut self, data: FrameStateData, inputs: &[NodeId]) -> NodeId {
        assert_eq!(data.input_count(), inputs.len(), "frame state layout");
        self.add(NodeKind::FrameState(data), inputs)
    }

    /// Frame-state layout descriptor of a frame-state node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a frame state.
    pub fn frame_state_data(&self, id: NodeId) -> &FrameStateData {
        match self.kind(id) {
            NodeKind::FrameState(d) => d,
            other => panic!("not a frame state: {other:?}"),
        }
    }

    /// Sweeps nodes unreachable from the control-flow graph: marks all
    /// fixed nodes reachable from start plus everything reachable through
    /// their inputs, merge ends, and frame states; tombstones the rest.
    /// Returns the number of collected nodes.
    ///
    /// Its node-indexed work tables are kept in the graph and reused by
    /// the next call.
    pub fn prune_dead(&mut self) -> usize {
        let n = self.nodes.len();
        let mut scratch = std::mem::take(&mut self.prune_scratch);
        // End/LoopEnd → owning merge (the edge is implicit: merges list
        // their ends, not vice versa); the last merge listing an end owns
        // it.
        scratch.merge_of_end.clear();
        scratch.merge_of_end.resize(n, NONE);
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.deleted && matches!(node.kind, NodeKind::Merge | NodeKind::LoopBegin) {
                for &e in self.pool.get(node.ends) {
                    scratch.merge_of_end[e.index()] = i as u32;
                }
            }
        }
        // A node is marked when pushed, so the stack holds each node at
        // most once and never outgrows `n`.
        scratch.marked.clear();
        scratch.marked.resize(n, false);
        scratch.work.clear();
        scratch.work.reserve(n);
        let nodes = &self.nodes;
        let PruneScratch {
            merge_of_end,
            marked,
            work,
        } = &mut scratch;
        let mut push = |id: NodeId, work: &mut Vec<NodeId>| {
            if !marked[id.index()] && !nodes[id.index()].deleted {
                marked[id.index()] = true;
                work.push(id);
            }
        };
        push(self.start, work);
        while let Some(id) = work.pop() {
            let node = self.node(id);
            node.inputs().iter().for_each(|&i| push(i, work));
            node.successors().iter().for_each(|&s| push(s, work));
            if let Some(state) = node.state_after {
                push(state, work);
            }
            match node.kind {
                NodeKind::Merge | NodeKind::LoopBegin => {
                    self.merge_ends(id).iter().for_each(|&e| push(e, work));
                }
                NodeKind::Phi { merge } => push(*merge, work),
                NodeKind::LoopExit { loop_begin } => push(*loop_begin, work),
                NodeKind::End | NodeKind::LoopEnd => {
                    let m = merge_of_end[id.index()];
                    if m != NONE {
                        push(NodeId(m), work);
                    }
                }
                _ => {}
            }
            // Phis of a live merge are only live if used; they are reached
            // via uses when something needs them, so nothing extra here.
        }
        let mut collected = 0;
        for i in 0..n {
            if !scratch.marked[i] && !self.nodes[i].deleted {
                self.kill_unchecked(NodeId::from_index(i));
                collected += 1;
            }
        }
        self.prune_scratch = scratch;
        // Drop cache entries pointing at dead nodes.
        let nodes = &self.nodes;
        self.const_cache
            .retain(|&(_, id)| !nodes[id.index()].deleted);
        if let Some(id) = self.null_cache {
            if self.nodes[id.index()].deleted {
                self.null_cache = None;
            }
        }
        collected
    }
}

/// The work tables of [`Graph::prune_dead`].
#[derive(Clone, Debug, Default)]
struct PruneScratch {
    merge_of_end: Vec<u32>,
    marked: Vec<bool>,
    work: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArithOp;

    #[test]
    fn add_tracks_uses() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        let sum = g.add(NodeKind::Arith { op: ArithOp::Add }, &[a, b]);
        assert_eq!(g.uses(a), vec![sum]);
        assert_eq!(g.uses(b), vec![sum]);
        assert!(g.uses(sum).is_empty());
    }

    #[test]
    fn sole_use_counts_distinct_live_users() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        assert_eq!(g.sole_use(a), None, "no user");
        let twice = g.add(NodeKind::Arith { op: ArithOp::Add }, &[a, a]);
        assert_eq!(g.sole_use(a), Some(twice), "one user naming it twice");
        let other = g.add(NodeKind::Arith { op: ArithOp::Sub }, &[a, b]);
        assert_eq!(g.sole_use(a), None, "two users");
        g.kill(other);
        assert_eq!(g.sole_use(a), Some(twice), "a deleted user does not count");
    }

    #[test]
    fn consts_are_interned() {
        let mut g = Graph::new();
        assert_eq!(g.const_int(5), g.const_int(5));
        assert_ne!(g.const_int(5), g.const_int(6));
        assert_eq!(g.const_null(), g.const_null());
    }

    #[test]
    fn replace_at_usages_rewrites_all_slots() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        let twice = g.add(NodeKind::Arith { op: ArithOp::Add }, &[a, a]);
        let n = g.replace_at_usages(a, b);
        assert_eq!(n, 2);
        assert_eq!(g.node(twice).inputs(), &[b, b]);
        assert!(!g.has_uses(a));
        assert_eq!(g.uses(b).len(), 1);
    }

    #[test]
    fn set_input_updates_use_lists() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        let op = g.add(NodeKind::Arith { op: ArithOp::Neg }, &[a]);
        g.set_input(op, 0, b);
        assert!(!g.has_uses(a));
        assert_eq!(g.uses(b), vec![op]);
    }

    #[test]
    #[should_panic(expected = "killing")]
    fn kill_with_users_panics() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let _op = g.add(NodeKind::Arith { op: ArithOp::Neg }, &[a]);
        g.kill(a);
    }

    #[test]
    fn kill_releases_inputs() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let op = g.add(NodeKind::Arith { op: ArithOp::Neg }, &[a]);
        g.kill(op);
        assert!(!g.has_uses(a));
        assert!(g.node(op).is_deleted());
        assert_eq!(g.live_count(), 2); // start + a
    }

    #[test]
    fn fixed_chain_wiring_and_unlink() {
        let mut g = Graph::new();
        let n1 = g.add(NodeKind::Begin, &[]);
        let n2 = g.add(NodeKind::Begin, &[]);
        let n3 = g.add(NodeKind::Return, &[]);
        g.set_next(g.start, n1);
        g.set_next(n1, n2);
        g.set_next(n2, n3);
        assert_eq!(g.next(g.start), Some(n1));
        assert_eq!(g.node(n3).control_pred(), Some(n2));
        g.unlink_fixed(n2);
        assert_eq!(g.next(n1), Some(n3));
        assert_eq!(g.node(n3).control_pred(), Some(n1));
        g.kill(n2);
    }

    #[test]
    fn insert_before_rewires() {
        let mut g = Graph::new();
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(g.start, ret);
        let mid = g.add(NodeKind::Begin, &[]);
        g.insert_fixed_before(ret, mid);
        assert_eq!(g.next(g.start), Some(mid));
        assert_eq!(g.next(mid), Some(ret));
        assert_eq!(g.node(ret).control_pred(), Some(mid));
    }

    #[test]
    fn merge_ends_and_phis() {
        let mut g = Graph::new();
        let e1 = g.add(NodeKind::End, &[]);
        let e2 = g.add(NodeKind::End, &[]);
        let merge = g.add_merge(NodeKind::Merge, &[]);
        assert_eq!(g.add_merge_end(merge, e1), 0);
        assert_eq!(g.add_merge_end(merge, e2), 1);
        assert_eq!(g.merge_ends(merge), &[e1, e2]);
        let a = g.const_int(1);
        let b = g.const_int(2);
        let phi = g.add(NodeKind::Phi { merge }, &[a, b, merge]);
        // Convention: phi lists merge as an input? No — keep it out.
        // Rebuild without the merge input:
        g.kill(phi);
        let phi = g.add(NodeKind::Phi { merge }, &[a, b]);
        let _ = phi;
    }

    #[test]
    fn prune_dead_collects_unreachable() {
        let mut g = Graph::new();
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(g.start, ret);
        let orphan_a = g.const_int(10);
        let _orphan_op = g.add(NodeKind::Arith { op: ArithOp::Neg }, &[orphan_a]);
        let collected = g.prune_dead();
        assert_eq!(collected, 2);
        assert_eq!(g.live_count(), 2);
        // Interned const is resurrectable after pruning.
        let again = g.const_int(10);
        assert!(!g.node(again).is_deleted());
    }

    #[test]
    fn frame_state_layout_enforced() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let data = FrameStateData::new(pea_bytecode::MethodId(0), 0, 1, 0, 0, false);
        let fs = g.add_frame_state(data, &[p]);
        assert_eq!(g.frame_state_data(fs).n_locals, 1);
    }

    // ----- the edge pool under graph edits -----

    #[test]
    fn phi_inputs_grow_past_every_size_class() {
        let mut g = Graph::new();
        let merge = g.add_merge(NodeKind::Merge, &[]);
        let values: Vec<NodeId> = (0..300).map(|v| g.const_int(v)).collect();
        let phi = g.add(NodeKind::Phi { merge }, &values[..1]);
        for &v in &values[1..] {
            g.push_input(phi, v);
        }
        assert_eq!(g.inputs(phi), &values[..]);
        for &v in &values {
            assert_eq!(g.uses(v), vec![phi]);
        }
    }

    #[test]
    fn use_list_removal_order_matches_vec_swap_remove() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        let users: Vec<NodeId> = (0..9)
            .map(|_| g.add(NodeKind::Arith { op: ArithOp::Neg }, &[a]))
            .collect();
        let mut model = users.clone();
        for &k in &[3, 0, 5, 1] {
            let user = users[k];
            g.set_input(user, 0, b);
            let pos = model.iter().position(|&u| u == user).unwrap();
            model.swap_remove(pos);
            assert_eq!(g.raw_uses(a).collect::<Vec<_>>(), model);
        }
    }

    #[test]
    fn replace_at_usages_and_push_input_on_phis() {
        let mut g = Graph::new();
        let lb = g.add_merge(NodeKind::LoopBegin, &[]);
        let a = g.const_int(1);
        let b = g.const_int(2);
        let phi = g.add(NodeKind::Phi { merge: lb }, &[a]);
        // A self-loop input and a repeated one.
        g.push_input(phi, phi);
        g.push_input(phi, a);
        assert_eq!(g.inputs(phi), &[a, phi, a]);
        assert_eq!(g.raw_uses(a).collect::<Vec<_>>(), vec![phi, phi]);
        assert_eq!(g.replace_at_usages(a, b), 2);
        assert_eq!(g.inputs(phi), &[b, phi, b]);
        assert!(!g.has_uses(a));
        assert_eq!(g.raw_uses(b).collect::<Vec<_>>(), vec![phi, phi]);
        assert_eq!(g.replace_at_usages(phi, b), 1, "the self-loop slot");
        assert_eq!(g.inputs(phi), &[b, b, b]);
        assert_eq!(g.sole_use(b), Some(phi));
    }

    #[test]
    fn kill_returns_edge_slots_to_the_free_lists() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        let op = g.add(NodeKind::Arith { op: ArithOp::Add }, &[a, b]);
        let slots = g.pool.slots();
        g.kill(op);
        let again = g.add(NodeKind::Arith { op: ArithOp::Sub }, &[b, a]);
        assert_eq!(g.pool.slots(), slots, "the killed node's blocks are reused");
        assert_eq!(g.inputs(again), &[b, a]);
        // A sweep's unchecked kill frees them too.
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(g.start, ret);
        let slots = g.pool.slots();
        assert_eq!(g.prune_dead(), 3, "the two constants and the subtraction");
        // Three two-id blocks came back; these take two of them.
        let c = g.const_int(3);
        let e = g.add(NodeKind::Arith { op: ArithOp::Mul }, &[c, c]);
        assert_eq!(g.pool.slots(), slots, "swept blocks are reused");
        assert_eq!(g.inputs(e), &[c, c]);
    }

    #[test]
    fn churn_on_a_large_graph_reuses_freed_slots() {
        let mut g = Graph::new();
        let params: Vec<NodeId> = (0..100)
            .map(|i| g.add(NodeKind::Param { index: i }, &[]))
            .collect();
        let mut live = Vec::new();
        for i in 0..10_000 {
            let (x, y) = (params[i % 100], params[(i * 7 + 3) % 100]);
            live.push(g.add(NodeKind::Arith { op: ArithOp::Add }, &[x, y]));
        }
        let slots = g.pool.slots();
        // Kill every other node and add as many back, over and over: each
        // new node takes the blocks a killed one gave back.
        for round in 0..5 {
            let mut kept = Vec::with_capacity(live.len());
            for (k, &n) in live.iter().enumerate() {
                if k % 2 == round % 2 {
                    g.kill(n);
                } else {
                    kept.push(n);
                }
            }
            while kept.len() < 10_000 {
                let i = kept.len() + round;
                let (x, y) = (params[i % 100], params[(i * 3 + 1) % 100]);
                kept.push(g.add(NodeKind::Arith { op: ArithOp::Sub }, &[x, y]));
            }
            live = kept;
        }
        assert_eq!(g.pool.slots(), slots, "no growth under churn");
        for &n in &live {
            for &input in g.inputs(n) {
                assert!(g.raw_uses(input).any(|u| u == n));
            }
        }
    }
}
