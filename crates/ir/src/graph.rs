//! The node arena with def-use tracking and control-flow wiring helpers.

use crate::{FrameStateData, Node, NodeId, NodeKind};
use pea_bytecode::MethodId;
use std::collections::HashMap;

/// An SSA graph for one compiled method (possibly with inlined callees).
///
/// Nodes live in an arena and are never moved; deletion tombstones them.
/// Data inputs are tracked with use lists so optimizations can rewrite
/// usages in O(uses).
#[derive(Clone, Debug)]
pub struct Graph {
    nodes: Vec<Node>,
    uses: Vec<Vec<NodeId>>,
    /// `(merge, phi)` for every phi ever created, sorted, so the phis of
    /// one merge are a contiguous run in id order; deleted ones stay
    /// listed. Eight bytes per phi, not per node: compiled methods keep
    /// their graphs.
    phis: Vec<(NodeId, NodeId)>,
    /// The [`NodeKind::Start`] node.
    pub start: NodeId,
    const_cache: HashMap<i64, NodeId>,
    null_cache: Option<NodeId>,
    /// Bytecode origin `(method, bci)` of allocation nodes
    /// (`New`/`NewArray`), recorded by the graph builder. Entries survive
    /// node deletion on purpose: trace events keep referring to
    /// virtualized allocations by their original node id.
    provenance: HashMap<NodeId, (MethodId, u32)>,
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
            uses: Vec::new(),
            phis: Vec::new(),
            start: NodeId(0),
            const_cache: HashMap::new(),
            null_cache: None,
            provenance: HashMap::new(),
        };
        let start = g.add(NodeKind::Start, vec![]);
        g.start = start;
        g
    }

    /// Adds a node with the given data inputs.
    pub fn add(&mut self, kind: NodeKind, inputs: Vec<NodeId>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        for &input in &inputs {
            self.uses[input.index()].push(id);
        }
        if let NodeKind::Phi { merge } = kind {
            // `id` is the largest id yet: it goes last among `merge`'s.
            let at = self.phis.partition_point(|&(m, _)| m <= merge);
            self.phis.insert(at, (merge, id));
        }
        self.nodes.push(Node {
            kind,
            inputs,
            successors: Vec::new(),
            control_pred: None,
            state_after: None,
            deleted: false,
        });
        self.uses.push(Vec::new());
        id
    }

    /// Interned integer constant.
    pub fn const_int(&mut self, value: i64) -> NodeId {
        if let Some(&id) = self.const_cache.get(&value) {
            if !self.node(id).deleted {
                return id;
            }
        }
        let id = self.add(NodeKind::ConstInt { value }, vec![]);
        self.const_cache.insert(value, id);
        id
    }

    /// Interned null constant.
    pub fn const_null(&mut self) -> NodeId {
        if let Some(id) = self.null_cache {
            if !self.node(id).deleted {
                return id;
            }
        }
        let id = self.add(NodeKind::ConstNull, vec![]);
        self.null_cache = Some(id);
        id
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// Mutable access to a node's kind (used by merge construction to push
    /// ends, and by canonicalization).
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
        let mut out: Vec<NodeId> = self.uses[id.index()]
            .iter()
            .copied()
            .filter(|u| !self.node(*u).deleted)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether `id` has any live user.
    pub fn has_uses(&self, id: NodeId) -> bool {
        self.uses[id.index()].iter().any(|u| !self.node(*u).deleted)
    }

    /// The live user of `id` when exactly one node uses it, however many
    /// of that node's inputs name `id`. Allocates nothing.
    pub fn sole_use(&self, id: NodeId) -> Option<NodeId> {
        let mut sole = None;
        for &u in &self.uses[id.index()] {
            if self.node(u).deleted || sole == Some(u) {
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
        let old = self.nodes[user.index()].inputs[index];
        if old == new_input {
            return;
        }
        remove_one(&mut self.uses[old.index()], user);
        self.uses[new_input.index()].push(user);
        self.nodes[user.index()].inputs[index] = new_input;
    }

    /// Appends an input to `user` (phi growth at loop back edges).
    pub fn push_input(&mut self, user: NodeId, input: NodeId) {
        self.uses[input.index()].push(user);
        self.nodes[user.index()].inputs.push(input);
    }

    /// Replaces every occurrence of `old` in every live user's inputs with
    /// `new`. Returns the number of rewritten slots.
    pub fn replace_at_usages(&mut self, old: NodeId, new: NodeId) -> usize {
        assert_ne!(old, new, "self-replacement");
        let users = std::mem::take(&mut self.uses[old.index()]);
        let mut count = 0;
        for user in users {
            if self.node(user).deleted {
                continue;
            }
            let inputs = &mut self.nodes[user.index()].inputs;
            for slot in inputs.iter_mut() {
                if *slot == old {
                    *slot = new;
                    count += 1;
                    self.uses[new.index()].push(user);
                }
            }
        }
        count
    }

    /// Removes all input edges of `id` (releasing its uses of others).
    fn clear_inputs(&mut self, id: NodeId) {
        let inputs = std::mem::take(&mut self.nodes[id.index()].inputs);
        for input in inputs {
            remove_one(&mut self.uses[input.index()], id);
        }
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
        self.clear_inputs(id);
        let node = &mut self.nodes[id.index()];
        node.deleted = true;
        node.successors.clear();
        node.state_after = None;
        node.control_pred = None;
    }

    /// Tombstones a node even if used (only for bulk dead-code sweeps where
    /// all members of a dead cycle go together).
    pub(crate) fn kill_unchecked(&mut self, id: NodeId) {
        self.clear_inputs(id);
        let node = &mut self.nodes[id.index()];
        node.deleted = true;
        node.successors.clear();
        node.state_after = None;
        node.control_pred = None;
    }

    // ----- control-flow wiring -----

    /// Wires `from.next = to` for straight-line fixed nodes, maintaining
    /// `to.control_pred`.
    ///
    /// # Panics
    ///
    /// Panics if `from` already has a successor or is a block end.
    pub fn set_next(&mut self, from: NodeId, to: NodeId) {
        let f = &mut self.nodes[from.index()];
        assert!(f.successors.is_empty(), "{from} already has a successor");
        f.successors.push(to);
        self.nodes[to.index()].control_pred = Some(from);
    }

    /// Wires an [`NodeKind::If`]'s two successors.
    pub fn set_if_targets(&mut self, iff: NodeId, true_target: NodeId, false_target: NodeId) {
        let n = &mut self.nodes[iff.index()];
        assert!(matches!(n.kind, NodeKind::If));
        assert!(n.successors.is_empty());
        n.successors.push(true_target);
        n.successors.push(false_target);
        self.nodes[true_target.index()].control_pred = Some(iff);
        self.nodes[false_target.index()].control_pred = Some(iff);
    }

    /// Single `next` successor of a straight-line fixed node.
    pub fn next(&self, id: NodeId) -> Option<NodeId> {
        let n = self.node(id);
        if n.successors.len() == 1 {
            Some(n.successors[0])
        } else {
            None
        }
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
        let pred_node = &mut self.nodes[pred.index()];
        let slot = pred_node
            .successors
            .iter()
            .position(|&s| s == id)
            .expect("pred does not list node as successor");
        pred_node.successors[slot] = succ;
        self.nodes[succ.index()].control_pred = Some(pred);
        let node = &mut self.nodes[id.index()];
        node.successors.clear();
        node.control_pred = None;
    }

    /// Inserts a straight-line fixed node `new` immediately before `at`
    /// (which must have a unique control predecessor).
    pub fn insert_fixed_before(&mut self, at: NodeId, new: NodeId) {
        let pred = self
            .node(at)
            .control_pred
            .expect("insert before pred-less node");
        let pred_node = &mut self.nodes[pred.index()];
        let slot = pred_node
            .successors
            .iter()
            .position(|&s| s == at)
            .expect("pred does not list node as successor");
        pred_node.successors[slot] = new;
        let new_node = &mut self.nodes[new.index()];
        assert!(new_node.successors.is_empty());
        new_node.successors.push(at);
        new_node.control_pred = Some(pred);
        self.nodes[at.index()].control_pred = Some(new);
    }

    /// Records the bytecode origin of an allocation node. With inlining,
    /// `method` is the (possibly inlined) method whose code contains the
    /// `new`/`newarray` at `bci`.
    pub fn set_provenance(&mut self, node: NodeId, method: MethodId, bci: u32) {
        self.provenance.insert(node, (method, bci));
    }

    /// The recorded bytecode origin of an allocation node, if any. Still
    /// answers for deleted (virtualized) allocations — see the field docs.
    pub fn provenance(&self, node: NodeId) -> Option<(MethodId, u32)> {
        self.provenance.get(&node).copied()
    }

    /// All recorded allocation origins.
    pub fn provenance_entries(&self) -> impl Iterator<Item = (NodeId, MethodId, u32)> + '_ {
        self.provenance.iter().map(|(&n, &(m, b))| (n, m, b))
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
        match &mut self.nodes[merge.index()].kind {
            NodeKind::Merge { ends } | NodeKind::LoopBegin { ends } => {
                ends.push(end);
                ends.len() - 1
            }
            other => panic!("add_merge_end on {other:?}"),
        }
    }

    /// The predecessor ends of a merge-like node.
    ///
    /// # Panics
    ///
    /// Panics if `merge` is not a merge-like node.
    pub fn merge_ends(&self, merge: NodeId) -> &[NodeId] {
        match &self.node(merge).kind {
            NodeKind::Merge { ends } | NodeKind::LoopBegin { ends } => ends,
            other => panic!("merge_ends on {other:?}"),
        }
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
            .filter(|&p| !self.node(p).deleted)
    }

    /// Creates a frame-state node.
    pub fn add_frame_state(&mut self, data: FrameStateData, inputs: Vec<NodeId>) -> NodeId {
        assert_eq!(data.input_count(), inputs.len(), "frame state layout");
        self.add(NodeKind::FrameState(data), inputs)
    }

    /// Frame-state layout descriptor of a frame-state node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a frame state.
    pub fn frame_state_data(&self, id: NodeId) -> &FrameStateData {
        match &self.node(id).kind {
            NodeKind::FrameState(d) => d,
            other => panic!("not a frame state: {other:?}"),
        }
    }

    /// Sweeps nodes unreachable from the control-flow graph: marks all
    /// fixed nodes reachable from start plus everything reachable through
    /// their inputs, merge ends, and frame states; tombstones the rest.
    /// Returns the number of collected nodes.
    pub fn prune_dead(&mut self) -> usize {
        // End/LoopEnd → owning merge (the edge is implicit: merges list
        // their ends, not vice versa).
        let mut merge_of_end: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for n in self.live_nodes() {
            if let NodeKind::Merge { ends } | NodeKind::LoopBegin { ends } = self.kind(n) {
                for &e in ends {
                    merge_of_end[e.index()] = Some(n);
                }
            }
        }
        let mut marked = vec![false; self.nodes.len()];
        let mut work = vec![self.start];
        while let Some(id) = work.pop() {
            if marked[id.index()] || self.node(id).deleted {
                continue;
            }
            marked[id.index()] = true;
            let node = self.node(id);
            work.extend(node.inputs.iter().copied());
            work.extend(node.successors.iter().copied());
            if let Some(state) = node.state_after {
                work.push(state);
            }
            match &node.kind {
                NodeKind::Merge { ends } | NodeKind::LoopBegin { ends } => {
                    work.extend(ends.iter().copied());
                }
                NodeKind::Phi { merge } => work.push(*merge),
                NodeKind::LoopExit { loop_begin } => work.push(*loop_begin),
                NodeKind::End | NodeKind::LoopEnd => {
                    if let Some(m) = merge_of_end[id.index()] {
                        work.push(m);
                    }
                }
                _ => {}
            }
            // Phis of a live merge are only live if used; they are reached
            // via uses when something needs them, so nothing extra here.
        }
        let mut collected = 0;
        for (i, mark) in marked.iter().enumerate() {
            if !mark && !self.nodes[i].deleted {
                self.kill_unchecked(NodeId::from_index(i));
                collected += 1;
            }
        }
        // Drop cache entries pointing at dead nodes.
        self.const_cache
            .retain(|_, id| !self.nodes[id.index()].deleted);
        if let Some(id) = self.null_cache {
            if self.nodes[id.index()].deleted {
                self.null_cache = None;
            }
        }
        collected
    }
}

fn remove_one(uses: &mut Vec<NodeId>, user: NodeId) {
    if let Some(pos) = uses.iter().position(|&u| u == user) {
        uses.swap_remove(pos);
    }
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
        let sum = g.add(NodeKind::Arith { op: ArithOp::Add }, vec![a, b]);
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
        let twice = g.add(NodeKind::Arith { op: ArithOp::Add }, vec![a, a]);
        assert_eq!(g.sole_use(a), Some(twice), "one user naming it twice");
        let other = g.add(NodeKind::Arith { op: ArithOp::Sub }, vec![a, b]);
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
        let twice = g.add(NodeKind::Arith { op: ArithOp::Add }, vec![a, a]);
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
        let op = g.add(NodeKind::Arith { op: ArithOp::Neg }, vec![a]);
        g.set_input(op, 0, b);
        assert!(!g.has_uses(a));
        assert_eq!(g.uses(b), vec![op]);
    }

    #[test]
    #[should_panic(expected = "killing")]
    fn kill_with_users_panics() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let _op = g.add(NodeKind::Arith { op: ArithOp::Neg }, vec![a]);
        g.kill(a);
    }

    #[test]
    fn kill_releases_inputs() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let op = g.add(NodeKind::Arith { op: ArithOp::Neg }, vec![a]);
        g.kill(op);
        assert!(!g.has_uses(a));
        assert!(g.node(op).is_deleted());
        assert_eq!(g.live_count(), 2); // start + a
    }

    #[test]
    fn fixed_chain_wiring_and_unlink() {
        let mut g = Graph::new();
        let n1 = g.add(NodeKind::Begin, vec![]);
        let n2 = g.add(NodeKind::Begin, vec![]);
        let n3 = g.add(NodeKind::Return, vec![]);
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
        let ret = g.add(NodeKind::Return, vec![]);
        g.set_next(g.start, ret);
        let mid = g.add(NodeKind::Begin, vec![]);
        g.insert_fixed_before(ret, mid);
        assert_eq!(g.next(g.start), Some(mid));
        assert_eq!(g.next(mid), Some(ret));
        assert_eq!(g.node(ret).control_pred(), Some(mid));
    }

    #[test]
    fn merge_ends_and_phis() {
        let mut g = Graph::new();
        let e1 = g.add(NodeKind::End, vec![]);
        let e2 = g.add(NodeKind::End, vec![]);
        let merge = g.add(NodeKind::Merge { ends: vec![] }, vec![]);
        assert_eq!(g.add_merge_end(merge, e1), 0);
        assert_eq!(g.add_merge_end(merge, e2), 1);
        assert_eq!(g.merge_ends(merge), &[e1, e2]);
        let a = g.const_int(1);
        let b = g.const_int(2);
        let phi = g.add(NodeKind::Phi { merge }, vec![a, b, merge]);
        // Convention: phi lists merge as an input? No — keep it out.
        // Rebuild without the merge input:
        g.kill(phi);
        let phi = g.add(NodeKind::Phi { merge }, vec![a, b]);
        let _ = phi;
    }

    #[test]
    fn prune_dead_collects_unreachable() {
        let mut g = Graph::new();
        let ret = g.add(NodeKind::Return, vec![]);
        g.set_next(g.start, ret);
        let orphan_a = g.const_int(10);
        let _orphan_op = g.add(NodeKind::Arith { op: ArithOp::Neg }, vec![orphan_a]);
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
        let p = g.add(NodeKind::Param { index: 0 }, vec![]);
        let data = FrameStateData::new(pea_bytecode::MethodId(0), 0, 1, 0, 0, false);
        let fs = g.add_frame_state(data, vec![p]);
        assert_eq!(g.frame_state_data(fs).n_locals, 1);
    }
}
