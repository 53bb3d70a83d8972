//! The flow-insensitive baseline: Equi-Escape Sets (Kotzmann &
//! Mössenböck), the style of analysis the paper compares against (§3,
//! §6.2, §8.1).
//!
//! Values are partitioned with a union–find structure; any escape point
//! (static store, call argument, return, throw) marks its whole set as
//! escaping, and — matching the all-or-nothing character the paper
//! criticizes — an allocation that flows into a phi (a control-flow merge)
//! is treated as escaping, because a flow-insensitive scalar replacement
//! cannot split it per branch.
//!
//! Scalar replacement then reuses the *same* engine as Partial Escape
//! Analysis restricted to the provably never-escaping allocation sites
//! ([`crate::PeaOptions::allowed`]), exactly like the HotSpot server
//! compiler performs a separate analysis step followed by an optimization
//! step (paper §1: "previous systems perform a control-flow-sensitive
//! analysis step followed by a control-flow-insensitive optimization
//! step").

use crate::analysis::{run_pea, PeaOptions, PeaResult};
use pea_bytecode::Program;
use pea_ir::{Graph, NodeId, NodeKind};

/// A set of nodes as one bit per node id (EES's allowed allocation
/// sites, [`crate::PeaOptions::allowed`]).
#[derive(Clone, Debug, Default)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Empty set sized for `n` nodes.
    pub fn new(n: usize) -> NodeSet {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts a node; ids beyond the sized range are ignored.
    pub fn insert(&mut self, id: NodeId) {
        let i = id.index();
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    /// Membership test; ids beyond the sized range (nodes created after
    /// the set was built) are not members.
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }
}

/// Union–find over graph nodes with escape marks.
#[derive(Clone, Debug)]
pub struct EscapeSets {
    parent: Vec<u32>,
    escaped: Vec<bool>,
}

impl EscapeSets {
    /// Builds the equi-escape sets for `graph`.
    pub fn build(graph: &Graph) -> EscapeSets {
        let n = graph.len();
        let mut sets = EscapeSets {
            parent: (0..n as u32).collect(),
            escaped: vec![false; n],
        };
        for node in graph.live_nodes() {
            match graph.kind(node) {
                NodeKind::Phi { .. } => {
                    for &input in graph.node(node).inputs() {
                        sets.union(node, input);
                    }
                    // Allocation merges defeat flow-insensitive scalar
                    // replacement.
                    sets.mark_escaped(node);
                }
                NodeKind::CheckCast { .. } => {
                    sets.union(node, graph.node(node).inputs()[0]);
                }
                NodeKind::StoreField { .. } => {
                    let [obj, value] = graph.node(node).inputs() else {
                        unreachable!()
                    };
                    sets.union(*obj, *value);
                }
                NodeKind::StoreIndexed => {
                    let [arr, _idx, value] = graph.node(node).inputs() else {
                        unreachable!()
                    };
                    sets.union(*arr, *value);
                }
                NodeKind::LoadField { .. } => {
                    sets.union(node, graph.node(node).inputs()[0]);
                }
                NodeKind::LoadIndexed => {
                    sets.union(node, graph.node(node).inputs()[0]);
                }
                NodeKind::PutStatic { .. }
                | NodeKind::Invoke { .. }
                | NodeKind::Return
                | NodeKind::Throw
                | NodeKind::Commit { .. } => {
                    for &input in graph.node(node).inputs() {
                        sets.mark_escaped(input);
                    }
                }
                _ => {}
            }
        }
        sets
    }

    fn find(&mut self, n: NodeId) -> u32 {
        let mut x = n.0;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: NodeId, b: NodeId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let escaped = self.escaped[ra as usize] || self.escaped[rb as usize];
            self.parent[rb as usize] = ra;
            self.escaped[ra as usize] = escaped;
        }
    }

    fn mark_escaped(&mut self, n: NodeId) {
        let r = self.find(n);
        self.escaped[r as usize] = true;
    }

    /// Whether `n`'s set escapes.
    pub fn escapes(&mut self, n: NodeId) -> bool {
        let r = self.find(n);
        self.escaped[r as usize]
    }

    /// All allocation sites whose sets never escape.
    pub fn non_escaping_allocations(&mut self, graph: &Graph) -> NodeSet {
        let mut sites = NodeSet::new(graph.len());
        for n in graph.live_nodes() {
            if matches!(
                graph.kind(n),
                NodeKind::New { .. } | NodeKind::NewArray { .. }
            ) && !self.escapes(n)
            {
                sites.insert(n);
            }
        }
        sites
    }
}

/// Runs the flow-insensitive baseline: Equi-Escape-Sets analysis followed
/// by all-or-nothing scalar replacement of the never-escaping allocations.
pub fn run_ees(graph: &mut Graph, program: &Program, base: &PeaOptions) -> PeaResult {
    let mut sets = EscapeSets::build(graph);
    let allowed = sets.non_escaping_allocations(graph);
    let options = PeaOptions {
        allowed: Some(allowed),
        ..base.clone()
    };
    run_pea(graph, program, &options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::{ClassId, StaticId};

    /// The members of `set` among `g`'s nodes, in id order.
    fn members(set: &NodeSet, g: &Graph) -> Vec<NodeId> {
        (0..g.len())
            .map(NodeId::from_index)
            .filter(|&n| set.contains(n))
            .collect()
    }

    #[test]
    fn nodeset_basics() {
        let mut s = NodeSet::new(100);
        assert!(!s.contains(NodeId(3)));
        s.insert(NodeId(3));
        assert!(s.contains(NodeId(3)));
        // Ids past the sized range are ignored and never members.
        s.insert(NodeId(1000));
        assert!(!s.contains(NodeId(1000)));
    }

    /// start -> new -> putstatic(new) -> return
    #[test]
    fn static_store_escapes() {
        let mut g = Graph::new();
        let new = g.add(NodeKind::New { class: ClassId(0) }, &[]);
        g.set_next(g.start, new);
        let put = g.add(NodeKind::PutStatic { id: StaticId(0) }, &[new]);
        g.set_next(new, put);
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(put, ret);
        let mut sets = EscapeSets::build(&g);
        assert!(sets.escapes(new));
        assert!(members(&sets.non_escaping_allocations(&g), &g).is_empty());
    }

    #[test]
    fn local_allocation_does_not_escape() {
        let mut g = Graph::new();
        let new = g.add(NodeKind::New { class: ClassId(0) }, &[]);
        g.set_next(g.start, new);
        let load = g.add(
            NodeKind::LoadField {
                field: pea_bytecode::FieldId(0),
            },
            &[new],
        );
        g.set_next(new, load);
        let ret = g.add(NodeKind::Return, &[load]);
        g.set_next(load, ret);
        let mut sets = EscapeSets::build(&g);
        // The load's value is returned — it unions with the object, and
        // Return marks it escaping. This is exactly the flow-insensitive
        // conservatism: the loaded *field value* escaping drags the object
        // along.
        assert!(sets.escapes(new));
    }

    #[test]
    fn pure_local_use_survives() {
        let mut g = Graph::new();
        let new = g.add(NodeKind::New { class: ClassId(0) }, &[]);
        g.set_next(g.start, new);
        let me = g.add(NodeKind::MonitorEnter, &[new]);
        g.set_next(new, me);
        let mx = g.add(NodeKind::MonitorExit, &[new]);
        g.set_next(me, mx);
        let c = g.const_int(0);
        let ret = g.add(NodeKind::Return, &[c]);
        g.set_next(mx, ret);
        let mut sets = EscapeSets::build(&g);
        assert!(!sets.escapes(new));
        assert_eq!(members(&sets.non_escaping_allocations(&g), &g), [new]);
    }

    #[test]
    fn phi_join_escapes() {
        let mut g = Graph::new();
        let new_a = g.add(NodeKind::New { class: ClassId(0) }, &[]);
        let merge = g.add_merge(NodeKind::Merge, &[]);
        let null = g.const_null();
        let phi = g.add(NodeKind::Phi { merge }, &[new_a, null]);
        let _ = phi;
        let mut sets = EscapeSets::build(&g);
        assert!(sets.escapes(new_a));
    }

    #[test]
    fn store_into_escaping_object_escapes_value() {
        let mut g = Graph::new();
        let a = g.add(NodeKind::New { class: ClassId(0) }, &[]);
        g.set_next(g.start, a);
        let b = g.add(NodeKind::New { class: ClassId(0) }, &[]);
        g.set_next(a, b);
        let store = g.add(
            NodeKind::StoreField {
                field: pea_bytecode::FieldId(0),
            },
            &[a, b],
        );
        g.set_next(b, store);
        let put = g.add(NodeKind::PutStatic { id: StaticId(0) }, &[a]);
        g.set_next(store, put);
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(put, ret);
        let mut sets = EscapeSets::build(&g);
        assert!(sets.escapes(a));
        assert!(sets.escapes(b), "b stored into escaping a must escape");
    }
}
