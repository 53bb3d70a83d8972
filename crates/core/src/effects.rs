//! Deferred graph mutations, applied after the analysis converges
//! (the analogue of Graal's `EffectsPhase` / `GraphEffectList`).
//!
//! During the control-flow iteration the analysis only *records* what it
//! wants to change; loop bodies may be processed several times (§5.4) and
//! the effects of abandoned iterations are discarded wholesale. New nodes
//! (phis, commits, virtual-object mappings, constants) *are* created
//! eagerly — they float freely and cost nothing until referenced; a final
//! [`pea_ir::Graph::prune_dead`] sweep collects the leftovers.

use pea_ir::{Graph, NodeId};

/// One deferred mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Unlink a fixed node from its control chain and tombstone it
    /// (virtualized allocation, store, monitor operation, …).
    DeleteFixed {
        /// The node to remove.
        node: NodeId,
    },
    /// Replace every use of `node` with `replacement`, then unlink and
    /// tombstone it (virtualized load, folded type/identity check, …).
    ReplaceAndDeleteFixed {
        /// The node to remove.
        node: NodeId,
        /// The value its users see instead.
        replacement: NodeId,
    },
    /// Rewrite one data input (escaped aliases become materialized
    /// values; frame-state slots become mappings).
    SetInput {
        /// The user node.
        node: NodeId,
        /// Input slot.
        index: usize,
        /// New value.
        value: NodeId,
    },
    /// Insert a materialization commit (already created, with its
    /// `AllocatedObject`s) before `anchor` in the control chain.
    InsertFixedBefore {
        /// Where to splice.
        anchor: NodeId,
        /// The fixed node to insert.
        node: NodeId,
    },
}

/// Applies effects in order, resolving replacement chains: if `a` was
/// replaced by `b` and a later effect references `a`, it is patched to
/// reference `b`'s final resolution.
#[derive(Debug, Default)]
pub struct EffectApplier {
    /// The replacement of each node, indexed by node ([`NO_NODE`] if
    /// none); sized to the graph on the first replacement.
    resolved: Vec<NodeId>,
}

/// "Not replaced" in [`EffectApplier`]'s table.
const NO_NODE: NodeId = NodeId(u32::MAX);

impl EffectApplier {
    /// Fresh applier.
    pub fn new() -> Self {
        Self::default()
    }

    fn resolve(&self, mut n: NodeId) -> NodeId {
        while let Some(&r) = self.resolved.get(n.index()) {
            if r == NO_NODE || r == n {
                break;
            }
            n = r;
        }
        n
    }

    /// Applies one effect.
    pub fn apply(&mut self, graph: &mut Graph, effect: &Effect) {
        match effect {
            Effect::DeleteFixed { node } => {
                // Unlink only; the node becomes unreachable and the final
                // `prune_dead` sweep tombstones it (its frame state may be
                // shared and must survive until all rewrites ran).
                graph.unlink_fixed(*node);
                graph.set_state_after(*node, None);
            }
            Effect::ReplaceAndDeleteFixed { node, replacement } => {
                let replacement = self.resolve(*replacement);
                assert_ne!(*node, replacement, "node replaced by itself");
                graph.replace_at_usages(*node, replacement);
                if self.resolved.is_empty() {
                    self.resolved.resize(graph.len(), NO_NODE);
                }
                self.resolved[node.index()] = replacement;
                graph.unlink_fixed(*node);
                graph.set_state_after(*node, None);
            }
            Effect::SetInput { node, index, value } => {
                let value = self.resolve(*value);
                graph.set_input(*node, *index, value);
            }
            Effect::InsertFixedBefore { anchor, node } => {
                graph.insert_fixed_before(*anchor, *node);
            }
        }
    }

    /// Applies a sequence of effects in order.
    pub fn apply_all(&mut self, graph: &mut Graph, effects: &[Effect]) {
        for e in effects {
            self.apply(graph, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::FieldId;
    use pea_ir::NodeKind;

    /// start -> load1 -> load2 -> return(load2)
    fn chain_graph() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let load1 = g.add(NodeKind::LoadField { field: FieldId(0) }, &[p]);
        g.set_next(g.start, load1);
        let load2 = g.add(NodeKind::LoadField { field: FieldId(1) }, &[load1]);
        g.set_next(load1, load2);
        let ret = g.add(NodeKind::Return, &[load2]);
        g.set_next(load2, ret);
        (g, p, load1, load2, ret)
    }

    #[test]
    fn replacement_chains_resolve() {
        let (mut g, p, load1, load2, ret) = chain_graph();
        // load1 virtualized to p; load2 virtualized to load1 (recorded
        // before load1's replacement applied — the applier must resolve
        // through the chain).
        let mut applier = EffectApplier::new();
        applier.apply_all(
            &mut g,
            &[
                Effect::ReplaceAndDeleteFixed {
                    node: load1,
                    replacement: p,
                },
                Effect::ReplaceAndDeleteFixed {
                    node: load2,
                    replacement: load1,
                },
            ],
        );
        assert_eq!(g.node(ret).inputs(), &[p]);
        assert_eq!(g.next(g.start), Some(ret));
        // Unlinked nodes are collected by the dead sweep.
        g.prune_dead();
        assert!(g.node(load1).is_deleted());
        assert!(g.node(load2).is_deleted());
    }

    #[test]
    fn set_input_resolves_replacements() {
        let (mut g, p, load1, _load2, ret) = chain_graph();
        let mut applier = EffectApplier::new();
        // Pretend ret's input should become load1, but load1 is replaced.
        applier.apply(
            &mut g,
            &Effect::ReplaceAndDeleteFixed {
                node: load1,
                replacement: p,
            },
        );
        applier.apply(
            &mut g,
            &Effect::SetInput {
                node: ret,
                index: 0,
                value: load1,
            },
        );
        assert_eq!(g.node(ret).inputs(), &[p]);
    }

    #[test]
    fn insert_before_splices_commit() {
        let (mut g, _p, load1, _load2, _ret) = chain_graph();
        let commit = g.add(NodeKind::Commit { objects: vec![] }, &[]);
        let mut applier = EffectApplier::new();
        applier.apply(
            &mut g,
            &Effect::InsertFixedBefore {
                anchor: load1,
                node: commit,
            },
        );
        assert_eq!(g.next(g.start), Some(commit));
        assert_eq!(g.next(commit), Some(load1));
    }

    #[test]
    fn delete_fixed_drops_monitor() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let me = g.add(NodeKind::MonitorEnter, &[p]);
        g.set_next(g.start, me);
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(me, ret);
        let mut applier = EffectApplier::new();
        applier.apply(&mut g, &Effect::DeleteFixed { node: me });
        assert_eq!(g.next(g.start), Some(ret));
        g.prune_dead();
        assert!(g.node(me).is_deleted());
    }
}
