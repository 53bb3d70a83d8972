//! Graph invariant checking, in two halves: [`verify_structure`] needs
//! only the graph, [`verify_scheduled`] reads the CFG, dominator tree and
//! schedule of the graph it checks, so the compile pipeline runs it on the
//! products of its `Schedule` phase instead of building them twice.

use crate::cfg::{BlockId, Cfg};
use crate::dom::DomTree;
use crate::schedule::Schedule;
use crate::{Graph, NodeId, NodeKind};
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrError {
    /// Offending node.
    pub node: NodeId,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.node, self.reason)
    }
}

impl Error for IrError {}

fn err(node: NodeId, reason: impl Into<String>) -> IrError {
    IrError {
        node,
        reason: reason.into(),
    }
}

/// Checks every invariant: [`verify_structure`], then
/// [`verify_scheduled`] over a freshly built CFG, dominator tree and
/// schedule.
///
/// # Errors
///
/// The first violation found.
pub fn verify(graph: &Graph) -> Result<(), IrError> {
    verify_structure(graph)?;
    let cfg = Cfg::build(graph);
    let dom = DomTree::build(&cfg);
    let schedule = Schedule::build(graph, &cfg, &dom);
    verify_scheduled(graph, &cfg, &dom, &schedule)
}

/// Checks the invariants that need only the graph — the ones
/// [`Cfg::build`] relies on:
///
/// * no live node references a deleted node;
/// * fixed chains are doubly linked consistently (`control_pred` matches
///   the predecessor's successor slot);
/// * merge-like nodes list only `End`/`LoopEnd` predecessors, each claimed
///   by exactly one merge;
/// * every side-effecting node carries a frame state;
/// * frame-state input counts match their layout descriptors.
///
/// # Errors
///
/// The first violation found.
pub fn verify_structure(graph: &Graph) -> Result<(), IrError> {
    // Reference integrity.
    for n in graph.live_nodes() {
        let node = graph.node(n);
        for &input in node.inputs() {
            if graph.node(input).is_deleted() {
                return Err(err(n, format!("references deleted input {input}")));
            }
        }
        if let Some(state) = node.state_after {
            if graph.node(state).is_deleted() {
                return Err(err(n, format!("references deleted frame state {state}")));
            }
            if !matches!(graph.kind(state), NodeKind::FrameState(_)) {
                return Err(err(n, "state_after is not a FrameState"));
            }
        }
        for &succ in node.successors() {
            if graph.node(succ).is_deleted() {
                return Err(err(n, format!("references deleted successor {succ}")));
            }
        }
    }

    // Control-flow linkage.
    let mut end_owned = vec![false; graph.len()];
    for n in graph.live_nodes() {
        let node = graph.node(n);
        for &succ in node.successors() {
            let s = graph.node(succ);
            if s.control_pred() != Some(n) {
                return Err(err(
                    succ,
                    format!(
                        "control_pred mismatch: expected {n}, found {:?}",
                        s.control_pred()
                    ),
                ));
            }
        }
        match graph.kind(n) {
            NodeKind::Merge | NodeKind::LoopBegin => {
                let ends = graph.merge_ends(n);
                if ends.is_empty() {
                    return Err(err(n, "merge with no predecessors"));
                }
                for &e in ends {
                    match graph.kind(e) {
                        NodeKind::End | NodeKind::LoopEnd => {}
                        other => {
                            return Err(err(n, format!("merge end {e} is {other:?}")));
                        }
                    }
                    if std::mem::replace(&mut end_owned[e.index()], true) {
                        return Err(err(e, "end claimed by two merges"));
                    }
                }
                if let NodeKind::LoopBegin = graph.kind(n) {
                    if !matches!(graph.kind(ends[0]), NodeKind::End) {
                        return Err(err(n, "loop begin entry must be a forward End"));
                    }
                    if ends.len() < 2 {
                        return Err(err(n, "loop begin without back edges"));
                    }
                }
            }
            NodeKind::If if node.successors().len() != 2 => {
                return Err(err(n, "If without two successors"));
            }
            _ => {}
        }
        if graph.kind(n).is_side_effect() && node.state_after.is_none() {
            return Err(err(n, "side-effecting node without frame state"));
        }
    }

    // Frame-state layouts.
    for n in graph.live_nodes() {
        if let NodeKind::FrameState(data) = graph.kind(n) {
            if data.input_count() != graph.node(n).inputs().len() {
                return Err(err(
                    n,
                    format!(
                        "frame state layout mismatch: descriptor {} vs {} inputs",
                        data.input_count(),
                        graph.node(n).inputs().len()
                    ),
                ));
            }
            if !data.sync_flags_fit() {
                return Err(err(n, "lock_from_sync flags a lock past n_locks"));
            }
            if let Some(outer_index) = data.outer_index() {
                let outer = graph.node(n).inputs()[outer_index];
                if !matches!(graph.kind(outer), NodeKind::FrameState(_)) {
                    return Err(err(n, "outer input is not a frame state"));
                }
            }
        }
    }
    Ok(())
}

/// Checks the invariants that need the CFG, dominator tree and schedule
/// of `graph` (which must have passed [`verify_structure`]):
///
/// * phi input counts equal their merge's predecessor count;
/// * data inputs dominate their uses (checked via the early schedule;
///   virtual-object mappings and frame states are exempt as metadata).
///
/// # Errors
///
/// The first violation found.
pub fn verify_scheduled(
    graph: &Graph,
    cfg: &Cfg,
    dom: &DomTree,
    schedule: &Schedule,
) -> Result<(), IrError> {
    // Phi arity.
    for n in graph.live_nodes() {
        if let NodeKind::Phi { merge } = graph.kind(n) {
            let expected = graph.merge_ends(*merge).len();
            if graph.node(n).inputs().len() != expected {
                return Err(err(
                    n,
                    format!(
                        "phi arity {} does not match merge predecessors {expected}",
                        graph.node(n).inputs().len()
                    ),
                ));
            }
        }
    }

    // SSA dominance via the schedule (skips metadata).
    let block_of =
        |n: NodeId| -> Option<BlockId> { cfg.try_block_of(n).or_else(|| schedule.placement_of(n)) };
    for n in graph.live_nodes() {
        let kind = graph.kind(n);
        if kind.is_meta() {
            continue;
        }
        let Some(user_block) = block_of(n) else {
            continue; // unreachable
        };
        if let NodeKind::Phi { merge } = kind {
            let pred_blocks = &cfg.block(cfg.block_of(*merge)).preds;
            for (i, &input) in graph.node(n).inputs().iter().enumerate() {
                if graph.kind(input).is_meta() {
                    return Err(err(n, "phi input is metadata"));
                }
                let Some(def_block) = block_of(input) else {
                    continue;
                };
                if !dom.dominates(def_block, pred_blocks[i]) {
                    return Err(err(
                        n,
                        format!("phi input {input} does not dominate predecessor {i}"),
                    ));
                }
            }
            continue;
        }
        for &input in graph.node(n).inputs() {
            if graph.kind(input).is_meta() {
                if !matches!(kind, NodeKind::FrameState(_)) {
                    return Err(err(n, format!("non-metadata node uses metadata {input}")));
                }
                continue;
            }
            let Some(def_block) = block_of(input) else {
                continue;
            };
            // Self-referential commits: AllocatedObject(commit) inputs.
            if let NodeKind::Commit { .. } = kind {
                if matches!(graph.kind(input), NodeKind::AllocatedObject { .. })
                    && graph.node(input).inputs()[0] == n
                {
                    continue;
                }
            }
            if !dom.dominates(def_block, user_block) {
                return Err(err(
                    n,
                    format!(
                        "input {input} (in {def_block}) does not dominate use (in {user_block})"
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArithOp;

    fn valid_diamond() -> Graph {
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
        let ret = g.add(NodeKind::Return, &[phi]);
        g.set_next(merge, ret);
        g
    }

    #[test]
    fn accepts_valid_diamond() {
        verify(&valid_diamond()).unwrap();
    }

    #[test]
    fn rejects_phi_arity_mismatch() {
        let mut g = valid_diamond();
        let phi = g
            .live_nodes()
            .find(|&n| matches!(g.kind(n), NodeKind::Phi { .. }))
            .unwrap();
        let c = g.const_int(3);
        g.push_input(phi, c);
        let e = verify(&g).unwrap_err();
        assert!(e.reason.contains("arity"), "{e}");
    }

    #[test]
    fn rejects_side_effect_without_state() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let c = g.const_int(1);
        let store = g.add(
            NodeKind::StoreField {
                field: pea_bytecode::FieldId(0),
            },
            &[p, c],
        );
        g.set_next(g.start, store);
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(store, ret);
        let e = verify(&g).unwrap_err();
        assert!(e.reason.contains("frame state"), "{e}");
    }

    #[test]
    fn rejects_dominance_violation() {
        // A value defined in the true branch used after the merge without
        // a phi.
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let iff = g.add(NodeKind::If, &[p]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        // Fixed node in true branch producing a value.
        let load = g.add(
            NodeKind::LoadField {
                field: pea_bytecode::FieldId(0),
            },
            &[p],
        );
        g.set_next(t, load);
        let te = g.add(NodeKind::End, &[]);
        g.set_next(load, te);
        let fe = g.add(NodeKind::End, &[]);
        g.set_next(f, fe);
        let merge = g.add_merge(NodeKind::Merge, &[te, fe]);
        let ret = g.add(NodeKind::Return, &[load]); // illegal use
        g.set_next(merge, ret);
        let e = verify(&g).unwrap_err();
        assert!(e.reason.contains("dominate"), "{e}");
    }

    #[test]
    fn rejects_end_claimed_twice() {
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
        let m1 = g.add_merge(NodeKind::Merge, &[te, fe]);
        let r1 = g.add(NodeKind::Return, &[]);
        g.set_next(m1, r1);
        // Claim te again.
        let _m2 = g.add_merge(NodeKind::Merge, &[te]);
        let e = verify(&g).unwrap_err();
        assert!(e.reason.contains("two merges"), "{e}");
    }

    #[test]
    fn rejects_deleted_input() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        let op = g.add(NodeKind::Arith { op: ArithOp::Add }, &[a, b]);
        let ret = g.add(NodeKind::Return, &[op]);
        g.set_next(g.start, ret);
        g.kill_unchecked(a);
        let e = verify(&g).unwrap_err();
        assert!(e.reason.contains("deleted input"), "{e}");
    }
}
