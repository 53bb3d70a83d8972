//! Canonicalization: constant folding, phi simplification and global
//! value numbering over the floating value nodes.
//!
//! PEA "is particularly effective if it can interact with other parts of
//! the compiler, such as inlining, global value numbering, and constant
//! folding" (paper §5) — the pipeline runs this pass before and after the
//! escape analysis.

use pea_bytecode::CmpOp;
use pea_ir::{ArithOp, Graph, NodeId, NodeKind};
use std::collections::HashMap;

/// Statistics from one canonicalization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CanonResult {
    /// Arithmetic/compare nodes folded to constants.
    pub folded: usize,
    /// Phis replaced by their single distinct input.
    pub simplified_phis: usize,
    /// Nodes deduplicated by value numbering.
    pub gvn_hits: usize,
}

/// Runs canonicalization to a fixpoint. Only floating value nodes are
/// touched; control flow is left intact.
///
/// Each sweep visits the nodes that existed when it began, in id order:
/// a node a sweep creates (a folded constant) waits for the next sweep.
/// Nothing is collected per sweep or per node; the value-numbering
/// table is the one allocation, kept across sweeps.
pub fn canonicalize(graph: &mut Graph) -> CanonResult {
    let mut result = CanonResult::default();
    let mut table: HashMap<GvnKey, NodeId> = HashMap::new();
    loop {
        let mut changed = false;

        // Constant folding.
        for n in sweep(graph) {
            if graph.is_deleted(n)
                || !matches!(
                    graph.kind(n),
                    NodeKind::Arith { .. } | NodeKind::Compare { .. }
                )
            {
                continue;
            }
            if let Some(value) = fold(graph, n) {
                let c = graph.const_int(value);
                if c != n {
                    graph.replace_at_usages(n, c);
                    graph.kill(n);
                    result.folded += 1;
                    changed = true;
                }
            }
        }

        // Phi simplification: all inputs identical (ignoring self-loops).
        for phi in sweep(graph) {
            if graph.is_deleted(phi) || !matches!(graph.kind(phi), NodeKind::Phi { .. }) {
                continue;
            }
            let mut distinct = graph.inputs(phi).iter().copied().filter(|&i| i != phi);
            let Some(first) = distinct.next() else {
                continue;
            };
            if distinct.all(|i| i == first) {
                // replace_at_usages also rewrites the phi's own self-loop
                // input, leaving it use-free.
                graph.replace_at_usages(phi, first);
                graph.kill(phi);
                result.simplified_phis += 1;
                changed = true;
            }
        }

        // Global value numbering over pure floating nodes.
        table.clear();
        table.reserve(
            sweep(graph)
                .filter(|&n| !graph.is_deleted(n) && GvnKey::of(graph, n).is_some())
                .count(),
        );
        for n in sweep(graph) {
            // Keyed only now: earlier hits may have rewritten the inputs.
            if graph.is_deleted(n) {
                continue;
            }
            let Some(key) = GvnKey::of(graph, n) else {
                continue;
            };
            match table.get(&key) {
                Some(&existing) if existing != n => {
                    graph.replace_at_usages(n, existing);
                    graph.kill(n);
                    result.gvn_hits += 1;
                    changed = true;
                }
                _ => {
                    table.insert(key, n);
                }
            }
        }

        if !changed {
            break;
        }
    }
    result
}

/// The ids of one sweep: every node that exists now. The range is fixed
/// up front and borrows nothing, so the graph may change while a sweep
/// walks it; each visit re-checks liveness.
fn sweep(graph: &Graph) -> impl Iterator<Item = NodeId> {
    (0..graph.len()).map(NodeId::from_index)
}

/// What makes two pure floating nodes the same value: kind, payload and
/// inputs (at most two).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum GvnKey {
    Arith(ArithOp, [NodeId; 2]),
    Compare(CmpOp, [NodeId; 2]),
    ConstInt(i64),
    ConstNull,
    Param(u16),
}

impl GvnKey {
    /// The key of `n`, if it is a value-numbered kind.
    fn of(graph: &Graph, n: NodeId) -> Option<GvnKey> {
        let inputs = || -> Option<[NodeId; 2]> {
            match *graph.inputs(n) {
                [a] => Some([a, NodeId(u32::MAX)]),
                [a, b] => Some([a, b]),
                _ => None,
            }
        };
        Some(match graph.kind(n) {
            NodeKind::Arith { op } => GvnKey::Arith(*op, inputs()?),
            NodeKind::Compare { op } => GvnKey::Compare(*op, inputs()?),
            NodeKind::ConstInt { value } => GvnKey::ConstInt(*value),
            NodeKind::ConstNull => GvnKey::ConstNull,
            NodeKind::Param { index } => GvnKey::Param(*index),
            _ => return None,
        })
    }
}

fn const_of(graph: &Graph, n: NodeId) -> Option<i64> {
    match graph.kind(n) {
        NodeKind::ConstInt { value } => Some(*value),
        _ => None,
    }
}

fn fold(graph: &Graph, n: NodeId) -> Option<i64> {
    let inputs = graph.inputs(n);
    match graph.kind(n) {
        NodeKind::Arith { op } => {
            let a = const_of(graph, inputs[0])?;
            if *op == ArithOp::Neg {
                return Some(a.wrapping_neg());
            }
            let b = const_of(graph, inputs[1])?;
            Some(match op {
                ArithOp::Add => a.wrapping_add(b),
                ArithOp::Sub => a.wrapping_sub(b),
                ArithOp::Mul => a.wrapping_mul(b),
                ArithOp::And => a & b,
                ArithOp::Or => a | b,
                ArithOp::Xor => a ^ b,
                ArithOp::Shl => a.wrapping_shl((b & 63) as u32),
                ArithOp::Shr => a.wrapping_shr((b & 63) as u32),
                ArithOp::Div | ArithOp::Rem | ArithOp::Neg => return None,
            })
        }
        NodeKind::Compare { op } => {
            let a = const_of(graph, inputs[0])?;
            let b = const_of(graph, inputs[1])?;
            let op: CmpOp = *op;
            Some(i64::from(op.apply(a, b)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_constant_arithmetic() {
        let mut g = Graph::new();
        let a = g.const_int(6);
        let b = g.const_int(7);
        let mul = g.add(NodeKind::Arith { op: ArithOp::Mul }, &[a, b]);
        let ret = g.add(NodeKind::Return, &[mul]);
        g.set_next(g.start, ret);
        let r = canonicalize(&mut g);
        assert_eq!(r.folded, 1);
        assert!(matches!(
            g.kind(g.node(ret).inputs()[0]),
            NodeKind::ConstInt { value: 42 }
        ));
    }

    #[test]
    fn folds_transitively() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(2);
        let s1 = g.add(NodeKind::Arith { op: ArithOp::Add }, &[a, b]);
        let s2 = g.add(NodeKind::Arith { op: ArithOp::Add }, &[s1, s1]);
        let ret = g.add(NodeKind::Return, &[s2]);
        g.set_next(g.start, ret);
        canonicalize(&mut g);
        assert!(matches!(
            g.kind(g.node(ret).inputs()[0]),
            NodeKind::ConstInt { value: 6 }
        ));
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let mut g = Graph::new();
        let a = g.const_int(1);
        let b = g.const_int(0);
        let div = g.add(NodeKind::FixedArith { op: ArithOp::Div }, &[a, b]);
        g.set_next(g.start, div);
        let ret = g.add(NodeKind::Return, &[div]);
        g.set_next(div, ret);
        let r = canonicalize(&mut g);
        assert_eq!(r.folded, 0);
    }

    #[test]
    fn simplifies_redundant_loop_phi() {
        let mut g = Graph::new();
        let end = g.add(NodeKind::End, &[]);
        g.set_next(g.start, end);
        let lb = g.add_merge(NodeKind::LoopBegin, &[end]);
        let x = g.const_int(5);
        let phi = g.add(NodeKind::Phi { merge: lb }, &[x]);
        g.push_input(phi, phi); // self back edge
        let le = g.add(NodeKind::LoopEnd, &[]);
        g.set_next(lb, le);
        g.add_merge_end(lb, le);
        let r = canonicalize(&mut g);
        assert_eq!(r.simplified_phis, 1);
    }

    #[test]
    fn gvn_deduplicates_identical_ops() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let a = g.add(NodeKind::Arith { op: ArithOp::Add }, &[p, p]);
        let b = g.add(NodeKind::Arith { op: ArithOp::Add }, &[p, p]);
        let sum = g.add(NodeKind::Arith { op: ArithOp::Mul }, &[a, b]);
        let ret = g.add(NodeKind::Return, &[sum]);
        g.set_next(g.start, ret);
        let r = canonicalize(&mut g);
        assert!(r.gvn_hits >= 1);
        let inputs = g.node(sum).inputs();
        assert_eq!(inputs[0], inputs[1]);
    }

    #[test]
    fn folds_comparisons() {
        let mut g = Graph::new();
        let a = g.const_int(3);
        let b = g.const_int(4);
        let cmp = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[a, b]);
        let ret = g.add(NodeKind::Return, &[cmp]);
        g.set_next(g.start, ret);
        canonicalize(&mut g);
        assert!(matches!(
            g.kind(g.node(ret).inputs()[0]),
            NodeKind::ConstInt { value: 1 }
        ));
    }
}
