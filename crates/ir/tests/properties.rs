//! Property tests over the IR: randomly grown graphs must keep verifier,
//! CFG, dominator and scheduler invariants.

use pea_ir::cfg::Cfg;
use pea_ir::dom::DomTree;
use pea_ir::schedule::Schedule;
use pea_ir::{ArithOp, Graph, NodeId, NodeKind};
use proptest::prelude::*;

/// Grows a random structured CFG (nested if/loop regions with a random
/// expression DAG threaded through) and returns the graph.
#[derive(Clone, Debug)]
enum Region {
    Straight(u8),
    IfElse(Box<Region>, Box<Region>),
    Loop(Box<Region>),
    Seq(Box<Region>, Box<Region>),
}

fn region_strategy() -> impl Strategy<Value = Region> {
    let leaf = (0u8..4).prop_map(Region::Straight);
    leaf.prop_recursive(4, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Region::IfElse(a.into(), b.into())),
            inner.clone().prop_map(|r| Region::Loop(r.into())),
            (inner.clone(), inner).prop_map(|(a, b)| Region::Seq(a.into(), b.into())),
        ]
    })
}

struct Builder {
    g: Graph,
    values: Vec<NodeId>,
}

impl Builder {
    /// Emits a region; `tail` is the open chain end; returns the new tail.
    fn emit(&mut self, region: &Region, tail: NodeId) -> NodeId {
        match region {
            Region::Straight(n) => {
                // Grow the value pool with pure arithmetic.
                for k in 0..*n {
                    let a = self.values[k as usize % self.values.len()];
                    let b = self.values[(k as usize * 7 + 1) % self.values.len()];
                    let v = self.g.add(NodeKind::Arith { op: ArithOp::Add }, &[a, b]);
                    self.values.push(v);
                }
                tail
            }
            Region::Seq(a, b) => {
                let t = self.emit(a, tail);
                self.emit(b, t)
            }
            Region::IfElse(a, b) => {
                let cond = self.values[self.values.len() / 2];
                let iff = self.g.add(NodeKind::If, &[cond]);
                self.g.set_next(tail, iff);
                let bt = self.g.add(NodeKind::Begin, &[]);
                let bf = self.g.add(NodeKind::Begin, &[]);
                self.g.set_if_targets(iff, bt, bf);
                // Values created in one branch do not dominate the other
                // branch or the merge: scope the pool per branch and join
                // the branch results through a phi.
                let snap = self.values.len();
                let ta = self.emit(a, bt);
                let va = *self.values.last().unwrap();
                self.values.truncate(snap);
                let tb = self.emit(b, bf);
                let vb = *self.values.last().unwrap();
                self.values.truncate(snap);
                let ea = self.g.add(NodeKind::End, &[]);
                self.g.set_next(ta, ea);
                let eb = self.g.add(NodeKind::End, &[]);
                self.g.set_next(tb, eb);
                let merge = self.g.add_merge(NodeKind::Merge, &[ea, eb]);
                let phi = self.g.add(NodeKind::Phi { merge }, &[va, vb]);
                self.values.push(phi);
                merge
            }
            Region::Loop(body) => {
                let end = self.g.add(NodeKind::End, &[]);
                self.g.set_next(tail, end);
                let lb = self.g.add_merge(NodeKind::LoopBegin, &[end]);
                let seed = self.values[0];
                let phi = self.g.add(NodeKind::Phi { merge: lb }, &[seed]);
                self.values.push(phi);
                let snap = self.values.len();
                let t = self.emit(body, lb);
                let cond = *self.values.last().unwrap();
                self.values.truncate(snap);
                let iff = self.g.add(NodeKind::If, &[cond]);
                self.g.set_next(t, iff);
                let cont = self.g.add(NodeKind::Begin, &[]);
                let exit = self.g.add(NodeKind::Begin, &[]);
                self.g.set_if_targets(iff, cont, exit);
                let le = self.g.add(NodeKind::LoopEnd, &[]);
                self.g.set_next(cont, le);
                self.g.add_merge_end(lb, le);
                let back = self
                    .g
                    .add(NodeKind::Arith { op: ArithOp::Add }, &[phi, seed]);
                self.g.push_input(phi, back);
                exit
            }
        }
    }
}

fn build(region: &Region) -> Graph {
    let mut b = Builder {
        g: Graph::new(),
        values: Vec::new(),
    };
    let p = b.g.add(NodeKind::Param { index: 0 }, &[]);
    b.values.push(p);
    let c = b.g.const_int(1);
    b.values.push(c);
    let start = b.g.start;
    let tail = b.emit(region, start);
    let ret_val = *b.values.last().unwrap();
    let ret = b.g.add(NodeKind::Return, &[ret_val]);
    b.g.set_next(tail, ret);
    b.g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_structured_graphs_verify(region in region_strategy()) {
        let g = build(&region);
        pea_ir::verify::verify(&g).map_err(|e| {
            TestCaseError::fail(format!("{e}\n{}", pea_ir::dump::dump(&g)))
        })?;
    }

    #[test]
    fn rpo_visits_preds_before_blocks(region in region_strategy()) {
        let g = build(&region);
        let cfg = Cfg::build(&g);
        for &b in &cfg.rpo {
            let pos = cfg.rpo_position(b);
            for &p in cfg.block(b).preds {
                let is_back_edge = matches!(
                    g.kind(cfg.block(p).last()),
                    NodeKind::LoopEnd
                );
                if !is_back_edge {
                    prop_assert!(
                        cfg.rpo_position(p) < pos,
                        "forward pred {p:?} after {b:?} in RPO"
                    );
                }
            }
        }
    }

    #[test]
    fn idom_dominates_and_precedes(region in region_strategy()) {
        let g = build(&region);
        let cfg = Cfg::build(&g);
        let dom = DomTree::build(&cfg);
        for &b in &cfg.rpo {
            if b == cfg.entry() {
                continue;
            }
            let idom = dom.idom(b).expect("reachable blocks have idoms");
            prop_assert!(dom.dominates(idom, b));
            prop_assert!(cfg.rpo_position(idom) < cfg.rpo_position(b));
            // The idom dominates every predecessor's dominator chain.
            for &p in cfg.block(b).preds {
                prop_assert!(
                    dom.dominates(idom, p) || p == b,
                    "idom({b:?}) = {idom:?} does not dominate pred {p:?}"
                );
            }
        }
    }

    #[test]
    fn schedule_orders_inputs_before_uses(region in region_strategy()) {
        let g = build(&region);
        let cfg = Cfg::build(&g);
        let dom = DomTree::build(&cfg);
        let sched = Schedule::build(&g, &cfg, &dom);
        // Every scheduled node's same-block inputs appear earlier.
        for (bi, order) in sched.per_block.iter().enumerate() {
            let pos: std::collections::HashMap<NodeId, usize> =
                order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for &n in order {
                if matches!(g.kind(n), NodeKind::Phi { .. }) {
                    continue;
                }
                for &input in g.node(n).inputs() {
                    if matches!(g.kind(input), NodeKind::Phi { .. }) {
                        continue;
                    }
                    if let Some(&pi) = pos.get(&input) {
                        prop_assert!(
                            pi < pos[&n],
                            "block {bi}: input {input} at {pi} not before {n} at {}",
                            pos[&n]
                        );
                    }
                }
            }
        }
        // Schedule covers every live non-meta, non-phi node exactly once.
        let mut seen = std::collections::HashSet::new();
        for order in &sched.per_block {
            for &n in order {
                prop_assert!(seen.insert(n), "{n} scheduled twice");
            }
        }
    }

    #[test]
    fn prune_dead_is_idempotent_and_preserves_verification(region in region_strategy()) {
        let mut g = build(&region);
        // Add some garbage that pruning must collect.
        let orphan = g.add(NodeKind::Param { index: 7 }, &[]);
        let _orphan_use = g.add(NodeKind::Arith { op: ArithOp::Neg }, &[orphan]);
        let first = g.prune_dead();
        prop_assert!(first >= 2);
        let second = g.prune_dead();
        prop_assert_eq!(second, 0, "second sweep finds nothing");
        pea_ir::verify::verify(&g).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}
