//! Node liveness per basic block, used by the merge processor to drop
//! object states that can no longer be observed.
//!
//! Rationale: the paper's merge rules (§5.3) materialize an object that is
//! virtual on one predecessor and escaped on another. Applied naively to
//! *dead* objects (e.g. a callee-local temporary after the inline
//! continuation merge), this would re-introduce the very allocation PEA
//! removed. Graal avoids tracking such objects because its bytecode
//! parser prunes dead locals from frame states; our builder keeps all
//! locals, so we compensate with an explicit backward liveness analysis:
//! an allocation's state only survives a merge if one of its alias nodes
//! is still referenced at or after the merge point (including by frame
//! states), transitively through the fields of surviving objects.

use pea_ir::cfg::{BlockId, Cfg};
use pea_ir::{Graph, NodeId, NodeKind};

/// Sets the values `fs` holds in its slots; returns its outer state.
fn add_frame_state_slots(graph: &Graph, fs: NodeId, set: &mut [u64]) -> Option<NodeId> {
    let data = graph.frame_state_data(fs);
    let inputs = graph.node(fs).inputs();
    for i in data
        .locals_range()
        .chain(data.stack_range())
        .chain(data.locks_range())
    {
        insert(set, inputs[i]);
    }
    data.outer_index().map(|outer| inputs[outer])
}

/// Sets the values `fs` and its outer chain hold in their slots. The
/// chain is skipped when its first outer state is `walked`, the one a
/// later node of the same block already walked: an outer state describes
/// its call site, so the nodes in between define nothing it holds.
fn add_frame_state_refs(graph: &Graph, fs: NodeId, walked: &mut Option<NodeId>, set: &mut [u64]) {
    let outer = add_frame_state_slots(graph, fs, set);
    if outer.is_none() || outer == *walked {
        return;
    }
    *walked = outer;
    let mut next = outer;
    while let Some(fs) = next {
        next = add_frame_state_slots(graph, fs, set);
    }
}

/// Sets `id`'s bit in a row of words; ids beyond the row are ignored.
fn insert(row: &mut [u64], id: NodeId) {
    let i = id.index();
    if let Some(w) = row.get_mut(i / 64) {
        *w |= 1 << (i % 64);
    }
}

fn remove(row: &mut [u64], id: NodeId) {
    let i = id.index();
    if let Some(w) = row.get_mut(i / 64) {
        *w &= !(1 << (i % 64));
    }
}

/// The phis of every merge-like block head, in id order, as one flat
/// table (the graph only hands them out as a fresh `Vec` per call).
#[derive(Clone, Debug)]
pub struct HeadPhis {
    /// `phis[start[b]..start[b + 1]]` are block `b`'s head phis.
    start: Vec<u32>,
    phis: Vec<NodeId>,
}

impl HeadPhis {
    /// Collects the live phis of every block head of `cfg`.
    pub fn new(graph: &Graph, cfg: &Cfg) -> HeadPhis {
        let head = |phi: NodeId| -> Option<usize> {
            let NodeKind::Phi { merge } = *graph.kind(phi) else {
                return None;
            };
            let b = cfg.try_block_of(merge)?;
            (cfg.block(b).first() == merge).then_some(b.index())
        };
        // One pass over the graph, into room for every node so the list
        // never grows; then the few phis are sorted by block.
        let mut phis = Vec::with_capacity(graph.len());
        phis.extend(graph.live_nodes().filter(|&n| head(n).is_some()));
        phis.sort_unstable_by_key(|&phi| (head(phi), phi));
        let mut start = vec![0u32; cfg.num_blocks() + 1];
        for &phi in &phis {
            start[head(phi).expect("a head phi") + 1] += 1;
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        HeadPhis { start, phis }
    }

    /// The phis of block `b`'s head, in id order (empty unless it is a
    /// `Merge` or `LoopBegin`).
    pub fn of(&self, b: BlockId) -> &[NodeId] {
        &self.phis[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }
}

/// SSA liveness at every block entry, one row of `words` bits per block.
#[derive(Clone, Debug)]
pub struct Liveness {
    words: usize,
    /// The live-in rows, then the blocks' gen rows, then their kill rows.
    table: Vec<u64>,
}

impl Liveness {
    /// Whether `node` may still be consumed at or after the entry of `b`.
    /// Nodes created after the analysis was sized report `true`
    /// (conservatively live).
    pub fn is_live(&self, b: BlockId, node: NodeId) -> bool {
        let i = node.index();
        if i / 64 >= self.words {
            return true;
        }
        (self.table[b.index() * self.words + i / 64] >> (i % 64)) & 1 == 1
    }
}

/// Computes SSA liveness per block entry: the set of already-defined
/// nodes that may still be consumed at or after the block's entry (data
/// inputs of fixed nodes, frame-state slots including outer chains, and
/// phi inputs of successor merges).
///
/// Each block's transfer is summarized once as `in = gen ∪ (out − kill)`.
/// `kill` holds the block's own nodes and head phis: a definition kills
/// (this is what makes loop back edges precise — a fresh allocation in
/// the *next* iteration re-defines its node, so the previous iteration's
/// value is not considered live across the back edge). `gen` holds the
/// uses not defined earlier in the block, plus the inputs the successor
/// merges' phis take from this block. The fixpoint then only ORs words.
pub fn live_at_entry(graph: &Graph, cfg: &Cfg, phis: &HeadPhis) -> Liveness {
    let words = graph.len().div_ceil(64);
    let rows = cfg.num_blocks() * words;
    let mut table = vec![0u64; 3 * rows];
    let (live_in, summaries) = table.split_at_mut(rows);
    let (gen, kill) = summaries.split_at_mut(rows);
    let row = |b: BlockId| b.index() * words..(b.index() + 1) * words;
    for block in cfg.blocks() {
        let (g, k) = (&mut gen[row(block.id)], &mut kill[row(block.id)]);
        let mut walked = None;
        // The block's transfer applied to an empty live-out set.
        for &node in block.nodes.iter().rev() {
            remove(g, node);
            insert(k, node);
            for &input in graph.node(node).inputs() {
                insert(g, input);
            }
            if let Some(fs) = graph.node(node).state_after {
                add_frame_state_refs(graph, fs, &mut walked, g);
            }
        }
        for &phi in phis.of(block.id) {
            remove(g, phi);
            insert(k, phi);
        }
    }
    // Phi inputs are uses at the corresponding predecessor's end, where
    // they are live unless the predecessor defines them.
    for block in cfg.blocks() {
        for &phi in phis.of(block.id) {
            let inputs = graph.node(phi).inputs();
            for (k, &pred) in block.preds.iter().enumerate() {
                if let Some(&input) = inputs.get(k) {
                    let i = input.index();
                    if (kill[row(pred)][i / 64] >> (i % 64)) & 1 == 0 {
                        insert(&mut gen[row(pred)], input);
                    }
                }
            }
        }
    }

    // Without loops, one pass in postorder sees every successor final.
    let acyclic = cfg.blocks().all(|b| b.loop_depth == 0);
    loop {
        let mut changed = false;
        for &b in cfg.rpo.iter().rev() {
            let at = b.index() * words;
            for w in 0..words {
                let mut out = 0u64;
                for &s in cfg.block(b).succs {
                    out |= live_in[s.index() * words + w];
                }
                let new = gen[at + w] | (out & !kill[at + w]);
                let old = live_in[at + w];
                if new | old != old {
                    live_in[at + w] = new | old;
                    changed = true;
                }
            }
        }
        if acyclic || !changed {
            break;
        }
    }
    Liveness { words, table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::FieldId;
    use pea_ir::NodeKind;

    #[test]
    fn liveness_flows_backwards() {
        // B0: start, new, if -> B1 (uses new) | B2 (does not)
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let new = g.add(
            NodeKind::New {
                class: pea_bytecode::ClassId(0),
            },
            &[],
        );
        g.set_next(g.start, new);
        let iff = g.add(NodeKind::If, &[p]);
        g.set_next(new, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let load = g.add(NodeKind::LoadField { field: FieldId(0) }, &[new]);
        g.set_next(t, load);
        let r1 = g.add(NodeKind::Return, &[load]);
        g.set_next(load, r1);
        let r2 = g.add(NodeKind::Return, &[p]);
        g.set_next(f, r2);

        let cfg = pea_ir::cfg::Cfg::build(&g);
        let live = live_at_entry(&g, &cfg, &HeadPhis::new(&g, &cfg));
        let tb = cfg.block_of(t);
        let fb = cfg.block_of(f);
        assert!(live.is_live(tb, new), "true branch uses the object");
        assert!(!live.is_live(fb, new), "false branch does not");
        // The definition kills upwards: the object is not live-in at its
        // own defining block.
        assert!(!live.is_live(cfg.entry(), new));
        // The parameter flows into both return paths' predecessors.
        assert!(live.is_live(fb, p));
        // Nodes created after sizing are conservatively live.
        assert!(live.is_live(fb, NodeId(g.len() as u32 + 64)));
    }

    #[test]
    fn phi_inputs_are_live_at_their_predecessor_only() {
        // if (p) { a = p + p } ; merge: phi(a, p), phi(p, p); return phi
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let iff = g.add(NodeKind::If, &[p]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let a = g.add(
            NodeKind::FixedArith {
                op: pea_ir::ArithOp::Add,
            },
            &[p, p],
        );
        g.set_next(t, a);
        let te = g.add(NodeKind::End, &[]);
        g.set_next(a, te);
        let fe = g.add(NodeKind::End, &[]);
        g.set_next(f, fe);
        let merge = g.add_merge(NodeKind::Merge, &[te, fe]);
        let phi = g.add(NodeKind::Phi { merge }, &[a, p]);
        let other = g.add(NodeKind::Phi { merge }, &[p, p]);
        let ret = g.add(NodeKind::Return, &[phi]);
        g.set_next(merge, ret);

        let cfg = pea_ir::cfg::Cfg::build(&g);
        let phis = HeadPhis::new(&g, &cfg);
        let (tb, fb, mb) = (cfg.block_of(t), cfg.block_of(f), cfg.block_of(merge));
        assert_eq!(phis.of(mb), &[phi, other]);
        assert!(phis.of(tb).is_empty() && phis.of(cfg.entry()).is_empty());
        let live = live_at_entry(&g, &cfg, &phis);
        // `p` flows into the phis from the false arm: live at its entry.
        assert!(live.is_live(fb, p));
        // `a` is defined in the true arm, so not live at its entry; the
        // phis are defined at the merge, so not live at its entry either.
        assert!(!live.is_live(tb, a));
        assert!(!live.is_live(mb, phi) && !live.is_live(mb, p));
    }

    /// The textbook form: each block's nodes transferred in reverse on
    /// every round, every frame-state chain walked in full.
    fn reference(g: &Graph, cfg: &Cfg, phis: &HeadPhis) -> Vec<Vec<bool>> {
        let n = g.len();
        let mut live_in = vec![vec![false; n]; cfg.num_blocks()];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().rev() {
                let mut live = vec![false; n];
                for &s in cfg.block(b).succs {
                    for (l, &x) in live.iter_mut().zip(&live_in[s.index()]) {
                        *l |= x;
                    }
                    let k = cfg.block(s).preds.iter().position(|&p| p == b).unwrap();
                    for &phi in phis.of(s) {
                        live[g.node(phi).inputs()[k].index()] = true;
                    }
                }
                for &node in cfg.block(b).nodes.iter().rev() {
                    live[node.index()] = false;
                    for &input in g.node(node).inputs() {
                        live[input.index()] = true;
                    }
                    let mut fs = g.node(node).state_after;
                    while let Some(state) = fs {
                        let data = g.frame_state_data(state);
                        let inputs = g.node(state).inputs();
                        for i in data
                            .locals_range()
                            .chain(data.stack_range())
                            .chain(data.locks_range())
                        {
                            live[inputs[i].index()] = true;
                        }
                        fs = data.outer_index().map(|o| inputs[o]);
                    }
                }
                for &phi in phis.of(b) {
                    live[phi.index()] = false;
                }
                for (old, new) in live_in[b.index()].iter_mut().zip(live) {
                    changed |= new && !*old;
                    *old |= new;
                }
            }
        }
        live_in
    }

    #[test]
    fn summaries_match_the_reference_on_the_fixtures() {
        use crate::fixtures::*;
        let (_, p) = key_program();
        for g in [
            listing5_graph(&p).0,
            fig7_loop_graph(&p).0,
            listing8_graph(&p).0,
            diamond_chain(&p, 3, true),
        ] {
            let cfg = pea_ir::cfg::Cfg::build(&g);
            let phis = HeadPhis::new(&g, &cfg);
            let live = live_at_entry(&g, &cfg, &phis);
            for (b, row) in reference(&g, &cfg, &phis).iter().enumerate() {
                for (i, &expected) in row.iter().enumerate() {
                    let (b, i) = (BlockId::from_index(b), NodeId::from_index(i));
                    assert_eq!(live.is_live(b, i), expected, "{i} at {b}");
                }
            }
        }
    }
}
