//! Basic-block discovery over the fixed-node chains, with reverse
//! postorder and loop metadata.

use crate::{Graph, NodeId, NodeKind};

/// Index of a block within a [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// From raw index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        BlockId(u32::try_from(i).expect("block index exceeds u32"))
    }
}

impl std::fmt::Debug for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// One basic block: a maximal chain of fixed nodes.
#[derive(Clone, Debug)]
pub struct Block {
    /// Block id (position in [`Cfg::blocks`]).
    pub id: BlockId,
    /// The fixed nodes, first (block start) to last (block end).
    pub nodes: Vec<NodeId>,
    /// Successor blocks in branch order (If: `[true, false]`).
    pub succs: Vec<BlockId>,
    /// Predecessor blocks. For merge blocks the order matches the merge's
    /// `ends` list (and therefore phi-input order).
    pub preds: Vec<BlockId>,
    /// Nesting depth (0 = not in any loop).
    pub loop_depth: u32,
    /// Innermost loop header block containing this block, if any.
    pub loop_header: Option<BlockId>,
}

impl Block {
    /// First node (the block start).
    pub fn first(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node (the block end / terminator).
    pub fn last(&self) -> NodeId {
        *self.nodes.last().expect("empty block")
    }
}

/// Marks "no block" / "not in RPO" in the dense tables below.
const NONE: u32 = u32::MAX;

/// The control-flow graph: blocks, reverse postorder, loop forest.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// All blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Blocks in reverse postorder (loop headers precede their bodies).
    pub rpo: Vec<BlockId>,
    /// Block of each fixed node, indexed by [`NodeId`]; [`NONE`] for
    /// floating, metadata and unreachable nodes.
    block_of_node: Vec<u32>,
    /// Position of each block in [`Cfg::rpo`], indexed by [`BlockId`].
    rpo_pos: Vec<u32>,
}

impl Cfg {
    /// Builds the CFG of `graph`.
    ///
    /// # Panics
    ///
    /// Panics on malformed control flow (dangling chains, a non-start node
    /// without a block-start kind at a chain head). Run
    /// [`crate::verify::verify`] for a diagnosable error instead.
    pub fn build(graph: &Graph) -> Cfg {
        // The merge-like node owning each `End`/`LoopEnd` (the edge is
        // implicit: merges list their ends, not vice versa). The first
        // live merge listing an end owns it.
        let mut merge_of_end = vec![NONE; graph.len()];
        for n in graph.live_nodes() {
            if let NodeKind::Merge { ends } | NodeKind::LoopBegin { ends } = graph.kind(n) {
                for &e in ends {
                    if merge_of_end[e.index()] == NONE {
                        merge_of_end[e.index()] = n.0;
                    }
                }
            }
        }
        let merge_of = |end: NodeId| -> Option<NodeId> {
            let m = merge_of_end[end.index()];
            (m != NONE).then_some(NodeId(m))
        };

        // 1. Find block-start nodes reachable from start and collect their
        //    chains. `head_block` maps each chain head to its block.
        let mut head_block = vec![NONE; graph.len()];
        let mut work = vec![graph.start];
        let mut chains: Vec<Vec<NodeId>> = Vec::new();
        while let Some(head) = work.pop() {
            if head_block[head.index()] != NONE {
                continue;
            }
            debug_assert!(
                graph.kind(head).is_block_start(),
                "chain head {head} is not a block start: {:?}",
                graph.kind(head)
            );
            head_block[head.index()] = chains.len() as u32;
            // A `Begin` reached by fall-through is a chain member: our
            // builder makes every `Begin` a branch target with exactly one
            // control predecessor, and merges are only entered through
            // `End` nodes.
            let mut chain = vec![head];
            let mut cur = head;
            while let Some(next) = graph.next(cur) {
                chain.push(next);
                cur = next;
                if graph.node(cur).successors().len() != 1 {
                    break;
                }
                if matches!(graph.kind(cur), NodeKind::End | NodeKind::LoopEnd) {
                    break;
                }
            }
            // Discover successor heads from the chain terminator.
            let last = *chain.last().unwrap();
            match graph.kind(last) {
                NodeKind::If => {
                    for &succ in graph.node(last).successors() {
                        work.push(succ);
                    }
                }
                NodeKind::End | NodeKind::LoopEnd => {
                    if let Some(merge) = merge_of(last) {
                        work.push(merge);
                    }
                }
                NodeKind::Return | NodeKind::Throw | NodeKind::Unwind | NodeKind::Deopt { .. } => {}
                _ => {
                    // The chain is dangling.
                    panic!(
                        "block chain at {last} ends in non-terminator {:?}",
                        graph.kind(last)
                    );
                }
            }
            chains.push(chain);
        }

        let block_of_head = |n: NodeId| -> BlockId { BlockId(head_block[n.index()]) };
        let chain_head_of = |mut node: NodeId| -> NodeId {
            while head_block[node.index()] == NONE {
                node = graph
                    .node(node)
                    .control_pred()
                    .expect("fixed node without predecessor outside any chain");
            }
            node
        };

        // 2. Wire successor/predecessor edges. Merge preds follow the
        //    order of the merge's ends.
        let mut blocks: Vec<Block> = chains
            .into_iter()
            .enumerate()
            .map(|(i, nodes)| {
                let head = nodes[0];
                let last = *nodes.last().unwrap();
                let succs: Vec<BlockId> = match graph.kind(last) {
                    NodeKind::If => graph
                        .node(last)
                        .successors()
                        .iter()
                        .map(|&s| block_of_head(s))
                        .collect(),
                    NodeKind::End | NodeKind::LoopEnd => {
                        merge_of(last).map(block_of_head).into_iter().collect()
                    }
                    _ => vec![],
                };
                let preds: Vec<BlockId> = match graph.kind(head) {
                    NodeKind::Merge { ends } | NodeKind::LoopBegin { ends } => ends
                        .iter()
                        .map(|&e| block_of_head(chain_head_of(e)))
                        .collect(),
                    _ => match graph.node(head).control_pred() {
                        Some(p) => vec![block_of_head(chain_head_of(p))],
                        None => vec![],
                    },
                };
                Block {
                    id: BlockId::from_index(i),
                    nodes,
                    succs,
                    preds,
                    loop_depth: 0,
                    loop_header: None,
                }
            })
            .collect();

        // 3. Reverse postorder ignoring back edges (edges into LoopBegin
        //    blocks from LoopEnd terminators).
        let n = blocks.len();
        let mut rpo_rev: Vec<BlockId> = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 in stack, 2 done
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = 1;
        while let Some((b, child)) = stack.last_mut() {
            let bi = *b;
            let succs = &blocks[bi].succs;
            // Skip back edges: an edge is a back edge iff the source block
            // terminator is a LoopEnd.
            let is_back_src = matches!(graph.kind(blocks[bi].last()), NodeKind::LoopEnd);
            if *child < succs.len() && !is_back_src {
                let s = succs[*child].index();
                *child += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[bi] = 2;
                rpo_rev.push(BlockId::from_index(bi));
                stack.pop();
            }
        }
        rpo_rev.reverse();
        let rpo = rpo_rev;
        let mut rpo_pos = vec![NONE; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i as u32;
        }

        // 4. Loop membership: for each LoopBegin block, walk predecessors
        //    backwards from its back-edge sources until the header.
        let mut loops: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for b in 0..n {
            if matches!(graph.kind(blocks[b].first()), NodeKind::LoopBegin { .. }) {
                let header = BlockId::from_index(b);
                let mut members = vec![header];
                let mut wl: Vec<BlockId> = blocks[b]
                    .preds
                    .iter()
                    .copied()
                    .filter(|p| matches!(graph.kind(blocks[p.index()].last()), NodeKind::LoopEnd))
                    .collect();
                while let Some(m) = wl.pop() {
                    if members.contains(&m) {
                        continue;
                    }
                    members.push(m);
                    wl.extend(blocks[m.index()].preds.iter().copied());
                }
                loops.push((header, members));
            }
        }
        // Assign depth/innermost header: process loops outermost-first
        // (headers earlier in RPO are outer).
        loops.sort_by_key(|(h, _)| rpo_pos[h.index()]);
        for (header, members) in &loops {
            for &m in members {
                blocks[m.index()].loop_depth += 1;
                blocks[m.index()].loop_header = Some(*header);
            }
        }

        let mut block_of_node = vec![NONE; graph.len()];
        for b in &blocks {
            for &node in &b.nodes {
                block_of_node[node.index()] = b.id.0;
            }
        }

        Cfg {
            blocks,
            rpo,
            block_of_node,
            rpo_pos,
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Block containing a fixed node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a fixed node of this CFG.
    #[inline]
    pub fn block_of(&self, node: NodeId) -> BlockId {
        self.try_block_of(node).expect("node is not in the CFG")
    }

    /// Block containing a fixed node, if it belongs to this CFG.
    #[inline]
    pub fn try_block_of(&self, node: NodeId) -> Option<BlockId> {
        match self.block_of_node.get(node.index()) {
            Some(&b) if b != NONE => Some(BlockId(b)),
            _ => None,
        }
    }

    /// Block accessor.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Position of a block in RPO.
    ///
    /// # Panics
    ///
    /// Panics if the block is unreachable (not in RPO).
    #[inline]
    pub fn rpo_position(&self, b: BlockId) -> usize {
        let pos = self.rpo_pos[b.index()];
        assert!(pos != NONE, "block not in RPO");
        pos as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArithOp, NodeKind};

    /// Builds: start -> if (p0) { a } else { b } -> merge -> return phi
    fn diamond() -> (Graph, NodeId, NodeId) {
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
        let ret = g.add(NodeKind::Return, vec![phi]);
        g.set_next(merge, ret);
        (g, merge, phi)
    }

    /// start -> loopbegin -> if (phi < p0) { body: phi' = phi+1; loopend }
    /// else { exit -> return phi }
    fn simple_loop() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, vec![]);
        let entry_end = g.add(NodeKind::End, vec![]);
        g.set_next(g.start, entry_end);
        let lb = g.add(
            NodeKind::LoopBegin {
                ends: vec![entry_end],
            },
            vec![],
        );
        let zero = g.const_int(0);
        let phi = g.add(NodeKind::Phi { merge: lb }, vec![zero]);
        let cmp = g.add(
            NodeKind::Compare {
                op: pea_bytecode::CmpOp::Lt,
            },
            vec![phi, p],
        );
        let iff = g.add(NodeKind::If, vec![cmp]);
        g.set_next(lb, iff);
        let body = g.add(NodeKind::Begin, vec![]);
        let exit = g.add(NodeKind::LoopExit { loop_begin: lb }, vec![]);
        g.set_if_targets(iff, body, exit);
        let one = g.const_int(1);
        let inc = g.add(NodeKind::Arith { op: ArithOp::Add }, vec![phi, one]);
        let le = g.add(NodeKind::LoopEnd, vec![]);
        g.set_next(body, le);
        g.add_merge_end(lb, le);
        g.push_input(phi, inc);
        let ret = g.add(NodeKind::Return, vec![phi]);
        g.set_next(exit, ret);
        (g, lb)
    }

    #[test]
    fn unwind_terminates_a_block() {
        // start -> if (p0) { unwind p1 } else { return p0 }: the Unwind
        // sink must close its block exactly like Return/Throw — an
        // escaping athrow is an ordinary control exit of the method.
        let mut g = Graph::new();
        let p0 = g.add(NodeKind::Param { index: 0 }, vec![]);
        let p1 = g.add(NodeKind::Param { index: 1 }, vec![]);
        let iff = g.add(NodeKind::If, vec![p0]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, vec![]);
        let f = g.add(NodeKind::Begin, vec![]);
        g.set_if_targets(iff, t, f);
        let unwind = g.add(NodeKind::Unwind, vec![p1]);
        g.set_next(t, unwind);
        let ret = g.add(NodeKind::Return, vec![p0]);
        g.set_next(f, ret);
        let cfg = Cfg::build(&g);
        assert_eq!(cfg.blocks.len(), 3);
        let ub = cfg.block_of(unwind);
        assert_eq!(cfg.block(ub).last(), unwind);
        assert!(cfg.block(ub).succs.is_empty());
    }

    #[test]
    fn diamond_has_four_blocks() {
        let (g, merge, _) = diamond();
        let cfg = Cfg::build(&g);
        assert_eq!(cfg.blocks.len(), 4);
        let entry = cfg.block(cfg.entry());
        assert_eq!(entry.succs.len(), 2);
        let mb = cfg.block_of(merge);
        assert_eq!(cfg.block(mb).preds.len(), 2);
        // rpo: entry first, merge last
        assert_eq!(cfg.rpo[0], cfg.entry());
        assert_eq!(*cfg.rpo.last().unwrap(), mb);
    }

    #[test]
    fn merge_preds_follow_ends_order() {
        let (g, merge, _) = diamond();
        let cfg = Cfg::build(&g);
        let mb = cfg.block_of(merge);
        let ends = g.merge_ends(merge).to_vec();
        let pred_blocks: Vec<BlockId> = ends.iter().map(|&e| cfg.block_of(e)).collect();
        assert_eq!(cfg.block(mb).preds, pred_blocks);
    }

    #[test]
    fn loop_blocks_get_depth() {
        let (g, lb) = simple_loop();
        let cfg = Cfg::build(&g);
        let header = cfg.block_of(lb);
        assert_eq!(cfg.block(header).loop_depth, 1);
        // body block has depth 1; exit block depth 0
        let body_depth: Vec<u32> = cfg.blocks.iter().map(|b| b.loop_depth).collect();
        assert!(body_depth.contains(&1));
        assert!(body_depth.contains(&0));
        // The header and the body are the loop's members; the entry and
        // the exit are not.
        let members: Vec<BlockId> = cfg
            .blocks
            .iter()
            .filter(|b| b.loop_header == Some(header))
            .map(|b| b.id)
            .collect();
        assert_eq!(members.len(), 2);
        assert!(members.contains(&header));
        assert_eq!(cfg.block(cfg.entry()).loop_header, None);
    }

    #[test]
    fn rpo_visits_header_before_body() {
        let (g, lb) = simple_loop();
        let cfg = Cfg::build(&g);
        let header = cfg.block_of(lb);
        let header_pos = cfg.rpo_position(header);
        for m in cfg.blocks.iter().filter(|b| b.loop_header == Some(header)) {
            if m.id != header {
                assert!(cfg.rpo_position(m.id) > header_pos);
            }
        }
    }
}
