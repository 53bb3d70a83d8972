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

/// One basic block: a maximal chain of fixed nodes. A view into the
/// [`Cfg`]'s flat tables.
#[derive(Clone, Copy, Debug)]
pub struct Block<'a> {
    /// Block id (position in [`Cfg::blocks`]).
    pub id: BlockId,
    /// The fixed nodes, first (block start) to last (block end).
    pub nodes: &'a [NodeId],
    /// Successor blocks in branch order (If: `[true, false]`).
    pub succs: &'a [BlockId],
    /// Predecessor blocks. For merge blocks the order matches the merge's
    /// ends (and therefore phi-input order).
    pub preds: &'a [BlockId],
    /// Nesting depth (0 = not in any loop).
    pub loop_depth: u32,
    /// Innermost loop header block containing this block, if any.
    pub loop_header: Option<BlockId>,
}

impl Block<'_> {
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

/// Where one block's lists start in the [`Cfg`]'s flat arrays (each
/// ends where the next block's starts), and its loop data.
#[derive(Clone, Copy, Debug)]
struct BlockInfo {
    nodes: u32,
    succs: u32,
    preds: u32,
    loop_depth: u32,
    loop_header: u32,
}

/// The control-flow graph: blocks, reverse postorder, loop forest.
///
/// Blocks are stored flat: every block's nodes in one array, block after
/// block, and likewise every block's successors and predecessors, with
/// one row per block holding the offsets. Building a CFG
/// allocates a fixed number of tables, none per block.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// One row per block, plus a sentinel row closing the last block's
    /// ranges.
    info: Vec<BlockInfo>,
    nodes: Vec<NodeId>,
    succs: Vec<BlockId>,
    preds: Vec<BlockId>,
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
        // The same walk counts the live block starts and fixed nodes,
        // which bound the tables below: none of them grows.
        let mut merge_of_end = vec![NONE; graph.len()];
        let (mut starts, mut fixed) = (0, 0);
        for n in graph.live_nodes() {
            let kind = graph.kind(n);
            starts += usize::from(kind.is_block_start());
            fixed += usize::from(kind.is_fixed());
            if let NodeKind::Merge | NodeKind::LoopBegin = kind {
                for &e in graph.merge_ends(n) {
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
        //    chains, block after block, into `nodes`. Every chain member
        //    records its block in `block_of_node`.
        let mut block_of_node = vec![NONE; graph.len()];
        let mut info: Vec<BlockInfo> = Vec::with_capacity(starts + 1);
        let mut nodes: Vec<NodeId> = Vec::with_capacity(fixed);
        // Each block pushes at most two successor heads.
        let mut work = Vec::with_capacity(2 * starts + 1);
        work.push(graph.start);
        while let Some(head) = work.pop() {
            if block_of_node[head.index()] != NONE {
                continue;
            }
            debug_assert!(
                graph.kind(head).is_block_start(),
                "chain head {head} is not a block start: {:?}",
                graph.kind(head)
            );
            let b = info.len() as u32;
            info.push(BlockInfo {
                nodes: nodes.len() as u32,
                succs: 0,
                preds: 0,
                loop_depth: 0,
                loop_header: NONE,
            });
            // A `Begin` reached by fall-through is a chain member: our
            // builder makes every `Begin` a branch target with exactly one
            // control predecessor, and merges are only entered through
            // `End` nodes.
            let mut cur = head;
            nodes.push(cur);
            block_of_node[cur.index()] = b;
            while let Some(next) = graph.next(cur) {
                cur = next;
                nodes.push(cur);
                block_of_node[cur.index()] = b;
            }
            // Discover successor heads from the chain terminator.
            match graph.kind(cur) {
                NodeKind::If => work.extend_from_slice(graph.successors(cur)),
                NodeKind::End | NodeKind::LoopEnd => {
                    if let Some(merge) = merge_of(cur) {
                        work.push(merge);
                    }
                }
                NodeKind::Return | NodeKind::Throw | NodeKind::Unwind | NodeKind::Deopt { .. } => {}
                _ => {
                    // The chain is dangling.
                    panic!(
                        "block chain at {cur} ends in non-terminator {:?}",
                        graph.kind(cur)
                    );
                }
            }
        }
        let n = info.len();
        info.push(BlockInfo {
            nodes: nodes.len() as u32,
            succs: 0,
            preds: 0,
            loop_depth: 0,
            loop_header: NONE,
        });

        let block_of_chain_member = |node: NodeId| -> BlockId {
            let b = block_of_node[node.index()];
            assert!(
                b != NONE,
                "fixed node without predecessor outside any chain"
            );
            BlockId(b)
        };

        // 2. Wire successor/predecessor edges. Merge preds follow the
        //    order of the merge's ends.
        let mut succs: Vec<BlockId> = Vec::with_capacity(2 * n);
        let mut preds: Vec<BlockId> = Vec::with_capacity(2 * n);
        for b in 0..n {
            let range = info[b].nodes as usize..info[b + 1].nodes as usize;
            let (head, last) = (nodes[range.start], nodes[range.end - 1]);
            info[b].succs = succs.len() as u32;
            match graph.kind(last) {
                NodeKind::If => succs.extend(
                    graph
                        .successors(last)
                        .iter()
                        .map(|&s| BlockId(block_of_node[s.index()])),
                ),
                NodeKind::End | NodeKind::LoopEnd => {
                    if let Some(m) = merge_of(last) {
                        succs.push(BlockId(block_of_node[m.index()]));
                    }
                }
                _ => {}
            }
            info[b].preds = preds.len() as u32;
            match graph.kind(head) {
                NodeKind::Merge | NodeKind::LoopBegin => preds.extend(
                    graph
                        .merge_ends(head)
                        .iter()
                        .map(|&e| block_of_chain_member(e)),
                ),
                _ => {
                    if let Some(p) = graph.node(head).control_pred() {
                        preds.push(block_of_chain_member(p));
                    }
                }
            }
        }
        info[n].succs = succs.len() as u32;
        info[n].preds = preds.len() as u32;

        let mut cfg = Cfg {
            info,
            nodes,
            succs,
            preds,
            rpo: Vec::with_capacity(n),
            block_of_node,
            rpo_pos: vec![NONE; n],
        };

        // 3. Reverse postorder ignoring back edges (edges into LoopBegin
        //    blocks from LoopEnd terminators). `state`: 0 unvisited, 1 on
        //    the stack, 2 done; the same table later stamps loop members.
        let mut state = vec![0u32; n];
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        stack.push((0, 0));
        state[0] = 1;
        while let Some((b, child)) = stack.last_mut() {
            let bi = *b;
            let succs = cfg.block(BlockId::from_index(bi)).succs;
            // Skip back edges: an edge is a back edge iff the source block
            // terminator is a LoopEnd.
            let is_back_src = matches!(graph.kind(cfg.last(bi)), NodeKind::LoopEnd);
            if *child < succs.len() && !is_back_src {
                let s = succs[*child].index();
                *child += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[bi] = 2;
                cfg.rpo.push(BlockId::from_index(bi));
                stack.pop();
            }
        }
        cfg.rpo.reverse();
        for (i, &b) in cfg.rpo.iter().enumerate() {
            cfg.rpo_pos[b.index()] = i as u32;
        }

        // 4. Loop membership: for each LoopBegin block, walk predecessors
        //    backwards from its back-edge sources until the header. Loops
        //    are processed outermost-first (headers earlier in RPO are
        //    outer; unreachable ones last, in block order), so the
        //    innermost header is the last one written.
        state.fill(NONE);
        let mut wl: Vec<BlockId> = Vec::with_capacity(cfg.preds.len());
        let reachable = cfg.rpo.len();
        for k in 0..reachable {
            let header = cfg.rpo[k].index();
            cfg.mark_loop(graph, header, &mut state, &mut wl);
        }
        for header in 0..n {
            if cfg.rpo_pos[header] == NONE {
                cfg.mark_loop(graph, header, &mut state, &mut wl);
            }
        }
        cfg
    }

    /// If block `header` starts with a `LoopBegin`, counts every block of
    /// its loop as a member: the header, then predecessors walked
    /// backwards from its back-edge sources until the header. `state`
    /// stamps the members, `wl` is the shared work list.
    fn mark_loop(
        &mut self,
        graph: &Graph,
        header: usize,
        state: &mut [u32],
        wl: &mut Vec<BlockId>,
    ) {
        let first = self.nodes[self.info[header].nodes as usize];
        if !matches!(graph.kind(first), NodeKind::LoopBegin) {
            return;
        }
        let stamp = header as u32;
        state[header] = stamp;
        self.enter_loop(header, header);
        let preds = self.info[header].preds as usize..self.info[header + 1].preds as usize;
        for k in preds {
            let p = self.preds[k];
            if matches!(graph.kind(self.last(p.index())), NodeKind::LoopEnd) {
                wl.push(p);
            }
        }
        while let Some(m) = wl.pop() {
            let m = m.index();
            if state[m] == stamp {
                continue;
            }
            state[m] = stamp;
            self.enter_loop(m, header);
            let range = self.info[m].preds as usize..self.info[m + 1].preds as usize;
            wl.extend_from_slice(&self.preds[range]);
        }
    }

    /// Counts block `b` as a member of the loop headed by `header`.
    fn enter_loop(&mut self, b: usize, header: usize) {
        self.info[b].loop_depth += 1;
        self.info[b].loop_header = header as u32;
    }

    /// The last node of block `b`.
    fn last(&self, b: usize) -> NodeId {
        self.nodes[self.info[b + 1].nodes as usize - 1]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.info.len() - 1
    }

    /// Every block's fixed nodes, block after block.
    pub fn fixed_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// All blocks in id order; block 0 is the entry.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block<'_>> + '_ {
        (0..self.num_blocks()).map(|b| self.block(BlockId::from_index(b)))
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
    pub fn block(&self, id: BlockId) -> Block<'_> {
        let (i, next) = (&self.info[id.index()], &self.info[id.index() + 1]);
        Block {
            id,
            nodes: &self.nodes[i.nodes as usize..next.nodes as usize],
            succs: &self.succs[i.succs as usize..next.succs as usize],
            preds: &self.preds[i.preds as usize..next.preds as usize],
            loop_depth: i.loop_depth,
            loop_header: (i.loop_header != NONE).then_some(BlockId(i.loop_header)),
        }
    }

    /// Loop nesting depth of a block ([`Block::loop_depth`]).
    #[inline]
    pub fn loop_depth(&self, b: BlockId) -> u32 {
        self.info[b.index()].loop_depth
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
        (g, merge, phi)
    }

    /// start -> loopbegin -> if (phi < p0) { body: phi' = phi+1; loopend }
    /// else { exit -> return phi }
    fn simple_loop() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let entry_end = g.add(NodeKind::End, &[]);
        g.set_next(g.start, entry_end);
        let lb = g.add_merge(NodeKind::LoopBegin, &[entry_end]);
        let zero = g.const_int(0);
        let phi = g.add(NodeKind::Phi { merge: lb }, &[zero]);
        let cmp = g.add(
            NodeKind::Compare {
                op: pea_bytecode::CmpOp::Lt,
            },
            &[phi, p],
        );
        let iff = g.add(NodeKind::If, &[cmp]);
        g.set_next(lb, iff);
        let body = g.add(NodeKind::Begin, &[]);
        let exit = g.add(NodeKind::LoopExit { loop_begin: lb }, &[]);
        g.set_if_targets(iff, body, exit);
        let one = g.const_int(1);
        let inc = g.add(NodeKind::Arith { op: ArithOp::Add }, &[phi, one]);
        let le = g.add(NodeKind::LoopEnd, &[]);
        g.set_next(body, le);
        g.add_merge_end(lb, le);
        g.push_input(phi, inc);
        let ret = g.add(NodeKind::Return, &[phi]);
        g.set_next(exit, ret);
        (g, lb)
    }

    #[test]
    fn unwind_terminates_a_block() {
        // start -> if (p0) { unwind p1 } else { return p0 }: the Unwind
        // sink must close its block exactly like Return/Throw — an
        // escaping athrow is an ordinary control exit of the method.
        let mut g = Graph::new();
        let p0 = g.add(NodeKind::Param { index: 0 }, &[]);
        let p1 = g.add(NodeKind::Param { index: 1 }, &[]);
        let iff = g.add(NodeKind::If, &[p0]);
        g.set_next(g.start, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let unwind = g.add(NodeKind::Unwind, &[p1]);
        g.set_next(t, unwind);
        let ret = g.add(NodeKind::Return, &[p0]);
        g.set_next(f, ret);
        let cfg = Cfg::build(&g);
        assert_eq!(cfg.num_blocks(), 3);
        let ub = cfg.block_of(unwind);
        assert_eq!(cfg.block(ub).last(), unwind);
        assert!(cfg.block(ub).succs.is_empty());
    }

    #[test]
    fn diamond_has_four_blocks() {
        let (g, merge, _) = diamond();
        let cfg = Cfg::build(&g);
        assert_eq!(cfg.num_blocks(), 4);
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
        let body_depth: Vec<u32> = cfg.blocks().map(|b| b.loop_depth).collect();
        assert!(body_depth.contains(&1));
        assert!(body_depth.contains(&0));
        // The header and the body are the loop's members; the entry and
        // the exit are not.
        let members: Vec<BlockId> = cfg
            .blocks()
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
        for m in cfg.blocks().filter(|b| b.loop_header == Some(header)) {
            if m.id != header {
                assert!(cfg.rpo_position(m.id) > header_pos);
            }
        }
    }
}
