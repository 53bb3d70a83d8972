//! Dominator tree construction (Cooper–Harvey–Kennedy iterative
//! algorithm over reverse postorder).

use crate::cfg::{BlockId, Cfg};

/// Immediate-dominator tree over a [`Cfg`].
#[derive(Clone, Debug)]
pub struct DomTree {
    idom: Vec<Option<BlockId>>,
    depth: Vec<u32>,
}

impl DomTree {
    /// Computes dominators for all blocks reachable in `cfg`.
    pub fn build(cfg: &Cfg) -> DomTree {
        let n = cfg.num_blocks();
        let rpo = &cfg.rpo;
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let entry = cfg.entry();
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let preds = cfg.block(b).preds;
                let mut new_idom: Option<BlockId> = None;
                for &p in preds {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Depths.
        let mut depth = vec![0u32; n];
        for &b in rpo.iter().skip(1) {
            let i = idom[b.index()].expect("reachable block without idom");
            depth[b.index()] = depth[i.index()] + 1;
        }
        DomTree { idom, depth }
    }

    /// Immediate dominator of `b` (the entry dominates itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Depth of `b` in the dominator tree (entry = 0).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(i) if i != cur => cur = i,
                _ => return false,
            }
        }
    }

    /// Deepest common dominator of two blocks.
    pub fn common_dominator(&self, mut a: BlockId, mut b: BlockId) -> BlockId {
        while a != b {
            while self.depth(a) > self.depth(b) {
                a = self.idom(a).expect("no idom");
            }
            while self.depth(b) > self.depth(a) {
                b = self.idom(b).expect("no idom");
            }
            if a != b {
                a = self.idom(a).expect("no idom");
                b = self.idom(b).expect("no idom");
            }
        }
        a
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_pos: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_pos[a.index()] > rpo_pos[b.index()] {
            a = idom[a.index()].expect("intersect: missing idom");
        }
        while rpo_pos[b.index()] > rpo_pos[a.index()] {
            b = idom[b.index()].expect("intersect: missing idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, NodeKind};

    fn diamond_cfg() -> (Cfg, BlockId, BlockId, BlockId, BlockId) {
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
        let ret = g.add(NodeKind::Return, &[]);
        g.set_next(merge, ret);
        let cfg = Cfg::build(&g);
        let entry = cfg.entry();
        let tb = cfg.block_of(t);
        let fb = cfg.block_of(f);
        let mb = cfg.block_of(merge);
        (cfg, entry, tb, fb, mb)
    }

    #[test]
    fn diamond_dominators() {
        let (cfg, entry, tb, fb, mb) = diamond_cfg();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom(tb), Some(entry));
        assert_eq!(dom.idom(fb), Some(entry));
        assert_eq!(dom.idom(mb), Some(entry));
        assert!(dom.dominates(entry, mb));
        assert!(!dom.dominates(tb, mb));
        assert!(dom.dominates(mb, mb));
    }

    #[test]
    fn common_dominator_of_branches_is_entry() {
        let (cfg, entry, tb, fb, _) = diamond_cfg();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.common_dominator(tb, fb), entry);
        assert_eq!(dom.common_dominator(tb, tb), tb);
    }

    #[test]
    fn depths_increase_from_entry() {
        let (cfg, entry, tb, ..) = diamond_cfg();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.depth(entry), 0);
        assert_eq!(dom.depth(tb), 1);
    }
}
