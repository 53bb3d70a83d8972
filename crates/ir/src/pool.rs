//! One pooled array for every edge list of a graph: node inputs, use
//! lists and merge ends.
//!
//! A list lives in a block of the pool whose capacity is a size class
//! (2, 4, 8, … ids). A full list moves to a block of the next class and
//! its old block goes on that class' free list, which the next list of
//! the class reuses before the pool grows. So a graph makes a handful of
//! host allocations — the pool's own growth — however many nodes it
//! holds, instead of one vector per node and per use list (the scheme of
//! Cranelift's `EntityList`/`ListPool`).
//!
//! Lists keep `Vec` semantics exactly: `push` appends, `swap_remove`
//! moves the last element into the hole. Use-list order is observable
//! (canonicalization and GVN walk use lists), so the pool must not
//! reorder anything.

use crate::NodeId;

/// Number of size classes: class `c` holds `2 << c` ids, so the largest
/// block holds 2^31 ids.
const CLASSES: usize = 31;

/// End of a free list.
const NIL: u32 = u32::MAX;

/// A list stored in an [`EdgePool`]: where its block starts, how many ids
/// it holds and the block's size class. The default (empty) list owns no
/// block; a list emptied by removals keeps its block until cleared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct EdgeList {
    base: u32,
    len: u32,
    /// Size class of the block, meaningful only when the list `owns` one.
    class: u8,
    owns: bool,
}

impl EdgeList {
    /// Number of ids in the list.
    #[inline]
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// The pool: one array holding every block, plus one free list per size
/// class threaded through the first slot of each free block.
#[derive(Clone, Debug)]
pub(crate) struct EdgePool {
    data: Vec<NodeId>,
    free: [u32; CLASSES],
}

impl Default for EdgePool {
    fn default() -> Self {
        EdgePool {
            data: Vec::new(),
            free: [NIL; CLASSES],
        }
    }
}

#[inline]
fn capacity(class: u8) -> usize {
    2usize << class
}

/// Smallest size class holding `len` ids.
#[inline]
fn class_for(len: usize) -> u8 {
    debug_assert!(len > 0);
    let bits = usize::BITS - (len - 1).leading_zeros();
    bits.saturating_sub(1) as u8
}

impl EdgePool {
    /// Ids in the pool's array, free blocks included.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.data.len()
    }

    /// The ids of `list`.
    #[inline]
    pub(crate) fn get(&self, list: EdgeList) -> &[NodeId] {
        let base = list.base as usize;
        &self.data[base..base + list.len as usize]
    }

    /// The ids of `list`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, list: EdgeList) -> &mut [NodeId] {
        let base = list.base as usize;
        &mut self.data[base..base + list.len as usize]
    }

    fn alloc(&mut self, class: u8) -> u32 {
        let head = self.free[class as usize];
        if head != NIL {
            self.free[class as usize] = self.data[head as usize].0;
            return head;
        }
        let base = self.data.len();
        self.data.resize(base + capacity(class), NodeId(NIL));
        u32::try_from(base).expect("edge pool exceeds u32")
    }

    fn release(&mut self, base: u32, class: u8) {
        self.data[base as usize] = NodeId(self.free[class as usize]);
        self.free[class as usize] = base;
    }

    /// A new list holding `ids`.
    pub(crate) fn list(&mut self, ids: &[NodeId]) -> EdgeList {
        if ids.is_empty() {
            return EdgeList::default();
        }
        let class = class_for(ids.len());
        let base = self.alloc(class);
        let at = base as usize;
        self.data[at..at + ids.len()].copy_from_slice(ids);
        EdgeList {
            base,
            len: ids.len() as u32,
            class,
            owns: true,
        }
    }

    /// Appends `id` to `list`, moving it to a larger block when full.
    pub(crate) fn push(&mut self, list: &mut EdgeList, id: NodeId) {
        if !list.owns {
            *list = self.list(&[id]);
            return;
        }
        let len = list.len as usize;
        if len == capacity(list.class) {
            let class = list.class + 1;
            let base = self.alloc(class);
            let (from, to) = (list.base as usize, base as usize);
            self.data.copy_within(from..from + len, to);
            self.release(list.base, list.class);
            list.base = base;
            list.class = class;
        }
        self.data[list.base as usize + len] = id;
        list.len += 1;
    }

    /// Removes the element at `index`, moving the last element into its
    /// place (`Vec::swap_remove`).
    pub(crate) fn swap_remove(&mut self, list: &mut EdgeList, index: usize) -> NodeId {
        let ids = self.get_mut(*list);
        let removed = ids[index];
        let last = ids.len() - 1;
        ids[index] = ids[last];
        list.len -= 1;
        removed
    }

    /// Removes the first occurrence of `id`, if any, by `swap_remove`.
    pub(crate) fn remove_one(&mut self, list: &mut EdgeList, id: NodeId) {
        if let Some(pos) = self.get(*list).iter().position(|&u| u == id) {
            self.swap_remove(list, pos);
        }
    }

    /// Empties `list`, returning its block to the free list of its class.
    pub(crate) fn clear(&mut self, list: &mut EdgeList) {
        if list.owns {
            self.release(list.base, list.class);
        }
        *list = EdgeList::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    #[test]
    fn size_classes_cover_every_length() {
        assert_eq!(class_for(1), 0);
        assert_eq!(class_for(2), 0);
        assert_eq!(class_for(3), 1);
        assert_eq!(class_for(4), 1);
        assert_eq!(class_for(5), 2);
        assert_eq!(class_for(8), 2);
        assert_eq!(class_for(9), 3);
        for len in 1..600 {
            let c = class_for(len);
            assert!(capacity(c) >= len);
            assert!(c == 0 || capacity(c - 1) < len, "{len} in class {c}");
        }
    }

    #[test]
    fn growth_past_every_size_class_keeps_the_order() {
        let mut pool = EdgePool::default();
        let mut list = EdgeList::default();
        let mut model = Vec::new();
        for i in 0..1000 {
            pool.push(&mut list, NodeId(i));
            model.push(NodeId(i));
            assert_eq!(pool.get(list), &model[..]);
        }
        assert_eq!(list.class, class_for(1000));
    }

    #[test]
    fn removal_order_matches_vec_swap_remove() {
        let mut pool = EdgePool::default();
        let mut list = pool.list(&ids(0..13));
        let mut model = ids(0..13);
        for index in [3, 0, 7, 9, 0, 2, 5, 0, 1, 0, 2, 0, 0] {
            let index = index % model.len();
            assert_eq!(pool.swap_remove(&mut list, index), model.swap_remove(index));
            assert_eq!(pool.get(list), &model[..]);
        }
        assert_eq!(list.len(), 0);
        let mut list = pool.list(&[NodeId(4), NodeId(5), NodeId(4), NodeId(6)]);
        let mut model = vec![NodeId(4), NodeId(5), NodeId(4), NodeId(6)];
        pool.remove_one(&mut list, NodeId(4));
        let pos = model.iter().position(|&u| u == NodeId(4)).unwrap();
        model.swap_remove(pos);
        assert_eq!(pool.get(list), &model[..]);
        pool.remove_one(&mut list, NodeId(9));
        assert_eq!(
            pool.get(list),
            &model[..],
            "absent ids leave the list alone"
        );
    }

    #[test]
    fn freed_blocks_are_reused_before_the_pool_grows() {
        let mut pool = EdgePool::default();
        let mut a = pool.list(&ids(0..3));
        let slots = pool.slots();
        pool.clear(&mut a);
        let b = pool.list(&ids(10..14));
        assert_eq!(pool.slots(), slots, "same class: the freed block");
        assert_eq!(pool.get(b), &ids(10..14)[..]);
        // Growing a list frees its old block for the next list.
        let mut c = pool.list(&ids(0..2));
        let before = pool.slots();
        pool.push(&mut c, NodeId(2));
        let d = pool.list(&ids(20..22));
        assert_eq!(
            pool.slots(),
            before + capacity(1),
            "only the grown block is new"
        );
        assert_eq!(pool.get(c), &ids(0..3)[..]);
        assert_eq!(pool.get(d), &ids(20..22)[..]);
    }
}
