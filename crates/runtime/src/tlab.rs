//! The shared chunk allocator behind per-mutator TLABs.
//!
//! Every mutator thread owns a private [`Heap`](crate::Heap) — handle and
//! slot segments, both bump-allocated, exactly like a HotSpot
//! thread-local allocation buffer. Bump allocation itself is therefore
//! free of synchronization; what the threads share is the *capacity
//! handout*: when a mutator heap has allocated every cell (handle) it was
//! granted it requests more chunks from the VM-wide [`ChunkAllocator`],
//! which accounts chunks and cells globally (one relaxed atomic add per
//! grant, no lock). This keeps the allocation fast path thread-local
//! while the VM retains a single view of how much heap space has been
//! handed out — the seam the generational-GC roadmap item grows from.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cells per TLAB chunk. Small enough that an idle mutator wastes little,
/// large enough that grants are rare on allocation-heavy workloads.
pub const TLAB_CELLS: usize = 256;

/// VM-wide TLAB capacity handout. Cheap to share (`Arc`), lock-free.
#[derive(Debug, Default)]
pub struct ChunkAllocator {
    chunks: AtomicU64,
    cells: AtomicU64,
}

impl ChunkAllocator {
    /// A fresh allocator with nothing granted.
    pub fn new() -> ChunkAllocator {
        ChunkAllocator::default()
    }

    /// Hands one chunk of capacity ([`TLAB_CELLS`] cells) to a requesting
    /// mutator heap, returning the cell count granted.
    pub fn grant(&self) -> usize {
        self.grant_many(1)
    }

    /// Hands `chunks` chunks of capacity at once, returning the total cell
    /// count granted. Heaps request geometrically growing grants (one
    /// chunk, then enough to double) so grants stay rare while accounting
    /// remains chunk-granular.
    pub fn grant_many(&self, chunks: usize) -> usize {
        let cells = chunks * TLAB_CELLS;
        self.chunks.fetch_add(chunks as u64, Ordering::Relaxed);
        self.cells.fetch_add(cells as u64, Ordering::Relaxed);
        cells
    }

    /// Chunks granted so far, across every mutator.
    pub fn chunks_granted(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Cells granted so far, across every mutator.
    pub fn cells_granted(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grants_accumulate_across_threads() {
        let alloc = Arc::new(ChunkAllocator::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let alloc = Arc::clone(&alloc);
                scope.spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(alloc.grant(), TLAB_CELLS);
                    }
                });
            }
        });
        assert_eq!(alloc.chunks_granted(), 40);
        assert_eq!(alloc.cells_granted(), 40 * TLAB_CELLS as u64);
    }
}
