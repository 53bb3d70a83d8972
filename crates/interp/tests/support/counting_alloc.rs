//! A counting global allocator for the tests that pin "this loop reaches
//! no host allocator". Not a test target of its own: the test files of
//! several crates include it with `#[path]`, so there is one copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates to `System` unchanged; only a thread-local counter is
// added on the allocation path (`realloc` keeps its default, which goes
// through `alloc`, so growing a vector counts too).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Host allocations the current thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}
