//! The heap's recycler: a heap built after another was dropped reuses its
//! slot segments, reads only its own values from them, and the recycler
//! keeps no more than its cap.
//!
//! The recycler is process-wide, so this binary holds this one test and
//! nothing else builds or drops a heap while it runs.

use pea_bytecode::asm::parse_program;
use pea_bytecode::ValueKind;
use pea_runtime::{Heap, ObjRef, Value, HEAP_SEGMENT_SLOTS, MAX_RECYCLED_SEGMENTS};
use std::collections::BTreeSet;

/// An array that fills a standard segment but for one slot, so every such
/// array starts a segment of its own and its slots are the segment's
/// buffer.
const FILLING: i64 = HEAP_SEGMENT_SLOTS as i64 - 1;

fn buffers(heap: &Heap, arrays: &[ObjRef]) -> BTreeSet<usize> {
    arrays
        .iter()
        .map(|&r| heap.slots_of(r).unwrap().as_ptr() as usize)
        .collect()
}

#[test]
fn dropped_segments_come_back_cleared_and_capped() {
    let program = parse_program("class P { field a int field b ref }").unwrap();
    let class = program.class_by_name("P").unwrap();
    assert_eq!(Heap::recycled_segments(), 0);

    // A heap fills three segments with values that are not defaults.
    let mut old = Heap::new();
    let arrays: Vec<ObjRef> = (0..3)
        .map(|_| old.alloc_array(ValueKind::Ref, FILLING).unwrap())
        .collect();
    for &r in &arrays {
        for i in 0..FILLING {
            old.array_set(r, i, Value::Ref(r)).unwrap();
        }
    }
    let dropped = buffers(&old, &arrays);
    assert_eq!(dropped.len(), 3);
    drop(old);
    assert_eq!(Heap::recycled_segments(), 3);

    // The next heap gets the same buffers back, and its fresh objects read
    // their defaults, not the dropped heap's values.
    let mut new = Heap::new();
    let objects: Vec<ObjRef> = (0..3)
        .map(|_| {
            let array = new.alloc_array(ValueKind::Int, FILLING).unwrap();
            assert!(new
                .slots_of(array)
                .unwrap()
                .iter()
                .all(|&v| v == Value::Int(0)));
            array
        })
        .collect();
    assert_eq!(buffers(&new, &objects), dropped);
    assert_eq!(Heap::recycled_segments(), 0);
    let instance = new.alloc_instance(&program, class);
    assert_eq!(
        new.slots_of(instance).unwrap(),
        [Value::Int(0), Value::Null]
    );
    drop(new);

    // The instance started a fourth segment.
    assert_eq!(Heap::recycled_segments(), 4);

    // An own-size array goes back to the host.
    let mut own = Heap::new();
    own.alloc_array(ValueKind::Int, HEAP_SEGMENT_SLOTS as i64 + 1)
        .unwrap();
    drop(own);
    assert_eq!(Heap::recycled_segments(), 4);

    // A heap with more segments than the cap leaves only the cap behind;
    // spares nothing reached commit no pages.
    let mut big = Heap::new();
    big.reserve(0, (MAX_RECYCLED_SEGMENTS + 4) * HEAP_SEGMENT_SLOTS)
        .unwrap();
    drop(big);
    assert_eq!(Heap::recycled_segments(), MAX_RECYCLED_SEGMENTS);
}
