//! Shared runtime support for the PEA reproduction: dynamically typed
//! [`Value`]s, a managed [`Heap`] with the allocation/monitor statistics
//! the paper's evaluation reports, static (global) variable storage,
//! execution [`Stats`], branch/call [`profile`] data, [`VmError`], and the
//! [`FrameChain`] deoptimization hands from compiled code to the
//! interpreter.
//!
//! The heap is a bump arena (one handle table, slot segments) with a fixed
//! capacity and a copying collector its owner runs at safepoints: the
//! paper's metrics are *allocated bytes*, *allocation counts* and *monitor
//! operations* per benchmark iteration, which no collection changes, while
//! the memory a run holds is its live data rather than its history.
//! Monitors are modelled single-threaded but fully counted and
//! balance-checked, which is what Lock Elision changes.

pub mod cost;
mod error;
mod frames;
mod heap;
pub mod profile;
mod stats;
mod value;

pub use error::{VmError, MAX_CALL_DEPTH};
pub use frames::{FrameChain, FrameHeader};
pub use heap::{
    Heap, ObjRef, Statics, COLLECT_AFTER_SEGMENTS, HEAP_SEGMENT_SLOTS, MAX_HEAP_OBJECTS,
    MAX_HEAP_SLOTS, MAX_RECYCLED_SEGMENTS,
};
pub use stats::Stats;
pub use value::Value;
