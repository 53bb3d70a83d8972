//! Shared runtime support for the PEA reproduction: dynamically typed
//! [`Value`]s, a managed [`Heap`] with the allocation/monitor statistics
//! the paper's evaluation reports, static (global) variable storage,
//! execution [`Stats`], branch/call [`profile`] data, [`VmError`], and the
//! [`FrameChain`] deoptimization hands from compiled code to the
//! interpreter.
//!
//! The heap is a bump arena (one handle table, one slot slab) without
//! reclamation and with a fixed capacity: the paper's metrics are
//! *allocated bytes*, *allocation counts* and *monitor operations* per
//! benchmark iteration, none of which require a collector. Monitors are
//! modelled single-threaded but fully counted and balance-checked, which is
//! what Lock Elision changes.

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
    Heap, ObjRef, Statics, HEAP_SEGMENT_SLOTS, MAX_HEAP_OBJECTS, MAX_HEAP_SLOTS,
    MAX_RECYCLED_SEGMENTS,
};
pub use stats::Stats;
pub use value::Value;
