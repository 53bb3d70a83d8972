//! A Graal-IR-style SSA intermediate representation, the substrate the
//! paper's Partial Escape Analysis runs on.
//!
//! Design, mirroring "Graal IR: An extensible declarative intermediate
//! representation" (Duboscq et al.) as described in §2/§5 of the paper:
//!
//! * the graph models **control flow** (fixed nodes threaded through
//!   `next`/successor edges: [`NodeKind::Start`], [`NodeKind::If`],
//!   [`NodeKind::Merge`], [`NodeKind::LoopBegin`], effectful object
//!   operations, …) and **data flow** (floating pure nodes: constants,
//!   parameters, arithmetic, [`NodeKind::Phi`]) in one node arena;
//! * **FrameState** nodes map optimized code back to bytecode-level VM
//!   state (method, bci, locals, expression stack, locked objects) and
//!   chain to their caller's state after inlining, enabling
//!   deoptimization (§2, §5.5);
//! * after Partial Escape Analysis, frame states may reference
//!   [`NodeKind::VirtualObjectMapping`] snapshots, and escaping paths gain
//!   [`NodeKind::Commit`]/[`NodeKind::AllocatedObject`] materialization
//!   nodes (the analogue of Graal's `CommitAllocationNode` /
//!   `AllocatedObjectNode`).
//!
//! One deliberate deviation, anticipated by the paper's §7 (future work):
//! object-sensitive operations (field accesses, monitors, reference
//! equality, type checks) are *pinned* in control flow instead of floating,
//! which makes the analysis independent of the scheduler. The [`schedule`]
//! module still implements a scheduler for the floating value nodes, used
//! by the compiled-code evaluator.

pub mod cfg;
pub mod dom;
pub mod dump;
mod framestate;
mod graph;
mod node;
mod pool;
pub mod schedule;
pub mod verify;

pub use framestate::FrameStateData;
pub use graph::Graph;
pub use node::{AllocShape, ArithOp, CommitObject, DeoptReason, Node, NodeId, NodeKind};
