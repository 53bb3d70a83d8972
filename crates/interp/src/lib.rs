//! The bytecode interpreter: reference semantics, profiling tier, and
//! deoptimization target.
//!
//! In the paper's system (HotSpot + Graal), the interpreter plays three
//! roles that this crate reproduces:
//!
//! 1. **Reference semantics** — unoptimized execution against which the
//!    compiled tiers are differentially tested;
//! 2. **Profiling tier** — it gathers the invocation counts, branch
//!    profiles and receiver types the speculative compiler consumes;
//! 3. **Deoptimization target** — when compiled code bails out, it
//!    rebuilds the interpreter frames of its compiled frame state as one
//!    [`FrameChain`](pea_runtime::FrameChain) (rematerializing virtual
//!    objects first, §5.5 of the paper), and the VM resumes it here via
//!    [`resume`].
//!
//! The interpreter is generic over an [`InterpEnv`] so the VM can decide
//! each call's tier and own the cycle accounting, each host with its own
//! monomorphic loop. One run of the loop executes a whole chain of
//! interpreted activations: a call, a return and an exception's unwinding
//! stay in it, and frames are windows on the host's value stack, so an
//! interpreted call allocates nothing and takes no host stack.

mod env;
mod exec;

pub use env::{check_arity, Callee, InterpEnv, SimpleEnv, VALUE_STACK_RESERVE};
pub use exec::{interpret, opcode_slot, resume, unwind, Activation, OPCODE_NAMES};
