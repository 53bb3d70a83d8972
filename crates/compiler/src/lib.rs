//! The JIT compiler: bytecode → SSA graph construction (with inlining and
//! profile-guided speculation), canonicalization, the Partial Escape
//! Analysis phase (from `pea-core`), scheduling, and a compiled-code
//! evaluator with full deoptimization support.
//!
//! The pieces correspond to the Graal infrastructure of the paper's §2:
//!
//! * [`builder`] — the bytecode parser producing Graal-IR-style graphs,
//!   including `FrameState` bookkeeping at side effects and merges, and
//!   speculative branch pruning (never-taken branches become guards that
//!   deoptimize, which is what lets PEA remove allocations whose only
//!   escape is a cold path);
//! * inlining happens *during* graph building (callee graphs are built
//!   directly into the caller, frame states chained to the caller's state
//!   at the call site, synchronized callees bracketed with monitor
//!   operations — producing exactly the paper's Listing 2 shape);
//! * [`canon`] — constant folding, global value numbering, phi
//!   simplification;
//! * [`pipeline`] — [`compile`]: the phases in one fixed order, as one
//!   straight-line function, with the escape analysis per [`OptLevel`]
//!   (none / the flow-insensitive EES baseline / PEA);
//! * [`linear`] — lowers the scheduled graph to a dense register-machine
//!   program and executes it against the managed heap with a cycle cost
//!   model (the "machine code" stand-in the VM runs); on a guard failure
//!   it reconstructs interpreter frames from the frame state chain,
//!   **rematerializing virtual objects** (including lock depths) per
//!   §5.5;
//! * [`eval`] — the same semantics by walking the graph: the oracle the
//!   linear tier is tested against (`ExecMode::Graph` in `pea-vm`).

pub mod builder;
pub mod canon;
pub mod eval;
pub mod linear;
pub mod pipeline;

pub use builder::{
    build_graph, build_graph_with, Bailout, BuildOptions, DevirtGuardRec, InlineDecisionRec,
};
pub use eval::{evaluate, ArgBuffer, Call, EvalEnv, EvalOutcome, INLINE_ARGS};
pub use linear::{LinearArtifact, LowerError, RegisterStack};
pub use pipeline::{
    compile, compile_traced, CompiledMethod, CompilerOptions, OptLevel, PhaseTimes,
};
