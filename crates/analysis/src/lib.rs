//! Conservative static analyses over `pea-bytecode`, independent of the
//! speculative partial escape analysis in `pea-core`.
//!
//! The crate has two roles:
//!
//! 1. **Pre-analysis** — a classic flow-insensitive escape analysis in the
//!    tradition of whole-method abstract-interpretation escape analyses
//!    (Hill & Spoto) and cheap pre-filters for precise analyses (SkipFlow).
//!    Every allocation site is classified on the three-point lattice
//!    `NoEscape < ArgEscape < GlobalEscape`. Nothing here reaches the
//!    compiler (`pea-compiler` does not depend on this crate). The verdicts
//!    are read by the `--checked` sanitizer below, by `pealint`, and by
//!    `perfbench`'s `analysis.*` figures.
//!
//! 2. **Sanitizer** — an independent oracle for the speculative PEA: every
//!    `Virtualized`/`LockElided` trace event and every post-PEA frame state
//!    is cross-checked against the conservative verdicts. Because the static
//!    analysis over-approximates (it never wrongly claims `NoEscape`), any
//!    PEA decision that contradicts it is a compiler bug, reported loudly.
//!
//! All five forward analyses run on one abstract frame (a value per local
//! and stack slot, in [`dataflow`]) under one worklist solver; each models
//! only the opcodes whose meaning it tracks. One entry point,
//! [`analyze_method`], summarizes a method into one [`MethodSummary`] with
//! one [`AllocSite`] record per site; the sanitizer's [`StaticVerdicts`]
//! (which `pealint` reads) and the interprocedural summaries call it. The
//! may-throw bit it qualifies is the one `pea-bytecode` seals per method,
//! read inside.
//!
//! | module | contents |
//! |---|---|
//! | [`dataflow`] | the shared frame, worklist solver, join-semilattice trait, bit sets |
//! | [`escape`] | NoEscape/ArgEscape/GlobalEscape per site; the site and method records; `analyze_method` |
//! | [`flow`] | branch-aware (predicate-edge) path qualification of the escape verdicts |
//! | [`lockbalance`] | monitorenter/monitorexit pairing depth per site |
//! | [`nullness`] | definite assignment + null-ness findings |
//! | [`sanitize`] | PEA decision sanitizer over trace events + frame states |
//! | [`summary`] | call graph + interprocedural fixpoint over `analyze_method` |

pub mod dataflow;
pub mod escape;
pub mod flow;
pub mod lockbalance;
pub mod nullness;
pub mod sanitize;
pub mod summary;

pub use escape::{
    analyze_method, immediate_global_sites, AllocKind, AllocSite, EscapeClass, MethodSummary,
};
pub use flow::{PathEscape, ThrowGuard, ThrowPath};
pub use lockbalance::{analyze_locks, LockFinding, LockFindingKind, LockSummary};
pub use nullness::{analyze_nullness, NullFinding, NullFindingKind, NullnessSummary};
pub use sanitize::{check_compilation, Inconsistency, StaticVerdicts};
pub use summary::{CallGraph, ProgramSummaries};
