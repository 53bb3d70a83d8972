//! Allocation-pattern generators: parameterized bytecode snippets that
//! compose into benchmark kernels.
//!
//! Each pattern models one allocation behaviour from the paper's
//! discussion of where (Partial) Escape Analysis does and does not help:
//!
//! | pattern | models | PEA effect |
//! |---|---|---|
//! | [`Pattern::BoxingArith`] | Scala autoboxing churn (factorie, specs) | all boxes scalar-replaced |
//! | [`Pattern::TupleReturn`] | multi-value returns via objects | tuples scalar-replaced |
//! | [`Pattern::CacheLookup`] | the paper's Listing 4 key cache | key virtual on hits, materialized on misses |
//! | [`Pattern::IteratorSum`] | iterator objects over arrays | iterator scalar-replaced, array survives |
//! | [`Pattern::SyncCounter`] | synchronized accumulators (tomcat, jbb) | allocation + **lock elision** |
//! | [`Pattern::EscapeHeavy`] | objects published to shared structures | no win (true escapes) |
//! | [`Pattern::PublishViaHelper`] | registration/listener helpers publishing their argument | no win; only the IPA summaries prove the escape |
//! | [`Pattern::MixedEscape`] | occasional publication on a return path | partial escape: materialize 1/N |
//! | [`Pattern::ScratchVector`] | vector-math temporaries (sunflow) | temporaries scalar-replaced |
//! | [`Pattern::ArrayFill`] | buffer/array churn (xalan, tmt) | arrays survive (bytes dominated) |
//! | [`Pattern::BranchyEscape`] | allocation escaping on many paths (jython) | no allocation win, **code-size growth** |
//! | [`Pattern::PolyDispatch`] | megamorphic call sites (jython) | blocks inlining, objects escape as arguments |
//! | [`Pattern::ExceptionParse`] | parser error paths (xalan, batik) | results scalar-replaced; errors **materialize at the throw** |
//! | [`Pattern::MegamorphicDispatch`] | hot virtual sites over 1–4 receiver classes | guarded devirtualization (mono guard / PIC), receivers scalar-replaced |
//! | [`Pattern::TryFinallyLock`] | try-finally monitor regions (tomcat, jbb) | locally-caught error object scalar-replaced; lock released on both paths |
//! | [`Pattern::ColdThrowPublish`] | range/state-check helpers throwing on a never-taken guard | no win: the may-throw helper stays out of line (`may-throw`); only the throw summary sees the cold guard |
//! | [`Pattern::GuardedPublish`] | periodic publication through a local behind a two-sided branch | no allocation win; only the flow tier certifies the certain escape |
//! | [`Pattern::Ballast`] | the non-allocating bulk of real applications | none (dilutes speedups to realistic magnitudes) |

use std::fmt::Write as _;

/// A parameterized pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// `n` boxed additions per iteration; boxes die immediately.
    BoxingArith {
        /// Inner repetitions.
        n: i64,
    },
    /// `n` divmod calls returning a fresh pair object.
    TupleReturn {
        /// Inner repetitions.
        n: i64,
    },
    /// `n` cache probes; the key changes every `miss_every` probes.
    CacheLookup {
        /// Inner repetitions.
        n: i64,
        /// Probe count between key changes (miss rate = 1/this).
        miss_every: i64,
    },
    /// Fill an array of `len` ints, then sum it through an iterator
    /// object.
    IteratorSum {
        /// Array length (kept above the virtualization limit so the
        /// array itself survives).
        len: i64,
    },
    /// `n` synchronized increments on a local counter object.
    SyncCounter {
        /// Inner repetitions.
        n: i64,
    },
    /// `n` nodes published into a global pool of `pool` slots.
    EscapeHeavy {
        /// Inner repetitions.
        n: i64,
        /// Pool size.
        pool: i64,
    },
    /// `n` fresh events handed straight to a registration helper that
    /// publishes its argument to a static on every path (one directly,
    /// one through a relay). True escapes like [`Pattern::EscapeHeavy`],
    /// but the publication happens in the *callee*: only the
    /// interprocedural summaries list these sites as certain escapes;
    /// the intraprocedural analysis cannot see past the call.
    PublishViaHelper {
        /// Inner repetitions.
        n: i64,
    },
    /// `n` records; every `escape_every`-th is published on a separate
    /// return path (the Listing 4 shape).
    MixedEscape {
        /// Inner repetitions.
        n: i64,
        /// Publication period.
        escape_every: i64,
    },
    /// `n` dot products over two fresh 3-component vectors.
    ScratchVector {
        /// Inner repetitions.
        n: i64,
    },
    /// `n` array allocations of `len` elements, lightly touched.
    ArrayFill {
        /// Inner repetitions.
        n: i64,
        /// Element count per array (dynamic, never virtualized).
        len: i64,
    },
    /// One object per inner step, escaping on one of `branches` paths
    /// selected by `k % branches` — PEA sinks the allocation into every
    /// branch, growing code without reducing allocations.
    BranchyEscape {
        /// Inner repetitions.
        n: i64,
        /// Number of escape paths (4, 6 or 8).
        branches: u32,
    },
    /// `n` virtual calls over a 3-class hierarchy, receivers cycling so
    /// the site stays megamorphic; receiver objects escape as arguments.
    PolyDispatch {
        /// Inner repetitions.
        n: i64,
    },
    /// `n` parse calls; every `fail_every`-th input is malformed and the
    /// parser throws a fresh error object the caller catches and recovers
    /// from. Result objects are fully scalar-replaced; error objects
    /// virtualize until the `athrow` and materialize exactly there
    /// (`thrown-escape`).
    ExceptionParse {
        /// Inner repetitions.
        n: i64,
        /// Throw period (error rate = 1/this).
        fail_every: i64,
    },
    /// `n` virtual calls on fresh receivers drawn from `classes` concrete
    /// types (1–4). Receivers never escape: with receiver-type speculation
    /// the call devirtualizes behind a guard (monomorphic) or a
    /// polymorphic inline cache, the callee inlines, and the receiver is
    /// scalar-replaced; a guard failure deoptimizes and rematerializes it.
    MegamorphicDispatch {
        /// Inner repetitions.
        n: i64,
        /// Receiver classes cycling through the site (1..=4).
        classes: u32,
    },
    /// `n` locked increments in a try-finally region: the monitor is
    /// released on the normal path and in the catch-all handler, and every
    /// `throw_every`-th step throws an error that the handler absorbs
    /// locally — the error object never leaves the compiled unit and is
    /// fully scalar-replaced.
    TryFinallyLock {
        /// Inner repetitions.
        n: i64,
        /// Throw period.
        throw_every: i64,
    },
    /// `n` additions through a checking helper whose only `athrow` sits
    /// behind a guard that never fires for in-range inputs (the
    /// range/state-check shape). The helper is `may_throw`, so the inliner
    /// keeps it out of line (reason `may-throw`) and the call stays a
    /// residual call; the static tier's path-qualified throw summary
    /// (`ThrowPath::Guarded`) reports the guard, and nothing consumes it.
    ColdThrowPublish {
        /// Inner repetitions (must stay below 65535 so the guard is
        /// genuinely never taken).
        n: i64,
    },
    /// One object published to a static through a *local* every 8th
    /// iteration, behind a genuinely two-sided branch. Flow-insensitively
    /// `GlobalEscape` but invisible to the immediate and IPA site sets
    /// (no immediate `putstatic`, no publishing call): only the
    /// branch-aware flow tier certifies that the site escapes on every
    /// path.
    GuardedPublish {
        /// Inner repetitions.
        n: i64,
    },
    /// `n` iterations of pure, allocation-free arithmetic — the
    /// non-allocating bulk of a real application, diluting PEA's effect
    /// on run time to realistic magnitudes.
    Ballast {
        /// Inner repetitions.
        n: i64,
    },
}

/// A pattern instantiated at a position within a workload (the index
/// makes generated names unique).
#[derive(Clone, Copy, Debug)]
pub struct PatternInstance {
    /// The pattern and its parameters.
    pub pattern: Pattern,
    /// Unique index within the workload.
    pub index: usize,
}

impl PatternInstance {
    /// The entry method name (`p<index>`), taking the iteration number
    /// and returning an int.
    pub fn entry_name(&self) -> String {
        format!("p{}", self.index)
    }

    /// Emits the classes, statics and methods of this instance.
    pub fn to_asm(&self) -> String {
        let s = self.index;
        let mut out = String::new();
        match self.pattern {
            Pattern::BoxingArith { n } => {
                let _ = write!(
                    out,
                    "
class Box{s} {{ field v int }}
method boxof{s} 1 returns {{
    new Box{s} store 1
    load 1 load 0 putfield Box{s}.v
    load 1 retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 0 load 2 add invokestatic boxof{s}
    load 2 const 3 mul invokestatic boxof{s}
    getfield Box{s}.v
    swap
    getfield Box{s}.v
    add
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::TupleReturn { n } => {
                let _ = write!(
                    out,
                    "
class Pair{s} {{ field a int field b int }}
method divmod{s} 2 returns {{
    new Pair{s} store 2
    load 2 load 0 load 1 div putfield Pair{s}.a
    load 2 load 0 load 1 rem putfield Pair{s}.b
    load 2 retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 0 load 2 add const 7 invokestatic divmod{s} store 3
    load 3 getfield Pair{s}.a load 3 getfield Pair{s}.b add
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::CacheLookup { n, miss_every } => {
                let _ = write!(
                    out,
                    "
class Key{s} {{ field idx int field ref ref }}
static cacheKey{s} ref
static cacheVal{s} int
method virtual Key{s}.eq 2 returns synchronized {{
    load 1 ifnull Lf{s}
    load 0 getfield Key{s}.idx
    load 1 checkcast Key{s} getfield Key{s}.idx
    ifcmp ne Lf{s}
    const 1 retv
Lf{s}:
    const 0 retv
}}
method get{s} 1 returns {{
    new Key{s} store 1
    load 1 load 0 putfield Key{s}.idx
    load 1 getstatic cacheKey{s} invokevirtual Key{s}.eq
    const 0 ifcmp eq Lmiss{s}
    getstatic cacheVal{s} retv
Lmiss{s}:
    load 1 putstatic cacheKey{s}
    load 0 const 13 mul putstatic cacheVal{s}
    getstatic cacheVal{s} retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 0 const {n} mul load 2 add const {miss_every} div invokestatic get{s}
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::IteratorSum { len } => {
                let _ = write!(
                    out,
                    "
class Iter{s} {{ field pos int field arr ref }}
method virtual Iter{s}.hasnext 1 returns {{
    load 0 getfield Iter{s}.pos
    load 0 getfield Iter{s}.arr arraylen
    ifcmp lt Lt{s}
    const 0 retv
Lt{s}:
    const 1 retv
}}
method virtual Iter{s}.next 1 returns {{
    load 0 getfield Iter{s}.arr load 0 getfield Iter{s}.pos aload
    load 0 load 0 getfield Iter{s}.pos const 1 add putfield Iter{s}.pos
    retv
}}
method p{s} 1 returns {{
    const {len} newarray int store 1
    const 0 store 2
Lf{s}:
    load 2 const {len} ifcmp ge Lfd{s}
    load 1 load 2 load 0 load 2 add astore
    load 2 const 1 add store 2
    goto Lf{s}
Lfd{s}:
    new Iter{s} store 3
    load 3 load 1 putfield Iter{s}.arr
    const 0 store 4
Lh{s}:
    load 3 invokevirtual Iter{s}.hasnext const 0 ifcmp eq Ld{s}
    load 4 load 3 invokevirtual Iter{s}.next add store 4
    goto Lh{s}
Ld{s}:
    load 4 retv
}}
"
                );
            }
            Pattern::SyncCounter { n } => {
                let _ = write!(
                    out,
                    "
class Ctr{s} {{ field v int }}
method virtual Ctr{s}.inc 2 synchronized {{
    load 0 load 0 getfield Ctr{s}.v load 1 add putfield Ctr{s}.v
    ret
}}
method p{s} 1 returns {{
    new Ctr{s} store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 1 load 2 invokevirtual Ctr{s}.inc
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 getfield Ctr{s}.v retv
}}
"
                );
            }
            Pattern::EscapeHeavy { n, pool } => {
                let _ = write!(
                    out,
                    "
class Node{s} {{ field v int field next ref }}
static pool{s} ref
method p{s} 1 returns {{
    getstatic pool{s} ifnonnull Lok{s}
    const {pool} newarray ref putstatic pool{s}
Lok{s}:
    getstatic pool{s} store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    new Node{s} store 3
    load 3 load 2 putfield Node{s}.v
    load 1 load 2 const {pool} rem load 3 astore
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 const 0 aload ifnull Lz{s}
    load 1 const 0 aload checkcast Node{s} getfield Node{s}.v retv
Lz{s}:
    const 0 retv
}}
"
                );
            }
            Pattern::PublishViaHelper { n } => {
                // `new Ev; invokestatic pub` / `new Ev; invokestatic
                // relay`: the fresh object is the call's only argument and
                // the callee's first action is `putstatic` (directly, or
                // through one relay hop) — the must-publish shape the
                // summary analysis proves and `excluded_sites` keys on.
                let _ = write!(
                    out,
                    "
class Ev{s} {{ field v int }}
static reg{s} ref
method pub{s} 1 {{
    load 0 putstatic reg{s}
    ret
}}
method relay{s} 1 {{
    load 0 invokestatic pub{s}
    ret
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    new Ev{s} invokestatic pub{s}
    new Ev{s} invokestatic relay{s}
    getstatic reg{s} checkcast Ev{s} getfield Ev{s}.v
    load 1 add load 2 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::MixedEscape { n, escape_every } => {
                let _ = write!(
                    out,
                    "
class Rec{s} {{ field a int field b int }}
static last{s} ref
method work{s} 2 returns {{
    new Rec{s} store 2
    load 2 load 1 putfield Rec{s}.a
    load 2 load 0 putfield Rec{s}.b
    load 2 getfield Rec{s}.a load 2 getfield Rec{s}.b add store 3
    load 1 const {escape_every} rem const 0 ifcmp ne Lno{s}
    load 2 putstatic last{s}
    load 3 retv
Lno{s}:
    load 3 retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 0 load 2 invokestatic work{s}
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::ScratchVector { n } => {
                let _ = write!(
                    out,
                    "
class V3x{s} {{ field x int field y int field z int }}
method vec{s} 1 returns {{
    new V3x{s} store 1
    load 1 load 0 putfield V3x{s}.x
    load 1 load 0 const 1 add putfield V3x{s}.y
    load 1 load 0 const 2 add putfield V3x{s}.z
    load 1 retv
}}
method dot{s} 2 returns {{
    load 0 getfield V3x{s}.x load 1 getfield V3x{s}.x mul
    load 0 getfield V3x{s}.y load 1 getfield V3x{s}.y mul add
    load 0 getfield V3x{s}.z load 1 getfield V3x{s}.z mul add
    retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 0 load 2 add invokestatic vec{s}
    load 2 invokestatic vec{s}
    invokestatic dot{s}
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::ArrayFill { n, len } => {
                let _ = write!(
                    out,
                    "
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    # dynamic length defeats virtualization, as intended
    const {len} load 0 const 0 mul add newarray int store 3
    load 3 const 0 load 2 astore
    load 3 const 0 aload load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::BranchyEscape { n, branches } => {
                // One static sink per branch; the object escapes on every
                // path, so PEA only *moves* the allocation into each
                // branch (code growth, no allocation reduction). The body
                // lives in its own hot `step` method, deliberately above
                // the inlining limit, so the grown code pays its
                // instruction-cache penalty on every inner call — the
                // jython mechanism of §6.1.
                let mut statics = String::new();
                for b in 0..branches {
                    let _ = writeln!(statics, "static sink{s}x{b} ref");
                }
                let mut dispatch = String::new();
                for b in 0..branches {
                    let _ = write!(
                        dispatch,
                        "
    load 2 const {b} ifcmp ne Ln{s}x{b}
    load 1 putstatic sink{s}x{b}
    goto Lcont{s}
Ln{s}x{b}:"
                    );
                }
                let last = branches; // fallthrough sink
                let _ = write!(
                    out,
                    "
class Obj{s} {{ field v int }}
{statics}
static sink{s}x{last} ref
method step{s} 1 returns {{
    new Obj{s} store 1
    load 1 load 0 putfield Obj{s}.v
    load 0 const {branches} rem store 2
{dispatch}
    load 1 putstatic sink{s}x{last}
Lcont{s}:
    load 1 getfield Obj{s}.v retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 2 invokestatic step{s}
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::ExceptionParse { n, fail_every } => {
                let _ = write!(
                    out,
                    "
class Res{s} {{ field v int }}
class PErr{s} {{ field code int }}
method parse{s} 1 returns {{
    load 0 const {fail_every} rem const 0 ifcmp eq Lbad{s}
    new Res{s} store 1
    load 1 load 0 putfield Res{s}.v
    load 1 getfield Res{s}.v retv
Lbad{s}:
    new PErr{s} store 1
    load 1 load 0 putfield PErr{s}.code
    load 1 athrow
}}
method p{s} 1 returns {{
    try Ls{s} Le{s} Lc{s} PErr{s}
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
Ls{s}:
    load 0 load 2 add invokestatic parse{s}
    load 1 add store 1
Le{s}:
    goto Ln{s}
Lc{s}:
    checkcast PErr{s} getfield PErr{s}.code load 1 add store 1
Ln{s}:
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::MegamorphicDispatch { n, classes } => {
                let classes = classes.clamp(1, 4);
                let mut decls = String::new();
                let mut impls = String::new();
                // Distinct per-class multipliers keep results class-sensitive.
                let muls = [2, 3, 5, 7];
                for j in 1..classes {
                    let _ = writeln!(decls, "class MB{s}x{j} extends MB{s} {{ }}");
                    let _ = writeln!(
                        impls,
                        "method virtual MB{s}x{j}.go 1 returns {{ \
                         load 0 getfield MB{s}.a const {} mul retv }}",
                        muls[j as usize]
                    );
                }
                let mut dispatch = String::new();
                for j in 1..classes {
                    let _ = write!(
                        dispatch,
                        "
    load 1 const {j} ifcmp ne Ln{s}x{j}
    new MB{s}x{j} goto Lset{s}
Ln{s}x{j}:"
                    );
                }
                let _ = write!(
                    out,
                    "
class MB{s} {{ field a int }}
{decls}
method virtual MB{s}.go 1 returns {{ load 0 getfield MB{s}.a const 2 mul retv }}
{impls}
method step{s} 1 returns {{
    load 0 const {classes} rem store 1
{dispatch}
    new MB{s}
Lset{s}:
    store 2
    load 2 load 0 putfield MB{s}.a
    load 2 invokevirtual MB{s}.go retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 0 load 2 add invokestatic step{s}
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::TryFinallyLock { n, throw_every } => {
                let _ = write!(
                    out,
                    "
class Lk{s} {{ field v int }}
class LE{s} {{ field c int }}
method bump{s} 2 returns {{
    try Ls{s} Le{s} Lf{s} *
    load 0 monitorenter
Ls{s}:
    load 0 load 0 getfield Lk{s}.v load 1 add putfield Lk{s}.v
    load 1 const {throw_every} rem const 0 ifcmp ne Lok{s}
    new LE{s} store 2
    load 2 load 1 putfield LE{s}.c
    load 2 athrow
Lok{s}:
Le{s}:
    load 0 monitorexit
    load 0 getfield Lk{s}.v retv
Lf{s}:
    pop
    load 0 monitorexit
    load 0 getfield Lk{s}.v neg retv
}}
method p{s} 1 returns {{
    new Lk{s} store 1
    const 0 store 2
    const 0 store 3
Lh{s}:
    load 3 const {n} ifcmp ge Ld{s}
    load 1 load 3 invokestatic bump{s}
    load 2 add store 2
    load 3 const 1 add store 3
    goto Lh{s}
Ld{s}:
    load 2 retv
}}
"
                );
            }
            Pattern::ColdThrowPublish { n } => {
                // `check` adds its input into the accumulator after a
                // range guard: `(k & 0xffff) == 0xffff` never holds for
                // loop counters below 65535, so the throw block (fresh
                // error object, field write, `athrow`) is dead in steady
                // state. The throw summary is `Guarded` with a single
                // never-taken guard; the inliner still refuses the helper
                // as `may-throw`.
                let _ = write!(
                    out,
                    "
class CErr{s} {{ field code int }}
method check{s} 2 returns {{
    load 0 const 65535 and const 65535 ifcmp eq Lbad{s}
    load 1 load 0 add retv
Lbad{s}:
    new CErr{s} store 2
    load 2 load 0 putfield CErr{s}.code
    load 2 athrow
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 2 load 1 invokestatic check{s} store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::GuardedPublish { n } => {
                // Every 8th iteration replaces the published object: the
                // fresh allocation reaches the static through a local, so
                // neither the immediate-`putstatic` filter nor the
                // publishing-call summaries see it, yet every path from
                // the `new` publishes with nothing observable in between
                // (the field write lands *after* publication) — the
                // certain-escape shape of the flow tier. The
                // `& 7` branch is genuinely two-sided, so profile
                // speculation never removes it.
                let _ = write!(
                    out,
                    "
class GPub{s} {{ field v int }}
static gpub{s} ref
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
    new GPub{s} putstatic gpub{s}
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 2 const 7 and const 7 ifcmp ne Lsk{s}
    new GPub{s} store 3
    load 3 putstatic gpub{s}
    load 3 load 2 putfield GPub{s}.v
Lsk{s}:
    getstatic gpub{s} checkcast GPub{s} getfield GPub{s}.v
    load 1 add load 2 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::Ballast { n } => {
                let _ = write!(
                    out,
                    "
method p{s} 1 returns {{
    load 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 1 load 2 xor load 2 add store 1
    load 1 const 13 mul load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
            Pattern::PolyDispatch { n } => {
                let _ = write!(
                    out,
                    "
class Sh{s} {{ field a int }}
class ShB{s} extends Sh{s} {{ }}
class ShC{s} extends Sh{s} {{ }}
static spill{s} ref
method virtual Sh{s}.area 1 returns {{ load 0 getfield Sh{s}.a const 2 mul retv }}
method virtual ShB{s}.area 1 returns {{ load 0 getfield Sh{s}.a const 3 mul retv }}
method virtual ShC{s}.area 1 returns {{ load 0 getfield Sh{s}.a const 5 mul retv }}
method mk{s} 1 returns {{
    load 0 const 3 rem store 1
    load 1 const 0 ifcmp eq La{s}
    load 1 const 1 ifcmp eq Lb{s}
    new ShC{s} goto Lset{s}
Lb{s}:
    new ShB{s} goto Lset{s}
La{s}:
    new Sh{s}
Lset{s}:
    store 2
    load 2 load 0 putfield Sh{s}.a
    load 2 putstatic spill{s}
    load 2 retv
}}
method p{s} 1 returns {{
    const 0 store 1
    const 0 store 2
Lh{s}:
    load 2 const {n} ifcmp ge Ld{s}
    load 2 invokestatic mk{s} invokevirtual Sh{s}.area
    load 1 add store 1
    load 2 const 1 add store 2
    goto Lh{s}
Ld{s}:
    load 1 retv
}}
"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn check(pattern: Pattern) {
        let inst = PatternInstance { pattern, index: 0 };
        let mut src = inst.to_asm();
        src.push_str(&format!(
            "method iterate 1 returns {{ load 0 invokestatic {} retv }}",
            inst.entry_name()
        ));
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{pattern:?}: {e}\n{src}"));
        pea_bytecode::verify_program(&program)
            .unwrap_or_else(|e| panic!("{pattern:?}: {e}\n{src}"));
    }

    #[test]
    fn all_patterns_assemble_and_verify() {
        for p in [
            Pattern::BoxingArith { n: 10 },
            Pattern::TupleReturn { n: 10 },
            Pattern::CacheLookup {
                n: 10,
                miss_every: 4,
            },
            Pattern::IteratorSum { len: 40 },
            Pattern::SyncCounter { n: 10 },
            Pattern::EscapeHeavy { n: 10, pool: 8 },
            Pattern::PublishViaHelper { n: 10 },
            Pattern::MixedEscape {
                n: 10,
                escape_every: 4,
            },
            Pattern::ScratchVector { n: 10 },
            Pattern::ArrayFill { n: 5, len: 16 },
            Pattern::BranchyEscape { n: 10, branches: 4 },
            Pattern::PolyDispatch { n: 10 },
            Pattern::ExceptionParse {
                n: 10,
                fail_every: 3,
            },
            Pattern::MegamorphicDispatch { n: 10, classes: 4 },
            Pattern::TryFinallyLock {
                n: 10,
                throw_every: 3,
            },
            Pattern::ColdThrowPublish { n: 10 },
            Pattern::GuardedPublish { n: 10 },
            Pattern::Ballast { n: 10 },
        ] {
            check(p);
        }
    }
}
