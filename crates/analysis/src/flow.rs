//! Branch-aware qualification of the flow-insensitive escape verdicts
//! (SkipFlow-style predicate edges + primitive constant flow).
//!
//! The flow-insensitive tier ([`crate::escape`]) answers *whether* a site
//! escapes; this module answers *where*: each above-`NoEscape` verdict is
//! qualified against the method's control flow into a [`PathEscape`] —
//! escapes only through exception paths, only behind one conditional, or
//! on ordinary paths too. Three ingredients:
//!
//! 1. **Predicate-qualified dataflow** — a forward constant/nullness
//!    analysis over the [`crate::dataflow`] solver's per-edge
//!    [`refine_edge`](crate::dataflow::ForwardAnalysis::refine_edge) hook.
//!    Compare/instanceof/null-check outcomes specialize the state per
//!    successor, and edges whose predicate is statically false are pruned
//!    from the CFG the qualification reasons over.
//! 2. **Event qualification** — the escape *events* recorded by the
//!    flow-insensitive pass (`(bci, class)` publication points) are tested
//!    for reachability, throw-path-ness (the event instruction is an
//!    `athrow`, can no longer reach a return, or sits in handler-only
//!    code), and common guarding branches.
//! 3. **Certain-escape must-analysis** — the dual direction: a site that
//!    escapes globally on *every* path from its allocation, with nothing
//!    observable or faulting in between, is one PEA can at best defer
//!    (the allocation moves from the `new` to the materialization point)
//!    — unless the publication is a throw caught inside the compilation
//!    unit (DESIGN §4f). These are the sites
//!    [`ProgramSummaries::excluded_sites_flow`](crate::ProgramSummaries::excluded_sites_flow)
//!    reports beyond the IPA set.
//!
//! The tier also path-qualifies the method's *throw* behaviour
//! ([`ThrowPath`]) where the coarse `may_throw` bit only says whether a
//! throw is possible. It is reported (`pealint`, `CALLGRAPH.json`); the
//! inliner does not read it and keeps every `may_throw` callee out of line.
//!
//! Everything here **refines, never contradicts**, the flow-insensitive
//! tier: a site's [`path`](crate::AllocSite::path) is `NoEscape` exactly
//! when its class is, and every other qualification only narrows *where*
//! that class arises — the `flow ⊆ flow-insensitive` invariant `pealint`
//! enforces.

use crate::dataflow::{
    arity, edges, solve_forward, BitSet, EdgeKind, ForwardAnalysis, Frame, Join,
};
use crate::escape::{EscapeClass, MethodSummary};
use pea_bytecode::{CmpOp, Insn, Method, Program};
use std::collections::BTreeSet;

/// Path-qualified escape verdict for one allocation site.
///
/// The qualification describes where the site's *class-defining* escape
/// events sit (for a `GlobalEscape` site, its global publications; weaker
/// events on other paths are not the verdict's concern).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathEscape {
    /// The site does not escape at all (iff the flow-insensitive class is
    /// `NoEscape` — this tier never claims new `NoEscape` proofs).
    NoEscape,
    /// Every escape event is on an exception path: the event is an
    /// `athrow`, sits in code that can no longer reach a return, or is
    /// reachable only through handler entries.
    EscapesOnThrowPathOnly,
    /// Every escape event sits behind one side of the conditional branch
    /// at this bci: pruning that edge makes all of them unreachable.
    EscapesOnColdBranch(u32),
    /// Escape events exist on ordinary paths (or could not be qualified);
    /// the branch-aware tier adds nothing over the insensitive class.
    GlobalEscape,
}

impl PathEscape {
    /// Kebab-case tag for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PathEscape::NoEscape => "no-escape",
            PathEscape::EscapesOnThrowPathOnly => "throw-path-only",
            PathEscape::EscapesOnColdBranch(_) => "cold-branch",
            PathEscape::GlobalEscape => "global-escape",
        }
    }
}

/// A conditional branch guarding every path to some `athrow`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThrowGuard {
    /// Bci of the guarding conditional in the analyzed method.
    pub bci: u32,
    /// Whether the throwing path is behind the *taken* edge (else the
    /// fall-through edge).
    pub throw_on_taken: bool,
}

/// Path-qualified `may_throw`: where this method's own `athrow`s sit
/// relative to its control flow. Computed on the **unpruned** CFG (normal
/// plus exceptional edges) so it mirrors what the graph builder would
/// parse — predicate-dead paths are left in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThrowPath {
    /// The `may_throw` bit is off: no throw anywhere.
    Never,
    /// `may_throw` is set but this method has no (reachable) `athrow` of
    /// its own — only callees throw, and a residual call that throws is
    /// already handled by exception-unwind deoptimization at any inline
    /// depth.
    CalleesOnly,
    /// Every reachable `athrow` sits behind one of these conditional
    /// guards: pruning the guard's throw-side edge makes it unreachable.
    Guarded(Vec<ThrowGuard>),
    /// No return is reachable: the method throws on every execution.
    Always,
    /// Reachable `athrow`s exist that no single conditional guards.
    Sometimes,
}

impl ThrowPath {
    /// Kebab-case tag for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ThrowPath::Never => "never",
            ThrowPath::CalleesOnly => "callees-only",
            ThrowPath::Guarded(_) => "guarded",
            ThrowPath::Always => "always",
            ThrowPath::Sometimes => "sometimes",
        }
    }
}

// ---------------------------------------------------------------------------
// Predicate-qualified constant/nullness flow.

/// Abstract primitive value: small constants and reference nullness, the
/// two predicate families the bytecode can branch on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PredVal {
    Top,
    Const(i64),
    Null,
    NonNull,
}

impl Join for PredVal {
    fn join(&mut self, other: &PredVal) -> bool {
        let changed = *self != *other && *self != PredVal::Top;
        if changed {
            *self = PredVal::Top;
        }
        changed
    }
}

struct PredicateFlow {
    /// Bcis that are a branch target or handler entry: syntactic operand
    /// patterns may only refine across single-predecessor fall-through
    /// chains, so refinement is disabled at these join points.
    jump_targets: BitSet,
    /// Operand values of the conditional currently being transferred,
    /// captured before the pop so `refine_edge` can test feasibility.
    branch_ops: (PredVal, PredVal),
}

impl PredicateFlow {
    fn new(method: &Method) -> PredicateFlow {
        let mut jump_targets = BitSet::new(method.code.len() + 1);
        for insn in &method.code {
            if let Some(t) = insn.branch_target() {
                jump_targets.insert(t as usize);
            }
        }
        for e in &method.exception_table {
            jump_targets.insert(e.handler as usize);
        }
        PredicateFlow {
            jump_targets,
            branch_ops: (PredVal::Top, PredVal::Top),
        }
    }

    /// The instruction at `bci` has `bci - 1` as its only predecessor (a
    /// straight fall-through chain), so facts about the instructions just
    /// before it hold on every path reaching it.
    fn straightline(&self, method: &Method, bci: usize) -> bool {
        bci > 0 && method.code[bci - 1].falls_through() && !self.jump_targets.contains(bci)
    }

    fn fold(insn: Insn, a: PredVal, b: PredVal) -> PredVal {
        let (PredVal::Const(x), PredVal::Const(y)) = (a, b) else {
            return PredVal::Top;
        };
        match insn {
            Insn::Add => PredVal::Const(x.wrapping_add(y)),
            Insn::Sub => PredVal::Const(x.wrapping_sub(y)),
            Insn::Mul => PredVal::Const(x.wrapping_mul(y)),
            Insn::And => PredVal::Const(x & y),
            Insn::Or => PredVal::Const(x | y),
            Insn::Xor => PredVal::Const(x ^ y),
            // Shifts/division fold less often than they complicate; Top.
            _ => PredVal::Top,
        }
    }
}

impl ForwardAnalysis for PredicateFlow {
    type State = Frame<PredVal>;

    fn boundary(&self, method: &Method) -> Frame<PredVal> {
        Frame::new(method, PredVal::Top, ())
    }

    fn handler_boundary(&self, method: &Method) -> Option<Frame<PredVal>> {
        // Handler entry: unknown locals, stack holding the (non-null)
        // caught exception. Seeding keeps handler-only code solved so the
        // dead-edge computation covers it.
        let mut frame = Frame::new(method, PredVal::Top, ());
        frame.push(PredVal::NonNull);
        Some(frame)
    }

    fn transfer(
        &mut self,
        program: &Program,
        _method: &Method,
        _bci: usize,
        insn: Insn,
        f: &mut Frame<PredVal>,
    ) {
        match insn {
            Insn::Const(c) => f.push(PredVal::Const(c)),
            Insn::ConstNull => f.push(PredVal::Null),
            Insn::Add | Insn::Sub | Insn::Mul | Insn::And | Insn::Or | Insn::Xor => {
                let b = f.pop();
                let a = f.pop();
                f.push(Self::fold(insn, a, b));
            }
            Insn::Neg => {
                let folded = match f.pop() {
                    PredVal::Const(x) => PredVal::Const(x.wrapping_neg()),
                    _ => PredVal::Top,
                };
                f.push(folded);
            }
            Insn::New(_) | Insn::NewArray(_) => f.apply(program, insn, PredVal::NonNull),
            Insn::InstanceOf(_) => {
                // `instanceof null` is 0; anything else is unknown.
                let r = f.pop();
                f.push(match r {
                    PredVal::Null => PredVal::Const(0),
                    _ => PredVal::Top,
                });
            }
            Insn::IfCmp(..)
            | Insn::IfRefEq(_)
            | Insn::IfRefNe(_)
            | Insn::IfNull(_)
            | Insn::IfNonNull(_) => {
                let ops = f.pop_n(insn.pops());
                self.branch_ops = (ops[0], ops.get(1).copied().unwrap_or(PredVal::Top));
            }
            _ => f.apply(program, insn, PredVal::Top),
        }
    }

    fn refine_edge(
        &mut self,
        method: &Method,
        bci: usize,
        insn: Insn,
        edge: EdgeKind,
        f: &mut Frame<PredVal>,
    ) -> bool {
        let (a, b) = self.branch_ops;
        let taken = edge == EdgeKind::Taken;
        let feasible = match insn {
            Insn::IfCmp(op, _) => match (a, b) {
                (PredVal::Const(x), PredVal::Const(y)) => op.apply(x, y) == taken,
                _ => true,
            },
            Insn::IfNull(_) => match a {
                PredVal::Null => taken,
                PredVal::NonNull => !taken,
                _ => true,
            },
            Insn::IfNonNull(_) => match a {
                PredVal::NonNull => taken,
                PredVal::Null => !taken,
                _ => true,
            },
            Insn::IfRefEq(_) => match (a, b) {
                (PredVal::Null, PredVal::Null) => taken,
                (PredVal::Null, PredVal::NonNull) | (PredVal::NonNull, PredVal::Null) => !taken,
                _ => true,
            },
            Insn::IfRefNe(_) => match (a, b) {
                (PredVal::Null, PredVal::Null) => !taken,
                (PredVal::Null, PredVal::NonNull) | (PredVal::NonNull, PredVal::Null) => taken,
                _ => true,
            },
            _ => return true,
        };
        if !feasible {
            return false;
        }
        // Syntactic operand refinement along the surviving edge, valid
        // only when the operand-producing instructions fall straight into
        // the branch (no join in between).
        match insn {
            Insn::IfNull(_) | Insn::IfNonNull(_) if self.straightline(method, bci) => {
                if let Insn::Load(n) = method.code[bci - 1] {
                    let null_side = matches!(insn, Insn::IfNull(_)) == taken;
                    f.locals[n as usize] = if null_side {
                        PredVal::Null
                    } else {
                        PredVal::NonNull
                    };
                }
            }
            Insn::IfCmp(op @ (CmpOp::Eq | CmpOp::Ne), _)
                if bci >= 2
                    && self.straightline(method, bci)
                    && self.straightline(method, bci - 1) =>
            {
                if let (Insn::Load(n), Insn::Const(k)) =
                    (method.code[bci - 2], method.code[bci - 1])
                {
                    if (op == CmpOp::Eq) == taken {
                        f.locals[n as usize] = PredVal::Const(k);
                    }
                }
            }
            _ => {}
        }
        true
    }
}

/// Conditional edges proven infeasible by the predicate analysis. Derived
/// *after* the fixpoint from the final entry states (collecting during
/// solving would over-report: states only rise toward `Top` as the solver
/// iterates). Unreachable instructions contribute all their edges.
fn dead_edges(program: &Program, method: &Method) -> BTreeSet<(usize, EdgeKind)> {
    let mut flow = PredicateFlow::new(method);
    let states = solve_forward(program, method, &mut flow);
    let mut dead = BTreeSet::new();
    for (bci, &insn) in method.code.iter().enumerate() {
        let Some(entry) = &states[bci] else {
            for (_, kind) in edges(insn, bci) {
                dead.insert((bci, kind));
            }
            continue;
        };
        if insn.branch_target().is_none() || !insn.falls_through() {
            continue; // only conditionals can have infeasible edges
        }
        let mut state = entry.clone();
        flow.transfer(program, method, bci, insn, &mut state);
        for (_, kind) in edges(insn, bci) {
            if !flow.refine_edge(method, bci, insn, kind, &mut state.clone()) {
                dead.insert((bci, kind));
            }
        }
    }
    dead
}

// ---------------------------------------------------------------------------
// CFG views and reachability.

/// Instruction-level CFG views the qualification reasons over.
struct FlowCfg {
    /// Normal + exceptional edges, unpruned — mirrors what the graph
    /// builder parses; used for [`ThrowPath`] and doom analysis.
    all: Vec<Vec<usize>>,
    /// Normal + exceptional edges minus predicate-dead edges; used to
    /// test event reachability and find guarding branches.
    pruned: Vec<Vec<usize>>,
    /// Conditionals with two distinct live targets in `pruned`.
    pruned_branches: Vec<(usize, usize, usize)>,
    /// Conditionals with two distinct targets in `all`.
    all_branches: Vec<(usize, usize, usize)>,
    /// Bcis reachable from entry over `pruned`.
    pruned_reach: BitSet,
    /// Bcis reachable from entry over pruned *normal* edges only; an event
    /// outside this but inside `pruned_reach` is reachable only through
    /// handlers.
    normal_reach: BitSet,
    /// Bcis from which a return is reachable over `all`; an instruction
    /// outside this set is *doomed* — every continuation throws.
    ret_reach: BitSet,
}

impl FlowCfg {
    fn build(method: &Method, dead: &BTreeSet<(usize, EdgeKind)>) -> FlowCfg {
        let code = &method.code;
        let n = code.len();
        let mut all: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut pruned: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut pruned_normal: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (bci, &insn) in code.iter().enumerate() {
            for (t, kind) in edges(insn, bci) {
                push_edge(&mut all[bci], t);
                if !dead.contains(&(bci, kind)) {
                    push_edge(&mut pruned[bci], t);
                    push_edge(&mut pruned_normal[bci], t);
                }
            }
        }
        for e in &method.exception_table {
            let h = e.handler as usize;
            let end = (e.end as usize).min(n);
            for bci in e.start as usize..end {
                push_edge(&mut all[bci], h);
                push_edge(&mut pruned[bci], h);
            }
        }
        let mut pruned_branches = Vec::new();
        let mut all_branches = Vec::new();
        for (bci, &insn) in code.iter().enumerate() {
            let (Some(t), true) = (insn.branch_target(), insn.falls_through()) else {
                continue;
            };
            let (taken, fall) = (t as usize, bci + 1);
            if taken == fall {
                continue;
            }
            all_branches.push((bci, taken, fall));
            if !dead.contains(&(bci, EdgeKind::Taken))
                && !dead.contains(&(bci, EdgeKind::FallThrough))
            {
                pruned_branches.push((bci, taken, fall));
            }
        }
        FlowCfg {
            pruned_reach: reach_from(&pruned, 0, None),
            normal_reach: reach_from(&pruned_normal, 0, None),
            ret_reach: returns_reachable(method, &all),
            all,
            pruned,
            pruned_branches,
            all_branches,
        }
    }
}

fn push_edge(out: &mut Vec<usize>, t: usize) {
    if !out.contains(&t) {
        out.push(t);
    }
}

/// Forward reachability from `start`, optionally with one edge removed.
fn reach_from(succs: &[Vec<usize>], start: usize, skip: Option<(usize, usize)>) -> BitSet {
    let mut seen = BitSet::new(succs.len());
    if start >= succs.len() {
        return seen;
    }
    seen.insert(start);
    let mut work = vec![start];
    while let Some(bci) = work.pop() {
        for &s in &succs[bci] {
            if skip == Some((bci, s)) || seen.contains(s) {
                continue;
            }
            seen.insert(s);
            work.push(s);
        }
    }
    seen
}

/// Bcis from which some `return`/`retv` is reachable over `succs`.
fn returns_reachable(method: &Method, succs: &[Vec<usize>]) -> BitSet {
    let n = method.code.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (bci, out) in succs.iter().enumerate() {
        for &s in out {
            preds[s].push(bci);
        }
    }
    let mut seen = BitSet::new(n);
    let mut work = Vec::new();
    for (bci, insn) in method.code.iter().enumerate() {
        if matches!(insn, Insn::Return | Insn::ReturnValue) {
            seen.insert(bci);
            work.push(bci);
        }
    }
    while let Some(bci) = work.pop() {
        for &p in &preds[bci] {
            if !seen.contains(p) {
                seen.insert(p);
                work.push(p);
            }
        }
    }
    seen
}

// ---------------------------------------------------------------------------
// Event qualification.

fn qualify(
    method: &Method,
    cfg: &FlowCfg,
    class: EscapeClass,
    events: &[(u32, EscapeClass)],
) -> PathEscape {
    if class == EscapeClass::NoEscape {
        return PathEscape::NoEscape;
    }
    // Only the class-defining events qualify, and only where the pruned
    // CFG can still reach them.
    let qualifying: Vec<usize> = events
        .iter()
        .filter(|&&(_, c)| c == class)
        .map(|&(b, _)| b as usize)
        .filter(|&b| cfg.pruned_reach.contains(b))
        .collect();
    if qualifying.is_empty() {
        // The class arose only on predicate-dead paths (or purely through
        // closure): stay conservative rather than claim a vacuous
        // qualification.
        return PathEscape::GlobalEscape;
    }
    let throwish = |b: usize| {
        matches!(method.code[b], Insn::Athrow)
            || !cfg.ret_reach.contains(b)
            || !cfg.normal_reach.contains(b)
    };
    if qualifying.iter().all(|&b| throwish(b)) {
        return PathEscape::EscapesOnThrowPathOnly;
    }
    // A single conditional whose one edge dominates every event: removing
    // that edge must make all of them unreachable. Deepest such branch
    // (max bci) wins — it is the tightest guard.
    let mut best: Option<usize> = None;
    for &(b, taken, fall) in &cfg.pruned_branches {
        if !cfg.pruned_reach.contains(b) {
            continue;
        }
        for tgt in [taken, fall] {
            let r = reach_from(&cfg.pruned, 0, Some((b, tgt)));
            if qualifying.iter().all(|&e| !r.contains(e)) {
                best = Some(best.map_or(b, |prev: usize| prev.max(b)));
            }
        }
    }
    match best {
        Some(b) => PathEscape::EscapesOnColdBranch(b as u32),
        None => PathEscape::GlobalEscape,
    }
}

// ---------------------------------------------------------------------------
// Path-qualified throw behaviour.

fn compute_throw_path(method: &Method, cfg: &FlowCfg, may_throw: bool) -> ThrowPath {
    if !may_throw {
        return ThrowPath::Never;
    }
    let entry_reach = reach_from(&cfg.all, 0, None);
    let athrows: Vec<usize> = method
        .code
        .iter()
        .enumerate()
        .filter(|&(bci, insn)| matches!(insn, Insn::Athrow) && entry_reach.contains(bci))
        .map(|(bci, _)| bci)
        .collect();
    if athrows.is_empty() {
        return ThrowPath::CalleesOnly;
    }
    let any_return = method.code.iter().enumerate().any(|(bci, insn)| {
        matches!(insn, Insn::Return | Insn::ReturnValue) && entry_reach.contains(bci)
    });
    if !any_return {
        return ThrowPath::Always;
    }
    let mut guards: Vec<ThrowGuard> = Vec::new();
    for &a in &athrows {
        let mut found: Option<ThrowGuard> = None;
        for &(b, taken, fall) in &cfg.all_branches {
            if !entry_reach.contains(b) {
                continue;
            }
            let guard = if !reach_from(&cfg.all, 0, Some((b, taken))).contains(a) {
                Some(ThrowGuard {
                    bci: b as u32,
                    throw_on_taken: true,
                })
            } else if !reach_from(&cfg.all, 0, Some((b, fall))).contains(a) {
                Some(ThrowGuard {
                    bci: b as u32,
                    throw_on_taken: false,
                })
            } else {
                None
            };
            if let Some(g) = guard {
                // Keep the tightest (deepest) guard for this athrow.
                found = Some(match found {
                    Some(prev) if prev.bci >= g.bci => prev,
                    _ => g,
                });
            }
        }
        match found {
            Some(g) => {
                if !guards.contains(&g) {
                    guards.push(g);
                }
            }
            None => return ThrowPath::Sometimes,
        }
    }
    guards.sort_by_key(|g| g.bci);
    ThrowPath::Guarded(guards)
}

// ---------------------------------------------------------------------------
// Certain-escape must-analysis.

/// How a slot relates to the analyzed site's (latest) allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Track {
    /// The slot may hold the object on some path.
    may: bool,
    /// The slot holds the object on every path.
    must: bool,
}

impl Join for Track {
    fn join(&mut self, other: &Track) -> bool {
        let next = Track {
            may: self.may || other.may,
            must: self.must && other.must,
        };
        let changed = next != *self;
        *self = next;
        changed
    }
}

/// Must-analysis for one `GlobalEscape` site: does the object escape
/// globally on **every** path from its allocation, with no observable or
/// faulting instruction while it is live? If so, PEA's deferral of the
/// allocation to the materialization point is indistinguishable from
/// allocating eagerly — withholding the site from PEA would give
/// identical results and allocation counts.
///
/// The frame's extra bit is *live*: the object has been allocated and not
/// yet published on some path reaching here. A slot that may hold the
/// object implies live, and publication clears every slot. The checks are
/// deliberately strict: any faulting instruction (it would abort before
/// PEA ever materializes), any other allocation (handle numbering must not
/// shift), any branch *on* the object, and any call that does not
/// certainly publish it all disqualify the site.
struct CertainFlow<'a> {
    site_bci: usize,
    /// Per-method, per-parameter publishes-on-every-path bits (the
    /// interprocedural `publishes_immediately`), when available.
    publishes: Option<&'a [Vec<bool>]>,
    failed: bool,
    saw_site: bool,
}

fn publish(f: &mut Frame<Track, bool>) {
    for t in f.locals.iter_mut().chain(&mut f.stack) {
        *t = Track::default();
    }
    f.extra = false;
}

impl ForwardAnalysis for CertainFlow<'_> {
    type State = Frame<Track, bool>;

    fn boundary(&self, method: &Method) -> Frame<Track, bool> {
        Frame::new(method, Track::default(), false)
    }

    fn transfer(
        &mut self,
        program: &Program,
        _method: &Method,
        bci: usize,
        insn: Insn,
        f: &mut Frame<Track, bool>,
    ) {
        let live = f.extra;
        match insn {
            Insn::New(_) | Insn::NewArray(_) => {
                // Another allocation while ours is live would reorder
                // handle assignment (and `newarray` can fault); a
                // re-allocation of our own site while a prior instance is
                // live breaks the one-object tracking.
                self.failed |= live;
                let ours = bci == self.site_bci;
                if ours {
                    self.saw_site = true;
                    f.extra = true;
                }
                let track = Track {
                    may: ours,
                    must: ours,
                };
                f.apply(program, insn, track);
            }
            // Branching on the object itself makes publication
            // path-dependent in ways this must-analysis cannot track.
            Insn::IfCmp(..)
            | Insn::IfRefEq(_)
            | Insn::IfRefNe(_)
            | Insn::IfNull(_)
            | Insn::IfNonNull(_) => {
                self.failed |= f.pop_n(insn.pops()).iter().any(|t| t.may);
            }
            // Publishing the object ends its live region (thrown, it is a
            // thrown-escape: PEA materializes exactly at the throw). An
            // unrelated value may be stored while the object is live —
            // that cannot fault — but not thrown.
            Insn::PutStatic(_) | Insn::Athrow => {
                let v = f.pop();
                if v.must {
                    publish(f);
                } else {
                    self.failed |= v.may || (live && insn == Insn::Athrow);
                }
            }
            Insn::InvokeStatic(target) => {
                let (argc, _) = arity(program, insn);
                let row = self.publishes.map(|p| &p[target.index()]);
                let mut published = false;
                for idx in 0..argc {
                    let arg = f.peek(argc - idx);
                    if arg.must && row.is_some_and(|r| r.get(idx) == Some(&true)) {
                        published = true;
                    } else {
                        self.failed |= arg.may;
                    }
                }
                f.apply(program, insn, Track::default());
                if published {
                    publish(f);
                } else {
                    // The callee may fault, observe globals, or allocate
                    // before our deferred allocation materializes.
                    self.failed |= live;
                }
            }
            // Moves, constants, static reads and non-faulting arithmetic.
            Insn::Load(_)
            | Insn::Store(_)
            | Insn::Dup
            | Insn::Swap
            | Insn::Pop
            | Insn::Const(_)
            | Insn::ConstNull
            | Insn::GetStatic(_)
            | Insn::Goto(_)
            | Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::And
            | Insn::Or
            | Insn::Xor
            | Insn::Shl
            | Insn::Shr
            | Insn::Neg => f.apply(program, insn, Track::default()),
            // Everything else can fault, observe the heap, run unknown
            // code or leave the method: disallowed while the object is
            // live (a fault would abort before PEA's materialization
            // point; the allocation counts would differ).
            _ => {
                self.failed |= live;
                f.apply(program, insn, Track::default());
            }
        }
    }
}

/// Whether the `GlobalEscape` site at `site_bci` escapes on every path
/// from its allocation with nothing observable in between (see
/// [`CertainFlow`]). Methods with exception tables are skipped wholesale:
/// exceptional edges would let control leave the live region invisibly.
fn certainly_escapes(
    program: &Program,
    method: &Method,
    site_bci: u32,
    publishes: Option<&[Vec<bool>]>,
) -> bool {
    if !method.exception_table.is_empty() {
        return false;
    }
    let mut flow = CertainFlow {
        site_bci: site_bci as usize,
        publishes,
        failed: false,
        saw_site: false,
    };
    solve_forward(program, method, &mut flow);
    flow.saw_site && !flow.failed
}

/// Fills the branch-aware fields of a freshly computed summary: each
/// site's `path` and `certain_global`, the throw path and the
/// throw-path-only parameters. `param_events` are the parameters' escape
/// events, parallel to `param_escape`.
pub(crate) fn qualify_method(
    program: &Program,
    method: &Method,
    summary: &mut MethodSummary,
    param_events: &[Vec<(u32, EscapeClass)>],
    publishes: Option<&[Vec<bool>]>,
) {
    let cfg = FlowCfg::build(method, &dead_edges(program, method));
    for site in &mut summary.sites {
        site.path = qualify(method, &cfg, site.escape, &site.events);
        site.certain_global = site.escape == EscapeClass::GlobalEscape
            && certainly_escapes(program, method, site.bci, publishes);
    }
    summary.throw_path = compute_throw_path(method, &cfg, summary.may_throw);
    summary.publishes_on_throw_only = summary
        .param_escape
        .iter()
        .zip(param_events)
        .map(|(&class, events)| {
            class == EscapeClass::GlobalEscape
                && qualify(method, &cfg, class, events) == PathEscape::EscapesOnThrowPathOnly
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape::analyze_method;
    use pea_bytecode::asm::parse_program;

    fn flow(src: &str, name: &str) -> MethodSummary {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let id = program.static_method_by_name(name).unwrap();
        analyze_method(&program, id, None, None)
    }

    #[test]
    fn no_escape_site_stays_no_escape() {
        let s = flow(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
            "m",
        );
        assert_eq!(s.sites[0].path, PathEscape::NoEscape);
        assert!(!s.sites[0].certain_global);
        assert_eq!(s.throw_path, ThrowPath::Never);
    }

    #[test]
    fn throw_only_publication_is_qualified() {
        // The Err is built and thrown on one arm; the other arm returns.
        let s = flow(
            "class Err { field code int }
             method m 1 returns {
                load 0 const 0 ifcmp eq Lok
                new Err store 1
                load 1 load 0 putfield Err.code
                load 1 athrow
             Lok: const 0 retv
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert_eq!(s.sites[0].path, PathEscape::EscapesOnThrowPathOnly);
        // The athrow sits behind the ifcmp guard at bci 2 (fall side).
        match &s.throw_path {
            ThrowPath::Guarded(gs) => {
                assert_eq!(gs.len(), 1);
                assert_eq!(gs[0].bci, 2);
                assert!(!gs[0].throw_on_taken, "throw is on the fall-through side");
            }
            other => panic!("expected Guarded, got {other:?}"),
        }
    }

    #[test]
    fn guarded_publication_is_cold_branch_and_certain() {
        // Publication via a local behind a branch: flow-insensitively
        // GlobalEscape (not syntactically immediate), but every path from
        // the allocation publishes with nothing observable in between —
        // the certain-escape pattern.
        let s = flow(
            "class Box { field v int }
             static g ref
             method m 1 {
                load 0 const 7 ifcmp ne Lskip
                new Box store 1
                load 1 putstatic g
             Lskip: ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert_eq!(s.sites[0].path, PathEscape::EscapesOnColdBranch(2));
        assert!(
            s.sites[0].certain_global,
            "all paths from the alloc publish"
        );
    }

    #[test]
    fn hot_path_publication_stays_global() {
        let s = flow(
            "class Box { field v int }
             static g ref
             method m 0 { new Box store 0 load 0 putstatic g ret }",
            "m",
        );
        assert_eq!(s.sites[0].path, PathEscape::GlobalEscape);
        assert!(s.sites[0].certain_global);
    }

    #[test]
    fn observable_op_while_live_is_not_certain() {
        // A getfield (can fault) between allocation and publication: the
        // deferred allocation is distinguishable, so not certain.
        let s = flow(
            "class Box { field v int }
             static g ref
             method m 1 {
                new Box store 1
                load 0 checkcast Box getfield Box.v pop
                load 1 putstatic g ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(!s.sites[0].certain_global);
    }

    #[test]
    fn escaping_path_without_publication_is_not_certain() {
        // One arm returns without publishing: must-publish fails.
        let s = flow(
            "class Box { field v int }
             static g ref
             method m 1 {
                new Box store 1
                load 0 const 0 ifcmp eq Lout
                load 1 putstatic g
             Lout: ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(!s.sites[0].certain_global);
    }

    #[test]
    fn predicate_dead_edge_prunes_publication() {
        // `const 1 const 0 ifcmp eq` never takes the branch: the
        // publication behind it is predicate-dead, and the (conservative)
        // verdict falls back to GlobalEscape rather than inventing a
        // NoEscape the insensitive tier did not prove.
        let s = flow(
            "class Box { field v int }
             static g ref
             method m 0 {
                new Box store 0
                const 1 const 0 ifcmp eq Lpub
                ret
             Lpub: load 0 putstatic g ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert_eq!(s.sites[0].path, PathEscape::GlobalEscape);
        assert!(!s.sites[0].certain_global, "publication path is dead");
    }

    #[test]
    fn constant_local_flow_kills_guarded_edge() {
        // Local 1 is the constant 3 on the fall side of the eq-compare;
        // the second compare `load 1 const 3 ifcmp ne` can then never be
        // taken, so the publication behind it is unreachable.
        let s = flow(
            "class Box { field v int }
             static g ref
             method m 1 {
                new Box store 2
                load 0 const 3 ifcmp ne Lout
                load 0 store 1
                load 1 const 3 ifcmp ne Lpub
             Lout: ret
             Lpub: load 2 putstatic g ret
             }",
            "m",
        );
        // Local 0 is Const(3) along the first compare's fall side, so the
        // copy into local 1 is too, and the second compare's taken (ne)
        // edge is infeasible: the publication is predicate-dead and the
        // verdict falls back to the conservative GlobalEscape instead of
        // the EscapesOnColdBranch a non-predicate analysis would report.
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert_eq!(s.sites[0].path, PathEscape::GlobalEscape);
    }

    #[test]
    fn throws_on_every_path_is_always() {
        let s = flow(
            "class Err { }
             method m 0 { new Err athrow }",
            "m",
        );
        assert_eq!(s.throw_path, ThrowPath::Always);
        assert_eq!(s.sites[0].path, PathEscape::EscapesOnThrowPathOnly);
    }

    #[test]
    fn callee_only_throws_are_transparent() {
        let s = flow(
            "class Err { }
             method thrower 0 { new Err athrow }
             method m 0 { invokestatic thrower ret }",
            "m",
        );
        assert_eq!(s.throw_path, ThrowPath::CalleesOnly);
    }

    #[test]
    fn publishes_param_on_throw_path_only() {
        // The parameter is published only inside the doomed (throwing)
        // arm.
        let s = flow(
            "class Err { }
             static g ref
             method m 2 {
                load 0 const 0 ifcmp eq Lok
                load 1 putstatic g
                new Err athrow
             Lok: ret
             }",
            "m",
        );
        assert_eq!(s.publishes_on_throw_only, vec![false, true]);
    }
}
