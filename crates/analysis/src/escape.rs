//! Flow-insensitive, conservative escape pre-analysis, and the one entry
//! point that summarizes a method: [`analyze_method`].
//!
//! Every `new`/`newarray` site in a method is classified on the classic
//! three-point lattice
//!
//! ```text
//! NoEscape  <  ArgEscape  <  GlobalEscape
//! ```
//!
//! following whole-method escape analyses built by abstract interpretation
//! (Hill & Spoto). The analysis runs the forward [`crate::dataflow`] solver
//! with **source sets** as the abstract value: each stack slot and local
//! holds the set of allocation sites, parameters, and/or the *unknown*
//! source that may have produced it. Escaping operations (stores to
//! statics, call arguments, returns) raise the class of every source in the
//! operand set; stores into tracked objects record field *contents* so that
//! later loads re-surface the stored sources (this is what makes the
//! verdicts sound against PEA's load elision, which forwards stored values
//! directly).
//!
//! The analysis **over-approximates**: it may report `ArgEscape` or
//! `GlobalEscape` for an object that dynamically never leaves the method,
//! but a `NoEscape` verdict is definitive. That direction is exactly what
//! the sanitizer needs: it only *rejects* PEA decisions that contradict a
//! `NoEscape` proof.
//!
//! [`analyze_method`] then hands the result to the branch-aware tier
//! ([`crate::flow`]), which qualifies *where* each site escapes, and returns
//! both in one [`MethodSummary`] with one [`AllocSite`] record per site.

use crate::dataflow::{arity, solve_forward, BitSet, ForwardAnalysis, Frame};
use crate::flow::{PathEscape, ThrowPath};
use crate::summary::CallGraph;
use pea_bytecode::{ClassId, Insn, Method, MethodId, Program, ValueKind};
use std::collections::BTreeSet;

/// Escape classification of an allocation site, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscapeClass {
    /// The object provably never leaves the method.
    NoEscape,
    /// The object may leave via a call argument, a return value, or a
    /// store into a caller-visible object — but not via a static.
    ArgEscape,
    /// The object may become reachable from a static variable (or flows
    /// into entirely unknown storage).
    GlobalEscape,
}

impl EscapeClass {
    /// Kebab-case tag for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            EscapeClass::NoEscape => "no-escape",
            EscapeClass::ArgEscape => "arg-escape",
            EscapeClass::GlobalEscape => "global-escape",
        }
    }
}

/// What an allocation site allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocKind {
    Instance(ClassId),
    Array(ValueKind),
}

/// Every static verdict on one allocation site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocSite {
    /// Bytecode index of the `new`/`newarray` instruction.
    pub bci: u32,
    pub kind: AllocKind,
    pub escape: EscapeClass,
    /// The site may appear in a `monitorenter`/`monitorexit` operand set
    /// (including via values loaded back out of tracked objects).
    pub locked: bool,
    /// The site may flow into a call argument (including receivers).
    pub passed_to_call: bool,
    /// The allocation is immediately published: the very next instruction
    /// is `putstatic` (or `athrow`) consuming the fresh reference (see
    /// [`immediate_global_sites`]). A reporting fact, not a compiler
    /// input: the `athrow` form is *not* an escape when a handler inside
    /// the compilation unit catches it (DESIGN §4f).
    pub immediate_global: bool,
    /// Escape *events*: every `(bci, class)` pair at which the site's
    /// references were raised above `NoEscape` during solving (publication
    /// points, call arguments, returns, throws — including events
    /// inherited through the contents closure).
    pub events: Vec<(u32, EscapeClass)>,
    /// Where `escape` arises (throw path only, behind one cold guard,
    /// everywhere): the events qualified against the control flow by
    /// [`crate::flow`]. `NoEscape` exactly when `escape` is.
    pub path: PathEscape,
    /// The site escapes globally on **every** path from its allocation
    /// with nothing observable or faulting in between (the flow tier's
    /// certain-escape certificate).
    pub certain_global: bool,
}

impl AllocSite {
    /// Whether any execution could hold a monitor on this object: it is
    /// locked directly, may reach a callee (which may lock it), or escapes
    /// the method entirely.
    pub fn may_be_locked(&self) -> bool {
        self.locked || self.passed_to_call || self.escape != EscapeClass::NoEscape
    }
}

/// Everything [`analyze_method`] knows about one method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodSummary {
    pub method: MethodId,
    /// One record per allocation site, in bytecode order.
    pub sites: Vec<AllocSite>,
    /// Escape class forced on each parameter by this method and, with a
    /// callee table, its transitive callees. `GlobalEscape` means calling
    /// the method may publish the argument to a static.
    pub param_escape: Vec<EscapeClass>,
    /// Parameter `p` is stored to a static before any other effect, on
    /// every path — directly (`load p; putstatic`) or by immediately
    /// forwarding it to a callee that does (transitively). The row of the
    /// publish table the method was analyzed with; all `false` without.
    pub publishes_immediately: Vec<bool>,
    /// The method returns a value and every returned source is one of its
    /// own allocation sites — inlining the method exposes a fresh
    /// allocation to the caller's compilation unit.
    pub returns_fresh: bool,
    /// An exception may be raised while this method is on the stack (the
    /// method's sealed [`pea_bytecode::MethodFacts::may_throw`] bit).
    pub may_throw: bool,
    /// Some `athrow` in this method may throw one of its own allocation
    /// sites — the site is published through the exception edge and PEA
    /// materializes it at the throw (`thrown-escape`). Implies a direct
    /// `athrow`, hence `may_throw`.
    pub throws_fresh: bool,
    /// Where this method's own `athrow`s sit relative to its control flow.
    pub throw_path: ThrowPath,
    /// Per parameter: its `GlobalEscape` verdict arises only on exception
    /// paths. `false` for parameters that do not globally escape at all.
    pub publishes_on_throw_only: Vec<bool>,
}

impl MethodSummary {
    /// The site allocated at `bci`, if any.
    pub fn site_at(&self, bci: u32) -> Option<&AllocSite> {
        self.sites.iter().find(|s| s.bci == bci)
    }
}

/// All `new`/`newarray` sites of a method, in bytecode order.
pub fn alloc_sites(method: &Method) -> Vec<(u32, AllocKind)> {
    method
        .code
        .iter()
        .enumerate()
        .filter_map(|(bci, insn)| match insn {
            Insn::New(c) => Some((bci as u32, AllocKind::Instance(*c))),
            Insn::NewArray(k) => Some((bci as u32, AllocKind::Array(*k))),
            _ => None,
        })
        .collect()
}

/// Bcis of allocations whose fresh reference is consumed by an immediately
/// following `putstatic` or `athrow` — the syntactic subset of
/// `GlobalEscape`. An exception edge is a publication point just like a
/// static store as far as the *method* can tell: the thrown object
/// surfaces to an unknown handler. A compilation can know better — when
/// the handler is in the same method or in the caller the throw was
/// inlined into, PEA scalar-replaces the object entirely (DESIGN §4f) —
/// so this set is reported (`pealint`), never withheld from PEA.
pub fn immediate_global_sites(method: &Method) -> Vec<u32> {
    alloc_sites(method)
        .into_iter()
        .filter(|&(bci, _)| {
            matches!(
                method.code.get(bci as usize + 1),
                Some(Insn::PutStatic(_) | Insn::Athrow)
            )
        })
        .map(|(bci, _)| bci)
        .collect()
}

/// The source universe of the source-set analyses (escape, lock balance):
/// bit `i < n_sites` is the method's `i`-th allocation site, the next
/// `n_params` bits its parameters, and the last bit the *unknown* source.
pub(crate) struct Sources {
    pub sites: Vec<(u32, AllocKind)>,
    pub n_params: usize,
}

impl Sources {
    pub fn new(method: &Method) -> Sources {
        Sources {
            sites: alloc_sites(method),
            n_params: method.param_count as usize,
        }
    }

    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    pub fn len(&self) -> usize {
        self.n_sites() + self.n_params + 1
    }

    pub fn unknown_bit(&self) -> usize {
        self.len() - 1
    }

    pub fn empty(&self) -> BitSet {
        BitSet::new(self.len())
    }

    pub fn single(&self, src: usize) -> BitSet {
        let mut s = self.empty();
        s.insert(src);
        s
    }

    pub fn unknown(&self) -> BitSet {
        self.single(self.unknown_bit())
    }

    /// The singleton set of the site allocated at `bci`.
    pub fn site(&self, bci: usize) -> BitSet {
        let site = self
            .sites
            .iter()
            .position(|&(b, _)| b == bci as u32)
            .expect("every allocation is a site");
        self.single(site)
    }

    /// The entry frame: each parameter local holds its own source.
    pub fn entry<X>(&self, method: &Method, extra: X) -> Frame<BitSet, X> {
        let mut frame = Frame::new(method, self.empty(), extra);
        for (p, slot) in frame.locals.iter_mut().enumerate().take(self.n_params) {
            slot.insert(self.n_sites() + p);
        }
        frame
    }
}

struct EscapeFlow<'a> {
    src: Sources,
    /// Monotone per-source escape class (the unknown source is pinned at
    /// `GlobalEscape`).
    escape: Vec<EscapeClass>,
    /// Per-source over-approximation of everything ever stored into the
    /// object's fields/elements (field- and element-insensitive).
    contents: Vec<BitSet>,
    /// Sources observed as monitor operands.
    locked: BitSet,
    /// Sources observed as call arguments.
    called: BitSet,
    /// Sources observed as return values.
    returned: BitSet,
    /// Sources observed as `athrow` operands.
    thrown: BitSet,
    /// The callee table (interprocedural mode): the call graph and each
    /// method's current parameter classes.
    callees: Option<(&'a CallGraph, &'a [Vec<EscapeClass>])>,
    /// Any global fact grew during the current solver pass.
    grew: bool,
    /// Bci of the instruction currently being transferred — the program
    /// point attributed to escape events raised during that transfer.
    cur_bci: u32,
    /// Per-source escape events: `(bci, class)` for every raise above
    /// `NoEscape` (monotone sets, so re-visits stay idempotent).
    event_bcis: Vec<BTreeSet<(u32, EscapeClass)>>,
}

impl EscapeFlow<'_> {
    fn raise(&mut self, set: &BitSet, to: EscapeClass) {
        for src in set.iter() {
            if self.escape[src] < to {
                self.escape[src] = to;
                self.grew = true;
            }
            if to > EscapeClass::NoEscape {
                self.grew |= self.event_bcis[src].insert((self.cur_bci, to));
            }
        }
    }

    /// Records `value` flowing into the fields of every object in
    /// `container`.
    fn flow_into(&mut self, container: &BitSet, value: &BitSet) {
        let mut into_param = false;
        let mut into_unknown = false;
        for src in container.iter() {
            if src == self.src.unknown_bit() {
                into_unknown = true;
            } else {
                into_param |= src >= self.src.n_sites();
                self.grew |= self.contents[src].union_with(value);
            }
        }
        if into_unknown {
            self.raise(value, EscapeClass::GlobalEscape);
        } else if into_param {
            self.raise(value, EscapeClass::ArgEscape);
        }
    }

    /// The set of sources a load out of `container` may surface.
    fn loaded_from(&self, container: &BitSet) -> BitSet {
        let mut out = self.src.empty();
        for src in container.iter() {
            if src == self.src.unknown_bit() {
                out.insert(src);
            } else {
                // Both allocation sites and parameter objects surface their
                // recorded contents; parameters additionally surface unknown
                // caller-written values.
                out.union_with(&self.contents[src]);
                if src >= self.src.n_sites() {
                    out.insert(self.src.unknown_bit());
                }
            }
        }
        out
    }

    /// Escape class a call to `target` imposes on its argument `idx`
    /// (receiver = 0): `ArgEscape`, raised to the join over the possible
    /// callees' parameter classes when the callee table is known.
    fn call_arg_class(&self, target: MethodId, virtual_call: bool, idx: usize) -> EscapeClass {
        let Some((graph, table)) = self.callees else {
            return EscapeClass::ArgEscape;
        };
        graph
            .possible_targets(target, virtual_call)
            .iter()
            .map(|t| {
                table[t.index()]
                    .get(idx)
                    .copied()
                    .unwrap_or(EscapeClass::GlobalEscape)
            })
            .fold(EscapeClass::ArgEscape, EscapeClass::max)
    }
}

impl ForwardAnalysis for EscapeFlow<'_> {
    type State = Frame<BitSet>;

    fn boundary(&self, method: &Method) -> Frame<BitSet> {
        self.src.entry(method, ())
    }

    fn handler_boundary(&self, method: &Method) -> Option<Frame<BitSet>> {
        // Catch handlers enter with the operand stack cleared to just the
        // caught exception. Flow-insensitively we know neither which throw
        // site reached the handler nor what the locals held at that point,
        // so every slot gets the full source universe: any site, any
        // parameter, or unknown (a callee's exception dispatches in this
        // frame too). Anything the handler publishes is then raised for
        // *all* sources — coarse, but sound, and the module contract only
        // promises that `NoEscape` is definitive.
        let mut all = self.src.empty();
        for src in 0..self.src.len() {
            all.insert(src);
        }
        let mut frame = Frame::new(method, all.clone(), ());
        frame.push(all);
        Some(frame)
    }

    fn transfer(
        &mut self,
        program: &Program,
        _method: &Method,
        bci: usize,
        insn: Insn,
        f: &mut Frame<BitSet>,
    ) {
        self.cur_bci = bci as u32;
        match insn {
            Insn::New(_) | Insn::NewArray(_) => f.apply(program, insn, self.src.site(bci)),
            Insn::GetField(_) | Insn::ArrayLoad => {
                let loaded = self.loaded_from(f.peek(insn.pops()));
                f.apply(program, insn, loaded);
            }
            Insn::PutField(_) | Insn::ArrayStore => {
                self.flow_into(f.peek(insn.pops()), f.peek(1));
                f.apply(program, insn, self.src.empty());
            }
            Insn::GetStatic(_) => f.apply(program, insn, self.src.unknown()),
            // The exception edge is a publication point: once thrown, the
            // object is visible to handler code here or in any (transitive)
            // caller, and PEA materializes it at the corresponding `Unwind`
            // exit. Flow-insensitively we cannot tell a locally-caught throw
            // from an escaping one, so raise to GlobalEscape — PEA staying
            // more optimistic on caught paths is exactly the allowed
            // direction.
            Insn::PutStatic(_) | Insn::Throw | Insn::Athrow => {
                self.raise(f.peek(1), EscapeClass::GlobalEscape);
                if insn == Insn::Athrow {
                    self.grew |= self.thrown.union_with(f.peek(1));
                }
                f.apply(program, insn, self.src.empty());
            }
            Insn::MonitorEnter | Insn::MonitorExit => {
                self.grew |= self.locked.union_with(f.peek(1));
                f.apply(program, insn, self.src.empty());
            }
            Insn::InvokeStatic(target) | Insn::InvokeVirtual(target) => {
                let virtual_call = matches!(insn, Insn::InvokeVirtual(_));
                let (argc, _) = arity(program, insn);
                for idx in 0..argc {
                    let class = self.call_arg_class(target, virtual_call, idx);
                    let arg = f.peek(argc - idx);
                    self.raise(arg, class);
                    self.grew |= self.called.union_with(arg);
                }
                f.apply(program, insn, self.src.unknown());
            }
            Insn::ReturnValue => {
                self.raise(f.peek(1), EscapeClass::ArgEscape);
                self.grew |= self.returned.union_with(f.peek(1));
                f.apply(program, insn, self.src.empty());
            }
            // Integer results carry no sources.
            _ => f.apply(program, insn, self.src.empty()),
        }
    }
}

/// Summarizes one (verified) method: runs the escape pre-analysis, then
/// the branch-aware tier over its result.
///
/// * `callees` is the callee table — the call graph and each method's
///   current parameter classes — that raises call arguments as far as the
///   possible callees force them; `None` is the intraprocedural case,
///   where every argument is raised to `ArgEscape`. A table can only add
///   `GlobalEscape` upgrades on top of that floor.
/// * `publishes` holds every method's `publishes_immediately` row, read
///   by the certain-escape call case; `None` treats every call
///   conservatively.
pub fn analyze_method(
    program: &Program,
    method_id: MethodId,
    callees: Option<(&CallGraph, &[Vec<EscapeClass>])>,
    publishes: Option<&[Vec<bool>]>,
) -> MethodSummary {
    let method = program.method(method_id);
    let src = Sources::new(method);
    let (n_sites, n_params, n_sources) = (src.n_sites(), src.n_params, src.len());
    let mut flow = EscapeFlow {
        escape: vec![EscapeClass::NoEscape; n_sources],
        contents: vec![src.empty(); n_sources],
        locked: src.empty(),
        called: src.empty(),
        returned: src.empty(),
        thrown: src.empty(),
        callees,
        grew: false,
        cur_bci: 0,
        event_bcis: vec![BTreeSet::new(); n_sources],
        src,
    };
    flow.escape[n_sources - 1] = EscapeClass::GlobalEscape;
    if method.is_synchronized {
        flow.locked.insert(n_sites); // the receiver
    }
    // Parameter verdicts matter even for allocation-free methods (the
    // interprocedural fixpoint reads them), so the solver always runs.
    // Global facts (contents, escape) feed back into transfer functions,
    // so re-solve until they stop growing. Termination: all facts are
    // monotone over finite domains.
    loop {
        flow.grew = false;
        solve_forward(program, method, &mut flow);
        if !flow.grew {
            break;
        }
    }
    // Close escape classes over the contents relation: anything stored
    // into an escaping object escapes at least as far, and inherits the
    // container's escape events (the value surfaces wherever the
    // container does, so those bcis qualify its path verdict too).
    loop {
        let mut changed = false;
        for container in 0..n_sources {
            let class = flow.escape[container];
            if class == EscapeClass::NoEscape {
                continue;
            }
            let inherited = flow.event_bcis[container].clone();
            for value in flow.contents[container].clone().iter() {
                if flow.escape[value] < class {
                    flow.escape[value] = class;
                    changed = true;
                }
                if value != container {
                    let before = flow.event_bcis[value].len();
                    flow.event_bcis[value].extend(inherited.iter().copied());
                    changed |= flow.event_bcis[value].len() != before;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let immediate = immediate_global_sites(method);
    let events = |src: usize| flow.event_bcis[src].iter().copied().collect::<Vec<_>>();
    let mut summary = MethodSummary {
        method: method_id,
        sites: flow
            .src
            .sites
            .iter()
            .enumerate()
            .map(|(i, &(bci, kind))| AllocSite {
                bci,
                kind,
                escape: flow.escape[i],
                locked: flow.locked.contains(i),
                passed_to_call: flow.called.contains(i),
                immediate_global: immediate.contains(&bci),
                events: events(i),
                path: PathEscape::NoEscape,
                certain_global: false,
            })
            .collect(),
        param_escape: flow.escape[n_sites..n_sites + n_params].to_vec(),
        publishes_immediately: publishes
            .map_or_else(|| vec![false; n_params], |p| p[method_id.index()].clone()),
        returns_fresh: method.returns_value
            && !flow.returned.is_empty()
            && flow.returned.iter().all(|src| src < n_sites),
        may_throw: program.facts(method_id).may_throw(),
        throws_fresh: flow.thrown.iter().any(|src| src < n_sites),
        throw_path: ThrowPath::Never,
        publishes_on_throw_only: Vec::new(),
    };
    let param_events: Vec<_> = (n_sites..n_sites + n_params).map(events).collect();
    crate::flow::qualify_method(program, method, &mut summary, &param_events, publishes);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn summary(src: &str, method: &str) -> MethodSummary {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let id = program.static_method_by_name(method).unwrap();
        analyze_method(&program, id, None, None)
    }

    #[test]
    fn purely_local_object_does_not_escape() {
        let s = summary(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
            "m",
        );
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].escape, EscapeClass::NoEscape);
        assert!(!s.sites[0].may_be_locked());
        assert!(!s.sites[0].immediate_global);
    }

    #[test]
    fn returned_object_arg_escapes() {
        let s = summary(
            "class Box { field v int }
             method m 0 returns { new Box retv }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::ArgEscape);
    }

    #[test]
    fn published_object_global_escapes_and_is_immediate() {
        let s = summary(
            "class Box { field v int }
             static g ref
             method m 0 { new Box putstatic g ret }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(s.sites[0].immediate_global);
    }

    #[test]
    fn publication_via_local_is_global_but_not_immediate() {
        let s = summary(
            "class Box { field v int }
             static g ref
             method m 0 { new Box store 0 load 0 putstatic g ret }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(!s.sites[0].immediate_global);
    }

    #[test]
    fn store_into_published_container_escapes_transitively() {
        let s = summary(
            "class Node { field next ref }
             static g ref
             method m 0 {
                new Node store 0
                new Node store 1
                load 0 load 1 putfield Node.next
                load 0 putstatic g ret
             }",
            "m",
        );
        // Both the container and the stored object are global.
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert_eq!(s.sites[1].escape, EscapeClass::GlobalEscape);
    }

    #[test]
    fn store_into_parameter_object_arg_escapes() {
        let s = summary(
            "class Node { field next ref }
             method m 1 {
                new Node store 1
                load 0 checkcast Node load 1 putfield Node.next ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::ArgEscape);
    }

    #[test]
    fn call_argument_arg_escapes_and_may_be_locked() {
        let s = summary(
            "class Box { field v int }
             method callee 1 { ret }
             method m 0 {
                new Box invokestatic callee ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::ArgEscape);
        assert!(s.sites[0].passed_to_call);
        assert!(s.sites[0].may_be_locked());
    }

    #[test]
    fn lock_through_reloaded_field_is_seen() {
        // The object is locked via a value loaded back out of a tracked
        // container — exactly the flow PEA's load elision shortcuts.
        let s = summary(
            "class Holder { field obj ref }
             class Box { field v int }
             method m 0 {
                new Holder store 0
                new Box store 1
                load 0 load 1 putfield Holder.obj
                load 0 getfield Holder.obj monitorenter
                load 0 getfield Holder.obj monitorexit
                ret
             }",
            "m",
        );
        let boxsite = &s.sites[1];
        assert_eq!(boxsite.escape, EscapeClass::NoEscape);
        assert!(boxsite.locked, "lock through elidable load must be seen");
        assert!(boxsite.may_be_locked());
        assert!(!s.sites[0].locked);
    }

    #[test]
    fn loop_carried_store_reaches_fixpoint() {
        // a.next = b inside a loop where a and b swap: both sites end up in
        // each other's contents; neither escapes.
        let s = summary(
            "class Node { field next ref }
             method m 1 {
                new Node store 1
                new Node store 2
             L: load 0 const 0 ifcmp le Ld
                load 1 load 2 putfield Node.next
                load 1 store 3 load 2 store 1 load 3 store 2
                load 0 const 1 sub store 0
                goto L
             Ld: ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::NoEscape);
        assert_eq!(s.sites[1].escape, EscapeClass::NoEscape);
    }

    #[test]
    fn array_element_flow_tracked() {
        let s = summary(
            "class Box { field v int }
             static g ref
             method m 0 {
                const 1 newarray ref store 0
                new Box store 1
                load 0 const 0 load 1 astore
                load 0 putstatic g ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape, "the array");
        assert_eq!(s.sites[1].escape, EscapeClass::GlobalEscape, "the element");
    }

    #[test]
    fn thrown_allocation_global_escapes_and_is_fresh() {
        // The exception edge is a publication point: a thrown site must
        // never be NoEscape, and the summary records the fresh throw.
        let s = summary(
            "class Err { field code int }
             method m 1 {
                load 0 const 0 ifcmp eq Ldone
                new Err athrow
             Ldone: ret
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(s.throws_fresh);
        // `new Err athrow` is a throw-publishing site: immediately
        // global just like `new ... putstatic`.
        assert!(s.sites[0].immediate_global);
    }

    #[test]
    fn stored_then_thrown_allocation_is_not_immediate() {
        // Publication through a local is real (GlobalEscape) but not
        // syntactically immediate — only the flow analysis sees it.
        let s = summary(
            "class Err { field code int }
             method m 1 {
                new Err store 1
                load 1 load 0 putfield Err.code
                load 1 athrow
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(s.throws_fresh);
        assert!(!s.sites[0].immediate_global);
    }

    #[test]
    fn rethrown_parameter_is_not_a_fresh_throw() {
        let s = summary("method m 1 { load 0 athrow }", "m");
        assert!(s.sites.is_empty());
        assert!(!s.throws_fresh);
        assert_eq!(s.param_escape, vec![EscapeClass::GlobalEscape]);
    }

    #[test]
    fn publication_inside_catch_handler_is_seen() {
        // The handler block is reachable only through the exceptional edge;
        // without handler seeding the putstatic below would never be
        // analyzed and the Box would keep an (unsound) NoEscape verdict.
        let s = summary(
            "class Box { field v int }
             class Err { }
             static g ref
             method m 1 {
                try Ls Le Lh *
             Ls:
                new Box store 1
                load 0 const 0 ifcmp eq Ldone
                new Err athrow
             Le:
             Ldone: ret
             Lh:
                pop
                load 1 putstatic g
                ret
             }",
            "m",
        );
        let boxsite = s.site_at(0).expect("new Box is the bci-0 site");
        assert_eq!(boxsite.escape, EscapeClass::GlobalEscape);
    }

    #[test]
    fn method_without_handlers_is_unaffected_by_seeding() {
        // Sanity: the conservative handler state only applies to methods
        // that actually have exception tables.
        let s = summary(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::NoEscape);
        assert!(!s.throws_fresh);
    }

    #[test]
    fn escape_events_name_the_publication_point() {
        // The `athrow` is bci 6: the global-escape event for the site
        // must be attributed there, not to the allocation.
        let s = summary(
            "class Err { field code int }
             method m 1 {
                new Err store 1
                load 1 load 0 putfield Err.code
                load 1 athrow
             }",
            "m",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(
            s.sites[0].events.contains(&(6, EscapeClass::GlobalEscape)),
            "{:?}",
            s.sites[0].events
        );
        assert!(
            s.sites[0]
                .events
                .iter()
                .all(|&(_, c)| c > EscapeClass::NoEscape),
            "only above-NoEscape raises are events"
        );
    }

    #[test]
    fn events_inherited_through_contents_closure() {
        // The element is published only because the array is: it must
        // inherit the array's putstatic event bci.
        let s = summary(
            "class Box { field v int }
             static g ref
             method m 0 {
                const 1 newarray ref store 0
                new Box store 1
                load 0 const 0 load 1 astore
                load 0 putstatic g ret
             }",
            "m",
        );
        let pub_bci = s.sites[0]
            .events
            .iter()
            .find(|&&(_, c)| c == EscapeClass::GlobalEscape)
            .expect("array has a global event")
            .0;
        assert!(
            s.sites[1]
                .events
                .contains(&(pub_bci, EscapeClass::GlobalEscape)),
            "element inherits the array's publication event: {:?}",
            s.sites[1].events
        );
    }

    #[test]
    fn paper_cache_key_escapes_globally_but_not_immediately() {
        // The running example: the fresh Key is compared on the hit path
        // and published to `cacheKey` on the miss path. Flow-insensitively
        // it must be GlobalEscape (PEA's win is exactly that it is *not*
        // flow-insensitive), and it is not an immediate publication.
        let s = summary(
            "class Key { field idx int field ref ref }
             static cacheKey ref
             static cacheValue int
             method virtual Key.equals 2 returns { const 1 retv }
             method getValue 1 returns {
                new Key store 1
                load 1 load 0 putfield Key.idx
                load 1 getstatic cacheKey invokevirtual Key.equals
                const 0 ifcmp eq Lmiss
                getstatic cacheValue retv
             Lmiss:
                load 1 putstatic cacheKey
                load 0 const 13 mul putstatic cacheValue
                getstatic cacheValue retv
             }",
            "getValue",
        );
        assert_eq!(s.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(!s.sites[0].immediate_global);
        assert!(s.sites[0].passed_to_call, "receiver of Key.equals");
    }
}
