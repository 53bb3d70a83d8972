//! Flow-insensitive, conservative escape pre-analysis.
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

use crate::dataflow::{solve_forward, BitSet, ForwardAnalysis};
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

/// Per-site analysis result.
#[derive(Clone, Debug)]
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
    /// is `putstatic` (or `athrow`) consuming the fresh reference. A
    /// reporting fact, not a compiler input: the `athrow` form is *not*
    /// an escape when a handler inside the compilation unit catches it
    /// (DESIGN §4f).
    pub immediate_global: bool,
}

impl AllocSite {
    /// Whether any execution could hold a monitor on this object: it is
    /// locked directly, may reach a callee (which may lock it), or escapes
    /// the method entirely.
    pub fn may_be_locked(&self) -> bool {
        self.locked || self.passed_to_call || self.escape != EscapeClass::NoEscape
    }
}

/// Result of [`analyze_method`]: one entry per allocation site, in
/// bytecode order, plus per-parameter escape verdicts.
#[derive(Clone, Debug)]
pub struct EscapeSummary {
    pub method: MethodId,
    pub sites: Vec<AllocSite>,
    /// Escape class of each parameter *as caused by this method* (and,
    /// when analyzed with a [`CalleeOracle`], its transitive callees):
    /// `GlobalEscape` means a caller-passed object may become reachable
    /// from a static by calling this method.
    pub param_escape: Vec<EscapeClass>,
    /// The method returns a value and every returned source is one of its
    /// own allocation sites — inlining the method exposes a fresh
    /// allocation to the caller's compilation unit.
    pub returns_fresh: bool,
    /// Some `athrow` in this method may throw one of its own allocation
    /// sites — the site is published through the exception edge and PEA
    /// materializes it at the throw (`thrown-escape`).
    pub throws_fresh: bool,
    /// Per-site escape *events*: every `(bci, class)` pair at which the
    /// site's references were raised above `NoEscape` during solving
    /// (publication points, call arguments, returns, throws — including
    /// events inherited through the contents closure). The branch-aware
    /// layer (`crate::flow`) qualifies these against the CFG to decide
    /// whether a site escapes only on exception or cold paths. Indexed
    /// parallel to [`sites`](Self::sites).
    pub site_events: Vec<Vec<(u32, EscapeClass)>>,
    /// Escape events of each parameter, parallel to
    /// [`param_escape`](Self::param_escape).
    pub param_events: Vec<Vec<(u32, EscapeClass)>>,
}

impl EscapeSummary {
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

/// Supplies per-parameter escape verdicts for call targets, letting the
/// per-method flow raise call arguments only as far as the callee (join
/// of possible callees for virtual dispatch) actually forces. Without an
/// oracle every argument is blanket-raised to `ArgEscape`; an oracle can
/// only *add* `GlobalEscape` upgrades on top of that floor, so
/// oracle-driven results are always at least as severe as the
/// intraprocedural ones.
pub trait CalleeOracle {
    /// Escape class a call to `target` imposes on its argument at
    /// parameter position `idx` (receiver = position 0). Virtual calls
    /// must join over every possible concrete target.
    fn call_arg_class(&self, target: MethodId, virtual_call: bool, idx: usize) -> EscapeClass;
}

/// Abstract frame: per-local and per-stack-slot source sets.
#[derive(Clone, PartialEq, Eq)]
struct Frame {
    locals: Vec<BitSet>,
    stack: Vec<BitSet>,
}

struct EscapeFlow<'a> {
    /// Site bcis, defining source indices `0..n_sites`.
    site_bcis: Vec<u32>,
    n_sites: usize,
    n_params: usize,
    /// Monotone per-source escape class (`n_sites + n_params + 1` entries;
    /// the last is the *unknown* source, pinned at `GlobalEscape`).
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
    /// Optional per-callee parameter verdicts (interprocedural mode).
    oracle: Option<&'a dyn CalleeOracle>,
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
    fn n_sources(&self) -> usize {
        self.n_sites + self.n_params + 1
    }

    fn unknown_bit(&self) -> usize {
        self.n_sources() - 1
    }

    fn empty(&self) -> BitSet {
        BitSet::new(self.n_sources())
    }

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
            if src < self.n_sites {
                let grown = self.contents[src].union_with(value);
                self.grew |= grown;
            } else if src == self.unknown_bit() {
                into_unknown = true;
            } else {
                into_param = true;
                let grown = self.contents[src].union_with(value);
                self.grew |= grown;
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
        let mut out = self.empty();
        for src in container.iter() {
            if src == self.unknown_bit() {
                out.insert(self.unknown_bit());
            } else {
                // Both allocation sites and parameter objects surface their
                // recorded contents; parameters additionally surface unknown
                // caller-written values.
                out.union_with(&self.contents[src]);
                if src >= self.n_sites {
                    out.insert(self.unknown_bit());
                }
            }
        }
        out
    }

    fn mark_locked(&mut self, set: &BitSet) {
        self.grew |= self.locked.union_with(set);
    }
}

impl ForwardAnalysis for EscapeFlow<'_> {
    type State = Frame;

    fn boundary(&mut self, _program: &Program, method: &Method) -> Frame {
        let mut locals = vec![self.empty(); method.max_locals as usize];
        for (p, slot) in locals.iter_mut().enumerate().take(self.n_params) {
            slot.insert(self.n_sites + p);
        }
        Frame {
            locals,
            stack: Vec::new(),
        }
    }

    fn join(a: &mut Frame, b: &Frame) -> bool {
        let mut changed = false;
        for (x, y) in a.locals.iter_mut().zip(&b.locals) {
            changed |= x.union_with(y);
        }
        // The verifier guarantees equal stack heights at joins.
        for (x, y) in a.stack.iter_mut().zip(&b.stack) {
            changed |= x.union_with(y);
        }
        changed
    }

    fn handler_boundary(&mut self, _program: &Program, method: &Method) -> Option<Frame> {
        // Catch handlers enter with the operand stack cleared to just the
        // caught exception. Flow-insensitively we know neither which throw
        // site reached the handler nor what the locals held at that point,
        // so every slot gets the full source universe: any site, any
        // parameter, or unknown (a callee's exception dispatches in this
        // frame too). Anything the handler publishes is then raised for
        // *all* sources — coarse, but sound, and the module contract only
        // promises that `NoEscape` is definitive.
        let mut all = self.empty();
        for src in 0..self.n_sources() {
            all.insert(src);
        }
        Some(Frame {
            locals: vec![all.clone(); method.max_locals as usize],
            stack: vec![all],
        })
    }

    fn transfer(
        &mut self,
        program: &Program,
        _method: &Method,
        bci: usize,
        insn: Insn,
        state: &mut Frame,
    ) {
        self.cur_bci = bci as u32;
        let empty = self.empty();
        match insn {
            Insn::Load(n) => state.stack.push(state.locals[n as usize].clone()),
            Insn::Store(n) => {
                let v = state.stack.pop().expect("verified stack");
                state.locals[n as usize] = v;
            }
            Insn::New(_) | Insn::NewArray(_) => {
                if matches!(insn, Insn::NewArray(_)) {
                    state.stack.pop(); // length
                }
                let site = self
                    .site_bcis
                    .iter()
                    .position(|&b| b == bci as u32)
                    .expect("every allocation is a site");
                let mut s = self.empty();
                s.insert(site);
                state.stack.push(s);
            }
            Insn::Dup => {
                let top = state.stack.last().expect("verified stack").clone();
                state.stack.push(top);
            }
            Insn::Swap => {
                let n = state.stack.len();
                state.stack.swap(n - 1, n - 2);
            }
            Insn::GetField(_) => {
                let obj = state.stack.pop().expect("verified stack");
                state.stack.push(self.loaded_from(&obj));
            }
            Insn::PutField(_) => {
                let value = state.stack.pop().expect("verified stack");
                let obj = state.stack.pop().expect("verified stack");
                self.flow_into(&obj, &value);
            }
            Insn::ArrayLoad => {
                state.stack.pop(); // index
                let arr = state.stack.pop().expect("verified stack");
                state.stack.push(self.loaded_from(&arr));
            }
            Insn::ArrayStore => {
                let value = state.stack.pop().expect("verified stack");
                state.stack.pop(); // index
                let arr = state.stack.pop().expect("verified stack");
                self.flow_into(&arr, &value);
            }
            Insn::GetStatic(_) => {
                let mut s = self.empty();
                s.insert(self.unknown_bit());
                state.stack.push(s);
            }
            Insn::PutStatic(_) => {
                let value = state.stack.pop().expect("verified stack");
                self.raise(&value, EscapeClass::GlobalEscape);
            }
            Insn::MonitorEnter | Insn::MonitorExit => {
                let obj = state.stack.pop().expect("verified stack");
                self.mark_locked(&obj);
            }
            Insn::InvokeStatic(target) | Insn::InvokeVirtual(target) => {
                let callee = program.method(target);
                let virtual_call = matches!(insn, Insn::InvokeVirtual(_));
                // Arguments pop in reverse: top of stack is the last
                // parameter.
                for idx in (0..callee.param_count as usize).rev() {
                    let arg = state.stack.pop().expect("verified stack");
                    let class = match self.oracle {
                        Some(oracle) => oracle
                            .call_arg_class(target, virtual_call, idx)
                            .max(EscapeClass::ArgEscape),
                        None => EscapeClass::ArgEscape,
                    };
                    self.raise(&arg, class);
                    self.grew |= self.called.union_with(&arg);
                }
                if callee.returns_value {
                    let mut s = self.empty();
                    s.insert(self.unknown_bit());
                    state.stack.push(s);
                }
            }
            Insn::ReturnValue => {
                let value = state.stack.pop().expect("verified stack");
                self.raise(&value, EscapeClass::ArgEscape);
                self.grew |= self.returned.union_with(&value);
            }
            Insn::Throw => {
                let value = state.stack.pop().expect("verified stack");
                self.raise(&value, EscapeClass::GlobalEscape);
            }
            Insn::Athrow => {
                // The exception edge is a publication point: once thrown,
                // the object is visible to handler code here or in any
                // (transitive) caller, and PEA materializes it at the
                // corresponding `Unwind` exit. Flow-insensitively we cannot
                // tell a locally-caught throw from an escaping one, so
                // raise to GlobalEscape — PEA staying more optimistic on
                // caught paths is exactly the allowed direction.
                let value = state.stack.pop().expect("verified stack");
                self.raise(&value, EscapeClass::GlobalEscape);
                self.grew |= self.thrown.union_with(&value);
            }
            Insn::CheckCast(_) => {} // identity on the reference
            Insn::InstanceOf(_) | Insn::ArrayLength | Insn::Neg => {
                state.stack.pop();
                state.stack.push(empty);
            }
            other => {
                // Pure stack arithmetic/control: pop/push integer results,
                // which carry no sources.
                for _ in 0..other.pops() {
                    state.stack.pop().expect("verified stack");
                }
                for _ in 0..other.pushes() {
                    state.stack.push(empty.clone());
                }
            }
        }
    }
}

/// Runs the escape pre-analysis over one (verified) method, with no
/// knowledge of callees (every call argument is raised to `ArgEscape`).
pub fn analyze_method(program: &Program, method_id: MethodId) -> EscapeSummary {
    analyze_method_with(program, method_id, None)
}

/// Runs the escape pre-analysis over one (verified) method, raising call
/// arguments per the oracle's callee verdicts (see [`CalleeOracle`]).
pub fn analyze_method_with(
    program: &Program,
    method_id: MethodId,
    oracle: Option<&dyn CalleeOracle>,
) -> EscapeSummary {
    let method = program.method(method_id);
    let sites = alloc_sites(method);
    let n_sites = sites.len();
    let n_params = method.param_count as usize;
    let n_sources = n_sites + n_params + 1;
    let mut flow = EscapeFlow {
        site_bcis: sites.iter().map(|&(b, _)| b).collect(),
        n_sites,
        n_params,
        escape: vec![EscapeClass::NoEscape; n_sources],
        contents: vec![BitSet::new(n_sources); n_sources],
        locked: BitSet::new(n_sources),
        called: BitSet::new(n_sources),
        returned: BitSet::new(n_sources),
        thrown: BitSet::new(n_sources),
        oracle,
        grew: false,
        cur_bci: 0,
        event_bcis: vec![BTreeSet::new(); n_sources],
    };
    *flow.escape.last_mut().expect("unknown source") = EscapeClass::GlobalEscape;
    if method.is_synchronized {
        let mut receiver = flow.empty();
        receiver.insert(n_sites); // param 0
        flow.mark_locked(&receiver);
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
    let returns_fresh = method.returns_value
        && flow.returned.iter().next().is_some()
        && flow.returned.iter().all(|src| src < n_sites);
    let throws_fresh = flow.thrown.iter().any(|src| src < n_sites);
    EscapeSummary {
        method: method_id,
        sites: sites
            .into_iter()
            .enumerate()
            .map(|(i, (bci, kind))| AllocSite {
                bci,
                kind,
                escape: flow.escape[i],
                locked: flow.locked.contains(i),
                passed_to_call: flow.called.contains(i),
                immediate_global: immediate.contains(&bci),
            })
            .collect(),
        param_escape: (0..n_params).map(|p| flow.escape[n_sites + p]).collect(),
        returns_fresh,
        throws_fresh,
        site_events: (0..n_sites)
            .map(|i| flow.event_bcis[i].iter().copied().collect())
            .collect(),
        param_events: (0..n_params)
            .map(|p| flow.event_bcis[n_sites + p].iter().copied().collect())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn summary(src: &str, method: &str) -> EscapeSummary {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let id = program.static_method_by_name(method).unwrap();
        analyze_method(&program, id)
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
            s.site_events[0].contains(&(6, EscapeClass::GlobalEscape)),
            "{:?}",
            s.site_events[0]
        );
        assert!(
            s.site_events[0]
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
        let pub_bci = s.site_events[0]
            .iter()
            .find(|&&(_, c)| c == EscapeClass::GlobalEscape)
            .expect("array has a global event")
            .0;
        assert!(
            s.site_events[1].contains(&(pub_bci, EscapeClass::GlobalEscape)),
            "element inherits the array's publication event: {:?}",
            s.site_events[1]
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
