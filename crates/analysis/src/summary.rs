//! Interprocedural escape summaries over a program call graph.
//!
//! The per-method pre-analysis in [`crate::escape`] must assume that any
//! object passed to a call escapes as an argument — it cannot see what the
//! callee does. This module closes that gap with the classic cheap
//! interprocedural recipe (Choi-style summaries, as revived by SkipFlow
//! and summary-based points-to work): build a closed-world call graph,
//! give every method a small reusable [`MethodSummary`] — the escape class
//! each *parameter* is forced to by the callee subtree, whether the method
//! *immediately publishes* a parameter to a static, and whether it returns
//! a fresh allocation — and iterate to a fixpoint with a worklist seeded
//! optimistically at `NoEscape`.
//!
//! The one consumer is reporting (`pealint`, the benchmark's `analysis`
//! layer): the compiler reads no summary. What it reports is the
//! "immediately published" site set widened across call edges — an
//! allocation whose very next instruction hands the fresh reference to a
//! callee that provably publishes that parameter *before doing anything
//! else* escapes globally in every calling context, exactly like a site
//! followed by a direct `putstatic` (see
//! [`ProgramSummaries::excluded_sites`]). The compiler does not consume
//! these sets either (DESIGN §4f has the shape on which withholding them
//! from PEA costs an allocation).
//!
//! Summaries depend only on bytecode, never on profiles.

use crate::escape::{
    alloc_sites, analyze_method, immediate_global_sites, EscapeClass, MethodSummary,
};
use pea_bytecode::{ClassId, Insn, MethodId, Program};
use std::collections::VecDeque;

/// A closed-world program call graph: static calls resolve to their
/// target, virtual calls to every implementation reachable by
/// class-hierarchy analysis (the same enumeration the graph builder uses
/// to devirtualize).
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Per caller: deduplicated possible concrete callees, sorted.
    callees: Vec<Vec<MethodId>>,
    /// Inverse edges: per method, the callers that may reach it.
    callers: Vec<Vec<MethodId>>,
    /// Per declared method: the concrete implementations a virtual call
    /// naming it may dispatch to.
    virtual_impls: Vec<Vec<MethodId>>,
}

impl CallGraph {
    /// Builds the call graph of a (verified) program.
    pub fn build(program: &Program) -> CallGraph {
        let n = program.methods.len();
        let mut virtual_impls: Vec<Vec<MethodId>> = vec![Vec::new(); n];
        for (t, target) in program.methods.iter().enumerate() {
            if target.is_static {
                continue;
            }
            let tid = MethodId::from_index(t);
            let mut impls: Vec<MethodId> = (0..program.classes.len())
                .filter_map(|c| program.resolve_virtual(ClassId::from_index(c), tid).ok())
                .collect();
            impls.sort_by_key(|m| m.index());
            impls.dedup();
            virtual_impls[t] = impls;
        }
        let mut callees: Vec<Vec<MethodId>> = vec![Vec::new(); n];
        for (m, method) in program.methods.iter().enumerate() {
            let mut out = Vec::new();
            for insn in &method.code {
                match insn {
                    Insn::InvokeStatic(t) => out.push(*t),
                    Insn::InvokeVirtual(t) => out.extend(&virtual_impls[t.index()]),
                    _ => {}
                }
            }
            out.sort_by_key(|m| m.index());
            out.dedup();
            callees[m] = out;
        }
        let mut callers: Vec<Vec<MethodId>> = vec![Vec::new(); n];
        for (m, outs) in callees.iter().enumerate() {
            for t in outs {
                callers[t.index()].push(MethodId::from_index(m));
            }
        }
        for ins in &mut callers {
            ins.sort_by_key(|m| m.index());
            ins.dedup();
        }
        CallGraph {
            callees,
            callers,
            virtual_impls,
        }
    }

    /// Possible concrete callees of `caller`, deduplicated.
    pub fn callees(&self, caller: MethodId) -> &[MethodId] {
        &self.callees[caller.index()]
    }

    /// Methods that may call `callee`, deduplicated.
    pub fn callers(&self, callee: MethodId) -> &[MethodId] {
        &self.callers[callee.index()]
    }

    /// Concrete methods a call naming `target` may reach: the target
    /// itself for static calls, the CHA implementation set for virtual
    /// ones.
    pub fn possible_targets(&self, target: MethodId, virtual_call: bool) -> Vec<MethodId> {
        if virtual_call {
            self.virtual_impls[target.index()].clone()
        } else {
            vec![target]
        }
    }

    /// Total number of call edges (caller → possible concrete callee).
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }
}

/// Per-method summaries for a whole program, at fixpoint over the call
/// graph. Each site's verdicts are refined with callee knowledge: compared
/// to the intraprocedural [`analyze_method`] they can only be *upgraded*
/// (to `GlobalEscape` where a callee publishes the argument) — the
/// sanitizer keeps using the intraprocedural verdicts, because a refined
/// `GlobalEscape` site may still legitimately stay virtual under
/// flow-sensitive PEA until the residual call.
#[derive(Clone, Debug)]
pub struct ProgramSummaries {
    pub call_graph: CallGraph,
    methods: Vec<MethodSummary>,
}

impl ProgramSummaries {
    /// Computes summaries for every method of a (verified) program by
    /// worklist fixpoint: parameter verdicts start optimistically at
    /// `NoEscape` and are monotonically raised as each method is
    /// re-analyzed with its callees' current verdicts; when a method's
    /// verdicts change, its callers are re-queued. Terminates because the
    /// lattice has height two per parameter.
    ///
    /// A method's last pass saw its callees' final verdicts (any later
    /// change would have re-queued it), so that pass is its summary.
    pub fn compute(program: &Program) -> ProgramSummaries {
        let graph = CallGraph::build(program);
        let publishes = compute_immediate_publishes(program);
        let n = program.methods.len();
        let mut table: Vec<Vec<EscapeClass>> = program
            .methods
            .iter()
            .map(|m| vec![EscapeClass::NoEscape; m.param_count as usize])
            .collect();
        let mut methods: Vec<Option<MethodSummary>> = vec![None; n];
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        while let Some(mi) = queue.pop_front() {
            queued[mi] = false;
            let id = MethodId::from_index(mi);
            let summary = analyze_method(program, id, Some((&graph, &table)), Some(&publishes));
            if summary.param_escape != table[mi] {
                table[mi] = summary.param_escape.clone();
                for caller in graph.callers(id) {
                    if !queued[caller.index()] {
                        queued[caller.index()] = true;
                        queue.push_back(caller.index());
                    }
                }
            }
            methods[mi] = Some(summary);
        }
        ProgramSummaries {
            call_graph: graph,
            methods: methods.into_iter().flatten().collect(),
        }
    }

    /// The summary of one method.
    pub fn summary(&self, method: MethodId) -> &MethodSummary {
        &self.methods[method.index()]
    }

    /// All summaries, in method order.
    pub fn all(&self) -> &[MethodSummary] {
        &self.methods
    }

    /// Bcis of `method`'s allocation sites the method itself publishes at
    /// once: the immediately-published sites (`new; putstatic`, `new;
    /// athrow`), plus sites whose fresh reference is the
    /// immediately following static call's last argument where the callee
    /// [`MethodSummary::publishes_immediately`] — the object is globally
    /// published before anything else can happen to it. Always a superset
    /// of [`immediate_global_sites`].
    pub fn excluded_sites(&self, program: &Program, method: MethodId) -> Vec<u32> {
        let m = program.method(method);
        let mut out = immediate_global_sites(m);
        for (bci, _) in alloc_sites(m) {
            if let Some(Insn::InvokeStatic(t)) = m.code.get(bci as usize + 1) {
                let callee = &self.methods[t.index()];
                let last = program.method(*t).param_count as usize;
                if last >= 1 && callee.publishes_immediately[last - 1] {
                    out.push(bci);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The branch-aware widening of [`excluded_sites`](Self::excluded_sites):
    /// additionally lists every *certain-escape* site — one that escapes
    /// globally on **all** paths from its allocation with nothing
    /// observable or faulting in between (see
    /// [`crate::AllocSite::certain_global`]). Sites that publish only
    /// on exception or cold paths are deliberately *not* listed: those are
    /// exactly where flow-sensitive PEA wins. Always a superset of
    /// `excluded_sites`.
    pub fn excluded_sites_flow(&self, program: &Program, method: MethodId) -> Vec<u32> {
        let mut out = self.excluded_sites(program, method);
        for site in &self.methods[method.index()].sites {
            if site.certain_global {
                out.push(site.bci);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Least fixpoint of the syntactic "publishes parameter `p` before any
/// other effect" predicate: the method body starts with `load p` followed
/// by either `putstatic` or a unary static call whose callee publishes
/// *its* parameter immediately. Cycles stay `false` (no base case ever
/// justifies them).
fn compute_immediate_publishes(program: &Program) -> Vec<Vec<bool>> {
    let mut publishes: Vec<Vec<bool>> = program
        .methods
        .iter()
        .map(|m| vec![false; m.param_count as usize])
        .collect();
    loop {
        let mut changed = false;
        for (mi, method) in program.methods.iter().enumerate() {
            let Some(Insn::Load(p)) = method.code.first() else {
                continue;
            };
            let p = *p as usize;
            if p >= publishes[mi].len() || publishes[mi][p] {
                continue;
            }
            let justified = match method.code.get(1) {
                Some(Insn::PutStatic(_)) => true,
                Some(Insn::InvokeStatic(t)) => {
                    program.method(*t).param_count == 1 && publishes[t.index()][0]
                }
                _ => false,
            };
            if justified {
                publishes[mi][p] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    publishes
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn summaries(src: &str) -> (Program, ProgramSummaries) {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let s = ProgramSummaries::compute(&program);
        (program, s)
    }

    fn method(program: &Program, name: &str) -> MethodId {
        program.static_method_by_name(name).unwrap()
    }

    #[test]
    fn call_graph_static_and_virtual_edges() {
        let (program, s) = summaries(
            "class A { }
             class B extends A { }
             method virtual A.f 1 returns { const 1 retv }
             method virtual B.f 1 returns { const 2 retv }
             method leaf 0 { ret }
             method m 1 returns {
                load 0 checkcast A invokevirtual A.f
                invokestatic leaf
                const 0 retv
             }",
        );
        let m = method(&program, "m");
        let af = program.methods.iter().position(|x| x.name == "f").unwrap();
        let callees = s.call_graph.callees(m);
        // leaf, A.f and B.f are all possible callees of m.
        assert_eq!(callees.len(), 3);
        assert!(
            s.call_graph
                .possible_targets(MethodId::from_index(af), true)
                .len()
                == 2
        );
        assert!(s.call_graph.callers(method(&program, "leaf")).contains(&m));
        assert!(s.call_graph.edge_count() >= 3);
    }

    #[test]
    fn publishing_callee_raises_caller_param_to_global() {
        let (program, s) = summaries(
            "class Box { field v int }
             static g ref
             method publish 1 { load 0 putstatic g ret }
             method wrap 1 { load 0 invokestatic publish ret }
             method keep 1 { ret }",
        );
        let publish = s.summary(method(&program, "publish"));
        assert_eq!(publish.param_escape, vec![EscapeClass::GlobalEscape]);
        assert_eq!(publish.publishes_immediately, vec![true]);
        // `wrap` transitively publishes through `publish`.
        let wrap = s.summary(method(&program, "wrap"));
        assert_eq!(wrap.param_escape, vec![EscapeClass::GlobalEscape]);
        assert_eq!(wrap.publishes_immediately, vec![true]);
        // `keep` never touches its parameter.
        let keep = s.summary(method(&program, "keep"));
        assert_eq!(keep.param_escape, vec![EscapeClass::NoEscape]);
        assert_eq!(keep.publishes_immediately, vec![false]);
    }

    #[test]
    fn excluded_sites_widen_immediate_global_through_calls() {
        let (program, s) = summaries(
            "class Box { field v int }
             static g ref
             static h ref
             method publish 1 { load 0 putstatic g ret }
             method wrap 1 { load 0 invokestatic publish ret }
             method keep 1 { ret }
             method m 0 {
                new Box putstatic h
                new Box invokestatic publish
                new Box invokestatic wrap
                new Box invokestatic keep
                new Box store 0
                ret
             }",
        );
        let mid = method(&program, "m");
        let m = program.method(mid);
        let immediate = immediate_global_sites(m);
        let excluded = s.excluded_sites(&program, mid);
        // Superset of the intraprocedural exclusion...
        for bci in &immediate {
            assert!(excluded.contains(bci));
        }
        // ...that additionally catches the direct and transitive publish
        // helpers, but not the non-retaining callee or the local store.
        assert_eq!(immediate.len(), 1);
        assert_eq!(excluded.len(), 3);
        // Every excluded site is GlobalEscape in the refined summary.
        let sm = s.summary(mid);
        for bci in &excluded {
            assert_eq!(
                sm.sites.iter().find(|x| x.bci == *bci).unwrap().escape,
                EscapeClass::GlobalEscape
            );
        }
        // The site passed to `keep` stays ArgEscape even refined.
        assert_eq!(sm.sites[3].escape, EscapeClass::ArgEscape);
    }

    #[test]
    fn excluded_sites_flow_adds_certain_guarded_publication() {
        // Publication via a local behind a branch: invisible to the
        // syntactic `excluded_sites` (not an immediate `putstatic` nor a
        // publishing call), but the flow tier proves the site escapes on
        // every path from its allocation with nothing observable in
        // between.
        let (program, s) = summaries(
            "class Box { field v int }
             static g ref
             method m 1 {
                load 0 const 7 ifcmp ne Lskip
                new Box store 1
                load 1 putstatic g
             Lskip: ret
             }",
        );
        let mid = method(&program, "m");
        assert!(s.excluded_sites(&program, mid).is_empty());
        assert_eq!(s.excluded_sites_flow(&program, mid), vec![3]);
        let fs = s.summary(mid);
        assert!(fs.site_at(3).unwrap().certain_global);
    }

    #[test]
    fn excluded_sites_flow_is_superset_of_ipa() {
        let (program, s) = summaries(
            "class Box { field v int }
             static g ref
             static h ref
             method publish 1 { load 0 putstatic g ret }
             method m 0 {
                new Box putstatic h
                new Box invokestatic publish
                new Box store 0
                ret
             }",
        );
        let mid = method(&program, "m");
        let ipa = s.excluded_sites(&program, mid);
        let flow = s.excluded_sites_flow(&program, mid);
        for bci in &ipa {
            assert!(flow.contains(bci));
        }
    }

    #[test]
    fn recursive_publish_chain_stays_unjustified() {
        // a forwards to b forwards to a: no base case, so neither
        // "publishes immediately" — exclusion must not fire.
        let (program, s) = summaries(
            "class Box { }
             method a 1 { load 0 invokestatic b ret }
             method b 1 { load 0 invokestatic a ret }
             method m 0 { new Box invokestatic a ret }",
        );
        let a = s.summary(method(&program, "a"));
        assert_eq!(a.publishes_immediately, vec![false]);
        assert!(s.excluded_sites(&program, method(&program, "m")).is_empty());
    }

    #[test]
    fn conditional_publish_is_not_immediate() {
        // The callee publishes only on one branch: the parameter is
        // GlobalEscape (may be published) but not an immediate publish —
        // flow-sensitive PEA can still win on the other path, so the site
        // must not be excluded.
        let (program, s) = summaries(
            "class Box { field v int }
             static g ref
             method maybe 2 {
                load 0 const 0 ifcmp eq Ldone
                load 1 putstatic g
             Ldone: ret
             }
             method m 1 { load 0 new Box invokestatic maybe ret }",
        );
        let maybe = s.summary(method(&program, "maybe"));
        assert_eq!(maybe.param_escape[1], EscapeClass::GlobalEscape);
        assert_eq!(maybe.publishes_immediately, vec![false, false]);
        // The fresh Box is the call's last argument and the callee *may*
        // publish it — the refined site verdict is GlobalEscape — but the
        // publish is conditional, so the site is not excludable.
        let sm = s.summary(method(&program, "m"));
        assert_eq!(sm.sites[0].escape, EscapeClass::GlobalEscape);
        assert!(s.excluded_sites(&program, method(&program, "m")).is_empty());
    }

    #[test]
    fn virtual_call_joins_over_implementations() {
        // One implementation publishes, the other does not: the join must
        // be GlobalEscape for the argument.
        let (program, s) = summaries(
            "class A { }
             class B extends A { }
             static g ref
             method virtual A.sink 2 { ret }
             method virtual B.sink 2 { load 1 putstatic g ret }
             method m 1 returns {
                load 0 checkcast A store 1
                new A load 1 swap invokevirtual A.sink
                const 0 retv
             }",
        );
        let mid = method(&program, "m");
        let sm = s.summary(mid);
        // The fresh A is passed as the last argument of a virtual call
        // that *may* dispatch to the publishing B.sink.
        assert_eq!(sm.sites[0].escape, EscapeClass::GlobalEscape);
        // But publication is conditional on dispatch: not excludable.
        assert!(s.excluded_sites(&program, mid).is_empty());
    }

    #[test]
    fn returns_fresh_detected() {
        let (program, s) = summaries(
            "class Box { field v int }
             method mk 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 retv
             }
             method id 1 returns { load 0 retv }",
        );
        assert!(s.summary(method(&program, "mk")).returns_fresh);
        assert!(!s.summary(method(&program, "id")).returns_fresh);
    }

    #[test]
    fn may_throw_propagates_caller_ward() {
        let (program, s) = summaries(
            "class Err { field code int }
             method boom 1 {
                load 0 const 0 ifcmp eq Ldone
                new Err athrow
             Ldone: ret
             }
             method wraps 1 { load 0 invokestatic boom ret }
             method outer 1 { load 0 invokestatic wraps ret }
             method calm 1 { ret }",
        );
        let boom = s.summary(method(&program, "boom"));
        assert!(boom.may_throw);
        assert!(boom.throws_fresh, "throws its own fresh Err");
        // Callers inherit may-throw transitively but not throws_fresh
        // (they throw nothing of their own).
        let wraps = s.summary(method(&program, "wraps"));
        let outer = s.summary(method(&program, "outer"));
        assert!(wraps.may_throw && !wraps.throws_fresh);
        assert!(outer.may_throw && !outer.throws_fresh);
        let calm = s.summary(method(&program, "calm"));
        assert!(!calm.may_throw && !calm.throws_fresh);
    }

    #[test]
    fn throws_fresh_implies_may_throw_everywhere() {
        // The invariant pealint re-checks over CALLGRAPH.json: a fresh
        // throw requires a direct athrow, which is a may-throw seed.
        let (_, s) = summaries(
            "class Err { }
             method rethrow 1 { load 0 athrow }
             method fresh 0 { new Err athrow }
             method caller 0 { invokestatic fresh ret }",
        );
        for m in s.all() {
            assert!(!m.throws_fresh || m.may_throw, "method {:?}", m.method);
        }
    }

    #[test]
    fn fixpoint_is_stable() {
        // Recomputing with the final table as oracle changes nothing —
        // the pealint consistency check relies on this.
        let (program, s) = summaries(
            "class Box { }
             static g ref
             method publish 1 { load 0 putstatic g ret }
             method wrap 1 { load 0 invokestatic publish ret }
             method m 0 { new Box invokestatic wrap ret }",
        );
        let again = ProgramSummaries::compute(&program);
        for (a, b) in s.all().iter().zip(again.all()) {
            assert_eq!(a.param_escape, b.param_escape);
            assert_eq!(a.publishes_immediately, b.publishes_immediately);
        }
    }
}
