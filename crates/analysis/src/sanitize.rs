//! The PEA decision sanitizer: cross-checks the speculative partial escape
//! analysis against the conservative static verdicts.
//!
//! PEA is allowed to be *more* optimistic than the flow-insensitive
//! pre-analysis — that is its entire point (the paper's running example is
//! `GlobalEscape` flow-insensitively yet fully scalar-replaced on the hot
//! path). But it can never be optimistic about things the static analysis
//! *proves*:
//!
//! * an allocation the static analysis classifies `NoEscape` can never
//!   materialize for a *direct escape* reason — reaching a residual call
//!   argument, a return, a throw, or an `Unwind` exit (`thrown-escape`)
//!   requires a corresponding bytecode-level flow the pre-analysis would
//!   have seen (the exception edge is a publication point there too:
//!   `athrow` raises its operand set in the pre-analysis, so a thrown site
//!   is never NoEscape; stores into escaped containers are excluded — the
//!   *container's* dynamic state decides those);
//! * a `LockElided` event on a site the static analysis proves is never a
//!   monitor operand (and never reaches a callee or escapes) is a phantom
//!   lock;
//! * elided enter/exit node counts per site only diverge when the object
//!   materialized mid-critical-section (§5.2 — later exits become real
//!   operations on the materialized object);
//! * every post-PEA frame state must carry *closed* rematerialization
//!   info: layout-consistent inputs, live nodes, virtual-object mappings
//!   with exactly one value per field slot, and lock counts within the
//!   static balance bound (paper §5.5).
//!
//! Any violation is a compiler bug, surfaced as an [`Inconsistency`];
//! `tests/compile_golden.rs` and `pealint` fail on any.

use crate::escape::{analyze_method, AllocKind, AllocSite, EscapeClass, MethodSummary};
use crate::flow::PathEscape;
use crate::lockbalance::{analyze_locks, LockSummary};
use pea_bytecode::{MethodId, Program};
use pea_ir::{AllocShape, Graph, NodeId, NodeKind};
use pea_trace::{MaterializeReason, TraceEvent};
use std::collections::HashMap;
use std::fmt;

/// All static verdicts for a program, computed once and shared by every
/// compilation checked against it: per method, the intraprocedural
/// [`MethodSummary`] and the lock-balance result.
#[derive(Debug)]
pub struct StaticVerdicts {
    methods: Vec<(MethodSummary, LockSummary)>,
}

impl StaticVerdicts {
    /// Runs the escape and lock-balance analyses over every method.
    pub fn analyze(program: &Program) -> StaticVerdicts {
        let methods = (0..program.methods.len())
            .map(|index| {
                let method = MethodId::from_index(index);
                (
                    analyze_method(program, method, None, None),
                    analyze_locks(program, method),
                )
            })
            .collect();
        StaticVerdicts { methods }
    }

    /// The intraprocedural summary and lock-balance result of `method`.
    pub fn method(&self, method: MethodId) -> &(MethodSummary, LockSummary) {
        &self.methods[method.index()]
    }

    /// The verdict for the allocation at `(method, bci)`, if that bytecode
    /// index is an allocation.
    pub fn verdict(&self, method: MethodId, bci: u32) -> Option<&AllocSite> {
        self.methods.get(method.index())?.0.site_at(bci)
    }

    /// Upper bound on the simultaneous lock depth of the allocation at
    /// `(method, bci)`; `None` when unbounded (the object may reach a
    /// callee or escape the allocating method) or not an allocation.
    pub fn lock_depth_bound(&self, method: MethodId, bci: u32) -> Option<u32> {
        let (summary, locks) = self.methods.get(method.index())?;
        let i = summary.sites.iter().position(|s| s.bci == bci)?;
        let site = &summary.sites[i];
        (!site.passed_to_call && site.escape == EscapeClass::NoEscape).then(|| locks.max_depth[i])
    }

    /// Number of classified sites.
    pub fn len(&self) -> usize {
        self.methods.iter().map(|(s, _)| s.sites.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One contradiction between a PEA decision and the static analyses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inconsistency {
    /// Qualified name of the compiled (root) method.
    pub method: String,
    pub detail: String,
}

impl fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.method, self.detail)
    }
}

/// Per-site event bookkeeping gathered from a compilation's trace.
#[derive(Default)]
struct SiteEvents {
    virtualized: bool,
    materialized: bool,
    elided_enters: usize,
    elided_exits: usize,
    escape_reasons: Vec<MaterializeReason>,
}

/// Cross-checks one compilation: its decision-trace `events` and its final
/// `graph` against the `verdicts`. Returns every contradiction found
/// (empty = sanitized clean).
pub fn check_compilation(
    program: &Program,
    verdicts: &StaticVerdicts,
    root: MethodId,
    graph: &Graph,
    events: &[TraceEvent],
) -> Vec<Inconsistency> {
    let method_name = program.method(root).qualified_name(program);
    let mut out = Vec::new();
    let mut flag = |detail: String| {
        out.push(Inconsistency {
            method: method_name.clone(),
            detail,
        });
    };

    // ---- event checks ----
    let mut sites: HashMap<u32, SiteEvents> = HashMap::new();
    for event in events {
        match event {
            TraceEvent::Virtualized { site, shape } => {
                let entry = sites.entry(*site).or_default();
                entry.virtualized = true;
                match lookup(program, verdicts, graph, *site) {
                    Err(why) => flag(format!("Virtualized site {site}: {why}")),
                    Ok(verdict) => {
                        if !shape_matches(program, verdict.kind, shape) {
                            flag(format!(
                                "Virtualized site {site}: traced shape `{shape}` does not \
                                 match the bytecode allocation ({:?})",
                                verdict.kind
                            ));
                        }
                    }
                }
            }
            TraceEvent::Materialized { site, reason, .. } => {
                let entry = sites.entry(*site).or_default();
                entry.materialized = true;
                if matches!(
                    reason,
                    MaterializeReason::CallArgument
                        | MaterializeReason::ReturnValue
                        | MaterializeReason::ThrowValue
                        | MaterializeReason::ThrownEscape
                ) {
                    entry.escape_reasons.push(*reason);
                    if let Ok(verdict) = lookup(program, verdicts, graph, *site) {
                        if verdict.escape == EscapeClass::NoEscape {
                            flag(format!(
                                "Materialized site {site} for direct-escape reason \
                                 `{}` but the static analysis proves NoEscape",
                                reason.as_str()
                            ));
                        }
                    }
                }
            }
            TraceEvent::LockElided { site, exit, .. } => {
                let entry = sites.entry(*site).or_default();
                if *exit {
                    entry.elided_exits += 1;
                } else {
                    entry.elided_enters += 1;
                }
                match lookup(program, verdicts, graph, *site) {
                    Err(why) => flag(format!("LockElided site {site}: {why}")),
                    Ok(verdict) => {
                        if !verdict.may_be_locked() {
                            flag(format!(
                                "LockElided site {site}: the static analysis proves the \
                                 object is never a monitor operand"
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    for (site, ev) in &sites {
        if ev.elided_enters != ev.elided_exits && !ev.materialized {
            flag(format!(
                "site {site}: {} elided monitorenter vs {} elided monitorexit \
                 without a materialization to absorb the difference",
                ev.elided_enters, ev.elided_exits
            ));
        }
    }

    // ---- flow/insensitive coherence checks ----
    // The flow tier refines the insensitive verdicts; it must never be
    // *more* pessimistic where the insensitive analysis proved NoEscape,
    // and a certain-escape certificate is only meaningful on a
    // GlobalEscape site (flow ⊆ flow-insensitive, by construction).
    for (_, method, bci) in graph.provenance_entries() {
        if let Some(v) = verdicts.verdict(method, bci) {
            if v.escape == EscapeClass::NoEscape && v.path != PathEscape::NoEscape {
                flag(format!(
                    "site {}:{bci}: insensitive NoEscape but flow path verdict `{}`",
                    program.method(method).qualified_name(program),
                    v.path.as_str()
                ));
            }
            if v.certain_global && v.escape != EscapeClass::GlobalEscape {
                flag(format!(
                    "site {}:{bci}: certain-escape certificate on a {} site",
                    program.method(method).qualified_name(program),
                    v.escape.as_str()
                ));
            }
        }
    }

    // ---- frame-state closure checks ----
    // A depth bound for virtual-object lock counts holds only when *every*
    // allocation in the graph has a bounded verdict.
    let mut vom_depth_bound: Option<u32> = Some(0);
    for (_, method, bci) in graph.provenance_entries() {
        match verdicts.lock_depth_bound(method, bci) {
            Some(bound) => {
                vom_depth_bound = vom_depth_bound.map(|b| b.max(bound));
            }
            None => vom_depth_bound = None,
        }
    }

    for id in graph.live_nodes() {
        let node = graph.node(id);
        match &node.kind {
            NodeKind::FrameState(data) => {
                if node.inputs().len() != data.input_count() {
                    flag(format!(
                        "frame state {id}: {} inputs but layout wants {}",
                        node.inputs().len(),
                        data.input_count()
                    ));
                    continue;
                }
                if data.lock_from_sync.len() != data.n_locks as usize {
                    flag(format!(
                        "frame state {id}: lock_from_sync length {} != n_locks {}",
                        data.lock_from_sync.len(),
                        data.n_locks
                    ));
                }
                for &input in node.inputs() {
                    if graph.node(input).is_deleted() {
                        flag(format!(
                            "frame state {id}: references deleted node {input} — \
                             rematerialization info is not closed"
                        ));
                    }
                }
                if let Some(outer_index) = data.outer_index() {
                    let outer = node.inputs()[outer_index];
                    if !matches!(graph.kind(outer), NodeKind::FrameState(_)) {
                        flag(format!(
                            "frame state {id}: outer slot holds {} instead of a frame state",
                            graph.kind(outer).mnemonic()
                        ));
                    }
                }
                for &lock in &node.inputs()[data.locks_range()] {
                    if let NodeKind::VirtualObjectMapping { lock_count, .. } = graph.kind(lock) {
                        if *lock_count == 0 {
                            flag(format!(
                                "frame state {id}: virtual object {lock} sits in a lock \
                                 slot but records lock_count 0"
                            ));
                        }
                    }
                }
            }
            NodeKind::VirtualObjectMapping { shape, lock_count } => {
                let want = match shape {
                    AllocShape::Instance { class } => program.instance_fields(*class).len(),
                    AllocShape::Array { length, .. } => *length as usize,
                };
                if node.inputs().len() != want {
                    flag(format!(
                        "virtual object {id}: {} field values for a {} slot shape",
                        node.inputs().len(),
                        want
                    ));
                }
                for &input in node.inputs() {
                    if graph.node(input).is_deleted() {
                        flag(format!(
                            "virtual object {id}: field value {input} is deleted"
                        ));
                    }
                }
                if let Some(bound) = vom_depth_bound {
                    if *lock_count > bound {
                        flag(format!(
                            "virtual object {id}: lock_count {lock_count} exceeds the \
                             static lock-balance bound {bound}"
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Resolves a traced site id (the original allocation's node id) to its
/// static verdict via the graph's provenance table.
fn lookup<'v>(
    program: &Program,
    verdicts: &'v StaticVerdicts,
    graph: &Graph,
    site: u32,
) -> Result<&'v AllocSite, String> {
    let (method, bci) = graph
        .provenance(NodeId(site))
        .ok_or_else(|| "no bytecode provenance recorded".to_string())?;
    verdicts.verdict(method, bci).ok_or_else(|| {
        format!(
            "no allocation at {}:{bci} per the static analysis",
            program.method(method).qualified_name(program)
        )
    })
}

fn shape_matches(program: &Program, kind: AllocKind, shape: &str) -> bool {
    match kind {
        AllocKind::Instance(class) => program.class(class).name == shape,
        // Traced array shapes read `int[3]`; the static side does not know
        // the length, so compare the element kind prefix.
        AllocKind::Array(kind) => shape.starts_with(&format!("{kind}[")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn verdicts_for(src: &str) -> (Program, StaticVerdicts) {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let v = StaticVerdicts::analyze(&program);
        (program, v)
    }

    const CACHE: &str = "
        class Key { field idx int field ref ref }
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
        }";

    #[test]
    fn verdicts_cover_every_allocation() {
        let (program, v) = verdicts_for(CACHE);
        assert_eq!(v.len(), 1);
        let m = program.static_method_by_name("getValue").unwrap();
        let verdict = v.verdict(m, 0).unwrap();
        assert_eq!(verdict.escape, EscapeClass::GlobalEscape);
        assert!(verdict.may_be_locked(), "receiver of an invokevirtual");
        assert_eq!(v.lock_depth_bound(m, 0), None);
    }

    #[test]
    fn verdicts_carry_path_qualification() {
        let (program, v) = verdicts_for(
            "class Err { field code int }
             class Box { field v int }
             method m 1 {
                load 0 const 0 ifcmp eq Ldone
                new Err athrow
             Ldone: ret
             }
             method n 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
        );
        let m = program.static_method_by_name("m").unwrap();
        let thrown = v.verdict(m, 3).unwrap();
        assert_eq!(thrown.escape, EscapeClass::GlobalEscape);
        assert_eq!(thrown.path, PathEscape::EscapesOnThrowPathOnly);
        let n = program.static_method_by_name("n").unwrap();
        let local = v.verdict(n, 0).unwrap();
        assert_eq!(local.escape, EscapeClass::NoEscape);
        assert_eq!(local.path, PathEscape::NoEscape);
        assert!(!local.certain_global);
    }

    #[test]
    fn phantom_lock_elision_is_flagged() {
        // A site that is provably never locked: LockElided on it must be
        // reported as an inconsistency.
        let (program, v) = verdicts_for(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
        );
        let m = program.static_method_by_name("m").unwrap();
        let mut graph = Graph::new();
        // Fake an allocation node with provenance at bci 0.
        let alloc = graph.add(
            NodeKind::New {
                class: pea_bytecode::ClassId::from_index(0),
            },
            vec![],
        );
        graph.set_provenance(alloc, m, 0);
        let events = vec![TraceEvent::LockElided {
            site: alloc.index() as u32,
            node: 99,
            exit: false,
        }];
        let found = check_compilation(&program, &v, m, &graph, &events);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].detail.contains("never a monitor operand"));
        assert!(found[1].detail.contains("elided monitorenter"));
    }

    #[test]
    fn unbalanced_elision_needs_materialization() {
        let (program, v) = verdicts_for(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 monitorenter
                load 1 monitorexit
                load 1 getfield Box.v retv
             }",
        );
        let m = program.static_method_by_name("m").unwrap();
        let mut graph = Graph::new();
        let alloc = graph.add(
            NodeKind::New {
                class: pea_bytecode::ClassId::from_index(0),
            },
            vec![],
        );
        graph.set_provenance(alloc, m, 0);
        let site = alloc.index() as u32;
        let unbalanced = vec![TraceEvent::LockElided {
            site,
            node: 7,
            exit: false,
        }];
        let found = check_compilation(&program, &v, m, &graph, &unbalanced);
        assert!(
            found
                .iter()
                .any(|i| i.detail.contains("without a materialization")),
            "{found:?}"
        );
        // With a materialization between enter and exit the imbalance is
        // legitimate (§5.2: the later exit became a real operation).
        let absorbed = vec![
            TraceEvent::LockElided {
                site,
                node: 7,
                exit: false,
            },
            TraceEvent::Materialized {
                site,
                anchor: 8,
                block: 1,
                reason: MaterializeReason::EscapeToStore,
            },
        ];
        let found = check_compilation(&program, &v, m, &graph, &absorbed);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn no_escape_site_cannot_escape_directly() {
        let (program, v) = verdicts_for(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
        );
        let m = program.static_method_by_name("m").unwrap();
        let mut graph = Graph::new();
        let alloc = graph.add(
            NodeKind::New {
                class: pea_bytecode::ClassId::from_index(0),
            },
            vec![],
        );
        graph.set_provenance(alloc, m, 0);
        let events = vec![TraceEvent::Materialized {
            site: alloc.index() as u32,
            anchor: 9,
            block: 2,
            reason: MaterializeReason::ReturnValue,
        }];
        let found = check_compilation(&program, &v, m, &graph, &events);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].detail.contains("NoEscape"));
        // A store-driven materialization is NOT flagged: the container's
        // dynamic state decides those, which the static pass cannot see.
        let store = vec![TraceEvent::Materialized {
            site: alloc.index() as u32,
            anchor: 9,
            block: 2,
            reason: MaterializeReason::EscapeToStore,
        }];
        assert!(check_compilation(&program, &v, m, &graph, &store).is_empty());
    }

    #[test]
    fn thrown_escape_on_no_escape_site_is_flagged() {
        // A NoEscape proof means the object can never reach an `Unwind`
        // exit: a thrown-escape materialization on it is a compiler bug.
        let (program, v) = verdicts_for(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
        );
        let m = program.static_method_by_name("m").unwrap();
        let mut graph = Graph::new();
        let alloc = graph.add(
            NodeKind::New {
                class: pea_bytecode::ClassId::from_index(0),
            },
            vec![],
        );
        graph.set_provenance(alloc, m, 0);
        let events = vec![TraceEvent::Materialized {
            site: alloc.index() as u32,
            anchor: 9,
            block: 2,
            reason: MaterializeReason::ThrownEscape,
        }];
        let found = check_compilation(&program, &v, m, &graph, &events);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].detail.contains("thrown-escape"), "{found:?}");
    }

    #[test]
    fn thrown_escape_on_thrown_site_is_clean() {
        // The pre-analysis raises `athrow` operands, so a genuinely thrown
        // site is GlobalEscape and its thrown-escape materialization passes.
        let (program, v) = verdicts_for(
            "class Err { field code int }
             method m 1 {
                load 0 const 0 ifcmp eq Ldone
                new Err athrow
             Ldone: ret
             }",
        );
        let m = program.static_method_by_name("m").unwrap();
        assert_eq!(
            v.verdict(m, 3).unwrap().escape,
            EscapeClass::GlobalEscape,
            "thrown site must not be NoEscape"
        );
        let mut graph = Graph::new();
        let alloc = graph.add(
            NodeKind::New {
                class: pea_bytecode::ClassId::from_index(0),
            },
            vec![],
        );
        graph.set_provenance(alloc, m, 3);
        let events = vec![TraceEvent::Materialized {
            site: alloc.index() as u32,
            anchor: 4,
            block: 1,
            reason: MaterializeReason::ThrownEscape,
        }];
        assert!(check_compilation(&program, &v, m, &graph, &events).is_empty());
    }

    #[test]
    fn missing_provenance_is_flagged() {
        let (program, v) = verdicts_for(CACHE);
        let m = program.static_method_by_name("getValue").unwrap();
        let graph = Graph::new();
        let events = vec![TraceEvent::Virtualized {
            site: 42,
            shape: "Key".into(),
        }];
        let found = check_compilation(&program, &v, m, &graph, &events);
        assert_eq!(found.len(), 1);
        assert!(found[0].detail.contains("no bytecode provenance"));
    }

    #[test]
    fn frame_state_closure_violations_detected() {
        let (program, v) = verdicts_for(CACHE);
        let m = program.static_method_by_name("getValue").unwrap();
        let mut graph = Graph::new();
        let value = graph.const_int(3);
        // A virtual Key mapping with only one of its two field values.
        let vom = graph.add(
            NodeKind::VirtualObjectMapping {
                shape: AllocShape::Instance {
                    class: pea_bytecode::ClassId::from_index(0),
                },
                lock_count: 0,
            },
            vec![value],
        );
        let found = check_compilation(&program, &v, m, &graph, &[]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].detail.contains("field values"), "{found:?}");
        let _ = vom;
    }
}
