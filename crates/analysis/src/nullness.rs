//! Definite-assignment and null-ness analysis.
//!
//! A forward pass over the [`crate::dataflow`] framework tracking, per
//! local and stack slot, a small may-lattice: *unassigned*, *null*,
//! *non-null-or-int* (joins are bit-ORs). It reports
//!
//! * locals read before any store reaches them (the bytecode verifier
//!   deliberately allows this — defaults are well-defined — but it is
//!   almost always a workload-authoring bug),
//! * dereferences whose receiver is provably `null`, and
//! * a count of *maybe*-null dereferences (sites PEA must keep a null
//!   check for).

use crate::dataflow::{arity, solve_forward, EdgeKind, ForwardAnalysis, Frame};
use pea_bytecode::{Insn, Method, MethodId, Program};
use std::collections::BTreeSet;

const UNASSIGNED: u8 = 1;
const NULL: u8 = 2;
const NONNULL: u8 = 4;

/// A located definite finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NullFinding {
    pub bci: u32,
    pub kind: NullFindingKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NullFindingKind {
    /// `load n` may execute before any `store n`.
    ReadBeforeStore { local: u16 },
    /// The dereferenced receiver can only be `null` here.
    DefiniteNullDeref,
}

impl NullFindingKind {
    pub fn as_str(self) -> &'static str {
        match self {
            NullFindingKind::ReadBeforeStore { .. } => "read-before-store",
            NullFindingKind::DefiniteNullDeref => "definite-null-deref",
        }
    }
}

/// Result of [`analyze_nullness`] for one method.
#[derive(Clone, Debug)]
pub struct NullnessSummary {
    pub method: MethodId,
    pub findings: Vec<NullFinding>,
    /// Distinct dereference sites whose receiver *may* be null — each one
    /// needs a residual null check unless PEA folds it.
    pub maybe_null_derefs: usize,
}

struct NullFlow {
    findings: BTreeSet<NullFinding>,
    maybe_null: BTreeSet<u32>,
}

impl NullFlow {
    fn deref(&mut self, bci: usize, receiver: u8) {
        if receiver & (NULL | UNASSIGNED) == 0 {
            return;
        }
        if receiver & NONNULL == 0 {
            self.findings.insert(NullFinding {
                bci: bci as u32,
                kind: NullFindingKind::DefiniteNullDeref,
            });
        } else {
            self.maybe_null.insert(bci as u32);
        }
    }
}

impl ForwardAnalysis for NullFlow {
    type State = Frame<u8>;

    fn boundary(&self, method: &Method) -> Frame<u8> {
        let mut frame = Frame::new(method, UNASSIGNED, ());
        for (i, slot) in frame
            .locals
            .iter_mut()
            .enumerate()
            .take(method.param_count as usize)
        {
            // The receiver of an instance method is null-checked by the VM
            // at dispatch; other parameters may be anything.
            *slot = if i == 0 && !method.is_static {
                NONNULL
            } else {
                NULL | NONNULL
            };
        }
        frame
    }

    fn handler_boundary(&self, method: &Method) -> Option<Frame<u8>> {
        // Handler code must be analyzed too (it dereferences the caught
        // exception and whatever locals the try block left behind). Locals
        // are assumed assigned-to-anything — the unwound path may have
        // skipped stores, so claiming UNASSIGNED here would fabricate
        // read-before-store findings on perfectly normal catch blocks. The
        // caught exception on the stack is always a real object.
        let mut frame = Frame::new(method, NULL | NONNULL, ());
        frame.push(NONNULL);
        Some(frame)
    }

    fn transfer(
        &mut self,
        program: &Program,
        _method: &Method,
        bci: usize,
        insn: Insn,
        f: &mut Frame<u8>,
    ) {
        let any = NULL | NONNULL;
        match insn {
            Insn::Load(n) => {
                let v = f.locals[n as usize];
                if v & UNASSIGNED != 0 {
                    self.findings.insert(NullFinding {
                        bci: bci as u32,
                        kind: NullFindingKind::ReadBeforeStore { local: n },
                    });
                    // Unassigned locals read as well-defined defaults
                    // (0/null).
                    f.push((v & !UNASSIGNED) | any);
                } else {
                    f.push(v);
                }
            }
            Insn::ConstNull => f.push(NULL),
            Insn::GetStatic(_) | Insn::InvokeStatic(_) => f.apply(program, insn, any),
            // Dereferences: the receiver is the deepest operand.
            Insn::GetField(_)
            | Insn::PutField(_)
            | Insn::ArrayLoad
            | Insn::ArrayStore
            | Insn::ArrayLength
            | Insn::MonitorEnter
            | Insn::MonitorExit
            | Insn::InvokeVirtual(_) => {
                self.deref(bci, *f.peek(arity(program, insn).0));
                let result = if insn == Insn::ArrayLength {
                    NONNULL
                } else {
                    any
                };
                f.apply(program, insn, result);
            }
            // A null reference passes any cast (`apply` keeps it); every
            // other result is an int or a fresh object.
            _ => f.apply(program, insn, NONNULL),
        }
    }

    fn refine_edge(
        &mut self,
        method: &Method,
        bci: usize,
        insn: Insn,
        edge: EdgeKind,
        f: &mut Frame<u8>,
    ) -> bool {
        // `load n; ifnull L` pins local `n`'s null-ness per outgoing edge:
        // the taken side sees the local definitely null, the fall-through
        // definitely non-null, and a side the incoming facts already rule
        // out is skipped as infeasible. Only the immediately-preceding
        // load is recognized — nothing can re-store the local between it
        // and the branch, so the local still holds the tested value.
        if !matches!(insn, Insn::IfNull(_)) || bci == 0 {
            return true;
        }
        let Some(&Insn::Load(n)) = method.code.get(bci - 1) else {
            return true;
        };
        let v = f.locals[n as usize];
        if v & UNASSIGNED != 0 {
            // An unassigned local reads as a well-defined default; keep
            // the bit so later reads still report read-before-store.
            return true;
        }
        let refined = match edge {
            EdgeKind::Taken => v & !NONNULL,
            EdgeKind::FallThrough => v & !NULL,
        };
        if refined == 0 {
            return false;
        }
        f.locals[n as usize] = refined;
        true
    }
}

/// Runs the definite-assignment/null-ness analysis over one (verified)
/// method.
pub fn analyze_nullness(program: &Program, method_id: MethodId) -> NullnessSummary {
    let mut flow = NullFlow {
        findings: BTreeSet::new(),
        maybe_null: BTreeSet::new(),
    };
    solve_forward(program, program.method(method_id), &mut flow);
    NullnessSummary {
        method: method_id,
        findings: flow.findings.into_iter().collect(),
        maybe_null_derefs: flow.maybe_null.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn nullness(src: &str, method: &str) -> NullnessSummary {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let id = (0..program.methods.len())
            .map(MethodId::from_index)
            .find(|&m| program.method(m).name == method)
            .unwrap();
        analyze_nullness(&program, id)
    }

    #[test]
    fn read_before_any_store_flagged() {
        let s = nullness("method m 1 returns { load 1 retv }", "m");
        assert_eq!(s.findings.len(), 1);
        assert_eq!(
            s.findings[0].kind,
            NullFindingKind::ReadBeforeStore { local: 1 }
        );
    }

    #[test]
    fn stored_local_is_clean() {
        let s = nullness("method m 1 returns { load 0 store 1 load 1 retv }", "m");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn store_on_only_one_path_still_flagged() {
        let s = nullness(
            "method m 1 returns {
                load 0 const 0 ifcmp eq Lskip
                const 7 store 1
             Lskip:
                load 1 retv
             }",
            "m",
        );
        assert!(s
            .findings
            .iter()
            .any(|f| f.kind == NullFindingKind::ReadBeforeStore { local: 1 }));
    }

    #[test]
    fn definite_null_deref_flagged() {
        let s = nullness(
            "class Box { field v int }
             method m 0 returns { cnull getfield Box.v retv }",
            "m",
        );
        assert_eq!(s.findings[0].kind, NullFindingKind::DefiniteNullDeref);
    }

    #[test]
    fn fresh_object_deref_is_clean() {
        let s = nullness(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 load 0 putfield Box.v
                load 1 getfield Box.v retv
             }",
            "m",
        );
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.maybe_null_derefs, 0);
    }

    #[test]
    fn parameter_deref_is_maybe_null_not_definite() {
        let s = nullness(
            "class Box { field v int }
             method m 1 returns { load 0 checkcast Box getfield Box.v retv }",
            "m",
        );
        assert!(s.findings.is_empty());
        assert_eq!(s.maybe_null_derefs, 1);
    }

    #[test]
    fn ifnull_fall_through_proves_non_null() {
        // The guarded deref needs no residual null check: the fall-through
        // edge of `load 0 ifnull` pins local 0 non-null.
        let s = nullness(
            "class Box { field v int }
             method m 1 returns {
                load 0 ifnull Lnull
                load 0 checkcast Box getfield Box.v retv
             Lnull:
                const 0 retv
             }",
            "m",
        );
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.maybe_null_derefs, 0);
    }

    #[test]
    fn ifnull_taken_side_makes_deref_definitely_null() {
        let s = nullness(
            "class Box { field v int }
             method m 1 returns {
                load 0 ifnull Lnull
                const 0 retv
             Lnull:
                load 0 checkcast Box getfield Box.v retv
             }",
            "m",
        );
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].kind, NullFindingKind::DefiniteNullDeref);
    }

    #[test]
    fn ifnull_on_fresh_object_skips_the_infeasible_edge() {
        // Local 1 is definitely non-null, so the taken edge is infeasible
        // and the definitely-null deref behind it is never reachable.
        let s = nullness(
            "class Box { field v int }
             method m 1 returns {
                new Box store 1
                load 1 ifnull Ldead
                const 0 retv
             Ldead:
                cnull getfield Box.v retv
             }",
            "m",
        );
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn catch_handler_code_is_analyzed_without_false_positives() {
        // The handler dereferences the caught exception (always non-null)
        // and a local the try block may or may not have stored: neither is
        // a finding, but the definitely-null deref after it still is.
        let s = nullness(
            "class Err { field code int }
             method m 1 returns {
                try Ls Le Lh Err
             Ls:
                load 0 const 0 ifcmp eq Ld
                new Err athrow
             Le:
             Ld: const 0 retv
             Lh:
                getfield Err.code
                store 1
                cnull getfield Err.code retv
             }",
            "m",
        );
        assert_eq!(s.findings.len(), 1, "{:?}", s.findings);
        assert_eq!(s.findings[0].kind, NullFindingKind::DefiniteNullDeref);
    }

    #[test]
    fn receiver_of_instance_method_is_nonnull() {
        let s = nullness(
            "class Box { field v int }
             method virtual Box.get 1 returns { load 0 getfield Box.v retv }",
            "get",
        );
        assert!(s.findings.is_empty());
        assert_eq!(s.maybe_null_derefs, 0);
    }
}
