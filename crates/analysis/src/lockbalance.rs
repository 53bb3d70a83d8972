//! Lock-balance analysis: proves `monitorenter`/`monitorexit` pairing and
//! bounds the simultaneous lock depth per allocation site.
//!
//! The bytecode verifier only checks stack heights; structured locking is
//! *assumed* by the graph builder (which bails out with
//! `UnstructuredLocking` when its block-local lock stack goes wrong) and by
//! the paper's lock-elision rules, which remove enter/exit *pairs* on
//! virtual objects (§5.2). This analysis provides the missing whole-method
//! proof: a forward dataflow pass tracks an abstract stack of lock operands
//! (as source sets, like [`crate::escape`]) and reports every way the
//! pairing can break — an exit with no enter, provably mismatched
//! enter/exit operands, locks still held at a return, or join points where
//! two paths disagree on the lock depth.

use crate::dataflow::{solve_forward, BitSet, ForwardAnalysis, Frame, Join};
use crate::escape::Sources;
use pea_bytecode::{Insn, Method, MethodId, Program};
use std::collections::BTreeSet;

/// One way the monitor pairing can break, at a bytecode index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockFindingKind {
    /// `monitorexit` with an empty abstract lock stack.
    ExitWithoutEnter,
    /// The exited object provably differs from the innermost held lock.
    MismatchedExit,
    /// A return is reachable with monitors still held (beyond the
    /// synchronized-method frame lock, which the VM releases itself).
    UnreleasedAtReturn,
    /// Two paths reach the same instruction with different lock depths.
    InconsistentDepthAtJoin,
}

impl LockFindingKind {
    pub fn as_str(self) -> &'static str {
        match self {
            LockFindingKind::ExitWithoutEnter => "exit-without-enter",
            LockFindingKind::MismatchedExit => "mismatched-exit",
            LockFindingKind::UnreleasedAtReturn => "unreleased-at-return",
            LockFindingKind::InconsistentDepthAtJoin => "inconsistent-depth-at-join",
        }
    }
}

/// A located lock-balance violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockFinding {
    pub bci: u32,
    pub kind: LockFindingKind,
}

/// Result of [`analyze_locks`] for one method.
#[derive(Clone, Debug)]
pub struct LockSummary {
    pub method: MethodId,
    pub findings: Vec<LockFinding>,
    /// Upper bound on the simultaneous lock depth per allocation site of
    /// this method, in bytecode order.
    pub max_depth: Vec<u32>,
}

impl LockSummary {
    /// The pairing is provably structured.
    pub fn balanced(&self) -> bool {
        self.findings.is_empty()
    }

    /// Largest per-site depth bound (0 when the method locks nothing it
    /// allocates).
    pub fn max_site_depth(&self) -> u32 {
        self.max_depth.iter().copied().max().unwrap_or(0)
    }
}

/// The abstract monitor stack, the frame's extra.
#[derive(Clone, PartialEq, Eq)]
struct Held {
    /// Innermost lock last; each entry is the operand's source set.
    locks: Vec<BitSet>,
    /// A join merged unequal depths; suppress downstream findings.
    broken: bool,
}

impl Join for Held {
    fn join(&mut self, other: &Held) -> bool {
        let mut changed = false;
        if self.locks.len() != other.locks.len() {
            changed = !self.broken;
            self.broken = true;
            self.locks.truncate(other.locks.len());
        } else {
            for (x, y) in self.locks.iter_mut().zip(&other.locks) {
                changed |= x.union_with(y);
            }
        }
        changed | self.broken.join(&other.broken)
    }
}

struct LockFlow {
    src: Sources,
    findings: BTreeSet<LockFinding>,
    max_depth: Vec<u32>,
}

impl LockFlow {
    fn record(&mut self, bci: usize, kind: LockFindingKind) {
        self.findings.insert(LockFinding {
            bci: bci as u32,
            kind,
        });
    }
}

impl ForwardAnalysis for LockFlow {
    type State = Frame<BitSet, Held>;

    fn boundary(&self, method: &Method) -> Frame<BitSet, Held> {
        // The VM acquires the receiver lock for synchronized methods;
        // model it so nested explicit locking is counted on top of it.
        let locks = if method.is_synchronized {
            vec![self.src.single(self.src.n_sites())]
        } else {
            Vec::new()
        };
        self.src.entry(
            method,
            Held {
                locks,
                broken: false,
            },
        )
    }

    fn transfer(
        &mut self,
        program: &Program,
        method: &Method,
        bci: usize,
        insn: Insn,
        f: &mut Frame<BitSet, Held>,
    ) {
        match insn {
            Insn::New(_) | Insn::NewArray(_) => f.apply(program, insn, self.src.site(bci)),
            Insn::GetField(_)
            | Insn::ArrayLoad
            | Insn::GetStatic(_)
            | Insn::InvokeStatic(_)
            | Insn::InvokeVirtual(_) => f.apply(program, insn, self.src.unknown()),
            Insn::MonitorEnter => {
                let obj = f.pop();
                let held = &mut f.extra;
                held.locks.push(obj);
                if !held.broken {
                    let innermost = held.locks.last().expect("just pushed");
                    for site in innermost.iter().filter(|&s| s < self.src.n_sites()) {
                        let depth = held.locks.iter().filter(|l| l.contains(site)).count() as u32;
                        self.max_depth[site] = self.max_depth[site].max(depth);
                    }
                }
            }
            Insn::MonitorExit => {
                let obj = f.pop();
                match f.extra.locks.pop() {
                    None => {
                        if !f.extra.broken {
                            self.record(bci, LockFindingKind::ExitWithoutEnter);
                            f.extra.broken = true;
                        }
                    }
                    Some(top) => {
                        let unknown = self.src.unknown_bit();
                        let provable = !obj.is_empty()
                            && !top.is_empty()
                            && !obj.contains(unknown)
                            && !top.contains(unknown);
                        if provable && !obj.intersects(&top) && !f.extra.broken {
                            self.record(bci, LockFindingKind::MismatchedExit);
                        }
                    }
                }
            }
            Insn::Return | Insn::ReturnValue => {
                let expected = usize::from(method.is_synchronized);
                if f.extra.locks.len() != expected && !f.extra.broken {
                    self.record(bci, LockFindingKind::UnreleasedAtReturn);
                }
                f.apply(program, insn, self.src.empty());
            }
            // `throw` aborts the whole VM run, so no unwind releases
            // monitors. Which monitors are still held at a catchable
            // `athrow` depends on which handler (here or in a caller)
            // catches it, and well-formed try-finally regions release in
            // the handler — a path this per-bci lattice cannot follow, so
            // holding locks at an `athrow` is not a finding.
            _ => f.apply(program, insn, self.src.empty()),
        }
    }
}

/// Runs the lock-balance analysis over one (verified) method.
pub fn analyze_locks(program: &Program, method_id: MethodId) -> LockSummary {
    let method = program.method(method_id);
    let src = Sources::new(method);
    let mut flow = LockFlow {
        max_depth: vec![0; src.n_sites()],
        src,
        findings: BTreeSet::new(),
    };
    let states = solve_forward(program, method, &mut flow);
    if let Some(bci) = states
        .iter()
        .position(|s| s.as_ref().is_some_and(|s| s.extra.broken))
    {
        flow.record(bci, LockFindingKind::InconsistentDepthAtJoin);
    }
    LockSummary {
        method: method_id,
        findings: flow.findings.into_iter().collect(),
        max_depth: flow.max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    fn locks(src: &str, method: &str) -> LockSummary {
        let program = parse_program(src).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let id = (0..program.methods.len())
            .map(MethodId::from_index)
            .find(|&m| program.method(m).name == method)
            .unwrap();
        analyze_locks(&program, id)
    }

    const BOX: &str = "class Box { field v int }\n";

    #[test]
    fn balanced_pair_is_clean_with_depth_one() {
        let s = locks(
            &format!(
                "{BOX} method m 0 {{
                    new Box store 0
                    load 0 monitorenter
                    load 0 monitorexit
                    ret
                }}"
            ),
            "m",
        );
        assert!(s.balanced(), "{:?}", s.findings);
        assert_eq!(s.max_depth, vec![1]);
    }

    #[test]
    fn nested_relocking_bounds_depth_two() {
        let s = locks(
            &format!(
                "{BOX} method m 0 {{
                    new Box store 0
                    load 0 monitorenter
                    load 0 monitorenter
                    load 0 monitorexit
                    load 0 monitorexit
                    ret
                }}"
            ),
            "m",
        );
        assert!(s.balanced());
        assert_eq!(s.max_depth, vec![2]);
    }

    #[test]
    fn missing_exit_flagged_at_return() {
        let s = locks(
            &format!(
                "{BOX} method m 0 {{
                    new Box store 0
                    load 0 monitorenter
                    ret
                }}"
            ),
            "m",
        );
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].kind, LockFindingKind::UnreleasedAtReturn);
    }

    #[test]
    fn exit_without_enter_flagged() {
        let s = locks(
            &format!("{BOX} method m 1 {{ load 0 monitorexit ret }}"),
            "m",
        );
        assert_eq!(s.findings[0].kind, LockFindingKind::ExitWithoutEnter);
    }

    #[test]
    fn provably_mismatched_exit_flagged() {
        let s = locks(
            &format!(
                "{BOX} method m 0 {{
                    new Box store 0
                    new Box store 1
                    load 0 monitorenter
                    load 1 monitorexit
                    ret
                }}"
            ),
            "m",
        );
        assert!(s
            .findings
            .iter()
            .any(|f| f.kind == LockFindingKind::MismatchedExit));
    }

    #[test]
    fn depth_disagreement_at_join_flagged() {
        let s = locks(
            &format!(
                "{BOX} method m 1 {{
                    new Box store 1
                    load 0 const 0 ifcmp eq Lskip
                    load 1 monitorenter
                Lskip:
                    load 1 monitorexit
                    ret
                }}"
            ),
            "m",
        );
        assert!(s
            .findings
            .iter()
            .any(|f| f.kind == LockFindingKind::InconsistentDepthAtJoin));
    }

    #[test]
    fn synchronized_method_frame_lock_is_expected() {
        let s = locks(
            "class C { field v int }
             method virtual C.m 1 returns synchronized {
                load 0 getfield C.v retv
             }",
            "m",
        );
        assert!(s.balanced(), "{:?}", s.findings);
    }

    #[test]
    fn try_finally_lock_region_is_clean() {
        // The canonical try-finally lowering: lock, protected body, exit on
        // both the normal path and the catch-all handler (which rethrows).
        // Neither the athrow nor the handler-side exit may produce
        // findings, and the depth bound still comes from the enter.
        let s = locks(
            &format!(
                "{BOX} class Err {{ }}
                 method m 1 {{
                    new Box store 1
                    load 1 monitorenter
                    try Ls Le Lh *
                 Ls:
                    load 0 const 0 ifcmp eq Le
                    new Err athrow
                 Le:
                    load 1 monitorexit
                    ret
                 Lh:
                    pop
                    load 1 monitorexit
                    ret
                 }}"
            ),
            "m",
        );
        assert!(s.balanced(), "{:?}", s.findings);
        assert_eq!(s.max_depth[0], 1);
    }

    #[test]
    fn lock_on_unknown_object_is_not_a_mismatch() {
        let s = locks(
            &format!(
                "{BOX} static g ref
                 method m 0 {{
                    getstatic g monitorenter
                    getstatic g monitorexit
                    ret
                }}"
            ),
            "m",
        );
        assert!(s.balanced(), "{:?}", s.findings);
        assert_eq!(s.max_site_depth(), 0);
    }
}
