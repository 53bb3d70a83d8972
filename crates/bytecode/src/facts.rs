//! Per-method bytecode facts the graph builder reads on every compile.
//!
//! [`crate::ProgramBuilder::build`] seals one [`MethodFacts`] per method,
//! beside the vtables and the fused dispatch streams: the basic blocks
//! (leaders), their reverse postorder, the loop headers, whether the
//! control flow is reducible, the live locals at every bci and whether a
//! call of the method can raise a catchable exception. None of them
//! changes after the program is built, so no compilation recomputes them —
//! not for the root method and not for an inlined callee.
//!
//! Sealing accepts unverified code: branch targets, handlers and locals
//! out of range are skipped rather than trusted. The facts of such a
//! method mean nothing, but only verified methods are compiled.

use crate::{ClassId, ExceptionEntry, Insn, Method, Program};

/// Marks "not a block" / "not in RPO" in the dense tables below.
const NONE: u32 = u32::MAX;

/// One bytecode basic block.
#[derive(Clone, Debug)]
pub struct BcBlock {
    /// The leader: bci of the first instruction.
    pub start: u32,
    /// Bci of the final instruction (inclusive).
    pub last: u32,
    /// Successor leaders: the branch target before the fall-through, or
    /// the covering handlers of an `athrow` in ascending order.
    pub(crate) succs: Vec<u32>,
}

/// The sealed facts of one method (see the module docs).
#[derive(Clone, Debug)]
pub struct MethodFacts {
    /// Blocks in ascending leader order.
    blocks: Vec<BcBlock>,
    /// Index into `blocks` of the block each bci leads; [`NONE`] for a bci
    /// that is not a leader.
    block_at: Vec<u32>,
    /// Leaders of the blocks reachable from bci 0, in reverse postorder.
    rpo: Vec<u32>,
    /// Per bci: the leader of a loop (a DFS back-edge target).
    loop_header: Vec<bool>,
    /// Every DFS back edge targets a block that dominates its source.
    reducible: bool,
    /// Live-local bitsets, `words` per bci.
    live: Vec<u64>,
    words: usize,
    max_locals: u16,
    /// Calling the method can raise a catchable exception.
    may_throw: bool,
}

impl MethodFacts {
    fn new(method: &Method) -> MethodFacts {
        let blocks = split_blocks(&method.code, &method.exception_table);
        let mut block_at = vec![NONE; method.code.len()];
        for (i, b) in blocks.iter().enumerate() {
            block_at[b.start as usize] = i as u32;
        }
        let mut facts = MethodFacts {
            blocks,
            block_at,
            rpo: Vec::new(),
            loop_header: vec![false; method.code.len()],
            reducible: true,
            live: Vec::new(),
            words: usize::from(method.max_locals).div_ceil(64),
            max_locals: method.max_locals,
            may_throw: false,
        };
        facts.order_blocks();
        facts.reducible = facts.check_reducible();
        facts.live = local_liveness(method, facts.words);
        facts
    }

    /// Leaders of the blocks reachable from bci 0, in reverse postorder
    /// (loop headers precede their bodies).
    #[inline]
    pub fn rpo(&self) -> &[u32] {
        &self.rpo
    }

    /// The block led by `leader`.
    ///
    /// # Panics
    ///
    /// Panics if `leader` does not start a block.
    #[inline]
    pub fn block(&self, leader: u32) -> &BcBlock {
        &self.blocks[self.block_index(leader).expect("not a block leader") as usize]
    }

    /// Whether `bci` leads a loop: some DFS back edge targets it.
    #[inline]
    pub fn is_loop_header(&self, bci: u32) -> bool {
        self.loop_header.get(bci as usize).copied().unwrap_or(false)
    }

    /// Whether every loop is entered through its header only. Irreducible
    /// regions cannot be expressed with `LoopBegin`/`LoopEnd`.
    #[inline]
    pub fn is_reducible(&self) -> bool {
        self.reducible
    }

    /// Whether `local` may be read before it is written on some path from
    /// `bci` (backward dataflow: `load` uses, `store` defines; an exception
    /// handler's reads count throughout its protected range).
    ///
    /// # Panics
    ///
    /// Panics if `bci` is past the end of the code.
    #[inline]
    pub fn is_live(&self, bci: u32, local: usize) -> bool {
        assert!((bci as usize) < self.block_at.len(), "bci past the end");
        local < usize::from(self.max_locals)
            && self.live[bci as usize * self.words + local / 64] >> (local % 64) & 1 != 0
    }

    /// Whether calling the method can raise a catchable exception: its
    /// bytecode contains `athrow`, or it calls (through any virtual
    /// implementation) a method that may throw.
    #[inline]
    pub fn may_throw(&self) -> bool {
        self.may_throw
    }

    fn block_index(&self, bci: u32) -> Option<u32> {
        self.block_at
            .get(bci as usize)
            .copied()
            .filter(|&b| b != NONE)
    }

    /// The successor blocks of block `b` that are blocks at all.
    fn succ_blocks(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.blocks[b]
            .succs
            .iter()
            .filter_map(|&s| self.block_index(s))
            .map(|s| s as usize)
    }

    /// Depth-first search from bci 0: reverse postorder and the loop
    /// headers (targets of back edges to a block still on the stack).
    fn order_blocks(&mut self) {
        if self.blocks.is_empty() {
            return;
        }
        let mut color = vec![0u8; self.blocks.len()]; // 1 = on stack, 2 = done
        let mut rpo_rev = Vec::with_capacity(self.blocks.len());
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = 1;
        while let Some((b, child)) = stack.last_mut() {
            let b = *b;
            let next = self.succ_blocks(b).nth(*child);
            if let Some(s) = next {
                *child += 1;
                match color[s] {
                    0 => {
                        color[s] = 1;
                        stack.push((s, 0));
                    }
                    1 => self.loop_header[self.blocks[s].start as usize] = true,
                    _ => {}
                }
            } else {
                color[b] = 2;
                rpo_rev.push(self.blocks[b].start);
                stack.pop();
            }
        }
        rpo_rev.reverse();
        self.rpo = rpo_rev;
    }

    /// Every DFS back edge must target a block that dominates its source
    /// (a natural loop), by iterative dominators over the reachable
    /// blocks.
    fn check_reducible(&self) -> bool {
        let n = self.blocks.len();
        let mut pos = vec![NONE; n];
        let rpo: Vec<usize> = self
            .rpo
            .iter()
            .map(|&l| self.block_index(l).expect("rpo lists leaders") as usize)
            .collect();
        for (i, &b) in rpo.iter().enumerate() {
            pos[b] = i as u32;
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for b in 0..n {
            for s in self.succ_blocks(b) {
                preds[s].push(b);
            }
        }
        let Some(&entry) = rpo.first() else {
            return true;
        };
        let mut idom = vec![NONE; n];
        idom[entry] = entry as u32;
        let intersect = |idom: &[u32], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while pos[a] > pos[b] {
                    a = idom[a] as usize;
                }
                while pos[b] > pos[a] {
                    b = idom[b] as usize;
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo[1..] {
                let mut new: Option<usize> = None;
                for &p in &preds[b] {
                    if idom[p] == NONE || pos[p] == NONE {
                        continue;
                    }
                    new = Some(match new {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(d) = new {
                    if idom[b] != d as u32 {
                        idom[b] = d as u32;
                        changed = true;
                    }
                }
            }
        }
        let dominates = |a: usize, mut b: usize| -> bool {
            loop {
                if a == b {
                    return true;
                }
                match idom[b] {
                    i if i != NONE && i as usize != b => b = i as usize,
                    _ => return false,
                }
            }
        };
        (0..n).filter(|&b| pos[b] != NONE).all(|b| {
            self.succ_blocks(b).all(|s| {
                !(self.loop_header[self.blocks[s].start as usize] && pos[s] <= pos[b])
                    || dominates(s, b)
            })
        })
    }
}

/// Splits `code` into basic blocks at branch targets, after branches and
/// terminators, and at exception handlers (entered abruptly).
fn split_blocks(code: &[Insn], exception_table: &[ExceptionEntry]) -> Vec<BcBlock> {
    let n = code.len();
    let mut leader = vec![false; n + 1];
    leader[0] = true;
    let mut mark = |bci: u32| {
        if let Some(l) = leader.get_mut(bci as usize) {
            *l = true;
        }
    };
    for (i, insn) in code.iter().enumerate() {
        if let Some(t) = insn.branch_target() {
            mark(t);
            mark(i as u32 + 1);
        }
        if insn.is_terminator() {
            mark(i as u32 + 1);
        }
    }
    for e in exception_table {
        mark(e.handler);
    }
    let leaders: Vec<u32> = (0..n as u32).filter(|&l| leader[l as usize]).collect();
    leaders
        .iter()
        .enumerate()
        .map(|(k, &start)| {
            let next_leader = leaders.get(k + 1).copied().unwrap_or(n as u32);
            // The block ends at the first branch/terminator, or just before
            // the next leader.
            let last = (start..next_leader)
                .find(|&i| {
                    let insn = code[i as usize];
                    insn.branch_target().is_some() || insn.is_terminator()
                })
                .unwrap_or(next_leader - 1);
            let insn = code[last as usize];
            let mut succs = Vec::new();
            if insn == Insn::Athrow {
                // Exception edges: every covering handler is a potential
                // successor, in table (dispatch) order. A catch-all always
                // matches, so later entries are unreachable from here.
                for e in exception_table.iter().filter(|e| e.covers(last)) {
                    succs.push(e.handler);
                    if e.catch_class.is_none() {
                        break;
                    }
                }
                succs.sort_unstable();
                succs.dedup();
            } else if !insn.is_terminator() {
                match insn {
                    Insn::Goto(t) => succs.push(t),
                    _ => {
                        if let Some(t) = insn.branch_target() {
                            succs.push(t);
                        }
                        succs.push(last + 1);
                    }
                }
            }
            BcBlock { start, last, succs }
        })
        .collect()
}

/// Per-bci live-local bitsets, `words` per bci (backward dataflow to the
/// least fixpoint). HotSpot's interpreter frames clear dead locals and
/// Graal's frame states inherit that; the graph builder reproduces it so
/// values (and in particular allocations) dead across a loop back edge or
/// merge are not kept alive by frame states.
///
/// Exception-table entries add edges from every covered bci to the
/// handler: a local read only by the handler must stay live throughout the
/// protected range, because a deopt anywhere inside it can be followed by
/// interpreter-side unwinding into that handler — clearing the slot to
/// null in the deopt state would hand the handler a corrupted frame.
fn local_liveness(method: &Method, words: usize) -> Vec<u64> {
    let code = &method.code;
    let n = code.len();
    let mut live = vec![0u64; n * words];
    let mut out = vec![0u64; words];
    let join = |out: &mut [u64], live: &[u64], bci: usize| {
        for (o, l) in out.iter_mut().zip(&live[bci * words..(bci + 1) * words]) {
            *o |= l;
        }
    };
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let insn = code[i];
            out.fill(0);
            if let Some(t) = insn.branch_target().filter(|&t| (t as usize) < n) {
                join(&mut out, &live, t as usize);
            }
            if insn.falls_through() && i + 1 < n {
                join(&mut out, &live, i + 1);
            }
            for e in &method.exception_table {
                if e.covers(i as u32) && (e.handler as usize) < n {
                    join(&mut out, &live, e.handler as usize);
                }
            }
            match insn {
                Insn::Load(k) if k < method.max_locals => out[k as usize / 64] |= 1 << (k % 64),
                Insn::Store(k) if k < method.max_locals => {
                    out[k as usize / 64] &= !(1 << (k % 64));
                }
                _ => {}
            }
            let here = &mut live[i * words..(i + 1) * words];
            if here != out.as_slice() {
                here.copy_from_slice(&out);
                changed = true;
            }
        }
    }
    live
}

/// Seals the facts of every method of `program`, whose vtables are sealed.
pub(crate) fn seal(program: &Program) -> Vec<MethodFacts> {
    let mut facts: Vec<MethodFacts> = program.methods.iter().map(MethodFacts::new).collect();
    for (f, may) in facts.iter_mut().zip(may_throw(program)) {
        f.may_throw = may;
    }
    facts
}

/// Transitive may-throw fixpoint over the closed program: a method may
/// throw if its own bytecode contains `athrow` or it calls (through any
/// virtual implementation) a method that may.
fn may_throw(program: &Program) -> Vec<bool> {
    let n = program.methods.len();
    let mut may: Vec<bool> = program.methods.iter().map(Method::has_athrow).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if may[i] {
                continue;
            }
            let calls_throwing = program.methods[i].code.iter().any(|insn| match insn {
                Insn::InvokeStatic(t) => may.get(t.index()).copied().unwrap_or(false),
                Insn::InvokeVirtual(t) if t.index() < n => (0..program.classes.len()).any(|c| {
                    program
                        .resolve_virtual(ClassId::from_index(c), *t)
                        .is_ok_and(|m| may[m.index()])
                }),
                _ => false,
            });
            if calls_throwing {
                may[i] = true;
                changed = true;
            }
        }
    }
    may
}

#[cfg(test)]
mod tests {
    use crate::asm::parse_program;
    use crate::{verify_program, Insn, MethodBuilder, ProgramBuilder};

    #[test]
    fn loop_blocks_headers_and_liveness() {
        let p = parse_program(
            "method f 1 returns {
                const 0 store 1
            Lhead:
                load 1 load 0 ifcmp ge Ldone
                load 1 const 1 add store 1
                goto Lhead
            Ldone:
                load 1 retv
            }",
        )
        .unwrap();
        verify_program(&p).unwrap();
        let f = p.static_method_by_name("f").unwrap();
        let facts = p.facts(f);
        assert_eq!(facts.rpo(), [0, 2, 5, 10]);
        assert!(facts.is_loop_header(2));
        assert!(!facts.is_loop_header(5));
        assert!(facts.is_reducible());
        assert_eq!(facts.block(2).succs, [10, 5]);
        // Local 1 is dead until its first store, live around the loop.
        assert!(facts.is_live(0, 0) && !facts.is_live(0, 1));
        assert!(facts.is_live(2, 1) && facts.is_live(2, 0));
        assert!(
            !facts.is_live(10, 0),
            "the parameter is dead after the loop"
        );
        assert!(!facts.may_throw());
    }

    #[test]
    fn irreducible_cycle_is_flagged() {
        // Two entries into the cycle L1 <-> L2.
        let p = parse_program(
            "method f 1 returns {
                load 0 const 0 ifcmp eq L2
            L1:
                load 0 const 1 sub store 0
                goto L2
            L2:
                load 0 const 0 ifcmp gt L1
                const 0 retv
            }",
        )
        .unwrap();
        let f = p.static_method_by_name("f").unwrap();
        assert!(!p.facts(f).is_reducible());
    }

    #[test]
    fn may_throw_is_transitive() {
        let p = parse_program(
            "class E { }
             method thrower 0 { new E athrow }
             method caller 0 { invokestatic thrower ret }
             method quiet 0 { ret }",
        )
        .unwrap();
        let may = |name| p.facts(p.static_method_by_name(name).unwrap()).may_throw();
        assert!(may("thrower") && may("caller") && !may("quiet"));
    }

    #[test]
    fn unverified_code_seals_without_panicking() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new_static("bad", 0, false);
        m.return_();
        let mut method = m.build().unwrap();
        method.code = vec![
            Insn::Load(7),
            Insn::Goto(40),
            Insn::InvokeStatic(crate::MethodId(9)),
        ];
        let id = pb.add_method(method);
        let p = pb.build().unwrap();
        assert!(verify_program(&p).is_err());
        assert_eq!(p.facts(id).rpo(), [0]);
    }
}
