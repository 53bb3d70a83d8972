//! A small worklist dataflow framework over method bytecode, and the one
//! abstract frame every analysis of this crate runs on.
//!
//! An analysis implements [`ForwardAnalysis`]: a state type forming a
//! join-semilattice ([`Join`]: monotone and idempotent), a boundary state,
//! and a per-instruction transfer function. [`solve_forward`] iterates a
//! worklist over bytecode indices until the per-bci states stabilize.
//!
//! The five analyses of this crate share one state shape, `Frame`: one
//! abstract value per local and operand-stack slot, plus an optional
//! analysis-specific extra that joins alongside. The frame owns the join
//! and every effect an analysis does not interpret (`Frame::apply`):
//! moves between locals and stack, `dup`/`swap`/`pop`, call arity and the
//! generic pops and pushes, pushing the analysis's opaque value. An
//! analysis models only the opcodes whose meaning it tracks.
//!
//! Transfer functions take `&mut self` so an analysis can accumulate global
//! facts (escape classes, findings) while solving. Because the solver may
//! visit an instruction several times before the fixpoint, such accumulation
//! must be **idempotent** — grow monotone sets, never bump counters.

use pea_bytecode::{Insn, Method, Program};

/// A fixed-capacity bit set used as the workhorse abstract domain: joins are
/// word-wise ORs and the lattice height is bounded by the bit count, which
/// guarantees solver termination.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for `n` bits.
    pub fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, bit: usize) {
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    pub fn remove(&mut self, bit: usize) {
        if let Some(w) = self.words.get_mut(bit / 64) {
            *w &= !(1u64 << (bit % 64));
        }
    }

    pub fn contains(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1 << (bit % 64)) != 0)
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Unions `other` into `self`; true when any new bit appeared.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// True when the two sets share at least one bit.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates the set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| i * 64 + b)
        })
    }
}

/// A join-semilattice element: `join` merges `other` into `self` and
/// reports whether `self` changed. Must be monotone and idempotent.
pub trait Join: Clone {
    fn join(&mut self, other: &Self) -> bool;
}

impl Join for () {
    fn join(&mut self, _other: &()) -> bool {
        false
    }
}

/// A may-bit: `false < true`.
impl Join for bool {
    fn join(&mut self, other: &bool) -> bool {
        let changed = *other && !*self;
        *self |= *other;
        changed
    }
}

/// A set of flag bits, joined by union.
impl Join for u8 {
    fn join(&mut self, other: &u8) -> bool {
        let changed = *other & !*self != 0;
        *self |= *other;
        changed
    }
}

impl Join for BitSet {
    fn join(&mut self, other: &BitSet) -> bool {
        self.union_with(other)
    }
}

/// One abstract frame: a value per local and per operand-stack slot, plus
/// an analysis-specific `extra` joined alongside them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Frame<V, X = ()> {
    pub locals: Vec<V>,
    pub stack: Vec<V>,
    pub extra: X,
}

impl<V: Join, X: Join> Join for Frame<V, X> {
    fn join(&mut self, other: &Self) -> bool {
        // Every frame has `max_locals` locals, and the verifier guarantees
        // equal stack heights at joins.
        let mut changed = false;
        let theirs = other.locals.iter().chain(&other.stack);
        for (x, y) in self.locals.iter_mut().chain(&mut self.stack).zip(theirs) {
            changed |= x.join(y);
        }
        changed | self.extra.join(&other.extra)
    }
}

impl<V: Clone, X> Frame<V, X> {
    /// A frame with every local set to `local` and an empty stack.
    pub fn new(method: &Method, local: V, extra: X) -> Self {
        Frame {
            locals: vec![local; method.max_locals as usize],
            stack: Vec::new(),
            extra,
        }
    }

    pub fn push(&mut self, value: V) {
        self.stack.push(value);
    }

    pub fn pop(&mut self) -> V {
        self.stack.pop().expect("verified stack")
    }

    /// The operand `depth` slots down the stack (1 = the top).
    pub fn peek(&self, depth: usize) -> &V {
        &self.stack[self.stack.len() - depth]
    }

    /// Pops the `n` topmost operands, deepest first.
    pub fn pop_n(&mut self, n: usize) -> Vec<V> {
        self.stack.split_off(self.stack.len() - n)
    }

    /// The effect of `insn` on the slots, for an analysis that does not
    /// interpret it: `load`/`store`/`dup`/`swap` move values, `checkcast`
    /// is the identity on its reference, and anything else pops its
    /// operands (a call its arguments) and pushes `opaque` for each result.
    pub fn apply(&mut self, program: &Program, insn: Insn, opaque: V) {
        match insn {
            Insn::Load(n) => self.stack.push(self.locals[n as usize].clone()),
            Insn::Store(n) => self.locals[n as usize] = self.pop(),
            Insn::Dup => self.stack.push(self.peek(1).clone()),
            Insn::Swap => {
                let n = self.stack.len();
                self.stack.swap(n - 1, n - 2);
            }
            Insn::CheckCast(_) => {}
            _ => {
                let (pops, pushes) = arity(program, insn);
                self.stack.truncate(self.stack.len() - pops);
                self.stack.resize(self.stack.len() + pushes, opaque);
            }
        }
    }
}

/// How many operands `insn` pops and pushes, calls resolved against the
/// program.
pub(crate) fn arity(program: &Program, insn: Insn) -> (usize, usize) {
    match insn {
        Insn::InvokeStatic(target) | Insn::InvokeVirtual(target) => {
            let callee = program.method(target);
            (
                callee.param_count as usize,
                usize::from(callee.returns_value),
            )
        }
        _ => (insn.pops(), insn.pushes()),
    }
}

/// Which outgoing control-flow edge a state is propagated along: the
/// explicit branch target of a conditional/goto, or the fall-through to
/// the next instruction. Passed to [`ForwardAnalysis::refine_edge`] so
/// predicate-aware analyses can specialize (or kill) the state per edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// The explicit `branch_target()` edge (the "taken" side).
    Taken,
    /// The implicit fall-through edge to `bci + 1`.
    FallThrough,
}

/// Edges leaving the instruction at `bci`, labelled with their kind.
pub fn edges(insn: Insn, bci: usize) -> impl Iterator<Item = (usize, EdgeKind)> {
    let branch = insn.branch_target().map(|t| (t as usize, EdgeKind::Taken));
    let fall = insn
        .falls_through()
        .then_some((bci + 1, EdgeKind::FallThrough));
    branch.into_iter().chain(fall)
}

/// A forward dataflow analysis: states flow from method entry toward
/// instruction successors.
pub trait ForwardAnalysis {
    type State: Join;

    /// The state on entry to the method (before bci 0).
    fn boundary(&self, method: &Method) -> Self::State;

    /// Applies the instruction at `bci` to `state` in place. May record
    /// global facts on `self` (idempotently — see the module docs).
    fn transfer(
        &mut self,
        program: &Program,
        method: &Method,
        bci: usize,
        insn: Insn,
        state: &mut Self::State,
    );

    /// The state on entry to an exception handler. The framework propagates
    /// one post-transfer state to *all* successors, so it cannot model the
    /// JVM's exceptional transfer (operand stack cleared to just the caught
    /// exception) edge-precisely; instead, analyses that must see handler
    /// code return a conservative handler-entry state here and the solver
    /// seeds every `exception_table` handler bci with it. `None` (the
    /// default) leaves handlers reachable only through normal control flow,
    /// which is correct for analyses that do not model exceptions at all —
    /// but note their transfer functions then never run on handler-only
    /// blocks.
    fn handler_boundary(&self, _method: &Method) -> Option<Self::State> {
        None
    }

    /// Specializes the post-transfer `state` for one outgoing edge before it
    /// is joined into the successor's input — the SkipFlow-style predicate
    /// hook. A conditional's transfer runs once; then this runs on a
    /// *clone* of the resulting state per edge, so an analysis can assert
    /// the branch predicate's outcome along each side (e.g. "the compared
    /// local is nonzero on the taken edge"). Returning `false` declares the
    /// edge infeasible under the current state and the solver skips it.
    ///
    /// The default keeps every edge with the unrefined state, which is
    /// exactly the classic edge-insensitive solver. Refinements must stay
    /// sound under joins: only strengthen facts the predicate guarantees.
    fn refine_edge(
        &mut self,
        _method: &Method,
        _bci: usize,
        _insn: Insn,
        _edge: EdgeKind,
        _state: &mut Self::State,
    ) -> bool {
        true
    }
}

/// Joins `state` into `slot`; true when the slot changed.
fn merge<S: Join>(slot: &mut Option<S>, state: S) -> bool {
    match slot {
        Some(existing) => existing.join(&state),
        None => {
            *slot = Some(state);
            true
        }
    }
}

/// Runs `analysis` to a fixpoint and returns the state *entering* each
/// bytecode index (`None` for unreachable instructions).
pub fn solve_forward<A: ForwardAnalysis>(
    program: &Program,
    method: &Method,
    analysis: &mut A,
) -> Vec<Option<A::State>> {
    let code = &method.code;
    let mut input: Vec<Option<A::State>> = vec![None; code.len()];
    if code.is_empty() {
        return input;
    }
    input[0] = Some(analysis.boundary(method));
    let mut work = vec![0usize];
    if !method.exception_table.is_empty() {
        if let Some(entry_state) = analysis.handler_boundary(method) {
            for e in &method.exception_table {
                let h = e.handler as usize;
                if merge(&mut input[h], entry_state.clone()) {
                    work.push(h);
                }
            }
        }
    }
    while let Some(bci) = work.pop() {
        let mut state = input[bci].clone().expect("worklist entries have states");
        let insn = code[bci];
        analysis.transfer(program, method, bci, insn, &mut state);
        for (succ, edge) in edges(insn, bci) {
            let mut out = state.clone();
            if analysis.refine_edge(method, bci, insn, edge, &mut out)
                && merge(&mut input[succ], out)
            {
                work.push(succ);
            }
        }
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::new(130);
        a.insert(0);
        a.insert(65);
        a.insert(129);
        assert!(a.contains(65) && !a.contains(64));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 65, 129]);
        a.remove(65);
        assert!(!a.contains(65));
        a.insert(65);
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(!a.intersects(&b));
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a), "second union is a no-op");
        assert!(a.intersects(&b));
    }

    /// Forward toy analysis: which `const` bcis may have produced the
    /// current top-of-stack value. Exercises branch joins.
    #[test]
    fn forward_solver_joins_across_branches() {
        let program = parse_program(
            "method m 1 returns {
                load 0 const 0 ifcmp ne Lb
                const 7 goto Lr
            Lb: const 9
            Lr: retv
            }",
        )
        .unwrap();
        let method = &program.methods[0];

        struct TopConst;
        impl ForwardAnalysis for TopConst {
            type State = BitSet;
            fn boundary(&self, m: &Method) -> BitSet {
                BitSet::new(m.code.len())
            }
            fn transfer(
                &mut self,
                _p: &Program,
                m: &Method,
                bci: usize,
                insn: Insn,
                state: &mut BitSet,
            ) {
                if matches!(insn, Insn::Const(_)) {
                    *state = BitSet::new(m.code.len());
                    state.insert(bci);
                }
            }
        }
        let states = solve_forward(&program, method, &mut TopConst);
        // retv is the last instruction; both arms' consts reach it.
        let at_ret = states.last().unwrap().as_ref().unwrap();
        assert_eq!(at_ret.iter().count(), 2, "{at_ret:?}");
        assert!(!at_ret.contains(1), "comparison const was overwritten");
    }

    /// An analysis that kills the taken edge of every branch must leave the
    /// branch target unreachable while fall-through code still solves.
    #[test]
    fn refine_edge_can_prune_infeasible_edges() {
        let program = parse_program(
            "method m 1 returns {
                load 0 const 0 ifcmp ne Lb
                const 7 retv
            Lb: const 9 retv
            }",
        )
        .unwrap();
        let method = &program.methods[0];

        struct NeverTaken;
        impl ForwardAnalysis for NeverTaken {
            type State = ();
            fn boundary(&self, _m: &Method) {}
            fn transfer(&mut self, _p: &Program, _m: &Method, _b: usize, _i: Insn, _s: &mut ()) {}
            fn refine_edge(
                &mut self,
                _m: &Method,
                _b: usize,
                _i: Insn,
                edge: EdgeKind,
                _s: &mut (),
            ) -> bool {
                edge == EdgeKind::FallThrough
            }
        }
        let states = solve_forward(&program, method, &mut NeverTaken);
        let target = method.code[2].branch_target().unwrap() as usize;
        assert!(states[target].is_none(), "taken edge was pruned");
        assert!(states[3].is_some(), "fall-through still solved");
    }

    /// A stack height, joined by maximum.
    impl Join for usize {
        fn join(&mut self, b: &usize) -> bool {
            let next = (*self).max(*b);
            let changed = next != *self;
            *self = next;
            changed
        }
    }

    #[test]
    fn handler_blocks_reach_only_via_boundary_hook() {
        let program = parse_program(
            "class Err { }
             method m 1 returns {
                try Ls Le Lh *
             Ls:
                load 0 const 0 ifcmp eq Ld
                new Err athrow
             Le:
             Ld: const 0 retv
             Lh: pop const 1 retv
             }",
        )
        .unwrap();
        let method = &program.methods[0];
        let handler = method.exception_table[0].handler as usize;
        assert!(matches!(method.code[handler], Insn::Pop));

        struct Height {
            seed_handlers: bool,
        }
        impl ForwardAnalysis for Height {
            type State = usize;
            fn boundary(&self, _m: &Method) -> usize {
                0
            }
            fn transfer(&mut self, _p: &Program, _m: &Method, _b: usize, i: Insn, s: &mut usize) {
                *s = s.saturating_sub(i.pops()) + i.pushes();
            }
            fn handler_boundary(&self, _m: &Method) -> Option<usize> {
                // Handler entry: stack holds exactly the caught exception.
                self.seed_handlers.then_some(1)
            }
        }
        // Default (no hook): the handler block is unreachable.
        let states = solve_forward(
            &program,
            method,
            &mut Height {
                seed_handlers: false,
            },
        );
        assert!(states[handler].is_none());
        // With the hook the handler is solved, entering at height 1.
        let states = solve_forward(
            &program,
            method,
            &mut Height {
                seed_handlers: true,
            },
        );
        assert_eq!(states[handler], Some(1));
    }

    #[test]
    fn unreachable_code_has_no_state() {
        let program = parse_program(
            "method m 0 returns {
                const 1 retv
                const 2 retv
            }",
        )
        .unwrap();
        let method = &program.methods[0];

        struct Unit;
        impl ForwardAnalysis for Unit {
            type State = ();
            fn boundary(&self, _m: &Method) {}
            fn transfer(&mut self, _p: &Program, _m: &Method, _b: usize, _i: Insn, _s: &mut ()) {}
        }
        let states = solve_forward(&program, method, &mut Unit);
        assert!(states[0].is_some() && states[2].is_none());
    }
}
