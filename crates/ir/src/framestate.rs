//! Frame-state metadata: the mapping from optimized code back to
//! bytecode-level VM state (paper §2 and §5.5).

use pea_bytecode::MethodId;

/// Layout descriptor for a [`crate::NodeKind::FrameState`] node.
///
/// The node's inputs are, in order:
///
/// ```text
/// locals[0..n_locals] ++ stack[0..n_stack] ++ locks[0..n_locks] ++ [outer]
/// ```
///
/// where `outer` (present iff [`FrameStateData::has_outer`]) is the
/// caller's `FrameState` node — the chain the paper describes for inlined
/// methods. Deoptimization resumes the interpreter at `bci`
/// (the state captured *after* the most recent side effect; everything in
/// between is re-executed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameStateData {
    /// Method this state belongs to.
    pub method: MethodId,
    /// Bytecode index to resume at.
    pub bci: u32,
    /// Number of local-variable slots.
    pub n_locals: u32,
    /// Number of expression-stack slots.
    pub n_stack: u32,
    /// Number of locked objects.
    pub n_locks: u32,
    /// Whether the last input is the caller's frame state.
    pub has_outer: bool,
    /// Per-lock flags, bit `k` for lock `k`: set when the lock stems from
    /// a `synchronized` method (released automatically when the rebuilt
    /// interpreter frame returns); clear for explicit `monitorenter` locks
    /// (released by the re-executed bytecode itself). A synchronized
    /// method takes its lock before its body runs, so only bit 0 is ever
    /// set by the builder; a bit at or past `n_locks` is malformed.
    pub lock_from_sync: u64,
}

impl FrameStateData {
    /// Creates a descriptor with no sync-method locks.
    pub fn new(
        method: MethodId,
        bci: u32,
        n_locals: u32,
        n_stack: u32,
        n_locks: u32,
        has_outer: bool,
    ) -> Self {
        FrameStateData {
            method,
            bci,
            n_locals,
            n_stack,
            n_locks,
            has_outer,
            lock_from_sync: 0,
        }
    }

    /// Whether lock `k` stems from a `synchronized` method.
    pub fn lock_is_from_sync(&self, k: usize) -> bool {
        u32::try_from(k)
            .ok()
            .and_then(|k| self.lock_from_sync.checked_shr(k))
            .is_some_and(|bits| bits & 1 == 1)
    }

    /// Whether every set `lock_from_sync` bit names one of the
    /// `n_locks` locks.
    pub fn sync_flags_fit(&self) -> bool {
        self.lock_from_sync
            .checked_shr(self.n_locks)
            .is_none_or(|beyond| beyond == 0)
    }

    /// Total number of node inputs this descriptor implies.
    pub fn input_count(&self) -> usize {
        (self.n_locals + self.n_stack + self.n_locks) as usize + usize::from(self.has_outer)
    }

    /// Input index range of the locals.
    pub fn locals_range(&self) -> std::ops::Range<usize> {
        0..self.n_locals as usize
    }

    /// Input index range of the expression stack.
    pub fn stack_range(&self) -> std::ops::Range<usize> {
        let s = self.n_locals as usize;
        s..s + self.n_stack as usize
    }

    /// Input index range of the locked objects.
    pub fn locks_range(&self) -> std::ops::Range<usize> {
        let s = (self.n_locals + self.n_stack) as usize;
        s..s + self.n_locks as usize
    }

    /// Input index of the outer frame state, if present.
    pub fn outer_index(&self) -> Option<usize> {
        self.has_outer.then(|| self.input_count() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_inputs() {
        let d = FrameStateData::new(MethodId(0), 7, 3, 2, 1, true);
        assert_eq!(d.input_count(), 7);
        assert_eq!(d.locals_range(), 0..3);
        assert_eq!(d.stack_range(), 3..5);
        assert_eq!(d.locks_range(), 5..6);
        assert_eq!(d.outer_index(), Some(6));
        assert!(!d.lock_is_from_sync(0));
        assert!(d.sync_flags_fit());
        let d = FrameStateData {
            lock_from_sync: 0b10,
            ..d
        };
        assert!(d.lock_is_from_sync(1) && !d.lock_is_from_sync(64));
        assert!(!d.sync_flags_fit(), "bit 1 names a second lock of one");
    }

    #[test]
    fn no_outer_when_root() {
        let d = FrameStateData::new(MethodId(0), 0, 1, 0, 0, false);
        assert_eq!(d.outer_index(), None);
        assert_eq!(d.input_count(), 1);
    }
}
