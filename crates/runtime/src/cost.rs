//! The virtual cycle cost model shared by the interpreter and compiled
//! code.
//!
//! The paper reports "iterations per minute" on real hardware; our
//! substitute is a deterministic cycle counter. Costs are chosen so the
//! *relative* effects the paper measures are reproduced:
//!
//! * allocation is expensive (zeroing + allocation-path work), so removing
//!   allocations speeds execution;
//! * monitor operations cost more than plain ALU work, so lock elision is
//!   visible;
//! * interpreted code pays a per-instruction dispatch penalty, so JIT
//!   compilation matters;
//! * compiled activations pay a small cost proportional to machine-code
//!   size (instruction-cache pressure), so the code-size growth PEA can
//!   cause (paper §6.1, the jython regression) can show up as a slowdown.

/// Dispatch overhead per interpreted instruction.
pub const INTERP_DISPATCH: u64 = 14;

/// Base cost of a heap allocation (header setup, allocation-path work).
pub const ALLOC_BASE: u64 = 40;

/// Additional allocation cost per 8-byte slot (zeroing).
pub const ALLOC_PER_SLOT: u64 = 2;

/// Cost of a monitor enter or exit (CAS-like).
pub const MONITOR_OP: u64 = 18;

/// Cost of a field or array access.
pub const MEMORY_OP: u64 = 4;

/// Cost of an ALU operation, comparison, or move.
pub const ALU_OP: u64 = 1;

/// Cost of taking a branch.
pub const BRANCH_OP: u64 = 2;

/// Call/return linkage overhead (per invocation, either tier).
pub const CALL_OVERHEAD: u64 = 22;

/// Cost of a taken deoptimization: frame reconstruction and interpreter
/// re-entry.
pub const DEOPT_PENALTY: u64 = 2_500;

/// Per-activation instruction-cache pressure: every compiled activation
/// pays `code_size_nodes / ICACHE_NODES_PER_UNIT * ICACHE_UNIT_COST`.
pub const ICACHE_NODES_PER_UNIT: u64 = 16;

/// See [`ICACHE_NODES_PER_UNIT`].
pub const ICACHE_UNIT_COST: u64 = 5;

/// Virtual cycles per simulated minute, used to convert measured cycles
/// into the paper's "iterations per minute" metric.
pub const CYCLES_PER_MINUTE: u64 = 60 * 1_000_000_000;

/// Allocation cost of an object or array spanning `bytes` heap bytes
/// (at most 2^62 + 40: no `u64` overflows).
pub fn alloc_cost(bytes: u64) -> u64 {
    ALLOC_BASE + ALLOC_PER_SLOT * bytes.div_ceil(8)
}

/// What every tier charges for a `newarray` of `len` elements before the
/// heap accepts or refuses it. A negative length is charged as empty, and
/// a length past the heap's capacity — which can only end in
/// `OutOfMemory` — as that capacity, so a hostile length cannot run the
/// cycle counter into overflow.
pub fn array_alloc_cost(len: i64) -> u64 {
    let len = len.clamp(0, crate::MAX_HEAP_SLOTS as i64);
    alloc_cost(pea_bytecode::Program::array_size(len as u64))
}

/// Instruction-cache penalty for one activation of compiled code with
/// `code_size` scheduled nodes. Quadratic in the number of cache units:
/// small methods are effectively free, while code-size growth in already
/// large methods — exactly what PEA's per-branch materialization can
/// cause (paper §6.1, the jython regression) — costs superlinearly.
pub fn icache_cost(code_size: u64) -> u64 {
    let units = code_size / ICACHE_NODES_PER_UNIT;
    units * units * ICACHE_UNIT_COST
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_cost_scales_with_size() {
        assert!(alloc_cost(16) < alloc_cost(160));
        assert_eq!(alloc_cost(16), ALLOC_BASE + 2 * ALLOC_PER_SLOT);
    }

    #[test]
    fn array_alloc_cost_is_bounded_for_any_length() {
        assert_eq!(array_alloc_cost(-5), alloc_cost(16));
        assert_eq!(array_alloc_cost(10), alloc_cost(16 + 80));
        assert_eq!(array_alloc_cost(i64::MAX), array_alloc_cost(1 << 40));
        assert_eq!(alloc_cost(u64::MAX), ALLOC_BASE + (1 << 62));
    }

    #[test]
    fn icache_cost_scales_with_code_size() {
        assert_eq!(icache_cost(0), 0);
        assert!(icache_cost(320) > icache_cost(32));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn deopt_dwarfs_single_ops() {
        assert!(DEOPT_PENALTY > 100 * ALU_OP);
        assert!(DEOPT_PENALTY > alloc_cost(64));
    }
}
