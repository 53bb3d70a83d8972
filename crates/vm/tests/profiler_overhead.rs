//! The disabled profiler must be free on every charge path.
//!
//! Same contract (and same counting-allocator technique) as the
//! interpreter's `metrics_overhead` test: with the profiler hub disabled,
//! a charge site costs at most one branch (`methods.is_empty()`) and
//! *zero heap allocations* — the allocation count of a counted loop must
//! not depend on the iteration count, through the interpreter and through
//! both compiled tiers. The enabled profiler is held to the same
//! per-iteration standard: attribution is atomic adds into pre-resolved
//! cells, so only per-frame handles (bounded by call count, not
//! iterations) may allocate.

use pea_bytecode::asm::parse_program;
use pea_metrics::profile::ProfilerHub;
use pea_runtime::Value;
use pea_vm::{ExecMode, OptLevel, Vm, VmOptions};

#[path = "../../interp/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const COUNTED_LOOP: &str = "method f 1 returns {
  const 0
  store 1
Lhead:
  load 1
  load 0
  ifcmp ge Ldone
  load 1
  const 1
  add
  store 1
  goto Lhead
Ldone:
  load 1
  retv
}";

fn allocs_during_loop(hub: ProfilerHub, exec_mode: ExecMode, iters: i64) -> u64 {
    let program = parse_program(COUNTED_LOOP).unwrap();
    let mut vm = Vm::new(
        program,
        VmOptions {
            exec_mode,
            profiler: hub,
            ..VmOptions::with_opt_level(OptLevel::Pea)
        },
    );
    // Warm past the compile threshold so the measured call runs compiled
    // code; this also absorbs one-time lazy allocations.
    for _ in 0..60 {
        vm.call_entry("f", &[Value::Int(8)]).unwrap();
    }
    let before = allocations();
    let result = vm.call_entry("f", &[Value::Int(iters)]).unwrap();
    assert_eq!(result, Some(Value::Int(iters)));
    allocations() - before
}

#[test]
fn disabled_profiler_adds_zero_allocations_per_iteration() {
    // Absolute invariant on the linear tier (the graph walker allocates
    // per iteration on its own, profiler or not — see the relative test).
    let small = allocs_during_loop(ProfilerHub::disabled(), ExecMode::Linear, 1_000);
    let large = allocs_during_loop(ProfilerHub::disabled(), ExecMode::Linear, 100_000);
    assert_eq!(
        small, large,
        "allocation count must not scale with loop iterations \
         when the profiler is disabled"
    );
}

#[test]
fn profiler_adds_zero_allocations_in_both_tiers() {
    // The profiler's own footprint — enabled vs disabled on identical
    // runs — must be exactly zero allocations in either compiled tier:
    // attribution is atomic adds into cells pre-resolved at VM creation.
    for exec_mode in [ExecMode::Linear, ExecMode::Graph] {
        let disabled = allocs_during_loop(ProfilerHub::disabled(), exec_mode, 50_000);
        let enabled = allocs_during_loop(ProfilerHub::enabled(), exec_mode, 50_000);
        assert_eq!(
            enabled, disabled,
            "{exec_mode:?}: enabling the profiler must not add allocations \
             (atomic adds into pre-resolved cells only)"
        );
    }
}
