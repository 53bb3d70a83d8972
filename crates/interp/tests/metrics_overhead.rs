//! Disabled metrics must be free on the interpreter hot loop.
//!
//! The claim in DESIGN.md is that the static-handle pattern makes a
//! disabled [`pea_metrics::MetricsHub`] cost one branch per site and *zero
//! heap allocations*. This test pins the allocation half with a counting
//! global allocator: the number of allocations during a counted loop must
//! not depend on how many iterations the loop runs.

use pea_bytecode::asm::parse_program;
use pea_interp::SimpleEnv;
use pea_runtime::Value;

#[path = "support/counting_alloc.rs"]
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

fn allocs_during_loop(iters: i64) -> u64 {
    let program = parse_program(COUNTED_LOOP).unwrap();
    let mut env = SimpleEnv::new(program);
    // Warm one-time lazy allocations (profile-map entries, stack growth).
    env.call("f", &[Value::Int(8)]).unwrap();
    let before = allocations();
    let result = env.call("f", &[Value::Int(iters)]).unwrap();
    assert_eq!(result, Some(Value::Int(iters)));
    allocations() - before
}

#[test]
fn disabled_metrics_add_zero_allocations_per_iteration() {
    let small = allocs_during_loop(1_000);
    let large = allocs_during_loop(100_000);
    assert_eq!(
        small, large,
        "allocation count must not scale with loop iterations \
         (disabled metrics and profiling must stay allocation-free)"
    );
}
