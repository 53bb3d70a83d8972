//! Disabled metrics must be free on the interpreter hot loop.
//!
//! The claim in DESIGN.md is that the static-handle pattern makes a
//! disabled [`pea_metrics::MetricsHub`] cost one branch per site and *zero
//! heap allocations*. This test pins the allocation half with a counting
//! global allocator: the number of allocations during a counted loop must
//! not depend on how many iterations the loop runs. The same holds for the
//! fused dispatch stream the unobserved loop runs.

use pea_bytecode::asm::parse_program;
use pea_bytecode::Fused;
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

/// The ballast pattern's loop body (`compute_ballast` in `perfbench`),
/// counting local 0 down: every instruction but the `goto` lies in a
/// superinstruction.
const BALLAST_LOOP: &str = "method f 1 returns {
  load 0 store 1
  const 0 store 2
Lhead:
  load 0 const 0 ifcmp le Ldone
  load 1 load 2 xor load 2 add store 1
  load 1 const 13 mul load 1 add store 1
  load 2 const 1 add store 2
  load 0 const 1 sub store 0
  goto Lhead
Ldone:
  load 2
  retv
}";

fn allocs_during_loop(source: &str, iters: i64) -> u64 {
    let program = parse_program(source).unwrap();
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
    let small = allocs_during_loop(COUNTED_LOOP, 1_000);
    let large = allocs_during_loop(COUNTED_LOOP, 100_000);
    assert_eq!(
        small, large,
        "allocation count must not scale with loop iterations \
         (disabled metrics and profiling must stay allocation-free)"
    );
}

#[test]
fn the_fused_ballast_loop_allocates_nothing_per_iteration() {
    let program = parse_program(BALLAST_LOOP).unwrap();
    let f = program.static_method_by_name("f").unwrap();
    let superinstructions = program
        .fused(f)
        .iter()
        .filter(|&&e| e != Fused::Plain)
        .count();
    assert_eq!(superinstructions, 7, "the loop runs fused");
    let small = allocs_during_loop(BALLAST_LOOP, 1_000);
    let large = allocs_during_loop(BALLAST_LOOP, 100_000);
    assert_eq!(small, large, "the fused loop must stay allocation-free");
}
