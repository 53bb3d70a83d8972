//! `run_pea` makes a fixed number of host allocations per method: none
//! per block or per node. A chain of twice as many diamonds, with or
//! without a virtual object crossing every merge, must cost exactly as
//! many allocations as the shorter chain — the analysis' own tables and
//! the two graph routines it calls, `Cfg::build` before and
//! `Graph::prune_dead` after, alike.

#[path = "../../interp/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use pea_core::fixtures::{diamond_chain, key_program};
use pea_core::{run_pea, PeaOptions};

/// Host allocations of `run_pea` on `diamond_chain(n)`, with the
/// analysis' result.
fn run_pea_allocations(n: usize, carry_object: bool) -> (u64, pea_core::PeaResult) {
    let (program, p) = key_program();
    let options = PeaOptions::default();
    let mut graph = diamond_chain(&p, n, carry_object);
    pea_ir::verify::verify(&graph).expect("the fixture verifies");

    let before = allocations();
    let result = run_pea(&mut graph, &program, &options);
    let pea_allocations = allocations() - before;
    pea_ir::verify::verify(&graph).expect("the result verifies");
    (pea_allocations, result)
}

#[test]
fn analysis_allocations_do_not_grow_with_the_method() {
    for carry_object in [false, true] {
        let (short, short_result) = run_pea_allocations(16, carry_object);
        let (long, long_result) = run_pea_allocations(32, carry_object);
        assert_eq!(
            short, long,
            "16 diamonds cost {short} allocations, 32 cost {long} (virtual object: \
             {carry_object})"
        );
        // The object stayed virtual through every merge: its allocation,
        // store and load are gone, and nothing materialized.
        let virtualized = usize::from(carry_object);
        for result in [short_result, long_result] {
            assert_eq!(result.virtualized_allocs, virtualized);
            assert_eq!(result.deleted_stores, virtualized);
            assert_eq!(result.deleted_loads, virtualized);
            assert_eq!(result.materializations, 0);
        }
    }
}
