//! `run_pea` makes a fixed number of host allocations per method: none
//! per block or per node. A chain of twice as many diamonds, with or
//! without a virtual object crossing every merge, must cost exactly as
//! many allocations as the shorter chain, once the allocations of the two
//! graph routines the analysis calls are taken out: `Cfg::build` before
//! and `Graph::prune_dead` after. Their work lists grow with the graph,
//! and both belong to `pea-ir`, shared with the other phases.

#[path = "../../interp/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use pea_core::fixtures::{diamond_chain, key_program};
use pea_core::{run_pea, PeaOptions};
use pea_ir::cfg::Cfg;

/// Host allocations of `run_pea` on `diamond_chain(n)` beyond those of
/// `Cfg::build` on the same graph and `prune_dead` on the result, with the
/// analysis' result.
fn allocations_beyond_cfg(n: usize, carry_object: bool) -> (u64, pea_core::PeaResult) {
    let (program, p) = key_program();
    let options = PeaOptions::default();
    let mut graph = diamond_chain(&p, n, carry_object);
    pea_ir::verify::verify(&graph).expect("the fixture verifies");

    let before = allocations();
    let cfg = Cfg::build(&graph);
    let cfg_allocations = allocations() - before;
    drop(cfg);

    let before = allocations();
    let result = run_pea(&mut graph, &program, &options);
    let pea_allocations = allocations() - before;
    pea_ir::verify::verify(&graph).expect("the result verifies");

    // The sweep finds nothing left to collect, but walks the same live
    // graph as the one inside `run_pea`.
    let before = allocations();
    assert_eq!(graph.prune_dead(), 0);
    let prune_allocations = allocations() - before;
    (
        pea_allocations - cfg_allocations - prune_allocations,
        result,
    )
}

#[test]
fn analysis_allocations_do_not_grow_with_the_method() {
    for carry_object in [false, true] {
        let (short, short_result) = allocations_beyond_cfg(16, carry_object);
        let (long, long_result) = allocations_beyond_cfg(32, carry_object);
        assert_eq!(
            short, long,
            "16 diamonds cost {short} allocations beyond the graph routines, 32 \
             cost {long} (virtual object: {carry_object})"
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
