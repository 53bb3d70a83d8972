//! Compiling a method makes a fixed number of host allocations: per
//! method and per table, none per node or per block.
//!
//! A method of `n` diamonds, each reading and writing a field of one
//! object, is compiled phase by phase in pipeline order and then as a
//! whole by [`compile`]. Every phase, and the whole compilation, must
//! make the same number of host allocations for `2n` diamonds as for
//! `n`, up to the named allowance for tables that grow by doubling (see
//! [`GROWTH`]). Run with `--nocapture` to print the per-phase table.

#[path = "../../interp/tests/support/counting_alloc.rs"]
mod counting_alloc;
mod support;

use counting_alloc::allocations;
use pea_bytecode::asm::parse_program;
use pea_bytecode::{MethodId, Program};
use pea_compiler::canon::canonicalize;
use pea_compiler::{build_graph_with, compile, linear, CompilerOptions};
use pea_ir::cfg::Cfg;
use pea_ir::dom::DomTree;
use pea_ir::schedule::Schedule;
use std::fmt::Write as _;
use support::diamonds::source;

/// The phases, in pipeline order, then the whole compilation.
const PHASES: [&str; 9] = [
    "build_graph_with",
    "canonicalize",
    "prune_dead",
    "run_pea",
    "Cfg::build",
    "DomTree::build",
    "Schedule::build",
    "linear::lower",
    "compile",
];

/// Extra host allocations a phase may make when the method doubles: one
/// per table that grows by doubling and whose final size follows the
/// method, because a twice-as-long method can cross one more capacity
/// step of each. A phase that allocated per node or per block would
/// exceed its allowance by at least one allocation per added diamond.
///
/// - `build_graph_with`: the node arena, the edge pool and the table of
///   interned constants;
/// - `canonicalize`: the value-numbering table;
/// - `run_pea`: for the nodes the analysis adds (phis, virtual-object
///   mappings) the node arena, the edge pool and the phi index, and its
///   own phi cache and list of created phis;
/// - `Cfg::build`: none, its tables are sized by one walk of the graph;
/// - `linear::lower`: the code words, the constant pool and its index,
///   and the jump fixups;
/// - `compile`: the sum of the above, with `canonicalize` twice.
const GROWTH: [u64; 9] = [3, 1, 0, 5, 0, 0, 0, 4, 14];

/// Host allocations of `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

/// Host allocations of each phase of compiling the `n`-diamond method.
fn per_phase(n: usize) -> [u64; 9] {
    let program: Program = parse_program(&source(n)).expect("the source assembles");
    let method: MethodId = program.static_method_by_name("f").unwrap();
    let options = CompilerOptions::default();
    let mut out = [0; 9];

    let (a, built) = counted(|| build_graph_with(&program, method, None, &options.build));
    out[0] = a;
    let (mut graph, _, guards) = built.expect("the method builds");
    assert!(guards.is_empty(), "no receiver speculation");
    out[1] = counted(|| canonicalize(&mut graph)).0;
    out[2] = counted(|| graph.prune_dead()).0;
    let (a, pea) = counted(|| pea_core::run_pea(&mut graph, &program, &options.pea));
    out[3] = a;
    assert_eq!(pea.virtualized_allocs, 1, "the box stays virtual");
    assert_eq!(pea.materializations, 1, "and is materialized once");
    canonicalize(&mut graph);
    graph.prune_dead();
    let (a, cfg) = counted(|| Cfg::build(&graph));
    out[4] = a;
    let (a, dom) = counted(|| DomTree::build(&cfg));
    out[5] = a;
    let (a, schedule) = counted(|| Schedule::build(&graph, &cfg, &dom));
    out[6] = a;
    let (a, lowered) = counted(|| linear::lower(&program, method, &graph, &cfg, &schedule));
    out[7] = a;
    lowered.expect("the method lowers");
    let (a, whole) = counted(|| compile(&program, method, None, &options));
    out[8] = a;
    whole.expect("the method compiles");
    out
}

#[test]
fn no_phase_allocates_per_node_or_per_block() {
    const N: usize = 24;
    // Warm up once: the first compilation of a process sets up lazily
    // initialized state (thread-locals, the hasher's keys).
    per_phase(1);
    let short = per_phase(N);
    let long = per_phase(2 * N);
    let mut table = format!(
        "{:<18} {:>7} {:>7} {:>9}\n",
        "phase",
        format!("n={N}"),
        format!("n={}", 2 * N),
        "allowance"
    );
    for (i, phase) in PHASES.iter().enumerate() {
        let _ = writeln!(
            table,
            "{phase:<18} {:>7} {:>7} {:>9}",
            short[i], long[i], GROWTH[i]
        );
    }
    println!("host allocations per phase\n{table}");
    for (i, phase) in PHASES.iter().enumerate() {
        assert!(
            long[i] >= short[i] && long[i] - short[i] <= GROWTH[i],
            "{phase}: {} allocations for {N} diamonds, {} for {} (allowance {})\n{table}",
            short[i],
            long[i],
            2 * N,
            GROWTH[i]
        );
    }
}
