//! Multi-threaded mutators: N application threads on one VM, each with
//! its own heap, statics, profiles and pinned compiled code, sharing the
//! program and the metrics hub.
//!
//! The main mutator warms up first, so every forked thread starts at its
//! tier — the main mutator's compiled artifacts, shared by `Arc`, with no
//! re-profiling. Each thread then runs the same deterministic call
//! sequence and must produce exactly the same results and statistics as
//! a solo VM would.
//!
//! ```sh
//! cargo run --example threads
//! ```

use pea::bytecode::asm::parse_program;
use pea::runtime::Value;
use pea::vm::{OptLevel, Vm, VmOptions};

const SOURCE: &str = "
    class Pair { field a int field b int }

    # combine goes through a temporary Pair that PEA scalar-replaces.
    method combine 2 returns {
        new Pair store 2
        load 2 load 0 putfield Pair.a
        load 2 load 1 putfield Pair.b
        load 2 getfield Pair.a load 2 getfield Pair.b mul
        load 2 getfield Pair.a add retv
    }

    method iterate 1 returns {
        load 0 load 0 const 3 add invokestatic combine retv
    }
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(SOURCE)?;
    let mut vm = Vm::new(program, VmOptions::with_opt_level(OptLevel::Pea));

    // Warm the main mutator past the compile threshold.
    for i in 0..80 {
        vm.call_entry("iterate", &[Value::Int(i)])?;
    }
    println!(
        "main mutator warmed: {} method(s) compiled",
        vm.compiled_method_count()
    );

    // Fork the warmed tiering state onto 4 threads. Each runs the same
    // call sequence on its own heap; results must agree across threads.
    let runs = vm.run_threads_warm(4, |t, m| {
        let mut last = None;
        for i in 0..10_000 {
            last = m.call_entry("iterate", &[Value::Int(i)]).expect("call");
        }
        (t, last, m.stats())
    });
    for (t, last, stats) in &runs {
        println!(
            "thread {t}: last={last:?} cycles={} allocs={} compiles={}",
            stats.cycles, stats.alloc_count, stats.compiles
        );
        assert_eq!(*last, runs[0].1, "threads must agree");
        assert_eq!(stats.compiles, 0, "warm forks never recompile");
    }
    Ok(())
}
