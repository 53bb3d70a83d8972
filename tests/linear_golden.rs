//! Golden lowered encoding for the paper's worked example (Listing 1 /
//! §4, `examples/cache_key.asm`): pins the byte-exact `Vec<u32>` code
//! stream, the constant pool, and the disassembly of the linear
//! register-machine artifact for `getValue` under PEA, and checks that
//! the cycle model and the PEA decision trace are unchanged between the
//! linear tier and the graph-walking oracle.
//!
//! A change in these goldens means the lowering emitted different code
//! for the same scheduled graph; deliberate encoding changes must update
//! them alongside an explanation.

use pea::bytecode::asm::parse_program;
use pea::compiler::{compile, CompilerOptions, OptLevel};
use pea::runtime::Value;
use pea::trace::{MemorySink, SharedSink, TraceEvent};
use pea::vm::{ExecMode, Vm, VmOptions};

const CACHE_EXAMPLE: &str = include_str!("../examples/cache_key.asm");

fn compiled_cache_example() -> pea::compiler::CompiledMethod {
    let program = parse_program(CACHE_EXAMPLE).unwrap();
    pea::bytecode::verify_program(&program).unwrap();
    let method = program.static_method_by_name("getValue").unwrap();
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    compile(&program, method, None, &options).unwrap()
}

/// The byte-exact encoding: one `u32` word stream, the deduplicated
/// constant pool, and the artifact's shape. `Key` is fully virtual on the
/// hit path — the only allocation is the single commit on the miss path,
/// and the elided monitor pair appears nowhere. The parameters are
/// registers 0 and 1, written by the caller; the null that only the
/// commit and the deopt metadata read has no register, and the 13 that
/// only a multiplication reads is its pool operand (`muli`).
#[test]
fn cache_example_lowered_encoding_golden() {
    let code = compiled_cache_example();
    let art = code.linear.as_ref().expect("cache example lowers");
    #[rustfmt::skip]
    let golden: Vec<u32> = vec![
        0, 3, 0, 0, 4, 1, 46, 5, 0, 2, 27, 6, 0, 31, 3, 1, 3, 0, 15, 7, 6, 35,
        7, 72, 25, 17, 8, 6, 0, 20, 9, 8, 0, 0, 0, 36, 1, 0, 9, 69, 41, 17, 10,
        6, 0, 20, 11, 10, 0, 1, 1, 14, 12, 1, 11, 37, 0, 12, 0, 66, 61, 38, 80,
        1, 13, 4, 38, 75, 0, 38, 75, 0, 38, 75, 0, 38, 80, 1, 13, 3, 37, 0, 13,
        0, 91, 86, 27, 14, 1, 41, 14, 30, 0, 28, 2, 0, 28, 5, 1, 27, 15, 1, 41,
        15,
    ];
    assert_eq!(art.code, golden, "lowered code words changed");
    assert_eq!(art.pool, vec![0, 1, 13], "constant pool changed");
    assert_eq!(art.num_regs, 16);
    assert_eq!(
        art.deopts.len(),
        1,
        "one deopt point (the null-check guard)"
    );
    assert_eq!(art.commits.len(), 1, "one commit (the miss-path Key)");
}

/// The disassembly golden: the human-auditable rendering of the same
/// words, kept in sync with the raw encoding above.
#[test]
fn cache_example_disassembly_golden() {
    let code = compiled_cache_example();
    let art = code.linear.as_ref().expect("cache example lowers");
    let golden = "   0: const r3 <- 0
   3: const r4 <- 1
   6: muli r5 <- r0, 13
  10: getstatic r6 <- S0
  13: guard !r3 reason 3 deopt 0
  18: isnull r7 <- r6
  21: if r7 then 72 else 25
  25: checkcast r8 <- r6, C0
  29: ldfld r9 <- r8.[C0+0] (F0)
  35: ifcmp[1] r0, r9 then 69 else 41
  41: checkcast r10 <- r6, C0
  45: ldfld r11 <- r10.[C0+1] (F1)
  51: refeq r12 <- r1, r11
  55: ifcmpi[0] r12, 0 then 66 else 61
  61: edge -> 80 [r13 <- r4]
  66: edge -> 75
  69: edge -> 75
  72: edge -> 75
  75: edge -> 80 [r13 <- r3]
  80: ifcmpi[0] r13, 0 then 91 else 86
  86: getstatic r14 <- S1
  89: ret r14
  91: commit #0 x1 -> [r2]
  93: putstatic S0 <- r2
  96: putstatic S1 <- r5
  99: getstatic r15 <- S1
 102: ret r15
";
    assert_eq!(art.disassemble(), golden, "disassembly changed");
}

/// Running the example in both exec modes: identical
/// result vectors, identical virtual-cycle totals, and an identical PEA
/// decision trace (the cycle model and the analysis are tier-invariant).
#[test]
fn cache_example_cycles_and_trace_invariant_across_tiers() {
    let program = parse_program(CACHE_EXAMPLE).unwrap();
    pea::bytecode::verify_program(&program).unwrap();
    let mut runs = Vec::new();
    for exec in [ExecMode::Linear, ExecMode::Graph] {
        let mut options = VmOptions::with_opt_level(OptLevel::Pea);
        options.compile_threshold = 3;
        options.exec_mode = exec;
        let (sink, mem) = SharedSink::new(MemorySink::new());
        options.trace = Some(sink);
        let mut vm = Vm::new(program.clone(), options);
        let mut results = Vec::new();
        for i in 0..12i64 {
            results.push(vm.call_entry("getValue", &[Value::Int(i % 3), Value::Null]));
        }
        let pea_trace: Vec<TraceEvent> = mem
            .lock()
            .unwrap()
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Virtualized { .. }
                        | TraceEvent::Materialized { .. }
                        | TraceEvent::LockElided { .. }
                        | TraceEvent::LoadElided { .. }
                        | TraceEvent::StoreElided { .. }
                        | TraceEvent::CheckFolded { .. }
                        | TraceEvent::PhiCreated { .. }
                        | TraceEvent::Deopt { .. }
                        | TraceEvent::DeoptTaken { .. }
                )
            })
            .cloned()
            .collect();
        assert!(
            pea_trace
                .iter()
                .any(|e| matches!(e, TraceEvent::Virtualized { .. })),
            "the example must virtualize Key"
        );
        runs.push((results, vm.stats().cycles, pea_trace));
    }
    assert_eq!(runs[0].0, runs[1].0, "results differ between tiers");
    assert_eq!(runs[0].1, runs[1].1, "cycle counts differ between tiers");
    assert_eq!(runs[0].2, runs[1].2, "PEA traces differ between tiers");
}
