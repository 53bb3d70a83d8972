//! Golden lowered encoding for the paper's worked example (Listing 1 /
//! §4, `examples/cache_key.asm`): pins the byte-exact `Vec<u32>` code
//! stream, the constant pool, and the disassembly of the linear
//! register-machine artifact for `getValue` under PEA, and checks that
//! the cycle model and the PEA decision trace are unchanged between the
//! linear tier and the graph-walking oracle under `--checked`.
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
/// and the elided monitor pair appears nowhere.
#[test]
fn cache_example_lowered_encoding_golden() {
    let code = compiled_cache_example();
    let art = code.linear.as_ref().expect("cache example lowers");
    #[rustfmt::skip]
    let golden: Vec<u32> = vec![
        0, 1, 0, 0, 2, 1, 2, 3, 1, 4, 0, 1, 5, 1, 1, 6, 2, 5, 7, 1, 6, 28, 8,
        0, 32, 4, 1, 3, 0, 16, 9, 8, 34, 9, 83, 36, 18, 10, 8, 0, 21, 11, 10,
        0, 0, 0, 35, 1, 1, 11, 80, 52, 18, 12, 8, 0, 21, 13, 12, 0, 1, 1, 15,
        14, 2, 13, 35, 0, 14, 4, 77, 72, 36, 91, 1, 15, 5, 36, 86, 0, 36, 86,
        0, 36, 86, 0, 36, 91, 1, 15, 4, 35, 0, 15, 4, 102, 97, 28, 16, 1, 39,
        16, 31, 0, 29, 0, 0, 29, 7, 1, 28, 17, 1, 39, 17,
    ];
    assert_eq!(art.code, golden, "lowered code words changed");
    assert_eq!(art.pool, vec![0, 1, 13], "constant pool changed");
    assert_eq!(art.num_regs, 18);
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
    let golden = "   0: param r1 <- #0
   3: param r2 <- #1
   6: null r3
   8: const r4 <- 0
  11: const r5 <- 1
  14: const r6 <- 13
  17: mul r7 <- r1, r6
  21: getstatic r8 <- S0
  24: guard !r4 reason 3 deopt 0
  29: isnull r9 <- r8
  32: if r9 then 83 else 36
  36: checkcast r10 <- r8, C0
  40: ldfld r11 <- r10.[C0+0] (F0)
  46: ifcmp[1] r1, r11 then 80 else 52
  52: checkcast r12 <- r8, C0
  56: ldfld r13 <- r12.[C0+1] (F1)
  62: refeq r14 <- r2, r13
  66: ifcmp[0] r14, r4 then 77 else 72
  72: edge -> 91 [r15 <- r5]
  77: edge -> 86
  80: edge -> 86
  83: edge -> 86
  86: edge -> 91 [r15 <- r4]
  91: ifcmp[0] r15, r4 then 102 else 97
  97: getstatic r16 <- S1
 100: ret r16
 102: commit #0 x1 -> [r0]
 104: putstatic S0 <- r0
 107: putstatic S1 <- r7
 110: getstatic r17 <- S1
 113: ret r17
";
    assert_eq!(art.disassemble(), golden, "disassembly changed");
}

/// Running the example under `--checked` in both exec modes: identical
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
        options.checked = true;
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
