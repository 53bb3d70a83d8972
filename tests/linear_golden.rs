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
/// and the elided monitor pair appears nowhere. The parameters are
/// registers 0 and 1, written by the caller; the null that only the
/// commit and the deopt metadata read has no register.
#[test]
fn cache_example_lowered_encoding_golden() {
    let code = compiled_cache_example();
    let art = code.linear.as_ref().expect("cache example lowers");
    #[rustfmt::skip]
    let golden: Vec<u32> = vec![
        0, 3, 0, 0, 4, 1, 0, 5, 2, 4, 6, 0, 5, 27, 7, 0, 31, 3, 1, 3, 0, 15, 8,
        7, 35, 8, 75, 28, 17, 9, 7, 0, 20, 10, 9, 0, 0, 0, 36, 1, 0, 10, 72,
        44, 17, 11, 7, 0, 20, 12, 11, 0, 1, 1, 14, 13, 1, 12, 37, 0, 13, 0, 69,
        64, 38, 83, 1, 14, 4, 38, 78, 0, 38, 78, 0, 38, 78, 0, 38, 83, 1, 14,
        3, 37, 0, 14, 0, 94, 89, 27, 15, 1, 41, 15, 30, 0, 28, 2, 0, 28, 6, 1,
        27, 16, 1, 41, 16,
    ];
    assert_eq!(art.code, golden, "lowered code words changed");
    assert_eq!(art.pool, vec![0, 1, 13], "constant pool changed");
    assert_eq!(art.num_regs, 17);
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
   6: const r5 <- 13
   9: mul r6 <- r0, r5
  13: getstatic r7 <- S0
  16: guard !r3 reason 3 deopt 0
  21: isnull r8 <- r7
  24: if r8 then 75 else 28
  28: checkcast r9 <- r7, C0
  32: ldfld r10 <- r9.[C0+0] (F0)
  38: ifcmp[1] r0, r10 then 72 else 44
  44: checkcast r11 <- r7, C0
  48: ldfld r12 <- r11.[C0+1] (F1)
  54: refeq r13 <- r1, r12
  58: ifcmpi[0] r13, 0 then 69 else 64
  64: edge -> 83 [r14 <- r4]
  69: edge -> 78
  72: edge -> 78
  75: edge -> 78
  78: edge -> 83 [r14 <- r3]
  83: ifcmpi[0] r14, 0 then 94 else 89
  89: getstatic r15 <- S1
  92: ret r15
  94: commit #0 x1 -> [r2]
  96: putstatic S0 <- r2
  99: putstatic S1 <- r6
 102: getstatic r16 <- S1
 105: ret r16
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
