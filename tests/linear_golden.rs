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
/// only a multiplication reads is its pool operand (`muli`), and the
/// multiplication, which only the miss path reads, is placed there. The six
/// zero words at the end are the stream's padding: the executor reads
/// each instruction's fixed part, up to seven words, with one bounds
/// check, so the last instruction must have six readable words after its
/// opcode. The disassembly below stops before them.
#[test]
fn cache_example_lowered_encoding_golden() {
    let code = compiled_cache_example();
    let art = code.linear.as_ref().expect("cache example lowers");
    #[rustfmt::skip]
    let golden: Vec<u32> = vec![
        0, 3, 0, 0, 4, 1, 27, 5, 0, 31, 3, 1, 3, 0, 15, 6, 5, 35, 6, 68, 21,
        17, 7, 5, 0, 20, 8, 7, 0, 0, 0, 36, 1, 0, 8, 65, 37, 17, 9, 5, 0, 20,
        10, 9, 0, 1, 1, 14, 11, 1, 10, 37, 0, 11, 0, 62, 57, 38, 76, 1, 12, 4,
        38, 71, 0, 38, 71, 0, 38, 71, 0, 38, 76, 1, 12, 3, 37, 0, 12, 0, 87,
        82, 27, 13, 1, 41, 13, 46, 14, 0, 2, 30, 0, 28, 2, 0, 28, 14, 1, 27,
        15, 1, 41, 15,
        0, 0, 0, 0, 0, 0,
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
   6: getstatic r5 <- S0
   9: guard !r3 reason 3 deopt 0
  14: isnull r6 <- r5
  17: if r6 then 68 else 21
  21: checkcast r7 <- r5, C0
  25: ldfld r8 <- r7.[C0+0] (F0)
  31: ifcmp[1] r0, r8 then 65 else 37
  37: checkcast r9 <- r5, C0
  41: ldfld r10 <- r9.[C0+1] (F1)
  47: refeq r11 <- r1, r10
  51: ifcmpi[0] r11, 0 then 62 else 57
  57: edge -> 76 [r12 <- r4]
  62: edge -> 71
  65: edge -> 71
  68: edge -> 71
  71: edge -> 76 [r12 <- r3]
  76: ifcmpi[0] r12, 0 then 87 else 82
  82: getstatic r13 <- S1
  85: ret r13
  87: muli r14 <- r0, 13
  91: commit #0 x1 -> [r2]
  93: putstatic S0 <- r2
  96: putstatic S1 <- r14
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
