//! The compiler's output is pinned while the compiler gets faster.
//!
//! Every row of the workload corpus, the paper's worked example
//! (`examples/cache_key.asm`) and every `gen::generate(0..64)` program is
//! first warmed in the interpreter, so its profiles drive speculation,
//! devirtualization and inlining. Then every method of the program is
//! compiled at `none`, `ees` and `pea` from those profiles. One FNV-1a-64
//! hash per program covers, for each compilation: the linear disassembly
//! and `code_size`, the `PeaResult`, `schedule.per_block`, and every trace
//! event the compilation emits — inline decisions, devirtualization guards
//! and the PEA decisions — except `CompileEnd`, which carries wall-clock
//! phase times. A bailout contributes its text.
//!
//! The expected hashes were generated before the compile pipeline was
//! reorganised and are never re-pinned: a mismatch means the compiler
//! changed what it produces.

use pea::bytecode::asm::parse_program;
use pea::bytecode::{MethodId, Program};
use pea::compiler::{compile_traced, CompilerOptions, OptLevel};
use pea::runtime::Value;
use pea::trace::{MemorySink, TraceEvent};
use pea::vm::{Vm, VmOptions};
use std::fmt::Write;

/// Interpreted calls before compiling: past every speculation threshold
/// (`branch_threshold` and `devirtualize_threshold` are 20).
const WARM_CALLS: i64 = 30;

const CACHE_EXAMPLE: &str = include_str!("../examples/cache_key.asm");

/// The profiles an interpreter-only run of `entry` leaves behind.
fn warmed(program: &Program, entry: &str, args: fn(i64) -> Vec<Value>) -> Vm {
    let mut vm = Vm::new(program.clone(), VmOptions::interpreter_only());
    for i in 0..WARM_CALLS {
        // Errors are part of the run; the profiles record them too.
        let _ = vm.call_entry(entry, &args(i));
    }
    vm
}

/// The record of compiling every method of `program` at every level.
fn record(program: &Program, vm: &Vm) -> String {
    let mut out = String::new();
    for level in [OptLevel::None, OptLevel::Ees, OptLevel::Pea] {
        let options = CompilerOptions::with_opt_level(level);
        for m in 0..program.methods.len() {
            let method = MethodId::from_index(m);
            let mut sink = MemorySink::new();
            let compiled =
                compile_traced(program, method, Some(vm.profiles()), &options, &mut sink);
            writeln!(
                out,
                "== {level} {}",
                program.method(method).qualified_name(program)
            )
            .unwrap();
            match compiled {
                Ok(c) => {
                    let linear = c.linear.as_ref().expect("compile lowers");
                    writeln!(out, "code_size {}", c.code_size).unwrap();
                    writeln!(out, "{:?}", c.pea_result).unwrap();
                    writeln!(out, "{:?}", c.schedule.per_block).unwrap();
                    out.push_str(&linear.disassemble());
                }
                Err(bailout) => writeln!(out, "bailout {bailout}").unwrap(),
            }
            for event in &sink.events {
                if !matches!(event, TraceEvent::CompileEnd { .. }) {
                    writeln!(out, "{event:?}").unwrap();
                }
            }
        }
    }
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn iterate_args(i: i64) -> Vec<Value> {
    vec![Value::Int(i)]
}

fn hash_iterate(program: &Program) -> u64 {
    fnv1a64(record(program, &warmed(program, "iterate", iterate_args)).as_bytes())
}

/// Compares every program's hash with its pin and reports all mismatches
/// at once, in the pin table's own format.
fn check(got: Vec<(String, u64)>, pins: &[(&str, u64)]) {
    let want: Vec<(String, u64)> = pins.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(label, h)| format!("    (\"{label}\", 0x{h:016x}),\n"))
            .collect();
        panic!("compiler output changed; hashes now:\n{table}");
    }
}

#[test]
fn corpus_rows_are_pinned() {
    let got = pea::workloads::all_workloads()
        .into_iter()
        .map(|w| (w.name, hash_iterate(&w.program)))
        .collect();
    check(got, CORPUS_PINS);
}

#[test]
fn paper_example_is_pinned() {
    let program = parse_program(CACHE_EXAMPLE).unwrap();
    pea::bytecode::verify_program(&program).unwrap();
    let vm = warmed(&program, "getValue", |i| {
        vec![Value::Int(i % 3), Value::Null]
    });
    let got = vec![(
        "cache_key".to_string(),
        fnv1a64(record(&program, &vm).as_bytes()),
    )];
    check(got, PAPER_PINS);
}

#[test]
fn generated_programs_are_pinned() {
    let got = (0..64u64)
        .map(|seed| {
            let program = parse_program(&pea::workloads::gen::generate(seed)).expect("parses");
            pea::bytecode::verify_program(&program).expect("verifies");
            (format!("seed {seed}"), hash_iterate(&program))
        })
        .collect();
    check(got, GENERATED_PINS);
}

const CORPUS_PINS: &[(&str, u64)] = &[
    ("fop", 0x4f7984fd18fe7257),
    ("h2", 0xefcc9d86db2fd58c),
    ("jython", 0x8c28fe15eee88bc3),
    ("sunflow", 0xa56932b5104c700d),
    ("tomcat", 0x54f55b836de41f74),
    ("tradebeans", 0x32e784db0b9f78fb),
    ("xalan", 0x27d72e4971bf6014),
    ("avrora", 0x6bac2114e2a0ebd0),
    ("batik", 0x802c8189a9037956),
    ("eclipse", 0xceef0fa5fe1e17ad),
    ("luindex", 0x66bce5942d638d27),
    ("lusearch", 0x64b456a93d33f4d5),
    ("pmd", 0x54fe2ecf5d3f1fac),
    ("tradesoap", 0xaa841a91e9228ec6),
    ("actors", 0x93e1c831259df2a3),
    ("apparat", 0x6f91e5f9dea658d5),
    ("factorie", 0x911c8a6424dc7d69),
    ("kiama", 0x84bc6dbf1b164a59),
    ("scalac", 0xca729180acdcd3e0),
    ("scaladoc", 0xe546b497e7e47f59),
    ("scalap", 0x5dcc52d1cdb8ed9d),
    ("scalariform", 0x9c3cb67dc4fcac9b),
    ("scalatest", 0xc9e00bbf2081b07d),
    ("scalaxb", 0x61c375fcb640b408),
    ("specs", 0x35f2ff7ca9d39641),
    ("tmt", 0xfd0dc574d520bc90),
    ("SPECjbb2005", 0xaaf7907281e3fdfe),
];

const PAPER_PINS: &[(&str, u64)] = &[("cache_key", 0x7f7dde4ac1bfbad5)];

const GENERATED_PINS: &[(&str, u64)] = &[
    ("seed 0", 0xe8519d690fc59815),
    ("seed 1", 0xb204dd1be1f1dff4),
    ("seed 2", 0x7dd98d8fa77845a7),
    ("seed 3", 0x29827cd8bbbd7555),
    ("seed 4", 0x185ea0e946a46651),
    ("seed 5", 0xa6690ad7992802c4),
    ("seed 6", 0x92045bca8bbd7755),
    ("seed 7", 0xef758054adc06d29),
    ("seed 8", 0xe9f586ec8e658262),
    ("seed 9", 0x5a3a32d5e0a39e94),
    ("seed 10", 0x801ce7bda852885b),
    ("seed 11", 0x204064abb5a32ba3),
    ("seed 12", 0x3841ac868503c2c7),
    ("seed 13", 0x4653dce27f425b04),
    ("seed 14", 0xbc7a53cd3d0bc2eb),
    ("seed 15", 0x0957cc68201d8cd4),
    ("seed 16", 0xd37c18bcde8e2f4a),
    ("seed 17", 0x1e520b3283ed6c2d),
    ("seed 18", 0xf997d13630cb4795),
    ("seed 19", 0xe4e8f4d69a8b857a),
    ("seed 20", 0xe37e3f73f26970d8),
    ("seed 21", 0xc1008258874f18e3),
    ("seed 22", 0x7a5ffd34d4dbfbbe),
    ("seed 23", 0xfdead0968d5a63e8),
    ("seed 24", 0xad6b9717d63ae38f),
    ("seed 25", 0x386047bc89d19537),
    ("seed 26", 0x05fa313d827932c9),
    ("seed 27", 0xee71202259d9716f),
    ("seed 28", 0xb17f3552cd4d7aaf),
    ("seed 29", 0x997523d40501e825),
    ("seed 30", 0x9b3c0a8680bb7a8e),
    ("seed 31", 0x7bcd359973d90730),
    ("seed 32", 0x3433c94ec75c7d4c),
    ("seed 33", 0x3537a7680ca9002b),
    ("seed 34", 0xc2f66c20fa06bbda),
    ("seed 35", 0xfa64366c369824a8),
    ("seed 36", 0x1af0f554307d4fdd),
    ("seed 37", 0xcdaece787ce17546),
    ("seed 38", 0x631918d96cdafb52),
    ("seed 39", 0x4d85ab60ac1cc1ad),
    ("seed 40", 0x2a3e81d187cafe7b),
    ("seed 41", 0x928f3ee69fbcc81e),
    ("seed 42", 0x96bc5ca08447c042),
    ("seed 43", 0x8f514e1ff750c7d1),
    ("seed 44", 0xc50e013e5a93c290),
    ("seed 45", 0x71c5840669d4fcbb),
    ("seed 46", 0x23cc044a42fdd60a),
    ("seed 47", 0xa0e1444c04fe5d3e),
    ("seed 48", 0x977cc8f6fb04ae00),
    ("seed 49", 0xbfbf962b85f703ee),
    ("seed 50", 0x54957ae9be371434),
    ("seed 51", 0xa4c3865938b051bb),
    ("seed 52", 0xaf44aa46d5f973c9),
    ("seed 53", 0x53f98be9ba0978fe),
    ("seed 54", 0xe265a89a49dce36b),
    ("seed 55", 0xe1a47fc3a03e7530),
    ("seed 56", 0xb65328f4259a72ea),
    ("seed 57", 0x246047ac39b4150d),
    ("seed 58", 0x628e661dfdc51ad2),
    ("seed 59", 0x908821b02202aca0),
    ("seed 60", 0x8fc2b17ca9091df9),
    ("seed 61", 0xa34113869c7c78bd),
    ("seed 62", 0x0d6c7c1aa7027a4e),
    ("seed 63", 0x8f23fd5a8f441a45),
];
