//! The compiler's output is pinned while the compiler gets faster.
//!
//! Every row of the workload corpus, the paper's worked example
//! (`examples/cache_key.asm`) and every `gen::generate(0..64)` program is
//! first warmed in the interpreter, so its profiles drive speculation,
//! devirtualization and inlining. Then every method of the program is
//! compiled at `none`, `ees` and `pea` from those profiles. Each program
//! gets two FNV-1a-64 hashes:
//!
//! - its *decisions*: for each compilation, `code_size`, the `PeaResult`
//!   and every trace event the compilation emits — inline decisions,
//!   devirtualization guards and the PEA decisions — except `CompileEnd`,
//!   which carries wall-clock phase times. A bailout contributes its text.
//!   They are never re-pinned: a mismatch means the compiler decided
//!   differently.
//! - its *code*: for each compilation, `schedule.per_block` and the linear
//!   disassembly. A change to the scheduler's order or to the linear
//!   encoding re-pins these, deliberately and with its reason in the
//!   change log; a change that only makes the compiler faster must not.
//!
//! Both halves were first taken from a compiler that still matched the
//! single hash per program pinned before the compile pipeline was
//! reorganised.
//!
//! Every successful compilation also goes through the PEA decision
//! sanitizer (`pea_analysis::check_compilation`) against the program's
//! static escape verdicts: a virtualized or lock-elided site the
//! pre-analysis contradicts, or a frame state that cannot rebuild an
//! object it virtualized, fails the test with the sanitizer's findings.

use pea::analysis::{check_compilation, StaticVerdicts};
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

/// The records of compiling every method of `program` at every level: the
/// compiler's decisions, and the code it produced. Panics with the
/// sanitizer's findings, under `label`, if any compilation has one.
fn record(label: &str, program: &Program, vm: &Vm) -> (String, String) {
    let verdicts = StaticVerdicts::analyze(program);
    let mut findings = Vec::new();
    let mut decisions = String::new();
    let mut code = String::new();
    for level in [OptLevel::None, OptLevel::Ees, OptLevel::Pea] {
        let options = CompilerOptions::with_opt_level(level);
        for m in 0..program.methods.len() {
            let method = MethodId::from_index(m);
            let mut sink = MemorySink::new();
            let compiled =
                compile_traced(program, method, Some(vm.profiles()), &options, &mut sink);
            let header = format!(
                "== {level} {}\n",
                program.method(method).qualified_name(program)
            );
            decisions.push_str(&header);
            code.push_str(&header);
            match compiled {
                Ok(c) => {
                    let linear = c.linear.as_ref().expect("compile lowers");
                    writeln!(decisions, "code_size {}", c.code_size).unwrap();
                    writeln!(decisions, "{:?}", c.pea_result).unwrap();
                    writeln!(code, "{:?}", c.schedule.per_block).unwrap();
                    code.push_str(&linear.disassemble());
                    for finding in
                        check_compilation(program, &verdicts, method, &c.graph, &sink.events)
                    {
                        findings.push(format!("  - {level}: {finding}"));
                    }
                }
                Err(bailout) => writeln!(decisions, "bailout {bailout}").unwrap(),
            }
            for event in &sink.events {
                if !matches!(event, TraceEvent::CompileEnd { .. }) {
                    writeln!(decisions, "{event:?}").unwrap();
                }
            }
        }
    }
    assert!(
        findings.is_empty(),
        "PEA decision sanitizer: {} finding(s) in {label}:\n{}",
        findings.len(),
        findings.join("\n")
    );
    (decisions, code)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn iterate_args(i: i64) -> Vec<Value> {
    vec![Value::Int(i)]
}

/// The decisions and code hashes of one program.
type Hashes = (u64, u64);

fn hashes(label: &str, program: &Program, vm: &Vm) -> Hashes {
    let (decisions, code) = record(label, program, vm);
    (fnv1a64(decisions.as_bytes()), fnv1a64(code.as_bytes()))
}

fn hash_iterate(label: &str, program: &Program) -> Hashes {
    hashes(label, program, &warmed(program, "iterate", iterate_args))
}

/// Compares every program's hashes with its pins and reports all
/// mismatches at once, in the pin table's own format. A changed decisions
/// hash is named first: it is never re-pinned.
fn check(got: Vec<(String, Hashes)>, pins: &[(&str, u64, u64)]) {
    let want: Vec<(String, Hashes)> = pins
        .iter()
        .map(|&(l, d, c)| (l.to_string(), (d, c)))
        .collect();
    if got != want {
        let decided: Vec<&str> = got
            .iter()
            .zip(&want)
            .filter(|(g, w)| g.0 != w.0 || g.1 .0 != w.1 .0)
            .map(|(g, _)| g.0.as_str())
            .collect();
        let table: String = got
            .iter()
            .map(|(label, (d, c))| format!("    (\"{label}\", 0x{d:016x}, 0x{c:016x}),\n"))
            .collect();
        panic!("compiler output changed; decisions changed for {decided:?}; hashes now:\n{table}");
    }
}

#[test]
fn corpus_rows_are_pinned() {
    let got = pea::workloads::all_workloads()
        .into_iter()
        .map(|w| {
            let hashes = hash_iterate(&w.name, &w.program);
            (w.name, hashes)
        })
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
    let got = vec![("cache_key".to_string(), hashes("cache_key", &program, &vm))];
    check(got, PAPER_PINS);
}

#[test]
fn generated_programs_are_pinned() {
    let got = (0..64u64)
        .map(|seed| {
            let program = parse_program(&pea::workloads::gen::generate(seed)).expect("parses");
            pea::bytecode::verify_program(&program).expect("verifies");
            let label = format!("seed {seed}");
            let hashes = hash_iterate(&label, &program);
            (label, hashes)
        })
        .collect();
    check(got, GENERATED_PINS);
}

const CORPUS_PINS: &[(&str, u64, u64)] = &[
    ("fop", 0xc8cc1a8322af1b24, 0x8c66c5285f78f490),
    ("h2", 0x82c6ddb1aa50c833, 0x72fc0142628c07e8),
    ("jython", 0x9670a6a0ee1aaf71, 0x9447dcd517f0f94f),
    ("sunflow", 0x34e9fb6fec517d10, 0x4ee4c42cf44b96fd),
    ("tomcat", 0x31a43c04add92a15, 0x2ef8bfa94ea914aa),
    ("tradebeans", 0x8011b1c2ea62acc9, 0xc9f0329e786c2668),
    ("xalan", 0xeeef012ededf0101, 0x16131855bed93197),
    ("avrora", 0x7d1de2966d446853, 0xa6329fcd02228620),
    ("batik", 0xd2c07ad5279ea8a2, 0x40ce15597d167de6),
    ("eclipse", 0xf327d5a041aca2bb, 0x1dc00073b8ab911f),
    ("luindex", 0xa70fc9ef76bad308, 0xacabdee23c060f26),
    ("lusearch", 0xa70fc9ef76bad308, 0x2e6d184728129af0),
    ("pmd", 0xcb18a3b51534a87a, 0x8e8bf5c4bce3f5c2),
    ("tradesoap", 0xdecdedef486adbc8, 0x5f6e159c388e8380),
    ("actors", 0x1e89a6763cecc366, 0xd30350db69d6f95b),
    ("apparat", 0x42e64c0364bc49cf, 0x8108c4cb76c092d8),
    ("factorie", 0xf5e9dae8d8f94df9, 0x5f24cacff86b5281),
    ("kiama", 0xf59fdd119734ae05, 0x54473ff374106dac),
    ("scalac", 0xd13a7a4f732ac961, 0x5b67bee40c01a66f),
    ("scaladoc", 0xc4ff8edb9e90e532, 0xe6b9bbe62d760799),
    ("scalap", 0xb07eca467146cfcd, 0xdf4d0e51405cba17),
    ("scalariform", 0xc8cc1a8322af1b24, 0xe96b467c63d5f402),
    ("scalatest", 0xe66e9e52ffc49b2b, 0xcd2676ad73c07dd8),
    ("scalaxb", 0x5c7bd070db7c6e94, 0x41fa9f6054f88ae8),
    ("specs", 0xd8cc9d680a4c835e, 0xbf92d936e1fd8b9c),
    ("tmt", 0xcab1c28a324bba20, 0xf3a696041eff7ee2),
    ("SPECjbb2005", 0x437e53a30e9bf49d, 0x75466b1974f7c436),
];

const PAPER_PINS: &[(&str, u64, u64)] = &[("cache_key", 0x306410f2c5c8b93d, 0xe69d111e0a3ac3b0)];

const GENERATED_PINS: &[(&str, u64, u64)] = &[
    ("seed 0", 0xb2102700c798e51b, 0x1c8e4a0df68c804c),
    ("seed 1", 0xb64d1c892194cd16, 0x8f0dda258a22a787),
    ("seed 2", 0x01037bcf08a5591f, 0xb45dac95ad17634f),
    ("seed 3", 0xadae9e46a55eb25a, 0xf71731cd9831f47b),
    ("seed 4", 0xe5e7251d6ef5d423, 0x3711ce557d6997c1),
    ("seed 5", 0xcd7cf2664d3d6b20, 0x37f982d28584be9b),
    ("seed 6", 0x63e2bb346660257e, 0x3434164e088af906),
    ("seed 7", 0x32ddcc1114216d06, 0x88ff67e449ca7421),
    ("seed 8", 0x97fb20098802c091, 0x14082f3ce133a8ff),
    ("seed 9", 0xc6757d02f2c761e0, 0x43b522d831dffb6f),
    ("seed 10", 0xce1c40dc95799c6a, 0xb191b6dbf5b3c5d3),
    ("seed 11", 0xf76e018d40eac66c, 0xd2e4ad84924278d1),
    ("seed 12", 0x6659b28cdf35ed93, 0xcd2086120722ddd1),
    ("seed 13", 0x65c561de72381416, 0xb2db9dd7c0ab84ef),
    ("seed 14", 0x282a995ec64cdf20, 0x46bdc5ed3dd76431),
    ("seed 15", 0xc5b489c6986b15ac, 0x3a77c9a54813f6c2),
    ("seed 16", 0x3738c7341356a61b, 0xb065d1c01e6100ae),
    ("seed 17", 0x106fe99e2413b37a, 0xcc4fc1f17dd308a8),
    ("seed 18", 0xc689d79c881e2438, 0x03c1615118585efe),
    ("seed 19", 0x36d4b14a9bb6f0cb, 0xa4e4a9e420777f46),
    ("seed 20", 0xba56b2b7cd41ab1d, 0xde01bbeb6e7e9f33),
    ("seed 21", 0x02250767656784ed, 0xcd1796b1eb0fd1dd),
    ("seed 22", 0x47d75df6a1e11c50, 0x5951bd4bb37154e7),
    ("seed 23", 0x80e0f39b09aeb95b, 0xd9b6f1d4c9fe0631),
    ("seed 24", 0x410fa48b5477c459, 0xc6d1579fb8f27f39),
    ("seed 25", 0x3aebcee2ec69a005, 0xf6ac44add5e384d2),
    ("seed 26", 0x558fd15b1aa67353, 0x3ddc8e9f5fc6783f),
    ("seed 27", 0x8ebfabccd0b0265e, 0xb8aa3ec6ea575104),
    ("seed 28", 0x1c0ad76579c33e0c, 0x4098452014ebdd44),
    ("seed 29", 0x260bc5a5706c244c, 0x7228b4d06c05dd2f),
    ("seed 30", 0x6ac2e59f37697a34, 0x0c4659ef96191b1c),
    ("seed 31", 0x1433e1e999d19b26, 0xd0d555d80a70e5ec),
    ("seed 32", 0x784b605ce71d5163, 0xf141202dade35416),
    ("seed 33", 0x64ff9dbf5412f938, 0x592e9ce054375619),
    ("seed 34", 0x98bcb1a6d6ade3af, 0xb199e330dacac19b),
    ("seed 35", 0x5568e5a1a0eddd50, 0x4f0db7a29ae16b42),
    ("seed 36", 0x002277bfe0d10220, 0x17e80f3b9e3122da),
    ("seed 37", 0x0381f8c793a431d1, 0x49b495b8798af313),
    ("seed 38", 0x6b399bd1bcd4846f, 0x12f635b3a646967a),
    ("seed 39", 0xe061e5c17437ce76, 0xcc904745dba923fd),
    ("seed 40", 0x38402d838e7be17c, 0xa2667f2787d346c6),
    ("seed 41", 0xb99097c635c3dbdc, 0x1d7cdb1a6167deef),
    ("seed 42", 0x852d434c2e861393, 0xff8a381d2d93775e),
    ("seed 43", 0x306e1050cf733ca6, 0xf5578f553d816d02),
    ("seed 44", 0x22bcc47ed8934356, 0x95ac02b5da808852),
    ("seed 45", 0xe7bc8a9afce3ac42, 0x957ab5b3eb30d53c),
    ("seed 46", 0xda80f2b65d0eeb42, 0x38b485ab33d03aec),
    ("seed 47", 0x2c2c6f0122c2d72e, 0xa3a1cc15c889b09f),
    ("seed 48", 0xba4b699f3d9107b5, 0x433d6728d6b0445e),
    ("seed 49", 0x058930c442621683, 0x60cb9e0e43015fb4),
    ("seed 50", 0x026d001587c5f8af, 0x3bc51dbedf92a1e4),
    ("seed 51", 0x79810a0494255afb, 0x6e83c0c17f0b41d9),
    ("seed 52", 0xab1b285ce2683c05, 0x465843ec6cff18ac),
    ("seed 53", 0x7fea4a3772570296, 0xe78f7c2e8d3f0144),
    ("seed 54", 0x878d1e33237e50de, 0x58e697b1aa31b593),
    ("seed 55", 0x4d6aafeedb102e26, 0xb6d51b8b1af895f4),
    ("seed 56", 0x242e10cf6d96cdb8, 0xecd780bc2a1ea3fa),
    ("seed 57", 0x8086c70656ff25d9, 0x5590f8e9daa74c77),
    ("seed 58", 0xd2a5fc20a050c19c, 0x8bb35deecec5eeda),
    ("seed 59", 0x5cde2908a3a9167b, 0x06b90a762ff91311),
    ("seed 60", 0x6daf7b26ee1fd6b1, 0x5aeffd63e4e5a3d0),
    ("seed 61", 0x41f85cf62b40a492, 0x52238b30830780c2),
    ("seed 62", 0x514c0d674a7b317d, 0x91641dd303f5a172),
    ("seed 63", 0xa81c93018a6beca9, 0x0d11529dde289e2e),
];
