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
//! Each method is also compiled untraced, as the VM compiles it when
//! neither a trace sink nor metrics want the events: its code, `code_size`
//! and `PeaResult` must equal the traced compilation's, and a bailout must
//! read the same.
//!
//! Every successful compilation also goes through the PEA decision
//! sanitizer (`pea_analysis::check_compilation`) against the program's
//! static escape verdicts: a virtualized or lock-elided site the
//! pre-analysis contradicts, or a frame state that cannot rebuild an
//! object it virtualized, fails the test with the sanitizer's findings.

use pea::analysis::{check_compilation, StaticVerdicts};
use pea::bytecode::asm::parse_program;
use pea::bytecode::{MethodId, Program};
use pea::compiler::{compile, compile_traced, CompiledMethod, CompilerOptions, OptLevel};
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

/// The code record of one compilation: its schedule and linear form.
fn code_of(c: &CompiledMethod) -> String {
    let linear = c.linear.as_ref().expect("compile lowers");
    format!("{:?}\n{}", c.schedule.per_block, linear.disassemble())
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
            let untraced = compile(program, method, Some(vm.profiles()), &options);
            let header = format!(
                "== {level} {}\n",
                program.method(method).qualified_name(program)
            );
            decisions.push_str(&header);
            code.push_str(&header);
            match (compiled, untraced) {
                (Ok(c), Ok(u)) => {
                    let c_code = code_of(&c);
                    assert_eq!(
                        (code_of(&u), u.code_size, &u.pea_result),
                        (c_code.clone(), c.code_size, &c.pea_result),
                        "{label}: {header}untraced compile differs from the traced one"
                    );
                    writeln!(decisions, "code_size {}", c.code_size).unwrap();
                    writeln!(decisions, "{:?}", c.pea_result).unwrap();
                    code.push_str(&c_code);
                    for finding in
                        check_compilation(program, &verdicts, method, &c.graph, &sink.events)
                    {
                        findings.push(format!("  - {level}: {finding}"));
                    }
                }
                (Err(bailout), Err(u)) => {
                    assert_eq!(
                        u.to_string(),
                        bailout.to_string(),
                        "{label}: {header}untraced compile bails out differently"
                    );
                    writeln!(decisions, "bailout {bailout}").unwrap();
                }
                (c, u) => panic!(
                    "{label}: {header}traced compile {} but untraced compile {}",
                    if c.is_ok() { "succeeded" } else { "bailed out" },
                    if u.is_ok() { "succeeded" } else { "bailed out" },
                ),
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
    ("fop", 0xc8cc1a8322af1b24, 0x96caf757aee23a0f),
    ("h2", 0x82c6ddb1aa50c833, 0x3ebe04751e0ccd05),
    ("jython", 0x9670a6a0ee1aaf71, 0x7decddc1f6f062e3),
    ("sunflow", 0x34e9fb6fec517d10, 0x78180eb43386a95a),
    ("tomcat", 0x31a43c04add92a15, 0x9bd857c088cba13b),
    ("tradebeans", 0x8011b1c2ea62acc9, 0x6a55dfbb852c0290),
    ("xalan", 0xeeef012ededf0101, 0x80d8169f366e81c5),
    ("avrora", 0x7d1de2966d446853, 0x5f4085a46ecc029f),
    ("batik", 0xd2c07ad5279ea8a2, 0x43c05cc8ba7b4481),
    ("eclipse", 0xf327d5a041aca2bb, 0x50236ead253407b7),
    ("luindex", 0xa70fc9ef76bad308, 0x8040bfd36fd9e27e),
    ("lusearch", 0xa70fc9ef76bad308, 0x25e1463ecd737a16),
    ("pmd", 0xcb18a3b51534a87a, 0x8eafe090c3c9131a),
    ("tradesoap", 0xdecdedef486adbc8, 0x48e1d1c04feb3f3d),
    ("actors", 0x1e89a6763cecc366, 0x8bcf2a5e942a2532),
    ("apparat", 0x42e64c0364bc49cf, 0x0bb7dadb2bdc398b),
    ("factorie", 0xf5e9dae8d8f94df9, 0x89e0f4e46104a82a),
    ("kiama", 0xf59fdd119734ae05, 0x2c35d20c41cbf6ff),
    ("scalac", 0xd13a7a4f732ac961, 0xb8daf08ed6eaa907),
    ("scaladoc", 0xc4ff8edb9e90e532, 0xf19d9bfb1bd77463),
    ("scalap", 0xb07eca467146cfcd, 0x9ba63236c9d4012d),
    ("scalariform", 0xc8cc1a8322af1b24, 0x9095fa973495ffd7),
    ("scalatest", 0xe66e9e52ffc49b2b, 0xf94ede98d0dcc144),
    ("scalaxb", 0x5c7bd070db7c6e94, 0x5eb1e83242b9e20b),
    ("specs", 0xd8cc9d680a4c835e, 0x3181beb88a83c0ce),
    ("tmt", 0xcab1c28a324bba20, 0xd0af3e6de108c40b),
    ("SPECjbb2005", 0x437e53a30e9bf49d, 0xd67b074e9a57b3b8),
];

const PAPER_PINS: &[(&str, u64, u64)] = &[("cache_key", 0x306410f2c5c8b93d, 0x8e197c3ffdb74b81)];

const GENERATED_PINS: &[(&str, u64, u64)] = &[
    ("seed 0", 0xb2102700c798e51b, 0x67bd9d1aaa591a2c),
    ("seed 1", 0xb64d1c892194cd16, 0xfa2420bc2e1c28c9),
    ("seed 2", 0x01037bcf08a5591f, 0x1b14abe42d8f6c7f),
    ("seed 3", 0xadae9e46a55eb25a, 0xad0b2b45c1280e1a),
    ("seed 4", 0xe5e7251d6ef5d423, 0xd7b3a6faea6931c7),
    ("seed 5", 0xcd7cf2664d3d6b20, 0x89e818eac9fb9251),
    ("seed 6", 0x63e2bb346660257e, 0x38cdf1bd37c7a0af),
    ("seed 7", 0x32ddcc1114216d06, 0xb3757c8f107e6a59),
    ("seed 8", 0x97fb20098802c091, 0x4ed660716ad3b030),
    ("seed 9", 0xc6757d02f2c761e0, 0x3d9f0695137e90e0),
    ("seed 10", 0xce1c40dc95799c6a, 0x2b01ddf9fb87be78),
    ("seed 11", 0xf76e018d40eac66c, 0x49fdbabf1721637d),
    ("seed 12", 0x6659b28cdf35ed93, 0xbf1c3c78d84ef2a1),
    ("seed 13", 0x65c561de72381416, 0x1c2e5bfdf3f60bc1),
    ("seed 14", 0x282a995ec64cdf20, 0xc1a2c6358e604348),
    ("seed 15", 0xc5b489c6986b15ac, 0xee5deeb5ea025a3e),
    ("seed 16", 0x3738c7341356a61b, 0xb0ed91f6b146836f),
    ("seed 17", 0x106fe99e2413b37a, 0xc5ae13602ecd15e6),
    ("seed 18", 0xc689d79c881e2438, 0xa11a125c6624ca66),
    ("seed 19", 0x36d4b14a9bb6f0cb, 0x02efd57d96c10135),
    ("seed 20", 0xba56b2b7cd41ab1d, 0xc445ebb0a9aa3500),
    ("seed 21", 0x02250767656784ed, 0xe847a5fbdef4204a),
    ("seed 22", 0x47d75df6a1e11c50, 0x50bcf8c48032d975),
    ("seed 23", 0x80e0f39b09aeb95b, 0x27d0d6e46055daf7),
    ("seed 24", 0x410fa48b5477c459, 0x2aea3abd0364272b),
    ("seed 25", 0x3aebcee2ec69a005, 0xfef80c4ecb0f20f3),
    ("seed 26", 0x558fd15b1aa67353, 0xf660f55a4743530e),
    ("seed 27", 0x8ebfabccd0b0265e, 0xdcbf19361e0d5003),
    ("seed 28", 0x1c0ad76579c33e0c, 0x4e8cdc6e2845dfd2),
    ("seed 29", 0x260bc5a5706c244c, 0x9f893ed79707982d),
    ("seed 30", 0x6ac2e59f37697a34, 0x21895f00b29c79ab),
    ("seed 31", 0x1433e1e999d19b26, 0x8086bd20d10b4574),
    ("seed 32", 0x784b605ce71d5163, 0x36320831723419ba),
    ("seed 33", 0x64ff9dbf5412f938, 0xda38aeb4875ac32d),
    ("seed 34", 0x98bcb1a6d6ade3af, 0x3cb9285fd300a930),
    ("seed 35", 0x5568e5a1a0eddd50, 0xd7313ba79a74b867),
    ("seed 36", 0x002277bfe0d10220, 0xec39acb84fb43832),
    ("seed 37", 0x0381f8c793a431d1, 0x0b5925b0a7fbc530),
    ("seed 38", 0x6b399bd1bcd4846f, 0xb90ffecea9fa674b),
    ("seed 39", 0xe061e5c17437ce76, 0x2d587e8686ecd702),
    ("seed 40", 0x38402d838e7be17c, 0xf8532f03f14379f8),
    ("seed 41", 0xb99097c635c3dbdc, 0x0355c88382cbd9fc),
    ("seed 42", 0x852d434c2e861393, 0x6f0f7544f1374182),
    ("seed 43", 0x306e1050cf733ca6, 0xad521cd7b07b50ae),
    ("seed 44", 0x22bcc47ed8934356, 0x1e80ab394edb6109),
    ("seed 45", 0xe7bc8a9afce3ac42, 0x33b4830cd0c97dcf),
    ("seed 46", 0xda80f2b65d0eeb42, 0x9de3c98154b3e03b),
    ("seed 47", 0x2c2c6f0122c2d72e, 0x8c2e547430d0b5ed),
    ("seed 48", 0xba4b699f3d9107b5, 0x0b31736086a0b86a),
    ("seed 49", 0x058930c442621683, 0x5e87cdf221151672),
    ("seed 50", 0x026d001587c5f8af, 0xb509d6d4a25db100),
    ("seed 51", 0x79810a0494255afb, 0x80fa19320bac26a5),
    ("seed 52", 0xab1b285ce2683c05, 0x63e67a03bd92aa91),
    ("seed 53", 0x7fea4a3772570296, 0x8a621b3c0efba15f),
    ("seed 54", 0x878d1e33237e50de, 0x2ba5ff67ef865646),
    ("seed 55", 0x4d6aafeedb102e26, 0x7615650cdf65e3c2),
    ("seed 56", 0x242e10cf6d96cdb8, 0x4ecc680457f3fb52),
    ("seed 57", 0x8086c70656ff25d9, 0xdddc0ffd975b1824),
    ("seed 58", 0xd2a5fc20a050c19c, 0xf9b69b82361874ad),
    ("seed 59", 0x5cde2908a3a9167b, 0x0085661fcd4d692f),
    ("seed 60", 0x6daf7b26ee1fd6b1, 0x46e31c4f48da087c),
    ("seed 61", 0x41f85cf62b40a492, 0x6196f211435617b7),
    ("seed 62", 0x514c0d674a7b317d, 0x888ebe016ef26d13),
    ("seed 63", 0xa81c93018a6beca9, 0x5a1cfb4eb3e4b6c0),
];
