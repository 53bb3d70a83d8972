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

/// Every corpus row, warmed through its `iterate` entry.
fn warmed_corpus() -> impl Iterator<Item = (String, Program, Vm)> {
    pea::workloads::all_workloads().into_iter().map(|w| {
        let vm = warmed(&w.program, "iterate", iterate_args);
        (w.name, w.program, vm)
    })
}

/// The paper's example, warmed through `getValue`.
fn warmed_paper() -> (String, Program, Vm) {
    let program = parse_program(CACHE_EXAMPLE).unwrap();
    pea::bytecode::verify_program(&program).unwrap();
    let vm = warmed(&program, "getValue", |i| {
        vec![Value::Int(i % 3), Value::Null]
    });
    ("cache_key".to_string(), program, vm)
}

/// `gen::generate(0..64)`, each warmed through its `iterate` entry.
fn warmed_generated() -> impl Iterator<Item = (String, Program, Vm)> {
    (0..64u64).map(|seed| {
        let program = parse_program(&pea::workloads::gen::generate(seed)).expect("parses");
        pea::bytecode::verify_program(&program).expect("verifies");
        let vm = warmed(&program, "iterate", iterate_args);
        (format!("seed {seed}"), program, vm)
    })
}

fn hashes_of(programs: impl Iterator<Item = (String, Program, Vm)>) -> Vec<(String, Hashes)> {
    programs
        .map(|(label, program, vm)| {
            let hashes = hashes(&label, &program, &vm);
            (label, hashes)
        })
        .collect()
}

#[test]
fn corpus_rows_are_pinned() {
    check(hashes_of(warmed_corpus()), CORPUS_PINS);
}

#[test]
fn paper_example_is_pinned() {
    check(hashes_of(std::iter::once(warmed_paper())), PAPER_PINS);
}

#[test]
fn generated_programs_are_pinned() {
    check(hashes_of(warmed_generated()), GENERATED_PINS);
}

/// What the linear tier's register assignment costs at one level, over
/// every method of every pinned program that lowers: `(level, methods,
/// summed num_regs, largest num_regs, phi moves)`, where phi moves is the
/// static count of moves the edges carry.
type RegisterRow = (&'static str, usize, u64, u32, u64);

/// The register and move counts are pinned next to the code they follow:
/// they change only with the scheduler's placement or the lowering's
/// register assignment, and then this table and the code hashes move
/// together. Run with `--nocapture` to print the table.
#[test]
fn register_counts_are_pinned() {
    let programs: Vec<(String, Program, Vm)> = warmed_corpus()
        .chain(std::iter::once(warmed_paper()))
        .chain(warmed_generated())
        .collect();
    let mut got = Vec::new();
    let mut table = format!(
        "{:<6} {:>8} {:>9} {:>8} {:>10}\n",
        "level", "methods", "sum regs", "max regs", "phi moves"
    );
    for (level, name) in [
        (OptLevel::None, "none"),
        (OptLevel::Ees, "ees"),
        (OptLevel::Pea, "pea"),
    ] {
        let options = CompilerOptions::with_opt_level(level);
        let mut row: RegisterRow = (name, 0, 0, 0, 0);
        for (_, program, vm) in &programs {
            for m in 0..program.methods.len() {
                let method = MethodId::from_index(m);
                let Ok(c) = compile(program, method, Some(vm.profiles()), &options) else {
                    continue;
                };
                let linear = c.linear.as_ref().expect("compile lowers");
                row.1 += 1;
                row.2 += u64::from(linear.num_regs);
                row.3 = row.3.max(linear.num_regs);
                row.4 += u64::from(linear.phi_moves);
            }
        }
        writeln!(
            table,
            "{:<6} {:>8} {:>9} {:>8} {:>10}",
            row.0, row.1, row.2, row.3, row.4
        )
        .unwrap();
        got.push(row);
    }
    println!("linear registers and phi moves\n{table}");
    assert_eq!(got, REGISTER_PINS, "\n{table}");
}

const REGISTER_PINS: [RegisterRow; 3] = [
    ("none", 732, 6011, 89, 532),
    ("ees", 732, 5740, 79, 548),
    ("pea", 732, 6061, 77, 977),
];

const CORPUS_PINS: &[(&str, u64, u64)] = &[
    ("fop", 0xc8cc1a8322af1b24, 0x68c8f70a87e6f355),
    ("h2", 0x82c6ddb1aa50c833, 0xe844780b0b1ed955),
    ("jython", 0x9670a6a0ee1aaf71, 0xff9f6dde06e1fac4),
    ("sunflow", 0x34e9fb6fec517d10, 0xd0ebd0cf9b1224ce),
    ("tomcat", 0x31a43c04add92a15, 0x15346bfc8513e05a),
    ("tradebeans", 0x8011b1c2ea62acc9, 0x3446ce9bcdd7542c),
    ("xalan", 0xeeef012ededf0101, 0x1c2d08c048a326d2),
    ("avrora", 0x7d1de2966d446853, 0x683249dc5f3aafde),
    ("batik", 0xd2c07ad5279ea8a2, 0x5e5605a41f608538),
    ("eclipse", 0xf327d5a041aca2bb, 0x177a7381a483b088),
    ("luindex", 0xa70fc9ef76bad308, 0x4b7536b97e0b400e),
    ("lusearch", 0xa70fc9ef76bad308, 0xd063fd40825264ec),
    ("pmd", 0xcb18a3b51534a87a, 0x3101c3ab1a38a709),
    ("tradesoap", 0xdecdedef486adbc8, 0x242bf6583d4ca1f0),
    ("actors", 0x1e89a6763cecc366, 0x925b0195c73cdbc8),
    ("apparat", 0x42e64c0364bc49cf, 0x9b28e38db2ffad99),
    ("factorie", 0xf5e9dae8d8f94df9, 0x375031cc49bb95ab),
    ("kiama", 0xf59fdd119734ae05, 0x9465b7ee0ea4f8eb),
    ("scalac", 0xd13a7a4f732ac961, 0x42e68a35aba84fdc),
    ("scaladoc", 0xc4ff8edb9e90e532, 0xde7074155cd9bd05),
    ("scalap", 0xb07eca467146cfcd, 0x58dd328050e7f6d3),
    ("scalariform", 0xc8cc1a8322af1b24, 0x77e8f6292e68fddf),
    ("scalatest", 0xe66e9e52ffc49b2b, 0x6a6fefde3d49e926),
    ("scalaxb", 0x5c7bd070db7c6e94, 0x02ece539c10881e9),
    ("specs", 0xd8cc9d680a4c835e, 0x156154cfcec11220),
    ("tmt", 0xcab1c28a324bba20, 0xd3e96bfc768b62ed),
    ("SPECjbb2005", 0x437e53a30e9bf49d, 0x7ad71969e0943411),
];

const PAPER_PINS: &[(&str, u64, u64)] = &[("cache_key", 0x306410f2c5c8b93d, 0x46816d9c0ce31b1b)];

const GENERATED_PINS: &[(&str, u64, u64)] = &[
    ("seed 0", 0xb2102700c798e51b, 0x3e2857a25a4b30ae),
    ("seed 1", 0xb64d1c892194cd16, 0xcfcf943cd740f418),
    ("seed 2", 0x01037bcf08a5591f, 0x1b14abe42d8f6c7f),
    ("seed 3", 0xadae9e46a55eb25a, 0xd7fe47bddc951da4),
    ("seed 4", 0xe5e7251d6ef5d423, 0x25dd6324d1ad7ecb),
    ("seed 5", 0xcd7cf2664d3d6b20, 0x97cb9e7f28892710),
    ("seed 6", 0x63e2bb346660257e, 0x11634cfb32f43b10),
    ("seed 7", 0x32ddcc1114216d06, 0x9bc69fa5c742d82d),
    ("seed 8", 0x97fb20098802c091, 0x1e23670f4e12713e),
    ("seed 9", 0xc6757d02f2c761e0, 0x2343677a26e4f9ca),
    ("seed 10", 0xce1c40dc95799c6a, 0xac85c5ecd0c5c383),
    ("seed 11", 0xf76e018d40eac66c, 0x49fdbabf1721637d),
    ("seed 12", 0x6659b28cdf35ed93, 0x79df57d23148b567),
    ("seed 13", 0x65c561de72381416, 0xa38ee53911bf8c9a),
    ("seed 14", 0x282a995ec64cdf20, 0xbb8cd653a6c281f6),
    ("seed 15", 0xc5b489c6986b15ac, 0x3fef0ec20f7d61ee),
    ("seed 16", 0x3738c7341356a61b, 0xa23af33960d6149e),
    ("seed 17", 0x106fe99e2413b37a, 0xc16fbbf93ab9bb40),
    ("seed 18", 0xc689d79c881e2438, 0x589b4d17f3a7ef1e),
    ("seed 19", 0x36d4b14a9bb6f0cb, 0x02efd57d96c10135),
    ("seed 20", 0xba56b2b7cd41ab1d, 0xdfaff45c7d213b91),
    ("seed 21", 0x02250767656784ed, 0x3e4127b42397a84f),
    ("seed 22", 0x47d75df6a1e11c50, 0xecc639b347ff7b44),
    ("seed 23", 0x80e0f39b09aeb95b, 0x056e0236944dd6a5),
    ("seed 24", 0x410fa48b5477c459, 0x887adfb6ddc926fa),
    ("seed 25", 0x3aebcee2ec69a005, 0x32ad5a3fcad48b6d),
    ("seed 26", 0x558fd15b1aa67353, 0xedebf1571c2245b3),
    ("seed 27", 0x8ebfabccd0b0265e, 0xd8a98f55eb67c4fe),
    ("seed 28", 0x1c0ad76579c33e0c, 0x4e8cdc6e2845dfd2),
    ("seed 29", 0x260bc5a5706c244c, 0x9f893ed79707982d),
    ("seed 30", 0x6ac2e59f37697a34, 0xb4d36a955786c793),
    ("seed 31", 0x1433e1e999d19b26, 0x85a9b6242ae659b3),
    ("seed 32", 0x784b605ce71d5163, 0x9ba8fac73e30c450),
    ("seed 33", 0x64ff9dbf5412f938, 0x3b81d2dead0301db),
    ("seed 34", 0x98bcb1a6d6ade3af, 0x038ad2207469b655),
    ("seed 35", 0x5568e5a1a0eddd50, 0x5e79c0170da23f7a),
    ("seed 36", 0x002277bfe0d10220, 0x203df29cdb5affcf),
    ("seed 37", 0x0381f8c793a431d1, 0x2ae2297268767b1b),
    ("seed 38", 0x6b399bd1bcd4846f, 0xc673be105569aa45),
    ("seed 39", 0xe061e5c17437ce76, 0xce9714ca80aace74),
    ("seed 40", 0x38402d838e7be17c, 0xac11d246966f8e95),
    ("seed 41", 0xb99097c635c3dbdc, 0x0355c88382cbd9fc),
    ("seed 42", 0x852d434c2e861393, 0x94220976891c2659),
    ("seed 43", 0x306e1050cf733ca6, 0xe5396f5ea6787d89),
    ("seed 44", 0x22bcc47ed8934356, 0x35c252e12e96dc5e),
    ("seed 45", 0xe7bc8a9afce3ac42, 0x33b4830cd0c97dcf),
    ("seed 46", 0xda80f2b65d0eeb42, 0x2db3d325da380e7b),
    ("seed 47", 0x2c2c6f0122c2d72e, 0x46e42762de70282f),
    ("seed 48", 0xba4b699f3d9107b5, 0xb4154ac80d745b7d),
    ("seed 49", 0x058930c442621683, 0x3576b263526c0aae),
    ("seed 50", 0x026d001587c5f8af, 0x8cab7e3de2b4c4d5),
    ("seed 51", 0x79810a0494255afb, 0xf5dc0eb74428ec52),
    ("seed 52", 0xab1b285ce2683c05, 0xfbe9b7052051cff0),
    ("seed 53", 0x7fea4a3772570296, 0x41006bdf3966386e),
    ("seed 54", 0x878d1e33237e50de, 0xfd8c10cb2ca145b0),
    ("seed 55", 0x4d6aafeedb102e26, 0x3639dbe55a26d6a3),
    ("seed 56", 0x242e10cf6d96cdb8, 0x7084eaa251f8f7af),
    ("seed 57", 0x8086c70656ff25d9, 0xdddc0ffd975b1824),
    ("seed 58", 0xd2a5fc20a050c19c, 0x936dcf08b7003ef4),
    ("seed 59", 0x5cde2908a3a9167b, 0x0085661fcd4d692f),
    ("seed 60", 0x6daf7b26ee1fd6b1, 0x46e31c4f48da087c),
    ("seed 61", 0x41f85cf62b40a492, 0x9ad50cee01b8d7f6),
    ("seed 62", 0x514c0d674a7b317d, 0x0f2f3588f4a0139d),
    ("seed 63", 0xa81c93018a6beca9, 0x599e05a3e4c9dba6),
];
