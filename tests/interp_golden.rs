//! The interpreter is the semantics: these pins hold it byte-identical
//! while it gets faster.
//!
//! Every row of the workload corpus and every `gen::generate(0..64)`
//! program runs interpreter-only, through the VM
//! (`VmOptions::interpreter_only()`) and through `SimpleEnv`. One
//! FNV-1a-64 hash per program covers, for both hosts: every result and
//! error text (uncaught exceptions by identity), the full `Stats`, the
//! profile export, and — at fuel limits spaced evenly over the run — the
//! `Stats` and heap length at which `OutOfFuel` is raised.
//!
//! The expected hashes were generated before the interpreter was
//! rewritten and are never re-pinned: a mismatch means the interpreter
//! changed behaviour.

use pea::bytecode::asm::parse_program;
use pea::bytecode::Program;
use pea::interp::SimpleEnv;
use pea::runtime::{Value, VmError};
use pea::vm::{Vm, VmOptions};
use std::fmt::Write;

const ITERATIONS: i64 = 12;
const FUEL_POINTS: u64 = 10;

/// One host's observable record of a run.
trait Host {
    fn call(&mut self, i: i64) -> Result<Option<Value>, VmError>;
    fn summary(&self) -> String;
    fn profiles(&self) -> String;
}

struct VmHost(Vm);

impl Host for VmHost {
    fn call(&mut self, i: i64) -> Result<Option<Value>, VmError> {
        self.0.call_entry("iterate", &[Value::Int(i)])
    }
    fn summary(&self) -> String {
        format!("{:?} heap={}", self.0.stats(), self.0.heap().len())
    }
    fn profiles(&self) -> String {
        self.0.profiles().export_json()
    }
}

struct SimpleHost(SimpleEnv);

impl Host for SimpleHost {
    fn call(&mut self, i: i64) -> Result<Option<Value>, VmError> {
        self.0.call("iterate", &[Value::Int(i)])
    }
    fn summary(&self) -> String {
        format!(
            "{:?} spent={} heap={}",
            self.0.heap.stats,
            self.0.cycles_spent(),
            self.0.heap.len()
        )
    }
    fn profiles(&self) -> String {
        self.0.profiles.export_json()
    }
}

fn vm_host(program: &Program, fuel: Option<u64>) -> Box<dyn Host> {
    Box::new(VmHost(Vm::new(
        program.clone(),
        VmOptions {
            fuel,
            ..VmOptions::interpreter_only()
        },
    )))
}

fn simple_host(program: &Program, fuel: Option<u64>) -> Box<dyn Host> {
    let mut env = SimpleEnv::new(program.clone());
    env.fuel = fuel;
    Box::new(SimpleHost(env))
}

/// The full record of one host: an unlimited run, then one fresh run per
/// fuel point, stopped at its first `OutOfFuel`.
fn record(program: &Program, make: fn(&Program, Option<u64>) -> Box<dyn Host>) -> String {
    let mut out = String::new();
    let mut host = make(program, None);
    for i in 0..ITERATIONS {
        writeln!(out, "{i}: {:?}", host.call(i)).unwrap();
    }
    writeln!(out, "{}", host.summary()).unwrap();
    out.push_str(&host.profiles());
    let total = cycles_of(&host.summary());
    for k in 1..=FUEL_POINTS {
        let limit = total * k / (FUEL_POINTS + 1);
        let mut host = make(program, Some(limit));
        let stopped = (0..ITERATIONS).find(|&i| host.call(i) == Err(VmError::OutOfFuel));
        writeln!(out, "fuel {limit}: at {stopped:?} {}", host.summary()).unwrap();
    }
    out
}

/// The `cycles` field of a summary line.
fn cycles_of(summary: &str) -> u64 {
    let rest = &summary[summary.find("cycles: ").expect("Stats has cycles") + 8..];
    rest[..rest.find(',').expect("cycles is not the last field")]
        .parse()
        .expect("cycles is a number")
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash(program: &Program) -> u64 {
    let mut text = record(program, vm_host);
    text.push_str("--- simple env ---\n");
    text.push_str(&record(program, simple_host));
    fnv1a64(text.as_bytes())
}

/// Compares every program's hash with its pin and reports all mismatches
/// at once, in the pin table's own format.
fn check(programs: impl Iterator<Item = (String, Program)>, pins: &[(&str, u64)]) {
    let got: Vec<(String, u64)> = programs.map(|(label, p)| (label, hash(&p))).collect();
    let want: Vec<(String, u64)> = pins.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(label, h)| format!("    (\"{label}\", 0x{h:016x}),\n"))
            .collect();
        panic!("interpreter behaviour changed; hashes now:\n{table}");
    }
}

#[test]
fn corpus_rows_are_pinned() {
    let corpus = pea::workloads::all_workloads()
        .into_iter()
        .map(|w| (w.name, w.program));
    check(corpus, CORPUS_PINS);
}

#[test]
fn generated_programs_are_pinned() {
    let generated = (0..64u64).map(|seed| {
        let program = parse_program(&pea::workloads::gen::generate(seed)).expect("parses");
        pea::bytecode::verify_program(&program).expect("verifies");
        (format!("seed {seed}"), program)
    });
    check(generated, GENERATED_PINS);
}

const CORPUS_PINS: &[(&str, u64)] = &[
    ("fop", 0x819668d12cd54ef2),
    ("h2", 0x93e0fe92ceafe26b),
    ("jython", 0x419e7b08a666a73d),
    ("sunflow", 0x6a2048e055c325e7),
    ("tomcat", 0x26d416d4ccbb6c6f),
    ("tradebeans", 0xa4ed21688a75bac0),
    ("xalan", 0x599b79a4052b6d53),
    ("avrora", 0xa0948cc2f4b03591),
    ("batik", 0x5dffdac90ead976d),
    ("eclipse", 0x5d0f814267a7e9bc),
    ("luindex", 0xe2cdf3db729c08e6),
    ("lusearch", 0x574ac51610fae49f),
    ("pmd", 0xc96f4fb2abe41f37),
    ("tradesoap", 0x48cd3fa443ba14dd),
    ("actors", 0x9b4e22838603d06a),
    ("apparat", 0xc373440181aa28ba),
    ("factorie", 0xa2077e88e86a5046),
    ("kiama", 0xa65feb266024a233),
    ("scalac", 0xcb3871279e4112d0),
    ("scaladoc", 0x54cfcbbbe26861af),
    ("scalap", 0x71c6f1c3685008cb),
    ("scalariform", 0xb90eb5b977a28467),
    ("scalatest", 0xe1dca5c1a35ab83c),
    ("scalaxb", 0xab3a3e6607bf54f0),
    ("specs", 0xec007ab0992df1ee),
    ("tmt", 0x89db0ab5f573b9dc),
    ("SPECjbb2005", 0x32348c641de0f533),
];

const GENERATED_PINS: &[(&str, u64)] = &[
    ("seed 0", 0xb327ccb678b6ee90),
    ("seed 1", 0x1178f452d4a0153a),
    ("seed 2", 0xf6ff298e362ec324),
    ("seed 3", 0x37423a3ea5cbef95),
    ("seed 4", 0xcb3085e76c223acf),
    ("seed 5", 0x01e2c1a7ccbc1eb4),
    ("seed 6", 0x377b5f20ebb47a54),
    ("seed 7", 0xcfbc7c6502a0229b),
    ("seed 8", 0xcf65e6aa7251483e),
    ("seed 9", 0x42e59112ca21c52f),
    ("seed 10", 0x67294ad5d12aced3),
    ("seed 11", 0xdec9979a2296cf45),
    ("seed 12", 0x11bb53a115b2bf65),
    ("seed 13", 0x964192425d565d6e),
    ("seed 14", 0xb57810c1f0a1be89),
    ("seed 15", 0x4aad83856ea81d4c),
    ("seed 16", 0xc77217b9e823d874),
    ("seed 17", 0xf12f82a7d11a0073),
    ("seed 18", 0x5fc330d435b79382),
    ("seed 19", 0x6b6ada0a92470310),
    ("seed 20", 0x683464e91ff064b4),
    ("seed 21", 0x137d0801d7133511),
    ("seed 22", 0x9228ed86bffa5174),
    ("seed 23", 0x4830756c5e8c25b8),
    ("seed 24", 0x1876f0e655a1f367),
    ("seed 25", 0xe4c4c69653c097b8),
    ("seed 26", 0xf5dd50e24ad17ad2),
    ("seed 27", 0xabfcea4e67749eca),
    ("seed 28", 0x10830432c3d065b3),
    ("seed 29", 0xd97dfd8554ca5478),
    ("seed 30", 0x29d222590e5fe407),
    ("seed 31", 0x767c001f14882b67),
    ("seed 32", 0xc706952b2a4db82e),
    ("seed 33", 0x8436c81eccee5c5c),
    ("seed 34", 0x31600b142ed37ff1),
    ("seed 35", 0xfd6936b6ab64a77d),
    ("seed 36", 0xaf6f1fc28e395efa),
    ("seed 37", 0x239887fa9065d22b),
    ("seed 38", 0xdf9db5858448ae19),
    ("seed 39", 0x55f54bd4e27ba31a),
    ("seed 40", 0xb2b45d4280f9b6e3),
    ("seed 41", 0x12d726f39b2fc095),
    ("seed 42", 0x39ba08086c3e329a),
    ("seed 43", 0xe7e7d795cebc89ab),
    ("seed 44", 0x4302842dfd0029e0),
    ("seed 45", 0xada61e4afd889cbe),
    ("seed 46", 0x099f5aa5033b8f3a),
    ("seed 47", 0x8cf355e55cf208d5),
    ("seed 48", 0x0b51e1591e1cda85),
    ("seed 49", 0x7f0d31bee0751872),
    ("seed 50", 0x430cb4a15b04bc31),
    ("seed 51", 0x6a716567c4cf0fc1),
    ("seed 52", 0xec7c69b17a3fa69e),
    ("seed 53", 0xfeb070429d9d6207),
    ("seed 54", 0x549a3f091116132f),
    ("seed 55", 0x545fe396fe74d5c9),
    ("seed 56", 0xe71a4a7a07a9e861),
    ("seed 57", 0x80b0a6be1e36c043),
    ("seed 58", 0x62b4aa164fe5f249),
    ("seed 59", 0xe8f0daa22c739343),
    ("seed 60", 0xed5e2ade3687ba28),
    ("seed 61", 0x8002e0f81ece194a),
    ("seed 62", 0xc6ac56173250cf0b),
    ("seed 63", 0x0291e5efcd3a1f8e),
];
