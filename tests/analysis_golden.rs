//! The static tier's verdicts are pinned while `pea-analysis` gets smaller.
//!
//! Every row of the workload corpus, the paper's worked example
//! (`examples/cache_key.asm`) and every `gen::generate(0..64)` program is
//! analysed. One FNV-1a-64 hash per program covers a text rendering, field
//! by field, of:
//!
//! * the interprocedural summaries: every field `pealint` prints to
//!   `CALLGRAPH.json` (parameter classes, `returns_fresh`, `may_throw`,
//!   `throws_fresh`, callees, the three exclusion counts, the throw path
//!   with its guards, each site's path verdict and certificate, the
//!   throw-path-only parameters), plus `publishes_immediately`, each
//!   site's class, `locked`, `passed_to_call` and `immediate_global`, and
//!   the `excluded_sites` / `excluded_sites_flow` lists themselves;
//! * every field of every site's `StaticVerdicts` entry, including
//!   `lock_depth_bound`;
//! * the lock-balance findings and per-site `max_depth`;
//! * the nullness findings and `maybe_null_derefs`.
//!
//! The expected hashes were generated before the analyses were folded onto
//! one abstract frame and are never re-pinned: a mismatch means a verdict
//! changed.

use pea::analysis::{
    analyze_nullness, immediate_global_sites, AllocKind, EscapeClass, PathEscape, ProgramSummaries,
    StaticVerdicts, ThrowPath,
};
use pea::bytecode::asm::parse_program;
use pea::bytecode::{MethodId, Program};
use std::fmt::Write;

const CACHE_EXAMPLE: &str = include_str!("../examples/cache_key.asm");

fn class(c: EscapeClass) -> &'static str {
    c.as_str()
}

fn path(p: PathEscape) -> String {
    match p {
        PathEscape::EscapesOnColdBranch(bci) => format!("{}@{bci}", p.as_str()),
        _ => p.as_str().to_string(),
    }
}

fn throw_path(t: &ThrowPath) -> String {
    match t {
        ThrowPath::Guarded(guards) => {
            let gs: Vec<String> = guards
                .iter()
                .map(|g| format!("{}:{}", g.bci, g.throw_on_taken))
                .collect();
            format!("{}[{}]", t.as_str(), gs.join(","))
        }
        _ => t.as_str().to_string(),
    }
}

fn kind(program: &Program, k: AllocKind) -> String {
    match k {
        AllocKind::Instance(c) => format!("instance {}", program.class(c).name),
        AllocKind::Array(v) => format!("array {v}"),
    }
}

/// The rendering of every pinned analysis fact of `program`.
fn record(program: &Program) -> String {
    let mut out = String::new();
    let summaries = ProgramSummaries::compute(program);
    let verdicts = StaticVerdicts::analyze(program);
    for m in 0..program.methods.len() {
        let method = MethodId::from_index(m);
        let name = program.method(method).qualified_name(program);
        writeln!(out, "== {name}").unwrap();

        let s = summaries.summary(method);
        let params: Vec<&str> = s.param_escape.iter().map(|&c| class(c)).collect();
        writeln!(out, "params {params:?}").unwrap();
        writeln!(out, "publishes_immediately {:?}", s.publishes_immediately).unwrap();
        writeln!(out, "returns_fresh {}", s.returns_fresh).unwrap();
        writeln!(out, "may_throw {}", s.may_throw).unwrap();
        writeln!(out, "throws_fresh {}", s.throws_fresh).unwrap();
        let callees: Vec<String> = summaries
            .call_graph
            .callees(method)
            .iter()
            .map(|&c| program.method(c).qualified_name(program))
            .collect();
        writeln!(out, "callees {callees:?}").unwrap();
        writeln!(out, "alloc_sites {}", s.sites.len()).unwrap();
        for site in &s.sites {
            writeln!(
                out,
                "summary site {} class {} locked {} passed_to_call {} immediate_global {}",
                site.bci,
                class(site.escape),
                site.locked,
                site.passed_to_call,
                site.immediate_global
            )
            .unwrap();
        }
        let immediate = immediate_global_sites(program.method(method));
        writeln!(out, "excluded_immediate {immediate:?}").unwrap();
        writeln!(
            out,
            "excluded_ipa {:?}",
            summaries.excluded_sites(program, method)
        )
        .unwrap();
        writeln!(
            out,
            "excluded_flow {:?}",
            summaries.excluded_sites_flow(program, method)
        )
        .unwrap();
        writeln!(out, "throw_path {}", throw_path(&s.throw_path)).unwrap();
        for site in &s.sites {
            writeln!(
                out,
                "flow site {} insensitive {} path {} certain {}",
                site.bci,
                class(site.escape),
                path(site.path),
                site.certain_global
            )
            .unwrap();
        }
        writeln!(
            out,
            "publishes_on_throw_only {:?}",
            s.publishes_on_throw_only
        )
        .unwrap();

        let (escape, locks) = verdicts.method(method);
        for site in &escape.sites {
            let v = verdicts
                .verdict(method, site.bci)
                .expect("every allocation has a verdict");
            writeln!(
                out,
                "verdict {} escape {} kind {} may_be_locked {} lock_depth_bound {:?} \
                 immediate_global {} path {} certain_global {}",
                site.bci,
                class(v.escape),
                kind(program, v.kind),
                v.may_be_locked(),
                verdicts.lock_depth_bound(method, site.bci),
                v.immediate_global,
                path(v.path),
                v.certain_global
            )
            .unwrap();
        }

        for f in &locks.findings {
            writeln!(out, "lock finding {} {}", f.bci, f.kind.as_str()).unwrap();
        }
        writeln!(out, "max_depth {:?}", locks.max_depth).unwrap();

        let nullness = analyze_nullness(program, method);
        for f in &nullness.findings {
            writeln!(out, "null finding {} {:?}", f.bci, f.kind).unwrap();
        }
        writeln!(out, "maybe_null_derefs {}", nullness.maybe_null_derefs).unwrap();
    }
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash(program: &Program) -> u64 {
    fnv1a64(record(program).as_bytes())
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
        panic!("analysis verdicts changed; hashes now:\n{table}");
    }
}

#[test]
fn corpus_rows_are_pinned() {
    let got = pea::workloads::all_workloads()
        .into_iter()
        .map(|w| (w.name, hash(&w.program)))
        .collect();
    check(got, CORPUS_PINS);
}

#[test]
fn paper_example_is_pinned() {
    let program = parse_program(CACHE_EXAMPLE).unwrap();
    pea::bytecode::verify_program(&program).unwrap();
    check(vec![("cache_key".to_string(), hash(&program))], PAPER_PINS);
}

#[test]
fn generated_programs_are_pinned() {
    let got = (0..64u64)
        .map(|seed| {
            let program = parse_program(&pea::workloads::gen::generate(seed)).expect("parses");
            pea::bytecode::verify_program(&program).expect("verifies");
            (format!("seed {seed}"), hash(&program))
        })
        .collect();
    check(got, GENERATED_PINS);
}

const CORPUS_PINS: &[(&str, u64)] = &[
    ("fop", 0xf6a99d65d5226211),
    ("h2", 0x091ede3699f89d7f),
    ("jython", 0x06c1e360f94a564b),
    ("sunflow", 0x3439ac87deab0aaa),
    ("tomcat", 0xb09153ae75906723),
    ("tradebeans", 0xc210b0defea11cf3),
    ("xalan", 0x3b344fac21485502),
    ("avrora", 0xf9b6401e8341201c),
    ("batik", 0x83c14973655a1402),
    ("eclipse", 0xe31bfccb22a75aae),
    ("luindex", 0x320dc85d16f8a4f1),
    ("lusearch", 0x320dc85d16f8a4f1),
    ("pmd", 0xe905be4e4280bf4f),
    ("tradesoap", 0x5afa483525fdaa87),
    ("actors", 0xc2a07e55198802e6),
    ("apparat", 0xc332a830ae39f44b),
    ("factorie", 0x3d307e25ca0fd2be),
    ("kiama", 0x2ce7036168f90547),
    ("scalac", 0x05fcec4c38678574),
    ("scaladoc", 0x6c312061777a80cd),
    ("scalap", 0x9b17e10391d3b6a5),
    ("scalariform", 0xf6a99d65d5226211),
    ("scalatest", 0x760849b8c6355e40),
    ("scalaxb", 0x10b7cda92a8271d5),
    ("specs", 0x2a60a1306a3b18d8),
    ("tmt", 0xd58049bac10d8fc4),
    ("SPECjbb2005", 0x283fcfa75e99d7d2),
];

const PAPER_PINS: &[(&str, u64)] = &[("cache_key", 0x0d9f010721b76a93)];

const GENERATED_PINS: &[(&str, u64)] = &[
    ("seed 0", 0xb15b42c312b17b67),
    ("seed 1", 0xb5c86313cfbe3a3f),
    ("seed 2", 0xa74e6c50cf6d864f),
    ("seed 3", 0xca8ff06da76ec63a),
    ("seed 4", 0xd9121d4dcf9fbd3c),
    ("seed 5", 0xbbb67c9ef039ba3b),
    ("seed 6", 0xe0a0a2e8a4b78b9e),
    ("seed 7", 0xb91f60d0de08b1b0),
    ("seed 8", 0x8be3dc36030d46e3),
    ("seed 9", 0x9d32d342d76c0424),
    ("seed 10", 0x966d85c044737ba7),
    ("seed 11", 0x9dae94b7d7873330),
    ("seed 12", 0x60b4394f21b66c36),
    ("seed 13", 0xdb6052a1845c2e17),
    ("seed 14", 0x2484ab7e47f6e964),
    ("seed 15", 0x9b1c4a30b1bef5ae),
    ("seed 16", 0x5b52a563883479d9),
    ("seed 17", 0x4c55b8478828efa0),
    ("seed 18", 0x05a09dc7842dffc2),
    ("seed 19", 0x879b74488a058d72),
    ("seed 20", 0x13a84f52964d50d3),
    ("seed 21", 0x1875c930c409c06f),
    ("seed 22", 0xd114a10e8cd39a6a),
    ("seed 23", 0xb79aa14c3f7755f4),
    ("seed 24", 0x647d618f81e2a9f9),
    ("seed 25", 0x8ad07219c42cd3b7),
    ("seed 26", 0xb615cff3f0a21dfd),
    ("seed 27", 0x5a9f42cd9bf2b686),
    ("seed 28", 0xa821fd88c5a48eaf),
    ("seed 29", 0x96c516695a498620),
    ("seed 30", 0xc43ec720e8f5c08d),
    ("seed 31", 0x7977a58019a16cb4),
    ("seed 32", 0xca35f9783ef0a040),
    ("seed 33", 0xe227ed4840deb14f),
    ("seed 34", 0x99bc82987a791b22),
    ("seed 35", 0x1f256cef83dfc1dd),
    ("seed 36", 0x683ea67a7cdfc38e),
    ("seed 37", 0x12556a007646de16),
    ("seed 38", 0x824e03a0d1c66f6e),
    ("seed 39", 0xc6285e842efaf551),
    ("seed 40", 0xdf4ead45b0ebec5d),
    ("seed 41", 0xe72fc07778b05063),
    ("seed 42", 0x8c66a12026704457),
    ("seed 43", 0x1f256cef83dfc1dd),
    ("seed 44", 0x7dd9766168d9ef61),
    ("seed 45", 0x8b46690b9d2d234f),
    ("seed 46", 0x3abd6997cd794501),
    ("seed 47", 0xba8315b91898071e),
    ("seed 48", 0x510ba566e3649bdd),
    ("seed 49", 0xce7b7438c3b52f32),
    ("seed 50", 0x9daa13a954445316),
    ("seed 51", 0x1c203b336e10d302),
    ("seed 52", 0xa85af25e0b7dd373),
    ("seed 53", 0x87063809ae4c1444),
    ("seed 54", 0x4cdf521f95d68b88),
    ("seed 55", 0x70a1680ccddb5000),
    ("seed 56", 0x4f2d252402925d22),
    ("seed 57", 0xb13f9626a56b611e),
    ("seed 58", 0x29049a68b81d8df2),
    ("seed 59", 0xd648091cae3c575a),
    ("seed 60", 0x389604eed117a0f3),
    ("seed 61", 0x4d94f23ff5f85c74),
    ("seed 62", 0x7a0e4bb51414e7dc),
    ("seed 63", 0xa2e68ffbb0157115),
];
