//! Cross-layer alignment of the branch-aware flow tier (`pea-analysis::
//! flow`) with the rest of the stack: the flow verdicts must refine — never
//! contradict — the flow-insensitive analysis on every corpus and fuzz
//! program, and the paper examples get the path verdicts they are pinned
//! to.

use pea::analysis::{EscapeClass, PathEscape, ProgramSummaries, ThrowPath};
use pea::bytecode::asm::parse_program;
use pea::bytecode::{verify_program, MethodId, Program};
use pea::workloads::{Pattern, PatternInstance};

/// Checks every flow-tier invariant on one program:
///
/// * flow ⊆ flow-insensitive — a site's path verdict is `NoEscape` exactly
///   when the insensitive class is `NoEscape`, and a certain-escape
///   certificate only ever appears on a `GlobalEscape` site;
/// * `excluded_sites_flow` ⊇ `excluded_sites` per method;
/// * the fixpoint is stable — recomputing the summaries from scratch
///   reproduces every summary exactly.
fn assert_flow_invariants(program: &Program, label: &str) {
    let summaries = ProgramSummaries::compute(program);
    let again = ProgramSummaries::compute(program);
    for index in 0..program.methods.len() {
        let id = MethodId::from_index(index);
        let s = summaries.summary(id);
        for site in &s.sites {
            assert_eq!(
                site.path == PathEscape::NoEscape,
                site.escape == EscapeClass::NoEscape,
                "{label}, method {index}, site {}: path `{}` vs insensitive `{}`",
                site.bci,
                site.path.as_str(),
                site.escape.as_str()
            );
            if site.certain_global {
                assert_eq!(
                    site.escape,
                    EscapeClass::GlobalEscape,
                    "{label}, method {index}, site {}: certain-escape on a non-global site",
                    site.bci
                );
            }
        }
        if matches!(s.throw_path, ThrowPath::Never) {
            assert!(
                !s.may_throw,
                "{label}, method {index}: ThrowPath::Never on a may-throw method"
            );
        }
        let ipa = summaries.excluded_sites(program, id);
        let flow = summaries.excluded_sites_flow(program, id);
        assert!(
            ipa.iter().all(|bci| flow.contains(bci)),
            "{label}, method {index}: ipa {ipa:?} ⊄ flow {flow:?}"
        );
        assert_eq!(
            s,
            again.summary(id),
            "{label}, method {index}: flow fixpoint is unstable"
        );
    }
}

/// The flow verdicts refine the insensitive analysis on the whole
/// benchmark corpus and on 64 generated fuzz programs.
#[test]
fn flow_refines_insensitive_on_corpus_and_fuzz_programs() {
    for w in pea::workloads::all_workloads() {
        assert_flow_invariants(&w.program, &w.name);
    }
    for seed in 0..64u64 {
        let src = pea::workloads::gen::generate(seed);
        let program = parse_program(&src).expect("generated program parses");
        verify_program(&program).expect("generated program verifies");
        assert_flow_invariants(&program, &format!("seed {seed}"));
    }
}

/// Golden pins on the paper examples: the Listing-4 cache key escapes only
/// on the cold miss branch (which is exactly why it must *stay* in PEA's
/// hands — the hit path wins), and a parser error object escapes only on
/// its throw path.
#[test]
fn paper_examples_get_the_expected_path_verdicts() {
    let program = parse_program(include_str!("../examples/cache_key.asm")).unwrap();
    verify_program(&program).unwrap();
    let summaries = ProgramSummaries::compute(&program);
    let get_value = program.static_method_by_name("getValue").unwrap();
    let flow = summaries.summary(get_value);
    assert_eq!(flow.sites.len(), 1);
    let key = &flow.sites[0];
    assert_eq!(key.escape, EscapeClass::GlobalEscape);
    assert_eq!(
        key.path,
        PathEscape::EscapesOnColdBranch(12),
        "the Key escapes only behind the equals test at bci 12"
    );
    assert!(
        !key.certain_global,
        "the hit path never publishes: the site must stay with PEA"
    );
    assert!(
        summaries
            .excluded_sites_flow(&program, get_value)
            .is_empty(),
        "the flow site set must not list the paper's running example"
    );

    let inst = PatternInstance {
        pattern: Pattern::ExceptionParse {
            n: 10,
            fail_every: 3,
        },
        index: 0,
    };
    let program = parse_program(&inst.to_asm()).unwrap();
    verify_program(&program).unwrap();
    let summaries = ProgramSummaries::compute(&program);
    let parse = program.static_method_by_name("parse0").unwrap();
    let flow = summaries.summary(parse);
    let err_site = flow
        .sites
        .iter()
        .find(|s| s.escape == EscapeClass::GlobalEscape)
        .expect("the thrown PErr site is GlobalEscape");
    assert_eq!(
        err_site.path,
        PathEscape::EscapesOnThrowPathOnly,
        "the parser error escapes only through its athrow"
    );
    assert!(matches!(flow.throw_path, ThrowPath::Guarded(_)));
}
