//! Cross-layer alignment of the branch-aware flow tier (`pea-analysis::
//! flow`) with the rest of the stack: the flow verdicts must refine — never
//! contradict — the flow-insensitive analysis on every corpus and fuzz
//! program, and the path-qualified throw summaries must let the summary
//! inline policy inline a provably cold-throwing callee with the
//! checked-mode sanitizer staying silent.

use pea::analysis::{EscapeClass, PathEscape, ProgramSummaries, ThrowPath};
use pea::bytecode::asm::parse_program;
use pea::bytecode::{verify_program, MethodId, Program};
use pea::compiler::InlinePolicy;
use pea::runtime::Value;
use pea::vm::{JitMode, OptLevel, Vm, VmOptions};
use pea::workloads::{Pattern, PatternInstance};

/// Checks every flow-tier invariant on one program:
///
/// * flow ⊆ flow-insensitive — a site's path verdict is `NoEscape` exactly
///   when the insensitive class is `NoEscape`, and a certain-escape
///   certificate only ever appears on a `GlobalEscape` site;
/// * `excluded_sites_flow` ⊇ `excluded_sites` per method;
/// * the fixpoint is stable — recomputing the summaries from scratch
///   reproduces every flow summary exactly.
fn assert_flow_invariants(program: &Program, label: &str) {
    let summaries = ProgramSummaries::compute(program);
    let again = ProgramSummaries::compute(program);
    for index in 0..program.methods.len() {
        let id = MethodId::from_index(index);
        let s = summaries.summary(id);
        for site in &s.flow.sites {
            assert_eq!(
                site.path == PathEscape::NoEscape,
                site.insensitive == EscapeClass::NoEscape,
                "{label}, method {index}, site {}: path `{}` vs insensitive `{}`",
                site.bci,
                site.path.as_str(),
                site.insensitive.as_str()
            );
            if site.certain_global {
                assert_eq!(
                    site.insensitive,
                    EscapeClass::GlobalEscape,
                    "{label}, method {index}, site {}: certain-escape on a non-global site",
                    site.bci
                );
            }
        }
        if matches!(s.flow.throw_path, ThrowPath::Never) {
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
            s.flow,
            again.summary(id).flow,
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
    let flow = &summaries.summary(get_value).flow;
    assert_eq!(flow.sites.len(), 1);
    let key = &flow.sites[0];
    assert_eq!(key.insensitive, EscapeClass::GlobalEscape);
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
    let flow = &summaries.summary(parse).flow;
    let err_site = flow
        .sites
        .iter()
        .find(|s| s.insensitive == EscapeClass::GlobalEscape)
        .expect("the thrown PErr site is GlobalEscape");
    assert_eq!(
        err_site.path,
        PathEscape::EscapesOnThrowPathOnly,
        "the parser error escapes only through its athrow"
    );
    assert!(matches!(flow.throw_path, ThrowPath::Guarded(_)));
}

/// Acceptance gate for cold-throw inlining: on the `ColdThrowPublish`
/// pattern the summary policy must inline the may-throw checking helper
/// (reason `cold-throw-speculated`), the size policy must keep refusing it
/// (`may-throw`), results must agree call-for-call, and the checked-mode
/// sanitizer must stay silent — in both JIT modes.
#[test]
fn cold_throw_callee_inlines_under_summary_policy() {
    let inst = PatternInstance {
        pattern: Pattern::ColdThrowPublish { n: 30 },
        index: 0,
    };
    let mut src = inst.to_asm();
    src.push_str("method iterate 1 returns { load 0 invokestatic p0 retv }");
    let program = parse_program(&src).unwrap();
    verify_program(&program).unwrap();
    let check = program.static_method_by_name("check0").unwrap();
    for mode in [JitMode::Sync, JitMode::Background] {
        let mut outcomes = Vec::new();
        for policy in [InlinePolicy::Size, InlinePolicy::Summary] {
            let mut options = VmOptions::with_opt_level(OptLevel::Pea);
            options.compile_threshold = 5;
            options.checked = true;
            options.jit_mode = mode;
            options.compiler.build.inline_policy = policy;
            // The callee compiles (and stops profiling) after 5 calls, so
            // scale the speculation threshold down with the compile
            // threshold, as the default configuration does (20 < 50).
            options.compiler.build.branch_threshold = 4;
            let mut vm = Vm::new(program.clone(), options);
            let mut results = Vec::new();
            for i in 0..25 {
                results.push(vm.call_entry("iterate", &[Value::Int(i)]).unwrap());
            }
            if mode == JitMode::Background {
                vm.await_background_compiles();
                // Recompile with fully warm profiles so the inline
                // decisions are deterministic (background installs can
                // otherwise race the profile warm-up).
                vm.precompile_all(1);
            }
            let mut check_decisions = Vec::new();
            for &m in &vm.compiled_methods() {
                for d in &vm.compiled(m).unwrap().inline_decisions {
                    if d.callee == check {
                        check_decisions.push((d.inlined, d.reason));
                    }
                }
            }
            assert!(
                !check_decisions.is_empty(),
                "{mode:?}/{policy}: no compiled caller considered check0"
            );
            outcomes.push((policy, results, check_decisions));
        }
        let (_, size_results, size_decisions) = &outcomes[0];
        let (_, summary_results, summary_decisions) = &outcomes[1];
        assert_eq!(
            size_results, summary_results,
            "{mode:?}: policies disagree on results"
        );
        assert!(
            size_decisions
                .iter()
                .all(|&(inlined, reason)| { !inlined && reason == "may-throw" }),
            "{mode:?}: size policy must keep may-throw callees out-of-line: {size_decisions:?}"
        );
        assert!(
            summary_decisions
                .iter()
                .any(|&(inlined, reason)| inlined && reason == "cold-throw-speculated"),
            "{mode:?}: summary policy never cold-throw-inlined check0: {summary_decisions:?}"
        );
    }
}

/// The cold-throw clearance is profile-driven: without branch profiles
/// (or with a hot throw path) the may-throw callee stays out-of-line even
/// under the summary policy.
#[test]
fn cold_throw_clearance_requires_cold_profiles() {
    let src = "
        class CErr { field code int }
        method check 2 returns {
            load 0 const 2 rem const 1 ifcmp eq Lbad
            load 1 load 0 add retv
        Lbad:
            new CErr store 2
            load 2 load 0 putfield CErr.code
            load 2 athrow
        }
        method iterate 1 returns {
            try Ls Le Lc CErr
            const 0 store 1
        Ls:
            load 0 load 1 invokestatic check store 1
        Le:
            goto Ln
        Lc:
            checkcast CErr getfield CErr.code store 1
        Ln:
            load 1 retv
        }";
    let program = parse_program(src).unwrap();
    verify_program(&program).unwrap();
    let check = program.static_method_by_name("check").unwrap();
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.compile_threshold = 5;
    options.checked = true;
    options.compiler.build.inline_policy = InlinePolicy::Summary;
    options.compiler.build.branch_threshold = 4;
    let mut vm = Vm::new(program, options);
    for i in 0..40 {
        vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
    }
    // Every second call throws: the guard's throw side is hot, so the
    // clearance must refuse.
    let mut saw = Vec::new();
    for &m in &vm.compiled_methods() {
        for d in &vm.compiled(m).unwrap().inline_decisions {
            if d.callee == check {
                assert!(!d.inlined, "hot-throw callee was inlined: {d:?}");
                saw.push(d.reason);
            }
        }
    }
    assert!(
        saw.iter().all(|r| *r == "throw-path-hot"),
        "expected throw-path-hot refusals, got {saw:?}"
    );
    assert!(!saw.is_empty(), "no compiled caller considered check");
}
