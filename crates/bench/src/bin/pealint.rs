//! `pealint` — runs every static analysis in `pea-analysis` plus the PEA
//! decision sanitizer over the whole workload corpus and the paper
//! examples, and writes a machine-readable JSON report.
//!
//! ```text
//! pealint [--out REPORT.json] [--callgraph CALLGRAPH.json]
//! ```
//!
//! Any other argument, or a flag without its path or with a non-UTF-8
//! one, is a usage error (exit 2).
//!
//! Besides the aggregate report, pealint emits a `CALLGRAPH.json`
//! artifact: one flat JSON object per method (JSON lines) describing the
//! interprocedural escape summary — parameter escape classes, whether the
//! method returns a fresh allocation, whether an exception may surface
//! while it is on the stack (`may_throw`) and whether it may throw one of
//! its own allocations (`throws_fresh`), its call-graph successors, how
//! many allocation sites each static tier (immediate / IPA / flow) proves
//! escaping up front, the method's path-qualified throw
//! classification (`throw_path`), and each allocation site's
//! path-qualified escape verdict (`site_paths`, with a ` certain` tag on
//! sites carrying a certain-escape certificate).
//!
//! The exit code is non-zero **only** when the sanitizer finds an
//! inconsistency between a compilation's PEA decisions and the static
//! escape verdicts, or when the interprocedural summaries are internally
//! inconsistent (a must-publish parameter not classified `GlobalEscape`,
//! an IPA exclusion set that is not a superset of the immediate one, a
//! `throws_fresh` method not marked `may_throw`, or an unstable
//! fixpoint), or when the flow tier violates its refinement contract (a
//! path verdict of `no-escape` disagreeing with the insensitive lattice,
//! a certain-escape certificate on a non-`GlobalEscape` site, a flow
//! exclusion set that is not a superset of the IPA one, a `never` throw
//! path on a `may_throw` method, or a throw-path-only publish of a
//! non-`GlobalEscape` parameter) — those are compiler bugs, and CI fails
//! on them. Lock or nullness findings in corpus programs are reported but do
//! not fail the run (the analyses flag patterns the verifier deliberately
//! accepts).

use pea_analysis::{
    analyze_nullness, check_compilation, immediate_global_sites, EscapeClass, PathEscape,
    ProgramSummaries, StaticVerdicts, ThrowPath,
};
use pea_bytecode::asm::parse_program;
use pea_bytecode::{MethodId, Program};
use pea_compiler::{compile_traced, CompilerOptions, OptLevel};
use pea_trace::json::ObjectWriter;
use pea_trace::MemorySink;
use std::process::ExitCode;

/// The paper's running example (§2, Figure 2) beyond the shipped
/// `examples/cache_key.asm`: a synchronized accumulator whose lock is
/// elided on the hot path and rematerialized held on the cold one.
const SYNC_ACC: &str = "
    class Acc { field v int }
    static published ref
    method virtual Acc.bump 2 returns synchronized {
        load 0 load 0 getfield Acc.v load 1 add putfield Acc.v
        load 1 const 1000 ifcmp gt Lrare
        load 0 getfield Acc.v retv
    Lrare:
        load 0 putstatic published
        load 0 getfield Acc.v const 1000000 add retv
    }
    method f 1 returns {
        new Acc store 1
        load 1 load 0 invokevirtual Acc.bump retv
    }";

#[derive(Default)]
struct Report {
    programs: i64,
    methods: i64,
    alloc_sites: i64,
    no_escape: i64,
    arg_escape: i64,
    global_escape: i64,
    lock_findings: i64,
    nullness_findings: i64,
    maybe_null_derefs: i64,
    compiled: i64,
    bailouts: i64,
    summary_methods: i64,
    ipa_excluded_sites: i64,
    immediate_excluded_sites: i64,
    flow_excluded_sites: i64,
    certain_global_sites: i64,
    throw_only_sites: i64,
    cold_branch_sites: i64,
    inconsistencies: i64,
}

/// Emits the per-method call-graph/summary lines for `program` into
/// `lines`, checking the summaries' internal invariants along the way.
/// Every violation is a bug in `pea-analysis` and counts as an
/// inconsistency (non-zero exit).
fn lint_summaries(name: &str, program: &Program, report: &mut Report, lines: &mut Vec<String>) {
    let summaries = ProgramSummaries::compute(program);
    // Fixpoint determinism: an independent recomputation must converge to
    // the same summaries (catches iteration-order-dependent results).
    let again = ProgramSummaries::compute(program);
    for (index, summary) in summaries.all().iter().enumerate() {
        let method = MethodId::from_index(index);
        let qualified = program.method(method).qualified_name(program);
        report.summary_methods += 1;

        let immediate = immediate_global_sites(program.method(method));
        let excluded = summaries.excluded_sites(program, method);
        report.immediate_excluded_sites += immediate.len() as i64;
        report.ipa_excluded_sites += excluded.len() as i64;

        for (i, &publishes) in summary.publishes_immediately.iter().enumerate() {
            if publishes && summary.param_escape[i] != EscapeClass::GlobalEscape {
                report.inconsistencies += 1;
                eprintln!(
                    "{name}/{qualified}: SUMMARY: parameter {i} must-publishes \
                     but is classified {}",
                    summary.param_escape[i].as_str()
                );
            }
        }
        if !immediate.iter().all(|bci| excluded.contains(bci)) {
            report.inconsistencies += 1;
            eprintln!(
                "{name}/{qualified}: SUMMARY: IPA exclusions {excluded:?} miss \
                 immediate putstatic sites {immediate:?}"
            );
        }
        if summary.throws_fresh && !summary.may_throw {
            report.inconsistencies += 1;
            eprintln!(
                "{name}/{qualified}: SUMMARY: throws_fresh without may_throw — a fresh \
                 throw requires a direct athrow, which must seed may_throw"
            );
        }
        let excluded_flow = summaries.excluded_sites_flow(program, method);
        report.flow_excluded_sites += excluded_flow.len() as i64;
        if !excluded.iter().all(|bci| excluded_flow.contains(bci)) {
            report.inconsistencies += 1;
            eprintln!(
                "{name}/{qualified}: FLOW: flow exclusions {excluded_flow:?} are not a \
                 superset of the IPA exclusions {excluded:?}"
            );
        }
        for site in &summary.sites {
            match site.path {
                PathEscape::NoEscape => {}
                PathEscape::EscapesOnThrowPathOnly => report.throw_only_sites += 1,
                PathEscape::EscapesOnColdBranch(_) => report.cold_branch_sites += 1,
                PathEscape::GlobalEscape => {}
            }
            if site.certain_global {
                report.certain_global_sites += 1;
            }
            if (site.path == PathEscape::NoEscape) != (site.escape == EscapeClass::NoEscape) {
                report.inconsistencies += 1;
                eprintln!(
                    "{name}/{qualified}: FLOW: site {} is path-{} but insensitively {} — \
                     the flow tier must refine, never contradict, the insensitive lattice",
                    site.bci,
                    site.path.as_str(),
                    site.escape.as_str()
                );
            }
            if site.certain_global && site.escape != EscapeClass::GlobalEscape {
                report.inconsistencies += 1;
                eprintln!(
                    "{name}/{qualified}: FLOW: site {} carries a certain-escape \
                     certificate but is insensitively {}",
                    site.bci,
                    site.escape.as_str()
                );
            }
        }
        if summary.throw_path == ThrowPath::Never && summary.may_throw {
            report.inconsistencies += 1;
            eprintln!(
                "{name}/{qualified}: FLOW: throw path classified `never` on a method \
                 whose interprocedural summary says may_throw"
            );
        }
        for (i, &throw_only) in summary.publishes_on_throw_only.iter().enumerate() {
            if throw_only && summary.param_escape[i] != EscapeClass::GlobalEscape {
                report.inconsistencies += 1;
                eprintln!(
                    "{name}/{qualified}: FLOW: parameter {i} publishes on the throw path \
                     but is classified {}",
                    summary.param_escape[i].as_str()
                );
            }
        }

        if *summary != again.all()[index] {
            report.inconsistencies += 1;
            eprintln!("{name}/{qualified}: SUMMARY: fixpoint is not stable across recomputation");
        }

        let mut o = ObjectWriter::new();
        o.str("program", name);
        o.str("method", &qualified);
        o.str_array(
            "params",
            &summary
                .param_escape
                .iter()
                .map(|c| c.as_str().to_string())
                .collect::<Vec<_>>(),
        );
        o.bool("returns_fresh", summary.returns_fresh);
        o.bool("may_throw", summary.may_throw);
        o.bool("throws_fresh", summary.throws_fresh);
        o.str_array(
            "callees",
            &summaries
                .call_graph
                .callees(method)
                .iter()
                .map(|&c| program.method(c).qualified_name(program))
                .collect::<Vec<_>>(),
        );
        o.num("alloc_sites", summary.sites.len() as i64);
        o.num("excluded_immediate", immediate.len() as i64);
        o.num("excluded_ipa", excluded.len() as i64);
        o.num("excluded_flow", excluded_flow.len() as i64);
        o.str("throw_path", summary.throw_path.as_str());
        o.str_array(
            "site_paths",
            &summary
                .sites
                .iter()
                .map(|s| {
                    let cert = if s.certain_global { " certain" } else { "" };
                    format!("{}:{}{cert}", s.bci, s.path.as_str())
                })
                .collect::<Vec<_>>(),
        );
        o.str_array(
            "publishes_on_throw_only",
            &summary
                .publishes_on_throw_only
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(i, _)| i.to_string())
                .collect::<Vec<_>>(),
        );
        lines.push(o.finish());
    }
}

fn lint_program(name: &str, program: &Program, report: &mut Report, callgraph: &mut Vec<String>) {
    report.programs += 1;
    lint_summaries(name, program, report, callgraph);
    let verdicts = StaticVerdicts::analyze(program);
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    for index in 0..program.methods.len() {
        let method = MethodId::from_index(index);
        report.methods += 1;
        let (escape, locks) = verdicts.method(method);
        for site in &escape.sites {
            report.alloc_sites += 1;
            match site.escape {
                EscapeClass::NoEscape => report.no_escape += 1,
                EscapeClass::ArgEscape => report.arg_escape += 1,
                EscapeClass::GlobalEscape => report.global_escape += 1,
            }
        }
        for finding in &locks.findings {
            report.lock_findings += 1;
            eprintln!(
                "{name}/{}: lock-balance {} at bci {}",
                program.method(method).qualified_name(program),
                finding.kind.as_str(),
                finding.bci,
            );
        }
        let nullness = analyze_nullness(program, method);
        report.nullness_findings += nullness.findings.len() as i64;
        report.maybe_null_derefs += nullness.maybe_null_derefs as i64;

        let mut buffer = MemorySink::new();
        match compile_traced(program, method, None, &options, &mut buffer) {
            Ok(code) => {
                report.compiled += 1;
                for finding in
                    check_compilation(program, &verdicts, method, &code.graph, &buffer.events)
                {
                    report.inconsistencies += 1;
                    eprintln!("{name}: SANITIZER: {finding}");
                }
            }
            Err(_) => report.bailouts += 1,
        }
    }
}

/// The report and call-graph paths from `--out PATH` / `--callgraph
/// PATH`; any other argument, or a flag without its path or with a
/// non-UTF-8 one, is an error.
fn parse_args() -> Result<(String, String), String> {
    let mut out = "PEALINT.json".to_string();
    let mut callgraph = "CALLGRAPH.json".to_string();
    let mut args = std::env::args_os().skip(1);
    while let Some(arg) = args.next() {
        let arg = arg.to_string_lossy().into_owned();
        let slot = match arg.as_str() {
            "--out" => &mut out,
            "--callgraph" => &mut callgraph,
            _ => return Err(format!("unknown argument `{arg}`")),
        };
        match args.next().map(|v| v.into_string()) {
            Some(Ok(path)) if !path.starts_with("--") => *slot = path,
            Some(Err(_)) => return Err(format!("{arg}: path is not UTF-8")),
            _ => return Err(format!("{arg} needs a path")),
        }
    }
    Ok((out, callgraph))
}

fn main() -> ExitCode {
    let (out, callgraph_out) = match parse_args() {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!(
                "pealint: {e}\nusage: pealint [--out REPORT.json] [--callgraph CALLGRAPH.json]"
            );
            return ExitCode::from(2);
        }
    };
    let (out, callgraph_out) = (out.as_str(), callgraph_out.as_str());

    let mut report = Report::default();
    let mut callgraph = Vec::new();
    for workload in pea_workloads::all_workloads() {
        lint_program(
            &workload.name,
            &workload.program,
            &mut report,
            &mut callgraph,
        );
    }
    for (name, source) in [
        (
            "cache_key",
            include_str!("../../../../examples/cache_key.asm"),
        ),
        ("sync_acc", SYNC_ACC),
    ] {
        let program = parse_program(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        pea_bytecode::verify_program(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        lint_program(name, &program, &mut report, &mut callgraph);
    }

    if let Err(e) = std::fs::write(callgraph_out, callgraph.join("\n") + "\n") {
        eprintln!("cannot write {callgraph_out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "call graph ({} methods) written to {callgraph_out}",
        callgraph.len()
    );

    let mut o = ObjectWriter::new();
    o.num("programs", report.programs);
    o.num("methods", report.methods);
    o.num("alloc_sites", report.alloc_sites);
    o.num("no_escape", report.no_escape);
    o.num("arg_escape", report.arg_escape);
    o.num("global_escape", report.global_escape);
    o.num("lock_findings", report.lock_findings);
    o.num("nullness_findings", report.nullness_findings);
    o.num("maybe_null_derefs", report.maybe_null_derefs);
    o.num("compiled", report.compiled);
    o.num("bailouts", report.bailouts);
    o.num("summary_methods", report.summary_methods);
    o.num("excluded_immediate", report.immediate_excluded_sites);
    o.num("excluded_ipa", report.ipa_excluded_sites);
    o.num("excluded_flow", report.flow_excluded_sites);
    o.num("certain_global_sites", report.certain_global_sites);
    o.num("throw_only_sites", report.throw_only_sites);
    o.num("cold_branch_sites", report.cold_branch_sites);
    o.num("inconsistencies", report.inconsistencies);
    let line = o.finish();
    if let Err(e) = std::fs::write(out, format!("{line}\n")) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!("{line}");
    println!("report written to {out}");

    if report.inconsistencies > 0 {
        eprintln!(
            "pealint: {} inconsistency(ies) — PEA decisions disagree with the static analysis, \
             or the interprocedural summaries violate their invariants",
            report.inconsistencies
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
