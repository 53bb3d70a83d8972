//! Golden inline-decision traces: pins the exact `InlineDecision`
//! sequence the graph builder emits for the paper's worked examples. A
//! change in these sequences means the inliner walked the example
//! differently; deliberate changes must update the goldens alongside an
//! explanation.

use pea::bytecode::asm::parse_program;
use pea::compiler::{compile_traced, CompilerOptions, OptLevel};
use pea::runtime::profile::ProfileStore;
use pea::runtime::Value;
use pea::trace::{MemorySink, TraceEvent};
use pea::vm::{Vm, VmOptions};
use pea::workloads::{Pattern, PatternInstance};

const CACHE_EXAMPLE: &str = include_str!("../examples/cache_key.asm");

/// A helper that globally publishes its argument. Inlining it buys no
/// allocation — the object escapes either way — but the body is tiny, so
/// the size rule inlines it.
const PUBLISH_HELPER: &str = "
    class C { field v int }
    static g ref
    method publish 1 { load 0 putstatic g ret }
    method f 1 returns {
        new C invokestatic publish
        const 1 retv
    }";

/// Compiles `entry` (speculating from `profiles`, when given) and renders
/// each inline decision as one compact golden line.
fn inline_lines(src: &str, entry: &str, profiles: Option<&ProfileStore>) -> Vec<String> {
    let program = parse_program(src).unwrap();
    pea::bytecode::verify_program(&program).unwrap();
    let method = program.static_method_by_name(entry).unwrap();
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    let mut sink = MemorySink::new();
    compile_traced(&program, method, profiles, &options, &mut sink).unwrap();
    sink.events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::InlineDecision {
                method,
                bci,
                callee,
                inlined,
                reason,
            } => Some(format!(
                "{} {callee} at {method}:{bci} {reason}",
                if *inlined { "inline" } else { "no-inline" },
            )),
            _ => None,
        })
        .collect()
}

/// Listing 4 / §4: the synchronized `Key.equals` fits the size budget and
/// is inlined, which is what lets PEA virtualize the receiver and elide
/// the lock.
#[test]
fn cache_example_inline_goldens() {
    assert_eq!(
        inline_lines(CACHE_EXAMPLE, "getValue", None),
        vec!["inline Key.equals at getValue:10 within-size-budget".to_string()],
    );
}

/// The size rule does not look at what the callee does with its argument:
/// the publishing helper is inlined because it is tiny.
#[test]
fn publish_helper_inline_goldens() {
    assert_eq!(
        inline_lines(PUBLISH_HELPER, "f", None),
        vec!["inline publish at f:1 within-size-budget".to_string()],
    );
}

/// The `ColdThrowPublish` helper can throw, so it stays out of line even
/// from warmed profiles that prove its throw side was never taken: the
/// `may-throw` gate is the one rule for such callees.
#[test]
fn cold_throw_helper_inline_golden() {
    let inst = PatternInstance {
        pattern: Pattern::ColdThrowPublish { n: 30 },
        index: 0,
    };
    let src = inst.to_asm() + "method iterate 1 returns { load 0 invokestatic p0 retv }";
    let mut vm = Vm::new(parse_program(&src).unwrap(), VmOptions::interpreter_only());
    for i in 0..25 {
        vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
    }
    assert_eq!(
        inline_lines(&src, "p0", Some(vm.profiles())),
        vec!["no-inline check0 at p0:9 may-throw".to_string()],
    );
}
