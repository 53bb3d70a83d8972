//! Cross-layer alignment of the static analyses in `pea-analysis` with
//! the rest of the stack: the bytecode verifier (which deliberately
//! accepts what the dataflow passes flag), the graph builder (which bails
//! out on unstructured locking) and the PEA decision sanitizer (which
//! must stay silent on the paper examples compiled from warm profiles).

use pea::analysis::{analyze_locks, analyze_method, analyze_nullness, EscapeClass};
use pea::analysis::{check_compilation, LockFindingKind, NullFindingKind, StaticVerdicts};
use pea::bytecode::asm::parse_program;
use pea::bytecode::{verify_program, MethodId};
use pea::compiler::{compile, compile_traced, Bailout, CompilerOptions};
use pea::runtime::Value;
use pea::trace::MemorySink;
use pea::vm::{OptLevel, Vm, VmOptions};

const CACHE_EXAMPLE: &str = include_str!("../examples/cache_key.asm");

/// §2's synchronized accumulator: lock elision on the hot path, deopt
/// with the monitor held on the cold one.
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

#[test]
fn unbalanced_monitor_passes_verifier_but_is_flagged_and_bailed() {
    let src = "
        class C { }
        method f 0 returns {
            new C monitorenter
            const 1 retv
        }";
    let program = parse_program(src).unwrap();
    // Layer 1: the verifier accepts it (monitor pairing is out of scope,
    // as in JVM bytecode verification).
    verify_program(&program).unwrap();
    // Layer 2: the lock-balance dataflow pass flags the leaked monitor.
    let locks = analyze_locks(&program, MethodId::from_index(0));
    assert!(!locks.balanced());
    assert!(locks
        .findings
        .iter()
        .any(|f| f.kind == LockFindingKind::UnreleasedAtReturn));
    // Layer 3: the compiler refuses to build a graph for it.
    let result = compile(
        &program,
        MethodId::from_index(0),
        None,
        &CompilerOptions::default(),
    );
    assert!(matches!(result, Err(Bailout::UnstructuredLocking)));
}

#[test]
fn read_before_store_passes_verifier_but_is_flagged() {
    let src = "method f 0 returns { load 3 retv }";
    let program = parse_program(src).unwrap();
    verify_program(&program).unwrap();
    let nullness = analyze_nullness(&program, MethodId::from_index(0));
    assert!(nullness
        .findings
        .iter()
        .any(|f| f.kind == NullFindingKind::ReadBeforeStore { local: 3 }));
}

#[test]
fn escape_classes_on_the_paper_example() {
    let program = parse_program(CACHE_EXAMPLE).unwrap();
    let get_value = program.static_method_by_name("getValue").unwrap();
    let summary = analyze_method(&program, get_value, None, None);
    assert_eq!(summary.sites.len(), 1);
    // The Key escapes through `putstatic cacheKey` on the miss path, so
    // the flow-insensitive verdict is GlobalEscape — which is exactly why
    // flow-sensitive PEA is needed to optimize the hit path.
    assert_eq!(summary.sites[0].escape, EscapeClass::GlobalEscape);
    assert!(
        !summary.sites[0].immediate_global,
        "the escape is conditional, not an immediate publish"
    );
}

/// Warms `entry` in the interpreter, compiles every method at `pea` from
/// those profiles and asserts the sanitizer finds nothing.
fn assert_sanitizer_clean(src: &str, entry: &str, args: fn(i64) -> Vec<Value>) {
    let program = parse_program(src).unwrap();
    verify_program(&program).unwrap();
    let mut vm = Vm::new(program.clone(), VmOptions::interpreter_only());
    for i in 0..200 {
        vm.call_entry(entry, &args(i)).unwrap();
    }
    let verdicts = StaticVerdicts::analyze(&program);
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    let mut compiled = 0;
    for m in 0..program.methods.len() {
        let method = MethodId::from_index(m);
        let mut sink = MemorySink::new();
        let Ok(code) = compile_traced(&program, method, Some(vm.profiles()), &options, &mut sink)
        else {
            continue;
        };
        compiled += 1;
        let findings = check_compilation(&program, &verdicts, method, &code.graph, &sink.events);
        assert!(findings.is_empty(), "sanitizer findings: {findings:#?}");
    }
    assert!(compiled >= 1, "nothing compiled");
}

#[test]
fn sanitizer_is_clean_on_the_cache_example() {
    // The sanitizer cross-checks every Virtualized/LockElided decision
    // against the static verdicts and every frame state's
    // rematerialization info; the paper examples must compile clean.
    assert_sanitizer_clean(CACHE_EXAMPLE, "getValue", |i| {
        vec![Value::Int(i), Value::Null]
    });
}

#[test]
fn sanitizer_is_clean_on_the_sync_deopt_example() {
    assert_sanitizer_clean(SYNC_ACC, "f", |i| vec![Value::Int(i)]);
}

/// Why the static site sets are reported and never withheld from PEA
/// (DESIGN §4f): `new Err athrow` is an immediate-global site as far as the
/// method's own bytecode can tell, yet with the handler inside the
/// compilation unit PEA scalar-replaces the object entirely, with results
/// intact.
#[test]
fn locally_caught_immediate_throw_is_scalar_replaced() {
    let src = "
        class Err { field code int }
        method f 1 returns {
            try Ls Le Lh Err
        Ls:
            load 0 const 3 rem const 0 ifcmp ne Lok
            new Err athrow
        Lok:
            load 0 const 2 mul retv
        Le:
        Lh:
            pop const 7 retv
        }";
    let program = parse_program(src).unwrap();
    verify_program(&program).unwrap();
    let f = program.static_method_by_name("f").unwrap();
    assert_eq!(
        pea::analysis::immediate_global_sites(program.method(f)).len(),
        1,
        "the thrown site is statically immediate-global"
    );
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.compile_threshold = 5;
    let mut vm = Vm::new(program, options);
    for i in 0..60 {
        let expect = if i % 3 == 0 { 7 } else { i * 2 };
        assert_eq!(
            vm.call_entry("f", &[Value::Int(i)]).unwrap(),
            Some(Value::Int(expect))
        );
    }
    assert_eq!(vm.compiled_method_count(), 1);
    let before = vm.stats();
    vm.call_entry("f", &[Value::Int(3)]).unwrap();
    let delta = vm.stats().delta(&before);
    assert_eq!((delta.alloc_count, delta.deopts), (0, 0), "{delta}");
}
