//! VM tiering policy tests: compilation thresholds, bailout fallback,
//! code-cache behaviour, and statistics bookkeeping.

use pea_bytecode::asm::parse_program;
use pea_runtime::{Value, VmError};
use pea_vm::{OptLevel, Vm, VmOptions};

fn vm_with(src: &str, mut options: VmOptions) -> Vm {
    options.compile_threshold = 5;
    let program = parse_program(src).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    Vm::new(program, options)
}

#[test]
fn threshold_controls_compilation_point() {
    let src = "method f 0 returns { const 1 retv }";
    let mut vm = vm_with(src, VmOptions::with_opt_level(OptLevel::Pea));
    for i in 0..5 {
        vm.call_entry("f", &[]).unwrap();
        assert_eq!(
            vm.compiled_method_count(),
            0,
            "not compiled after {} calls",
            i + 1
        );
    }
    vm.call_entry("f", &[]).unwrap();
    assert_eq!(vm.compiled_method_count(), 1, "compiled at the threshold");
    assert_eq!(vm.stats().compiles, 1);
    // Further calls do not recompile.
    for _ in 0..20 {
        vm.call_entry("f", &[]).unwrap();
    }
    assert_eq!(vm.stats().compiles, 1);
}

#[test]
fn bailout_methods_stay_interpreted_but_work() {
    // Unbalanced monitors: uncompilable, must keep interpreting forever.
    let src = "
        class C { }
        static keep ref
        method f 0 returns {
            new C dup putstatic keep monitorenter
            const 7 retv
        }";
    let mut vm = vm_with(src, VmOptions::with_opt_level(OptLevel::Pea));
    for _ in 0..50 {
        assert_eq!(vm.call_entry("f", &[]).unwrap(), Some(Value::Int(7)));
    }
    assert_eq!(vm.compiled_method_count(), 0, "bailout: never compiled");
    assert_eq!(vm.stats().compiles, 0);
    // The interpreter really did enter those monitors.
    assert_eq!(vm.stats().monitor_enters, 50);
}

#[test]
fn compiled_method_reports_pea_results() {
    let src = "
        class Box { field v int }
        method f 1 returns {
            new Box store 1
            load 1 load 0 putfield Box.v
            load 1 getfield Box.v retv
        }";
    let mut vm = vm_with(src, VmOptions::with_opt_level(OptLevel::Pea));
    for i in 0..10 {
        vm.call_entry("f", &[Value::Int(i)]).unwrap();
    }
    let method = vm.program().static_method_by_name("f").unwrap();
    let code = vm.compiled(method).expect("in code cache");
    assert_eq!(code.pea_result.virtualized_allocs, 1);
    assert!(code.code_size > 0);
}

#[test]
fn reset_statics_restores_defaults() {
    let src = "
        static g int
        method f 1 returns { load 0 putstatic g getstatic g retv }";
    let mut vm = vm_with(src, VmOptions::with_opt_level(OptLevel::None));
    vm.call_entry("f", &[Value::Int(9)]).unwrap();
    let g = vm.program().static_by_name("g").unwrap();
    assert_eq!(vm.statics_ref().get(g), Value::Int(9));
    vm.reset_statics();
    assert_eq!(vm.statics_ref().get(g), Value::Int(0));
}

#[test]
fn deopt_statistics_attribute_to_the_right_method() {
    let src = "
        static sink ref
        class C { field v int }
        method g 1 returns {
            new C store 1
            load 1 load 0 putfield C.v
            load 0 const 900 ifcmp gt Lrare
            load 1 getfield C.v retv
        Lrare:
            load 1 putstatic sink
            const -1 retv
        }
        method f 1 returns { load 0 invokestatic g retv }";
    // The callee is only interpreted (and profiled) until the caller
    // compiles at its 5-invocation threshold, so the branch threshold
    // must fit inside those samples for speculation to kick in.
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.compiler.build.branch_threshold = 4;
    let mut vm = vm_with(src, options);
    for i in 0..60 {
        assert_eq!(
            vm.call_entry("f", &[Value::Int(i)]).unwrap(),
            Some(Value::Int(i))
        );
    }
    let before = vm.stats();
    assert_eq!(
        vm.call_entry("f", &[Value::Int(2000)]).unwrap(),
        Some(Value::Int(-1))
    );
    let d = vm.stats().delta(&before);
    assert_eq!(d.deopts, 1);
    // g was inlined into f (or compiled itself); either way the deopt
    // resumed and finished in the interpreter with the right result and
    // the object published.
    let sink = vm.program().static_by_name("sink").unwrap();
    assert!(matches!(vm.statics_ref().get(sink), Value::Ref(_)));
}

#[test]
fn errors_do_not_poison_the_code_cache() {
    let src = "method f 1 returns { const 100 load 0 div retv }";
    let mut vm = vm_with(src, VmOptions::with_opt_level(OptLevel::Pea));
    for i in 1..20 {
        vm.call_entry("f", &[Value::Int(i)]).unwrap();
    }
    assert_eq!(vm.compiled_method_count(), 1);
    // A runtime error in compiled code propagates...
    assert_eq!(
        vm.call_entry("f", &[Value::Int(0)]).unwrap_err(),
        VmError::DivisionByZero
    );
    // ...and the method keeps running compiled afterwards.
    assert_eq!(
        vm.call_entry("f", &[Value::Int(4)]).unwrap(),
        Some(Value::Int(25))
    );
    assert_eq!(vm.compiled_method_count(), 1);
    assert_eq!(vm.stats().compiles, 1);
}
