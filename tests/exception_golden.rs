//! End-to-end golden pins for the two new materialization points:
//! exception edges and speculated virtual dispatch.
//!
//! These tests drive the full VM (interpreter → profile → JIT) and pin
//! the *observable* contract of the tentpole features:
//!
//! - a try-block allocation caught by a local handler is fully scalar
//!   replaced — zero heap allocations in a compiled steady state;
//! - the same shape with an escaping throw materializes exactly at the
//!   throw — the runtime allocation count matches the number of throwing
//!   calls, and the compile trace carries the `thrown-escape` reason;
//! - a speculated virtual call site plants a `DevirtGuard` at compile
//!   time, and a receiver outside the speculated set triggers
//!   `DeoptTaken` *before* the generic `Deopt` record, with correct
//!   rematerialization.
//!
//! Everything runs in both JIT modes (synchronous and background).

use pea::runtime::Value;
use pea::trace::{MaterializeReason, MemorySink, SharedSink, TraceEvent};
use pea::vm::{JitMode, OptLevel, Vm, VmOptions};
use std::sync::{Arc, Mutex};

const CAUGHT: &str = "
    class E { field c int }
    method work 1 returns {
        try Ls Le Lh E
    Ls:
        load 0 const 3 rem const 0 ifcmp ne Lok
        new E store 1
        load 1 load 0 putfield E.c
        load 1 athrow
    Lok:
        load 0 const 2 mul retv
    Le:
    Lh:
        checkcast E getfield E.c const 100 add retv
    }
    method iterate 1 returns { load 0 invokestatic work retv }";

const ESCAPING: &str = "
    class E { field c int }
    method work 1 returns {
        load 0 const 3 rem const 0 ifcmp ne Lok
        new E store 1
        load 1 load 0 putfield E.c
        load 1 athrow
    Lok:
        load 0 const 2 mul retv
    }
    method iterate 1 returns {
        try Ls Le Lh E
    Ls:
        load 0 invokestatic work
    Le:
        retv
    Lh:
        checkcast E getfield E.c const 100 add retv
    }";

fn program(src: &str) -> pea::bytecode::Program {
    let p = pea::bytecode::asm::parse_program(src).expect("fixture parses");
    pea::bytecode::verify_program(&p).expect("fixture verifies");
    p
}

fn traced_options(mode: JitMode) -> (VmOptions, Arc<Mutex<MemorySink>>) {
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.compile_threshold = 3;
    options.jit_mode = mode;
    options.compile_workers = Some(1);
    let (sink, mem) = SharedSink::new(MemorySink::new());
    options.trace = Some(sink);
    (options, mem)
}

/// Runs `iterate` until the VM has at least `compiled` methods installed
/// (bounded — both `iterate` and its may-throw callee compile separately,
/// since may-throw callees are never inlined), then measures a
/// steady-state window of `window` calls starting at `base`. Returns the
/// allocation count over the window. When `deopt_free` is set the window
/// must not deopt; throw-heavy fixtures skip that check, because an
/// exception unwinding out of compiled code is *recorded* as a deopt
/// (reason `exception-unwind`) without being one semantically.
fn steady_window(vm: &mut Vm, compiled: usize, base: i64, window: i64, deopt_free: bool) -> u64 {
    for round in 0..400i64 {
        vm.call_entry("iterate", &[Value::Int(base + round % 6)])
            .expect("warmup");
        // In background mode the requests sit in the worker queue; settle
        // it before checking so the loop terminates deterministically.
        vm.await_background_compiles();
        if vm.compiled_method_count() >= compiled {
            break;
        }
    }
    assert!(
        vm.compiled_method_count() >= compiled,
        "the whole call chain must reach compiled code"
    );
    // A few more calls so the window starts well inside compiled code.
    for round in 0..6i64 {
        vm.call_entry("iterate", &[Value::Int(base + round)])
            .expect("post-compile warmup");
    }
    let before = vm.stats();
    for round in 0..window {
        vm.call_entry("iterate", &[Value::Int(base + round)])
            .expect("steady state");
    }
    let d = vm.stats().delta(&before);
    if deopt_free {
        assert_eq!(d.deopts, 0, "steady-state window must be deopt-free");
    }
    d.alloc_count
}

/// The caught-locally program computes the same results everywhere and,
/// once compiled, allocates nothing: the thrown E never leaves the frame,
/// so the exception edge into the local handler is no escape at all.
#[test]
fn caught_allocation_is_fully_scalar_replaced() {
    let p = program(CAUGHT);
    for mode in [JitMode::Sync, JitMode::Background] {
        let (options, _mem) = traced_options(mode);
        let mut vm = Vm::new(p.clone(), options);
        // Result check against the source semantics first.
        for i in 0..9i64 {
            let expect = if i % 3 == 0 { i + 100 } else { i * 2 };
            assert_eq!(
                vm.call_entry("iterate", &[Value::Int(i)]).unwrap(),
                Some(Value::Int(expect)),
                "mode {mode:?}: wrong result for iterate({i})"
            );
        }
        let allocs = steady_window(&mut vm, 2, 0, 6, true);
        assert_eq!(
            allocs, 0,
            "mode {mode:?}: a locally-caught allocation must be fully \
             scalar-replaced (0 heap allocations), got {allocs}"
        );
    }
}

/// The escaping-throw variant materializes exactly at the throw: over a
/// window of six calls (two of which throw), the runtime allocates exactly
/// two objects, and the compile trace records the `thrown-escape` reason
/// for the site.
#[test]
fn escaping_throw_materializes_exactly_at_throw() {
    let p = program(ESCAPING);
    for mode in [JitMode::Sync, JitMode::Background] {
        let (options, mem) = traced_options(mode);
        let mut vm = Vm::new(p.clone(), options);
        for i in 0..9i64 {
            let expect = if i % 3 == 0 { i + 100 } else { i * 2 };
            assert_eq!(
                vm.call_entry("iterate", &[Value::Int(i)]).unwrap(),
                Some(Value::Int(expect)),
                "mode {mode:?}: wrong result for iterate({i})"
            );
        }
        let allocs = steady_window(&mut vm, 2, 0, 6, false);
        assert_eq!(
            allocs, 2,
            "mode {mode:?}: exactly the two throwing calls of the window \
             may allocate (materialize-at-throw), got {allocs}"
        );
        let reasons: Vec<MaterializeReason> = mem
            .lock()
            .unwrap()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Materialized { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert!(
            reasons.contains(&MaterializeReason::ThrownEscape),
            "mode {mode:?}: the compile trace must pin the thrown-escape \
             materialization, got {reasons:?}"
        );
    }
}

const DISPATCH: &str = "
    class A { field x int }
    class B extends A { }
    method virtual A.go 1 returns { load 0 getfield A.x const 2 mul retv }
    method virtual B.go 1 returns { load 0 getfield A.x const 3 mul retv }
    method dispatch 1 returns {
        load 0 const 10 ifcmp ge Lb
        new A goto Lset
    Lb:
        new B
    Lset:
        store 1
        load 1 load 0 putfield A.x
        load 1 invokevirtual A.go retv
    }
    method iterate 1 returns { load 0 invokestatic dispatch retv }";

/// Guard ordering pin: warming the call site monomorphically plants a
/// `DevirtGuard` on class A; the first B receiver fails the guard, and the
/// trace must show `DeoptTaken` immediately followed by the generic
/// `Deopt` for the same method — with the rematerialized receiver giving
/// the correct B result.
#[test]
fn devirt_guard_failure_orders_deopt_taken_before_deopt() {
    let p = program(DISPATCH);
    for mode in [JitMode::Sync, JitMode::Background] {
        let (mut options, mem) = traced_options(mode);
        // Enough interpreted calls before the compile for the receiver
        // profile to clear the speculation threshold.
        options.compile_threshold = 8;
        options.compiler.build.devirtualize_threshold = 4;
        let mut vm = Vm::new(p.clone(), options);
        // Monomorphic warmup: receivers are all A, results i*2.
        for round in 0..200i64 {
            let i = round % 8;
            assert_eq!(
                vm.call_entry("iterate", &[Value::Int(i)]).unwrap(),
                Some(Value::Int(i * 2)),
                "mode {mode:?}: warmup"
            );
            vm.await_background_compiles();
            if vm.compiled_method_count() >= 1 {
                break;
            }
        }
        // `dispatch` is inlined into the compiled `iterate` (it never
        // throws), so the speculated call site — and its guard — live in
        // iterate's code; dispatch itself stays interpreted-and-unused.
        assert!(
            vm.compiled_method_count() >= 1,
            "the dispatch chain must compile"
        );
        for i in 0..8i64 {
            vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
        }
        {
            let log = mem.lock().unwrap();
            let guard = log.events.iter().find_map(|e| match e {
                TraceEvent::DevirtGuard {
                    callee, classes, ..
                } => Some((callee.clone(), classes.clone())),
                _ => None,
            });
            let (callee, classes) = guard.expect("monomorphic warmup must plant a devirt guard");
            assert_eq!(callee, "A.go", "mode {mode:?}");
            assert_eq!(classes, vec!["A".to_string()], "mode {mode:?}");
            assert!(
                !log.events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::DeoptTaken { .. })),
                "mode {mode:?}: no guard failure before the first B receiver"
            );
        }
        // First polymorphic receiver: the guard fails, the frame deopts,
        // and the rematerialized B still computes 12*3.
        assert_eq!(
            vm.call_entry("iterate", &[Value::Int(12)]).unwrap(),
            Some(Value::Int(36)),
            "mode {mode:?}: guard-failure deopt must preserve the B result"
        );
        let log = mem.lock().unwrap();
        let taken: Vec<usize> = log
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                TraceEvent::DeoptTaken { .. } => Some(i),
                _ => None,
            })
            .collect();
        assert!(
            !taken.is_empty(),
            "mode {mode:?}: the failed guard must surface as DeoptTaken"
        );
        for i in &taken {
            let TraceEvent::DeoptTaken {
                method,
                site,
                bci,
                reason,
            } = &log.events[*i]
            else {
                unreachable!()
            };
            assert!(
                !site.is_empty(),
                "mode {mode:?}: DeoptTaken must name its deopt site"
            );
            match log.events.get(i + 1) {
                Some(TraceEvent::Deopt {
                    method: m,
                    site: s,
                    bci: b,
                    reason: r,
                    ..
                }) => {
                    assert_eq!(m, method, "mode {mode:?}: Deopt must follow its DeoptTaken");
                    assert_eq!(r, reason, "mode {mode:?}: reasons must match");
                    assert_eq!(s, site, "mode {mode:?}: sites must match");
                    assert_eq!(b, bci, "mode {mode:?}: bcis must match");
                }
                other => panic!(
                    "mode {mode:?}: DeoptTaken must be immediately followed \
                     by the generic Deopt, found {other:?}"
                ),
            }
        }
    }
}

/// `boom` throws on its 301st call; `f`'s handler reads local 2, which the
/// code after the call overwrites, so local 2 is dead after the call and
/// live only for the handler. `boom` is past the inliner's size limit.
fn caught_after_call() -> String {
    let pad = "load 0 const 1 add store 0 ".repeat(20);
    format!(
        "
        class E {{ field c int }}
        static n int
        method boom 1 {{
            getstatic n const 1 add putstatic n
            getstatic n const 301 ifcmp ne Lok
            new E athrow
        Lok:
            {pad}
            ret
        }}
        method f 1 returns {{
            try Lcall Lafter Lcatch *
            load 0 const 62 add store 2
            const 1 store 1
            const 9 store 3
        Lcall:
            load 1 invokestatic boom
        Lafter:
            load 3 store 2
            load 2 retv
        Lcatch:
            pop load 2 retv
        }}"
    )
}

/// A compiled call whose callee throws keeps every local a covering
/// handler reads: the call's after-state clears locals by liveness at the
/// call itself. Interpreted, compiled (linear) and under the graph oracle,
/// the 301st call is caught and returns local 2's 67.
#[test]
fn caught_call_keeps_the_locals_its_handler_reads() {
    let linear = VmOptions::with_opt_level(OptLevel::Pea);
    let graph = VmOptions {
        exec_mode: pea::vm::ExecMode::Graph,
        ..VmOptions::with_opt_level(OptLevel::Pea)
    };
    for (name, options) in [
        ("interp", VmOptions::interpreter_only()),
        ("linear", linear),
        ("graph", graph),
    ] {
        let mut vm = Vm::new(program(&caught_after_call()), options);
        for call in 1..=310 {
            let want = if call == 301 { 67 } else { 9 };
            let got = vm.call_entry("f", &[Value::Int(5)]);
            assert_eq!(got, Ok(Some(Value::Int(want))), "{name}, call {call}");
        }
        let compiled = vm.compiled_method_count();
        assert_eq!(compiled, if name == "interp" { 0 } else { 2 }, "{name}");
    }
}
