//! The call boundary: argument counts on both sides of the inline
//! argument buffer, and recursion past the call-depth limit, on every
//! tier.

use pea_bytecode::asm::parse_program;
use pea_compiler::INLINE_ARGS;
use pea_interp::SimpleEnv;
use pea_runtime::{Value, VmError, MAX_CALL_DEPTH};
use pea_vm::{ExecMode, OptLevel, Vm, VmOptions};

/// Parameter counts at, just past and well past the inline buffer.
const ARITIES: [usize; 3] = [INLINE_ARGS, INLINE_ARGS + 1, 12];

/// Pushes `Σ (i + 1) · local_i` over `locals` onto the accumulator on top
/// of the stack, so every argument position weighs differently.
fn weighted(locals: std::ops::Range<usize>) -> String {
    locals
        .map(|i| format!("load {i} const {} mul add ", i + 1))
        .collect()
}

/// The arguments `local_1 + first .. local_1 + n - 1` (local 1 is the
/// loop counter).
fn call_args(first: usize, n: usize) -> String {
    (first..n)
        .map(|j| format!("load 1 const {j} add "))
        .collect()
}

/// For each arity `n`: a static `s{n}` of `n` ints, a virtual `v{n}` of
/// a receiver and `n - 1` ints (overridden by `B`), and the loops
/// `loop_s{n}(k)` / `loop_v{n}(k)` that sum `k` calls of each, the
/// virtual one alternating `A` and `B` receivers.
fn program() -> String {
    let mut src = String::from("class A { field k int }\nclass B extends A { }\n");
    for n in ARITIES {
        let (sum, vsum) = (weighted(0..n), weighted(1..n));
        let (sargs, vargs) = (call_args(0, n), call_args(1, n));
        src += &format!(
            "method s{n} {n} returns {{ const 0 {sum}retv }}
             method virtual A.v{n} {n} returns {{ load 0 getfield A.k {vsum}retv }}
             method virtual B.v{n} {n} returns {{
                 load 0 getfield A.k {vsum}const 1000 add retv
             }}
             method loop_s{n} 1 returns {{
                 const 0 store 1 const 0 store 2
             Lhead:
                 load 1 load 0 ifcmp ge Ldone
                 load 2 {sargs}invokestatic s{n} add store 2
                 load 1 const 1 add store 1 goto Lhead
             Ldone:
                 load 2 retv
             }}
             method loop_v{n} 1 returns {{
                 const 0 store 1 const 0 store 2
             Lhead:
                 load 1 load 0 ifcmp ge Ldone
                 load 1 const 2 rem const 0 ifcmp eq La
                 new B store 3 goto Lcall
             La:
                 new A store 3
             Lcall:
                 load 3 load 1 putfield A.k
                 load 2 load 3 {vargs}invokevirtual A.v{n} add store 2
                 load 1 const 1 add store 1 goto Lhead
             Ldone:
                 load 2 retv
             }}\n"
        );
    }
    src
}

/// What `loop_{kind}{n}(k)` returns, computed on the host.
fn expected(kind: char, n: usize, k: i64) -> i64 {
    let n = n as i64;
    (0..k)
        .map(|i| {
            let ints: i64 = (0..n).map(|j| (j + 1) * (i + j)).sum();
            // The receiver's field holds `i` and weighs 1, as the first
            // int of `s` does; `B` adds 1000.
            match kind {
                's' => ints,
                _ => ints + if i % 2 == 1 { 1000 } else { 0 },
            }
        })
        .sum()
}

/// The call sequence: one long first call of each loop (the loop stays
/// interpreted while its callee compiles: interpreted → compiled calls),
/// then many short ones (the loop compiles too: compiled → compiled).
fn drive(vm: &mut Vm) -> Vec<Result<Option<Value>, VmError>> {
    let mut out = Vec::new();
    let entries: Vec<String> = ARITIES
        .iter()
        .flat_map(|n| [format!("loop_s{n}"), format!("loop_v{n}")])
        .collect();
    for entry in &entries {
        out.push(vm.call_entry(entry, &[Value::Int(120)]));
    }
    for i in 0..80 {
        for entry in &entries {
            out.push(vm.call_entry(entry, &[Value::Int(3 + i % 5)]));
        }
    }
    out
}

#[test]
fn calls_either_side_of_the_inline_buffer_agree_with_the_interpreter() {
    let program = parse_program(&program()).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let reference = drive(&mut Vm::new(program.clone(), VmOptions::interpreter_only()));
    for (i, n) in ARITIES.iter().enumerate() {
        assert_eq!(
            reference[2 * i],
            Ok(Some(Value::Int(expected('s', *n, 120)))),
            "s{n}"
        );
        assert_eq!(
            reference[2 * i + 1],
            Ok(Some(Value::Int(expected('v', *n, 120)))),
            "v{n}"
        );
    }
    for exec_mode in [ExecMode::Linear, ExecMode::Graph] {
        let mut options = VmOptions::with_opt_level(OptLevel::Pea);
        options.exec_mode = exec_mode;
        // Every call stays a call.
        options.compiler.build.inline = false;
        let mut vm = Vm::new(program.clone(), options);
        assert_eq!(drive(&mut vm), reference, "{exec_mode:?}");
        assert_eq!(
            vm.compiled_method_count(),
            program.methods.len(),
            "{exec_mode:?}: every loop and every callee ran compiled"
        );
    }
}

const RECURSE: &str = "
    method r 1 returns {
        load 0 const 0 ifcmp le Lbase
        load 0 const 1 sub invokestatic r const 1 add retv
    Lbase:
        const 0 retv
    }";

#[test]
fn deep_recursion_is_a_stack_overflow_on_every_tier() {
    let deepest = MAX_CALL_DEPTH as i64 - 1;
    let tiers = [
        ("interp", VmOptions::interpreter_only()),
        ("linear", VmOptions::with_opt_level(OptLevel::Pea)),
        (
            "graph",
            VmOptions {
                exec_mode: ExecMode::Graph,
                ..VmOptions::with_opt_level(OptLevel::Pea)
            },
        ),
    ];
    for (tier, options) in tiers {
        let jit = options.jit;
        let vm = Vm::new(parse_program(RECURSE).unwrap(), options);
        let runs = vm
            .run_threads(1, |_, m| {
                for i in 0..60 {
                    assert_eq!(
                        m.call_entry("r", &[Value::Int(i % 8)]),
                        Ok(Some(Value::Int(i % 8)))
                    );
                }
                (
                    m.compiled_method_count(),
                    m.call_entry("r", &[Value::Int(deepest)]),
                    m.call_entry("r", &[Value::Int(deepest + 1)]),
                    m.call_entry("r", &[Value::Int(5000)]),
                    m.call_entry("r", &[Value::Int(7)]),
                )
            })
            .expect("spawns the mutator threads");
        let (compiled, at_limit, one_past, past_limit, after) = &runs[0];
        assert_eq!(*compiled, usize::from(jit), "{tier}");
        assert_eq!(*at_limit, Ok(Some(Value::Int(deepest))), "{tier}");
        if !jit {
            // Compiled code inlines some of the recursion, so only the
            // interpreter spends one activation per level.
            assert_eq!(*one_past, Err(VmError::StackOverflow), "{tier}");
        }
        assert_eq!(*past_limit, Err(VmError::StackOverflow), "{tier}");
        assert_eq!(
            *after,
            Ok(Some(Value::Int(7))),
            "{tier}: the mutator recovers"
        );
    }
}

/// Interpreted activations take no host stack: `SimpleEnv` recurses to
/// the limit on the test harness's own thread.
#[test]
fn simple_env_checks_the_same_depth_limit() {
    let mut env = SimpleEnv::new(parse_program(RECURSE).unwrap());
    let depth = MAX_CALL_DEPTH as i64;
    let outcome = [depth - 1, depth, 5000, 7].map(|n| env.call("r", &[Value::Int(n)]));
    let deepest = MAX_CALL_DEPTH as i64 - 1;
    assert_eq!(
        outcome,
        [
            Ok(Some(Value::Int(deepest))),
            Err(VmError::StackOverflow),
            Err(VmError::StackOverflow),
            Ok(Some(Value::Int(7))),
        ]
    );
}

/// `RECURSE` plus two recursions that fail at the bottom: `deep_throw`
/// with an exception nothing catches, `deep_div` dividing by zero.
fn failing_recursions() -> String {
    format!(
        "{RECURSE}
        class Err {{ field code int }}
        method deep_throw 1 returns {{
            load 0 const 0 ifcmp le Lthrow
            load 0 const 1 sub invokestatic deep_throw retv
        Lthrow:
            new Err athrow
        }}
        method deep_div 1 returns {{
            load 0 const 0 ifcmp le Ldiv
            load 0 const 1 sub invokestatic deep_div retv
        Ldiv:
            const 1 const 0 div retv
        }}"
    )
}

/// Depth of the failing recursions: well inside the limit, far past any
/// compile threshold.
const FAILING_DEPTH: i64 = 300;

/// Runs each failing recursion, then recursion to the deepest admitted
/// level and one past it, through `call`.
fn failures_then_limits(
    mut call: impl FnMut(&str, i64) -> Result<Option<Value>, VmError>,
) -> Vec<Result<Option<Value>, VmError>> {
    let deepest = MAX_CALL_DEPTH as i64 - 1;
    let mut out = Vec::new();
    for failing in ["deep_throw", "deep_div"] {
        out.push(call(failing, FAILING_DEPTH));
        out.push(call("r", deepest));
        out.push(call("r", deepest + 1));
    }
    out
}

#[test]
fn depth_stays_balanced_through_errors() {
    let program = parse_program(&failing_recursions()).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let deepest = MAX_CALL_DEPTH as i64 - 1;
    let uncaught = Err(VmError::UncaughtException {
        class: "Err".into(),
        fields: vec![0],
    });
    let limits = [Ok(Some(Value::Int(deepest))), Err(VmError::StackOverflow)];
    let expected = |first: Result<Option<Value>, VmError>| {
        let mut v = vec![first];
        v.extend(limits.clone());
        v
    };
    let vm_expected: Vec<_> = [uncaught, Err(VmError::DivisionByZero)]
        .into_iter()
        .flat_map(expected)
        .collect();
    let mut pea = VmOptions::with_opt_level(OptLevel::Pea);
    // Every level stays one activation, compiled or not.
    pea.compiler.build.inline = false;
    for (tier, options) in [("interp", VmOptions::interpreter_only()), ("pea", pea)] {
        let vm = Vm::new(program.clone(), options);
        let runs = vm
            .run_threads(1, |_, m| {
                failures_then_limits(|name, n| m.call_entry(name, &[Value::Int(n)]))
            })
            .expect("spawns the mutator threads");
        assert_eq!(runs[0], vm_expected, "{tier}");
    }
    // `SimpleEnv` reports the escaping exception as the raw `Thrown`.
    let mut env = SimpleEnv::new(program);
    let outcome = failures_then_limits(|name, n| env.call(name, &[Value::Int(n)]));
    assert!(matches!(outcome[0], Err(VmError::Thrown(_))), "{outcome:?}");
    assert_eq!(outcome[1..3], limits);
    assert_eq!(outcome[3..], expected(Err(VmError::DivisionByZero))[..]);
}

/// `RECURSE` plus `f`, which compiles with `g` inlined: `f(x)` for a
/// large `x` deoptimizes inside the inlined `g`, and the resumed `f`
/// then makes `CALLS_AFTER_DEOPT` interpreted calls of `h`, a method
/// nothing called before.
fn inlined_deopt() -> String {
    format!(
        "{RECURSE}
        static sink ref
        class C {{ field v int }}
        method g 1 returns {{
            new C store 1
            load 1 load 0 putfield C.v
            load 0 const 900 ifcmp gt Lrare
            load 1 getfield C.v retv
        Lrare:
            load 1 putstatic sink
            const -1 retv
        }}
        method h 1 returns {{ load 0 const 1 add retv }}
        method f 1 returns {{
            load 0 invokestatic g store 1
            load 1 const 0 ifcmp lt Lrare
            load 1 retv
        Lrare:
            const 0 store 2
        Lhead:
            load 2 const {CALLS_AFTER_DEOPT} ifcmp ge Ldone
            load 1 invokestatic h store 1
            load 2 const 1 add store 2 goto Lhead
        Ldone:
            load 1 retv
        }}"
    )
}

/// Interpreted calls the resumed `f` makes: well below the compile
/// threshold, so `h` stays interpreted.
const CALLS_AFTER_DEOPT: i64 = 20;

/// A deopt inside an inlined callee hands the interpreter a chain of
/// two frames. Once the inner one returns, the calls the resumed outer
/// frame makes are admitted and released like any other, so the depth
/// limit stays where it was.
#[test]
fn depth_stays_balanced_after_an_inlined_deopt() {
    let program = parse_program(&inlined_deopt()).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let deepest = MAX_CALL_DEPTH as i64 - 1;
    let vm = Vm::new(program, VmOptions::with_opt_level(OptLevel::Pea));
    let runs = vm
        .run_threads(1, |_, m| {
            for i in 0..60 {
                assert_eq!(m.call_entry("f", &[Value::Int(i)]), Ok(Some(Value::Int(i))));
            }
            let before = m.stats();
            let mut out = Vec::new();
            for _ in 0..3 {
                out.push(m.call_entry("f", &[Value::Int(2000)]));
                out.push(m.call_entry("r", &[Value::Int(deepest)]));
                out.push(m.call_entry("r", &[Value::Int(5000)]));
            }
            (m.stats().delta(&before).deopts, out)
        })
        .expect("spawns the mutator threads");
    let (deopts, out) = &runs[0];
    assert!(*deopts >= 1, "f never deoptimized");
    let expected = [
        Ok(Some(Value::Int(CALLS_AFTER_DEOPT - 1))),
        Ok(Some(Value::Int(deepest))),
        Err(VmError::StackOverflow),
    ];
    for round in out.chunks(3) {
        assert_eq!(round, expected);
    }
}

/// Compiled→compiled calls run in the linear tier's own loop, so they
/// take no host stack: once `r` is compiled (at a shallow depth, on the
/// test's thread), recursion to the depth limit fits a 1 MiB thread in a
/// debug build — where each compiled activation taking a host level
/// needed about 11 MiB — and recursion past it is a `StackOverflow` the
/// mutator recovers from.
#[test]
fn compiled_recursion_takes_no_host_stack() {
    let mut vm = Vm::new(
        parse_program(RECURSE).unwrap(),
        VmOptions::with_opt_level(OptLevel::Pea),
    );
    for i in 0..60 {
        assert_eq!(
            vm.call_entry("r", &[Value::Int(i % 8)]),
            Ok(Some(Value::Int(i % 8)))
        );
    }
    let r = vm.program().static_method_by_name("r").unwrap();
    assert!(vm.compiled(r).is_some(), "r runs on the linear tier");
    let deepest = MAX_CALL_DEPTH as i64 - 1;
    let outcome = std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || [deepest, 5000, 7].map(|n| vm.call_entry("r", &[Value::Int(n)])))
        .expect("spawns the small thread")
        .join()
        .expect("the recursion fits the small thread");
    assert_eq!(
        outcome,
        [
            Ok(Some(Value::Int(deepest))),
            Err(VmError::StackOverflow),
            Ok(Some(Value::Int(7))),
        ]
    );
}

/// `calls(n)` sums `add3(i, i, 1)` over `i < n` and returns the sum through
/// `clamp`, which was compiled while every sum stayed small: a large sum
/// makes it deoptimize.
const CALLS_THEN_CLAMP: &str = "
    method add3 3 returns { load 0 load 1 add load 2 add retv }
    method clamp 1 returns {
        load 0 const 1000 ifcmp gt Lbig
        load 0 retv
    Lbig:
        const 1000 retv
    }
    method calls 1 returns {
        const 0 store 1 const 0 store 2
    Lhead:
        load 1 load 0 ifcmp ge Ldone
        load 2 load 1 load 1 const 1 invokestatic add3 add store 2
        load 1 const 1 add store 1 goto Lhead
    Ldone:
        load 2 invokestatic clamp retv
    }";

/// What a run of `calls(40)` came to: its outcome and the VM's statistics.
type Run = (Result<Option<Value>, VmError>, pea_runtime::Stats);

/// Warms every method of `CALLS_THEN_CLAMP` onto `exec_mode`, then runs
/// `calls(40)` — forty compiled→compiled calls, then a compiled callee
/// that deoptimizes — with `fuel` cycles left after the warm-up's `warm`,
/// if any. The run and the warm-up's cycles.
fn fueled(exec_mode: ExecMode, warm: u64, fuel: Option<u64>) -> (Run, u64) {
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.exec_mode = exec_mode;
    options.compiler.build.inline = false;
    options.fuel = fuel.map(|f| warm + f);
    let mut vm = Vm::new(parse_program(CALLS_THEN_CLAMP).unwrap(), options);
    for _ in 0..60 {
        assert_eq!(
            vm.call_entry("calls", &[Value::Int(3)]),
            Ok(Some(Value::Int(9)))
        );
    }
    assert_eq!(vm.compiled_method_count(), 3, "{exec_mode:?}: all compiled");
    let warmed = vm.stats().cycles;
    let outcome = vm.call_entry("calls", &[Value::Int(40)]);
    ((outcome, vm.stats()), warmed)
}

/// With a fuel limit every charge is exact, and the linear tier's in-loop
/// calls must run out of fuel exactly where the graph oracle, which calls
/// through the VM, does: at every budget from the run's entry through the
/// first call's charge and its callee's first operation, and at budgets
/// spread over the remaining calls and the callee's deoptimization.
#[test]
fn compiled_calls_run_out_of_fuel_where_the_oracle_does() {
    let (reference, warm) = fueled(ExecMode::Linear, 0, None);
    assert_eq!(reference.0, Ok(Some(Value::Int(1000))));
    assert_eq!(fueled(ExecMode::Graph, 0, None), (reference.clone(), warm));
    assert!(reference.1.deopts >= 1, "clamp deoptimized");
    let total = reference.1.cycles - warm;
    // The entry's charge, the loop's first turn and the first call, with
    // its callee's first operation, come within the first 120 cycles.
    let budgets = (0..120).chain((120..total + 8).step_by(53));
    let mut out_of_fuel = 0;
    for fuel in budgets {
        let linear = fueled(ExecMode::Linear, warm, Some(fuel));
        let graph = fueled(ExecMode::Graph, warm, Some(fuel));
        assert_eq!(linear, graph, "budget {fuel}");
        assert_eq!(linear.1, warm, "budget {fuel}: the warm-up ran in full");
        if linear.0 .0 == Err(VmError::OutOfFuel) {
            out_of_fuel += 1;
        } else {
            assert_eq!(linear.0, reference, "budget {fuel}");
        }
    }
    assert!(out_of_fuel > 120, "most budgets run out");
}
