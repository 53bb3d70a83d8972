//! Compile-and-evaluate integration tests: the full pipeline at each
//! optimization level, executed by the evaluator, including
//! deoptimization with virtual-object rematerialization — and the linear
//! tier's lowered control flow, which must charge as the evaluator does
//! at every fuel budget.

use pea_bytecode::asm::parse_program;
use pea_bytecode::{MethodId, Program};
use pea_compiler::linear::execute;
use pea_compiler::{
    compile, evaluate, CompiledMethod, CompilerOptions, DeoptFrame, EvalEnv, EvalOutcome, OptLevel,
};
use pea_runtime::profile::ProfileStore;
use pea_runtime::{Heap, Statics, Value, VmError};

struct TestEnv {
    heap: Heap,
    statics: Statics,
    /// Cycle budget; `None` is unlimited.
    fuel: Option<u64>,
}

impl TestEnv {
    fn new(program: &Program) -> Self {
        TestEnv {
            heap: Heap::new(),
            statics: Statics::new(&program.statics),
            fuel: None,
        }
    }
}

impl EvalEnv for TestEnv {
    fn heap(&mut self) -> &mut Heap {
        &mut self.heap
    }
    fn statics(&mut self) -> &mut Statics {
        &mut self.statics
    }
    fn charge(&mut self, cycles: u64) -> Result<(), VmError> {
        let spent = self.heap.stats.cycles + cycles;
        if self.fuel.is_some_and(|fuel| spent > fuel) {
            return Err(VmError::OutOfFuel);
        }
        self.heap.stats.cycles = spent;
        Ok(())
    }
    fn invoke(
        &mut self,
        _program: &Program,
        _method: MethodId,
        _args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        panic!("test programs are fully inlined");
    }
    fn has_fuel_limit(&self) -> bool {
        self.fuel.is_some()
    }
}

fn run(
    src: &str,
    entry: &str,
    level: OptLevel,
    args: &[Value],
) -> (Result<EvalOutcome, VmError>, TestEnv) {
    let program = parse_program(src).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let method = program.static_method_by_name(entry).unwrap();
    let code = compile(
        &program,
        method,
        None,
        &CompilerOptions::with_opt_level(level),
    )
    .unwrap();
    let mut env = TestEnv::new(&program);
    let out = evaluate(&program, &mut env, &code, args);
    (out, env)
}

const CACHE_SRC: &str = "
    class Key {
        field idx int
        field ref ref
    }
    static cacheKey ref
    static cacheValue ref
    method virtual Key.equals 2 returns synchronized {
        load 1 ifnull Lfalse
        load 0 getfield Key.idx
        load 1 getfield Key.idx
        ifcmp ne Lfalse
        load 0 getfield Key.ref
        load 1 getfield Key.ref
        ifrefne Lfalse
        const 1 retv
    Lfalse:
        const 0 retv
    }
    method getValue 2 returns {
        new Key store 2
        load 2 load 0 putfield Key.idx
        load 2 load 1 putfield Key.ref
        load 2 getstatic cacheKey checkcast Key invokevirtual Key.equals
        const 0 ifcmp eq Lmiss
        getstatic cacheValue retv
    Lmiss:
        load 2 putstatic cacheKey
        const 77 putstatic cacheValue
        getstatic cacheValue retv
    }";

#[test]
fn arithmetic_all_levels_agree() {
    for level in [OptLevel::None, OptLevel::Ees, OptLevel::Pea] {
        let (out, _) = run(
            "method f 2 returns { load 0 load 1 add const 3 mul retv }",
            "f",
            level,
            &[Value::Int(4), Value::Int(6)],
        );
        assert_eq!(out.unwrap(), EvalOutcome::Return(Some(Value::Int(30))));
    }
}

#[test]
fn loops_execute_correctly() {
    let src = "method f 1 returns {
        const 0 store 1
        const 0 store 2
    Lhead:
        load 2 load 0 ifcmp ge Ldone
        load 1 load 2 add store 1
        load 2 const 1 add store 2
        goto Lhead
    Ldone:
        load 1 retv
    }";
    for level in [OptLevel::None, OptLevel::Pea] {
        let (out, _) = run(src, "f", level, &[Value::Int(10)]);
        assert_eq!(out.unwrap(), EvalOutcome::Return(Some(Value::Int(45))));
    }
}

#[test]
fn cache_miss_allocates_once_under_pea() {
    // First call: cacheKey is null → equals inlined returns false → miss
    // branch stores the key. PEA must keep exactly one allocation (the
    // materialization on the miss path).
    let (out, env) = run(
        CACHE_SRC,
        "getValue",
        OptLevel::Pea,
        &[Value::Int(1), Value::Null],
    );
    assert_eq!(out.unwrap(), EvalOutcome::Return(Some(Value::Int(77))));
    assert_eq!(env.heap.stats.alloc_count, 1, "materialized on miss path");
    assert_eq!(
        env.heap.stats.monitor_ops(),
        0,
        "synchronized equals was elided on the virtual key"
    );
}

#[test]
fn cache_miss_without_pea_allocates_and_locks() {
    let (out, env) = run(
        CACHE_SRC,
        "getValue",
        OptLevel::None,
        &[Value::Int(1), Value::Null],
    );
    assert_eq!(out.unwrap(), EvalOutcome::Return(Some(Value::Int(77))));
    assert_eq!(env.heap.stats.alloc_count, 1);
    assert_eq!(env.heap.stats.monitor_ops(), 2, "enter + exit");
}

#[test]
fn pea_is_cheaper_in_cycles_on_hit_path() {
    // Pre-seed the cache so the hot path is a hit: run twice, compare
    // second-call cycles between levels.
    let program = parse_program(CACHE_SRC).unwrap();
    let method = program.static_method_by_name("getValue").unwrap();
    let mut cycles = Vec::new();
    for level in [OptLevel::None, OptLevel::Pea] {
        let code = compile(
            &program,
            method,
            None,
            &CompilerOptions::with_opt_level(level),
        )
        .unwrap();
        let mut env = TestEnv::new(&program);
        // miss (seeds cache), then hit
        evaluate(&program, &mut env, &code, &[Value::Int(1), Value::Null]).unwrap();
        let before = env.heap.stats;
        let out = evaluate(&program, &mut env, &code, &[Value::Int(1), Value::Null]).unwrap();
        assert_eq!(out, EvalOutcome::Return(Some(Value::Int(77))));
        let delta = env.heap.stats.delta(&before);
        match level {
            OptLevel::Pea => assert_eq!(delta.alloc_count, 0, "PEA hit path allocates nothing"),
            _ => assert_eq!(delta.alloc_count, 1, "unoptimized always allocates the key"),
        }
        cycles.push(delta.cycles);
    }
    assert!(
        cycles[1] < cycles[0],
        "PEA hit path must be cheaper: none={} pea={}",
        cycles[0],
        cycles[1]
    );
}

#[test]
fn guard_deopt_reconstructs_frames_with_rematerialized_object() {
    // Profile says the rare branch is never taken; compile speculatively,
    // then trigger it. The frame state references the virtual Box, which
    // must be rematerialized with its current field value.
    let src = "
        class Box { field v int }
        static g ref
        method f 1 returns {
            new Box store 1
            load 1 load 0 putfield Box.v
            load 0 const 100 ifcmp gt Lrare
            load 1 getfield Box.v const 1 add retv
        Lrare:
            load 1 putstatic g
            const -1 retv
        }";
    let program = parse_program(src).unwrap();
    let method = program.static_method_by_name("f").unwrap();
    let mut profiles = ProfileStore::new();
    // The `ifcmp gt` sits at bci 7 (new, store, load, load, putfield,
    // load, const, ifcmp).
    for _ in 0..100 {
        profiles.record_branch(method, 7, false);
    }
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    let code = compile(&program, method, Some(&profiles), &options).unwrap();

    // Fast path: no allocation at all.
    let mut env = TestEnv::new(&program);
    let out = evaluate(&program, &mut env, &code, &[Value::Int(5)]).unwrap();
    assert_eq!(out, EvalOutcome::Return(Some(Value::Int(6))));
    assert_eq!(env.heap.stats.alloc_count, 0, "fully scalar-replaced");

    // Rare path: guard fails → deopt with a rematerialized Box.
    let mut env = TestEnv::new(&program);
    let out = evaluate(&program, &mut env, &code, &[Value::Int(500)]).unwrap();
    let EvalOutcome::Deopt { frames, .. } = out else {
        panic!("expected deopt, got {out:?}");
    };
    assert_eq!(frames.len(), 1);
    let DeoptFrame {
        method: m, locals, ..
    } = &frames[0];
    assert_eq!(*m, method);
    assert_eq!(env.heap.stats.rematerialized, 1);
    // local 1 is the rematerialized box with v = 500.
    let obj = locals[1].as_ref().expect("box reference");
    let field = program
        .field_by_name(program.class_by_name("Box").unwrap(), "v")
        .unwrap();
    assert_eq!(
        env.heap.get_field(&program, obj, field).unwrap(),
        Value::Int(500)
    );
    // local 0 is the argument.
    assert_eq!(locals[0], Value::Int(500));
}

#[test]
fn runtime_errors_match_interpreter_semantics() {
    let (out, _) = run(
        "method f 1 returns { load 0 const 0 div retv }",
        "f",
        OptLevel::Pea,
        &[Value::Int(5)],
    );
    assert_eq!(out.unwrap_err(), VmError::DivisionByZero);

    let (out, _) = run(
        "class Box { field v int }
         method f 0 returns { cnull getfield Box.v retv }",
        "f",
        OptLevel::Pea,
        &[],
    );
    assert_eq!(out.unwrap_err(), VmError::NullPointer);

    let (out, _) = run(
        "method f 0 returns { const 9 throw }",
        "f",
        OptLevel::None,
        &[],
    );
    assert_eq!(out.unwrap_err(), VmError::UserException(9));
}

#[test]
fn arrays_round_trip_compiled() {
    let src = "method f 1 returns {
        const 4 newarray int store 1
        load 1 const 2 load 0 astore
        load 1 const 2 aload
        load 1 arraylen
        add retv
    }";
    for level in [OptLevel::None, OptLevel::Pea] {
        let (out, env) = run(src, "f", level, &[Value::Int(5)]);
        assert_eq!(out.unwrap(), EvalOutcome::Return(Some(Value::Int(9))));
        if level == OptLevel::Pea {
            assert_eq!(
                env.heap.stats.alloc_count, 0,
                "constant-length array fully virtualized"
            );
        }
    }
}

/// `loop` is the `compute_ballast` shape: a counted loop of arithmetic.
/// In `fixed` a static store sits between the compare and its branch.
const DISPATCH_SRC: &str = "
    static g int
    method loop 1 returns {
        load 0 store 1
        const 0 store 2
    Lhead:
        load 2 const 20 ifcmp ge Ldone
        load 1 load 2 xor load 2 add store 1
        load 1 const 13 mul load 1 add store 1
        load 2 const 1 add store 2
        goto Lhead
    Ldone:
        load 1 retv
    }
    method fixed 1 returns {
        const 5 putstatic g
        load 0 const 0 ifcmp lt Lneg
        const 1 retv
    Lneg:
        const 2 retv
    }";

fn compiled(program: &Program, name: &str) -> CompiledMethod {
    let method = program.static_method_by_name(name).unwrap();
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    compile(program, method, None, &options).unwrap()
}

fn disassembly(name: &str) -> String {
    let program = parse_program(DISPATCH_SRC).unwrap();
    let code = compiled(&program, name);
    code.linear.as_ref().unwrap().disassemble()
}

/// Each edge into a merge is one instruction carrying its phi moves, and
/// a compare read only by the branch after it is fused into that branch.
#[test]
fn a_loop_lowers_to_arithmetic_one_fused_branch_and_one_back_edge() {
    let dis = disassembly("loop");
    let body: Vec<&str> = dis
        .lines()
        .map(|l| l.split_once(": ").unwrap().1)
        .skip_while(|l| !l.starts_with("edge"))
        .collect();
    let ops: Vec<&str> = body
        .iter()
        .map(|l| l.split([' ', '[']).next().unwrap())
        .collect();
    assert_eq!(
        ops,
        ["edge", "xor", "add", "mul", "add", "add", "ifcmp", "backedge", "ret"],
        "{dis}"
    );
    let back_edge = body[7];
    assert!(
        back_edge.starts_with("backedge (safepoint) -> ") && back_edge.ends_with(']'),
        "the back edge carries the loop phis' moves: {back_edge}"
    );
}

#[test]
fn a_compare_behind_a_fixed_node_is_not_fused() {
    let dis = disassembly("fixed");
    assert!(dis.contains("cmp[2] "), "{dis}");
    assert!(dis.contains(": if r"), "{dis}");
    assert!(!dis.contains("ifcmp"), "{dis}");
}

/// Runs `code` on the linear tier or the evaluator with an optional fuel
/// budget: the outcome and the cycles charged until it.
fn run_tier(
    program: &Program,
    code: &CompiledMethod,
    linear: bool,
    arg: i64,
    fuel: Option<u64>,
) -> (String, u64) {
    let mut env = TestEnv::new(program);
    env.fuel = fuel;
    let args = [Value::Int(arg)];
    let out = if linear {
        execute(program, &mut env, code, &args)
    } else {
        evaluate(program, &mut env, code, &args)
    };
    (format!("{out:?}"), env.heap.stats.cycles)
}

/// Fusing a compare into its branch moves its charge past the floating
/// nodes between them; every partial cycle sum must stay put.
#[test]
fn fuel_runs_out_at_the_same_charge_on_both_tiers() {
    let program = parse_program(DISPATCH_SRC).unwrap();
    for (name, arg) in [("loop", 3), ("fixed", -4), ("fixed", 4)] {
        let code = compiled(&program, name);
        let full = run_tier(&program, &code, true, arg, None);
        assert_eq!(full, run_tier(&program, &code, false, arg, None), "{name}");
        for fuel in 0..=full.1 {
            assert_eq!(
                run_tier(&program, &code, true, arg, Some(fuel)),
                run_tier(&program, &code, false, arg, Some(fuel)),
                "{name}({arg}) with fuel {fuel}"
            );
        }
    }
}
