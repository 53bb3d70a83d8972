//! Compile-and-evaluate integration tests: the full pipeline at each
//! optimization level, executed by the evaluator, including
//! deoptimization with virtual-object rematerialization — and the linear
//! tier's lowered control flow, which must charge as the evaluator does
//! at every fuel budget.

use pea_bytecode::asm::parse_program;
use pea_bytecode::{Insn, MethodId, Program, StaticId};
use pea_compiler::linear::{execute, CommitFieldSrc, LinearCommitObj};
use pea_compiler::{
    compile, evaluate, CompiledMethod, CompilerOptions, EvalEnv, EvalOutcome, OptLevel,
};
use pea_ir::AllocShape;
use pea_runtime::profile::ProfileStore;
use pea_runtime::{Heap, Statics, Stats, Value, VmError};

mod support;

struct TestEnv {
    heap: Heap,
    statics: Statics,
    /// Cycle budget; `None` is unlimited.
    fuel: Option<u64>,
    /// The call, counted from 0, that throws a fresh `Boom` instead of
    /// returning; `None` is none.
    throw_at: Option<usize>,
    calls: usize,
}

impl TestEnv {
    fn new(program: &Program) -> Self {
        TestEnv {
            heap: Heap::new(),
            statics: Statics::new(&program.statics),
            fuel: None,
            throw_at: None,
            calls: 0,
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
        program: &Program,
        method: MethodId,
        _args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        assert_eq!(
            program.method(method).code,
            [Insn::Return],
            "test programs inline every call but those to a method that does nothing"
        );
        self.calls += 1;
        if self.throw_at == Some(self.calls - 1) {
            let boom = program
                .class_by_name("Boom")
                .expect("a program that throws has Boom");
            return Err(VmError::Thrown(
                self.heap.try_alloc_instance(program, boom)?,
            ));
        }
        Ok(None)
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
    assert_eq!(frames.iter().len(), 1);
    let (frame, locals, _) = frames.iter().next().unwrap();
    assert_eq!(frame.method, method);
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
/// In `fixed` a static store sits between the compare's inputs and its
/// branch.
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

/// Each edge into a merge is one instruction carrying its phi moves, a
/// compare read only by the branch after it is fused into that branch,
/// and the constant operands of the compare and the arithmetic are read
/// from the pool. The loop's only `const` is the phis' initial 0. The
/// body is placed late, after the exit test, and computes each phi's next
/// value into the phi's own register, so the back edge carries no move.
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
        ["edge", "ifcmpi", "xor", "add", "muli", "add", "addi", "backedge", "ret"],
        "{dis}"
    );
    assert_eq!(dis.matches("const ").count(), 1, "{dis}");
    assert!(dis.contains("muli r6 <- r5, 13\n"), "{dis}");
    assert!(dis.contains("addi r1 <- r1, 1\n"), "{dis}");
    let back_edge = body[7];
    assert!(
        back_edge.starts_with("backedge (safepoint) -> ") && !back_edge.contains('['),
        "the back edge carries no move: {back_edge}"
    );
}

/// The scheduler sinks a compare its branch alone reads past the fixed
/// nodes before that branch, and the two fuse.
#[test]
fn a_compare_behind_a_fixed_node_sinks_past_it_and_fuses() {
    let dis = disassembly("fixed");
    let ops: Vec<&str> = dis
        .lines()
        .map(|l| l.split_once(": ").unwrap().1)
        .filter(|l| !l.starts_with("const"))
        .collect();
    assert!(ops[0].starts_with("putstatic"), "{dis}");
    assert!(ops[1].starts_with("ifcmpi[2] r0, 0 then"), "{dis}");
    assert!(!dis.contains("cmp["), "{dis}");
}

/// Runs `code` on the linear tier or the evaluator with an optional fuel
/// budget: the outcome and the heap's counts until it, cycles among them.
fn run_tier(
    program: &Program,
    code: &CompiledMethod,
    linear: bool,
    args: &[Value],
    fuel: Option<u64>,
) -> (String, Stats) {
    run_throwing(program, code, linear, args, fuel, None)
}

/// [`run_tier`] where call `throw_at` throws ([`TestEnv::throw_at`]).
fn run_throwing(
    program: &Program,
    code: &CompiledMethod,
    linear: bool,
    args: &[Value],
    fuel: Option<u64>,
    throw_at: Option<usize>,
) -> (String, Stats) {
    let mut env = TestEnv::new(program);
    env.fuel = fuel;
    env.throw_at = throw_at;
    let out = if linear {
        execute(program, &mut env, code, args)
    } else {
        evaluate(program, &mut env, code, args)
    };
    (format!("{out:?}"), env.heap.stats)
}

/// Both tiers end `code` on `args` the same way with the same counts, and
/// run out of fuel at the same charge for every budget below its total.
fn tiers_agree_at_every_fuel_budget(program: &Program, code: &CompiledMethod, args: &[Value]) {
    tiers_agree_when_call_throws(program, code, args, None);
}

/// [`tiers_agree_at_every_fuel_budget`] where call `throw_at` throws.
fn tiers_agree_when_call_throws(
    program: &Program,
    code: &CompiledMethod,
    args: &[Value],
    throw_at: Option<usize>,
) {
    let run = |linear, fuel| run_throwing(program, code, linear, args, fuel, throw_at);
    let full = run(true, None);
    assert_eq!(full, run(false, None), "{args:?}");
    for fuel in 0..=full.1.cycles {
        assert_eq!(
            run(true, Some(fuel)),
            run(false, Some(fuel)),
            "{args:?} with fuel {fuel}"
        );
    }
}

/// Fusing a compare into its branch moves its charge past the floating
/// nodes between them; every partial cycle sum must stay put.
#[test]
fn fuel_runs_out_at_the_same_charge_on_both_tiers() {
    let program = parse_program(DISPATCH_SRC).unwrap();
    for (name, arg) in [("loop", 3), ("fixed", -4), ("fixed", 4)] {
        let code = compiled(&program, name);
        tiers_agree_at_every_fuel_budget(&program, &code, &[Value::Int(arg)]);
    }
}

/// `phase_shift`'s `step`: a virtual accumulator, then a chain of compares
/// against constants whose arms the profile never saw entered, so each
/// compare feeds only a guard.
const STEP_SRC: &str = "
    class Acc { field a int field b int }
    method step 2 returns {
        new Acc store 2
        load 2 load 1 putfield Acc.a
        load 2 load 1 const 3 mul putfield Acc.b
        load 0 const 0 ifcmp ne Larm0
        load 1 const 11 mul store 3
        goto Ljoin
    Larm0:
        load 0 const 1 ifcmp ne Larm1
        load 1 const 13 mul const 1 add store 3
        goto Ljoin
    Larm1:
        load 0 const 2 ifcmp ne Larm2
        load 1 const 15 mul const 2 add store 3
        goto Ljoin
    Larm2:
        load 0 const 3 ifcmp ne Larm3
        load 1 const 17 mul const 3 add store 3
        goto Ljoin
    Larm3:
        load 1 store 3
    Ljoin:
        load 2 getfield Acc.a load 2 getfield Acc.b add load 3 add retv
    }";

/// `method` of `program` compiled at `pea` from a profile in which every
/// `ifcmp` jumps (`taken`) or never does.
fn speculated(program: &Program, method: MethodId, taken: bool) -> CompiledMethod {
    let mut profiles = ProfileStore::new();
    for (bci, insn) in program.method(method).code.iter().enumerate() {
        if let Insn::IfCmp(..) = insn {
            for _ in 0..100 {
                profiles.record_branch(method, bci as u32, taken);
            }
        }
    }
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    compile(program, method, Some(&profiles), &options).unwrap()
}

/// Every compare of the chain fuses into its guard, and a selector that
/// fails the `k`-th guard deoptimizes there with the accumulator
/// rematerialized: both tiers agree on the outcome, the counts and the
/// cycles at every fuel budget.
#[test]
fn a_compare_guard_chain_deoptimizes_alike_at_each_guard() {
    let program = parse_program(STEP_SRC).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let method = program.static_method_by_name("step").unwrap();
    let code = speculated(&program, method, true);
    let dis = code.linear.as_ref().unwrap().disassemble();
    assert_eq!(dis.matches("guardcmpi[").count(), 4, "{dis}");
    assert!(!dis.contains("cmp["), "{dis}");
    assert!(!dis.contains("const "), "{dis}");
    for selector in 0..4 {
        let args = [Value::Int(selector), Value::Int(5)];
        let (out, stats) = run_tier(&program, &code, true, &args, None);
        assert!(out.starts_with("Ok(Deopt"), "{selector}: {out}");
        assert_eq!(stats.rematerialized, 1, "{selector}: the accumulator");
        tiers_agree_at_every_fuel_budget(&program, &code, &args);
    }
    let args = [Value::Int(9), Value::Int(5)];
    let (out, _) = run_tier(&program, &code, true, &args, None);
    assert_eq!(out, "Ok(Return(Some(Int(25))))");
    tiers_agree_at_every_fuel_budget(&program, &code, &args);
}

/// Whichever arm of `step` the profile makes hot, its multiplications
/// and additions read their constants from the pool, the compares fuse
/// into guards that do too, and the method has no `const` at all.
#[test]
fn a_step_with_any_hot_arm_lowers_without_a_const() {
    let program = parse_program(STEP_SRC).unwrap();
    let method = program.static_method_by_name("step").unwrap();
    for hot in 0..=4 {
        let code = speculated_arm(&program, method, hot);
        let dis = code.linear.as_ref().unwrap().disassemble();
        assert!(!dis.contains("const "), "arm {hot}: {dis}");
        assert!(dis.contains("muli "), "arm {hot}: {dis}");
        let selector = i64::try_from(hot).unwrap();
        for args in [
            [Value::Int(selector), Value::Int(5)],
            [Value::Int(9), Value::Int(-3)],
        ] {
            tiers_agree_at_every_fuel_budget(&program, &code, &args);
        }
    }
}

/// `method` of `program` compiled at `pea` from a profile in which the
/// first `hot` `ifcmp`s jump and the others never do: the arm `hot` of a
/// compare chain is the one entered.
fn speculated_arm(program: &Program, method: MethodId, hot: usize) -> CompiledMethod {
    let mut profiles = ProfileStore::new();
    let compares = program.method(method).code.iter().enumerate();
    let compares = compares.filter(|(_, insn)| matches!(insn, Insn::IfCmp(..)));
    for (k, (bci, _)) in compares.enumerate() {
        for _ in 0..100 {
            profiles.record_branch(method, bci as u32, k < hot);
        }
    }
    let options = CompilerOptions::with_opt_level(OptLevel::Pea);
    compile(program, method, Some(&profiles), &options).unwrap()
}

/// Arguments the arithmetic tests run on: the extremes and the values
/// next to 0.
const EDGE_ARGS: [i64; 7] = [0, 1, -1, 7, -13, i64::MIN, i64::MAX];

/// Binary arithmetic opcodes and whether they swap a constant left
/// operand to the right.
const ARITH: [(&str, bool); 10] = [
    ("add", true),
    ("sub", false),
    ("mul", true),
    ("div", false),
    ("rem", false),
    ("and", true),
    ("or", true),
    ("xor", true),
    ("shl", false),
    ("shr", false),
];

/// Compiles `method f 1 returns { <body> retv }` at `pea` and checks that
/// both tiers agree on it at every fuel budget for every [`EDGE_ARGS`]
/// value; returns the disassembly.
fn arith_agrees(body: &str) -> String {
    let program = parse_program(&format!("method f 1 returns {{ {body} retv }}")).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let code = compiled(&program, "f");
    for x in EDGE_ARGS {
        tiers_agree_at_every_fuel_budget(&program, &code, &[Value::Int(x)]);
    }
    code.linear.as_ref().unwrap().disassemble()
}

/// Every binary operation reads a constant right operand from the pool.
/// A constant left operand swaps to the right where the operation
/// commutes; elsewhere it keeps its register and its `const`. Both tiers
/// agree at every fuel budget, on operands that wrap, trap and shift out.
#[test]
fn each_immediate_opcode_agrees_with_the_evaluator() {
    for (op, swaps) in ARITH {
        for c in [13, -1, 0, 63, 64] {
            let dis = arith_agrees(&format!("load 0 const {c} {op}"));
            assert!(dis.contains(&format!("{op}i r1 <- r0, {c}\n")), "{dis}");
            assert!(!dis.contains("const "), "{dis}");

            let dis = arith_agrees(&format!("const {c} load 0 {op}"));
            if swaps {
                assert!(dis.contains(&format!("{op}i r1 <- r0, {c}\n")), "{dis}");
                assert!(!dis.contains("const "), "{dis}");
            } else {
                assert!(dis.contains(&format!("const r1 <- {c}\n")), "{dis}");
                assert!(dis.contains(&format!("{op} r2 <- r1, r0\n")), "{dis}");
            }
        }
    }
}

/// A division or remainder by a constant 0 traps after the operation's
/// charge, as graph evaluation does; `i64::MIN / -1` wraps and
/// `i64::MIN % -1` is 0; shifts take their count modulo 64.
#[test]
fn immediate_traps_wraps_and_shifts_match_the_evaluator() {
    let program = |body: &str| parse_program(&format!("method f 1 returns {{ {body} retv }}"));
    let outcome = |body: &str, x: i64| {
        let program = program(body).unwrap();
        let code = compiled(&program, "f");
        let linear = run_tier(&program, &code, true, &[Value::Int(x)], None);
        assert_eq!(
            linear,
            run_tier(&program, &code, false, &[Value::Int(x)], None)
        );
        linear.0
    };
    for op in ["div", "rem"] {
        arith_agrees(&format!("load 0 const 0 {op}"));
        assert_eq!(
            outcome(&format!("load 0 const 0 {op}"), 5),
            "Err(DivisionByZero)"
        );
        // Both operands the same constant node: one register, one pool
        // entry.
        let dis = arith_agrees(&format!("const 0 const 0 {op}"));
        assert!(dis.contains(&format!("{op}i r2 <- r1, 0\n")), "{dis}");
        assert_eq!(
            outcome(&format!("const 0 const 0 {op}"), 5),
            "Err(DivisionByZero)"
        );
    }
    let min = i64::MIN;
    assert_eq!(
        outcome("load 0 const -1 div", min),
        format!("Ok(Return(Some(Int({min}))))")
    );
    assert_eq!(
        outcome("load 0 const -1 rem", min),
        "Ok(Return(Some(Int(0))))"
    );
    for (shift, expect) in [
        ("load 0 const 63 shl", min),
        ("load 0 const 64 shl", 1),
        ("load 0 const -1 shl", min),
        ("load 0 const 63 shr", 0),
        ("load 0 const 64 shr", 1),
        ("load 0 const -1 shr", 0),
    ] {
        assert_eq!(
            outcome(shift, 1),
            format!("Ok(Return(Some(Int({expect}))))"),
            "{shift}"
        );
    }
}

/// A constant that arithmetic reads from the pool and a store or a phi
/// reads from a register keeps exactly one `const`.
#[test]
fn a_constant_also_read_from_a_register_keeps_one_const() {
    let src = "
        static g int
        method stored 1 returns {
            const 9 putstatic g
            load 0 const 9 add retv
        }
        method phi 1 returns {
            const 5 store 1
        Lhead:
            load 1 load 0 ifcmp ge Ldone
            load 1 const 5 add store 1
            goto Lhead
        Ldone:
            load 1 retv
        }";
    let program = parse_program(src).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    for (name, c) in [("stored", 9), ("phi", 5)] {
        let code = compiled(&program, name);
        let dis = code.linear.as_ref().unwrap().disassemble();
        assert_eq!(dis.matches("const r").count(), 1, "{name}: {dis}");
        assert!(dis.contains(&format!(", {c}\n")), "{name}: {dis}");
        assert!(dis.contains("addi "), "{name}: {dis}");
        for x in [-2, 0, 23] {
            tiers_agree_at_every_fuel_budget(&program, &code, &[Value::Int(x)]);
        }
    }
}

/// `seven` reads its constant only in a fused compare, a frame state's
/// local and a virtual object's field; `eight` also adds it.
const CONST_SRC: &str = "
    class Box { field v int }
    static g ref
    method seven 1 returns {
        const 7 store 1
        new Box store 2
        load 2 const 7 putfield Box.v
        load 0 const 7 ifcmp gt Lrare
        load 0 retv
    Lrare:
        load 2 putstatic g
        load 1 retv
    }
    method eight 1 returns {
        const 7 store 1
        new Box store 2
        load 2 const 7 putfield Box.v
        load 0 const 7 ifcmp gt Lrare
        load 0 const 7 add retv
    Lrare:
        load 2 putstatic g
        load 1 retv
    }";

/// A constant no instruction reads from a register gets none and no
/// `const`, also when arithmetic reads it; the deopt metadata carries it,
/// and a deopt rebuilds it.
#[test]
fn a_constant_only_bound_readers_read_costs_no_instruction() {
    let program = parse_program(CONST_SRC).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let seven = program.static_method_by_name("seven").unwrap();
    let code = speculated(&program, seven, false);
    let dis = code.linear.as_ref().unwrap().disassemble();
    assert!(dis.contains("guardcmpi[4] r0, 7 "), "{dis}");
    assert!(!dis.contains("const "), "{dis}");

    let mut env = TestEnv::new(&program);
    let out = execute(&program, &mut env, &code, &[Value::Int(100)]).unwrap();
    let EvalOutcome::Deopt { frames, .. } = out else {
        panic!("expected deopt, got {out:?}");
    };
    let (_, locals, _) = frames.iter().next().unwrap();
    assert_eq!(locals[1], Value::Int(7), "the constant local");
    let boxed = locals[2].as_ref().expect("the rematerialized box");
    let field = program
        .field_by_name(program.class_by_name("Box").unwrap(), "v")
        .unwrap();
    assert_eq!(
        env.heap.get_field(&program, boxed, field).unwrap(),
        Value::Int(7)
    );
    tiers_agree_at_every_fuel_budget(&program, &code, &[Value::Int(100)]);

    let eight = program.static_method_by_name("eight").unwrap();
    let code = speculated(&program, eight, false);
    let dis = code.linear.as_ref().unwrap().disassemble();
    assert!(dis.contains("addi r1 <- r0, 7\n"), "{dis}");
    assert!(dis.contains("guardcmpi[4] r0, 7 "), "{dis}");
    assert!(!dis.contains("const "), "{dis}");
    for arg in [3, 100] {
        tiers_agree_at_every_fuel_budget(&program, &code, &[Value::Int(arg)]);
    }
}

/// `wide`: a loop whose body calls the void `nop` out of line, then
/// chains `steps` immediate operations on an accumulator (after a static
/// read, so they stay behind the call), counts down, and publishes a
/// two-object group. Each chained step is one more register, and `wide`
/// returns nothing.
fn wide_src(steps: usize) -> String {
    let chain: String = (0..steps)
        .map(|j| {
            let (op, c) = wide_step(j);
            format!("const {c} {op} ")
        })
        .collect();
    format!(
        "class Node {{ field next ref }}
        static g ref
        static h int
        static k int
        method nop 0 {{ ret }}
        method wide 1 {{
            load 0 store 1
            const 5 store 2
        Lhead:
            load 1 const 0 ifcmp le Ldone
            load 2 store 3
            load 2 getstatic k add {chain}store 2
            invokestatic nop
            load 3 pop
            load 1 const 1 sub store 1
            new Node dup new Node putfield Node.next putstatic g
            goto Lhead
        Ldone:
            load 2 putstatic h
            ret
        }}"
    )
}

/// Step `j` of `wide`'s chain: an operation and its constant operand.
fn wide_step(j: usize) -> (&'static str, i64) {
    let j = i64::try_from(j).unwrap();
    if j % 2 == 0 {
        ("add", j + 1)
    } else {
        ("xor", j % 7 + 2)
    }
}

/// `wide` of `wide_src(steps)`, compiled at `pea` with its call to `nop`
/// left out of line.
fn compiled_wide(program: &Program) -> Result<CompiledMethod, pea_compiler::Bailout> {
    let method = program.static_method_by_name("wide").unwrap();
    let mut options = CompilerOptions::with_opt_level(OptLevel::Pea);
    options.build.inline = false;
    compile(program, method, None, &options)
}

/// What `wide` of `wide_src(steps)` leaves in its static `h`.
fn wide_h(steps: usize, x: i64) -> Value {
    let mut acc: i64 = 5;
    for _ in 0..x.max(0) {
        for j in 0..steps {
            acc = match wide_step(j) {
                ("add", c) => acc.wrapping_add(c),
                (_, c) => acc ^ c,
            };
        }
    }
    Value::Int(acc)
}

/// What the interpreter leaves in `wide`'s static `h`.
fn interpreted_wide(program: &Program, x: i64) -> Value {
    let mut interp = pea_interp::SimpleEnv::new(program.clone());
    assert_eq!(interp.call("wide", &[Value::Int(x)]), Ok(None));
    interp.statics.get(StaticId(1))
}

/// A method that needs all 256 registers of the window runs alike on
/// both tiers at every fuel budget, and as the interpreter runs it. Its
/// last register, r255, the accumulator, holds a value across the void
/// call and the commit until the back edge reads it, and when the void
/// `ret` runs: `ret`'s source is `NO_REG`, which truncates to r255, and
/// must not reach the window. The call's frame state names the old
/// accumulator (local 3), so the new one keeps its own register instead
/// of sharing the loop phi's. A method that needs 257 registers is a lowering
/// bailout and keeps the interpreter's result.
#[test]
fn the_register_window_holds_256_registers_and_no_more() {
    let regs = |steps: usize| {
        let program = parse_program(&wide_src(steps)).unwrap();
        compiled_wide(&program).unwrap().linear.unwrap().num_regs as usize
    };
    // One register per chained step.
    let steps = 16 + 256 - regs(16);
    let program = parse_program(&wide_src(steps)).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let code = compiled_wide(&program).unwrap();
    let art = code.linear.as_ref().unwrap();
    assert_eq!(art.num_regs, 256);
    let dis = art.disassemble();
    let at = |needle: &str| {
        dis.find(needle)
            .unwrap_or_else(|| panic!("{needle}: {dis}"))
    };
    assert!(at(" r255 <- ") < at("invokestatic "), "{dis}");
    assert!(at("invokestatic ") < at("commit #0 x2"), "{dis}");
    assert!(at("commit #0") < at("<- r255]"), "{dis}");
    assert!(dis.ends_with("ret _\n"), "{dis}");
    for x in [0, 1, 3] {
        let args = [Value::Int(x)];
        tiers_agree_at_every_fuel_budget(&program, &code, &args);
        let mut h = Vec::new();
        for linear in [true, false] {
            let mut env = TestEnv::new(&program);
            let out = if linear {
                execute(&program, &mut env, &code, &args)
            } else {
                evaluate(&program, &mut env, &code, &args)
            };
            assert_eq!(out, Ok(EvalOutcome::Return(None)), "{x}");
            h.push(env.statics.get(StaticId(1)));
        }
        assert_eq!(h, [wide_h(steps, x); 2], "{x}");
        assert_eq!(interpreted_wide(&program, x), wide_h(steps, x), "{x}");
    }

    let program = parse_program(&wide_src(steps + 1)).unwrap();
    let err = compiled_wide(&program).unwrap_err();
    assert_eq!(err.to_string(), "unsupported: lowering: too many registers");
    assert_eq!(interpreted_wide(&program, 3), wide_h(steps + 1, 3));
}

/// A call to a void method writes no register: its destination is
/// `NO_REG` (`_` in the disassembly), and it takes no slot of the window.
#[test]
fn a_void_call_has_no_destination_register() {
    let program = parse_program(
        "method nop 0 { ret }
         method f 1 returns { invokestatic nop load 0 const 1 add retv }",
    )
    .unwrap();
    let method = program.static_method_by_name("f").unwrap();
    let mut options = CompilerOptions::with_opt_level(OptLevel::Pea);
    options.build.inline = false;
    let code = compile(&program, method, None, &options).unwrap();
    let art = code.linear.as_ref().unwrap();
    let dis = art.disassemble();
    assert!(dis.contains("invokestatic _ <- M0()"), "{dis}");
    // The parameter and the sum.
    assert_eq!(art.num_regs, 2, "{dis}");
    for x in [0, 4] {
        tiers_agree_at_every_fuel_budget(&program, &code, &[Value::Int(x)]);
        let (out, _) = run_tier(&program, &code, true, &[Value::Int(x)], None);
        assert_eq!(
            out,
            format!(
                "{:?}",
                Ok::<_, VmError>(EvalOutcome::Return(Some(Value::Int(x + 1))))
            )
        );
    }
}

/// `f` keeps `x` in local 2 and computes the next `x` into local 3
/// before it calls `nop`. A handler around the call returns local 2, and
/// `load 2 pop` after the call keeps local 2 live in the call's frame
/// state (its after-state clears locals dead after the call), so the
/// state names the loop phi `x` and the next `x` is computed before a
/// point that still reads the phi.
const UNWIND_SRC: &str = "
    class Boom { }
    method nop 0 { ret }
    method f 1 returns {
        try Lcall Lafter Lcatch *
        const 0 store 1
        const 7 store 2
    Lhead:
        load 1 load 0 ifcmp ge Ldone
        load 2 const 3 mul const 1 add store 3
    Lcall:
        invokestatic nop
    Lafter:
        load 2 pop
        load 3 store 2
        load 1 const 1 add store 1
        goto Lhead
    Ldone:
        load 2 retv
    Lcatch:
        pop load 2 retv
    }";

/// A back-edge input computed before a call whose frame state names its
/// phi keeps its own register, and the back edge moves it into the
/// phi's: an exception unwinding through the call hands the interpreter
/// the phi's value of that turn, on both tiers at every fuel budget.
#[test]
fn a_back_edge_input_before_a_call_that_names_its_phi_keeps_its_own_register() {
    let program = parse_program(UNWIND_SRC).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let method = program.static_method_by_name("f").unwrap();
    let mut options = CompilerOptions::with_opt_level(OptLevel::Pea);
    options.build.inline = false;
    let code = compile(&program, method, None, &options).unwrap();
    let dis = code.linear.as_ref().unwrap().disassemble();
    let line = |prefix: &str| -> Vec<&str> {
        let at = dis
            .lines()
            .map(|l| l.split_once(": ").unwrap().1)
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("{prefix}: {dis}"));
        at.split([' ', ',']).filter(|w| !w.is_empty()).collect()
    };
    // `muli next3 <- x, 3`, `addi next <- next3, 1`, then the call.
    let (x, next) = (line("muli")[3], line("addi")[1]);
    assert_ne!(x, next, "{dis}");
    let call = dis.find("invokestatic").unwrap();
    assert!(dis.find("addi").unwrap() < call, "{dis}");
    let back_edge = dis.lines().find(|l| l.contains("backedge")).unwrap();
    assert!(back_edge.contains(&format!("{x} <- {next}")), "{dis}");

    let mut x_at = vec![7];
    for k in 0..4 {
        x_at.push(x_at[k] * 3 + 1);
    }
    for throw_at in [None, Some(0), Some(2)] {
        tiers_agree_when_call_throws(&program, &code, &[Value::Int(4)], throw_at);
        for linear in [true, false] {
            let mut env = TestEnv::new(&program);
            env.throw_at = throw_at;
            let args = [Value::Int(4)];
            let out = if linear {
                execute(&program, &mut env, &code, &args)
            } else {
                evaluate(&program, &mut env, &code, &args)
            };
            match (throw_at, out) {
                (None, Ok(EvalOutcome::Return(v))) => {
                    assert_eq!(v, Some(Value::Int(x_at[4])), "{linear}");
                }
                (Some(k), Ok(EvalOutcome::Unwind { frames, .. })) => {
                    let (_, locals, _) = frames.iter().last().unwrap();
                    assert_eq!(locals[1], Value::Int(k as i64), "{linear}");
                    assert_eq!(locals[2], Value::Int(x_at[k]), "{linear}: the old x");
                }
                (_, out) => panic!("{throw_at:?} {linear}: {out:?}"),
            }
        }
    }
}

/// The method of 64 sequential diamonds that each merge one field value:
/// each arm computes the merged value into the phi's register, so the
/// method lowers with one register per diamond and runs on both tiers at
/// every fuel budget as the interpreter runs it.
#[test]
fn sixty_four_diamonds_lower_and_agree_with_the_interpreter() {
    let program = parse_program(&support::diamonds::source(64)).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let method = program.static_method_by_name("f").unwrap();
    let code = compile(&program, method, None, &CompilerOptions::default()).unwrap();
    let art = code.linear.as_ref().expect("the method lowers");
    assert_eq!(art.num_regs, 68);
    for x in [-1, 0, 31, 64] {
        let args = [Value::Int(x), Value::Int(5)];
        tiers_agree_at_every_fuel_budget(&program, &code, &args);
        let (out, _) = run_tier(&program, &code, true, &args, None);
        let mut interp = pea_interp::SimpleEnv::new(program.clone());
        let expected = interp.call("f", &args).unwrap();
        assert_eq!(
            out,
            format!("{:?}", Ok::<_, VmError>(EvalOutcome::Return(expected))),
            "{x}"
        );
    }
}

/// An opcode the loop does not know ends the run with an internal error
/// naming it and its `pc`, in the loop with a fuel limit and in the one
/// without.
#[test]
fn an_invalid_opcode_is_an_internal_error_naming_its_pc() {
    let program = parse_program(DISPATCH_SRC).unwrap();
    let mut code = compiled(&program, "loop");
    let art = code.linear.as_mut().unwrap();
    let dis = art.disassemble();
    let second = dis.lines().nth(1).unwrap();
    let pc: usize = second.split(':').next().unwrap().trim().parse().unwrap();
    assert!(pc > 0, "{dis}");
    art.code[pc] = 99;
    for fuel in [None, Some(1_000_000)] {
        let mut env = TestEnv::new(&program);
        env.fuel = fuel;
        assert_eq!(
            execute(&program, &mut env, &code, &[Value::Int(3)]),
            Err(VmError::Internal(format!(
                "linear dispatch: invalid opcode 99 at pc {pc}"
            ))),
            "fuel {fuel:?}"
        );
    }
}

/// A commit of each template shape, escaping through `g`: one instance
/// filled from a register, an int constant and null (`escape_heap`'s
/// node, with one more field); one that holds its lock; a cyclic pair;
/// a constant-length array.
const COMMIT_SRC: &str = "
    class N { field v int field k int field next ref }
    static g ref
    method single 1 returns {
        new N store 1
        load 1 load 0 putfield N.v
        load 1 const 5 putfield N.k
        load 1 putstatic g
        load 1 getfield N.k load 0 add retv
    }
    method locked 1 returns {
        new N store 1
        load 1 monitorenter
        load 1 load 0 putfield N.v
        load 1 putstatic g
        load 1 monitorexit
        load 0 retv
    }
    method cycle 1 returns {
        new N store 1
        new N store 2
        load 1 load 2 putfield N.next
        load 2 load 1 putfield N.next
        load 1 load 0 putfield N.v
        load 1 putstatic g
        load 0 retv
    }
    method array 1 returns {
        const 3 newarray int store 1
        load 1 const 1 load 0 astore
        load 1 putstatic g
        load 1 const 1 aload retv
    }";

const COMMIT_SHAPES: [&str; 4] = ["single", "locked", "cycle", "array"];

/// Each method lowers to one commit of its shape: the lone instance reads
/// a register, an int constant and null; the locked one re-enters its
/// lock; the cycle's members name each other; the array is one template.
#[test]
fn each_commit_shape_lowers_to_its_template() {
    let program = parse_program(COMMIT_SRC).unwrap();
    let template = |name: &str| {
        let code = compiled(&program, name);
        let commits = &code.linear.as_ref().unwrap().commits;
        assert_eq!(commits.len(), 1, "{name}");
        commits[0].objects.clone()
    };
    let names_a_member = |o: &LinearCommitObj| {
        o.fields
            .iter()
            .any(|f| matches!(f, CommitFieldSrc::SameCommit(_)))
    };

    let single = template("single");
    assert!(
        matches!(
            &single[..],
            [LinearCommitObj {
                shape: AllocShape::Instance { .. },
                lock_count: 0,
                fields,
                ..
            }] if matches!(
                fields[..],
                [CommitFieldSrc::Reg(_), CommitFieldSrc::Int(5), CommitFieldSrc::Null]
            )
        ),
        "{single:?}"
    );
    let locked = template("locked");
    assert!(
        matches!(&locked[..], [o] if o.lock_count == 1 && !names_a_member(o)),
        "{locked:?}"
    );
    let cycle = template("cycle");
    assert!(
        matches!(&cycle[..], [a, b] if names_a_member(a) && names_a_member(b)),
        "{cycle:?}"
    );
    let array = template("array");
    assert!(
        matches!(
            &array[..],
            [LinearCommitObj {
                shape: AllocShape::Array { length: 3, .. },
                lock_count: 0,
                ..
            }]
        ),
        "{array:?}"
    );
}

/// Runs `code` on one tier with a fuel budget: the outcome, the objects
/// the heap holds and the allocations it counted.
fn heap_after(
    program: &Program,
    code: &CompiledMethod,
    linear: bool,
    args: &[Value],
    fuel: u64,
) -> (String, usize, u64) {
    let mut env = TestEnv::new(program);
    env.fuel = Some(fuel);
    let out = if linear {
        execute(program, &mut env, code, args)
    } else {
        evaluate(program, &mut env, code, args)
    };
    (
        format!("{out:?}"),
        env.heap.len(),
        env.heap.stats.alloc_count,
    )
}

/// Both tiers run every commit shape alike at every fuel budget, and a
/// run that ends at any charge leaves exactly the objects it counted.
#[test]
fn commits_of_every_shape_agree_at_every_fuel_budget() {
    let program = parse_program(COMMIT_SRC).unwrap();
    for name in COMMIT_SHAPES {
        let code = compiled(&program, name);
        for x in [0, 7] {
            let args = [Value::Int(x)];
            tiers_agree_at_every_fuel_budget(&program, &code, &args);
            let (_, full) = run_tier(&program, &code, true, &args, None);
            for fuel in 0..=full.cycles {
                let (_, len, count) = heap_after(&program, &code, true, &args, fuel);
                assert_eq!(len as u64, count, "{name} {x} with fuel {fuel}");
            }
        }
    }
}

/// Fuel that runs out at a one-object commit's charge leaves the heap
/// empty on both tiers; one cycle more and the object exists.
#[test]
fn fuel_out_at_a_one_object_commits_charge_allocates_nothing() {
    let program = parse_program(COMMIT_SRC).unwrap();
    let code = compiled(&program, "single");
    let args = [Value::Int(3)];
    let (_, full) = run_tier(&program, &code, true, &args, None);
    // The commit is the method's only allocation, so the largest budget
    // that allocates nothing ends at its charge.
    let fuel = (0..full.cycles)
        .rev()
        .find(|&fuel| heap_after(&program, &code, true, &args, fuel).1 == 0)
        .unwrap();
    let out_of_fuel = format!("{:?}", Err::<EvalOutcome, _>(VmError::OutOfFuel));
    for linear in [true, false] {
        assert_eq!(
            heap_after(&program, &code, linear, &args, fuel),
            (out_of_fuel.clone(), 0, 0),
            "linear {linear}"
        );
        assert_eq!(
            heap_after(&program, &code, linear, &args, fuel + 1).1,
            1,
            "linear {linear}"
        );
    }
}
