//! Compile-and-evaluate integration tests: the full pipeline at each
//! optimization level, executed by the evaluator, including
//! deoptimization with virtual-object rematerialization — and the linear
//! tier's lowered control flow, which must charge as the evaluator does
//! at every fuel budget.

use pea_bytecode::asm::parse_program;
use pea_bytecode::{Insn, MethodId, Program, StaticId};
use pea_compiler::linear::execute;
use pea_compiler::{
    compile, evaluate, CompiledMethod, CompilerOptions, EvalEnv, EvalOutcome, OptLevel,
};
use pea_runtime::profile::ProfileStore;
use pea_runtime::{Heap, Statics, Stats, Value, VmError};

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
        program: &Program,
        method: MethodId,
        _args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        assert_eq!(
            program.method(method).code,
            [Insn::Return],
            "test programs inline every call but those to a method that does nothing"
        );
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
/// from the pool. The loop's only `const` is the phis' initial 0.
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
        ["edge", "xor", "add", "muli", "add", "addi", "ifcmpi", "backedge", "ret"],
        "{dis}"
    );
    assert_eq!(dis.matches("const ").count(), 1, "{dis}");
    assert!(dis.contains("muli r6 <- r5, 13\n"), "{dis}");
    let back_edge = body[7];
    assert!(
        back_edge.starts_with("backedge (safepoint) -> ") && back_edge.ends_with(']'),
        "the back edge carries the loop phis' moves: {back_edge}"
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
    let mut env = TestEnv::new(program);
    env.fuel = fuel;
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
    let full = run_tier(program, code, true, args, None);
    assert_eq!(full, run_tier(program, code, false, args, None), "{args:?}");
    for fuel in 0..=full.1.cycles {
        assert_eq!(
            run_tier(program, code, true, args, Some(fuel)),
            run_tier(program, code, false, args, Some(fuel)),
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
            invokestatic nop
            load 2 getstatic k add {chain}store 2
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
/// last register, r255, the accumulator, holds a value when the void call
/// of the next iteration runs, across the commit, and when the void `ret`
/// runs: `ret`'s source is `NO_REG`, which truncates to r255, and must
/// not reach the window. A method that needs 257 registers is a lowering
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
    assert!(at("invokestatic ") < at(" r255 <- "), "{dis}");
    assert!(at(" r255 <- ") < at("commit #0 x2"), "{dis}");
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
