//! The collector at the VM's safepoints: what a mutator holds survives
//! with its contents, and a loop that makes garbage runs in a bounded
//! number of slot segments.
//!
//! Each test makes its collections due by taking slot segments: an int
//! array of [`BIG`] elements takes a segment of its own, so four of them
//! make a collection due at the next safepoint. Every test checks through
//! the metrics hub that collections really ran.

use pea_bytecode::asm::parse_program;
use pea_runtime::{Value, COLLECT_AFTER_SEGMENTS, HEAP_SEGMENT_SLOTS};
use pea_vm::{MetricsHub, OptLevel, Vm, VmOptions};

/// Elements of an int array that takes a slot segment of its own.
const BIG: usize = HEAP_SEGMENT_SLOTS + 1;

const PROGRAM: &str = "
    class Box { field v int field w ref }
    class Node { field v int field next ref }
    static list ref
    static last ref

    method build 1 {
        const 0 store 1
    Lloop:
        load 1 load 0 ifcmp ge Ldone
        new Node store 2
        load 2 load 1 putfield Node.v
        load 2 getstatic list putfield Node.next
        load 2 putstatic list
        load 1 const 1 add store 1
        goto Lloop
    Ldone:
        ret
    }

    method churn 1 returns {
        const 0 store 1
        const 0 store 2
    Lloop:
        load 1 load 0 ifcmp ge Ldone
        new Box store 3
        load 3 load 1 putfield Box.v
        load 3 putstatic last
        load 2 load 3 getfield Box.v add store 2
        load 1 const 1 add store 1
        goto Lloop
    Ldone:
        load 2 retv
    }

    method walk 0 returns {
        const 0 store 0
        getstatic list store 1
    Lloop:
        load 1 ifnull Ldone
        load 0 const 1000 mul load 1 getfield Node.v add store 0
        load 1 getfield Node.next store 1
        goto Lloop
    Ldone:
        load 0 retv
    }

    method big 1 {
        const 0 store 1
    Lloop:
        load 1 load 0 ifcmp ge Ldone
        const BIG newarray int pop
        load 1 const 1 add store 1
        goto Lloop
    Ldone:
        ret
    }

    method held 2 returns {
        new Box store 2
        load 2 load 0 putfield Box.v
        const 0 store 3
    Lloop:
        load 3 load 1 ifcmp ge Ldone
        const BIG newarray int pop
        load 3 const 1 add store 3
        goto Lloop
    Ldone:
        load 2 getfield Box.v retv
    }

    method make 1 returns {
        new Box store 1
        load 1 load 0 putfield Box.v
        const BIG newarray int pop
        const BIG newarray int pop
        const BIG newarray int pop
        const BIG newarray int pop
        load 1 retv
    }

    method read 1 returns { load 0 getfield Box.v retv }
";

fn vm(options: VmOptions) -> Vm {
    let source = PROGRAM.replace("BIG", &BIG.to_string());
    let program = parse_program(&source).expect("the program parses");
    pea_bytecode::verify_program(&program).expect("the program verifies");
    Vm::new(
        program,
        VmOptions {
            metrics: MetricsHub::enabled(),
            ..options
        },
    )
}

fn collections(vm: &mut Vm) -> u64 {
    vm.metrics()
        .snapshot()
        .expect("metrics are enabled")
        .counter("heap.collections")
}

/// The interpreter and the linear tier at each escape-analysis level the
/// tests run (`none` keeps every allocation, so compiled code holds real
/// objects in its registers).
fn configurations() -> [(&'static str, VmOptions); 3] {
    [
        ("interp", VmOptions::interpreter_only()),
        ("none", VmOptions::with_opt_level(OptLevel::None)),
        ("pea", VmOptions::with_opt_level(OptLevel::Pea)),
    ]
}

/// 2 M short-lived objects while a static keeps a 100-node list: the heap
/// never holds more than the segments taken between two collections plus
/// the list's segment and its copy, and the list reads back unchanged.
#[test]
fn garbage_loop_stays_within_the_segment_budget() {
    let expected_walk = (0..100).fold(0i64, |acc, v| acc.wrapping_mul(1000).wrapping_add(v));
    for (name, options) in configurations() {
        let mut vm = vm(options);
        vm.call_entry("build", &[Value::Int(100)]).unwrap();
        let walk = vm.call_entry("walk", &[]).unwrap();
        // The list is built head first: the walk reads 99 down to 0.
        let reversed = (0..100)
            .rev()
            .fold(0i64, |acc, v| acc.wrapping_mul(1000).wrapping_add(v));
        assert_eq!(walk, Some(Value::Int(reversed)), "{name}");
        assert_ne!(reversed, expected_walk);
        // 2 M objects: 2 000 calls of 1 000 (compiled code has no on-stack
        // replacement, so a single long call would stay interpreted).
        for _ in 0..2_000 {
            let sum = vm.call_entry("churn", &[Value::Int(1_000)]).unwrap();
            assert_eq!(sum, Some(Value::Int(499_500)), "{name}");
        }
        assert_eq!(vm.call_entry("walk", &[]).unwrap(), walk, "{name}");
        assert!(
            vm.heap().len() >= 2_000_100,
            "{name}: every object allocated"
        );
        assert!(collections(&mut vm) > 0, "{name}: collections ran");
        let live = 1;
        assert!(
            vm.heap().peak_segments() <= COLLECT_AFTER_SEGMENTS + 2 * live,
            "{name}: {} segments at the peak",
            vm.heap().peak_segments()
        );
    }
}

/// A box only an interpreter local holds, across collections at the
/// interpreter's back edges.
#[test]
fn an_object_only_interpreter_locals_hold_survives() {
    let mut vm = vm(VmOptions::interpreter_only());
    let got = vm
        .call_entry("held", &[Value::Int(41), Value::Int(12)])
        .unwrap();
    assert_eq!(got, Some(Value::Int(41)));
    assert!(collections(&mut vm) >= 2);
}

/// A box only a compiled register holds, across collections at the
/// compiled loop's back edge: `none` allocates it for real.
#[test]
fn an_object_only_a_compiled_register_holds_survives() {
    let mut vm = vm(VmOptions::with_opt_level(OptLevel::None));
    for i in 0..60 {
        let got = vm.call_entry("held", &[Value::Int(i), Value::Int(1)]);
        assert_eq!(got, Ok(Some(Value::Int(i))));
    }
    let held = vm.program().static_method_by_name("held").unwrap();
    assert!(vm.compiled(held).is_some(), "held is compiled");
    let before = collections(&mut vm);
    let got = vm
        .call_entry("held", &[Value::Int(77), Value::Int(12)])
        .unwrap();
    assert_eq!(got, Some(Value::Int(77)));
    assert!(collections(&mut vm) >= before + 2);
}

/// What a call returned is a root until the next call returns: a box
/// passed into the next call survives the collection its own method entry
/// makes.
#[test]
fn a_returned_object_passed_into_the_next_call_survives() {
    for (name, options) in configurations() {
        let mut vm = vm(options);
        for i in 0..60 {
            let before = collections(&mut vm);
            let made = vm.call_entry("make", &[Value::Int(i)]).unwrap();
            let Some(Value::Ref(r)) = made else {
                panic!("{name}: make returns a box, not {made:?}")
            };
            assert_eq!(vm.heap().slots_of(r).unwrap()[0], Value::Int(i), "{name}");
            let got = vm.call_entry("read", &[Value::Ref(r)]);
            assert_eq!(got, Ok(Some(Value::Int(i))), "{name}");
            assert!(
                collections(&mut vm) > before,
                "{name}: read's entry collected"
            );
        }
    }
}

/// Collections leave every count of the run as it was: the same program
/// reads the same `Stats` with and without them.
#[test]
fn collections_change_no_count() {
    let run = |options: VmOptions| {
        let mut vm = vm(options);
        vm.call_entry("build", &[Value::Int(100)]).unwrap();
        for _ in 0..100 {
            vm.call_entry("churn", &[Value::Int(100)]).unwrap();
            vm.call_entry("big", &[Value::Int(2)]).unwrap();
        }
        (vm.stats(), collections(&mut vm))
    };
    let (collected, count) = run(VmOptions::default());
    assert!(count > 0);
    let graph = VmOptions {
        exec_mode: pea_vm::ExecMode::Graph,
        ..VmOptions::default()
    };
    let (uncollected, none) = run(graph);
    assert_eq!(none, 0, "the graph oracle never collects");
    assert_eq!(collected, uncollected);
}
