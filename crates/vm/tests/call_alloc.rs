//! Calls reach no host allocator.
//!
//! A compiled callee of compiled code runs in its caller's linear-tier
//! loop: the caller is suspended on the mutator's reused register stack,
//! its argument registers are copied into the callee's window there, and
//! the callee's artifact is held in the stack's code table rather than
//! cloned. An interpreted caller leaves its arguments on the value stack,
//! and an interpreted callee runs in its caller's interpreter loop,
//! suspending the caller on the mutator's reused activation stack. Once
//! both methods are warm, a loop of any kind of call — an exception thrown
//! by the callee and caught by the caller included — makes **zero** calls
//! into the host allocator, counted by the same allocator the heap and
//! observability tests use. A guard deopt hands the interpreter one frame
//! chain, so what it allocates does not grow with the inlined depth.

use pea_bytecode::asm::parse_program;
use pea_runtime::Value;
use pea_vm::{OptLevel, Vm, VmOptions};

#[path = "../../interp/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const N: i64 = 10_000;

/// `calls(n)` sums `add3(i, i, 1)` over `i < n`: one out-of-line call per
/// iteration once inlining is off.
const CALLS: &str = "
    method add3 3 returns { load 0 load 1 add load 2 add retv }
    method calls 1 returns {
        const 0 store 1 const 0 store 2
    Lhead:
        load 1 load 0 ifcmp ge Ldone
        load 2 load 1 load 1 const 1 invokestatic add3 add store 2
        load 1 const 1 add store 1 goto Lhead
    Ldone:
        load 2 retv
    }";

fn vm() -> Vm {
    let mut options = VmOptions::with_opt_level(OptLevel::Pea);
    options.compiler.build.inline = false;
    Vm::new(parse_program(CALLS).unwrap(), options)
}

/// Host allocations made by one `calls(N)`.
fn measured(vm: &mut Vm) -> u64 {
    let before = allocations();
    let result = vm.call_entry("calls", &[Value::Int(N)]).unwrap();
    let allocs = allocations() - before;
    assert_eq!(result, Some(Value::Int(N * (N - 1) + N)));
    allocs
}

#[test]
fn compiled_to_compiled_calls_reach_no_host_allocator() {
    let mut vm = vm();
    for _ in 0..60 {
        vm.call_entry("calls", &[Value::Int(2)]).unwrap();
    }
    let program = vm.program();
    let caller = program.static_method_by_name("calls").unwrap();
    let callee = program.static_method_by_name("add3").unwrap();
    assert!(vm.compiled(caller).is_some() && vm.compiled(callee).is_some());
    let allocs = measured(&mut vm);
    assert_eq!(
        allocs, 0,
        "{N} compiled→compiled calls reached the host allocator"
    );
}

#[test]
fn interpreted_to_compiled_calls_reach_no_host_allocator() {
    let mut vm = vm();
    // One long call: the callee compiles part-way, the loop stays
    // interpreted (it has been entered once).
    vm.call_entry("calls", &[Value::Int(100)]).unwrap();
    let program = vm.program();
    let caller = program.static_method_by_name("calls").unwrap();
    let callee = program.static_method_by_name("add3").unwrap();
    assert!(vm.compiled(caller).is_none() && vm.compiled(callee).is_some());
    let allocs = measured(&mut vm);
    assert!(
        vm.compiled(caller).is_none(),
        "the caller stayed interpreted"
    );
    assert_eq!(
        allocs, 0,
        "{N} interpreted→compiled calls reached the host allocator"
    );
}

#[test]
fn interpreted_to_interpreted_calls_reach_no_host_allocator() {
    let mut vm = Vm::new(parse_program(CALLS).unwrap(), VmOptions::interpreter_only());
    vm.call_entry("calls", &[Value::Int(100)]).unwrap();
    let allocs = measured(&mut vm);
    assert_eq!(vm.compiled_method_count(), 0);
    assert_eq!(
        allocs, 0,
        "{N} interpreted→interpreted calls reached the host allocator"
    );
}

/// `catches(n)` calls `boom(i)` for `i < n`; `boom` throws the one `Err`
/// that `setup` published whenever `i` is odd, and `catches` counts what
/// it catches.
const THROWS: &str = "
    class Err { }
    static err ref
    method setup 0 { new Err putstatic err ret }
    method boom 1 returns {
        load 0 const 2 rem const 0 ifcmp eq Lok
        getstatic err athrow
    Lok:
        load 0 retv
    }
    method catches 1 returns {
        try Ls Le Lh Err
        const 0 store 1 const 0 store 2
    Lhead:
        load 1 load 0 ifcmp ge Ldone
    Ls:
        load 1 invokestatic boom pop
    Le:
        goto Lnext
    Lh:
        pop load 2 const 1 add store 2
    Lnext:
        load 1 const 1 add store 1 goto Lhead
    Ldone:
        load 2 retv
    }";

#[test]
fn exceptions_caught_across_interpreted_calls_reach_no_host_allocator() {
    let program = parse_program(THROWS).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let mut vm = Vm::new(program, VmOptions::interpreter_only());
    vm.call_entry("setup", &[]).unwrap();
    vm.call_entry("catches", &[Value::Int(100)]).unwrap();
    let before = allocations();
    let result = vm.call_entry("catches", &[Value::Int(N)]).unwrap();
    let allocs = allocations() - before;
    assert_eq!(result, Some(Value::Int(N / 2)));
    assert_eq!(vm.heap().total_lock_holds(), 0);
    assert_eq!(
        allocs, 0,
        "{N} caught interpreted→interpreted throws reached the host allocator"
    );
}

/// `d1(x)` keeps `x` in a `Box` and reads it back; above 1000, which the
/// warm-up never passes, it adds one. `dK` calls `d{K-1}`, so compiled
/// with inlining `dK` guards on the rare arm with a frame chain `K`
/// frames deep and the `Box` virtual in its innermost frame.
fn nested(depth: usize) -> String {
    let mut src = String::from(
        "class Box { field v int }
        method d1 1 returns {
            new Box store 1
            load 1 load 0 putfield Box.v
            load 0 const 1000 ifcmp gt Lrare
            load 1 getfield Box.v retv
        Lrare:
            load 1 getfield Box.v const 1 add retv
        }",
    );
    for k in 2..=depth {
        src += &format!(
            "\nmethod d{k} 1 returns {{ load 0 invokestatic d{} retv }}",
            k - 1
        );
    }
    src
}

/// Host allocations the rebuilders and the VM make for one guard deopt
/// that rematerializes one object: the frame chain's two buffers, the
/// rematerialization inventory and the rebuilder's object cache, at any
/// depth of the chain. The object's fields are written in place as they
/// are resolved, so they take no buffer of their own.
const ALLOCS_PER_DEOPT: u64 = 4;

#[test]
fn a_guard_deopt_allocates_the_same_at_every_inlined_depth() {
    let mut per_depth = Vec::new();
    for depth in 1..=4 {
        let program = parse_program(&nested(depth)).unwrap();
        pea_bytecode::verify_program(&program).unwrap();
        let mut vm = Vm::new(program, VmOptions::with_opt_level(OptLevel::Pea));
        let entry = format!("d{depth}");
        for i in 0..60 {
            assert_eq!(
                vm.call_entry(&entry, &[Value::Int(i)]),
                Ok(Some(Value::Int(i)))
            );
        }
        let root = vm.program().static_method_by_name(&entry).unwrap();
        assert!(vm.compiled(root).is_some(), "{entry} compiled");
        // Four deopts, fewer than evict the method.
        let mut allocs = Vec::new();
        for _ in 0..4 {
            let stats = vm.stats();
            let before = allocations();
            let result = vm.call_entry(&entry, &[Value::Int(2000)]);
            allocs.push(allocations() - before);
            assert_eq!(result, Ok(Some(Value::Int(2001))));
            let delta = vm.stats().delta(&stats);
            assert_eq!((delta.deopts, delta.rematerialized), (1, 1), "{entry}");
        }
        per_depth.push(allocs);
    }
    assert_eq!(
        per_depth,
        vec![vec![ALLOCS_PER_DEOPT; 4]; 4],
        "host allocations per guard deopt at inlined depths 1-4"
    );
}
