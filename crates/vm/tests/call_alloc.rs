//! Calls reach no host allocator.
//!
//! A compiled caller hands an out-of-line callee its arguments in a
//! buffer on the host stack and lends it the program; an interpreted
//! caller leaves them on the value stack. Once both methods are warm, a
//! loop of either kind of call makes **zero** calls into the host
//! allocator — counted by the same allocator the heap and observability
//! tests use.

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
