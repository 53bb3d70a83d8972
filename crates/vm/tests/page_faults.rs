//! A VM built after another one was dropped reuses its heap memory: the
//! second VM's steady window makes almost none of the page faults the
//! first VM's makes on fresh slot segments and handle-table pages.
//!
//! The count is the process's minor faults in `/proc/self/stat`, so this
//! binary holds this one test, and it runs on Linux only.

#![cfg(target_os = "linux")]

use pea_bytecode::asm::parse_program;
use pea_bytecode::Program;
use pea_runtime::Value;
use pea_vm::{OptLevel, Vm, VmOptions};

/// `iterate(n)` allocates 2000 two-field objects: 62.5 KiB of slots and
/// 24 KiB of handles, with nothing to elide at `none`.
const ALLOCATING: &str = "
    class Box { field v int field next ref }
    method iterate 1 returns {
        const 0 store 1
    Lhead:
        load 1 const 2000 ifcmp ge Ldone
        new Box store 2
        load 2 load 0 putfield Box.v
        load 2 load 3 putfield Box.next
        load 2 store 3
        load 1 const 1 add store 1
        goto Lhead
    Ldone:
        load 1 retv
    }";

const WARM: i64 = 20;
const MEASURED: i64 = 60;

/// Minor page faults of this process so far: field 10 of
/// `/proc/self/stat`, the eighth after the parenthesised command name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    let after_name = &stat[stat.rfind(')').unwrap() + 1..];
    after_name
        .split_whitespace()
        .nth(7)
        .unwrap()
        .parse()
        .unwrap()
}

/// Minor faults over the steady window of one VM, dropped afterwards.
fn steady_window_faults(program: &Program) -> u64 {
    let mut vm = Vm::new(program.clone(), VmOptions::with_opt_level(OptLevel::None));
    for i in 0..WARM {
        vm.call_entry("iterate", &[Value::Int(i)]).unwrap();
    }
    let before = minor_faults();
    for i in WARM..WARM + MEASURED {
        assert_eq!(
            vm.call_entry("iterate", &[Value::Int(i)]).unwrap(),
            Some(Value::Int(2000))
        );
    }
    minor_faults() - before
}

#[test]
fn a_second_vm_reuses_the_first_vms_heap_pages() {
    let program = parse_program(ALLOCATING).unwrap();
    let first = steady_window_faults(&program);
    let second = steady_window_faults(&program);
    // 120 000 objects: about 940 pages of slots and 350 of handles.
    assert!(first > 500, "the first VM faulted only {first} pages");
    assert!(
        second * 10 < first,
        "the second VM faulted {second} pages, the first {first}"
    );
}
