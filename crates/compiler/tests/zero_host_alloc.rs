//! Allocation and field access reach no host allocator.
//!
//! The paper prices an allocation as a pointer bump. With the heap's
//! capacity reserved up front, object and array allocation, field and
//! element access, monitors, a compiled loop of `new` + field stores, of
//! one-object commits or of commit groups on the linear tier, and a
//! compiled loop of calls into compiled code must make **zero** calls
//! into the host allocator — counted by the same allocator the metrics
//! and profiler overhead tests use. The graph oracle's commits allocate
//! nothing per commit either.

use pea_bytecode::asm::parse_program;
use pea_bytecode::{MethodId, Program, ValueKind};
use pea_compiler::linear::execute;
use pea_compiler::{
    compile, evaluate, Call, CompiledMethod, CompilerOptions, EvalEnv, EvalOutcome, OptLevel,
    RegisterStack,
};
use pea_runtime::{Heap, Statics, Value, VmError, HEAP_SEGMENT_SLOTS};
use std::sync::Arc;

#[path = "../../interp/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const N: usize = 10_000;

#[test]
fn heap_operations_reach_no_host_allocator() {
    let program = parse_program(
        "class Base { field a int }
         class P extends Base { field b ref }",
    )
    .unwrap();
    let class = program.class_by_name("P").unwrap();
    let a = program.field_by_name(class, "a").unwrap();
    let b = program.field_by_name(class, "b").unwrap();
    let mut heap = Heap::new();
    heap.reserve(2 * N, (2 + 4) * N).unwrap();

    let before = allocations();
    for i in 0..N as i64 {
        let object = heap.try_alloc_instance(&program, class).unwrap();
        let array = heap.alloc_array(ValueKind::Int, 4).unwrap();
        heap.put_field(&program, object, b, Value::Ref(array))
            .unwrap();
        let old = heap
            .get_field(&program, object, a)
            .unwrap()
            .as_int()
            .unwrap();
        heap.put_field(&program, object, a, Value::Int(old + i))
            .unwrap();
        heap.array_set(array, i % 4, Value::Int(i)).unwrap();
        assert_eq!(heap.array_get(array, i % 4), Ok(Value::Int(i)));
        heap.init_slots(object, [Value::Int(i)]).unwrap();
        heap.monitor_enter(object);
        heap.monitor_exit(object).unwrap();
    }
    assert_eq!(allocations() - before, 0);
    assert_eq!(heap.len(), 2 * N);
}

/// A heap built after others were dropped takes one of their handle
/// tables and slot segments: its first segment reaches no host allocator.
#[test]
fn a_heap_after_dropped_heaps_reuses_their_memory() {
    // Four tables and eight segments go back at once: more than the other
    // tests of this binary, three heaps with six segments between them,
    // can take before the new heap does.
    let dropped: Vec<Heap> = (0..4)
        .map(|_| {
            let mut heap = Heap::new();
            heap.reserve(0, HEAP_SEGMENT_SLOTS).unwrap();
            heap
        })
        .collect();
    drop(dropped);

    let mut heap = Heap::new();
    let before = allocations();
    let array = heap.alloc_array(ValueKind::Int, 4).unwrap();
    assert_eq!(allocations() - before, 0);
    assert_eq!(heap.slots_of(array), [Value::Int(0); 4]);
}

struct Env {
    heap: Heap,
    statics: Statics,
    registers: RegisterStack,
}

impl EvalEnv for Env {
    fn heap(&mut self) -> &mut Heap {
        &mut self.heap
    }
    fn statics(&mut self) -> &mut Statics {
        &mut self.statics
    }
    fn charge(&mut self, cycles: u64) -> Result<(), VmError> {
        self.heap.stats.cycles += cycles;
        Ok(())
    }
    fn invoke(
        &mut self,
        _program: &Program,
        _method: MethodId,
        _args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        panic!("the loop makes no calls");
    }
    fn register_stack(&mut self) -> Option<&mut RegisterStack> {
        Some(&mut self.registers)
    }
}

/// Every iteration publishes a fresh pair of nodes that point at each
/// other: two `new` and three field stores without escape analysis, one
/// cyclic two-object commit group with it.
const PAIRS: &str = "
    class Node { field v int field peer ref }
    static last ref
    method f 1 returns {
        const 0 store 1
    Lhead:
        load 1 load 0 ifcmp ge Ldone
        new Node store 2
        new Node store 3
        load 2 load 1 putfield Node.v
        load 2 load 3 putfield Node.peer
        load 3 load 2 putfield Node.peer
        load 2 putstatic last
        load 1 const 1 add store 1
        goto Lhead
    Ldone:
        load 1 retv
    }";

/// Every iteration publishes one fresh node whose `v` comes from a
/// register and whose `next` stays null (`escape_heap`'s `Node0`): a `new`
/// and a field store without escape analysis, a one-object commit with
/// it.
const SINGLES: &str = "
    class Node0 { field v int field next ref }
    static last ref
    method f 1 returns {
        const 0 store 1
    Lhead:
        load 1 load 0 ifcmp ge Ldone
        new Node0 store 2
        load 2 load 1 putfield Node0.v
        load 2 putstatic last
        load 1 const 1 add store 1
        goto Lhead
    Ldone:
        load 1 retv
    }";

/// Runs `f` of `program`, compiled at `level`, for 8 and then for `N`
/// iterations of `objects` two-slot objects each; the second run must
/// reach no host allocator.
fn compiled_loop(program: &Program, level: OptLevel, objects: usize) -> Env {
    let method = program.static_method_by_name("f").unwrap();
    let code = compile(
        program,
        method,
        None,
        &CompilerOptions::with_opt_level(level),
    )
    .unwrap();
    let commits = &code.linear.as_ref().unwrap().commits;
    if level == OptLevel::Pea {
        assert_eq!(commits.len(), 1, "the loop allocates through a commit");
        assert_eq!(commits[0].objects.len(), objects);
    }
    let mut env = Env {
        heap: Heap::new(),
        statics: Statics::new(&program.statics),
        registers: RegisterStack::default(),
    };
    let total = objects * (N + 8);
    env.heap.reserve(total, 2 * total).unwrap();
    // Grow the host's register stack.
    execute(program, &mut env, &code, &[Value::Int(8)]).unwrap();

    let before = allocations();
    let out = execute(program, &mut env, &code, &[Value::Int(N as i64)]).unwrap();
    assert_eq!(
        allocations() - before,
        0,
        "{level:?}: the compiled loop reached the host allocator"
    );
    assert_eq!(out, EvalOutcome::Return(Some(Value::Int(N as i64))));
    env
}

#[test]
fn compiled_new_and_commit_loops_reach_no_host_allocator() {
    let program = parse_program(PAIRS).unwrap();
    let node = program.class_by_name("Node").unwrap();
    let v = program.field_by_name(node, "v").unwrap();
    let peer = program.field_by_name(node, "peer").unwrap();
    let last = program.static_by_name("last").unwrap();
    let mut stats = Vec::new();
    for level in [OptLevel::None, OptLevel::Pea] {
        let env = compiled_loop(&program, level, 2);
        assert_eq!(env.heap.len(), 2 * (N + 8), "{level:?}");
        // The last pair is a cycle, whichever way it was allocated.
        let first = env.statics.get(last).as_ref().unwrap();
        let second = env
            .heap
            .get_field(&program, first, peer)
            .unwrap()
            .as_ref()
            .unwrap();
        assert_ne!(first, second);
        assert_eq!(
            env.heap.get_field(&program, second, peer),
            Ok(Value::Ref(first))
        );
        assert_eq!(
            env.heap.get_field(&program, first, v),
            Ok(Value::Int(N as i64 - 1))
        );
        assert_eq!(env.heap.get_field(&program, second, v), Ok(Value::Int(0)));
        stats.push((env.heap.stats.alloc_count, env.heap.stats.alloc_bytes));
    }
    assert_eq!(stats[0], stats[1], "both levels allocate the same objects");
}

/// A one-object commit fills its object as it allocates it.
#[test]
fn compiled_one_object_commit_loop_reaches_no_host_allocator() {
    let program = parse_program(SINGLES).unwrap();
    let node = program.class_by_name("Node0").unwrap();
    let v = program.field_by_name(node, "v").unwrap();
    let next = program.field_by_name(node, "next").unwrap();
    let last = program.static_by_name("last").unwrap();
    let mut stats = Vec::new();
    for level in [OptLevel::None, OptLevel::Pea] {
        let env = compiled_loop(&program, level, 1);
        assert_eq!(env.heap.len(), N + 8, "{level:?}");
        let node = env.statics.get(last).as_ref().unwrap();
        assert_eq!(
            env.heap.get_field(&program, node, v),
            Ok(Value::Int(N as i64 - 1))
        );
        assert_eq!(env.heap.get_field(&program, node, next), Ok(Value::Null));
        stats.push((env.heap.stats.alloc_count, env.heap.stats.alloc_bytes));
    }
    assert_eq!(stats[0], stats[1], "both levels allocate the same objects");
}

/// The graph oracle runs the commit loops too: its value table is pooled
/// and its scratch grows once per call, so `N` iterations of commits make
/// exactly as many host allocations as 8.
#[test]
fn graph_oracle_commit_loops_allocate_per_call_not_per_commit() {
    for (source, objects) in [(PAIRS, 2), (SINGLES, 1)] {
        let program = parse_program(source).unwrap();
        let method = program.static_method_by_name("f").unwrap();
        let options = CompilerOptions::with_opt_level(OptLevel::Pea);
        let code = compile(&program, method, None, &options).unwrap();
        let mut env = Env {
            heap: Heap::new(),
            statics: Statics::new(&program.statics),
            registers: RegisterStack::default(),
        };
        let total = objects * (N + 16);
        env.heap.reserve(total, 2 * total).unwrap();
        let mut host_allocations = |iterations: usize| {
            let before = allocations();
            let n = Value::Int(iterations as i64);
            let out = evaluate(&program, &mut env, &code, &[n]).unwrap();
            assert_eq!(out, EvalOutcome::Return(Some(n)));
            allocations() - before
        };
        // Fill the oracle's per-thread pool.
        host_allocations(8);
        let few = host_allocations(8);
        assert_eq!(
            host_allocations(N),
            few,
            "{objects}-object commits: the graph oracle allocates per commit"
        );
        assert_eq!(env.heap.len(), objects * (N + 16));
    }
}

/// A host that hands every call of the linear tier back as compiled code:
/// `callee`, run in the loop's next window.
struct CallEnv {
    env: Env,
    callee: Arc<CompiledMethod>,
}

impl EvalEnv for CallEnv {
    fn heap(&mut self) -> &mut Heap {
        self.env.heap()
    }
    fn statics(&mut self) -> &mut Statics {
        self.env.statics()
    }
    fn charge(&mut self, cycles: u64) -> Result<(), VmError> {
        self.env.charge(cycles)
    }
    fn invoke(
        &mut self,
        _program: &Program,
        _method: MethodId,
        _args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        panic!("every call runs compiled");
    }
    fn call(
        &mut self,
        _program: &Program,
        method: MethodId,
        argc: usize,
        stack: &mut RegisterStack,
    ) -> Result<Call<'_>, VmError> {
        assert_eq!(method, self.callee.method);
        assert_eq!(stack.args(argc).len(), 2);
        Ok(Call::Compiled(&self.callee, 0))
    }
    fn register_stack(&mut self) -> Option<&mut RegisterStack> {
        self.env.register_stack()
    }
}

/// A loop whose every iteration calls a compiled method with two
/// arguments.
const CALLS: &str = "
    method add3 2 returns { load 0 load 1 add const 3 add retv }
    method f 1 returns {
        const 0 store 1
        const 0 store 2
    Lhead:
        load 1 load 0 ifcmp ge Ldone
        load 2 load 1 invokestatic add3 store 2
        load 1 const 1 add store 1
        goto Lhead
    Ldone:
        load 2 retv
    }";

/// The arguments go from the caller's registers into the callee's window
/// and the callee's return comes back to the caller in the loop: once the
/// register stack has grown, a call allocates nothing.
#[test]
fn compiled_calls_in_a_loop_reach_no_host_allocator() {
    let program = parse_program(CALLS).unwrap();
    let mut options = CompilerOptions::with_opt_level(OptLevel::Pea);
    options.build.inline = false;
    let compiled = |name: &str| {
        let method = program.static_method_by_name(name).unwrap();
        compile(&program, method, None, &options).unwrap()
    };
    let caller = compiled("f");
    let mut env = CallEnv {
        env: Env {
            heap: Heap::new(),
            statics: Statics::new(&program.statics),
            registers: RegisterStack::default(),
        },
        callee: Arc::new(compiled("add3")),
    };
    // Grow the host's register stack and the loop's code table.
    execute(&program, &mut env, &caller, &[Value::Int(8)]).unwrap();

    let before = allocations();
    let out = execute(&program, &mut env, &caller, &[Value::Int(N as i64)]).unwrap();
    assert_eq!(
        allocations() - before,
        0,
        "a compiled call reached the host allocator"
    );
    let n = N as i64;
    assert_eq!(
        out,
        EvalOutcome::Return(Some(Value::Int(n * (n - 1) / 2 + 3 * n)))
    );
}
