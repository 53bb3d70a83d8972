//! Builder coverage: inlining policies, speculation shapes, bailouts,
//! and frame-state structure.

use pea_bytecode::asm::parse_program;
use pea_bytecode::{Insn, MethodBuilder, ProgramBuilder};
use pea_compiler::{build_graph, Bailout, BuildOptions};
use pea_ir::verify::verify;
use pea_ir::{Graph, NodeKind};
use pea_runtime::profile::ProfileStore;

fn count(g: &Graph, pred: impl Fn(&NodeKind) -> bool) -> usize {
    g.live_nodes().filter(|&n| pred(g.kind(n))).count()
}

fn build(src: &str, entry: &str, options: &BuildOptions) -> Result<Graph, Bailout> {
    let program = parse_program(src).unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let method = program.static_method_by_name(entry).unwrap();
    build_graph(&program, method, None, options)
}

#[test]
fn inline_depth_limit_respected() {
    // a -> b -> c -> d -> e -> f: the inline depth is 4, so e's call to f
    // stays a call.
    let chain = "
        method e 1 returns { load 0 invokestatic f retv }
        method d 1 returns { load 0 invokestatic e retv }
        method c 1 returns { load 0 invokestatic d retv }
        method b 1 returns { load 0 invokestatic c retv }
        method a 1 returns { load 0 invokestatic b retv }";
    let src = format!("method f 1 returns {{ load 0 const 1 add retv }} {chain}");
    let g = build(&src, "a", &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(
        count(&g, |k| matches!(k, NodeKind::Invoke { .. })),
        1,
        "exactly the depth-4 frontier call remains"
    );
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Arith { .. })), 0);
    // One method shorter, the chain inlines fully.
    let src = chain.replace("invokestatic f", "const 1 add");
    let g = build(&src, "a", &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Invoke { .. })), 0);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Arith { .. })), 1);
}

#[test]
fn big_callee_not_inlined() {
    let mut body = String::new();
    for _ in 0..50 {
        body.push_str("const 1 add ");
    }
    let src = format!(
        "method big 1 returns {{ load 0 {body} retv }}
         method f 1 returns {{ load 0 invokestatic big retv }}"
    );
    // 102 instructions: over the 64-instruction inlining budget.
    let g = build(&src, "f", &BuildOptions::default()).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Invoke { .. })), 1);
}

#[test]
fn node_budget_bails_out() {
    let mut body = String::new();
    // One constant and one add per iteration: past the 20 000-node
    // budget.
    for _ in 0..20_001 {
        body.push_str("const 1 add ");
    }
    let src = format!("method f 1 returns {{ load 0 {body} retv }}");
    assert_eq!(
        build(&src, "f", &BuildOptions::default()).unwrap_err(),
        Bailout::TooLarge
    );
}

#[test]
fn irreducible_control_flow_bails_out() {
    // Two blocks jumping into each other's middles — impossible to
    // express with structured source, so assemble raw instructions:
    //   0: load0; 1: ifcmp -> 5 (into the middle of region B)
    //   ...region A: 2,3,4 -> jumps to 7 (middle of B region)... build a
    // classic irreducible pair: entry branches to L1 or L2; L1 jumps into
    // L2's body and vice versa.
    let mut pb = ProgramBuilder::new();
    let method = pea_bytecode::Method {
        class: None,
        name: "f".into(),
        param_count: 1,
        returns_value: true,
        is_static: true,
        is_synchronized: false,
        max_locals: 2,
        code: vec![
            // The classic irreducible pair: a cycle A ⇄ B entered at both
            // A (fall-through) and B (branch) — neither dominates the
            // other, so there is no natural loop header.
            Insn::Load(0),                           // 0
            Insn::Const(0),                          // 1
            Insn::IfCmp(pea_bytecode::CmpOp::Eq, 6), // 2: entry → B
            Insn::Const(1),                          // 3: A
            Insn::Store(1),                          // 4
            Insn::Goto(6),                           // 5: A → B
            Insn::Load(1),                           // 6: B
            Insn::Const(5),                          // 7
            Insn::IfCmp(pea_bytecode::CmpOp::Lt, 3), // 8: B → A (cycle)
            Insn::Load(1),                           // 9: exit
            Insn::ReturnValue,                       // 10
        ],
        exception_table: vec![],
    };
    pb.add_method(method);
    let program = pb.build().unwrap();
    pea_bytecode::verify_program(&program).unwrap();
    let f = program.static_method_by_name("f").unwrap();
    let err = build_graph(&program, f, None, &BuildOptions::default()).unwrap_err();
    // Depending on DFS order this surfaces as an irreducible edge.
    assert_eq!(err, Bailout::Irreducible);
}

#[test]
fn both_speculation_directions_work() {
    let src = "method f 1 returns {
        load 0 const 0 ifcmp lt Lneg
        const 1 retv
    Lneg:
        const -1 retv
    }";
    let program = parse_program(src).unwrap();
    let f = program.static_method_by_name("f").unwrap();

    // Never taken → guard, fall-through survives.
    let mut profiles = ProfileStore::new();
    for _ in 0..50 {
        profiles.record_branch(f, 2, false);
    }
    let g = build_graph(&program, f, Some(&profiles), &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Guard { .. })), 1);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Return)), 1);

    // Always taken → guard, taken side survives.
    let mut profiles = ProfileStore::new();
    for _ in 0..50 {
        profiles.record_branch(f, 2, true);
    }
    let g = build_graph(&program, f, Some(&profiles), &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Guard { .. })), 1);
    let guard = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::Guard { .. }))
        .unwrap();
    assert!(matches!(
        g.kind(guard),
        NodeKind::Guard { negated: false, .. }
    ));

    // Mixed profile → no speculation, both branches compiled.
    let mut profiles = ProfileStore::new();
    for i in 0..50 {
        profiles.record_branch(f, 2, i % 2 == 0);
    }
    let g = build_graph(&program, f, Some(&profiles), &BuildOptions::default()).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Guard { .. })), 0);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::If)), 1);
}

#[test]
fn monomorphic_profile_devirtualizes_with_type_guard() {
    let src = "
        class A { }
        class B extends A { }
        method virtual A.m 1 returns { const 1 retv }
        method virtual B.m 1 returns { const 2 retv }
        method f 1 returns { cnull checkcast A invokevirtual A.m retv }";
    let program = parse_program(src).unwrap();
    let f = program.static_method_by_name("f").unwrap();
    let b = program.class_by_name("B").unwrap();
    let mut profiles = ProfileStore::new();
    for _ in 0..50 {
        profiles.record_receiver(f, 2, b);
    }
    let g = build_graph(&program, f, Some(&profiles), &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    // Two implementations exist, so CHA cannot help; the receiver profile
    // must produce an exact-type guard plus the inlined B.m body.
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Invoke { .. })), 0);
    assert_eq!(
        count(&g, |k| matches!(
            k,
            NodeKind::InstanceOf { exact: true, .. }
        )),
        1
    );
    assert!(count(&g, |k| matches!(k, NodeKind::Guard { .. })) >= 1);
}

#[test]
fn polymorphic_call_builds_inline_cache() {
    let src = "
        class A { }
        class B extends A { }
        method virtual A.m 1 returns { const 1 retv }
        method virtual B.m 1 returns { const 2 retv }
        method f 1 returns { cnull checkcast A invokevirtual A.m retv }";
    let program = parse_program(src).unwrap();
    let f = program.static_method_by_name("f").unwrap();
    let a = program.class_by_name("A").unwrap();
    let b = program.class_by_name("B").unwrap();
    let mut profiles = ProfileStore::new();
    for i in 0..50 {
        profiles.record_receiver(f, 2, if i % 2 == 0 { a } else { b });
    }

    // The two-class profile becomes a polymorphic inline cache — one exact type test per observed class, a direct (devirtualized)
    // call per arm, and a deopt on the fall-through.
    let g = build_graph(&program, f, Some(&profiles), &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(
        count(&g, |k| matches!(
            k,
            NodeKind::Invoke {
                virtual_call: true,
                ..
            }
        )),
        0
    );
    assert_eq!(
        count(&g, |k| matches!(
            k,
            NodeKind::Invoke {
                virtual_call: false,
                ..
            }
        )),
        2
    );
    assert_eq!(
        count(&g, |k| matches!(
            k,
            NodeKind::InstanceOf { exact: true, .. }
        )),
        2
    );
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Deopt { .. })), 1);
}

#[test]
fn frame_states_chain_across_two_inline_levels() {
    let src = "
        class Box { field v int }
        static g ref
        method inner 1 returns {
            new Box store 1
            load 1 load 0 putfield Box.v
            load 1 putstatic g
            load 0 retv
        }
        method middle 1 returns { load 0 invokestatic inner retv }
        method outer 1 returns { load 0 invokestatic middle retv }";
    let g = build(src, "outer", &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    // The putstatic deep inside carries a three-deep frame state chain.
    let put = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::PutStatic { .. }))
        .unwrap();
    let mut fs = g.node(put).state_after.unwrap();
    let mut depth = 1;
    while let Some(outer_idx) = g.frame_state_data(fs).outer_index() {
        fs = g.node(fs).inputs()[outer_idx];
        depth += 1;
    }
    assert_eq!(depth, 3, "inner → middle → outer chain");
}

#[test]
fn synchronized_root_method_brackets_with_monitors() {
    let src = "
        class C { field v int }
        method virtual C.get 1 returns synchronized {
            load 0 getfield C.v retv
        }";
    let program = parse_program(src).unwrap();
    let c = program.class_by_name("C").unwrap();
    let get = program.declared_method_by_name(c, "get").unwrap();
    let g = build_graph(&program, get, None, &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::MonitorEnter)), 1);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::MonitorExit)), 1);
    // The enter's frame state records a sync-method lock.
    let me = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::MonitorEnter))
        .unwrap();
    let fs = g.node(me).state_after.unwrap();
    let data = g.frame_state_data(fs);
    assert_eq!(data.n_locks, 1);
    assert!(data.lock_is_from_sync(0) && data.sync_flags_fit());
}

#[test]
fn dead_code_after_return_is_unreachable_not_fatal() {
    // The assembler can express dead blocks (label never targeted).
    let mut pb = ProgramBuilder::new();
    let mut mb = MethodBuilder::new_static("f", 1, true);
    mb.load(0);
    mb.return_value();
    // dead tail
    mb.const_(42);
    mb.return_value();
    pb.add_method(mb.build().unwrap());
    let program = pb.build().unwrap();
    let f = program.static_method_by_name("f").unwrap();
    let g = build_graph(&program, f, None, &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Return)), 1);
}

// ---- athrow lowering shapes -------------------------------------------
//
// `lower_throw` has three output shapes: a static edge straight into a
// matching handler (thrown class known exactly), an `InstanceOf` dispatch
// cascade in table order (thrown class only known at runtime), and a
// monitor-releasing `Unwind` tail for the uncaught remainder.

#[test]
fn statically_matched_throw_becomes_handler_edge() {
    // The thrown object is a direct `new E`, and the covering entry
    // catches E: the builder must wire the edge statically — no
    // InstanceOf test, no Unwind sink, one Return per path.
    let src = "
        class E { field c int }
        method f 1 returns {
            try Ls Le Lh E
        Ls:
            new E store 1
            load 1 load 0 putfield E.c
            load 1 athrow
        Le:
        Lh:
            checkcast E getfield E.c retv
        }";
    let g = build(src, "f", &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(
        count(&g, |k| matches!(k, NodeKind::Unwind)),
        0,
        "a statically caught throw never reaches the Unwind sink"
    );
    assert_eq!(
        count(&g, |k| matches!(k, NodeKind::InstanceOf { .. })),
        0,
        "exact static knowledge needs no dispatch cascade"
    );
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Return)), 1);
}

#[test]
fn unknown_throw_class_builds_instanceof_cascade() {
    // The rethrown parameter's class is unknown, and two typed entries
    // cover the throw: the builder must test them in table order with
    // InstanceOf and funnel the double miss into Unwind.
    let src = "
        class E1 { field a int }
        class E2 { field b int }
        method f 1 {
            try Ls Le L1 E1
            try Ls Le L2 E2
        Ls:
            load 0 athrow
        Le:
            ret
        L1:
            pop ret
        L2:
            pop ret
        }";
    let g = build(src, "f", &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(
        count(&g, |k| matches!(k, NodeKind::InstanceOf { .. })),
        2,
        "one type test per covering typed entry"
    );
    assert_eq!(
        count(&g, |k| matches!(k, NodeKind::Unwind)),
        1,
        "the double miss leaves the frame"
    );
}

#[test]
fn uncaught_throw_releases_monitors_before_unwind() {
    // The frame holds a monitor when the uncovered throw fires: the
    // builder must emit the MonitorExit before the Unwind sink — exactly
    // what the interpreter does when unwinding past the frame.
    let src = "
        class E { field c int }
        class Lk { field v int }
        method f 1 {
            new Lk store 1
            load 1 monitorenter
            new E athrow
        }";
    let g = build(src, "f", &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Unwind)), 1);
    assert_eq!(
        count(&g, |k| matches!(k, NodeKind::MonitorExit)),
        1,
        "the held monitor is released on the unwind path"
    );
    // The exit must sit on the path into the sink, not after it: walk
    // control flow backwards from Unwind and require a MonitorExit.
    let unwind = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::Unwind))
        .unwrap();
    let mut cur = Some(unwind);
    let mut saw_exit = false;
    while let Some(n) = cur {
        if matches!(g.kind(n), NodeKind::MonitorExit) {
            saw_exit = true;
            break;
        }
        cur = g.live_nodes().find(|&p| g.next(p) == Some(n));
    }
    assert!(saw_exit, "MonitorExit must dominate the Unwind sink");
}

#[test]
fn catch_all_entry_short_circuits_the_cascade() {
    // A catch-all listed after a typed entry: the typed entry gets its
    // InstanceOf test, the catch-all consumes everything else, and no
    // Unwind remains.
    let src = "
        class E1 { field a int }
        method f 1 {
            try Ls Le L1 E1
            try Ls Le L2 *
        Ls:
            load 0 athrow
        Le:
            ret
        L1:
            pop ret
        L2:
            pop ret
        }";
    let g = build(src, "f", &BuildOptions::default()).unwrap();
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::InstanceOf { .. })), 1);
    assert_eq!(
        count(&g, |k| matches!(k, NodeKind::Unwind)),
        0,
        "a covering catch-all leaves no uncaught remainder"
    );
}
