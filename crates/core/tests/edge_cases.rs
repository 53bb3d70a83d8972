//! Edge-case coverage for the analysis: virtual arrays, type/identity
//! check folding, defensive materialization, multi-way merges, nested
//! loops, and escaped-state merging.

use pea_bytecode::{ClassId, MethodId, ProgramBuilder, StaticId, ValueKind};
use pea_core::{run_pea, PeaOptions};
use pea_ir::verify::verify;
use pea_ir::{AllocShape, FrameStateData, Graph, NodeId, NodeKind};

fn hierarchy() -> (pea_bytecode::Program, ClassId, ClassId, ClassId, StaticId) {
    let mut pb = ProgramBuilder::new();
    let base = pb.add_class("Base", None);
    pb.add_field(base, "x", ValueKind::Int);
    let derived = pb.add_class("Derived", Some(base));
    let other = pb.add_class("Other", None);
    pb.add_field(other, "y", ValueKind::Ref);
    let g = pb.add_static("g", ValueKind::Ref);
    (pb.build().unwrap(), base, derived, other, g)
}

fn count(g: &Graph, pred: impl Fn(&NodeKind) -> bool) -> usize {
    g.live_nodes().filter(|&n| pred(g.kind(n))).count()
}

fn fs(g: &mut Graph, m: MethodId, bci: u32, locals: Vec<NodeId>) -> NodeId {
    let data = FrameStateData::new(m, bci, locals.len() as u32, 0, 0, false);
    g.add_frame_state(data, locals)
}

#[test]
fn virtual_array_constant_accesses_fold() {
    let (program, ..) = hierarchy();
    let mut g = Graph::new();
    let p = g.add(NodeKind::Param { index: 0 }, vec![]);
    let len = g.const_int(3);
    let arr = g.add(
        NodeKind::NewArray {
            kind: ValueKind::Int,
        },
        vec![len],
    );
    g.set_next(g.start, arr);
    let idx1 = g.const_int(1);
    let store = g.add(NodeKind::StoreIndexed, vec![arr, idx1, p]);
    g.set_next(arr, store);
    let st = fs(&mut g, MethodId(0), 1, vec![p]);
    g.set_state_after(store, Some(st));
    let load = g.add(NodeKind::LoadIndexed, vec![arr, idx1]);
    g.set_next(store, load);
    let alen = g.add(NodeKind::ArrayLen, vec![arr]);
    g.set_next(load, alen);
    let sum = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        vec![load, alen],
    );
    let ret = g.add(NodeKind::Return, vec![sum]);
    g.set_next(alen, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.virtualized_allocs, 1);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::NewArray { .. })), 0);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::ArrayLen)), 0);
    // sum = p + 3, with the length folded to a constant.
    let inputs = g.node(sum).inputs();
    assert_eq!(inputs[0], p);
    assert!(matches!(g.kind(inputs[1]), NodeKind::ConstInt { value: 3 }));
}

#[test]
fn dynamic_index_materializes_the_array() {
    let (program, ..) = hierarchy();
    let mut g = Graph::new();
    let p = g.add(NodeKind::Param { index: 0 }, vec![]);
    let len = g.const_int(4);
    let arr = g.add(
        NodeKind::NewArray {
            kind: ValueKind::Int,
        },
        vec![len],
    );
    g.set_next(g.start, arr);
    // Store at a non-constant index: the array must exist.
    let store = g.add(NodeKind::StoreIndexed, vec![arr, p, p]);
    g.set_next(arr, store);
    let st = fs(&mut g, MethodId(0), 1, vec![p]);
    g.set_state_after(store, Some(st));
    let ret = g.add(NodeKind::Return, vec![]);
    g.set_next(store, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.materializations, 1);
    let commit = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::Commit { .. }))
        .unwrap();
    let NodeKind::Commit { objects } = g.kind(commit) else {
        unreachable!()
    };
    assert!(matches!(
        objects[0].shape,
        AllocShape::Array {
            kind: ValueKind::Int,
            length: 4
        }
    ));
    // The store survives and now targets the allocated object.
    assert_eq!(count(&g, |k| matches!(k, NodeKind::StoreIndexed)), 1);
}

#[test]
fn oversized_array_is_not_virtualized() {
    let (program, ..) = hierarchy();
    let mut g = Graph::new();
    let len = g.const_int(1000);
    let arr = g.add(
        NodeKind::NewArray {
            kind: ValueKind::Int,
        },
        vec![len],
    );
    g.set_next(g.start, arr);
    let ret = g.add(NodeKind::Return, vec![]);
    g.set_next(arr, ret);
    let r = run_pea(&mut g, &program, &PeaOptions::default());
    // Longer than 32 elements: the allocation stays (dead-code
    // pruning is not PEA's job for unused real allocations).
    assert_eq!(r.virtualized_allocs, 0);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::NewArray { .. })), 1);
}

#[test]
fn instanceof_folds_with_hierarchy() {
    let (program, base, derived, other, _) = hierarchy();
    let mut g = Graph::new();
    let obj = g.add(NodeKind::New { class: derived }, vec![]);
    g.set_next(g.start, obj);
    let io_base = g.add(
        NodeKind::InstanceOf {
            class: base,
            exact: false,
        },
        vec![obj],
    );
    g.set_next(obj, io_base);
    let io_base_exact = g.add(
        NodeKind::InstanceOf {
            class: base,
            exact: true,
        },
        vec![obj],
    );
    g.set_next(io_base, io_base_exact);
    let io_other = g.add(
        NodeKind::InstanceOf {
            class: other,
            exact: false,
        },
        vec![obj],
    );
    g.set_next(io_base_exact, io_other);
    let isnull = g.add(NodeKind::IsNull, vec![obj]);
    g.set_next(io_other, isnull);
    let s1 = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        vec![io_base, io_base_exact],
    );
    let s2 = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        vec![io_other, isnull],
    );
    let s3 = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        vec![s1, s2],
    );
    let ret = g.add(NodeKind::Return, vec![s3]);
    g.set_next(isnull, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.folded_checks, 4);
    // derived instanceof base = 1; exact-base = 0; other = 0; isnull = 0.
    assert!(matches!(
        g.kind(g.node(s1).inputs()[0]),
        NodeKind::ConstInt { value: 1 }
    ));
    assert!(matches!(
        g.kind(g.node(s1).inputs()[1]),
        NodeKind::ConstInt { value: 0 }
    ));
    assert_eq!(count(&g, |k| matches!(k, NodeKind::New { .. })), 0);
}

#[test]
fn failing_checkcast_materializes_and_survives() {
    let (program, _, derived, other, _) = hierarchy();
    let mut g = Graph::new();
    let obj = g.add(NodeKind::New { class: derived }, vec![]);
    g.set_next(g.start, obj);
    let cast = g.add(NodeKind::CheckCast { class: other }, vec![obj]);
    g.set_next(obj, cast);
    let ret = g.add(NodeKind::Return, vec![]);
    g.set_next(cast, ret);
    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    // The cast will raise at runtime: it must stay, with a real object.
    assert_eq!(count(&g, |k| matches!(k, NodeKind::CheckCast { .. })), 1);
    assert_eq!(r.materializations, 1);
}

#[test]
fn monitor_exit_without_enter_materializes_defensively() {
    let (program, base, ..) = hierarchy();
    let mut g = Graph::new();
    let obj = g.add(NodeKind::New { class: base }, vec![]);
    g.set_next(g.start, obj);
    let mx = g.add(NodeKind::MonitorExit, vec![obj]);
    g.set_next(obj, mx);
    let p = g.add(NodeKind::Param { index: 0 }, vec![]);
    let st = fs(&mut g, MethodId(0), 1, vec![p]);
    g.set_state_after(mx, Some(st));
    let ret = g.add(NodeKind::Return, vec![]);
    g.set_next(mx, ret);
    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    // Unbalanced exit: keep it (it raises IllegalMonitorState at runtime,
    // exactly like the interpreter).
    assert_eq!(count(&g, |k| matches!(k, NodeKind::MonitorExit)), 1);
    assert_eq!(r.materializations, 1);
    assert_eq!(r.elided_monitors, 0);
}

#[test]
fn three_way_merge_builds_field_phi() {
    let (program, base, ..) = hierarchy();
    let field = program.class(base).declared_fields[0];
    let mut g = Graph::new();
    let sel = g.add(NodeKind::Param { index: 0 }, vec![]);
    let obj = g.add(NodeKind::New { class: base }, vec![]);
    g.set_next(g.start, obj);
    // if (sel) {x=1} else { if (sel2) {x=2} else {x=3} } — three paths
    // into a second merge via nesting.
    let iff = g.add(NodeKind::If, vec![sel]);
    g.set_next(obj, iff);
    let b1 = g.add(NodeKind::Begin, vec![]);
    let belse = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(iff, b1, belse);
    let mut ends = Vec::new();
    let c1 = g.const_int(1);
    let s1 = g.add(NodeKind::StoreField { field }, vec![obj, c1]);
    g.set_next(b1, s1);
    let st1 = fs(&mut g, MethodId(0), 1, vec![sel]);
    g.set_state_after(s1, Some(st1));
    let e1 = g.add(NodeKind::End, vec![]);
    g.set_next(s1, e1);
    ends.push(e1);
    // nested if
    let sel2 = g.add(NodeKind::Param { index: 1 }, vec![]);
    let iff2 = g.add(NodeKind::If, vec![sel2]);
    g.set_next(belse, iff2);
    let b2 = g.add(NodeKind::Begin, vec![]);
    let b3 = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(iff2, b2, b3);
    for (bb, v) in [(b2, 2i64), (b3, 3i64)] {
        let c = g.const_int(v);
        let s = g.add(NodeKind::StoreField { field }, vec![obj, c]);
        g.set_next(bb, s);
        let st = fs(&mut g, MethodId(0), 2, vec![sel]);
        g.set_state_after(s, Some(st));
        let e = g.add(NodeKind::End, vec![]);
        g.set_next(s, e);
        ends.push(e);
    }
    // inner merge of the two else-paths, then outer merge with path 1.
    let inner = g.add(
        NodeKind::Merge {
            ends: vec![ends[1], ends[2]],
        },
        vec![],
    );
    let e_inner = g.add(NodeKind::End, vec![]);
    g.set_next(inner, e_inner);
    let outer = g.add(
        NodeKind::Merge {
            ends: vec![ends[0], e_inner],
        },
        vec![],
    );
    let load = g.add(NodeKind::LoadField { field }, vec![obj]);
    g.set_next(outer, load);
    let ret = g.add(NodeKind::Return, vec![load]);
    g.set_next(load, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::New { .. })), 0);
    assert_eq!(r.materializations, 0, "stays virtual across both merges");
    // Return value is a phi over (1, phi(2, 3)).
    let ret_in = g.node(ret).inputs()[0];
    assert!(matches!(g.kind(ret_in), NodeKind::Phi { .. }));
}

#[test]
fn nested_loops_keep_object_virtual() {
    let (program, base, ..) = hierarchy();
    let field = program.class(base).declared_fields[0];
    let mut g = Graph::new();
    let p = g.add(NodeKind::Param { index: 0 }, vec![]);
    let obj = g.add(NodeKind::New { class: base }, vec![]);
    g.set_next(g.start, obj);

    // outer loop
    let e0 = g.add(NodeKind::End, vec![]);
    g.set_next(obj, e0);
    let outer = g.add(NodeKind::LoopBegin { ends: vec![e0] }, vec![]);
    let cmp_o = g.add(
        NodeKind::Compare {
            op: pea_bytecode::CmpOp::Lt,
        },
        vec![p, p],
    );
    let if_o = g.add(NodeKind::If, vec![cmp_o]);
    g.set_next(outer, if_o);
    let body_o = g.add(NodeKind::Begin, vec![]);
    let exit_o = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(if_o, body_o, exit_o);

    // inner loop, updating the object's field
    let e1 = g.add(NodeKind::End, vec![]);
    g.set_next(body_o, e1);
    let inner = g.add(NodeKind::LoopBegin { ends: vec![e1] }, vec![]);
    let load_i = g.add(NodeKind::LoadField { field }, vec![obj]);
    g.set_next(inner, load_i);
    let one = g.const_int(1);
    let inc = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        vec![load_i, one],
    );
    let store_i = g.add(NodeKind::StoreField { field }, vec![obj, inc]);
    g.set_next(load_i, store_i);
    let st = fs(&mut g, MethodId(0), 3, vec![p]);
    g.set_state_after(store_i, Some(st));
    let cmp_i = g.add(
        NodeKind::Compare {
            op: pea_bytecode::CmpOp::Lt,
        },
        vec![inc, p],
    );
    let if_i = g.add(NodeKind::If, vec![cmp_i]);
    g.set_next(store_i, if_i);
    let cont_i = g.add(NodeKind::Begin, vec![]);
    let exit_i = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(if_i, cont_i, exit_i);
    let le_i = g.add(NodeKind::LoopEnd, vec![]);
    g.set_next(cont_i, le_i);
    g.add_merge_end(inner, le_i);
    // inner exit → outer back edge
    let le_o = g.add(NodeKind::LoopEnd, vec![]);
    g.set_next(exit_i, le_o);
    g.add_merge_end(outer, le_o);

    // outer exit: return obj.x
    let load_x = g.add(NodeKind::LoadField { field }, vec![obj]);
    g.set_next(exit_o, load_x);
    let ret = g.add(NodeKind::Return, vec![load_x]);
    g.set_next(load_x, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(count(&g, |k| matches!(k, NodeKind::New { .. })), 0);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::Commit { .. })), 0);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::LoadField { .. })), 0);
    assert!(r.loop_rounds >= 3, "both loops iterate: {}", r.loop_rounds);
}

#[test]
fn escaped_on_both_paths_merges_with_phi_of_materialized_values() {
    let (program, base, _, _, g_static) = hierarchy();
    let mut g = Graph::new();
    let sel = g.add(NodeKind::Param { index: 0 }, vec![]);
    let obj = g.add(NodeKind::New { class: base }, vec![]);
    g.set_next(g.start, obj);
    let iff = g.add(NodeKind::If, vec![sel]);
    g.set_next(obj, iff);
    let bt = g.add(NodeKind::Begin, vec![]);
    let bf = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(iff, bt, bf);
    let mut ends = Vec::new();
    for bb in [bt, bf] {
        // Escape on both paths (different commits).
        let put = g.add(NodeKind::PutStatic { id: g_static }, vec![obj]);
        g.set_next(bb, put);
        let st = fs(&mut g, MethodId(0), 1, vec![sel]);
        g.set_state_after(put, Some(st));
        let e = g.add(NodeKind::End, vec![]);
        g.set_next(put, e);
        ends.push(e);
    }
    let merge = g.add(NodeKind::Merge { ends }, vec![]);
    // Use the object after the merge so its state must survive.
    let put2 = g.add(NodeKind::PutStatic { id: g_static }, vec![obj]);
    g.set_next(merge, put2);
    let st = fs(&mut g, MethodId(0), 2, vec![sel]);
    g.set_state_after(put2, Some(st));
    let ret = g.add(NodeKind::Return, vec![]);
    g.set_next(put2, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.materializations, 2, "one commit per branch");
    // The post-merge use sees a phi of the two allocated objects.
    let v = g.node(put2).inputs()[0];
    assert!(
        matches!(g.kind(v), NodeKind::Phi { .. }),
        "merged materialized value is a phi, got {:?}",
        g.kind(v)
    );
}

/// Fig. 6c: a phi whose inputs are two different nodes aliasing the same
/// virtual object (the allocation and a passing cast of it) becomes an
/// alias itself, so nothing materializes at the merge.
#[test]
fn phi_over_aliases_of_one_object_stays_virtual() {
    let (program, base, ..) = hierarchy();
    let field = program.class(base).declared_fields[0];
    let mut g = Graph::new();
    let sel = g.add(NodeKind::Param { index: 0 }, vec![]);
    let obj = g.add(NodeKind::New { class: base }, vec![]);
    g.set_next(g.start, obj);
    let iff = g.add(NodeKind::If, vec![sel]);
    g.set_next(obj, iff);
    let bt = g.add(NodeKind::Begin, vec![]);
    let bf = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(iff, bt, bf);
    let et = g.add(NodeKind::End, vec![]);
    g.set_next(bt, et);
    let cast = g.add(NodeKind::CheckCast { class: base }, vec![obj]);
    g.set_next(bf, cast);
    let ef = g.add(NodeKind::End, vec![]);
    g.set_next(cast, ef);
    let merge = g.add(NodeKind::Merge { ends: vec![et, ef] }, vec![]);
    let phi = g.add(NodeKind::Phi { merge }, vec![obj, cast]);
    let load = g.add(NodeKind::LoadField { field }, vec![phi]);
    g.set_next(merge, load);
    let ret = g.add(NodeKind::Return, vec![load]);
    g.set_next(load, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.materializations, 0, "the phi is an alias, not a use");
    assert_eq!(count(&g, |k| matches!(k, NodeKind::New { .. })), 0);
    assert!(matches!(
        g.kind(g.node(ret).inputs()[0]),
        NodeKind::ConstInt { value: 0 }
    ));
}

/// An object reachable only through a field of another virtual object
/// stays in the merged state (§5.3's liveness closure): after the merge
/// the field load still aliases it, and both stay virtual.
#[test]
fn object_live_only_through_a_field_survives_a_merge() {
    let (program, base, _, other, _) = hierarchy();
    let x = program.class(base).declared_fields[0];
    let y = program.class(other).declared_fields[0];
    let mut g = Graph::new();
    let sel = g.add(NodeKind::Param { index: 0 }, vec![]);
    let inner = g.add(NodeKind::New { class: base }, vec![]);
    g.set_next(g.start, inner);
    let c7 = g.const_int(7);
    let sx = g.add(NodeKind::StoreField { field: x }, vec![inner, c7]);
    g.set_next(inner, sx);
    let st = fs(&mut g, MethodId(0), 1, vec![sel]);
    g.set_state_after(sx, Some(st));
    let outer = g.add(NodeKind::New { class: other }, vec![]);
    g.set_next(sx, outer);
    let sy = g.add(NodeKind::StoreField { field: y }, vec![outer, inner]);
    g.set_next(outer, sy);
    let st = fs(&mut g, MethodId(0), 2, vec![sel]);
    g.set_state_after(sy, Some(st));
    let iff = g.add(NodeKind::If, vec![sel]);
    g.set_next(sy, iff);
    let bt = g.add(NodeKind::Begin, vec![]);
    let bf = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(iff, bt, bf);
    let et = g.add(NodeKind::End, vec![]);
    g.set_next(bt, et);
    let ef = g.add(NodeKind::End, vec![]);
    g.set_next(bf, ef);
    let merge = g.add(NodeKind::Merge { ends: vec![et, ef] }, vec![]);
    let ly = g.add(NodeKind::LoadField { field: y }, vec![outer]);
    g.set_next(merge, ly);
    let lx = g.add(NodeKind::LoadField { field: x }, vec![ly]);
    g.set_next(ly, lx);
    let ret = g.add(NodeKind::Return, vec![lx]);
    g.set_next(lx, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.materializations, 0);
    assert_eq!(count(&g, |k| matches!(k, NodeKind::New { .. })), 0);
    assert_eq!(g.node(ret).inputs()[0], c7);
}

/// Predecessors that disagree on a virtual object's lock count (only
/// unstructured locking, which the graph builder refuses, produces them)
/// make the merge materialize the object on every path, each commit
/// holding its own path's locks.
#[test]
fn merge_with_disagreeing_lock_counts_materializes() {
    let (program, base, ..) = hierarchy();
    let field = program.class(base).declared_fields[0];
    let mut g = Graph::new();
    let sel = g.add(NodeKind::Param { index: 0 }, vec![]);
    let obj = g.add(NodeKind::New { class: base }, vec![]);
    g.set_next(g.start, obj);
    let iff = g.add(NodeKind::If, vec![sel]);
    g.set_next(obj, iff);
    let bt = g.add(NodeKind::Begin, vec![]);
    let bf = g.add(NodeKind::Begin, vec![]);
    g.set_if_targets(iff, bt, bf);
    let enter = g.add(NodeKind::MonitorEnter, vec![obj]);
    g.set_next(bt, enter);
    let st = fs(&mut g, MethodId(0), 1, vec![sel]);
    g.set_state_after(enter, Some(st));
    let et = g.add(NodeKind::End, vec![]);
    g.set_next(enter, et);
    let ef = g.add(NodeKind::End, vec![]);
    g.set_next(bf, ef);
    let merge = g.add(NodeKind::Merge { ends: vec![et, ef] }, vec![]);
    let load = g.add(NodeKind::LoadField { field }, vec![obj]);
    g.set_next(merge, load);
    let ret = g.add(NodeKind::Return, vec![load]);
    g.set_next(load, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.materializations, 2, "one commit per predecessor");
    let locks: Vec<u32> = g
        .live_nodes()
        .filter_map(|n| match g.kind(n) {
            NodeKind::Commit { objects } => Some(objects[0].lock_count),
            _ => None,
        })
        .collect();
    let mut sorted = locks.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1], "{locks:?}");
}
