//! Frame-state rewriting details (§5.5): mapping structure, outer-chain
//! handling, lock recording, and snapshot semantics.

use pea_bytecode::MethodId;
use pea_core::fixtures::key_program;
use pea_core::{run_pea, PeaOptions};
use pea_ir::verify::verify;
use pea_ir::{FrameStateData, Graph, NodeId, NodeKind};

fn vom_nodes(g: &Graph) -> Vec<NodeId> {
    g.live_nodes()
        .filter(|&n| matches!(g.kind(n), NodeKind::VirtualObjectMapping { .. }))
        .collect()
}

/// A virtual object referenced from an *outer* (caller) frame state gets a
/// mapping there too.
#[test]
fn outer_frame_state_slots_are_rewritten() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let obj = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, obj);
    // Outer state (caller) holds the object in a local.
    let outer = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 4, 2, 0, 0, false),
        &[x, obj],
    );
    // Inner state chains to it.
    let inner = g.add_frame_state(
        FrameStateData::new(p.m_create_value, 2, 1, 0, 0, true),
        &[x, outer],
    );
    let put = g.add(NodeKind::PutStatic { id: p.s_cache_key }, &[x]);
    // PutStatic of an int would be odd but is legal here; it simply keeps
    // the frame state alive.
    g.set_next(obj, put);
    g.set_state_after(put, Some(inner));
    let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[obj]);
    g.set_next(put, load);
    let ret = g.add(NodeKind::Return, &[load]);
    g.set_next(load, ret);
    verify(&g).unwrap();

    run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    let voms = vom_nodes(&g);
    assert_eq!(voms.len(), 1, "one mapping for the object");
    // The outer state's local slot now references the mapping.
    let outer_inputs = g.node(outer).inputs();
    assert_eq!(outer_inputs[1], voms[0]);
}

/// Lock counts are captured in the mapping: a virtual object locked twice
/// at the frame state point records `lock_count = 2`.
#[test]
fn mapping_records_lock_depth() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let obj = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, obj);
    let me1 = g.add(NodeKind::MonitorEnter, &[obj]);
    g.set_next(obj, me1);
    let st1 = {
        let mut d = FrameStateData::new(p.m_get_value, 1, 1, 0, 1, false);
        d.lock_from_sync = 0;
        g.add_frame_state(d, &[x, obj])
    };
    g.set_state_after(me1, Some(st1));
    let me2 = g.add(NodeKind::MonitorEnter, &[obj]);
    g.set_next(me1, me2);
    let st2 = {
        let mut d = FrameStateData::new(p.m_get_value, 2, 1, 0, 2, false);
        d.lock_from_sync = 0;
        g.add_frame_state(d, &[x, obj, obj])
    };
    g.set_state_after(me2, Some(st2));
    // A side effect while doubly locked keeps st2 live.
    let put = g.add(
        NodeKind::PutStatic {
            id: p.s_cache_value,
        },
        &[x],
    );
    g.set_next(me2, put);
    let st3 = {
        let mut d = FrameStateData::new(p.m_get_value, 3, 1, 0, 2, false);
        d.lock_from_sync = 0;
        g.add_frame_state(d, &[x, obj, obj])
    };
    g.set_state_after(put, Some(st3));
    let mx1 = g.add(NodeKind::MonitorExit, &[obj]);
    g.set_next(put, mx1);
    let st4 = {
        let mut d = FrameStateData::new(p.m_get_value, 4, 1, 0, 1, false);
        d.lock_from_sync = 0;
        g.add_frame_state(d, &[x, obj])
    };
    g.set_state_after(mx1, Some(st4));
    let mx2 = g.add(NodeKind::MonitorExit, &[obj]);
    g.set_next(mx1, mx2);
    let st5 = g.add_frame_state(FrameStateData::new(p.m_get_value, 5, 1, 0, 0, false), &[x]);
    g.set_state_after(mx2, Some(st5));
    let ret = g.add(NodeKind::Return, &[]);
    g.set_next(mx2, ret);
    verify(&g).unwrap();

    let r = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    assert_eq!(r.elided_monitors, 4, "both pairs elided");
    // The put's frame state saw the object at depth 2.
    let mapping_depths: Vec<u32> = vom_nodes(&g)
        .into_iter()
        .map(|n| match g.kind(n) {
            NodeKind::VirtualObjectMapping { lock_count, .. } => *lock_count,
            _ => unreachable!(),
        })
        .collect();
    assert!(
        mapping_depths.contains(&2),
        "a mapping must record depth 2, got {mapping_depths:?}"
    );
}

/// Two frame-state slots holding the same virtual object share one
/// mapping node (and cyclic structures terminate).
#[test]
fn shared_slots_share_one_mapping() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let a = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, a);
    // a.ref = a (self-cycle) so the mapping references itself.
    let store = g.add(NodeKind::StoreField { field: p.f_ref }, &[a, a]);
    g.set_next(a, store);
    let st0 = g.add_frame_state(FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false), &[x]);
    g.set_state_after(store, Some(st0));
    // Both locals hold the same object.
    let put = g.add(
        NodeKind::PutStatic {
            id: p.s_cache_value,
        },
        &[x],
    );
    g.set_next(store, put);
    let st = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 2, 3, 0, 0, false),
        &[x, a, a],
    );
    g.set_state_after(put, Some(st));
    let ret = g.add(NodeKind::Return, &[]);
    g.set_next(put, ret);
    verify(&g).unwrap();

    run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    let voms = vom_nodes(&g);
    assert_eq!(voms.len(), 1, "single shared mapping");
    let vom = voms[0];
    let inputs = g.node(st).inputs();
    assert_eq!(inputs[1], vom);
    assert_eq!(inputs[2], vom);
    // The self-referential field points back at the mapping itself.
    assert_eq!(
        g.node(vom).inputs()[1],
        vom,
        "cyclic mapping closes on itself"
    );
}

/// A frame state is rewritten exactly once, at its earliest flow position:
/// a later materialization does not retroactively change the snapshot.
#[test]
fn snapshot_taken_at_earliest_position() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let obj = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, obj);
    let store = g.add(NodeKind::StoreField { field: p.f_idx }, &[obj, x]);
    g.set_next(obj, store);
    let shared = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 1, 2, 0, 0, false),
        &[x, obj],
    );
    g.set_state_after(store, Some(shared));
    // Escape afterwards.
    let put = g.add(NodeKind::PutStatic { id: p.s_cache_key }, &[obj]);
    g.set_next(store, put);
    let st2 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 2, 2, 0, 0, false),
        &[x, obj],
    );
    g.set_state_after(put, Some(st2));
    // A guard BEFORE the escape and one AFTER it both share the store's
    // frame state. The rewrite happens at the earliest *live carrier* —
    // the first guard, where the object is still virtual — so the shared
    // state snapshots a mapping; the post-escape state (attached to the
    // putstatic itself) uses the materialized value.
    let cond = g.const_int(1);
    let guard_before = g.add(
        NodeKind::Guard {
            reason: pea_ir::DeoptReason::UntakenBranch,
            negated: false,
        },
        &[cond],
    );
    g.insert_fixed_before(put, guard_before);
    g.set_state_after(guard_before, Some(shared));
    let guard_after = g.add(
        NodeKind::Guard {
            reason: pea_ir::DeoptReason::UntakenBranch,
            negated: false,
        },
        &[cond],
    );
    g.set_next(put, guard_after);
    g.set_state_after(guard_after, Some(shared));
    let ret = g.add(NodeKind::Return, &[]);
    g.set_next(guard_after, ret);
    verify(&g).unwrap();

    run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).unwrap();
    let shared_slot = g.node(shared).inputs()[1];
    assert!(
        matches!(g.kind(shared_slot), NodeKind::VirtualObjectMapping { .. }),
        "pre-escape snapshot stays virtual, got {:?}",
        g.kind(shared_slot)
    );
    let later_slot = g.node(st2).inputs()[1];
    assert!(
        matches!(g.kind(later_slot), NodeKind::AllocatedObject { .. }),
        "post-escape state uses the materialized value, got {:?}",
        g.kind(later_slot)
    );
}

/// `lock_from_sync` flags survive frame-state construction (checked by
/// the verifier) and drive the interpreter's auto-release on return —
/// covered end-to-end in `tests/end_to_end.rs`; here we check the data
/// plumbing.
#[test]
fn lock_from_sync_length_is_verified() {
    let (_, p) = key_program();
    let mut g = Graph::new();
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let mut d = FrameStateData::new(MethodId(0), 0, 1, 0, 1, false);
    d.lock_from_sync = 0b11; // flags a second lock of one
    let _fs = g.add_frame_state(d, &[x, x]);
    let ret = g.add(NodeKind::Return, &[]);
    g.set_next(g.start, ret);
    let err = verify(&g).unwrap_err();
    assert!(err.reason.contains("lock_from_sync"), "{err}");
    let _ = p;
}
