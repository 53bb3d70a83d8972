//! End-to-end tests of Partial Escape Analysis on the paper's own
//! examples (Listings 4–6, Figures 2–8).

use pea_bytecode::CmpOp;
use pea_core::fixtures::{fig7_loop_graph, key_program, listing5_graph, listing8_graph};
use pea_core::{run_ees, run_pea, PeaOptions};
use pea_ir::verify::verify;
use pea_ir::{FrameStateData, Graph, NodeKind};

fn count_kind(g: &Graph, pred: impl Fn(&NodeKind) -> bool) -> usize {
    g.live_nodes().filter(|&n| pred(g.kind(n))).count()
}

fn count_news(g: &Graph) -> usize {
    count_kind(g, |k| {
        matches!(k, NodeKind::New { .. } | NodeKind::NewArray { .. })
    })
}

fn count_commits(g: &Graph) -> usize {
    count_kind(g, |k| matches!(k, NodeKind::Commit { .. }))
}

fn count_monitors(g: &Graph) -> usize {
    count_kind(g, |k| {
        matches!(k, NodeKind::MonitorEnter | NodeKind::MonitorExit)
    })
}

fn count_voms(g: &Graph) -> usize {
    count_kind(g, |k| matches!(k, NodeKind::VirtualObjectMapping { .. }))
}

/// The transition from Listing 5 to Listing 6: the allocation moves into
/// the miss branch, the monitor operations disappear, the loads fold.
#[test]
fn listing5_to_listing6() {
    let (program, p) = key_program();
    let (mut g, nodes) = listing5_graph(&p);
    verify(&g).expect("fixture verifies");
    let before_news = count_news(&g);
    assert_eq!(before_news, 1);
    assert_eq!(count_monitors(&g), 2);

    let result = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("graph verifies after PEA");

    // Paper §4: "the allocation was moved into one branch of the if".
    assert_eq!(count_news(&g), 0, "the New node is gone");
    assert_eq!(count_commits(&g), 1, "one materialization on the miss path");
    assert_eq!(count_monitors(&g), 0, "lock elision removed the monitors");
    assert_eq!(
        count_kind(&g, |k| matches!(k, NodeKind::LoadField { .. })),
        2,
        "only the two loads of cacheKey's fields remain"
    );
    assert_eq!(result.virtualized_allocs, 1);
    assert_eq!(result.elided_monitors, 2);
    assert_eq!(result.materializations, 1);
    assert!(result.deleted_loads >= 2);
    assert!(result.deleted_stores >= 2);

    // The commit must sit on the miss path: walking forward from it must
    // reach the PutStatic before any control merge.
    let commit = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::Commit { .. }))
        .unwrap();
    let mut cur = commit;
    let mut found_put = false;
    for _ in 0..10 {
        match g.next(cur) {
            Some(next) => {
                if next == nodes.put_cache_key {
                    found_put = true;
                    break;
                }
                cur = next;
            }
            None => break,
        }
    }
    assert!(
        found_put,
        "commit is anchored immediately before the escape"
    );

    // The hit-path return is untouched; the miss-path putstatic now sees
    // the materialized object.
    assert!(matches!(
        g.kind(g.node(nodes.put_cache_key).inputs()[0]),
        NodeKind::AllocatedObject { .. }
    ));
}

/// Baseline comparison (§3, §6.2): the flow-insensitive analysis sees the
/// escape into `cacheKey` and gives up entirely — allocation, monitors and
/// loads all stay.
#[test]
fn listing5_under_ees_baseline_keeps_everything() {
    let (program, p) = key_program();
    let (mut g, _) = listing5_graph(&p);
    let result = run_ees(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("graph verifies after EES");
    assert_eq!(count_news(&g), 1, "allocation survives");
    assert_eq!(count_monitors(&g), 2, "monitors survive");
    assert_eq!(result.virtualized_allocs, 0);
    assert_eq!(result.materializations, 0);
}

/// A fully non-escaping variant (Listing 1→3): drop the miss-branch
/// escape and even the EES baseline removes the allocation.
#[test]
fn non_escaping_variant_optimized_by_both() {
    let (program, p) = key_program();
    for use_ees in [false, true] {
        let (mut g, nodes) = listing5_graph(&p);
        // Cut the escape: putstatic stores null instead of the key.
        let null = g.const_null();
        g.set_input(nodes.put_cache_key, 0, null);
        // Frame states still reference the allocation — that is fine for
        // PEA (virtual object mappings), but the EES baseline does not
        // consider frame states escapes either.
        let result = if use_ees {
            run_ees(&mut g, &program, &PeaOptions::default())
        } else {
            run_pea(&mut g, &program, &PeaOptions::default())
        };
        verify(&g).expect("verifies");
        assert_eq!(count_news(&g), 0, "ees={use_ees}: allocation removed");
        assert_eq!(count_commits(&g), 0, "ees={use_ees}: nothing materialized");
        assert_eq!(count_monitors(&g), 0, "ees={use_ees}: lock elided");
        assert_eq!(result.virtualized_allocs, 1);
    }
}

/// §5.5 / Figure 8: frame states referencing a virtual object are
/// rewritten to virtual-object mappings; the store disappears together
/// with its frame state.
#[test]
fn listing8_frame_states_get_mappings() {
    let (program, p) = key_program();
    let (mut g, _new_int, put) = listing8_graph(&p);
    verify(&g).expect("fixture verifies");
    let result = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("verifies after PEA");

    assert_eq!(count_news(&g), 0);
    assert_eq!(count_commits(&g), 0, "the object never escapes");
    assert!(result.deleted_stores >= 1);
    // The putstatic survives; its frame state now references a mapping.
    let fs = g.node(put).state_after.expect("state kept");
    let has_mapping = g
        .node(fs)
        .inputs()
        .iter()
        .any(|&i| matches!(g.kind(i), NodeKind::VirtualObjectMapping { .. }));
    assert!(has_mapping, "frame state references the virtual object");
    assert_eq!(count_voms(&g), 1);
    // The mapping's field value is the parameter x.
    let vom = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::VirtualObjectMapping { .. }))
        .unwrap();
    assert!(matches!(
        g.kind(g.node(vom).inputs()[0]),
        NodeKind::Param { index: 0 }
    ));
}

/// §5.4 / Figure 7: the loop is processed iteratively; the object stays
/// virtual through two back edges, its field becoming a loop phi, and the
/// allocation disappears entirely.
#[test]
fn fig7_loop_keeps_object_virtual() {
    let (program, p) = key_program();
    let (mut g, _new_key) = fig7_loop_graph(&p);
    verify(&g).expect("fixture verifies");
    let result = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("verifies after PEA");

    assert_eq!(count_news(&g), 0, "allocation eliminated");
    assert_eq!(count_commits(&g), 0, "never materialized");
    assert_eq!(
        count_kind(&g, |k| matches!(k, NodeKind::LoadField { .. })),
        0,
        "all loads folded"
    );
    assert!(
        result.loop_rounds >= 2,
        "fixpoint needed at least two rounds"
    );
    // The field became a loop phi with three inputs (entry + 2 back edges).
    let lb = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::LoopBegin))
        .unwrap();
    let phis = g.phis_of(lb);
    assert!(
        phis.iter().any(|&phi| g.node(phi).inputs().len() == 3),
        "loop phi over the virtual field"
    );
}

/// Loop-processing ablation: with loop support off, the object
/// materializes at the loop entry instead.
#[test]
fn fig7_loop_ablation_materializes_at_entry() {
    let (program, p) = key_program();
    let (mut g, _) = fig7_loop_graph(&p);
    let options = PeaOptions {
        loop_processing: false,
        ..PeaOptions::default()
    };
    let result = run_pea(&mut g, &program, &options);
    verify(&g).expect("verifies");
    assert_eq!(count_news(&g), 0, "New replaced by commit");
    assert_eq!(count_commits(&g), 1, "materialized once at entry");
    assert_eq!(result.materializations, 1);
    assert!(
        count_kind(&g, |k| matches!(k, NodeKind::LoadField { .. })) >= 3,
        "loads inside the loop stay"
    );
}

/// Loop-processing ablation with an object held by another: `a` (the
/// earlier allocation) references a fresh `b` at the loop entry, so
/// materializing `a` takes `b` along and the entry's remaining objects
/// must skip it.
#[test]
fn loop_ablation_materializes_a_held_object_once() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let p0 = g.add(NodeKind::Param { index: 0 }, &[]);
    let a = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, a);
    let b = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(a, b);
    let store = g.add(NodeKind::StoreField { field: p.f_ref }, &[a, b]);
    g.set_next(b, store);
    let st = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 1, 2, 0, 0, false),
        &[p0, a],
    );
    g.set_state_after(store, Some(st));
    let entry_end = g.add(NodeKind::End, &[]);
    g.set_next(store, entry_end);
    let lb = g.add_merge(NodeKind::LoopBegin, &[entry_end]);
    let load = g.add(NodeKind::LoadField { field: p.f_ref }, &[a]);
    g.set_next(lb, load);
    let zero = g.const_int(0);
    let cond = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[p0, zero]);
    let iff = g.add(NodeKind::If, &[cond]);
    g.set_next(load, iff);
    let body = g.add(NodeKind::Begin, &[]);
    let exit = g.add(NodeKind::LoopExit { loop_begin: lb }, &[]);
    g.set_if_targets(iff, body, exit);
    let le = g.add(NodeKind::LoopEnd, &[]);
    g.set_next(body, le);
    g.add_merge_end(lb, le);
    let ret = g.add(NodeKind::Return, &[load]);
    g.set_next(exit, ret);
    verify(&g).expect("fixture verifies");

    let options = PeaOptions {
        loop_processing: false,
        ..PeaOptions::default()
    };
    let result = run_pea(&mut g, &program, &options);
    verify(&g).expect("verifies");
    assert_eq!(count_news(&g), 0, "both New replaced by commits");
    assert_eq!(count_commits(&g), 1, "one group at the entry");
    assert_eq!(result.materializations, 1);
    assert_eq!(result.virtualized_allocs, 2);
}

/// Running the analysis twice must be idempotent: the second run finds
/// nothing left to do on the fully virtualized graph.
#[test]
fn pea_is_idempotent_on_listing8() {
    let (program, p) = key_program();
    let (mut g, ..) = listing8_graph(&p);
    let first = run_pea(&mut g, &program, &PeaOptions::default());
    assert!(first.changed());
    let second = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("verifies");
    assert!(!second.changed(), "second run is a no-op: {second:?}");
}

/// Lock-elision ablation: with it disabled, entering the monitor
/// materializes the object and the monitors stay.
#[test]
fn lock_elision_ablation() {
    let (program, p) = key_program();
    let (mut g, _) = listing5_graph(&p);
    let options = PeaOptions {
        lock_elision: false,
        ..PeaOptions::default()
    };
    let result = run_pea(&mut g, &program, &options);
    verify(&g).expect("verifies");
    assert_eq!(count_monitors(&g), 2, "monitors survive");
    assert_eq!(result.elided_monitors, 0);
    assert_eq!(count_commits(&g), 1, "materialized at the monitor");
    assert_eq!(count_news(&g), 0);
}

/// RefEq folding (§5.2): comparing two distinct virtual objects folds to
/// false, comparing an object with itself folds to true.
#[test]
fn refeq_folding_on_virtual_objects() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let a = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, a);
    let b = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(a, b);
    let eq_ab = g.add(NodeKind::RefEq, &[a, b]);
    g.set_next(b, eq_ab);
    let eq_aa = g.add(NodeKind::RefEq, &[a, a]);
    g.set_next(eq_ab, eq_aa);
    let sum = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        &[eq_ab, eq_aa],
    );
    let ret = g.add(NodeKind::Return, &[sum]);
    g.set_next(eq_aa, ret);
    verify(&g).expect("fixture verifies");

    let result = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("verifies");
    assert_eq!(count_news(&g), 0);
    assert_eq!(result.folded_checks, 2);
    // sum = 0 + 1; both inputs are now constants.
    let inputs = g.node(sum).inputs();
    assert!(matches!(g.kind(inputs[0]), NodeKind::ConstInt { value: 0 }));
    assert!(matches!(g.kind(inputs[1]), NodeKind::ConstInt { value: 1 }));
}

/// Virtual objects referencing each other (Fig. 4e/4f) escape as one
/// commit group, including cyclic structures.
#[test]
fn cyclic_virtual_objects_commit_together() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let a = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, a);
    let b = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(a, b);
    // a.ref = b; b.ref = a;
    let s1 = g.add(NodeKind::StoreField { field: p.f_ref }, &[a, b]);
    g.set_next(b, s1);
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let fs1 = g.add_frame_state(
        pea_ir::FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
        &[x],
    );
    g.set_state_after(s1, Some(fs1));
    let s2 = g.add(NodeKind::StoreField { field: p.f_ref }, &[b, a]);
    g.set_next(s1, s2);
    let fs2 = g.add_frame_state(
        pea_ir::FrameStateData::new(p.m_get_value, 2, 1, 0, 0, false),
        &[x],
    );
    g.set_state_after(s2, Some(fs2));
    // escape a
    let put = g.add(NodeKind::PutStatic { id: p.s_cache_key }, &[a]);
    g.set_next(s2, put);
    let fs3 = g.add_frame_state(
        pea_ir::FrameStateData::new(p.m_get_value, 3, 1, 0, 0, false),
        &[x],
    );
    g.set_state_after(put, Some(fs3));
    let ret = g.add(NodeKind::Return, &[]);
    g.set_next(put, ret);
    verify(&g).expect("fixture verifies");

    let result = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("verifies");
    assert_eq!(count_news(&g), 0);
    assert_eq!(result.materializations, 1, "one commit for the group");
    let commit = g
        .live_nodes()
        .find(|&n| matches!(g.kind(n), NodeKind::Commit { .. }))
        .unwrap();
    let NodeKind::Commit { objects } = g.kind(commit) else {
        unreachable!()
    };
    assert_eq!(objects.len(), 2, "both objects in the group");
    // The commit's inputs include AllocatedObjects of itself (the cycle).
    let self_refs = g
        .node(commit)
        .inputs()
        .iter()
        .filter(|&&i| {
            matches!(g.kind(i), NodeKind::AllocatedObject { .. }) && g.node(i).inputs()[0] == commit
        })
        .count();
    assert_eq!(self_refs, 2, "cyclic fields reference the commit itself");
}

/// Field-phi merging (§5.3, Fig. 6): an object whose field differs across
/// the branches of an if stays virtual, the field becoming a phi.
#[test]
fn merge_creates_field_phi() {
    let (program, p) = key_program();
    let mut g = Graph::new();
    let cond = g.add(NodeKind::Param { index: 0 }, &[]);
    let a = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, a);
    let iff = g.add(NodeKind::If, &[cond]);
    g.set_next(a, iff);
    let t = g.add(NodeKind::Begin, &[]);
    let f = g.add(NodeKind::Begin, &[]);
    g.set_if_targets(iff, t, f);
    let c1 = g.const_int(1);
    let s1 = g.add(NodeKind::StoreField { field: p.f_idx }, &[a, c1]);
    g.set_next(t, s1);
    let fs1 = g.add_frame_state(
        pea_ir::FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
        &[cond],
    );
    g.set_state_after(s1, Some(fs1));
    let te = g.add(NodeKind::End, &[]);
    g.set_next(s1, te);
    let c2 = g.const_int(2);
    let s2 = g.add(NodeKind::StoreField { field: p.f_idx }, &[a, c2]);
    g.set_next(f, s2);
    let fs2 = g.add_frame_state(
        pea_ir::FrameStateData::new(p.m_get_value, 2, 1, 0, 0, false),
        &[cond],
    );
    g.set_state_after(s2, Some(fs2));
    let fe = g.add(NodeKind::End, &[]);
    g.set_next(s2, fe);
    let merge = g.add_merge(NodeKind::Merge, &[te, fe]);
    let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[a]);
    g.set_next(merge, load);
    let ret = g.add(NodeKind::Return, &[load]);
    g.set_next(load, ret);
    verify(&g).expect("fixture verifies");

    let result = run_pea(&mut g, &program, &PeaOptions::default());
    verify(&g).expect("verifies");
    assert_eq!(count_news(&g), 0, "object never materializes");
    assert_eq!(count_commits(&g), 0);
    assert_eq!(result.virtualized_allocs, 1);
    // Return now returns a phi of the two constants.
    let ret_input = g.node(ret).inputs()[0];
    assert!(matches!(g.kind(ret_input), NodeKind::Phi { .. }));

    // Ablation: with field phis off, the same graph materializes instead.
    let (mut g2, _) = {
        let mut g2 = Graph::new();
        let cond = g2.add(NodeKind::Param { index: 0 }, &[]);
        let a = g2.add(NodeKind::New { class: p.key_class }, &[]);
        g2.set_next(g2.start, a);
        let iff = g2.add(NodeKind::If, &[cond]);
        g2.set_next(a, iff);
        let t = g2.add(NodeKind::Begin, &[]);
        let f = g2.add(NodeKind::Begin, &[]);
        g2.set_if_targets(iff, t, f);
        let c1 = g2.const_int(1);
        let s1 = g2.add(NodeKind::StoreField { field: p.f_idx }, &[a, c1]);
        g2.set_next(t, s1);
        let fs1 = g2.add_frame_state(
            pea_ir::FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
            &[cond],
        );
        g2.set_state_after(s1, Some(fs1));
        let te = g2.add(NodeKind::End, &[]);
        g2.set_next(s1, te);
        let c2 = g2.const_int(2);
        let s2 = g2.add(NodeKind::StoreField { field: p.f_idx }, &[a, c2]);
        g2.set_next(f, s2);
        let fs2 = g2.add_frame_state(
            pea_ir::FrameStateData::new(p.m_get_value, 2, 1, 0, 0, false),
            &[cond],
        );
        g2.set_state_after(s2, Some(fs2));
        let fe = g2.add(NodeKind::End, &[]);
        g2.set_next(s2, fe);
        let merge = g2.add_merge(NodeKind::Merge, &[te, fe]);
        let load = g2.add(NodeKind::LoadField { field: p.f_idx }, &[a]);
        g2.set_next(merge, load);
        let ret = g2.add(NodeKind::Return, &[load]);
        g2.set_next(load, ret);
        (g2, ())
    };
    let options = PeaOptions {
        field_phis: false,
        ..PeaOptions::default()
    };
    let r2 = run_pea(&mut g2, &program, &options);
    verify(&g2).expect("verifies");
    assert_eq!(r2.materializations, 2, "materialized in both branches");
}
