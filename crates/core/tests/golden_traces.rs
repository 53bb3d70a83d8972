//! Golden decision traces for the paper's worked examples: beyond the
//! structural assertions in `paper_examples.rs`, these tests pin the
//! *exact sequence of decisions* the analysis reports while transforming
//! each fixture. A change in the trace means the algorithm walked the
//! example differently than the paper describes — deliberate changes must
//! update the goldens alongside an explanation.

use pea_core::fixtures::{fig7_loop_graph, key_program, listing5_graph, listing8_graph};
use pea_core::{run_pea_traced, PeaOptions};
use pea_trace::{MemorySink, TraceEvent};

/// Renders an event as one compact golden line (stable across cosmetic
/// changes to the pretty printer).
fn golden_line(e: &TraceEvent) -> String {
    match e {
        TraceEvent::Virtualized { site, shape } => format!("virtualized n{site} {shape}"),
        TraceEvent::Materialized {
            site,
            anchor,
            block,
            reason,
        } => format!("materialized n{site} at n{anchor} b{block} {reason}"),
        TraceEvent::LockElided { site, node, exit } => {
            format!(
                "lock-elided n{site} {} n{node}",
                if *exit { "exit" } else { "enter" }
            )
        }
        TraceEvent::LoadElided { site, node } => format!("load-elided n{site} n{node}"),
        TraceEvent::StoreElided { site, node } => format!("store-elided n{site} n{node}"),
        TraceEvent::CheckFolded { node, value } => format!("check-folded n{node} -> {value}"),
        TraceEvent::PhiCreated { merge, site, field } => match field {
            Some(f) => format!("phi n{merge} n{site} field {f}"),
            None => format!("phi n{merge} n{site} materialized-value"),
        },
        TraceEvent::LoopRound { loop_begin, round } => {
            format!("loop n{loop_begin} round {round}")
        }
        other => format!("unexpected: {other:?}"),
    }
}

fn traced(
    graph: &mut pea_ir::Graph,
    program: &pea_bytecode::Program,
    options: &PeaOptions,
) -> Vec<String> {
    let mut sink = MemorySink::new();
    run_pea_traced(graph, program, options, &mut sink);
    sink.events.iter().map(golden_line).collect()
}

/// Listing 5 → Listing 6 (§4): virtualize the Key, absorb its stores and
/// loads, elide both monitor pairs of the inlined synchronized `equals`,
/// fold the null check, and materialize exactly once — on the miss path,
/// forced by the `putstatic cacheKey` escape.
#[test]
fn listing5_golden_trace() {
    let (program, p) = key_program();
    let (mut g, nodes) = listing5_graph(&p);
    let lines = traced(&mut g, &program, &PeaOptions::default());
    let anchor = nodes.put_cache_key.index();
    assert_eq!(
        lines,
        vec![
            "virtualized n3 Key".to_string(),
            "store-elided n3 n5".to_string(),
            "store-elided n3 n7".to_string(),
            "lock-elided n3 enter n10".to_string(),
            "load-elided n3 n12".to_string(),
            "load-elided n3 n15".to_string(),
            "lock-elided n3 exit n19".to_string(),
            format!("materialized n3 at n{anchor} b1 escape-to-store"),
        ],
        "Listing 5 decision sequence diverged from the paper's walkthrough"
    );
}

/// The same fixture with lock elision disabled (§6.1 ablation): the first
/// monitor-enter now forces the materialization, so every later operation
/// happens on the real object and no elision events appear at all.
#[test]
fn listing5_no_lock_elision_golden_trace() {
    let (program, p) = key_program();
    let (mut g, _) = listing5_graph(&p);
    let options = PeaOptions {
        lock_elision: false,
        ..PeaOptions::default()
    };
    let lines = traced(&mut g, &program, &options);
    assert_eq!(lines[0], "virtualized n3 Key");
    let mat: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("materialized"))
        .collect();
    assert_eq!(
        mat.len(),
        1,
        "one materialization, at the monitor: {lines:?}"
    );
    assert!(
        mat[0].ends_with("monitor-operation"),
        "reason must be the retained monitor, got {}",
        mat[0]
    );
    assert!(
        !lines.iter().any(|l| l.starts_with("lock-elided")),
        "no lock can be elided when elision is off: {lines:?}"
    );
}

/// Figure 7 (§5.4): the loop is processed iteratively. Round 1 discovers
/// the field assignment inside the body, round 2 confirms the fixpoint;
/// the object stays virtual throughout and the field becomes a loop phi.
#[test]
fn fig7_loop_golden_trace() {
    let (program, p) = key_program();
    let (mut g, _) = fig7_loop_graph(&p);
    let lines = traced(&mut g, &program, &PeaOptions::default());
    assert!(
        !lines.iter().any(|l| l.starts_with("materialized")),
        "the loop object must stay virtual: {lines:?}"
    );
    let rounds: Vec<&String> = lines.iter().filter(|l| l.starts_with("loop")).collect();
    assert!(
        rounds.len() >= 2,
        "iterative processing needs at least two rounds: {lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("phi") && l.contains("field")),
        "the loop-carried field must surface as a phi: {lines:?}"
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.starts_with("virtualized"))
            .count(),
        1,
        "exactly one allocation participates: {lines:?}"
    );
}

/// Listing 8 (§5.5): the object never escapes; the trace shows only the
/// virtualization and the absorbed store — materialization-free, because
/// the frame state is rewritten to a virtual-object mapping instead.
#[test]
fn listing8_golden_trace() {
    let (program, p) = key_program();
    let (mut g, ..) = listing8_graph(&p);
    let lines = traced(&mut g, &program, &PeaOptions::default());
    assert!(
        lines.iter().any(|l| l.starts_with("virtualized")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("store-elided")),
        "{lines:?}"
    );
    assert!(
        !lines
            .iter()
            .any(|l| l.starts_with("materialized") || l.starts_with("lock-elided")),
        "nothing escapes and nothing is locked in Listing 8: {lines:?}"
    );
}

/// §5.3 / Figure 6 ablation pair: with field phis on, the merge keeps the
/// object virtual and the trace records the phi; with them off, both
/// branch states materialize at the merge with the merge-specific reason.
#[test]
fn merge_golden_traces() {
    use pea_ir::{FrameStateData, Graph, NodeKind};

    let (program, p) = key_program();
    let build = |g: &mut Graph| {
        // if (cond) { key.idx = 1 } else { key.idx = 2 }; return key.idx
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
            FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
            &[cond],
        );
        g.set_state_after(s1, Some(fs1));
        let te = g.add(NodeKind::End, &[]);
        g.set_next(s1, te);
        let c2 = g.const_int(2);
        let s2 = g.add(NodeKind::StoreField { field: p.f_idx }, &[a, c2]);
        g.set_next(f, s2);
        let fs2 = g.add_frame_state(
            FrameStateData::new(p.m_get_value, 2, 1, 0, 0, false),
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
    };

    let mut g = Graph::new();
    build(&mut g);
    let lines = traced(&mut g, &program, &PeaOptions::default());
    assert!(
        !lines.iter().any(|l| l.starts_with("materialized")),
        "with field phis the object stays virtual: {lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("phi") && l.contains("field")),
        "the conflicting field must surface as a phi event: {lines:?}"
    );

    let mut g2 = Graph::new();
    build(&mut g2);
    let options = PeaOptions {
        field_phis: false,
        ..PeaOptions::default()
    };
    let lines2 = traced(&mut g2, &program, &options);
    let mats: Vec<&String> = lines2
        .iter()
        .filter(|l| l.starts_with("materialized"))
        .collect();
    assert_eq!(mats.len(), 2, "both branch states materialize: {lines2:?}");
    assert!(
        mats.iter().all(|l| l.contains("merge-")),
        "materializations must carry a merge-specific reason: {mats:?}"
    );
    assert!(
        !lines2
            .iter()
            .any(|l| l.starts_with("phi") && l.contains("field")),
        "no field phi without §5.3 support: {lines2:?}"
    );
}

/// Exception edge as materialization point: a virtual object reaching a
/// [`pea_ir::NodeKind::Unwind`] sink (an escaping `athrow`) must
/// materialize exactly there, with the dedicated `thrown-escape` reason —
/// while the non-throwing branch of the same method keeps the object
/// virtual and its loads elided.
#[test]
fn thrown_escape_golden_trace() {
    use pea_ir::{FrameStateData, Graph, NodeKind};

    let (program, p) = key_program();
    let mut g = Graph::new();
    // if (cond) { throw key } else { return key.idx } with key.idx = 7
    // stored up front.
    let cond = g.add(NodeKind::Param { index: 0 }, &[]);
    let a = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, a);
    let c7 = g.const_int(7);
    let store = g.add(NodeKind::StoreField { field: p.f_idx }, &[a, c7]);
    g.set_next(a, store);
    let fs = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
        &[cond],
    );
    g.set_state_after(store, Some(fs));
    let iff = g.add(NodeKind::If, &[cond]);
    g.set_next(store, iff);
    let t = g.add(NodeKind::Begin, &[]);
    let f = g.add(NodeKind::Begin, &[]);
    g.set_if_targets(iff, t, f);
    let unwind = g.add(NodeKind::Unwind, &[a]);
    g.set_next(t, unwind);
    let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[a]);
    g.set_next(f, load);
    let ret = g.add(NodeKind::Return, &[load]);
    g.set_next(load, ret);

    let lines = traced(&mut g, &program, &PeaOptions::default());
    let site = a.index();
    let anchor = unwind.index();
    let mats: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("materialized"))
        .collect();
    assert_eq!(
        mats.len(),
        1,
        "exactly one materialization, on the throw path: {lines:?}"
    );
    assert!(
        mats[0].starts_with(&format!("materialized n{site} at n{anchor} ")),
        "must materialize at the Unwind sink: {lines:?}"
    );
    assert!(
        mats[0].ends_with("thrown-escape"),
        "the reason must be the dedicated thrown-escape: {}",
        mats[0]
    );
    assert!(
        lines.contains(&format!("virtualized n{site} Key"))
            && lines.contains(&format!("store-elided n{site} n{}", store.index()))
            && lines.contains(&format!("load-elided n{site} n{}", load.index())),
        "the non-throwing branch must stay fully scalar-replaced: {lines:?}"
    );
}

/// The trace stream must agree with the [`pea_core::PeaResult`] counters:
/// every counter is exactly the number of corresponding events (with
/// materializations counted per commit *group*, so events ≥ counter).
#[test]
fn trace_agrees_with_result_counters() {
    let (program, p) = key_program();
    for fixture in 0..3usize {
        let mut g = match fixture {
            0 => listing5_graph(&p).0,
            1 => fig7_loop_graph(&p).0,
            _ => listing8_graph(&p).0,
        };
        let mut sink = MemorySink::new();
        let result = run_pea_traced(&mut g, &program, &PeaOptions::default(), &mut sink);
        let count = |kind: &str| sink.of_kind(kind).len();
        assert_eq!(
            count("virtualized"),
            result.virtualized_allocs,
            "fixture {fixture}"
        );
        assert!(
            count("materialized") >= result.materializations,
            "fixture {fixture}: group members ≥ commits"
        );
        assert_eq!(
            count("lock-elided"),
            result.elided_monitors,
            "fixture {fixture}"
        );
        assert_eq!(
            count("load-elided"),
            result.deleted_loads,
            "fixture {fixture}"
        );
        assert_eq!(
            count("store-elided"),
            result.deleted_stores,
            "fixture {fixture}"
        );
        assert_eq!(
            count("check-folded"),
            result.folded_checks,
            "fixture {fixture}"
        );
        assert_eq!(
            sink.of_kind("loop-round")
                .iter()
                .map(|e| match e {
                    TraceEvent::LoopRound { round, .. } => *round,
                    _ => 0,
                })
                .max()
                .unwrap_or(0) as usize,
            result.loop_rounds,
            "fixture {fixture}"
        );
    }
}
