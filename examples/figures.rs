//! Regenerates the mechanism figures of the paper (Figures 2–8) as IR and
//! state dumps.
//!
//! ```sh
//! cargo run --example figures           # all figures
//! cargo run --example figures -- fig7   # a single figure
//! ```

use pea::core::fixtures::{fig7_loop_graph, key_program, listing5_graph, listing8_graph};
use pea::core::{run_pea, AllocId, AllocInfo, ObjectState, PeaOptions, PeaState};
use pea::ir::dump::{dump, frame_state_brief};
use pea::ir::{AllocShape, NodeId, NodeKind};

fn fig2() {
    println!("==== Figure 2: Graal IR of Listing 5 (getValue after inlining) ====");
    let (_, p) = key_program();
    let (g, _) = listing5_graph(&p);
    println!("{}", dump(&g));
}

fn fig3() {
    println!("==== Figure 3: visualization of the allocation state ====");
    let (_, p) = key_program();
    let infos = vec![
        AllocInfo {
            shape: AllocShape::Instance { class: p.key_class },
            origin: NodeId(5),
            field_count: 2,
        },
        AllocInfo {
            shape: AllocShape::Instance { class: p.key_class },
            origin: NodeId(9),
            field_count: 1,
        },
    ];
    let mut state = PeaState::new();
    // Key (1): virtual, lock count 0, default fields (as after Fig. 4a).
    state.add_virtual(AllocId(0), NodeId(5), vec![NodeId(1), NodeId(2)]);
    // Integer (2): escaped with a materialized value (right side of Fig. 3).
    state.add_virtual(AllocId(1), NodeId(9), vec![NodeId(3)]);
    *state.object_mut(AllocId(1)) = ObjectState::Escaped {
        materialized: NodeId(12),
    };
    print!("{}", state.render(&infos));
    println!();
}

fn fig4_and_5() {
    println!("==== Figures 4/5: per-node effects on virtual objects ====");
    println!("(each pattern shown as IR before/after the analysis)\n");
    let (program, p) = key_program();

    // 4a/4b: allocation + stores + loads, fully virtual.
    let mut g = pea::ir::Graph::new();
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let new = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, new);
    let store = g.add(NodeKind::StoreField { field: p.f_idx }, &[new, x]);
    g.set_next(new, store);
    let fs = g.add_frame_state(
        pea::ir::FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
        &[x],
    );
    g.set_state_after(store, Some(fs));
    let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[new]);
    g.set_next(store, load);
    let ret = g.add(NodeKind::Return, &[load]);
    g.set_next(load, ret);
    println!("-- Fig. 4a/4b: new + store + load --");
    println!("before:\n{}", dump(&g));
    run_pea(&mut g, &program, &PeaOptions::default());
    println!("after (everything folded away):\n{}", dump(&g));

    // 4c/4d: monitor enter/exit on a virtual object.
    let mut g = pea::ir::Graph::new();
    let new = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, new);
    let me = g.add(NodeKind::MonitorEnter, &[new]);
    g.set_next(new, me);
    let x2 = g.add(NodeKind::Param { index: 0 }, &[]);
    let fs = g.add_frame_state(
        {
            let mut d = pea::ir::FrameStateData::new(p.m_get_value, 1, 1, 0, 1, false);
            d.lock_from_sync = 0;
            d
        },
        &[x2, new],
    );
    g.set_state_after(me, Some(fs));
    let mx = g.add(NodeKind::MonitorExit, &[new]);
    g.set_next(me, mx);
    let fs2 = g.add_frame_state(
        pea::ir::FrameStateData::new(p.m_get_value, 2, 1, 0, 0, false),
        &[x2],
    );
    g.set_state_after(mx, Some(fs2));
    let ret = g.add(NodeKind::Return, &[]);
    g.set_next(mx, ret);
    println!("-- Fig. 4c/4d: monitor enter/exit (lock count tracked virtually) --");
    println!("before:\n{}", dump(&g));
    run_pea(&mut g, &program, &PeaOptions::default());
    println!("after (lock elision):\n{}", dump(&g));

    // Fig. 5: store into an escaped object.
    let (_, p) = key_program();
    let mut g = pea::ir::Graph::new();
    let key = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, key);
    let intbox = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(key, intbox);
    // key escapes...
    let put = g.add(NodeKind::PutStatic { id: p.s_cache_key }, &[key]);
    g.set_next(intbox, put);
    let x3 = g.add(NodeKind::Param { index: 0 }, &[]);
    let fs = g.add_frame_state(
        pea::ir::FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
        &[x3],
    );
    g.set_state_after(put, Some(fs));
    // ...then the (still virtual) box is stored into the escaped key:
    // the box escapes too (Fig. 5's Integer turns `e`).
    let store = g.add(NodeKind::StoreField { field: p.f_ref }, &[key, intbox]);
    g.set_next(put, store);
    let fs2 = g.add_frame_state(
        pea::ir::FrameStateData::new(p.m_get_value, 2, 1, 0, 0, false),
        &[x3],
    );
    g.set_state_after(store, Some(fs2));
    let ret = g.add(NodeKind::Return, &[]);
    g.set_next(store, ret);
    println!("-- Fig. 5: store into an escaped object --");
    println!("before:\n{}", dump(&g));
    let r = run_pea(&mut g, &program, &PeaOptions::default());
    println!(
        "after ({} materializations — both objects exist):\n{}",
        r.materializations,
        dump(&g)
    );
}

fn fig6() {
    println!("==== Figure 6: merge processing ====");
    let (program, p) = key_program();
    // An object whose field differs across the two branches: merged via a
    // field phi (Fig. 6 all-virtual case); the same graph under the
    // no-field-phi ablation materializes at both predecessors (Fig. 6b).
    for (label, options) in [
        (
            "field phis enabled (object stays virtual)",
            PeaOptions::default(),
        ),
        (
            "ablation: field phis disabled (materialized at both ends)",
            PeaOptions {
                field_phis: false,
                ..PeaOptions::default()
            },
        ),
    ] {
        let mut g = pea::ir::Graph::new();
        let cond = g.add(NodeKind::Param { index: 0 }, &[]);
        let obj = g.add(NodeKind::New { class: p.key_class }, &[]);
        g.set_next(g.start, obj);
        let iff = g.add(NodeKind::If, &[cond]);
        g.set_next(obj, iff);
        let t = g.add(NodeKind::Begin, &[]);
        let f = g.add(NodeKind::Begin, &[]);
        g.set_if_targets(iff, t, f);
        let c1 = g.const_int(1);
        let s1 = g.add(NodeKind::StoreField { field: p.f_idx }, &[obj, c1]);
        g.set_next(t, s1);
        let fs1 = g.add_frame_state(
            pea::ir::FrameStateData::new(p.m_get_value, 1, 1, 0, 0, false),
            &[cond],
        );
        g.set_state_after(s1, Some(fs1));
        let te = g.add(NodeKind::End, &[]);
        g.set_next(s1, te);
        let c2 = g.const_int(2);
        let s2 = g.add(NodeKind::StoreField { field: p.f_idx }, &[obj, c2]);
        g.set_next(f, s2);
        let fs2 = g.add_frame_state(
            pea::ir::FrameStateData::new(p.m_get_value, 2, 1, 0, 0, false),
            &[cond],
        );
        g.set_state_after(s2, Some(fs2));
        let fe = g.add(NodeKind::End, &[]);
        g.set_next(s2, fe);
        let merge = g.add_merge(NodeKind::Merge, &[te, fe]);
        let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[obj]);
        g.set_next(merge, load);
        let ret = g.add(NodeKind::Return, &[load]);
        g.set_next(load, ret);
        println!("-- {label} --");
        let r = run_pea(&mut g, &program, &options);
        println!(
            "materializations={} | after:\n{}",
            r.materializations,
            dump(&g)
        );
    }
}

fn fig7() {
    println!("==== Figure 7: loop processing to a fixpoint ====");
    let (program, p) = key_program();
    let (mut g, _) = fig7_loop_graph(&p);
    println!("before:\n{}", dump(&g));
    let r = run_pea(&mut g, &program, &PeaOptions::default());
    println!(
        "loop rounds until the speculative state stabilized: {}",
        r.loop_rounds
    );
    println!(
        "after (object virtual through two back edges; field is a loop phi):\n{}",
        dump(&g)
    );
}

fn fig8() {
    println!("==== Figure 8: frame states before/after PEA (Listing 8) ====");
    let (program, p) = key_program();
    let (mut g, _, put) = listing8_graph(&p);
    let fs = g.node(put).state_after.expect("state");
    println!("before: putstatic state = @{}", frame_state_brief(&g, fs));
    println!("{}", dump(&g));
    run_pea(&mut g, &program, &PeaOptions::default());
    let fs = g.node(put).state_after.expect("state");
    println!("after:  putstatic state = @{}", frame_state_brief(&g, fs));
    println!("(the local now references a VirtualObjectMapping)");
    println!("{}", dump(&g));
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" | "fig5" => fig4_and_5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "all" => {
            fig2();
            fig3();
            fig4_and_5();
            fig6();
            fig7();
            fig8();
        }
        other => {
            eprintln!("unknown figure `{other}` (fig2..fig8 or all)");
            std::process::exit(2);
        }
    }
}
