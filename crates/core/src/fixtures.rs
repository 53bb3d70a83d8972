//! Hand-built IR graphs reproducing the paper's running examples and
//! figures, shared by the unit tests and the figure-regeneration harness
//! (`cargo run --example figures`).
//!
//! * [`key_program`] — the `Key` class, `cacheKey`/`cacheValue` statics
//!   and a `createValue` method (Listing 1/4).
//! * [`listing5_graph`] — the IR of Listing 5 (= Figure 2): `getValue`
//!   after inlining the constructor and the synchronized `equals`
//!   (`examples/figures.rs` builds the smaller Figure 4/5/6 patterns
//!   inline).
//! * [`fig7_loop_graph`] — the loop of Figure 7.
//! * [`listing8_graph`] — the frame-state example of Listing 8 / Figure 8.
//! * [`diamond_chain`] — `n` if/else diamonds in a row, optionally with a
//!   virtual object crossing every merge (the analysis' per-block cost).

use pea_bytecode::{
    ClassId, CmpOp, FieldId, MethodBuilder, MethodId, Program, ProgramBuilder, StaticId, ValueKind,
};
use pea_ir::{FrameStateData, Graph, NodeId, NodeKind};

/// Handles into [`key_program`].
#[derive(Clone, Copy, Debug)]
pub struct KeyProgram {
    /// The `Key` class.
    pub key_class: ClassId,
    /// `Key.idx` (int).
    pub f_idx: FieldId,
    /// `Key.ref` (ref).
    pub f_ref: FieldId,
    /// `static cacheKey`.
    pub s_cache_key: StaticId,
    /// `static cacheValue`.
    pub s_cache_value: StaticId,
    /// `createValue()` — an opaque callee.
    pub m_create_value: MethodId,
    /// `getValue(idx, ref)` — a placeholder id for frame states.
    pub m_get_value: MethodId,
}

/// Builds the program metadata of the paper's running example
/// (Listing 1/4).
pub fn key_program() -> (Program, KeyProgram) {
    let mut pb = ProgramBuilder::new();
    let key_class = pb.add_class("Key", None);
    let f_idx = pb.add_field(key_class, "idx", ValueKind::Int);
    let f_ref = pb.add_field(key_class, "ref", ValueKind::Ref);
    let s_cache_key = pb.add_static("cacheKey", ValueKind::Ref);
    let s_cache_value = pb.add_static("cacheValue", ValueKind::Ref);
    let mut mb = MethodBuilder::new_static("createValue", 0, true);
    mb.const_null();
    mb.return_value();
    let m_create_value = pb.add_method(mb.build().expect("createValue"));
    let mut mb = MethodBuilder::new_static("getValue", 2, true);
    mb.const_null();
    mb.return_value();
    let m_get_value = pb.add_method(mb.build().expect("getValue"));
    let program = pb.build().expect("key program");
    (
        program,
        KeyProgram {
            key_class,
            f_idx,
            f_ref,
            s_cache_key,
            s_cache_value,
            m_create_value,
            m_get_value,
        },
    )
}

/// Interesting nodes of [`listing5_graph`].
#[derive(Clone, Copy, Debug)]
pub struct Listing5 {
    /// The `new Key` allocation.
    pub new_key: NodeId,
    /// The `monitorenter` of the inlined synchronized `equals`.
    pub monitor_enter: NodeId,
    /// The `monitorexit`.
    pub monitor_exit: NodeId,
    /// The `putstatic cacheKey` in the miss branch (the escape point).
    pub put_cache_key: NodeId,
    /// The hit-branch return.
    pub return_hit: NodeId,
    /// The miss-branch return.
    pub return_miss: NodeId,
}

/// Builds the Graal IR of Listing 5 (Figure 2): `getValue` with the `Key`
/// constructor and synchronized `equals` inlined, where the `Key` escapes
/// only into `cacheKey` on the miss path (Listing 4's else branch).
pub fn listing5_graph(p: &KeyProgram) -> (Graph, Listing5) {
    let mut g = Graph::new();
    let idx = g.add(NodeKind::Param { index: 0 }, &[]);
    let rf = g.add(NodeKind::Param { index: 1 }, &[]);

    // Key key = new Key(idx, ref);   (constructor inlined)
    let new_key = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, new_key);
    let entry_state = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 0, 2, 0, 0, false),
        &[idx, rf],
    );
    let store_idx = g.add(NodeKind::StoreField { field: p.f_idx }, &[new_key, idx]);
    g.set_next(new_key, store_idx);
    let st1 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 1, 3, 0, 0, false),
        &[idx, rf, new_key],
    );
    g.set_state_after(store_idx, Some(st1));
    let store_ref = g.add(NodeKind::StoreField { field: p.f_ref }, &[new_key, rf]);
    g.set_next(store_idx, store_ref);
    let st2 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 2, 3, 0, 0, false),
        &[idx, rf, new_key],
    );
    g.set_state_after(store_ref, Some(st2));
    let _ = entry_state;

    // Key tmp1 = cacheKey;
    let load_cache_key = g.add(NodeKind::GetStatic { id: p.s_cache_key }, &[]);
    g.set_next(store_ref, load_cache_key);

    // synchronized (key) { tmp2 = key.idx == tmp1.idx && key.ref == tmp1.ref }
    let monitor_enter = g.add(NodeKind::MonitorEnter, &[new_key]);
    g.set_next(load_cache_key, monitor_enter);
    let st3 = g.add_frame_state(
        {
            let mut d = FrameStateData::new(p.m_get_value, 3, 3, 0, 1, false);
            d.lock_from_sync = 0;
            d
        },
        &[idx, rf, new_key, new_key],
    );
    g.set_state_after(monitor_enter, Some(st3));

    let load_key_idx = g.add(NodeKind::LoadField { field: p.f_idx }, &[new_key]);
    g.set_next(monitor_enter, load_key_idx);
    let load_tmp_idx = g.add(NodeKind::LoadField { field: p.f_idx }, &[load_cache_key]);
    g.set_next(load_key_idx, load_tmp_idx);
    let cmp_idx = g.add(
        NodeKind::Compare { op: CmpOp::Eq },
        &[load_key_idx, load_tmp_idx],
    );
    let load_key_ref = g.add(NodeKind::LoadField { field: p.f_ref }, &[new_key]);
    g.set_next(load_tmp_idx, load_key_ref);
    let load_tmp_ref = g.add(NodeKind::LoadField { field: p.f_ref }, &[load_cache_key]);
    g.set_next(load_key_ref, load_tmp_ref);
    let cmp_ref = g.add(NodeKind::RefEq, &[load_key_ref, load_tmp_ref]);
    g.set_next(load_tmp_ref, cmp_ref);
    // tmp2 = cmp_idx & cmp_ref  (short-circuit flattened for brevity)
    let both = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::And,
        },
        &[cmp_idx, cmp_ref],
    );
    let monitor_exit = g.add(NodeKind::MonitorExit, &[new_key]);
    g.set_next(cmp_ref, monitor_exit);
    let st4 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 4, 3, 0, 0, false),
        &[idx, rf, new_key],
    );
    g.set_state_after(monitor_exit, Some(st4));

    // if (tmp2) { return cacheValue; } else { cacheKey = key; ... }
    let iff = g.add(NodeKind::If, &[both]);
    g.set_next(monitor_exit, iff);
    let hit = g.add(NodeKind::Begin, &[]);
    let miss = g.add(NodeKind::Begin, &[]);
    g.set_if_targets(iff, hit, miss);

    // hit: return cacheValue
    let load_cache_value = g.add(
        NodeKind::GetStatic {
            id: p.s_cache_value,
        },
        &[],
    );
    g.set_next(hit, load_cache_value);
    let return_hit = g.add(NodeKind::Return, &[load_cache_value]);
    g.set_next(load_cache_value, return_hit);

    // miss: cacheKey = key; cacheValue = createValue(); return cacheValue
    let put_cache_key = g.add(NodeKind::PutStatic { id: p.s_cache_key }, &[new_key]);
    g.set_next(miss, put_cache_key);
    let st5 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 5, 3, 0, 0, false),
        &[idx, rf, new_key],
    );
    g.set_state_after(put_cache_key, Some(st5));
    let call = g.add(
        NodeKind::Invoke {
            target: p.m_create_value,
            virtual_call: false,
        },
        &[],
    );
    g.set_next(put_cache_key, call);
    let st6 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 6, 3, 1, 0, false),
        &[idx, rf, new_key, call],
    );
    g.set_state_after(call, Some(st6));
    let put_cache_value = g.add(
        NodeKind::PutStatic {
            id: p.s_cache_value,
        },
        &[call],
    );
    g.set_next(call, put_cache_value);
    let st7 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 7, 3, 0, 0, false),
        &[idx, rf, new_key],
    );
    g.set_state_after(put_cache_value, Some(st7));
    let return_miss = g.add(NodeKind::Return, &[call]);
    g.set_next(put_cache_value, return_miss);

    (
        g,
        Listing5 {
            new_key,
            monitor_enter,
            monitor_exit,
            put_cache_key,
            return_hit,
            return_miss,
        },
    )
}

/// The loop of Figure 7: one loop with two back edges and one exit, with a
/// virtual object whose field is updated inside the loop.
///
/// ```text
/// obj = new Key; obj.idx = 0;
/// while (obj.idx < p0) {
///     if (p1 == 1) { obj.idx = obj.idx + 1; continue; }   // LoopEnd (1)
///     obj.idx = obj.idx + 2;  continue;                   // LoopEnd (2)
/// }
/// return obj.idx;
/// ```
pub fn fig7_loop_graph(p: &KeyProgram) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let p0 = g.add(NodeKind::Param { index: 0 }, &[]);
    let p1 = g.add(NodeKind::Param { index: 1 }, &[]);
    let new_key = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, new_key);
    let zero = g.const_int(0);
    let store0 = g.add(NodeKind::StoreField { field: p.f_idx }, &[new_key, zero]);
    g.set_next(new_key, store0);
    let st = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 1, 3, 0, 0, false),
        &[p0, p1, new_key],
    );
    g.set_state_after(store0, Some(st));

    let entry_end = g.add(NodeKind::End, &[]);
    g.set_next(store0, entry_end);
    let lb = g.add_merge(NodeKind::LoopBegin, &[entry_end]);
    let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[new_key]);
    g.set_next(lb, load);
    let cond = g.add(NodeKind::Compare { op: CmpOp::Lt }, &[load, p0]);
    let iff = g.add(NodeKind::If, &[cond]);
    g.set_next(load, iff);
    let body = g.add(NodeKind::Begin, &[]);
    let exit = g.add(NodeKind::LoopExit { loop_begin: lb }, &[]);
    g.set_if_targets(iff, body, exit);

    // body: if (p1 == 1) +1 else +2, two separate back edges
    let one = g.const_int(1);
    let cond2 = g.add(NodeKind::Compare { op: CmpOp::Eq }, &[p1, one]);
    let iff2 = g.add(NodeKind::If, &[cond2]);
    g.set_next(body, iff2);
    let b1 = g.add(NodeKind::Begin, &[]);
    let b2 = g.add(NodeKind::Begin, &[]);
    g.set_if_targets(iff2, b1, b2);

    let load1 = g.add(NodeKind::LoadField { field: p.f_idx }, &[new_key]);
    g.set_next(b1, load1);
    let inc1 = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        &[load1, one],
    );
    let store1 = g.add(NodeKind::StoreField { field: p.f_idx }, &[new_key, inc1]);
    g.set_next(load1, store1);
    let st1 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 2, 3, 0, 0, false),
        &[p0, p1, new_key],
    );
    g.set_state_after(store1, Some(st1));
    let le1 = g.add(NodeKind::LoopEnd, &[]);
    g.set_next(store1, le1);
    g.add_merge_end(lb, le1);

    let two = g.const_int(2);
    let load2 = g.add(NodeKind::LoadField { field: p.f_idx }, &[new_key]);
    g.set_next(b2, load2);
    let inc2 = g.add(
        NodeKind::Arith {
            op: pea_ir::ArithOp::Add,
        },
        &[load2, two],
    );
    let store2 = g.add(NodeKind::StoreField { field: p.f_idx }, &[new_key, inc2]);
    g.set_next(load2, store2);
    let st2 = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 3, 3, 0, 0, false),
        &[p0, p1, new_key],
    );
    g.set_state_after(store2, Some(st2));
    let le2 = g.add(NodeKind::LoopEnd, &[]);
    g.set_next(store2, le2);
    g.add_merge_end(lb, le2);

    // exit: return obj.idx
    let load_exit = g.add(NodeKind::LoadField { field: p.f_idx }, &[new_key]);
    g.set_next(exit, load_exit);
    let ret = g.add(NodeKind::Return, &[load_exit]);
    g.set_next(load_exit, ret);

    (g, new_key)
}

/// Listing 8 / Figure 8: `foo(x)` allocates an `Integer`-like box, stores
/// into it (with a chained inner/outer frame state), then performs an
/// unrelated static store whose frame state still references the virtual
/// object.
pub fn listing8_graph(p: &KeyProgram) -> (Graph, NodeId, NodeId) {
    let mut g = Graph::new();
    let x = g.add(NodeKind::Param { index: 0 }, &[]);
    let new_int = g.add(NodeKind::New { class: p.key_class }, &[]);
    g.set_next(g.start, new_int);

    // Inlined constructor store with inner state chained to the outer.
    let outer = g.add_frame_state(FrameStateData::new(p.m_get_value, 5, 1, 0, 0, false), &[x]);
    let store = g.add(NodeKind::StoreField { field: p.f_idx }, &[new_int, x]);
    g.set_next(new_int, store);
    let inner = g.add_frame_state(
        FrameStateData::new(p.m_create_value, 9, 2, 0, 0, true),
        &[new_int, x, outer],
    );
    g.set_state_after(store, Some(inner));

    // global = null;
    let null = g.const_null();
    let put = g.add(NodeKind::PutStatic { id: p.s_cache_key }, &[null]);
    g.set_next(store, put);
    let after = g.add_frame_state(
        FrameStateData::new(p.m_get_value, 13, 2, 0, 0, false),
        &[x, new_int],
    );
    g.set_state_after(put, Some(after));

    let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[new_int]);
    g.set_next(put, load);
    let ret = g.add(NodeKind::Return, &[load]);
    g.set_next(load, ret);
    (g, new_int, put)
}

/// `n` if/else diamonds in a row on `p0`, each arm a `putstatic cacheKey
/// = p1` with a frame state of its own. With `carry_object`, a `Key`
/// allocated up front (`idx = p0`) is read after the last merge, so it
/// stays virtual across every merge with its fields unchanged:
///
/// ```text
/// [key = new Key(); key.idx = p0;]
/// repeat n: if (p0) { cacheKey = p1; } else { cacheKey = p1; }
/// return [key.idx | 0];
/// ```
pub fn diamond_chain(p: &KeyProgram, n: usize, carry_object: bool) -> Graph {
    let mut g = Graph::new();
    let p0 = g.add(NodeKind::Param { index: 0 }, &[]);
    let p1 = g.add(NodeKind::Param { index: 1 }, &[]);
    let mut last = g.start;
    let key = carry_object.then(|| {
        let key = g.add(NodeKind::New { class: p.key_class }, &[]);
        g.set_next(last, key);
        let store = g.add(NodeKind::StoreField { field: p.f_idx }, &[key, p0]);
        g.set_next(key, store);
        let state = g.add_frame_state(
            FrameStateData::new(p.m_get_value, 0, 2, 0, 0, false),
            &[p0, p1],
        );
        g.set_state_after(store, Some(state));
        last = store;
        key
    });
    for i in 0..n {
        let iff = g.add(NodeKind::If, &[p0]);
        g.set_next(last, iff);
        let arm = |g: &mut Graph, bci: u32| {
            let begin = g.add(NodeKind::Begin, &[]);
            let put = g.add(NodeKind::PutStatic { id: p.s_cache_key }, &[p1]);
            g.set_next(begin, put);
            let state = g.add_frame_state(
                FrameStateData::new(p.m_get_value, bci, 2, 0, 0, false),
                &[p0, p1],
            );
            g.set_state_after(put, Some(state));
            let end = g.add(NodeKind::End, &[]);
            g.set_next(put, end);
            (begin, end)
        };
        let (t, te) = arm(&mut g, 2 * i as u32 + 1);
        let (f, fe) = arm(&mut g, 2 * i as u32 + 2);
        g.set_if_targets(iff, t, f);
        let merge = g.add_merge(NodeKind::Merge, &[te, fe]);
        last = merge;
    }
    let value = match key {
        Some(key) => {
            let load = g.add(NodeKind::LoadField { field: p.f_idx }, &[key]);
            g.set_next(last, load);
            last = load;
            load
        }
        None => g.const_int(0),
    };
    let ret = g.add(NodeKind::Return, &[value]);
    g.set_next(last, ret);
    g
}
