//! Frame-state rewriting (paper §5.5, Figure 8): references to virtual
//! objects inside deoptimization metadata are replaced with
//! `VirtualObjectMapping` snapshots so the interpreter state can be
//! reconstructed — including recreating the objects and re-entering their
//! monitors — if execution ever falls back.

use crate::analysis::PeaContext;
use crate::effects::Effect;
use crate::state::{AllocId, ObjectState, PeaState};
use pea_ir::cfg::BlockId;
use pea_ir::{NodeId, NodeKind};

/// Rewrites `fs` (and its outer-state chain) against the current object
/// state. Each frame state is rewritten at most once, at its earliest
/// use in flow order — later deopt points sharing the state rematerialize
/// from the snapshot, which is sound because an object can only have
/// escaped through a side effect, and side effects carry fresh states.
pub(crate) fn rewrite_frame_state(
    ctx: &mut PeaContext<'_>,
    state: &PeaState,
    fs: NodeId,
    block: BlockId,
) {
    // The mappings one rewrite shares across the chain: a handful of
    // virtual objects, so a vector beats a map.
    let mut mappings = std::mem::take(&mut ctx.scratch.objects);
    mappings.clear();
    rewrite_one(ctx, state, fs, block, &mut mappings);
    ctx.scratch.objects = mappings;
}

fn rewrite_one(
    ctx: &mut PeaContext<'_>,
    state: &PeaState,
    fs: NodeId,
    block: BlockId,
    mappings: &mut Vec<(AllocId, NodeId)>,
) {
    if !ctx.claim_frame_state(fs, block) {
        return;
    }
    let data = ctx.graph.frame_state_data(fs);
    let value_slots = data
        .locals_range()
        .chain(data.stack_range())
        .chain(data.locks_range());
    let outer_index = data.outer_index();
    for i in value_slots {
        let v = ctx.graph.node(fs).inputs()[i];
        if let Some(id) = state.alias_of(v) {
            let replacement = match state.object(id) {
                ObjectState::Virtual { .. } => mapping_for(ctx, state, id, mappings),
                ObjectState::Escaped { materialized } => materialized,
            };
            ctx.record(
                block,
                Effect::SetInput {
                    node: fs,
                    index: i,
                    value: replacement,
                },
            );
        }
    }
    if let Some(outer_index) = outer_index {
        let outer = ctx.graph.node(fs).inputs()[outer_index];
        rewrite_one(ctx, state, outer, block, mappings);
    }
}

/// Builds (or reuses) the `VirtualObjectMapping` snapshot of `id`,
/// following virtual field references recursively; cyclic structures are
/// handled by registering the mapping before filling its inputs.
fn mapping_for(
    ctx: &mut PeaContext<'_>,
    state: &PeaState,
    id: AllocId,
    mappings: &mut Vec<(AllocId, NodeId)>,
) -> NodeId {
    if let Some(&(_, m)) = mappings.iter().find(|&&(a, _)| a == id) {
        return m;
    }
    let ObjectState::Virtual { lock_count, .. } = state.object(id) else {
        unreachable!("mapping for escaped object");
    };
    let vom = ctx.graph.add(
        NodeKind::VirtualObjectMapping {
            shape: ctx.infos[id.index()].shape,
            lock_count,
        },
        &[],
    );
    mappings.push((id, vom));
    for &v in state.fields(id) {
        let resolved = match state.alias_of(v) {
            Some(child) => match state.object(child) {
                ObjectState::Virtual { .. } => mapping_for(ctx, state, child, mappings),
                ObjectState::Escaped { materialized } => materialized,
            },
            None => v,
        };
        ctx.graph.push_input(vom, resolved);
    }
    vom
}
