//! The MergeProcessor (paper §5.3, Figure 6): combines the states arriving
//! over multiple control-flow predecessors into one consistent state,
//! materializing exactly where necessary and iterating until stable.

use crate::analysis::PeaContext;
use crate::effects::Effect;
use crate::process::{materialize, resolve_to_real};
use crate::state::{AllocId, ObjectState, PeaState};
use pea_ir::cfg::BlockId;
use pea_ir::{NodeId, NodeKind};
use pea_trace::MaterializeReason;

/// Cache key tag for the materialized-value phi of an escaped merge.
pub(crate) const MAT_PHI_KEY: usize = usize::MAX;

/// How one field of an all-virtual object merges.
#[derive(Clone, Copy)]
pub(crate) enum Plan {
    /// Every predecessor holds the same value.
    Keep(NodeId),
    /// Every predecessor holds an alias of the same virtual object.
    SameAlias(AllocId),
    /// The values differ: a field phi combines them.
    NeedPhi,
}

/// The `i`th phi at `merge` (the head of block `b`) in id order: the
/// graph's, then those the analysis created there.
fn phi_at(ctx: &PeaContext<'_>, b: BlockId, merge: NodeId, i: usize) -> Option<NodeId> {
    let own = ctx.head_phis.of(b);
    own.get(i).copied().or_else(|| {
        ctx.created_phis
            .iter()
            .filter(|&&(m, _)| m == merge)
            .nth(i - own.len())
            .map(|&(_, phi)| phi)
    })
}

/// Where a materialization for predecessor `k` of `merge` goes: before
/// its `End`, in that `End`'s block.
fn anchor(ctx: &PeaContext<'_>, merge: NodeId, k: usize) -> (NodeId, BlockId) {
    let end = ctx.graph.merge_ends(merge)[k];
    (end, ctx.cfg.block_of(end))
}

/// Materializes `id` at every predecessor where it is still virtual.
fn materialize_at_preds(
    ctx: &mut PeaContext<'_>,
    merge: NodeId,
    pred_states: &mut [PeaState],
    id: AllocId,
    reason: MaterializeReason,
) {
    for (k, state) in pred_states.iter_mut().enumerate() {
        if state.object(id).is_virtual() {
            let (anchor, block) = anchor(ctx, merge, k);
            materialize(ctx, state, id, anchor, block, reason);
        }
    }
}

/// Merges `pred_states` (aligned with the ends of `merge_node`, a
/// `Merge` or `LoopBegin`). Predecessor states are mutated in place when
/// objects must materialize at a predecessor (Fig. 6b middle case).
pub(crate) fn merge_states(
    ctx: &mut PeaContext<'_>,
    merge_node: NodeId,
    pred_states: &mut [PeaState],
) -> PeaState {
    assert_eq!(pred_states.len(), ctx.graph.merge_ends(merge_node).len());
    assert!(!pred_states.is_empty());
    let merge_block = ctx.cfg.block_of(merge_node);
    let mut surviving = std::mem::take(&mut ctx.scratch.surviving);
    let mut phi_inputs = std::mem::take(&mut ctx.scratch.phi_inputs);
    let mut merged = ctx.fresh_state();
    // "The whole process is iterated until no additional materializations
    // happen during merging" (§5.3).
    loop {
        let ticks_at_start = ctx.materialize_ticks;
        merged.clear();

        // (a) Intersection: ids present in every predecessor state...
        let candidate = |id: AllocId| pred_states.iter().all(|s| s.contains(id));
        // ...that are still observable at or after the merge: some alias
        // must be live (see `crate::liveness`), transitively through the
        // fields of surviving objects. Dead object states are dropped
        // instead of being needlessly materialized.
        //
        // Phi inputs are uses at the predecessor ends — objects flowing
        // through this merge's phis are observable too.
        phi_inputs.clear();
        let mut i = 0;
        while let Some(phi) = phi_at(ctx, merge_block, merge_node, i) {
            phi_inputs.extend_from_slice(ctx.graph.node(phi).inputs());
            i += 1;
        }
        phi_inputs.sort_unstable();
        let directly_live = |id: AllocId| -> bool {
            pred_states.iter().any(|s| {
                s.aliases().iter().any(|&(node, aid)| {
                    aid == id
                        && (ctx.live.is_live(merge_block, node)
                            || phi_inputs.binary_search(&node).is_ok())
                })
            })
        };
        surviving.clear();
        surviving.extend(
            pred_states[0]
                .objects()
                .iter()
                .map(|&(id, _)| id)
                .filter(|&id| candidate(id) && directly_live(id)),
        );
        // Transitive closure: fields of live objects keep their referents
        // alive.
        let mut i = 0;
        while i < surviving.len() {
            let id = surviving[i];
            i += 1;
            for s in pred_states.iter() {
                if s.object(id).is_virtual() {
                    for &v in s.fields(id) {
                        if let Some(child) = s.alias_of(v) {
                            if candidate(child) && !surviving.contains(&child) {
                                surviving.push(child);
                            }
                        }
                    }
                }
            }
        }
        surviving.sort_unstable();

        // Aliases common to all predecessors (same node → same id).
        for &(node, id) in pred_states[0].aliases() {
            if surviving.contains(&id) && pred_states.iter().all(|s| s.alias_of(node) == Some(id)) {
                merged.add_alias(node, id);
            }
        }

        for &id in &surviving {
            let all_virtual = pred_states.iter().all(|s| s.object(id).is_virtual());
            let all_escaped = pred_states.iter().all(|s| !s.object(id).is_virtual());

            if all_virtual {
                // Lock counts must agree; balanced programs guarantee it,
                // and mismatches force materialization (defensive).
                let locks = pred_states[0].object(id).lock_count();
                let locks_agree = pred_states
                    .iter()
                    .all(|s| s.object(id).lock_count() == locks);
                if locks_agree && merge_virtual(ctx, merge_node, pred_states, id, &mut merged) {
                    if ctx.materialize_ticks != ticks_at_start {
                        break; // a field merge materialized something: restart
                    }
                    continue;
                }
                // Field merge required materialization (or was disabled,
                // or locks disagree): materialize everywhere and retry.
                materialize_at_preds(
                    ctx,
                    merge_node,
                    pred_states,
                    id,
                    MaterializeReason::MergeFieldConflict,
                );
                break; // restart the whole merge
            }

            if !all_escaped {
                // Mixed: materialize the virtual ones at their
                // predecessors, then fall through to the escaped case on
                // the next round (§5.3, second bullet).
                materialize_at_preds(
                    ctx,
                    merge_node,
                    pred_states,
                    id,
                    MaterializeReason::MergeOfMixedStates,
                );
                break;
            }

            // All escaped (Fig. 6b): merge materialized values.
            let materialized = |s: &PeaState| s.object(id).materialized_value().expect("escaped");
            let first = materialized(&pred_states[0]);
            let value = if pred_states.iter().all(|s| materialized(s) == first) {
                first
            } else {
                let mut values = std::mem::take(&mut ctx.scratch.values);
                values.clear();
                values.extend(pred_states.iter().map(materialized));
                let phi = cached_phi(ctx, merge_node, id, MAT_PHI_KEY, &values);
                ctx.scratch.values = values;
                phi
            };
            merged.set_object(
                id,
                ObjectState::Escaped {
                    materialized: value,
                },
            );
        }

        if ctx.materialize_ticks != ticks_at_start {
            continue;
        }

        // Existing phis attached to the merge (Fig. 6c and the bullet
        // list that follows it).
        let mut i = 0;
        while let Some(phi) = phi_at(ctx, merge_block, merge_node, i) {
            i += 1;
            // Materializing adds nodes but never changes a phi's inputs,
            // so they can be read by index.
            let input = |ctx: &PeaContext<'_>, k: usize| ctx.graph.node(phi).inputs()[k];
            // Loop begins are merged mid-construction in rounds where the
            // phi may not have grown its back-edge inputs yet; only
            // process when arities match.
            if ctx.graph.node(phi).inputs().len() != pred_states.len() {
                continue;
            }
            if let Some(first) = pred_states[0].virtual_alias(input(ctx, 0)) {
                if (1..pred_states.len())
                    .all(|k| pred_states[k].virtual_alias(input(ctx, k)) == Some(first))
                    && merged.contains(first)
                    && merged.object(first).is_virtual()
                {
                    // All inputs refer to the same (still virtual) object:
                    // the phi becomes an alias (Fig. 6c).
                    merged.add_alias(phi, first);
                    continue;
                }
            }
            // Otherwise: any virtual input must be materialized at its
            // predecessor; escaped inputs are replaced by their
            // materialized values.
            for (k, state) in pred_states.iter_mut().enumerate() {
                let v = input(ctx, k);
                let (anchor, block) = anchor(ctx, merge_node, k);
                let reason = MaterializeReason::MergePhiInput;
                let real = resolve_to_real(ctx, state, v, anchor, block, reason);
                if real != v {
                    ctx.record(
                        block,
                        Effect::SetInput {
                            node: phi,
                            index: k,
                            value: real,
                        },
                    );
                }
            }
        }

        if ctx.materialize_ticks == ticks_at_start {
            break;
        }
        // Materializations during phi processing invalidate earlier merge
        // decisions — run the whole merge again (§5.3 last paragraph).
    }
    ctx.scratch.surviving = surviving;
    ctx.scratch.phi_inputs = phi_inputs;
    merged
}

/// Merges the per-field values of a virtual object (the all-virtual case
/// of §5.3). Returns `false` when the merge needs the object materialized
/// instead (field-phi creation disabled, or a field's values cannot be
/// combined).
fn merge_virtual(
    ctx: &mut PeaContext<'_>,
    merge_node: NodeId,
    pred_states: &mut [PeaState],
    id: AllocId,
    merged: &mut PeaState,
) -> bool {
    let mut plans = std::mem::take(&mut ctx.scratch.plans);
    let fields_at = merged.fields_end();
    let merged_all = plan_fields(ctx, pred_states, id, &mut plans)
        && merge_fields(ctx, merge_node, pred_states, id, &plans, merged);
    ctx.scratch.plans = plans;
    if merged_all {
        merged.set_object(
            id,
            ObjectState::Virtual {
                fields_at,
                field_count: merged.fields_end() - fields_at,
                lock_count: pred_states[0].object(id).lock_count().expect("virtual"),
            },
        );
    } else {
        merged.truncate_fields(fields_at);
    }
    merged_all
}

/// First pass of [`merge_virtual`]: decides per field without mutating
/// anything, so a disabled-phi bailout has no side effects.
fn plan_fields(
    ctx: &PeaContext<'_>,
    pred_states: &[PeaState],
    id: AllocId,
    plans: &mut Vec<Plan>,
) -> bool {
    plans.clear();
    for f in 0..ctx.infos[id.index()].field_count {
        let value = |s: &PeaState| s.fields(id)[f];
        let first = value(&pred_states[0]);
        if pred_states.iter().all(|s| value(s) == first) {
            plans.push(Plan::Keep(first));
            continue;
        }
        // "If all predecessor VirtualStates reference the same Id, then so
        // does the new one."
        if let Some(aliased) = pred_states[0].virtual_alias(first) {
            if pred_states
                .iter()
                .all(|s| s.virtual_alias(value(s)) == Some(aliased))
            {
                plans.push(Plan::SameAlias(aliased));
                continue;
            }
        }
        if !ctx.options.field_phis {
            return false;
        }
        plans.push(Plan::NeedPhi);
    }
    true
}

/// Second pass of [`merge_virtual`]: pushes the merged field values onto
/// `merged`'s buffer, creating field phis.
fn merge_fields(
    ctx: &mut PeaContext<'_>,
    merge_node: NodeId,
    pred_states: &mut [PeaState],
    id: AllocId,
    plans: &[Plan],
    merged: &mut PeaState,
) -> bool {
    for (f, &plan) in plans.iter().enumerate() {
        match plan {
            Plan::Keep(v) => merged.push_field(v),
            Plan::SameAlias(a) => {
                // Canonical alias node: the allocation's origin, which is
                // an alias in every predecessor.
                merged.push_field(ctx.infos[a.index()].origin);
            }
            Plan::NeedPhi => {
                // Each input must be an actual runtime value: materialize
                // virtual references at their predecessors (§5.3).
                let mut phi_inputs = std::mem::take(&mut ctx.scratch.values);
                phi_inputs.clear();
                for (k, state) in pred_states.iter_mut().enumerate() {
                    // A previous field's materialization can never escape
                    // `id` itself (it is not in its own field closure
                    // unless cyclic — and then we bail).
                    if !state.object(id).is_virtual() {
                        ctx.scratch.values = phi_inputs;
                        return false;
                    }
                    let v = state.fields(id)[f];
                    let (anchor, block) = anchor(ctx, merge_node, k);
                    let reason = MaterializeReason::MergePhiInput;
                    phi_inputs.push(resolve_to_real(ctx, state, v, anchor, block, reason));
                }
                let phi = cached_phi(ctx, merge_node, id, f, &phi_inputs);
                ctx.scratch.values = phi_inputs;
                merged.push_field(phi);
            }
        }
    }
    true
}

/// Returns the cached phi for `(merge, id, key)`, creating it on first
/// use; inputs are (re)assigned directly — these phis belong to the
/// analysis and are pruned if an abandoned round leaves them unused.
fn cached_phi(
    ctx: &mut PeaContext<'_>,
    merge_node: NodeId,
    id: AllocId,
    key: usize,
    inputs: &[NodeId],
) -> NodeId {
    if let Some(&phi) = ctx.phi_cache.get(&(merge_node, id, key)) {
        let current = ctx.graph.node(phi).inputs().len();
        for (i, &v) in inputs.iter().enumerate() {
            if i < current {
                ctx.graph.set_input(phi, i, v);
            } else {
                ctx.graph.push_input(phi, v);
            }
        }
        return phi;
    }
    let phi = ctx.graph.add(NodeKind::Phi { merge: merge_node }, inputs);
    ctx.phi_cache.insert((merge_node, id, key), phi);
    ctx.created_phis.push((merge_node, phi));
    phi
}
