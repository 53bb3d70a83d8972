//! The per-node transfer function (paper §5.2, Figures 4 and 5) and the
//! materialization routine (§4).

use crate::analysis::PeaContext;
use crate::effects::Effect;
use crate::state::{AllocId, AllocInfo, ObjectState, PeaState};
use pea_ir::cfg::BlockId;
use pea_ir::{AllocShape, CommitObject, NodeId, NodeKind};
use pea_trace::{MaterializeReason, TraceEvent};

/// Materializes `id` (and every virtual object reachable from its fields —
/// cyclic structures commit as one group, like Graal's
/// `CommitAllocationNode`). Inserts the commit before `anchor`, updates
/// `state`, and returns the node producing `id`'s heap reference.
pub(crate) fn materialize(
    ctx: &mut PeaContext<'_>,
    state: &mut PeaState,
    id: AllocId,
    anchor: NodeId,
    block: BlockId,
    reason: MaterializeReason,
) -> NodeId {
    // Transitive closure over virtual field references.
    let mut group: Vec<AllocId> = vec![id];
    let mut i = 0;
    while i < group.len() {
        let member = group[i];
        i += 1;
        let ObjectState::Virtual { fields, .. } = state.object(member) else {
            unreachable!("materializing a non-virtual object");
        };
        for &v in fields {
            if let Some(child) = state.virtual_alias(v) {
                if !group.contains(&child) {
                    group.push(child);
                }
            }
        }
    }

    // Create the commit and its allocated-object handles.
    let objects: Vec<CommitObject> = group
        .iter()
        .map(|&m| {
            let ObjectState::Virtual { lock_count, .. } = state.object(m) else {
                unreachable!()
            };
            CommitObject {
                shape: ctx.infos[m.index()].shape,
                lock_count: *lock_count,
            }
        })
        .collect();
    let commit = ctx.graph.add(NodeKind::Commit { objects }, vec![]);
    let allocated: Vec<NodeId> = (0..group.len())
        .map(|index| {
            ctx.graph
                .add(NodeKind::AllocatedObject { index }, vec![commit])
        })
        .collect();

    // Snapshot field values, then mark the group escaped.
    let snapshots: Vec<Vec<NodeId>> = group
        .iter()
        .map(|&m| {
            let ObjectState::Virtual { fields, .. } = state.object(m) else {
                unreachable!()
            };
            fields.clone()
        })
        .collect();
    for (gi, &m) in group.iter().enumerate() {
        *state.object_mut(m) = ObjectState::Escaped {
            materialized: allocated[gi],
        };
    }
    // Commit inputs: field values with intra-group references resolved to
    // the fresh allocated objects and escaped references resolved to their
    // materialized values.
    for fields in &snapshots {
        for &v in fields {
            let resolved = match state.alias_of(v) {
                Some(a) => match group.iter().position(|&m| m == a) {
                    Some(gi) => allocated[gi],
                    None => state
                        .object(a)
                        .materialized_value()
                        .expect("non-group alias must be escaped"),
                },
                None => v,
            };
            ctx.graph.push_input(commit, resolved);
        }
    }

    ctx.record(
        block,
        Effect::InsertFixedBefore {
            anchor,
            node: commit,
        },
    );
    if ctx.tracing() {
        // One event per group member: each allocation site materializes,
        // even though the group shares a single commit node.
        for &m in &group {
            let event = TraceEvent::Materialized {
                site: ctx.site_of(m),
                anchor: anchor.index() as u32,
                block: block.index() as u32,
                reason,
            };
            ctx.trace(block, event);
        }
    }
    ctx.materialize_ticks += 1;
    allocated[0]
}

/// Ensures `value` is usable as a real runtime value at `anchor`:
/// materializes virtual aliases, resolves escaped aliases. Returns the
/// replacement (or `value` unchanged).
pub(crate) fn resolve_to_real(
    ctx: &mut PeaContext<'_>,
    state: &mut PeaState,
    value: NodeId,
    anchor: NodeId,
    block: BlockId,
    reason: MaterializeReason,
) -> NodeId {
    match state.alias_of(value) {
        Some(id) => match state.object(id) {
            ObjectState::Virtual { .. } => materialize(ctx, state, id, anchor, block, reason),
            ObjectState::Escaped { materialized } => *materialized,
        },
        None => value,
    }
}

/// The trace reason for an object forced into existence by `kind` (§5.2's
/// generic escape rule, specialized for reporting).
fn escape_reason(kind: &NodeKind) -> MaterializeReason {
    match kind {
        NodeKind::StoreField { .. } | NodeKind::StoreIndexed | NodeKind::PutStatic { .. } => {
            MaterializeReason::EscapeToStore
        }
        NodeKind::Invoke { .. } => MaterializeReason::CallArgument,
        NodeKind::Return => MaterializeReason::ReturnValue,
        NodeKind::Throw => MaterializeReason::ThrowValue,
        NodeKind::Unwind => MaterializeReason::ThrownEscape,
        NodeKind::MonitorEnter | NodeKind::MonitorExit => MaterializeReason::MonitorOperation,
        _ => MaterializeReason::Other,
    }
}

/// Applies the generic rule of §5.2: "any operation that is not explicitly
/// handled is assumed to require an actual object reference" — alias
/// inputs are materialized/resolved and the input slots rewritten.
fn escape_all_alias_inputs(
    ctx: &mut PeaContext<'_>,
    state: &mut PeaState,
    node: NodeId,
    block: BlockId,
) {
    let reason = escape_reason(ctx.graph.kind(node));
    let inputs = ctx.graph.node(node).inputs().to_vec();
    for (i, v) in inputs.into_iter().enumerate() {
        if state.alias_of(v).is_some() {
            let real = resolve_to_real(ctx, state, v, node, block, reason);
            ctx.record(
                block,
                Effect::SetInput {
                    node,
                    index: i,
                    value: real,
                },
            );
        }
    }
}

/// Default field values for a fresh allocation.
fn default_fields(ctx: &mut PeaContext<'_>, shape: AllocShape) -> Vec<NodeId> {
    match shape {
        AllocShape::Instance { class } => ctx
            .program
            .slot_kinds(class)
            .iter()
            .map(|kind| match kind {
                pea_bytecode::ValueKind::Int => ctx.graph.const_int(0),
                pea_bytecode::ValueKind::Ref => ctx.graph.const_null(),
            })
            .collect(),
        AllocShape::Array { kind, length } => {
            let d = match kind {
                pea_bytecode::ValueKind::Int => ctx.graph.const_int(0),
                pea_bytecode::ValueKind::Ref => ctx.graph.const_null(),
            };
            vec![d; length as usize]
        }
    }
}

/// Arrays longer than this are never virtualized.
const MAX_VIRTUAL_ARRAY_LENGTH: i64 = 32;

/// Processes one fixed node, updating `state` and recording effects.
pub(crate) fn process_node(
    ctx: &mut PeaContext<'_>,
    state: &mut PeaState,
    node: NodeId,
    block: BlockId,
) {
    let kind = ctx.graph.kind(node).clone();
    let mut deleted = false;
    match kind {
        // ---- allocations (Fig. 4a) ----
        NodeKind::New { class } => {
            if ctx
                .options
                .allowed
                .as_ref()
                .is_none_or(|set| set.contains(&node))
            {
                let shape = AllocShape::Instance { class };
                let fields = default_fields(ctx, shape);
                let id = ctx.new_alloc(AllocInfo {
                    shape,
                    origin: node,
                    field_count: fields.len(),
                });
                state.add_virtual(id, node, fields);
                ctx.record(block, Effect::DeleteFixed { node });
                if ctx.tracing() {
                    let event = TraceEvent::Virtualized {
                        site: node.index() as u32,
                        shape: ctx.shape_str(shape),
                    };
                    ctx.trace(block, event);
                }
                deleted = true;
            }
        }
        NodeKind::NewArray { kind } => {
            let len_node = ctx.graph.node(node).inputs()[0];
            let const_len = match ctx.graph.kind(len_node) {
                NodeKind::ConstInt { value } => Some(*value),
                _ => None,
            };
            let allowed = ctx
                .options
                .allowed
                .as_ref()
                .is_none_or(|set| set.contains(&node));
            match const_len {
                Some(len) if allowed && (0..=MAX_VIRTUAL_ARRAY_LENGTH).contains(&len) => {
                    let shape = AllocShape::Array {
                        kind,
                        length: len as u32,
                    };
                    let fields = default_fields(ctx, shape);
                    let id = ctx.new_alloc(AllocInfo {
                        shape,
                        origin: node,
                        field_count: fields.len(),
                    });
                    state.add_virtual(id, node, fields);
                    ctx.record(block, Effect::DeleteFixed { node });
                    if ctx.tracing() {
                        let event = TraceEvent::Virtualized {
                            site: node.index() as u32,
                            shape: ctx.shape_str(shape),
                        };
                        ctx.trace(block, event);
                    }
                    deleted = true;
                }
                _ => escape_all_alias_inputs(ctx, state, node, block),
            }
        }

        // ---- field accesses (Fig. 4b/4e/4f, Fig. 5) ----
        NodeKind::StoreField { field } => {
            let obj = ctx.graph.node(node).inputs()[0];
            let value = ctx.graph.node(node).inputs()[1];
            match state.virtual_alias(obj) {
                Some(id) => {
                    let AllocShape::Instance { class } = ctx.infos[id.index()].shape else {
                        unreachable!("field store on array shape")
                    };
                    match ctx.program.field_slot(class, field) {
                        Some(slot) => {
                            if let ObjectState::Virtual { fields, .. } = state.object_mut(id) {
                                fields[slot] = value;
                            }
                            ctx.record(block, Effect::DeleteFixed { node });
                            if ctx.tracing() {
                                let event = TraceEvent::StoreElided {
                                    site: ctx.site_of(id),
                                    node: node.index() as u32,
                                };
                                ctx.trace(block, event);
                            }
                            deleted = true;
                        }
                        None => {
                            // Field of the wrong class: runtime error path;
                            // keep the node (it will raise).
                            escape_all_alias_inputs(ctx, state, node, block);
                        }
                    }
                }
                None => escape_all_alias_inputs(ctx, state, node, block),
            }
        }
        NodeKind::LoadField { field } => {
            let obj = ctx.graph.node(node).inputs()[0];
            match state.virtual_alias(obj) {
                Some(id) => {
                    let AllocShape::Instance { class } = ctx.infos[id.index()].shape else {
                        unreachable!("field load on array shape")
                    };
                    match ctx.program.field_slot(class, field) {
                        Some(slot) => {
                            let ObjectState::Virtual { fields, .. } = state.object(id) else {
                                unreachable!()
                            };
                            let value = fields[slot];
                            // The load becomes an alias if the value is one
                            // (Fig. 4f).
                            if let Some(vid) = state.alias_of(value) {
                                state.add_alias(node, vid);
                            }
                            ctx.record(
                                block,
                                Effect::ReplaceAndDeleteFixed {
                                    node,
                                    replacement: value,
                                },
                            );
                            if ctx.tracing() {
                                let event = TraceEvent::LoadElided {
                                    site: ctx.site_of(id),
                                    node: node.index() as u32,
                                };
                                ctx.trace(block, event);
                            }
                            deleted = true;
                        }
                        None => escape_all_alias_inputs(ctx, state, node, block),
                    }
                }
                None => escape_all_alias_inputs(ctx, state, node, block),
            }
        }
        NodeKind::StoreIndexed => {
            let [arr, idx, value] = ctx.graph.node(node).inputs() else {
                unreachable!()
            };
            let (arr, idx, value) = (*arr, *idx, *value);
            let const_idx = match ctx.graph.kind(idx) {
                NodeKind::ConstInt { value } => Some(*value),
                _ => None,
            };
            match (state.virtual_alias(arr), const_idx) {
                (Some(id), Some(i))
                    if i >= 0 && (i as usize) < ctx.infos[id.index()].field_count =>
                {
                    if let ObjectState::Virtual { fields, .. } = state.object_mut(id) {
                        fields[i as usize] = value;
                    }
                    ctx.record(block, Effect::DeleteFixed { node });
                    if ctx.tracing() {
                        let event = TraceEvent::StoreElided {
                            site: ctx.site_of(id),
                            node: node.index() as u32,
                        };
                        ctx.trace(block, event);
                    }
                    deleted = true;
                }
                _ => escape_all_alias_inputs(ctx, state, node, block),
            }
        }
        NodeKind::LoadIndexed => {
            let [arr, idx] = ctx.graph.node(node).inputs() else {
                unreachable!()
            };
            let (arr, idx) = (*arr, *idx);
            let const_idx = match ctx.graph.kind(idx) {
                NodeKind::ConstInt { value } => Some(*value),
                _ => None,
            };
            match (state.virtual_alias(arr), const_idx) {
                (Some(id), Some(i))
                    if i >= 0 && (i as usize) < ctx.infos[id.index()].field_count =>
                {
                    let ObjectState::Virtual { fields, .. } = state.object(id) else {
                        unreachable!()
                    };
                    let value = fields[i as usize];
                    if let Some(vid) = state.alias_of(value) {
                        state.add_alias(node, vid);
                    }
                    ctx.record(
                        block,
                        Effect::ReplaceAndDeleteFixed {
                            node,
                            replacement: value,
                        },
                    );
                    if ctx.tracing() {
                        let event = TraceEvent::LoadElided {
                            site: ctx.site_of(id),
                            node: node.index() as u32,
                        };
                        ctx.trace(block, event);
                    }
                    deleted = true;
                }
                _ => escape_all_alias_inputs(ctx, state, node, block),
            }
        }
        NodeKind::ArrayLen => {
            let arr = ctx.graph.node(node).inputs()[0];
            match state.virtual_alias(arr) {
                Some(id) => {
                    let AllocShape::Array { length, .. } = ctx.infos[id.index()].shape else {
                        unreachable!("array length of instance shape")
                    };
                    let c = ctx.graph.const_int(i64::from(length));
                    ctx.record(
                        block,
                        Effect::ReplaceAndDeleteFixed {
                            node,
                            replacement: c,
                        },
                    );
                    if ctx.tracing() {
                        let event = TraceEvent::CheckFolded {
                            node: node.index() as u32,
                            value: i64::from(length),
                        };
                        ctx.trace(block, event);
                    }
                    deleted = true;
                }
                None => escape_all_alias_inputs(ctx, state, node, block),
            }
        }

        // ---- monitors (Fig. 4c/4d) ----
        NodeKind::MonitorEnter => {
            let obj = ctx.graph.node(node).inputs()[0];
            match state.virtual_alias(obj) {
                Some(id) if ctx.options.lock_elision => {
                    if let ObjectState::Virtual { lock_count, .. } = state.object_mut(id) {
                        *lock_count += 1;
                    }
                    ctx.record(block, Effect::DeleteFixed { node });
                    if ctx.tracing() {
                        let event = TraceEvent::LockElided {
                            site: ctx.site_of(id),
                            node: node.index() as u32,
                            exit: false,
                        };
                        ctx.trace(block, event);
                    }
                    deleted = true;
                }
                _ => escape_all_alias_inputs(ctx, state, node, block),
            }
        }
        NodeKind::MonitorExit => {
            let obj = ctx.graph.node(node).inputs()[0];
            match state.virtual_alias(obj) {
                Some(id)
                    if ctx.options.lock_elision
                        && matches!(
                            state.object(id),
                            ObjectState::Virtual { lock_count, .. } if *lock_count > 0
                        ) =>
                {
                    if let ObjectState::Virtual { lock_count, .. } = state.object_mut(id) {
                        *lock_count -= 1;
                    }
                    ctx.record(block, Effect::DeleteFixed { node });
                    if ctx.tracing() {
                        let event = TraceEvent::LockElided {
                            site: ctx.site_of(id),
                            node: node.index() as u32,
                            exit: true,
                        };
                        ctx.trace(block, event);
                    }
                    deleted = true;
                }
                _ => escape_all_alias_inputs(ctx, state, node, block),
            }
        }

        // ---- folded checks (§5.2) ----
        NodeKind::RefEq => {
            let [a, b] = ctx.graph.node(node).inputs() else {
                unreachable!()
            };
            let (a, b) = (*a, *b);
            let va = state.virtual_alias(a);
            let vb = state.virtual_alias(b);
            if va.is_some() || vb.is_some() {
                // "Always false when exactly one input is virtual; if both
                // are virtual, true iff same Id."
                let value = i64::from(va.is_some() && va == vb);
                let c = ctx.graph.const_int(value);
                ctx.record(
                    block,
                    Effect::ReplaceAndDeleteFixed {
                        node,
                        replacement: c,
                    },
                );
                if ctx.tracing() {
                    let event = TraceEvent::CheckFolded {
                        node: node.index() as u32,
                        value,
                    };
                    ctx.trace(block, event);
                }
                deleted = true;
            } else {
                escape_all_alias_inputs(ctx, state, node, block);
            }
        }
        NodeKind::IsNull => {
            let a = ctx.graph.node(node).inputs()[0];
            if state.virtual_alias(a).is_some() {
                let c = ctx.graph.const_int(0);
                ctx.record(
                    block,
                    Effect::ReplaceAndDeleteFixed {
                        node,
                        replacement: c,
                    },
                );
                if ctx.tracing() {
                    let event = TraceEvent::CheckFolded {
                        node: node.index() as u32,
                        value: 0,
                    };
                    ctx.trace(block, event);
                }
                deleted = true;
            } else {
                escape_all_alias_inputs(ctx, state, node, block);
            }
        }
        NodeKind::InstanceOf { class, exact } => {
            let a = ctx.graph.node(node).inputs()[0];
            match state.virtual_alias(a) {
                Some(id) => {
                    let passes = match ctx.infos[id.index()].shape {
                        AllocShape::Instance { class: c } => {
                            if exact {
                                c == class
                            } else {
                                ctx.program.is_subclass_of(c, class)
                            }
                        }
                        AllocShape::Array { .. } => false,
                    };
                    let c = ctx.graph.const_int(i64::from(passes));
                    ctx.record(
                        block,
                        Effect::ReplaceAndDeleteFixed {
                            node,
                            replacement: c,
                        },
                    );
                    if ctx.tracing() {
                        let event = TraceEvent::CheckFolded {
                            node: node.index() as u32,
                            value: i64::from(passes),
                        };
                        ctx.trace(block, event);
                    }
                    deleted = true;
                }
                None => escape_all_alias_inputs(ctx, state, node, block),
            }
        }
        NodeKind::CheckCast { class } => {
            let a = ctx.graph.node(node).inputs()[0];
            match state.virtual_alias(a) {
                Some(id) => {
                    let passes = match ctx.infos[id.index()].shape {
                        AllocShape::Instance { class: c } => ctx.program.is_subclass_of(c, class),
                        AllocShape::Array { .. } => false,
                    };
                    if passes {
                        state.add_alias(node, id);
                        ctx.record(
                            block,
                            Effect::ReplaceAndDeleteFixed {
                                node,
                                replacement: a,
                            },
                        );
                        if ctx.tracing() {
                            let event = TraceEvent::CheckFolded {
                                node: node.index() as u32,
                                value: 1,
                            };
                            ctx.trace(block, event);
                        }
                        deleted = true;
                    } else {
                        // Will raise at runtime; the object must exist.
                        escape_all_alias_inputs(ctx, state, node, block);
                    }
                }
                None => escape_all_alias_inputs(ctx, state, node, block),
            }
        }

        // ---- everything else: the generic escape rule ----
        NodeKind::Invoke { .. }
        | NodeKind::PutStatic { .. }
        | NodeKind::Return
        | NodeKind::Throw
        | NodeKind::Unwind
        | NodeKind::Commit { .. } => {
            escape_all_alias_inputs(ctx, state, node, block);
        }

        // Pure control / int-only nodes: nothing to do.
        NodeKind::Start
        | NodeKind::Begin
        | NodeKind::LoopExit { .. }
        | NodeKind::If
        | NodeKind::Merge { .. }
        | NodeKind::LoopBegin { .. }
        | NodeKind::End
        | NodeKind::LoopEnd
        | NodeKind::Deopt { .. }
        | NodeKind::Guard { .. }
        | NodeKind::GetStatic { .. }
        | NodeKind::FixedArith { .. } => {}

        NodeKind::AllocatedObject { .. }
        | NodeKind::Param { .. }
        | NodeKind::ConstInt { .. }
        | NodeKind::ConstNull
        | NodeKind::Arith { .. }
        | NodeKind::Compare { .. }
        | NodeKind::Phi { .. }
        | NodeKind::FrameState(_)
        | NodeKind::VirtualObjectMapping { .. } => {
            unreachable!("floating/meta node in fixed chain: {kind:?}")
        }
    }

    // Frame-state handling (§5.5): surviving nodes keep a state that must
    // be able to rematerialize virtual objects on deoptimization.
    if !deleted {
        if let Some(fs) = ctx.graph.node(node).state_after {
            crate::framestate::rewrite_frame_state(ctx, state, fs, block);
        }
    }
}
