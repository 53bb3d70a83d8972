//! Node identity and node kinds.

use crate::framestate::FrameStateData;
use pea_bytecode::{ClassId, CmpOp, FieldId, MethodId, Program, StaticId, ValueKind};
use std::fmt;

/// Index of a node in a [`crate::Graph`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw arena index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Binary/unary integer arithmetic operators (pure; division and remainder
/// are the exception — they can trap and are therefore fixed in control
/// flow, see [`NodeKind::is_floating`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Trapping division.
    Div,
    /// Trapping remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (count masked to 6 bits).
    Shl,
    /// Arithmetic shift right (count masked to 6 bits).
    Shr,
    /// Unary negation (single input).
    Neg,
}

impl ArithOp {
    /// Whether the operator can raise a runtime error.
    pub fn can_trap(self) -> bool {
        matches!(self, ArithOp::Div | ArithOp::Rem)
    }

    /// Number of inputs.
    pub fn arity(self) -> usize {
        if self == ArithOp::Neg {
            1
        } else {
            2
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Rem => "%",
            ArithOp::And => "&",
            ArithOp::Or => "|",
            ArithOp::Xor => "^",
            ArithOp::Shl => "<<",
            ArithOp::Shr => ">>",
            ArithOp::Neg => "neg",
        };
        f.write_str(s)
    }
}

/// Why a deoptimization was emitted (recorded for diagnostics and for the
/// VM's recompilation policy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeoptReason {
    /// A branch the profile said was never taken was entered.
    UntakenBranch,
    /// A speculative receiver-type check failed (guarded inlining).
    TypeCheck,
    /// A speculated-unreachable code path was entered.
    Unreached,
    /// Null check speculation failed.
    NullCheck,
}

impl fmt::Display for DeoptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeoptReason::UntakenBranch => "untaken-branch",
            DeoptReason::TypeCheck => "type-check",
            DeoptReason::Unreached => "unreached",
            DeoptReason::NullCheck => "null-check",
        };
        f.write_str(s)
    }
}

/// The shape of a (virtualizable) allocation: a class instance or a
/// fixed-length array. "Fields" of an array are its elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocShape {
    /// A class instance; its field count comes from the program metadata.
    Instance {
        /// Allocated class.
        class: ClassId,
    },
    /// An array with a compile-time-known length.
    Array {
        /// Element kind.
        kind: ValueKind,
        /// Number of elements.
        length: u32,
    },
}

impl AllocShape {
    /// The shape as traces name it: the class name for an instance,
    /// `kind[len]` for an array.
    pub fn label(self, program: &Program) -> String {
        match self {
            AllocShape::Instance { class } => program.class(class).name.clone(),
            AllocShape::Array { .. } => self.to_string(),
        }
    }
}

impl fmt::Display for AllocShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocShape::Instance { class } => write!(f, "{class}"),
            AllocShape::Array { kind, length } => write!(f, "{kind}[{length}]"),
        }
    }
}

/// One object within a [`NodeKind::Commit`] group materialization: its
/// shape and the monitor depth it must be re-locked to (paper §4: "the
/// object's state is augmented with a locked flag").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CommitObject {
    /// What to allocate.
    pub shape: AllocShape,
    /// How many times the materialized object's monitor is entered.
    pub lock_count: u32,
}

/// The operation a node performs.
///
/// Control nodes and effectful object operations are *fixed* (threaded in
/// control flow); pure value nodes *float* and are placed by the
/// scheduler.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    // ------- control -------
    /// Method entry; the unique root of the control-flow graph.
    Start,
    /// Single-predecessor block entry (branch target).
    Begin,
    /// Block entry on a loop-exit edge; `loop_begin` names the loop.
    LoopExit {
        /// The loop being exited.
        loop_begin: NodeId,
    },
    /// Two-way branch; input 0 is the condition (int 0/1), successors are
    /// `[true_target, false_target]`.
    If,
    /// Control-flow join; its ends ([`crate::Graph::merge_ends`]) are
    /// the predecessor [`NodeKind::End`] nodes in phi-input order.
    Merge,
    /// Loop header. Its first end ([`crate::Graph::merge_ends`]) is the
    /// forward entry end, the rest are [`NodeKind::LoopEnd`] back edges.
    /// Phi inputs align with this order.
    LoopBegin,
    /// Jump into a [`NodeKind::Merge`].
    End,
    /// Back edge into a [`NodeKind::LoopBegin`].
    LoopEnd,
    /// Method return; input 0 is the value for value-returning methods.
    Return,
    /// Control sink: user exception. Input 0 is the error code.
    Throw,
    /// Control sink: an `athrow`n exception leaves the compiled frame
    /// without a matching local handler (an escaping throw is a hard
    /// materialization point, see `pea-core`). Input 0 is the exception
    /// object. Monitors held by the frame are released by explicit
    /// `MonitorExit` nodes emitted before the sink.
    Unwind,
    /// Unconditional transfer to the interpreter (with the attached frame
    /// state).
    Deopt {
        /// Why this path bails out.
        reason: DeoptReason,
    },

    // ------- fixed effectful / object operations -------
    /// Allocate an instance (all fields default-initialized).
    New {
        /// Allocated class.
        class: ClassId,
    },
    /// Allocate an array; input 0 is the length.
    NewArray {
        /// Element kind.
        kind: ValueKind,
    },
    /// Read an instance field; input 0 is the object.
    LoadField {
        /// Accessed field.
        field: FieldId,
    },
    /// Write an instance field; inputs are `[object, value]`.
    StoreField {
        /// Accessed field.
        field: FieldId,
    },
    /// Read an array element; inputs are `[array, index]`.
    LoadIndexed,
    /// Write an array element; inputs are `[array, index, value]`.
    StoreIndexed,
    /// Array length; input 0 is the array.
    ArrayLen,
    /// Acquire a monitor; input 0 is the object.
    MonitorEnter,
    /// Release a monitor; input 0 is the object.
    MonitorExit,
    /// Call; inputs are the arguments (receiver first for virtual calls).
    Invoke {
        /// Statically named target (dispatch re-resolves for virtual
        /// calls).
        target: MethodId,
        /// Whether dispatch is on the receiver's dynamic type.
        virtual_call: bool,
    },
    /// Reference identity test producing int 0/1; inputs `[a, b]`.
    RefEq,
    /// Null test producing int 0/1; input 0 is the reference.
    IsNull,
    /// Type test producing int 0/1.
    InstanceOf {
        /// Tested class.
        class: ClassId,
        /// If true, tests for exactly this class (used by guarded
        /// devirtualization); otherwise subclasses pass too.
        exact: bool,
    },
    /// Checked cast; passes through input 0 or raises.
    CheckCast {
        /// Target class.
        class: ClassId,
    },
    /// Speculation guard: deoptimizes (with the attached state) when the
    /// condition (input 0) evaluates to `negated`.
    Guard {
        /// Why the speculation exists.
        reason: DeoptReason,
        /// Deopt when the condition is **this** value.
        negated: bool,
    },
    /// Read a static variable (fixed memory read; no side effect).
    GetStatic {
        /// Accessed static.
        id: StaticId,
    },
    /// Write a static variable; input 0 is the value. Side effect.
    PutStatic {
        /// Accessed static.
        id: StaticId,
    },
    /// Trapping integer division/remainder or any arithmetic pinned for
    /// trap semantics — see [`ArithOp::can_trap`].
    FixedArith {
        /// Operator.
        op: ArithOp,
    },
    /// Materialize a group of formerly virtual objects (the analogue of
    /// Graal's `CommitAllocationNode`, paper §4 "materialization").
    /// Inputs are the concatenated field values of each object in
    /// `objects` order; field values may be [`NodeKind::AllocatedObject`]
    /// references into this same commit (cyclic structures).
    Commit {
        /// The objects to allocate, in input-layout order.
        objects: Vec<CommitObject>,
    },

    // ------- floating value nodes -------
    /// Value of a formerly virtual object materialized by a commit; input
    /// 0 is the [`NodeKind::Commit`], `index` selects the object.
    AllocatedObject {
        /// Position within the commit's object list.
        index: usize,
    },
    /// Method parameter `index`.
    Param {
        /// Parameter position.
        index: u16,
    },
    /// Integer constant.
    ConstInt {
        /// The value.
        value: i64,
    },
    /// The null constant.
    ConstNull,
    /// Pure integer arithmetic (trapping operators use
    /// [`NodeKind::FixedArith`]).
    Arith {
        /// Operator.
        op: ArithOp,
    },
    /// Integer comparison producing 0/1; inputs `[a, b]`.
    Compare {
        /// Operator.
        op: CmpOp,
    },
    /// SSA phi; pinned to `merge`, inputs align with the merge's `ends`.
    Phi {
        /// Owning merge or loop begin.
        merge: NodeId,
    },

    // ------- metadata -------
    /// Bytecode-level VM state for deoptimization (paper §2, §5.5).
    /// Inputs are `locals ++ stack ++ lock objects ++ [outer?]` as
    /// described by the [`FrameStateData`].
    FrameState(FrameStateData),
    /// Snapshot of a virtual object inside a frame state: deoptimization
    /// rematerializes it (paper §5.5 / Figure 8). Inputs are the field (or
    /// element) values; they may reference other mappings, including
    /// cyclically.
    VirtualObjectMapping {
        /// What to rematerialize.
        shape: AllocShape,
        /// Monitor depth to restore.
        lock_count: u32,
    },
}

impl NodeKind {
    /// Whether nodes of this kind are fixed in control flow.
    pub fn is_fixed(&self) -> bool {
        !self.is_floating() && !self.is_meta()
    }

    /// Whether nodes of this kind float (are placed by the scheduler).
    pub fn is_floating(&self) -> bool {
        matches!(
            self,
            NodeKind::AllocatedObject { .. }
                | NodeKind::Param { .. }
                | NodeKind::ConstInt { .. }
                | NodeKind::ConstNull
                | NodeKind::Arith { .. }
                | NodeKind::Compare { .. }
                | NodeKind::Phi { .. }
        )
    }

    /// Whether nodes of this kind are metadata (never executed).
    pub fn is_meta(&self) -> bool {
        matches!(
            self,
            NodeKind::FrameState(_) | NodeKind::VirtualObjectMapping { .. }
        )
    }

    /// Whether this kind starts a basic block.
    pub fn is_block_start(&self) -> bool {
        matches!(
            self,
            NodeKind::Start
                | NodeKind::Begin
                | NodeKind::LoopExit { .. }
                | NodeKind::Merge
                | NodeKind::LoopBegin
        )
    }

    /// Whether this kind ends a basic block (no single `next` successor).
    pub fn is_block_end(&self) -> bool {
        matches!(
            self,
            NodeKind::If
                | NodeKind::End
                | NodeKind::LoopEnd
                | NodeKind::Return
                | NodeKind::Throw
                | NodeKind::Unwind
                | NodeKind::Deopt { .. }
        )
    }

    /// Whether this node is a side effect for frame-state purposes: it
    /// cannot be re-executed, so the builder captures a fresh
    /// [`NodeKind::FrameState`] after it (paper §2).
    pub fn is_side_effect(&self) -> bool {
        matches!(
            self,
            NodeKind::StoreField { .. }
                | NodeKind::StoreIndexed
                | NodeKind::PutStatic { .. }
                | NodeKind::MonitorEnter
                | NodeKind::MonitorExit
                | NodeKind::Invoke { .. }
        )
    }

    /// Short mnemonic for dumps.
    pub fn mnemonic(&self) -> String {
        match self {
            NodeKind::Start => "Start".into(),
            NodeKind::Begin => "Begin".into(),
            NodeKind::LoopExit { loop_begin } => format!("LoopExit({loop_begin})"),
            NodeKind::If => "If".into(),
            NodeKind::Merge => "Merge".into(),
            NodeKind::LoopBegin => "LoopBegin".into(),
            NodeKind::End => "End".into(),
            NodeKind::LoopEnd => "LoopEnd".into(),
            NodeKind::Return => "Return".into(),
            NodeKind::Throw => "Throw".into(),
            NodeKind::Unwind => "Unwind".into(),
            NodeKind::Deopt { reason } => format!("Deopt[{reason}]"),
            NodeKind::New { class } => format!("New {class}"),
            NodeKind::NewArray { kind } => format!("NewArray {kind}"),
            NodeKind::LoadField { field } => format!("LoadField {field}"),
            NodeKind::StoreField { field } => format!("StoreField {field}"),
            NodeKind::LoadIndexed => "LoadIndexed".into(),
            NodeKind::StoreIndexed => "StoreIndexed".into(),
            NodeKind::ArrayLen => "ArrayLen".into(),
            NodeKind::MonitorEnter => "MonitorEnter".into(),
            NodeKind::MonitorExit => "MonitorExit".into(),
            NodeKind::Invoke {
                target,
                virtual_call,
            } => format!(
                "Invoke{} {target}",
                if *virtual_call { "Virtual" } else { "Static" }
            ),
            NodeKind::RefEq => "RefEq".into(),
            NodeKind::IsNull => "IsNull".into(),
            NodeKind::InstanceOf { class, exact } => {
                format!("InstanceOf{} {class}", if *exact { "Exact" } else { "" })
            }
            NodeKind::CheckCast { class } => format!("CheckCast {class}"),
            NodeKind::Guard { reason, negated } => {
                format!("Guard[{reason}{}]", if *negated { ", !cond" } else { "" })
            }
            NodeKind::GetStatic { id } => format!("GetStatic {id}"),
            NodeKind::PutStatic { id } => format!("PutStatic {id}"),
            NodeKind::FixedArith { op } => format!("FixedArith {op}"),
            NodeKind::Commit { objects } => format!("Commit x{}", objects.len()),
            NodeKind::AllocatedObject { index } => format!("AllocatedObject #{index}"),
            NodeKind::Param { index } => format!("Param({index})"),
            NodeKind::ConstInt { value } => format!("Const {value}"),
            NodeKind::ConstNull => "ConstNull".into(),
            NodeKind::Arith { op } => format!("Arith {op}"),
            NodeKind::Compare { op } => format!("Compare {op}"),
            NodeKind::Phi { merge } => format!("Phi @{merge}"),
            NodeKind::FrameState(d) => format!("FrameState {}:{}", d.method, d.bci),
            NodeKind::VirtualObjectMapping { shape, lock_count } => {
                format!("VirtualObjectMapping {shape} locks={lock_count}")
            }
        }
    }
}

/// A view of one node: kind, data inputs, control successors, optional
/// frame state. The edge lists live in the graph's pool
/// ([`crate::Graph`]), so a node is read through this borrowed view.
#[derive(Clone, Copy, Debug)]
pub struct Node<'g> {
    /// What the node does.
    pub kind: &'g NodeKind,
    /// Data inputs (order is kind-specific).
    pub(crate) inputs: &'g [NodeId],
    /// Control successors: `[next]` for straight-line fixed nodes,
    /// `[true, false]` for [`NodeKind::If`], empty otherwise.
    pub(crate) successors: &'g [NodeId],
    /// Control predecessor for fixed nodes with a unique predecessor.
    /// Merges/loop begins use their ends instead.
    pub(crate) control_pred: Option<NodeId>,
    /// The frame state describing VM state for deoptimization at/after
    /// this node (side effects carry their after-state; guards and deopts
    /// carry the state they resume with).
    pub state_after: Option<NodeId>,
    /// Tombstone flag; deleted nodes stay in the arena but are ignored.
    pub(crate) deleted: bool,
}

impl<'g> Node<'g> {
    /// Data inputs in kind order.
    pub fn inputs(&self) -> &'g [NodeId] {
        self.inputs
    }

    /// Control successors.
    pub fn successors(&self) -> &'g [NodeId] {
        self.successors
    }

    /// Whether the node has been deleted.
    pub fn is_deleted(&self) -> bool {
        self.deleted
    }

    /// Unique control predecessor (fixed non-merge nodes).
    pub fn control_pred(&self) -> Option<NodeId> {
        self.control_pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixedness_partition_is_total() {
        let kinds: Vec<NodeKind> = vec![
            NodeKind::Start,
            NodeKind::If,
            NodeKind::New { class: ClassId(0) },
            NodeKind::Phi { merge: NodeId(0) },
            NodeKind::ConstInt { value: 1 },
            NodeKind::FrameState(FrameStateData::new(MethodId(0), 0, 0, 0, 0, false)),
            NodeKind::VirtualObjectMapping {
                shape: AllocShape::Instance { class: ClassId(0) },
                lock_count: 0,
            },
        ];
        for k in kinds {
            let sum =
                usize::from(k.is_fixed()) + usize::from(k.is_floating()) + usize::from(k.is_meta());
            assert_eq!(sum, 1, "kind {k:?} must be in exactly one class");
        }
    }

    #[test]
    fn div_is_trapping_and_binary() {
        assert!(ArithOp::Div.can_trap());
        assert!(!ArithOp::Add.can_trap());
        assert_eq!(ArithOp::Neg.arity(), 1);
        assert_eq!(ArithOp::Add.arity(), 2);
    }

    #[test]
    fn side_effects_are_the_frame_state_carriers() {
        assert!(NodeKind::StoreField { field: FieldId(0) }.is_side_effect());
        assert!(NodeKind::MonitorEnter.is_side_effect());
        assert!(!NodeKind::New { class: ClassId(0) }.is_side_effect());
        assert!(!NodeKind::LoadField { field: FieldId(0) }.is_side_effect());
    }

    #[test]
    fn block_boundaries() {
        assert!(NodeKind::Merge.is_block_start());
        assert!(NodeKind::If.is_block_end());
        assert!(!NodeKind::New { class: ClassId(0) }.is_block_end());
    }

    #[test]
    fn mnemonics_are_nonempty() {
        assert!(!NodeKind::Start.mnemonic().is_empty());
        assert!(NodeKind::New { class: ClassId(3) }
            .mnemonic()
            .contains("C3"));
    }
}
