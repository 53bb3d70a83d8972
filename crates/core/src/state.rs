//! The allocation state propagated through the IR (paper §5.1,
//! Listing 7, Figure 3).

use pea_ir::{AllocShape, NodeId};
use std::fmt;

/// Identity of one allocation *site occurrence* discovered during the
/// analysis (the paper's `Id` objects).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub u32);

impl AllocId {
    /// Raw index into the analysis' [`AllocInfo`] table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AllocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.0)
    }
}

impl fmt::Display for AllocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.0)
    }
}

/// Immutable per-allocation metadata, shared by all states.
#[derive(Clone, Debug)]
pub struct AllocInfo {
    /// Shape (class or fixed-length array).
    pub shape: AllocShape,
    /// The `New`/`NewArray` node this allocation came from.
    pub origin: NodeId,
    /// Number of field (or element) slots.
    pub field_count: usize,
}

/// The paper's `ObjectState`: what the analysis currently knows about one
/// allocation on the current path.
///
/// A virtual object's field values live in its [`PeaState`]'s field
/// buffer; read them with [`PeaState::fields`].
#[derive(Clone, Copy, Debug)]
pub enum ObjectState {
    /// No reason to allocate yet: field values and lock depth are tracked
    /// symbolically (`VirtualState` in Listing 7).
    Virtual {
        /// Start of the field values in the owning state's buffer.
        fields_at: u32,
        /// Number of field/element values. Entries may be alias nodes of
        /// other (virtual or escaped) allocations.
        field_count: u32,
        /// Monitor depth the object would be held at (paper Fig. 4c/4d).
        lock_count: u32,
    },
    /// The object exists in the heap (`EscapedState` in Listing 7).
    Escaped {
        /// Node producing the actual object reference (an
        /// `AllocatedObject` of a commit, or a phi of such).
        materialized: NodeId,
    },
}

impl ObjectState {
    /// Whether the object is still virtual.
    pub fn is_virtual(&self) -> bool {
        matches!(self, ObjectState::Virtual { .. })
    }

    /// The materialized value, if escaped.
    pub fn materialized_value(&self) -> Option<NodeId> {
        match self {
            ObjectState::Escaped { materialized } => Some(*materialized),
            ObjectState::Virtual { .. } => None,
        }
    }

    /// The monitor depth, if virtual.
    pub fn lock_count(&self) -> Option<u32> {
        match self {
            ObjectState::Virtual { lock_count, .. } => Some(*lock_count),
            ObjectState::Escaped { .. } => None,
        }
    }
}

/// The flow state: object states plus the alias map (paper Listing 7's
/// `State` class).
///
/// Both maps are vectors sorted by key, and every virtual object's fields
/// sit in one buffer, so copying a state is three `memcpy`s into buffers
/// that [`Clone::clone_from`] reuses. Fields of an object that escaped stay
/// in the buffer unreferenced until the state is next rebuilt.
#[derive(Debug, Default)]
pub struct PeaState {
    /// Knowledge about each live allocation, sorted by id.
    objects: Vec<(AllocId, ObjectState)>,
    /// Mapping from IR nodes to the allocation they refer to, sorted by
    /// node. Initially the `New` node; loads, phis and casts add more
    /// aliases (§5.1).
    aliases: Vec<(NodeId, AllocId)>,
    /// Field values of the virtual objects.
    fields: Vec<NodeId>,
}

impl Clone for PeaState {
    fn clone(&self) -> Self {
        PeaState {
            objects: self.objects.clone(),
            aliases: self.aliases.clone(),
            fields: self.fields.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.objects.clone_from(&source.objects);
        self.aliases.clone_from(&source.aliases);
        self.fields.clone_from(&source.fields);
    }
}

impl PartialEq for PeaState {
    /// Structural equality: the same ids in the same states with the same
    /// field values, and the same aliases. Where in the buffer the fields
    /// sit does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.aliases == other.aliases
            && self.objects.len() == other.objects.len()
            && self
                .objects
                .iter()
                .zip(&other.objects)
                .all(|(&(a, sa), &(b, sb))| {
                    a == b
                        && match (sa, sb) {
                            (
                                ObjectState::Escaped { materialized: x },
                                ObjectState::Escaped { materialized: y },
                            ) => x == y,
                            (
                                ObjectState::Virtual { lock_count: x, .. },
                                ObjectState::Virtual { lock_count: y, .. },
                            ) => x == y && self.fields(a) == other.fields(b),
                            _ => false,
                        }
                })
    }
}

impl Eq for PeaState {}

impl PeaState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the state, keeping its buffers for reuse.
    pub(crate) fn clear(&mut self) {
        self.objects.clear();
        self.aliases.clear();
        self.fields.clear();
    }

    /// Every tracked allocation with its state, in id order.
    pub fn objects(&self) -> &[(AllocId, ObjectState)] {
        &self.objects
    }

    /// Every alias, in node order.
    pub fn aliases(&self) -> &[(NodeId, AllocId)] {
        &self.aliases
    }

    /// The allocation a node refers to, if tracked.
    pub fn alias_of(&self, node: NodeId) -> Option<AllocId> {
        self.aliases
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| self.aliases[i].1)
    }

    fn position(&self, id: AllocId) -> Option<usize> {
        self.objects.binary_search_by_key(&id, |&(a, _)| a).ok()
    }

    /// Whether `id` is tracked in this state.
    pub fn contains(&self, id: AllocId) -> bool {
        self.position(id).is_some()
    }

    /// The object state of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not tracked in this state.
    pub fn object(&self, id: AllocId) -> ObjectState {
        self.objects[self.position(id).expect("untracked allocation")].1
    }

    /// Mutable object state of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not tracked in this state.
    pub fn object_mut(&mut self, id: AllocId) -> &mut ObjectState {
        let at = self.position(id).expect("untracked allocation");
        &mut self.objects[at].1
    }

    /// The field values of the virtual object `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is untracked or escaped.
    pub fn fields(&self, id: AllocId) -> &[NodeId] {
        match self.object(id) {
            ObjectState::Virtual {
                fields_at,
                field_count,
                ..
            } => &self.fields[fields_at as usize..(fields_at + field_count) as usize],
            ObjectState::Escaped { .. } => panic!("fields of an escaped object"),
        }
    }

    /// Mutable field values of the virtual object `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is untracked or escaped.
    pub fn fields_mut(&mut self, id: AllocId) -> &mut [NodeId] {
        match self.object(id) {
            ObjectState::Virtual {
                fields_at,
                field_count,
                ..
            } => &mut self.fields[fields_at as usize..(fields_at + field_count) as usize],
            ObjectState::Escaped { .. } => panic!("fields of an escaped object"),
        }
    }

    /// Allocation id a node refers to *and* whose object is still virtual.
    pub fn virtual_alias(&self, node: NodeId) -> Option<AllocId> {
        self.alias_of(node).filter(|&id| {
            self.position(id)
                .is_some_and(|at| self.objects[at].1.is_virtual())
        })
    }

    /// Registers a new virtual allocation with the given field values.
    pub fn add_virtual(
        &mut self,
        id: AllocId,
        origin: NodeId,
        fields: impl IntoIterator<Item = NodeId>,
    ) {
        let fields_at = self.fields.len() as u32;
        self.fields.extend(fields);
        let field_count = self.fields.len() as u32 - fields_at;
        self.set_object(
            id,
            ObjectState::Virtual {
                fields_at,
                field_count,
                lock_count: 0,
            },
        );
        self.add_alias(origin, id);
    }

    /// Sets the state of `id`, tracking it if it is not yet.
    pub(crate) fn set_object(&mut self, id: AllocId, state: ObjectState) {
        match self.objects.binary_search_by_key(&id, |&(a, _)| a) {
            Ok(at) => self.objects[at].1 = state,
            Err(at) => self.objects.insert(at, (id, state)),
        }
    }

    /// Appends a field value to the buffer, for an
    /// [`ObjectState::Virtual`] built by [`PeaState::set_object`].
    pub(crate) fn push_field(&mut self, value: NodeId) {
        self.fields.push(value);
    }

    /// Where the next pushed field value goes.
    pub(crate) fn fields_end(&self) -> u32 {
        self.fields.len() as u32
    }

    /// Drops field values pushed since `at`.
    pub(crate) fn truncate_fields(&mut self, at: u32) {
        self.fields.truncate(at as usize);
    }

    /// Registers `node` as an additional alias of `id`.
    pub fn add_alias(&mut self, node: NodeId, id: AllocId) {
        match self.aliases.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(at) => self.aliases[at].1 = id,
            Err(at) => self.aliases.insert(at, (node, id)),
        }
    }

    /// Renders the state in the visual style of the paper's Figure 3/4:
    /// one line per id (`v` = virtual with lock count and fields, `e` =
    /// escaped with materialized value), then the alias table.
    pub fn render(&self, infos: &[AllocInfo]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(id, state) in &self.objects {
            let shape = infos
                .get(id.index())
                .map(|i| i.shape.to_string())
                .unwrap_or_else(|| "?".into());
            match state {
                ObjectState::Virtual { lock_count, .. } => {
                    let fs: Vec<String> = self.fields(id).iter().map(|f| f.to_string()).collect();
                    let _ = writeln!(out, "  {shape} {id}  v {lock_count} [{}]", fs.join(", "));
                }
                ObjectState::Escaped { materialized } => {
                    let _ = writeln!(out, "  {shape} {id}  e -> {materialized}");
                }
            }
        }
        if !self.aliases.is_empty() {
            let aliases: Vec<String> = self
                .aliases
                .iter()
                .map(|(n, id)| format!("{n}->{id}"))
                .collect();
            let _ = writeln!(out, "  aliases: {}", aliases.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::ClassId;

    fn info() -> Vec<AllocInfo> {
        vec![AllocInfo {
            shape: AllocShape::Instance { class: ClassId(0) },
            origin: NodeId(5),
            field_count: 2,
        }]
    }

    #[test]
    fn add_virtual_registers_alias() {
        let mut s = PeaState::new();
        s.add_virtual(AllocId(0), NodeId(5), [NodeId(1), NodeId(2)]);
        assert_eq!(s.alias_of(NodeId(5)), Some(AllocId(0)));
        assert!(s.object(AllocId(0)).is_virtual());
        assert_eq!(s.virtual_alias(NodeId(5)), Some(AllocId(0)));
        assert_eq!(s.fields(AllocId(0)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn escaped_objects_are_not_virtual_aliases() {
        let mut s = PeaState::new();
        s.add_virtual(AllocId(0), NodeId(5), []);
        *s.object_mut(AllocId(0)) = ObjectState::Escaped {
            materialized: NodeId(9),
        };
        assert_eq!(s.virtual_alias(NodeId(5)), None);
        assert_eq!(s.alias_of(NodeId(5)), Some(AllocId(0)));
        assert_eq!(s.object(AllocId(0)).materialized_value(), Some(NodeId(9)));
    }

    #[test]
    fn states_compare_structurally() {
        let mut a = PeaState::new();
        a.add_virtual(AllocId(0), NodeId(5), [NodeId(1)]);
        let mut b = PeaState::new();
        b.add_virtual(AllocId(0), NodeId(5), [NodeId(1)]);
        assert_eq!(a, b);
        if let ObjectState::Virtual { lock_count, .. } = b.object_mut(AllocId(0)) {
            *lock_count = 1;
        }
        assert_ne!(a, b);
    }

    #[test]
    fn equality_ignores_where_fields_sit() {
        // `a` keeps the fields of an escaped object in its buffer; `b`
        // was built without them.
        let mut a = PeaState::new();
        a.add_virtual(AllocId(0), NodeId(5), [NodeId(1)]);
        a.add_virtual(AllocId(1), NodeId(6), [NodeId(2)]);
        *a.object_mut(AllocId(0)) = ObjectState::Escaped {
            materialized: NodeId(9),
        };
        let mut b = PeaState::new();
        b.add_virtual(AllocId(1), NodeId(6), [NodeId(2)]);
        b.add_alias(NodeId(5), AllocId(0));
        b.set_object(
            AllocId(0),
            ObjectState::Escaped {
                materialized: NodeId(9),
            },
        );
        assert_eq!(a, b);
        b.fields_mut(AllocId(1))[0] = NodeId(3);
        assert_ne!(a, b);
    }

    #[test]
    fn render_matches_figure_style() {
        let mut s = PeaState::new();
        s.add_virtual(AllocId(0), NodeId(5), [NodeId(1), NodeId(2)]);
        let text = s.render(&info());
        assert!(text.contains("v 0 [v1, v2]"), "{text}");
        assert!(text.contains("aliases: v5->(0)"), "{text}");
    }
}
