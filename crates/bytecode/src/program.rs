//! Program metadata: classes, fields, methods and statics in flat arenas.

use crate::facts::MethodFacts;
use crate::fused::{fuse, Fused};
use crate::{ClassId, FieldId, Insn, MethodId, StaticId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Bytes occupied by every object header (mirrors a 64-bit JVM with
/// compressed-oops disabled: mark word + class pointer).
pub const OBJECT_HEADER_BYTES: u64 = 16;

/// Bytes occupied by one field or array-element slot.
pub const VALUE_SLOT_BYTES: u64 = 8;

/// The two storage kinds the bytecode distinguishes: 64-bit integers and
/// object references. Booleans are integers `0`/`1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ValueKind {
    /// 64-bit signed integer.
    #[default]
    Int,
    /// Object (or array) reference; may be null.
    Ref,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValueKind::Int => "int",
            ValueKind::Ref => "ref",
        })
    }
}

/// A class declaration: name, optional superclass, declared fields and
/// declared methods. Inherited fields/methods are resolved via
/// [`Program::instance_fields`] and [`Program::resolve_virtual`].
#[derive(Clone, Debug)]
pub struct Class {
    /// Class name, unique within the program.
    pub name: String,
    /// Superclass, if any (single inheritance).
    pub superclass: Option<ClassId>,
    /// Fields declared by this class itself (not inherited ones).
    pub declared_fields: Vec<FieldId>,
    /// Methods declared by this class itself.
    pub declared_methods: Vec<MethodId>,
}

/// An instance field declaration.
#[derive(Clone, Debug)]
pub struct Field {
    /// Declaring class.
    pub class: ClassId,
    /// Field name, unique within its class.
    pub name: String,
    /// Storage kind, used for default values and size accounting.
    pub kind: ValueKind,
}

/// A static (global) variable declaration.
#[derive(Clone, Debug)]
pub struct StaticDecl {
    /// Name, unique within the program.
    pub name: String,
    /// Storage kind.
    pub kind: ValueKind,
}

/// One row of a method's exception table, mirroring the JVM's
/// `exception_table` entries: while executing a bci in `[start, end)`, a
/// thrown exception whose class matches `catch_class` transfers control to
/// `handler` with the operand stack cleared to just the exception
/// reference. Entries are consulted in table order (first match wins);
/// `catch_class: None` is a catch-all, which is also how `finally` blocks
/// are lowered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExceptionEntry {
    /// First protected bci (inclusive).
    pub start: u32,
    /// Past-the-end protected bci (exclusive; may equal `code.len()`).
    pub end: u32,
    /// Handler entry bci.
    pub handler: u32,
    /// Catch type: the handler matches this class and its subclasses;
    /// `None` catches everything.
    pub catch_class: Option<ClassId>,
}

impl ExceptionEntry {
    /// Whether the protected range covers `bci`.
    #[inline]
    pub fn covers(&self, bci: u32) -> bool {
        self.start <= bci && bci < self.end
    }
}

/// A method: code plus calling metadata.
///
/// Parameters arrive in locals `0..param_count`; for virtual methods local
/// `0` is the receiver. There is no separate descriptor language — all
/// parameters are dynamically typed values.
#[derive(Clone, Debug)]
pub struct Method {
    /// Declaring class for virtual methods, `None` for free static methods.
    pub class: Option<ClassId>,
    /// Method name; virtual dispatch matches on this name up the hierarchy.
    pub name: String,
    /// Number of parameters, including the receiver for virtual methods.
    pub param_count: u16,
    /// Whether the method pushes a return value.
    pub returns_value: bool,
    /// `true` for static methods (no receiver, no dynamic dispatch).
    pub is_static: bool,
    /// Synchronized methods lock the receiver (or a program-wide token for
    /// static methods is *not* modelled — only instance methods may be
    /// synchronized here).
    pub is_synchronized: bool,
    /// Number of local-variable slots (≥ `param_count`).
    pub max_locals: u16,
    /// The instruction stream; branch targets index into this vector.
    pub code: Vec<Insn>,
    /// Exception handlers, in match order (see [`ExceptionEntry`]).
    pub exception_table: Vec<ExceptionEntry>,
}

impl Method {
    /// A stable human-readable name like `Key.equals` or `getValue`.
    pub fn qualified_name(&self, program: &Program) -> String {
        match self.class {
            Some(c) => format!("{}.{}", program.class(c).name, self.name),
            None => self.name.clone(),
        }
    }

    /// Exception-table entries whose protected range covers `bci`, in
    /// table order.
    pub fn handlers_at(&self, bci: u32) -> impl Iterator<Item = &ExceptionEntry> {
        self.exception_table.iter().filter(move |e| e.covers(bci))
    }

    /// The method contains an `athrow` (the only instruction that raises a
    /// catchable exception).
    pub fn has_athrow(&self) -> bool {
        self.code.iter().any(|i| matches!(i, Insn::Athrow))
    }
}

/// Errors raised while assembling or querying a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A class name was declared twice.
    DuplicateClass(String),
    /// A field name was declared twice in one class.
    DuplicateField(String, String),
    /// A static name was declared twice.
    DuplicateStatic(String),
    /// A method name was declared twice in the same scope.
    DuplicateMethod(String),
    /// The class hierarchy contains a cycle.
    CyclicHierarchy(String),
    /// Lookup by name failed.
    NotFound(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateClass(n) => write!(f, "duplicate class `{n}`"),
            ProgramError::DuplicateField(c, n) => {
                write!(f, "duplicate field `{n}` in class `{c}`")
            }
            ProgramError::DuplicateStatic(n) => write!(f, "duplicate static `{n}`"),
            ProgramError::DuplicateMethod(n) => write!(f, "duplicate method `{n}`"),
            ProgramError::CyclicHierarchy(n) => {
                write!(f, "cyclic class hierarchy involving `{n}`")
            }
            ProgramError::NotFound(n) => write!(f, "`{n}` not found"),
        }
    }
}

impl Error for ProgramError {}

/// Resolved tables of one class: what an allocation or a field access
/// needs, without walking the hierarchy.
#[derive(Clone, Debug, Default)]
struct ClassLayout {
    /// Instance fields in layout order: superclass fields first, so a
    /// field keeps its slot in every subclass.
    fields: Vec<FieldId>,
    /// Storage kind of each slot, aligned with `fields`.
    kinds: Vec<ValueKind>,
    /// The class and its superclasses, root first: `ancestors[d]` is the
    /// ancestor at depth `d`, the class itself comes last.
    ancestors: Vec<ClassId>,
    /// The method a receiver of this class runs for each virtual slot:
    /// the superclass's table, with overrides replaced by name and new
    /// names appended, so a slot means the same name in every subclass.
    vtable: Vec<MethodId>,
}

/// Tables resolved from the class hierarchy, computed exactly once by
/// [`crate::ProgramBuilder::build`]. Empty on a program that did not come
/// out of the builder.
#[derive(Clone, Debug, Default)]
struct Sealed {
    /// Indexed by [`ClassId`].
    layouts: Vec<ClassLayout>,
    /// Slot of each field in its declaring class and every subclass,
    /// indexed by [`FieldId`].
    field_slots: Vec<u32>,
    /// Declaring class and vtable slot of each virtual method, indexed by
    /// [`MethodId`]; `None` for free static methods.
    method_slots: Vec<Option<(ClassId, u32)>>,
    /// The interpreter's fused dispatch stream of each method, one entry
    /// per bci, indexed by [`MethodId`].
    fused: Vec<Vec<Fused>>,
    /// The graph builder's bytecode facts of each method, indexed by
    /// [`MethodId`].
    facts: Vec<MethodFacts>,
}

/// A complete program: all metadata arenas plus method code.
///
/// The layout queries ([`Program::instance_fields`],
/// [`Program::object_size`], [`Program::field_slot`],
/// [`Program::is_subclass_of`]), the fused dispatch streams
/// ([`Program::fused`]) and the bytecode facts ([`Program::facts`]) are
/// lookups in tables that [`crate::ProgramBuilder::build`] resolves once;
/// the layout queries and the facts panic on a program that did not come
/// out of the builder, and none of them follows later edits of the public
/// arenas.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Class arena, indexed by [`ClassId`].
    pub classes: Vec<Class>,
    /// Field arena, indexed by [`FieldId`].
    pub fields: Vec<Field>,
    /// Method arena, indexed by [`MethodId`].
    pub methods: Vec<Method>,
    /// Static-variable arena, indexed by [`StaticId`].
    pub statics: Vec<StaticDecl>,
    sealed: Sealed,
}

// The VM shares one `Arc<Program>` with background compiler threads, so
// the program (and everything reachable from it) must stay thread-safe.
// This trips at compile time if an `Rc`/`RefCell`/raw pointer ever sneaks
// into the arenas.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
};

impl Program {
    /// Access a class by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Access a field by id.
    #[inline]
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Access a method by id.
    #[inline]
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Access a static declaration by id.
    #[inline]
    pub fn static_decl(&self, id: StaticId) -> &StaticDecl {
        &self.statics[id.index()]
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(ClassId::from_index)
    }

    /// Finds a declared field by `Class.name` pair.
    pub fn field_by_name(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &fid in &self.class(c).declared_fields {
                if self.field(fid).name == name {
                    return Some(fid);
                }
            }
            cur = self.class(c).superclass;
        }
        None
    }

    /// Finds a static variable by name.
    pub fn static_by_name(&self, name: &str) -> Option<StaticId> {
        self.statics
            .iter()
            .position(|s| s.name == name)
            .map(StaticId::from_index)
    }

    /// Finds a free static method by name.
    pub fn static_method_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.class.is_none() && m.name == name)
            .map(MethodId::from_index)
    }

    /// Finds a method declared in `class` (not inherited) by name.
    pub fn declared_method_by_name(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.class(class)
            .declared_methods
            .iter()
            .copied()
            .find(|&m| self.method(m).name == name)
    }

    /// Resolves a virtual call on a receiver of dynamic class
    /// `receiver_class`: the first method up the hierarchy from the
    /// receiver's class whose name matches the statically named target.
    /// A receiver of the target's class or a subclass reads the sealed
    /// vtable; any other receiver walks the hierarchy comparing names.
    #[inline]
    pub fn resolve_virtual(
        &self,
        receiver_class: ClassId,
        target: MethodId,
    ) -> Result<MethodId, ProgramError> {
        if let Some(&Some((class, slot))) = self.sealed.method_slots.get(target.index()) {
            if self.is_subclass_of(receiver_class, class) {
                return Ok(self.layout(receiver_class).vtable[slot as usize]);
            }
        }
        self.resolve_virtual_by_name(receiver_class, target)
    }

    #[cold]
    fn resolve_virtual_by_name(
        &self,
        receiver_class: ClassId,
        target: MethodId,
    ) -> Result<MethodId, ProgramError> {
        let name = &self.method(target).name;
        let mut cur = Some(receiver_class);
        while let Some(c) = cur {
            if let Some(m) = self.declared_method_by_name(c, name) {
                return Ok(m);
            }
            cur = self.class(c).superclass;
        }
        Err(ProgramError::NotFound(format!(
            "virtual method `{}` on class `{}`",
            name,
            self.class(receiver_class).name
        )))
    }

    /// Resolves the per-class tables from the hierarchy, which
    /// [`Program::check_hierarchy`] must have accepted.
    pub(crate) fn seal(&mut self) {
        let layouts: Vec<ClassLayout> = (0..self.classes.len())
            .map(|i| {
                let mut ancestors = Vec::new();
                let mut cur = Some(ClassId::from_index(i));
                while let Some(c) = cur {
                    ancestors.push(c);
                    cur = self.class(c).superclass;
                }
                ancestors.reverse();
                let fields: Vec<FieldId> = ancestors
                    .iter()
                    .flat_map(|&c| self.class(c).declared_fields.iter().copied())
                    .collect();
                let kinds = fields.iter().map(|&f| self.field(f).kind).collect();
                ClassLayout {
                    fields,
                    kinds,
                    ancestors,
                    vtable: Vec::new(),
                }
            })
            .collect();
        let mut field_slots = vec![0; self.fields.len()];
        for layout in &layouts {
            for (slot, f) in layout.fields.iter().enumerate() {
                field_slots[f.index()] = u32::try_from(slot).expect("field slot exceeds u32");
            }
        }
        self.sealed = Sealed {
            layouts,
            field_slots,
            method_slots: vec![None; self.methods.len()],
            fused: Vec::new(),
            facts: Vec::new(),
        };
        self.seal_vtables();
        let fused = self.methods.iter().map(|m| fuse(self, m)).collect();
        self.sealed.fused = fused;
        self.sealed.facts = crate::facts::seal(self);
    }

    /// Builds every class's vtable after its superclass's (shallowest
    /// classes first): inherit, override by name, append new names.
    fn seal_vtables(&mut self) {
        let mut order: Vec<ClassId> = (0..self.classes.len()).map(ClassId::from_index).collect();
        order.sort_by_key(|&c| self.layout(c).ancestors.len());
        for class in order {
            let mut vtable = match self.class(class).superclass {
                Some(s) => self.layout(s).vtable.clone(),
                None => Vec::new(),
            };
            let mut slots: HashMap<&str, usize> = vtable
                .iter()
                .enumerate()
                .map(|(slot, &m)| (self.method(m).name.as_str(), slot))
                .collect();
            let mut declared = Vec::new();
            for &m in &self.class(class).declared_methods {
                let slot = *slots.entry(&self.method(m).name).or_insert_with(|| {
                    vtable.push(m);
                    vtable.len() - 1
                });
                vtable[slot] = m;
                declared.push((m, u32::try_from(slot).expect("vtable slot exceeds u32")));
            }
            for (m, slot) in declared {
                self.sealed.method_slots[m.index()] = Some((class, slot));
            }
            self.sealed.layouts[class.index()].vtable = vtable;
        }
    }

    #[inline]
    fn layout(&self, class: ClassId) -> &ClassLayout {
        &self.sealed.layouts[class.index()]
    }

    /// All instance fields of a class in layout order: superclass fields
    /// first, then declared fields.
    #[inline]
    pub fn instance_fields(&self, class: ClassId) -> &[FieldId] {
        &self.layout(class).fields
    }

    /// Storage kind of each slot of an instance of `class`, aligned with
    /// [`Program::instance_fields`].
    #[inline]
    pub fn slot_kinds(&self, class: ClassId) -> &[ValueKind] {
        &self.layout(class).kinds
    }

    /// Slot of `field` in an instance of `class`; `None` when `class` is
    /// neither the field's declaring class nor one of its subclasses.
    #[inline]
    pub fn field_slot(&self, class: ClassId, field: FieldId) -> Option<usize> {
        self.is_subclass_of(class, self.field(field).class)
            .then(|| self.sealed.field_slots[field.index()] as usize)
    }

    /// The slot of `field` in its declaring class and every subclass.
    #[inline]
    pub(crate) fn sealed_field_slot(&self, field: FieldId) -> u32 {
        self.sealed.field_slots[field.index()]
    }

    /// The interpreter's pre-decoded dispatch stream of `method`: one
    /// [`Fused`] entry per bci. Empty for a program that did not come out
    /// of the builder, where the interpreter runs every instruction plain.
    #[inline]
    pub fn fused(&self, method: MethodId) -> &[Fused] {
        self.sealed
            .fused
            .get(method.index())
            .map_or(&[], Vec::as_slice)
    }

    /// The sealed bytecode facts of `method`: blocks, loop headers,
    /// reducibility, live locals and may-throw.
    ///
    /// # Panics
    ///
    /// Panics on a program that did not come out of the builder.
    #[inline]
    pub fn facts(&self, method: MethodId) -> &MethodFacts {
        &self.sealed.facts[method.index()]
    }

    /// Heap size in bytes of an instance of `class` (header + one slot per
    /// field, matching the paper's "MB per iteration" accounting).
    #[inline]
    pub fn object_size(&self, class: ClassId) -> u64 {
        OBJECT_HEADER_BYTES + VALUE_SLOT_BYTES * self.layout(class).fields.len() as u64
    }

    /// Heap size in bytes of an array of `len` elements, saturating for
    /// lengths no heap can hold.
    pub fn array_size(len: u64) -> u64 {
        VALUE_SLOT_BYTES
            .saturating_mul(len)
            .saturating_add(OBJECT_HEADER_BYTES)
    }

    /// Whether `class` is `ancestor` or one of its subclasses.
    #[inline]
    pub fn is_subclass_of(&self, class: ClassId, ancestor: ClassId) -> bool {
        if class == ancestor {
            return true;
        }
        let depth = self.layout(ancestor).ancestors.len() - 1;
        self.layout(class).ancestors.get(depth) == Some(&ancestor)
    }

    /// All classes that are `ancestor` or a subclass of it.
    pub fn subclasses_of(&self, ancestor: ClassId) -> Vec<ClassId> {
        (0..self.classes.len())
            .map(ClassId::from_index)
            .filter(|&c| self.is_subclass_of(c, ancestor))
            .collect()
    }

    /// Resolves exception dispatch for `method` at `bci`: the first
    /// exception-table entry covering `bci` whose catch type matches the
    /// thrown object's dynamic class (subclasses included; `None`
    /// catch-alls match everything). Returns the handler bci.
    pub fn find_handler(&self, method: &Method, bci: u32, thrown: ClassId) -> Option<u32> {
        method
            .handlers_at(bci)
            .find(|e| match e.catch_class {
                None => true,
                Some(c) => self.is_subclass_of(thrown, c),
            })
            .map(|e| e.handler)
    }

    /// Checks the class hierarchy for cycles. Returns the offending class.
    pub fn check_hierarchy(&self) -> Result<(), ProgramError> {
        for (i, class) in self.classes.iter().enumerate() {
            let start = ClassId::from_index(i);
            let mut cur = class.superclass;
            let mut steps = 0usize;
            while let Some(c) = cur {
                if c == start || steps > self.classes.len() {
                    return Err(ProgramError::CyclicHierarchy(class.name.clone()));
                }
                cur = self.class(c).superclass;
                steps += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MethodBuilder, ProgramBuilder};

    fn diamond_free_program() -> (Program, ClassId, ClassId, FieldId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("Base", None);
        let derived = pb.add_class("Derived", Some(base));
        let fa = pb.add_field(base, "a", ValueKind::Int);
        let fb = pb.add_field(derived, "b", ValueKind::Ref);
        (pb.build().unwrap(), base, derived, fa, fb)
    }

    #[test]
    fn instance_fields_are_layout_ordered() {
        let (p, base, derived, fa, fb) = diamond_free_program();
        assert_eq!(p.instance_fields(base), [fa]);
        assert_eq!(p.instance_fields(derived), [fa, fb]);
        assert_eq!(p.slot_kinds(derived), [ValueKind::Int, ValueKind::Ref]);
        assert_eq!(p.field_slot(derived, fa), Some(0));
        assert_eq!(p.field_slot(derived, fb), Some(1));
        assert_eq!(p.field_slot(base, fb), None);
    }

    #[test]
    fn object_size_counts_header_and_slots() {
        let (p, base, derived, ..) = diamond_free_program();
        assert_eq!(p.object_size(base), 16 + 8);
        assert_eq!(p.object_size(derived), 16 + 16);
        assert_eq!(Program::array_size(10), 16 + 80);
        assert_eq!(Program::array_size(u64::MAX / 2), u64::MAX);
    }

    #[test]
    fn field_lookup_walks_superclasses() {
        let (p, _, derived, fa, _) = diamond_free_program();
        assert_eq!(p.field_by_name(derived, "a"), Some(fa));
        assert_eq!(p.field_by_name(derived, "zzz"), None);
    }

    #[test]
    fn subclass_relation() {
        let (p, base, derived, ..) = diamond_free_program();
        assert!(p.is_subclass_of(derived, base));
        assert!(!p.is_subclass_of(base, derived));
        assert_eq!(p.subclasses_of(base), vec![base, derived]);
    }

    #[test]
    fn virtual_resolution_prefers_override() {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("Base", None);
        let derived = pb.add_class("Derived", Some(base));
        let mut m = MethodBuilder::new_virtual("size", base, 1, true);
        m.const_(1);
        m.return_value();
        let base_m = pb.add_method(m.build().unwrap());
        let mut m = MethodBuilder::new_virtual("size", derived, 1, true);
        m.const_(2);
        m.return_value();
        let derived_m = pb.add_method(m.build().unwrap());
        let p = pb.build().unwrap();
        assert_eq!(p.resolve_virtual(base, base_m).unwrap(), base_m);
        assert_eq!(p.resolve_virtual(derived, base_m).unwrap(), derived_m);
        assert_eq!(p.resolve_virtual(derived, derived_m).unwrap(), derived_m);
    }

    #[test]
    fn vtable_inherits_overrides_and_falls_back_to_names() {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("Base", None);
        let derived = pb.add_class("Derived", Some(base));
        let leaf = pb.add_class("Leaf", Some(derived));
        let other = pb.add_class("Other", None);
        let mut method = |name: &str, class| {
            let mut m = MethodBuilder::new_virtual(name, class, 1, true);
            m.const_(0);
            m.return_value();
            pb.add_method(m.build().unwrap())
        };
        let base_size = method("size", base);
        let base_id = method("id", base);
        let derived_size = method("size", derived);
        let other_size = method("size", other);
        let p = pb.build().unwrap();
        assert_eq!(p.resolve_virtual(leaf, base_size).unwrap(), derived_size);
        assert_eq!(p.resolve_virtual(leaf, base_id).unwrap(), base_id);
        assert_eq!(p.resolve_virtual(derived, base_id).unwrap(), base_id);
        // Receivers outside the target's hierarchy resolve by name.
        assert_eq!(p.resolve_virtual(other, base_size).unwrap(), other_size);
        assert_eq!(p.resolve_virtual(base, derived_size).unwrap(), base_size);
        assert!(p.resolve_virtual(other, base_id).is_err());
    }

    #[test]
    fn hierarchy_cycle_detected() {
        let mut p = Program::default();
        p.classes.push(Class {
            name: "A".into(),
            superclass: Some(ClassId(1)),
            declared_fields: vec![],
            declared_methods: vec![],
        });
        p.classes.push(Class {
            name: "B".into(),
            superclass: Some(ClassId(0)),
            declared_fields: vec![],
            declared_methods: vec![],
        });
        assert!(matches!(
            p.check_hierarchy(),
            Err(ProgramError::CyclicHierarchy(_))
        ));
    }

    #[test]
    fn qualified_names() {
        let (p, base, ..) = diamond_free_program();
        let m = Method {
            class: Some(base),
            name: "foo".into(),
            param_count: 1,
            returns_value: false,
            is_static: false,
            is_synchronized: false,
            max_locals: 1,
            code: vec![Insn::Return],
            exception_table: vec![],
        };
        assert_eq!(m.qualified_name(&p), "Base.foo");
    }
}
