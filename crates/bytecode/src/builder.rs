//! Programmatic construction of programs and method bodies.
//!
//! [`ProgramBuilder`] assembles the metadata arenas; [`MethodBuilder`] emits
//! instructions with forward-reference labels and validates that every label
//! is bound before [`MethodBuilder::build`] succeeds.

use crate::{
    Class, ClassId, CmpOp, ExceptionEntry, Field, FieldId, Insn, Method, MethodId, Program,
    ProgramError, StaticDecl, StaticId, ValueKind,
};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A forward-referenceable branch target inside a [`MethodBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LabelId(u32);

/// Errors raised by [`MethodBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A label was used in a branch but never bound with
    /// [`MethodBuilder::bind`].
    UnboundLabel(u32),
    /// The method body is empty or does not end in a terminator.
    MissingTerminator,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "label L{l} is never bound"),
            BuildError::MissingTerminator => {
                write!(f, "method body does not end in return/goto/throw")
            }
        }
    }
}

impl Error for BuildError {}

/// Incremental builder for a [`Method`] body.
///
/// ```
/// use pea_bytecode::{MethodBuilder, CmpOp};
///
/// // static int max(a, b) { return a > b ? a : b; }
/// let mut mb = MethodBuilder::new_static("max", 2, true);
/// let take_a = mb.new_label();
/// mb.load(0);
/// mb.load(1);
/// mb.if_cmp(CmpOp::Gt, take_a);
/// mb.load(1);
/// mb.return_value();
/// mb.bind(take_a);
/// mb.load(0);
/// mb.return_value();
/// let method = mb.build().unwrap();
/// assert_eq!(method.code.len(), 7);
/// ```
#[derive(Debug)]
pub struct MethodBuilder {
    method: Method,
    labels: Vec<Option<u32>>,
    /// (code index, label) pairs awaiting patching.
    fixups: Vec<(usize, LabelId)>,
    /// (start, end, handler, catch class) label tuples awaiting patching.
    region_fixups: Vec<(LabelId, LabelId, LabelId, Option<ClassId>)>,
    max_local_seen: u16,
}

impl MethodBuilder {
    /// Starts a free static method.
    pub fn new_static(name: &str, param_count: u16, returns_value: bool) -> Self {
        Self::new_inner(None, name, param_count, returns_value, true)
    }

    /// Starts a virtual method declared on `class`; `param_count` includes
    /// the receiver in slot 0.
    pub fn new_virtual(name: &str, class: ClassId, param_count: u16, returns_value: bool) -> Self {
        Self::new_inner(Some(class), name, param_count, returns_value, false)
    }

    fn new_inner(
        class: Option<ClassId>,
        name: &str,
        param_count: u16,
        returns_value: bool,
        is_static: bool,
    ) -> Self {
        MethodBuilder {
            method: Method {
                class,
                name: name.to_string(),
                param_count,
                returns_value,
                is_static,
                is_synchronized: false,
                max_locals: param_count,
                code: Vec::new(),
                exception_table: Vec::new(),
            },
            labels: Vec::new(),
            fixups: Vec::new(),
            region_fixups: Vec::new(),
            max_local_seen: param_count,
        }
    }

    /// Marks the method as synchronized on its receiver (virtual methods
    /// only; checked by [`crate::verify_method`]).
    pub fn synchronized(&mut self) -> &mut Self {
        self.method.is_synchronized = true;
        self
    }

    /// Reserves extra local slots beyond the parameters.
    pub fn locals(&mut self, max_locals: u16) -> &mut Self {
        self.max_local_seen = self.max_local_seen.max(max_locals);
        self
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> LabelId {
        self.labels.push(None);
        LabelId(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: LabelId) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.method.code.len() as u32);
    }

    /// Current bytecode index (where the next instruction will land).
    pub fn here(&self) -> u32 {
        self.method.code.len() as u32
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, insn: Insn) -> &mut Self {
        if let Insn::Load(n) | Insn::Store(n) = insn {
            self.max_local_seen = self.max_local_seen.max(n + 1);
        }
        self.method.code.push(insn);
        self
    }

    fn emit_branch(&mut self, label: LabelId, make: impl FnOnce(u32) -> Insn) -> &mut Self {
        let at = self.method.code.len();
        self.fixups.push((at, label));
        self.method.code.push(make(u32::MAX));
        self
    }

    // Convenience emitters, one per instruction family.

    /// Push integer constant.
    pub fn const_(&mut self, v: i64) -> &mut Self {
        self.emit(Insn::Const(v))
    }
    /// Push null.
    pub fn const_null(&mut self) -> &mut Self {
        self.emit(Insn::ConstNull)
    }
    /// Push local `n`.
    pub fn load(&mut self, n: u16) -> &mut Self {
        self.emit(Insn::Load(n))
    }
    /// Pop into local `n`.
    pub fn store(&mut self, n: u16) -> &mut Self {
        self.emit(Insn::Store(n))
    }
    /// Integer add.
    pub fn add(&mut self) -> &mut Self {
        self.emit(Insn::Add)
    }
    /// Integer subtract.
    pub fn sub(&mut self) -> &mut Self {
        self.emit(Insn::Sub)
    }
    /// Integer multiply.
    pub fn mul(&mut self) -> &mut Self {
        self.emit(Insn::Mul)
    }
    /// Integer divide.
    pub fn div(&mut self) -> &mut Self {
        self.emit(Insn::Div)
    }
    /// Integer remainder.
    pub fn rem(&mut self) -> &mut Self {
        self.emit(Insn::Rem)
    }
    /// Pop and discard.
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Insn::Pop)
    }
    /// Duplicate top of stack.
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Insn::Dup)
    }
    /// Swap the two top stack values.
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Insn::Swap)
    }
    /// Unconditional branch.
    pub fn goto(&mut self, l: LabelId) -> &mut Self {
        self.emit_branch(l, Insn::Goto)
    }
    /// Conditional branch on integer comparison.
    pub fn if_cmp(&mut self, op: CmpOp, l: LabelId) -> &mut Self {
        self.emit_branch(l, move |t| Insn::IfCmp(op, t))
    }
    /// Branch if null.
    pub fn if_null(&mut self, l: LabelId) -> &mut Self {
        self.emit_branch(l, Insn::IfNull)
    }
    /// Branch if non-null.
    pub fn if_non_null(&mut self, l: LabelId) -> &mut Self {
        self.emit_branch(l, Insn::IfNonNull)
    }
    /// Branch if two references are identical.
    pub fn if_ref_eq(&mut self, l: LabelId) -> &mut Self {
        self.emit_branch(l, Insn::IfRefEq)
    }
    /// Branch if two references differ.
    pub fn if_ref_ne(&mut self, l: LabelId) -> &mut Self {
        self.emit_branch(l, Insn::IfRefNe)
    }
    /// Allocate a new instance.
    pub fn new_object(&mut self, c: ClassId) -> &mut Self {
        self.emit(Insn::New(c))
    }
    /// Load an instance field.
    pub fn get_field(&mut self, f: FieldId) -> &mut Self {
        self.emit(Insn::GetField(f))
    }
    /// Store an instance field.
    pub fn put_field(&mut self, f: FieldId) -> &mut Self {
        self.emit(Insn::PutField(f))
    }
    /// Load a static variable.
    pub fn get_static(&mut self, s: StaticId) -> &mut Self {
        self.emit(Insn::GetStatic(s))
    }
    /// Store a static variable.
    pub fn put_static(&mut self, s: StaticId) -> &mut Self {
        self.emit(Insn::PutStatic(s))
    }
    /// Allocate an array.
    pub fn new_array(&mut self, kind: ValueKind) -> &mut Self {
        self.emit(Insn::NewArray(kind))
    }
    /// Load an array element.
    pub fn array_load(&mut self) -> &mut Self {
        self.emit(Insn::ArrayLoad)
    }
    /// Store an array element.
    pub fn array_store(&mut self) -> &mut Self {
        self.emit(Insn::ArrayStore)
    }
    /// Array length.
    pub fn array_length(&mut self) -> &mut Self {
        self.emit(Insn::ArrayLength)
    }
    /// Type test.
    pub fn instance_of(&mut self, c: ClassId) -> &mut Self {
        self.emit(Insn::InstanceOf(c))
    }
    /// Checked cast.
    pub fn check_cast(&mut self, c: ClassId) -> &mut Self {
        self.emit(Insn::CheckCast(c))
    }
    /// Acquire a monitor.
    pub fn monitor_enter(&mut self) -> &mut Self {
        self.emit(Insn::MonitorEnter)
    }
    /// Release a monitor.
    pub fn monitor_exit(&mut self) -> &mut Self {
        self.emit(Insn::MonitorExit)
    }
    /// Call a static method.
    pub fn invoke_static(&mut self, m: MethodId) -> &mut Self {
        self.emit(Insn::InvokeStatic(m))
    }
    /// Call a virtual method.
    pub fn invoke_virtual(&mut self, m: MethodId) -> &mut Self {
        self.emit(Insn::InvokeVirtual(m))
    }
    /// Return void.
    pub fn return_(&mut self) -> &mut Self {
        self.emit(Insn::Return)
    }
    /// Return the top of stack.
    pub fn return_value(&mut self) -> &mut Self {
        self.emit(Insn::ReturnValue)
    }
    /// Throw (control sink).
    pub fn throw(&mut self) -> &mut Self {
        self.emit(Insn::Throw)
    }
    /// Throw the popped object reference as a catchable exception.
    pub fn athrow(&mut self) -> &mut Self {
        self.emit(Insn::Athrow)
    }

    /// Registers an exception-table entry covering `[start, end)` with the
    /// given handler, catching `catch_class` (or everything when `None`).
    /// Labels are resolved in [`MethodBuilder::build`]; entries are matched
    /// in registration order, innermost regions first by convention.
    pub fn exception_region(
        &mut self,
        start: LabelId,
        end: LabelId,
        handler: LabelId,
        catch_class: Option<ClassId>,
    ) -> &mut Self {
        self.region_fixups.push((start, end, handler, catch_class));
        self
    }

    /// Finalizes the method, patching all branch targets.
    ///
    /// # Errors
    ///
    /// Fails if a label was used but never bound, or if the body does not
    /// end in a terminator or unconditional branch.
    pub fn build(mut self) -> Result<Method, BuildError> {
        for (at, label) in &self.fixups {
            let target = self.labels[label.0 as usize].ok_or(BuildError::UnboundLabel(label.0))?;
            let insn = &mut self.method.code[*at];
            *insn = match *insn {
                Insn::Goto(_) => Insn::Goto(target),
                Insn::IfCmp(op, _) => Insn::IfCmp(op, target),
                Insn::IfNull(_) => Insn::IfNull(target),
                Insn::IfNonNull(_) => Insn::IfNonNull(target),
                Insn::IfRefEq(_) => Insn::IfRefEq(target),
                Insn::IfRefNe(_) => Insn::IfRefNe(target),
                other => other,
            };
        }
        for (start, end, handler, catch_class) in &self.region_fixups {
            let resolve =
                |l: &LabelId| self.labels[l.0 as usize].ok_or(BuildError::UnboundLabel(l.0));
            self.method.exception_table.push(ExceptionEntry {
                start: resolve(start)?,
                end: resolve(end)?,
                handler: resolve(handler)?,
                catch_class: *catch_class,
            });
        }
        match self.method.code.last() {
            Some(last) if !last.falls_through() => {}
            _ => return Err(BuildError::MissingTerminator),
        }
        self.method.max_locals = self.max_local_seen;
        Ok(self.method)
    }
}

/// Incremental builder for a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class; returns its id.
    pub fn add_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        self.program.classes.push(Class {
            name: name.to_string(),
            superclass,
            declared_fields: Vec::new(),
            declared_methods: Vec::new(),
        });
        ClassId::from_index(self.program.classes.len() - 1)
    }

    /// Sets the superclass of a class declared before its superclass was
    /// known (the assembler's forward `extends`).
    pub fn set_superclass(&mut self, class: ClassId, superclass: ClassId) {
        self.program.classes[class.index()].superclass = Some(superclass);
    }

    /// Declares an instance field on `class`; returns its id.
    pub fn add_field(&mut self, class: ClassId, name: &str, kind: ValueKind) -> FieldId {
        self.program.fields.push(Field {
            class,
            name: name.to_string(),
            kind,
        });
        let id = FieldId::from_index(self.program.fields.len() - 1);
        self.program.classes[class.index()].declared_fields.push(id);
        id
    }

    /// Declares a static variable; returns its id.
    pub fn add_static(&mut self, name: &str, kind: ValueKind) -> StaticId {
        self.program.statics.push(StaticDecl {
            name: name.to_string(),
            kind,
        });
        StaticId::from_index(self.program.statics.len() - 1)
    }

    /// Adds a finished method; returns its id and registers it on its
    /// declaring class, if any.
    pub fn add_method(&mut self, method: Method) -> MethodId {
        let class = method.class;
        self.program.methods.push(method);
        let id = MethodId::from_index(self.program.methods.len() - 1);
        if let Some(c) = class {
            self.program.classes[c.index()].declared_methods.push(id);
        }
        id
    }

    /// Reserves a method slot before its body exists, so mutually recursive
    /// methods can reference each other. Fill it later with
    /// [`ProgramBuilder::set_method_body`].
    pub fn declare_method(
        &mut self,
        class: Option<ClassId>,
        name: &str,
        param_count: u16,
        returns_value: bool,
    ) -> MethodId {
        self.add_method(Method {
            class,
            name: name.to_string(),
            param_count,
            returns_value,
            is_static: class.is_none(),
            is_synchronized: false,
            max_locals: param_count,
            code: vec![Insn::Return],
            exception_table: Vec::new(),
        })
    }

    /// Replaces the body of a previously declared method.
    ///
    /// # Panics
    ///
    /// Panics if the declaration and the body disagree on name, class,
    /// parameter count or return kind.
    pub fn set_method_body(&mut self, id: MethodId, method: Method) {
        let slot = &mut self.program.methods[id.index()];
        assert_eq!(slot.name, method.name, "method name mismatch");
        assert_eq!(slot.class, method.class, "method class mismatch");
        assert_eq!(slot.param_count, method.param_count, "param count mismatch");
        assert_eq!(
            slot.returns_value, method.returns_value,
            "return kind mismatch"
        );
        *slot = method;
    }

    /// Read-only view of the program under construction, for name lookups
    /// before [`ProgramBuilder::build`].
    pub fn peek_program(&self) -> &Program {
        &self.program
    }

    /// Finalizes the program, checking name uniqueness and hierarchy
    /// acyclicity, and resolves the per-class layout tables — the only
    /// place they are computed, so the hierarchy must be complete here.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn build(self) -> Result<Program, ProgramError> {
        let mut p = self.program;
        let mut names = HashSet::new();
        for c in &p.classes {
            if !names.insert(c.name.clone()) {
                return Err(ProgramError::DuplicateClass(c.name.clone()));
            }
        }
        for c in &p.classes {
            let mut fnames = HashSet::new();
            for &fid in &c.declared_fields {
                if !fnames.insert(p.field(fid).name.clone()) {
                    return Err(ProgramError::DuplicateField(
                        c.name.clone(),
                        p.field(fid).name.clone(),
                    ));
                }
            }
            let mut mnames = HashSet::new();
            for &mid in &c.declared_methods {
                if !mnames.insert(p.method(mid).name.clone()) {
                    return Err(ProgramError::DuplicateMethod(format!(
                        "{}.{}",
                        c.name,
                        p.method(mid).name
                    )));
                }
            }
        }
        let mut snames = HashSet::new();
        for s in &p.statics {
            if !snames.insert(s.name.clone()) {
                return Err(ProgramError::DuplicateStatic(s.name.clone()));
            }
        }
        let mut free = HashSet::new();
        for m in &p.methods {
            if m.class.is_none() && !free.insert(m.name.clone()) {
                return Err(ProgramError::DuplicateMethod(m.name.clone()));
            }
        }
        p.check_hierarchy()?;
        p.seal();
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_patched() {
        let mut mb = MethodBuilder::new_static("f", 0, true);
        let l = mb.new_label();
        mb.goto(l);
        mb.bind(l);
        mb.const_(42);
        mb.return_value();
        let m = mb.build().unwrap();
        assert_eq!(m.code[0], Insn::Goto(1));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut mb = MethodBuilder::new_static("f", 0, false);
        let l = mb.new_label();
        mb.goto(l);
        assert_eq!(mb.build().unwrap_err(), BuildError::UnboundLabel(0));
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let mut mb = MethodBuilder::new_static("f", 0, false);
        mb.const_(1);
        assert_eq!(mb.build().unwrap_err(), BuildError::MissingTerminator);
    }

    #[test]
    fn max_locals_tracks_stores() {
        let mut mb = MethodBuilder::new_static("f", 1, false);
        mb.const_(1);
        mb.store(5);
        mb.return_();
        let m = mb.build().unwrap();
        assert_eq!(m.max_locals, 6);
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.add_class("A", None);
        pb.add_class("A", None);
        assert_eq!(
            pb.build().unwrap_err(),
            ProgramError::DuplicateClass("A".into())
        );
    }

    #[test]
    fn duplicate_static_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.add_static("g", ValueKind::Int);
        pb.add_static("g", ValueKind::Ref);
        assert_eq!(
            pb.build().unwrap_err(),
            ProgramError::DuplicateStatic("g".into())
        );
    }

    #[test]
    fn declare_then_fill_body() {
        let mut pb = ProgramBuilder::new();
        let id = pb.declare_method(None, "f", 0, true);
        let mut mb = MethodBuilder::new_static("f", 0, true);
        mb.const_(7);
        mb.return_value();
        pb.set_method_body(id, mb.build().unwrap());
        let p = pb.build().unwrap();
        assert_eq!(p.method(id).code.len(), 2);
    }
}
