//! Superinstructions: the interpreter's pre-decoded dispatch stream.
//!
//! [`crate::ProgramBuilder::build`] seals one [`Fused`] entry per bci of
//! every method, beside the vtables. An entry is either [`Fused::Plain`] —
//! run `code[bci]` — or a superinstruction that covers the short sequence
//! of plain instructions starting at that bci, with its operands decoded
//! and a field's slot resolved. Every bci keeps an entry of its own, so a
//! branch target, a handler or a resume bci inside a sequence simply runs
//! from there.
//!
//! The sequences are the ones a dynamic opcode-pair histogram of the
//! interpreter ranks first: a local followed by a constant or another local
//! feeding an integer operation, a compare-and-branch or a store, and a
//! local feeding a field load. None of them contains a call, an allocation
//! or anything that raises a catchable exception, and only the last
//! instruction of a sequence may branch.

use crate::{ClassId, CmpOp, FieldId, Insn, Method, Program};

/// An integer operation a superinstruction may contain: one that fails
/// only through its operand checks (so not `div` or `rem`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// [`Insn::Add`]
    Add,
    /// [`Insn::Sub`]
    Sub,
    /// [`Insn::Mul`]
    Mul,
    /// [`Insn::And`]
    And,
    /// [`Insn::Or`]
    Or,
    /// [`Insn::Xor`]
    Xor,
    /// [`Insn::Shl`]
    Shl,
    /// [`Insn::Shr`]
    Shr,
}

impl IntOp {
    /// The operation `insn` performs, if it is one of these.
    pub fn of(insn: Insn) -> Option<IntOp> {
        Some(match insn {
            Insn::Add => IntOp::Add,
            Insn::Sub => IntOp::Sub,
            Insn::Mul => IntOp::Mul,
            Insn::And => IntOp::And,
            Insn::Or => IntOp::Or,
            Insn::Xor => IntOp::Xor,
            Insn::Shl => IntOp::Shl,
            Insn::Shr => IntOp::Shr,
            _ => return None,
        })
    }

    /// `a op b`, exactly as the instruction computes it.
    #[inline(always)]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            IntOp::Add => a.wrapping_add(b),
            IntOp::Sub => a.wrapping_sub(b),
            IntOp::Mul => a.wrapping_mul(b),
            IntOp::And => a & b,
            IntOp::Or => a | b,
            IntOp::Xor => a ^ b,
            IntOp::Shl => a.wrapping_shl((b & 63) as u32),
            IntOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

/// One entry of a method's fused dispatch stream (see the module docs).
/// Locals named here are below the method's `max_locals`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fused {
    /// No superinstruction starts here: run `code[bci]`.
    Plain,
    /// `load local; const k; ifcmp cmp target`
    LoadConstIfCmp {
        /// The local compared.
        local: u16,
        /// The comparison.
        cmp: CmpOp,
        /// Branch target.
        target: u32,
        /// The constant it is compared with.
        k: i64,
    },
    /// `load a; load b; ifcmp cmp target`
    LoadLoadIfCmp {
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
        /// The comparison.
        cmp: CmpOp,
        /// Branch target.
        target: u32,
    },
    /// `load local; const k; op; store dst` — the JVM's `iinc` when `op`
    /// is `add` and `dst` is `local`.
    LoadConstOpStore {
        /// Left operand.
        local: u16,
        /// The operation.
        op: IntOp,
        /// Where the result goes.
        dst: u16,
        /// Right operand.
        k: i64,
    },
    /// `load local; const k; op`
    LoadConstOp {
        /// Left operand.
        local: u16,
        /// The operation.
        op: IntOp,
        /// Right operand.
        k: i64,
    },
    /// `load a; load b; op`
    LoadLoadOp {
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
        /// The operation.
        op: IntOp,
    },
    /// `load local; op; store dst`: the left operand is already on the
    /// stack.
    LoadOpStore {
        /// Right operand.
        local: u16,
        /// The operation.
        op: IntOp,
        /// Where the result goes.
        dst: u16,
    },
    /// `load local; getfield field`, with the field's slot resolved.
    LoadGetField {
        /// The receiver.
        local: u16,
        /// The field, for the error path.
        field: FieldId,
        /// Its declaring class: the slot holds for it and its subclasses.
        declaring: ClassId,
        /// Its slot.
        slot: u32,
    },
}

/// The fused stream of `method`: one entry per bci. `program` must have
/// its field slots sealed.
pub(crate) fn fuse(program: &Program, method: &Method) -> Vec<Fused> {
    let code = &method.code;
    (0..code.len())
        .map(|bci| fuse_at(program, method, &code[bci..]))
        .collect()
}

/// The superinstruction that starts the sequence `code`, if any.
fn fuse_at(program: &Program, method: &Method, code: &[Insn]) -> Fused {
    let local = |insn: Option<&Insn>| match insn {
        Some(&Insn::Load(n)) if n < method.max_locals => Some(n),
        _ => None,
    };
    let store = |insn: Option<&Insn>| match insn {
        Some(&Insn::Store(n)) if n < method.max_locals => Some(n),
        _ => None,
    };
    let int_op = |insn: Option<&Insn>| insn.copied().and_then(IntOp::of);
    let Some(a) = local(code.first()) else {
        return Fused::Plain;
    };
    if let Some(b) = local(code.get(1)) {
        return match (code.get(2), int_op(code.get(2))) {
            (Some(&Insn::IfCmp(cmp, target)), _) => Fused::LoadLoadIfCmp { a, b, cmp, target },
            (_, Some(op)) => Fused::LoadLoadOp { a, b, op },
            _ => Fused::Plain,
        };
    }
    match code.get(1) {
        Some(&Insn::Const(k)) => match (code.get(2), int_op(code.get(2))) {
            (Some(&Insn::IfCmp(cmp, target)), _) => Fused::LoadConstIfCmp {
                local: a,
                cmp,
                target,
                k,
            },
            (_, Some(op)) => match store(code.get(3)) {
                Some(dst) => Fused::LoadConstOpStore {
                    local: a,
                    op,
                    dst,
                    k,
                },
                None => Fused::LoadConstOp { local: a, op, k },
            },
            _ => Fused::Plain,
        },
        Some(&Insn::GetField(field)) => match program.fields.get(field.index()) {
            Some(f) => Fused::LoadGetField {
                local: a,
                field,
                declaring: f.class,
                slot: program.sealed_field_slot(field),
            },
            None => Fused::Plain,
        },
        next => match (int_op(next), store(code.get(2))) {
            (Some(op), Some(dst)) => Fused::LoadOpStore { local: a, op, dst },
            _ => Fused::Plain,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_program;

    fn stream(body: &str) -> Vec<Fused> {
        let program = parse_program(&format!(
            "class Box {{ field v int }}\nmethod f 2 returns {{ {body} }}"
        ))
        .unwrap();
        let f = program.static_method_by_name("f").unwrap();
        program.fused(f).to_vec()
    }

    #[test]
    fn every_bci_has_an_entry() {
        let s = stream("load 0 const 1 add store 1 load 1 retv");
        assert_eq!(s.len(), 6);
        assert_eq!(
            s[0],
            Fused::LoadConstOpStore {
                local: 0,
                op: IntOp::Add,
                dst: 1,
                k: 1
            }
        );
        // Inside the sequence every bci keeps its own (plain) entry.
        assert_eq!(&s[1..4], [Fused::Plain; 3]);
        assert_eq!(s[5], Fused::Plain);
    }

    #[test]
    fn shapes_are_recognised() {
        let s = stream(
            "L0: load 0 const 7 ifcmp lt L0
             load 0 load 1 ifcmp ge L0
             load 0 const 3 mul pop
             load 0 load 1 xor
             load 1 add store 0
             cnull store 1 load 1 getfield Box.v retv",
        );
        assert!(matches!(
            s[0],
            Fused::LoadConstIfCmp {
                local: 0,
                k: 7,
                target: 0,
                ..
            }
        ));
        assert!(matches!(
            s[3],
            Fused::LoadLoadIfCmp {
                a: 0,
                b: 1,
                target: 0,
                ..
            }
        ));
        assert_eq!(
            s[6],
            Fused::LoadConstOp {
                local: 0,
                op: IntOp::Mul,
                k: 3
            }
        );
        assert_eq!(
            s[10],
            Fused::LoadLoadOp {
                a: 0,
                b: 1,
                op: IntOp::Xor
            }
        );
        // `load 1 xor` at bci 11 has no store after it; `load 1 add store 0`
        // at bci 13 does.
        assert_eq!(s[11], Fused::Plain);
        assert_eq!(
            s[13],
            Fused::LoadOpStore {
                local: 1,
                op: IntOp::Add,
                dst: 0
            }
        );
        assert!(matches!(
            s[18],
            Fused::LoadGetField {
                local: 1,
                slot: 0,
                ..
            }
        ));
    }

    #[test]
    fn failing_operations_and_out_of_range_locals_stay_plain() {
        assert_eq!(stream("load 0 const 0 div retv")[0], Fused::Plain);
        assert_eq!(stream("load 0 load 0 rem retv")[0], Fused::Plain);
        // Local 5 is past `max_locals`: the plain loop decides what reading
        // it means.
        let mut program = parse_program("method f 1 returns { load 0 const 1 add retv }").unwrap();
        program.methods[0].code[0] = Insn::Load(5);
        assert_eq!(fuse(&program, &program.methods[0])[0], Fused::Plain);
    }

    #[test]
    fn int_ops_match_the_instructions() {
        for (insn, op) in [
            (Insn::Add, IntOp::Add),
            (Insn::Sub, IntOp::Sub),
            (Insn::Mul, IntOp::Mul),
            (Insn::And, IntOp::And),
            (Insn::Or, IntOp::Or),
            (Insn::Xor, IntOp::Xor),
            (Insn::Shl, IntOp::Shl),
            (Insn::Shr, IntOp::Shr),
        ] {
            assert_eq!(IntOp::of(insn), Some(op));
        }
        assert_eq!(IntOp::of(Insn::Div), None);
        assert_eq!(IntOp::Sub.apply(i64::MIN, 1), i64::MAX);
        assert_eq!(IntOp::Shl.apply(1, 65), 2);
        assert_eq!(IntOp::Shr.apply(-8, 1), -4);
    }
}
