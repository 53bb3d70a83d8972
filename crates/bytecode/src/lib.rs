//! A toy, JVM-modelled bytecode substrate for the Partial Escape Analysis
//! reproduction (Stadler, Würthinger, Mössenböck — CGO 2014).
//!
//! The paper's algorithm runs inside Graal, a just-in-time compiler for Java
//! bytecode. This crate provides the equivalent *input language*: classes
//! with instance fields and single inheritance, static and virtual methods,
//! a stack-based instruction set with object allocation, field access,
//! monitors and calls, plus
//!
//! * a programmatic [`ProgramBuilder`]/[`MethodBuilder`] API,
//! * a textual assembler ([`asm::parse_program`]),
//! * a structural [`verify_program`] pass (stack discipline, branch targets,
//!   local-variable bounds).
//!
//! Values are dynamically typed at runtime (see `pea-runtime`); the bytecode
//! distinguishes only [`ValueKind::Int`] and [`ValueKind::Ref`] where layout
//! or default values matter.
//!
//! # Example
//!
//! ```
//! use pea_bytecode::{ProgramBuilder, MethodBuilder, ValueKind};
//!
//! let mut pb = ProgramBuilder::new();
//! let point = pb.add_class("Point", None);
//! let fx = pb.add_field(point, "x", ValueKind::Int);
//! let mut mb = MethodBuilder::new_static("getX", 1, true);
//! mb.load(0);
//! mb.get_field(fx);
//! mb.return_value();
//! pb.add_method(mb.build().unwrap());
//! let program = pb.build().unwrap();
//! assert_eq!(program.classes.len(), 1);
//! # let _ = fx;
//! ```

pub mod asm;
mod builder;
pub mod disasm;
mod facts;
mod fused;
mod ids;
mod insn;
mod program;
mod verify;

pub use builder::{LabelId, MethodBuilder, ProgramBuilder};
pub use facts::{BcBlock, MethodFacts};
pub use fused::{Fused, IntOp};
pub use ids::{ClassId, FieldId, MethodId, StaticId};
pub use insn::{CmpOp, Insn};
pub use program::{
    Class, ExceptionEntry, Field, Method, Program, ProgramError, StaticDecl, ValueKind,
    OBJECT_HEADER_BYTES, VALUE_SLOT_BYTES,
};
pub use verify::{verify_method, verify_program, VerifyError};
