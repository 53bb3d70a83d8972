//! Interpreter activation frames.

use pea_bytecode::MethodId;
use pea_runtime::{ObjRef, Value};

/// One interpreter frame handed over by deoptimization or unwinding.
///
/// The hand-off type of deoptimization and exception unwinding: the VM's
/// deoptimization handler rebuilds the whole inlined frame chain from a
/// compiled frame state, and [`crate::resume`] / [`crate::unwind`] lay
/// each frame out on the value stack when it runs. Frames the interpreter
/// enters itself never take this form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// Next instruction to execute.
    pub bci: u32,
    /// Local variable slots (length = `max_locals`).
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Monitors this frame must release when it returns: at most one, the
    /// receiver of a deoptimized synchronized activation. Explicit
    /// `monitorenter` / `monitorexit` pairs are *not* listed here — the
    /// bytecode itself releases those.
    pub locked: Vec<ObjRef>,
}
