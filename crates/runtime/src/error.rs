//! Runtime errors shared by the interpreter, the compiled-code evaluator
//! and the VM.

use crate::ObjRef;
use std::error::Error;
use std::fmt;

/// Most activations one host runs at once, the entry call included. A
/// call past it fails with [`VmError::StackOverflow`] before it builds a
/// frame. The VM's mutators and `SimpleEnv` both check it, so deep
/// recursion is an error rather than an overflow of the host's stack.
pub const MAX_CALL_DEPTH: usize = 400;

/// An execution error. Both execution tiers raise identical errors for
/// identical programs, which the differential test suite relies on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Dereference of the null reference.
    NullPointer,
    /// An int was used as a reference or vice versa.
    TypeMismatch {
        /// What the operation required.
        expected: &'static str,
        /// What it received.
        found: &'static str,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Array access out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: i64,
        /// The array length.
        length: usize,
    },
    /// Negative array length at allocation.
    NegativeArrayLength(i64),
    /// `checkcast` failure.
    ClassCast {
        /// Name of the expected class.
        expected: String,
        /// Name of the actual class.
        found: String,
    },
    /// Field access on an object whose class does not declare the field.
    NoSuchField(String),
    /// Virtual dispatch found no implementation.
    NoSuchMethod(String),
    /// `monitorexit` on a monitor the current activation does not hold.
    IllegalMonitorState,
    /// `throw` was executed; carries the user error code.
    UserException(i64),
    /// An `athrow`n exception is propagating and has not yet been caught.
    /// Internal to the execution tiers: [`VmError::Thrown`] unwinds through
    /// `invoke` results and is either dispatched to a handler by the caller
    /// or converted to [`VmError::UncaughtException`] at the VM entry point.
    /// The payload is the heap reference of the exception object.
    Thrown(ObjRef),
    /// An exception escaped the entry-point call without a matching
    /// handler. Identity is reported structurally — class name plus the
    /// exception's int fields in declaration order — because raw heap ids
    /// differ between tiers when scalar replacement elides allocations.
    UncaughtException {
        /// Dynamic class name of the thrown object.
        class: String,
        /// Values of the object's int fields, in field-declaration order.
        fields: Vec<i64>,
    },
    /// An allocation would take the heap past its fixed capacity
    /// ([`crate::MAX_HEAP_OBJECTS`], [`crate::MAX_HEAP_SLOTS`]). Nothing
    /// was allocated; smaller requests may still succeed.
    OutOfMemory,
    /// Interpreter/evaluator ran past its fuel budget (guards runaway
    /// loops in tests and benchmarks).
    OutOfFuel,
    /// A call would have made more than [`MAX_CALL_DEPTH`] activations.
    StackOverflow,
    /// An entry call passed the wrong number of arguments; rejected before
    /// any frame is built.
    ArityMismatch {
        /// Qualified name of the called method.
        method: String,
        /// Its parameter count.
        expected: usize,
        /// Arguments passed.
        found: usize,
    },
    /// Internal invariant violation; indicates a compiler bug.
    Internal(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NullPointer => f.write_str("null pointer dereference"),
            VmError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            VmError::DivisionByZero => f.write_str("division by zero"),
            VmError::IndexOutOfBounds { index, length } => {
                write!(f, "index {index} out of bounds for length {length}")
            }
            VmError::NegativeArrayLength(n) => write!(f, "negative array length {n}"),
            VmError::ClassCast { expected, found } => {
                write!(f, "class cast: `{found}` is not a `{expected}`")
            }
            VmError::NoSuchField(n) => write!(f, "no such field `{n}`"),
            VmError::NoSuchMethod(n) => write!(f, "no such method `{n}`"),
            VmError::IllegalMonitorState => f.write_str("illegal monitor state"),
            VmError::UserException(code) => write!(f, "user exception ({code})"),
            VmError::Thrown(obj) => write!(f, "exception in flight (object {obj})"),
            VmError::UncaughtException { class, fields } => {
                write!(f, "uncaught exception: {class}{fields:?}")
            }
            VmError::OutOfMemory => f.write_str("out of memory: heap capacity exhausted"),
            VmError::OutOfFuel => f.write_str("execution fuel exhausted"),
            VmError::StackOverflow => {
                write!(f, "stack overflow: more than {MAX_CALL_DEPTH} nested calls")
            }
            VmError::ArityMismatch {
                method,
                expected,
                found,
            } => write!(
                f,
                "`{method}` takes {expected} argument{}, {found} given",
                if *expected == 1 { "" } else { "s" }
            ),
            VmError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        assert_eq!(VmError::NullPointer.to_string(), "null pointer dereference");
        assert_eq!(VmError::UserException(7).to_string(), "user exception (7)");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(VmError::DivisionByZero, VmError::DivisionByZero);
        assert_ne!(VmError::NullPointer, VmError::DivisionByZero);
    }
}
