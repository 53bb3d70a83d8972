//! Dynamically typed runtime values.

use crate::{ObjRef, VmError};
use pea_bytecode::ValueKind;
use std::fmt;

/// A runtime value: a 64-bit integer, an object reference, or null.
///
/// Booleans are integers `0`/`1`, matching the bytecode's view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Non-null object (or array) reference.
    Ref(ObjRef),
    /// The null reference.
    Null,
}

impl Value {
    /// Default value for a storage kind: `0` for ints, `null` for refs.
    pub fn default_for(kind: ValueKind) -> Value {
        match kind {
            ValueKind::Int => Value::Int(0),
            ValueKind::Ref => Value::Null,
        }
    }

    /// Boolean as value: `1` or `0`.
    pub fn from_bool(b: bool) -> Value {
        Value::Int(i64::from(b))
    }

    /// Extracts an integer.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] if the value is a reference or null.
    pub fn as_int(self) -> Result<i64, VmError> {
        match self {
            Value::Int(v) => Ok(v),
            other => Err(VmError::TypeMismatch {
                expected: "int",
                found: other.kind_name(),
            }),
        }
    }

    /// Extracts an object reference, treating null as an error.
    ///
    /// # Errors
    ///
    /// [`VmError::NullPointer`] on null, [`VmError::TypeMismatch`] on ints.
    pub fn as_ref(self) -> Result<ObjRef, VmError> {
        match self {
            Value::Ref(r) => Ok(r),
            Value::Null => Err(VmError::NullPointer),
            other => Err(VmError::TypeMismatch {
                expected: "ref",
                found: other.kind_name(),
            }),
        }
    }

    /// Extracts a reference-kind value (null allowed).
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] on ints.
    pub fn as_ref_or_null(self) -> Result<Option<ObjRef>, VmError> {
        match self {
            Value::Ref(r) => Ok(Some(r)),
            Value::Null => Ok(None),
            other => Err(VmError::TypeMismatch {
                expected: "ref",
                found: other.kind_name(),
            }),
        }
    }

    /// Truthiness for branch conditions: non-zero integers are true.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] on references.
    pub fn as_bool(self) -> Result<bool, VmError> {
        Ok(self.as_int()? != 0)
    }

    fn kind_name(self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Ref(_) => "ref",
            Value::Null => "null",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Ref(r) => write!(f, "{r}"),
            Value::Null => f.write_str("null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<ObjRef> for Value {
    fn from(r: ObjRef) -> Self {
        Value::Ref(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_kinds() {
        assert_eq!(Value::default_for(ValueKind::Int), Value::Int(0));
        assert_eq!(Value::default_for(ValueKind::Ref), Value::Null);
    }

    #[test]
    fn int_extraction() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert!(Value::Null.as_int().is_err());
    }

    #[test]
    fn ref_extraction() {
        let r = ObjRef::from_index(3);
        assert_eq!(Value::Ref(r).as_ref().unwrap(), r);
        assert_eq!(Value::Null.as_ref().unwrap_err(), VmError::NullPointer);
        assert!(Value::Int(1).as_ref().is_err());
        assert_eq!(Value::Null.as_ref_or_null().unwrap(), None);
    }

    #[test]
    fn bools_are_ints() {
        assert_eq!(Value::from_bool(true), Value::Int(1));
        assert!(Value::Int(2).as_bool().unwrap());
        assert!(!Value::Int(0).as_bool().unwrap());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
