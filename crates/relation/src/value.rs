//! Typed values: the cell contents of relations.
//!
//! Two types suffice for every workload in the paper's examples (numeric
//! measures and categorical/string attributes). `Value` has a total order
//! (integers before strings) so it can key B⁺-trees and sorted indexes;
//! schema validation keeps real columns homogeneous, making the
//! cross-variant order a tie-breaker that never fires in practice.

use pitract_core::encode::Encode;
use std::fmt;

/// A typed cell value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    /// The borrowed form of this value.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Int(i) => ValueRef::Int(*i),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

/// A borrowed cell: what a row view reads out of typed column storage
/// without allocating. Ordered exactly like [`Value`] — every `Int`
/// below every `Str`, strings by bytes — so comparing two `ValueRef`s
/// agrees with comparing the `Value`s they borrow from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueRef<'a> {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(&'a str),
}

impl ValueRef<'_> {
    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }
}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        *self == other.as_ref()
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// As the owned [`Value`] displays: an `Int` bare, a `Str` quoted.
impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl Encode for Value {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(0);
                i.encode_into(out);
            }
            Value::Str(s) => {
                out.push(1);
                s.encode_into(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_core::encode::Encode;

    #[test]
    fn ordering_within_types_is_natural() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::str("a") < Value::str("ab"));
    }

    #[test]
    fn ints_sort_before_strings() {
        assert!(Value::Int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn accessors_and_conversions() {
        let v: Value = 42i64.into();
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_str(), None);
        let s: Value = "hi".into();
        assert_eq!(s.as_str(), Some("hi"));
        assert_eq!(s.as_int(), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
    }

    #[test]
    fn borrowed_values_keep_the_owned_order() {
        let values = [
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::str(""),
            Value::str("a"),
            Value::str("ab"),
            Value::str("é"),
            Value::str("日本"),
        ];
        for a in &values {
            assert_eq!(a.as_ref().to_value(), *a);
            assert_eq!(a.as_ref(), *a);
            assert_eq!(a.as_ref().to_string(), a.to_string());
            for b in &values {
                assert_eq!(a.as_ref().cmp(&b.as_ref()), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn encodings_distinguish_variants() {
        // Int 0 must not collide with an empty string.
        assert_ne!(Value::Int(0).encoded(), Value::str("").encoded());
        assert_eq!(Value::Int(7).encoded(), Value::Int(7).encoded());
    }
}
