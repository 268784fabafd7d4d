use std::fmt;

use serde::{Deserialize, Serialize};

/// A typed attribute value carried by an [`crate::Event`].
///
/// The paper's example (Figure 2) uses integer (`b`, `z`), floating point
/// (`c`) and string (`e`) attributes; a boolean variant is added for
/// convenience.  Integers and floats are mutually comparable so that a
/// criterion such as `b > 1` applies to both `Int` and `Float` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeValue {
    /// A signed integer attribute (the paper's `b`, `z`).
    Int(i64),
    /// A floating point attribute (the paper's `c`).
    Float(f64),
    /// A string attribute (the paper's `e`).
    Str(String),
    /// A boolean attribute.
    Bool(bool),
}

impl AttributeValue {
    /// Returns the value as a floating point number if it is numeric
    /// (`Int` or `Float`), `None` otherwise.
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            AttributeValue::Int(v) => Some(*v as f64),
            AttributeValue::Float(v) => Some(*v),
            AttributeValue::Str(_) | AttributeValue::Bool(_) => None,
        }
    }

    /// Returns the value as a boolean if it is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttributeValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Equality with numeric coercion: `Int(2)` equals `Float(2.0)`, strings
    /// and booleans are compared structurally, and values of incompatible
    /// kinds never compare equal.
    pub fn loosely_equals(&self, other: &AttributeValue) -> bool {
        match (self.as_numeric(), other.as_numeric()) {
            (Some(a), Some(b)) => a == b,
            _ => self == other,
        }
    }
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeValue::Int(v) => write!(f, "{v}"),
            AttributeValue::Float(v) => write!(f, "{v}"),
            AttributeValue::Str(s) => write!(f, "{s:?}"),
            AttributeValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for AttributeValue {
    fn from(v: i64) -> Self {
        AttributeValue::Int(v)
    }
}

impl From<i32> for AttributeValue {
    fn from(v: i32) -> Self {
        AttributeValue::Int(v as i64)
    }
}

impl From<f64> for AttributeValue {
    fn from(v: f64) -> Self {
        AttributeValue::Float(v)
    }
}

impl From<&str> for AttributeValue {
    fn from(v: &str) -> Self {
        AttributeValue::Str(v.to_string())
    }
}

impl From<String> for AttributeValue {
    fn from(v: String) -> Self {
        AttributeValue::Str(v)
    }
}

impl From<bool> for AttributeValue {
    fn from(v: bool) -> Self {
        AttributeValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion() {
        assert_eq!(AttributeValue::Int(3).as_numeric(), Some(3.0));
        assert_eq!(AttributeValue::Float(2.5).as_numeric(), Some(2.5));
        assert_eq!(AttributeValue::Str("x".into()).as_numeric(), None);
        assert_eq!(AttributeValue::Bool(true).as_numeric(), None);
    }

    #[test]
    fn loose_equality() {
        assert!(AttributeValue::Int(2).loosely_equals(&AttributeValue::Float(2.0)));
        assert!(!AttributeValue::Int(2).loosely_equals(&AttributeValue::Float(2.5)));
        assert!(AttributeValue::Str("Bob".into()).loosely_equals(&"Bob".into()));
        assert!(!AttributeValue::Str("2".into()).loosely_equals(&AttributeValue::Int(2)));
        assert!(AttributeValue::Bool(true).loosely_equals(&true.into()));
    }

    #[test]
    fn accessors() {
        assert_eq!(AttributeValue::Bool(false).as_bool(), Some(false));
        assert_eq!(AttributeValue::Int(1).as_bool(), None);
    }

    #[test]
    fn conversions_from_primitives() {
        let values: Vec<AttributeValue> = vec![
            1i64.into(),
            2i32.into(),
            3.5f64.into(),
            "Bob".into(),
            String::from("Tom").into(),
            true.into(),
        ];
        assert_eq!(values[0], AttributeValue::Int(1));
        assert_eq!(values[1], AttributeValue::Int(2));
        assert_eq!(values[2], AttributeValue::Float(3.5));
        assert_eq!(values[3], AttributeValue::Str("Bob".into()));
        assert_eq!(values[4], AttributeValue::Str("Tom".into()));
        assert_eq!(values[5], AttributeValue::Bool(true));
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            AttributeValue::Int(0),
            AttributeValue::Float(0.0),
            AttributeValue::Str(String::new()),
            AttributeValue::Bool(false),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
