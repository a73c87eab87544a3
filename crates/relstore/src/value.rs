//! Typed attribute values stored in relations.
//!
//! The store supports three value kinds: 64-bit integers, interned strings
//! and SQL-style `NULL`. Strings are interned [`Sym`] handles, so `Value` is
//! `Copy`, equality and hashing are integer operations, and the heavy value
//! cloning done by bottom-clause construction and similarity indexing is
//! free.

use std::fmt;

use crate::intern::Sym;

/// A single attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Absent / unknown value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Interned UTF-8 string.
    Str(Sym),
}

impl Value {
    /// Build a string value (interning the string).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Sym::intern(s))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// `true` when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Return the string payload, if any.
    pub fn as_str(&self) -> Option<&'static str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Return the interned symbol, if this is a string value.
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Str(s) => Some(*s),
            _ => None,
        }
    }

    /// Return the integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The [`ValueType`] this value inhabits.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Int(_) => ValueType::Int,
            Value::Str(_) => ValueType::Str,
        }
    }

    /// Render the value as it would appear in a Datalog literal argument.
    /// Embedded quotes and backslashes are escaped, so the rendering is
    /// unambiguous (`it's` renders as `'it\'s'`, not the broken `'it's'`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_rendered(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Write [`Value::render`]'s rendering to `out` without allocating.
    pub fn write_rendered(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Str(s) => {
                let raw = s.as_str();
                out.write_char('\'')?;
                let mut start = 0;
                for (at, escaped) in raw.match_indices(['\'', '\\']) {
                    out.write_str(&raw[start..at])?;
                    out.write_char('\\')?;
                    out.write_str(escaped)?;
                    start = at + escaped.len();
                }
                out.write_str(&raw[start..])?;
                out.write_char('\'')
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<Sym> for Value {
    fn from(v: Sym) -> Self {
        Value::Str(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

/// The static type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Integer attribute.
    Int,
    /// String attribute.
    Str,
    /// Type of the `NULL` value; never used for attribute declarations.
    Null,
}

impl ValueType {
    /// `true` if a value of type `other` can be stored in an attribute of
    /// this type (`NULL` is accepted everywhere).
    pub fn accepts(&self, other: ValueType) -> bool {
        other == ValueType::Null || *self == other
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Str => write!(f, "str"),
            ValueType::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_values_compare_by_content() {
        assert_eq!(Value::str("abc"), Value::str("abc"));
        assert_ne!(Value::str("abc"), Value::str("abd"));
    }

    #[test]
    fn int_and_str_are_distinct() {
        assert_ne!(Value::int(1), Value::str("1"));
    }

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Value::int(42).as_int(), Some(42));
        assert_eq!(Value::int(42).as_str(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::str("x").as_sym(), Some(Sym::intern("x")));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn value_type_accepts_null_everywhere() {
        assert!(ValueType::Int.accepts(ValueType::Null));
        assert!(ValueType::Str.accepts(ValueType::Null));
        assert!(!ValueType::Int.accepts(ValueType::Str));
    }

    #[test]
    fn render_quotes_strings_only() {
        assert_eq!(Value::str("a b").render(), "'a b'");
        assert_eq!(Value::int(7).render(), "7");
        assert_eq!(Value::Null.render(), "null");
    }

    #[test]
    fn render_escapes_embedded_quotes() {
        // Regression: `'a'b'` used to render ambiguously for values
        // containing a quote character.
        assert_eq!(Value::str("a'b").render(), r"'a\'b'");
        assert_eq!(Value::str(r"back\slash").render(), r"'back\\slash'");
        assert_eq!(Value::str(r"mix\'ed").render(), r"'mix\\\'ed'");
        // Distinct raw strings must render distinctly.
        assert_ne!(Value::str(r"a\'b").render(), Value::str("a'b").render());
    }

    #[test]
    fn display_matches_payload() {
        assert_eq!(Value::str("hello").to_string(), "hello");
        assert_eq!(Value::int(-3).to_string(), "-3");
    }

    #[test]
    fn values_are_copy() {
        let v = Value::str("copied");
        let w = v;
        assert_eq!(v, w);
    }

    #[test]
    fn conversions_from_primitives() {
        let v: Value = 5i64.into();
        assert_eq!(v, Value::int(5));
        let v: Value = "abc".into();
        assert_eq!(v, Value::str("abc"));
        let v: Value = String::from("abc").into();
        assert_eq!(v, Value::str("abc"));
        let v: Value = Sym::intern("abc").into();
        assert_eq!(v, Value::str("abc"));
    }
}
