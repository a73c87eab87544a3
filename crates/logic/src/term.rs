//! Terms: variables and constants.

use std::fmt;

use dlearn_relstore::Value;

/// A logic variable, identified by an index that is unique within a clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A term: either a variable or a constant database value.
///
/// `Copy` since the interning refactor: constants carry an interned
/// [`Value`], so terms are 16 bytes and never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(index: u32) -> Self {
        Term::Var(Var(index))
    }

    /// Shorthand for a constant term.
    pub fn constant(value: impl Into<Value>) -> Self {
        Term::Const(value.into())
    }

    /// The variable inside, if this term is a variable.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if this term is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(v) => Some(v),
        }
    }

    /// `true` when the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// `true` when the term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => c.write_rendered(f),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_accessors() {
        let v = Term::var(3);
        assert_eq!(v.as_var(), Some(Var(3)));
        assert!(v.is_var());
        assert!(!v.is_const());

        let c = Term::constant("comedy");
        assert_eq!(c.as_const(), Some(&Value::str("comedy")));
        assert!(c.is_const());
    }

    #[test]
    fn display_renders_vars_and_constants() {
        assert_eq!(Term::var(0).to_string(), "v0");
        assert_eq!(Term::constant("comedy").to_string(), "'comedy'");
        assert_eq!(Term::constant(1977i64).to_string(), "1977");
    }

    #[test]
    fn terms_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Term::var(2));
        s.insert(Term::var(1));
        s.insert(Term::constant(5i64));
        assert_eq!(s.len(), 3);
    }
}
