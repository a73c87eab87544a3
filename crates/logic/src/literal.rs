//! Literals of the extended Horn-clause language.
//!
//! Besides ordinary relation literals the language contains the similarity
//! literal `x ≈ y`, equality / inequality literals (restriction and induced
//! equality literals of Section 3.2), all over [`Term`]s. Repair literals are
//! represented separately as [`crate::repair::RepairGroup`]s attached to the
//! clause, because a repair is applied as a unit (a substitution plus the
//! removal of its induced literals); the rendering still shows them in the
//! paper's `V_c(x, v_x)` notation.
//!
//! Relation literals carry an interned [`RelId`] rather than an owned
//! `String`: constructing, cloning and comparing literals never touches
//! string data, which is what the θ-subsumption matcher depends on.

use std::collections::BTreeSet;
use std::fmt;

use dlearn_relstore::RelId;

use crate::substitution::Substitution;
use crate::term::{Term, Var};

/// A body or head literal (excluding repair literals).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// A schema relation literal `R(t1, ..., tn)`.
    Relation {
        /// Interned relation name.
        relation: RelId,
        /// Argument terms.
        args: Vec<Term>,
    },
    /// Similarity literal `x ≈ y`.
    Similar(Term, Term),
    /// Equality literal `x = y`.
    Equal(Term, Term),
    /// Inequality literal `x ≠ y`.
    NotEqual(Term, Term),
}

impl Literal {
    /// Build a relation literal (interning the name when given as a string).
    pub fn relation(relation: impl Into<RelId>, args: Vec<Term>) -> Self {
        Literal::Relation {
            relation: relation.into(),
            args,
        }
    }

    /// `true` when this is a relation literal.
    pub fn is_relation(&self) -> bool {
        matches!(self, Literal::Relation { .. })
    }

    /// Name of the relation for relation literals.
    pub fn relation_name(&self) -> Option<&'static str> {
        self.relation_id().map(RelId::as_str)
    }

    /// Interned relation id for relation literals.
    pub fn relation_id(&self) -> Option<RelId> {
        match self {
            Literal::Relation { relation, .. } => Some(*relation),
            _ => None,
        }
    }

    /// Argument terms of the literal.
    pub fn args(&self) -> Vec<&Term> {
        match self {
            Literal::Relation { args, .. } => args.iter().collect(),
            Literal::Similar(a, b) | Literal::Equal(a, b) | Literal::NotEqual(a, b) => {
                vec![a, b]
            }
        }
    }

    /// Variables occurring in the literal.
    pub fn variables(&self) -> BTreeSet<Var> {
        self.vars().collect()
    }

    /// The variable arguments in argument order (repeats included), without
    /// allocating.
    pub(crate) fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        let (args, pair): (&[Term], Option<[&Term; 2]>) = match self {
            Literal::Relation { args, .. } => (args, None),
            Literal::Similar(a, b) | Literal::Equal(a, b) | Literal::NotEqual(a, b) => {
                (&[], Some([a, b]))
            }
        };
        args.iter()
            .chain(pair.into_iter().flatten())
            .filter_map(Term::as_var)
    }

    /// Apply a substitution, producing a new literal.
    pub fn apply(&self, subst: &Substitution) -> Literal {
        match self {
            Literal::Relation { relation, args } => Literal::Relation {
                relation: *relation,
                args: subst.apply_iter(args).collect(),
            },
            Literal::Similar(a, b) => Literal::Similar(subst.apply(a), subst.apply(b)),
            Literal::Equal(a, b) => Literal::Equal(subst.apply(a), subst.apply(b)),
            Literal::NotEqual(a, b) => Literal::NotEqual(subst.apply(a), subst.apply(b)),
        }
    }

    /// `true` when the literal mentions the variable.
    pub fn mentions(&self, var: Var) -> bool {
        self.vars().any(|v| v == var)
    }

    /// A sort key used to keep clause bodies in a deterministic order:
    /// relation literals sort before constraint literals, then by name/args.
    pub fn ordering_key(&self) -> (u8, String) {
        match self {
            Literal::Relation { relation, args } => (0, format!("{relation}/{}", args.len())),
            Literal::Similar(_, _) => (1, "~".to_string()),
            Literal::Equal(_, _) => (2, "=".to_string()),
            Literal::NotEqual(_, _) => (3, "!=".to_string()),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Relation { relation, args } => {
                write!(f, "{relation}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Literal::Similar(a, b) => write!(f, "{a} ≈ {b}"),
            Literal::Equal(a, b) => write!(f, "{a} = {b}"),
            Literal::NotEqual(a, b) => write!(f, "{a} ≠ {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_literal_accessors() {
        let l = Literal::relation("movies", vec![Term::var(0), Term::constant("Superbad")]);
        assert!(l.is_relation());
        assert_eq!(l.relation_name(), Some("movies"));
        assert_eq!(l.relation_id(), Some(RelId::intern("movies")));
        assert_eq!(l.args().len(), 2);
        assert_eq!(l.variables().len(), 1);
        assert!(l.mentions(Var(0)));
        assert!(!l.mentions(Var(1)));
    }

    #[test]
    fn apply_substitutes_arguments() {
        let mut s = Substitution::new();
        s.bind(Var(0), Term::constant(7i64));
        let l = Literal::relation("r", vec![Term::var(0), Term::var(1)]);
        assert_eq!(
            l.apply(&s),
            Literal::relation("r", vec![Term::constant(7i64), Term::var(1)])
        );
        let sim = Literal::Similar(Term::var(0), Term::var(1)).apply(&s);
        assert_eq!(sim, Literal::Similar(Term::constant(7i64), Term::var(1)));
    }

    #[test]
    fn display_uses_datalog_notation() {
        let l = Literal::relation("mov2genres", vec![Term::var(1), Term::constant("comedy")]);
        assert_eq!(l.to_string(), "mov2genres(v1, 'comedy')");
        assert_eq!(
            Literal::Equal(Term::var(0), Term::var(2)).to_string(),
            "v0 = v2"
        );
        assert_eq!(
            Literal::Similar(Term::var(0), Term::var(2)).to_string(),
            "v0 ≈ v2"
        );
    }

    #[test]
    fn ordering_key_puts_relations_first() {
        let r = Literal::relation("r", vec![]);
        let s = Literal::Similar(Term::var(0), Term::var(1));
        assert!(r.ordering_key() < s.ordering_key());
    }
}
