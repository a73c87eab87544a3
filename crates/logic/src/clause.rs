//! Horn clauses with repair groups, and Horn definitions.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use crate::literal::Literal;
use crate::repair::RepairGroup;
use crate::substitution::Substitution;
use crate::term::{Term, Var};

/// A Horn clause `head ← body` extended with repair groups.
///
/// The body holds relation, similarity, equality and inequality literals in
/// construction order (which doubles as the total order used by the
/// generalization algorithm); `repairs` holds the clause's repair literals
/// grouped by repair operation (see [`RepairGroup`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Clause {
    /// Head literal (always a relation literal).
    pub head: Literal,
    /// Body literals in construction order.
    pub body: Vec<Literal>,
    /// Repair groups attached to the clause.
    pub repairs: Vec<RepairGroup>,
}

impl Clause {
    /// Create a clause with an empty body.
    pub fn new(head: Literal) -> Self {
        debug_assert!(head.is_relation(), "clause heads must be relation literals");
        Clause {
            head,
            body: Vec::new(),
            repairs: Vec::new(),
        }
    }

    /// Create a clause with the given body.
    pub fn with_body(head: Literal, body: Vec<Literal>) -> Self {
        let mut c = Clause::new(head);
        c.body = body;
        c
    }

    /// `true` when the clause has no repair groups (a *repaired clause* in
    /// the paper's terminology).
    pub fn is_repaired(&self) -> bool {
        self.repairs.is_empty()
    }

    /// All variables appearing in the head, body or repair groups.
    pub fn variables(&self) -> BTreeSet<Var> {
        let mut vars = self.head.variables();
        for l in &self.body {
            vars.extend(l.variables());
        }
        for g in &self.repairs {
            vars.extend(g.variables());
        }
        vars
    }

    /// The largest variable index used in the clause, if any.
    pub fn max_var_index(&self) -> Option<u32> {
        self.variables().iter().map(|v| v.0).max()
    }

    /// Number of body literals.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Add a body literal if not already present; returns `true` when added.
    pub fn push_unique(&mut self, literal: Literal) -> bool {
        if self.body.contains(&literal) {
            false
        } else {
            self.body.push(literal);
            true
        }
    }

    /// Add a repair group.
    pub fn push_repair(&mut self, group: RepairGroup) {
        self.repairs.push(group);
    }

    /// Apply a substitution to head, body and repair groups, removing
    /// trivially true equality literals (`x = x`) that the substitution may
    /// create and deduplicating body literals.
    pub fn apply(&self, subst: &Substitution) -> Clause {
        Clause::substituted(&self.head, &self.body, &self.repairs, subst)
    }

    /// [`Clause::apply`] over the given parts of a clause, so a caller that
    /// drops some literals or groups first need not clone the rest.
    pub(crate) fn substituted<'a>(
        head: &Literal,
        body: impl IntoIterator<Item = &'a Literal>,
        repairs: impl IntoIterator<Item = &'a RepairGroup>,
        subst: &Substitution,
    ) -> Clause {
        let head = head.apply(subst);
        let mut body: Vec<Literal> = body
            .into_iter()
            .map(|l| l.apply(subst))
            .filter(|l| !matches!(l, Literal::Equal(a, b) if a == b))
            .collect();
        // Keep the first occurrence of each literal.
        let mut seen: HashSet<&Literal> = HashSet::with_capacity(body.len());
        let first: Vec<bool> = body.iter().map(|l| seen.insert(l)).collect();
        drop(seen);
        let mut at = 0;
        body.retain(|_| {
            at += 1;
            first[at - 1]
        });
        let repairs = repairs.into_iter().map(|g| g.apply(subst)).collect();
        Clause {
            head,
            body,
            repairs,
        }
    }

    /// Keep only head-connected body literals (Section 2.1: a literal is
    /// head-connected when it shares a variable with the head or with another
    /// head-connected literal), then drop repair groups that are no longer
    /// connected to any remaining relation literal or the head.
    pub fn retain_head_connected(&mut self) {
        // Variable-indexed table: `vars` holds the head and body variables
        // sorted and unique (a variable's slot is its position), and
        // `occurrences` the (variable, body index) pairs sorted so the
        // literals mentioning one variable form one run.
        let mut occurrences: Vec<(Var, usize)> = self
            .body
            .iter()
            .enumerate()
            .flat_map(|(i, l)| l.vars().map(move |v| (v, i)))
            .collect();
        occurrences.sort_unstable();
        let mut vars: Vec<Var> = self
            .head
            .vars()
            .chain(occurrences.iter().map(|&(v, _)| v))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let slot = |v: Var| {
            vars.binary_search(&v)
                .expect("every head and body variable has a slot")
        };

        // One worklist pass from the head variables. Fully ground literals
        // are kept: they are trivially connected through constants that
        // came from the example walk.
        let mut kept: Vec<bool> = self
            .body
            .iter()
            .map(|l| l.vars().next().is_none())
            .collect();
        let mut connected = vec![false; vars.len()];
        let mut worklist: Vec<Var> = self.head.vars().collect();
        while let Some(v) = worklist.pop() {
            if std::mem::replace(&mut connected[slot(v)], true) {
                continue;
            }
            let run = occurrences.partition_point(|&(w, _)| w < v);
            for &(_, i) in occurrences[run..].iter().take_while(|&&(w, _)| w == v) {
                if !std::mem::replace(&mut kept[i], true) {
                    worklist.extend(self.body[i].vars());
                }
            }
        }

        // Section 3.2 cleanup: similarity/equality/inequality literals whose
        // variables no longer appear in the head or in any schema relation
        // literal constrain nothing and are dropped.
        let mut schema = vec![false; vars.len()];
        let mut live = vec![false; vars.len()];
        for v in self.head.vars() {
            schema[slot(v)] = true;
            live[slot(v)] = true;
        }
        for (l, _) in self
            .body
            .iter()
            .zip(&kept)
            .filter(|(l, &k)| k && l.is_relation())
        {
            l.vars().for_each(|v| schema[slot(v)] = true);
        }
        let mut at = 0;
        self.body.retain(|l| {
            at += 1;
            let keep = kept[at - 1] && (l.is_relation() || l.vars().all(|v| schema[slot(v)]));
            if keep {
                l.vars().for_each(|v| live[slot(v)] = true);
            }
            keep
        });
        // Repair groups must stay connected to the surviving literals: an MD
        // repair that lost one side of its match (because the literal
        // carrying it was dropped) can no longer unify anything, so a repair
        // survives only while every variable it replaces is still in the
        // clause.
        self.repairs.retain(|g| {
            g.replacements
                .iter()
                .all(|(v, _)| vars.binary_search(v).is_ok_and(|s| live[s]))
        });
    }

    /// Remove the body literal at `index` along with repair groups whose only
    /// connection to the clause was through that literal, then re-establish
    /// head-connectedness. Used by generalization to drop blocking literals.
    pub fn remove_body_literal(&mut self, index: usize) {
        if index >= self.body.len() {
            return;
        }
        self.body.remove(index);
        self.retain_head_connected();
    }

    /// A canonical string form: variables renamed by first appearance and the
    /// body sorted, used to deduplicate logically identical repaired clauses.
    ///
    /// Two rounds of renaming and sorting; each literal is rendered once per
    /// round, and the second round's renderings are the body of the string.
    pub fn canonical_string(&self) -> String {
        let mut clause = self.apply(&self.first_appearance_renaming());
        clause.body.sort_by_cached_key(|l| l.to_string());
        let clause = clause.apply(&clause.first_appearance_renaming());
        // Equal keys render identically, so sorting the renderings yields
        // exactly the string of the sorted body.
        let mut body: Vec<String> = clause.body.iter().map(|l| l.to_string()).collect();
        body.sort_unstable();
        let mut s = clause.head.to_string();
        s.push_str(" <- ");
        s.push_str(&body.join(", "));
        for g in &clause.repairs {
            s.push_str(" & ");
            s.push_str(&g.render());
        }
        s
    }

    fn first_appearance_renaming(&self) -> Substitution {
        let mut renaming = Substitution::new();
        let mut next = 0u32;
        let mut visit = |v: Var| {
            if renaming.get(v).is_none() {
                renaming.bind(v, Term::var(next));
                next += 1;
            }
        };
        for v in self.head.vars() {
            visit(v);
        }
        for l in &self.body {
            l.vars().for_each(&mut visit);
        }
        for g in &self.repairs {
            for &(v, t) in &g.replacements {
                visit(v);
                if let Some(w) = t.as_var() {
                    visit(w);
                }
            }
        }
        renaming
    }

    /// Relation literals of the body (in order) with their body positions.
    pub fn relation_literals(&self) -> impl Iterator<Item = (usize, &Literal)> {
        self.body
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_relation())
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← ", self.head)?;
        let mut parts: Vec<String> = self.body.iter().map(|l| l.to_string()).collect();
        parts.extend(self.repairs.iter().map(|g| g.render()));
        write!(f, "{}", parts.join(", "))
    }
}

/// A Horn definition: a set of clauses sharing the same head relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Definition {
    clauses: Vec<Clause>,
}

impl Definition {
    /// Empty definition.
    pub fn new() -> Self {
        Definition::default()
    }

    /// Build a definition from clauses.
    pub fn from_clauses(clauses: Vec<Clause>) -> Self {
        Definition { clauses }
    }

    /// Add a clause.
    pub fn push(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// The clauses of the definition.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// `true` when the definition has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Iterate over clauses.
    pub fn iter(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }
}

impl fmt::Display for Definition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{CondAtom, RepairOrigin};

    fn sample_clause() -> Clause {
        // target(v0) <- movies(v1, v2, v3), mov2genres(v1, 'comedy'), v0 ≈ v2
        let mut c = Clause::new(Literal::relation("target", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(2), Term::var(3)],
        ));
        c.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        c.push_unique(Literal::Similar(Term::var(0), Term::var(2)));
        c
    }

    #[test]
    fn push_unique_deduplicates() {
        let mut c = sample_clause();
        let before = c.body_len();
        assert!(!c.push_unique(Literal::Similar(Term::var(0), Term::var(2))));
        assert_eq!(c.body_len(), before);
    }

    #[test]
    fn variables_and_max_index() {
        let c = sample_clause();
        assert_eq!(c.variables().len(), 4);
        assert_eq!(c.max_var_index(), Some(3));
    }

    #[test]
    fn apply_removes_trivial_equalities_and_duplicates() {
        let mut c = sample_clause();
        c.push_unique(Literal::Equal(Term::var(4), Term::var(5)));
        let mut s = Substitution::new();
        s.bind(Var(4), Term::var(6));
        s.bind(Var(5), Term::var(6));
        let c2 = c.apply(&s);
        assert!(!c2
            .body
            .iter()
            .any(|l| matches!(l, Literal::Equal(a, b) if a == b)));
    }

    #[test]
    fn retain_head_connected_drops_disconnected_literals() {
        let mut c = sample_clause();
        c.push_unique(Literal::relation("orphan", vec![Term::var(9)]));
        c.retain_head_connected();
        assert!(!c.body.iter().any(|l| l.relation_name() == Some("orphan")));
        // The connected chain target -> similar -> movies -> genres survives.
        assert_eq!(c.body.len(), 3);
    }

    #[test]
    fn removing_a_literal_can_disconnect_downstream_literals() {
        let mut c = sample_clause();
        // Removing the similarity literal (index 2) disconnects movies and genres.
        c.remove_body_literal(2);
        assert!(c.body.is_empty(), "body should be empty, got {c}");
    }

    #[test]
    fn repair_groups_follow_their_variables() {
        let mut c = sample_clause();
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(2))],
            vec![(Var(0), Term::var(7)), (Var(2), Term::var(7))],
            vec![Literal::Similar(Term::var(0), Term::var(2))],
        ));
        let mut dropped = c.clone();
        dropped.remove_body_literal(2);
        assert!(
            dropped.repairs.is_empty(),
            "repair should drop with its literals"
        );
        c.retain_head_connected();
        assert_eq!(c.repairs.len(), 1);
    }

    #[test]
    fn canonical_string_is_stable_under_variable_renaming() {
        let c = sample_clause();
        let mut renaming = Substitution::new();
        renaming.bind(Var(0), Term::var(10));
        renaming.bind(Var(1), Term::var(11));
        renaming.bind(Var(2), Term::var(12));
        renaming.bind(Var(3), Term::var(13));
        let renamed = c.apply(&renaming);
        assert_eq!(c.canonical_string(), renamed.canonical_string());
    }

    #[test]
    fn definition_display_lists_clauses() {
        let mut d = Definition::new();
        d.push(sample_clause());
        d.push(sample_clause());
        assert_eq!(d.len(), 2);
        let text = d.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("target(v0)"));
    }

    #[test]
    fn ground_literals_survive_head_connected_cleanup() {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("facts", vec![Term::constant("k")]));
        c.retain_head_connected();
        assert_eq!(c.body.len(), 1);
    }
}
