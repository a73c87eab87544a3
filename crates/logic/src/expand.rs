//! Expansion of a clause with repair groups into its repaired clauses.
//!
//! Section 3.2: a clause with repair literals is converted into its set of
//! *repaired clauses* by iteratively applying repair literals — if a repair's
//! condition holds it is applied (its replacements are substituted through
//! the clause), otherwise it is simply discarded — until none are left.
//! Different application orders may produce different repaired clauses
//! (Example 3.3), so the expansion explores orders depth-first. An
//! *independent* repair (sharing no variables with the other applicable
//! repairs) is applied eagerly without branching, since its order cannot
//! matter. Finished clauses are cleaned to their head-connected part and
//! deduplicated by canonical form, in the order the search reaches them.
//!
//! Different orders often reach the same intermediate clause (applying `a`
//! then `b` and `b` then `a`). The search memoizes every clause it expands,
//! keyed on the whole clause (head, body and repair groups) by structural
//! hash and exact comparison. Every successor has fewer repair groups, so a
//! clause never recurs inside its own subtree: when the search meets an
//! expanded clause again, that subtree has been explored to the end, and it
//! is skipped, since it could only produce clauses already found. Likewise a
//! finished clause identical (after cleanup) to an earlier one is dropped
//! without rendering its canonical form. The memo lives for one call.
//!
//! `max_steps` counts the clauses the search pops, and a skipped clause is
//! charged every pop its first expansion took. Both caps therefore cut at
//! the same point as in a search without the memo, and the output, order
//! included, is the same.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::clause::Clause;
use crate::literal::Literal;
use crate::term::Var;

/// Limits for repaired-clause expansion.
#[derive(Debug, Clone, Copy)]
pub struct ExpandLimits {
    /// Maximum number of distinct repaired clauses to produce.
    pub max_repairs: usize,
    /// Safety cap on explored intermediate clauses.
    pub max_steps: usize,
}

impl Default for ExpandLimits {
    fn default() -> Self {
        ExpandLimits {
            max_repairs: 16,
            max_steps: 2048,
        }
    }
}

/// One entry of the depth-first stack.
enum Frame {
    /// A clause to pop and expand.
    Visit(Clause),
    /// The end of `state`'s subtree: popped once everything pushed after it
    /// has been. `opened_at` is the step count when `state` was popped.
    Close { state: Clause, opened_at: usize },
}

/// Enumerate the repaired clauses of `clause`, up to the given limits.
///
/// The result always contains at least one clause; a clause without repair
/// groups expands to itself.
pub fn repaired_clauses(clause: &Clause, limits: ExpandLimits) -> Vec<Clause> {
    let mut results: Vec<Clause> = Vec::new();
    let mut canonical: HashSet<String> = HashSet::new();
    // Every finished clause met so far, whether it was new or not.
    let mut finished_seen: HashSet<Clause> = HashSet::new();
    // Expanded clauses, each with the steps its subtree took.
    let mut expanded: HashMap<Clause, usize> = HashMap::new();
    let mut stack = vec![Frame::Visit(clause.clone())];
    let mut steps = 0usize;

    while let Some(frame) = stack.pop() {
        let current = match frame {
            Frame::Visit(current) => current,
            Frame::Close { state, opened_at } => {
                expanded.insert(state, steps - opened_at + 1);
                continue;
            }
        };
        steps = steps.saturating_add(1);
        if steps > limits.max_steps || results.len() >= limits.max_repairs {
            break;
        }
        if current.repairs.is_empty() {
            let mut finished = current;
            finished.retain_head_connected();
            if !finished_seen.contains(&finished) {
                if canonical.insert(finished.canonical_string()) {
                    results.push(finished.clone());
                }
                finished_seen.insert(finished);
            }
            continue;
        }
        if let Some(&cost) = expanded.get(&current) {
            // A clause is expanded again only after its first subtree has
            // closed: every successor has fewer repair groups.
            steps = steps.saturating_add(cost - 1);
            continue;
        }
        let applicable: Vec<usize> = current
            .repairs
            .iter()
            .enumerate()
            .filter(|(_, g)| g.condition_holds(&current.body))
            .map(|(i, _)| i)
            .collect();

        if applicable.is_empty() {
            // No repair can fire: discard all remaining repair groups.
            let mut c = current;
            c.repairs.clear();
            stack.push(Frame::Visit(c));
            continue;
        }

        // Repairs that share no variables with any *other* applicable repair
        // can be applied in any order with the same outcome; fire the first
        // such repair without branching.
        let vars: Vec<BTreeSet<Var>> = applicable
            .iter()
            .map(|&i| current.repairs[i].variables())
            .collect();
        let independent = (0..applicable.len())
            .find(|&a| (0..applicable.len()).all(|b| b == a || vars[a].is_disjoint(&vars[b])));
        let successors: Vec<Clause> = match independent {
            Some(a) => vec![apply_repair(&current, applicable[a])],
            None => applicable
                .iter()
                .map(|&i| apply_repair(&current, i))
                .collect(),
        };
        stack.push(Frame::Close {
            state: current,
            opened_at: steps,
        });
        stack.extend(successors.into_iter().map(Frame::Visit));
    }

    if results.is_empty() {
        // Budget exhausted before reaching any fully repaired clause; fall
        // back to dropping the remaining repairs so callers always get a
        // usable clause.
        let mut c = clause.clone();
        c.repairs.clear();
        c.retain_head_connected();
        results.push(c);
    }
    results
}

/// Apply the repair group at `index` to the clause, producing the successor
/// clause: consumed literals are removed, the group's substitution is applied
/// everywhere (including the other groups' conditions), and the group itself
/// is dropped.
fn apply_repair(clause: &Clause, index: usize) -> Clause {
    let group = &clause.repairs[index];
    // Remove the literals the repair consumes, plus similarity literals that
    // mention a replaced variable: after unification the replaced variable
    // stands for a fresh (repaired) value, so similarity facts about its old
    // value are stale. This is what makes conflicting repairs of the same
    // variable mutually exclusive (paper Example 3.3: a dirty title can be
    // unified with only one of its candidate matches per repaired clause).
    let replaced = |v: Var| group.replacements.iter().any(|&(t, _)| t == v);
    let body = clause.body.iter().filter(|l| {
        let stale = matches!(l, Literal::Similar(_, _)) && l.vars().any(replaced);
        !stale && !group.consumes.contains(l)
    });
    let others = clause
        .repairs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != index)
        .map(|(_, g)| g);
    Clause::substituted(&clause.head, body, others, &group.substitution())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use crate::repair::{CondAtom, RepairGroup, RepairOrigin};
    use crate::term::{Term, Var};

    /// Build the clause of paper Example 3.3:
    /// `T(x) ← R(y), x ≈ y, S(z), x ≈ z` with two MD repairs, each unifying
    /// `x` with one of `y`, `z` via a fresh variable.
    fn example_3_3() -> Clause {
        let x = Term::var(0);
        let y = Term::var(1);
        let z = Term::var(2);
        let vx = Term::var(3); // fresh for md0 (x ⇌ y)
        let ux = Term::var(4); // fresh for md1 (x ⇌ z)
        let mut c = Clause::new(Literal::relation("t", vec![x]));
        c.push_unique(Literal::relation("r", vec![y]));
        c.push_unique(Literal::Similar(x, y));
        c.push_unique(Literal::relation("s", vec![z]));
        c.push_unique(Literal::Similar(x, z));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(x, y)],
            vec![(Var(0), vx), (Var(1), vx)],
            vec![Literal::Similar(x, y)],
        ));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(1),
            vec![CondAtom::Sim(x, z)],
            vec![(Var(0), ux), (Var(2), ux)],
            vec![Literal::Similar(x, z)],
        ));
        c
    }

    #[test]
    fn example_3_3_has_two_repaired_clauses() {
        let c = example_3_3();
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 2, "repaired: {repaired:#?}");
        let mut unified_relations = Vec::new();
        for r in &repaired {
            assert!(r.is_repaired());
            // Exactly one of the two MDs was enforced: the head variable is
            // unified with the argument of exactly one of R or S; the other
            // relation literal becomes disconnected from the head and is
            // dropped by the head-connectedness cleanup.
            let head_var = r.head.args()[0].as_var().unwrap();
            let unified: Vec<&str> = r
                .body
                .iter()
                .filter(|l| l.is_relation() && l.args()[0].as_var() == Some(head_var))
                .map(|l| l.relation_name().unwrap())
                .collect();
            assert_eq!(unified.len(), 1, "clause: {r}");
            unified_relations.push(unified[0].to_string());
        }
        unified_relations.sort();
        assert_eq!(unified_relations, vec!["r".to_string(), "s".to_string()]);
    }

    #[test]
    fn clause_without_repairs_expands_to_itself() {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("r", vec![Term::var(0)]));
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0].canonical_string(), c.canonical_string());
    }

    #[test]
    fn independent_repairs_produce_a_single_repaired_clause() {
        // Two MD repairs touching disjoint variable sets: order cannot
        // matter, so only one repaired clause results.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0), Term::var(2)]));
        c.push_unique(Literal::relation("r", vec![Term::var(1)]));
        c.push_unique(Literal::Similar(Term::var(0), Term::var(1)));
        c.push_unique(Literal::relation("s", vec![Term::var(3)]));
        c.push_unique(Literal::Similar(Term::var(2), Term::var(3)));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(1))],
            vec![(Var(0), Term::var(4)), (Var(1), Term::var(4))],
            vec![Literal::Similar(Term::var(0), Term::var(1))],
        ));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(1),
            vec![CondAtom::Sim(Term::var(2), Term::var(3))],
            vec![(Var(2), Term::var(5)), (Var(3), Term::var(5))],
            vec![Literal::Similar(Term::var(2), Term::var(3))],
        ));
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 1, "{repaired:#?}");
        assert!(repaired[0]
            .body
            .iter()
            .all(|l| !matches!(l, Literal::Similar(_, _))));
    }

    #[test]
    fn failed_conditions_discard_repairs() {
        // The repair's condition references a similarity literal that is not
        // in the body, so it can never fire.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("r", vec![Term::var(1)]));
        c.push_unique(Literal::Similar(Term::var(0), Term::var(1)));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(9))],
            vec![(Var(0), Term::var(5))],
            vec![],
        ));
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 1);
        // Nothing was substituted.
        assert_eq!(repaired[0].head, Literal::relation("t", vec![Term::var(0)]));
    }

    #[test]
    fn limits_bound_the_number_of_results() {
        let c = example_3_3();
        let repaired = repaired_clauses(
            &c,
            ExpandLimits {
                max_repairs: 1,
                max_steps: 1024,
            },
        );
        assert_eq!(repaired.len(), 1);
    }
}
