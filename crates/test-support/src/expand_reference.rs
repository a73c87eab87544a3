//! Reference repaired-clause expansion: the straightforward implementation
//! the production `dlearn_logic::repaired_clauses` must reproduce exactly.
//!
//! It explores every repair application order with no memo of visited
//! states, cleans and canonicalizes every finished leaf (duplicates
//! included), canonicalizes by re-rendering literals on every sort
//! comparison, and deduplicates substituted bodies with a linear scan. The
//! expansion oracle (`crates/logic/tests/expand_oracle.rs`) asserts that
//! production returns the identical `Vec<Clause>`, order included, for every
//! input and every pair of limits.

use std::collections::{BTreeSet, HashSet};

use dlearn_logic::{Clause, ExpandLimits, Literal, Substitution, Term, Var};

/// Enumerate the repaired clauses of `clause`, up to the given limits.
pub fn repaired_clauses(clause: &Clause, limits: ExpandLimits) -> Vec<Clause> {
    let mut results: Vec<Clause> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut stack: Vec<Clause> = vec![clause.clone()];
    let mut steps = 0usize;

    while let Some(current) = stack.pop() {
        steps += 1;
        if steps > limits.max_steps || results.len() >= limits.max_repairs {
            break;
        }
        if current.repairs.is_empty() {
            let mut finished = current;
            retain_head_connected(&mut finished);
            if seen.insert(canonical_string(&finished)) {
                results.push(finished);
            }
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
            let mut c = current;
            c.repairs.clear();
            stack.push(c);
            continue;
        }

        let independent = applicable.iter().copied().find(|&i| {
            let vars_i = current.repairs[i].variables();
            applicable
                .iter()
                .all(|&j| j == i || current.repairs[j].variables().is_disjoint(&vars_i))
        });

        let branch_targets: Vec<usize> = match independent {
            Some(i) => vec![i],
            None => applicable,
        };

        for &i in &branch_targets {
            stack.push(apply_repair(&current, i));
        }
    }

    if results.is_empty() {
        let mut c = clause.clone();
        c.repairs.clear();
        retain_head_connected(&mut c);
        results.push(c);
    }
    results
}

/// Apply the repair group at `index`: drop the literals it consumes and the
/// similarity literals over a replaced variable, then substitute.
fn apply_repair(clause: &Clause, index: usize) -> Clause {
    let mut c = clause.clone();
    let group = c.repairs.remove(index);
    let targets = group.targets();
    c.body.retain(|l| {
        if group.consumes.contains(l) {
            return false;
        }
        if matches!(l, Literal::Similar(_, _)) {
            return !l.variables().iter().any(|v| targets.contains(v));
        }
        true
    });
    let subst = group.substitution();
    apply(&c, &subst)
}

/// Substitute through head, body and repair groups, dropping `x = x` and
/// duplicate body literals (linear scan).
pub fn apply(clause: &Clause, subst: &Substitution) -> Clause {
    let head = clause.head.apply(subst);
    let mut body: Vec<Literal> = Vec::with_capacity(clause.body.len());
    for l in &clause.body {
        let nl = l.apply(subst);
        if let Literal::Equal(a, b) = &nl {
            if a == b {
                continue;
            }
        }
        if !body.contains(&nl) {
            body.push(nl);
        }
    }
    let repairs = clause.repairs.iter().map(|g| g.apply(subst)).collect();
    Clause {
        head,
        body,
        repairs,
    }
}

/// Keep head-connected body literals (a fixpoint over the body), drop
/// constraint literals over non-schema variables, then drop repair groups
/// whose targets left the clause.
pub fn retain_head_connected(clause: &mut Clause) {
    let mut connected: BTreeSet<Var> = clause.head.variables();
    let mut kept = vec![false; clause.body.len()];
    loop {
        let mut changed = false;
        for (i, l) in clause.body.iter().enumerate() {
            if kept[i] {
                continue;
            }
            let vars = l.variables();
            if vars.is_empty() {
                kept[i] = true;
                changed = true;
                continue;
            }
            if vars.iter().any(|v| connected.contains(v)) {
                kept[i] = true;
                connected.extend(vars);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut idx = 0;
    clause.body.retain(|_| {
        let keep = kept[idx];
        idx += 1;
        keep
    });
    let mut schema_vars: BTreeSet<Var> = clause.head.variables();
    for l in &clause.body {
        if l.is_relation() {
            schema_vars.extend(l.variables());
        }
    }
    clause
        .body
        .retain(|l| l.is_relation() || l.variables().iter().all(|v| schema_vars.contains(v)));
    let mut live_vars: BTreeSet<Var> = clause.head.variables();
    for l in &clause.body {
        live_vars.extend(l.variables());
    }
    clause
        .repairs
        .retain(|g| g.targets().iter().all(|v| live_vars.contains(v)));
}

/// Canonical string: two rounds of first-appearance renaming plus a body
/// sort keyed on each literal's rendering (re-rendered per comparison).
pub fn canonical_string(clause: &Clause) -> String {
    let mut clause = clause.clone();
    for _ in 0..2 {
        let renaming = first_appearance_renaming(&clause);
        clause = apply(&clause, &renaming);
        clause.body.sort_by_key(|l| l.to_string());
    }
    let mut s = clause.head.to_string();
    s.push_str(" <- ");
    s.push_str(
        &clause
            .body
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    for g in &clause.repairs {
        s.push_str(" & ");
        s.push_str(&g.render());
    }
    s
}

fn first_appearance_renaming(clause: &Clause) -> Substitution {
    let mut renaming = Substitution::new();
    let mut next = 0u32;
    let visit = |term: &Term, renaming: &mut Substitution, next: &mut u32| {
        if let Some(v) = term.as_var() {
            if renaming.get(v).is_none() {
                renaming.bind(v, Term::var(*next));
                *next += 1;
            }
        }
    };
    for t in clause.head.args() {
        visit(t, &mut renaming, &mut next);
    }
    for l in &clause.body {
        for t in l.args() {
            visit(t, &mut renaming, &mut next);
        }
    }
    for g in &clause.repairs {
        for (v, t) in &g.replacements {
            visit(&Term::Var(*v), &mut renaming, &mut next);
            visit(t, &mut renaming, &mut next);
        }
    }
    renaming
}
