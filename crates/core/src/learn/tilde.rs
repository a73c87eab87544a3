//! TILDE-style first-order decision tree over the shared prepared state
//! ([`crate::Strategy::Tilde`]).
//!
//! The tree's internal nodes are conjunctive *tests* — head-connected
//! sub-clauses drawn from the training positives' bottom clauses (a literal
//! plus its backward connection chain, see [`super::connected_test`]) — and
//! each node splits its examples into the test's yes/no branches. Tests are
//! chosen by **gain ratio** (C4.5): information gain of the split divided by
//! the split's own entropy, which stops the tree from preferring tests that
//! shave off single examples. Positive leaves are then read back as clauses:
//! the conjunction of the yes-tests along the leaf's path (each test keeps
//! the head variables and quantifies its own chain variables, see
//! [`super::conjoin_tests`]). The resulting [`Definition`] is ordinary Horn
//! clauses, so `Predictor`/`PredictorService` serve a TILDE model unchanged.
//!
//! Because the served semantics is the clause disjunction (failed tests on
//! the path are not representable in a positive clause body), every emitted
//! clause is re-scored under the plan's real repair-aware coverage and kept
//! only while it separates training positives from negatives — the same
//! guard the covering loop applies.
//!
//! Tree building itself evaluates tests through per-test coverage masks
//! computed once up front (fanned out through the order-preserving
//! [`crate::par::chunked_map`], masks serial inside the fan-out); node
//! splits are then pure bit-mask counting. Ties break on the earliest test
//! in extraction order, so trees — and the definitions read off them — are
//! bit-identical at any thread count.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_logic::{Clause, Definition};

use crate::bottom::BottomClauseBuilder;
use crate::coverage::PreparedClause;
use crate::engine::StrategyPlan;
use crate::model::ClauseStats;

use super::{conjoin_tests, connected_test, entropy, Refined, Refiner};

/// Maximum tree depth (longest path of tests). Depth counts *both* branch
/// directions, and only satisfied tests end up in a leaf's clause, so a
/// disjunctive concept with `k` cases needs roughly `2k` depth — plus the
/// no-branch chain walked before the last case's first yes — for its leaf.
const MAX_DEPTH: usize = 24;

/// Minimum number of positives a leaf must hold to be read back as a clause;
/// single-example leaves are overwhelmingly sampling noise.
const MIN_LEAF_POSITIVES: usize = 2;

/// Cap on the candidate-test pool. Tests are collected in positive-example
/// order, so the cap keeps the earliest (and, for tree-shaped concepts, the
/// most example-backed) tests deterministically.
const MAX_TESTS: usize = 128;

/// Minimum raw information gain a split must achieve; below this the node
/// becomes a leaf.
const MIN_GAIN: f64 = 1e-6;

/// First-order decision-tree learner.
pub(crate) struct TildeRefiner;

/// A candidate test with its precomputed coverage masks over the training
/// positives and negatives.
struct Test {
    clause: Clause,
    pos: Vec<bool>,
    neg: Vec<bool>,
}

impl Refiner for TildeRefiner {
    fn refine(&self, plan: &StrategyPlan) -> Refined {
        let task = &plan.task;
        let config = &plan.config;
        let engine = &plan.coverage;
        let builder = BottomClauseBuilder::new(task, &plan.catalog, config);
        let mut bottom_clauses_built = task.positives.len() + task.negatives.len();

        // 1. Candidate tests: every head-connected sub-clause rooted at a
        // body literal of some positive's bottom clause, deduplicated by
        // canonical form, in first-seen order.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut candidates: Vec<Clause> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut head: Option<dlearn_logic::Literal> = None;
        'examples: for example in &task.positives {
            let bottom = builder.build(example, &mut rng);
            bottom_clauses_built += 1;
            if bottom.body.is_empty() {
                continue;
            }
            let expected_head = head.get_or_insert_with(|| bottom.head.clone());
            if bottom.head != *expected_head {
                // Heads must agree for tests to conjoin; bottom clauses of a
                // shared target only diverge on degenerate duplicate-value
                // examples, which are skipped.
                continue;
            }
            for at in 0..bottom.body.len() {
                if let Some(test) = connected_test(&bottom, at) {
                    if seen.insert(test.canonical_string()) {
                        candidates.push(test);
                    }
                }
                if candidates.len() >= MAX_TESTS {
                    break 'examples;
                }
            }
        }

        // 2. Coverage masks per test, computed once: node splits below are
        // pure bit-mask counting. Same fan-out shape as generalization
        // scoring (masks serial inside the fan-out).
        let threads = config.effective_generalization_threads();
        let fanned_out = threads > 1 && candidates.len() >= 2;
        let tests: Vec<Test> = crate::par::chunked_map(&candidates, threads, 2, |_, test| {
            let prepared = PreparedClause::prepare(test.clone(), config);
            let (pos, neg) = if fanned_out {
                (
                    engine.positive_mask_serial(&prepared),
                    engine.negative_mask_serial(&prepared),
                )
            } else {
                (
                    engine.positive_mask(&prepared),
                    engine.negative_mask(&prepared),
                )
            };
            Test {
                clause: test.clone(),
                pos,
                neg,
            }
        });

        // 3. Grow the tree and collect positive-leaf paths (as test indices).
        let all_pos: Vec<usize> = (0..task.positives.len()).collect();
        let all_neg: Vec<usize> = (0..task.negatives.len()).collect();
        let mut paths: Vec<Vec<usize>> = Vec::new();
        grow(&tests, &all_pos, &all_neg, &Vec::new(), 0, &mut paths);

        // 4. Read the leaf paths back as clauses against the real
        // (conjoined-clause) coverage, deduplicate, and keep only clauses
        // that separate. Two corrections are needed because a clause keeps
        // only the path's *satisfied* tests — the failed no-branch tests
        // that also routed examples are not expressible in a definite
        // clause body, so the clause covers a superset of the leaf's
        // examples:
        //
        // * **Refine**: a leaf that was pure over its local examples can
        //   measure dirty (negatives that diverged at an earlier yes-branch
        //   still satisfy the path tests). Greedily conjoin the test that
        //   most reduces real negative coverage until the clause separates
        //   or no addition helps.
        // * **Simplify**: a path also records splits that routed *other*
        //   examples — e.g. a `gold ∧ web ∧ east` path whose purity only
        //   needs `web ∧ east`. Each accidental conjunct cuts held-out
        //   recall, so tests whose removal does not admit a single extra
        //   training negative are dropped (coverage is monotone under
        //   conjunct removal: positives can only grow).
        let mut definition = Definition::new();
        let mut stats: Vec<ClauseStats> = Vec::new();
        let mut emitted: HashSet<String> = HashSet::new();
        for path in &paths {
            let mut kept: Vec<usize> = path.clone();
            let mut measured = match measure(&kept, &tests, engine, config) {
                Some(m) => m,
                None => continue,
            };
            // Refine: drive real negative coverage down by conjoining more
            // tests (first strict minimum of (negatives, -positives) in
            // test order), as long as enough positives survive.
            while measured.negatives_covered > 0 {
                let mut best: Option<(usize, Measured)> = None;
                for index in 0..tests.len() {
                    if kept.contains(&index) {
                        continue;
                    }
                    let mut with = kept.clone();
                    with.push(index);
                    if let Some(m) = measure(&with, &tests, engine, config) {
                        if m.positives_covered >= MIN_LEAF_POSITIVES
                            && m.negatives_covered < measured.negatives_covered
                            && best
                                .as_ref()
                                .map(|(_, b)| {
                                    (m.negatives_covered, usize::MAX - m.positives_covered)
                                        < (b.negatives_covered, usize::MAX - b.positives_covered)
                                })
                                .unwrap_or(true)
                        {
                            best = Some((index, m));
                        }
                    }
                }
                match best {
                    Some((index, m)) => {
                        kept.push(index);
                        measured = m;
                    }
                    None => break,
                }
            }
            // Simplify: drop conjuncts whose removal admits no extra
            // training negative.
            let mut at = 0;
            while kept.len() > 1 && at < kept.len() {
                let mut without = kept.clone();
                without.remove(at);
                match measure(&without, &tests, engine, config) {
                    Some(m) if m.negatives_covered <= measured.negatives_covered => {
                        kept = without;
                        measured = m;
                    }
                    _ => at += 1,
                }
            }
            if !emitted.insert(measured.clause.canonical_string()) {
                continue;
            }
            // Same majority bar as the leaf rule (and the covering loop's
            // `accept_clause`), but on the clause's *real* coverage: the
            // path clause covers a superset of the leaf's examples (failed
            // no-branch tests are not in its body), so a leaf that looked
            // pure can measure dirty.
            if measured.positives_covered >= MIN_LEAF_POSITIVES
                && measured.positives_covered > measured.negatives_covered
            {
                definition.push(measured.clause);
                stats.push(ClauseStats {
                    positives_covered: measured.positives_covered,
                    negatives_covered: measured.negatives_covered,
                });
            }
        }

        Refined {
            definition,
            stats,
            bottom_clauses_built,
        }
    }
}

/// A conjoined path clause with its training coverage.
struct Measured {
    clause: Clause,
    positives_covered: usize,
    negatives_covered: usize,
}

/// Conjoin the tests at `indices` and measure the clause's real coverage
/// (the engine's repair-aware semantics over the conjoined clause — not the
/// per-test masks, whose intersection over-approximates shared-variable
/// joins).
fn measure(
    indices: &[usize],
    tests: &[Test],
    engine: &crate::coverage::CoverageEngine,
    config: &crate::config::LearnerConfig,
) -> Option<Measured> {
    let path_tests: Vec<&Clause> = indices.iter().map(|&t| &tests[t].clause).collect();
    let clause = conjoin_tests(&path_tests)?;
    if clause.body.is_empty() {
        return None;
    }
    let prepared = PreparedClause::prepare(clause.clone(), config);
    let positives_covered = engine
        .positive_mask(&prepared)
        .iter()
        .filter(|&&b| b)
        .count();
    let negatives_covered = engine
        .negative_mask(&prepared)
        .iter()
        .filter(|&&b| b)
        .count();
    Some(Measured {
        clause,
        positives_covered,
        negatives_covered,
    })
}

/// Recursively split a node's examples on the best gain-ratio test,
/// collecting the path of every positive leaf. `pos`/`neg` hold training
/// example indices reaching the node; `path` holds the indices of the tests
/// satisfied along the way (failed tests are not recorded — they are not
/// expressible in the emitted clauses).
fn grow(
    tests: &[Test],
    pos: &[usize],
    neg: &[usize],
    path: &[usize],
    depth: usize,
    paths: &mut Vec<Vec<usize>>,
) {
    if pos.is_empty() {
        return; // Negative leaf.
    }
    // A positive leaf needs enough support and a positive majority, the
    // C4.5 leaf label. A stricter bar (say, twice as many positives as
    // negatives) rejects the only leaf a small task can reach: with three
    // positives, an unsplittable node holding two negatives would yield
    // nothing at all. Impure leaves are not emitted as they stand: the
    // read-back below first conjoins tests to drive their real negative
    // coverage down.
    let leaf = |paths: &mut Vec<Vec<usize>>| {
        if pos.len() >= MIN_LEAF_POSITIVES && pos.len() > neg.len() && !path.is_empty() {
            paths.push(path.to_vec());
        }
    };
    if neg.is_empty() || depth >= MAX_DEPTH {
        leaf(paths);
        return;
    }

    // Best gain-ratio split; first strict maximum in test order.
    let node_entropy = entropy(pos.len(), neg.len());
    let total = (pos.len() + neg.len()) as f64;
    let mut best: Option<(f64, usize)> = None;
    for (index, test) in tests.iter().enumerate() {
        if path.contains(&index) {
            continue; // Re-testing a satisfied test cannot split.
        }
        let yes_p = pos.iter().filter(|&&i| test.pos[i]).count();
        let yes_n = neg.iter().filter(|&&i| test.neg[i]).count();
        let no_p = pos.len() - yes_p;
        let no_n = neg.len() - yes_n;
        let yes = yes_p + yes_n;
        let no = no_p + no_n;
        if yes == 0 || no == 0 {
            continue; // Degenerate split.
        }
        let gain = node_entropy
            - (yes as f64 / total) * entropy(yes_p, yes_n)
            - (no as f64 / total) * entropy(no_p, no_n);
        if gain <= MIN_GAIN {
            continue;
        }
        let split_info = entropy(yes, no);
        let ratio = gain / split_info;
        if best.map(|(r, _)| ratio > r).unwrap_or(true) {
            best = Some((ratio, index));
        }
    }

    match best {
        None => leaf(paths),
        Some((_, index)) => {
            let test = &tests[index];
            let yes_pos: Vec<usize> = pos.iter().copied().filter(|&i| test.pos[i]).collect();
            let yes_neg: Vec<usize> = neg.iter().copied().filter(|&i| test.neg[i]).collect();
            let no_pos: Vec<usize> = pos.iter().copied().filter(|&i| !test.pos[i]).collect();
            let no_neg: Vec<usize> = neg.iter().copied().filter(|&i| !test.neg[i]).collect();
            let mut yes_path = path.to_vec();
            yes_path.push(index);
            grow(tests, &yes_pos, &yes_neg, &yes_path, depth + 1, paths);
            grow(tests, &no_pos, &no_neg, path, depth + 1, paths);
        }
    }
}
