//! Coverage testing over heterogeneous data (Section 4.3).
//!
//! To decide whether a candidate clause covers an example, DLearn builds the
//! *ground bottom clause* of the example and tests θ-subsumption against it.
//! For clauses with repair literals, positive coverage follows Definition
//! 3.4 (every repaired clause of the candidate must cover the example in
//! some repair of its ground clause) and negative coverage follows
//! Definition 3.6 (some repaired clause covers it). A direct subsumption test
//! treating repair literals as ordinary literals (Theorem 4.6) is used as a
//! fast sufficient check before falling back to the repaired-clause
//! cross-product.
//!
//! [`PreparedClause::covers`] is the one implementation of both semantics.
//! The [`CoverageEngine`] masks behind every learner, [`crate::Predictor`]
//! and [`crate::PredictorService`] all decide through it; only the
//! subsumption budget and the cancel token differ between callers. Masks
//! fan out across `LearnerConfig::coverage_threads`, except inside another
//! fan-out, where they run on the calling worker.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_logic::{
    repaired_clauses, subsumes_numbered_decision_controlled, CancelToken, Clause, Decision,
    GroundClause, NumberedClause, SubsumptionConfig,
};
use dlearn_relstore::Tuple;

use crate::bottom::{BottomClauseBuilder, ProbeLog};
use crate::config::LearnerConfig;
use crate::task::LearningTask;

/// A training example together with its ground bottom clause and the ground
/// clause's repaired versions (built once, reused for every coverage test).
#[derive(Debug, Clone)]
pub struct GroundExample {
    /// The example tuple.
    pub example: Tuple,
    /// Indexed ground bottom clause.
    pub ground: GroundClause,
    /// Indexed repaired versions of the ground bottom clause.
    pub repaired: Vec<GroundClause>,
    /// The probes grounding executed — consulted by delta maintenance to
    /// decide whether this ground clause must be rebuilt after a database
    /// change (empty for clauses wrapped via [`GroundExample::from_clause`]).
    pub probes: ProbeLog,
}

impl GroundExample {
    /// Build the ground example for a tuple.
    pub fn build(
        builder: &BottomClauseBuilder<'_>,
        example: &Tuple,
        config: &LearnerConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (clause, probes) = builder.build_probed(example, &mut rng);
        let mut ground = GroundExample::from_clause(example.clone(), &clause, config);
        ground.probes = probes;
        ground
    }

    /// Wrap an already-built ground bottom clause.
    pub fn from_clause(example: Tuple, clause: &Clause, config: &LearnerConfig) -> Self {
        let repaired = repaired_clauses(clause, config.expand_limits())
            .iter()
            .map(GroundClause::new)
            .collect();
        GroundExample {
            example,
            ground: GroundClause::new(clause),
            repaired,
            probes: ProbeLog::default(),
        }
    }
}

/// A candidate clause prepared for repeated coverage testing: its repaired
/// clauses are expanded once, and the clause-local variable numbering of the
/// clause and of every repaired clause is assigned once, so each subsumption
/// test runs on flat substitutions with no per-test renumbering.
#[derive(Debug, Clone)]
pub struct PreparedClause {
    /// The candidate clause (with repair groups).
    pub clause: Clause,
    /// Its repaired clauses.
    pub repaired: Vec<Clause>,
    /// The clause, renumbered to a dense variable range.
    numbered: NumberedClause,
    /// The repaired clauses, renumbered (index-aligned with `repaired`).
    numbered_repaired: Vec<NumberedClause>,
}

impl PreparedClause {
    /// Expand the candidate's repaired clauses and assign variable
    /// numberings.
    pub fn prepare(clause: Clause, config: &LearnerConfig) -> Self {
        let repaired = repaired_clauses(&clause, config.expand_limits());
        let numbered = NumberedClause::new(&clause);
        let numbered_repaired = repaired.iter().map(NumberedClause::new).collect();
        PreparedClause {
            clause,
            repaired,
            numbered,
            numbered_repaired,
        }
    }

    /// Number of repaired clauses.
    pub fn repair_count(&self) -> usize {
        self.repaired.len()
    }

    /// The renumbered candidate clause.
    pub fn numbered(&self) -> &NumberedClause {
        &self.numbered
    }

    /// The renumbered repaired clauses (index-aligned with
    /// [`PreparedClause::repaired`]).
    pub fn numbered_repaired(&self) -> &[NumberedClause] {
        &self.numbered_repaired
    }

    /// The coverage test against a ground example, under either semantics.
    ///
    /// The clause covers the example when it θ-subsumes the ground clause
    /// directly (Theorem 4.6, a sufficient check tried first), or else when
    /// its repaired clauses subsume repaired versions of the ground clause:
    /// *every* repaired clause for [`Semantics::Positive`] (Definition 3.4),
    /// *some* repaired clause for [`Semantics::Negative`] (Definition 3.6).
    /// Each repaired clause is tested against the ground repairs in order
    /// and stops at the first that it subsumes, and the loop over repaired
    /// clauses stops as soon as the verdict is decided.
    ///
    /// Every search polls `cancel`, and a search whose step budget runs out
    /// counts as "no" and is tallied in the outcome. This is the one
    /// decision path behind the training masks, [`crate::Predictor`] and
    /// [`crate::PredictorService`].
    pub fn covers(
        &self,
        example: &GroundExample,
        semantics: Semantics,
        config: &SubsumptionConfig,
        cancel: Option<&CancelToken>,
    ) -> CoverageOutcome {
        let mut exhausted_searches: u32 = 0;
        let mut subsumes = |c: &NumberedClause, d: &GroundClause| {
            let decision = subsumes_numbered_decision_controlled(c, d, config, cancel);
            match decision {
                Decision::Yes => Some(true),
                Decision::No => Some(false),
                Decision::BudgetExhausted => {
                    exhausted_searches += 1;
                    Some(false)
                }
                Decision::Cancelled => None,
            }
        };
        match self.decide(example, semantics, &mut subsumes) {
            Some(true) => CoverageOutcome::Covered { exhausted_searches },
            Some(false) => CoverageOutcome::NotCovered { exhausted_searches },
            None => CoverageOutcome::Cancelled,
        }
    }

    /// The decision sequence of [`PreparedClause::covers`]; `None` as soon
    /// as `subsumes` reports cancellation.
    fn decide(
        &self,
        example: &GroundExample,
        semantics: Semantics,
        subsumes: &mut impl FnMut(&NumberedClause, &GroundClause) -> Option<bool>,
    ) -> Option<bool> {
        if subsumes(&self.numbered, &example.ground)? {
            return Some(true);
        }
        let every = semantics == Semantics::Positive;
        for cr in &self.numbered_repaired {
            let mut some = false;
            for gr in &example.repaired {
                if subsumes(cr, gr)? {
                    some = true;
                    break;
                }
            }
            if some != every {
                return Some(some);
            }
        }
        Some(every && !self.numbered_repaired.is_empty())
    }
}

/// Which coverage definition [`PreparedClause::covers`] applies to the
/// repaired clauses of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Definition 3.4: every repaired clause covers the example.
    Positive,
    /// Definition 3.6: some repaired clause covers the example.
    Negative,
}

/// Outcome of a coverage test: the verdict plus how many of the underlying
/// subsumption searches ran out of step budget (a budget-exhausted search
/// acts as "no" for the verdict, but is counted so degraded answers are
/// observable), or `Cancelled` when the cancel token fired mid-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageOutcome {
    /// The clause covers the example.
    Covered {
        /// Subsumption searches that hit the step budget during this test.
        exhausted_searches: u32,
    },
    /// The clause does not cover the example.
    NotCovered {
        /// Subsumption searches that hit the step budget during this test.
        exhausted_searches: u32,
    },
    /// The cancel token fired before the test concluded.
    Cancelled,
}

impl CoverageOutcome {
    /// The coverage verdict; `None` when the test was cancelled.
    pub fn verdict(self) -> Option<bool> {
        match self {
            CoverageOutcome::Covered { .. } => Some(true),
            CoverageOutcome::NotCovered { .. } => Some(false),
            CoverageOutcome::Cancelled => None,
        }
    }

    /// Number of budget-exhausted subsumption searches (0 when cancelled).
    pub fn exhausted_searches(self) -> u32 {
        match self {
            CoverageOutcome::Covered { exhausted_searches }
            | CoverageOutcome::NotCovered { exhausted_searches } => exhausted_searches,
            CoverageOutcome::Cancelled => 0,
        }
    }
}

/// Coverage statistics of a clause over a set of examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageCounts {
    /// Covered positive examples.
    pub positives: usize,
    /// Covered negative examples.
    pub negatives: usize,
}

impl CoverageCounts {
    /// The clause score used by the covering loop: positives minus negatives.
    pub fn score(&self) -> i64 {
        self.positives as i64 - self.negatives as i64
    }
}

/// How many ground examples a delta rebuild re-grounded versus reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroundPatchStats {
    /// Positive examples whose grounding was rebuilt.
    pub positives_reground: usize,
    /// Positive examples whose stored grounding was reused unchanged.
    pub positives_reused: usize,
    /// Negative examples whose grounding was rebuilt.
    pub negatives_reground: usize,
    /// Negative examples whose stored grounding was reused unchanged.
    pub negatives_reused: usize,
}

/// The coverage engine: precomputed ground examples for the whole training
/// set plus the subsumption-based coverage tests.
pub struct CoverageEngine {
    positives: Vec<GroundExample>,
    negatives: Vec<GroundExample>,
    config: LearnerConfig,
}

impl CoverageEngine {
    /// Build ground bottom clauses for every training example of the task.
    pub fn build(
        task: &LearningTask,
        builder: &BottomClauseBuilder<'_>,
        config: &LearnerConfig,
    ) -> Self {
        let positives = Self::build_examples(&task.positives, builder, config, 0x9e37);
        let negatives = Self::build_examples(&task.negatives, builder, config, 0x7f4a);
        CoverageEngine {
            positives,
            negatives,
            config: config.clone(),
        }
    }

    fn build_examples(
        examples: &[Tuple],
        builder: &BottomClauseBuilder<'_>,
        config: &LearnerConfig,
        salt: u64,
    ) -> Vec<GroundExample> {
        crate::par::chunked_map(examples, config.effective_threads(), 8, |idx, e| {
            GroundExample::build(builder, e, config, config.seed ^ salt ^ idx as u64)
        })
    }

    /// Rebuild the engine against a mutated database: re-ground exactly the
    /// examples `affected` selects — with the same per-example seed a
    /// from-scratch build would use, so patched clauses are bit-identical to
    /// fresh ones — and reuse every other ground example unchanged. The
    /// builder must already be bound to the mutated task and catalog.
    pub(crate) fn rebuilt_where<F>(
        &self,
        builder: &BottomClauseBuilder<'_>,
        config: &LearnerConfig,
        mut affected: F,
    ) -> (CoverageEngine, GroundPatchStats)
    where
        F: FnMut(&GroundExample) -> bool,
    {
        let patch = |examples: &[GroundExample], salt: u64, affected: &mut F| {
            let mut reground = 0usize;
            let out: Vec<GroundExample> = examples
                .iter()
                .enumerate()
                .map(|(idx, g)| {
                    if affected(g) {
                        reground += 1;
                        GroundExample::build(
                            builder,
                            &g.example,
                            config,
                            config.seed ^ salt ^ idx as u64,
                        )
                    } else {
                        g.clone()
                    }
                })
                .collect();
            let reused = examples.len() - reground;
            (out, reground, reused)
        };
        let (positives, positives_reground, positives_reused) =
            patch(&self.positives, 0x9e37, &mut affected);
        let (negatives, negatives_reground, negatives_reused) =
            patch(&self.negatives, 0x7f4a, &mut affected);
        (
            CoverageEngine {
                positives,
                negatives,
                config: config.clone(),
            },
            GroundPatchStats {
                positives_reground,
                positives_reused,
                negatives_reground,
                negatives_reused,
            },
        )
    }

    /// Ground examples of the positive training set.
    pub fn positives(&self) -> &[GroundExample] {
        &self.positives
    }

    /// Ground examples of the negative training set.
    pub fn negatives(&self) -> &[GroundExample] {
        &self.negatives
    }

    /// The ground example of the `i`-th positive training example.
    pub fn positive(&self, index: usize) -> &GroundExample {
        &self.positives[index]
    }

    /// Coverage mask over the positive training examples (Definition 3.4).
    pub fn positive_mask(&self, prepared: &PreparedClause) -> Vec<bool> {
        self.mask(prepared, Semantics::Positive)
    }

    /// Coverage mask over the negative training examples (Definition 3.6).
    pub fn negative_mask(&self, prepared: &PreparedClause) -> Vec<bool> {
        self.mask(prepared, Semantics::Negative)
    }

    fn mask(&self, prepared: &PreparedClause, semantics: Semantics) -> Vec<bool> {
        let examples = match semantics {
            Semantics::Positive => &self.positives,
            Semantics::Negative => &self.negatives,
        };
        crate::par::chunked_map(examples, self.config.effective_threads(), 8, |_, e| {
            prepared
                .covers(e, semantics, &self.config.subsumption, None)
                .verdict()
                == Some(true)
        })
    }

    /// Count coverage over both example sets.
    pub fn counts(&self, prepared: &PreparedClause) -> CoverageCounts {
        let covered = |mask: Vec<bool>| mask.into_iter().filter(|&b| b).count();
        CoverageCounts {
            positives: covered(self.positive_mask(prepared)),
            negatives: covered(self.negative_mask(prepared)),
        }
    }

    /// The clause score (covered positives minus covered negatives).
    pub fn score(&self, prepared: &PreparedClause) -> i64 {
        self.counts(prepared).score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_logic::{Literal, Term};

    fn config() -> LearnerConfig {
        LearnerConfig {
            coverage_threads: 1,
            ..LearnerConfig::fast()
        }
    }

    fn ground_from(clause: &Clause) -> GroundExample {
        GroundExample::from_clause(
            dlearn_relstore::tuple(vec![dlearn_relstore::Value::str("e")]),
            clause,
            &config(),
        )
    }

    fn ge_comedy() -> GroundExample {
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(0)],
        ));
        d.push_unique(Literal::relation(
            "genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        ground_from(&d)
    }

    fn ge_drama() -> GroundExample {
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(0)],
        ));
        d.push_unique(Literal::relation(
            "genres",
            vec![Term::var(1), Term::constant("drama")],
        ));
        ground_from(&d)
    }

    fn comedy_clause() -> PreparedClause {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(0)],
        ));
        c.push_unique(Literal::relation(
            "genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        PreparedClause::prepare(c, &config())
    }

    #[test]
    fn direct_subsumption_covers() {
        let engine = CoverageEngine {
            positives: vec![ge_comedy()],
            negatives: vec![ge_drama()],
            config: config(),
        };
        let prepared = comedy_clause();
        let sub = &config().subsumption;
        assert_eq!(
            prepared
                .covers(&engine.positives[0], Semantics::Positive, sub, None)
                .verdict(),
            Some(true)
        );
        assert_eq!(
            prepared
                .covers(&engine.negatives[0], Semantics::Negative, sub, None)
                .verdict(),
            Some(false)
        );
        let counts = engine.counts(&prepared);
        assert_eq!(
            counts,
            CoverageCounts {
                positives: 1,
                negatives: 0
            }
        );
        assert_eq!(counts.score(), 1);
    }

    #[test]
    fn masks_align_with_example_order() {
        let engine = CoverageEngine {
            positives: vec![ge_comedy(), ge_drama()],
            negatives: vec![],
            config: config(),
        };
        let mask = engine.positive_mask(&comedy_clause());
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn prepared_clause_without_repairs_has_single_expansion() {
        let prepared = comedy_clause();
        assert_eq!(prepared.repair_count(), 1);
    }
}
