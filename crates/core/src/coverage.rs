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

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_logic::{
    repaired_clauses, subsumes_numbered_decision, subsumes_numbered_decision_controlled,
    CancelToken, Clause, Decision, GroundClause, NumberedClause,
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

    /// Positive-coverage test (Definition 3.4) against a ground example: the
    /// clause covers it iff it θ-subsumes the ground clause directly, or
    /// every repaired clause subsumes some repaired version of the ground
    /// clause. This is the single decision path shared by the coverage
    /// engine's positive masks and [`crate::Predictor`].
    pub fn covers_ground(
        &self,
        example: &GroundExample,
        config: &dlearn_logic::SubsumptionConfig,
    ) -> bool {
        if subsumes_numbered_decision(self.numbered(), &example.ground, config).is_yes() {
            return true;
        }
        if self.repaired.is_empty() {
            return false;
        }
        self.numbered_repaired().iter().all(|cr| {
            example
                .repaired
                .iter()
                .any(|gr| subsumes_numbered_decision(cr, gr, config).is_yes())
        })
    }

    /// [`PreparedClause::covers_ground`] with cancellation and exhaustion
    /// accounting: runs the identical decision sequence (direct subsumption
    /// first, then the repaired-clause cross-product in the same
    /// short-circuit order), but polls `cancel` inside each search and counts
    /// every subsumption search whose step budget ran out. When no budget
    /// binds and no cancellation fires, the verdict is bit-identical to
    /// `covers_ground`.
    pub fn covers_ground_controlled(
        &self,
        example: &GroundExample,
        config: &dlearn_logic::SubsumptionConfig,
        cancel: Option<&CancelToken>,
    ) -> CoverageOutcome {
        let mut exhausted: u32 = 0;
        let mut decide = |c: &NumberedClause, d: &GroundClause| -> Result<bool, CoverageOutcome> {
            match subsumes_numbered_decision_controlled(c, d, config, cancel) {
                Decision::Yes => Ok(true),
                Decision::No => Ok(false),
                Decision::BudgetExhausted => {
                    exhausted += 1;
                    Ok(false)
                }
                Decision::Cancelled => Err(CoverageOutcome::Cancelled),
            }
        };
        macro_rules! check {
            ($e:expr) => {
                match $e {
                    Ok(b) => b,
                    Err(outcome) => return outcome,
                }
            };
        }
        if check!(decide(self.numbered(), &example.ground)) {
            return CoverageOutcome::Covered {
                exhausted_searches: exhausted,
            };
        }
        if self.repaired.is_empty() {
            return CoverageOutcome::NotCovered {
                exhausted_searches: exhausted,
            };
        }
        for cr in self.numbered_repaired() {
            let mut any = false;
            for gr in &example.repaired {
                if check!(decide(cr, gr)) {
                    any = true;
                    break;
                }
            }
            if !any {
                return CoverageOutcome::NotCovered {
                    exhausted_searches: exhausted,
                };
            }
        }
        CoverageOutcome::Covered {
            exhausted_searches: exhausted,
        }
    }
}

/// Outcome of a controlled coverage test: the verdict plus how many of the
/// underlying subsumption searches ran out of step budget (a budget-exhausted
/// search acts as "no" for the verdict, exactly as in the uncontrolled path,
/// but is counted so degraded answers are observable), or `Cancelled` when
/// the cancel token fired mid-test.
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

    /// Positive coverage (Definition 3.4): the clause covers `example` iff it
    /// θ-subsumes the ground clause directly, or every one of its repaired
    /// clauses subsumes some repaired version of the ground clause.
    pub fn covers_positive(&self, prepared: &PreparedClause, example: &GroundExample) -> bool {
        prepared.covers_ground(example, &self.config.subsumption)
    }

    /// Negative coverage (Definition 3.6): the clause covers `example` iff
    /// some repaired clause of it subsumes some repaired version of the
    /// ground clause (or the clause subsumes the ground clause directly).
    pub fn covers_negative(&self, prepared: &PreparedClause, example: &GroundExample) -> bool {
        if subsumes_numbered_decision(
            prepared.numbered(),
            &example.ground,
            &self.config.subsumption,
        )
        .is_yes()
        {
            return true;
        }
        prepared.numbered_repaired().iter().any(|cr| {
            example
                .repaired
                .iter()
                .any(|gr| subsumes_numbered_decision(cr, gr, &self.config.subsumption).is_yes())
        })
    }

    /// [`CoverageEngine::covers_positive`] under an explicit subsumption
    /// config and cancel token — the serving-tier entry point, where the
    /// per-call budget may tighten `max_steps` below the training config.
    pub fn covers_positive_controlled(
        &self,
        prepared: &PreparedClause,
        example: &GroundExample,
        config: &dlearn_logic::SubsumptionConfig,
        cancel: Option<&CancelToken>,
    ) -> CoverageOutcome {
        prepared.covers_ground_controlled(example, config, cancel)
    }

    /// Coverage mask over the positive training examples.
    pub fn positive_mask(&self, prepared: &PreparedClause) -> Vec<bool> {
        self.mask(prepared, true, self.config.effective_threads())
    }

    /// Coverage mask over the negative training examples.
    pub fn negative_mask(&self, prepared: &PreparedClause) -> Vec<bool> {
        self.mask(prepared, false, self.config.effective_threads())
    }

    /// [`CoverageEngine::positive_mask`] on one thread, for callers that are
    /// themselves a parallel fan-out (the FOIL/TILDE candidate scorers, like
    /// [`CoverageEngine::score_serial`] for generalization scoring) — the
    /// per-mask threads must not multiply underneath the fan-out.
    pub fn positive_mask_serial(&self, prepared: &PreparedClause) -> Vec<bool> {
        self.mask(prepared, true, 1)
    }

    /// [`CoverageEngine::negative_mask`] on one thread; see
    /// [`CoverageEngine::positive_mask_serial`].
    pub fn negative_mask_serial(&self, prepared: &PreparedClause) -> Vec<bool> {
        self.mask(prepared, false, 1)
    }

    fn mask(&self, prepared: &PreparedClause, positive: bool, threads: usize) -> Vec<bool> {
        let examples = if positive {
            &self.positives
        } else {
            &self.negatives
        };
        crate::par::chunked_map(examples, threads, 8, |_, e| {
            if positive {
                self.covers_positive(prepared, e)
            } else {
                self.covers_negative(prepared, e)
            }
        })
    }

    fn counts_with_threads(&self, prepared: &PreparedClause, threads: usize) -> CoverageCounts {
        let positives = self
            .mask(prepared, true, threads)
            .iter()
            .filter(|&&b| b)
            .count();
        let negatives = self
            .mask(prepared, false, threads)
            .iter()
            .filter(|&&b| b)
            .count();
        CoverageCounts {
            positives,
            negatives,
        }
    }

    /// Count coverage over both example sets.
    pub fn counts(&self, prepared: &PreparedClause) -> CoverageCounts {
        self.counts_with_threads(prepared, self.config.effective_threads())
    }

    /// The clause score (covered positives minus covered negatives).
    pub fn score(&self, prepared: &PreparedClause) -> i64 {
        self.counts(prepared).score()
    }

    /// [`CoverageEngine::score`] without the per-mask thread fan-out. Callers
    /// that already parallelize *over* scoring calls (the generalization
    /// fan-out in the covering loop) use this so thread counts do not
    /// multiply to cores². The counts — and therefore the score — are
    /// identical at any thread count.
    pub fn score_serial(&self, prepared: &PreparedClause) -> i64 {
        self.counts_with_threads(prepared, 1).score()
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
        assert!(engine.covers_positive(&prepared, &engine.positives[0]));
        assert!(!engine.covers_negative(&prepared, &engine.negatives[0]));
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
