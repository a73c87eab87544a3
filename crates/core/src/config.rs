//! Learner configuration.

use dlearn_logic::subsumption::SubsumptionConfig;
use dlearn_logic::ExpandLimits;

/// All tunable parameters of the learner.
///
/// The names follow the paper's evaluation section: `km` is the number of top
/// similarity matches kept per value, `iterations` is the bottom-clause walk
/// depth `d`, and `sample_size` caps the number of literals added per
/// relation to a bottom clause (Section 5).
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Number of top similarity matches per value (`km`).
    pub km: usize,
    /// Bottom-clause construction iterations (`d`).
    pub iterations: usize,
    /// Maximum literals per relation in a bottom clause (`sample size`).
    pub sample_size: usize,
    /// Similarity threshold of the combined operator.
    pub similarity_threshold: f64,
    /// Minimum number of positive examples a clause must cover to be kept.
    pub min_positive_coverage: usize,
    /// Maximum number of clauses in a learned definition.
    pub max_clauses: usize,
    /// Number of positive examples sampled per generalization step (`|E+_s|`).
    pub sample_positives: usize,
    /// Maximum generalization iterations per clause.
    pub max_generalization_rounds: usize,
    /// Cap on the number of repaired clauses expanded per clause.
    pub max_repaired_clauses: usize,
    /// Cap on partial bindings tracked during generalization.
    pub binding_cap: usize,
    /// θ-subsumption search budget and strictness.
    pub subsumption: SubsumptionConfig,
    /// Use matching dependencies (similarity joins) during learning.
    /// Castor-NoMD and Castor-Clean set this to `false`.
    pub use_mds: bool,
    /// Restrict MD matches to exact string equality (Castor-Exact).
    pub exact_md_joins: bool,
    /// Add CFD repair literals to clauses (DLearn-CFD). When `false`, CFD
    /// violations in the data are ignored during clause construction.
    pub use_cfd_repairs: bool,
    /// Number of worker threads for coverage testing (0 = available cores).
    pub coverage_threads: usize,
    /// Number of worker threads for scoring generalization candidates in the
    /// covering loop (0 = available cores). The parallel reduction is
    /// deterministic — best score, ties broken by sample order — so any
    /// thread count learns the identical definition.
    pub generalization_threads: usize,
    /// Number of worker threads for similarity-index construction, passed
    /// through verbatim to `IndexConfig::threads`, which owns the
    /// resolution (0 = available cores). Construction merges per-left-value
    /// chunks in left order, so the built index — and everything learned
    /// from it — is bit-identical at any thread count.
    pub index_threads: usize,
    /// Hot-key fraction of similarity-index blocking, passed through
    /// verbatim to `IndexConfig::hot_key_fraction`: a blocking key covering
    /// more than this fraction of the indexed values gets length-partitioned
    /// postings so probes skip length-incompatible candidates wholesale.
    /// Lossless at any setting — it tunes build speed on skewed
    /// vocabularies, never what gets matched.
    pub index_hot_key_fraction: f64,
    /// RNG seed for sampling (bottom-clause sampling, example sampling).
    pub seed: u64,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            km: 5,
            iterations: 3,
            sample_size: 10,
            similarity_threshold: 0.65,
            min_positive_coverage: 2,
            max_clauses: 8,
            sample_positives: 12,
            max_generalization_rounds: 6,
            max_repaired_clauses: 12,
            binding_cap: 64,
            subsumption: SubsumptionConfig::default(),
            use_mds: true,
            exact_md_joins: false,
            use_cfd_repairs: true,
            coverage_threads: 0,
            generalization_threads: 0,
            index_threads: 0,
            index_hot_key_fraction: dlearn_similarity::IndexConfig::default().hot_key_fraction,
            seed: 7,
        }
    }
}

impl LearnerConfig {
    /// A configuration with small caps, suitable for unit tests, examples and
    /// doc tests.
    pub fn fast() -> Self {
        LearnerConfig {
            km: 2,
            iterations: 3,
            sample_size: 6,
            sample_positives: 6,
            max_generalization_rounds: 3,
            max_repaired_clauses: 6,
            max_clauses: 4,
            ..LearnerConfig::default()
        }
    }

    /// Limits for expanding a clause into its repaired clauses: at most
    /// `max_repaired_clauses` results, under the default step cap. Ground
    /// examples and prepared candidate clauses both expand under these.
    pub fn expand_limits(&self) -> ExpandLimits {
        ExpandLimits {
            max_repairs: self.max_repaired_clauses,
            ..ExpandLimits::default()
        }
    }

    /// Set `km` (builder style).
    pub fn with_km(mut self, km: usize) -> Self {
        self.km = km;
        self
    }

    /// Set the iteration depth `d` (builder style).
    pub fn with_iterations(mut self, d: usize) -> Self {
        self.iterations = d;
        self
    }

    /// Set the per-relation sample size (builder style).
    pub fn with_sample_size(mut self, sample_size: usize) -> Self {
        self.sample_size = sample_size;
        self
    }

    /// Set the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Toggle adaptive (most-constrained-literal-first) ordering in the
    /// θ-subsumption search (builder style). As long as searches complete
    /// within `subsumption.max_steps`, coverage and generalization
    /// decisions — and therefore the learned definition — are identical
    /// either way (`tests/parallel_determinism.rs` pins this on the movie
    /// workload). When the budget *binds*, ordering matters: adaptive
    /// ordering spends far fewer steps (≈11× on the adversarial bench), so
    /// turning it off can flip a within-budget "yes" into a budgeted "no".
    /// The flag exists for benchmarking the ordering win and as an escape
    /// hatch.
    pub fn with_adaptive_ordering(mut self, adaptive: bool) -> Self {
        self.subsumption.adaptive_ordering = adaptive;
        self
    }

    /// Number of coverage worker threads to actually use.
    pub fn effective_threads(&self) -> usize {
        Self::resolve_threads(self.coverage_threads)
    }

    /// Number of generalization-scoring worker threads to actually use.
    pub fn effective_generalization_threads(&self) -> usize {
        Self::resolve_threads(self.generalization_threads)
    }

    /// Set the similarity-index construction thread count (builder style).
    pub fn with_index_threads(mut self, threads: usize) -> Self {
        self.index_threads = threads;
        self
    }

    /// Set the similarity-index hot-key fraction (builder style).
    pub fn with_index_hot_key_fraction(mut self, fraction: f64) -> Self {
        self.index_hot_key_fraction = fraction;
        self
    }

    /// Validate the configuration for use by a prepared [`crate::Engine`]
    /// session: zero-valued caps that would make the learner a silent no-op
    /// and out-of-range thresholds are rejected up front.
    pub fn validate(&self) -> Result<(), crate::error::DlearnError> {
        use crate::error::DlearnError;
        let nonzero: [(&'static str, usize); 6] = [
            ("iterations", self.iterations),
            ("sample_size", self.sample_size),
            ("max_clauses", self.max_clauses),
            ("max_repaired_clauses", self.max_repaired_clauses),
            ("binding_cap", self.binding_cap),
            ("sample_positives", self.sample_positives),
        ];
        for (field, value) in nonzero {
            if value == 0 {
                return Err(DlearnError::InvalidConfig {
                    field,
                    reason: "must be at least 1".into(),
                });
            }
        }
        if self.use_mds && self.km == 0 {
            return Err(DlearnError::InvalidConfig {
                field: "km",
                reason: "must be at least 1 when matching dependencies are used".into(),
            });
        }
        if !self.similarity_threshold.is_finite()
            || self.similarity_threshold <= 0.0
            || self.similarity_threshold > 1.0
        {
            return Err(DlearnError::InvalidConfig {
                field: "similarity_threshold",
                reason: format!(
                    "must be a finite value in (0, 1], got {}",
                    self.similarity_threshold
                ),
            });
        }
        if !self.index_hot_key_fraction.is_finite()
            || self.index_hot_key_fraction < 0.0
            || self.index_hot_key_fraction > 1.0
        {
            return Err(DlearnError::InvalidConfig {
                field: "index_hot_key_fraction",
                reason: format!(
                    "must be a finite value in [0, 1], got {}",
                    self.index_hot_key_fraction
                ),
            });
        }
        Ok(())
    }

    fn resolve_threads(requested: usize) -> usize {
        if requested > 0 {
            requested
        } else {
            // The auto-detect cap is owned by the similarity crate and
            // shared with `IndexConfig::effective_threads`, so "0 threads"
            // means the same thing on every knob of the stack.
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(dlearn_similarity::MAX_AUTO_THREADS)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let c = LearnerConfig::default();
        assert_eq!(c.sample_size, 10, "paper fixes sample size to 10");
        assert_eq!(c.km, 5);
        assert!(c.use_mds && c.use_cfd_repairs);
    }

    #[test]
    fn builders_override_fields() {
        let c = LearnerConfig::fast()
            .with_km(10)
            .with_iterations(4)
            .with_sample_size(3)
            .with_seed(99);
        assert_eq!(c.km, 10);
        assert_eq!(c.iterations, 4);
        assert_eq!(c.sample_size, 3);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn adaptive_ordering_builder_reaches_subsumption_config() {
        assert!(LearnerConfig::default().subsumption.adaptive_ordering);
        let c = LearnerConfig::fast().with_adaptive_ordering(false);
        assert!(!c.subsumption.adaptive_ordering);
    }

    #[test]
    fn effective_threads_is_positive() {
        assert!(LearnerConfig::default().effective_threads() >= 1);
        let c = LearnerConfig {
            coverage_threads: 3,
            ..LearnerConfig::default()
        };
        assert_eq!(c.effective_threads(), 3);
    }

    #[test]
    fn index_threads_pass_through_to_the_index_config() {
        assert_eq!(LearnerConfig::default().index_threads, 0);
        let c = LearnerConfig::fast().with_index_threads(5);
        assert_eq!(c.index_threads, 5);
    }

    #[test]
    fn hot_key_fraction_defaults_track_the_index_and_validate() {
        let c = LearnerConfig::default();
        assert_eq!(
            c.index_hot_key_fraction,
            dlearn_similarity::IndexConfig::default().hot_key_fraction,
            "learner default must track the index default"
        );
        assert!(c.validate().is_ok());
        assert!(LearnerConfig::fast()
            .with_index_hot_key_fraction(1.5)
            .validate()
            .is_err());
        assert!(LearnerConfig::fast()
            .with_index_hot_key_fraction(f64::NAN)
            .validate()
            .is_err());
        assert!(LearnerConfig::fast()
            .with_index_hot_key_fraction(0.0)
            .validate()
            .is_ok());
    }
}
