//! Standing oracle for repaired-clause expansion: the production
//! `repaired_clauses` (memoized search states, render-once canonical keys)
//! must return exactly the `Vec<Clause>` of the unmemoized reference in
//! `dlearn_test_support::expand_reference`, order included, for every pair
//! of limits. The grid makes both caps bind: `max_repairs = 1` stops at the
//! first repaired clause, and `max_steps = 4` cuts the search mid-tree.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_core::{Engine, LearnerConfig};
use dlearn_datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn_logic::{repaired_clauses, Clause, ExpandLimits, GroundClause};
use dlearn_test_support::{expand_reference, random_ground, GenConfig};

const MAX_REPAIRS: [usize; 3] = [1, 6, 64];
const MAX_STEPS: [usize; 3] = [4, 32, 2048];

/// Compare production and reference on every limit pair of the grid, and
/// return the reference output at the loosest limits. The helpers the
/// expansion calls are compared on the input and on every repaired clause.
fn assert_matches_reference(clause: &Clause) -> Vec<Clause> {
    for max_repairs in MAX_REPAIRS {
        for max_steps in MAX_STEPS {
            let limits = ExpandLimits {
                max_repairs,
                max_steps,
            };
            assert_eq!(
                repaired_clauses(clause, limits),
                expand_reference::repaired_clauses(clause, limits),
                "expansion diverged at {limits:?} on {clause}"
            );
        }
    }
    let full = expand_reference::repaired_clauses(
        clause,
        ExpandLimits {
            max_repairs: 64,
            max_steps: 2048,
        },
    );
    for c in std::iter::once(clause).chain(&full) {
        assert_eq!(
            c.canonical_string(),
            expand_reference::canonical_string(c),
            "canonical form diverged on {c}"
        );
        let mut cleaned = c.clone();
        cleaned.retain_head_connected();
        let mut reference = c.clone();
        expand_reference::retain_head_connected(&mut reference);
        assert_eq!(cleaned, reference, "cleanup diverged on {c}");
    }
    full
}

/// Seeded random clauses with up to eight overlapping MD repair groups, so
/// application orders branch and reconverge, and trees are deep enough that
/// `max_steps = 32` cuts them after the memo has skipped a subtree.
#[test]
fn expansion_matches_the_reference_on_random_clauses() {
    let cfg = GenConfig {
        n_vars: 6,
        max_body: 10,
        max_similar: 8,
        max_repairs: 8,
        ..GenConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0xe4a9);
    let mut branching = 0usize;
    let mut step_capped = 0usize;
    for _ in 0..400 {
        let clause = random_ground(&mut rng, &cfg);
        let full = assert_matches_reference(&clause);
        branching += (full.len() > 1) as usize;
        let cut = expand_reference::repaired_clauses(
            &clause,
            ExpandLimits {
                max_repairs: 64,
                max_steps: 4,
            },
        );
        step_capped += (cut != full) as usize;
    }
    assert!(
        branching >= 20,
        "only {branching} clauses had several repairs"
    );
    assert!(
        step_capped >= 20,
        "max_steps = 4 changed only {step_capped} results"
    );
}

fn clause_of(g: &GroundClause) -> Clause {
    let mut c = Clause::with_body(g.head().clone(), g.body().to_vec());
    for r in g.repairs() {
        c.push_repair(r.clone());
    }
    c
}

/// Every ground bottom clause the engine builds for the movie fixture.
#[test]
fn expansion_matches_the_reference_on_the_movie_ground_clauses() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let config = LearnerConfig {
        coverage_threads: 1,
        ..LearnerConfig::fast().with_iterations(4)
    };
    let engine = Engine::prepare(dataset.task, config).expect("valid task");
    let coverage = engine.coverage();
    let mut with_repairs = 0usize;
    for example in coverage.positives().iter().chain(coverage.negatives()) {
        let clause = clause_of(&example.ground);
        with_repairs += !clause.repairs.is_empty() as usize;
        assert_matches_reference(&clause);
    }
    assert!(
        with_repairs >= 10,
        "only {with_repairs} movie ground clauses carry repair groups"
    );
}
