//! The banded Smith-Waterman-Gotoh kernel and the combined operator against
//! the plain scalar dynamic program of `dlearn_test_support::swg_reference`.
//!
//! The kernel is the crate's only alignment DP, so these property tests are
//! what pins it: on seeded random pairs and random requirements, a completed
//! run is bit-identical to the exhaustive DP and an abandoned run only ever
//! hides a score strictly below the requirement. The behavioural checks of
//! the similarity itself (identity, symmetry, normalization, typos) run on
//! the kernel too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn_similarity::tokenize::normalize;
use dlearn_similarity::{
    aligned_match_upper_bound, swg_similarity_banded_at_least, SimProfile, SimilarityOperator,
    SwgParams,
};
use dlearn_test_support::swg_reference;

fn chars(s: &str) -> Vec<char> {
    normalize(s).chars().collect()
}

fn random_chars(rng: &mut StdRng, alphabet: &str, max_len: usize) -> Vec<char> {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

/// The kernel's similarity of two raw strings, never abandoning.
fn swg(a: &str, b: &str) -> f64 {
    swg_similarity_banded_at_least(
        &chars(a),
        &chars(b),
        &SwgParams::default(),
        f64::NEG_INFINITY,
    )
    .expect("no requirement, no abandon")
}

#[test]
fn banded_kernel_is_bit_identical_or_abandon_sound() {
    let mut rng = StdRng::seed_from_u64(0xba2d);
    let params = SwgParams::default();
    let alphabet = "abcdef 19";
    for case in 0..1500 {
        let a = random_chars(&mut rng, alphabet, 24);
        let b = random_chars(&mut rng, alphabet, 24);
        let exact = swg_reference::swg_similarity_chars(&a, &b, &params);
        let required = rng.gen_range(0.0..1.2);
        match swg_similarity_banded_at_least(&a, &b, &params, required) {
            Some(v) => assert_eq!(
                v, exact,
                "case {case}: banded completed with a different score \
                 ({a:?}, {b:?}, required {required})"
            ),
            None => assert!(
                exact < required,
                "case {case}: banded abandoned ({a:?}, {b:?}) at required \
                 {required} but exact is {exact}"
            ),
        }
    }
}

#[test]
fn unbounded_required_runs_the_full_matrix() {
    let params = SwgParams::default();
    for (a, b) in [
        ("Superbad", "Superbad (2007)"),
        ("Star Wars", "The Orphanage"),
        ("abc", "xyz"),
        ("", "abc"),
        ("", ""),
        ("superbad", "superbad"),
    ] {
        let (ca, cb) = (chars(a), chars(b));
        assert_eq!(
            swg_similarity_banded_at_least(&ca, &cb, &params, f64::NEG_INFINITY),
            Some(swg_reference::swg_similarity_chars(&ca, &cb, &params)),
            "({a:?}, {b:?})"
        );
    }
}

#[test]
fn identical_strings_score_exactly_one_through_the_fast_path() {
    // Including strings long enough to skip the bit-parallel masks.
    let params = SwgParams::default();
    for s in ["superbad", "a", "the item number 17", &"xy".repeat(40)] {
        let cs = chars(s);
        assert_eq!(
            swg_similarity_banded_at_least(&cs, &cs, &params, 0.9),
            Some(1.0)
        );
        assert_eq!(swg_reference::swg_similarity_chars(&cs, &cs, &params), 1.0);
    }
}

#[test]
fn pathological_params_disable_the_band_not_the_answer() {
    // A positive mismatch score breaks the band argument; the kernel must
    // fall back to the full matrix and still return exact values. The
    // row-wise abandon test may still fire (gap costs stay non-negative).
    let weird = SwgParams {
        mismatch_score: 0.5,
        ..SwgParams::default()
    };
    let (a, b) = (chars("abcdef"), chars("uvwxyz"));
    let exact = swg_reference::swg_similarity_chars(&a, &b, &weird);
    match swg_similarity_banded_at_least(&a, &b, &weird, 0.9) {
        Some(v) => assert_eq!(v, exact, "fallback must stay exact"),
        None => assert!(exact < 0.9, "abandon must stay sound"),
    }
    assert_eq!(
        swg_similarity_banded_at_least(&a, &b, &weird, f64::NEG_INFINITY),
        Some(exact)
    );
}

#[test]
fn match_upper_bound_is_sound_against_the_exact_swg() {
    // The bound caps the number of matched chars in any alignment, so
    // raw_swg ≤ match_score · bound and the normalized similarity is at most
    // bound / min_len — on every random pair.
    let mut rng = StdRng::seed_from_u64(0xb17b);
    let params = SwgParams::default();
    for _ in 0..600 {
        let a: String = random_chars(&mut rng, "abcab 1", 30).into_iter().collect();
        let b: String = random_chars(&mut rng, "abcab 1", 30).into_iter().collect();
        let (pa, pb) = (SimProfile::new(&a), SimProfile::new(&b));
        if pa.is_empty() || pb.is_empty() {
            continue;
        }
        let Some(ub) = aligned_match_upper_bound(&pa, &pb) else {
            continue;
        };
        let exact = swg_reference::swg_similarity_chars(&pa.chars, &pb.chars, &params);
        let sim_bound = (ub / pa.len().min(pb.len()) as f64).min(1.0);
        assert!(
            exact <= sim_bound + 1e-12,
            "({a:?}, {b:?}): exact {exact} above bound {sim_bound}"
        );
    }
}

#[test]
fn operator_scores_equal_the_reference_bit_for_bit() {
    // `score` and the gated profile path against the scalar combined score:
    // `score` always equals it, and a gated run either equals it or hides a
    // score strictly below the requirement.
    let mut rng = StdRng::seed_from_u64(0x9f11);
    let op = SimilarityOperator::default();
    for _ in 0..600 {
        let a: String = random_chars(&mut rng, "abcdefgh 129-!", 24)
            .into_iter()
            .collect();
        let b: String = random_chars(&mut rng, "abcdefgh 129-!", 24)
            .into_iter()
            .collect();
        let exact = swg_reference::combined_score(&op, &a, &b);
        assert_eq!(op.score(&a, &b), exact, "({a:?}, {b:?})");
        let required = rng.gen_range(0.0..1.2);
        let (pa, pb) = (SimProfile::new(&a), SimProfile::new(&b));
        match op.score_profiles_at_least(&pa, &pb, required) {
            Some(v) => assert_eq!(v, exact, "({a:?}, {b:?}, required {required})"),
            None => assert!(
                exact < required,
                "abandoned ({a:?}, {b:?}) at {required} but exact is {exact}"
            ),
        }
    }
}

#[test]
fn swg_is_bounded_symmetric_and_one_on_identity() {
    let mut rng = StdRng::seed_from_u64(0x5179);
    for _ in 0..300 {
        let a: String = (0..rng.gen_range(0..25))
            .map(|_| rng.gen_range(0x20u8..0x7f) as char)
            .collect();
        let b: String = (0..rng.gen_range(0..25))
            .map(|_| rng.gen_range(0x20u8..0x7f) as char)
            .collect();
        let (ab, ba) = (swg(&a, &b), swg(&b, &a));
        assert!((0.0..=1.0).contains(&ab), "swg({a:?}, {b:?}) = {ab}");
        assert!((ab - ba).abs() < 1e-9, "asymmetry on ({a:?}, {b:?})");
        assert_eq!(swg(&a, &a), 1.0, "swg({a:?}, {a:?}) != 1");
    }
}

#[test]
fn swg_behaves_like_a_similarity_on_names() {
    assert_eq!(swg("", ""), 1.0);
    assert_eq!(swg("", "abc"), 0.0);
    assert_eq!(swg("abc", ""), 0.0);
    // Normalization: case and punctuation do not matter.
    assert_eq!(swg("STAR-WARS", "star wars"), 1.0);
    // The shorter string aligns perfectly inside the longer one.
    assert!(swg("Superbad", "Superbad (2007)") > 0.99);
    assert!(swg("Star Wars", "Star Wars: Episode IV - 1977") > 0.99);
    assert!(swg("Superbad", "Orphanage") < 0.6);
    assert!(swg("aaaa", "zzzz") < 0.01);
    assert!(swg("Zoolander", "Zoolandr") > 0.8);
    assert!(swg("computers accessories", "computer accessories") > 0.9);
    let strict = SwgParams {
        mismatch_score: -10.0,
        ..SwgParams::default()
    };
    let (a, b) = (chars("abcd"), chars("abxd"));
    let strict_score = swg_similarity_banded_at_least(&a, &b, &strict, f64::NEG_INFINITY);
    assert!(strict_score.expect("no abandon") <= swg("abcd", "abxd"));
}
