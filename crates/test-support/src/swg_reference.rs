//! The plain scalar Smith-Waterman-Gotoh dynamic program.
//!
//! Production scores every pair through the banded, bit-parallel-gated
//! kernel in `dlearn_similarity::sw_kernel`. This is the textbook
//! three-matrix program (`H`, `E`, `F`) over the whole matrix, with no band,
//! no gate and no early abandon — the reference the kernel must reproduce
//! bit for bit whenever it completes. It normalizes the best local score by
//! `match_score · min(|a|, |b|)`, the most the shorter string can score.

use dlearn_similarity::tokenize::normalize;
use dlearn_similarity::{length_similarity, SimilarityOperator, SwgParams};

/// Normalized SWG similarity in `[0, 1]` of two already-normalized char
/// slices, by the exhaustive dynamic program.
pub fn swg_similarity_chars(a: &[char], b: &[char], p: &SwgParams) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let denom = p.match_score * a.len().min(b.len()) as f64;
    if denom <= 0.0 {
        return 0.0;
    }
    let m = b.len();
    // Rolling rows: H (best score ending at i,j), E (gap in a), F (gap in b).
    let mut h_prev = vec![0.0f64; m + 1];
    let mut h_curr = vec![0.0f64; m + 1];
    let mut f_prev = vec![f64::NEG_INFINITY; m + 1];
    let mut f_curr = vec![f64::NEG_INFINITY; m + 1];
    let mut best = 0.0f64;
    for &ca in a {
        let mut e = f64::NEG_INFINITY;
        for j in 1..=m {
            e = (e - p.gap_extend).max(h_curr[j - 1] - p.gap_open);
            f_curr[j] = (f_prev[j] - p.gap_extend).max(h_prev[j] - p.gap_open);
            let subst = if ca == b[j - 1] {
                p.match_score
            } else {
                p.mismatch_score
            };
            let score = (h_prev[j - 1] + subst).max(e).max(f_curr[j]).max(0.0);
            h_curr[j] = score;
            best = best.max(score);
        }
        std::mem::swap(&mut h_prev, &mut h_curr);
        std::mem::swap(&mut f_prev, &mut f_curr);
    }
    (best / denom).clamp(0.0, 1.0)
}

/// Normalized SWG similarity of two raw strings (normalized first).
pub fn swg_similarity(a: &str, b: &str, p: &SwgParams) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    swg_similarity_chars(&a, &b, p)
}

/// The operator's combined score, `(swg + length) / 2`, with the SWG half
/// computed by the exhaustive dynamic program.
pub fn combined_score(op: &SimilarityOperator, a: &str, b: &str) -> f64 {
    (swg_similarity(a, b, &op.swg) + length_similarity(a, b)) / 2.0
}
