//! Ablation: what the 4-wise guarantee actually buys.
//!
//! The AGMS self-join estimator `X = S²` is unbiased under *pairwise*
//! independence, but its variance formula `2(F₂² − F₄)` needs 4-wise
//! independence. CW2 — a linear polynomial, only pairwise independent —
//! shows the consequence: on four adjacent keys its `Var[S²]` sits
//! visibly off the formula, while CW4 matches it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_xi::{Cw2, Cw4, SignFamily};

/// The workload: unit frequency on keys {0, 1, 2, 3}.
/// F₂ = 4, F₄ = 4, so the 4-wise variance of S² is 2(16 − 4) = 24.
const KEYS: [u64; 4] = [0, 1, 2, 3];
const FOUR_WISE_VARIANCE: f64 = 24.0;

/// Monte-Carlo `(E[S²], Var[S²])` over independently seeded families.
fn moments<F: SignFamily>(seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trials = 60_000;
    let mut sum = 0f64;
    let mut sum_sq = 0f64;
    for _ in 0..trials {
        let f = F::random(&mut rng);
        let s: i64 = KEYS.iter().map(|&k| f.sign(k)).sum();
        let x = (s * s) as f64;
        sum += x;
        sum_sq += x * x;
    }
    let mean = sum / trials as f64;
    (mean, sum_sq / trials as f64 - mean * mean)
}

/// CW4's `Var[S²]` matches 2(F₂² − F₄) = 24; CW2's is unbiased but its
/// variance is not the formula's (≈ 32 on these keys).
#[test]
fn four_wise_families_match_the_variance_formula() {
    let (_, cw4) = moments::<Cw4>(1);
    assert!(
        (cw4 - FOUR_WISE_VARIANCE).abs() < 1.5,
        "CW4 variance {cw4} vs theory {FOUR_WISE_VARIANCE}"
    );
    let (mean, cw2) = moments::<Cw2>(3);
    // Unbiasedness needs only pairwise independence: it survives.
    assert!((mean - 4.0).abs() < 0.1, "CW2 E[S²] = {mean}");
    assert!(
        (cw2 - FOUR_WISE_VARIANCE).abs() > 4.0,
        "CW2 variance {cw2} should be visibly off {FOUR_WISE_VARIANCE}"
    );
}
