//! The generic moment evaluator.
//!
//! Implements the paper's generic propositions — Props 1–2 (sampling-only
//! estimators) and Props 9–12 (sketch-over-samples, basic and averaged) —
//! mechanically instantiated through the `(κ, φ)` oracles of
//! [`crate::scheme`]. Everything runs in O(|domain|).
//!
//! ## Building blocks
//!
//! For one scheme and one frequency vector, with `S2(a,r)` the Stirling
//! numbers and `Φᵣ = Σᵢ φᵣ(fᵢ)`:
//!
//! ```text
//! Σᵢ E[f′ᵢᵃ]              = Σᵣ S2(a,r)·κ(r)·Φᵣ
//! Σ_{i≠j} E[f′ᵢᵃ f′ⱼᵇ]    = Σᵣₛ S2(a,r)·S2(b,s)·κ(r+s)·(ΦᵣΦₛ − Σᵢφᵣ(fᵢ)φₛ(fᵢ))
//! ```
//!
//! Cross-relation pairings (size of join) additionally use the per-cell
//! first and second moments `E[f′ᵢ]`, `E[f′ᵢ²]` paired index-by-index with
//! the other relation's.

use crate::factorial::STIRLING2;
use crate::freq::FrequencyVector;
use crate::scheme::SamplingScheme;
use crate::{Error, Result};

/// First two moments of an estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Expected value `E[X]`.
    pub mean: f64,
    /// Variance `Var[X]`.
    pub variance: f64,
}

impl Moments {
    /// The standard deviation (0 for tiny negative round-off).
    pub fn std(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// The relative standard error `std/|truth|` — the paper's error metric
    /// in expectation.
    pub fn relative_error(&self, truth: f64) -> f64 {
        if truth == 0.0 {
            f64::INFINITY
        } else {
            self.std() / truth.abs()
        }
    }
}

/// Cached per-(scheme, relation) sums.
///
/// `phi_sum[r] = Φᵣ`; `phi_pair[r][s] = Σᵢ φᵣ(fᵢ)φₛ(fᵢ)`; `e1`/`e2` are the
/// per-cell first/second power moments of `f′ᵢ`.
pub(crate) struct Analysis {
    kappa: [f64; 5],
    phi_sum: [f64; 5],
    phi_pair: [[f64; 5]; 5],
    pub(crate) e1: Vec<f64>,
    pub(crate) e2: Vec<f64>,
    phi1: Vec<f64>,
}

impl Analysis {
    pub(crate) fn new<S: SamplingScheme>(scheme: &S, freqs: &FrequencyVector) -> Self {
        let mut kappa = [0.0; 5];
        for (r, k) in kappa.iter_mut().enumerate() {
            *k = scheme.kappa(r as u32);
        }
        let mut phi_sum = [0.0; 5];
        let mut phi_pair = [[0.0; 5]; 5];
        let mut e1 = Vec::with_capacity(freqs.len());
        let mut e2 = Vec::with_capacity(freqs.len());
        let mut phi1 = Vec::with_capacity(freqs.len());
        for i in 0..freqs.len() {
            let f = freqs.get(i);
            let mut phis = [0.0; 5];
            for (r, p) in phis.iter_mut().enumerate() {
                *p = scheme.phi(f, r as u32);
            }
            for r in 0..5 {
                phi_sum[r] += phis[r];
                for s in 0..5 {
                    phi_pair[r][s] += phis[r] * phis[s];
                }
            }
            e1.push(kappa[1] * phis[1]);
            e2.push(kappa[2] * phis[2] + kappa[1] * phis[1]);
            phi1.push(phis[1]);
        }
        Self {
            kappa,
            phi_sum,
            phi_pair,
            e1,
            e2,
            phi1,
        }
    }

    /// `Σᵢ E[f′ᵢᵃ]`, `a ≤ 4`.
    pub(crate) fn sum_single(&self, a: usize) -> f64 {
        (1..=a)
            .map(|r| STIRLING2[a][r] * self.kappa[r] * self.phi_sum[r])
            .sum()
    }

    /// `Σ_{i≠j} E[f′ᵢᵃ f′ⱼᵇ]`, `a + b ≤ 4`.
    #[allow(clippy::needless_range_loop)] // r, s index three parallel tables
    pub(crate) fn sum_joint(&self, a: usize, b: usize) -> f64 {
        let mut acc = 0.0;
        for r in 1..=a {
            for s in 1..=b {
                acc += STIRLING2[a][r]
                    * STIRLING2[b][s]
                    * self.kappa[r + s]
                    * (self.phi_sum[r] * self.phi_sum[s] - self.phi_pair[r][s]);
            }
        }
        acc
    }

    /// κ(2) — used by the cross-relation all-pairs sum.
    fn kappa2(&self) -> f64 {
        self.kappa[2]
    }
}

/// `Σᵢⱼ E[f′ᵢf′ⱼ]·E[g′ᵢg′ⱼ]` over **all** pairs (including `i = j`),
/// the central quantity of Props 1, 9 and 11.
fn all_pairs_cross(fa: &Analysis, ga: &Analysis) -> f64 {
    // i ≠ j: κf(2)κg(2)·[(Σφ1(f)φ1(g))² − Σ(φ1(f)φ1(g))²]
    let mut pair_sum = 0.0;
    let mut pair_sq = 0.0;
    for (pf, pg) in fa.phi1.iter().zip(&ga.phi1) {
        let prod = pf * pg;
        pair_sum += prod;
        pair_sq += prod * prod;
    }
    let off_diag = fa.kappa2() * ga.kappa2() * (pair_sum * pair_sum - pair_sq);
    // i = j: Σᵢ E[f′ᵢ²]E[g′ᵢ²]
    let diag: f64 = fa.e2.iter().zip(&ga.e2).map(|(a, b)| a * b).sum();
    off_diag + diag
}

fn check_domains(f: &FrequencyVector, g: &FrequencyVector) -> Result<()> {
    if f.len() != g.len() {
        return Err(Error::DomainMismatch {
            left: f.len(),
            right: g.len(),
        });
    }
    Ok(())
}

fn check_averages(n: usize) -> Result<()> {
    if n == 0 {
        return Err(Error::InvalidAverageCount(0));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pure sketching (Propositions 7–8, averaged over n independent basics)
// ---------------------------------------------------------------------------

/// Moments of the averaged AGMS size-of-join estimator over the *full* data
/// (Proposition 7 / Eq. 14, divided by the number of averaged basics `n`).
pub fn sketch_sj(f: &FrequencyVector, g: &FrequencyVector, n: usize) -> Moments {
    assert_eq!(f.len(), g.len(), "sketch_sj requires a shared domain");
    assert!(n >= 1, "need at least one basic estimator");
    let mean = f.dot(g);
    let var =
        (f.power_sum(2) * g.power_sum(2) + mean * mean - 2.0 * f.cross_sum(g, 2, 2)) / n as f64;
    Moments {
        mean,
        variance: var,
    }
}

/// Moments of the averaged AGMS self-join estimator over the full data
/// (Proposition 8 / Eq. 16, divided by `n`).
pub fn sketch_sjs(f: &FrequencyVector, n: usize) -> Moments {
    assert!(n >= 1, "need at least one basic estimator");
    let f2 = f.power_sum(2);
    let f4 = f.power_sum(4);
    Moments {
        mean: f2,
        variance: 2.0 * (f2 * f2 - f4) / n as f64,
    }
}

// ---------------------------------------------------------------------------
// Sampling only (Propositions 1–2, instantiating 3–6)
// ---------------------------------------------------------------------------

/// Moments of the unbiased sampling-only size-of-join estimator
/// `X = C·Σf′ᵢg′ᵢ` with `C = 1/(rate_F·rate_G)` (Prop 1 instantiated).
pub fn sampling_sj<SF, SG>(
    scheme_f: &SF,
    f: &FrequencyVector,
    scheme_g: &SG,
    g: &FrequencyVector,
) -> Result<Moments>
where
    SF: SamplingScheme,
    SG: SamplingScheme,
{
    check_domains(f, g)?;
    let fa = Analysis::new(scheme_f, f);
    let ga = Analysis::new(scheme_g, g);
    let c = scheme_f.sj_scale(scheme_g);
    let m: f64 = fa.e1.iter().zip(&ga.e1).map(|(a, b)| a * b).sum();
    let a = all_pairs_cross(&fa, &ga);
    Ok(Moments {
        mean: c * m,
        variance: c * c * (a - m * m),
    })
}

/// Moments of the unbiased sampling-only self-join estimator
/// `X = u·Σf′² + v·Σf′ + c` (Prop 2 instantiated with the scheme's affine
/// correction).
pub fn sampling_sjs<S: SamplingScheme>(scheme: &S, f: &FrequencyVector) -> Result<Moments> {
    let a = Analysis::new(scheme, f);
    let (u, v, c) = scheme.sjs_affine();
    let s1 = a.sum_single(1);
    let s2 = a.sum_single(2);
    let e_sq2 = a.sum_single(4) + a.sum_joint(2, 2); // E[(Σf′²)²]
    let e_21 = a.sum_single(3) + a.sum_joint(2, 1); //  E[Σf′²·Σf′]
    let e_sq1 = a.sum_single(2) + a.sum_joint(1, 1); // E[(Σf′)²]
    let var_a = e_sq2 - s2 * s2;
    let cov = e_21 - s2 * s1;
    let var_b = e_sq1 - s1 * s1;
    Ok(Moments {
        mean: u * s2 + v * s1 + c,
        variance: u * u * var_a + 2.0 * u * v * cov + v * v * var_b,
    })
}

// ---------------------------------------------------------------------------
// Sketches over samples (Propositions 9–12, instantiating 13–16)
// ---------------------------------------------------------------------------

/// Moments of the **averaged** sketch-over-samples size-of-join estimator
/// (Proposition 11 with the unbiasing scale `C`); `n = 1` gives the basic
/// estimator of Proposition 9.
///
/// ```
/// use sss_moments::engine::sketch_sample_sj;
/// use sss_moments::scheme::Bernoulli;
/// use sss_moments::FrequencyVector;
///
/// let f = FrequencyVector::from_counts(vec![10u32, 5, 1, 0, 3]);
/// let g = FrequencyVector::from_counts(vec![2u32, 2, 2, 2, 2]);
/// let p = Bernoulli::new(0.1).unwrap();
/// let m = sketch_sample_sj(&p, &f, &p, &g, 5000).unwrap();
/// // Unbiased: the mean is the true join size Σ fᵢgᵢ = 38.
/// assert!((m.mean - 38.0).abs() < 1e-9);
/// assert!(m.variance > 0.0);
/// ```
pub fn sketch_sample_sj<SF, SG>(
    scheme_f: &SF,
    f: &FrequencyVector,
    scheme_g: &SG,
    g: &FrequencyVector,
    n: usize,
) -> Result<Moments>
where
    SF: SamplingScheme,
    SG: SamplingScheme,
{
    check_domains(f, g)?;
    check_averages(n)?;
    let fa = Analysis::new(scheme_f, f);
    let ga = Analysis::new(scheme_g, g);
    let c = scheme_f.sj_scale(scheme_g);
    let m: f64 = fa.e1.iter().zip(&ga.e1).map(|(a, b)| a * b).sum();
    let a = all_pairs_cross(&fa, &ga);
    let s2f = fa.sum_single(2);
    let s2g = ga.sum_single(2);
    let d: f64 = fa.e2.iter().zip(&ga.e2).map(|(x, y)| x * y).sum();
    let var = c * c * ((a - m * m) + (s2f * s2g + a - 2.0 * d) / n as f64);
    Ok(Moments {
        mean: c * m,
        variance: var,
    })
}

/// Moments of the **averaged** sketch-over-samples self-join estimator
/// with the scheme's affine bias correction:
///
/// ```text
/// X = u·(1/n)Σₖ Sₖ² + v·Σf′ + c,      Sₖ = Σᵢ f′ᵢ ξᵢ⁽ᵏ⁾
/// ```
///
/// (Proposition 12 for the quadratic part — the `n` sketches share one
/// sample, so averaging only reduces the sketch and interaction terms —
/// plus the covariance between the quadratic part and the `Σf′` correction,
/// which the generic machinery supplies exactly.) `n = 1` gives the basic
/// estimator of Proposition 10.
pub fn sketch_sample_sjs<S: SamplingScheme>(
    scheme: &S,
    f: &FrequencyVector,
    n: usize,
) -> Result<Moments> {
    check_averages(n)?;
    let a = Analysis::new(scheme, f);
    let (u, v, c) = scheme.sjs_affine();
    let s1 = a.sum_single(1);
    let s2 = a.sum_single(2);
    let s4 = a.sum_single(4);
    let a22 = s4 + a.sum_joint(2, 2); // Σᵢⱼ (all pairs) E[f′ᵢ²f′ⱼ²]
                                      // Prop 12, unscaled: Var[(1/n)ΣSₖ²]
    let var_quad = a22 - s2 * s2 + 2.0 * (a22 - s4) / n as f64;
    // Cov[Sₖ², Σf′] = Σᵢₗ E[f′ᵢ²f′ₗ] − E[Sₖ²]E[Σf′]  (same for every k)
    let cov = (a.sum_single(3) + a.sum_joint(2, 1)) - s2 * s1;
    let var_lin = a.sum_single(2) + a.sum_joint(1, 1) - s1 * s1;
    Ok(Moments {
        mean: u * s2 + v * s1 + c,
        variance: u * u * var_quad + 2.0 * u * v * cov + v * v * var_lin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Bernoulli, WithReplacement, WithoutReplacement};

    fn fv(counts: &[u32]) -> FrequencyVector {
        FrequencyVector::from_counts(counts.to_vec())
    }

    #[test]
    fn moments_helpers() {
        let m = Moments {
            mean: 100.0,
            variance: 25.0,
        };
        assert_eq!(m.std(), 5.0);
        assert_eq!(m.relative_error(100.0), 0.05);
        assert_eq!(
            Moments {
                mean: 0.0,
                variance: -1e-18
            }
            .std(),
            0.0
        );
        assert_eq!(m.relative_error(0.0), f64::INFINITY);
    }

    #[test]
    fn pure_sketch_formulas() {
        let f = fv(&[1, 2, 3]);
        let g = fv(&[4, 0, 1]);
        // Eq 14: Σf²Σg² + (Σfg)² − 2Σf²g²
        let m = sketch_sj(&f, &g, 1);
        assert_eq!(m.mean, 7.0);
        assert_eq!(m.variance, 14.0 * 17.0 + 49.0 - 2.0 * (16.0 + 9.0));
        let m4 = sketch_sj(&f, &g, 4);
        assert_eq!(m4.variance, m.variance / 4.0);
        // Eq 16: 2[(F₂)² − F₄]
        let s = sketch_sjs(&f, 1);
        assert_eq!(s.mean, 14.0);
        assert_eq!(s.variance, 2.0 * (196.0 - 98.0));
    }

    #[test]
    fn all_estimators_are_unbiased() {
        let f = fv(&[5, 0, 2, 7, 1]);
        let g = fv(&[1, 3, 0, 2, 4]);
        let truth_join = f.dot(&g);
        let truth_f2 = f.self_join();
        let bern = Bernoulli::new(0.3).unwrap();
        let bern_q = Bernoulli::new(0.7).unwrap();
        let wr = WithReplacement::new(5, f.total() as u64).unwrap();
        let wr_g = WithReplacement::new(4, g.total() as u64).unwrap();
        let wor = WithoutReplacement::new(6, f.total() as u64).unwrap();
        let wor_g = WithoutReplacement::new(3, g.total() as u64).unwrap();

        let cases = [
            sampling_sj(&bern, &f, &bern_q, &g).unwrap().mean,
            sampling_sj(&wr, &f, &wr_g, &g).unwrap().mean,
            sampling_sj(&wor, &f, &wor_g, &g).unwrap().mean,
            sketch_sample_sj(&bern, &f, &bern_q, &g, 7).unwrap().mean,
            sketch_sample_sj(&wr, &f, &wr_g, &g, 7).unwrap().mean,
            sketch_sample_sj(&wor, &f, &wor_g, &g, 7).unwrap().mean,
        ];
        for (i, mean) in cases.into_iter().enumerate() {
            assert!(
                (mean - truth_join).abs() < 1e-9,
                "join case {i}: {mean} vs {truth_join}"
            );
        }
        let cases = [
            sampling_sjs(&bern, &f).unwrap().mean,
            sampling_sjs(&wr, &f).unwrap().mean,
            sampling_sjs(&wor, &f).unwrap().mean,
            sketch_sample_sjs(&bern, &f, 7).unwrap().mean,
            sketch_sample_sjs(&wr, &f, 7).unwrap().mean,
            sketch_sample_sjs(&wor, &f, 7).unwrap().mean,
        ];
        for (i, mean) in cases.into_iter().enumerate() {
            assert!(
                (mean - truth_f2).abs() < 1e-9,
                "sjs case {i}: {mean} vs {truth_f2}"
            );
        }
    }

    /// A Bernoulli sample at p = 1 *is* the full data: the combined
    /// estimator must degenerate to the pure sketch estimator.
    #[test]
    fn bernoulli_p1_reduces_to_pure_sketch() {
        let f = fv(&[3, 1, 4, 1, 5]);
        let g = fv(&[2, 7, 1, 8, 2]);
        let full = Bernoulli::new(1.0).unwrap();
        for n in [1usize, 8, 64] {
            let combined = sketch_sample_sj(&full, &f, &full, &g, n).unwrap();
            let pure = sketch_sj(&f, &g, n);
            assert!((combined.mean - pure.mean).abs() < 1e-9);
            assert!(
                (combined.variance - pure.variance).abs() < 1e-6 * pure.variance.max(1.0),
                "n={n}: {} vs {}",
                combined.variance,
                pure.variance
            );
            let combined = sketch_sample_sjs(&full, &f, n).unwrap();
            let pure = sketch_sjs(&f, n);
            assert!((combined.variance - pure.variance).abs() < 1e-6 * pure.variance.max(1.0));
        }
    }

    /// A full WOR sample is the full data, for any n.
    #[test]
    fn full_wor_sample_reduces_to_pure_sketch() {
        let f = fv(&[3, 1, 4, 1, 5]);
        let n_pop = f.total() as u64;
        let wor = WithoutReplacement::new(n_pop, n_pop).unwrap();
        let combined = sketch_sample_sjs(&wor, &f, 10).unwrap();
        let pure = sketch_sjs(&f, 10);
        assert!((combined.variance - pure.variance).abs() < 1e-6 * pure.variance.max(1.0));
        // and the sampling-only estimator becomes deterministic
        let samp = sampling_sjs(&wor, &f).unwrap();
        assert!(samp.variance.abs() < 1e-6);
    }

    /// As n → ∞, the averaged combined variance approaches the
    /// sampling-only variance from above (the sketch and interaction terms
    /// vanish, the sampling term does not).
    #[test]
    fn averaging_floor_is_the_sampling_variance() {
        let f = fv(&[9, 2, 5, 1, 8, 3]);
        let bern = Bernoulli::new(0.2).unwrap();
        let sampling = sampling_sjs(&bern, &f).unwrap().variance;
        let v1 = sketch_sample_sjs(&bern, &f, 1).unwrap().variance;
        let v100 = sketch_sample_sjs(&bern, &f, 100).unwrap().variance;
        let v_huge = sketch_sample_sjs(&bern, &f, 1_000_000).unwrap().variance;
        assert!(v1 > v100, "averaging must reduce variance");
        assert!(v100 > sampling, "combined variance is floored by sampling");
        assert!(
            (v_huge - sampling).abs() / sampling < 1e-3,
            "n→∞: {v_huge} vs sampling {sampling}"
        );
    }

    /// Brute-force verification of the Bernoulli combined self-join
    /// estimator: enumerate *all* sample outcomes and all ξ assignments for
    /// a tiny domain, and compare exact mean/variance with the engine.
    #[test]
    fn exhaustive_enumeration_bernoulli_sjs() {
        // Domain of 3 values with frequencies 2, 1, 2 — 2^5 subsets.
        let freqs = [2u64, 1, 2];
        let p = 0.4;
        let f = fv(&[2, 1, 2]);
        let bern = Bernoulli::new(p).unwrap();
        let (u, v, c) = bern.sjs_affine();

        // Enumerate subsets of the 5 tuples; tuple→value map:
        let owner = [0usize, 0, 1, 2, 2];
        // ξ over 3 values: 8 sign assignments, each probability 1/8 under
        // full independence (3 values ⇒ 4-wise independence is full).
        let mut mean = 0.0;
        let mut second = 0.0;
        for mask in 0u32..32 {
            let prob_mask = (0..5)
                .map(|t| if mask >> t & 1 == 1 { p } else { 1.0 - p })
                .product::<f64>();
            let mut cells = [0f64; 3];
            for t in 0..5 {
                if mask >> t & 1 == 1 {
                    cells[owner[t]] += 1.0;
                }
            }
            let sf1: f64 = cells.iter().sum();
            for signs in 0u32..8 {
                let xi = |i: usize| if signs >> i & 1 == 1 { 1.0 } else { -1.0 };
                let s: f64 = (0..3).map(|i| cells[i] * xi(i)).sum();
                let x = u * s * s + v * sf1 + c;
                let pr = prob_mask / 8.0;
                mean += pr * x;
                second += pr * x * x;
            }
        }
        let exact_var = second - mean * mean;
        let engine = sketch_sample_sjs(&bern, &f, 1).unwrap();
        let truth: f64 = freqs.iter().map(|&x| (x * x) as f64).sum();
        assert!(
            (mean - truth).abs() < 1e-9,
            "enumerated mean {mean} vs {truth}"
        );
        assert!((engine.mean - truth).abs() < 1e-9);
        assert!(
            (engine.variance - exact_var).abs() < 1e-9 * exact_var.max(1.0),
            "engine {} vs exact {exact_var}",
            engine.variance
        );
    }

    /// Same exhaustive check for the Bernoulli combined size-of-join.
    #[test]
    fn exhaustive_enumeration_bernoulli_sj() {
        let p = 0.5;
        let q = 0.3;
        let f = fv(&[2, 1]);
        let g = fv(&[1, 2]);
        let bf = Bernoulli::new(p).unwrap();
        let bg = Bernoulli::new(q).unwrap();
        let c = 1.0 / (p * q);
        let owner_f = [0usize, 0, 1];
        let owner_g = [0usize, 1, 1];
        let mut mean = 0.0;
        let mut second = 0.0;
        for fm in 0u32..8 {
            let pf = (0..3)
                .map(|t| if fm >> t & 1 == 1 { p } else { 1.0 - p })
                .product::<f64>();
            let mut fc = [0f64; 2];
            for t in 0..3 {
                if fm >> t & 1 == 1 {
                    fc[owner_f[t]] += 1.0;
                }
            }
            for gm in 0u32..8 {
                let pg = (0..3)
                    .map(|t| if gm >> t & 1 == 1 { q } else { 1.0 - q })
                    .product::<f64>();
                let mut gc = [0f64; 2];
                for t in 0..3 {
                    if gm >> t & 1 == 1 {
                        gc[owner_g[t]] += 1.0;
                    }
                }
                for signs in 0u32..4 {
                    let xi = |i: usize| if signs >> i & 1 == 1 { 1.0 } else { -1.0 };
                    let s: f64 = (0..2).map(|i| fc[i] * xi(i)).sum();
                    let t: f64 = (0..2).map(|i| gc[i] * xi(i)).sum();
                    let x = c * s * t;
                    let pr = pf * pg / 4.0;
                    mean += pr * x;
                    second += pr * x * x;
                }
            }
        }
        let exact_var = second - mean * mean;
        let engine = sketch_sample_sj(&bf, &f, &bg, &g, 1).unwrap();
        let truth = f.dot(&g);
        assert!((mean - truth).abs() < 1e-9);
        assert!((engine.mean - truth).abs() < 1e-9);
        assert!(
            (engine.variance - exact_var).abs() < 1e-9 * exact_var.max(1.0),
            "engine {} vs exact {exact_var}",
            engine.variance
        );
    }

    /// Exhaustive check of the WOR combined self-join estimator on a tiny
    /// population, enumerating all subsets of fixed size and all signs.
    #[test]
    fn exhaustive_enumeration_wor_sjs() {
        let tuples = [0usize, 0, 1, 2, 2]; // frequencies 2,1,2; N = 5
        let m = 3usize;
        let f = fv(&[2, 1, 2]);
        let wor = WithoutReplacement::new(m as u64, 5).unwrap();
        let (u, v, c) = wor.sjs_affine();
        let mut outcomes = Vec::new();
        for mask in 0u32..32 {
            if mask.count_ones() as usize != m {
                continue;
            }
            let mut cells = [0f64; 3];
            for t in 0..5 {
                if mask >> t & 1 == 1 {
                    cells[tuples[t]] += 1.0;
                }
            }
            outcomes.push(cells);
        }
        let n_sub = outcomes.len() as f64;
        let mut mean = 0.0;
        let mut second = 0.0;
        for cells in &outcomes {
            for signs in 0u32..8 {
                let xi = |i: usize| if signs >> i & 1 == 1 { 1.0 } else { -1.0 };
                let s: f64 = (0..3).map(|i| cells[i] * xi(i)).sum();
                let x = u * s * s + v * (m as f64) + c;
                let pr = 1.0 / (n_sub * 8.0);
                mean += pr * x;
                second += pr * x * x;
            }
        }
        let exact_var = second - mean * mean;
        let engine = sketch_sample_sjs(&wor, &f, 1).unwrap();
        assert!((mean - 9.0).abs() < 1e-9, "F₂ = 9");
        assert!((engine.mean - 9.0).abs() < 1e-9);
        assert!(
            (engine.variance - exact_var).abs() < 1e-9 * exact_var.max(1.0),
            "engine {} vs exact {exact_var}",
            engine.variance
        );
    }

    /// Exhaustive check of the WR combined self-join estimator.
    #[test]
    fn exhaustive_enumeration_wr_sjs() {
        let values = [0usize, 0, 1, 2, 2]; // N = 5, freq 2,1,2
        let m = 3u32;
        let f = fv(&[2, 1, 2]);
        let wr = WithReplacement::new(m as u64, 5).unwrap();
        let (u, v, c) = wr.sjs_affine();
        let mut mean = 0.0;
        let mut second = 0.0;
        let total = 5f64.powi(m as i32);
        for draw in 0u32..125 {
            let mut cells = [0f64; 3];
            let mut d = draw;
            for _ in 0..m {
                cells[values[(d % 5) as usize]] += 1.0;
                d /= 5;
            }
            for signs in 0u32..8 {
                let xi = |i: usize| if signs >> i & 1 == 1 { 1.0 } else { -1.0 };
                let s: f64 = (0..3).map(|i| cells[i] * xi(i)).sum();
                let x = u * s * s + v * (m as f64) + c;
                let pr = 1.0 / (total * 8.0);
                mean += pr * x;
                second += pr * x * x;
            }
        }
        let exact_var = second - mean * mean;
        let engine = sketch_sample_sjs(&wr, &f, 1).unwrap();
        assert!((mean - 9.0).abs() < 1e-9);
        assert!((engine.mean - 9.0).abs() < 1e-9);
        assert!(
            (engine.variance - exact_var).abs() < 1e-9 * exact_var.max(1.0),
            "engine {} vs exact {exact_var}",
            engine.variance
        );
    }

    #[test]
    fn domain_mismatch_and_zero_averages_error() {
        let f = fv(&[1, 2]);
        let g = fv(&[1, 2, 3]);
        let b = Bernoulli::new(0.5).unwrap();
        assert!(matches!(
            sampling_sj(&b, &f, &b, &g),
            Err(Error::DomainMismatch { left: 2, right: 3 })
        ));
        let g2 = fv(&[1, 2]);
        assert!(matches!(
            sketch_sample_sj(&b, &f, &b, &g2, 0),
            Err(Error::InvalidAverageCount(0))
        ));
    }
}
