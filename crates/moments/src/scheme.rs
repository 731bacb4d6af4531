//! The `(κ, φ)` factorial-moment oracles for the three sampling schemes,
//! and the one place their estimators are applied.
//!
//! See the crate docs for the factorization. Each scheme also knows the
//! constants of its unbiased estimators, in two forms that the tests of
//! this module hold together within 1e-12:
//!
//! * the **engine's form**, which [`crate::engine`] evaluates moments
//!   through: the rate `E[f′ᵢ]/fᵢ`, the size-of-join multiplier
//!   [`sj_scale`](SamplingScheme::sj_scale) `C = 1/(rate_F·rate_G)`, and
//!   the affine self-join correction `X = u·Σf′ᵢ² + v·Σf′ᵢ + c`
//!   ([`sjs_affine`](SamplingScheme::sjs_affine)) that undoes the
//!   `E[f′²] ≠ rate²·f²` bias;
//! * the **served form**, the estimate itself from a raw aggregate:
//!   [`size_of_join`](SamplingScheme::size_of_join) `raw/(rate_F·rate_G)`
//!   and each scheme's own `self_join` ([`Bernoulli::self_join`],
//!   [`WithReplacement::self_join`], [`WithoutReplacement::self_join`]).
//!
//! The raw aggregate is the same whether it comes from a sketch of the
//! sample (Props 13–16) or from the exact sample (Props 3–6), so the
//! served form is the estimator of both. [`Bernoulli`] also holds the rest
//! of a served Bernoulli answer, each a plain `f64` function: the sketch
//! variance scalings, the sampling-variance plug-ins of Section VI-A
//! ([`Bernoulli::self_join_variance_plugin`],
//! [`Bernoulli::size_of_join_variance_plugin`],
//! [`Bernoulli::frequency_variance_plugin`]), the `1/p` frequency scale,
//! the quantile [`rank_jitter`](Bernoulli::rank_jitter) and the F₀ fixed
//! point [`Bernoulli::distinct`]. Its callers:
//! `sss_core::Sampled` (Bernoulli, every F₂, join, top-k, F₀ and
//! quantile read, over a whole summary and over the parts of a sum),
//! `sss_core::IidStreamSketcher` (with replacement),
//! `sss_core::ScanSketcher` (without replacement), the coordinator of
//! `examples/distributed_shedding.rs`, and the sampling-only estimators
//! over an `sss_exact::ExactAggregator` of the sample
//! (`tests/sampling_estimators.rs` of this crate,
//! `tests/pipeline_properties.rs`).

use crate::factorial::falling_u64;
use crate::{Error, Result};

/// A sampling scheme's factorial-moment oracle plus estimator constants.
///
/// The contract (verified exhaustively in the tests of this module against
/// direct enumeration of the underlying distributions) is
///
/// ```text
/// E[(f′ᵢ)ᵣ]        = κ(r)   · φᵣ(fᵢ)
/// E[(f′ᵢ)ᵣ(f′ⱼ)ₛ]  = κ(r+s) · φᵣ(fᵢ) · φₛ(fⱼ)     for i ≠ j
/// ```
pub trait SamplingScheme {
    /// The order-R coefficient `κ(R)`.
    fn kappa(&self, order: u32) -> f64;

    /// The per-cell factor `φᵣ(f)` for a cell with true frequency `f`.
    fn phi(&self, freq: f64, r: u32) -> f64;

    /// `E[f′ᵢ] / fᵢ` — `p` for Bernoulli, `α` for the fixed-size schemes.
    fn rate(&self) -> f64;

    /// The `(u, v, c)` of the unbiased self-join estimator
    /// `X = u·Σf′² + v·Σf′ + c`.
    fn sjs_affine(&self) -> (f64, f64, f64);

    /// The size-of-join multiplier `C = 1/(rate·rateₒ)` of the unbiased
    /// estimator `X = C·Σf′g′` against a sample of `other`.
    fn sj_scale<T: SamplingScheme>(&self, other: &T) -> f64
    where
        Self: Sized,
    {
        1.0 / (self.rate() * other.rate())
    }

    /// The unbiased size-of-join estimate `raw/(rate·rateₒ)` from `raw`,
    /// the join of this scheme's sample with a sample of `other`, sketched
    /// or exact (Props 3, 5, 6, 13, 15, 16).
    fn size_of_join<T: SamplingScheme>(&self, raw: f64, other: &T) -> f64
    where
        Self: Sized,
    {
        raw / (self.rate() * other.rate())
    }

    /// The sketch's share of the variance of
    /// [`size_of_join`](Self::size_of_join): `var`, the variance of the raw
    /// sketched join, times the square of the estimate's slope,
    /// `1/(rate·rateₒ)²`.
    fn size_of_join_sketch_variance<T: SamplingScheme>(&self, var: f64, other: &T) -> f64
    where
        Self: Sized,
    {
        let (p, q) = (self.rate(), other.rate());
        var / ((p * q) * (p * q))
    }

    /// Human-readable scheme name for reports.
    fn name(&self) -> &'static str;
}

/// Bernoulli sampling with inclusion probability `p`: `f′ᵢ ~ Binomial(fᵢ, p)`
/// independently across cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// `p` must lie in `(0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        if p > 0.0 && p <= 1.0 {
            Ok(Self { p })
        } else {
            Err(Error::InvalidProbability(p))
        }
    }

    /// The inclusion probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The unbiased self-join estimate `s/p² − (1−p)/p²·|F′|` from
    /// `s = Σf′²`, sketched or exact, of a sample of `kept = |F′|` tuples
    /// (Props 4 and 14). `|F′|` is known exactly, which is why Bernoulli
    /// sampling composes so cleanly with sketching.
    #[inline]
    pub fn self_join(&self, s: f64, kept: u64) -> f64 {
        let p2 = self.p * self.p;
        s / p2 - (1.0 - self.p) / p2 * kept as f64
    }

    /// The sketch's share of the variance of
    /// [`self_join`](Self::self_join): `var`, the variance of the sketched
    /// `s`, times the square of the estimate's slope `1/p²` — `var/p⁴`.
    pub fn self_join_sketch_variance(&self, var: f64) -> f64 {
        let p = self.p;
        var / ((p * p) * (p * p))
    }

    /// The summary's share of the variance of a frequency read off the
    /// sample and scaled by `1/p`: `var/p²`.
    pub fn frequency_sketch_variance(&self, var: f64) -> f64 {
        var / (self.p * self.p)
    }

    /// Eq. 7 in moment form: the exact sampling-only variance of
    /// [`self_join`](Self::self_join) over a stream with `F₁ = Σfᵢ`,
    /// `F₂ = Σfᵢ²`, `F₃ = Σfᵢ³`. With `q = 1 − p`:
    ///
    /// ```text
    /// Var = (4q/p)·F₃ + (2q(1 − 3p)/p²)·F₂ + (q(3p − 2)/p²)·F₁
    /// ```
    ///
    /// At `p = 1` the sample is the stream and the variance is 0.
    pub fn self_join_variance(&self, f1: f64, f2: f64, f3: f64) -> f64 {
        let p = self.p;
        let q = 1.0 - p;
        let p2 = p * p;
        (4.0 * q / p) * f3 + (2.0 * q * (1.0 - 3.0 * p) / p2) * f2 + (q * (3.0 * p - 2.0) / p2) * f1
    }

    /// The sampling term of a served F₂ error bar (Section VI-A): the
    /// [`self_join_variance`](Self::self_join_variance) with its unknown
    /// moments bounded by what a query knows. `F₁` is `seen`, the exact
    /// count of offered tuples; `F₂` is the estimate `f2_hat` itself,
    /// clamped at 0; `F₃ ≤ F₂^{3/2}` (‖f‖₃ ≤ ‖f‖₂). Conservative: tight for
    /// heavy-hitter vectors, loose for near-uniform ones. Clamped at 0, as
    /// inconsistent plug-ins (`f2_hat` below `seen`) can make it negative.
    ///
    /// Because every basic estimator of a sketch sees the same sample, this
    /// term is added once and not divided by the number of basics.
    pub fn self_join_variance_plugin(&self, seen: u64, f2_hat: f64) -> f64 {
        let f2 = f2_hat.max(0.0);
        let f3 = f2.powf(1.5);
        self.self_join_variance(seen as f64, f2, f3).max(0.0)
    }

    /// The sampling term of a served size-of-join error bar against a
    /// sample of `other`: Eq. 6,
    /// `((1−q)/q)·Σf²g + ((1−p)/p)·Σfg² + ((1−p)(1−q)/(pq))·Σfg`, with
    /// `Σf²g ≤ F₂(f)·√F₂(g)` and `Σfg² ≤ F₂(g)·√F₂(f)` (Cauchy–Schwarz and
    /// `F₄ ≤ F₂²`) from each side's self-join estimate and `Σfg` from the
    /// join estimate `fg_hat`, each clamped at 0. Clamped at 0; an
    /// unsampled side (rate 1) adds nothing.
    pub fn size_of_join_variance_plugin(
        &self,
        other: &Bernoulli,
        f2_f_hat: f64,
        f2_g_hat: f64,
        fg_hat: f64,
    ) -> f64 {
        let (pf, pg) = (self.p, other.p);
        let f2f = f2_f_hat.max(0.0);
        let f2g = f2_g_hat.max(0.0);
        let sum_f2g = f2f * f2g.sqrt();
        let sum_fg2 = f2g * f2f.sqrt();
        let sum_fg = fg_hat.max(0.0);
        let qf = 1.0 - pf;
        let qg = 1.0 - pg;
        ((qg / pg) * sum_f2g + (qf / pf) * sum_fg2 + (qf * qg / (pf * pg)) * sum_fg).max(0.0)
    }

    /// The unbiased full-stream frequency `raw/p` of a key counted `raw`
    /// times in the sample.
    pub fn frequency(&self, raw: f64) -> f64 {
        raw / self.p
    }

    /// The binomial thinning term of a served frequency's error bar:
    /// `f′ ~ Binomial(f, p)`, so [`frequency`](Self::frequency) has
    /// variance `f·(1−p)/p`, evaluated at the estimate `f_hat` itself
    /// (unbiased for `f`) clamped at 0. Zero at `p = 1`.
    pub fn frequency_variance_plugin(&self, f_hat: f64) -> f64 {
        let f = f_hat.max(0.0);
        (f * (1.0 - self.p) / self.p).max(0.0)
    }

    /// `3·√(q(1−q)(1−p)/kept)`: the 3σ binomial jitter of rank `q` in a
    /// sample of `kept` tuples, which widens a sampled quantile's rank
    /// error. Zero at `p = 1` or before anything is kept.
    pub fn rank_jitter(&self, q: f64, kept: u64) -> f64 {
        let p = self.p;
        if p >= 1.0 || kept == 0 {
            return 0.0;
        }
        3.0 * (q * (1.0 - q) * (1.0 - p) / kept as f64).sqrt()
    }

    /// The homogeneous-frequency F₀ correction: the full stream's distinct
    /// count and its variance from `d_raw`, an estimate of the *sample's*
    /// distinct count `D′` with variance `var_raw`, and the `kept` sampled
    /// tuples. `None` when there is nothing to correct (`p = 1`, or
    /// nothing sampled).
    ///
    /// An exact one-pass correction needs the whole frequency histogram,
    /// since a key survives with probability `1 − (1−p)^{fᵢ}`. The model
    /// gives every key the mean frequency `N̂/D` of a stream of
    /// `N̂ = kept/p` tuples, so `D` must satisfy
    ///
    /// ```text
    /// D = D′ / (1 − (1−p)^{N̂/D})
    /// ```
    ///
    /// solved by fixed-point iteration from `D₀ = D′`. (The one-step
    /// plug-in at `D′` overstates the mean frequency and is biased low,
    /// by ~20% at low frequencies; the map is increasing and a contraction
    /// at the fixed point, so the iteration climbs to it.) The survival
    /// probability is floored at 1% to keep the estimate finite when every
    /// frequency is tiny. The variance is `var_raw` over the squared
    /// survival plus the squared correction `D̂ − D′`, the unmodelled
    /// histogram spread priced as one standard deviation: negligible when
    /// almost every key survives, wide when the correction matters.
    pub fn distinct(&self, d_raw: f64, var_raw: f64, kept: u64) -> Option<(f64, f64)> {
        let p = self.p;
        if p >= 1.0 {
            return None;
        }
        let d_sample = d_raw.max(0.0);
        if d_sample == 0.0 || kept == 0 {
            return None;
        }
        let scaled_len = kept as f64 / p;
        let mut value = d_sample;
        for _ in 0..64 {
            let mean_frequency = scaled_len / value;
            let survival = (1.0 - (1.0 - p).powf(mean_frequency)).max(0.01);
            let next = d_sample / survival;
            if (next - value).abs() <= 1e-9 * value {
                value = next;
                break;
            }
            value = next;
        }
        // The survival probability implied by the fixed point itself.
        let survival = (d_sample / value).clamp(0.01, 1.0);
        let model_error = value - d_sample;
        Some((
            value,
            var_raw / (survival * survival) + model_error * model_error,
        ))
    }
}

impl SamplingScheme for Bernoulli {
    fn kappa(&self, order: u32) -> f64 {
        self.p.powi(order as i32)
    }

    fn phi(&self, freq: f64, r: u32) -> f64 {
        crate::factorial::falling(freq, r)
    }

    fn rate(&self) -> f64 {
        self.p
    }

    fn sjs_affine(&self) -> (f64, f64, f64) {
        // X = (1/p²)Σf′² − ((1−p)/p²)Σf′  (Proposition 4)
        let p2 = self.p * self.p;
        (1.0 / p2, -(1.0 - self.p) / p2, 0.0)
    }

    fn name(&self) -> &'static str {
        "bernoulli"
    }
}

/// Sampling with replacement: `m` draws from a population of `N` tuples;
/// the `f′ᵢ` are multinomial components with cell probabilities `fᵢ/N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WithReplacement {
    m: u64,
    n: u64,
}

impl WithReplacement {
    /// `m ≥ 1` draws from a population of `n ≥ 1` tuples. `m` may exceed
    /// `n` (replacement allows it); the self-join estimator needs `m ≥ 2`.
    pub fn new(m: u64, n: u64) -> Result<Self> {
        if n == 0 || m == 0 {
            return Err(Error::InvalidSampleSize {
                sample: m,
                population: n,
            });
        }
        Ok(Self { m, n })
    }

    /// Sample size `m = |F′|`.
    pub fn sample_size(&self) -> u64 {
        self.m
    }

    /// Population size `N = |F|`.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// `α = m/N`.
    pub fn alpha(&self) -> f64 {
        self.m as f64 / self.n as f64
    }

    /// `α₂ = (m−1)/N`.
    pub fn alpha2(&self) -> f64 {
        (self.m - 1) as f64 / self.n as f64
    }

    /// The unbiased population self-join estimate `s/(α·α₂) − N/α₂` from
    /// `s = Σf′²` of the `m` draws, sketched or exact (Section III-D,
    /// Prop 15).
    ///
    /// # Errors
    ///
    /// [`Error::SampleTooSmall`] if `m < 2`: `α₂` is then 0.
    pub fn self_join(&self, s: f64) -> Result<f64> {
        check_pairs(self.m)?;
        let a = self.alpha();
        let a2 = self.alpha2();
        Ok(s / (a * a2) - self.n as f64 / a2)
    }
}

impl SamplingScheme for WithReplacement {
    fn kappa(&self, order: u32) -> f64 {
        falling_u64(self.m, order)
    }

    fn phi(&self, freq: f64, r: u32) -> f64 {
        (freq / self.n as f64).powi(r as i32)
    }

    fn rate(&self) -> f64 {
        self.alpha()
    }

    fn sjs_affine(&self) -> (f64, f64, f64) {
        // X = (1/αα₂)Σf′² − N/α₂   (Section III-D; needs m ≥ 2)
        let a = self.alpha();
        let a2 = self.alpha2();
        (1.0 / (a * a2), 0.0, -(self.n as f64) / a2)
    }

    fn name(&self) -> &'static str {
        "with-replacement"
    }
}

/// Sampling without replacement: a uniform `m`-subset of `N` tuples; the
/// `f′ᵢ` are multivariate-hypergeometric components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WithoutReplacement {
    m: u64,
    n: u64,
}

impl WithoutReplacement {
    /// `1 ≤ m ≤ n`.
    pub fn new(m: u64, n: u64) -> Result<Self> {
        if n == 0 || m == 0 || m > n {
            return Err(Error::InvalidSampleSize {
                sample: m,
                population: n,
            });
        }
        Ok(Self { m, n })
    }

    /// Sample size `m = |F′|`.
    pub fn sample_size(&self) -> u64 {
        self.m
    }

    /// Population size `N = |F|`.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// `α = m/N`.
    pub fn alpha(&self) -> f64 {
        self.m as f64 / self.n as f64
    }

    /// `α₁ = (m−1)/(N−1)` (1 when `N = 1`).
    pub fn alpha1(&self) -> f64 {
        if self.n == 1 {
            1.0
        } else {
            (self.m - 1) as f64 / (self.n - 1) as f64
        }
    }

    /// The unbiased self-join estimate `s/(α·α₁) − (1−α₁)/α₁·N` from
    /// `s = Σf′²` of the `m`-subset, sketched or exact (Section III-E,
    /// Prop 16). A full sample (`m = N`) returns `s` itself.
    ///
    /// # Errors
    ///
    /// [`Error::SampleTooSmall`] if `m < 2`: `α₁` is then 0 for `N > 1`.
    pub fn self_join(&self, s: f64) -> Result<f64> {
        check_pairs(self.m)?;
        let a = self.alpha();
        let a1 = self.alpha1();
        Ok(s / (a * a1) - (1.0 - a1) / a1 * self.n as f64)
    }
}

/// A fixed-size self-join corrects by `m − 1`: refuse fewer than two
/// tuples rather than answer NaN or ±∞.
fn check_pairs(m: u64) -> Result<()> {
    if m < 2 {
        return Err(Error::SampleTooSmall { got: m, need: 2 });
    }
    Ok(())
}

impl SamplingScheme for WithoutReplacement {
    fn kappa(&self, order: u32) -> f64 {
        let denom = falling_u64(self.n, order);
        if denom == 0.0 {
            // Order exceeds the population: the factorial moment is 0 and
            // so is (m)_order; define κ = 0 (φ will multiply to 0 anyway).
            0.0
        } else {
            falling_u64(self.m, order) / denom
        }
    }

    fn phi(&self, freq: f64, r: u32) -> f64 {
        crate::factorial::falling(freq, r)
    }

    fn rate(&self) -> f64 {
        self.alpha()
    }

    fn sjs_affine(&self) -> (f64, f64, f64) {
        // X = (1/αα₁)Σf′² − ((1−α₁)/α₁)·N  (Section III-E; needs m ≥ 2)
        let a = self.alpha();
        let a1 = self.alpha1();
        (1.0 / (a * a1), 0.0, -(1.0 - a1) / a1 * self.n as f64)
    }

    fn name(&self) -> &'static str {
        "without-replacement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrequencyVector;
    use proptest::prelude::*;

    /// Direct enumeration of a Binomial(f, p) pmf.
    fn binomial_pmf(f: u64, p: f64) -> Vec<f64> {
        let mut pmf = vec![0.0; f as usize + 1];
        for (k, slot) in pmf.iter_mut().enumerate() {
            let mut log = 0.0f64;
            for j in 0..k {
                log += ((f as usize - j) as f64).ln() - (j as f64 + 1.0).ln();
            }
            *slot = log.exp() * p.powi(k as i32) * (1.0 - p).powi((f as usize - k) as i32);
        }
        pmf
    }

    #[test]
    fn bernoulli_factorial_moments_match_enumeration() {
        let b = Bernoulli::new(0.3).unwrap();
        for f in [0u64, 1, 3, 7] {
            let pmf = binomial_pmf(f, 0.3);
            for r in 0..=4u32 {
                let direct: f64 = pmf
                    .iter()
                    .enumerate()
                    .map(|(k, &pr)| pr * falling_u64(k as u64, r))
                    .sum();
                let oracle = b.kappa(r) * b.phi(f as f64, r);
                assert!(
                    (direct - oracle).abs() < 1e-10,
                    "f={f} r={r}: {direct} vs {oracle}"
                );
            }
        }
    }

    /// Enumerate all with-replacement samples of a tiny population and check
    /// both single and joint factorial moments of the oracle.
    #[test]
    #[allow(clippy::needless_range_loop)] // r, s index the moment tables
    fn multinomial_moments_match_enumeration() {
        // Population: value 0 ×2, value 1 ×1, value 2 ×3 (N = 6); m = 3.
        let freqs = [2u64, 1, 3];
        let n: u64 = freqs.iter().sum();
        let m = 3u32;
        let wr = WithReplacement::new(m as u64, n).unwrap();
        // Enumerate all 6^3 draws.
        let mut acc_single = [[0.0f64; 5]; 3];
        let mut acc_joint = [[0.0f64; 3]; 3]; // E[(f0)_r (f1)_s] r,s in 1..=2
        let mut acc_joint22 = 0.0f64; // E[(f0)_2 (f2)_2]
        let total = 6f64.powi(m as i32);
        let expand = |t: u32| -> [u64; 3] {
            let mut cells = [0u64; 3];
            let mut t = t;
            for _ in 0..m {
                let tuple = t % 6;
                t /= 6;
                let v = if tuple < 2 {
                    0
                } else if tuple < 3 {
                    1
                } else {
                    2
                };
                cells[v] += 1;
            }
            cells
        };
        for t in 0..6u32.pow(m) {
            let cells = expand(t);
            for (v, acc) in acc_single.iter_mut().enumerate() {
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot += falling_u64(cells[v], r as u32) / total;
                }
            }
            for r in 1..=2usize {
                for s in 1..=2usize {
                    acc_joint[r][s] +=
                        falling_u64(cells[0], r as u32) * falling_u64(cells[1], s as u32) / total;
                }
            }
            acc_joint22 += falling_u64(cells[0], 2) * falling_u64(cells[2], 2) / total;
        }
        for (v, &f) in freqs.iter().enumerate() {
            for r in 0..=4u32 {
                let oracle = wr.kappa(r) * wr.phi(f as f64, r);
                assert!(
                    (acc_single[v][r as usize] - oracle).abs() < 1e-10,
                    "single v={v} r={r}: {} vs {oracle}",
                    acc_single[v][r as usize]
                );
            }
        }
        for r in 1..=2u32 {
            for s in 1..=2u32 {
                let oracle = wr.kappa(r + s) * wr.phi(2.0, r) * wr.phi(1.0, s);
                assert!(
                    (acc_joint[r as usize][s as usize] - oracle).abs() < 1e-10,
                    "joint r={r} s={s}"
                );
            }
        }
        let oracle22 = wr.kappa(4) * wr.phi(2.0, 2) * wr.phi(3.0, 2);
        assert!((acc_joint22 - oracle22).abs() < 1e-10);
    }

    /// Enumerate all without-replacement subsets of a tiny population.
    #[test]
    #[allow(clippy::needless_range_loop)] // r, s index the moment tables
    fn hypergeometric_moments_match_enumeration() {
        // Population of 6 tuples: values [0,0,1,2,2,2]; m = 3.
        let tuples = [0u64, 0, 1, 2, 2, 2];
        let freqs = [2u64, 1, 3];
        let m = 3usize;
        let wor = WithoutReplacement::new(m as u64, 6).unwrap();
        let mut acc_single = [[0.0f64; 5]; 3];
        let mut acc_joint = [[0.0f64; 3]; 3];
        let mut count = 0u32;
        // Enumerate all C(6,3) = 20 subsets via bitmasks.
        for mask in 0u32..64 {
            if mask.count_ones() as usize != m {
                continue;
            }
            count += 1;
            let mut cells = [0u64; 3];
            for (t, &v) in tuples.iter().enumerate() {
                if mask >> t & 1 == 1 {
                    cells[v as usize] += 1;
                }
            }
            for (v, acc) in acc_single.iter_mut().enumerate() {
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot += falling_u64(cells[v], r as u32);
                }
            }
            for r in 1..=2usize {
                for s in 1..=2usize {
                    acc_joint[r][s] +=
                        falling_u64(cells[0], r as u32) * falling_u64(cells[2], s as u32);
                }
            }
        }
        assert_eq!(count, 20);
        for (v, &f) in freqs.iter().enumerate() {
            for r in 0..=4u32 {
                let direct = acc_single[v][r as usize] / count as f64;
                let oracle = wor.kappa(r) * wor.phi(f as f64, r);
                assert!((direct - oracle).abs() < 1e-10, "single v={v} r={r}");
            }
        }
        for r in 1..=2u32 {
            for s in 1..=2u32 {
                let direct = acc_joint[r as usize][s as usize] / count as f64;
                let oracle = wor.kappa(r + s) * wor.phi(2.0, r) * wor.phi(3.0, s);
                assert!((direct - oracle).abs() < 1e-10, "joint r={r} s={s}");
            }
        }
    }

    #[test]
    fn constructors_validate() {
        assert!(Bernoulli::new(0.0).is_err());
        assert!(Bernoulli::new(1.2).is_err());
        assert!(Bernoulli::new(f64::NAN).is_err());
        assert!(Bernoulli::new(1.0).is_ok());
        assert!(WithReplacement::new(0, 5).is_err());
        assert!(WithReplacement::new(5, 0).is_err());
        assert!(WithReplacement::new(10, 5).is_ok(), "WR may oversample");
        assert!(WithoutReplacement::new(6, 5).is_err());
        assert!(WithoutReplacement::new(5, 5).is_ok());
    }

    #[test]
    fn rates_and_affine_constants() {
        let b = Bernoulli::new(0.25).unwrap();
        assert_eq!(b.rate(), 0.25);
        let (u, v, c) = b.sjs_affine();
        assert_eq!(u, 16.0);
        assert_eq!(v, -12.0);
        assert_eq!(c, 0.0);

        let wr = WithReplacement::new(10, 100).unwrap();
        assert_eq!(wr.rate(), 0.1);
        let (u, v, c) = wr.sjs_affine();
        assert!((u - 1.0 / (0.1 * 0.09)).abs() < 1e-12);
        assert_eq!(v, 0.0);
        assert!((c - -(100.0 / 0.09)).abs() < 1e-9);

        let wor = WithoutReplacement::new(10, 100).unwrap();
        let a1 = 9.0 / 99.0;
        let (u, v, c) = wor.sjs_affine();
        assert!((u - 1.0 / (0.1 * a1)).abs() < 1e-12);
        assert_eq!(v, 0.0);
        assert!((c - -((1.0 - a1) / a1 * 100.0)).abs() < 1e-9);
    }

    /// `|a − b|` within `1e-12` of the magnitude of the terms that made
    /// them, so a corrected estimate near zero is held to its parts.
    fn agree(a: f64, b: f64, terms: f64) -> bool {
        (a - b).abs() <= 1e-12 * terms
    }

    proptest! {
        /// The served corrections (`self_join`, `size_of_join`) are the
        /// engine's affine forms (`sjs_affine`, `sj_scale`, `rate`), so the
        /// estimate served and the estimate whose moments the engine
        /// evaluates cannot drift apart.
        #[test]
        fn served_corrections_are_the_engines_affine_forms(
            spread in 1.0f64..1e4,
            raw_join in -1e15f64..1e15,
            kept in 0u64..1 << 40,
            p in 1e-4f64..=1.0,
            q in 1e-4f64..=1.0,
            m in 2u64..1 << 32,
            extra in 0u64..1 << 32,
            other_m in 1u64..1 << 32,
        ) {
            // `Σf′²` lies between `|F′|` (all keys distinct) and `|F′|²`:
            // `spread` times the sample size.
            let b = Bernoulli::new(p).unwrap();
            let bq = Bernoulli::new(q).unwrap();
            let s = spread * kept as f64;
            let (u, v, c) = b.sjs_affine();
            let affine = u * s + v * kept as f64 + c;
            let terms = (u * s).abs() + (v * kept as f64).abs() + c.abs();
            prop_assert!(agree(b.self_join(s, kept), affine, terms));
            let scaled = b.sj_scale(&bq) * raw_join;
            prop_assert!(agree(b.size_of_join(raw_join, &bq), scaled, scaled.abs()));

            // With replacement: m may exceed N, and Σf′ = m.
            let n = (m + extra) / 2 + 1;
            let wr = WithReplacement::new(m, n).unwrap();
            let wr_other = WithReplacement::new(other_m, n).unwrap();
            let s = spread * m as f64;
            let (u, v, c) = wr.sjs_affine();
            let affine = u * s + v * m as f64 + c;
            let terms = (u * s).abs() + (v * m as f64).abs() + c.abs();
            prop_assert!(agree(wr.self_join(s).unwrap(), affine, terms));
            let scaled = wr.sj_scale(&wr_other) * raw_join;
            prop_assert!(agree(wr.size_of_join(raw_join, &wr_other), scaled, scaled.abs()));

            // Without replacement: 2 ≤ m ≤ N.
            let n = m + extra;
            let wor = WithoutReplacement::new(m, n).unwrap();
            let wor_other = WithoutReplacement::new(other_m.min(n), n).unwrap();
            let (u, v, c) = wor.sjs_affine();
            let affine = u * s + v * m as f64 + c;
            let terms = (u * s).abs() + (v * m as f64).abs() + c.abs();
            prop_assert!(agree(wor.self_join(s).unwrap(), affine, terms));
            let scaled = wor.sj_scale(&wor_other) * raw_join;
            prop_assert!(agree(wor.size_of_join(raw_join, &wor_other), scaled, scaled.abs()));
            // A mixed pair (Props 1/9): the scale is the two rates'.
            let scaled = b.sj_scale(&wor) * raw_join;
            prop_assert!(agree(b.size_of_join(raw_join, &wor), scaled, scaled.abs()));
        }
    }

    proptest! {
        /// The sketch variance scalings the served corrections carry, bit
        /// for bit as they are written out — `var/((p·p)·(p·p))`,
        /// `var/(p·p)` and `var/((p·q)·(p·q))` — and each the raw variance
        /// times the square of its estimate's slope in the engine's form
        /// (`u` of [`SamplingScheme::sjs_affine`], `1/p`,
        /// [`SamplingScheme::sj_scale`]).
        #[test]
        fn sketch_variance_scalings_are_the_slopes_squared(
            var in 0.0f64..1e30,
            p in 1e-4f64..=1.0,
            q in 1e-4f64..=1.0,
            m in 2u64..1 << 32,
            extra in 0u64..1 << 32,
        ) {
            let (b, bq) = (Bernoulli::new(p).unwrap(), Bernoulli::new(q).unwrap());
            let sj = b.self_join_sketch_variance(var);
            prop_assert_eq!(sj.to_bits(), (var / ((p * p) * (p * p))).to_bits());
            let (u, _, _) = b.sjs_affine();
            prop_assert!(agree(sj, var * u * u, sj));
            let freq = b.frequency_sketch_variance(var);
            prop_assert_eq!(freq.to_bits(), (var / (p * p)).to_bits());
            prop_assert!(agree(freq, var / p / p, freq));
            let join = b.size_of_join_sketch_variance(var, &bq);
            prop_assert_eq!(join.to_bits(), (var / ((p * q) * (p * q))).to_bits());
            let c = b.sj_scale(&bq);
            prop_assert!(agree(join, var * c * c, join));
            // A fixed-size scheme's rate is its sampling fraction.
            let wor = WithoutReplacement::new(m, m + extra).unwrap();
            let join = wor.size_of_join_sketch_variance(var, &b);
            let (a, c) = (wor.alpha(), wor.sj_scale(&b));
            prop_assert_eq!(join.to_bits(), (var / ((a * p) * (a * p))).to_bits());
            prop_assert!(agree(join, var * c * c, join));
        }
    }

    #[test]
    fn self_join_variance_hand_case() {
        // One key with f = 2, p = 1/2: f′ ∈ {0, 1, 2} with probabilities
        // 1/4, 1/2, 1/4, and the estimate 4f′² − 2f′ takes 0, 2, 12.
        // E = 4 (unbiased: F₂ = 4), E[X²] = 0 + 2 + 36 = 38, Var = 22.
        let v = Bernoulli::new(0.5)
            .unwrap()
            .self_join_variance(2.0, 4.0, 8.0);
        assert!((v - 22.0).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn sampling_variances_vanish_without_sampling() {
        let (full, half) = (Bernoulli::new(1.0).unwrap(), Bernoulli::new(0.5).unwrap());
        assert_eq!(full.self_join_variance(10.0, 40.0, 100.0), 0.0);
        assert_eq!(full.self_join_variance_plugin(10, 40.0), 0.0);
        assert_eq!(full.size_of_join_variance_plugin(&full, 4.0, 9.0, 5.0), 0.0);
        assert_eq!(full.frequency_variance_plugin(1e6), 0.0);
        assert_eq!(full.rank_jitter(0.5, 1000), 0.0);
        assert_eq!(full.distinct(10.0, 1.0, 100), None);
        // An unsampled g side: only the f side's `Σfg²` term survives,
        // `((1−p)/p)·F₂(g)·√F₂(f)` = 1·9·2.
        let v = half.size_of_join_variance_plugin(&full, 4.0, 9.0, 5.0);
        assert!((v - 18.0).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn plugins_upper_bound_the_exact_forms() {
        // Skewed moments: one heavy key dominates, so F₃ ≈ F₂^{3/2}.
        let (f1, f2, f3) = (120.0, 10_000.0 + 20.0 * 20.0, 1_000_000.0 + 8_000.0);
        for p in [0.1, 0.3, 0.7, 0.95] {
            let b = Bernoulli::new(p).unwrap();
            let exact = b.self_join_variance(f1, f2, f3);
            let plug = b.self_join_variance_plugin(f1 as u64, f2);
            assert!(plug >= exact - 1e-9, "p={p}: plug-in {plug} below {exact}");
        }
        // Size of join: the plug-in at the true F₂s and join dominates
        // Eq. 6, as Cauchy–Schwarz promises.
        let f = FrequencyVector::from_counts(vec![0u32, 6, 4, 2, 0]);
        let g = FrequencyVector::from_counts(vec![0u32, 3, 5, 0, 7]);
        let (bf, bg) = (Bernoulli::new(0.4).unwrap(), Bernoulli::new(0.6).unwrap());
        let exact = crate::closed_form::bernoulli_sampling_sj_variance(&f, &g, &bf, &bg).unwrap();
        let plug = bf.size_of_join_variance_plugin(&bg, f.self_join(), g.self_join(), f.dot(&g));
        assert!(plug >= exact, "plug-in {plug} below {exact}");
    }

    #[test]
    fn plugins_are_clamped_nonnegative() {
        // Inconsistent inputs (a tiny F̂₂ against a huge seen count) take
        // the moment form negative below p = 2/3.
        let half = Bernoulli::new(0.5).unwrap();
        assert!(half.self_join_variance(1e6, 1.0, 1.0) < 0.0);
        assert_eq!(half.self_join_variance_plugin(1_000_000, 1.0), 0.0);
        let near_one = Bernoulli::new(0.9).unwrap();
        assert!(near_one.self_join_variance_plugin(1_000_000, 1.0) >= 0.0);
        assert!(half.size_of_join_variance_plugin(&half, -5.0, -5.0, -5.0) >= 0.0);
        // A negative Count-Sketch frequency prices no thinning.
        assert_eq!(half.frequency_variance_plugin(-3.0), 0.0);
        // Nothing sampled, nothing to correct.
        assert_eq!(half.distinct(0.0, 1.0, 100), None);
        assert_eq!(half.distinct(10.0, 1.0, 0), None);
    }

    #[test]
    fn fixed_size_self_joins_refuse_fewer_than_two_tuples() {
        let too_small = Err(Error::SampleTooSmall { got: 1, need: 2 });
        assert_eq!(
            WithReplacement::new(1, 10).unwrap().self_join(4.0),
            too_small
        );
        assert_eq!(
            WithoutReplacement::new(1, 10).unwrap().self_join(4.0),
            too_small
        );
        assert_eq!(
            WithoutReplacement::new(1, 1).unwrap().self_join(4.0),
            too_small
        );
        assert!(WithReplacement::new(2, 10).unwrap().self_join(4.0).is_ok());
    }

    #[test]
    fn wor_kappa_saturates_beyond_population() {
        // population 3, order 4: (3)_4 = 0 in the denominator — κ must be 0.
        let wor = WithoutReplacement::new(2, 3).unwrap();
        assert_eq!(wor.kappa(4), 0.0);
    }

    #[test]
    fn full_wor_sample_has_deterministic_frequencies() {
        // m = N: f′ = f exactly, so E[(f′)_r] = (f)_r, i.e. κ(r) = 1.
        let wor = WithoutReplacement::new(5, 5).unwrap();
        for r in 0..=4u32 {
            if falling_u64(5, r) > 0.0 {
                assert!((wor.kappa(r) - 1.0).abs() < 1e-12, "r = {r}");
            }
        }
    }
}
