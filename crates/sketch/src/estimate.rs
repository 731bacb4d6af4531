//! Combining basic estimators: means, medians, medians of means — and the
//! typed [`Estimate`] those combinations produce.
//!
//! A single AGMS counter gives an unbiased but high-variance basic
//! estimator. Averaging `n` independent basics divides the variance by `n`
//! (Section IV of the paper); taking the median of several independent
//! averages then converts the Chebyshev bound into an exponentially small
//! failure probability (the classic AMS boosting). F-AGMS rows are *not*
//! averaged — each row is already an implicit average over its buckets, and
//! rows are combined by median because a row estimate is not guaranteed to
//! concentrate symmetrically.
//!
//! [`Estimate`] carries the combined value together with the per-lane basic
//! estimates it was combined from and an empirical variance of the combined
//! value, so every query path can report Chebyshev and CLT error bars at
//! query time without knowing the true frequency vectors.

use sss_moments::bounds::{self, ConfidenceInterval};
use sss_moments::Moments;

/// Arithmetic mean of the basic estimates. Empty input returns 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of the basic estimates (average of the two middles for even
/// lengths). Empty input returns 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    median_in_place(&mut v)
}

/// Allocation-free variant of [`median`]: reorders `values` in place. Hot
/// query paths (per-tuple point queries) use this on a stack buffer, so
/// the common small depths take comparison networks instead of a sort;
/// the returned value (the multiset middle) is identical either way.
pub(crate) fn median_in_place(values: &mut [f64]) -> f64 {
    #[inline]
    fn order(v: &mut [f64], i: usize, j: usize) {
        if v[i] > v[j] {
            v.swap(i, j);
        }
    }
    match values.len() {
        0 => 0.0,
        1 => values[0],
        3 => {
            order(values, 0, 1);
            order(values, 1, 2);
            order(values, 0, 1);
            values[1]
        }
        5 => {
            // Sort the first four, then slot the fifth into the middle:
            // the median of five is max(v1, min(v2, v4)).
            order(values, 0, 1);
            order(values, 2, 3);
            order(values, 0, 2);
            order(values, 1, 3);
            order(values, 1, 2);
            let low = values[1];
            let high = values[2];
            let e = values[4];
            if e <= low {
                low
            } else if e >= high {
                high
            } else {
                e
            }
        }
        len => {
            // Total order on f64: estimates are finite by construction.
            values.sort_by(|a, b| a.partial_cmp(b).expect("sketch estimates must not be NaN"));
            let mid = len / 2;
            if len % 2 == 1 {
                values[mid]
            } else {
                (values[mid - 1] + values[mid]) / 2.0
            }
        }
    }
}

/// Median of means: partition `values` into `groups` contiguous groups,
/// average within each, then take the median across groups.
///
/// `groups` is clamped to `1..=values.len()`. When the length is not a
/// multiple of `groups` the remainder is distributed one extra element per
/// group from the front, so group sizes differ by at most one and no group
/// mean is systematically heavier than the others.
pub fn median_of_means(values: &[f64], groups: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let groups = groups.clamp(1, values.len());
    let per = values.len() / groups;
    let rem = values.len() % groups;
    let mut means = Vec::with_capacity(groups);
    let mut start = 0;
    for g in 0..groups {
        let size = per + usize::from(g < rem);
        means.push(mean(&values[start..start + size]));
        start += size;
    }
    debug_assert_eq!(start, values.len());
    median(&means)
}

/// Unbiased sample variance (the `n − 1` denominator) of the basic
/// estimates. Fewer than two values carry no spread information, so the
/// variance is reported as `f64::INFINITY` — callers substitute an analytic
/// plug-in bound in that case.
pub fn sample_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Variance of the median of `n` iid estimators relative to one
/// estimator's variance σ².
///
/// For `n ≥ 3` this is the asymptotic normal-median factor `π / (2n)`,
/// which over-estimates the exact normal order-statistic variance at every
/// finite `n` (e.g. exact ≈ 0.449σ² vs π/6 ≈ 0.524σ² at n = 3) — the error
/// bars err on the conservative side. The median of two is their mean, so
/// `n = 2` gets the exact factor 1/2. A single estimator has undefined
/// empirical spread; the factor is 1 and the caller's `sample_variance`
/// (infinite for one value) drives the fallback.
fn median_variance_factor(n: usize) -> f64 {
    match n {
        0 | 1 => 1.0,
        2 => 0.5,
        n => std::f64::consts::PI / (2.0 * n as f64),
    }
}

/// A query answer with error state: the combined point estimate, the
/// per-lane basic estimates it was combined from, and an empirical variance
/// of the combined value.
///
/// `value` is always produced by the exact legacy combining path
/// ([`mean`]/[`median`]/backend-specific), never re-derived from `basics`
/// through a different expression — the scalar query methods and the
/// `*_estimate` methods return bit-identical values.
///
/// The variance is *empirical*: the spread across a sketch's independent
/// lanes, plus (for sampled streams) an analytic plug-in for the sampling
/// noise that is shared by all lanes and therefore invisible to the
/// cross-lane spread (the paper's Prop. 13/14 covariance caveat). For exact
/// a-priori error analysis from known frequency vectors use
/// `sss_moments::engine` instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The point estimate — bit-identical to the corresponding scalar query.
    pub value: f64,
    /// Empirical variance of `value`. `f64::INFINITY` when the estimator
    /// carries no spread information (single lane, no analytic fallback).
    pub variance: f64,
    /// The independent per-lane basic estimates `value` was combined from
    /// (one per AGMS counter or F-AGMS row). Empty for estimates without
    /// lane structure (a HyperLogLog count, a top-k frequency).
    pub basics: Vec<f64>,
}

impl Estimate {
    /// An estimate with no error state: infinite variance, no basics — what
    /// an implementation that carries no error model reports.
    pub fn point(value: f64) -> Self {
        Estimate {
            value,
            variance: f64::INFINITY,
            basics: Vec::new(),
        }
    }

    /// Combine independent basics by arithmetic mean (AGMS semantics).
    ///
    /// `value = mean(basics)` and the variance of the mean is the sample
    /// variance divided by the number of lanes.
    pub fn from_mean(basics: Vec<f64>) -> Self {
        let value = mean(&basics);
        let variance = if basics.is_empty() {
            f64::INFINITY
        } else {
            sample_variance(&basics) / basics.len() as f64
        };
        Estimate {
            value,
            variance,
            basics,
        }
    }

    /// Combine independent basics by median (F-AGMS row semantics).
    ///
    /// `value = median(basics)`; the variance applies the (conservative)
    /// normal-median factor to the lanes' sample variance — `π/(2n)` for
    /// `n ≥ 3` rows, exactly 1/2 for two rows (their median is their mean).
    pub fn from_median(basics: Vec<f64>) -> Self {
        let value = median(&basics);
        let variance = sample_variance(&basics) * median_variance_factor(basics.len());
        Estimate {
            value,
            variance,
            basics,
        }
    }

    /// Add an independent variance contribution (e.g. sampling noise shared
    /// across lanes, which the cross-lane spread cannot see).
    #[must_use]
    pub fn plus_variance(mut self, extra: f64) -> Self {
        self.variance += extra;
        self
    }

    /// Replace a non-finite empirical variance with an analytic plug-in
    /// bound, `fallback(value)`. Leaves finite variances untouched, and
    /// then never computes the bound.
    #[must_use]
    pub fn or_variance(mut self, fallback: impl FnOnce(f64) -> f64) -> Self {
        if !self.variance.is_finite() {
            self.variance = fallback(self.value);
        }
        self
    }

    /// View as `sss_moments::Moments` for interoperability with the exact
    /// error-analysis machinery.
    pub fn moments(&self) -> Moments {
        Moments {
            mean: self.value,
            variance: self.variance,
        }
    }

    /// Distribution-free Chebyshev interval around `value` at the given
    /// confidence level in `(0, 1)`: valid for any estimator with the
    /// reported variance, `k = 1/√(1 − confidence)` standard errors wide.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfidence`](crate::Error::InvalidConfidence) if
    /// `confidence` is outside the open interval `(0, 1)` or NaN — this is
    /// the public query path, so out-of-range levels are a typed error,
    /// not a panic.
    pub fn chebyshev(&self, confidence: f64) -> crate::Result<ConfidenceInterval> {
        let m = self.checked_moments(confidence)?;
        Ok(bounds::chebyshev(self.value, &m, confidence))
    }

    /// Central-limit-theorem normal interval around `value`: tight
    /// (`z ≈ 1.96` at 95%) but relies on the combined estimator being
    /// approximately Gaussian, which holds when many independent basics
    /// are averaged or medianed.
    ///
    /// # Errors
    ///
    /// Same contract as [`Estimate::chebyshev`].
    pub fn clt(&self, confidence: f64) -> crate::Result<ConfidenceInterval> {
        let m = self.checked_moments(confidence)?;
        Ok(bounds::normal(self.value, &m, confidence))
    }

    /// [`Estimate::moments`], once `confidence` is checked to lie in `(0, 1)`.
    fn checked_moments(&self, confidence: f64) -> crate::Result<Moments> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(crate::Error::InvalidConfidence(confidence));
        }
        Ok(self.moments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[4.0]), 4.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_is_robust_to_outliers() {
        let v = [1.0, 1.0, 1.0, 1.0, 1e12];
        assert_eq!(median(&v), 1.0);
        assert!(mean(&v) > 1e11);
    }

    #[test]
    fn median_of_means_degenerate_groupings() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        // One group = plain mean.
        assert_eq!(median_of_means(&v, 1), 3.5);
        // As many groups as values = plain median.
        assert_eq!(median_of_means(&v, 6), median(&v));
        // Requesting more groups than values clamps.
        assert_eq!(median_of_means(&v, 100), median(&v));
        assert_eq!(median_of_means(&[], 4), 0.0);
    }

    #[test]
    fn median_of_means_balances_uneven_splits() {
        // 7 values, 3 groups -> sizes 3, 2, 2 (remainder spread from the
        // front), never 2, 2, 3 with a double-weight last group.
        let v = [0.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0];
        let expect = median(&[2.0, 6.5, 8.5]);
        assert_eq!(median_of_means(&v, 3), expect);
    }

    #[test]
    fn median_of_means_group_sizes_differ_by_at_most_one() {
        // 10 values, 4 groups -> sizes 3, 3, 2, 2.
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        let expect = median(&[1.0, 4.0, 6.5, 8.5]);
        assert_eq!(median_of_means(&v, 4), expect);
        // 5 values, 3 groups -> sizes 2, 2, 1.
        let v = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(median_of_means(&v, 3), median(&[2.0, 6.0, 9.0]));
    }

    #[test]
    fn sample_variance_matches_hand_computation() {
        assert!(sample_variance(&[]).is_infinite());
        assert!(sample_variance(&[4.0]).is_infinite());
        assert_eq!(sample_variance(&[1.0, 3.0]), 2.0);
        // mean 5, squared deviations 9+1+1+9 = 20, / 3.
        let v = [2.0, 4.0, 6.0, 8.0];
        assert!((sample_variance(&v) - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_from_mean_matches_scalar_combiners() {
        let basics = vec![2.0, 4.0, 6.0, 8.0];
        let e = Estimate::from_mean(basics.clone());
        assert_eq!(e.value.to_bits(), mean(&basics).to_bits());
        assert!((e.variance - (20.0 / 3.0) / 4.0).abs() < 1e-12);
        assert_eq!(e.basics, basics);
    }

    #[test]
    fn estimate_from_median_matches_scalar_combiners() {
        let basics = vec![1.0, 9.0, 5.0];
        let e = Estimate::from_median(basics.clone());
        assert_eq!(e.value.to_bits(), median(&basics).to_bits());
        let expect = sample_variance(&basics) * std::f64::consts::PI / 6.0;
        assert!((e.variance - expect).abs() < 1e-12);
        // Median of two is their mean: exact factor 1/2.
        let pair = Estimate::from_median(vec![2.0, 6.0]);
        assert_eq!(pair.value, 4.0);
        assert_eq!(pair.variance, sample_variance(&[2.0, 6.0]) / 2.0);
    }

    #[test]
    fn single_lane_estimates_fall_back_to_plugin_variance() {
        let e = Estimate::from_mean(vec![7.0]);
        assert_eq!(e.value, 7.0);
        assert!(e.variance.is_infinite());
        let e = e.or_variance(|v| v + 5.5);
        assert_eq!(e.variance, 12.5);
        // A finite empirical variance is not overridden, and the plug-in
        // is not computed.
        let kept = Estimate::from_mean(vec![1.0, 2.0]).or_variance(|_| unreachable!());
        assert_eq!(kept.variance, 0.25);
    }

    #[test]
    fn intervals_center_on_value_and_chebyshev_is_wider() {
        let e = Estimate {
            value: 100.0,
            variance: 25.0,
            basics: vec![],
        };
        let clt = e.clt(0.95).unwrap();
        let cheb = e.chebyshev(0.95).unwrap();
        assert!(clt.contains(100.0) && cheb.contains(100.0));
        // z(95%) ≈ 1.96 vs k = 1/√0.05 ≈ 4.47 standard errors.
        assert!((clt.half_width() - 1.96 * 5.0).abs() < 0.05);
        assert!((cheb.half_width() - 4.4721 * 5.0).abs() < 0.01);
        assert!(cheb.half_width() > clt.half_width());
    }

    #[test]
    fn point_estimates_have_infinite_error_bars() {
        let e = Estimate::point(42.0);
        assert_eq!(e.value, 42.0);
        assert!(e.variance.is_infinite());
        assert!(e.basics.is_empty());
        assert!(e.chebyshev(0.95).unwrap().half_width().is_infinite());
    }

    #[test]
    fn out_of_range_levels_are_typed_errors_not_panics() {
        let e = Estimate {
            value: 1.0,
            variance: 1.0,
            basics: vec![],
        };
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            for got in [e.chebyshev(bad), e.clt(bad)] {
                let err = got.unwrap_err();
                assert!(matches!(err, crate::Error::InvalidConfidence(_)), "{bad}");
            }
        }
        assert!(e.chebyshev(0.5).is_ok() && e.clt(0.5).is_ok());
    }

    #[test]
    fn plus_variance_accumulates_independent_noise_terms() {
        let e = Estimate::from_mean(vec![1.0, 3.0]).plus_variance(10.0);
        // sample variance 2 / n 2 = 1, plus 10.
        assert!((e.variance - 11.0).abs() < 1e-12);
    }
}
