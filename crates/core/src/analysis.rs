//! Error analysis for the drivers: exact moments and confidence intervals.
//!
//! When the true frequency vectors are known (experiments, calibration
//! runs, workload planning), these helpers map a driver configuration onto
//! the `sss-moments` engine and return the exact mean/variance of its
//! estimates — including the paper's headline use case: deciding **how
//! aggressive load shedding can be** before the estimate degrades
//! ("the formulas resulting from such an analysis could be used to
//! determine how aggressive the load shedding can be without a significant
//! loss in the accuracy").
//!
//! These are the *exact* counterparts to the empirical error bars of the
//! typed query path: when the frequencies are **not** known, the
//! `*_estimate()` methods (e.g.
//! [`crate::JoinQuery::self_join_estimate`]) return an
//! [`crate::Estimate`] whose variance is measured from the estimator's own
//! independent lanes plus a conservative sampling plug-in — see
//! `docs/THEORY.md` §"Empirical error bars".

use crate::error::Result;
use crate::sketch::JoinSchema;
use sss_moments::bounds::{self, ConfidenceInterval};
use sss_moments::engine::{self, Moments};
use sss_moments::freq::FrequencyVector;
use sss_moments::scheme::{Bernoulli, WithReplacement, WithoutReplacement};

/// Moments of [`crate::Sampled::self_join`] (over a join sketch) on a stream
/// with
/// true frequencies `f`, shedding probability `p`, over `schema`.
pub fn shedding_self_join(f: &FrequencyVector, p: f64, schema: &JoinSchema) -> Result<Moments> {
    let scheme = Bernoulli::new(p)?;
    Ok(engine::sketch_sample_sjs(
        &scheme,
        f,
        schema.averaging_factor(),
    )?)
}

/// Moments of [`crate::Sampled::size_of_join`] for streams
/// with true frequencies `f`, `g` and shedding probabilities `p`, `q`.
pub fn shedding_size_of_join(
    f: &FrequencyVector,
    g: &FrequencyVector,
    p: f64,
    q: f64,
    schema: &JoinSchema,
) -> Result<Moments> {
    let sp = Bernoulli::new(p)?;
    let sq = Bernoulli::new(q)?;
    Ok(engine::sketch_sample_sj(
        &sp,
        f,
        &sq,
        g,
        schema.averaging_factor(),
    )?)
}

/// Moments of [`crate::IidStreamSketcher::self_join`] after observing `m`
/// tuples from a population with true frequencies `f`.
pub fn iid_self_join(f: &FrequencyVector, m: u64, schema: &JoinSchema) -> Result<Moments> {
    let scheme = WithReplacement::new(m, f.total() as u64)?;
    Ok(engine::sketch_sample_sjs(
        &scheme,
        f,
        schema.averaging_factor(),
    )?)
}

/// Moments of [`crate::IidStreamSketcher::size_of_join`] after observing
/// `m_f` and `m_g` tuples of the two streams.
pub fn iid_size_of_join(
    f: &FrequencyVector,
    g: &FrequencyVector,
    m_f: u64,
    m_g: u64,
    schema: &JoinSchema,
) -> Result<Moments> {
    let sf = WithReplacement::new(m_f, f.total() as u64)?;
    let sg = WithReplacement::new(m_g, g.total() as u64)?;
    Ok(engine::sketch_sample_sj(
        &sf,
        f,
        &sg,
        g,
        schema.averaging_factor(),
    )?)
}

/// Moments of [`crate::ScanSketcher::self_join`] after scanning `m` of the
/// relation's tuples.
pub fn scan_self_join(f: &FrequencyVector, m: u64, schema: &JoinSchema) -> Result<Moments> {
    let scheme = WithoutReplacement::new(m, f.total() as u64)?;
    Ok(engine::sketch_sample_sjs(
        &scheme,
        f,
        schema.averaging_factor(),
    )?)
}

/// Moments of [`crate::ScanSketcher::size_of_join`] after scanning `m_f`
/// and `m_g` tuples of the two relations.
pub fn scan_size_of_join(
    f: &FrequencyVector,
    g: &FrequencyVector,
    m_f: u64,
    m_g: u64,
    schema: &JoinSchema,
) -> Result<Moments> {
    let sf = WithoutReplacement::new(m_f, f.total() as u64)?;
    let sg = WithoutReplacement::new(m_g, g.total() as u64)?;
    Ok(engine::sketch_sample_sj(
        &sf,
        f,
        &sg,
        g,
        schema.averaging_factor(),
    )?)
}

/// The interval-construction method for [`confidence_interval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Distribution-independent (Chebyshev) — conservative.
    Chebyshev,
    /// CLT/normal — appropriate when many basics are averaged.
    Normal,
}

/// Build a confidence interval around `estimate` from exact `moments`.
pub fn confidence_interval(
    estimate: f64,
    moments: &Moments,
    confidence: f64,
    kind: BoundKind,
) -> ConfidenceInterval {
    match kind {
        BoundKind::Chebyshev => bounds::chebyshev(estimate, moments, confidence),
        BoundKind::Normal => bounds::normal(estimate, moments, confidence),
    }
}

/// The smallest Bernoulli probability (among the candidates tried) whose
/// combined-estimator standard error stays within `target_rel_error` of the
/// true self-join size — the paper's "how aggressive can the load shedding
/// be" planning question, answered analytically.
///
/// Scans `p` over a coarse log grid from 10⁻⁴ to 1. Returns `None` if even
/// `p = 1` misses the target (the sketch itself is too small).
pub fn max_shedding_rate(
    f: &FrequencyVector,
    schema: &JoinSchema,
    target_rel_error: f64,
) -> Option<f64> {
    let truth = f.self_join();
    let grid = [
        1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0,
    ];
    for &p in grid.iter() {
        if let Ok(m) = shedding_self_join(f, p, schema) {
            if m.relative_error(truth) <= target_rel_error {
                return Some(p);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> JoinSchema {
        let mut r = StdRng::seed_from_u64(11);
        JoinSchema::fagms(1, 512, &mut r)
    }

    fn workload() -> FrequencyVector {
        FrequencyVector::from_counts((1..=60u32).collect::<Vec<_>>())
    }

    #[test]
    fn all_driver_moments_are_unbiased() {
        let f = workload();
        let g = FrequencyVector::from_counts((1..=60u32).rev().collect::<Vec<_>>());
        let s = schema();
        let truth_sjs = f.self_join();
        let truth_sj = f.dot(&g);
        assert!((shedding_self_join(&f, 0.2, &s).unwrap().mean - truth_sjs).abs() < 1e-6);
        assert!(
            (shedding_size_of_join(&f, &g, 0.2, 0.7, &s).unwrap().mean - truth_sj).abs() < 1e-6
        );
        assert!((iid_self_join(&f, 100, &s).unwrap().mean - truth_sjs).abs() < 1e-6);
        assert!((iid_size_of_join(&f, &g, 100, 80, &s).unwrap().mean - truth_sj).abs() < 1e-6);
        assert!((scan_self_join(&f, 100, &s).unwrap().mean - truth_sjs).abs() < 1e-6);
        assert!((scan_size_of_join(&f, &g, 100, 80, &s).unwrap().mean - truth_sj).abs() < 1e-6);
    }

    #[test]
    fn variance_orderings_follow_the_theory() {
        let f = workload();
        let s = schema();
        // Lower shedding probability → higher variance.
        let v_01 = shedding_self_join(&f, 0.1, &s).unwrap().variance;
        let v_05 = shedding_self_join(&f, 0.5, &s).unwrap().variance;
        let v_10 = shedding_self_join(&f, 1.0, &s).unwrap().variance;
        assert!(v_01 > v_05 && v_05 > v_10);
        // Longer scan → lower variance; full scan = pure sketch.
        let n_pop = f.total() as u64;
        let v_scan_10 = scan_self_join(&f, n_pop / 10, &s).unwrap().variance;
        let v_scan_full = scan_self_join(&f, n_pop, &s).unwrap().variance;
        assert!(v_scan_10 > v_scan_full);
        // WOR beats WR at the same sample size (finite-population benefit).
        let v_wr = iid_self_join(&f, n_pop / 10, &s).unwrap().variance;
        assert!(v_wr > v_scan_10);
    }

    #[test]
    fn confidence_intervals_nest_by_confidence() {
        let m = Moments {
            mean: 1000.0,
            variance: 100.0,
        };
        let c90 = confidence_interval(1000.0, &m, 0.90, BoundKind::Normal);
        let c99 = confidence_interval(1000.0, &m, 0.99, BoundKind::Normal);
        assert!(c99.half_width() > c90.half_width());
        assert!(c99.contains(1000.0));
        let ch = confidence_interval(1000.0, &m, 0.90, BoundKind::Chebyshev);
        assert!(ch.half_width() > c90.half_width());
    }

    #[test]
    fn shedding_planner_finds_a_rate() {
        let f = FrequencyVector::from_counts(vec![100u32; 200]);
        let mut r = StdRng::seed_from_u64(12);
        let big = JoinSchema::fagms(1, 5000, &mut r);
        // A generous 10% target should be achievable with aggressive
        // shedding on this workload.
        let p = max_shedding_rate(&f, &big, 0.10).expect("a rate must exist");
        assert!(p < 1.0, "shedding should be possible, got p = {p}");
        // An impossible target (essentially zero error) yields None.
        assert_eq!(max_shedding_rate(&f, &big, 1e-9), None);
    }
}
