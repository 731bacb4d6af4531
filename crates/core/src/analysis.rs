//! The load-shedding planner: exact moments of the Bernoulli shedder.
//!
//! When the true frequency vector is known (experiments, calibration runs,
//! workload planning), [`shedding_self_join`] maps a shedder's
//! configuration onto the `sss-moments` engine and returns the exact
//! mean/variance of its estimate, and [`max_shedding_rate`] answers the
//! paper's headline question: **how aggressive load shedding can be**
//! before the estimate degrades ("the formulas resulting from such an
//! analysis could be used to determine how aggressive the load shedding
//! can be without a significant loss in the accuracy"). The other
//! regimes' moments are one `sss_moments::engine` call each, and
//! `sss_moments::bounds` turns moments into intervals.
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
use sss_moments::engine::{self, Moments};
use sss_moments::freq::FrequencyVector;
use sss_moments::scheme::Bernoulli;

/// Moments of [`crate::Sampled::self_join_estimate`] (over a join sketch) on a stream
/// with true frequencies `f`, shedding probability `p`, over `schema`.
pub fn shedding_self_join(f: &FrequencyVector, p: f64, schema: &JoinSchema) -> Result<Moments> {
    let scheme = Bernoulli::new(p)?;
    Ok(engine::sketch_sample_sjs(
        &scheme,
        f,
        schema.averaging_factor(),
    )?)
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
    use sss_moments::bounds;
    use sss_moments::scheme::{WithReplacement, WithoutReplacement};

    fn schema() -> JoinSchema {
        let mut r = StdRng::seed_from_u64(11);
        JoinSchema::fagms(1, 512, &mut r)
    }

    fn workload() -> FrequencyVector {
        FrequencyVector::from_counts((1..=60u32).collect::<Vec<_>>())
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
        let n = s.averaging_factor();
        let n_pop = f.total() as u64;
        let scan = |m| {
            let wor = WithoutReplacement::new(m, n_pop).unwrap();
            engine::sketch_sample_sjs(&wor, &f, n).unwrap().variance
        };
        let (v_scan_10, v_scan_full) = (scan(n_pop / 10), scan(n_pop));
        let pure = engine::sketch_sjs(&f, n).variance;
        assert!(v_scan_10 > v_scan_full);
        assert!((v_scan_full - pure).abs() < 1e-6 * pure);
        // WOR beats WR at the same sample size (finite-population benefit).
        let wr = WithReplacement::new(n_pop / 10, n_pop).unwrap();
        let v_wr = engine::sketch_sample_sjs(&wr, &f, n).unwrap().variance;
        assert!(v_wr > v_scan_10);
    }

    #[test]
    fn confidence_intervals_nest_by_confidence() {
        let m = Moments {
            mean: 1000.0,
            variance: 100.0,
        };
        let c90 = bounds::normal(1000.0, &m, 0.90);
        let c99 = bounds::normal(1000.0, &m, 0.99);
        assert!(c99.half_width() > c90.half_width());
        assert!(c99.low <= c90.low && c90.high <= c99.high);
        assert!(c99.contains(1000.0));
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
