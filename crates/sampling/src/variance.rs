//! Sampling-only variance of the Bernoulli estimators, evaluated at query
//! time from quantities the estimator itself knows.
//!
//! The shedders correct a sketch built over a `Bernoulli(p)` sample back to
//! an unbiased estimate for the full stream (Props. 13/14 of the paper).
//! Because every basic sketch estimator sees the *same* sample, the
//! sampling noise is perfectly correlated across lanes: the cross-lane
//! sample variance measures only the sketch noise, and the sampling term
//! must be added separately and **not** divided by the number of lanes.
//! This module provides that term.
//!
//! Two layers:
//!
//! * the *exact* closed forms ([`bernoulli_self_join_variance`],
//!   [`bernoulli_size_of_join_variance`]), which take true frequency
//!   moments — derived from the binomial factorial moments
//!   `E[(f′)_r] = (f)_r · pʳ` and matching `sss_moments::engine` (Eq. 6/7
//!   specialised to sampling without sketching);
//! * the *plug-in* forms (`*_plugin`), which bound the unknown moments by
//!   quantities observable at query time: `F₁` is the exact tuple count the
//!   shedder saw, `F₂` is the estimator's own (corrected) self-join
//!   estimate, and `F₃ ≤ F₂^{3/2}` (power-mean inequality ‖f‖₃ ≤ ‖f‖₂).
//!   The plug-ins are conservative — tight for skewed, heavy-hitter
//!   dominated frequency vectors, loose for near-uniform ones.

/// Exact sampling-only variance of the Prop.-14 self-join estimator
/// `F̂₂ = F₂(f′)/p² − (1−p)/p² · |sample|` under `Bernoulli(p)` sampling of
/// a stream with frequency moments `F₁ = Σfᵢ`, `F₂ = Σfᵢ²`, `F₃ = Σfᵢ³`.
///
/// With `q = 1 − p`:
///
/// ```text
/// Var = (4q/p)·F₃ + (2q(1 − 3p)/p²)·F₂ + (q(3p − 2)/p²)·F₁
/// ```
///
/// At `p = 1` the sample is the stream and the variance is 0.
pub fn bernoulli_self_join_variance(p: f64, f1: f64, f2: f64, f3: f64) -> f64 {
    let q = 1.0 - p;
    let p2 = p * p;
    (4.0 * q / p) * f3 + (2.0 * q * (1.0 - 3.0 * p) / p2) * f2 + (q * (3.0 * p - 2.0) / p2) * f1
}

/// Conservative plug-in for [`bernoulli_self_join_variance`] from
/// query-time observables: the exact sample-universe tuple count `seen`
/// (= F₁), and the estimator's own self-join estimate `f2_hat` (= F̂₂,
/// clamped at 0). `F₃` is bounded by `F₂^{3/2}`.
///
/// The result is clamped at 0 — the exact form can go slightly negative
/// when the plugged-in moments are inconsistent (e.g. a noisy `f2_hat`
/// below `F₁`).
pub fn bernoulli_self_join_variance_plugin(p: f64, seen: u64, f2_hat: f64) -> f64 {
    let f2 = f2_hat.max(0.0);
    let f3 = f2.powf(1.5);
    bernoulli_self_join_variance(p, seen as f64, f2, f3).max(0.0)
}

/// Exact sampling-only variance of the per-key frequency estimator
/// `f̂ = f′/p` under `Bernoulli(p)` sampling of a key with true frequency
/// `f`.
///
/// `f′ ~ Binomial(f, p)`, so `Var(f′) = f·p·(1−p)` and
///
/// ```text
/// Var(f̂) = Var(f′)/p² = f·(1−p)/p
/// ```
///
/// This is the sampling term the heavy-hitter summaries add on top of
/// their own sketch/counter error when reporting a `topk` answer over a
/// shedded stream. At `p = 1` the sample is the stream and the variance
/// is 0.
pub fn bernoulli_frequency_variance(p: f64, f: f64) -> f64 {
    f * (1.0 - p) / p
}

/// Plug-in for [`bernoulli_frequency_variance`] from the query-time
/// observable: the corrected frequency estimate `f_hat` (= f̂ = f′/p)
/// itself, which is unbiased for the unknown `f`. Clamped at 0 so a
/// negative Count-Sketch estimate cannot produce a negative variance.
pub fn bernoulli_frequency_variance_plugin(p: f64, f_hat: f64) -> f64 {
    bernoulli_frequency_variance(p, f_hat.max(0.0)).max(0.0)
}

/// Exact sampling-only variance of the Prop.-13 size-of-join estimator
/// `Σfᵢ′gᵢ′/(p_f·p_g)` for independent `Bernoulli(p_f)` / `Bernoulli(p_g)`
/// samples of streams with frequencies `f`, `g`:
///
/// ```text
/// Var = ((1−p_g)/p_g)·Σfᵢ²gᵢ + ((1−p_f)/p_f)·Σfᵢgᵢ²
///     + ((1−p_f)(1−p_g)/(p_f·p_g))·Σfᵢgᵢ
/// ```
///
/// Either rate at 1 zeroes that side's terms (an unsampled side adds no
/// sampling noise).
pub fn bernoulli_size_of_join_variance(
    pf: f64,
    pg: f64,
    sum_f2g: f64,
    sum_fg2: f64,
    sum_fg: f64,
) -> f64 {
    let qf = 1.0 - pf;
    let qg = 1.0 - pg;
    (qg / pg) * sum_f2g + (qf / pf) * sum_fg2 + (qf * qg / (pf * pg)) * sum_fg
}

/// Conservative plug-in for [`bernoulli_size_of_join_variance`] from
/// query-time observables: each side's self-join estimate (`f2_f_hat`,
/// `f2_g_hat` — the F̂₂ of the *full* streams) and the size-of-join
/// estimate itself (`fg_hat` = Σf̂ᵢgᵢ).
///
/// The mixed moments are bounded via Cauchy–Schwarz and `F₄ ≤ F₂²`:
/// `Σf²g ≤ √(F₄(f)·F₂(g)) ≤ F₂(f)·√F₂(g)` and symmetrically for `Σfg²`.
/// Clamped at 0.
pub fn bernoulli_size_of_join_variance_plugin(
    pf: f64,
    pg: f64,
    f2_f_hat: f64,
    f2_g_hat: f64,
    fg_hat: f64,
) -> f64 {
    let f2f = f2_f_hat.max(0.0);
    let f2g = f2_g_hat.max(0.0);
    let sum_f2g = f2f * f2g.sqrt();
    let sum_fg2 = f2g * f2f.sqrt();
    bernoulli_size_of_join_variance(pf, pg, sum_f2g, sum_fg2, fg_hat.max(0.0)).max(0.0)
}

/// Heuristic variance inflation for a *stale* read replica: the extra
/// uncertainty in an F₂-style estimate `value` that was read when
/// `applied` tuples had been absorbed, queried after `pending` more tuples
/// have arrived but not yet been reflected in the replica.
///
/// Model: frequencies scale roughly linearly with stream length, so F₂
/// scales quadratically — by the time the pending tuples are absorbed the
/// true answer has drifted to `≈ value·(1 + pending/applied)²`. The drift
///
/// ```text
/// value · ((1 + pending/applied)² − 1)
/// ```
///
/// is treated as one standard deviation of staleness error and returned as
/// a variance (its square). This is an honest *model* term, not a
/// closed-form moment: real streams drift slower (repeated keys) or faster
/// (novel keys) than homogeneous scaling, and the replica cannot tell
/// which without the data it does not have. Zero when nothing is pending
/// or nothing was applied (an empty replica has infinite-variance
/// estimates anyway).
pub fn staleness_variance_plugin(value: f64, applied: u64, pending: u64) -> f64 {
    if pending == 0 || applied == 0 {
        return 0.0;
    }
    let growth = 1.0 + pending as f64 / applied as f64;
    let drift = value.abs() * (growth * growth - 1.0);
    drift * drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sss_exact::ExactAggregator;
    use sss_moments::scheme::{Bernoulli, SamplingScheme};

    #[test]
    fn self_join_variance_hand_case() {
        // Single key with f = 2, p = 1/2. f′ ∈ {0,1,2} with probs
        // 1/4, 1/2, 1/4; estimate = 4f′² − 2f′ takes values 0, 2, 12.
        // E = 4 (unbiased: F₂ = 4), E[X²] = 0 + 2 + 36 = 38, Var = 22.
        let v = bernoulli_self_join_variance(0.5, 2.0, 4.0, 8.0);
        assert!((v - 22.0).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn variances_vanish_without_sampling() {
        assert_eq!(bernoulli_self_join_variance(1.0, 10.0, 40.0, 100.0), 0.0);
        assert_eq!(
            bernoulli_size_of_join_variance(1.0, 1.0, 5.0, 6.0, 7.0),
            0.0
        );
        // Unsampled g side: only the f-side term survives.
        let v = bernoulli_size_of_join_variance(0.5, 1.0, 5.0, 6.0, 7.0);
        assert!((v - 6.0).abs() < 1e-12);
    }

    /// Monte-Carlo check of the exact self-join closed form against the
    /// empirical variance of the Prop.-14 estimator.
    #[test]
    fn self_join_variance_matches_monte_carlo() {
        let freqs: &[(u64, u64)] = &[(1, 9), (2, 5), (3, 3), (4, 1)];
        let p = 0.4;
        let f1: f64 = freqs.iter().map(|&(_, f)| f as f64).sum();
        let f2: f64 = freqs.iter().map(|&(_, f)| (f * f) as f64).sum();
        let f3: f64 = freqs.iter().map(|&(_, f)| (f * f * f) as f64).sum();
        let exact = bernoulli_self_join_variance(p, f1, f2, f3);

        let scheme = Bernoulli::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let reps = 8_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..reps {
            let kept = freqs.iter().flat_map(|&(k, f)| {
                (0..f)
                    .filter(|_| rng.random::<f64>() < p)
                    .map(move |_| k)
                    .collect::<Vec<_>>()
            });
            let sample = ExactAggregator::from_keys(kept);
            let est = scheme.self_join(sample.self_join(), sample.total() as u64);
            s += est;
            s2 += est * est;
        }
        let mean = s / reps as f64;
        let var = s2 / reps as f64 - mean * mean;
        assert!((mean - f2).abs() / f2 < 0.02, "biased: {mean} vs {f2}");
        assert!(
            (var - exact).abs() / exact < 0.15,
            "variance {var} vs exact {exact}"
        );
    }

    /// Monte-Carlo check of the exact size-of-join closed form with
    /// independently sampled sides at different rates.
    #[test]
    fn size_of_join_variance_matches_monte_carlo() {
        let f: &[(u64, u64)] = &[(1, 6), (2, 4), (3, 2)];
        let g: &[(u64, u64)] = &[(1, 3), (2, 5), (4, 7)];
        let (pf, pg) = (0.5, 0.3);
        let moment = |a: &[(u64, u64)], b: &[(u64, u64)], ea: u32, eb: u32| -> f64 {
            a.iter()
                .map(|&(k, fa)| {
                    let fb = b.iter().find(|&&(kb, _)| kb == k).map_or(0, |&(_, v)| v);
                    (fa as f64).powi(ea as i32) * (fb as f64).powi(eb as i32)
                })
                .sum()
        };
        let exact = bernoulli_size_of_join_variance(
            pf,
            pg,
            moment(f, g, 2, 1),
            moment(f, g, 1, 2),
            moment(f, g, 1, 1),
        );
        let truth = moment(f, g, 1, 1);

        let schemes = (Bernoulli::new(pf).unwrap(), Bernoulli::new(pg).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        let reps = 15_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..reps {
            let draw = |freqs: &[(u64, u64)], p: f64, rng: &mut StdRng| {
                ExactAggregator::from_keys(freqs.iter().flat_map(|&(k, cnt)| {
                    (0..cnt)
                        .filter(|_| rng.random::<f64>() < p)
                        .map(move |_| k)
                        .collect::<Vec<_>>()
                }))
            };
            let sf = draw(f, pf, &mut rng);
            let sg = draw(g, pg, &mut rng);
            let est = schemes.0.size_of_join(sf.join(&sg), &schemes.1);
            s += est;
            s2 += est * est;
        }
        let mean = s / reps as f64;
        let var = s2 / reps as f64 - mean * mean;
        assert!((mean - truth).abs() / truth < 0.03, "biased: {mean}");
        assert!(
            (var - exact).abs() / exact < 0.15,
            "variance {var} vs exact {exact}"
        );
    }

    /// Monte-Carlo check of the frequency variance: sample a key with a
    /// known frequency repeatedly; `f′/p` must be unbiased with empirical
    /// variance matching `f(1−p)/p`.
    #[test]
    fn frequency_variance_matches_monte_carlo() {
        let f = 200u64;
        let p = 0.3;
        let exact = bernoulli_frequency_variance(p, f as f64);
        let mut rng = StdRng::seed_from_u64(23);
        let reps = 20_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..reps {
            let kept = (0..f).filter(|_| rng.random::<f64>() < p).count() as f64;
            let est = kept / p;
            s += est;
            s2 += est * est;
        }
        let mean = s / reps as f64;
        let var = s2 / reps as f64 - mean * mean;
        assert!(
            (mean - f as f64).abs() / (f as f64) < 0.01,
            "biased: {mean}"
        );
        assert!(
            (var - exact).abs() / exact < 0.1,
            "variance {var} vs exact {exact}"
        );
        // No sampling, no sampling noise.
        assert_eq!(bernoulli_frequency_variance(1.0, 1e6), 0.0);
        // Plug-in clamps negative sketch estimates.
        assert_eq!(bernoulli_frequency_variance_plugin(0.5, -3.0), 0.0);
    }

    #[test]
    fn plugins_upper_bound_the_exact_forms() {
        // Skewed vector: one heavy key dominates, so F₃ ≈ F₂^{3/2}.
        let (f1, f2, f3) = (120.0, 10_000.0 + 20.0 * 20.0, 1_000_000.0 + 8_000.0);
        for &p in &[0.1, 0.3, 0.7, 0.95] {
            let exact = bernoulli_self_join_variance(p, f1, f2, f3);
            let plug = bernoulli_self_join_variance_plugin(p, f1 as u64, f2);
            assert!(
                plug >= exact - 1e-9,
                "p={p}: plug-in {plug} below exact {exact}"
            );
        }
        // Size-of-join: plug-in with the true moments' bounds dominates.
        let exact = bernoulli_size_of_join_variance(0.4, 0.6, 50.0, 70.0, 30.0);
        let plug = bernoulli_size_of_join_variance_plugin(0.4, 0.6, 100.0, 90.0, 30.0);
        assert!(plug >= exact);
    }

    #[test]
    fn staleness_plugin_scales_with_the_pending_backlog() {
        // Nothing pending (or an empty replica): no staleness term.
        assert_eq!(staleness_variance_plugin(1e6, 10_000, 0), 0.0);
        assert_eq!(staleness_variance_plugin(1e6, 0, 10_000), 0.0);
        // 10% backlog on an F₂ estimate: drift ≈ value·(1.1² − 1) = 21%.
        let v = staleness_variance_plugin(1e6, 100_000, 10_000);
        let sd = v.sqrt();
        assert!((sd - 0.21 * 1e6).abs() < 1e-6 * 1e6, "sd = {sd}");
        // Monotone in the backlog, and symmetric in sign of the value.
        assert!(
            staleness_variance_plugin(1e6, 100_000, 20_000)
                > staleness_variance_plugin(1e6, 100_000, 10_000)
        );
        assert_eq!(
            staleness_variance_plugin(-1e6, 100_000, 10_000),
            staleness_variance_plugin(1e6, 100_000, 10_000)
        );
    }

    #[test]
    fn plugin_is_clamped_nonnegative() {
        // Inconsistent inputs (tiny F̂₂ vs huge seen count) would go
        // negative in the exact form at p close to 1.
        let v = bernoulli_self_join_variance_plugin(0.9, 1_000_000, 1.0);
        assert!(v >= 0.0);
        assert!(bernoulli_size_of_join_variance_plugin(0.5, 0.5, -5.0, -5.0, -5.0) >= 0.0);
    }
}
