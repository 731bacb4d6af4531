//! Monte-Carlo coverage of the typed `Estimate` intervals (the acceptance
//! test of the error-bar refactor).
//!
//! For each backend we rebuild the estimator `R` times with fresh random
//! seeds over a fixed skewed stream, ask for a nominal 95% interval, and
//! count how often it covers the exact answer. A correctly calibrated
//! CLT interval covers ≈ 95% of the time; sampling noise over `R` runs
//! puts a 3σ band of `3·√(0.95·0.05/R)` around that, so we assert
//! coverage ≥ nominal − 3σ. The distribution-free Chebyshev interval is
//! strictly conservative and must cover at least as often as the CLT one.
//!
//! The *empirical* variances driving those intervals are cross-validated
//! against the exact `sss-moments` formulas: averaged over the runs they
//! must agree with (or conservatively exceed) the closed forms.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::Sampled;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::moments::engine::{sampling_sjs, sketch_sample_sjs, sketch_sjs};
use sketch_sampled_streams::moments::scheme::Bernoulli;
use sketch_sampled_streams::moments::FrequencyVector;
use sketch_sampled_streams::sampling::bernoulli_self_join_variance;
use sketch_sampled_streams::sketch::{AgmsSchema, Estimate, FagmsSchema, Sketch};

/// Monte-Carlo runs per backend. 3σ of a 95%-coverage indicator over 300
/// runs is ≈ 3.8 points, so the acceptance floor is ≈ 91.2%.
const RUNS: usize = 300;
const LEVEL: f64 = 0.95;

fn floor() -> f64 {
    LEVEL - 3.0 * (LEVEL * (1.0 - LEVEL) / RUNS as f64).sqrt()
}

/// A mildly Zipfian frequency vector: skewed enough to be interesting,
/// concentrated enough that the basic sketch estimators are not heavily
/// skewed (their noise is dominated by symmetric ± cross terms).
fn frequencies() -> Vec<u32> {
    (0..200u32).map(|k| 1 + 200 / (k + 1)).collect()
}

fn exact_self_join(counts: &[u32]) -> f64 {
    counts.iter().map(|&c| (c as f64) * (c as f64)).sum()
}

/// Aggregate the per-run results of one backend.
struct Tally {
    clt_hits: usize,
    chebyshev_hits: usize,
    mean_variance: f64,
}

fn tally(estimates: &[Estimate], truth: f64) -> Tally {
    let clt_hits = estimates
        .iter()
        .filter(|e| e.clt(LEVEL).unwrap().contains(truth))
        .count();
    let chebyshev_hits = estimates
        .iter()
        .filter(|e| e.chebyshev(LEVEL).unwrap().contains(truth))
        .count();
    let mean_variance = estimates.iter().map(|e| e.variance).sum::<f64>() / estimates.len() as f64;
    Tally {
        clt_hits,
        chebyshev_hits,
        mean_variance,
    }
}

fn assert_covers(name: &str, t: &Tally, exact_variance: f64, ratio_low: f64, ratio_high: f64) {
    let clt = t.clt_hits as f64 / RUNS as f64;
    let cheb = t.chebyshev_hits as f64 / RUNS as f64;
    assert!(
        clt >= floor(),
        "{name}: CLT coverage {clt:.3} below floor {:.3}",
        floor()
    );
    assert!(
        cheb >= clt,
        "{name}: Chebyshev coverage {cheb:.3} below CLT coverage {clt:.3}"
    );
    let ratio = t.mean_variance / exact_variance;
    assert!(
        ratio > ratio_low && ratio < ratio_high,
        "{name}: mean empirical variance is {ratio:.2}× the exact sss-moments \
         variance (expected within ({ratio_low}, {ratio_high}))"
    );
}

/// AGMS: mean of 128 independent basic lanes; empirical variance must
/// track Proposition 8 exactly (in expectation).
#[test]
fn agms_intervals_cover_at_nominal_rate() {
    let counts = frequencies();
    let truth = exact_self_join(&counts);
    let exact = sketch_sjs(&FrequencyVector::from_counts(counts.clone()), 128);
    assert_eq!(exact.mean, truth);
    let estimates: Vec<Estimate> = (0..RUNS)
        .map(|run| {
            let mut rng = StdRng::seed_from_u64(1000 + run as u64);
            let schema: AgmsSchema = AgmsSchema::new(128, &mut rng);
            let mut sk = schema.sketch();
            for (k, &c) in counts.iter().enumerate() {
                sk.update(k as u64, c as i64);
            }
            sk.self_join_estimate()
        })
        .collect();
    let t = tally(&estimates, truth);
    // The sample variance of the lanes is an unbiased estimator of the
    // per-lane variance, so the run-averaged ratio should hug 1.
    assert_covers("agms", &t, exact.variance, 0.5, 2.0);
}

/// F-AGMS: median of 11 rows of width 512. The reported variance uses the
/// conservative π/(2·depth) median factor, so it may exceed the per-row
/// mean-equivalent bound but must stay in its vicinity.
#[test]
fn fagms_intervals_cover_at_nominal_rate() {
    let counts = frequencies();
    let truth = exact_self_join(&counts);
    // Each row averages `width` bucketed products; Prop 8 with n = width
    // bounds the per-row variance, and the median of `depth` rows has
    // variance ≈ π/(2·depth) of that.
    let per_row = sketch_sjs(&FrequencyVector::from_counts(counts.clone()), 512);
    let median_ref = per_row.variance * std::f64::consts::PI / (2.0 * 11.0);
    let estimates: Vec<Estimate> = (0..RUNS)
        .map(|run| {
            let mut rng = StdRng::seed_from_u64(2000 + run as u64);
            let schema: FagmsSchema = FagmsSchema::new(11, 512, &mut rng);
            let mut sk = schema.sketch();
            for (k, &c) in counts.iter().enumerate() {
                sk.update(k as u64, c as i64);
            }
            sk.self_join_estimate()
        })
        .collect();
    let t = tally(&estimates, truth);
    // Bucketing collisions add variance the n = width reference ignores,
    // and the median factor is conservative: allow a wider band upward.
    assert_covers("fagms", &t, median_ref, 0.5, 4.0);
}

/// Bernoulli shedder at p = 0.3 over an AGMS sketch: the empirical lane
/// spread plus the sampling plug-in must cover, and on average must be at
/// least the exact Proposition-12-style combined variance (the plug-in is
/// deliberately conservative: F₃ ≤ F₂^{3/2} and shared-sample covariance
/// absorbed upward).
#[test]
fn bernoulli_shedder_intervals_cover_at_nominal_rate() {
    let counts = frequencies();
    let truth = exact_self_join(&counts);
    let p = 0.3;
    let scheme = Bernoulli::new(p).unwrap();
    let exact =
        sketch_sample_sjs(&scheme, &FrequencyVector::from_counts(counts.clone()), 128).unwrap();
    assert!((exact.mean - truth).abs() < 1e-6, "unbiasedness sanity");
    // The replayable tuple stream: key k repeated counts[k] times.
    let stream: Vec<u64> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat(k as u64).take(c as usize))
        .collect();
    let estimates: Vec<Estimate> = (0..RUNS)
        .map(|run| {
            let mut rng = StdRng::seed_from_u64(3000 + run as u64);
            let schema = JoinSchema::agms(128, &mut rng);
            let mut shed = Sampled::new(schema.sketch(), p, &mut rng).unwrap();
            shed.feed_batch(&stream);
            shed.self_join_estimate()
        })
        .collect();
    let t = tally(&estimates, truth);
    assert_covers("bernoulli-shedder", &t, exact.variance, 0.6, 5.0);
}

/// F₀ under Bernoulli sampling: `Sampled<HyperLogLog>` at p = 0.3 against
/// the exact distinct count from `sss-exact`. Two frequency regimes:
///
/// * **High frequency** (every key appears 20×): almost every key survives
///   the sample, the homogeneous plug-in correction is near-exact, and the
///   interval is driven by HyperLogLog's `1.04/√m` error — coverage must
///   sit at the nominal rate.
/// * **Low frequency** (every key appears 3×): the correction is large and
///   its magnitude is priced into the variance as model error, making the
///   interval deliberately conservative — coverage must not drop below the
///   floor (and in practice exceeds nominal).
///
/// Both streams are exactly homogeneous, the one histogram the plug-in
/// models without error, so any coverage miss here indicts the variance
/// accounting rather than the (documented, unavoidable) model bias.
#[test]
fn sampled_distinct_intervals_cover_at_nominal_rate() {
    let p = 0.3;
    for (name, copies, seed_base) in [("f0-high-freq", 20u64, 4000u64), ("f0-low-freq", 3, 5000)] {
        let distinct_keys = 2_000u64;
        let stream: Vec<u64> = (0..distinct_keys)
            .flat_map(|k| std::iter::repeat(k).take(copies as usize))
            .collect();
        let mut exact = ExactAggregator::new();
        for &k in &stream {
            exact.update(k, 1);
        }
        let truth = exact.distinct() as f64;
        assert_eq!(truth, distinct_keys as f64, "exact ground truth sanity");

        let estimates: Vec<Estimate> = (0..RUNS)
            .map(|run| {
                let mut rng = StdRng::seed_from_u64(seed_base + run as u64);
                let mut sampled = Sampled::hyperloglog(12, p, &mut rng).unwrap();
                sampled.feed_batch(&stream);
                sampled.distinct_estimate()
            })
            .collect();
        let clt = estimates
            .iter()
            .filter(|e| e.clt(LEVEL).unwrap().contains(truth))
            .count() as f64
            / RUNS as f64;
        let cheb = estimates
            .iter()
            .filter(|e| e.chebyshev(LEVEL).unwrap().contains(truth))
            .count() as f64
            / RUNS as f64;
        assert!(
            clt >= floor(),
            "{name}: CLT coverage {clt:.3} below floor {:.3}",
            floor()
        );
        assert!(
            cheb >= clt,
            "{name}: Chebyshev coverage {cheb:.3} below CLT coverage {clt:.3}"
        );
        // The point estimate must be honest about where it stands. In the
        // high-frequency regime the plug-in is near-exact, so the mean
        // must land within 10% of the truth. In the low-frequency regime
        // the homogeneous model is *biased* (f̄ = N/D′ overstates the mean
        // frequency because D′ < D, understating the correction) — the
        // contract is that the model-error term in the variance covers
        // that bias, i.e. the truth sits within one reported σ.
        let mean_value = estimates.iter().map(|e| e.value).sum::<f64>() / RUNS as f64;
        let mean_sd = estimates.iter().map(|e| e.variance.sqrt()).sum::<f64>() / RUNS as f64;
        if copies >= 20 {
            assert!(
                (mean_value - truth).abs() / truth < 0.10,
                "{name}: mean corrected F₀ {mean_value:.0} more than 10% from {truth}"
            );
        } else {
            assert!(
                (mean_value - truth).abs() <= mean_sd,
                "{name}: residual bias |{mean_value:.0} − {truth}| exceeds the \
                 reported σ {mean_sd:.0} — the model-error pricing is dishonest"
            );
        }
    }
}

/// The closed-form sampling variance used by the plug-ins agrees with the
/// exact `sss-moments` machinery for the sampling-only estimator.
#[test]
fn closed_form_sampling_variance_matches_moments_engine() {
    let counts = frequencies();
    let f = FrequencyVector::from_counts(counts.clone());
    for p in [0.1, 0.3, 0.5, 0.8] {
        let scheme = Bernoulli::new(p).unwrap();
        let exact = sampling_sjs(&scheme, &f).unwrap();
        let f1: f64 = counts.iter().map(|&c| c as f64).sum();
        let f2: f64 = counts.iter().map(|&c| (c as f64).powi(2)).sum();
        let f3: f64 = counts.iter().map(|&c| (c as f64).powi(3)).sum();
        let closed = bernoulli_self_join_variance(p, f1, f2, f3);
        assert!(
            (closed - exact.variance).abs() <= 1e-9 * exact.variance.abs().max(1.0),
            "p = {p}: closed form {closed} vs engine {}",
            exact.variance
        );
    }
}
