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
use sketch_sampled_streams::sketch::{AgmsSchema, Estimate, FagmsSchema, HyperLogLog};

/// How a configuration's Monte-Carlo runs are counted and seeded. Each
/// sketch family is checked at its acceptance size over 300 runs seeded
/// `base + run`, and over a sweep of sizes with 200 runs seeded
/// `5 ^ (base + run)`: the draws CI has always checked the sweep at, so
/// no checked draw moves.
#[derive(Clone, Copy)]
enum Runs {
    Acceptance,
    Sweep,
}

impl Runs {
    fn count(self) -> usize {
        match self {
            Runs::Acceptance => 300,
            Runs::Sweep => 200,
        }
    }

    /// One estimate per run, each from a generator seeded for that run.
    fn estimates(self, base: u64, one: impl Fn(&mut StdRng) -> Estimate) -> Vec<Estimate> {
        (0..self.count() as u64)
            .map(|run| {
                let seed = match self {
                    Runs::Acceptance => base + run,
                    Runs::Sweep => 5 ^ (base + run),
                };
                one(&mut StdRng::seed_from_u64(seed))
            })
            .collect()
    }
}

const LEVEL: f64 = 0.95;

/// The acceptance floor for `runs` indicator draws: nominal − 3σ. 3σ over
/// 300 runs is ≈ 3.8 points (floor ≈ 91.2%), over 200 runs ≈ 4.6.
fn floor(runs: usize) -> f64 {
    LEVEL - 3.0 * (LEVEL * (1.0 - LEVEL) / runs as f64).sqrt()
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
    clt: f64,
    chebyshev: f64,
    runs: usize,
    mean_variance: f64,
}

fn tally(estimates: &[Estimate], truth: f64) -> Tally {
    let runs = estimates.len();
    let share = |hit: &dyn Fn(&Estimate) -> bool| {
        estimates.iter().filter(|e| hit(e)).count() as f64 / runs as f64
    };
    Tally {
        clt: share(&|e| e.clt(LEVEL).unwrap().contains(truth)),
        chebyshev: share(&|e| e.chebyshev(LEVEL).unwrap().contains(truth)),
        runs,
        mean_variance: estimates.iter().map(|e| e.variance).sum::<f64>() / runs as f64,
    }
}

fn assert_covers(name: &str, t: &Tally, exact_variance: f64, ratio_low: f64, ratio_high: f64) {
    let (clt, cheb) = (t.clt, t.chebyshev);
    assert!(
        clt >= floor(t.runs),
        "{name}: CLT coverage {clt:.3} below floor {:.3}",
        floor(t.runs)
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

/// AGMS: mean of `n` independent basic lanes; empirical variance must
/// track Proposition 8 exactly (in expectation).
#[test]
fn agms_intervals_cover_at_nominal_rate() {
    let counts = frequencies();
    let truth = exact_self_join(&counts);
    for (n, runs) in [
        (128, Runs::Acceptance),
        (64, Runs::Sweep),
        (256, Runs::Sweep),
        (1024, Runs::Sweep),
    ] {
        let exact = sketch_sjs(&FrequencyVector::from_counts(counts.clone()), n);
        assert_eq!(exact.mean, truth);
        let estimates = runs.estimates(1000, |rng| {
            let schema: AgmsSchema = AgmsSchema::new(n, rng);
            let mut sk = schema.sketch();
            for (k, &c) in counts.iter().enumerate() {
                sk.update(k as u64, c as i64);
            }
            sk.self_join_estimate()
        });
        // The sample variance of the lanes is an unbiased estimator of the
        // per-lane variance, so the run-averaged ratio should hug 1.
        let t = tally(&estimates, truth);
        assert_covers(&format!("agms n = {n}"), &t, exact.variance, 0.5, 2.0);
    }
}

/// F-AGMS: median of 11 rows of `width` buckets. The reported variance
/// uses the conservative π/(2·depth) median factor, so it may exceed the
/// per-row mean-equivalent bound but must stay in its vicinity.
#[test]
fn fagms_intervals_cover_at_nominal_rate() {
    let counts = frequencies();
    let truth = exact_self_join(&counts);
    for (width, runs) in [
        (512, Runs::Acceptance),
        (128, Runs::Sweep),
        (512, Runs::Sweep),
        (2048, Runs::Sweep),
    ] {
        // Each row averages `width` bucketed products; Prop 8 with
        // n = width bounds the per-row variance, and the median of `depth`
        // rows has variance ≈ π/(2·depth) of that.
        let per_row = sketch_sjs(&FrequencyVector::from_counts(counts.clone()), width);
        let median_ref = per_row.variance * std::f64::consts::PI / (2.0 * 11.0);
        let estimates = runs.estimates(2000, |rng| {
            let schema: FagmsSchema = FagmsSchema::new(11, width, rng);
            let mut sk = schema.sketch();
            for (k, &c) in counts.iter().enumerate() {
                sk.update(k as u64, c as i64);
            }
            sk.self_join_estimate()
        });
        // Bucketing collisions add variance the n = width reference
        // ignores, and the median factor is conservative: allow a wider
        // band upward.
        let t = tally(&estimates, truth);
        assert_covers(&format!("fagms width = {width}"), &t, median_ref, 0.5, 4.0);
    }
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
    // The replayable tuple stream: key k repeated counts[k] times.
    let stream: Vec<u64> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat(k as u64).take(c as usize))
        .collect();
    for (n, runs) in [
        (128, Runs::Acceptance),
        (128, Runs::Sweep),
        (512, Runs::Sweep),
    ] {
        let frequencies = FrequencyVector::from_counts(counts.clone());
        let exact = sketch_sample_sjs(&scheme, &frequencies, n).unwrap();
        assert!((exact.mean - truth).abs() < 1e-6, "unbiasedness sanity");
        let estimates = runs.estimates(3000, |rng| {
            let schema = JoinSchema::agms(n, rng);
            let mut shed = Sampled::new(schema.sketch(), p, rng).unwrap();
            shed.feed_batch(&stream);
            shed.self_join_estimate()
        });
        let t = tally(&estimates, truth);
        let name = format!("bernoulli-shedder n = {n}");
        assert_covers(&name, &t, exact.variance, 0.6, 5.0);
    }
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

        let estimates = Runs::Acceptance.estimates(seed_base, |rng| {
            let hll = HyperLogLog::new(12, rng).unwrap();
            let mut sampled = Sampled::new(hll, p, rng).unwrap();
            sampled.feed_batch(&stream);
            sampled.distinct_estimate()
        });
        let Tally {
            clt,
            chebyshev: cheb,
            runs,
            ..
        } = tally(&estimates, truth);
        assert!(
            clt >= floor(runs),
            "{name}: CLT coverage {clt:.3} below floor {:.3}",
            floor(runs)
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
        let mean_value = estimates.iter().map(|e| e.value).sum::<f64>() / runs as f64;
        let mean_sd = estimates.iter().map(|e| e.variance.sqrt()).sum::<f64>() / runs as f64;
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
        let closed = scheme.self_join_variance(f1, f2, f3);
        assert!(
            (closed - exact.variance).abs() <= 1e-9 * exact.variance.abs().max(1.0),
            "p = {p}: closed form {closed} vs engine {}",
            exact.variance
        );
    }
}
