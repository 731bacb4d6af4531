//! The sampling-only estimators of Propositions 3–6: each scheme's served
//! correction ([`Bernoulli::self_join`], [`WithReplacement::self_join`],
//! [`WithoutReplacement::self_join`], [`SamplingScheme::size_of_join`])
//! applied to the exact aggregates of a sample, held to the truth at a
//! full sample, to their refusals, and to unbiasedness by Monte Carlo.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_exact::ExactAggregator;
use sss_moments::scheme::{Bernoulli, SamplingScheme, WithReplacement, WithoutReplacement};
use sss_moments::Error;
use sss_sampling::bernoulli::BernoulliSampler;
use sss_sampling::with_replacement::sample_with_replacement;
use sss_sampling::without_replacement::sample_without_replacement;

/// A small relation with known aggregates: keys `0..k` where key `i` has
/// frequency `i + 1`.
fn relation(k: u64) -> Vec<u64> {
    (0..k)
        .flat_map(|i| std::iter::repeat(i).take(i as usize + 1))
        .collect()
}

fn self_join_truth(k: u64) -> f64 {
    (1..=k).map(|f| (f * f) as f64).sum()
}

/// `m = |F′|`, the size of the sample an aggregator holds.
fn size(sample: &ExactAggregator) -> u64 {
    sample.total() as u64
}

fn wr_self_join(sample: &ExactAggregator, population: u64) -> Result<f64, Error> {
    WithReplacement::new(size(sample), population)?.self_join(sample.self_join())
}

fn wor_self_join(sample: &ExactAggregator, population: u64) -> Result<f64, Error> {
    WithoutReplacement::new(size(sample), population)?.self_join(sample.self_join())
}

fn wor_size_of_join(
    f: &ExactAggregator,
    g: &ExactAggregator,
    f_pop: u64,
    g_pop: u64,
) -> Result<f64, Error> {
    let sf = WithoutReplacement::new(size(f), f_pop)?;
    let sg = WithoutReplacement::new(size(g), g_pop)?;
    Ok(sf.size_of_join(f.join(g), &sg))
}

#[test]
fn a_full_sample_is_answered_exactly() {
    let rel = relation(50);
    let n = rel.len() as u64;
    let counts = ExactAggregator::from_keys(rel.iter().copied());
    let truth = self_join_truth(50);

    // Bernoulli at p = 1: no correction at all.
    let full = Bernoulli::new(1.0).unwrap();
    assert_eq!(full.self_join(counts.self_join(), size(&counts)), truth);
    assert_eq!(full.size_of_join(counts.join(&counts), &full), truth);

    // WOR at m = N: α = α₁ = 1, so the estimator is the exact aggregate.
    assert!((wor_self_join(&counts, n).unwrap() - truth).abs() < 1e-9);
    assert!((wor_size_of_join(&counts, &counts, n, n).unwrap() - truth).abs() < 1e-9);

    // And every WOR draw of the whole relation is exact, not merely
    // right on average: the variance vanishes at the full rate.
    let rel = relation(20);
    let n = rel.len() as u64;
    let mut r = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let whole = sample_without_replacement(&rel, n, &mut r).unwrap();
        let s = ExactAggregator::from_keys(whole);
        assert!((wor_self_join(&s, n).unwrap() - self_join_truth(20)).abs() < 1e-9);
    }
}

#[test]
fn estimators_refuse_what_they_cannot_answer() {
    let c = ExactAggregator::from_keys([1u64, 2, 3]);
    // p ∉ (0, 1].
    for p in [0.0, -0.1, 1.5, f64::NAN] {
        assert!(
            matches!(Bernoulli::new(p), Err(Error::InvalidProbability(_))),
            "p = {p}"
        );
    }
    // N = 0, for both fixed-size schemes.
    assert!(wr_self_join(&c, 0).is_err());
    assert!(wor_self_join(&c, 0).is_err());
    // m = 0: every estimator divides by α.
    let empty = ExactAggregator::new();
    assert!(wr_self_join(&empty, 100).is_err());
    assert!(wor_self_join(&empty, 100).is_err());
    assert!(wor_size_of_join(&empty, &c, 100, 100).is_err());
    // A without-replacement sample larger than its population.
    assert_eq!(
        wor_self_join(&c, 2),
        Err(Error::InvalidSampleSize {
            sample: 3,
            population: 2
        })
    );
    assert!(wor_size_of_join(&c, &c, 2, 100).is_err());
    // A self-join from fewer than two tuples: α₂ (WR) and α₁ (WOR) are 0.
    let single = ExactAggregator::from_keys([7u64]);
    let too_small = Err(Error::SampleTooSmall { got: 1, need: 2 });
    assert_eq!(wr_self_join(&single, 100), too_small);
    assert_eq!(wor_self_join(&single, 100), too_small);
    // Two tuples are enough, and the answer is finite.
    let pair = ExactAggregator::from_keys([7u64, 7]);
    assert!(wr_self_join(&pair, 100).unwrap().is_finite());
    assert!(wor_self_join(&pair, 100).unwrap().is_finite());
}

/// Monte-Carlo unbiasedness of every estimator at realistic sampling
/// rates: the averages over many repetitions converge to the truth.
#[test]
fn estimators_are_unbiased() {
    let rel = relation(40); // |F| = 820, F₂ = Σ f² = 22140
    let n = rel.len() as u64;
    let truth = self_join_truth(40);
    let reps = 4000;
    let p = 0.25;
    let m = 200u64;
    let bernoulli = Bernoulli::new(p).unwrap();
    let mut r = StdRng::seed_from_u64(99);

    let mut acc_bern_sj = 0f64;
    let mut acc_bern_join = 0f64;
    let mut acc_wr = 0f64;
    let mut acc_wor = 0f64;
    let mut acc_join = 0f64;
    for _ in 0..reps {
        let mut s = BernoulliSampler::<StdRng>::new(p, &mut r).unwrap();
        let bern = ExactAggregator::from_keys(rel.iter().copied().filter(|_| s.keep()));
        acc_bern_sj += bernoulli.self_join(bern.self_join(), size(&bern));
        let mut t = BernoulliSampler::<StdRng>::new(p, &mut r).unwrap();
        let bern_g = ExactAggregator::from_keys(rel.iter().copied().filter(|_| t.keep()));
        acc_bern_join += bernoulli.size_of_join(bern.join(&bern_g), &bernoulli);

        let wr = ExactAggregator::from_keys(sample_with_replacement(&rel, m, &mut r).unwrap());
        acc_wr += wr_self_join(&wr, n).unwrap();

        let wor = ExactAggregator::from_keys(sample_without_replacement(&rel, m, &mut r).unwrap());
        acc_wor += wor_self_join(&wor, n).unwrap();

        let wor_g =
            ExactAggregator::from_keys(sample_without_replacement(&rel, m, &mut r).unwrap());
        acc_join += wor_size_of_join(&wor, &wor_g, n, n).unwrap();
    }
    for (name, acc) in [
        ("bernoulli self-join", acc_bern_sj),
        ("bernoulli size-of-join", acc_bern_join),
        ("wr self-join", acc_wr),
        ("wor self-join", acc_wor),
        ("wor size-of-join", acc_join),
    ] {
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.05,
            "{name}: mean {mean} vs truth {truth}"
        );
    }
}

/// The sampling fractions of Eq. 8: `α₂ ≤ α₁ ≤ α` for any `m ≤ N`, both
/// "one less" fractions 1 and `(N−1)/N` at a full sample, and the
/// single-tuple population's `α₁ = 1`, `α₂ = 0`.
#[test]
fn sampling_fractions_follow_eq_8() {
    for (m, n) in [(1u64, 10u64), (5, 10), (10, 10), (3, 1000)] {
        let wr = WithReplacement::new(m, n).unwrap();
        let wor = WithoutReplacement::new(m, n).unwrap();
        assert_eq!(wr.alpha(), wor.alpha());
        assert!(wr.alpha2() <= wor.alpha1() + 1e-15);
        assert!(wor.alpha1() <= wor.alpha() + 1e-15);
    }
    let wr = WithReplacement::new(10, 100).unwrap();
    let wor = WithoutReplacement::new(10, 100).unwrap();
    assert_eq!(wr.alpha(), 0.1);
    assert!((wor.alpha1() - 9.0 / 99.0).abs() < 1e-15);
    assert!((wr.alpha2() - 9.0 / 100.0).abs() < 1e-15);
    // α₂ < 1 even for a full sample: what keeps the WR variance non-zero
    // when the whole population is resampled.
    assert_eq!(WithoutReplacement::new(100, 100).unwrap().alpha1(), 1.0);
    assert!((WithReplacement::new(100, 100).unwrap().alpha2() - 0.99).abs() < 1e-15);
    assert_eq!(WithoutReplacement::new(1, 1).unwrap().alpha1(), 1.0);
    assert_eq!(WithReplacement::new(1, 1).unwrap().alpha2(), 0.0);
}
