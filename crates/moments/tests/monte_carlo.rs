//! End-to-end Monte-Carlo verification: the *actual* samplers from
//! `sss-sampling` feeding *actual* AGMS sketches from `sss-sketch` must
//! reproduce the mean and variance the analytical engine predicts.
//!
//! This closes the loop the unit tests leave open: the engine is pinned
//! against exhaustive enumeration (tiny domains, idealized ξ), and here the
//! production CW4 families and real sampling code are pinned against the
//! engine on larger inputs. Every estimate is the schemes' served
//! correction (`self_join`, `size_of_join`), the one the product applies;
//! `scheme`'s own proptest ties it to the affine form the engine
//! evaluates. The sampling-only variances that price the served error
//! bars (`Bernoulli::self_join_variance`, and Eq. 6 of `closed_form` for
//! a join and for one key's frequency) are pinned the same way against
//! the estimators over exact samples.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sss_exact::ExactAggregator;
use sss_moments::closed_form::bernoulli_sampling_sj_variance;
use sss_moments::engine::{self, Moments};
use sss_moments::freq::FrequencyVector;
use sss_moments::scheme::{Bernoulli, SamplingScheme, WithReplacement, WithoutReplacement};
use sss_sampling::with_replacement::sample_with_replacement;
use sss_sampling::without_replacement::sample_without_replacement;
use sss_sampling::Door;
use sss_sketch::agms::AgmsSchema;
use sss_xi::Cw4;

/// Expand a frequency vector into the multiset of tuples it describes.
fn expand(f: &FrequencyVector) -> Vec<u64> {
    let mut tuples = Vec::new();
    for i in 0..f.len() {
        for _ in 0..f.get(i) as u64 {
            tuples.push(i as u64);
        }
    }
    tuples
}

fn empirical(xs: &[f64]) -> Moments {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    Moments {
        mean,
        variance: var,
    }
}

fn assert_moments(empirical: Moments, theory: Moments, reps: usize, what: &str) {
    // Mean: the estimator std over reps runs shrinks by sqrt(reps).
    let mean_tol = 6.0 * (theory.variance / reps as f64).sqrt();
    assert!(
        (empirical.mean - theory.mean).abs() <= mean_tol,
        "{what}: empirical mean {} vs theory {} (tol {mean_tol})",
        empirical.mean,
        theory.mean
    );
    // Variance: generous 20% envelope (sampling error of a variance
    // estimate depends on the 4th moment; reps is sized to keep this safe).
    assert!(
        (empirical.variance - theory.variance).abs() <= 0.20 * theory.variance,
        "{what}: empirical var {} vs theory {}",
        empirical.variance,
        theory.variance
    );
}

/// Frequencies with a mild skew; domain of 12, population 78.
fn workload_f() -> FrequencyVector {
    FrequencyVector::from_counts(vec![12u32, 9, 9, 8, 7, 7, 6, 6, 5, 4, 3, 2])
}

/// Second relation over the same domain; population 60.
fn workload_g() -> FrequencyVector {
    FrequencyVector::from_counts(vec![1u32, 2, 3, 4, 5, 6, 7, 8, 9, 5, 5, 5])
}

#[test]
fn bernoulli_combined_self_join_matches_theory() {
    let f = workload_f();
    let tuples = expand(&f);
    let p = 0.3;
    let scheme = Bernoulli::new(p).unwrap();
    let n_avg = 6usize;
    let reps = 6000;
    let mut rng = StdRng::seed_from_u64(0xB0);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut sampler = Door::new(p, rng.next_u64()).unwrap();
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut sk = schema.sketch();
        let mut kept = 0u64;
        for &t in &tuples {
            if sampler.keep() {
                sk.update(t, 1);
                kept += 1;
            }
        }
        xs.push(scheme.self_join(sk.self_join(), kept));
    }
    let theory = engine::sketch_sample_sjs(&scheme, &f, n_avg).unwrap();
    assert_moments(empirical(&xs), theory, reps, "bernoulli sjs");
}

#[test]
fn bernoulli_combined_size_of_join_matches_theory() {
    let f = workload_f();
    let g = workload_g();
    let tf = expand(&f);
    let tg = expand(&g);
    let (p, q) = (0.4, 0.25);
    let sp = Bernoulli::new(p).unwrap();
    let sq = Bernoulli::new(q).unwrap();
    let n_avg = 6usize;
    let reps = 6000;
    let mut rng = StdRng::seed_from_u64(0xB1);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        let mut keep_f = Door::new(p, rng.next_u64()).unwrap();
        let mut keep_g = Door::new(q, rng.next_u64()).unwrap();
        for &k in &tf {
            if keep_f.keep() {
                s.update(k, 1);
            }
        }
        for &k in &tg {
            if keep_g.keep() {
                t.update(k, 1);
            }
        }
        xs.push(sp.size_of_join(s.size_of_join(&t).unwrap(), &sq));
    }
    let theory = engine::sketch_sample_sj(&sp, &f, &sq, &g, n_avg).unwrap();
    assert_moments(empirical(&xs), theory, reps, "bernoulli sj");
}

#[test]
fn wr_combined_self_join_matches_theory() {
    let f = workload_f();
    let tuples = expand(&f);
    let n_pop = tuples.len() as u64;
    let m = 30u64;
    let scheme = WithReplacement::new(m, n_pop).unwrap();
    let n_avg = 6usize;
    let reps = 6000;
    let mut rng = StdRng::seed_from_u64(0xB2);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut sk = schema.sketch();
        for k in sample_with_replacement(&tuples, m, &mut rng).unwrap() {
            sk.update(k, 1);
        }
        xs.push(scheme.self_join(sk.self_join()).unwrap());
    }
    let theory = engine::sketch_sample_sjs(&scheme, &f, n_avg).unwrap();
    assert_moments(empirical(&xs), theory, reps, "wr sjs");
}

#[test]
fn wor_combined_self_join_matches_theory() {
    let f = workload_f();
    let tuples = expand(&f);
    let n_pop = tuples.len() as u64;
    let m = 30u64;
    let scheme = WithoutReplacement::new(m, n_pop).unwrap();
    let n_avg = 6usize;
    let reps = 6000;
    let mut rng = StdRng::seed_from_u64(0xB3);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut sk = schema.sketch();
        for k in sample_without_replacement(&tuples, m, &mut rng).unwrap() {
            sk.update(k, 1);
        }
        xs.push(scheme.self_join(sk.self_join()).unwrap());
    }
    let theory = engine::sketch_sample_sjs(&scheme, &f, n_avg).unwrap();
    assert_moments(empirical(&xs), theory, reps, "wor sjs");
}

#[test]
fn wr_combined_size_of_join_matches_theory() {
    let f = workload_f();
    let g = workload_g();
    let tf = expand(&f);
    let tg = expand(&g);
    let (mf, mg) = (30u64, 25u64);
    let sf = WithReplacement::new(mf, tf.len() as u64).unwrap();
    let sg = WithReplacement::new(mg, tg.len() as u64).unwrap();
    let n_avg = 6usize;
    let reps = 6000;
    let mut rng = StdRng::seed_from_u64(0xB4);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        for k in sample_with_replacement(&tf, mf, &mut rng).unwrap() {
            s.update(k, 1);
        }
        for k in sample_with_replacement(&tg, mg, &mut rng).unwrap() {
            t.update(k, 1);
        }
        xs.push(sf.size_of_join(s.size_of_join(&t).unwrap(), &sg));
    }
    let theory = engine::sketch_sample_sj(&sf, &f, &sg, &g, n_avg).unwrap();
    assert_moments(empirical(&xs), theory, reps, "wr sj");
}

#[test]
fn wor_combined_size_of_join_matches_theory() {
    let f = workload_f();
    let g = workload_g();
    let tf = expand(&f);
    let tg = expand(&g);
    let (mf, mg) = (30u64, 25u64);
    let sf = WithoutReplacement::new(mf, tf.len() as u64).unwrap();
    let sg = WithoutReplacement::new(mg, tg.len() as u64).unwrap();
    let n_avg = 6usize;
    let reps = 6000;
    let mut rng = StdRng::seed_from_u64(0xB5);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        for k in sample_without_replacement(&tf, mf, &mut rng).unwrap() {
            s.update(k, 1);
        }
        for k in sample_without_replacement(&tg, mg, &mut rng).unwrap() {
            t.update(k, 1);
        }
        xs.push(sf.size_of_join(s.size_of_join(&t).unwrap(), &sg));
    }
    let theory = engine::sketch_sample_sj(&sf, &f, &sg, &g, n_avg).unwrap();
    assert_moments(empirical(&xs), theory, reps, "wor sj");
}

/// Propositions 1/9 never ask the two relations to share a sampling
/// scheme, only independent samples whose frequencies scale linearly: a
/// Bernoulli-shedded `F` against a without-replacement scan of `G`,
/// scaled by `1/(p·α)`.
#[test]
fn mixed_bernoulli_wor_size_of_join_matches_theory() {
    let f = workload_f();
    let g = workload_g();
    let tf = expand(&f);
    let tg = expand(&g);
    let p = 0.4;
    let mg = 25u64;
    let sf = Bernoulli::new(p).unwrap();
    let sg = WithoutReplacement::new(mg, tg.len() as u64).unwrap();
    let n_avg = 6usize;
    let reps = 6000;
    let mut rng = StdRng::seed_from_u64(0xB7);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        let mut keep_f = Door::new(p, rng.next_u64()).unwrap();
        for &k in &tf {
            if keep_f.keep() {
                s.update(k, 1);
            }
        }
        for k in sample_without_replacement(&tg, mg, &mut rng).unwrap() {
            t.update(k, 1);
        }
        xs.push(sf.size_of_join(s.size_of_join(&t).unwrap(), &sg));
    }
    let theory = engine::sketch_sample_sj(&sf, &f, &sg, &g, n_avg).unwrap();
    assert!(
        (theory.mean - f.dot(&g)).abs() < 1e-9,
        "the mixed-scheme engine is unbiased"
    );
    assert_moments(empirical(&xs), theory, reps, "bernoulli x wor sj");
}

/// The covariance effect the paper emphasizes: because the `n` averaged
/// sketches share one sample, the empirical variance at large `n` must
/// approach the *sampling* variance, not zero.
#[test]
fn averaging_cannot_erase_the_sampling_variance() {
    let f = workload_f();
    let tuples = expand(&f);
    let p = 0.2;
    let scheme = Bernoulli::new(p).unwrap();
    let n_avg = 64usize;
    let reps = 3000;
    let mut rng = StdRng::seed_from_u64(0xB6);
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut sampler = Door::new(p, rng.next_u64()).unwrap();
        let schema = AgmsSchema::<Cw4>::new(n_avg, &mut rng);
        let mut sk = schema.sketch();
        let mut kept = 0u64;
        for &t in &tuples {
            if sampler.keep() {
                sk.update(t, 1);
                kept += 1;
            }
        }
        xs.push(scheme.self_join(sk.self_join(), kept));
    }
    let emp = empirical(&xs);
    let sampling_floor = engine::sampling_sjs(&scheme, &f).unwrap().variance;
    let naive_if_independent =
        engine::sketch_sample_sjs(&scheme, &f, 1).unwrap().variance / n_avg as f64;
    assert!(
        emp.variance > 0.8 * sampling_floor,
        "variance {} must not fall below the sampling floor {}",
        emp.variance,
        sampling_floor
    );
    assert!(
        emp.variance > 2.0 * naive_if_independent,
        "shared-sample covariance must keep the variance ({}) well above the \
         naive independent-estimator prediction ({})",
        emp.variance,
        naive_if_independent
    );
}

/// A Bernoulli(`p`) sample of `f`'s tuples, one `Door::keep` coin each,
/// as exact aggregates.
fn thin(f: &FrequencyVector, p: f64, rng: &mut StdRng) -> ExactAggregator {
    let mut door = Door::new(p, rng.next_u64()).unwrap();
    ExactAggregator::from_keys(expand(f).into_iter().filter(|_| door.keep()))
}

/// Mean and variance of `reps` draws of `est`.
fn draws(reps: usize, est: impl FnMut(usize) -> f64) -> Moments {
    empirical(&(0..reps).map(est).collect::<Vec<_>>())
}

/// `got` within a relative `tol` of `want`.
fn assert_near(got: f64, want: f64, tol: f64, what: &str) {
    assert!((got - want).abs() / want < tol, "{what}: {got} vs {want}");
}

/// The moment form of Eq. 7, `Bernoulli::self_join_variance`, against the
/// empirical variance of the Prop.-4 estimator over exact samples.
#[test]
fn self_join_variance_matches_monte_carlo() {
    let f = FrequencyVector::from_counts(vec![0u32, 9, 5, 3, 1]);
    let scheme = Bernoulli::new(0.4).unwrap();
    let exact = scheme.self_join_variance(f.total(), f.power_sum(2), f.power_sum(3));
    let mut rng = StdRng::seed_from_u64(7);
    let m = draws(8_000, |_| {
        let sample = thin(&f, 0.4, &mut rng);
        scheme.self_join(sample.self_join(), sample.total() as u64)
    });
    assert_near(m.mean, f.self_join(), 0.02, "mean");
    assert_near(m.variance, exact, 0.15, "variance");
}

/// Eq. 6 against the empirical variance of the Prop.-3 estimator with
/// independently sampled sides at different rates.
#[test]
fn size_of_join_variance_matches_monte_carlo() {
    let f = FrequencyVector::from_counts(vec![0u32, 6, 4, 2, 0]);
    let g = FrequencyVector::from_counts(vec![0u32, 3, 5, 0, 7]);
    let (sf, sg) = (Bernoulli::new(0.5).unwrap(), Bernoulli::new(0.3).unwrap());
    let exact = bernoulli_sampling_sj_variance(&f, &g, &sf, &sg).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let m = draws(15_000, |_| {
        let (a, b) = (thin(&f, 0.5, &mut rng), thin(&g, 0.3, &mut rng));
        sf.size_of_join(a.join(&b), &sg)
    });
    assert_near(m.mean, f.dot(&g), 0.03, "mean");
    assert_near(m.variance, exact, 0.15, "variance");
}

/// One key's frequency `f′/p` is a join with an unsampled indicator of
/// that key, so Eq. 6 gives its variance `f·(1−p)/p`, which the plug-in
/// at the true frequency is: unbiased, with the empirical variance
/// matching, over a key sampled many times.
#[test]
fn frequency_variance_matches_monte_carlo() {
    let (f, p) = (200.0, 0.3);
    let (scheme, unsampled) = (Bernoulli::new(p).unwrap(), Bernoulli::new(1.0).unwrap());
    let key = FrequencyVector::from_counts(vec![f]);
    let indicator = FrequencyVector::from_counts(vec![1u32]);
    let exact = bernoulli_sampling_sj_variance(&key, &indicator, &scheme, &unsampled).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let m = draws(20_000, |_| {
        scheme.frequency(thin(&key, p, &mut rng).total() as f64)
    });
    assert_near(m.mean, f, 0.01, "mean");
    assert_near(m.variance, exact, 0.1, "variance");
    let plug = scheme.frequency_variance_plugin(f);
    assert!((plug - exact).abs() <= 1e-12 * exact, "{plug} vs {exact}");
}
