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
//! evaluates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_moments::engine::{self, Moments};
use sss_moments::freq::FrequencyVector;
use sss_moments::scheme::{Bernoulli, SamplingScheme, WithReplacement, WithoutReplacement};
use sss_sampling::bernoulli::BernoulliSampler;
use sss_sampling::with_replacement::sample_with_replacement;
use sss_sampling::without_replacement::sample_without_replacement;
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
        let mut sampler = BernoulliSampler::<StdRng>::new(p, &mut rng).unwrap();
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
        let mut keep_f = BernoulliSampler::<StdRng>::new(p, &mut rng).unwrap();
        let mut keep_g = BernoulliSampler::<StdRng>::new(q, &mut rng).unwrap();
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
        let mut keep_f = BernoulliSampler::<StdRng>::new(p, &mut rng).unwrap();
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
        let mut sampler = BernoulliSampler::<StdRng>::new(p, &mut rng).unwrap();
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
