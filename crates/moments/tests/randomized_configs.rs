//! Randomized-configuration Monte-Carlo sweep: for a battery of random
//! (frequency vector, scheme, averaging) configurations, the simulated
//! combined estimator must match the engine's exact mean and variance.
//!
//! This complements `monte_carlo.rs` (which pins a few hand-chosen
//! workloads with tight budgets) with breadth: many shapes, all three
//! schemes, deterministic seeds.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sss_moments::engine;
use sss_moments::scheme::{Bernoulli, SamplingScheme, WithReplacement, WithoutReplacement};
use sss_moments::FrequencyVector;
use sss_sampling::with_replacement::sample_with_replacement;
use sss_sampling::without_replacement::sample_without_replacement;
use sss_sampling::Door;
use sss_sketch::agms::AgmsSchema;
use sss_xi::Cw4;

/// One random workload: 4–10 keys with counts 1–9 (plus possible zeros).
fn random_freqs(rng: &mut StdRng) -> (FrequencyVector, Vec<u64>) {
    let len = rng.random_range(4..=10usize);
    let counts: Vec<u32> = (0..len)
        .map(|i| {
            if i > 0 && rng.random::<f64>() < 0.2 {
                0
            } else {
                rng.random_range(1..=9u32)
            }
        })
        .collect();
    let freqs = FrequencyVector::from_counts(counts.clone());
    let tuples: Vec<u64> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat(k as u64).take(c as usize))
        .collect();
    (freqs, tuples)
}

type Simulator = Box<dyn FnMut(&mut StdRng) -> f64>;

fn run_config(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (freqs, tuples) = random_freqs(&mut rng);
    let n_pop = tuples.len() as u64;
    let n_avg = rng.random_range(2..=12usize);
    let reps = 4000;

    // Pick a scheme at random.
    let scheme_id = rng.random_range(0..3u8);
    let (theory, simulate): (engine::Moments, Simulator) = match scheme_id {
        0 => {
            let p = rng.random_range(0.15..=0.9);
            let scheme = Bernoulli::new(p).unwrap();
            let (u, v, c) = scheme.sjs_affine();
            let theory = engine::sketch_sample_sjs(&scheme, &freqs, n_avg).unwrap();
            let tuples = tuples.clone();
            (
                theory,
                Box::new(move |r: &mut StdRng| {
                    let schema = AgmsSchema::<Cw4>::new(n_avg, r);
                    let mut sk = schema.sketch();
                    let mut sampler = Door::new(p, r.next_u64()).unwrap();
                    let mut kept = 0u64;
                    for &t in &tuples {
                        if sampler.keep() {
                            sk.update(t, 1);
                            kept += 1;
                        }
                    }
                    u * sk.self_join() + v * kept as f64 + c
                }),
            )
        }
        1 => {
            let m = rng.random_range(2..=(2 * n_pop).max(3));
            let scheme = WithReplacement::new(m, n_pop).unwrap();
            let (u, v, c) = scheme.sjs_affine();
            let theory = engine::sketch_sample_sjs(&scheme, &freqs, n_avg).unwrap();
            let tuples = tuples.clone();
            (
                theory,
                Box::new(move |r: &mut StdRng| {
                    let schema = AgmsSchema::<Cw4>::new(n_avg, r);
                    let mut sk = schema.sketch();
                    for t in sample_with_replacement(&tuples, m, r).unwrap() {
                        sk.update(t, 1);
                    }
                    u * sk.self_join() + v * m as f64 + c
                }),
            )
        }
        _ => {
            let m = rng.random_range(2..=n_pop);
            let scheme = WithoutReplacement::new(m, n_pop).unwrap();
            let (u, v, c) = scheme.sjs_affine();
            let theory = engine::sketch_sample_sjs(&scheme, &freqs, n_avg).unwrap();
            let tuples = tuples.clone();
            (
                theory,
                Box::new(move |r: &mut StdRng| {
                    let schema = AgmsSchema::<Cw4>::new(n_avg, r);
                    let mut sk = schema.sketch();
                    for t in sample_without_replacement(&tuples, m, r).unwrap() {
                        sk.update(t, 1);
                    }
                    u * sk.self_join() + v * m as f64 + c
                }),
            )
        }
    };

    let mut simulate = simulate;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..reps {
        let x = simulate(&mut rng);
        sum += x;
        sum_sq += x * x;
    }
    let mean = sum / reps as f64;
    let var = sum_sq / reps as f64 - mean * mean;
    let truth = freqs.self_join();
    assert!(
        (theory.mean - truth).abs() < 1e-9,
        "config {seed}: engine mean {} vs truth {truth}",
        theory.mean
    );
    let mean_tol = 6.0 * (theory.variance / reps as f64).sqrt().max(1e-9);
    assert!(
        (mean - theory.mean).abs() <= mean_tol,
        "config {seed} (scheme {scheme_id}): empirical mean {mean} vs {} (tol {mean_tol})",
        theory.mean
    );
    // Variance-of-variance tolerance: generous 30% + absolute slack for
    // near-deterministic configs (full WOR scans).
    assert!(
        (var - theory.variance).abs() <= 0.3 * theory.variance + 3.0,
        "config {seed} (scheme {scheme_id}): empirical var {var} vs {}",
        theory.variance
    );
}

#[test]
fn randomized_configurations_match_theory() {
    for seed in 0..12u64 {
        run_config(seed);
    }
}
