//! Seeded Monte-Carlo acceptance of the KLL rank guarantee with its sampler
//! live: over shuffled, sorted and Zipf(1.1) input the worst rank error of
//! any reported quantile stays inside `rank_error()`, and a `Bernoulli(0.1)`
//! sample in front of the same summary still covers the true quantile
//! through `quantile_with_bounds`.
//!
//! Position-only coins are oblivious to the values, so sorted input — where
//! every window's survivor is a fixed rank within the window — is the case
//! that would show a coin that is not fair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch_sampled_streams::core::{QuantileQuery, Sampled};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::sketch::KllSketch;

const N: usize = 1 << 20;
const SEEDS: u64 = 10;
const INPUTS: [&str; 3] = ["shuffled", "sorted", "zipf"];

/// A stream of `N` values over the domain `0..N`, and `below[v]`: how many
/// of them are smaller than `v`.
fn input(kind: &str, rng: &mut StdRng) -> (Vec<u64>, Vec<u64>) {
    let values: Vec<u64> = match kind {
        "sorted" => (0..N as u64).collect(),
        "shuffled" => {
            let mut values: Vec<u64> = (0..N as u64).collect();
            for i in (1..N).rev() {
                values.swap(i, rng.random_range(0..=i));
            }
            values
        }
        _ => ZipfGenerator::new(N, 1.1).relation(N, rng),
    };
    let mut below = vec![0u64; N + 1];
    for &v in &values {
        below[v as usize + 1] += 1;
    }
    for v in 0..N {
        below[v + 1] += below[v];
    }
    (values, below)
}

/// How far rank `q` lies outside the exact rank interval of `value`.
fn rank_miss(below: &[u64], value: u64, q: f64) -> f64 {
    let lo = below[value as usize] as f64 / N as f64;
    let hi = below[value as usize + 1] as f64 / N as f64;
    (lo - q).max(q - hi).max(0.0)
}

/// The smallest value whose exact rank interval reaches `q`.
fn exact_quantile(below: &[u64], q: f64) -> f64 {
    let target = ((q * N as f64).ceil() as u64).clamp(1, N as u64);
    (below.partition_point(|&b| b < target) - 1) as f64
}

/// `k = 200` is the product's parameter (one sampling level live by 2^20
/// values); `k = 64` has a dozen, so most of what it stores went through
/// the sampler.
#[test]
fn worst_rank_error_stays_inside_the_advertised_bound() {
    let ranks: Vec<f64> = (1..20).map(|i| i as f64 / 20.0).collect();
    for kind in INPUTS {
        // Per `k`: the worst miss and the sum of squared misses.
        let mut misses = [(200, 0.0f64, 0.0f64), (64, 0.0, 0.0)];
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0x51AB + seed);
            let (values, below) = input(kind, &mut rng);
            for (k, worst, squares) in &mut misses {
                let mut kll = KllSketch::new(*k, &mut rng).unwrap();
                values
                    .chunks(2048)
                    .for_each(|chunk| kll.insert_batch(chunk));
                assert_eq!(kll.len(), N as u64);
                let reported = kll.raw_quantiles(&ranks).unwrap();
                for (&q, &value) in ranks.iter().zip(&reported) {
                    let miss = rank_miss(&below, value, q);
                    *worst = worst.max(miss);
                    *squares += miss * miss;
                }
            }
        }
        for (k, worst, squares) in misses {
            let eps = KllSketch::with_seed(k, 0).unwrap().rank_error();
            let rms = (squares / (SEEDS as f64 * ranks.len() as f64)).sqrt();
            println!("k {k:3} {kind:8}: worst {worst:.5} rms {rms:.5} (ε {eps:.5})");
            assert!(worst <= eps, "k {k} {kind}: worst {worst} above ε {eps}");
        }
    }
}

/// Sample, then (sample, then sketch): the bounds widen by the binomial
/// rank jitter of the outer sample and must still contain the exact
/// quantile of the full stream.
#[test]
fn a_ten_percent_sample_still_covers_through_quantile_bounds() {
    for kind in INPUTS {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0xC0DE + seed);
            let (values, below) = input(kind, &mut rng);
            let mut sampled =
                Sampled::new(KllSketch::new(200, &mut rng).unwrap(), 0.1, &mut rng).unwrap();
            values.chunks(2048).for_each(|chunk| {
                sampled.feed_batch(chunk);
            });
            for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
                let truth = exact_quantile(&below, q);
                let (value, (lo, hi)) = sampled.quantile_with_bounds(q).unwrap();
                assert!(
                    lo <= truth && truth <= hi && lo <= value && value <= hi,
                    "{kind} seed {seed} q {q}: {truth} against {value} ∈ [{lo}, {hi}]"
                );
            }
        }
    }
}
