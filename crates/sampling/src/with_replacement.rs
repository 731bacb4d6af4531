//! Sampling with replacement: a fixed-size i.i.d. sample from a finite
//! population.
//!
//! The sampled frequency vector `f′` is a multinomial with `m = |F′|` trials
//! and cell probabilities `fᵢ/|F|`. Besides the tuple-level sampler used by
//! the estimators, this module exposes [`MultinomialFrequencies`], which
//! draws the frequency vector *directly* (sequential conditional binomials).
//! Direct frequency draws are what make the Monte-Carlo verification of the
//! variance formulas in `sss-moments` feasible at scale: simulating a
//! 10⁶-tuple sample costs O(|domain|) instead of O(m) hash updates.

use crate::error::{Error, Result};
use rand::Rng;

/// Draw `m` tuples with replacement from `population`.
///
/// # Errors
///
/// [`Error::EmptyPopulation`] if the population slice is empty and `m > 0`.
pub fn sample_with_replacement<R: Rng + ?Sized>(
    population: &[u64],
    m: u64,
    rng: &mut R,
) -> Result<Vec<u64>> {
    if population.is_empty() && m > 0 {
        return Err(Error::EmptyPopulation);
    }
    Ok((0..m)
        .map(|_| population[rng.random_range(0..population.len())])
        .collect())
}

/// Draw the sampled frequency vector of a with-replacement sample directly
/// from the multinomial law.
///
/// Given true frequencies `f` (over an implicit dense domain `0..f.len()`)
/// and a sample size `m`, each call to [`draw`] returns one realization of
/// the multinomial `(m; f₀/N, …)` where `N = Σ fᵢ`.
///
/// [`draw`]: MultinomialFrequencies::draw
#[derive(Debug, Clone)]
pub struct MultinomialFrequencies {
    freqs: Vec<u64>,
    population: u64,
    m: u64,
}

impl MultinomialFrequencies {
    /// Build the sampler for the given true frequency vector and sample
    /// size.
    pub fn new(freqs: Vec<u64>, m: u64) -> Result<Self> {
        let population: u64 = freqs.iter().sum();
        if population == 0 {
            return Err(Error::EmptyPopulation);
        }
        Ok(Self {
            freqs,
            population,
            m,
        })
    }

    /// One multinomial realization, as dense per-key counts.
    ///
    /// Uses the conditional-binomial decomposition: with `R` trials left
    /// and residual mass `M`, cell `i` receives `Binomial(R, fᵢ/M)`.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        let mut out = vec![0u64; self.freqs.len()];
        let mut remaining_trials = self.m;
        let mut remaining_mass = self.population;
        for (i, &f) in self.freqs.iter().enumerate() {
            if remaining_trials == 0 {
                break;
            }
            if f == 0 {
                continue;
            }
            if f == remaining_mass {
                out[i] = remaining_trials;
                break;
            }
            let p = f as f64 / remaining_mass as f64;
            let draw = binomial(remaining_trials, p, rng);
            out[i] = draw;
            remaining_trials -= draw;
            remaining_mass -= f;
        }
        out
    }
}

/// Sample from `Binomial(n, p)`.
///
/// Uses direct Bernoulli summation for small `n·min(p,1−p)` and a
/// normal-approximation-with-correction inversion otherwise. The estimator
/// tests in `sss-moments` Monte-Carlo this function against exact moments,
/// so approximation error is pinned there.
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Work with the smaller tail for numerical stability.
    if p > 0.5 {
        return n - binomial(n, 1.0 - p, rng);
    }
    let mean = n as f64 * p;
    if mean < 32.0 || n < 64 {
        // Waiting-time method: count geometric gaps until they exceed n.
        // O(np) expected work, exact distribution.
        let log_q = (1.0 - p).ln();
        let mut count = 0u64;
        let mut pos = 0f64;
        loop {
            let u: f64 = 1.0 - rng.random::<f64>();
            pos += (u.ln() / log_q).floor() + 1.0;
            if pos > n as f64 {
                return count;
            }
            count += 1;
        }
    }
    // BTPE would be exact; for the simulation workloads here the
    // squeeze-free normal inversion with a continuity correction is
    // accurate to O(1/sqrt(npq)) which the Monte-Carlo tolerances absorb.
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    loop {
        let z = normal(rng);
        let x = (mean + sd * z + 0.5).floor();
        if x >= 0.0 && x <= n as f64 {
            return x as u64;
        }
    }
}

/// A standard normal draw via Box–Muller (polar form).
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn tuple_sampler_draws_exact_size() {
        let pop: Vec<u64> = (0..1000).collect();
        let s = sample_with_replacement(&pop, 2500, &mut rng(1)).unwrap();
        assert_eq!(s.len(), 2500);
        assert!(s.iter().all(|&k| k < 1000));
    }

    #[test]
    fn tuple_sampler_rejects_empty_population() {
        assert!(sample_with_replacement(&[], 1, &mut rng(2)).is_err());
        // m = 0 from an empty population is fine: the sample is empty.
        assert_eq!(
            sample_with_replacement(&[], 0, &mut rng(2)).unwrap().len(),
            0
        );
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng(3);
        assert_eq!(binomial(0, 0.5, &mut r), 0);
        assert_eq!(binomial(100, 0.0, &mut r), 0);
        assert_eq!(binomial(100, 1.0, &mut r), 100);
    }

    #[test]
    fn binomial_moments_small_n() {
        let (n, p) = (40u64, 0.2);
        let reps = 100_000;
        let mut r = rng(4);
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        for _ in 0..reps {
            let x = binomial(n, p, &mut r) as f64;
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / reps as f64;
        let var = sum_sq / reps as f64 - mean * mean;
        assert!((mean - 8.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 6.4).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn binomial_moments_large_n() {
        let (n, p) = (100_000u64, 0.37);
        let reps = 20_000;
        let mut r = rng(5);
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        for _ in 0..reps {
            let x = binomial(n, p, &mut r) as f64;
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / reps as f64;
        let var = sum_sq / reps as f64 - mean * mean;
        let tm = n as f64 * p;
        let tv = n as f64 * p * (1.0 - p);
        assert!((mean - tm).abs() / tm < 0.001, "mean = {mean}, expect {tm}");
        assert!((var - tv).abs() / tv < 0.05, "var = {var}, expect {tv}");
    }

    #[test]
    fn multinomial_draw_sums_to_m() {
        let mf = MultinomialFrequencies::new(vec![5, 0, 10, 1, 100], 37).unwrap();
        let mut r = rng(6);
        for _ in 0..200 {
            let d = mf.draw(&mut r);
            assert_eq!(d.iter().sum::<u64>(), 37);
            assert_eq!(d[1], 0, "zero-frequency cell must stay empty");
        }
    }

    #[test]
    fn multinomial_cell_means_match() {
        let freqs = vec![10u64, 30, 60]; // N = 100
        let m = 50u64;
        let mf = MultinomialFrequencies::new(freqs.clone(), m).unwrap();
        let reps = 40_000;
        let mut r = rng(7);
        let mut sums = [0f64; 3];
        for _ in 0..reps {
            for (s, d) in sums.iter_mut().zip(mf.draw(&mut r)) {
                *s += d as f64;
            }
        }
        for (i, &f) in freqs.iter().enumerate() {
            let mean = sums[i] / reps as f64;
            let expect = m as f64 * f as f64 / 100.0;
            assert!(
                (mean - expect).abs() / expect < 0.02,
                "cell {i}: {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn multinomial_rejects_zero_population() {
        assert!(MultinomialFrequencies::new(vec![0, 0], 5).is_err());
    }
}
