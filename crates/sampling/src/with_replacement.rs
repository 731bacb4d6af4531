//! Sampling with replacement: a fixed-size i.i.d. sample from a finite
//! population.
//!
//! The sampled frequency vector `f′` is a multinomial with `m = |F′|` trials
//! and cell probabilities `fᵢ/|F|`.

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
}
