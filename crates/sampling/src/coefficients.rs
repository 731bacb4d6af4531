//! The sampling-fraction coefficients of Eq. 8 of the paper.
//!
//! All fixed-size-sample formulas are written in terms of
//!
//! ```text
//! α  = |F′| / |F|          β  = |G′| / |G|
//! α₁ = (|F′|−1) / (|F|−1)  β₁ = (|G′|−1) / (|G|−1)
//! α₂ = (|F′|−1) / |F|      β₂ = (|G′|−1) / |G|
//! ```
//!
//! `α` is the plain sampling fraction; `α₁` and `α₂` are the "one less"
//! variants that arise from second factorial moments of the multinomial
//! (`(m)₂/|F|² = α·α₂`) and the hypergeometric (`(m)₂/(N)₂ = α·α₁`).

use crate::error::{Error, Result};

/// The `α, α₁, α₂` coefficients for one relation (Eq. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingFractions {
    /// Sample size `|F′|`.
    pub sample: u64,
    /// Population (relation) size `|F|`.
    pub population: u64,
}

impl SamplingFractions {
    /// Build the coefficient set for a sample of `sample` tuples drawn from
    /// a relation of `population` tuples.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyPopulation`] if `population == 0`.
    /// * [`Error::EmptySample`] if `sample == 0` (every estimator divides
    ///   by `α`).
    pub fn new(sample: u64, population: u64) -> Result<Self> {
        if population == 0 {
            return Err(Error::EmptyPopulation);
        }
        if sample == 0 {
            return Err(Error::EmptySample);
        }
        Ok(Self { sample, population })
    }

    /// `α = |F′|/|F|`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.sample as f64 / self.population as f64
    }

    /// `α₁ = (|F′|−1)/(|F|−1)`.
    ///
    /// For a single-tuple population this is defined as 1 (the sample is
    /// the population).
    #[inline]
    pub fn alpha1(&self) -> f64 {
        if self.population == 1 {
            1.0
        } else {
            (self.sample - 1) as f64 / (self.population - 1) as f64
        }
    }

    /// `α₂ = (|F′|−1)/|F|`.
    #[inline]
    pub fn alpha2(&self) -> f64 {
        (self.sample - 1) as f64 / self.population as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_match_definitions() {
        let f = SamplingFractions::new(10, 100).unwrap();
        assert_eq!(f.alpha(), 0.1);
        assert!((f.alpha1() - 9.0 / 99.0).abs() < 1e-15);
        assert!((f.alpha2() - 9.0 / 100.0).abs() < 1e-15);
    }

    #[test]
    fn full_sample_has_unit_fractions() {
        let f = SamplingFractions::new(100, 100).unwrap();
        assert_eq!(f.alpha(), 1.0);
        assert_eq!(f.alpha1(), 1.0);
        // α₂ < 1 even for a full sample — this is what keeps the WR
        // variance non-zero when the whole population is resampled.
        assert!((f.alpha2() - 0.99).abs() < 1e-15);
    }

    #[test]
    fn degenerate_population_of_one() {
        let f = SamplingFractions::new(1, 1).unwrap();
        assert_eq!(f.alpha(), 1.0);
        assert_eq!(f.alpha1(), 1.0);
        assert_eq!(f.alpha2(), 0.0);
    }

    #[test]
    fn constructor_rejects_invalid_sizes() {
        assert_eq!(SamplingFractions::new(1, 0), Err(Error::EmptyPopulation));
        assert_eq!(SamplingFractions::new(0, 10), Err(Error::EmptySample));
    }

    #[test]
    fn ordering_of_coefficients() {
        // α₂ ≤ α₁ ≤ α for any m ≤ N; the paper's variance interpretations
        // depend on this ordering.
        for (m, n) in [(1u64, 10u64), (5, 10), (10, 10), (3, 1000)] {
            let f = SamplingFractions::new(m, n).unwrap();
            assert!(f.alpha2() <= f.alpha1() + 1e-15);
            assert!(f.alpha1() <= f.alpha() + 1e-15);
        }
    }
}
