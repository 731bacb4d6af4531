//! Sketching i.i.d. streams: the with-replacement regime
//! (paper Section VI-B).
//!
//! Here no sampling is performed by us — the stream *is* a sample drawn
//! with replacement from a finite population of known size (a generative
//! model), and the goal is to estimate properties of the *population* from
//! the streamed sample. Every tuple is sketched ("the standard updating
//! algorithm for sketches can be used in this case. The estimation
//! algorithm is though different because it has to take into consideration
//! that the stream is only a sample").
//!
//! Estimates apply the Section III-D / Proposition 15 corrections of
//! [`WithReplacement`] with `α = observed/population`:
//!
//! ```text
//! size of join:  X = (1/αβ) · S·T
//! self-join:     X = (1/αα₂)·S² − N/α₂
//! ```

use crate::error::{Error, Result};
use crate::sketch::{JoinSchema, JoinSketch};
use sss_moments::scheme::{SamplingScheme, WithReplacement};

/// Sketches a stream understood as a with-replacement sample from a finite
/// population of known size.
#[derive(Debug, Clone)]
pub struct IidStreamSketcher {
    sketch: JoinSketch,
    population: u64,
    observed: u64,
}

impl IidStreamSketcher {
    /// Create a sketcher for a population of `population` tuples.
    ///
    /// # Errors
    ///
    /// [`Error::Sampling`] if `population == 0`.
    pub fn new(schema: &JoinSchema, population: u64) -> Result<Self> {
        if population == 0 {
            return Err(sss_sampling::Error::EmptyPopulation.into());
        }
        Ok(Self {
            sketch: schema.sketch(),
            population,
            observed: 0,
        })
    }

    /// Observe (and sketch) the next sampled tuple.
    #[inline]
    pub fn observe(&mut self, key: u64) {
        self.sketch.update(key, 1);
        self.observed += 1;
    }

    /// Tuples observed so far (`m = |F′|`).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Declared population size `N = |F|`.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The sampling fraction `α = m/N` (may exceed 1 for WR streams); 0
    /// before the first tuple.
    pub fn alpha(&self) -> f64 {
        self.scheme().map_or(0.0, |wr| wr.alpha())
    }

    /// The with-replacement scheme of the `m ≥ 1` draws observed so far.
    fn scheme(&self) -> Result<WithReplacement> {
        Ok(WithReplacement::new(self.observed, self.population)?)
    }

    /// The underlying sketch.
    pub fn sketch(&self) -> &JoinSketch {
        &self.sketch
    }

    /// Unbiased estimate of the *population* self-join size.
    ///
    /// # Errors
    ///
    /// [`Error::InsufficientSample`] until two tuples have been observed
    /// (the `α₂` correction divides by `m − 1`).
    pub fn self_join(&self) -> Result<f64> {
        if self.observed < 2 {
            return Err(Error::InsufficientSample {
                got: self.observed,
                need: 2,
            });
        }
        Ok(self.scheme()?.self_join(self.sketch.raw_self_join())?)
    }

    /// Unbiased estimate of the *population* size of join against another
    /// i.i.d. stream sketch (built on the same schema).
    ///
    /// # Errors
    ///
    /// [`Error::InsufficientSample`] if either stream is empty;
    /// [`Error::Sketch`] on schema mismatch.
    pub fn size_of_join(&self, other: &IidStreamSketcher) -> Result<f64> {
        if self.observed == 0 || other.observed == 0 {
            return Err(Error::InsufficientSample {
                got: self.observed.min(other.observed),
                need: 1,
            });
        }
        let raw = self.sketch.raw_size_of_join(&other.sketch)?;
        Ok(self.scheme()?.size_of_join(raw, &other.scheme()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Draw from a population of 200 keys where key k has frequency k+1
    /// (N = 20100, F₂ = Σ(k+1)² = 2_686_700).
    fn draw_population(r: &mut StdRng) -> u64 {
        // Inverse-CDF draw over triangular frequencies.
        let n: u64 = 20100;
        let t = r.random_range(0..n);
        // key k covers [k(k+1)/2, (k+1)(k+2)/2)
        let mut k = 0u64;
        let mut acc = 0u64;
        while acc + k < t {
            acc += k + 1;
            k += 1;
        }
        k
    }

    #[test]
    fn rejects_zero_population_and_tiny_samples() {
        let mut r = rng(1);
        let schema = JoinSchema::agms(8, &mut r);
        assert!(IidStreamSketcher::new(&schema, 0).is_err());
        let mut s = IidStreamSketcher::new(&schema, 100).unwrap();
        assert!(matches!(
            s.self_join(),
            Err(Error::InsufficientSample { got: 0, need: 2 })
        ));
        s.observe(1);
        assert!(s.self_join().is_err());
        s.observe(2);
        assert!(s.self_join().is_ok());
    }

    #[test]
    fn population_self_join_estimate_converges() {
        let mut r = rng(2);
        let schema = JoinSchema::fagms(1, 4000, &mut r);
        let mut s = IidStreamSketcher::new(&schema, 20100).unwrap();
        // Stream a 30% (with replacement) sample.
        for _ in 0..6000 {
            let k = draw_population(&mut r);
            s.observe(k);
        }
        let truth: f64 = (1..=200u64).map(|f| (f * f) as f64).sum();
        let est = s.self_join().unwrap();
        assert!(
            (est - truth).abs() / truth < 0.15,
            "est = {est}, truth = {truth}"
        );
    }

    #[test]
    fn join_of_two_iid_streams() {
        let mut r = rng(3);
        let schema = JoinSchema::fagms(1, 4000, &mut r);
        // Both streams sample the same population; the population join of
        // the triangular frequencies with themselves is F₂.
        let mut s = IidStreamSketcher::new(&schema, 20100).unwrap();
        let mut t = IidStreamSketcher::new(&schema, 20100).unwrap();
        for _ in 0..8000 {
            s.observe(draw_population(&mut r));
            t.observe(draw_population(&mut r));
        }
        let truth: f64 = (1..=200u64).map(|f| (f * f) as f64).sum();
        let est = s.size_of_join(&t).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.25,
            "est = {est}, truth = {truth}"
        );
    }

    #[test]
    fn oversampling_beyond_population_is_legal_for_wr() {
        let mut r = rng(4);
        let schema = JoinSchema::fagms(1, 1024, &mut r);
        let mut s = IidStreamSketcher::new(&schema, 100).unwrap();
        // 5× the population size — perfectly fine with replacement.
        for _ in 0..500 {
            s.observe(r.random_range(0..100u64));
        }
        assert!(s.alpha() > 4.9);
        let est = s.self_join().unwrap();
        let truth = 100.0; // uniform population: each key frequency 1, F₂ = 100
        assert!((est - truth).abs() / truth < 0.6, "est = {est}");
    }

    #[test]
    fn unbiasedness_over_repetitions() {
        let mut r = rng(5);
        // Population: 30 keys, key k frequency k+1, N = 465.
        let pop: Vec<u64> = (0..30u64)
            .flat_map(|k| std::iter::repeat(k).take(k as usize + 1))
            .collect();
        let truth: f64 = (1..=30u64).map(|f| (f * f) as f64).sum();
        let reps = 500;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut s = IidStreamSketcher::new(&schema, 465).unwrap();
            for _ in 0..100 {
                s.observe(pop[r.random_range(0..pop.len())]);
            }
            acc += s.self_join().unwrap();
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean = {mean}, truth = {truth}"
        );
    }
}
