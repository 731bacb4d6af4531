//! The basic AGMS ("tug-of-war") sketch.
//!
//! One basic counter maintains `S = Σᵢ fᵢ·ξᵢ` for a 4-wise independent ±1
//! family `ξ`; `S²` estimates the self-join size (Proposition 8) and `S·T`
//! the size of join with a sketch `T` of the other relation built with the
//! *same* family (Proposition 7). An [`AgmsSketch`] maintains `n` such
//! counters with independent families; [`AgmsSketch::self_join`] averages
//! the basics (variance ∝ 1/n), and the median-of-means variants trade some
//! averaging for boosted confidence.
//!
//! Updating touches **every** counter — O(n) per tuple — which is the
//! bottleneck that motivates both F-AGMS and the paper's sampling-based
//! load shedding.

use crate::error::{Error, Result};
use crate::estimate::{self, Estimate};
use rand::Rng;
use sss_xi::{Codec, CodecError, DefaultSign, Reader, SignFamily, Writer};
use std::sync::Arc;

/// The shared random seeds (one ±1 family per basic counter) plus a schema
/// identity used to reject cross-schema operations.
#[derive(Debug)]
pub struct AgmsSchema<F = DefaultSign> {
    families: Arc<[F]>,
    id: u64,
}

// Manual impl: cloning shares the seed Arc, so `F: Clone` is not required.
impl<F> Clone for AgmsSchema<F> {
    fn clone(&self) -> Self {
        Self {
            families: Arc::clone(&self.families),
            id: self.id,
        }
    }
}

// Persistence: a schema is its seed list plus identity. Shipping the
// schema (rather than re-randomizing) is what lets sketches built in
// different processes be merged/joined — the id survives the round trip.
impl<F: Codec> Codec for AgmsSchema<F> {
    fn put(&self, w: &mut Writer) {
        w.seq(&self.families[..]);
        w.u64(self.id);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let families: Vec<F> = r.seq()?;
        if families.is_empty() {
            return Err(CodecError::Invalid(
                "an AGMS schema has at least one family",
            ));
        }
        Ok(Self {
            families: families.into(),
            id: r.u64()?,
        })
    }
}

impl<F: Codec> Codec for AgmsSketch<F> {
    fn put(&self, w: &mut Writer) {
        self.schema.put(w);
        w.i64s(&self.counters);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let schema = AgmsSchema::take(r)?;
        let counters = r.i64s()?;
        if counters.len() != schema.families.len() {
            return Err(CodecError::Invalid(
                "an AGMS sketch has one counter per family",
            ));
        }
        Ok(Self { schema, counters })
    }
}

impl<F: SignFamily> AgmsSchema<F> {
    /// Create a schema with `n` independently seeded families.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; use [`AgmsSchema::try_new`] for a fallible
    /// constructor.
    pub fn new<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self::try_new(n, rng).expect("AGMS schema needs at least one counter")
    }

    /// Size a schema for a target accuracy: with probability at least
    /// `1 − δ`, the averaged self-join estimate is within `±ε·F₂` when
    /// combined with [`AgmsSketch::self_join_median_of_means`] using
    /// `⌈3.6·ln(1/δ)⌉` groups.
    ///
    /// Allocates `⌈16/ε²⌉` basics per group (group-mean variance
    /// `≤ 2F₂²·ε²/16`, Chebyshev failure `≤ 1/8` per group, Chernoff over
    /// the median). Mind the cost: AGMS updates touch every counter.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε ≤ 1` and `0 < δ < 1`.
    pub fn for_accuracy<R: Rng + ?Sized>(epsilon: f64, delta: f64, rng: &mut R) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let per_group = (16.0 / (epsilon * epsilon)).ceil() as usize;
        let groups = ((3.6 * (1.0 / delta).ln()).ceil() as usize).max(1);
        Self::new(per_group * groups, rng)
    }

    /// The number of median-of-means groups [`AgmsSchema::for_accuracy`]
    /// sized the schema for.
    pub fn recommended_groups(delta: f64) -> usize {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        ((3.6 * (1.0 / delta).ln()).ceil() as usize).max(1)
    }

    /// Fallible constructor: errors on `n == 0`.
    pub fn try_new<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidDimensions);
        }
        let families: Arc<[F]> = (0..n).map(|_| F::random(rng)).collect();
        Ok(Self {
            families,
            id: rng.random::<u64>(),
        })
    }

    /// Number of basic counters.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// The schema identity: random at construction, preserved by
    /// serialization, equal only for sketches that may merge/join.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the schema is empty (never true for a constructed schema).
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// A zeroed sketch bound to this schema.
    pub fn sketch(&self) -> AgmsSketch<F> {
        AgmsSketch {
            schema: self.clone(),
            counters: vec![0; self.families.len()],
        }
    }
}

/// An AGMS sketch: `n` atomic counters, each `Σᵢ fᵢ·ξᵢ⁽ᵏ⁾`.
#[derive(Debug)]
pub struct AgmsSketch<F = DefaultSign> {
    schema: AgmsSchema<F>,
    counters: Vec<i64>,
}

// Manual impl, like the schema's: the families sit behind an `Arc`, so a
// sketch clones without requiring `F: Clone`.
impl<F> Clone for AgmsSketch<F> {
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            counters: self.counters.clone(),
        }
    }
}

impl<F: SignFamily> AgmsSketch<F> {
    /// The raw counter values `S₁ … Sₙ`.
    pub fn raw_counters(&self) -> &[i64] {
        &self.counters
    }

    /// The schema this sketch was created from.
    pub fn schema(&self) -> &AgmsSchema<F> {
        &self.schema
    }

    fn check_schema(&self, other: &Self) -> Result<()> {
        if self.schema.id == other.schema.id && self.counters.len() == other.counters.len() {
            Ok(())
        } else {
            Err(Error::SchemaMismatch)
        }
    }

    /// The basic self-join estimates `Sₖ²` (unaveraged, Proposition 8).
    pub fn self_join_basics(&self) -> Vec<f64> {
        self.counters
            .iter()
            .map(|&s| (s as f64) * (s as f64))
            .collect()
    }

    /// Averaged self-join size estimate `F₂ ≈ (1/n)·ΣSₖ²`.
    pub fn self_join(&self) -> f64 {
        estimate::mean(&self.self_join_basics())
    }

    /// Median-of-means self-join estimate over `groups` groups.
    pub fn self_join_median_of_means(&self, groups: usize) -> f64 {
        estimate::median_of_means(&self.self_join_basics(), groups)
    }

    /// The basic size-of-join estimates `Sₖ·Tₖ` (Proposition 7).
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    pub fn size_of_join_basics(&self, other: &Self) -> Result<Vec<f64>> {
        self.check_schema(other)?;
        Ok(self
            .counters
            .iter()
            .zip(&other.counters)
            .map(|(&s, &t)| s as f64 * t as f64)
            .collect())
    }

    /// Averaged size-of-join estimate `|F ⋈ G| ≈ (1/n)·ΣSₖTₖ`.
    pub fn size_of_join(&self, other: &Self) -> Result<f64> {
        Ok(estimate::mean(&self.size_of_join_basics(other)?))
    }

    /// Typed self-join estimate: the value is bit-identical to
    /// [`AgmsSketch::self_join`], the variance is the empirical sample
    /// variance across the `n` independent basics divided by `n`.
    ///
    /// With a single counter the empirical spread is undefined and the
    /// Prop.-8 analytic bound `Var ≤ 2·F₂²/n` is plugged in (dropping the
    /// `−2F₄` term, so it over-covers).
    pub fn self_join_estimate(&self) -> Estimate {
        let n = self.counters.len() as f64;
        Estimate::from_mean(self.self_join_basics()).or_variance(|v| 2.0 * v * v / n)
    }

    /// Point estimate of the frequency of `key`: the mean over counters of
    /// `ξₖ(key)·Sₖ`. Each term is unbiased (`E[ξₖ(key)·ξₖ(j)]` vanishes for
    /// `j ≠ key`) with variance `F₂ − f²`, so the mean's is at most `F₂/n`.
    pub fn point_query(&self, key: u64) -> f64 {
        let signed: i64 = self
            .counters
            .iter()
            .zip(self.schema.families.iter())
            .map(|(&counter, family)| family.sign(key) * counter)
            .sum();
        signed as f64 / self.counters.len() as f64
    }

    /// Typed size-of-join estimate: value bit-identical to
    /// [`AgmsSketch::size_of_join`], empirical variance across the basics.
    /// The single-counter fallback is the Prop.-7 bound
    /// `Var ≤ (F₂(f)·F₂(g) + (Σfg)²)/n` with the self-joins plugged in.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    pub fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        let n = self.counters.len() as f64;
        let e = Estimate::from_mean(self.size_of_join_basics(other)?);
        Ok(e.or_variance(|v| (self.self_join() * other.self_join() + v * v) / n))
    }

    /// Add `count` occurrences of `key` (negative counts model deletions:
    /// the sketch is turnstile-capable).
    #[inline]
    pub fn update(&mut self, key: u64, count: i64) {
        for (counter, family) in self.counters.iter_mut().zip(self.schema.families.iter()) {
            *counter += count * family.sign(key);
        }
    }

    /// Add one occurrence of every key in the batch, bit-identically to
    /// [`update`](Self::update) once per key.
    ///
    /// Family-major: a whole batch contributes `Σᵢ ξ(kᵢ)` to each counter,
    /// so every family makes one fused pass over the keys with its seed hot
    /// and never materializes a per-key sign. The sums come from the
    /// runtime-dispatched `sss_xi::kernels` sign kernels through the
    /// family's `sign_sum`/`sign_dot`; integer addition commutes.
    pub fn update_batch(&mut self, keys: &[u64]) {
        for (counter, family) in self.counters.iter_mut().zip(self.schema.families.iter()) {
            *counter += family.sign_sum(keys);
        }
    }

    /// Add `count` occurrences of `key` for every `(key, count)` pair,
    /// bit-identically to the per-pair [`update`](Self::update) loop.
    pub fn update_batch_counts(&mut self, items: &[(u64, i64)]) {
        for (counter, family) in self.counters.iter_mut().zip(self.schema.families.iter()) {
            *counter += family.sign_dot(items);
        }
    }

    /// Entry-wise merge of a sketch of another stream fragment: afterwards
    /// `self` sketches the union.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        self.check_schema(other)?;
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        Ok(())
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
    fn zero_counter_schema_is_rejected() {
        assert_eq!(
            AgmsSchema::<DefaultSign>::try_new(0, &mut rng(0)).unwrap_err(),
            Error::InvalidDimensions
        );
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let schema = AgmsSchema::<DefaultSign>::new(16, &mut rng(1));
        let s = schema.sketch();
        assert_eq!(s.self_join(), 0.0);
        assert_eq!(s.size_of_join(&schema.sketch()).unwrap(), 0.0);
    }

    #[test]
    fn single_key_self_join_is_exact() {
        // One key with frequency f: every basic is (f·ξ)² = f² exactly.
        let schema = AgmsSchema::<DefaultSign>::new(8, &mut rng(2));
        let mut s = schema.sketch();
        s.update(42, 7);
        assert_eq!(s.self_join(), 49.0);
        assert_eq!(s.self_join_median_of_means(4), 49.0);
    }

    #[test]
    fn update_with_negative_count_cancels() {
        let schema = AgmsSchema::<DefaultSign>::new(8, &mut rng(3));
        let mut s = schema.sketch();
        for key in 0..100u64 {
            s.update(key, 3);
        }
        for key in 0..100u64 {
            s.update(key, -3);
        }
        assert!(s.raw_counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn merge_equals_union_stream() {
        let schema = AgmsSchema::<DefaultSign>::new(32, &mut rng(4));
        let mut whole = schema.sketch();
        let mut left = schema.sketch();
        let mut right = schema.sketch();
        for key in 0..500u64 {
            whole.update(key, 1);
            if key % 2 == 0 {
                left.update(key, 1);
            } else {
                right.update(key, 1);
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left.raw_counters(), whole.raw_counters());
    }

    #[test]
    fn cross_schema_operations_fail() {
        let a = AgmsSchema::<DefaultSign>::new(8, &mut rng(5));
        let b = AgmsSchema::<DefaultSign>::new(8, &mut rng(6));
        let mut sa = a.sketch();
        let sb = b.sketch();
        assert_eq!(sa.size_of_join(&sb).unwrap_err(), Error::SchemaMismatch);
        assert_eq!(sa.merge(&sb).unwrap_err(), Error::SchemaMismatch);
    }

    /// Monte-Carlo unbiasedness of the point query: over independently
    /// seeded schemas the mean estimate of a mid-weight key converges on
    /// its frequency. One estimate has variance ≤ F₂/n = 29 100/16, so the
    /// mean of 400 has σ ≈ 2.1; allow 4σ.
    #[test]
    fn point_query_is_unbiased() {
        let reps = 400;
        let mut sum = 0.0;
        for rep in 0..reps {
            let schema = AgmsSchema::<DefaultSign>::new(16, &mut rng(900 + rep));
            let mut s = schema.sketch();
            s.update(1, 150);
            s.update(2, 40);
            for key in 100..300u64 {
                s.update(key, 5);
            }
            assert_eq!(schema.sketch().point_query(2), 0.0);
            sum += s.point_query(2);
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - 40.0).abs() < 8.5,
            "mean point estimate {mean} vs 40"
        );
    }

    #[test]
    fn self_join_estimate_concentrates() {
        // Uniform relation: 1000 keys × frequency 4 -> F₂ = 16_000.
        let schema = AgmsSchema::<DefaultSign>::new(600, &mut rng(7));
        let mut s = schema.sketch();
        for key in 0..1000u64 {
            s.update(key, 4);
        }
        let est = s.self_join();
        let truth = 16_000.0;
        assert!((est - truth).abs() / truth < 0.2, "est = {est}");
    }

    #[test]
    fn size_of_join_estimate_concentrates() {
        let schema = AgmsSchema::<DefaultSign>::new(800, &mut rng(8));
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        // F: keys 0..500 freq 2; G: keys 250..750 freq 3; overlap 250 keys.
        for key in 0..500u64 {
            s.update(key, 2);
        }
        for key in 250..750u64 {
            t.update(key, 3);
        }
        let truth = 250.0 * 2.0 * 3.0;
        let est = s.size_of_join(&t).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.5,
            "est = {est}, truth = {truth}"
        );
    }

    /// The batched kernels must leave exactly the counter state of the
    /// per-key loop, across chunk boundaries and with negative counts.
    #[test]
    fn batched_updates_are_bit_identical_to_scalar() {
        let schema = AgmsSchema::<DefaultSign>::new(16, &mut rng(50));
        let keys: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let items: Vec<(u64, i64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i as i64 % 7) - 3))
            .collect();
        let mut scalar = schema.sketch();
        let mut batched = schema.sketch();
        for &k in &keys {
            scalar.update(k, 1);
        }
        batched.update_batch(&keys);
        assert_eq!(scalar.raw_counters(), batched.raw_counters());
        for &(k, c) in &items {
            scalar.update(k, c);
        }
        batched.update_batch_counts(&items);
        assert_eq!(scalar.raw_counters(), batched.raw_counters());
    }

    /// Monte-Carlo unbiasedness and Prop 8 variance: over many schemas, the
    /// sample mean of `S²` matches F₂ and the sample variance matches
    /// `2(F₂² − F₄)/n`.
    #[test]
    fn self_join_moments_match_proposition_8() {
        let freqs: Vec<(u64, i64)> = (0..50u64).map(|k| (k, (k % 7 + 1) as i64)).collect();
        let f2: f64 = freqs.iter().map(|&(_, f)| (f * f) as f64).sum();
        let f4: f64 = freqs.iter().map(|&(_, f)| (f as f64).powi(4)).sum();
        let n = 16usize;
        let reps = 3000;
        let mut r = rng(9);
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        for _ in 0..reps {
            let schema = AgmsSchema::<DefaultSign>::new(n, &mut r);
            let mut s = schema.sketch();
            for &(k, f) in &freqs {
                s.update(k, f);
            }
            let est = s.self_join();
            sum += est;
            sum_sq += est * est;
        }
        let mean = sum / reps as f64;
        let var = sum_sq / reps as f64 - mean * mean;
        let theory_var = 2.0 * (f2 * f2 - f4) / n as f64;
        assert!((mean - f2).abs() / f2 < 0.02, "mean = {mean}, F₂ = {f2}");
        assert!(
            (var - theory_var).abs() / theory_var < 0.15,
            "var = {var}, theory = {theory_var}"
        );
    }
}
