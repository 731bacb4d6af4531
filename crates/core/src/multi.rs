//! `MultiSummary` — one ingestion pass, every query capability.
//!
//! The paper's one-pass promise culminates here: a composite summary that
//! fans each `update_batch` into four specialized summaries —
//!
//! * a [`JoinSketch`] for F₂ / size-of-join ([`JoinQuery`]),
//! * a [`CountSketchTopK`] tracker for heavy hitters ([`TopKQuery`]),
//! * a [`HyperLogLog`] for distinct counts ([`DistinctQuery`]),
//! * a [`KllSketch`] for quantiles ([`QuantileQuery`]) —
//!
//! so one pass over the stream (or one `Bernoulli(p)` sample of it, via
//! [`SampledMultiSummary`]) answers all four query families at once.
//! Because [`MultiSummary`] implements [`Summary`], it rides the sharded
//! runtime unchanged: the stream is delivered to the shard workers once,
//! and every constituent summary is fed from that single delivery — this
//! is what the `multi_summary` bench measures against four separate
//! passes.
//!
//! # The write path
//!
//! `update_batch` does not run four batch kernels over the same keys. The
//! top-k tracker cuts the batch into chunks and reduces each chunk to its
//! [`KeyRuns`](sss_sketch::KeyRuns) — distinct keys, their counts, and each
//! tuple's position among them — and the other three parts ride on that
//! one deduplication ([`CountSketchTopK::offer_batch_with`]):
//!
//! * **Shared:** the chunking and the runs. A key's sign and bucket hashes
//!   are evaluated once per distinct key of a chunk, not once per tuple.
//! * **Order-free, fed per distinct key:** the join sketch takes
//!   `(key, count)` pairs (integer counter updates commute) and HyperLogLog
//!   takes the distinct keys (registers only grow) — both end up exactly
//!   where the per-tuple loop leaves them.
//! * **Still per tuple, in arrival order:** the top-k tracker's candidate
//!   bump / counter increment / median / admission / eviction, and KLL's
//!   inserts and compactions, because what they do with a tuple depends on
//!   the tuples before it.
//!
//! The invariant all of it keeps: **state is a function of the tuple
//! sequence, never of call boundaries** — `encode()` after `update_batch`
//! equals `encode()` after the per-key `update` loop, however a shard
//! worker's coalescing cut the stream into calls
//! (`tests/batch_properties.rs` pins it byte for byte).
//!
//! Construction goes through a [`MultiSpec`], which freezes the random
//! seeds of all four constituents: any two summaries minted from the same
//! spec (or cloned from each other) are mergeable, which is exactly the
//! property sharding needs.

use crate::error::Result;
use crate::sampled::Sampled;
use crate::sketch::{JoinSchema, JoinSketch};
use crate::summary::{DistinctQuery, JoinQuery, QuantileQuery, Summary, TopKQuery};
use rand::Rng;
use sss_sketch::{CountSketchTopK, Estimate, FagmsSchema, HyperLogLog, KllSketch};

/// Frozen configuration (geometries + seeds) for [`MultiSummary`]
/// construction. Two summaries merge iff they were minted from the same
/// spec (or clones of it).
#[derive(Debug, Clone)]
pub struct MultiSpec {
    join: JoinSchema,
    topk_schema: FagmsSchema,
    topk_capacity: usize,
    hll_precision: u8,
    hll_seed: u64,
    kll_k: usize,
    kll_seed: u64,
}

impl MultiSpec {
    /// A spec over the given join schema with the crate's default
    /// geometries for the other three summaries: a 5×2048 Count-Sketch
    /// top-k tracker with 256 candidates, a precision-12 HyperLogLog
    /// (±1.6%), and a k = 200 KLL sketch (ε ≈ 1.6%).
    pub fn new<R: Rng>(join: JoinSchema, rng: &mut R) -> Self {
        Self {
            join,
            topk_schema: FagmsSchema::new(5, 2048, rng),
            topk_capacity: 256,
            hll_precision: 12,
            hll_seed: rng.random(),
            kll_k: 200,
            kll_seed: rng.random(),
        }
    }

    /// Override the top-k tracker geometry (its own sketch schema and
    /// candidate capacity).
    pub fn top_k(mut self, schema: FagmsSchema, capacity: usize) -> Self {
        self.topk_schema = schema;
        self.topk_capacity = capacity;
        self
    }

    /// Override the HyperLogLog precision (register count `2^precision`).
    pub fn distinct_precision(mut self, precision: u8) -> Self {
        self.hll_precision = precision;
        self
    }

    /// Override the KLL accuracy parameter `k`.
    pub fn quantile_k(mut self, k: usize) -> Self {
        self.kll_k = k;
        self
    }

    /// Mint an empty [`MultiSummary`]; all mints from one spec share
    /// seeds and therefore merge.
    ///
    /// # Errors
    ///
    /// Invalid geometry (zero capacity, out-of-range precision, tiny `k`).
    pub fn summary(&self) -> Result<MultiSummary> {
        Ok(MultiSummary {
            join: self.join.sketch(),
            topk: CountSketchTopK::new(&self.topk_schema, self.topk_capacity)?,
            distinct: HyperLogLog::with_seed(self.hll_precision, self.hll_seed)?,
            quantiles: KllSketch::with_seed(self.kll_k, self.kll_seed)?,
        })
    }

    /// Mint a [`SampledMultiSummary`]: the composite behind a
    /// `Bernoulli(p)` sampler, so one sampled pass serves all four query
    /// families with the paper's corrections applied on the way out.
    ///
    /// # Errors
    ///
    /// Invalid geometry or `p ∉ (0, 1]`.
    pub fn sampled<R: Rng>(&self, p: f64, seed_rng: &mut R) -> Result<SampledMultiSummary> {
        Sampled::new(self.summary()?, p, seed_rng)
    }
}

/// The composite summary: F₂ + top-k + F₀ + quantiles from one ingestion
/// pass. See the module docs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MultiSummary {
    join: JoinSketch,
    topk: CountSketchTopK,
    distinct: HyperLogLog,
    quantiles: KllSketch,
}

/// A [`MultiSummary`] behind the [`Sampled`] Bernoulli front end — the
/// one-pass sampled multi-query engine the acceptance bench exercises.
pub type SampledMultiSummary = Sampled<MultiSummary>;

impl MultiSummary {
    /// The constituent join sketch (raw, sample-domain).
    pub fn join(&self) -> &JoinSketch {
        &self.join
    }

    /// The constituent top-k tracker (raw, sample-domain).
    pub fn topk(&self) -> &CountSketchTopK {
        &self.topk
    }

    /// The constituent distinct counter (raw, sample-domain).
    pub fn hll(&self) -> &HyperLogLog {
        &self.distinct
    }

    /// The constituent quantile sketch (raw, sample-domain).
    pub fn kll(&self) -> &KllSketch {
        &self.quantiles
    }
}

/// Fan-out ingestion: every constituent absorbs the same tuples, and
/// `update_batch` leaves each of them bit-identical to the per-key loop —
/// see the module docs for what the batch path shares.
///
/// A failed `merge_from` (mismatched specs) can leave earlier
/// constituents merged and later ones not — discard `self` on error;
/// summaries minted from one spec never hit this.
impl Summary for MultiSummary {
    fn update(&mut self, key: u64, count: i64) {
        Summary::update(&mut self.join, key, count);
        Summary::update(&mut self.topk, key, count);
        Summary::update(&mut self.distinct, key, count);
        Summary::update(&mut self.quantiles, key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        let Self {
            join,
            topk,
            distinct,
            quantiles,
        } = self;
        topk.offer_batch_with(keys, |runs, chunk| {
            join.update_batch_counts(runs.items());
            distinct.insert_batch(runs.keys());
            quantiles.insert_batch(chunk);
        });
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        self.join.merge_from(&other.join)?;
        self.topk.merge_from(&other.topk)?;
        self.distinct.merge_from(&other.distinct)?;
        self.quantiles.merge_from(&other.quantiles)
    }
}

impl JoinQuery for MultiSummary {
    fn self_join(&self) -> f64 {
        JoinQuery::self_join(&self.join)
    }

    fn size_of_join(&self, other: &Self) -> Result<f64> {
        JoinQuery::size_of_join(&self.join, &other.join)
    }

    fn self_join_estimate(&self) -> Estimate {
        JoinQuery::self_join_estimate(&self.join)
    }

    fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        JoinQuery::size_of_join_estimate(&self.join, &other.join)
    }
}

impl TopKQuery for MultiSummary {
    fn frequency(&self, key: u64) -> f64 {
        TopKQuery::frequency(&self.topk, key)
    }

    fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        TopKQuery::top_k(&self.topk, k)
    }

    fn frequency_variance(&self) -> f64 {
        TopKQuery::frequency_variance(&self.topk)
    }
}

impl DistinctQuery for MultiSummary {
    fn distinct(&self) -> f64 {
        DistinctQuery::distinct(&self.distinct)
    }

    fn distinct_estimate(&self) -> Estimate {
        DistinctQuery::distinct_estimate(&self.distinct)
    }
}

impl QuantileQuery for MultiSummary {
    fn quantile(&self, q: f64) -> Result<f64> {
        QuantileQuery::quantile(&self.quantiles, q)
    }

    fn rank(&self, value: u64) -> f64 {
        QuantileQuery::rank(&self.quantiles, value)
    }

    fn rank_error(&self) -> f64 {
        QuantileQuery::rank_error(&self.quantiles)
    }

    fn stream_len(&self) -> u64 {
        QuantileQuery::stream_len(&self.quantiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(seed: u64) -> MultiSpec {
        let mut rng = StdRng::seed_from_u64(seed);
        let join = JoinSchema::fagms(3, 1024, &mut rng);
        MultiSpec::new(join, &mut rng)
    }

    fn stream() -> Vec<u64> {
        // Skewed-ish deterministic stream over 500 distinct keys.
        (0..60_000u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 1000).min(499))
            .collect()
    }

    /// The fan-out answers every query bit-identically to feeding each
    /// constituent separately — the composite adds no estimation error.
    #[test]
    fn fan_out_matches_individual_summaries() {
        let spec = spec(1);
        let keys = stream();
        let mut multi = spec.summary().unwrap();
        Summary::update_batch(&mut multi, &keys);

        let mut parts = spec.summary().unwrap();
        Summary::update_batch(&mut parts.join, &keys);
        Summary::update_batch(&mut parts.topk, &keys);
        Summary::update_batch(&mut parts.distinct, &keys);
        Summary::update_batch(&mut parts.quantiles, &keys);

        assert_eq!(
            JoinQuery::self_join(&multi).to_bits(),
            JoinQuery::self_join(&parts.join).to_bits()
        );
        assert_eq!(
            TopKQuery::top_k(&multi, 10),
            TopKQuery::top_k(&parts.topk, 10)
        );
        assert_eq!(
            DistinctQuery::distinct(&multi).to_bits(),
            DistinctQuery::distinct(&parts.distinct).to_bits()
        );
        assert_eq!(
            QuantileQuery::quantile(&multi, 0.5).unwrap().to_bits(),
            QuantileQuery::quantile(&parts.quantiles, 0.5)
                .unwrap()
                .to_bits()
        );
    }

    /// Merging two composites is merging the parts: shard-split equals
    /// single-stream for every capability's guarantee.
    #[test]
    fn merge_equals_union() {
        let spec = spec(2);
        let keys = stream();
        let mut whole = spec.summary().unwrap();
        Summary::update_batch(&mut whole, &keys);
        let mut left = spec.summary().unwrap();
        let mut right = spec.summary().unwrap();
        Summary::update_batch(&mut left, &keys[..keys.len() / 2]);
        Summary::update_batch(&mut right, &keys[keys.len() / 2..]);
        left.merge_from(&right).unwrap();
        // Join sketches are linear: exactly equal.
        assert_eq!(
            JoinQuery::self_join(&left).to_bits(),
            JoinQuery::self_join(&whole).to_bits()
        );
        // HyperLogLog registers are max-merged: exactly equal.
        assert_eq!(
            DistinctQuery::distinct(&left).to_bits(),
            DistinctQuery::distinct(&whole).to_bits()
        );
        // KLL / top-k merges are guarantee-preserving, not bit-identical:
        // check the quantile lands within the (merged) rank error.
        let med = QuantileQuery::quantile(&left, 0.5).unwrap();
        let rank = QuantileQuery::rank(&whole, med as u64);
        assert!((rank - 0.5).abs() < 2.0 * QuantileQuery::rank_error(&left));
        assert_eq!(QuantileQuery::stream_len(&left), keys.len() as u64);
    }

    #[test]
    fn mismatched_specs_refuse_to_merge() {
        let mut a = spec(4).summary().unwrap();
        let b = spec(5).summary().unwrap();
        assert!(a.merge_from(&b).is_err());
    }

    /// The sampled composite answers all four query families with
    /// corrections; sanity-check each against the known stream.
    #[test]
    fn sampled_composite_answers_everything() {
        let spec = spec(6);
        let keys: Vec<u64> = (0..100_000u64).map(|i| i % 500).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = spec.sampled(0.1, &mut rng).unwrap();
        s.feed_batch(&keys);
        assert!(s.kept() < 15_000);
        // F₂ = 500 · 200² = 2e7.
        let f2 = s.self_join_estimate();
        assert!((f2.value - 2e7).abs() / 2e7 < 0.2, "f2 {}", f2.value);
        // F₀ = 500, every key frequent enough to survive sampling.
        let d = s.distinct_estimate();
        assert!((d.value - 500.0).abs() / 500.0 < 0.1, "d {}", d.value);
        // Median of uniform 0..500 ≈ 250.
        let med = s.quantile(0.5).unwrap();
        assert!((med - 250.0).abs() < 50.0, "median {med}");
        // Top-k: all keys tie at 200; any tracked key's estimate ≈ 200.
        let top = s.top_k(5);
        assert!(!top.is_empty());
        assert!(
            (top[0].1.value - 200.0).abs() < 5.0 * top[0].1.variance.sqrt().max(1.0),
            "top freq {}",
            top[0].1.value
        );
    }
}
