//! `MultiSummary` — one ingestion pass, every query capability.
//!
//! The paper's one-pass promise culminates here: a composite summary that
//! fans each `update_batch` into four specialized summaries —
//!
//! * a [`JoinSketch`] for F₂ / size-of-join ([`JoinQuery`]) — and, being a
//!   Count-Sketch, for the frequency of any one key,
//! * a [`MisraGries`] counter summary that chooses the heavy-hitter
//!   candidates ([`TopKQuery`]),
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
//! # One Count-Sketch
//!
//! F-AGMS — the sketch the paper runs its experiments on — *is*
//! Count-Sketch, so the composite keeps one. Heavy hitters split into the
//! two jobs a tracker does: *choosing* candidates is Misra–Gries's, whose
//! counters cannot be fooled by hash collisions (at depth 3 a light key
//! needs only two rows shared with a heavy one to read as heavy: a
//! tracker that admits by sketch estimate takes it, a counter never sees
//! it twice); *pricing* them is the join sketch's, whose
//! [`point_query`](JoinSketch::point_query) is unbiased where a
//! Misra–Gries counter undercounts. [`TopKQuery::top_k_estimates`] is the
//! `capacity` largest counters re-scored by the sketch;
//! [`TopKQuery::frequency_estimate`] is the point query, for any key, with
//! variance `F₂ /` [`averaging_factor`](JoinSketch::averaging_factor).
//!
//! # The write path
//!
//! `update_batch` does not run four batch kernels over the same keys, nor
//! probe two hash tables for them. Misra–Gries cuts the batch into chunks
//! ending on its compaction positions and gathers each chunk in its
//! counter table, one probe per tuple that bumps both the key's counter
//! and its count in the chunk. At the chunk's end the positions the chunk
//! touched give its keys, with those counts: the chunk's
//! [`KeyRuns`](sss_sketch::KeyRuns). The other parts ride on
//! them ([`MisraGries::offer_chunks`]):
//!
//! * **Order-free, fed per distinct key:** the join sketch takes
//!   `(key, count)` pairs (counter additions commute) and HyperLogLog takes
//!   the distinct keys (registers only grow) — both end up exactly where
//!   the per-tuple loop leaves them. A key's sign and bucket hashes are
//!   evaluated once per distinct key of a chunk, for three rows, by the
//!   kernels [`sss_xi::Dispatch`] picks at run time (AVX2 where the CPU
//!   has it).
//! * **At fixed stream positions:** Misra–Gries compacts when the offered
//!   weight crosses a multiple of the chunk length, never in between, so a
//!   chunk that ends there can be gathered whole.
//! * **By position, per window:** KLL keeps one tuple of every aligned
//!   window of `2^base` (its bottom levels are a sampler whose coins depend
//!   on stream position alone, see [`sss_sketch::kll`]), found by index
//!   without touching the others; only the survivors enter its compactors,
//!   in arrival order. Chunks end on multiples of 2048 offered tuples, so
//!   on this path every window is whole.
//!
//! The invariant all of it keeps: **state is a function of the tuple
//! sequence, never of call boundaries** — `encode()` after `update_batch`
//! equals `encode()` after the per-key `update` loop, however a shard
//! worker's coalescing cut the stream into calls
//! (`tests/batch_properties.rs` pins it byte for byte).
//!
//! # Reads of a sum
//!
//! A sharded runtime's fresh answers come off its shards' parts without
//! the merge (§VI-C: the merged join counters are the shards' sum): F₂
//! from the summed join rows, F₀ from the HyperLogLog registers maxed,
//! quantiles from the KLLs merged into scratch, top-k from the Misra–Gries
//! parts merged into scratch and priced by the point query over the summed
//! cells. The scratch merges start from the empty `zero` and take the
//! parts in the fold's order, so every answer has the fold's bits
//! ([`JoinQuery::self_join_estimate_of_sum`],
//! [`DistinctQuery::distinct_estimate_of_sum`],
//! [`QuantileQuery::quantile_with_bounds_of_sum`],
//! [`TopKQuery::top_k_of_sum`]); only the join counters, the bulk of the
//! state, are never copied. A part of another spec is the error
//! `merge_from` returns; over no parts each read is the zero's own.
//!
//! Construction goes through a [`MultiSpec`], which freezes the random
//! seeds of the constituents: any two summaries minted from the same
//! spec (or cloned from each other) are mergeable, which is exactly the
//! property sharding needs.

use crate::error::Result;
use crate::sampled::Sampled;
use crate::sketch::{JoinSchema, JoinSketch};
use crate::summary::{
    fold, priced, DistinctQuery, JoinQuery, Portable, QuantileQuery, Summary, TopKQuery,
};
use rand::Rng;
use sss_sketch::topk::ranked;
use sss_sketch::{Estimate, HyperLogLog, KllSketch, MisraGries};
use sss_xi::{Codec, CodecError, Reader, Writer};

/// Frozen configuration (geometries + seeds) for [`MultiSummary`]
/// construction. Two summaries merge iff they were minted from the same
/// spec (or clones of it).
#[derive(Debug, Clone)]
pub struct MultiSpec {
    join: JoinSchema,
    heavy_capacity: usize,
    hll_precision: u8,
    hll_seed: u64,
    kll_k: usize,
    kll_seed: u64,
}

impl MultiSpec {
    /// A spec over the given join schema with the crate's default
    /// geometries for the other three summaries: 256 Misra–Gries
    /// heavy-hitter candidates, a precision-12 HyperLogLog (±1.6%), and a
    /// k = 200 KLL sketch (ε ≈ 1.6%).
    pub fn new<R: Rng>(join: JoinSchema, rng: &mut R) -> Self {
        Self {
            join,
            heavy_capacity: 256,
            hll_precision: 12,
            hll_seed: rng.random(),
            kll_k: 200,
            kll_seed: rng.random(),
        }
    }

    /// Override the number of heavy-hitter candidates (Misra–Gries
    /// counters kept across a compaction).
    pub fn top_k(mut self, capacity: usize) -> Self {
        self.heavy_capacity = capacity;
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
            heavy: MisraGries::new(self.heavy_capacity)?,
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
#[derive(Debug, Clone)]
pub struct MultiSummary {
    join: JoinSketch,
    heavy: MisraGries,
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

    /// The constituent heavy-hitter candidate summary (raw,
    /// sample-domain).
    pub fn heavy(&self) -> &MisraGries {
        &self.heavy
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

/// The four parts' layouts, in order.
impl Codec for MultiSummary {
    fn put(&self, w: &mut Writer) {
        self.join.put(w);
        self.heavy.put(w);
        self.distinct.put(w);
        self.quantiles.put(w);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(Self {
            join: JoinSketch::take(r)?,
            heavy: MisraGries::take(r)?,
            distinct: HyperLogLog::take(r)?,
            quantiles: KllSketch::take(r)?,
        })
    }
}

/// Fan-out ingestion: every constituent absorbs the same tuples, and
/// `update_batch` leaves each of them bit-identical to the per-key loop —
/// see the module docs for what the batch path shares.
///
/// `merge_from` is all or nothing: whatever a part could refuse —
/// another spec's seeds or geometry, offered weights that sum past
/// `u64::MAX` (reachable only from a decoded snapshot) — is asked of every
/// part before any of them is touched, so a refusal leaves `self` as it
/// was.
impl Summary for MultiSummary {
    fn update(&mut self, key: u64, count: i64) {
        Summary::update(&mut self.join, key, count);
        Summary::update(&mut self.heavy, key, count);
        Summary::update(&mut self.distinct, key, count);
        Summary::update(&mut self.quantiles, key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        let Self {
            join,
            heavy,
            distinct,
            quantiles,
        } = self;
        heavy.offer_chunks(keys, |runs, chunk| {
            join.update_batch_counts(runs.items());
            distinct.insert_all(runs.items().iter().map(|&(key, _)| key));
            quantiles.insert_batch(chunk);
        });
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        self.check_merge(other)?;
        self.join.merge_from(&other.join)?;
        self.heavy.merge_from(&other.heavy)?;
        self.distinct.merge_from(&other.distinct)?;
        self.quantiles.merge_from(&other.quantiles)
    }

    /// The join counters and HLL registers are shared (`0 + c = c`,
    /// `max(0, r) = r`); Misra–Gries and KLL merge into the zero's empty
    /// parts as [`merge_from`](Summary::merge_from) would, compaction
    /// included, KLL sharing the part's levels and Misra–Gries the part's
    /// table, its compaction owed until the merge is read or written.
    fn merged_into(&self, zero: &Self) -> Result<Self> {
        zero.check_merge(self)?;
        let mut heavy = zero.heavy.clone();
        let mut quantiles = zero.quantiles.clone();
        heavy.merge_from(&self.heavy)?;
        quantiles.merge_from(&self.quantiles)?;
        Ok(Self {
            join: self.join.clone(),
            heavy,
            distinct: self.distinct.clone(),
            quantiles,
        })
    }
}

impl JoinQuery for MultiSummary {
    fn self_join_estimate(&self) -> Estimate {
        JoinQuery::self_join_estimate(&self.join)
    }

    fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        JoinQuery::size_of_join_estimate(&self.join, &other.join)
    }

    /// The join sketches' read of their sum, once the parts would merge.
    fn self_join_estimate_of_sum(zero: &Self, parts: &[&Self]) -> Result<Estimate> {
        let joins = Self::each(zero, parts, |part| &part.join)?;
        JoinQuery::self_join_estimate_of_sum(&zero.join, &joins)
    }
}

/// Misra–Gries picks, the join sketch prices — see the module docs. A
/// top-k answer is shorter than asked when fewer keys stand out: no
/// counter holds a key far below `n/(capacity+1)` across a compaction.
///
/// Every frequency carries one lane's point-query variance,
/// `F₂ / averaging_factor` with `F₂` read from the sketch itself (clamped
/// at 0 — the estimate is noisy); the median or mean over lanes only
/// concentrates further.
impl TopKQuery for MultiSummary {
    fn frequency_estimate(&self, key: u64) -> Estimate {
        let variance = self.frequency_variance_at(self.join.raw_self_join());
        priced(self.join.point_query(key), variance)
    }

    fn top_k_estimates(&self, k: usize) -> Vec<(u64, Estimate)> {
        let variance = self.frequency_variance_at(self.join.raw_self_join());
        let top = self.ranked_candidates(k).into_iter();
        top.map(|(key, value)| (key, priced(value, variance)))
            .collect()
    }

    /// The candidates of the Misra–Gries parts' [`fold`] into `zero`'s,
    /// each priced by the point query over the join sketches' sum
    /// ([`JoinSketch::point_queries_of_sum`]), the variance from `f2` or
    /// from the F₂ of that sum, which it leaves in `f2`.
    fn top_k_of_sum(
        zero: &Self,
        parts: &[&Self],
        k: usize,
        f2: &mut Option<f64>,
    ) -> Result<Vec<(u64, Estimate)>> {
        let joins = Self::each(zero, parts, |part| &part.join)?;
        let heavies: Vec<&MisraGries> = parts.iter().map(|part| &part.heavy).collect();
        let keys = fold(&zero.heavy, &heavies)?.candidates();
        let values = JoinSketch::point_queries_of_sum(&zero.join, &joins, &keys)?;
        let f2 = match *f2 {
            Some(f2) => f2,
            None => *f2.insert(JoinQuery::self_join_estimate_of_sum(&zero.join, &joins)?.value),
        };
        let variance = zero.frequency_variance_at(f2);
        let top = ranked(keys.into_iter().zip(values).collect(), k).into_iter();
        Ok(top
            .map(|(key, value)| (key, priced(value, variance)))
            .collect())
    }
}

impl MultiSummary {
    /// Whatever a part could refuse to merge `other` into `self`.
    fn check_merge(&self, other: &Self) -> Result<()> {
        // The fingerprint is the parts' merge conditions (schema identity
        // and geometry, capacity, precision and seed, `k`), chained.
        if Portable::fingerprint(self) != Portable::fingerprint(other) {
            return Err(sss_sketch::Error::SchemaMismatch.into());
        }
        let offered = (self.heavy.items_offered()).checked_add(other.heavy.items_offered());
        let ranked = self.quantiles.len().checked_add(other.quantiles.len());
        if offered.and(ranked).is_none() {
            return Err(sss_sketch::Error::WeightOverflow.into());
        }
        Ok(())
    }

    /// One constituent of every part, once every part would merge into
    /// `zero` (what the fold asks of each one).
    fn each<'a, T>(
        zero: &Self,
        parts: &[&'a Self],
        of: fn(&'a Self) -> &'a T,
    ) -> Result<Vec<&'a T>> {
        parts.iter().try_for_each(|part| zero.check_merge(part))?;
        Ok(parts.iter().map(|part| of(part)).collect())
    }

    /// The point-query variance given the join sketch's own `F₂`.
    pub(crate) fn frequency_variance_at(&self, f2: f64) -> f64 {
        f2.max(0.0) / self.join.averaging_factor() as f64
    }

    /// The `k` heaviest Misra–Gries candidates, each priced by the join
    /// sketch's point query in one batched call
    /// ([`JoinSketch::point_queries`], bit for bit the point queries).
    pub(crate) fn ranked_candidates(&self, k: usize) -> Vec<(u64, f64)> {
        let keys = self.heavy.candidates();
        let scored = keys
            .iter()
            .copied()
            .zip(self.join.point_queries(&keys))
            .collect();
        ranked(scored, k)
    }
}

impl DistinctQuery for MultiSummary {
    fn distinct_estimate(&self) -> Estimate {
        DistinctQuery::distinct_estimate(&self.distinct)
    }

    /// The HyperLogLogs' read of their sum: the registers maxed.
    fn distinct_estimate_of_sum(zero: &Self, parts: &[&Self]) -> Result<Estimate> {
        let registers = Self::each(zero, parts, |part| &part.distinct)?;
        DistinctQuery::distinct_estimate_of_sum(&zero.distinct, &registers)
    }
}

impl QuantileQuery for MultiSummary {
    fn quantiles(&self, ranks: &[f64]) -> Result<Vec<f64>> {
        QuantileQuery::quantiles(&self.quantiles, ranks)
    }

    fn rank(&self, value: u64) -> f64 {
        QuantileQuery::rank(&self.quantiles, value)
    }

    fn rank_error(&self, q: f64) -> f64 {
        QuantileQuery::rank_error(&self.quantiles, q)
    }

    fn stream_len(&self) -> u64 {
        QuantileQuery::stream_len(&self.quantiles)
    }

    /// The KLLs' read of their sum: their fold into `zero`'s, in order
    /// (the coins of a KLL merge depend on it), asked.
    fn quantile_with_bounds_of_sum(
        zero: &Self,
        parts: &[&Self],
        q: f64,
        widen: f64,
    ) -> Result<(f64, (f64, f64))> {
        let klls = Self::each(zero, parts, |part| &part.quantiles)?;
        QuantileQuery::quantile_with_bounds_of_sum(&zero.quantiles, &klls, q, widen)
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
        Summary::update_batch(&mut parts.heavy, &keys);
        Summary::update_batch(&mut parts.distinct, &keys);
        Summary::update_batch(&mut parts.quantiles, &keys);

        assert_eq!(multi.self_join_estimate(), parts.join.self_join_estimate());
        assert_eq!(multi.top_k_estimates(10), parts.top_k_estimates(10));
        assert_eq!(
            multi.heavy.top_k_estimates(10),
            parts.heavy.top_k_estimates(10)
        );
        assert_eq!(
            multi.distinct_estimate(),
            parts.distinct.distinct_estimate()
        );
        assert_eq!(
            multi.quantile_with_bounds(0.5).unwrap(),
            parts.quantiles.quantile_with_bounds(0.5).unwrap()
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
        assert_eq!(left.self_join_estimate(), whole.self_join_estimate());
        // HyperLogLog registers are max-merged: exactly equal.
        assert_eq!(left.distinct_estimate(), whole.distinct_estimate());
        // KLL / top-k merges are guarantee-preserving, not bit-identical:
        // check the quantile lands within the (merged) rank error.
        let med = left.quantiles(&[0.5]).unwrap()[0];
        let rank = QuantileQuery::rank(&whole, med as u64);
        assert!((rank - 0.5).abs() < 2.0 * QuantileQuery::rank_error(&left, 0.5));
        assert_eq!(QuantileQuery::stream_len(&left), keys.len() as u64);
    }

    /// A refusal comes before any part is touched — also when the part
    /// that differs (here the HyperLogLog precision) merges last but one.
    #[test]
    fn mismatched_specs_refuse_to_merge() {
        let keys = stream();
        let mut a = spec(4).summary().unwrap();
        Summary::update_batch(&mut a, &keys);
        let before = Portable::encode(&a).unwrap();
        for other in [spec(5), spec(4).distinct_precision(10), spec(4).top_k(64)] {
            let mut b = other.summary().unwrap();
            Summary::update_batch(&mut b, &keys);
            assert!(a.merge_from(&b).is_err());
            assert_eq!(Portable::encode(&a).unwrap(), before);
        }
    }

    /// The contract a counter front brings: a top-k ranks the keys that
    /// stand out and is as long as there are any. Two chunks of all-new
    /// keys end on a compaction that keeps none; once some keys repeat,
    /// exactly those come back. A frequency answers either way.
    #[test]
    fn top_k_is_as_long_as_keys_stand_out() {
        let mut multi = spec(7).summary().unwrap();
        let flat: Vec<u64> = (0..2 * MisraGries::CHUNK as u64).collect();
        Summary::update_batch(&mut multi, &flat);
        assert_eq!(multi.top_k_estimates(5), vec![]);
        assert!((multi.frequency_estimate(9).value - 1.0).abs() < 10.0);
        for (key, copies) in [(9u64, 300usize), (4, 200), (2, 100)] {
            Summary::update_batch(&mut multi, &vec![key; copies]);
        }
        let top = multi.top_k_estimates(5);
        let keys: Vec<u64> = top.iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, [9, 4, 2]);
    }

    /// Each family read off parts answers what the fold of those parts
    /// into the empty summary answers, bit for bit, at one to three parts;
    /// a top-k handed the merge's F₂ answers the same as one that reads it.
    /// Over no parts each read is the zero's own (a quantile of nothing is
    /// an error), and a part of another spec is the error `merge_from`
    /// returns.
    #[test]
    fn reads_of_a_sum_are_the_folds_answers() {
        let spec = spec(8);
        let keys = stream();
        let zero = spec.summary().unwrap();
        let parts: Vec<MultiSummary> = keys
            .chunks(keys.len() / 3 + 1)
            .map(|chunk| {
                let mut part = spec.summary().unwrap();
                Summary::update_batch(&mut part, chunk);
                part
            })
            .collect();
        let bits = |e: &Estimate| [e.value.to_bits(), e.variance.to_bits()];
        for n in 1..=3 {
            let refs: Vec<&MultiSummary> = parts[..n].iter().collect();
            let fold = fold(&zero, &refs).unwrap();
            let distinct = MultiSummary::distinct_estimate_of_sum(&zero, &refs).unwrap();
            assert_eq!(bits(&distinct), bits(&fold.distinct_estimate()), "{n}");
            let (q, (lo, hi)) =
                MultiSummary::quantile_with_bounds_of_sum(&zero, &refs, 0.3, 0.0).unwrap();
            let (fq, (flo, fhi)) = fold.quantile_with_bounds(0.3).unwrap();
            assert_eq!(
                [q, lo, hi].map(f64::to_bits),
                [fq, flo, fhi].map(f64::to_bits)
            );
            let mut f2 = None;
            let top = MultiSummary::top_k_of_sum(&zero, &refs, 12, &mut f2).unwrap();
            let want: Vec<_> = fold
                .top_k_estimates(12)
                .into_iter()
                .map(|(key, _)| (key, bits(&fold.frequency_estimate(key))))
                .collect();
            let got: Vec<_> = top.iter().map(|(key, e)| (*key, bits(e))).collect();
            assert_eq!(got, want, "{n}");
            assert_eq!(
                f2.map(f64::to_bits),
                Some(fold.self_join_estimate().value.to_bits())
            );
            let again = MultiSummary::top_k_of_sum(&zero, &refs, 12, &mut f2).unwrap();
            assert_eq!(
                again
                    .iter()
                    .map(|(key, e)| (*key, bits(e)))
                    .collect::<Vec<_>>(),
                got
            );
        }
        let none = MultiSummary::distinct_estimate_of_sum(&zero, &[]).unwrap();
        assert_eq!(bits(&none), bits(&zero.distinct_estimate()));
        let none = MultiSummary::self_join_estimate_of_sum(&zero, &[]).unwrap();
        assert_eq!(bits(&none), bits(&zero.self_join_estimate()));
        let none = MultiSummary::top_k_of_sum(&zero, &[], 3, &mut None).unwrap();
        assert_eq!(none, zero.top_k_estimates(3));
        assert!(MultiSummary::quantile_with_bounds_of_sum(&zero, &[], 0.5, 0.0).is_err());
        let stranger = spec.clone().top_k(64).summary().unwrap();
        let refused = zero.clone().merge_from(&stranger).unwrap_err();
        assert_eq!(refused, sss_sketch::Error::SchemaMismatch.into());
        let parts = [&parts[0], &stranger];
        let errors = [
            MultiSummary::self_join_estimate_of_sum(&zero, &parts).err(),
            MultiSummary::distinct_estimate_of_sum(&zero, &parts).err(),
            MultiSummary::top_k_of_sum(&zero, &parts, 3, &mut None).err(),
            MultiSummary::quantile_with_bounds_of_sum(&zero, &parts, 0.5, 0.0).err(),
        ];
        assert_eq!(errors, [(); 4].map(|()| Some(refused.clone())));
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
