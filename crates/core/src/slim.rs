//! The slim read-side stage: compact projections of fat update-side
//! summaries (the SF-sketch fat/slim split, arXiv 1701.04148).
//!
//! A fat summary spends its space on *ingestion* — the full counter
//! matrix every update touches. Answering a query needs far less: the
//! join estimate is a function of `depth`-or-`n` per-lane
//! medians-of-means aggregates, a top-k answer is its ranked candidate
//! list, and HLL/KLL state is already compact. [`SlimQuery::slim`]
//! projects the fat state down to exactly that query-sufficient core:
//!
//! | fat summary | slim form | kept state |
//! |---|---|---|
//! | [`JoinSketch`] (AGMS or F-AGMS) | [`SlimJoin`] | per-lane self-join basics + combined [`Estimate`] |
//! | [`MisraGries`] | [`SlimTopK`] | ranked candidate list + variance plug-in |
//! | [`HyperLogLog`] | itself | registers *are* the compact state (documented pass-through) |
//! | [`KllSketch`] | itself | compactors *are* the compact state (documented pass-through) |
//! | [`MultiSummary`] | [`SlimMultiSummary`] | all of the above, projected at once |
//!
//! A slim form is what crosses a process boundary: the CLI prints its size
//! and the codec ships it. No in-process reader uses one — a runtime's
//! read replica holds the fat merge itself and asks it, which the answer
//! contract below makes the same bits.
//!
//! **Answer contract.** Every query a slim form answers is bit-identical
//! to the fat summary's answer at projection time. Queries that
//! structurally need the full counters return
//! [`Error::UnsupportedQuery`] instead of lying:
//!
//! * [`SlimJoin`] answers `self_join`/`self_join_estimate` exactly, but
//!   `size_of_join` against another summary needs both counter matrices —
//!   typed error.
//! * [`SlimTopK`] answers `top_k`/`frequency` for the candidates it
//!   carries exactly; any other key reads `0.0`. The fat form may know
//!   more: between compactions a [`MisraGries`] holds up to
//!   `capacity + CHUNK` counters and prices every one, and inside a
//!   [`SlimMultiSummary`] the fat composite can point-query any key — the
//!   slim one honestly cannot.
//!
//! **Slim states do not merge.** `(a+b)² ≠ a² + b²`: a lane aggregate of
//! a union cannot be recovered from the unions' lane aggregates. The
//! slim form is therefore always projected from *fat* state, merged first.

use crate::error::{Error, Result};
use crate::multi::MultiSummary;
use crate::sketch::JoinSketch;
use crate::summary::{DistinctQuery, JoinQuery, Portable, QuantileQuery, SlimQuery, TopKQuery};
use sss_sketch::{Estimate, HyperLogLog, KllSketch, MisraGries};
use sss_xi::{Codec, CodecError, Reader, Writer};

/// The slim join stage: the fat sketch's typed self-join estimate — value,
/// variance, and the per-lane medians-of-means basics it was combined
/// from — plus the fat configuration fingerprint. Tens of lanes instead
/// of `depth × width` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SlimJoin {
    estimate: Estimate,
    fingerprint: u64,
}

impl SlimJoin {
    /// Package a fat summary's self-join estimate as its slim stage.
    /// `fingerprint` must be the fat summary's, so replicas built from
    /// snapshots of differently-seeded runtimes compare unequal.
    pub fn project(fingerprint: u64, estimate: Estimate) -> Self {
        Self {
            estimate,
            fingerprint,
        }
    }

    /// The projected estimate (value bit-identical to the fat summary's
    /// `self_join()` at projection time).
    pub fn estimate(&self) -> &Estimate {
        &self.estimate
    }

    /// Number of per-lane basics carried (the slim state's size driver).
    pub fn lanes(&self) -> usize {
        self.estimate.basics.len()
    }
}

impl JoinQuery for SlimJoin {
    fn self_join(&self) -> f64 {
        self.estimate.value
    }

    /// Slim stages carry lane aggregates, not counters; a cross-summary
    /// inner product is unanswerable.
    ///
    /// # Errors
    ///
    /// Always [`Error::UnsupportedQuery`].
    fn size_of_join(&self, _other: &Self) -> Result<f64> {
        Err(Error::UnsupportedQuery {
            query: "size_of_join",
            summary: "SlimJoin",
        })
    }

    fn self_join_estimate(&self) -> Estimate {
        self.estimate.clone()
    }

    fn size_of_join_estimate(&self, _other: &Self) -> Result<Estimate> {
        Err(Error::UnsupportedQuery {
            query: "size_of_join_estimate",
            summary: "SlimJoin",
        })
    }
}

// The estimate's value, variance and lanes (floats travel as their bits:
// the variance may legitimately be +∞), then the fat fingerprint.
impl Codec for SlimJoin {
    fn put(&self, w: &mut Writer) {
        w.f64(self.estimate.value);
        w.f64(self.estimate.variance);
        w.f64s(&self.estimate.basics);
        w.u64(self.fingerprint);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(Self {
            estimate: Estimate {
                value: r.f64()?,
                variance: r.f64()?,
                basics: r.f64s()?,
            },
            fingerprint: r.u64()?,
        })
    }
}

impl Portable for SlimJoin {
    const KIND: &'static str = "slim-join";
    const FORMAT: u32 = 2;

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The slim top-k stage: the fat summary's full ranked candidate list
/// (estimate-descending, key-ascending tie-break — the crate-wide top-k
/// order) plus its frequency-variance plug-in.
#[derive(Debug, Clone, PartialEq)]
pub struct SlimTopK {
    ranked: Vec<(u64, f64)>,
    variance: f64,
    fingerprint: u64,
}

impl SlimTopK {
    /// Package a fat summary's ranked candidates as its slim stage.
    pub fn project(fingerprint: u64, ranked: Vec<(u64, f64)>, variance: f64) -> Self {
        Self {
            ranked,
            variance,
            fingerprint,
        }
    }

    /// Number of ranked candidates carried.
    pub fn tracked(&self) -> usize {
        self.ranked.len()
    }
}

impl TopKQuery for SlimTopK {
    /// The carried estimate, or `0.0` for a key not carried: an honest
    /// refusal-by-zero where the fat form could still price the key.
    fn frequency(&self, key: u64) -> f64 {
        self.ranked
            .iter()
            .find(|&&(k, _)| k == key)
            .map_or(0.0, |&(_, est)| est)
    }

    fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        self.ranked.iter().take(k).copied().collect()
    }

    fn frequency_variance(&self) -> f64 {
        self.variance
    }
}

// The ranked candidates as key and estimate columns, then the variance and
// the fat fingerprint.
impl Codec for SlimTopK {
    fn put(&self, w: &mut Writer) {
        let (keys, estimates): (Vec<u64>, Vec<f64>) = self.ranked.iter().copied().unzip();
        w.u64s(&keys);
        w.f64s(&estimates);
        w.f64(self.variance);
        w.u64(self.fingerprint);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let keys = r.u64s()?;
        let estimates = r.f64s()?;
        if keys.len() != estimates.len() {
            return Err(CodecError::Invalid(
                "a slim top-k holds matching key/estimate columns",
            ));
        }
        Ok(Self {
            ranked: keys.into_iter().zip(estimates).collect(),
            variance: r.f64()?,
            fingerprint: r.u64()?,
        })
    }
}

impl Portable for SlimTopK {
    const KIND: &'static str = "slim-topk";
    const FORMAT: u32 = 2;

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The slim composite: one slim stage per constituent capability. The
/// HLL and KLL constituents ride along whole (they are their own compact
/// state), so the composite's space win comes from the join and top-k
/// stages — which is where the fat space went.
///
/// [`MultiSummary`]'s [`slim`](SlimQuery::slim) and
/// [`decode`](Portable::decode) make one, all four stages filled.
#[derive(Debug, Clone)]
pub struct SlimMultiSummary {
    join: SlimJoin,
    topk: SlimTopK,
    distinct: HyperLogLog,
    quantiles: KllSketch,
    fingerprint: u64,
}

impl SlimMultiSummary {
    /// The slim join stage.
    pub fn join(&self) -> &SlimJoin {
        &self.join
    }

    /// The slim top-k stage.
    pub fn topk(&self) -> &SlimTopK {
        &self.topk
    }
}

impl JoinQuery for SlimMultiSummary {
    fn self_join(&self) -> f64 {
        self.join().self_join()
    }

    fn size_of_join(&self, other: &Self) -> Result<f64> {
        self.join().size_of_join(other.join())
    }

    fn self_join_estimate(&self) -> Estimate {
        self.join().self_join_estimate()
    }

    fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        self.join().size_of_join_estimate(other.join())
    }
}

impl TopKQuery for SlimMultiSummary {
    fn frequency(&self, key: u64) -> f64 {
        self.topk().frequency(key)
    }

    fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        self.topk().top_k(k)
    }

    fn frequency_variance(&self) -> f64 {
        self.topk().frequency_variance()
    }
}

impl DistinctQuery for SlimMultiSummary {
    fn distinct(&self) -> f64 {
        DistinctQuery::distinct(&self.distinct)
    }

    fn distinct_estimate(&self) -> Estimate {
        DistinctQuery::distinct_estimate(&self.distinct)
    }
}

impl QuantileQuery for SlimMultiSummary {
    fn quantile(&self, q: f64) -> Result<f64> {
        QuantileQuery::quantile(&self.quantiles, q)
    }

    fn quantiles(&self, ranks: &[f64]) -> Result<Vec<f64>> {
        QuantileQuery::quantiles(&self.quantiles, ranks)
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

/// The four stages' layouts, in order, then the fat fingerprint.
impl Codec for SlimMultiSummary {
    fn put(&self, w: &mut Writer) {
        self.join.put(w);
        self.topk.put(w);
        self.distinct.put(w);
        self.quantiles.put(w);
        w.u64(self.fingerprint);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(Self {
            join: SlimJoin::take(r)?,
            topk: SlimTopK::take(r)?,
            distinct: HyperLogLog::take(r)?,
            quantiles: KllSketch::take(r)?,
            fingerprint: r.u64()?,
        })
    }
}

/// Format 3: format 2's stages in the binary layout (format 2 was JSON, with
/// a format-2 `KllSketch` body for the quantile stage).
impl Portable for SlimMultiSummary {
    const KIND: &'static str = "slim-multi";
    const FORMAT: u32 = 3;

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl SlimQuery for JoinSketch {
    type Slim = SlimJoin;

    fn slim(&self) -> SlimJoin {
        SlimJoin::project(Portable::fingerprint(self), self.raw_self_join_estimate())
    }
}

/// Projects the `capacity` largest counters, the ones a compaction would
/// keep: every key the slim form carries, it prices as the fat summary
/// does. Between compactions the fat summary holds up to
/// `capacity + CHUNK` counters and prices each of them, where the slim form
/// reads 0 for the ones past its `capacity`.
impl SlimQuery for MisraGries {
    type Slim = SlimTopK;

    fn slim(&self) -> SlimTopK {
        SlimTopK::project(
            Portable::fingerprint(self),
            TopKQuery::top_k(self, self.capacity()),
            TopKQuery::frequency_variance(self),
        )
    }
}

/// Documented pass-through: the register array is already the minimal
/// query state, so the slim form *is* the summary.
impl SlimQuery for HyperLogLog {
    type Slim = HyperLogLog;

    fn slim(&self) -> HyperLogLog {
        self.clone()
    }
}

/// Documented pass-through: the compactor contents are already the
/// minimal query state, so the slim form *is* the summary.
impl SlimQuery for KllSketch {
    type Slim = KllSketch;

    fn slim(&self) -> KllSketch {
        self.clone()
    }
}

/// The top-k stage is the composite's own answer — its `capacity`
/// Misra–Gries candidates priced by the join sketch — so the slim form
/// ranks exactly as the fat one does; a key outside it reads 0 where the
/// fat form can point-query (the gap [`SlimTopK`] documents). Its variance
/// takes `F₂` from the join stage, the same combination of the same lanes
/// the fat `frequency_variance` reads, so the lanes are summed once.
impl SlimQuery for MultiSummary {
    type Slim = SlimMultiSummary;

    fn slim(&self) -> SlimMultiSummary {
        let join = self.join().slim();
        let topk = SlimTopK::project(
            Portable::fingerprint(self.heavy()),
            TopKQuery::top_k(self, self.heavy().capacity()),
            self.frequency_variance_at(join.self_join()),
        );
        SlimMultiSummary {
            join,
            topk,
            distinct: self.hll().slim(),
            quantiles: self.kll().slim(),
            fingerprint: Portable::fingerprint(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::JoinSchema;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fed_join_sketch(seed: u64) -> JoinSketch {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = JoinSchema::fagms(5, 256, &mut rng).sketch();
        for k in 0..2_000u64 {
            s.update(k % 113, 1);
        }
        s
    }

    #[test]
    fn slim_join_answers_bit_identically_and_shrinks() {
        let fat = fed_join_sketch(1);
        let slim = fat.slim();
        assert_eq!(slim.self_join().to_bits(), fat.raw_self_join().to_bits());
        let fe = fat.raw_self_join_estimate();
        let se = slim.self_join_estimate();
        assert_eq!(se.value.to_bits(), fe.value.to_bits());
        assert_eq!(se.variance.to_bits(), fe.variance.to_bits());
        assert_eq!(slim.lanes(), 5, "one lane per F-AGMS row");
        let fat_bytes = fat.encode().unwrap().len();
        let slim_bytes = slim.encode().unwrap().len();
        assert!(
            slim_bytes * 5 < fat_bytes,
            "slim {slim_bytes}B should be well under 20% of fat {fat_bytes}B"
        );
    }

    #[test]
    fn slim_join_refuses_cross_joins_and_round_trips() {
        let slim = fed_join_sketch(2).slim();
        assert!(matches!(
            slim.size_of_join(&slim),
            Err(Error::UnsupportedQuery { .. })
        ));
        let back = SlimJoin::decode(&slim.encode().unwrap()).unwrap();
        assert_eq!(back, slim);
        assert_eq!(back.fingerprint(), slim.fingerprint());
    }

    #[test]
    fn slim_topk_matches_fat_answers() {
        let mut fat = MisraGries::new(16).unwrap();
        let keys: Vec<u64> = (0..5_000u64).map(|i| (i * i) % 61).collect();
        Summary::update_batch(&mut fat, &keys);
        let slim = fat.slim();
        assert_eq!(slim.top_k(5), TopKQuery::top_k(&fat, 5));
        for &(k, est) in &slim.top_k(16) {
            assert_eq!(slim.frequency(k).to_bits(), est.to_bits());
            assert_eq!(
                slim.frequency(k).to_bits(),
                TopKQuery::frequency(&fat, k).to_bits()
            );
        }
        assert_eq!(
            slim.frequency_variance().to_bits(),
            TopKQuery::frequency_variance(&fat).to_bits()
        );
        // Untracked key: honest zero.
        assert_eq!(slim.frequency(10_000), 0.0);
        let back = SlimTopK::decode(&slim.encode().unwrap()).unwrap();
        assert_eq!(back, slim);
    }

    /// Between compactions the fat summary holds more counters than the
    /// slim form carries: each key the slim form prices, it prices with the
    /// fat bits, and some key the fat summary holds reads 0 on the slim.
    #[test]
    fn misra_gries_slim_prices_what_it_carries_as_the_fat_does() {
        let mut fat = MisraGries::new(16).unwrap();
        let keys: Vec<u64> = (0..5_000u64).map(|i| (i * i) % 61).collect();
        Summary::update_batch(&mut fat, &keys);
        assert!(
            fat.held() > fat.capacity(),
            "a chunk into its next compaction"
        );
        let slim = fat.slim();
        let mut dropped = 0;
        for key in 0..80u64 {
            let (thin, full) = (slim.frequency(key), TopKQuery::frequency(&fat, key));
            if slim.top_k(fat.capacity()).iter().any(|&(k, _)| k == key) {
                assert_eq!(thin.to_bits(), full.to_bits(), "key {key}");
            } else {
                assert_eq!(thin, 0.0, "key {key}");
                dropped += u32::from(full > 0.0);
            }
        }
        assert!(dropped > 0, "some key the fat summary holds is not carried");
    }

    #[test]
    fn misra_gries_slim_is_exact_for_all_keys() {
        let mut fat = MisraGries::new(32).unwrap();
        let keys: Vec<u64> = (0..4_000u64).map(|i| i % 20).collect();
        Summary::update_batch(&mut fat, &keys);
        let slim = fat.slim();
        for key in 0..40u64 {
            assert_eq!(
                slim.frequency(key).to_bits(),
                TopKQuery::frequency(&fat, key).to_bits(),
                "key {key}: MG slim must answer every key exactly"
            );
        }
    }

    #[test]
    fn slim_multi_serves_all_four_capabilities() {
        let mut rng = StdRng::seed_from_u64(4);
        // The served join geometry: the size claim at the bottom is about
        // the counters a reader does not need, and the join sketch is the
        // only part that has any — at 3×128 the two forms are the same size
        // (17,161 B fat, 16,683 B slim).
        let spec = crate::MultiSpec::new(JoinSchema::fagms(3, 5000, &mut rng), &mut rng);
        let mut fat = spec.summary().unwrap();
        let keys: Vec<u64> = (0..30_000u64).map(|i| i % 777).collect();
        Summary::update_batch(&mut fat, &keys);
        let slim = fat.slim();
        assert_eq!(
            slim.self_join().to_bits(),
            JoinQuery::self_join(&fat).to_bits()
        );
        assert_eq!(slim.top_k(10), TopKQuery::top_k(&fat, 10));
        // Every candidate, bit for bit, and each priced at its point query
        // although the projection prices them in one batched call; the
        // variance from the join stage's F₂ is the fat summary's too.
        let capacity = fat.heavy().capacity();
        let bits = |ranked: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            ranked.into_iter().map(|(k, e)| (k, e.to_bits())).collect()
        };
        assert_eq!(
            bits(slim.top_k(capacity)),
            bits(TopKQuery::top_k(&fat, capacity))
        );
        assert_eq!(slim.topk().tracked(), capacity);
        for &(key, est) in &slim.top_k(capacity) {
            assert_eq!(est.to_bits(), fat.join().point_query(key).to_bits());
        }
        assert_eq!(
            slim.frequency_variance().to_bits(),
            TopKQuery::frequency_variance(&fat).to_bits()
        );
        assert_eq!(
            slim.distinct().to_bits(),
            DistinctQuery::distinct(&fat).to_bits()
        );
        assert_eq!(
            slim.quantile(0.5).unwrap().to_bits(),
            QuantileQuery::quantile(&fat, 0.5).unwrap().to_bits()
        );
        assert_eq!(slim.stream_len(), keys.len() as u64);
        let back = SlimMultiSummary::decode(&slim.encode().unwrap()).unwrap();
        assert_eq!(back.self_join().to_bits(), slim.self_join().to_bits());
        assert_eq!(back.fingerprint(), Portable::fingerprint(&fat));
        let fat_bytes = fat.encode().unwrap().len();
        let slim_bytes = slim.encode().unwrap().len();
        assert!(
            slim_bytes < fat_bytes / 2,
            "slim multi {slim_bytes}B vs fat {fat_bytes}B"
        );
    }

    #[test]
    fn infinite_variance_survives_the_wire() {
        let slim = SlimJoin::project(9, Estimate::point(42.0));
        let back = SlimJoin::decode(&slim.encode().unwrap()).unwrap();
        assert!(back.estimate().variance.is_infinite());
        assert_eq!(back.estimate().value.to_bits(), 42.0f64.to_bits());
    }
}
