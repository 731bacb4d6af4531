//! Epoch-based shedding: unbiased estimates under a **time-varying**
//! sampling rate, in bounded memory.
//!
//! An adaptive load shedder changes `p` as the arrival rate drifts, but
//! the paper's Proposition 14 scaling assumes one fixed `p`. The fix is to
//! segment the stream into *epochs* of constant `p` and keep one sketch
//! per epoch (same schema). Writing `fᵢ = Σ_e fᵢᵉ` for the per-epoch
//! frequencies, the self-join size splits over epoch pairs:
//!
//! ```text
//! F₂ = Σ_{e} Σᵢ (fᵢᵉ)²  +  Σ_{e ≠ e′} Σᵢ fᵢᵉ fᵢᵉ′
//! ```
//!
//! and each piece has an unbiased sketch-over-samples estimator from the
//! paper: the diagonal terms via Proposition 14 (self-join over a
//! Bernoulli sample at `p_e`, with its additive correction), the
//! off-diagonal terms via Proposition 13 (size of join between two
//! *independent* Bernoulli samples at `p_e`, `p_e′` — independence holds
//! because the epochs cover disjoint stream segments). Everything reuses
//! the single shared sketch schema, so the combination is exact linear
//! algebra over the same counters.
//!
//! Two additions keep long-running pipelines bounded (see
//! [`crate::compaction`] for the full argument):
//!
//! * **Same-`p` compaction.** When a rate recurs, the shedder resumes the
//!   epoch that already accumulated at that rate instead of opening a new
//!   one. This is exact: revisiting an epoch just adds more independently
//!   Bernoulli(`p`)-sampled tuples to the same sketch, and `(A+B)²` expands
//!   by linearity to the same diagonal + cross terms the separate epochs
//!   would contribute. Memory is therefore O(#distinct rates), not
//!   O(#rate changes) — with a quantized controller
//!   ([`crate::compaction::RateGrid`]), a hard constant.
//! * **Cross-term caching.** `self_join()` memoizes the pairwise sketch
//!   dot products and recomputes only the rows of epochs that changed
//!   since the last query, so a per-batch monitoring loop pays O(G) sketch
//!   dot products per query instead of O(G²).
//!
//! The same decomposition gives the size of join between two epoch-shedded
//! streams: `Σ_{e,e′} (1/(p_e q_e′))·S_e·T_e′` with no diagonal
//! correction, since the two relations' samples are always independent.
//!
//! The pre-compaction implementation survives as the bit-identity oracle
//! of `tests/epoch_compaction.rs`
//! (`tests/support/mod.rs`).

use crate::compaction::QueryCache;
use crate::error::{Error, Result};
use crate::portable::{TAG_AGMS, TAG_EPOCHS, TAG_FAGMS};
use crate::sampled::{bernoulli_self_join, skip_sample_batch};
use crate::sketch::{JoinSchema, JoinSketch};
use crate::slim::SlimJoin;
use crate::summary::Portable;
use crate::wire;
use rand::rngs::StdRng;
use rand::Rng;
use sss_sampling::bernoulli::GeometricSkip;
use sss_sketch::Estimate;
use std::cell::RefCell;

/// One constant-`p` stream segment (possibly several non-contiguous
/// segments after compaction — the union is still a Bernoulli(`p`) sample
/// of their combined tuples).
#[derive(Debug, Clone)]
pub(crate) struct Epoch {
    pub(crate) p: f64,
    pub(crate) sketch: JoinSketch,
    pub(crate) kept: u64,
    pub(crate) seen: u64,
    /// Bumped whenever the sketch content changes; lets the query cache
    /// skip epochs that are unchanged since the last query.
    pub(crate) version: u64,
}

impl Epoch {
    pub(crate) fn new(p: f64, schema: &JoinSchema) -> Self {
        Self {
            p,
            sketch: schema.sketch(),
            kept: 0,
            seen: 0,
            version: 0,
        }
    }
}

/// Whether two sampling rates are the same epoch rate (relative-epsilon
/// comparison).
#[inline]
fn same_p(a: f64, b: f64) -> bool {
    (a - b).abs() < f64::EPSILON * b.abs()
}

/// A load shedder whose sampling rate may change between epochs while the
/// overall estimate stays unbiased, holding at most one epoch per
/// distinct rate.
#[derive(Debug)]
pub struct EpochShedder {
    schema: JoinSchema,
    /// Invariant: every epoch except possibly the last has `seen > 0`,
    /// and no two epochs share a rate (compaction).
    epochs: Vec<Epoch>,
    /// Index of the epoch currently receiving tuples.
    current: usize,
    skip: GeometricSkip<StdRng>,
    gap: u64,
    cache: RefCell<QueryCache>,
}

impl EpochShedder {
    /// Start a shedder with an initial sampling probability.
    pub fn new<R: Rng>(schema: &JoinSchema, p: f64, seed_rng: &mut R) -> Result<Self> {
        let mut skip = GeometricSkip::<StdRng>::new(p, seed_rng)?;
        let gap = skip.next_gap();
        Ok(Self {
            schema: schema.clone(),
            epochs: vec![Epoch::new(p, schema)],
            current: 0,
            skip,
            gap,
            cache: RefCell::new(QueryCache::default()),
        })
    }

    /// Switch to probability `p` (no-op if `p` equals the current rate).
    ///
    /// If an epoch already accumulated at `p`, it is resumed — the union
    /// of its segments is still one Bernoulli(`p`) sample, so the estimate
    /// stays exactly unbiased while the epoch count stays bounded by the
    /// number of distinct rates. Empty current epochs are reused in place
    /// (or dropped when the target rate already has an epoch).
    pub fn set_probability<R: Rng>(&mut self, p: f64, seed_rng: &mut R) -> Result<()> {
        if same_p(self.epochs[self.current].p, p) {
            return Ok(());
        }
        self.skip = GeometricSkip::<StdRng>::new(p, seed_rng)?;
        self.gap = self.skip.next_gap();
        if let Some(existing) = self.epochs.iter().position(|e| same_p(e.p, p)) {
            if self.epochs[self.current].seen == 0 {
                // A just-created epoch that never saw traffic; it is always
                // the trailing entry, so dropping it cannot shift `existing`.
                debug_assert_eq!(self.current, self.epochs.len() - 1);
                self.epochs.pop();
            }
            self.current = existing;
        } else if self.epochs[self.current].seen == 0 {
            self.epochs[self.current].p = p;
        } else {
            self.epochs.push(Epoch::new(p, &self.schema));
            self.current = self.epochs.len() - 1;
        }
        Ok(())
    }

    /// Offer the next stream tuple; returns whether it was sketched.
    #[inline]
    pub fn observe(&mut self, key: u64) -> bool {
        let epoch = &mut self.epochs[self.current];
        epoch.seen += 1;
        if self.gap > 0 {
            self.gap -= 1;
            return false;
        }
        epoch.sketch.update(key, 1);
        epoch.kept += 1;
        epoch.version += 1;
        self.gap = self.skip.next_gap();
        true
    }

    /// Offer a whole batch of tuples to the current epoch; returns how many
    /// were kept.
    ///
    /// Bit-identical to calling [`EpochShedder::observe`] per key — same
    /// geometric-gap draw order, same sketch state via the batched update
    /// kernel — through the same skip-sampling kernel as
    /// [`crate::Sampled::feed_batch`]
    /// (`crate::sampled::skip_sample_batch`). The whole batch lands in the
    /// epoch in force when the call starts; rate changes take effect
    /// between batches via [`EpochShedder::set_probability`].
    pub fn feed_batch(&mut self, keys: &[u64]) -> u64 {
        let epoch = &mut self.epochs[self.current];
        let kept_now = skip_sample_batch(&mut epoch.sketch, &mut self.skip, &mut self.gap, keys);
        epoch.seen += keys.len() as u64;
        epoch.kept += kept_now;
        if kept_now > 0 {
            epoch.version += 1;
        }
        kept_now
    }

    /// The probability currently in force.
    pub fn probability(&self) -> f64 {
        self.epochs[self.current].p
    }

    /// The smallest sampling rate any epoch ran at — the dominant
    /// contributor to the sampling noise of combined estimates, and the
    /// rate the conservative plug-in variances are evaluated at.
    pub fn min_probability(&self) -> f64 {
        self.epochs.iter().map(|e| e.p).fold(1.0, f64::min)
    }

    /// Number of live epochs — at most one per distinct rate ever used
    /// (bounded by the rate grid size when rates come from a quantized
    /// controller), *not* the number of rate changes.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Tuples offered across all epochs.
    pub fn seen(&self) -> u64 {
        self.epochs.iter().map(|e| e.seen).sum()
    }

    /// Tuples sketched across all epochs.
    pub fn kept(&self) -> u64 {
        self.epochs.iter().map(|e| e.kept).sum()
    }

    /// Unbiased self-join size estimate of the *entire* stream, combining
    /// Proposition 14 within epochs and Proposition 13 across them.
    ///
    /// Pairwise cross terms are served from a cache that only recomputes
    /// the rows of epochs modified since the previous query, so calling
    /// this per batch from a monitoring loop costs O(G) sketch dot
    /// products per call (G = number of distinct rates) instead of O(G²).
    /// The result is bit-identical to [`EpochShedder::self_join_uncached`].
    pub fn self_join(&self) -> Result<f64> {
        let mut cache = self.cache.borrow_mut();
        cache.sync(&self.epochs)?;
        Ok(cache.combined_self_join(&self.epochs))
    }

    /// The cache-free O(G²) self-join path: recomputes every diagonal and
    /// cross term from the sketches. Retained as the oracle the cached
    /// [`EpochShedder::self_join`] is tested (and benchmarked) against.
    pub fn self_join_uncached(&self) -> Result<f64> {
        let mut total = 0.0;
        for (i, e) in self.epochs.iter().enumerate() {
            total += bernoulli_self_join(e.sketch.raw_self_join(), e.p, e.kept);
            for e2 in &self.epochs[i + 1..] {
                let cross = e.sketch.raw_size_of_join(&e2.sketch)?;
                total += 2.0 * cross / (e.p * e2.p);
            }
        }
        Ok(total)
    }

    /// Unbiased size-of-join estimate against a plain sketch of a
    /// **disjoint** stream segment that was itself Bernoulli(`q`)-sampled
    /// (pass `q = 1` for a full-rate sketch), sharing the schema:
    ///
    /// ```text
    /// Σ_e (1/(p_e·q)) · Sₑ·T
    /// ```
    ///
    /// Every epoch's sample is independent of `other`'s sample (disjoint
    /// segments), so each term is a Proposition 13 estimator and the sum
    /// is unbiased for `Σᵢ fᵢ·gᵢ`. This is the cross term a concurrent
    /// engine needs when part of a stream flows full-rate into shard
    /// sketches while overflow is routed through an epoch shedder.
    ///
    /// # Errors
    ///
    /// Rejects `q ∉ (0, 1]` and schema mismatches.
    pub fn size_of_join_sketch(&self, other: &JoinSketch, q: f64) -> Result<f64> {
        if !(q > 0.0 && q <= 1.0) {
            return Err(sss_sampling::Error::InvalidProbability(q).into());
        }
        let mut total = 0.0;
        for e in &self.epochs {
            total += e.sketch.raw_size_of_join(other)? / (e.p * q);
        }
        Ok(total)
    }

    /// Unbiased size-of-join estimate against another epoch-shedded stream
    /// (sharing the sketch schema).
    pub fn size_of_join(&self, other: &EpochShedder) -> Result<f64> {
        let mut total = 0.0;
        for e in &self.epochs {
            for o in &other.epochs {
                let cross = e.sketch.raw_size_of_join(&o.sketch)?;
                total += cross / (e.p * o.p);
            }
        }
        Ok(total)
    }

    /// The per-lane basic estimates of the combined self-join: for each
    /// independent sketch lane `k`, the Prop.-14-corrected diagonal of
    /// every epoch plus the `2/(p_e·p_e′)`-scaled pairwise cross terms —
    /// the same decomposition as [`EpochShedder::self_join_uncached`],
    /// restricted to lane `k`. Combining the lanes (mean or median by
    /// backend) recovers an estimate of the full-stream self-join; their
    /// spread measures the sketch noise of the combined estimator.
    ///
    /// O(G²·lanes) sketch work (G = epoch count, bounded by compaction).
    ///
    /// # Errors
    ///
    /// Propagates schema mismatches (impossible for internally built
    /// epochs).
    pub fn self_join_basics(&self) -> Result<Vec<f64>> {
        let mut lanes = vec![0.0; self.epochs[0].sketch.self_join_basics().len()];
        for (i, e) in self.epochs.iter().enumerate() {
            for (lane, d) in lanes.iter_mut().zip(e.sketch.self_join_basics()) {
                *lane += bernoulli_self_join(d, e.p, e.kept);
            }
            for e2 in &self.epochs[i + 1..] {
                let scale = 2.0 / (e.p * e2.p);
                let cross = e.sketch.size_of_join_basics(&e2.sketch)?;
                for (lane, c) in lanes.iter_mut().zip(cross) {
                    *lane += scale * c;
                }
            }
        }
        Ok(lanes)
    }

    /// The sampling-noise part of the combined self-join variance: the
    /// Bernoulli plug-in summed per epoch (epoch samples are independent),
    /// each evaluated at that epoch's rate, seen count, and corrected
    /// sketch estimate. Cross-epoch terms reuse the same samples as the
    /// diagonals, so their extra sampling covariance is not modeled — the
    /// per-epoch plug-ins (F₃ ≤ F₂^{3/2}, clamped) are conservative
    /// precisely to absorb that.
    pub fn sampling_variance(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| {
                let f2_hat = bernoulli_self_join(e.sketch.raw_self_join(), e.p, e.kept);
                sss_sampling::bernoulli_self_join_variance_plugin(e.p, e.seen, f2_hat)
            })
            .sum()
    }

    /// Typed combined self-join estimate: value bit-identical to
    /// [`EpochShedder::self_join`] (the cached path), lanes from
    /// [`EpochShedder::self_join_basics`], variance = backend-combined
    /// lane spread plus [`EpochShedder::sampling_variance`].
    ///
    /// # Errors
    ///
    /// As for [`EpochShedder::self_join`].
    pub fn self_join_estimate(&self) -> Result<Estimate> {
        let value = self.self_join()?;
        let lanes = self.self_join_basics()?;
        let af = self.schema.averaging_factor() as f64;
        let single = 2.0 * value * value / af;
        let e = self.epochs[0].sketch.combine_lanes(value, lanes, single);
        Ok(e.plus_variance(self.sampling_variance()))
    }

    /// Per-lane basics of [`EpochShedder::size_of_join_sketch`]: the
    /// `1/(p_e·q)`-scaled cross lanes summed over epochs.
    ///
    /// # Errors
    ///
    /// Rejects `q ∉ (0, 1]` and schema mismatches.
    pub fn size_of_join_sketch_basics(&self, other: &JoinSketch, q: f64) -> Result<Vec<f64>> {
        if !(q > 0.0 && q <= 1.0) {
            return Err(sss_sampling::Error::InvalidProbability(q).into());
        }
        let mut lanes = vec![0.0; other.self_join_basics().len()];
        for e in &self.epochs {
            let scale = 1.0 / (e.p * q);
            for (lane, c) in lanes.iter_mut().zip(e.sketch.size_of_join_basics(other)?) {
                *lane += scale * c;
            }
        }
        Ok(lanes)
    }

    /// Typed counterpart of [`EpochShedder::size_of_join_sketch`]: value
    /// bit-identical to the scalar path; variance = backend-combined lane
    /// spread plus a two-sided Bernoulli sampling plug-in evaluated at the
    /// *smallest* epoch rate (the dominant noise contributor — a
    /// deliberate conservative simplification of the per-epoch mixture)
    /// with `other`'s F₂ bounded by `raw_self_join()/q²`.
    ///
    /// # Errors
    ///
    /// Rejects `q ∉ (0, 1]` and schema mismatches.
    pub fn size_of_join_sketch_estimate(&self, other: &JoinSketch, q: f64) -> Result<Estimate> {
        let value = self.size_of_join_sketch(other, q)?;
        let lanes = self.size_of_join_sketch_basics(other, q)?;
        let af = self.schema.averaging_factor() as f64;
        let f2_self = self.self_join()?.max(0.0);
        let f2_other = other.raw_self_join().max(0.0) / (q * q);
        let single = (f2_self * f2_other + value * value) / af;
        let sampling = sss_sampling::bernoulli_size_of_join_variance_plugin(
            self.min_probability(),
            q,
            f2_self,
            f2_other,
            value,
        );
        Ok(other
            .combine_lanes(value, lanes, single)
            .plus_variance(sampling))
    }

    /// Per-lane basics of [`EpochShedder::size_of_join`]: all epoch-pair
    /// cross lanes, each scaled by `1/(p_e·p_o)`.
    ///
    /// # Errors
    ///
    /// Schema mismatch between the two shedders' sketches.
    pub fn size_of_join_basics(&self, other: &EpochShedder) -> Result<Vec<f64>> {
        let mut lanes = vec![0.0; self.epochs[0].sketch.self_join_basics().len()];
        for e in &self.epochs {
            for o in &other.epochs {
                let scale = 1.0 / (e.p * o.p);
                for (lane, c) in lanes
                    .iter_mut()
                    .zip(e.sketch.size_of_join_basics(&o.sketch)?)
                {
                    *lane += scale * c;
                }
            }
        }
        Ok(lanes)
    }

    /// Typed counterpart of [`EpochShedder::size_of_join`] against another
    /// epoch-shedded stream. Value bit-identical to the scalar path;
    /// sampling plug-in evaluated at both sides' smallest epoch rates.
    ///
    /// # Errors
    ///
    /// Schema mismatch between the two shedders' sketches.
    pub fn size_of_join_estimate(&self, other: &EpochShedder) -> Result<Estimate> {
        let value = self.size_of_join(other)?;
        let lanes = self.size_of_join_basics(other)?;
        let af = self.schema.averaging_factor() as f64;
        let f2_self = self.self_join()?.max(0.0);
        let f2_other = other.self_join()?.max(0.0);
        let single = (f2_self * f2_other + value * value) / af;
        let sampling = sss_sampling::bernoulli_size_of_join_variance_plugin(
            self.min_probability(),
            other.min_probability(),
            f2_self,
            f2_other,
            value,
        );
        Ok(self.epochs[0]
            .sketch
            .combine_lanes(value, lanes, single)
            .plus_variance(sampling))
    }

    /// Collapse all epochs into a single merged sketch **only valid when
    /// every epoch used the same `p`** — the fast path for steady load.
    /// With compaction that means exactly one epoch.
    ///
    /// # Errors
    ///
    /// [`Error::IncompatibleEstimators`] if epochs used different rates.
    pub fn merged_sketch(&self) -> Result<(JoinSketch, f64, u64)> {
        let p = self.epochs[0].p;
        if self
            .epochs
            .iter()
            .any(|e| (e.p - p).abs() > f64::EPSILON * p)
        {
            return Err(Error::IncompatibleEstimators);
        }
        let mut merged = self.schema.sketch();
        let mut kept = 0;
        for e in &self.epochs {
            merged.merge(&e.sketch)?;
            kept += e.kept;
        }
        Ok((merged, p, kept))
    }

    /// Project the shedder to a [`SlimJoin`] read replica: the combined
    /// [`EpochShedder::self_join_estimate`] (value, per-lane basics,
    /// stacked sketch + sampling variance) plus this shedder's
    /// configuration fingerprint. The replica answers `self_join()`
    /// bit-identically to the fat shedder at projection time in O(lanes)
    /// bytes, however many epochs the fat side holds.
    ///
    /// # Errors
    ///
    /// As for [`EpochShedder::self_join_estimate`].
    pub fn slim(&self) -> Result<SlimJoin> {
        Ok(SlimJoin::project(
            Portable::fingerprint(self),
            self.self_join_estimate()?,
        ))
    }
}

/// The wire body of an [`EpochShedder`]: the schema plus every epoch in
/// parallel columns (the vendored serde backend has no tuple impls).
/// Sampling probabilities travel as IEEE-754 bit patterns per the
/// [`crate::wire`] determinism invariant.
#[derive(serde::Serialize, serde::Deserialize)]
struct EpochShedderRepr {
    schema: JoinSchema,
    epoch_p_bits: Vec<u64>,
    epoch_sketches: Vec<JoinSketch>,
    epoch_kept: Vec<u64>,
    epoch_seen: Vec<u64>,
    epoch_versions: Vec<u64>,
    current: u64,
    gap: u64,
}

/// Wire encoding for epoch-shedded state.
///
/// The geometric-skip RNG is **not** serialized — `StdRng` has no stable
/// wire representation. [`Portable::decode`] reconstructs the sampler at
/// the current epoch's rate from a seed derived deterministically from the
/// serialized state, and carries the pending `gap` over, so a decoded
/// shedder (a) is deterministic given the bytes and (b) keeps drawing
/// exact `Bernoulli(p)` inclusion decisions — every estimate stays
/// unbiased. What is *not* preserved is the source's private coin
/// sequence: a decoded shedder and its live source diverge on which
/// individual future tuples they keep. All query state (epochs, sketches,
/// counts) round-trips exactly, so estimates at decode time are
/// bit-identical.
impl Portable for EpochShedder {
    const KIND: &'static str = "epochs";
    const FORMAT: u32 = 1;

    /// Fingerprint of the shared sketch schema (all epochs use it), tagged
    /// so it can never collide with a bare [`JoinSketch`] payload of the
    /// same schema.
    fn fingerprint(&self) -> u64 {
        let schema_words = match &self.schema {
            JoinSchema::Agms(s) => vec![TAG_AGMS, s.id(), s.len() as u64],
            JoinSchema::Fagms(s) => {
                vec![TAG_FAGMS, s.id(), s.depth() as u64, s.width() as u64]
            }
        };
        let mut words = vec![TAG_EPOCHS];
        words.extend(schema_words);
        wire::fingerprint(&words)
    }

    fn encode(&self) -> Result<Vec<u8>> {
        let repr = EpochShedderRepr {
            schema: self.schema.clone(),
            epoch_p_bits: self.epochs.iter().map(|e| wire::bits_of(e.p)).collect(),
            epoch_sketches: self.epochs.iter().map(|e| e.sketch.clone()).collect(),
            epoch_kept: self.epochs.iter().map(|e| e.kept).collect(),
            epoch_seen: self.epochs.iter().map(|e| e.seen).collect(),
            epoch_versions: self.epochs.iter().map(|e| e.version).collect(),
            current: self.current as u64,
            gap: self.gap,
        };
        wire::encode_envelope(Self::KIND, Self::FORMAT, Portable::fingerprint(self), repr)
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let repr: EpochShedderRepr = wire::decode_envelope(bytes, Self::KIND, Self::FORMAT)?;
        let n = repr.epoch_sketches.len();
        if n == 0
            || repr.epoch_p_bits.len() != n
            || repr.epoch_kept.len() != n
            || repr.epoch_seen.len() != n
            || repr.epoch_versions.len() != n
        {
            return Err(Error::Wire {
                detail: "epochs payload has mismatched or empty columns".into(),
            });
        }
        let current = repr.current as usize;
        if current >= n {
            return Err(Error::Wire {
                detail: format!("current epoch {current} out of range (have {n})"),
            });
        }
        let mut epochs = Vec::with_capacity(n);
        for i in 0..n {
            let p = wire::f64_of(repr.epoch_p_bits[i]);
            if !(p > 0.0 && p <= 1.0) {
                return Err(Error::Wire {
                    detail: format!("epoch {i} carries invalid probability {p}"),
                });
            }
            epochs.push(Epoch {
                p,
                sketch: repr.epoch_sketches[i].clone(),
                kept: repr.epoch_kept[i],
                seen: repr.epoch_seen[i],
                version: repr.epoch_versions[i],
            });
        }
        // Deterministic reseed (see the impl docs): the coin stream is a
        // pure function of the serialized state, seeded off the counts so
        // distinct snapshots draw distinct streams.
        let seed = wire::fingerprint(&[
            TAG_EPOCHS,
            repr.gap,
            repr.current,
            epochs.iter().map(|e| e.seen).sum::<u64>(),
            epochs.iter().map(|e| e.kept).sum::<u64>(),
        ]);
        use rand::SeedableRng;
        let mut seed_rng = StdRng::seed_from_u64(seed);
        let skip = GeometricSkip::<StdRng>::new(epochs[current].p, &mut seed_rng)?;
        Ok(Self {
            schema: repr.schema,
            epochs,
            current,
            skip,
            gap: repr.gap,
            cache: RefCell::new(QueryCache::default()),
        })
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
    fn estimates_match_scalar_queries_bit_for_bit() {
        let mut r = rng(42);
        let schema = JoinSchema::fagms(5, 256, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.8, &mut r).unwrap();
        for k in 0..20_000u64 {
            shed.observe(k % 300);
            if k == 7_000 {
                shed.set_probability(0.4, &mut r).unwrap();
            }
            if k == 14_000 {
                shed.set_probability(0.6, &mut r).unwrap();
            }
        }
        assert!(shed.epoch_count() > 1);
        let e = shed.self_join_estimate().unwrap();
        assert_eq!(e.value.to_bits(), shed.self_join().unwrap().to_bits());
        assert!(e.variance.is_finite() && e.variance > 0.0);
        assert_eq!(e.basics.len(), 5);

        let mut other = schema.sketch();
        for k in 0..5_000u64 {
            other.update(k % 300, 1);
        }
        let es = shed.size_of_join_sketch_estimate(&other, 1.0).unwrap();
        assert_eq!(
            es.value.to_bits(),
            shed.size_of_join_sketch(&other, 1.0).unwrap().to_bits()
        );
        assert!(es.variance.is_finite());

        let mut shed2 = EpochShedder::new(&schema, 0.5, &mut r).unwrap();
        for k in 0..10_000u64 {
            shed2.observe(k % 300);
        }
        let ee = shed.size_of_join_estimate(&shed2).unwrap();
        assert_eq!(
            ee.value.to_bits(),
            shed.size_of_join(&shed2).unwrap().to_bits()
        );
    }

    /// The lane decomposition must re-combine to (approximately — the
    /// summation order differs) the scalar combined estimate, and the mean
    /// path exactly distributes over lanes.
    #[test]
    fn self_join_basics_recombine_to_the_combined_estimate() {
        let mut r = rng(43);
        let schema = JoinSchema::agms(16, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.9, &mut r).unwrap();
        for k in 0..8_000u64 {
            shed.observe(k % 100);
            if k == 4_000 {
                shed.set_probability(0.5, &mut r).unwrap();
            }
        }
        let lanes = shed.self_join_basics().unwrap();
        assert_eq!(lanes.len(), 16);
        let combined: f64 = lanes.iter().sum::<f64>() / lanes.len() as f64;
        let scalar = shed.self_join().unwrap();
        assert!(
            (combined - scalar).abs() <= scalar.abs() * 1e-9 + 1e-6,
            "lanes {combined} vs scalar {scalar}"
        );
    }

    #[test]
    fn sampling_variance_is_zero_without_shedding() {
        let mut r = rng(44);
        let schema = JoinSchema::agms(8, &mut r);
        let mut shed = EpochShedder::new(&schema, 1.0, &mut r).unwrap();
        for k in 0..1_000u64 {
            shed.observe(k % 50);
        }
        assert_eq!(shed.sampling_variance(), 0.0);
        // Shedding makes it strictly positive.
        let mut lossy = EpochShedder::new(&schema, 0.3, &mut r).unwrap();
        for k in 0..1_000u64 {
            lossy.observe(k % 50);
        }
        assert!(lossy.sampling_variance() > 0.0);
    }

    #[test]
    fn single_epoch_matches_plain_shedder_scaling() {
        let mut r = rng(1);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        let mut shed = EpochShedder::new(&schema, 1.0, &mut r).unwrap();
        for k in 0..50_000u64 {
            shed.observe(k % 500);
        }
        assert_eq!(shed.epoch_count(), 1);
        assert_eq!(shed.kept(), 50_000);
        // p = 1: exact.
        let truth = 500.0 * 100.0 * 100.0;
        assert!((shed.self_join().unwrap() - truth).abs() / truth < 0.05);
    }

    #[test]
    fn probability_changes_create_epochs_lazily() {
        let mut r = rng(2);
        let schema = JoinSchema::agms(4, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.5, &mut r).unwrap();
        // Change before any tuple: reuse the empty epoch.
        shed.set_probability(0.25, &mut r).unwrap();
        assert_eq!(shed.epoch_count(), 1);
        assert_eq!(shed.probability(), 0.25);
        shed.observe(1);
        // Same p: no new epoch.
        shed.set_probability(0.25, &mut r).unwrap();
        assert_eq!(shed.epoch_count(), 1);
        // Different p after traffic: new epoch.
        shed.set_probability(0.5, &mut r).unwrap();
        assert_eq!(shed.epoch_count(), 2);
    }

    /// Compaction: revisiting a rate resumes its epoch instead of opening
    /// a new one, and an untouched trailing epoch is dropped on the way.
    #[test]
    fn recurring_rates_are_compacted() {
        let mut r = rng(20);
        let schema = JoinSchema::agms(4, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.5, &mut r).unwrap();
        shed.observe(1);
        shed.set_probability(0.25, &mut r).unwrap();
        shed.observe(2);
        shed.set_probability(0.5, &mut r).unwrap(); // revisit epoch 0
        assert_eq!(shed.epoch_count(), 2);
        assert_eq!(shed.probability(), 0.5);
        shed.observe(3);
        // A rate change that never sees traffic leaves no epoch behind.
        shed.set_probability(0.1, &mut r).unwrap();
        assert_eq!(shed.epoch_count(), 3);
        shed.set_probability(0.25, &mut r).unwrap(); // empty 0.1 epoch dropped
        assert_eq!(shed.epoch_count(), 2);
        assert_eq!(shed.probability(), 0.25);
        // 1000 alternations never grow past the two distinct rates.
        for i in 0..1000u64 {
            let p = if i % 2 == 0 { 0.5 } else { 0.25 };
            shed.set_probability(p, &mut r).unwrap();
            shed.observe(i);
        }
        assert_eq!(shed.epoch_count(), 2);
    }

    /// The headline property: an estimate over epochs with *different*
    /// sampling rates is still unbiased.
    #[test]
    fn varying_rates_stay_unbiased() {
        let mut r = rng(3);
        // Relation: 40 keys, key k appears 3(k+1) times, split across
        // three epochs with different rates.
        let truth: f64 = (1..=40u64)
            .map(|f| (3.0 * f as f64) * (3.0 * f as f64))
            .sum();
        let reps = 600;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut shed = EpochShedder::new(&schema, 0.9, &mut r).unwrap();
            for (epoch, p) in [(0u64, 0.9), (1, 0.3), (2, 0.6)] {
                shed.set_probability(p, &mut r).unwrap();
                for k in 0..40u64 {
                    for _ in 0..=k {
                        shed.observe(k);
                    }
                }
                let _ = epoch;
            }
            acc += shed.self_join().unwrap();
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.08,
            "mean = {mean}, truth = {truth}"
        );
    }

    #[test]
    fn epoch_join_between_streams_is_unbiased() {
        let mut r = rng(4);
        // F: keys 0..30 ×4 (two epochs at different rates);
        // G: keys 15..45 ×20 (one epoch). Overlap: 15 keys.
        let truth = 15.0 * 4.0 * 20.0;
        let reps = 800;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut f = EpochShedder::new(&schema, 0.8, &mut r).unwrap();
            let mut g = EpochShedder::new(&schema, 0.5, &mut r).unwrap();
            // F in two epochs of 2 copies each = 4 copies per key.
            for (p, copies) in [(0.8, 2u64), (0.4, 2)] {
                f.set_probability(p, &mut r).unwrap();
                for k in 0..30u64 {
                    for _ in 0..copies {
                        f.observe(k);
                    }
                }
            }
            for k in 15..45u64 {
                for _ in 0..20u64 {
                    g.observe(k);
                }
            }
            acc += f.size_of_join(&g).unwrap();
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean = {mean}, truth = {truth}"
        );
    }

    /// The batched path must replay the scalar path exactly, including
    /// across epoch changes between batches — and compaction must keep the
    /// recurring rates (0.1 and 0.4 appear twice) in single epochs.
    #[test]
    fn feed_batch_is_bit_identical_to_observe() {
        let mut r = rng(10);
        let schema = JoinSchema::fagms(1, 512, &mut r);
        let mut seed_a = rng(11);
        let mut seed_b = rng(11);
        let mut scalar = EpochShedder::new(&schema, 0.4, &mut seed_a).unwrap();
        let mut batched = EpochShedder::new(&schema, 0.4, &mut seed_b).unwrap();
        let keys: Vec<u64> = (0..20_000u64).map(|i| (i * 2_654_435_761) % 300).collect();
        for (i, (batch, p)) in keys.chunks(4999).zip([0.4, 0.1, 0.8, 0.1, 0.4]).enumerate() {
            scalar.set_probability(p, &mut seed_a).unwrap();
            batched.set_probability(p, &mut seed_b).unwrap();
            for &k in batch {
                scalar.observe(k);
            }
            batched.feed_batch(batch);
            assert_eq!(scalar.kept(), batched.kept(), "batch {i}");
        }
        assert_eq!(scalar.epoch_count(), 3, "three distinct rates");
        assert_eq!(scalar.epoch_count(), batched.epoch_count());
        assert_eq!(scalar.seen(), batched.seen());
        assert_eq!(
            scalar.self_join().unwrap(),
            batched.self_join().unwrap(),
            "identical epochs must give identical estimates"
        );
    }

    /// The cached query path must agree with the cache-free recomputation
    /// exactly, at every point of an interleaved update/query sequence.
    #[test]
    fn cached_query_matches_uncached_under_interleaving() {
        let mut r = rng(30);
        let schema = JoinSchema::fagms(2, 256, &mut r);
        let mut shed = EpochShedder::new(&schema, 1.0, &mut r).unwrap();
        let ps = [1.0, 0.5, 0.25, 0.5, 0.125, 1.0, 0.25];
        for (round, p) in ps.iter().enumerate() {
            shed.set_probability(*p, &mut r).unwrap();
            let batch: Vec<u64> = (0..2_000u64)
                .map(|i| (i * 31 + round as u64) % 100)
                .collect();
            shed.feed_batch(&batch);
            assert_eq!(
                shed.self_join().unwrap(),
                shed.self_join_uncached().unwrap(),
                "round {round}"
            );
            // A second query with nothing dirty must serve from cache and
            // still agree.
            assert_eq!(
                shed.self_join().unwrap(),
                shed.self_join_uncached().unwrap(),
                "round {round} (repeat)"
            );
        }
        assert!(shed.epoch_count() <= 4, "four distinct rates used");
    }

    /// The sketch cross term: a shedded stream joined against a full-rate
    /// sketch of a disjoint segment is unbiased, and rejects bad `q`.
    #[test]
    fn cross_term_against_plain_sketch_is_unbiased() {
        let mut r = rng(6);
        // F (shedded, two rates): keys 0..30, 4 copies each.
        // G (full-rate sketch):   keys 15..45, 10 copies each.
        let truth = 15.0 * 4.0 * 10.0;
        let reps = 600;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut f = EpochShedder::new(&schema, 0.8, &mut r).unwrap();
            for (p, copies) in [(0.8, 2u64), (0.4, 2)] {
                f.set_probability(p, &mut r).unwrap();
                for k in 0..30u64 {
                    for _ in 0..copies {
                        f.observe(k);
                    }
                }
            }
            let mut g = schema.sketch();
            for k in 15..45u64 {
                g.update(k, 10);
            }
            acc += f.size_of_join_sketch(&g, 1.0).unwrap();
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean = {mean}, truth = {truth}"
        );
        // q outside (0, 1] is rejected up front.
        let schema = JoinSchema::agms(4, &mut r);
        let f = EpochShedder::new(&schema, 0.5, &mut r).unwrap();
        let g = schema.sketch();
        assert!(f.size_of_join_sketch(&g, 0.0).is_err());
        assert!(f.size_of_join_sketch(&g, 1.5).is_err());
    }

    /// Wire round-trip: all query state (epochs, sketches, counts, the
    /// pending gap) is preserved exactly, so every estimate at decode time
    /// is bit-identical; the reseeded coin stream only affects *future*
    /// inclusion draws.
    #[test]
    fn wire_round_trip_preserves_every_estimate() {
        use crate::summary::Portable;
        let mut r = rng(60);
        let schema = JoinSchema::fagms(3, 128, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.8, &mut r).unwrap();
        for k in 0..12_000u64 {
            shed.observe(k % 200);
            if k == 4_000 {
                shed.set_probability(0.3, &mut r).unwrap();
            }
            if k == 8_000 {
                shed.set_probability(0.6, &mut r).unwrap();
            }
        }
        let bytes = shed.encode().unwrap();
        let back = EpochShedder::decode(&bytes).unwrap();
        assert_eq!(back.epoch_count(), shed.epoch_count());
        assert_eq!(back.seen(), shed.seen());
        assert_eq!(back.kept(), shed.kept());
        assert_eq!(back.probability(), shed.probability());
        assert_eq!(
            back.self_join().unwrap().to_bits(),
            shed.self_join().unwrap().to_bits()
        );
        let a = shed.self_join_estimate().unwrap();
        let b = back.self_join_estimate().unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        // Determinism: decoding twice yields identical future behavior.
        let mut c = EpochShedder::decode(&bytes).unwrap();
        let mut d = EpochShedder::decode(&bytes).unwrap();
        for k in 0..5_000u64 {
            assert_eq!(c.observe(k), d.observe(k));
        }
        // Fingerprint pins the schema: a different schema refuses.
        assert_eq!(Portable::fingerprint(&back), Portable::fingerprint(&shed));
        let other = EpochShedder::new(&JoinSchema::fagms(3, 128, &mut r), 0.8, &mut r).unwrap();
        assert_ne!(Portable::fingerprint(&other), Portable::fingerprint(&shed));
    }

    /// The slim projection answers `self_join()` bit-identically to the
    /// fat shedder and survives its own wire round trip.
    #[test]
    fn slim_projection_is_bit_identical() {
        use crate::summary::{JoinQuery, Portable};
        let mut r = rng(61);
        let schema = JoinSchema::agms(16, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.7, &mut r).unwrap();
        for k in 0..6_000u64 {
            shed.observe(k % 90);
            if k == 3_000 {
                shed.set_probability(0.35, &mut r).unwrap();
            }
        }
        let slim = shed.slim().unwrap();
        assert_eq!(
            slim.self_join().to_bits(),
            shed.self_join().unwrap().to_bits()
        );
        assert_eq!(slim.fingerprint(), Portable::fingerprint(&shed));
        let back = SlimJoin::decode(&slim.encode().unwrap()).unwrap();
        assert_eq!(back.self_join().to_bits(), slim.self_join().to_bits());
        assert!(slim.encode().unwrap().len() < shed.encode().unwrap().len() / 5);
    }

    /// Corrupted payloads are typed errors, not panics.
    #[test]
    fn malformed_payloads_are_rejected() {
        use crate::summary::Portable;
        let mut r = rng(62);
        let schema = JoinSchema::agms(4, &mut r);
        let shed = EpochShedder::new(&schema, 0.5, &mut r).unwrap();
        let bytes = shed.encode().unwrap();
        // Foreign kind.
        assert!(matches!(
            EpochShedder::decode(&JoinSketch::encode(&schema.sketch()).unwrap()),
            Err(Error::WireMismatch { .. })
        ));
        // Truncated body.
        assert!(EpochShedder::decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(EpochShedder::decode(b"{}").is_err());
    }

    #[test]
    fn merged_fast_path_requires_constant_p() {
        let mut r = rng(5);
        let schema = JoinSchema::agms(4, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.5, &mut r).unwrap();
        shed.observe(1);
        shed.set_probability(0.5, &mut r).unwrap();
        assert!(shed.merged_sketch().is_ok());
        shed.set_probability(0.25, &mut r).unwrap();
        shed.observe(2);
        assert!(matches!(
            shed.merged_sketch(),
            Err(Error::IncompatibleEstimators)
        ));
    }
}
