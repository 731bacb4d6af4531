//! `Sampled<S>` — the Bernoulli sampling front end, generic over any
//! [`Summary`] capability.
//!
//! The paper's central idea is that a sketch over a `Bernoulli(p)` sample
//! still answers full-stream queries once the right `1/p` correction is
//! applied on the way out. `Sampled<S>` is that idea once: a
//! geometric-skip Bernoulli sampler (work proportional to the tuples
//! actually *kept*, per Olken) in front of *any* summary. `Sampled<S>`
//! implements each capability trait `S` does, every read the inner one
//! plus one correction — over a whole summary and over the parts of a
//! sum (`*_of_sum`) alike, so a sharded runtime's replicas read a sampled
//! composite as they read a bare one:
//!
//! | capability | correction |
//! |---|---|
//! | [`JoinQuery`] | Props 13–14: `S²/p² − (1−p)/p²·|F′|`, `S·T/(p·q)` |
//! | [`TopKQuery`] | `f̂ = f′/p`, binomial thinning variance per key |
//! | [`DistinctQuery`] | frequency-domain plug-in (see below) |
//! | [`QuantileQuery`] | identity, with the rank error widened by the sample's jitter |
//!
//! Beside the trait reads, four inherent ones stay for callers with only
//! [`Summary`] in scope, each a call of its trait read:
//! [`self_join_estimate`](Sampled::self_join_estimate),
//! [`top_k`](Sampled::top_k) (the typed
//! [`top_k_estimates`](TopKQuery::top_k_estimates)),
//! [`distinct_estimate`](Sampled::distinct_estimate) and
//! [`quantile`](Sampled::quantile) (the value of
//! [`quantiles`](QuantileQuery::quantiles) at one rank). The other
//! inherent reads are gone:
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.self_join(); } // removed: s.self_join_estimate().value
//! ```
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.point_estimate(7); } // removed: TopKQuery::frequency_estimate
//! ```
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.distinct(); } // removed: s.distinct_estimate().value
//! ```
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.rank_error(0.5); } // removed: QuantileQuery::rank_error
//! ```
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.quantile_with_bounds(0.5); } // removed: QuantileQuery::quantile_with_bounds
//! ```
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.quantile_bounds(0.5); } // removed: QuantileQuery::quantile_with_bounds
//! ```
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.size_of_join(s); } // removed: JoinQuery::size_of_join_estimate
//! ```
//!
//! ```compile_fail
//! fn gone(s: &sss_core::SampledMultiSummary) { let _ = s.size_of_join_estimate(s); } // removed: JoinQuery::size_of_join_estimate
//! ```
//!
//! ## Coins by position
//!
//! The sampler draws gap `j` (the tuples skipped before the `j`-th kept
//! one) as `⌊ln U_j / ln(1−p)⌋`, with `U_j` from a
//! [`CounterRng`](sss_sampling::CounterRng): a function of `(seed, j)`
//! alone. So a sampler's whole state is `(p, seed, seen, kept, pending
//! gap)` plus its position in the counter. [`Sampled::new`] draws the seed as one `u64` from the caller's
//! RNG; a clone replays the same coins, which is what a snapshot wants.
//!
//! [`Sampled::new`] is the one constructor: the caller builds the inner
//! summary first, so its seeds are drawn before the sampler's, whatever
//! the summary.
//!
//! ```compile_fail
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let _ = sss_core::Sampled::hyperloglog(12, 0.5, &mut rng); // removed: Sampled::new(HyperLogLog::new(12, &mut rng)?, p, &mut rng)
//! ```
//!
//! Because `Sampled<S>` itself implements [`Summary`], it rides the
//! sharded runtime like any other summary. Its coin state is a [`Door`]
//! ([`Summary::door`]): the runtime's producer holds a copy per shard and
//! tosses the coins before the ring, so a worker receives only kept keys
//! and hands them to [`Summary::update_admitted`]. Shards must sample
//! *independently* for the union of their samples to be one
//! Bernoulli(`p`) sample, so `Sampled` overrides
//! [`Summary::for_shard`]: shard `i` gets the seed `splitmix64(seed ^ i)`
//! and `ShardedRuntime::new` calls it once per shard. Nothing else
//! reseeds a sampler:
//!
//! ```compile_fail
//! use sss_core::{JoinSketch, Sampled};
//! fn gone(s: &mut Sampled<JoinSketch>, rng: &mut impl rand::Rng) {
//!     s.reseed(rng).unwrap(); // removed: coins are a function of (seed, position)
//! }
//! ```
//!
//! This is the system's one shedder: one rate `p` for the life of the
//! summary. How low `p` may go for an accuracy target is answered offline
//! by [`max_shedding_rate`](crate::analysis::max_shedding_rate).
//!
//! ## F₀ under sampling: what is (and isn't) correctable
//!
//! A Bernoulli sample thins each key's frequency `fᵢ` binomially, so a key
//! survives into the sample with probability `1 − (1−p)^{fᵢ}` and
//! `E[D′] = Σᵢ (1 − (1−p)^{fᵢ})`. Inverting this **requires the full
//! frequency histogram**, which neither the sample nor any one-pass
//! summary retains — an *exact* unbiased F₀ correction from a Bernoulli
//! sample is impossible in one pass. [`Sampled::distinct_estimate`]
//! therefore applies the homogeneous-frequency plug-in: treat every key
//! as carrying the mean full-stream frequency `f̄ = (kept/p)/D` and solve
//! the self-consistency equation `D = D′/(1 − (1−p)^{f̄})` for `D` by
//! fixed-point iteration (see [`bernoulli_distinct_estimate`] for why the
//! one-step version is biased low). The unmodelled histogram spread is
//! acknowledged by inflating the variance with the full correction
//! magnitude (treated as one standard deviation of model error), so the
//! interval is honest: negligible when frequencies are high enough that
//! almost every key survives (`(1−p)^{f̄} ≈ 0`), and wide when the
//! correction actually matters.
//!
//! ## Quantiles under sampling
//!
//! Bernoulli sampling is **rank-invariant in expectation**: the sample
//! rank of any fixed value concentrates on its stream rank (each tuple is
//! kept independently with the same `p`), so the point correction is the
//! identity — the sample's `q`-quantile estimates the stream's. What
//! sampling does cost is rank precision: the sampled rank of a value with
//! true rank `q` has standard deviation `≈ √(q(1−q)(1−p)/kept)`, which
//! [`QuantileQuery::rank_error`] adds (at 3σ) to the backend's own rank
//! error, so the bounds at ranks `q ∓ ε` are the sample's. The *value-domain*
//! variance is unknowable without a density model, so a quantile's error
//! bar is the rank-based bounds, not an [`Estimate`].

use crate::error::{Error, Result};
use crate::summary::{priced, DistinctQuery, JoinQuery, QuantileQuery, Summary, TopKQuery};
use rand::Rng;
use sss_moments::scheme::{Bernoulli, SamplingScheme};
use sss_sampling::{
    bernoulli_frequency_variance_plugin, bernoulli_self_join_variance_plugin,
    bernoulli_size_of_join_variance_plugin, Door,
};
use sss_sketch::Estimate;
use sss_xi::splitmix64;

/// Offered tuples per door walk in [`Sampled::feed_batch`]: bounds its
/// buffer of kept keys at 128 KiB however long the batch.
const FEED_SLICE: usize = 1 << 14;

/// Bernoulli load shedder in front of any mergeable summary; query
/// corrections are unlocked by the capabilities of `S` (see the module
/// docs).
///
/// Not [`crate::Portable`] yet (ROADMAP 5(a)): ship the inner summary plus
/// `p`/`seen`/`kept`, which the typed estimates already carry.
#[derive(Debug, Clone)]
pub struct Sampled<S: Summary> {
    summary: S,
    door: Door,
    /// `Bernoulli(p)`: its estimators correct every F₂ and join read.
    scheme: Bernoulli,
    /// The counter's seed; [`Summary::for_shard`] derives shard seeds
    /// from it.
    seed: u64,
    seen: u64,
    kept: u64,
}

impl<S: Summary> Sampled<S> {
    /// Wrap an empty summary with inclusion probability `p ∈ (0, 1]`.
    ///
    /// `p = 1` degenerates to feeding the summary directly (every tuple
    /// kept, sampling variance identically zero), which is how the
    /// unsampled engine paths reuse this type.
    ///
    /// The counter seed is one `u64` drawn from `seed_rng`.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Sampling`] if `p ∉ (0, 1]`.
    pub fn new<R: Rng>(summary: S, p: f64, seed_rng: &mut R) -> Result<Self> {
        Self::seeded(summary, p, seed_rng.next_u64())
    }

    /// [`new`](Sampled::new) with the counter seed given outright.
    pub(crate) fn seeded(summary: S, p: f64, seed: u64) -> Result<Self> {
        Ok(Self {
            summary,
            door: Door::new(p, seed)?,
            scheme: Bernoulli::new(p)?,
            seed,
            seen: 0,
            kept: 0,
        })
    }

    /// Offer the next stream tuple; returns whether it was kept.
    #[inline]
    pub fn observe(&mut self, key: u64) -> bool {
        self.seen += 1;
        let kept = self.door.keep();
        if kept {
            self.summary.update(key, 1);
            self.kept += 1;
        }
        kept
    }

    /// Offer a whole batch of stream tuples; returns how many were kept.
    ///
    /// Bit-identical to calling [`Sampled::observe`] on each key in turn:
    /// the same geometric gaps, consumed in the same order. At `p = 1` the
    /// batch reaches the summary as it is (no gap is drawn); below, the
    /// door walks it in slices of 16 384 tuples and each slice's kept keys
    /// reach the summary in one `update_batch`.
    pub fn feed_batch(&mut self, keys: &[u64]) -> u64 {
        let kept_before = self.kept;
        if self.p() >= 1.0 {
            self.update_admitted(keys, keys.len() as u64);
        } else {
            let mut kept = Vec::new();
            for slice in keys.chunks(FEED_SLICE) {
                kept.clear();
                self.door.admit(slice, &mut kept);
                self.update_admitted(&kept, slice.len() as u64);
            }
        }
        self.kept - kept_before
    }

    /// The inclusion probability `p`.
    fn p(&self) -> f64 {
        self.scheme.p()
    }

    /// Tuples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Tuples kept (summarized) so far.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// The underlying summary (e.g. to merge partial streams or reach raw
    /// sample-domain queries).
    pub fn summary(&self) -> &S {
        &self.summary
    }

    /// The inner summaries of `parts` with `zero`'s and their `kept` and
    /// `seen` summed, as the fold sums them; `merge_from`'s
    /// [`Error::IncompatibleEstimators`] unless every part samples at
    /// `zero`'s rate.
    fn inner_parts<'a>(zero: &Self, parts: &[&'a Self]) -> Result<(Vec<&'a S>, u64, u64)> {
        if parts.iter().any(|part| part.scheme != zero.scheme) {
            return Err(Error::IncompatibleEstimators);
        }
        let inner = parts.iter().map(|part| &part.summary).collect();
        let kept = zero.kept + parts.iter().map(|part| part.kept).sum::<u64>();
        let seen = zero.seen + parts.iter().map(|part| part.seen).sum::<u64>();
        Ok((inner, kept, seen))
    }
}

/// `Sampled<S>` is itself a [`Summary`], so it rides the sharded runtime:
/// the sampler travels *with* the summary into the shard workers, and the
/// merged snapshot's corrected queries describe the full offered stream.
///
/// Insert-only: `update(key, count)` offers `count` independent tuples
/// (each with its own inclusion draw) and ignores non-positive counts —
/// deleting tuples that were never sampled is not meaningful.
/// Merging requires equal inclusion probabilities (the union of
/// independent `Bernoulli(p)` samples of disjoint streams is a
/// `Bernoulli(p)` sample of their concatenation); each shard's copy draws
/// independent coins through [`for_shard`](Summary::for_shard).
impl<S: Summary> Summary for Sampled<S> {
    fn update(&mut self, key: u64, count: i64) {
        for _ in 0..count.max(0) {
            self.observe(key);
        }
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.feed_batch(keys);
    }

    fn door(&self) -> Option<Door> {
        Some(self.door.clone())
    }

    /// Counts `offered` as seen and `kept` as kept; the inner summary sees
    /// `kept` as one `update_batch`, or nothing when it is empty.
    fn update_admitted(&mut self, kept: &[u64], offered: u64) {
        if !kept.is_empty() {
            self.summary.update_batch(kept);
        }
        self.seen += offered;
        self.kept += kept.len() as u64;
    }

    /// This sampler with its coins re-seeded `splitmix64(seed ^ shard)`.
    fn for_shard(&self, shard: usize) -> Self {
        let seed = splitmix64(self.seed ^ shard as u64);
        let summary = self.summary.for_shard(shard);
        Self {
            seen: self.seen,
            kept: self.kept,
            ..Self::seeded(summary, self.p(), seed).expect("p was validated when self was built")
        }
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.scheme != other.scheme {
            return Err(Error::IncompatibleEstimators);
        }
        self.summary.merge_from(&other.summary)?;
        self.seen += other.seen;
        self.kept += other.kept;
        Ok(())
    }

    /// The inner summary's [`merged_into`](Summary::merged_into); `p`, the
    /// seed and the door are the zero's, as a merge into it keeps them.
    fn merged_into(&self, zero: &Self) -> Result<Self> {
        if zero.scheme != self.scheme {
            return Err(Error::IncompatibleEstimators);
        }
        Ok(Self {
            summary: self.summary.merged_into(&zero.summary)?,
            door: zero.door.clone(),
            scheme: zero.scheme,
            seed: zero.seed,
            seen: zero.seen + self.seen,
            kept: zero.kept + self.kept,
        })
    }
}

/// Proposition 14's correction of `raw`, an F₂ estimate of the `kept`
/// keys a Bernoulli(`p`) door admitted out of `seen`: the value and every
/// basic corrected by [`Bernoulli::self_join`], the sketch variance scaled
/// by `1/p⁴` ([`Bernoulli::self_join_sketch_variance`]), and the sampling
/// variance plug-in of the paper's Section VI-A stacked on it.
fn corrected_self_join(raw: Estimate, scheme: Bernoulli, kept: u64, seen: u64) -> Estimate {
    let value = scheme.self_join(raw.value, kept);
    let basics = raw
        .basics
        .iter()
        .map(|&b| scheme.self_join(b, kept))
        .collect();
    let sketch_variance = scheme.self_join_sketch_variance(raw.variance);
    let sampling_variance = bernoulli_self_join_variance_plugin(scheme.p(), seen, value);
    Estimate {
        value,
        variance: sketch_variance + sampling_variance,
        basics,
    }
}

/// F₂ by Proposition 14 (`S²/p² − (1−p)/p²·|F′|`, the typed estimate
/// with the sketch variance scaled by `1/p⁴` and the sampling plug-in of
/// Section VI-A stacked on it), size of join by Proposition 13 (`S·T/(p·q)`;
/// the two sides may sample at different rates).
impl<S: JoinQuery> JoinQuery for Sampled<S> {
    fn self_join_estimate(&self) -> Estimate {
        let raw = self.summary.self_join_estimate();
        corrected_self_join(raw, self.scheme, self.kept, self.seen)
    }

    /// The inner read of the sum, corrected with the `kept` and `seen`
    /// the fold sums.
    fn self_join_estimate_of_sum(zero: &Self, parts: &[&Self]) -> Result<Estimate> {
        let (inner, kept, seen) = Self::inner_parts(zero, parts)?;
        let raw = S::self_join_estimate_of_sum(&zero.summary, &inner)?;
        Ok(corrected_self_join(raw, zero.scheme, kept, seen))
    }

    fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        let raw = self.summary.size_of_join_estimate(&other.summary)?;
        let (p, q) = (self.p(), other.p());
        let join = |raw| self.scheme.size_of_join(raw, &other.scheme);
        let value = join(raw.value);
        let basics = raw.basics.iter().map(|&b| join(b)).collect();
        let sketch_variance = self
            .scheme
            .size_of_join_sketch_variance(raw.variance, &other.scheme);
        let sampling_variance = bernoulli_size_of_join_variance_plugin(
            p,
            q,
            self.self_join_estimate().value,
            other.self_join_estimate().value,
            value,
        );
        Ok(Estimate {
            value,
            variance: sketch_variance + sampling_variance,
            basics,
        })
    }
}

impl<S: JoinQuery> Sampled<S> {
    /// [`JoinQuery::self_join_estimate`], for callers without the trait.
    pub fn self_join_estimate(&self) -> Estimate {
        JoinQuery::self_join_estimate(self)
    }
}

/// `raw`, a sample-frequency estimate at the scheme's rate `p`, as a
/// full-stream one: the value scaled by `1/p`, the summary's variance by
/// `1/p²` ([`Bernoulli::frequency_sketch_variance`]), and the binomial
/// thinning plug-in for that value added.
fn thinned(raw: Estimate, scheme: Bernoulli) -> Estimate {
    let p = scheme.p();
    let value = raw.value / p;
    let variance = scheme.frequency_sketch_variance(raw.variance)
        + bernoulli_frequency_variance_plugin(p, value);
    priced(value, variance)
}

/// Every frequency scaled by `1/p`, the summary's variance by `1/p²`, and
/// the thinning plug-in for its own value added (`thinned`), so its
/// variance depends on the key. The `1/p` correction is monotone, so the
/// ranking is exactly the summary's ranking over the kept sample.
impl<S: TopKQuery> TopKQuery for Sampled<S> {
    fn frequency_estimate(&self, key: u64) -> Estimate {
        thinned(self.summary.frequency_estimate(key), self.scheme)
    }

    fn top_k_estimates(&self, k: usize) -> Vec<(u64, Estimate)> {
        let top = self.summary.top_k_estimates(k).into_iter();
        top.map(|(key, raw)| (key, thinned(raw, self.scheme)))
            .collect()
    }

    /// The inner read of the sum, thinned. The `f2` a read of the same
    /// state left is the corrected F₂, not the sample's, so the inner read
    /// is not handed it.
    fn top_k_of_sum(
        zero: &Self,
        parts: &[&Self],
        k: usize,
        _f2: &mut Option<f64>,
    ) -> Result<Vec<(u64, Estimate)>> {
        let (inner, _, _) = Self::inner_parts(zero, parts)?;
        let top = S::top_k_of_sum(&zero.summary, &inner, k, &mut None)?.into_iter();
        Ok(top
            .map(|(key, raw)| (key, thinned(raw, zero.scheme)))
            .collect())
    }
}

impl<S: TopKQuery> Sampled<S> {
    /// [`TopKQuery::top_k_estimates`], for callers without the trait.
    pub fn top_k(&self, k: usize) -> Vec<(u64, Estimate)> {
        self.top_k_estimates(k)
    }
}

/// F₀ by the homogeneous-frequency plug-in
/// ([`bernoulli_distinct_estimate`]; the module docs say why an exact
/// one-pass correction is impossible and how the model error is priced
/// into the variance).
impl<S: DistinctQuery> DistinctQuery for Sampled<S> {
    fn distinct_estimate(&self) -> Estimate {
        bernoulli_distinct_estimate(self.summary.distinct_estimate(), self.p(), self.kept)
    }

    fn distinct_estimate_of_sum(zero: &Self, parts: &[&Self]) -> Result<Estimate> {
        let (inner, kept, _) = Self::inner_parts(zero, parts)?;
        let raw = S::distinct_estimate_of_sum(&zero.summary, &inner)?;
        Ok(bernoulli_distinct_estimate(raw, zero.p(), kept))
    }
}

impl<S: DistinctQuery> Sampled<S> {
    /// [`DistinctQuery::distinct_estimate`], for callers without the trait.
    pub fn distinct_estimate(&self) -> Estimate {
        DistinctQuery::distinct_estimate(self)
    }
}

/// `3·√(q(1−q)(1−p)/kept)`: the 3σ binomial rank jitter of a
/// Bernoulli(`p`) sample of `kept` tuples at rank `q` (zero at `p = 1`).
fn rank_jitter(q: f64, p: f64, kept: u64) -> f64 {
    if p >= 1.0 || kept == 0 {
        return 0.0;
    }
    3.0 * (q * (1.0 - q) * (1.0 - p) / kept as f64).sqrt()
}

/// The sample's quantiles, unchanged — Bernoulli sampling is
/// rank-invariant (module docs) — with the rank error widened by
/// `rank_jitter`.
impl<S: QuantileQuery> QuantileQuery for Sampled<S> {
    fn quantiles(&self, ranks: &[f64]) -> Result<Vec<f64>> {
        self.summary.quantiles(ranks)
    }

    fn rank(&self, value: u64) -> f64 {
        self.summary.rank(value)
    }

    fn rank_error(&self, q: f64) -> f64 {
        self.summary.rank_error(q) + rank_jitter(q, self.p(), self.kept)
    }

    /// The sample's length, `kept`: the weight that normalizes its ranks.
    fn stream_len(&self) -> u64 {
        self.summary.stream_len()
    }

    fn quantile_with_bounds_of_sum(
        zero: &Self,
        parts: &[&Self],
        q: f64,
        widen: f64,
    ) -> Result<(f64, (f64, f64))> {
        let (inner, kept, _) = Self::inner_parts(zero, parts)?;
        let widen = widen + rank_jitter(q, zero.p(), kept);
        S::quantile_with_bounds_of_sum(&zero.summary, &inner, q, widen)
    }
}

impl<S: QuantileQuery> Sampled<S> {
    /// The value at rank `q`, [`QuantileQuery::quantiles`] at that one
    /// rank, for callers without the trait.
    ///
    /// # Errors
    ///
    /// Invalid `q`, or nothing sampled yet.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        Ok(QuantileQuery::quantiles(self, &[q])?[0])
    }
}

/// The homogeneous-frequency F₀ correction shared by
/// [`Sampled::distinct_estimate`] and the multi-summary drivers.
///
/// `raw` is the backend's typed estimate of the *sample's* distinct count
/// `D′`; `kept` the number of sampled tuples. The homogeneous model says a
/// stream of `N̂ = kept/p` tuples over `D` equally frequent keys loses a
/// key with probability `(1−p)^{N̂/D}`, so `D` must satisfy the
/// self-consistency equation
///
/// ```text
/// D = D′ / (1 − (1−p)^{N̂/D})
/// ```
///
/// solved here by fixed-point iteration from `D₀ = D′`. (The one-step
/// plug-in that evaluates the mean frequency at `D′` instead of `D` is
/// biased low — `D′ < D` overstates the mean frequency, understating the
/// correction — by ~20% in low-frequency regimes. The iteration map is
/// increasing and a contraction at the fixed point, so starting below it
/// converges monotonically upward.) The survival probability is floored
/// (at 1%) to keep the estimate finite in the degenerate
/// all-frequencies-tiny regime, and the correction magnitude `D̂ − D′` is
/// added to the standard deviation as model error — see the module docs
/// for why no one-pass estimator can do better without the full frequency
/// histogram.
pub fn bernoulli_distinct_estimate(raw: Estimate, p: f64, kept: u64) -> Estimate {
    if p >= 1.0 {
        return raw;
    }
    let d_sample = raw.value.max(0.0);
    if d_sample == 0.0 || kept == 0 {
        return raw;
    }
    let scaled_len = kept as f64 / p;
    let mut value = d_sample;
    for _ in 0..64 {
        let mean_frequency = scaled_len / value;
        let survival = (1.0 - (1.0 - p).powf(mean_frequency)).max(0.01);
        let next = d_sample / survival;
        if (next - value).abs() <= 1e-9 * value {
            value = next;
            break;
        }
        value = next;
    }
    // The survival probability implied by the fixed point itself.
    let survival = (d_sample / value).clamp(0.01, 1.0);
    let model_error = value - d_sample;
    Estimate {
        value,
        variance: raw.variance / (survival * survival) + model_error * model_error,
        basics: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::JoinSchema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_sketch::{HyperLogLog, KllSketch, MisraGries};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// A fixed skewed stream: key k (0..10) appears 2^(9−k) · 64 times,
    /// shuffled deterministically.
    fn skewed_stream() -> Vec<u64> {
        let mut keys = Vec::new();
        for k in 0..10u64 {
            for _ in 0..(1u64 << (9 - k)) * 64 {
                keys.push(k);
            }
        }
        // LCG shuffle for a deterministic interleaving.
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        keys
    }

    #[test]
    fn p_one_is_the_raw_summary() {
        let mut r = rng(1);
        let mut t = Sampled::new(MisraGries::new(16).unwrap(), 1.0, &mut r).unwrap();
        let keys = skewed_stream();
        for &k in &keys {
            assert!(t.observe(k));
        }
        assert_eq!(t.kept(), keys.len() as u64);
        let top = t.top_k(3);
        let raw = t.summary().raw_top_k(3);
        for ((k, e), (rk, rv)) in top.iter().zip(raw.iter()) {
            assert_eq!(k, rk);
            assert_eq!(e.value.to_bits(), rv.to_bits());
        }
        // No sampling at p = 1 and MG is exact at this capacity: the top
        // key's variance is exactly zero.
        assert_eq!(top[0].1.variance, 0.0);
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut r = rng(2);
        assert!(Sampled::new(MisraGries::new(16).unwrap(), 0.0, &mut r).is_err());
        assert!(Sampled::new(MisraGries::new(16).unwrap(), 1.5, &mut r).is_err());
    }

    #[test]
    fn sampled_estimates_recover_the_heavy_keys() {
        let mut r = rng(3);
        let mut t = Sampled::new(MisraGries::new(16).unwrap(), 0.25, &mut r).unwrap();
        let keys = skewed_stream();
        t.feed_batch(&keys);
        assert!(t.kept() < keys.len() as u64 / 2, "kept {}", t.kept());
        let top = t.top_k(3);
        assert_eq!(top[0].0, 0, "heaviest key is 0");
        // Key 0 appears 2^9·64 = 32768 times; the 1/p-corrected estimate
        // should land within a few sampling standard deviations.
        let truth = 32768.0;
        let e = &top[0].1;
        let sd = e.variance.sqrt();
        assert!(
            (e.value - truth).abs() < 5.0 * sd.max(1.0),
            "est {} truth {truth} sd {sd}",
            e.value
        );
        assert!(e.chebyshev(0.99).unwrap().half_width() > 0.0);
    }

    /// The batched path must replay the scalar path exactly, as for the
    /// join shedders.
    #[test]
    fn feed_batch_is_bit_identical_to_observe() {
        for p in [0.03, 0.5, 1.0] {
            let mut seed_a = rng(11);
            let mut seed_b = rng(11);
            let mut scalar = Sampled::new(MisraGries::new(8).unwrap(), p, &mut seed_a).unwrap();
            let mut batched = Sampled::new(MisraGries::new(8).unwrap(), p, &mut seed_b).unwrap();
            let keys: Vec<u64> = (0..30_000u64).map(|i| (i * 2_654_435_761) % 50).collect();
            for &k in &keys {
                scalar.observe(k);
            }
            batched.feed_batch(&[]);
            let mut rest = keys.as_slice();
            for size in [1usize, 7, 255, 256, 257, 20_000, 1000].iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let take = (*size).min(rest.len());
                batched.feed_batch(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(scalar.seen(), batched.seen(), "p = {p}");
            assert_eq!(scalar.kept(), batched.kept(), "p = {p}");
            assert_eq!(
                scalar.summary().raw_top_k(8),
                batched.summary().raw_top_k(8),
                "p = {p}"
            );
        }
    }

    /// Monte-Carlo unbiasedness of the 1/p correction: the mean estimate
    /// of a fixed key's frequency over many independent samples matches
    /// the true frequency.
    #[test]
    fn sampled_frequency_is_unbiased() {
        let mut r = rng(7);
        let truth = 400.0;
        let reps = 300;
        let mut acc = 0.0;
        for _ in 0..reps {
            let mut t = Sampled::new(MisraGries::new(4).unwrap(), 0.3, &mut r).unwrap();
            for _ in 0..400u64 {
                t.observe(42);
            }
            acc += t.frequency_estimate(42).value;
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.05,
            "mean = {mean}, truth = {truth}"
        );
    }

    /// The join corrections are exactly the shared Prop. 13/14 scalings of
    /// the raw sketch answers: value *and* variance, to the bit.
    #[test]
    fn join_corrections_are_the_shared_scalings_bit_for_bit() {
        let schema = JoinSchema::fagms(3, 512, &mut rng(5));
        let mut r = rng(21);
        let (p, q) = (0.2, 1.0);
        let mut shed = Sampled::new(schema.sketch(), p, &mut r).unwrap();
        let mut full = Sampled::new(schema.sketch(), q, &mut r).unwrap();
        let keys = skewed_stream();
        shed.feed_batch(&keys);
        full.feed_batch(&keys);
        // p = 1 keeps everything and the estimate is the raw sketch's.
        assert_eq!(full.kept(), keys.len() as u64);
        assert_eq!(
            full.self_join_estimate().value,
            full.summary().raw_self_join()
        );

        let raw = shed.summary().raw_self_join_estimate();
        let scheme = Bernoulli::new(p).unwrap();
        let value = scheme.self_join(shed.summary().raw_self_join(), shed.kept());
        let e = shed.self_join_estimate();
        assert_eq!(e.value.to_bits(), value.to_bits());
        assert_eq!(e.basics.len(), raw.basics.len());
        let sampling = bernoulli_self_join_variance_plugin(p, shed.seen(), value);
        assert_eq!(
            e.variance.to_bits(),
            (raw.variance / ((p * p) * (p * p)) + sampling).to_bits()
        );
        // No sampling noise at p = 1: pure sketch spread, strictly below
        // the shedded variance on the same stream.
        assert!(full.self_join_estimate().variance < e.variance);

        let raw_join = shed.summary().raw_size_of_join(full.summary()).unwrap();
        let ej = shed.size_of_join_estimate(&full).unwrap();
        let join = scheme.size_of_join(raw_join, &Bernoulli::new(q).unwrap());
        assert_eq!(ej.value.to_bits(), join.to_bits());
        assert!(ej.variance.is_finite());
    }

    #[test]
    fn size_of_join_with_asymmetric_probabilities() {
        let mut r = rng(5);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        let mut f = Sampled::new(schema.sketch(), 0.5, &mut r).unwrap();
        let mut g = Sampled::new(schema.sketch(), 0.25, &mut r).unwrap();
        // F: keys 0..1000 ×100; G: keys 500..1500 ×80. Overlap 500 keys.
        for _ in 0..100 {
            for k in 0..1000u64 {
                f.observe(k);
            }
        }
        for _ in 0..80 {
            for k in 500..1500u64 {
                g.observe(k);
            }
        }
        let truth = 500.0 * 100.0 * 80.0;
        let est = f.size_of_join_estimate(&g).unwrap().value;
        assert!(
            (est - truth).abs() / truth < 0.2,
            "est = {est}, truth = {truth}"
        );
        // Sketches drawn from a different schema do not join.
        let other = JoinSchema::fagms(1, 4096, &mut r);
        let h = Sampled::new(other.sketch(), 0.5, &mut r).unwrap();
        assert!(f.size_of_join_estimate(&h).is_err());
    }

    /// Prop. 14 unbiasedness at a small p: average many runs.
    #[test]
    fn self_join_is_unbiased_at_small_p() {
        let mut r = rng(7);
        let truth: f64 = (1..=40u64).map(|f| (f * f) as f64).sum();
        let reps = 400;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut shed = Sampled::new(schema.sketch(), 0.3, &mut r).unwrap();
            for key in 0..40u64 {
                for _ in 0..=key {
                    shed.observe(key);
                }
            }
            acc += shed.self_join_estimate().value;
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean = {mean}, truth = {truth}"
        );
    }

    #[test]
    fn distinct_correction_recovers_truth_in_the_valid_regime() {
        // 2000 distinct keys, each with frequency 100 — at p = 0.1 the
        // homogeneous plug-in's miss term (0.9)^100 ≈ 3e-5 is negligible.
        let keys: Vec<u64> = (0..200_000u64).map(|i| i % 2_000).collect();
        let mut r = rng(31);
        let mut d = Sampled::new(HyperLogLog::new(12, &mut r).unwrap(), 0.1, &mut r).unwrap();
        d.feed_batch(&keys);
        let est = d.distinct_estimate();
        let rel = (est.value - 2_000.0).abs() / 2_000.0;
        assert!(rel < 0.1, "est {} rel {rel}", est.value);
        assert!(est.variance.is_finite() && est.variance > 0.0);
        // Sanity: the interval covers the truth.
        assert!(est.chebyshev(0.99).unwrap().contains(2_000.0));
    }

    #[test]
    fn distinct_correction_widens_when_keys_are_rare() {
        // Every key appears once: at p = 0.25 the sample misses ~75% of
        // keys; the plug-in corrects upward and the model-error term keeps
        // the interval honest (very wide).
        let keys: Vec<u64> = (0..10_000u64).collect();
        let mut r = rng(33);
        let mut d = Sampled::new(HyperLogLog::new(12, &mut r).unwrap(), 0.25, &mut r).unwrap();
        d.feed_batch(&keys);
        let est = d.distinct_estimate();
        assert!(
            est.value > d.summary().raw_distinct(),
            "correction must scale up"
        );
        // Model error dominates: σ at least the correction magnitude.
        assert!(est.variance.sqrt() >= est.value - d.summary().raw_distinct() - 1.0);
    }

    #[test]
    fn quantiles_are_rank_invariant_under_sampling() {
        let n = 100_000u64;
        let mut r = rng(41);
        let mut q = Sampled::new(KllSketch::new(200, &mut r).unwrap(), 0.1, &mut r).unwrap();
        let mut v = 3u64;
        for _ in 0..n {
            v = v.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
            q.observe(v % n);
        }
        for target in [0.5, 0.99] {
            let est = q.quantile(target).unwrap();
            let true_rank = est / n as f64;
            let eps = q.rank_error(target);
            assert!(
                (true_rank - target).abs() <= eps,
                "q={target}: rank {true_rank}, ε={eps}"
            );
            let (at, (lo, hi)) = q.quantile_with_bounds(target).unwrap();
            assert_eq!(at, est);
            assert!(lo <= est && est <= hi);
        }
        // Sampling widens the rank error beyond the backend's own ε.
        assert!(q.rank_error(0.5) > q.summary().rank_error());
    }

    /// Shard copies draw their own coins, reproducibly per shard, and stay
    /// mergeable; a clone replays its source's coins.
    #[test]
    fn shard_copies_draw_their_own_coins() {
        let mut r = rng(52);
        let proto = Sampled::new(HyperLogLog::new(10, &mut r).unwrap(), 0.5, &mut r).unwrap();
        let decisions = |mut s: Sampled<HyperLogLog>| -> Vec<bool> {
            (0..256u64).map(|k| s.observe(k)).collect()
        };
        let shard0 = decisions(proto.for_shard(0));
        assert_eq!(shard0, decisions(proto.for_shard(0)));
        assert_ne!(shard0, decisions(proto.for_shard(1)));
        assert_ne!(shard0, decisions(proto.clone()));
        assert_eq!(decisions(proto.clone()), decisions(proto.clone()));
        let mut merged = proto.for_shard(0);
        merged.merge_from(&proto.for_shard(1)).unwrap();
    }

    /// Sampled summaries merge when probabilities agree (union of
    /// independent samples) and refuse otherwise, as a read of their sum
    /// does.
    #[test]
    fn merge_requires_equal_probability() {
        let mut r = rng(51);
        let mut a = Sampled::new(HyperLogLog::new(10, &mut r).unwrap(), 0.5, &mut r).unwrap();
        let mut b = Sampled::new(a.summary().clone(), 0.5, &mut r).unwrap();
        let keys: Vec<u64> = (0..4_000u64).collect();
        a.feed_batch(&keys[..2_000]);
        b.feed_batch(&keys[2_000..]);
        let seen = a.seen() + b.seen();
        let kept = a.kept() + b.kept();
        a.merge_from(&b).unwrap();
        assert_eq!(a.seen(), seen);
        assert_eq!(a.kept(), kept);
        let c = Sampled::new(HyperLogLog::new(10, &mut r).unwrap(), 0.25, &mut r).unwrap();
        let refused = a.merge_from(&c).unwrap_err();
        assert_eq!(refused, Error::IncompatibleEstimators);
        let read = Sampled::distinct_estimate_of_sum(&b, &[&a, &c]);
        assert_eq!(read.unwrap_err(), refused);
    }
}
