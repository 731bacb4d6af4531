//! The layered `Summary` hierarchy — one ingestion contract, four query
//! capabilities.
//!
//! Every summary of `sss-sketch` offers its operations as inherent
//! methods (`update`/`offer`, `merge`, the raw estimators); this module is
//! the one interface over them — one base trait and standalone capability
//! traits, each implemented by the summaries that a workload, an `sss`
//! subcommand or a served answer reaches:
//!
//! * [`Summary`] is the *ingestion* contract the sharded runtime and the
//!   snapshot cache are generic over: anything that can absorb keyed
//!   updates and merge with a peer built from the same seeds.
//! * [`JoinQuery`] adds the paper's two join-size queries (F₂ /
//!   size-of-join), served by [`JoinSketch`] — the one join summary, over
//!   AGMS or F-AGMS.
//! * [`TopKQuery`] adds heavy-hitter point and top-k queries, served by
//!   [`MisraGries`] and by [`crate::MultiSummary`], whose Misra–Gries
//!   candidates its join sketch prices.
//! * [`DistinctQuery`] adds distinct-count (F₀) queries, served by
//!   [`HyperLogLog`].
//! * [`QuantileQuery`] adds rank/quantile queries, served by
//!   [`KllSketch`].
//!
//! The capability traits are deliberately **not** subtraits of
//! [`Summary`]: a query capability describes *answering*, not ingesting,
//! and the two-stage read path (DESIGN.md §4h) relies on the split. A fat
//! update-side summary implements `Summary` plus its capabilities; its
//! [`SlimQuery::slim`] projection is a compact read replica that
//! implements the same capability traits — answering queries
//! bit-identically at a fraction of the state — without pretending it can
//! absorb updates. Generic ingest paths bound `E: Summary + JoinQuery`
//! (etc.); pure query paths bound the capability alone.
//!
//! Two further capabilities make summaries portable across processes:
//!
//! * [`Portable`] — a versioned, self-describing binary wire form with a
//!   configuration fingerprint, so snapshots can be saved, shipped, and
//!   merged only against like-configured peers.
//! * [`SlimQuery`] — project a fat update-side summary to its compact
//!   read-replica form (the SF-sketch fat/slim split of arXiv
//!   1701.04148).
//!
//! The PR-8 migration shims `StreamSummary` and `JoinEstimator` are gone;
//! code still naming them no longer compiles:
//!
//! ```compile_fail
//! use sss_core::StreamSummary; // removed: use `sss_core::Summary`
//! ```
//!
//! ```compile_fail
//! use sss_core::JoinEstimator; // removed: use `sss_core::JoinQuery`
//! ```
//!
//! So are the single-capability Bernoulli front ends that
//! [`crate::Sampled`] replaced, and both epoch shedders (the uncompacted
//! one and its compacted successor):
//!
//! ```compile_fail
//! use sss_core::LoadSheddingSketcher; // removed: `Sampled::new(schema.sketch(), p, rng)`
//! ```
//!
//! ```compile_fail
//! use sss_core::SampledTopK; // removed: use `sss_core::Sampled`
//! ```
//!
//! ```compile_fail
//! use sss_core::ReferenceEpochShedder; // removed: shed with one `sss_core::Sampled`
//! ```
//!
//! [`Summary`] has no retraction pair either (a merged view is rebuilt by
//! merging again):
//!
//! ```compile_fail
//! use sss_core::Summary;
//! fn gone<S: Summary>(a: &mut S, b: &S) { let _ = a.retract_from(b); }
//! ```
//!
//! ```compile_fail
//! use sss_core::Summary;
//! fn gone<S: Summary>(s: &S) -> bool { s.supports_retract() }
//! ```
//!
//! Count-Min is gone from the workspace (the paper sketches with ±1
//! families only), so no [`Summary`] can name it.
//!
//! ```compile_fail
//! fn summary<S: sss_core::Summary>() {}
//! summary::<sss_sketch::CountMinSketch>(); // removed: F-AGMS is the join summary
//! ```
//!
//! The raw AGMS and F-AGMS sketches are not summaries of their own either:
//! [`JoinSketch`] wraps them, and is the one join summary that travels,
//! projects and serves.
//!
//! ```compile_fail
//! fn summary<S: sss_core::Summary>() {}
//! summary::<sss_sketch::FagmsSketch>(); // removed: wrap it in sss_core::JoinSketch
//! ```
//!
//! The Count-Sketch top-k is a [`Summary`] and nothing more: it keeps the
//! write path the benchmark ledger's `sketch.topk_update` row replays, and
//! neither answers nor travels.
//!
//! ```compile_fail
//! fn top_k<S: sss_core::TopKQuery>() {}
//! top_k::<sss_sketch::CountSketchTopK>(); // removed: `sss topk` answers through MultiSummary
//! ```
//!
//! ```compile_fail
//! fn portable<S: sss_core::Portable>() {}
//! portable::<sss_sketch::CountSketchTopK>(); // removed: the "cs-topk" kind
//! ```
//!
//! A summary implements whichever capabilities it can actually answer;
//! [`crate::MultiSummary`] implements all four by fanning one
//! `update_batch` into a join sketch, a Misra–Gries summary whose
//! heavy-hitter candidates that sketch prices, a HyperLogLog, and a KLL
//! sketch, which is how a single pass through the sharded runtime serves
//! every query type at once.
//!
//! Every query here is **raw**: it describes whatever stream the summary
//! actually absorbed. Bernoulli-sampling corrections (Propositions 13–16
//! of the paper, and their F₀/quantile analogues) live in one place — the
//! [`crate::Sampled`] front end that knows the inclusion probability.
//!
//! The ingestion contract mirrors sketch linearity exactly:
//!
//! * [`update_batch`](Summary::update_batch) must be **bit-identical** to
//!   the per-key update loop (integer counter updates commute);
//! * [`merge_from`](Summary::merge_from) must make the merged state
//!   equivalent to summarizing the concatenated streams — bit-identical
//!   for the linear sketches, guarantee-preserving for the (order-lossy)
//!   heavy-hitter/quantile summaries — so a sharded runtime can partition
//!   tuples arbitrarily, and its snapshot cache can rebuild a merged view
//!   by folding the live shard states in shard order, the first through
//!   [`merged_into`](Summary::merged_into).
//!
//! Why bit-identity is load-bearing: every pre-redesign query path
//! (scalar vs typed, scalar vs batched, merged vs single-stream) is pinned
//! by property tests that compare `f64::to_bits`. The hierarchy is a pure
//! re-layering — the same code runs under new names — so those pins keep
//! holding through the migration, which is what makes the refactor safe to
//! land in one PR.

use crate::error::{Error, Result};
use crate::sketch::JoinSketch;
use crate::wire::Head;
use sss_sampling::Door;
use sss_sketch::{CountSketchTopK, Estimate, FagmsSketch, HyperLogLog, KllSketch, MisraGries};
use sss_xi::{BucketFamily, Codec, Reader, SignFamily, Writer};

/// A mergeable summary of a keyed stream — the ingestion half of the
/// estimator contract, shared by join sketches, heavy-hitter summaries,
/// distinct counters and quantile sketches alike.
///
/// `Clone` is required so a concurrent runtime can snapshot shard state
/// without draining it; `Send + 'static` so shards can live on worker
/// threads; `Sync` so a merge can be shared, behind an `Arc`, by the
/// runtime's cache and the read replicas on other threads that hold it.
pub trait Summary: Clone + Send + Sync + 'static {
    /// Add `count` occurrences of `key` (negative counts model deletions
    /// for turnstile-capable summaries; insert-only summaries may ignore
    /// them — see the implementor's docs).
    fn update(&mut self, key: u64, count: i64);

    /// Add one occurrence of every key, bit-identically to calling
    /// [`update`](Summary::update) once per key.
    fn update_batch(&mut self, keys: &[u64]);

    /// Merge a peer summary built from the same schema: afterwards `self`
    /// summarizes the union of both streams.
    ///
    /// # Errors
    ///
    /// Schema mismatch (different random seeds, or structurally
    /// incompatible summaries) — merged state would be meaningless.
    fn merge_from(&mut self, other: &Self) -> Result<()>;

    /// `zero ⊕ self`, bit for bit, where `zero` is an empty summary of the
    /// same schema (a sharded runtime's prototype): the fold of shard
    /// states starts here, so a summary whose merge into an empty one is a
    /// copy pays for one copy, not a copy and an add.
    ///
    /// # Errors
    ///
    /// As for [`merge_from`](Summary::merge_from).
    fn merged_into(&self, zero: &Self) -> Result<Self> {
        let mut merged = zero.clone();
        merged.merge_from(self)?;
        Ok(merged)
    }

    /// The copy shard `shard` of a sharded runtime starts from: a clone,
    /// except where a summary carries private randomness that shards must
    /// not share ([`crate::Sampled`] re-seeds its coins per shard). The
    /// copies stay mutually mergeable.
    fn for_shard(&self, _shard: usize) -> Self {
        self.clone()
    }

    /// The sampler a producer may run in front of this summary, so that
    /// only kept keys travel to it: `None` (every key is kept) except for
    /// [`crate::Sampled`], whose door is a copy of its own coin state.
    fn door(&self) -> Option<Door> {
        None
    }

    /// Absorb `kept`, the keys this summary's [`door`](Summary::door)
    /// admitted out of `offered` offered tuples. Without a door every
    /// offered key is kept and this is [`update_batch`](Summary::update_batch).
    fn update_admitted(&mut self, kept: &[u64], _offered: u64) {
        self.update_batch(kept);
    }
}

/// The capability of answering the paper's join-size queries.
///
/// Standalone rather than a [`Summary`] subtrait so read-only slim
/// replicas ([`SlimQuery::Slim`]) can answer joins without carrying the
/// ingestion contract; ingest-capable callers bound `Summary + JoinQuery`.
pub trait JoinQuery {
    /// Raw self-join (second frequency moment) estimate of the summarized
    /// stream.
    fn self_join(&self) -> f64;

    /// Raw size-of-join estimate against a peer built from the same
    /// schema.
    ///
    /// # Errors
    ///
    /// Schema mismatch, as for [`merge_from`](Summary::merge_from).
    fn size_of_join(&self, other: &Self) -> Result<f64>;

    /// Typed self-join estimate with error state: same value as
    /// [`self_join`](JoinQuery::self_join) (bit-identical for the provided
    /// implementations), plus an empirical variance and the per-lane
    /// basics it came from.
    ///
    /// The default implementation wraps [`self_join`] in
    /// [`Estimate::point`] — infinite variance, no basics — so external
    /// implementations keep compiling and honestly report that they carry
    /// no error state.
    ///
    /// [`self_join`]: JoinQuery::self_join
    fn self_join_estimate(&self) -> Estimate {
        Estimate::point(self.self_join())
    }

    /// The [`self_join_estimate`](JoinQuery::self_join_estimate) of the
    /// merge of `parts`, in order, read without building it: bit for bit
    /// what folding them with [`merge_from`](Summary::merge_from) and
    /// asking the result would answer. A sharded runtime reads a fresh F₂
    /// off its shards through this, under their locks.
    ///
    /// `None` when the summary cannot read a sum in place (the default),
    /// when `parts` is empty, or when the parts would not merge; the
    /// caller then folds them.
    fn self_join_estimate_of_sum(_parts: &[&Self]) -> Option<Estimate>
    where
        Self: Sized,
    {
        None
    }

    /// Typed size-of-join estimate with error state; defaults to a
    /// zero-information [`Estimate::point`] like
    /// [`self_join_estimate`](JoinQuery::self_join_estimate).
    ///
    /// # Errors
    ///
    /// Schema mismatch, as for [`merge_from`](Summary::merge_from).
    fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        Ok(Estimate::point(self.size_of_join(other)?))
    }
}

/// The capability of answering heavy-hitter queries: per-key frequency
/// point estimates and a top-k ranking over tracked candidates.
/// Standalone, like [`JoinQuery`], so slim replicas qualify.
pub trait TopKQuery {
    /// Raw frequency estimate for one key in the summarized stream.
    fn frequency(&self, key: u64) -> f64;

    /// The `k` heaviest tracked keys with raw frequency estimates,
    /// heaviest first (ties broken toward the smaller key).
    ///
    /// **At most** `k`: the answer is as long as the summary has tracked
    /// keys to rank. A counter summary ([`crate::MultiSummary`]'s
    /// Misra–Gries front) holds only keys that stand out — after a
    /// compaction nothing near or below `n/(capacity+1)` — so on a flat
    /// stream its answer is short, down to empty.
    /// [`frequency`](TopKQuery::frequency) answers for any key either way.
    fn top_k(&self, k: usize) -> Vec<(u64, f64)>;

    /// The estimation variance of [`frequency`](TopKQuery::frequency)
    /// (e.g. `F₂/width` per Count-Sketch row). Defaults to infinity so
    /// implementations without an error model honestly report zero
    /// information.
    fn frequency_variance(&self) -> f64 {
        f64::INFINITY
    }

    /// Typed frequency estimate: the raw point value with
    /// [`frequency_variance`](TopKQuery::frequency_variance) attached.
    fn frequency_estimate(&self, key: u64) -> Estimate {
        Estimate {
            value: self.frequency(key),
            variance: self.frequency_variance(),
            basics: Vec::new(),
        }
    }

    /// [`top_k`](TopKQuery::top_k) of the merge `zero ⊕ parts[0] ⊕ …`,
    /// each key with its [`frequency_estimate`](TopKQuery::frequency_estimate),
    /// read without building the merge: bit for bit what folding the parts
    /// into `zero` ([`Summary::merged_into`], then `merge_from` in order)
    /// and asking the result would answer. `zero` is an empty summary of
    /// the parts' schema, the fold's starting point. `f2` is that merge's
    /// [`JoinQuery::self_join`] when the caller has read it already; a
    /// summary whose frequency variance is priced off F₂ reuses it, and
    /// may leave the F₂ it read there.
    ///
    /// `None` when the summary cannot read a sum in place (the default),
    /// when `parts` is empty, or when the parts would not merge; the
    /// caller then folds. A sharded runtime reads a fresh top-k off its
    /// shards through this, under their locks.
    fn top_k_of_sum(
        _zero: &Self,
        _parts: &[&Self],
        _k: usize,
        _f2: &mut Option<f64>,
    ) -> Option<Vec<(u64, Estimate)>>
    where
        Self: Sized,
    {
        None
    }
}

/// The capability of estimating the number of distinct keys (F₀) in the
/// summarized stream. Standalone, like [`JoinQuery`], so slim replicas
/// qualify.
pub trait DistinctQuery {
    /// Raw distinct-count estimate of the summarized stream.
    fn distinct(&self) -> f64;

    /// Typed distinct-count estimate; defaults to a zero-information
    /// [`Estimate::point`], overridden by backends with an analytic error
    /// model (HyperLogLog's `1.04/√m`).
    fn distinct_estimate(&self) -> Estimate {
        Estimate::point(self.distinct())
    }

    /// [`distinct_estimate`](DistinctQuery::distinct_estimate) of the
    /// merge `zero ⊕ parts[0] ⊕ …`, read without building it; `None` as
    /// for [`TopKQuery::top_k_of_sum`], whose contract this shares.
    fn distinct_estimate_of_sum(_zero: &Self, _parts: &[&Self]) -> Option<Estimate>
    where
        Self: Sized,
    {
        None
    }
}

/// Rank `q` and the ends of its envelope `q ∓ eps`, clamped to `[0, 1]`.
pub(crate) fn rank_band(q: f64, eps: f64) -> [f64; 3] {
    [q, (q - eps).max(0.0), (q + eps).min(1.0)]
}

/// The capability of answering rank/quantile queries over the key
/// *values* of the summarized stream. Standalone, like [`JoinQuery`], so
/// slim replicas qualify.
///
/// Values are reported as `f64` (exact for keys below 2⁵³) so they can
/// ride the typed [`Estimate`] path next to every other query.
pub trait QuantileQuery {
    /// The value at normalized rank `q ∈ [0, 1]` (`0` = minimum,
    /// `1` = maximum).
    ///
    /// # Errors
    ///
    /// Invalid `q`, or an empty summary (no value to report).
    fn quantile(&self, q: f64) -> Result<f64>;

    /// The normalized rank of `value` — the fraction of summarized weight
    /// strictly below it, in `[0, 1]`.
    fn rank(&self, value: u64) -> f64;

    /// The summary's normalized rank-error bound ε: a reported quantile's
    /// true rank lies within `±ε` of the requested one with high
    /// probability.
    fn rank_error(&self) -> f64;

    /// Total stream weight summarized (the `n` that normalizes ranks).
    fn stream_len(&self) -> u64;

    /// [`quantile`](QuantileQuery::quantile) at every rank of `ranks`, in
    /// that order. A backend that sorts its items to answer (KLL)
    /// overrides this to sort once for all of them.
    ///
    /// # Errors
    ///
    /// As for [`quantile`](QuantileQuery::quantile).
    fn quantiles(&self, ranks: &[f64]) -> Result<Vec<f64>> {
        ranks.iter().map(|&q| self.quantile(q)).collect()
    }

    /// The `q`-quantile and a conservative value interval for it: the
    /// values at ranks `q ∓ ε` (clamped to `[0, 1]`), all three from one
    /// [`quantiles`](QuantileQuery::quantiles) call. The true quantile
    /// lies between the bounds with the backend's high-probability
    /// guarantee — this is the honest error bar for a query whose
    /// *value-domain* variance is unknowable without a density model.
    ///
    /// # Errors
    ///
    /// As for [`quantile`](QuantileQuery::quantile).
    fn quantile_with_bounds(&self, q: f64) -> Result<(f64, (f64, f64))> {
        let at = self.quantiles(&rank_band(q, self.rank_error()))?;
        Ok((at[0], (at[1], at[2])))
    }

    /// The interval of
    /// [`quantile_with_bounds`](QuantileQuery::quantile_with_bounds).
    ///
    /// # Errors
    ///
    /// As for [`quantile`](QuantileQuery::quantile).
    fn quantile_bounds(&self, q: f64) -> Result<(f64, f64)> {
        Ok(self.quantile_with_bounds(q)?.1)
    }

    /// [`quantile_with_bounds`](QuantileQuery::quantile_with_bounds) of
    /// the merge `zero ⊕ parts[0] ⊕ …`, read without building it; `None`
    /// as for [`TopKQuery::top_k_of_sum`], whose contract this shares.
    fn quantile_with_bounds_of_sum(
        _zero: &Self,
        _parts: &[&Self],
        _q: f64,
    ) -> Option<Result<(f64, (f64, f64))>>
    where
        Self: Sized,
    {
        None
    }
}

/// A summary with a versioned, self-describing wire form.
///
/// A payload is a [`wire::Head`](crate::wire::Head) — kind tag, format
/// version, and a **configuration fingerprint** hashing everything merge
/// compatibility depends on (random seeds via schema identities,
/// width/depth, precision) — in front of the summary's [`Codec`] body.
/// Receivers can [`peek`](crate::wire::peek) the head without decoding the
/// body, and [`merge_encoded`](Portable::merge_encoded) refuses payloads
/// whose fingerprint differs, so only like-configured summaries ever merge.
/// [`decode`](Portable::decode) refuses a body that does not fingerprint
/// to its head's value, so a head cannot vouch for another configuration.
///
/// Versioning rules (DESIGN.md §4h): a body is its fields in a fixed order
/// with no names, so *any* change to it — a field added, removed,
/// reordered or given another meaning — bumps [`FORMAT`](Portable::FORMAT),
/// and decoders reject any version other than their own.
///
/// `Portable` deliberately does not require [`Summary`]: read-only
/// projections (e.g. `SlimJoin`) travel too. Merging through the wire
/// *does* require `Summary`, hence the bound on
/// [`merge_encoded`](Portable::merge_encoded) alone.
pub trait Portable: Codec {
    /// Wire kind tag — distinct per concrete summary shape (e.g.
    /// `"join"`, `"slim-join"`).
    const KIND: &'static str;

    /// Wire format version for this kind; decoders accept exactly this
    /// version.
    const FORMAT: u32;

    /// The configuration fingerprint: equal exactly when two summaries of
    /// this kind are merge-compatible (same seeds/width/depth/precision).
    fn fingerprint(&self) -> u64;

    /// Encode to the self-describing wire form.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the signature callers match on.
    fn encode(&self) -> Result<Vec<u8>> {
        let mut body = Writer::new();
        self.put(&mut body);
        let head = Head {
            kind: Self::KIND.to_string(),
            format: Self::FORMAT,
            fingerprint: self.fingerprint(),
        };
        Ok(head.seal(&body.into_bytes()))
    }

    /// Decode from the wire form, validating kind, format and fingerprint.
    ///
    /// # Errors
    ///
    /// [`Error::Wire`] on malformed bytes, [`Error::WireMismatch`] on a
    /// foreign kind or format version, [`Error::FingerprintMismatch`] when
    /// the body's configuration is not the one its head names.
    fn decode(bytes: &[u8]) -> Result<Self> {
        let (head, body) = Head::open(bytes)?;
        if head.kind != Self::KIND || head.format != Self::FORMAT {
            return Err(Error::WireMismatch {
                expected: format!("{} v{}", Self::KIND, Self::FORMAT),
                found: format!("{} v{}", head.kind, head.format),
            });
        }
        let mut r = Reader::new(body);
        let summary = Self::take(&mut r)?;
        r.finish()?;
        same_fingerprint(summary.fingerprint(), head.fingerprint)?;
        Ok(summary)
    }

    /// Decode a payload and merge it in, after checking that its
    /// fingerprint matches — the one-call primitive multi-process
    /// aggregation is built on (`sss merge-snapshots`).
    ///
    /// # Errors
    ///
    /// [`Error::FingerprintMismatch`] when the payload was built from
    /// different seeds/dimensions; decode and merge errors pass through.
    fn merge_encoded(&mut self, bytes: &[u8]) -> Result<()>
    where
        Self: Summary,
    {
        same_fingerprint(self.fingerprint(), crate::wire::peek(bytes)?.fingerprint)?;
        let other = Self::decode(bytes)?;
        self.merge_from(&other)
    }
}

/// [`Error::FingerprintMismatch`] unless a payload's fingerprint is the
/// one expected.
fn same_fingerprint(expected: u64, found: u64) -> Result<()> {
    if expected != found {
        return Err(Error::FingerprintMismatch { expected, found });
    }
    Ok(())
}

/// A fat update-side summary that can project itself to a compact
/// read-side replica — the SF-sketch fat/slim split (arXiv 1701.04148).
///
/// The slim form answers the fat summary's query capabilities (each slim
/// type documents which, and how honestly) from per-lane aggregate state
/// — medians-of-means lanes for the join sketches, the candidate scores
/// for top-k — instead of the full counter matrix. Slim states are *not*
/// mergeable (lane aggregates don't add: `(a+b)² ≠ a² + b²`), so
/// projection always happens **after** fat merging. A slim type that is
/// also [`Portable`] can be shipped to another process, never merged; in
/// process, a runtime's read replica asks the fat merge itself.
pub trait SlimQuery: Summary {
    /// The compact read-replica form.
    type Slim: Clone + Send + Sync + 'static;

    /// Project the current state to its read-replica form.
    fn slim(&self) -> Self::Slim;
}

impl Summary for JoinSketch {
    fn update(&mut self, key: u64, count: i64) {
        JoinSketch::update(self, key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        JoinSketch::update_batch(self, keys);
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        self.merge(other)
    }

    /// A copy: the counters of an empty sketch are zeros, and `0 + c = c`.
    fn merged_into(&self, zero: &Self) -> Result<Self> {
        if Portable::fingerprint(self) != Portable::fingerprint(zero) {
            return Err(sss_sketch::Error::SchemaMismatch.into());
        }
        Ok(self.clone())
    }
}

impl JoinQuery for JoinSketch {
    fn self_join(&self) -> f64 {
        self.raw_self_join()
    }

    fn size_of_join(&self, other: &Self) -> Result<f64> {
        self.raw_size_of_join(other)
    }

    fn self_join_estimate(&self) -> Estimate {
        self.raw_self_join_estimate()
    }

    /// Read in place over F-AGMS rows; AGMS parts fold.
    fn self_join_estimate_of_sum(parts: &[&Self]) -> Option<Estimate> {
        FagmsSketch::self_join_estimate_of_sum(&JoinSketch::fagms_parts(parts)?)
    }

    fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        self.raw_size_of_join_estimate(other)
    }
}

/// Heavy-hitter summaries shard like sketches do — merge via the
/// Agarwal-et-al. summary merge — but answer top-k queries, not joins.
/// Insert-only: non-positive counts are dropped by [`MisraGries`] (see its
/// docs).
impl Summary for MisraGries {
    fn update(&mut self, key: u64, count: i64) {
        self.offer(key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.offer_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        Ok(self.merge(other)?)
    }
}

impl TopKQuery for MisraGries {
    fn frequency(&self, key: u64) -> f64 {
        self.raw_estimate(key)
    }

    fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        self.raw_top_k(k)
    }

    fn frequency_variance(&self) -> f64 {
        self.raw_estimate_variance()
    }
}

impl<S, B> Summary for CountSketchTopK<S, B>
where
    S: SignFamily + Send + Sync + 'static,
    B: BucketFamily + Send + Sync + 'static,
{
    fn update(&mut self, key: u64, count: i64) {
        self.offer(key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.offer_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        Ok(self.merge(other)?)
    }
}

/// Distinct counting is duplicate-insensitive, so `update` treats any
/// positive count as one occurrence of the key and ignores deletions —
/// registers only ever grow.
impl Summary for HyperLogLog {
    fn update(&mut self, key: u64, count: i64) {
        if count > 0 {
            self.insert(key);
        }
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.insert_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        Ok(self.merge(other)?)
    }
}

impl DistinctQuery for HyperLogLog {
    fn distinct(&self) -> f64 {
        self.raw_distinct()
    }

    fn distinct_estimate(&self) -> Estimate {
        let value = self.raw_distinct();
        let std = self.relative_std_error() * value;
        Estimate {
            value,
            variance: std * std,
            basics: Vec::new(),
        }
    }
}

/// Quantile summaries weight a key by its multiplicity, so `update` with
/// `count > 1` inserts the key that many times; deletions are ignored
/// (compaction discards items irreversibly).
impl Summary for KllSketch {
    fn update(&mut self, key: u64, count: i64) {
        for _ in 0..count.max(0) {
            self.insert(key);
        }
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.insert_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        Ok(self.merge(other)?)
    }
}

impl QuantileQuery for KllSketch {
    fn quantile(&self, q: f64) -> Result<f64> {
        Ok(self.raw_quantile(q)? as f64)
    }

    fn quantiles(&self, ranks: &[f64]) -> Result<Vec<f64>> {
        let values = self.raw_quantiles(ranks)?;
        Ok(values.into_iter().map(|v| v as f64).collect())
    }

    fn rank(&self, value: u64) -> f64 {
        self.raw_rank(value)
    }

    fn rank_error(&self) -> f64 {
        KllSketch::rank_error(self)
    }

    fn stream_len(&self) -> u64 {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::JoinSchema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exercise one implementation generically: batch vs scalar identity,
    /// merge-equals-union, and a self-join in the right ballpark.
    fn exercise<E: Summary + JoinQuery>(make: impl Fn() -> E, tolerance: f64) {
        let keys: Vec<u64> = (0..4_000u64).map(|i| i % 100).collect();
        let mut scalar = make();
        for &k in &keys {
            Summary::update(&mut scalar, k, 1);
        }
        let mut batched = make();
        Summary::update_batch(&mut batched, &keys);
        assert_eq!(
            JoinQuery::self_join(&scalar).to_bits(),
            JoinQuery::self_join(&batched).to_bits(),
            "batch must replay the scalar path exactly"
        );
        // Merge = union: split the stream in two and merge the halves.
        let mut left = make();
        let mut right = make();
        Summary::update_batch(&mut left, &keys[..keys.len() / 2]);
        Summary::update_batch(&mut right, &keys[keys.len() / 2..]);
        left.merge_from(&right).unwrap();
        assert_eq!(
            JoinQuery::self_join(&left).to_bits(),
            JoinQuery::self_join(&scalar).to_bits(),
            "merge must equal sketching the union"
        );
        let truth = 100.0 * 40.0 * 40.0;
        let est = JoinQuery::self_join(&scalar);
        assert!(
            (est - truth).abs() / truth < tolerance,
            "est = {est}, truth = {truth}"
        );
        // size_of_join against itself agrees with self_join.
        let sj = JoinQuery::size_of_join(&scalar, &scalar).unwrap();
        assert!((sj - est).abs() <= est.abs() * 1e-9 + 1e-9);
        // The typed estimates return the same values bit for bit, and the
        // multi-lane backends report a finite, usable error bar.
        let e = scalar.self_join_estimate();
        assert_eq!(e.value.to_bits(), est.to_bits());
        assert!(e.variance.is_finite());
        assert!(e.chebyshev(0.95).unwrap().contains(e.value));
        let ej = scalar.size_of_join_estimate(&scalar).unwrap();
        assert_eq!(ej.value.to_bits(), sj.to_bits());
    }

    #[test]
    fn every_join_backend_satisfies_the_contract() {
        let mut rng = StdRng::seed_from_u64(7);
        for schema in [
            JoinSchema::agms(256, &mut rng),
            JoinSchema::fagms(3, 1024, &mut rng),
            JoinSchema::fagms(2, 1024, &mut rng),
        ] {
            exercise(|| schema.sketch(), 0.25);
        }
    }

    /// A minimal external implementor relying entirely on the default
    /// methods: the redesign must not force it to change, and its
    /// estimates must honestly report zero information.
    #[test]
    fn trait_defaults_keep_external_implementors_compiling() {
        #[derive(Clone)]
        struct ExactCounter(std::collections::HashMap<u64, i64>);
        impl Summary for ExactCounter {
            fn update(&mut self, key: u64, count: i64) {
                *self.0.entry(key).or_insert(0) += count;
            }
            fn update_batch(&mut self, keys: &[u64]) {
                for &k in keys {
                    self.update(k, 1);
                }
            }
            fn merge_from(&mut self, other: &Self) -> Result<()> {
                for (&k, &c) in &other.0 {
                    self.update(k, c);
                }
                Ok(())
            }
        }
        impl JoinQuery for ExactCounter {
            fn self_join(&self) -> f64 {
                self.0.values().map(|&c| (c * c) as f64).sum()
            }
            fn size_of_join(&self, other: &Self) -> Result<f64> {
                Ok(self
                    .0
                    .iter()
                    .map(|(k, &c)| c as f64 * other.0.get(k).copied().unwrap_or(0) as f64)
                    .sum())
            }
        }
        let mut e = ExactCounter(Default::default());
        e.update_batch(&[1, 1, 2, 3]);
        let est = e.self_join_estimate();
        assert_eq!(est.value, e.self_join());
        assert!(est.variance.is_infinite());
        assert!(est.basics.is_empty());
        let sj = e.size_of_join_estimate(&e).unwrap();
        assert_eq!(sj.value, e.self_join());
        assert!(sj.chebyshev(0.99).unwrap().half_width().is_infinite());
    }

    #[test]
    fn mismatched_schemas_error_through_the_trait() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = JoinSchema::agms(8, &mut rng).sketch();
        let mut b = JoinSchema::fagms(1, 8, &mut rng).sketch();
        assert!(b.merge_from(&a).is_err());
        assert!(JoinQuery::size_of_join(&a, &b).is_err());
    }

    /// The top-k capability surfaces the raw heavy-hitter queries with a
    /// typed variance, bit-identical to the underlying summary.
    #[test]
    fn topk_capability_matches_raw_summary() {
        let mut mg = MisraGries::new(8).unwrap();
        let keys: Vec<u64> = (0..1000u64).map(|i| i % 10).collect();
        Summary::update_batch(&mut mg, &keys);
        assert_eq!(
            TopKQuery::frequency(&mg, 3).to_bits(),
            mg.raw_estimate(3).to_bits()
        );
        assert_eq!(TopKQuery::top_k(&mg, 4), mg.raw_top_k(4));
        let est = mg.frequency_estimate(3);
        assert_eq!(est.value.to_bits(), mg.raw_estimate(3).to_bits());
        assert_eq!(est.variance, mg.raw_estimate_variance());
    }

    /// HyperLogLog rides the ingestion contract: duplicate-insensitive
    /// updates, union merges, analytic error.
    #[test]
    fn distinct_capability_over_hyperloglog() {
        let mut h = HyperLogLog::with_seed(12, 99).unwrap();
        let keys: Vec<u64> = (0..20_000u64).map(|i| i % 5_000).collect();
        Summary::update_batch(&mut h, &keys);
        Summary::update(&mut h, 17, 50); // duplicates are free
        Summary::update(&mut h, 17, -3); // deletions ignored
        let est = h.distinct_estimate();
        assert_eq!(est.value.to_bits(), h.raw_distinct().to_bits());
        assert!((est.value - 5_000.0).abs() / 5_000.0 < 5.0 * h.relative_std_error());
        assert!(est.variance.is_finite() && est.variance > 0.0);
    }

    /// KLL rides the ingestion contract with weight-aware updates, and its
    /// quantile bounds bracket the requested rank.
    #[test]
    fn quantile_capability_over_kll() {
        let mut s = KllSketch::with_seed(200, 5).unwrap();
        let keys: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(48271) % 50_000)
            .collect();
        Summary::update_batch(&mut s, &keys);
        Summary::update(&mut s, 7, 3); // weight-3 update
        assert_eq!(QuantileQuery::stream_len(&s), 50_003);
        let median = QuantileQuery::quantile(&s, 0.5).unwrap();
        let (lo, hi) = s.quantile_bounds(0.5).unwrap();
        assert!(lo <= median && median <= hi);
        let true_rank = QuantileQuery::rank(&s, median as u64);
        assert!((true_rank - 0.5).abs() < 2.0 * QuantileQuery::rank_error(&s));
        assert!(QuantileQuery::quantile(&s, 1.4).is_err());
    }
}
