//! The streaming engine: transforms, a sharded runtime, and overload
//! shedding behind one builder.
//!
//! The paper situates sketch-over-samples inside a DSMS: when the arrival
//! rate exceeds what the query network sustains, a *load shedder* drops
//! tuples — and if the drops are Bernoulli, every sketch downstream remains
//! an unbiased (rescalable) summary. This module is the minimal honest
//! version of that architecture (after Tatbul et al., VLDB'03), now with
//! the §VI-C multi-core leg under it:
//!
//! ```text
//! source batches ─▶ [transforms] ─▶ ShardedRuntime (bounded queues)
//!                                        │ overflow (queues full)
//!                                        ▼
//!                               [adaptive epoch shedder] ─ unbiased
//!                                        ▲
//!                         RateController (capacity vs overflow λ)
//! ```
//!
//! * Transforms model the query network (selection, key extraction).
//! * The [`ShardedRuntime`] absorbs whatever the workers keep up with,
//!   bit-identically to sequential sketching.
//! * When a shard queue fills, the overflow is **not dropped on the
//!   floor**: it flows through an [`EpochShedder`] whose rate is set by a
//!   [`RateController`] watching the overflow rate, so the combined
//!   estimate (runtime part + shedded part + cross term) stays unbiased
//!   under arbitrary overload while memory stays bounded. Its coins are
//!   seeded by [`EngineBuilder::seed`].
//! * Per-stage statistics expose where tuples went — the observability a
//!   real engine needs to explain an approximate answer.
//!
//! The engine keeps no summaries of its own beside the runtime's: one
//! prototype, a copy of it per shard (a [`Sampled`](sss_core::Sampled)
//! prototype samples independently on each). Top-k, distinct counts and
//! quantiles come from a [`MultiSummary`](sss_core::MultiSummary)
//! prototype through [`StreamEngine::merged`].
//!
//! Construction goes through [`EngineBuilder`]. The join queries of a
//! `JoinSketch` engine are typed ([`StreamEngine::self_join_estimate`],
//! [`StreamEngine::size_of_join_estimate`]): an [`Estimate`] with
//! empirical error bars for the *combined* estimator, whose value the
//! scalar queries return.

pub use crate::adaptive::ControllerConfig;
use crate::adaptive::RateController;
use crate::error::{Result as StreamResult, StreamError};
use crate::runtime::{Partition, RuntimeConfig, ShardedRuntime};
use sss_core::sketch::{JoinSchema, JoinSketch};
use sss_core::{EpochShedder, Estimate, Summary};

/// A stateless per-tuple transform (function pointers keep the engine
/// `Debug` and the stages trivially serializable in spirit).
#[derive(Debug, Clone, Copy)]
pub enum Transform {
    /// Keep only tuples satisfying the predicate.
    Filter(fn(u64) -> bool),
    /// Rewrite the key (projection / key extraction).
    Map(fn(u64) -> u64),
}

/// Tuples in/out of one stage, cumulative over the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage label.
    pub name: String,
    /// Tuples entering the stage.
    pub tuples_in: u64,
    /// Tuples leaving the stage.
    pub tuples_out: u64,
}

/// The overflow-shedding leg of the engine: controller + epoch shedder.
#[derive(Debug)]
struct ShedPath {
    controller: RateController,
    shedder: EpochShedder,
}

/// Fluent configuration of a [`StreamEngine`].
///
/// Generic over the summary: call [`summary`](EngineBuilder::summary)
/// with any prototype [`Summary`] (a join sketch, a
/// [`MultiSummary`](sss_core::MultiSummary), a
/// [`sss_core::Sampled`] front end…), or — for the
/// backend-erased default `JoinSketch` — [`schema`](EngineBuilder::schema),
/// which additionally unlocks [`shedding`](EngineBuilder::shedding) (the
/// shedder mathematics lives on `JoinSketch`).
///
/// ```
/// use rand::SeedableRng;
/// use sss_core::sketch::JoinSchema;
/// use sss_stream::EngineBuilder;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let schema = JoinSchema::fagms(1, 1024, &mut rng);
/// let mut engine = EngineBuilder::new()
///     .filter("evens", |k| k % 2 == 0)
///     .shards(2)
///     .queue_depth(16)
///     .schema(&schema)
///     .build()
///     .unwrap();
/// engine.push_batch(&(0..1000u64).collect::<Vec<_>>(), 1.0).unwrap();
/// let est = engine.self_join().unwrap();
/// assert!(est > 0.0);
/// ```
#[derive(Debug)]
pub struct EngineBuilder<E: Summary = JoinSketch> {
    transforms: Vec<(String, Transform)>,
    config: RuntimeConfig,
    prototype: Option<E>,
    schema: Option<JoinSchema>,
    shedding: Option<ControllerConfig>,
    seed: u64,
}

impl<E: Summary> EngineBuilder<E> {
    /// Start an empty engine description (1 shard, queue depth 64, no
    /// shedding).
    pub fn new() -> Self {
        Self {
            transforms: Vec::new(),
            config: RuntimeConfig::default(),
            prototype: None,
            schema: None,
            shedding: None,
            seed: 0x5353_5f73_6861_7264, // arbitrary fixed default
        }
    }

    /// Append a named filter stage.
    pub fn filter(mut self, name: &str, pred: fn(u64) -> bool) -> Self {
        self.transforms
            .push((name.to_string(), Transform::Filter(pred)));
        self
    }

    /// Append a named map stage.
    pub fn map(mut self, name: &str, f: fn(u64) -> u64) -> Self {
        self.transforms.push((name.to_string(), Transform::Map(f)));
        self
    }

    /// Number of shard workers (default 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = n;
        self
    }

    /// Bounded per-shard queue depth, in batches (default 64).
    pub fn queue_depth(mut self, d: usize) -> Self {
        self.config.queue_depth = d;
        self
    }

    /// Tuple-routing policy (default round-robin).
    pub fn partition(mut self, p: Partition) -> Self {
        self.config.partition = p;
        self
    }

    /// Seed of the overflow shedder's coins, passed to
    /// [`EpochShedder::new`] (defaults to a fixed constant, so runs are
    /// reproducible unless varied explicitly).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Provide the prototype summary every shard starts from
    /// ([`ShardedRuntime::new`]: a copy per shard, with its own coins for a
    /// [`Sampled`](sss_core::Sampled) front end). A
    /// [`MultiSummary`](sss_core::MultiSummary) prototype
    /// (`spec.summary()?`) makes one pass answer F₂, F₀, quantiles and
    /// top-k through [`StreamEngine::merged`].
    pub fn summary(mut self, prototype: E) -> Self {
        self.prototype = Some(prototype);
        self
    }

    /// Spawn the runtime and finish the engine.
    ///
    /// # Errors
    ///
    /// [`StreamError::MissingEstimator`] if neither
    /// [`summary`](Self::summary) nor [`schema`](Self::schema) was
    /// called; [`StreamError::InvalidConfig`] for degenerate shard/queue
    /// settings or shedding without a schema;
    /// [`StreamError::InvalidController`] for an out-of-range
    /// [`ControllerConfig`].
    pub fn build(self) -> StreamResult<StreamEngine<E>> {
        let prototype = self.prototype.ok_or(StreamError::MissingEstimator)?;
        let mut stats: Vec<StageStats> = self
            .transforms
            .iter()
            .map(|(name, _)| StageStats {
                name: name.clone(),
                tuples_in: 0,
                tuples_out: 0,
            })
            .collect();
        stats.push(StageStats {
            name: "runtime".into(),
            tuples_in: 0,
            tuples_out: 0,
        });
        let shed = match self.shedding {
            None => None,
            Some(cfg) => {
                let schema = self.schema.as_ref().ok_or(StreamError::InvalidConfig {
                    parameter: "shedding",
                    value: 0,
                    reason: "requires .schema(…) — the shedder sketches overflow",
                })?;
                stats.push(StageStats {
                    name: "overflow-shedder".into(),
                    tuples_in: 0,
                    tuples_out: 0,
                });
                let controller = RateController::new(cfg)?;
                let shedder = EpochShedder::new(schema, controller.probability(), self.seed)?;
                Some(ShedPath {
                    controller,
                    shedder,
                })
            }
        };
        let runtime = ShardedRuntime::new(self.config, &prototype)?;
        Ok(StreamEngine {
            transforms: self.transforms,
            stats,
            runtime,
            shed,
            scratch: Vec::new(),
            overflow: Vec::new(),
        })
    }
}

impl EngineBuilder<JoinSketch> {
    /// Use the backend-erased sketch of `schema` as the estimator. Also
    /// remembers the schema so [`shedding`](Self::shedding) can build its
    /// overflow sketch from the same seeds (merged and shedded parts must
    /// share hash functions for the cross term).
    pub fn schema(mut self, schema: &JoinSchema) -> Self {
        self.prototype = Some(schema.sketch());
        self.schema = Some(schema.clone());
        self
    }

    /// Enable the overflow-shedding path: when shard queues are full the
    /// engine routes the excess through an adaptive [`EpochShedder`]
    /// instead of blocking, and the estimate stays unbiased.
    pub fn shedding(mut self, config: ControllerConfig) -> Self {
        self.shedding = Some(config);
        self
    }
}

impl<E: Summary> Default for EngineBuilder<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The running engine: transform chain, sharded runtime and optional
/// overflow shedder. Built by [`EngineBuilder`].
#[derive(Debug)]
pub struct StreamEngine<E: Summary = JoinSketch> {
    transforms: Vec<(String, Transform)>,
    stats: Vec<StageStats>,
    runtime: ShardedRuntime<E>,
    shed: Option<ShedPath>,
    scratch: Vec<u64>,
    overflow: Vec<u64>,
}

impl<E: Summary> StreamEngine<E> {
    /// Feed one batch that arrived over `seconds` of wall-clock time.
    ///
    /// Without a shedding path the push **blocks** on full queues
    /// (backpressure propagates to the caller and nothing is lost). With
    /// one, the push never blocks: overflow is Bernoulli-shedded into the
    /// epoch sketch and the combined estimate stays unbiased.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a worker died, or an
    /// estimator error from the shedding path.
    pub fn push_batch(&mut self, keys: &[u64], seconds: f64) -> StreamResult<()> {
        // Run the transform chain on a scratch buffer.
        self.scratch.clear();
        self.scratch.extend_from_slice(keys);
        for (i, (_, t)) in self.transforms.iter().enumerate() {
            self.stats[i].tuples_in += self.scratch.len() as u64;
            match t {
                Transform::Filter(pred) => self.scratch.retain(|&k| pred(k)),
                Transform::Map(f) => {
                    for k in self.scratch.iter_mut() {
                        *k = f(*k);
                    }
                }
            }
            self.stats[i].tuples_out += self.scratch.len() as u64;
        }
        let n = self.scratch.len() as u64;
        let runtime_stage = self.transforms.len();
        self.stats[runtime_stage].tuples_in += n;
        match &mut self.shed {
            None => {
                self.runtime.push(&self.scratch)?;
                self.stats[runtime_stage].tuples_out += n;
            }
            Some(shed) => {
                self.overflow.clear();
                let accepted = self.runtime.try_push(&self.scratch, &mut self.overflow)?;
                self.stats[runtime_stage].tuples_out += accepted;
                // The controller watches the *overflow* rate: that is the
                // load the shedding path must absorb.
                let p = shed
                    .controller
                    .observe_batch(self.overflow.len() as u64, seconds);
                shed.shedder.set_probability(p)?;
                let of_stage = &mut self.stats[runtime_stage + 1];
                of_stage.tuples_in += self.overflow.len() as u64;
                of_stage.tuples_out += shed.shedder.feed_batch(&self.overflow);
            }
        }
        Ok(())
    }

    /// Merge the shard estimators as of now (the runtime keeps running).
    /// Covers only the tuples the runtime accepted; the shedded overflow
    /// contribution is what [`StreamEngine::self_join`] adds on top.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a worker died.
    pub fn merged(&self) -> StreamResult<E> {
        self.runtime.merged()
    }

    /// Per-stage statistics (transforms, then `"runtime"`, then —
    /// if shedding is enabled — `"overflow-shedder"`).
    pub fn stats(&self) -> &[StageStats] {
        &self.stats
    }

    /// The live rate controller, when the shedding path is enabled.
    pub fn controller(&self) -> Option<&RateController> {
        self.shed.as_ref().map(|s| &s.controller)
    }

    /// The live overflow shedder, when the shedding path is enabled.
    pub fn shedder(&self) -> Option<&EpochShedder> {
        self.shed.as_ref().map(|s| &s.shedder)
    }

    /// Highest queue occupancy any shard ever reached (≤ depth + 1).
    pub fn queue_high_water(&self) -> usize {
        self.runtime.queue_high_water()
    }

    /// Point-in-time queue occupancy of the most loaded shard (0 when the
    /// workers have caught up) — the live companion of the
    /// [`queue_high_water`](Self::queue_high_water) watermark.
    pub fn queue_occupancy(&self) -> usize {
        self.runtime.queue_occupancy()
    }

    /// Snapshot-cache counters for the runtime's at-all-times queries —
    /// see [`sss_stream::CacheStats`](crate::CacheStats).
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.runtime.cache_stats()
    }

    /// A cloneable handle answering runtime queries (merged sketch only —
    /// without the shedded overflow leg) from other threads, concurrently
    /// with this engine's ingest.
    pub fn query_handle(&self) -> crate::QueryHandle<E> {
        self.runtime.query_handle()
    }

    /// The number of shard workers.
    pub fn shards(&self) -> usize {
        self.runtime.shards()
    }

    /// Shut down the workers and return the merged runtime estimator
    /// (the shedded overflow part is dropped — query
    /// [`StreamEngine::self_join`] first if it matters).
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a worker panicked.
    pub fn into_merged(self) -> StreamResult<E> {
        self.runtime.into_merged()
    }
}

impl StreamEngine<JoinSketch> {
    /// Unbiased self-join (F₂) estimate of the full post-transform
    /// stream, overflow included: the value of
    /// [`StreamEngine::self_join_estimate`].
    ///
    /// # Errors
    ///
    /// As for [`StreamEngine::self_join_estimate`].
    pub fn self_join(&self) -> StreamResult<f64> {
        Ok(self.self_join_estimate()?.value)
    }

    /// Unbiased size-of-join estimate between this engine's stream and
    /// another engine's, overflow included on both sides: the value of
    /// [`StreamEngine::size_of_join_estimate`].
    ///
    /// # Errors
    ///
    /// As for [`StreamEngine::size_of_join_estimate`].
    pub fn size_of_join(&self, other: &StreamEngine<JoinSketch>) -> StreamResult<f64> {
        Ok(self.size_of_join_estimate(other)?.value)
    }

    /// The combined self-join value over `merged`, this engine's runtime
    /// sketch. The stream splits disjointly into the runtime part `A`
    /// (sketched at full rate) and the overflow part `O`
    /// (Bernoulli-shedded): `F₂ = A·A + O·O + 2·A·O`, each term estimated
    /// unbiasedly — `A·A` from the merged shard sketch, `O·O` by the
    /// shedder's Proposition 14 estimate, and the cross term by the
    /// Proposition 13 product with `q = 1` for the full-rate side.
    /// Queue-fullness decides the split, independently of the sampling
    /// and sketch randomness, so the sum is unbiased for any overload
    /// pattern.
    fn self_join_over(&self, merged: &JoinSketch) -> StreamResult<f64> {
        let mut value = merged.raw_self_join();
        if let Some(shed) = &self.shed {
            value += shed.shedder.self_join()?;
            value += 2.0 * shed.shedder.size_of_join_sketch(merged, 1.0)?;
        }
        Ok(value)
    }

    /// Typed unbiased self-join (F₂) estimate of the full post-transform
    /// stream, overflow included (the decomposition of
    /// [`StreamEngine::self_join`]).
    ///
    /// Each independent sketch lane sums its merged-runtime basic, the
    /// shedder's Proposition-14-corrected basic, and twice the `q = 1`
    /// cross-term basic — the lane-wise image of the `A·A + O·O + 2·A·O`
    /// decomposition — so the lane spread measures the sketch noise of the
    /// *combined* estimator. The shedder's Bernoulli sampling plug-in is
    /// added unscaled on top (every lane sees the same sampled tuples, so
    /// averaging lanes does not average that noise away).
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a worker died, or an
    /// estimator error from the cross-term computation.
    pub fn self_join_estimate(&self) -> StreamResult<Estimate> {
        let merged = self.runtime.merged()?;
        let Some(shed) = &self.shed else {
            return Ok(merged.raw_self_join_estimate());
        };
        let value = self.self_join_over(&merged)?;
        let mut lanes = merged.self_join_basics();
        let shed_lanes = shed.shedder.self_join_basics()?;
        let cross = shed.shedder.size_of_join_sketch_basics(&merged, 1.0)?;
        for ((lane, s), c) in lanes.iter_mut().zip(shed_lanes).zip(cross) {
            *lane += s + 2.0 * c;
        }
        let single = 2.0 * value * value / merged.averaging_factor() as f64;
        Ok(merged
            .combine_lanes(value, lanes, single)
            .plus_variance(shed.shedder.sampling_variance()))
    }

    /// Typed unbiased size-of-join estimate between this engine's stream
    /// and another engine's, overflow included on both sides.
    ///
    /// Expands the product of the two split streams: `(A₁+O₁)·(A₂+O₂)`,
    /// with each of the four terms estimated by the matching sketch pair,
    /// value and lanes alike. Both engines must have been built from the
    /// same [`JoinSchema`]. The Bernoulli sampling plug-in is evaluated at
    /// each side's smallest epoch rate (`1` for a side without shedding)
    /// with the combined self-join values standing in for the unknown
    /// F₂'s.
    ///
    /// # Errors
    ///
    /// Schema mismatch between the engines, or
    /// [`StreamError::ShardDisconnected`].
    pub fn size_of_join_estimate(
        &self,
        other: &StreamEngine<JoinSketch>,
    ) -> StreamResult<Estimate> {
        let m1 = self.runtime.merged()?;
        let m2 = other.runtime.merged()?;
        let add = |lanes: &mut Vec<f64>, extra: Vec<f64>| {
            for (lane, x) in lanes.iter_mut().zip(extra) {
                *lane += x;
            }
        };
        let mut value = m1.raw_size_of_join(&m2)?;
        let mut lanes = m1.size_of_join_basics(&m2)?;
        if let Some(s1) = &self.shed {
            value += s1.shedder.size_of_join_sketch(&m2, 1.0)?;
            add(&mut lanes, s1.shedder.size_of_join_sketch_basics(&m2, 1.0)?);
        }
        if let Some(s2) = &other.shed {
            value += s2.shedder.size_of_join_sketch(&m1, 1.0)?;
            add(&mut lanes, s2.shedder.size_of_join_sketch_basics(&m1, 1.0)?);
        }
        if let (Some(s1), Some(s2)) = (&self.shed, &other.shed) {
            value += s1.shedder.size_of_join(&s2.shedder)?;
            add(&mut lanes, s1.shedder.size_of_join_basics(&s2.shedder)?);
        }
        let f2_1 = self.self_join_over(&m1)?.max(0.0);
        let f2_2 = other.self_join_over(&m2)?.max(0.0);
        let p1 = self
            .shed
            .as_ref()
            .map_or(1.0, |s| s.shedder.min_probability());
        let p2 = other
            .shed
            .as_ref()
            .map_or(1.0, |s| s.shedder.min_probability());
        let sampling =
            sss_sampling::bernoulli_size_of_join_variance_plugin(p1, p2, f2_1, f2_2, value);
        let single = (f2_1 * f2_2 + value * value) / m1.averaging_factor() as f64;
        Ok(m1
            .combine_lanes(value, lanes, single)
            .plus_variance(sampling))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::ControllerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_exact_stub::Exact;

    /// A tiny exact aggregator local to the tests (the real `sss-exact`
    /// crate is not a dependency of `sss-stream`; this stub keeps it so).
    mod sss_exact_stub {
        use std::collections::HashMap;

        #[derive(Default)]
        pub struct Exact(HashMap<u64, u64>);

        impl Exact {
            pub fn add(&mut self, k: u64) {
                *self.0.entry(k).or_insert(0) += 1;
            }
            pub fn self_join(&self) -> f64 {
                self.0.values().map(|&c| (c * c) as f64).sum()
            }
        }
    }

    fn controller_config(capacity: f64) -> ControllerConfig {
        ControllerConfig {
            capacity_tps: capacity,
            smoothing: 0.5,
            hysteresis: 0.1,
            min_p: 1e-3,
            grid: sss_core::RateGrid::default(),
        }
    }

    fn is_even(k: u64) -> bool {
        k % 2 == 0
    }

    fn halve(k: u64) -> u64 {
        k / 2
    }

    #[test]
    fn transforms_apply_in_order_and_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let schema = JoinSchema::fagms(1, 1024, &mut rng);
        let mut e = EngineBuilder::new()
            .filter("evens", is_even)
            .map("halve", halve)
            .shards(2)
            .schema(&schema)
            .build()
            .unwrap();
        e.push_batch(&(0..1000u64).collect::<Vec<_>>(), 1.0)
            .unwrap();
        let stats = e.stats();
        assert_eq!(stats[0].tuples_in, 1000);
        assert_eq!(stats[0].tuples_out, 500, "filter halves the batch");
        assert_eq!(stats[1].tuples_in, 500);
        assert_eq!(stats[1].tuples_out, 500, "map preserves cardinality");
        // Blocking engine: the runtime accepts everything.
        assert_eq!(stats[2].name, "runtime");
        assert_eq!(stats[2].tuples_out, 500);
    }

    #[test]
    fn estimate_tracks_the_post_transform_stream() {
        let mut rng = StdRng::seed_from_u64(2);
        let schema = JoinSchema::fagms(1, 4096, &mut rng);
        let mut e = EngineBuilder::new()
            .filter("evens", is_even)
            .map("halve", halve)
            .shards(3)
            .schema(&schema)
            .build()
            .unwrap();
        let mut exact = Exact::default();
        // keys 0..2000 ×30: after filter+map the stream is 0..1000 ×30.
        for _ in 0..30 {
            let batch: Vec<u64> = (0..2000u64).collect();
            e.push_batch(&batch, 1.0).unwrap();
            for k in 0..2000u64 {
                if is_even(k) {
                    exact.add(halve(k));
                }
            }
        }
        let est = e.self_join().unwrap();
        let truth = exact.self_join();
        assert!(
            (est - truth).abs() / truth < 0.1,
            "est = {est}, truth = {truth}"
        );
    }

    /// The engine result is bit-identical to the sequential sketch of the
    /// post-transform stream, for any shard count (linearity end to end).
    #[test]
    fn engine_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(3);
        let schema = JoinSchema::fagms(2, 512, &mut rng);
        let keys: Vec<u64> = (0..40_000u64).map(|i| (i * 31) % 3000).collect();
        let mut seq = schema.sketch();
        for &k in &keys {
            if is_even(k) {
                seq.update(halve(k), 1);
            }
        }
        for shards in [1usize, 4] {
            let mut e = EngineBuilder::new()
                .filter("evens", is_even)
                .map("halve", halve)
                .shards(shards)
                .queue_depth(4)
                .schema(&schema)
                .build()
                .unwrap();
            for chunk in keys.chunks(777) {
                e.push_batch(chunk, 1e-3).unwrap();
            }
            let merged = e.into_merged().unwrap();
            assert_eq!(
                merged.raw_self_join().to_bits(),
                seq.raw_self_join().to_bits(),
                "shards = {shards}"
            );
        }
    }

    /// A generic estimator (typed F-AGMS, not the erased enum) drives the
    /// same engine through `.summary(…)`.
    #[test]
    fn engine_is_generic_over_the_estimator() {
        let mut rng = StdRng::seed_from_u64(4);
        let schema: sss_sketch::FagmsSchema = sss_sketch::FagmsSchema::new(1, 256, &mut rng);
        let mut e = EngineBuilder::new()
            .shards(2)
            .summary(schema.sketch())
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..5_000u64).map(|i| i % 50).collect();
        e.push_batch(&keys, 1.0).unwrap();
        let merged = e.into_merged().unwrap();
        let mut seq = schema.sketch();
        sss_sketch::Sketch::update_batch(&mut seq, &keys);
        assert_eq!(merged.self_join().to_bits(), seq.self_join().to_bits());
    }

    #[test]
    fn builder_rejects_incomplete_or_bad_configs() {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = JoinSchema::agms(4, &mut rng);
        assert!(matches!(
            EngineBuilder::<JoinSketch>::new().build(),
            Err(StreamError::MissingEstimator)
        ));
        assert!(matches!(
            EngineBuilder::new().schema(&schema).shards(0).build(),
            Err(StreamError::InvalidConfig { .. })
        ));
        // Shedding without a schema has no sketch to shed into.
        assert!(matches!(
            EngineBuilder::new()
                .summary(schema.sketch())
                .shedding(ControllerConfig::default())
                .build(),
            Err(StreamError::InvalidConfig {
                parameter: "shedding",
                ..
            })
        ));
    }

    /// With a saturated tiny queue the overflow path sheds, and the
    /// combined estimate still lands on the full-stream truth.
    #[test]
    fn overflow_sheds_without_bias() {
        let mut rng = StdRng::seed_from_u64(6);
        let schema = JoinSchema::fagms(1, 4096, &mut rng);
        let mut e = EngineBuilder::new()
            .shards(1)
            .queue_depth(1)
            .schema(&schema)
            .shedding(controller_config(1e5))
            .build()
            .unwrap();
        let mut exact = Exact::default();
        for _ in 0..200 {
            let batch: Vec<u64> = (0..10_000u64).map(|i| i % 2000).collect();
            e.push_batch(&batch, 1e-2).unwrap();
            for i in 0..10_000u64 {
                exact.add(i % 2000);
            }
        }
        let stats = e.stats();
        let runtime = &stats[0];
        let shed = &stats[1];
        assert_eq!(runtime.tuples_in, 200 * 10_000);
        assert_eq!(
            runtime.tuples_out + shed.tuples_in,
            runtime.tuples_in,
            "every tuple is either accepted or routed to the shedder"
        );
        assert!(e.queue_high_water() <= 2, "queue memory bounded");
        let est = e.self_join().unwrap();
        let truth = exact.self_join();
        assert!(
            (est - truth).abs() / truth < 0.15,
            "est = {est}, truth = {truth} (overflowed {})",
            shed.tuples_in
        );
    }

    #[test]
    fn empty_batches_are_harmless() {
        let mut rng = StdRng::seed_from_u64(7);
        let schema = JoinSchema::agms(4, &mut rng);
        let mut e = EngineBuilder::new()
            .schema(&schema)
            .shedding(controller_config(1e6))
            .build()
            .unwrap();
        e.push_batch(&[], 1.0).unwrap();
        assert_eq!(e.stats().last().unwrap().tuples_in, 0);
        assert_eq!(e.self_join().unwrap(), 0.0);
    }

    /// Two engines over the same schema estimate their join size,
    /// overflow included on both sides.
    #[test]
    fn cross_engine_size_of_join() {
        let mut rng = StdRng::seed_from_u64(8);
        let schema = JoinSchema::fagms(1, 4096, &mut rng);
        // Engine 1: keys 0..1000 ×20, no shedding.
        let mut e1 = EngineBuilder::new()
            .shards(2)
            .schema(&schema)
            .build()
            .unwrap();
        for _ in 0..20 {
            e1.push_batch(&(0..1000u64).collect::<Vec<_>>(), 1.0)
                .unwrap();
        }
        // Engine 2: keys 500..1500 ×10, with a saturating queue.
        let mut e2 = EngineBuilder::new()
            .shards(1)
            .queue_depth(1)
            .seed(99)
            .schema(&schema)
            .shedding(controller_config(1e5))
            .build()
            .unwrap();
        for _ in 0..10 {
            e2.push_batch(&(500..1500u64).collect::<Vec<_>>(), 1e-2)
                .unwrap();
        }
        // Overlap 500..1000: 500 keys × 20 × 10.
        let truth = 500.0 * 20.0 * 10.0;
        let est = e1.size_of_join(&e2).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.2,
            "est = {est}, truth = {truth}"
        );
        // Schema mismatch errors cleanly.
        let other = JoinSchema::agms(8, &mut rng);
        let e3 = EngineBuilder::new().schema(&other).build().unwrap();
        assert!(e1.size_of_join(&e3).is_err());
    }

    /// Regression (formerly on the deprecated `Pipeline`): a batch with a
    /// zero, negative, or non-finite duration must not panic or poison the
    /// controller — overflow tuples are still sketched at the current
    /// rate.
    #[test]
    fn degenerate_batch_durations_do_not_panic() {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = JoinSchema::fagms(1, 1024, &mut rng);
        let mut e = EngineBuilder::new()
            .shards(1)
            .queue_depth(1)
            .schema(&schema)
            .shedding(controller_config(1e12))
            .build()
            .unwrap();
        let batch: Vec<u64> = (0..500u64).collect();
        for secs in [0.0, -2.0, f64::NAN, f64::INFINITY, 1.0] {
            e.push_batch(&batch, secs).unwrap();
        }
        assert_eq!(e.controller().unwrap().probability(), 1.0);
        let stats = e.stats();
        assert_eq!(stats[0].tuples_in, 2500);
        // No shedding at huge capacity: every tuple either entered the
        // runtime or was sketched by the shedder at p = 1.
        assert_eq!(stats[1].tuples_in, stats[1].tuples_out);
        assert_eq!(stats[0].tuples_out + stats[1].tuples_out, 2500);
    }

    /// The overflow shedder's epoch count stays bounded by the
    /// controller's rate grid even under a wildly oscillating load
    /// (formerly a deprecated-`Pipeline` test).
    #[test]
    fn epoch_count_is_bounded_under_oscillating_load() {
        let mut rng = StdRng::seed_from_u64(6);
        let schema = JoinSchema::fagms(1, 512, &mut rng);
        let mut e = EngineBuilder::new()
            .shards(1)
            .queue_depth(1)
            .schema(&schema)
            .shedding(controller_config(1e4))
            .build()
            .unwrap();
        let bound = e.controller().unwrap().distinct_rate_bound();
        let batch: Vec<u64> = (0..1000u64).map(|j| j % 100).collect();
        for i in 0..500u64 {
            // Overflow rate swings between ~77k and 1M tuples/s.
            let secs = 1e-3 * (1.0 + (i % 13) as f64);
            e.push_batch(&batch, secs).unwrap();
        }
        let shedder = e.shedder().unwrap();
        assert!(
            shedder.epoch_count() <= bound,
            "epochs {} exceed grid bound {bound}",
            shedder.epoch_count()
        );
    }

    /// The engine is generic over the whole summary hierarchy: a
    /// `MultiSummary` prototype makes one sharded pass answer F₂,
    /// distinct, quantiles, and top-k at once from `merged()`.
    #[test]
    fn multi_summary_engine_answers_every_family_in_one_pass() {
        use sss_core::{
            DistinctQuery as _, JoinQuery as _, MultiSpec, QuantileQuery as _, TopKQuery as _,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let spec = MultiSpec::new(JoinSchema::fagms(3, 2048, &mut rng), &mut rng);
        let mut e = EngineBuilder::new()
            .shards(2)
            .summary(spec.summary().unwrap())
            .build()
            .unwrap();
        // 2000 keys × 50 occurrences, plus five heavy hitters — every one
        // above n/257, so Misra–Gries is bound to hold it; the background
        // keys sit far below and a `top_k` answer need not reach them.
        let heavy = [
            (7u64, 5000usize),
            (1900, 4000),
            (400, 3000),
            (1600, 2000),
            (700, 1000),
        ];
        for _ in 0..50 {
            e.push_batch(&(0..2000u64).collect::<Vec<_>>(), 1.0)
                .unwrap();
        }
        for &(key, copies) in &heavy {
            e.push_batch(&vec![key; copies], 1.0).unwrap();
        }
        let m = e.into_merged().unwrap();
        let f2 = m.self_join();
        let truth = 1995.0 * 50.0 * 50.0
            + heavy
                .iter()
                .map(|&(_, c)| (c as f64 + 50.0).powi(2))
                .sum::<f64>();
        assert!((f2 - truth).abs() / truth < 0.15, "f2 = {f2}");
        let d = m.distinct();
        assert!((d - 2000.0).abs() / 2000.0 < 0.05, "distinct = {d}");
        let med = m.quantile(0.5).unwrap();
        assert!((med - 1000.0).abs() < 100.0, "median = {med}");
        assert_eq!(m.stream_len(), 115_000);
        let top = m.top_k(5);
        assert_eq!(
            top.iter().map(|&(key, _)| key).collect::<Vec<_>>(),
            heavy.map(|(key, _)| key),
            "exactly the five heavy hitters, heaviest first"
        );
        assert!(
            (top[0].1 - 5050.0).abs() / 5050.0 < 0.1,
            "top freq {}",
            top[0].1
        );
    }

    /// The typed estimates carry the scalar values bit for bit — with and
    /// without a shedding leg, self-join and cross-engine join — and
    /// their error state is coherent.
    #[test]
    fn typed_estimates_match_scalar_queries_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let schema = JoinSchema::fagms(3, 512, &mut rng);
        // e1 sheds under a saturated one-slot queue; e2 stays calm.
        let mut e1 = EngineBuilder::new()
            .shards(1)
            .queue_depth(1)
            .schema(&schema)
            .shedding(controller_config(1e5))
            .build()
            .unwrap();
        let mut e2 = EngineBuilder::new()
            .shards(2)
            .seed(11)
            .schema(&schema)
            .build()
            .unwrap();
        for _ in 0..50 {
            let batch: Vec<u64> = (0..5000u64).map(|i| i % 700).collect();
            e1.push_batch(&batch, 1e-2).unwrap();
            e2.push_batch(&(0..1000u64).collect::<Vec<_>>(), 1.0)
                .unwrap();
        }
        let sj = e1.self_join_estimate().unwrap();
        assert_eq!(sj.value.to_bits(), e1.self_join().unwrap().to_bits());
        assert_eq!(sj.basics.len(), 3, "one lane per F-AGMS row");
        assert!(sj.variance.is_finite() && sj.variance > 0.0);
        assert!(sj.chebyshev(0.95).unwrap().half_width() > sj.clt(0.95).unwrap().half_width());
        let join = e1.size_of_join_estimate(&e2).unwrap();
        assert_eq!(
            join.value.to_bits(),
            e1.size_of_join(&e2).unwrap().to_bits()
        );
        assert!(join.variance.is_finite() && join.variance > 0.0);
        let rev = e2.size_of_join_estimate(&e1).unwrap();
        assert_eq!(rev.value.to_bits(), e2.size_of_join(&e1).unwrap().to_bits());
        // Without a shedding leg the estimate is the raw sketch estimate.
        let calm = e2.self_join_estimate().unwrap();
        assert_eq!(calm.value.to_bits(), e2.self_join().unwrap().to_bits());
        assert!(calm.variance.is_finite());
    }
}
