//! # sss-stream — the sharded runtime and what drives it
//!
//! The operational layer of the reproduction: where `sss-core` owns the
//! estimator mathematics, this crate owns *running streams through them*:
//!
//! * [`runtime`] — the persistent sharded runtime: a pool of shard
//!   workers behind bounded queues, merging to the sequential sketch bit
//!   for bit (the paper's §VI-C multi-core observation, made long-lived);
//! * [`ring`] — the lock-free SPSC ring buffers the runtime's ingest
//!   lanes are built from, and the lock-free [`Watch`](ring::Watch) a
//!   worker checks its ring through before it takes its shard's lock;
//! * [`snapshot`] — the versioned incremental snapshot cache behind
//!   `merged()`: a repeated at-all-times query is served from the cached
//!   merge until a shard has applied past it, and a rebuild merges the
//!   live shards, caught up by the query itself, without copying one;
//! * [`adaptive`] — the quantized rate controller that picks the
//!   shedding probability `p` on line.
//!
//! The runtime is the engine; a DSMS pipeline is composed from its calls:
//!
//! * a sharded pass is [`ShardedRuntime::new`] over one prototype — a
//!   [`MultiSummary`](sss_core::MultiSummary) answers F₂, F₀, quantiles
//!   and top-k from one `merged()`, a [`Sampled`](sss_core::Sampled) one
//!   samples independently on every shard;
//! * a filter or map stage is the caller's `retain` or `map` before the
//!   push;
//! * overload is [`ShardedRuntime::try_push`], which hands full rings'
//!   tuples back, → [`RateController::observe_batch`] on the overflow →
//!   [`EpochShedder::set_probability`](sss_core::EpochShedder::set_probability)
//!   → `feed_batch`. The stream is then the runtime's part plus the
//!   shedded part, and
//!   [`EpochShedder::self_join_estimate_over`](sss_core::EpochShedder::self_join_estimate_over)
//!   answers both, unbiased under any overload pattern:
//!
//! ```
//! use rand::SeedableRng;
//! use sss_core::{EpochShedder, JoinSchema};
//! use sss_stream::{ControllerConfig, RateController, RuntimeConfig, ShardedRuntime};
//!
//! let schema = JoinSchema::fagms(1, 1024, &mut rand::rngs::StdRng::seed_from_u64(7));
//! let config = RuntimeConfig { shards: 2, queue_depth: 4, ..Default::default() };
//! let mut runtime = ShardedRuntime::new(config, &schema.sketch())?;
//! let mut controller = RateController::new(ControllerConfig::with_capacity(1e6))?;
//! let mut shedder = EpochShedder::new(&schema, controller.probability(), 7)?;
//! let mut overflow = Vec::new();
//! for b in 0..200u64 {
//!     let mut batch: Vec<u64> = (0..2_000).map(|i| (i * 7 + b) % 500).collect();
//!     batch.retain(|k| k % 2 == 0); // a filter stage
//!     overflow.clear();
//!     let accepted = runtime.try_push(&batch, &mut overflow)?;
//!     assert_eq!(accepted + overflow.len() as u64, batch.len() as u64);
//!     let p = controller.observe_batch(overflow.len() as u64, 1e-4);
//!     shedder.set_probability(p)?;
//!     shedder.feed_batch(&overflow);
//! }
//! let f2 = shedder.self_join_estimate_over(&runtime.merged()?)?;
//! let truth = 250.0 * 800.0 * 800.0; // 250 even keys, 800 copies each
//! assert!((f2.value - truth).abs() / truth < 0.25, "{}", f2.value);
//! # Ok::<(), sss_stream::StreamError>(())
//! ```
//!
//! Measurement apparatus is not part of the runtime crate. The one-shot
//! helpers and wall-clock structs that used to live here are gone — a
//! parallel shed is [`ShardedRuntime::new`] over one
//! [`Sampled`](sss_core::Sampled) prototype, timing is
//! `std::time::Instant` — and code still naming them no longer compiles:
//!
//! ```compile_fail
//! use sss_stream::parallel_shed; // removed: `ShardedRuntime::new` over a `Sampled` prototype
//! ```
//!
//! ```compile_fail
//! use sss_stream::Throughput; // removed: use `std::time::Instant`
//! ```
//!
//! Nor is there a second front door over the runtime: the builder, its
//! engine, its stages and its errors are gone.
//!
//! ```compile_fail
//! use sss_stream::EngineBuilder; // removed: `ShardedRuntime::new` over the prototype
//! ```
//!
//! ```compile_fail
//! use sss_stream::StreamEngine; // removed: the runtime plus an `EpochShedder` for its overflow
//! ```
//!
//! ```compile_fail
//! use sss_stream::Transform; // removed: `retain` or `map` before the push
//! ```
//!
//! ```compile_fail
//! use sss_stream::StageStats; // removed: `try_push` returns the accepted count
//! ```
//!
//! ```compile_fail
//! let _ = sss_stream::StreamError::MissingEstimator; // removed with the builder
//! ```
//!
//! ```compile_fail
//! let _ = sss_stream::StreamError::TopKDisabled; // removed with the side summaries
//! ```
//!
//! Nor a sliding window: no workload or subcommand asks for one, and the
//! L2² change statistic it fed is `sss_sketch::Sketch::subtract`.
//!
//! ```compile_fail
//! use sss_stream::PanedWindowSketch; // removed: no caller outside its tests
//! ```

// `deny` rather than `forbid`: the SPSC ring transport ([`ring`]) is the
// one audited module allowed to use `unsafe`, mirroring the SIMD kernel
// policy of `sss-xi`. Everything else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod error;
pub mod ring;
pub mod runtime;
pub mod snapshot;

pub use adaptive::{ControllerConfig, RateController};
pub use error::{Result, StreamError};
pub use runtime::{Partition, PoolStats, QueryHandle, ReadReplica, RuntimeConfig, ShardedRuntime};
pub use snapshot::CacheStats;
