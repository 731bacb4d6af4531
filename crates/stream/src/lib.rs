//! # sss-stream — streaming pipelines around the combined estimators
//!
//! The operational layer of the reproduction: where `sss-core` owns the
//! estimator mathematics, this crate owns *running streams through them*:
//!
//! * [`runtime`] — the persistent sharded runtime: a pool of shard
//!   workers behind bounded queues, merging to the sequential sketch bit
//!   for bit (the paper's §VI-C multi-core observation, made long-lived);
//! * [`ring`] — the lock-free SPSC ring buffers and the out-of-band
//!   control queue the runtime's ingest lanes are built from;
//! * [`snapshot`] — the versioned incremental snapshot cache behind
//!   `merged()`: repeated at-all-times queries re-clone only shards
//!   dirtied since the previous query;
//! * [`engine`] — the DSMS engine over that runtime: transform chain,
//!   backpressure, and an adaptive overflow shedder, built by
//!   [`EngineBuilder`]; its join queries return an
//!   [`Estimate`](sss_core::Estimate) with error bars;
//! * [`adaptive`] — the quantized rate controller that picks the
//!   shedding probability `p` on line;
//! * [`window`] — paned sliding-window sketches.
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
//! Nor does the engine keep side summaries beside its runtime: a
//! [`MultiSummary`](sss_core::MultiSummary) prototype
//! (`.summary(spec.summary()?)`) answers top-k, F₀ and quantiles through
//! `merged()`, so the builder knobs and their "not enabled" errors are
//! gone:
//!
//! ```compile_fail
//! let builder = sss_stream::EngineBuilder::<sss_core::JoinSketch>::new();
//! let _ = builder.top_k(10); // removed: `merged()?.top_k(k)` on a `MultiSummary` engine
//! ```
//!
//! ```compile_fail
//! let _ = sss_stream::StreamError::TopKDisabled; // removed with the side summaries
//! ```

// `deny` rather than `forbid`: the SPSC ring transport ([`ring`]) is the
// one audited module allowed to use `unsafe`, mirroring the SIMD kernel
// policy of `sss-xi`. Everything else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod engine;
pub mod error;
pub mod ring;
pub mod runtime;
pub mod snapshot;
pub mod window;

pub use adaptive::{ControllerConfig, RateController};
pub use engine::{EngineBuilder, StageStats, StreamEngine, Transform};
pub use error::{Result, StreamError};
pub use runtime::{Partition, PoolStats, QueryHandle, ReadReplica, RuntimeConfig, ShardedRuntime};
pub use snapshot::CacheStats;
pub use window::PanedWindowSketch;
