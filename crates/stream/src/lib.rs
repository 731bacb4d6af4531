//! # sss-stream — the sharded runtime and what drives it
//!
//! The operational layer of the reproduction: where `sss-core` owns the
//! estimator mathematics, this crate owns *running streams through them*:
//!
//! * [`runtime`] — the persistent sharded runtime: a pool of shard
//!   workers behind bounded queues, merging to the sequential sketch bit
//!   for bit (the paper's §VI-C multi-core observation, made long-lived);
//! * `ring` (private) — the bounded rings a shard's ingest lane is built
//!   from, one carrying batches to the shard and one its emptied buffers
//!   back: each a `Mutex<VecDeque>` with two `Condvar`s, on which an idle
//!   worker sleeps without taking its shard's lock;
//! * [`snapshot`] — the versioned incremental snapshot cache behind
//!   `merged()`: a repeated at-all-times query is served from the cached
//!   merge until a shard has applied past it, and a rebuild folds the
//!   live shards, caught up by the query itself, into one copy of the
//!   first. `merged()` lends the merge as an `Arc`, which read replicas
//!   hold.
//!
//! The runtime is the engine; a DSMS pipeline is composed from its calls:
//!
//! * a sharded pass is [`ShardedRuntime::new`] over one prototype — a
//!   [`MultiSummary`](sss_core::MultiSummary) answers F₂, F₀, quantiles
//!   and top-k from one `merged()`, a [`Sampled`](sss_core::Sampled) one
//!   samples independently on every shard;
//! * a filter or map stage is the caller's `retain` or `map` before the
//!   push;
//! * overload is backpressure: [`push`](ShardedRuntime::push) and
//!   [`push_loaned`](ShardedRuntime::push_loaned) wait while a shard's
//!   ring is full, and nothing is dropped. Shedding is the paper's one
//!   mechanism (§VI-A): a [`Sampled`](sss_core::Sampled) prototype at one
//!   rate `p`, its coins drawn in the producer lane, corrected on the way
//!   out by Props. 13–14. How low `p` may go for an accuracy target is
//!   answered offline by
//!   [`max_shedding_rate`](sss_core::analysis::max_shedding_rate).
//!
//! The overload leg that split a full-rate runtime from a separate
//! shedder for its overflow is gone — the non-blocking push, the rate
//! controller and the per-rate cells it drove:
//!
//! ```compile_fail
//! use sss_stream::RateController; // removed: shed at one `p` with a `Sampled` prototype
//! ```
//!
//! ```compile_fail
//! use sss_stream::ControllerConfig; // removed with the rate controller
//! ```
//!
//! ```compile_fail
//! # fn f(rt: &mut sss_stream::ShardedRuntime<sss_core::JoinSketch>) {
//! let mut overflow = Vec::new();
//! rt.try_push(&[1, 2, 3], &mut overflow); // removed: `push` blocks, nothing is handed back
//! # }
//! ```
//!
//! ```compile_fail
//! fn f(e: &sss_stream::StreamError) -> bool {
//!     matches!(e, sss_stream::StreamError::InvalidController { .. }) // removed with the rate controller
//! }
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
//! use sss_stream::StreamEngine; // removed: `ShardedRuntime::new` over the prototype
//! ```
//!
//! ```compile_fail
//! use sss_stream::Transform; // removed: `retain` or `map` before the push
//! ```
//!
//! ```compile_fail
//! use sss_stream::StageStats; // removed: the runtime's own gauges (`tuples_ingested`, …)
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
//! L2² change statistic it fed (a sketch subtraction) is gone with it.
//!
//! ```compile_fail
//! use sss_stream::PanedWindowSketch; // removed: no caller outside its tests
//! ```
//!
//! Nor a lock-free ring: the rings are std's `Mutex` and `Condvar`, the
//! spin → yield → park backoff is gone, and the module is private.
//!
//! ```compile_fail
//! use sss_stream::ring::Backoff; // removed: a worker sleeps on its ring's condvar
//! ```
//!
//! ```compile_fail
//! use sss_stream::ring::ring; // removed: the rings are private to the runtime
//! ```

// `forbid`: the crate is safe code throughout, its ingest rings included
// (std's `Mutex` and `Condvar`), and no module may opt back in.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
mod ring;
pub mod runtime;
pub mod snapshot;

pub use error::{Result, StreamError};
pub use runtime::{Partition, PoolStats, QueryHandle, ReadReplica, RuntimeConfig, ShardedRuntime};
pub use snapshot::CacheStats;
