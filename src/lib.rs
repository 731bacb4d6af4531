//! # sketch-sampled-streams
//!
//! Facade crate for the *Sketching Sampled Data Streams* workspace
//! (Rusu & Dobra, ICDE 2009). Re-exports the public API of every subsystem
//! so applications can depend on a single crate:
//!
//! * [`xi`] — limited-independence ±1 families and bucket hashes.
//! * [`sampling`] — Bernoulli / with-replacement / without-replacement
//!   sampling and sampling-only estimators.
//! * [`sketch`] — AGMS and F-AGMS sketches; top-k, HyperLogLog and KLL.
//! * [`moments`] — exact expectation/variance formulas, the
//!   sampling/sketch/interaction variance decomposition and confidence
//!   bounds.
//! * [`core`] — the combined sketch-over-samples estimators and the
//!   application drivers (load shedding — `Sampled<S>` at one rate in
//!   front of any summary —, i.i.d. streams, online aggregation scans).
//! * [`exact`] — exact streaming aggregates used as ground truth.
//! * [`datagen`] — Zipf, self-similar, correlated-pair and mini-TPC-H
//!   workload generators.
//! * [`stream`] — streaming pipeline substrate: the sharded runtime.
//! * [`net`] — the network ingest service: a thread-per-connection
//!   TCP front-end decoding length-prefixed batches straight into the
//!   sharded runtime's pooled buffers, plus a line-delimited JSON query
//!   plane served from read replicas that hold the runtime's merge.
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ```
//! use rand::SeedableRng;
//! use sketch_sampled_streams::core::sketch::JoinSchema;
//! use sketch_sampled_streams::core::Sampled;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let schema = JoinSchema::fagms(1, 5000, &mut rng);
//! let mut sketcher = Sampled::new(schema.sketch(), 0.1, &mut rng).unwrap();
//! for i in 0..100_000u64 {
//!     sketcher.observe(i % 500); // sketch a 10% sample of the stream
//! }
//! // An unbiased estimate of the FULL stream's F₂, with its error priced.
//! let f2 = sketcher.self_join_estimate();
//! assert!((f2.value - 2e7).abs() / 2e7 < 0.1);
//! assert!(f2.chebyshev(0.99).unwrap().contains(f2.value));
//! ```

#![forbid(unsafe_code)]

pub mod error;

pub use error::{Error, Result};
pub use sss_core as core;
pub use sss_datagen as datagen;
pub use sss_exact as exact;
pub use sss_moments as moments;
pub use sss_net as net;
pub use sss_sampling as sampling;
pub use sss_sketch as sketch;
pub use sss_stream as stream;
pub use sss_xi as xi;
