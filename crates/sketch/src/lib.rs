//! # sss-sketch — sketches for join-size estimation over data streams
//!
//! Implementations of the sketching techniques referenced by *"Sketching
//! Sampled Data Streams"* (Rusu & Dobra, ICDE 2009):
//!
//! * [`agms`] — the basic **AGMS** ("tug-of-war") sketch of Alon, Matias &
//!   Szegedy: `S = Σᵢ fᵢξᵢ` with a 4-wise independent ±1 family `ξ`. A
//!   sketch is a vector of `n` such counters with independent families;
//!   estimates are means (or medians of means) of per-counter basics.
//!   Update cost is O(n) — every counter is touched by every tuple.
//! * [`fagms`] — **F-AGMS** (Fast-AGMS / Count-Sketch) of Cormode &
//!   Garofalakis: each row hashes the key to one of `width` buckets and
//!   adds `ξ(key)` there. A row behaves like averaging `width` basic AGMS
//!   estimators but costs O(1) per update; rows are combined by median.
//!   This is the sketch used in all the paper's experiments.
//!
//! The heavy-hitter summaries ([`topk`]), HyperLogLog ([`hll`]) and KLL
//! ([`kll`]) sit beside them. Every type here offers its operations —
//! `update`/`offer`, `update_batch`, `merge`, the estimators — as inherent
//! methods. `sss-core`'s `Summary` and its capability traits are the one
//! interface over them (the two join sketches through `sss-core`'s
//! `JoinSketch`), so this crate declares no trait of its own.
//!
//! The three-way chain-join sketches are gone: no workload, subcommand or
//! paper result reaches them. So is Count-Min: the paper sketches with ±1
//! families only. [`Estimate`] has one method per tail bound, and no enum
//! choosing between them.
//!
//! ```compile_fail
//! use sss_sketch::multiway::chain_join; // removed: joins are two-way, as in the paper
//! ```
//!
//! ```compile_fail
//! use sss_sketch::CountMinSketch; // removed: the paper's sketches are AGMS and F-AGMS
//! ```
//!
//! ```compile_fail
//! use sss_sketch::Bound; // removed: call Estimate::chebyshev or Estimate::clt
//! ```
//!
//! Nor is the second trait layer that sat beside `Summary`:
//!
//! ```compile_fail
//! use sss_sketch::Sketch; // removed: inherent methods, or sss_core::Summary
//! ```
//!
//! ```compile_fail
//! use sss_sketch::HeavyHitters; // removed: inherent methods, or sss_core::TopKQuery
//! ```
//!
//! ## Seed sharing
//!
//! Size-of-join estimation requires the two sketches to be built with the
//! *same* random families (`S = Σfᵢξᵢ`, `T = Σgᵢξᵢ`). Each sketch type
//! therefore has a *schema* object holding the seeds; sketches are created
//! from a schema and remember its identity, and cross-sketch operations
//! return [`Error::SchemaMismatch`] when given sketches from different
//! schemas.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use sss_sketch::agms::AgmsSchema;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let schema: AgmsSchema = AgmsSchema::new(800, &mut rng);
//! let mut s = schema.sketch();
//! let mut t = schema.sketch();
//! for key in 0..1000u64 {
//!     s.update(key, 1);       // relation F: each key once
//!     t.update(key % 100, 1); // relation G: 10 copies of keys 0..100
//! }
//! let est = s.size_of_join(&t).unwrap();
//! let truth = 100.0 * 10.0;   // keys 0..100 match, g-frequency 10
//! assert!((est - truth).abs() / truth < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agms;
pub mod error;
pub mod estimate;
pub mod fagms;
pub mod hll;
pub mod kll;
mod runs;
pub mod topk;

pub use agms::{AgmsSchema, AgmsSketch};
pub use error::{Error, Result};
pub use estimate::Estimate;
pub use fagms::{FagmsSchema, FagmsSketch};
pub use hll::HyperLogLog;
pub use kll::KllSketch;
pub use runs::KeyRuns;
pub use topk::{CountSketchTopK, MisraGries};
