//! # sss-core — sketching sampled data streams
//!
//! The primary contribution of *"Sketching Sampled Data Streams"* (Rusu &
//! Dobra, ICDE 2009) as a production API: **sketch-over-samples estimators**
//! for the size of join and the self-join size, for the three sampling
//! regimes of the paper's Section VI, with the exact scaling factors and
//! bias corrections of Propositions 13–16 applied automatically.
//!
//! | Driver | Sampling scheme | Application (paper §VI) |
//! |---|---|---|
//! | [`Sampled`] | Bernoulli(p), coin/skip | shedding tuples of a too-fast stream before they reach the summary (any [`Summary`]; `Sampled<JoinSketch>` is the paper's join shedder) |
//! | [`IidStreamSketcher`] | with replacement | the stream *is* an i.i.d. sample from a generative model over a known finite population |
//! | [`ScanSketcher`] | without replacement | a random-order relation scan feeding an online aggregation engine |
//!
//! Every driver is insert-only. The turnstile (hash-coordinated) shedder
//! and the cross-regime join are gone; nothing on the product path issues
//! a delete:
//!
//! ```compile_fail
//! use sss_core::CoordinatedShedder; // removed: no path deletes; `Sampled` sheds inserts
//! ```
//!
//! ```compile_fail
//! use sss_core::cross::size_of_join; // removed: each driver answers its own joins
//! ```
//!
//! Nor is there a second shedder for a rate that changes: the per-rate
//! cells, their rate grid and the lane combinator they needed are gone.
//! Shedding is one [`Sampled`] at one `p`:
//!
//! ```compile_fail
//! use sss_core::EpochShedder; // removed: one `Sampled` at one `p`
//! ```
//!
//! ```compile_fail
//! use sss_core::RateGrid; // removed with the per-rate cells
//! ```
//!
//! ```compile_fail
//! # fn f(s: &sss_core::JoinSketch) {
//! let _ = s.self_join_basics(); // removed: its one caller was the per-rate cells
//! # }
//! ```
//!
//! Each driver owns a [`sketch::JoinSketch`] (AGMS or F-AGMS, selected by a
//! [`sketch::JoinSchema`]) and the per-scheme bookkeeping (tuples seen /
//! kept / scanned), and exposes unbiased self-join and size-of-join
//! estimates at any point in the stream.
//!
//! When the true frequency vector is known, the `sss-moments` engine gives
//! the exact mean and variance of each estimate, and [`analysis`] plans
//! how aggressively a stream can be shed. When the truth is *not* known
//! (the live-query case), every capability trait read returns an
//! [`Estimate`] whose variance is measured from the
//! sketch's own independent lanes plus a plug-in for the shared sampling
//! noise, with intervals from [`Estimate::chebyshev`] and
//! [`Estimate::clt`]. Neither layer has an enum choosing the tail bound:
//!
//! ```compile_fail
//! use sss_core::analysis::BoundKind; // removed: call sss_moments::bounds::{chebyshev, normal}
//! ```
//!
//! Every Bernoulli correction and error-bar term is a method of
//! `sss_moments::scheme::Bernoulli`, which [`Sampled`] composes:
//!
//! ```compile_fail
//! use sss_core::bernoulli_distinct_estimate; // removed: sss_moments::scheme::Bernoulli::distinct
//! ```
//!
//! ## Quick example: 10× load shedding
//!
//! ```
//! use rand::SeedableRng;
//! use sss_core::sketch::JoinSchema;
//! use sss_core::Sampled;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! // F-AGMS with 5000 buckets, as in the paper's experiments.
//! let schema = JoinSchema::fagms(1, 5000, &mut rng);
//! let mut sketcher = Sampled::new(schema.sketch(), 0.1, &mut rng).unwrap();
//! // A stream of 200k tuples over 1000 values (uniform; F₂ = 4·10⁷).
//! for i in 0..200_000u64 {
//!     sketcher.observe(i % 1000);
//! }
//! let est = sketcher.self_join_estimate().value;
//! assert!((est - 4e7).abs() / 4e7 < 0.1, "est = {est}");
//! // Only ~10% of the stream was sketched:
//! assert!(sketcher.kept() < 25_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod error;
pub mod iid;
pub mod multi;
pub mod portable;
pub mod sampled;
pub mod scan;
pub mod sketch;
pub mod slim;
pub mod summary;
pub mod wire;

pub use error::{Error, Result};
pub use iid::IidStreamSketcher;
pub use multi::{MultiSpec, MultiSummary, SampledMultiSummary};
pub use sampled::Sampled;
pub use scan::ScanSketcher;
pub use sketch::{JoinSchema, JoinSketch};
pub use slim::{SlimJoin, SlimMultiSummary};
pub use sss_sketch::Estimate;
pub use summary::{
    fold, DistinctQuery, JoinQuery, Portable, QuantileQuery, SlimQuery, Summary, TopKQuery,
};
