//! # sss-sampling — sampling processes for streamed relations
//!
//! The three sampling schemes analyzed in *"Sketching Sampled Data Streams"*
//! (Rusu & Dobra, ICDE 2009), as processes that draw samples, and nothing
//! more:
//!
//! * [`bernoulli`] — every tuple enters the sample independently with
//!   probability `p`. The sample frequencies `f′ᵢ` are independent
//!   `Binomial(fᵢ, p)` variables. This is the *load shedding* scheme: the
//!   O(selected)-work [`GeometricSkip`] (Olken's interval generation), the
//!   [`CounterRng`] that makes its gaps a function of `(seed, position)`,
//!   and the [`Door`] that walks those gaps over a stream arriving in
//!   slices — [`Door::keep`] is the per-tuple coin.
//! * [`with_replacement`] — a fixed-size sample drawn with replacement; the
//!   `f′ᵢ` are components of a multinomial. Models i.i.d. streams from a
//!   generative model.
//! * [`without_replacement`] — a fixed-size random subset; the `f′ᵢ` are
//!   components of a multivariate hypergeometric. Models the prefix of a
//!   random-order scan, as consumed by online aggregation engines.
//!
//! The estimators and their error bars are not here. Each scheme's scaling
//! and self-join correction live once, in `sss_moments::scheme`, and apply
//! alike to a sketch of the sample (Props 13–16) and to its exact
//! aggregates (the sampling-only estimators of Props 3–6, computed over an
//! `sss_exact::ExactAggregator` of the sample). So do the Bernoulli
//! scheme's sampling-variance plug-ins, its rank jitter and its F₀ fixed
//! point, the query-time terms of a served error bar; `sss-moments` also
//! holds the exact second-moment analysis (Eqs. 6, 7, 10, 11) on *true*
//! frequency vectors.
//!
//! ## Example: estimating a self-join size from a 10% Bernoulli sample
//!
//! ```
//! use rand::{RngCore, SeedableRng};
//! use sss_exact::ExactAggregator;
//! use sss_moments::scheme::Bernoulli;
//! use sss_sampling::Door;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let stream: Vec<u64> = (0..100_000u64).map(|i| i % 1000).collect();
//! let mut door = Door::new(0.1, rng.next_u64()).unwrap();
//! let sample = ExactAggregator::from_keys(stream.iter().copied().filter(|_| door.keep()));
//! let scheme = Bernoulli::new(0.1).unwrap();
//! let est = scheme.self_join(sample.self_join(), sample.total() as u64);
//! let truth = 1000.0 * 100.0 * 100.0; // 1000 keys × frequency 100²
//! assert!((est - truth).abs() / truth < 0.05);
//! ```
//!
//! The second coin, the variance module and the skip sampler's position
//! lists are gone:
//!
//! ```compile_fail
//! use sss_sampling::BernoulliSampler; // removed: Door::keep
//! ```
//!
//! ```compile_fail
//! use sss_sampling::bernoulli_self_join_variance_plugin; // removed: sss_moments::scheme::Bernoulli::self_join_variance_plugin
//! ```
//!
//! ```compile_fail
//! fn gone(g: sss_sampling::GeometricSkip) { let _ = g.sample_indices(10); } // removed: Door::admit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernoulli;
pub mod error;
pub mod with_replacement;
pub mod without_replacement;

pub use bernoulli::{CounterRng, Door, GeometricSkip};
pub use error::{Error, Result};
pub use with_replacement::sample_with_replacement;
pub use without_replacement::{sample_without_replacement, PrefixScan};
