//! # sss-sampling — sampling processes for streamed relations
//!
//! The three sampling schemes analyzed in *"Sketching Sampled Data Streams"*
//! (Rusu & Dobra, ICDE 2009), as processes that draw samples:
//!
//! * [`bernoulli`] — every tuple enters the sample independently with
//!   probability `p`. The sample frequencies `f′ᵢ` are independent
//!   `Binomial(fᵢ, p)` variables. This is the *load shedding* scheme: both a
//!   per-tuple coin and the O(selected)-work geometric-skip variant (Olken's
//!   interval generation) are provided, plus the [`CounterRng`] that makes
//!   a skip sampler's gaps a function of `(seed, position)` and the
//!   [`Door`] that walks those gaps over a stream arriving in slices.
//! * [`with_replacement`] — a fixed-size sample drawn with replacement; the
//!   `f′ᵢ` are components of a multinomial. Models i.i.d. streams from a
//!   generative model.
//! * [`without_replacement`] — a fixed-size random subset; the `f′ᵢ` are
//!   components of a multivariate hypergeometric. Models the prefix of a
//!   random-order scan, as consumed by online aggregation engines.
//!
//! The estimators are not here. Each scheme's scaling and self-join
//! correction live once, in `sss_moments::scheme`, and apply alike to a
//! sketch of the sample (Props 13–16) and to its exact aggregates (the
//! sampling-only estimators of Props 3–6, computed over an
//! `sss_exact::ExactAggregator` of the sample). `sss-moments` also holds
//! the exact second-moment analysis (Eqs. 6, 7, 10, 11) on *true*
//! frequency vectors. [`variance`] provides the query-time counterpart for
//! the Bernoulli scheme: closed forms of the sampling-only variance plus
//! conservative plug-ins evaluated from the estimates themselves, which
//! price the served error bars.
//!
//! ## Example: estimating a self-join size from a 10% Bernoulli sample
//!
//! ```
//! use rand::SeedableRng;
//! use sss_exact::ExactAggregator;
//! use sss_moments::scheme::Bernoulli;
//! use sss_sampling::bernoulli::BernoulliSampler;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let stream: Vec<u64> = (0..100_000u64).map(|i| i % 1000).collect();
//! let mut sampler: BernoulliSampler = BernoulliSampler::new(0.1, &mut rng).unwrap();
//! let sample = ExactAggregator::from_keys(stream.iter().copied().filter(|_| sampler.keep()));
//! let scheme = Bernoulli::new(0.1).unwrap();
//! let est = scheme.self_join(sample.self_join(), sample.total() as u64);
//! let truth = 1000.0 * 100.0 * 100.0; // 1000 keys × frequency 100²
//! assert!((est - truth).abs() / truth < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernoulli;
pub mod error;
pub mod variance;
pub mod with_replacement;
pub mod without_replacement;

pub use bernoulli::{BernoulliSampler, CounterRng, Door, GeometricSkip};
pub use error::{Error, Result};
pub use variance::{
    bernoulli_frequency_variance, bernoulli_frequency_variance_plugin,
    bernoulli_self_join_variance, bernoulli_self_join_variance_plugin,
    bernoulli_size_of_join_variance, bernoulli_size_of_join_variance_plugin,
    staleness_variance_plugin,
};
pub use with_replacement::sample_with_replacement;
pub use without_replacement::{sample_without_replacement, PrefixScan};
