//! # sss-sampling — sampling processes for streamed relations
//!
//! The three sampling schemes analyzed in *"Sketching Sampled Data Streams"*
//! (Rusu & Dobra, ICDE 2009), each with the estimation machinery of the
//! paper's Section III:
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
//! [`estimators`] implements the *sampling-only* unbiased estimators of
//! Propositions 3–6 (size of join and self-join size for each scheme),
//! operating on [`counts::SampleCounts`] built from sampled keys.
//!
//! The exact second-moment analysis of these estimators (the variance
//! formulas of Eqs. 6, 7, 10, 11) lives in the `sss-moments` crate, which
//! evaluates them on *true* frequency vectors. [`variance`] provides the
//! query-time counterpart for the Bernoulli scheme: closed forms of the
//! sampling-only variance plus conservative plug-ins evaluated from the
//! estimates themselves, used by the shedders to report error bars.
//!
//! ## Example: estimating a self-join size from a 10% Bernoulli sample
//!
//! ```
//! use rand::SeedableRng;
//! use sss_sampling::bernoulli::BernoulliSampler;
//! use sss_sampling::counts::SampleCounts;
//! use sss_sampling::estimators::bernoulli_self_join;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let stream: Vec<u64> = (0..100_000u64).map(|i| i % 1000).collect();
//! let mut sampler: BernoulliSampler = BernoulliSampler::new(0.1, &mut rng).unwrap();
//! let sample = SampleCounts::from_keys(stream.iter().copied().filter(|_| sampler.keep()));
//! let est = bernoulli_self_join(&sample, 0.1).unwrap();
//! let truth = 1000.0 * 100.0 * 100.0; // 1000 keys × frequency 100²
//! assert!((est - truth).abs() / truth < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernoulli;
pub mod coefficients;
pub mod counts;
pub mod error;
pub mod estimators;
pub mod variance;
pub mod with_replacement;
pub mod without_replacement;

pub use bernoulli::{BernoulliSampler, CounterRng, Door, GeometricSkip};
pub use coefficients::SamplingFractions;
pub use counts::SampleCounts;
pub use error::{Error, Result};
pub use variance::{
    bernoulli_frequency_variance, bernoulli_frequency_variance_plugin,
    bernoulli_self_join_variance, bernoulli_self_join_variance_plugin,
    bernoulli_size_of_join_variance, bernoulli_size_of_join_variance_plugin,
    staleness_variance_plugin,
};
pub use with_replacement::{sample_with_replacement, MultinomialFrequencies};
pub use without_replacement::{
    reservoir_sample, reservoir_sample_l, sample_without_replacement, PrefixScan,
};
