//! # sss-moments — exact moment analysis of sketches over samples
//!
//! This crate is the analytical engine behind *"Sketching Sampled Data
//! Streams"* (Rusu & Dobra, ICDE 2009): it computes the **exact expectation
//! and variance** of every estimator in the paper, for arbitrary true
//! frequency vectors, in O(|domain|) time.
//!
//! ## The unifying observation
//!
//! For all three sampling schemes the *joint factorial moments* of the
//! sampled frequency random variables factor through a scheme-specific pair
//! `(κ, φ)`:
//!
//! ```text
//! E[(f′ᵢ)ᵣ (f′ⱼ)ₛ] = κ(r+s) · φᵣ(fᵢ) · φₛ(fⱼ)        (i ≠ j)
//! E[(f′ᵢ)ᵣ]        = κ(r)   · φᵣ(fᵢ)
//! ```
//!
//! | Scheme | frequency law | `κ(R)` | `φᵣ(f)` |
//! |---|---|---|---|
//! | Bernoulli(p) | independent binomials | `pᴿ` | `(f)ᵣ` |
//! | With replacement (m of N) | multinomial | `(m)ᴿ` | `(f/N)ʳ` |
//! | Without replacement (m of N) | mv. hypergeometric | `(m)ᴿ/(N)ᴿ` | `(f)ᵣ` |
//!
//! (`(x)ᵣ` is the falling factorial.) Power moments follow via Stirling
//! numbers of the second kind, and every sum the paper's propositions need —
//! `Σᵢ E[f′ᵢᵃ]`, `Σ_{i≠j} E[f′ᵢᵃ f′ⱼᵇ]`, and their cross-relation pairings —
//! collapses to power sums of `φ`, computable in one pass over the domain.
//!
//! ## Modules
//!
//! * [`factorial`] — falling factorials and the Stirling-number conversion.
//! * [`freq`] — [`FrequencyVector`]: the true frequency profile of a
//!   relation plus its power sums.
//! * [`scheme`] — the `(κ, φ)` oracles for the three sampling schemes and
//!   their estimators: the scaling/bias-correction constants the engine
//!   uses, and the one served application of them that every sampled
//!   estimate in the workspace calls.
//! * [`engine`] — the **generic evaluator**: Propositions 1–2 (sampling
//!   only), 9–12 (sketch over samples, basic and averaged), instantiated
//!   mechanically through the oracles.
//! * [`closed_form`] — the paper's printed formulas (Eqs. 6, 7, 10, 11,
//!   14, 16, 25–28), implemented literally; tests pin them against the
//!   engine.
//! * [`decompose`] — the sampling / sketch / interaction variance
//!   decomposition behind Figures 1–2.
//! * [`bounds`] — confidence intervals from (mean, variance) pairs:
//!   Chebyshev and CLT-based, plus the normal CDF/coverage helpers.
//!
//! The Chernoff sample-size bounds are gone: nothing called them. Nor is
//! there a planning module: its inverse questions (minimal averaging for
//! a target error, the sampling floor) had no caller outside one test.
//!
//! ```compile_fail
//! use sss_moments::tail::chernoff_upper; // removed: intervals come from `bounds`
//! ```
//!
//! ```compile_fail
//! use sss_moments::planning; // removed: no product caller
//! ```
//!
//! ## Example: how much accuracy does 1% load shedding cost?
//!
//! ```
//! use sss_moments::freq::FrequencyVector;
//! use sss_moments::scheme::Bernoulli;
//! use sss_moments::engine;
//!
//! // A uniform relation: 1000 keys, 100 tuples each.
//! let f = FrequencyVector::from_counts(vec![100; 1000]);
//! let full = engine::sketch_sjs(&f, 5000);
//! let shed = engine::sketch_sample_sjs(&Bernoulli::new(0.01).unwrap(), &f, 5000).unwrap();
//! // Standard errors, relative to the true F₂:
//! let rel = |v: f64| v.sqrt() / f.power_sum(2);
//! assert!(rel(shed.variance) < 10.0 * rel(full.variance).max(1e-6) + 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod closed_form;
pub mod decompose;
pub mod engine;
pub mod factorial;
pub mod freq;
pub mod scheme;

pub use bounds::ConfidenceInterval;
pub use decompose::VarianceDecomposition;
pub use engine::Moments;
pub use freq::FrequencyVector;
pub use scheme::{Bernoulli, SamplingScheme, WithReplacement, WithoutReplacement};

/// Error type for invalid analysis parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A probability was outside `(0, 1]`.
    InvalidProbability(f64),
    /// A sample size of zero, or larger than the population for WOR.
    InvalidSampleSize {
        /// Requested sample size.
        sample: u64,
        /// Population size.
        population: u64,
    },
    /// The two frequency vectors of a join must cover the same domain.
    DomainMismatch {
        /// Length of the left vector.
        left: usize,
        /// Length of the right vector.
        right: usize,
    },
    /// The number of averaged estimators must be at least 1.
    InvalidAverageCount(usize),
    /// A fixed-size self-join needs at least two sampled tuples (its
    /// `α₁`, `α₂` corrections divide by `m − 1`).
    SampleTooSmall {
        /// Sample size that was provided.
        got: u64,
        /// Minimum size the estimator requires.
        need: u64,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidProbability(p) => write!(f, "probability {p} outside (0, 1]"),
            Error::InvalidSampleSize { sample, population } => {
                write!(
                    f,
                    "invalid sample size {sample} for population {population}"
                )
            }
            Error::DomainMismatch { left, right } => {
                write!(
                    f,
                    "frequency vectors cover different domains ({left} vs {right})"
                )
            }
            Error::InvalidAverageCount(n) => write!(f, "cannot average {n} estimators"),
            Error::SampleTooSmall { got, need } => {
                write!(
                    f,
                    "estimator requires a sample of at least {need} tuples, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
