//! Error type shared by the samplers.

use std::fmt;

/// Errors produced by the samplers' constructors and draws.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A probability parameter was outside `(0, 1]` (or `[0, 1]` where a
    /// zero is meaningful); the payload is the offending value.
    InvalidProbability(f64),
    /// A without-replacement sample larger than the population was requested.
    SampleExceedsPopulation {
        /// Requested sample size.
        sample: u64,
        /// Available population size.
        population: u64,
    },
    /// The population size parameter was zero.
    EmptyPopulation,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidProbability(p) => {
                write!(f, "sampling probability {p} is outside the valid range")
            }
            Error::SampleExceedsPopulation { sample, population } => write!(
                f,
                "without-replacement sample of size {sample} exceeds population of size {population}"
            ),
            Error::EmptyPopulation => write!(f, "population size must be non-zero"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
