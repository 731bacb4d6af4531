//! Error type for sketch construction and cross-sketch operations.

use std::fmt;

/// Errors produced by sketch operations.
// No `Eq`: `InvalidConfidence` carries the offending `f64` level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Error {
    /// Two sketches from different schemas (different random seeds) were
    /// combined; their counters are not comparable.
    SchemaMismatch,
    /// A sketch dimension (counter count, depth, or width) was zero.
    InvalidDimensions,
    /// A confidence level outside the open interval `(0, 1)` (or NaN) was
    /// passed to an interval query.
    InvalidConfidence(f64),
    /// A normalized rank outside `[0, 1]` (or NaN) was passed to a
    /// quantile query.
    InvalidQuantile(f64),
    /// A value query (quantile, …) was asked of a summary that has
    /// observed no data — there is no value to report.
    EmptySummary,
    /// Merging two summaries would carry more total weight than a `u64`
    /// counts; the receiver is left unchanged.
    WeightOverflow,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SchemaMismatch => {
                write!(f, "sketches were built from different schemas (seed sets)")
            }
            Error::InvalidDimensions => write!(f, "sketch dimensions must be non-zero"),
            Error::InvalidConfidence(level) => {
                write!(f, "confidence level {level} is outside (0, 1)")
            }
            Error::InvalidQuantile(q) => {
                write!(f, "quantile rank {q} is outside [0, 1]")
            }
            Error::EmptySummary => {
                write!(
                    f,
                    "summary has observed no data, value queries are undefined"
                )
            }
            Error::WeightOverflow => {
                write!(f, "merged summary weight does not fit in 64 bits")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
