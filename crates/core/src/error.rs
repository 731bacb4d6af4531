//! Unified error type for the combined estimators.

use std::fmt;

/// Errors produced by the sketch-over-samples drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A sampling parameter was invalid (probability outside `(0, 1]`, …).
    Sampling(sss_sampling::Error),
    /// A sketch operation failed (schema mismatch, bad dimensions).
    Sketch(sss_sketch::Error),
    /// An analysis request was invalid (domain mismatch, …).
    Moments(sss_moments::Error),
    /// The estimator is not yet defined: the fixed-size-sample self-join
    /// corrections divide by `|F′| − 1`, so at least two tuples must have
    /// been observed.
    InsufficientSample {
        /// Tuples observed so far.
        got: u64,
        /// Minimum required.
        need: u64,
    },
    /// A scan observed more tuples than the declared relation size.
    ScanOverrun {
        /// Declared relation size.
        population: u64,
    },
    /// The two drivers of a size-of-join estimate disagree on a shared
    /// resource (sketch schema).
    IncompatibleEstimators,
    /// A wire payload could not be decoded
    /// ([`Portable`](crate::Portable)): malformed bytes, or a body no
    /// summary could have written.
    Wire {
        /// What went wrong, for diagnostics.
        detail: String,
    },
    /// A wire payload carries a different summary kind or format than the
    /// receiver expected — a JSON-generation payload included.
    WireMismatch {
        /// The kind/format the receiver expected.
        expected: String,
        /// The kind/format found in the payload head.
        found: String,
    },
    /// Two portable summaries have incompatible configuration fingerprints
    /// (different seeds, width/depth, precision, …) and must not merge.
    FingerprintMismatch {
        /// The receiver's fingerprint.
        expected: u64,
        /// The payload's fingerprint.
        found: u64,
    },
    /// A network peer violated the length-prefixed ingest framing
    /// ([`crate::wire::FrameError`] carries the precise violation).
    Frame(crate::wire::FrameError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sampling(e) => write!(f, "sampling: {e}"),
            Error::Sketch(e) => write!(f, "sketch: {e}"),
            Error::Moments(e) => write!(f, "analysis: {e}"),
            Error::InsufficientSample { got, need } => {
                write!(
                    f,
                    "estimator needs at least {need} sampled tuples, has {got}"
                )
            }
            Error::ScanOverrun { population } => {
                write!(
                    f,
                    "scan observed more tuples than the declared relation size {population}"
                )
            }
            Error::IncompatibleEstimators => {
                write!(
                    f,
                    "size-of-join requires both estimators to share a sketch schema"
                )
            }
            Error::Wire { detail } => {
                write!(f, "wire codec: {detail}")
            }
            Error::WireMismatch { expected, found } => {
                write!(f, "wire payload is {found}, expected {expected}")
            }
            Error::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "configuration fingerprint {found:#018x} does not match {expected:#018x}: \
                     only like-configured summaries merge"
                )
            }
            Error::Frame(e) => write!(f, "ingest protocol: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sampling(e) => Some(e),
            Error::Sketch(e) => Some(e),
            Error::Moments(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sss_sampling::Error> for Error {
    fn from(e: sss_sampling::Error) -> Self {
        Error::Sampling(e)
    }
}

impl From<sss_sketch::Error> for Error {
    fn from(e: sss_sketch::Error) -> Self {
        Error::Sketch(e)
    }
}

impl From<sss_moments::Error> for Error {
    fn from(e: sss_moments::Error) -> Self {
        Error::Moments(e)
    }
}

impl From<sss_xi::CodecError> for Error {
    fn from(e: sss_xi::CodecError) -> Self {
        Error::Wire {
            detail: e.to_string(),
        }
    }
}

impl From<crate::wire::FrameError> for Error {
    fn from(e: crate::wire::FrameError) -> Self {
        Error::Frame(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
