//! The streaming layer's error type, completing the workspace hierarchy.
//!
//! Errors flow upward along the crate graph without stringifying:
//! `sss_sampling::Error` / `sss_sketch::Error` convert into
//! [`sss_core::Error`], which converts into [`StreamError`], so a runtime
//! caller matches one enum no matter which layer failed. Runtime-specific
//! failure modes (misconfiguration, a dead shard worker) get their own
//! variants instead of being shoehorned into estimator errors.

use std::fmt;

/// Anything that can go wrong constructing or driving the streaming
/// runtime.
#[derive(Debug)]
pub enum StreamError {
    /// An estimator-layer failure (schema mismatch, invalid probability…)
    /// surfaced through the runtime.
    Estimator(sss_core::Error),
    /// A runtime configuration parameter is out of range.
    InvalidConfig {
        /// The offending parameter (`"shards"`, `"queue_depth"`, …).
        parameter: &'static str,
        /// What the configuration said.
        value: usize,
        /// Why it is rejected.
        reason: &'static str,
    },
    /// A shard worker is gone (its thread panicked or was torn down), so
    /// the runtime can no longer accept tuples or answer queries.
    ShardDisconnected {
        /// Index of the dead shard.
        shard: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Estimator(e) => write!(f, "estimator error: {e}"),
            StreamError::InvalidConfig {
                parameter,
                value,
                reason,
            } => write!(
                f,
                "invalid runtime config: {parameter} = {value} ({reason})"
            ),
            StreamError::ShardDisconnected { shard } => {
                write!(f, "shard worker {shard} disconnected")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Estimator(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sss_core::Error> for StreamError {
    fn from(e: sss_core::Error) -> Self {
        StreamError::Estimator(e)
    }
}

impl From<sss_sketch::Error> for StreamError {
    fn from(e: sss_sketch::Error) -> Self {
        StreamError::Estimator(e.into())
    }
}

impl From<sss_sampling::Error> for StreamError {
    fn from(e: sss_sampling::Error) -> Self {
        StreamError::Estimator(e.into())
    }
}

/// Streaming-layer result alias.
pub type Result<T> = std::result::Result<T, StreamError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_layer_errors_convert_upward() {
        let sampling = sss_sampling::Error::InvalidProbability(2.0);
        let e: StreamError = sampling.into();
        assert!(matches!(
            e,
            StreamError::Estimator(sss_core::Error::Sampling(_))
        ));
        // The source chain reaches the originating layer.
        let mut depth = 0;
        let mut cur: &dyn std::error::Error = &e;
        while let Some(next) = cur.source() {
            cur = next;
            depth += 1;
        }
        assert!(depth >= 2, "expected stream → core → sampling chain");
    }

    #[test]
    fn display_is_informative() {
        let e = StreamError::InvalidConfig {
            parameter: "shards",
            value: 0,
            reason: "must be at least 1",
        };
        let s = e.to_string();
        assert!(s.contains("shards") && s.contains('0'), "{s}");
        let d = StreamError::ShardDisconnected { shard: 3 };
        assert!(d.to_string().contains('3'));
    }
}
