//! Unified error type for the network service.

use std::fmt;

/// Errors produced by the ingest service and its clients.
///
/// Protocol violations arrive as
/// [`sss_core::Error::Frame`] (wrapping the typed
/// [`FrameError`](sss_core::wire::FrameError)), so a caller can match
/// the precise framing violation; socket failures keep their
/// [`std::io::Error`]; runtime failures keep their
/// [`StreamError`](sss_stream::StreamError).
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io {
        /// What the service was doing when the socket failed.
        context: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// An estimator or wire-codec failure, including every typed
    /// protocol violation ([`sss_core::Error::Frame`]).
    Core(sss_core::Error),
    /// A sharded-runtime failure (dead shard worker, invalid config).
    Stream(sss_stream::StreamError),
    /// A background service thread panicked — its estimator state is
    /// gone.
    ThreadPanicked {
        /// Which thread died (`"ingest"` or `"query"`).
        thread: &'static str,
    },
    /// The peer closed the connection before completing the handshake
    /// banner exchange.
    HandshakeClosed,
    /// A [`LoadConfig`](crate::LoadConfig) parameter is out of range; it
    /// is refused before any connection is opened or thread started.
    InvalidLoad {
        /// The offending parameter (`"connections"` or `"batch"`).
        parameter: &'static str,
        /// What the configuration said.
        value: usize,
        /// Why it is rejected.
        reason: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { context, source } => write!(f, "{context}: {source}"),
            NetError::Core(e) => write!(f, "{e}"),
            NetError::Stream(e) => write!(f, "{e}"),
            NetError::ThreadPanicked { thread } => {
                write!(f, "server {thread} thread panicked")
            }
            NetError::HandshakeClosed => {
                write!(f, "peer closed the connection during the handshake")
            }
            NetError::InvalidLoad {
                parameter,
                value,
                reason,
            } => write!(f, "invalid load: {parameter} = {value} ({reason})"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Core(e) => Some(e),
            NetError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sss_core::Error> for NetError {
    fn from(e: sss_core::Error) -> Self {
        NetError::Core(e)
    }
}

impl From<sss_core::wire::FrameError> for NetError {
    fn from(e: sss_core::wire::FrameError) -> Self {
        NetError::Core(sss_core::Error::Frame(e))
    }
}

impl From<sss_stream::StreamError> for NetError {
    fn from(e: sss_stream::StreamError) -> Self {
        NetError::Stream(e)
    }
}

impl NetError {
    /// Wrap an I/O error with the operation that produced it.
    pub fn io(context: &'static str, source: std::io::Error) -> Self {
        NetError::Io { context, source }
    }

    /// The typed framing violation inside this error, if that is what it
    /// is — convenience for tests asserting on precise protocol errors.
    pub fn frame_error(&self) -> Option<&sss_core::wire::FrameError> {
        match self {
            NetError::Core(sss_core::Error::Frame(e)) => Some(e),
            _ => None,
        }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;
