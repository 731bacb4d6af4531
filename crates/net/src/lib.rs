//! # sss-net — the network ingest service over the sharded runtime
//!
//! The ROADMAP's production-scale north star needs a network-facing
//! front end: this crate turns [`ShardedRuntime`](sss_stream::runtime)'s
//! in-process throughput into an end-to-end service without giving up
//! either of its two hot-path guarantees:
//!
//! * **Zero allocations per ingested batch.** The ingest plane speaks a
//!   length-prefixed binary protocol ([`protocol`]) and decodes each
//!   batch frame *directly into* a pooled buffer loaned from the shard
//!   recycle rings ([`loan_batch_buf`](sss_stream::ShardedRuntime::loan_batch_buf) /
//!   [`push_loaned`](sss_stream::ShardedRuntime::push_loaned)), so the
//!   `PoolStats` zero-allocation invariant extends across the socket
//!   boundary — the bytes go NIC → read buffer → pooled `Vec<u64>` →
//!   shard ring with no intermediate `Vec` per frame.
//! * **Queries never block ingest.** The query plane is a separate
//!   listener speaking newline-delimited JSON, each connection answered
//!   from its own [`ReadReplica`](sss_stream::ReadReplica), so a slow or
//!   chatty query client costs the ingest plane nothing.
//!
//! Each plane's listener accepts in blocking mode and gives each
//! connection a thread of its own, under a cap of 64 open connections
//! per plane, with idle and write-stall deadlines
//! ([`server`] says which rules every connection keeps). There is no
//! event loop, no tokio and no `libc` crate: the crate uses no `unsafe`.
//!
//! The handshake reuses the snapshot wire head
//! ([`sss_core::wire::Head`]): on accept the server sends its summary
//! kind / format / configuration fingerprint as a head with an empty body,
//! and the client echoes one back — two processes agree they are
//! sketching *the same* configured summary before any tuple crosses the
//! wire, with exactly the machinery snapshot files already use. Every
//! way a byte stream can fail to be a frame sequence maps to a typed
//! [`FrameError`](sss_core::wire::FrameError), closes *that* connection
//! with an error frame, and leaves every other connection streaming.
//!
//! The epoll shim that served both planes from one event loop is gone:
//!
//! ```compile_fail
//! use sss_net::sys::Poller; // removed: each connection has a thread
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use client::{run_load, synth_key, IngestClient, LoadConfig, LoadReport, QueryClient};
pub use error::{NetError, Result};
pub use server::{RunningServer, ServerConfig, ServerStats};
