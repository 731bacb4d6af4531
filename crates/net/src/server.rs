//! The ingest service: an event-loop front end over
//! [`ShardedRuntime<MultiSummary>`].
//!
//! Two planes, two threads, two listeners:
//!
//! * The **ingest thread** owns the sharded runtime and a [`Poller`]
//!   over the ingest listener plus every ingest connection. Batch
//!   frames are decoded *directly into* pooled buffers loaned from the
//!   shard recycle rings ([`loan_batch_buf`](sss_stream::ShardedRuntime::loan_batch_buf) →
//!   [`protocol::decode_batch_into`] →
//!   [`push_loaned`](sss_stream::ShardedRuntime::push_loaned)), so the steady-state path from
//!   socket to shard ring performs zero heap allocations per batch —
//!   the invariant [`pool_stats`](sss_stream::ShardedRuntime::pool_stats) proves in-process,
//!   extended across the socket boundary and mirrored into
//!   [`ServerStats`]. When every shard ring is full the loop blocks in
//!   `push_loaned` — backpressure propagates to the TCP receive
//!   windows of every client rather than buffering unboundedly.
//! * The **query thread** owns a [`ReadReplica`] opened from the
//!   runtime's query handle and a second poller over the query
//!   listener. Every query line refreshes the replica once and is
//!   answered from that one slim projection (single-flight refresh
//!   through the shared frame hub, adopted by pointer), so a slow
//!   or chatty query client never blocks ingest, and sustained ingest
//!   costs a query only the staleness the replica's `max_pending`
//!   budget allows — with the estimate's error bar widened to match.
//!
//! A graceful shutdown (the query-plane `{"cmd":"shutdown"}`, or
//! [`RunningServer::shutdown_and_wait`]) stops accepting, drains the
//! shard rings through [`ShardedRuntime::into_merged`], optionally
//! flushes the merged summary as a `Portable` snapshot — loadable by
//! `sss load` and mergeable with snapshots from other processes — and
//! hands the merged [`MultiSummary`] back to the embedder.

use crate::error::{NetError, Result};
use crate::protocol::{self, FrameReader};
use crate::sys::{Event, Interest, Poller};
use sss_core::wire::{self, FrameError};
use sss_core::{MultiSpec, MultiSummary, Portable, QuantileQuery};
use sss_stream::runtime::RuntimeConfig;
use sss_stream::{QueryHandle, ReadReplica, ShardedRuntime};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the listening socket; connections count up from 1.
const TOKEN_LISTENER: u64 = 0;
/// Event-loop tick: the latency bound on noticing the shutdown flag.
const TICK: Duration = Duration::from_millis(25);
/// Socket read chunk per readiness event (per loop turn, for fairness).
const READ_CHUNK: usize = 64 << 10;
/// What a refused query connection may still send before it is dropped:
/// room for an honest mistake (a snapshot pasted into the query port) to
/// read its refusal, an end to what a flood costs the query thread.
const REFUSED_DRAIN: usize = 4 << 20;

/// Configuration for [`RunningServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ingest-plane bind address (port 0 picks an ephemeral port).
    pub ingest_addr: String,
    /// Query-plane bind address.
    pub query_addr: String,
    /// Sharded-runtime geometry under the ingest plane.
    pub runtime: RuntimeConfig,
    /// Replica staleness budget, in accepted batches: 0 means every
    /// query reflects every batch accepted before it (the at-all-times
    /// query); larger values trade staleness (with honestly widened
    /// error bars) for refresh cost.
    pub max_pending: u64,
    /// Where to flush the final merged snapshot on shutdown.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            ingest_addr: "127.0.0.1:0".to_string(),
            query_addr: "127.0.0.1:0".to_string(),
            runtime: RuntimeConfig::default(),
            max_pending: 0,
            snapshot_path: None,
        }
    }
}

/// Monotonic service gauges, shared by both planes.
///
/// These are **server-lifetime accumulators**, deliberately not
/// recomputed from live connections: a gauge derived from per-connection
/// state silently resets when a client reconnects, and counts a batch a
/// client *started* sending even if the connection died mid-frame. Here
/// a batch is counted exactly once, after it has been fully decoded
/// *and* accepted into a shard ring, so `tuples_ingested()` is monotonic
/// across any amount of connection churn and never includes a partial
/// batch (the regression tests pin both properties).
#[derive(Debug, Default)]
struct StatsInner {
    tuples: AtomicU64,
    batches: AtomicU64,
    protocol_errors: AtomicU64,
    connections_accepted: AtomicU64,
    connections_open: AtomicU64,
    pool_allocations: AtomicU64,
    pool_reuses: AtomicU64,
}

/// A cloneable view of the service gauges (see the invariants on the
/// internal accumulator docs: monotonic across reconnects, partial
/// batches never counted).
#[derive(Debug, Clone)]
pub struct ServerStats {
    inner: Arc<StatsInner>,
    started: Instant,
}

impl ServerStats {
    fn new() -> Self {
        Self {
            inner: Arc::new(StatsInner::default()),
            started: Instant::now(),
        }
    }

    /// Tuples fully decoded and accepted into shard rings, ever.
    /// Monotonic across client reconnects and mid-batch disconnects.
    pub fn tuples_ingested(&self) -> u64 {
        self.inner.tuples.load(Ordering::Acquire)
    }

    /// Batches fully decoded and accepted into shard rings, ever.
    pub fn batches_ingested(&self) -> u64 {
        self.inner.batches.load(Ordering::Acquire)
    }

    /// Wire-ingest throughput gauge: accepted tuples per second of
    /// monotonic wall-clock since the server started. Never skewed by
    /// system-clock adjustments or connection churn.
    pub fn tuples_per_sec(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.tuples_ingested() as f64 / secs
    }

    /// Typed protocol violations observed (each closed exactly one
    /// connection).
    pub fn protocol_errors(&self) -> u64 {
        self.inner.protocol_errors.load(Ordering::Acquire)
    }

    /// Ingest connections accepted, ever.
    pub fn connections_accepted(&self) -> u64 {
        self.inner.connections_accepted.load(Ordering::Acquire)
    }

    /// Ingest connections currently open.
    pub fn connections_open(&self) -> u64 {
        self.inner.connections_open.load(Ordering::Acquire)
    }

    /// The runtime's batch-buffer pool counters, mirrored out of the
    /// ingest thread after every accepted batch — the zero-allocations
    /// evidence, observable over the query plane while ingest runs.
    pub fn pool_stats(&self) -> sss_stream::PoolStats {
        sss_stream::PoolStats {
            allocations: self.inner.pool_allocations.load(Ordering::Acquire),
            reuses: self.inner.pool_reuses.load(Ordering::Acquire),
        }
    }
}

/// One ingest connection's state.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    out_pos: usize,
    /// Handshake completed: `BATCH`/`SYNC` frames are admissible.
    hello_done: bool,
    /// Close once the out-buffer drains (set after queueing an `ERROR`).
    closing: bool,
    /// Write interest currently armed with the poller.
    armed_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            hello_done: false,
            closing: false,
            armed_write: false,
        }
    }

    /// Push buffered response bytes; `Ok(true)` when fully drained.
    fn flush(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped reading",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }
}

/// What the per-connection frame pump decided.
enum Verdict {
    /// Keep serving this connection.
    Keep,
    /// Drop it now (peer gone, or socket error).
    Drop,
}

/// A started service: two background threads, two bound listeners.
///
/// Obtain the final merged summary with
/// [`wait`](RunningServer::wait) (after a client-driven shutdown) or
/// [`shutdown_and_wait`](RunningServer::shutdown_and_wait).
#[derive(Debug)]
pub struct RunningServer {
    ingest_addr: SocketAddr,
    query_addr: SocketAddr,
    stats: ServerStats,
    shutdown: Arc<AtomicBool>,
    ingest: Option<JoinHandle<Result<MultiSummary>>>,
    query: Option<JoinHandle<Result<()>>>,
}

impl RunningServer {
    /// Bind both planes and spawn the service threads. The listeners
    /// are bound synchronously, so [`ingest_addr`](Self::ingest_addr) /
    /// [`query_addr`](Self::query_addr) are valid (with real ports,
    /// even for port-0 binds) as soon as this returns.
    ///
    /// # Errors
    ///
    /// Bind failures, invalid runtime geometry, or invalid summary
    /// geometry in `spec`.
    pub fn start(config: ServerConfig, spec: &MultiSpec) -> Result<RunningServer> {
        let ingest_listener = TcpListener::bind(&config.ingest_addr)
            .map_err(|e| NetError::io("bind ingest listener", e))?;
        let query_listener = TcpListener::bind(&config.query_addr)
            .map_err(|e| NetError::io("bind query listener", e))?;
        let ingest_addr = ingest_listener
            .local_addr()
            .map_err(|e| NetError::io("resolve ingest address", e))?;
        let query_addr = query_listener
            .local_addr()
            .map_err(|e| NetError::io("resolve query address", e))?;

        let prototype = spec.summary()?;
        let head = wire::Head {
            kind: MultiSummary::KIND.to_string(),
            format: MultiSummary::FORMAT,
            fingerprint: prototype.fingerprint(),
        };
        let runtime = ShardedRuntime::new(config.runtime, &prototype)?;
        let replica = runtime.read_replica(config.max_pending)?;
        let query_handle = runtime.query_handle();

        let stats = ServerStats::new();
        let shutdown = Arc::new(AtomicBool::new(false));

        let ingest = {
            let stats = Arc::clone(&stats.inner);
            let shutdown = Arc::clone(&shutdown);
            let snapshot_path = config.snapshot_path.clone();
            std::thread::Builder::new()
                .name("sss-net-ingest".to_string())
                .spawn(move || {
                    ingest_loop(
                        ingest_listener,
                        runtime,
                        head,
                        stats,
                        shutdown,
                        snapshot_path,
                    )
                })
                .map_err(|e| NetError::io("spawn ingest thread", e))?
        };
        let query = {
            let stats = stats.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("sss-net-query".to_string())
                .spawn(move || query_loop(query_listener, query_handle, replica, stats, shutdown))
                .map_err(|e| NetError::io("spawn query thread", e))?
        };

        Ok(RunningServer {
            ingest_addr,
            query_addr,
            stats,
            shutdown,
            ingest: Some(ingest),
            query: Some(query),
        })
    }

    /// The bound ingest-plane address (real port, even for port-0
    /// binds).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound query-plane address.
    pub fn query_addr(&self) -> SocketAddr {
        self.query_addr
    }

    /// A cloneable view of the service gauges.
    pub fn stats(&self) -> ServerStats {
        self.stats.clone()
    }

    /// Raise the shutdown flag; both threads notice within one event
    /// tick. Does not block — pair with [`wait`](Self::wait).
    pub fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Join both service threads and return the final merged summary
    /// (after the shard rings drained; the snapshot, if configured, has
    /// been written). Blocks until a shutdown is signalled — by
    /// [`signal_shutdown`](Self::signal_shutdown) or a query-plane
    /// `{"cmd":"shutdown"}`.
    ///
    /// # Errors
    ///
    /// The first error either thread hit, or
    /// [`NetError::ThreadPanicked`].
    pub fn wait(mut self) -> Result<MultiSummary> {
        let ingest = self.ingest.take().expect("wait() consumes self");
        let query = self.query.take().expect("wait() consumes self");
        let summary = ingest
            .join()
            .map_err(|_| NetError::ThreadPanicked { thread: "ingest" })?;
        let query_result = query
            .join()
            .map_err(|_| NetError::ThreadPanicked { thread: "query" })?;
        let summary = summary?;
        query_result?;
        Ok(summary)
    }

    /// [`signal_shutdown`](Self::signal_shutdown) then
    /// [`wait`](Self::wait).
    ///
    /// # Errors
    ///
    /// As for [`wait`](Self::wait).
    pub fn shutdown_and_wait(self) -> Result<MultiSummary> {
        self.signal_shutdown();
        self.wait()
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        // A dropped-without-wait server must not leave service threads
        // spinning: raise the flag so they exit within a tick.
        self.shutdown.store(true, Ordering::Release);
    }
}

/// The ingest plane: accept, handshake, decode into loaned buffers,
/// push, until shutdown; then drain and merge.
fn ingest_loop(
    listener: TcpListener,
    mut runtime: ShardedRuntime<MultiSummary>,
    head: wire::Head,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    snapshot_path: Option<PathBuf>,
) -> Result<MultiSummary> {
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::io("ingest listener nonblocking", e))?;
    let banner = head.seal(&[]);
    let mut poller = Poller::new().map_err(|e| NetError::io("create ingest poller", e))?;
    poller
        .register(&listener, TOKEN_LISTENER, Interest::READ)
        .map_err(|e| NetError::io("register ingest listener", e))?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];

    while !shutdown.load(Ordering::Acquire) {
        poller
            .wait(&mut events, Some(TICK))
            .map_err(|e| NetError::io("ingest poll", e))?;
        for &ev in &events {
            if ev.token == TOKEN_LISTENER {
                accept_all(
                    &listener,
                    &mut poller,
                    &mut conns,
                    &mut next_token,
                    &banner,
                    &stats,
                );
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue; // closed earlier this turn
            };
            let mut verdict = Verdict::Keep;
            if ev.readable || ev.hangup {
                verdict = pump_connection(conn, &mut runtime, &head, &stats, &mut scratch);
            }
            if matches!(verdict, Verdict::Keep) && (ev.writable || !conn.out.is_empty()) {
                match conn.flush() {
                    Ok(true) if conn.closing => verdict = Verdict::Drop,
                    Ok(_) => {}
                    Err(_) => verdict = Verdict::Drop,
                }
            }
            match verdict {
                Verdict::Drop => {
                    let conn = conns.remove(&ev.token).expect("checked above");
                    let _ = poller.deregister(&conn.stream);
                    stats.connections_open.fetch_sub(1, Ordering::AcqRel);
                }
                Verdict::Keep => {
                    let want_write = conn.out_pos < conn.out.len();
                    if want_write != conn.armed_write {
                        conn.armed_write = want_write;
                        let interest = if want_write {
                            Interest::READ_WRITE
                        } else {
                            Interest::READ
                        };
                        let _ = poller.modify(&conn.stream, ev.token, interest);
                    }
                }
            }
        }
    }

    // Graceful drain: best-effort flush of pending responses, then let
    // the rings empty through into_merged (dropping the lanes closes
    // the data rings; each worker drains before exiting).
    for (_, mut conn) in conns.drain() {
        let _ = conn.flush();
    }
    drop(poller);
    drop(listener);
    mirror_pool(&stats, &runtime);
    let summary = runtime.into_merged()?;
    if let Some(path) = snapshot_path {
        let bytes = summary.encode()?;
        std::fs::write(&path, bytes).map_err(|e| NetError::io("write final snapshot", e))?;
    }
    Ok(summary)
}

/// Drain the accept queue, registering each new connection and queueing
/// its banner.
fn accept_all(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    banner: &[u8],
    stats: &StatsInner,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                let mut conn = Conn::new(stream);
                // The server speaks first: the banner head goes out
                // before any client frame is read.
                protocol::write_frame(&mut conn.out, protocol::FRAME_HELLO_OK, banner);
                let drained = conn.flush().unwrap_or(false);
                conn.armed_write = !drained;
                let interest = if drained {
                    Interest::READ
                } else {
                    Interest::READ_WRITE
                };
                if poller.register(&conn.stream, token, interest).is_err() {
                    continue;
                }
                stats.connections_accepted.fetch_add(1, Ordering::AcqRel);
                stats.connections_open.fetch_add(1, Ordering::AcqRel);
                conns.insert(token, conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Read what the socket has, decode complete frames, apply them.
fn pump_connection(
    conn: &mut Conn,
    runtime: &mut ShardedRuntime<MultiSummary>,
    head: &wire::Head,
    stats: &StatsInner,
    scratch: &mut [u8],
) -> Verdict {
    let mut peer_gone = false;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                peer_gone = true;
                break;
            }
            Ok(n) => {
                conn.reader.extend(&scratch[..n]);
                // Fairness: one chunk per loop turn; level-triggered
                // polling re-reports any remainder.
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                peer_gone = true;
                break;
            }
        }
    }

    if !conn.closing {
        if let Err(frame_error) = drain_frames(conn, runtime, head, stats) {
            // One typed violation: report it on this connection, close
            // only this connection. Everything else keeps streaming.
            stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
            let code = error_code(&frame_error);
            protocol::write_error(&mut conn.out, code, &frame_error.to_string());
            conn.closing = true;
        }
    }

    if peer_gone {
        // A disconnect mid-frame is itself a typed protocol error —
        // partially transferred batches are never counted as ingested.
        if let Err(truncated) = conn.reader.finish() {
            if !conn.closing {
                stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
            }
            let _ = truncated; // the evidence: FrameError::TruncatedStream
        }
        return Verdict::Drop;
    }
    Verdict::Keep
}

/// Apply every complete frame buffered on `conn`.
fn drain_frames(
    conn: &mut Conn,
    runtime: &mut ShardedRuntime<MultiSummary>,
    head: &wire::Head,
    stats: &StatsInner,
) -> std::result::Result<(), FrameError> {
    loop {
        let Some((tag, payload)) = conn.reader.next_frame()? else {
            return Ok(());
        };
        match tag {
            protocol::FRAME_HELLO => {
                let client_head = wire::peek(payload).map_err(|_| FrameError::Rejected {
                    code: protocol::ERR_PROTOCOL,
                    detail: "unparseable handshake head".to_string(),
                })?;
                if client_head.kind != head.kind || client_head.format != head.format {
                    return Err(FrameError::Rejected {
                        code: protocol::ERR_WIRE_MISMATCH,
                        detail: format!(
                            "client speaks {} v{}, server is {} v{}",
                            client_head.kind, client_head.format, head.kind, head.format
                        ),
                    });
                }
                if client_head.fingerprint != head.fingerprint {
                    return Err(FrameError::Rejected {
                        code: protocol::ERR_FINGERPRINT,
                        detail: format!(
                            "client fingerprint {:#018x} does not match server {:#018x}",
                            client_head.fingerprint, head.fingerprint
                        ),
                    });
                }
                conn.hello_done = true;
                // Ack so the client's connect() is synchronous — it
                // knows the handshake verdict before sending a batch.
                protocol::write_frame(&mut conn.out, protocol::FRAME_HELLO_OK, &[]);
            }
            protocol::FRAME_BATCH => {
                if !conn.hello_done {
                    return Err(FrameError::HandshakeRequired);
                }
                let hint = payload.len() / 8;
                let mut batch = runtime.loan_batch_buf(hint);
                match protocol::decode_batch_into(payload, &mut batch) {
                    Ok(()) => {
                        let tuples = batch.len() as u64;
                        if runtime.push_loaned(batch).is_err() {
                            // A dead shard worker is a server-side
                            // failure, not a client protocol error.
                            return Err(FrameError::Rejected {
                                code: protocol::ERR_PROTOCOL,
                                detail: "ingest runtime unavailable".to_string(),
                            });
                        }
                        stats.tuples.fetch_add(tuples, Ordering::AcqRel);
                        stats.batches.fetch_add(1, Ordering::AcqRel);
                        mirror_pool(stats, runtime);
                    }
                    Err(e) => {
                        // Return the loaned buffer before reporting.
                        batch.clear();
                        let _ = runtime.push_loaned(batch);
                        return Err(e);
                    }
                }
            }
            protocol::FRAME_SYNC => {
                if !conn.hello_done {
                    return Err(FrameError::HandshakeRequired);
                }
                let cookie = protocol::decode_sync(payload)?;
                protocol::write_sync(&mut conn.out, protocol::FRAME_SYNC_OK, cookie);
            }
            other => {
                // Server-to-client frames arriving at the server.
                return Err(FrameError::UnknownType { tag: other });
            }
        }
    }
}

/// The `ERROR`-frame code for a framing violation.
fn error_code(e: &FrameError) -> u16 {
    match e {
        FrameError::Rejected { code, .. } => *code,
        _ => protocol::ERR_PROTOCOL,
    }
}

/// Mirror the runtime's pool counters into the shared stats so the
/// query plane (and the acceptance bench) can observe the
/// zero-allocations invariant while ingest runs.
fn mirror_pool(stats: &StatsInner, runtime: &ShardedRuntime<MultiSummary>) {
    let pool = runtime.pool_stats();
    stats
        .pool_allocations
        .store(pool.allocations, Ordering::Release);
    stats.pool_reuses.store(pool.reuses, Ordering::Release);
}

/// One query connection's state: a line buffer in, a response buffer
/// out.
struct QueryConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    /// Set when the connection sent a line longer than
    /// [`protocol::MAX_QUERY_LINE`]. It has its refusal and the write half
    /// closes once that is out; the rest of the line is read and discarded
    /// so the refusal is not lost to a reset — this many more bytes of it,
    /// one read a turn, and then the connection is dropped whether or not
    /// the peer has closed.
    refused: Option<usize>,
    /// Write interest currently armed with the poller.
    armed_write: bool,
}

impl QueryConn {
    fn flush(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped reading",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }
}

/// The query plane: newline-delimited JSON over the slim replica.
fn query_loop(
    listener: TcpListener,
    handle: QueryHandle<MultiSummary>,
    mut replica: ReadReplica<MultiSummary>,
    stats: ServerStats,
    shutdown: Arc<AtomicBool>,
) -> Result<()> {
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::io("query listener nonblocking", e))?;
    let mut poller = Poller::new().map_err(|e| NetError::io("create query poller", e))?;
    poller
        .register(&listener, TOKEN_LISTENER, Interest::READ)
        .map_err(|e| NetError::io("register query listener", e))?;

    let mut conns: HashMap<u64, QueryConn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];

    while !shutdown.load(Ordering::Acquire) {
        poller
            .wait(&mut events, Some(TICK))
            .map_err(|e| NetError::io("query poll", e))?;
        for &ev in &events {
            if ev.token == TOKEN_LISTENER {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let token = next_token;
                            next_token += 1;
                            let conn = QueryConn {
                                stream,
                                inbuf: Vec::new(),
                                out: Vec::new(),
                                out_pos: 0,
                                refused: None,
                                armed_write: false,
                            };
                            if poller.register(&conn.stream, token, Interest::READ).is_ok() {
                                conns.insert(token, conn);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            let mut drop_conn = false;
            if ev.readable || ev.hangup {
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            drop_conn = true;
                            break;
                        }
                        Ok(n) => {
                            if let Some(left) = &mut conn.refused {
                                *left = left.saturating_sub(n);
                                drop_conn = *left == 0;
                                break;
                            }
                            conn.inbuf.extend_from_slice(&scratch[..n]);
                            answer_lines(conn, &mut replica, &handle, &stats, &shutdown);
                            if n < scratch.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            drop_conn = true;
                            break;
                        }
                    }
                }
            }
            if !drop_conn && !conn.out.is_empty() {
                match conn.flush() {
                    // Closing only the write half lets the peer read its
                    // refusal; closing both on unread input would reset it.
                    Ok(true) if conn.refused.is_some() => {
                        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    }
                    Ok(_) => {}
                    Err(_) => drop_conn = true,
                }
            }
            if drop_conn || ev.hangup {
                if let Some(conn) = conns.remove(&ev.token) {
                    let _ = poller.deregister(&conn.stream);
                }
            } else {
                let want_write = conn.out_pos < conn.out.len();
                if want_write != conn.armed_write {
                    conn.armed_write = want_write;
                    let interest = if want_write {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    };
                    let _ = poller.modify(&conn.stream, ev.token, interest);
                }
            }
        }
        // This turn's answers are out: project what the frame's readers
        // have not asked for yet while its merge is still in cache, so a
        // later ask of this frame finds it ready.
        if !events.is_empty() {
            replica.slim().finish();
        }
    }

    for (_, mut conn) in conns.drain() {
        let _ = conn.flush();
    }
    Ok(())
}

/// Answer every complete line buffered so far, after each socket read so
/// the buffer never holds more than one read beyond the longest legal line;
/// a line longer than that is refused once and the buffer released.
fn answer_lines(
    conn: &mut QueryConn,
    replica: &mut ReadReplica<MultiSummary>,
    handle: &QueryHandle<MultiSummary>,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) {
    loop {
        let nl = conn.inbuf.iter().position(|&b| b == b'\n');
        if nl.unwrap_or(conn.inbuf.len()) > protocol::MAX_QUERY_LINE {
            conn.out.extend_from_slice(
                format!(
                    "{{\"ok\":false,\"error\":\"query line exceeds {} bytes\"}}\n",
                    protocol::MAX_QUERY_LINE
                )
                .as_bytes(),
            );
            conn.inbuf = Vec::new();
            conn.refused = Some(REFUSED_DRAIN);
            return;
        }
        let Some(nl) = nl else {
            return;
        };
        let line: Vec<u8> = conn.inbuf.drain(..=nl).collect();
        let line = String::from_utf8_lossy(&line[..nl]);
        let response = answer_query(line.trim(), replica, handle, stats, shutdown);
        conn.out.extend_from_slice(response.as_bytes());
        conn.out.push(b'\n');
    }
}

/// Render a finite float as a JSON number, a non-finite one as `null`
/// (the sibling `*_bits` field always carries the exact IEEE-754
/// pattern).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Append `"name":value,"name_bits":bits` for an exact-round-trip
/// float field.
fn push_f64_field(out: &mut String, name: &str, value: f64) {
    out.push_str(&format!(
        "\"{name}\":{},\"{name}_bits\":{}",
        json_num(value),
        value.to_bits()
    ));
}

/// Answer one query-plane request line.
fn answer_query(
    line: &str,
    replica: &mut ReadReplica<MultiSummary>,
    handle: &QueryHandle<MultiSummary>,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) -> String {
    let req = match protocol::parse_query_line(line) {
        Ok(req) => req,
        Err(e) => return error_line(&e),
    };
    let result: std::result::Result<String, String> = match req.cmd.as_str() {
        "self_join" => replica
            .self_join_estimate()
            .map(|est| {
                let mut out = String::from("{\"ok\":true,\"cmd\":\"self_join\",");
                push_f64_field(&mut out, "value", est.value);
                out.push(',');
                push_f64_field(&mut out, "variance", est.variance);
                push_intervals(&mut out, &est, req.confidence);
                out.push('}');
                out
            })
            .map_err(|e| e.to_string()),
        "distinct" => replica
            .distinct_estimate()
            .map(|est| {
                let mut out = String::from("{\"ok\":true,\"cmd\":\"distinct\",");
                push_f64_field(&mut out, "value", est.value);
                out.push(',');
                push_f64_field(&mut out, "variance", est.variance);
                push_intervals(&mut out, &est, req.confidence);
                out.push('}');
                out
            })
            .map_err(|e| e.to_string()),
        "quantile" => {
            let q = req.q.unwrap_or(0.5);
            // One refresh, then the value and its envelope from one borrow
            // of the projection: under ingest at `max_pending = 0` two
            // refreshing reads would answer from two frames.
            replica
                .refresh()
                .and_then(|_| {
                    let (value, (lo, hi)) = replica.slim().quantile_with_bounds(q)?;
                    let mut out = String::from("{\"ok\":true,\"cmd\":\"quantile\",");
                    out.push_str(&format!("\"q\":{},", json_num(q)));
                    push_f64_field(&mut out, "value", value);
                    out.push(',');
                    push_f64_field(&mut out, "lo", lo);
                    out.push(',');
                    push_f64_field(&mut out, "hi", hi);
                    out.push('}');
                    Ok(out)
                })
                .map_err(|e| e.to_string())
        }
        "topk" => {
            let k = req.k.unwrap_or(10) as usize;
            replica
                .top_k(k)
                .map(|top| {
                    let mut out = String::from("{\"ok\":true,\"cmd\":\"topk\",\"top\":[");
                    for (i, (key, est)) in top.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{{\"key\":{key},"));
                        push_f64_field(&mut out, "value", est.value);
                        push_intervals(&mut out, est, req.confidence);
                        out.push('}');
                    }
                    out.push_str("]}");
                    out
                })
                .map_err(|e| e.to_string())
        }
        "stats" => {
            let pool = stats.pool_stats();
            let cache = handle.cache_stats();
            Ok(format!(
                "{{\"ok\":true,\"cmd\":\"stats\",\"tuples\":{},\"batches\":{},\
                 \"tuples_per_sec\":{},\"protocol_errors\":{},\
                 \"connections_accepted\":{},\"connections_open\":{},\
                 \"pool_allocations\":{},\"pool_reuses\":{},\
                 \"replica_version\":{},\"replica_pending\":{},\
                 \"runtime_tuples\":{},\"queue_high_water\":{},\
                 \"cache_hits\":{},\"cache_rebuilds\":{},\"kernels\":\"{}\"}}",
                stats.tuples_ingested(),
                stats.batches_ingested(),
                json_num(stats.tuples_per_sec()),
                stats.protocol_errors(),
                stats.connections_accepted(),
                stats.connections_open(),
                pool.allocations,
                pool.reuses,
                replica.version(),
                replica.pending(),
                handle.tuples_ingested(),
                handle.queue_high_water(),
                cache.hits,
                cache.partial_rebuilds + cache.full_rebuilds,
                sss_xi::Dispatch::get().label(),
            ))
        }
        "shutdown" => {
            shutdown.store(true, Ordering::Release);
            Ok("{\"ok\":true,\"cmd\":\"shutdown\"}".to_string())
        }
        other => Err(format!("unknown cmd {other:?}")),
    };
    result.unwrap_or_else(|e| error_line(&e))
}

/// The `{"ok":false,"error":…}` response. Parse errors echo client text,
/// so the message goes out through the JSON string writer, which escapes
/// quotes, backslashes and control characters.
fn error_line(message: &str) -> String {
    let message = serde_json::to_string(message).expect("a string always serializes");
    format!("{{\"ok\":false,\"error\":{message}}}")
}

/// Append `,"half_width_chebyshev":…,"half_width_clt":…` when a
/// confidence level was requested and the estimate carries variance.
fn push_intervals(out: &mut String, est: &sss_core::Estimate, confidence: Option<f64>) {
    let Some(level) = confidence else { return };
    if let (Ok(cheb), Ok(clt)) = (est.chebyshev(level), est.clt(level)) {
        out.push_str(&format!(
            ",\"confidence\":{},\"half_width_chebyshev\":{},\"half_width_clt\":{}",
            json_num(level),
            json_num(cheb.half_width()),
            json_num(clt.half_width())
        ));
    }
}
