//! The ingest service: an event-loop front end over
//! [`ShardedRuntime<MultiSummary>`].
//!
//! Two planes, two threads, two listeners, one connection loop:
//!
//! * The **ingest thread** owns the sharded runtime and a [`Poller`]
//!   over the ingest listener plus every ingest connection. Batch
//!   frames are decoded *directly into* pooled buffers loaned from the
//!   shard recycle rings ([`loan_batch_buf`](sss_stream::ShardedRuntime::loan_batch_buf) →
//!   [`protocol::decode_batch_into`] →
//!   [`push_loaned`](sss_stream::ShardedRuntime::push_loaned)), so the
//!   steady-state path from socket to shard ring performs zero heap
//!   allocations per batch — the invariant
//!   [`pool_stats`](sss_stream::QueryHandle::pool_stats) proves, which
//!   [`ServerStats`] reads from the runtime's own counters. When every
//!   shard ring is full the loop blocks in `push_loaned` — backpressure
//!   propagates to the TCP receive windows of every client rather than
//!   buffering unboundedly.
//! * The **query thread** owns a [`ReadReplica`] opened from the
//!   runtime's read side and a second poller over the query listener.
//!   Every query line refreshes the replica once and is answered from
//!   that one slim projection (single-flight refresh of the frame the
//!   runtime's cache keeps, adopted by pointer), so a slow or chatty query
//!   client never blocks ingest, and sustained ingest costs a query only
//!   the staleness the replica's `max_pending` budget allows — with the
//!   estimate's error bar widened to match. The exception is a
//!   `self_join`, at any shard count: it is read off the caught-up shards
//!   in place (their summed join rows), and the frame is refreshed after
//!   the turn's answers are out.
//!
//! Both threads run the same loop (`serve`) over their own poller; a plane
//! only says what its bytes mean. The loop bounds what any client can
//! cost: a connection holding 1 MiB (`OUT_LIMIT`) of unsent answers is
//! neither read nor answered until its peer reads them, so a client that
//! never reads stalls only itself. A client that shuts its write half is
//! answered in full before the connection closes.
//!
//! A graceful shutdown (the query-plane `{"cmd":"shutdown"}`, or
//! [`RunningServer::shutdown_and_wait`]) stops accepting, drains the
//! shard rings through [`ShardedRuntime::into_merged`], optionally
//! flushes the merged summary as a `Portable` snapshot — loadable by
//! `sss load` and mergeable with snapshots from other processes — and
//! hands the merged [`MultiSummary`] back to the embedder.

use crate::error::{NetError, Result};
use crate::protocol::{self, error_line, push_f64_field, push_intervals, FrameReader, JsonNum};
use crate::sys::{Interest, Poller};
use sss_core::wire::{self, FrameError};
use sss_core::{MultiSpec, MultiSummary, Portable, QuantileQuery};
use sss_stream::runtime::RuntimeConfig;
use sss_stream::{QueryHandle, ReadReplica, ShardedRuntime};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the listening socket; connections count up from 1.
const TOKEN_LISTENER: u64 = 0;
/// Event-loop tick: the latency bound on noticing the shutdown flag.
const TICK: Duration = Duration::from_millis(25);
/// Socket read chunk per read call.
const READ_CHUNK: usize = 64 << 10;
/// Unsent output at which a connection is neither read nor answered
/// further until its peer reads: what a client that never reads can cost
/// the server, whatever its requests would expand to.
const OUT_LIMIT: usize = 1 << 20;
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
}

/// A cloneable view of the service gauges (see the invariants on the
/// internal accumulator docs: monotonic across reconnects, partial
/// batches never counted), and of the runtime's read side.
#[derive(Debug, Clone)]
pub struct ServerStats {
    inner: Arc<StatsInner>,
    /// The runtime's read side; it outlives the runtime.
    runtime: QueryHandle<MultiSummary>,
    started: Instant,
}

impl ServerStats {
    fn new(runtime: QueryHandle<MultiSummary>) -> Self {
        Self {
            inner: Arc::new(StatsInner::default()),
            runtime,
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

    /// The runtime's batch-buffer pool counters
    /// ([`QueryHandle::pool_stats`]) — the zero-allocations evidence,
    /// observable over the query plane while ingest runs, and after the
    /// server stopped.
    pub fn pool_stats(&self) -> sss_stream::PoolStats {
        self.runtime.pool_stats()
    }
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
        let stats = ServerStats::new(runtime.query_handle());
        let shutdown = Arc::new(AtomicBool::new(false));

        let ingest = {
            let mut plane = Ingest {
                runtime,
                banner: head.seal(&[]),
                head,
                stats: Arc::clone(&stats.inner),
            };
            let shutdown = Arc::clone(&shutdown);
            let snapshot_path = config.snapshot_path.clone();
            std::thread::Builder::new()
                .name("sss-net-ingest".to_string())
                .spawn(move || {
                    serve(ingest_listener, &mut plane, &shutdown)
                        .map_err(|e| NetError::io("ingest event loop", e))?;
                    // The listener is closed; dropping the lanes closes the
                    // data rings, and each worker drains its ring first.
                    let summary = plane.runtime.into_merged()?;
                    if let Some(path) = snapshot_path {
                        let bytes = summary.encode()?;
                        std::fs::write(&path, bytes)
                            .map_err(|e| NetError::io("write final snapshot", e))?;
                    }
                    Ok(summary)
                })
                .map_err(|e| NetError::io("spawn ingest thread", e))?
        };
        let query = {
            let mut plane = Queries {
                replica,
                stats: stats.clone(),
                shutdown: Arc::clone(&shutdown),
            };
            std::thread::Builder::new()
                .name("sss-net-query".to_string())
                .spawn(move || {
                    let shutdown = Arc::clone(&plane.shutdown);
                    serve(query_listener, &mut plane, &shutdown)
                        .map_err(|e| NetError::io("query event loop", e))
                })
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

/// What a plane makes of the bytes its connections send; [`serve`] does
/// the sockets.
trait Plane {
    /// A connection's input not yet answered.
    type Input: Default;
    /// Queue what a new connection is sent before anything is read.
    fn greet(&mut self, _out: &mut Vec<u8>) {}
    /// Keep bytes read from a connection.
    fn extend(input: &mut Self::Input, bytes: &[u8]);
    /// Answer the first complete request in `input` into `out`.
    fn answer(&mut self, input: &mut Self::Input, out: &mut Vec<u8>) -> Step;
    /// A connection is gone. `input` is what it left unanswered, unless
    /// the plane closed it.
    fn gone(&mut self, _input: Option<&Self::Input>) {}
    /// Every connection ready this turn has been served.
    fn turn_done(&mut self) {}
}

/// What [`Plane::answer`] did.
enum Step {
    /// No complete request is buffered.
    Idle,
    /// One request answered.
    Answered,
    /// The last answer: the connection closes once it is out, and what the
    /// peer still sends is discarded, at most this many bytes of it.
    Close(usize),
}

/// One connection, on either plane.
struct Conn<I> {
    stream: TcpStream,
    input: I,
    out: Vec<u8>,
    out_pos: usize,
    /// The peer shut its write half: nothing more is read.
    eof: bool,
    /// Set by [`Step::Close`]: nothing more is answered, the write half
    /// shuts once `out` drains (closing only the write half lets the peer
    /// read its last answer; closing both on unread input would reset it),
    /// and this many more bytes are read and discarded.
    closing: Option<usize>,
    /// Interest currently armed with the poller.
    armed: Interest,
}

impl<I> Conn<I> {
    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Read only what can be answered or discarded, and only while the
    /// peer reads what it is sent.
    fn reading(&self) -> bool {
        !self.eof && self.closing != Some(0) && self.unsent() < OUT_LIMIT
    }

    fn interest(&self) -> Interest {
        Interest {
            readable: self.reading(),
            writable: self.unsent() > 0,
        }
    }

    /// Push buffered output until the socket would block.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Serve the connection after a readiness event: answer what is
    /// complete while the output has room, write what the socket takes,
    /// and read more only once everything complete is answered. `false`
    /// when it is done with: input ended, every complete request
    /// answered and every answer sent — or an I/O error.
    fn drive<P: Plane<Input = I>>(
        &mut self,
        plane: &mut P,
        mut readable: bool,
        scratch: &mut [u8],
    ) -> bool {
        loop {
            let mut idle = self.closing.is_some();
            while !idle && self.unsent() < OUT_LIMIT {
                match plane.answer(&mut self.input, &mut self.out) {
                    Step::Idle => idle = true,
                    Step::Answered => {}
                    Step::Close(discard) => {
                        self.closing = Some(discard);
                        idle = true;
                    }
                }
            }
            if self.flush().is_err() {
                return false;
            }
            if !idle {
                if self.unsent() < OUT_LIMIT {
                    continue; // the socket took it: answer on
                }
                return true; // until the peer reads
            }
            if !readable || !self.reading() {
                break;
            }
            match self.stream.read(scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    match &mut self.closing {
                        Some(left) => *left = left.saturating_sub(n),
                        None => P::extend(&mut self.input, &scratch[..n]),
                    }
                    // A short read emptied the socket; level-triggered
                    // polling reports anything that arrives after it.
                    readable = n == scratch.len();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => readable = false,
                Err(_) => return false,
            }
        }
        if self.unsent() > 0 {
            return true;
        }
        match self.closing {
            Some(left) if left > 0 && !self.eof => {
                let _ = self.stream.shutdown(Shutdown::Write);
                true
            }
            Some(_) => false,
            None => !self.eof,
        }
    }
}

/// One plane's event loop: accept, read, answer and write until
/// `shutdown`, then a best-effort flush of what is unsent. Level-triggered
/// polling re-reports whatever a turn leaves: a pending accept, unread
/// bytes, room to write.
fn serve<P: Plane>(
    listener: TcpListener,
    plane: &mut P,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(&listener, TOKEN_LISTENER, Interest::READ)?;
    let mut conns: HashMap<u64, Conn<P::Input>> = HashMap::new();
    let mut next_token = TOKEN_LISTENER + 1;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];

    while !shutdown.load(Ordering::Acquire) {
        poller.wait(&mut events, Some(TICK))?;
        for ev in &events {
            let mut token = ev.token;
            if token == TOKEN_LISTENER {
                // One accept a turn; the listener reports the rest again.
                let Ok((stream, _peer)) = listener.accept() else {
                    continue;
                };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                token = next_token;
                next_token += 1;
                if poller.register(&stream, token, Interest::READ).is_err() {
                    continue;
                }
                let mut conn = Conn {
                    stream,
                    input: P::Input::default(),
                    out: Vec::new(),
                    out_pos: 0,
                    eof: false,
                    closing: None,
                    armed: Interest::READ,
                };
                plane.greet(&mut conn.out);
                conns.insert(token, conn);
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue; // closed earlier this turn
            };
            // An error, or both halves shut: nothing left to answer to.
            let keep = !ev.hangup && conn.drive(plane, ev.readable, &mut scratch);
            if keep {
                let interest = conn.interest();
                if interest != conn.armed {
                    conn.armed = interest;
                    let _ = poller.modify(&conn.stream, token, interest);
                }
            } else if let Some(conn) = conns.remove(&token) {
                let _ = poller.deregister(&conn.stream);
                plane.gone(conn.closing.is_none().then_some(&conn.input));
            }
        }
        if !events.is_empty() {
            plane.turn_done();
        }
    }

    for conn in conns.values_mut() {
        let _ = conn.flush();
    }
    Ok(())
}

/// The ingest plane: handshake, decode each batch into a buffer loaned
/// from the runtime, push it.
struct Ingest {
    runtime: ShardedRuntime<MultiSummary>,
    head: wire::Head,
    /// The server's head, sent first on every connection.
    banner: Vec<u8>,
    stats: Arc<StatsInner>,
}

/// An ingest connection's input.
#[derive(Default)]
struct Frames {
    reader: FrameReader,
    /// Handshake completed: `BATCH`/`SYNC` frames are admissible.
    hello_done: bool,
}

impl Plane for Ingest {
    type Input = Frames;

    fn greet(&mut self, out: &mut Vec<u8>) {
        // The server speaks first: the banner head goes out before any
        // client frame is read.
        protocol::write_frame(out, protocol::FRAME_HELLO_OK, &self.banner);
        self.stats
            .connections_accepted
            .fetch_add(1, Ordering::AcqRel);
        self.stats.connections_open.fetch_add(1, Ordering::AcqRel);
    }

    fn extend(input: &mut Frames, bytes: &[u8]) {
        input.reader.extend(bytes);
    }

    fn answer(&mut self, input: &mut Frames, out: &mut Vec<u8>) -> Step {
        match self.apply_frame(input, out) {
            Ok(true) => Step::Answered,
            Ok(false) => Step::Idle,
            Err(frame_error) => {
                // One typed violation: report it on this connection, close
                // only this connection. Everything else keeps streaming.
                self.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
                let code = error_code(&frame_error);
                protocol::write_error(out, code, &frame_error.to_string());
                Step::Close(0)
            }
        }
    }

    fn gone(&mut self, input: Option<&Frames>) {
        self.stats.connections_open.fetch_sub(1, Ordering::AcqRel);
        // A disconnect mid-frame is itself a typed protocol error —
        // partially transferred batches are never counted as ingested.
        if input.is_some_and(|input| input.reader.finish().is_err()) {
            self.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
        }
    }
}

impl Ingest {
    /// Apply the first complete frame buffered on a connection, if any.
    fn apply_frame(
        &mut self,
        input: &mut Frames,
        out: &mut Vec<u8>,
    ) -> std::result::Result<bool, FrameError> {
        let Some((tag, payload)) = input.reader.next_frame()? else {
            return Ok(false);
        };
        let head = &self.head;
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
                input.hello_done = true;
                // Ack so the client's connect() is synchronous — it
                // knows the handshake verdict before sending a batch.
                protocol::write_frame(out, protocol::FRAME_HELLO_OK, &[]);
            }
            protocol::FRAME_BATCH => {
                if !input.hello_done {
                    return Err(FrameError::HandshakeRequired);
                }
                let hint = payload.len() / 8;
                let mut batch = self.runtime.loan_batch_buf(hint);
                if let Err(e) = protocol::decode_batch_into(payload, &mut batch) {
                    // Return the loaned buffer before reporting.
                    batch.clear();
                    let _ = self.runtime.push_loaned(batch);
                    return Err(e);
                }
                let tuples = batch.len() as u64;
                if self.runtime.push_loaned(batch).is_err() {
                    // A dead shard worker is a server-side failure, not a
                    // client protocol error.
                    return Err(FrameError::Rejected {
                        code: protocol::ERR_PROTOCOL,
                        detail: "ingest runtime unavailable".to_string(),
                    });
                }
                self.stats.tuples.fetch_add(tuples, Ordering::AcqRel);
                self.stats.batches.fetch_add(1, Ordering::AcqRel);
            }
            protocol::FRAME_SYNC => {
                if !input.hello_done {
                    return Err(FrameError::HandshakeRequired);
                }
                let cookie = protocol::decode_sync(payload)?;
                protocol::write_sync(out, protocol::FRAME_SYNC_OK, cookie);
            }
            other => {
                // Server-to-client frames arriving at the server.
                return Err(FrameError::UnknownType { tag: other });
            }
        }
        Ok(true)
    }
}

/// The `ERROR`-frame code for a framing violation.
fn error_code(e: &FrameError) -> u16 {
    match e {
        FrameError::Rejected { code, .. } => *code,
        _ => protocol::ERR_PROTOCOL,
    }
}

/// The query plane: newline-delimited JSON over the slim replica.
struct Queries {
    replica: ReadReplica<MultiSummary>,
    stats: ServerStats,
    shutdown: Arc<AtomicBool>,
}

impl Plane for Queries {
    /// The bytes after the last answered line: at most one read beyond
    /// the longest legal line, because a line is answered before the next
    /// read and a longer one is refused.
    type Input = Vec<u8>;

    fn extend(input: &mut Vec<u8>, bytes: &[u8]) {
        input.extend_from_slice(bytes);
    }

    fn answer(&mut self, input: &mut Vec<u8>, out: &mut Vec<u8>) -> Step {
        let nl = input.iter().position(|&b| b == b'\n');
        if nl.unwrap_or(input.len()) > protocol::MAX_QUERY_LINE {
            let refusal = format!("query line exceeds {} bytes", protocol::MAX_QUERY_LINE);
            out.extend_from_slice(error_line(&refusal).as_bytes());
            out.push(b'\n');
            *input = Vec::new();
            return Step::Close(REFUSED_DRAIN);
        }
        let Some(nl) = nl else {
            return Step::Idle;
        };
        let line = String::from_utf8_lossy(&input[..nl]);
        let response = answer_query(line.trim(), &mut self.replica, &self.stats, &self.shutdown);
        input.drain(..=nl);
        out.extend_from_slice(response.as_bytes());
        out.push(b'\n');
        Step::Answered
    }

    fn turn_done(&mut self) {
        // This turn's answers are out. A `self_join` read the shards in
        // place and left the frame behind, so bring the frame up to date
        // now (a no-op when it is current; an error shows on the next
        // query that needs the frame), then project what its readers have
        // not asked for yet while its merge is still in cache, so a later
        // ask of this frame finds it ready.
        let _ = self.replica.refresh();
        self.replica.slim().finish();
    }
}

/// Answer one query-plane request line.
fn answer_query(
    line: &str,
    replica: &mut ReadReplica<MultiSummary>,
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
            .map(|est| protocol::estimate_line("self_join", &est, req.confidence))
            .map_err(|e| e.to_string()),
        "distinct" => replica
            .distinct_estimate()
            .map(|est| protocol::estimate_line("distinct", &est, req.confidence))
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
                    let _ = write!(out, "\"q\":{},", JsonNum(q));
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
                        let _ = write!(out, "{{\"key\":{key},");
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
            let handle = &stats.runtime;
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
                JsonNum(stats.tuples_per_sec()),
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
