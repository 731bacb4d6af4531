//! The ingest service: a thread per connection over
//! [`ShardedRuntime<MultiSummary>`].
//!
//! Two planes, two listeners, one connection handler:
//!
//! * The **ingest plane** shares the sharded runtime behind one lock, so
//!   there is one producer however many clients send. Batch frames are
//!   decoded *directly into* pooled buffers loaned from the shard
//!   recycle rings ([`loan_batch_buf`](sss_stream::ShardedRuntime::loan_batch_buf) →
//!   [`protocol::decode_batch_into`] →
//!   [`push_loaned_deferred`](sss_stream::ShardedRuntime::push_loaned_deferred)), so the
//!   steady-state path from socket to shard ring performs zero heap
//!   allocations per batch — the invariant
//!   [`pool_stats`](sss_stream::QueryHandle::pool_stats) proves, which
//!   [`ServerStats`] reads from the runtime's own counters. When every
//!   shard ring is full a connection's thread blocks in the push —
//!   backpressure propagates to the TCP receive windows of every client
//!   rather than buffering unboundedly.
//! * Each **query connection** opens its own [`ReadReplica`] from the
//!   runtime's read side; opening one folds nothing. At `max_pending = 0`
//!   every query line is read off the caught-up shards in place, under
//!   their locks — F₂ from the summed join rows, F₀, the quantile and the
//!   top-k from scratch merges of the small parts — with no fold. Past a
//!   larger budget a line refreshes the replica once and is answered from
//!   the merge it holds (the runtime cache's merge, adopted by pointer or
//!   rebuilt once for every replica refreshing to it), so sustained
//!   ingest costs a query only the staleness the budget allows, with the
//!   F₂ error bar widened to match; a `self_join` past the budget is read
//!   in place too. The `stats` line's `replica_version` and
//!   `replica_pending` describe the state answers come from
//!   ([`ReadReplica::gauges`]): at `max_pending = 0` the batches the
//!   shards have applied or are applying and those still queued (0 after
//!   a `SYNC`), past it the merge the replica holds.
//! * A `SYNC` is answered once every shard has applied what it accepted
//!   ([`QueryHandle::catch_up`]): `SYNC_OK` means applied. Batches go
//!   onto the rings without waking a worker
//!   ([`push_loaned_deferred`](sss_stream::ShardedRuntime::push_loaned_deferred)),
//!   and a turn's end wakes, once, each worker whose ring still holds a
//!   batch, so a fresh turn — a batch, a `SYNC`, reads — wakes none.
//!
//! Each plane's listener thread accepts in blocking mode and gives each
//! connection a thread, which runs one handler (`converse`) over the
//! connection's blocking socket; a plane only says what its bytes mean.
//! Every thread is named after its plane (`sss-net-ingest`,
//! `sss-net-query`). The rules every connection keeps:
//!
//! * **Bounded output.** Answers are written once 1 MiB (`OUT_LIMIT`) of
//!   them is queued, and a write waits for the peer, so a client that
//!   never reads stalls only its own thread and is not read further.
//! * **Half-close.** A client that shuts its write half is answered in
//!   full before the connection closes.
//! * **A cap.** A plane serves at most 64 (`MAX_CONNS`) connections at
//!   once. The next one gets one refusal — an `ERROR` frame, or an
//!   `{"ok":false,…}` line — and is closed; it is neither counted as
//!   accepted nor as a protocol error.
//! * **Deadlines.** A read waits at most 300 s (`IDLE`) and a write 30 s
//!   (`WRITE_STALL`); then the connection closes.
//!
//! A graceful shutdown (the query-plane `{"cmd":"shutdown"}`, once its
//! answer is written, [`RunningServer::signal_shutdown`], or dropping the
//! server) raises a flag and wakes each blocked accept by connecting to
//! it. Each listener then shuts every open connection down and joins its
//! thread; a client that does not read holds nothing up. The ingest side
//! then drains the shard rings through [`ShardedRuntime::into_merged`],
//! optionally flushes the merged summary as a `Portable` snapshot —
//! loadable by `sss load` and mergeable with snapshots from other
//! processes — and hands the merged [`MultiSummary`] back to the embedder.

use crate::error::{NetError, Result};
use crate::protocol::{self, error_line, push_f64_field, push_intervals, FrameReader, JsonNum};
use sss_core::wire::{self, FrameError};
use sss_core::{MultiSpec, MultiSummary, Portable};
use sss_stream::runtime::RuntimeConfig;
use sss_stream::{QueryHandle, ReadReplica, ShardedRuntime};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket read chunk per read call.
const READ_CHUNK: usize = 64 << 10;
/// Queued answers at which a connection's answers are written before it
/// is answered further: what a client that never reads can cost the
/// server, whatever its requests would expand to.
const OUT_LIMIT: usize = 1 << 20;
/// What a refused query connection may still send before it is dropped:
/// room for an honest mistake (a snapshot pasted into the query port) to
/// read its refusal, an end to what a flood costs its thread.
const REFUSED_DRAIN: usize = 4 << 20;
/// Open connections per plane; the next one is refused and closed.
pub(crate) const MAX_CONNS: usize = 64;
/// How long a read waits for a peer that sends nothing.
const IDLE: Duration = Duration::from_secs(300);
/// How long a write waits for a peer that reads nothing.
const WRITE_STALL: Duration = Duration::from_secs(30);

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

/// A started service: two listener threads, two bound listeners, and a
/// thread per open connection.
///
/// Obtain the final merged summary with
/// [`wait`](RunningServer::wait) (after a client-driven shutdown) or
/// [`shutdown_and_wait`](RunningServer::shutdown_and_wait).
#[derive(Debug)]
pub struct RunningServer {
    ingest_addr: SocketAddr,
    query_addr: SocketAddr,
    stats: ServerStats,
    stop: Arc<Stop>,
    ingest: Option<JoinHandle<Result<MultiSummary>>>,
    query: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// Bind both planes and spawn the listener threads. The listeners
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
        let stats = ServerStats::new(runtime.query_handle());
        let stop = Arc::new(Stop {
            requested: AtomicBool::new(false),
            listeners: [ingest_addr, query_addr],
        });

        let runtime = Arc::new(Mutex::new(runtime));
        let open_ingest = {
            let (runtime, stats) = (Arc::clone(&runtime), Arc::clone(&stats.inner));
            move || Ok(Ingest::new(&runtime, &head, &stats))
        };
        let snapshot_path = config.snapshot_path;
        let ingest = spawn_plane(
            "sss-net-ingest",
            ingest_listener,
            &stop,
            open_ingest,
            || {
                // Every connection thread is joined, so the runtime is this
                // thread's alone. Dropping its lanes closes the data rings,
                // and each worker drains its ring first.
                let runtime = Arc::into_inner(runtime)
                    .and_then(|runtime| runtime.into_inner().ok())
                    .ok_or(NetError::ThreadPanicked { thread: "ingest" })?;
                let summary = runtime.into_merged()?;
                if let Some(path) = snapshot_path {
                    let bytes = summary.encode()?;
                    std::fs::write(&path, bytes)
                        .map_err(|e| NetError::io("write final snapshot", e))?;
                }
                Ok(summary)
            },
        )?;
        let open_query = {
            let (stats, stop) = (stats.clone(), Arc::clone(&stop));
            move || {
                Ok(Queries {
                    replica: stats
                        .runtime
                        .read_replica(config.max_pending)
                        .map_err(|e| e.to_string())?,
                    input: Vec::new(),
                    stats: stats.clone(),
                    stop: Arc::clone(&stop),
                    stopping: false,
                })
            }
        };
        let query = spawn_plane("sss-net-query", query_listener, &stop, open_query, || ())?;

        Ok(RunningServer {
            ingest_addr,
            query_addr,
            stats,
            stop,
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

    /// Start the shutdown: raise the flag and wake both listeners, which
    /// then close every open connection. Does not block — pair with
    /// [`wait`](Self::wait).
    pub fn signal_shutdown(&self) {
        self.stop.request();
    }

    /// Join both listener threads and return the final merged summary
    /// (after the shard rings drained; the snapshot, if configured, has
    /// been written). Blocks until a shutdown is signalled — by
    /// [`signal_shutdown`](Self::signal_shutdown) or a query-plane
    /// `{"cmd":"shutdown"}`.
    ///
    /// # Errors
    ///
    /// The ingest side's error, or [`NetError::ThreadPanicked`].
    pub fn wait(mut self) -> Result<MultiSummary> {
        let ingest = self.ingest.take().expect("wait() consumes self");
        let query = self.query.take().expect("wait() consumes self");
        let summary = ingest
            .join()
            .map_err(|_| NetError::ThreadPanicked { thread: "ingest" })?;
        query
            .join()
            .map_err(|_| NetError::ThreadPanicked { thread: "query" })?;
        summary
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
        // A dropped-without-wait server must not leave threads serving.
        self.stop.request();
    }
}

/// How a server stops: a flag every thread reads, and the two listening
/// addresses whose blocked accepts are woken by connecting to them.
#[derive(Debug)]
struct Stop {
    requested: AtomicBool,
    listeners: [SocketAddr; 2],
}

impl Stop {
    fn requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Raise the flag and wake both listeners (over loopback where one is
    /// bound to an unspecified address). Later calls do nothing.
    fn request(&self) {
        if self.requested.swap(true, Ordering::AcqRel) {
            return;
        }
        for mut addr in self.listeners {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(addr);
        }
    }
}

/// What a plane makes of the bytes a connection sends; [`converse`] does
/// the reads and writes. Each connection has a plane of its own.
trait Plane: Send + 'static {
    /// The one message a connection that is not served gets.
    fn refuse(out: &mut Vec<u8>, why: &str);
    /// Queue what a new connection is sent before anything is read.
    fn greet(&mut self, _out: &mut Vec<u8>) {}
    /// Keep bytes read from the connection.
    fn extend(&mut self, bytes: &[u8]);
    /// Answer the first complete request kept into `out`.
    fn answer(&mut self, out: &mut Vec<u8>) -> Step;
    /// The connection is gone; `closed` if the plane closed it.
    fn gone(&mut self, _closed: bool) {}
    /// This turn's answers are written; the next read is about to wait.
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

/// Start a plane's listener thread, which runs [`serve`] and then `then`,
/// and panics instead if a connection thread did. It and every connection
/// thread it starts are named `name`: the ledger attributes CPU time by
/// that prefix.
fn spawn_plane<P: Plane, T: Send + 'static>(
    name: &'static str,
    listener: TcpListener,
    stop: &Arc<Stop>,
    open: impl Fn() -> std::result::Result<P, String> + Send + Sync + 'static,
    then: impl FnOnce() -> T + Send + 'static,
) -> Result<JoinHandle<T>> {
    let stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            if serve(&listener, name, &stop, open) {
                panic!("a {name} connection thread panicked");
            }
            then()
        })
        .map_err(|e| NetError::io("spawn listener thread", e))
}

/// One plane's listener: accept until the stop, giving each connection a
/// thread under the [`MAX_CONNS`] cap; then shut every open connection
/// down and join its thread. `open` makes a connection's plane, or says
/// why it is refused. Returns whether a connection thread panicked.
fn serve<P: Plane>(
    listener: &TcpListener,
    name: &str,
    stop: &Arc<Stop>,
    open: impl Fn() -> std::result::Result<P, String> + Send + Sync + 'static,
) -> bool {
    let open = Arc::new(open);
    // A clone of each open stream: the cap counts them, the stop shuts
    // them down.
    let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut panicked = false;
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if stop.requested() {
            break;
        }
        let Ok(mut stream) = stream else {
            continue;
        };
        let (done, running) = threads.into_iter().partition(JoinHandle::is_finished);
        threads = running;
        panicked |= join_all(done);
        let mut open_conns = lock(&conns);
        if open_conns.len() >= MAX_CONNS {
            drop(open_conns);
            let mut out = Vec::new();
            P::refuse(
                &mut out,
                &format!("{MAX_CONNS} connections open, try later"),
            );
            let _ = stream.write_all(&out);
            continue;
        }
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        open_conns.insert(id, clone);
        drop(open_conns);
        let spawned = {
            let (open, conns, stop) = (Arc::clone(&open), Arc::clone(&conns), Arc::clone(stop));
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(move || {
                    connection(stream, &*open, &stop.requested);
                    lock(&conns).remove(&id);
                })
        };
        match spawned {
            Ok(thread) => threads.push(thread),
            Err(_) => drop(lock(&conns).remove(&id)),
        }
    }
    for stream in lock(&conns).values() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    panicked | join_all(threads)
}

/// Join `threads`; whether any of them panicked.
fn join_all(threads: Vec<JoinHandle<()>>) -> bool {
    let mut panicked = false;
    for thread in threads {
        panicked |= thread.join().is_err();
    }
    panicked
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serve one accepted connection on its own thread, under the deadlines.
fn connection<P: Plane>(
    mut stream: TcpStream,
    open: &dyn Fn() -> std::result::Result<P, String>,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE));
    let _ = stream.set_write_timeout(Some(WRITE_STALL));
    let mut plane = match open() {
        Ok(plane) => plane,
        Err(why) => {
            let mut out = Vec::new();
            P::refuse(&mut out, &why);
            let _ = stream.write_all(&out);
            return;
        }
    };
    if let Some(discard) = converse(&mut plane, &mut stream, stop) {
        // Closing only the write half lets the peer read its last answer;
        // closing both on unread input would reset it.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = std::io::copy(&mut (&stream).take(discard as u64), &mut std::io::sink());
    }
}

/// Serve one connection to its end, over any byte stream: greet, then in
/// turns answer every complete request, write the answers and read more.
/// Writes and reads wait, so a connection whose answers go unread is not
/// read either: its answers are written whenever `OUT_LIMIT` of them is
/// queued. The connection ends at end of input (once every complete
/// request is answered), at a read or write error — a reset, or a passed
/// deadline as `WouldBlock` or `TimedOut` —, at `stop`, or when the plane
/// closes it. `Some(n)`: the plane closed it, and the caller shuts the
/// write half and discards at most `n` more bytes.
fn converse<P: Plane>(
    plane: &mut P,
    stream: &mut (impl Read + Write),
    stop: &AtomicBool,
) -> Option<usize> {
    let mut out = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    plane.greet(&mut out);
    let closed = 'conn: loop {
        let step = loop {
            match plane.answer(&mut out) {
                Step::Answered if out.len() < OUT_LIMIT => {}
                Step::Answered => {
                    if send(stream, &mut out).is_err() {
                        break 'conn None;
                    }
                }
                step => break step,
            }
        };
        if send(stream, &mut out).is_err() {
            break None;
        }
        plane.turn_done();
        if let Step::Close(discard) = step {
            break Some(discard);
        }
        if stop.load(Ordering::Acquire) {
            break None;
        }
        match stream.read(&mut scratch) {
            Ok(0) => break None,
            Ok(n) => plane.extend(&scratch[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break None,
        }
    };
    plane.gone(closed.is_some());
    closed.filter(|&discard| discard > 0)
}

/// Write what is queued and clear it.
fn send(stream: &mut impl Write, out: &mut Vec<u8>) -> std::io::Result<()> {
    stream.write_all(out)?;
    out.clear();
    Ok(())
}

/// An ingest connection: handshake, decode each batch into a buffer
/// loaned from the runtime, push it. Every connection shares the one
/// runtime behind one lock, so there is one producer.
struct Ingest {
    runtime: Arc<Mutex<ShardedRuntime<MultiSummary>>>,
    /// The runtime's read side, which catches the shards up on a `SYNC`
    /// without the runtime's lock.
    handle: QueryHandle<MultiSummary>,
    /// The server's head, sent first.
    head: wire::Head,
    stats: Arc<StatsInner>,
    reader: FrameReader,
    /// Handshake completed: `BATCH`/`SYNC` frames are admissible.
    hello_done: bool,
}

impl Plane for Ingest {
    fn refuse(out: &mut Vec<u8>, why: &str) {
        protocol::write_error(out, protocol::ERR_PROTOCOL, why);
    }

    fn greet(&mut self, out: &mut Vec<u8>) {
        // The server speaks first: the banner head goes out before any
        // client frame is read.
        protocol::write_frame(out, protocol::FRAME_HELLO_OK, &self.head.seal(&[]));
        self.stats
            .connections_accepted
            .fetch_add(1, Ordering::AcqRel);
        self.stats.connections_open.fetch_add(1, Ordering::AcqRel);
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.reader.extend(bytes);
    }

    fn answer(&mut self, out: &mut Vec<u8>) -> Step {
        match self.apply_frame(out) {
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

    /// The turn's batches went onto the rings without waking a worker: a
    /// `SYNC` applied what it covered, and a worker whose ring still holds
    /// a batch is woken for it now, once.
    fn turn_done(&mut self) {
        lock(&self.runtime).wake_workers();
    }

    fn gone(&mut self, closed: bool) {
        // A turn cut short by a failed write ends here.
        self.turn_done();
        self.stats.connections_open.fetch_sub(1, Ordering::AcqRel);
        // A disconnect mid-frame is itself a typed protocol error —
        // partially transferred batches are never counted as ingested.
        if !closed && self.reader.finish().is_err() {
            self.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
        }
    }
}

impl Ingest {
    fn new(
        runtime: &Arc<Mutex<ShardedRuntime<MultiSummary>>>,
        head: &wire::Head,
        stats: &Arc<StatsInner>,
    ) -> Self {
        Ingest {
            runtime: Arc::clone(runtime),
            handle: lock(runtime).query_handle(),
            head: head.clone(),
            stats: Arc::clone(stats),
            reader: FrameReader::new(),
            hello_done: false,
        }
    }

    /// Apply the first complete frame buffered, if any.
    fn apply_frame(&mut self, out: &mut Vec<u8>) -> std::result::Result<bool, FrameError> {
        let Some((tag, payload)) = self.reader.next_frame()? else {
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
                self.hello_done = true;
                // Ack so the client's connect() is synchronous — it
                // knows the handshake verdict before sending a batch.
                protocol::write_frame(out, protocol::FRAME_HELLO_OK, &[]);
            }
            protocol::FRAME_BATCH => {
                if !self.hello_done {
                    return Err(FrameError::HandshakeRequired);
                }
                let unavailable = || FrameError::Rejected {
                    code: protocol::ERR_PROTOCOL,
                    detail: "ingest runtime unavailable".to_string(),
                };
                // A poisoned lock or a dead shard worker is a server-side
                // failure, not a client protocol error.
                let mut runtime = self.runtime.lock().map_err(|_| unavailable())?;
                let mut batch = runtime.loan_batch_buf(payload.len() / 8);
                if let Err(e) = protocol::decode_batch_into(payload, &mut batch) {
                    // Return the loaned buffer before reporting.
                    batch.clear();
                    let _ = runtime.push_loaned(batch);
                    return Err(e);
                }
                let tuples = batch.len() as u64;
                runtime
                    .push_loaned_deferred(batch)
                    .map_err(|_| unavailable())?;
                self.stats.tuples.fetch_add(tuples, Ordering::AcqRel);
                self.stats.batches.fetch_add(1, Ordering::AcqRel);
            }
            protocol::FRAME_SYNC => {
                if !self.hello_done {
                    return Err(FrameError::HandshakeRequired);
                }
                let cookie = protocol::decode_sync(payload)?;
                // Applied, not only queued: every shard is caught up to the
                // batches accepted so far, this connection's among them.
                self.handle.catch_up().map_err(|_| FrameError::Rejected {
                    code: protocol::ERR_PROTOCOL,
                    detail: "ingest runtime unavailable".to_string(),
                })?;
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

/// The query plane: newline-delimited JSON over a connection's own read
/// replica.
struct Queries {
    replica: ReadReplica<MultiSummary>,
    /// The bytes after the last answered line: at most one read beyond
    /// the longest legal line, because a line is answered before the next
    /// read and a longer one is refused.
    input: Vec<u8>,
    stats: ServerStats,
    stop: Arc<Stop>,
    /// This connection asked for the shutdown; it starts once the answer
    /// is written.
    stopping: bool,
}

impl Plane for Queries {
    fn refuse(out: &mut Vec<u8>, why: &str) {
        error_line(out, why);
        out.push(b'\n');
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.input.extend_from_slice(bytes);
    }

    fn answer(&mut self, out: &mut Vec<u8>) -> Step {
        let input = &mut self.input;
        let nl = input.iter().position(|&b| b == b'\n');
        if nl.unwrap_or(input.len()) > protocol::MAX_QUERY_LINE {
            let refusal = format!("query line exceeds {} bytes", protocol::MAX_QUERY_LINE);
            Self::refuse(out, &refusal);
            *input = Vec::new();
            return Step::Close(REFUSED_DRAIN);
        }
        let Some(nl) = nl else {
            return Step::Idle;
        };
        let line = String::from_utf8_lossy(&input[..nl]);
        answer_query(
            line.trim(),
            &mut self.replica,
            &self.stats,
            &mut self.stopping,
            out,
        );
        input.drain(..=nl);
        out.push(b'\n');
        Step::Answered
    }

    fn turn_done(&mut self) {
        if self.stopping {
            self.stop.request();
        }
    }
}

/// Answer one query-plane request line: its answer, without the newline,
/// rendered straight into the connection's output buffer `out`.
fn answer_query(
    line: &str,
    replica: &mut ReadReplica<MultiSummary>,
    stats: &ServerStats,
    stopping: &mut bool,
    out: &mut Vec<u8>,
) {
    let req = match protocol::parse_query_line(line) {
        Ok(req) => req,
        Err(e) => return error_line(out, &e),
    };
    // Each arm writes only once its read has answered, so a refusal
    // appends to what the buffer held.
    let result: std::result::Result<(), String> = match req.cmd.as_str() {
        "self_join" => replica
            .self_join_estimate()
            .map(|est| protocol::estimate_line(out, "self_join", &est, req.confidence))
            .map_err(|e| e.to_string()),
        "distinct" => replica
            .distinct_estimate()
            .map(|est| protocol::estimate_line(out, "distinct", &est, req.confidence))
            .map_err(|e| e.to_string()),
        "quantile" => {
            let q = req.q.unwrap_or(0.5);
            // The value and its envelope from one state: under ingest two
            // reads could answer from two.
            replica
                .quantile_with_bounds(q)
                .map(|(value, (lo, hi))| {
                    let _ = write!(
                        out,
                        "{{\"ok\":true,\"cmd\":\"quantile\",\"q\":{},",
                        JsonNum(q)
                    );
                    push_f64_field(out, "value", value);
                    out.push(b',');
                    push_f64_field(out, "lo", lo);
                    out.push(b',');
                    push_f64_field(out, "hi", hi);
                    out.push(b'}');
                })
                .map_err(|e| e.to_string())
        }
        "topk" => {
            let k = req.k.unwrap_or(10) as usize;
            replica
                .top_k(k)
                .map(|top| {
                    out.extend_from_slice(b"{\"ok\":true,\"cmd\":\"topk\",\"top\":[");
                    for (i, (key, est)) in top.iter().enumerate() {
                        if i > 0 {
                            out.push(b',');
                        }
                        let _ = write!(out, "{{\"key\":{key},");
                        push_f64_field(out, "value", est.value);
                        push_intervals(out, est, req.confidence);
                        out.push(b'}');
                    }
                    out.extend_from_slice(b"]}");
                })
                .map_err(|e| e.to_string())
        }
        "stats" => {
            let pool = stats.pool_stats();
            let handle = &stats.runtime;
            let cache = handle.cache_stats();
            let (version, pending) = replica.gauges();
            let _ = write!(
                out,
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
                version,
                pending,
                handle.tuples_ingested(),
                handle.queue_high_water(),
                cache.hits,
                cache.partial_rebuilds + cache.full_rebuilds,
                sss_xi::Dispatch::get().label(),
            );
            Ok(())
        }
        "shutdown" => {
            *stopping = true;
            out.extend_from_slice(b"{\"ok\":true,\"cmd\":\"shutdown\"}");
            Ok(())
        }
        other => Err(format!("unknown cmd {other:?}")),
    };
    if let Err(e) = result {
        error_line(out, &e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_core::JoinSchema;
    use sss_stream::Partition;
    use std::collections::VecDeque;
    use std::io;

    type Reads = Vec<io::Result<Vec<u8>>>;

    /// A scripted connection: each read returns the next scripted chunk or
    /// error (end of input after the last); writes are kept until `room`
    /// bytes are, then reset. With a `tally`, each write first notes the
    /// runtime's applied tuples.
    struct Script {
        reads: VecDeque<io::Result<Vec<u8>>>,
        written: Vec<u8>,
        room: usize,
        tally: Option<(QueryHandle<MultiSummary>, Vec<u64>)>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.reads.pop_front().unwrap_or(Ok(Vec::new()))?;
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if let Some((handle, applied)) = &mut self.tally {
                applied.push(handle.tuples_ingested());
            }
            let n = buf.len().min(self.room - self.written.len());
            if n == 0 {
                return Err(ErrorKind::ConnectionReset.into());
            }
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serve `reads` to `plane`: what it wrote, and how many reads it left.
    fn run(plane: &mut impl Plane, reads: Reads, room: usize) -> (Vec<u8>, usize) {
        let mut script = Script {
            reads: reads.into(),
            written: Vec::new(),
            room,
            tally: None,
        };
        assert_eq!(converse(plane, &mut script, &AtomicBool::new(false)), None);
        (script.written, script.reads.len())
    }

    /// `bytes` cut at every offset, and one byte per read.
    fn deliveries(bytes: &[u8]) -> Vec<Reads> {
        let mut all: Vec<Reads> = (1..bytes.len())
            .map(|cut| vec![Ok(bytes[..cut].to_vec()), Ok(bytes[cut..].to_vec())])
            .collect();
        all.push(bytes.iter().map(|&b| Ok(vec![b])).collect());
        all
    }

    fn runtime() -> (ShardedRuntime<MultiSummary>, wire::Head) {
        let mut rng = StdRng::seed_from_u64(5);
        let spec = MultiSpec::new(JoinSchema::fagms(2, 64, &mut rng), &mut rng)
            .distinct_precision(6)
            .quantile_k(64);
        let prototype = spec.summary().unwrap();
        let head = wire::Head {
            kind: MultiSummary::KIND.to_string(),
            format: MultiSummary::FORMAT,
            fingerprint: prototype.fingerprint(),
        };
        let config = RuntimeConfig {
            shards: 1,
            queue_depth: 4,
            partition: Partition::RoundRobin,
        };
        (ShardedRuntime::new(config, &prototype).unwrap(), head)
    }

    /// A client's `HELLO`, two batches (11 tuples) and a 13-byte `SYNC`.
    fn ingest_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        protocol::write_frame(&mut bytes, protocol::FRAME_HELLO, &runtime().1.seal(&[]));
        protocol::write_batch(&mut bytes, &[3, 1, 4, 1, 5, 9, 2, 6]);
        protocol::write_batch(&mut bytes, &[5, 3, 5]);
        protocol::write_sync(&mut bytes, protocol::FRAME_SYNC, 77);
        bytes
    }

    /// What an ingest connection served `reads` wrote, how many reads it
    /// left, its gauges (tuples, batches, protocol errors, accepted, open)
    /// and the merged summary's bytes.
    fn ingest(reads: Reads) -> (Vec<u8>, usize, [u64; 5], Vec<u8>) {
        let (runtime, head) = runtime();
        let mut plane = Ingest::new(&Arc::new(Mutex::new(runtime)), &head, &Arc::default());
        let (written, unread) = run(&mut plane, reads, usize::MAX);
        let Ingest { runtime, stats, .. } = plane;
        let runtime = Arc::into_inner(runtime).unwrap().into_inner().unwrap();
        let gauges = [
            &stats.tuples,
            &stats.batches,
            &stats.protocol_errors,
            &stats.connections_accepted,
            &stats.connections_open,
        ]
        .map(|gauge| gauge.load(Ordering::Acquire));
        let merged = runtime.into_merged().unwrap().encode().unwrap();
        (written, unread, gauges, merged)
    }

    #[test]
    fn an_ingest_stream_cut_anywhere_is_served_as_a_whole() {
        let bytes = ingest_bytes();
        let whole = ingest(vec![Ok(bytes.clone())]);
        let mut acks = Vec::new();
        protocol::write_frame(&mut acks, protocol::FRAME_HELLO_OK, &runtime().1.seal(&[]));
        protocol::write_frame(&mut acks, protocol::FRAME_HELLO_OK, &[]);
        protocol::write_sync(&mut acks, protocol::FRAME_SYNC_OK, 77);
        assert_eq!((&whole.0, whole.2), (&acks, [11, 2, 0, 1, 0]));
        for reads in deliveries(&bytes) {
            assert_eq!(ingest(reads), whole);
        }
    }

    /// `SYNC_OK` means applied. A `HELLO`, two batches and a `SYNC` come in
    /// one read to a runtime whose worker sleeps, and no ring fills, so
    /// only the `SYNC` applies the batches before the turn's end wakes the
    /// worker. The write that carries `SYNC_OK` finds every tuple counted.
    #[test]
    fn sync_ok_is_written_once_every_batch_is_applied() {
        let (runtime, head) = runtime();
        let tally = Some((runtime.query_handle(), Vec::new()));
        // Let the worker go to sleep on its empty ring.
        std::thread::sleep(Duration::from_millis(50));
        let mut plane = Ingest::new(&Arc::new(Mutex::new(runtime)), &head, &Arc::default());
        let (reads, written, room) = ([Ok(ingest_bytes())].into(), Vec::new(), usize::MAX);
        let mut script = Script {
            reads,
            written,
            room,
            tally,
        };
        let stop = AtomicBool::new(false);
        assert_eq!(converse(&mut plane, &mut script, &stop), None);
        // The greeting, then the answers to the one read.
        assert_eq!(script.tally.unwrap().1, [0, 11]);
    }

    /// A reset in the middle of the second batch: the first batch counts,
    /// the cut one is exactly one protocol error, nothing more is read.
    #[test]
    fn a_reset_mid_frame_is_one_protocol_error() {
        let bytes = ingest_bytes();
        let cut = bytes.len() - 13 - 10;
        let reset = Err(ErrorKind::ConnectionReset.into());
        let (written, unread, gauges, _) = ingest(vec![
            Ok(bytes[..cut].to_vec()),
            reset,
            Ok(bytes[cut..].to_vec()),
        ]);
        assert_eq!((unread, gauges), (1, [8, 1, 1, 1, 0]));
        let whole = ingest(vec![Ok(bytes)]).0;
        assert_eq!(
            written,
            whole[..whole.len() - 13],
            "all but the SYNC answered"
        );
    }

    /// A read whose deadline passed closes the connection, whichever kind
    /// the socket reports it as; an idle connection is no protocol error.
    #[test]
    fn a_passed_read_deadline_closes_the_connection() {
        let bytes = ingest_bytes();
        let (before, after) = bytes.split_at(bytes.len() - 13);
        for kind in [ErrorKind::TimedOut, ErrorKind::WouldBlock] {
            let (_, unread, gauges, _) = ingest(vec![
                Ok(before.to_vec()),
                Err(kind.into()),
                Ok(after.to_vec()),
            ]);
            assert_eq!((unread, gauges), (1, [11, 2, 0, 1, 0]), "{kind:?}");
        }
    }

    #[test]
    fn a_query_stream_cut_anywhere_is_answered_as_a_whole() {
        const QUERIES: &[u8] =
            b"{\"cmd\":\"self_join\",\"confidence\":0.9}\n{\"cmd\":\"distinct\"}\n\
            {\"cmd\":\"topk\",\"k\":3}\n{\"cmd\":\"quantile\",\"q\":0.25}\n{\"cmd\":\"nope\"}\n";
        let (mut runtime, _) = runtime();
        let keys: Vec<u64> = (0..2_000).map(|i| i % 97).collect();
        runtime.push(&keys).unwrap();
        let handle = runtime.query_handle();
        let queries = |reads: Reads, room: usize| {
            let mut plane = Queries {
                replica: handle.read_replica(0).unwrap(),
                input: Vec::new(),
                stats: ServerStats::new(handle.clone()),
                stop: Arc::new(Stop {
                    requested: AtomicBool::new(false),
                    listeners: [([127, 0, 0, 1], 0).into(); 2],
                }),
                stopping: false,
            };
            run(&mut plane, reads, room)
        };
        let (whole, _) = queries(vec![Ok(QUERIES.to_vec())], usize::MAX);
        let answers = String::from_utf8(whole.clone()).unwrap();
        let ok: Vec<bool> = answers
            .lines()
            .map(|l| l.starts_with("{\"ok\":true"))
            .collect();
        assert_eq!(ok, [true, true, true, true, false], "{answers}");
        for reads in deliveries(QUERIES) {
            assert_eq!(queries(reads, usize::MAX).0, whole);
        }

        // A reset in the middle of the first answer ends the connection:
        // nothing more is answered, nothing more is read.
        let room = answers.find('\n').unwrap() / 2;
        let reads = vec![Ok(QUERIES[..40].to_vec()), Ok(QUERIES[40..].to_vec())];
        assert_eq!(queries(reads, room), (whole[..room].to_vec(), 1));
    }
}
