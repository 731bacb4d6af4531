//! Client-side embeddings of both wire planes: the batching/pipelining
//! ingest writer, the line-oriented query client, and the
//! multi-connection load generator behind `sss bench-client` and the
//! `net_ingest` acceptance bench.

use crate::error::{NetError, Result};
use crate::protocol::{self, FrameReader};
use crate::server::MAX_CONNS;
use sss_core::wire::{self, FrameError, Head};
use sss_xi::splitmix64;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Flush threshold for the pipelined write buffer: batches accumulate
/// until this many bytes are pending, then go out in one `write_all` —
/// pipelining without per-batch syscalls.
const FLUSH_THRESHOLD: usize = 256 << 10;

/// A blocking ingest-plane connection: handshake on connect, batched
/// pipelined writes, and a [`sync`](Self::sync) barrier.
///
/// The handshake is synchronous: [`connect`](Self::connect) returns
/// only after the server acknowledged the echoed head, so a returned
/// client is guaranteed fingerprint-compatible — a mismatch surfaces
/// as a typed [`FrameError::Rejected`] from `connect`, not as a
/// surprise mid-stream.
#[derive(Debug)]
pub struct IngestClient {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    server_head: Head,
    next_cookie: u64,
}

impl IngestClient {
    /// Connect and adopt the server's advertised head (the common
    /// case: the client trusts the server's configuration).
    ///
    /// # Errors
    ///
    /// Socket failures, a malformed banner, or a server rejection.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        Self::connect_inner(addr, None)
    }

    /// Connect, announcing `head` as the client's own expected
    /// configuration. The server refuses the connection (typed
    /// [`FrameError::Rejected`], code
    /// [`ERR_FINGERPRINT`](protocol::ERR_FINGERPRINT) or
    /// [`ERR_WIRE_MISMATCH`](protocol::ERR_WIRE_MISMATCH)) unless it
    /// matches — the snapshot-merge fingerprint discipline, applied at
    /// connection time.
    ///
    /// # Errors
    ///
    /// As for [`connect`](Self::connect), plus the mismatch rejection.
    pub fn connect_checked(addr: impl ToSocketAddrs, head: &Head) -> Result<Self> {
        Self::connect_inner(addr, Some(head.clone()))
    }

    fn connect_inner(addr: impl ToSocketAddrs, own_head: Option<Head>) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::io("connect ingest", e))?;
        let _ = stream.set_nodelay(true);
        let mut client = IngestClient {
            stream,
            reader: FrameReader::new(),
            out: Vec::with_capacity(FLUSH_THRESHOLD + 1024),
            server_head: Head {
                kind: String::new(),
                format: 0,
                fingerprint: 0,
            },
            next_cookie: 0,
        };
        // Server speaks first: its banner head.
        let (tag, payload) = client.read_frame()?;
        if tag != protocol::FRAME_HELLO_OK {
            return Err(FrameError::UnknownType { tag }.into());
        }
        client.server_head = wire::peek(&payload)?;
        // Echo (or assert) the head, then wait for the verdict.
        let announced = own_head.unwrap_or_else(|| client.server_head.clone());
        let hello = announced.seal(&[]);
        protocol::write_frame(&mut client.out, protocol::FRAME_HELLO, &hello);
        client.flush()?;
        match client.read_frame()? {
            (protocol::FRAME_HELLO_OK, _) => Ok(client),
            (protocol::FRAME_ERROR, payload) => Err(protocol::decode_error(&payload).into()),
            (tag, _) => Err(FrameError::UnknownType { tag }.into()),
        }
    }

    /// The head the server advertised in its banner.
    pub fn server_head(&self) -> &Head {
        &self.server_head
    }

    /// Queue a batch of keys (split to the protocol's frame ceiling if
    /// oversized); flushes automatically when the pipeline buffer
    /// fills.
    ///
    /// # Errors
    ///
    /// Socket failures from an automatic flush.
    pub fn send_batch(&mut self, keys: &[u64]) -> Result<()> {
        for chunk in keys.chunks(protocol::MAX_BATCH_KEYS.max(1)) {
            protocol::write_batch(&mut self.out, chunk);
            if self.out.len() >= FLUSH_THRESHOLD {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Push every queued frame to the socket.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn flush(&mut self) -> Result<()> {
        if !self.out.is_empty() {
            self.stream
                .write_all(&self.out)
                .map_err(|e| NetError::io("write ingest frames", e))?;
            self.out.clear();
        }
        Ok(())
    }

    /// Flush, then block until the server confirms every batch sent so
    /// far has been applied to the shards (not only queued on their
    /// rings). After this returns, the server's `runtime_tuples` gauge
    /// counts all of them and a query covers them. Returns the barrier
    /// cookie the server echoed.
    ///
    /// # Errors
    ///
    /// Socket failures, or a typed server rejection (the server
    /// reports protocol errors here, since the error frame is the last
    /// thing it writes before closing).
    pub fn sync(&mut self) -> Result<u64> {
        self.next_cookie += 1;
        let cookie = self.next_cookie;
        protocol::write_sync(&mut self.out, protocol::FRAME_SYNC, cookie);
        self.flush()?;
        loop {
            match self.read_frame()? {
                (protocol::FRAME_SYNC_OK, payload) => {
                    let echoed = protocol::decode_sync(&payload)?;
                    if echoed == cookie {
                        return Ok(echoed);
                    }
                    // A stale cookie from an earlier (coalesced) sync.
                }
                (protocol::FRAME_ERROR, payload) => {
                    return Err(protocol::decode_error(&payload).into())
                }
                (tag, _) => return Err(FrameError::UnknownType { tag }.into()),
            }
        }
    }

    /// Flush and close the write half; the connection drops cleanly on
    /// a frame boundary.
    ///
    /// # Errors
    ///
    /// Socket failures from the final flush.
    pub fn finish(mut self) -> Result<()> {
        self.flush()?;
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        Ok(())
    }

    /// Read one complete frame, blocking.
    fn read_frame(&mut self) -> Result<(u8, Vec<u8>)> {
        let mut scratch = [0u8; 4096];
        loop {
            if let Some((tag, payload)) = self.reader.next_frame()? {
                return Ok((tag, payload.to_vec()));
            }
            let n = self
                .stream
                .read(&mut scratch)
                .map_err(|e| NetError::io("read ingest frame", e))?;
            if n == 0 {
                return match self.reader.finish() {
                    Ok(()) => Err(NetError::HandshakeClosed),
                    Err(truncated) => Err(truncated.into()),
                };
            }
            self.reader.extend(&scratch[..n]);
        }
    }
}

/// A blocking query-plane connection: one JSON line out, one JSON line
/// back.
#[derive(Debug)]
pub struct QueryClient {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl QueryClient {
    /// Connect to the query plane.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::io("connect query", e))?;
        let _ = stream.set_nodelay(true);
        Ok(QueryClient {
            stream,
            inbuf: Vec::new(),
        })
    }

    /// Send one request line and read its response line.
    ///
    /// # Errors
    ///
    /// Socket failures, or the server closing without answering.
    pub fn request(&mut self, line: &str) -> Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line.trim_end_matches('\n'));
        framed.push('\n');
        self.stream
            .write_all(framed.as_bytes())
            .map_err(|e| NetError::io("write query line", e))?;
        let mut scratch = [0u8; 4096];
        loop {
            if let Some(nl) = self.inbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.inbuf.drain(..=nl).collect();
                return Ok(String::from_utf8_lossy(&line[..nl]).into_owned());
            }
            let n = self
                .stream
                .read(&mut scratch)
                .map_err(|e| NetError::io("read query line", e))?;
            if n == 0 {
                return Err(NetError::HandshakeClosed);
            }
            self.inbuf.extend_from_slice(&scratch[..n]);
        }
    }

    /// `{"cmd":"self_join"}` → the exact point estimate (decoded from
    /// its IEEE-754 bits, so it compares bit-identically to the
    /// in-process query).
    ///
    /// # Errors
    ///
    /// Transport failures, or an `ok:false` response (wrapped as a
    /// wire error with the server's message).
    pub fn self_join_bits(&mut self) -> Result<f64> {
        let line = self.request("{\"cmd\":\"self_join\"}")?;
        expect_ok(&line)?;
        protocol::response_u64(&line, "value_bits")
            .map(f64::from_bits)
            .ok_or_else(|| response_error("self_join response missing value_bits", &line))
    }

    /// `{"cmd":"stats"}` → the raw response line (fields documented in
    /// [`protocol`]).
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request).
    pub fn stats_line(&mut self) -> Result<String> {
        let line = self.request("{\"cmd\":\"stats\"}")?;
        expect_ok(&line)?;
        Ok(line)
    }

    /// `{"cmd":"shutdown"}` — ask the service to drain, snapshot, and
    /// exit.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request).
    pub fn shutdown(&mut self) -> Result<()> {
        let line = self.request("{\"cmd\":\"shutdown\"}")?;
        expect_ok(&line)
    }
}

/// Fail on an `ok:false` response, carrying the server's message.
fn expect_ok(line: &str) -> Result<()> {
    if line.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(response_error("query failed", line))
    }
}

fn response_error(context: &str, line: &str) -> NetError {
    NetError::Core(sss_core::Error::Wire {
        detail: format!("{context}: {line}"),
    })
}

/// The deterministic key stream the load generator sends: connection
/// `connection`'s `index`-th tuple under `seed`, folded into `domain`
/// distinct values (0 = the full `u64` range). Exposed so an oracle
/// can regenerate exactly the tuples a [`run_load`] call ingested and
/// sketch them sequentially for comparison.
pub fn synth_key(seed: u64, connection: u64, index: u64, domain: u64) -> u64 {
    let raw = splitmix64(seed ^ splitmix64(connection.wrapping_add(1)) ^ index);
    if domain == 0 {
        raw
    } else {
        raw % domain
    }
}

/// Load-generation parameters for [`run_load`].
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Concurrent ingest connections.
    pub connections: usize,
    /// Tuples sent per connection.
    pub tuples_per_connection: u64,
    /// Keys per `BATCH` frame.
    pub batch: usize,
    /// Distinct-key domain (0 = full `u64` range).
    pub domain: u64,
    /// Key-stream seed (see [`synth_key`]).
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            connections: 1,
            tuples_per_connection: 100_000,
            batch: 512,
            domain: 10_000,
            seed: 7,
        }
    }
}

/// What a [`run_load`] burst measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total tuples sent and synced across all connections.
    pub tuples: u64,
    /// Wall-clock from first byte to last `SYNC_OK`.
    pub elapsed: Duration,
    /// Aggregate throughput: `tuples / elapsed`.
    pub tuples_per_sec: f64,
    /// Per-connection throughput over each connection's own elapsed
    /// time (each includes its final sync barrier).
    pub per_connection_tps: Vec<f64>,
}

/// Drive the ingest plane with `connections` concurrent clients, each
/// sending its deterministic [`synth_key`] stream in batched pipelined
/// writes and ending with a [`sync`](IngestClient::sync) barrier — so
/// when this returns, every tuple it reports is queryable at zero
/// staleness.
///
/// # Errors
///
/// [`NetError::InvalidLoad`] for more connections than a server serves or
/// a batch that does not fit one frame, before anything starts; then the
/// first connection/transport error any client hit.
pub fn run_load(addr: impl ToSocketAddrs, cfg: &LoadConfig) -> Result<LoadReport> {
    let invalid = |parameter, value, reason| {
        Err(NetError::InvalidLoad {
            parameter,
            value,
            reason,
        })
    };
    if cfg.connections > MAX_CONNS {
        return invalid(
            "connections",
            cfg.connections,
            "more than a server plane serves",
        );
    }
    if cfg.batch > protocol::MAX_BATCH_KEYS {
        return invalid("batch", cfg.batch, "must fit one BATCH frame");
    }
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| NetError::io("resolve ingest address", e))?
        .next()
        .ok_or_else(|| {
            NetError::io(
                "resolve ingest address",
                std::io::Error::new(std::io::ErrorKind::NotFound, "no address"),
            )
        })?;
    let connections = cfg.connections.max(1);
    let started = Instant::now();
    let mut workers = Vec::with_capacity(connections);
    for conn_index in 0..connections {
        let cfg = *cfg;
        workers.push(std::thread::spawn(move || -> Result<Duration> {
            let mut client = IngestClient::connect(addr)?;
            let conn_started = Instant::now();
            let mut batch = Vec::with_capacity(cfg.batch.max(1));
            let mut index = 0u64;
            while index < cfg.tuples_per_connection {
                batch.clear();
                while batch.len() < cfg.batch.max(1) && index < cfg.tuples_per_connection {
                    batch.push(synth_key(cfg.seed, conn_index as u64, index, cfg.domain));
                    index += 1;
                }
                client.send_batch(&batch)?;
            }
            client.sync()?;
            let elapsed = conn_started.elapsed();
            client.finish()?;
            Ok(elapsed)
        }));
    }
    let mut per_connection_tps = Vec::with_capacity(connections);
    let mut first_error = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok(elapsed)) => {
                let secs = elapsed.as_secs_f64().max(1e-9);
                per_connection_tps.push(cfg.tuples_per_connection as f64 / secs);
            }
            Ok(Err(e)) => first_error = first_error.or(Some(e)),
            Err(_) => {
                first_error = first_error.or(Some(NetError::ThreadPanicked { thread: "ingest" }));
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let elapsed = started.elapsed();
    let tuples = cfg.tuples_per_connection * connections as u64;
    Ok(LoadReport {
        tuples,
        elapsed,
        tuples_per_sec: tuples as f64 / elapsed.as_secs_f64().max(1e-9),
        per_connection_tps,
    })
}
