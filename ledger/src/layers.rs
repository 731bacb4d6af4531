//! The replay: each crate's public function timed alone, single-threaded,
//! on the run's own key block.
//!
//! Per-tuple rows take the block as [`PASSES`] consecutive windows of
//! 2^16 keys; per-call rows make [`CALLS`] calls. Like every timed number
//! of the benchmark, a row is the quiet-side decile of its samples. Every summary is pre-loaded with one pass of
//! the block first, so top-k admission and KLL compaction are in their
//! steady state, as they are in the measured phases.

use crate::input::{Input, BLOCK, GRAIN};
use crate::stats::quiet_time;
use crate::sut::{multi_spec, request_lines, QUEUE_DEPTH, SAMPLE_P};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::{JoinSchema, MultiSummary, Portable, SlimMultiSummary, SlimQuery, Summary};
use sss_net::protocol::{self, FrameReader};
use sss_net::{IngestClient, QueryClient, RunningServer, ServerConfig};
use sss_sampling::GeometricSkip;
use sss_sketch::{CountSketchTopK, FagmsSchema, HyperLogLog, KllSketch};
use sss_stream::{RuntimeConfig, ShardedRuntime};
use sss_xi::{BucketFamily, Cw2Bucket, Cw4, Dispatch, SignFamily};
use std::hint::black_box;
use std::time::Instant;

/// Windows per per-tuple row; `PASSES × WINDOW` is exactly the block.
const PASSES: usize = 16;
const WINDOW: usize = BLOCK / PASSES;
/// Keys per batch on the bulk paths.
const BATCH: usize = 4096;
/// Calls per per-call row.
const CALLS: usize = 64;

pub type Rows = Vec<(&'static str, f64)>;

/// A summary that does nothing, so a runtime built on it costs only the
/// transport: buffer pool, copy, ring, wake-ups.
#[derive(Clone)]
struct Null;

impl Summary for Null {
    fn update(&mut self, _key: u64, _count: i64) {}
    fn update_batch(&mut self, keys: &[u64]) {
        black_box(keys);
    }
    fn merge_from(&mut self, _other: &Self) -> sss_core::Result<()> {
        Ok(())
    }
}

/// Quiet-decile ns per tuple of `f` over the block's windows.
fn per_tuple(keys: &[u64], mut f: impl FnMut(&[u64])) -> f64 {
    let samples: Vec<f64> = keys
        .chunks_exact(WINDOW)
        .map(|window| {
            let t = Instant::now();
            f(black_box(window));
            t.elapsed().as_nanos() as f64 / WINDOW as f64
        })
        .collect();
    quiet_time(&samples)
}

/// Quiet decile of [`CALLS`] samples; `one` returns each sample in µs.
fn quiet_of_calls(mut one: impl FnMut() -> f64) -> f64 {
    quiet_time(&(0..CALLS).map(|_| one()).collect::<Vec<_>>())
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Quiet-decile µs per call of `f`.
fn per_call_us<T>(mut f: impl FnMut() -> T) -> f64 {
    quiet_of_calls(|| {
        let t = Instant::now();
        black_box(f());
        us_since(t)
    })
}

fn must<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("replay {what}: {e}"))
}

pub fn replay(input: &Input) -> Result<Rows, String> {
    let keys = &input.keys[..];
    let mut rows = Rows::new();
    kernels(keys, &mut rows)?;
    composites(keys, &mut rows)?;
    transport(keys, &mut rows)?;
    read_path(keys, &mut rows)?;
    wire(keys, &mut rows)?;
    Ok(rows)
}

/// `sss-xi`, `sss-sketch`, `sss-sampling`: the kernels under the fan-out.
fn kernels(keys: &[u64], rows: &mut Rows) -> Result<(), String> {
    // MultiSpec::new's geometries, one summary at a time.
    let mut rng = StdRng::seed_from_u64(1);
    let sign = Cw4::random(&mut rng);
    let bucket = Cw2Bucket::random(&mut rng);
    let (sc, bc) = (
        SignFamily::poly_coeffs(&sign).expect("cw4 is polynomial"),
        BucketFamily::poly_coeffs(&bucket).expect("cw2 is polynomial"),
    );
    let mut counters = vec![0i64; 5000];
    let d = Dispatch::get();
    rows.push((
        "xi.signed_scatter_ns_per_tuple",
        per_tuple(keys, |w| {
            sss_xi::kernels::signed_scatter(d, sc, bc, 5000, w, &mut counters)
        }),
    ));
    black_box(&counters);

    let mut join = JoinSchema::fagms(3, 5000, &mut rng).sketch();
    join.update_batch(keys);
    rows.push((
        "sketch.fagms_update_ns_per_tuple",
        per_tuple(keys, |w| join.update_batch(w)),
    ));
    rows.push((
        "sketch.self_join_estimate_us",
        per_call_us(|| sss_core::JoinQuery::self_join_estimate(&join)),
    ));

    let mut topk = must(
        "topk",
        CountSketchTopK::new(&FagmsSchema::<Cw4, Cw2Bucket>::new(5, 2048, &mut rng), 256),
    )?;
    Summary::update_batch(&mut topk, keys);
    rows.push((
        "sketch.topk_update_ns_per_tuple",
        per_tuple(keys, |w| Summary::update_batch(&mut topk, w)),
    ));

    let mut hll = must("hll", HyperLogLog::with_seed(12, 3))?;
    Summary::update_batch(&mut hll, keys);
    rows.push((
        "sketch.hll_update_ns_per_tuple",
        per_tuple(keys, |w| Summary::update_batch(&mut hll, w)),
    ));

    let mut kll = must("kll", KllSketch::with_seed(200, 4))?;
    Summary::update_batch(&mut kll, keys);
    rows.push((
        "sketch.kll_update_ns_per_tuple",
        per_tuple(keys, |w| Summary::update_batch(&mut kll, w)),
    ));

    // The skip sampler alone: draw gaps until the window is crossed.
    let mut skip = must("sampler", GeometricSkip::<StdRng>::new(SAMPLE_P, &mut rng))?;
    rows.push((
        "sampling.skip_ns_per_tuple",
        per_tuple(keys, |w| {
            let mut pos = 0u64;
            while pos < w.len() as u64 {
                pos += skip.next_gap() + 1;
            }
            black_box(pos);
        }),
    ));
    Ok(())
}

/// `sss-core`: the fan-out, the sampler in front of it, and everything
/// the read path does to a fat summary.
fn composites(keys: &[u64], rows: &mut Rows) -> Result<(), String> {
    let spec = multi_spec();
    let empty = must("summary", spec.summary())?;
    let mut multi = empty.clone();
    multi.update_batch(keys);
    rows.push((
        "core.multi_update_ns_per_tuple",
        per_tuple(keys, |w| multi.update_batch(w)),
    ));

    let mut sampler_rng = StdRng::seed_from_u64(2);
    let mut sampled = must("sampled", spec.sampled(SAMPLE_P, &mut sampler_rng))?;
    sampled.update_batch(keys);
    rows.push((
        "core.sampled_update_ns_per_tuple",
        per_tuple(keys, |w| sampled.update_batch(w)),
    ));

    rows.push(("core.multi_clone_us", per_call_us(|| multi.clone())));
    let mut targets = vec![empty; CALLS];
    rows.push((
        "core.multi_merge_us",
        per_call_us(|| {
            let mut target = targets.pop().expect("one target per call");
            target.merge_from(&multi).expect("same spec merges");
            target
        }),
    ));

    rows.push(("core.slim_project_us", per_call_us(|| multi.slim())));
    let slim = multi.slim();
    let slim_bytes = must("slim encode", slim.encode())?;
    rows.push(("core.slim_encode_us", per_call_us(|| slim.encode())));
    rows.push((
        "core.slim_decode_us",
        per_call_us(|| SlimMultiSummary::decode(&slim_bytes)),
    ));
    rows.push(("core.slim_bytes", slim_bytes.len() as f64));

    let snapshot = must("snapshot encode", multi.encode())?;
    rows.push(("core.snapshot_encode_us", per_call_us(|| multi.encode())));
    rows.push((
        "core.snapshot_decode_us",
        per_call_us(|| MultiSummary::decode(&snapshot)),
    ));
    rows.push(("core.snapshot_bytes", snapshot.len() as f64));
    Ok(())
}

fn one_shard() -> RuntimeConfig {
    RuntimeConfig {
        shards: 1,
        queue_depth: QUEUE_DEPTH,
        ..RuntimeConfig::default()
    }
}

/// `sss-stream`, write side: what a push costs when the summary behind
/// the ring costs nothing.
fn transport(keys: &[u64], rows: &mut Rows) -> Result<(), String> {
    let mut rt = must("null runtime", ShardedRuntime::new(one_shard(), &Null))?;
    // Fill the buffer pool first, so the rows see recycled buffers only.
    for batch in keys.chunks_exact(BATCH).take(2 * QUEUE_DEPTH) {
        must("push", rt.push(batch))?;
    }
    must("merged", rt.merged())?;
    rows.push((
        "stream.push_ns_per_tuple",
        per_tuple(keys, |w| {
            for batch in w.chunks_exact(BATCH) {
                rt.push(batch).expect("null worker is alive");
            }
        }),
    ));
    rows.push((
        "stream.push_loaned_ns_per_tuple",
        per_tuple(keys, |w| {
            for batch in w.chunks_exact(BATCH) {
                let mut loan = rt.loan_batch_buf(BATCH);
                loan.extend_from_slice(batch);
                rt.push_loaned(loan).expect("null worker is alive");
            }
        }),
    ));
    // One ring hop: tiny batches, so the copy vanishes and the buffer
    // pool, the ring cursors and the wake-up remain.
    let tiny: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            for k in keys.chunks_exact(8).take(256) {
                rt.push(k).expect("null worker is alive");
            }
            t.elapsed().as_nanos() as f64 / 256.0
        })
        .collect();
    rows.push(("stream.ring_hop_ns_per_batch", quiet_time(&tiny)));
    must("merged", rt.merged())?;
    Ok(())
}

/// `sss-stream`, read side, on a one-shard runtime holding the block.
fn read_path(keys: &[u64], rows: &mut Rows) -> Result<(), String> {
    let prototype = must("summary", multi_spec().summary())?;
    let mut rt = must("runtime", ShardedRuntime::new(one_shard(), &prototype))?;
    for batch in keys.chunks_exact(BATCH) {
        must("push", rt.push(batch))?;
    }
    must("merged", rt.merged())?;
    rows.push((
        "stream.merged_clean_us",
        per_call_us(|| rt.merged().expect("worker is alive")),
    ));
    // One fresh 512-key batch, untimed, before every timed call.
    let mut fresh = keys.chunks_exact(GRAIN).cycle();
    rows.push((
        "stream.merged_dirty_us",
        quiet_of_calls(|| {
            rt.push(fresh.next().expect("cycle"))
                .expect("worker is alive");
            let t = Instant::now();
            black_box(rt.merged().expect("worker is alive"));
            us_since(t)
        }),
    ));
    let mut replica = must("replica", rt.read_replica(0))?;
    rows.push((
        "stream.replica_refresh_us",
        quiet_of_calls(|| {
            rt.push(fresh.next().expect("cycle"))
                .expect("worker is alive");
            let t = Instant::now();
            black_box(replica.refresh().expect("worker is alive"));
            us_since(t)
        }),
    ));
    Ok(())
}

/// `sss-net`: the frame codec alone, then one request of each kind
/// against an in-process server holding the block.
fn wire(keys: &[u64], rows: &mut Rows) -> Result<(), String> {
    let mut out = Vec::with_capacity(WINDOW * 8 + 1024);
    rows.push((
        "net.encode_ns_per_tuple",
        per_tuple(keys, |w| {
            out.clear();
            for batch in w.chunks_exact(BATCH) {
                protocol::write_batch(&mut out, batch);
            }
            black_box(&out);
        }),
    ));
    // `out` now holds the last window's frames: decode them the way the
    // ingest loop does, into one reused buffer.
    let frames = out.clone();
    let mut reader = FrameReader::new();
    let mut decoded: Vec<u64> = Vec::with_capacity(BATCH);
    rows.push((
        "net.decode_ns_per_tuple",
        per_tuple(keys, |_| {
            reader.extend(&frames);
            while let Some((_, payload)) = reader.next_frame().expect("own frames") {
                decoded.clear();
                protocol::decode_batch_into(payload, &mut decoded).expect("own frames");
                black_box(&decoded);
            }
        }),
    ));
    let lines = request_lines();
    // A thousand parses per call: µs per call is ns per parse.
    rows.push((
        "net.parse_query_ns",
        per_call_us(|| {
            for _ in 0..1000 {
                black_box(protocol::parse_query_line(black_box(&lines[0])).expect("valid line"));
            }
        }),
    ));

    let config = ServerConfig {
        runtime: one_shard(),
        ..ServerConfig::default()
    };
    let server = must("server", RunningServer::start(config, &multi_spec()))?;
    let mut ingest = must("connect", IngestClient::connect(server.ingest_addr()))?;
    let mut query = must("connect", QueryClient::connect(server.query_addr()))?;
    for batch in keys.chunks_exact(BATCH) {
        must("send", ingest.send_batch(batch))?;
    }
    must("sync", ingest.sync())?;
    let request_rows = [
        "net.query_self_join_us",
        "net.query_distinct_us",
        "net.query_quantile_us",
        "net.query_topk_us",
    ];
    let mut fresh = keys.chunks_exact(GRAIN).cycle();
    let mut sync_us = Vec::with_capacity(CALLS);
    let mut request_us = vec![Vec::with_capacity(CALLS); lines.len()];
    for _ in 0..CALLS {
        must("send", ingest.send_batch(fresh.next().expect("cycle")))?;
        let t = Instant::now();
        must("sync", ingest.sync())?;
        sync_us.push(us_since(t));
        // The first request after a write pays the replica refresh; the
        // other three reuse its frame — the order `wire_fresh` uses.
        for (line, samples) in lines.iter().zip(&mut request_us) {
            let t = Instant::now();
            let response = must("request", query.request(line))?;
            samples.push(us_since(t));
            if !response.contains("\"ok\":true") {
                return Err(format!("replay request refused: {response}"));
            }
        }
    }
    rows.push(("net.sync_rtt_us", quiet_time(&sync_us)));
    for (name, samples) in request_rows.into_iter().zip(&request_us) {
        rows.push((name, quiet_time(samples)));
    }
    drop((ingest, query));
    must("server shutdown", server.shutdown_and_wait())?;
    Ok(())
}
