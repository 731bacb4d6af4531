//! The three ways a workload reaches the system: in process at p = 1, in
//! process behind the Bernoulli sampler, and over the wire to a child
//! `sss serve`. Each wraps its calls into the measured crates in spans.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::{JoinSchema, MultiSpec, MultiSummary, Sampled, Summary};
use sss_net::protocol::{response_f64, response_u64};
use sss_net::{IngestClient, QueryClient};
use sss_stream::{Partition, QueryHandle, ReadReplica, RuntimeConfig, ShardedRuntime};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Confidence level of every interval the harness asks for.
pub const CONFIDENCE: f64 = 0.99;
/// Inclusion probability of the sampled workload.
pub const SAMPLE_P: f64 = 0.1;
/// Ring depth on every path (the `sss serve` default, passed explicitly).
pub const QUEUE_DEPTH: usize = 64;
/// Seed of the sketch hash families: the `sss serve --seed` default, so
/// the in-process summaries are the served ones.
const SKETCH_SEED: u64 = 1;
/// Seed of the Bernoulli skip sampler (program configuration).
const SAMPLER_SEED: u64 = 2;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The summaries every path runs: `sss serve`'s own construction.
pub fn multi_spec() -> MultiSpec {
    let mut rng = StdRng::seed_from_u64(SKETCH_SEED);
    MultiSpec::new(JoinSchema::fagms(3, 5000, &mut rng), &mut rng)
}

/// The four query-plane reads, in the order `wire_fresh` issues them
/// after a write: `self_join` (which pays the replica refresh), then
/// `distinct`, `quantile 0.5`, `topk 10`.
pub fn request_lines() -> [String; 4] {
    [
        format!("{{\"cmd\":\"self_join\",\"confidence\":{CONFIDENCE}}}"),
        format!("{{\"cmd\":\"distinct\",\"confidence\":{CONFIDENCE}}}"),
        "{\"cmd\":\"quantile\",\"q\":0.5}".to_string(),
        format!("{{\"cmd\":\"topk\",\"k\":10,\"confidence\":{CONFIDENCE}}}"),
    ]
}

/// The span around each of [`request_lines`].
const REQUEST_SPANS: [&str; 4] = [
    "net.request.self_join",
    "net.request.distinct",
    "net.request.quantile",
    "net.request.topk",
];

/// One served `self_join`: point value and 99% Chebyshev half-width.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub value: f64,
    pub half_width: f64,
}

impl Answer {
    /// Whether `exact` lies inside the served interval (a non-finite
    /// answer covers nothing).
    pub fn covers(&self, exact: f64) -> bool {
        (self.value - exact).abs() <= self.half_width
    }
}

/// What a path reports once, after the timed phases.
#[derive(Debug, Default)]
pub struct Finals {
    pub distinct: f64,
    pub top10: Vec<u64>,
    pub median: f64,
    /// Tuples the runtime applied (must equal tuples sent).
    pub runtime_tuples: u64,
    pub pool_reuses: u64,
    /// Tuples kept ÷ tuples offered (1 without a sampler).
    pub kept_share: f64,
    pub queue_high_water: u64,
    pub cache_hits: u64,
    pub cache_rebuilds: u64,
    pub protocol_errors: u64,
}

pub trait Sut {
    /// Hand one batch to the system.
    fn send(&mut self, keys: &[u64], tr: &mut Tracer) -> Res<()>;
    /// The barrier: an at-all-times `self_join` reflecting every batch
    /// sent so far, with its 99% interval.
    fn query(&mut self, tr: &mut Tracer) -> Res<Answer>;
    /// Extra untimed reads after a fresh iteration; returns how many were
    /// issued and how many the system refused.
    fn side_reads(&mut self, _tr: &mut Tracer) -> Res<(u64, u64)> {
        Ok((0, 0))
    }
    /// Batch buffers the runtime has allocated so far.
    fn pool_allocations(&mut self) -> Res<u64>;
    fn finals(&mut self) -> Res<Finals>;
    /// The process whose on-CPU time is `cpu_ns_per_tuple`.
    fn cpu_pid(&self) -> u32;
    /// Shards behind this path (sizes the pool-growth gate).
    fn shards(&self) -> usize;
}

/// Spawn the one-shard runtime both in-process paths run on.
fn one_shard_runtime<E: Summary>(prototype: &E) -> Res<ShardedRuntime<E>> {
    let config = RuntimeConfig {
        shards: 1,
        queue_depth: QUEUE_DEPTH,
        partition: Partition::RoundRobin,
    };
    ShardedRuntime::new(config, prototype).map_err(err("runtime"))
}

fn traced_push<E: Summary>(rt: &mut ShardedRuntime<E>, keys: &[u64], tr: &mut Tracer) -> Res<()> {
    let s = tr.enter("stream.push");
    let r = rt.push(keys);
    tr.exit(s);
    r.map_err(err("push"))
}

/// The gauges an in-process runtime reports; the answers are the caller's.
fn runtime_finals<E: Summary>(rt: &ShardedRuntime<E>) -> Finals {
    let cache = rt.cache_stats();
    Finals {
        runtime_tuples: rt.tuples_ingested(),
        pool_reuses: rt.pool_stats().reuses,
        kept_share: 1.0,
        queue_high_water: rt.queue_high_water() as u64,
        cache_hits: cache.hits,
        cache_rebuilds: cache.partial_rebuilds + cache.full_rebuilds,
        ..Finals::default()
    }
}

// ---------------------------------------------------------------------------
// inproc_full
// ---------------------------------------------------------------------------

pub struct InprocFull {
    rt: ShardedRuntime<MultiSummary>,
    replica: ReadReplica<MultiSummary>,
}

impl InprocFull {
    pub fn start() -> Res<Self> {
        let prototype = multi_spec().summary().map_err(err("summary"))?;
        let rt = one_shard_runtime(&prototype)?;
        let replica = rt.read_replica(0).map_err(err("replica"))?;
        Ok(Self { rt, replica })
    }
}

impl Sut for InprocFull {
    fn send(&mut self, keys: &[u64], tr: &mut Tracer) -> Res<()> {
        traced_push(&mut self.rt, keys, tr)
    }

    fn query(&mut self, tr: &mut Tracer) -> Res<Answer> {
        let s = tr.enter("stream.replica_self_join");
        let est = self.replica.self_join_estimate();
        tr.exit(s);
        answer_of(&est.map_err(err("replica self_join"))?)
    }

    fn pool_allocations(&mut self) -> Res<u64> {
        Ok(self.rt.pool_stats().allocations)
    }

    fn finals(&mut self) -> Res<Finals> {
        Ok(Finals {
            distinct: self
                .replica
                .distinct_estimate()
                .map_err(err("distinct"))?
                .value,
            top10: self
                .replica
                .top_k(10)
                .map_err(err("top_k"))?
                .into_iter()
                .map(|(k, _)| k)
                .collect(),
            median: self.replica.quantile(0.5).map_err(err("quantile"))?,
            ..runtime_finals(&self.rt)
        })
    }

    fn cpu_pid(&self) -> u32 {
        std::process::id()
    }

    fn shards(&self) -> usize {
        1
    }
}

fn answer_of(est: &sss_core::Estimate) -> Res<Answer> {
    let interval = est.chebyshev(CONFIDENCE).map_err(err("interval"))?;
    Ok(Answer {
        value: est.value,
        half_width: interval.half_width(),
    })
}

// ---------------------------------------------------------------------------
// inproc_sampled
// ---------------------------------------------------------------------------

pub struct InprocSampled {
    rt: ShardedRuntime<Sampled<MultiSummary>>,
    handle: QueryHandle<Sampled<MultiSummary>>,
}

impl InprocSampled {
    pub fn start() -> Res<Self> {
        let mut sampler_rng = StdRng::seed_from_u64(SAMPLER_SEED);
        let prototype = multi_spec()
            .sampled(SAMPLE_P, &mut sampler_rng)
            .map_err(err("sampled summary"))?;
        let rt = one_shard_runtime(&prototype)?;
        let handle = rt.query_handle();
        Ok(Self { rt, handle })
    }
}

impl Sut for InprocSampled {
    fn send(&mut self, keys: &[u64], tr: &mut Tracer) -> Res<()> {
        traced_push(&mut self.rt, keys, tr)
    }

    fn query(&mut self, tr: &mut Tracer) -> Res<Answer> {
        let s = tr.enter("stream.merged");
        let merged = self.handle.merged();
        tr.exit(s);
        let merged = merged.map_err(err("merged"))?;
        let s = tr.enter("core.sampled_self_join");
        let est = merged.self_join_estimate();
        tr.exit(s);
        answer_of(&est)
    }

    fn pool_allocations(&mut self) -> Res<u64> {
        Ok(self.rt.pool_stats().allocations)
    }

    fn finals(&mut self) -> Res<Finals> {
        let merged = self.handle.merged().map_err(err("merged"))?;
        Ok(Finals {
            distinct: merged.distinct_estimate().value,
            top10: merged.top_k(10).into_iter().map(|(k, _)| k).collect(),
            median: merged.quantile(0.5).map_err(err("quantile"))?,
            kept_share: merged.kept() as f64 / merged.seen().max(1) as f64,
            ..runtime_finals(&self.rt)
        })
    }

    fn cpu_pid(&self) -> u32 {
        std::process::id()
    }

    fn shards(&self) -> usize {
        1
    }
}

// ---------------------------------------------------------------------------
// wire_bulk, wire_fresh
// ---------------------------------------------------------------------------

/// A child `sss serve` on ephemeral ports. Killed and reaped on drop, on
/// every exit path; its pid is also left in `<out>/serve-<pid>.pid` while
/// it lives so `run.sh` can kill it if the harness itself is killed.
struct ServeChild {
    child: Child,
    pid_file: PathBuf,
    ingest_addr: String,
    query_addr: String,
}

impl ServeChild {
    fn spawn(sss: &Path, out_dir: &Path, shards: usize, hash: bool) -> Res<Self> {
        let mut child = Command::new(sss)
            .arg("serve")
            .arg("--ingest=127.0.0.1:0")
            .arg("--query=127.0.0.1:0")
            .arg(format!("--shards={shards}"))
            .arg(format!("--queue-depth={QUEUE_DEPTH}"))
            .arg(format!("--partition={}", if hash { "hash" } else { "rr" }))
            .arg(format!("--seed={SKETCH_SEED}"))
            .arg("--max-pending=0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", sss.display()))?;
        let pid_file = out_dir.join(format!("serve-{}.pid", child.id()));
        let _ = std::fs::write(&pid_file, child.id().to_string());
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut serve = ServeChild {
            child,
            pid_file,
            ingest_addr: String::new(),
            query_addr: String::new(),
        };
        // The banner: `ingest <addr>`, `query <addr>`, `fingerprint <hex>`.
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(err("read banner"))?;
            let mut words = line.split_ascii_whitespace();
            match (words.next(), words.next()) {
                (Some("ingest"), Some(addr)) => serve.ingest_addr = addr.to_string(),
                (Some("query"), Some(addr)) => serve.query_addr = addr.to_string(),
                (Some("fingerprint"), _) => break,
                _ => {}
            }
        }
        if serve.ingest_addr.is_empty() || serve.query_addr.is_empty() {
            return Err("sss serve exited before printing its banner".to_string());
        }
        Ok(serve)
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.pid_file);
    }
}

pub struct Wire {
    // Field order is drop order: hang up both connections, then stop the
    // server.
    ingest: IngestClient,
    query: QueryClient,
    serve: ServeChild,
    shards: usize,
    with_side_reads: bool,
    lines: [String; 4],
}

impl Wire {
    /// `wire_bulk`: one round-robin shard. `wire_fresh`: two hash shards
    /// and three more reads after every fresh iteration.
    pub fn start(sss: &Path, out_dir: &Path, fresh: bool) -> Res<Self> {
        let shards = if fresh { 2 } else { 1 };
        let serve = ServeChild::spawn(sss, out_dir, shards, fresh)?;
        let ingest =
            IngestClient::connect(serve.ingest_addr.as_str()).map_err(err("connect ingest"))?;
        let query =
            QueryClient::connect(serve.query_addr.as_str()).map_err(err("connect query"))?;
        Ok(Self {
            ingest,
            query,
            serve,
            shards,
            with_side_reads: fresh,
            lines: request_lines(),
        })
    }

    /// Query-plane request `which` of [`request_lines`]; `Ok(None)` when
    /// the server answered `"ok":false` (a refusal, counted as a failed
    /// operation).
    fn request(&mut self, which: usize, tr: &mut Tracer) -> Res<Option<String>> {
        let s = tr.enter(REQUEST_SPANS[which]);
        let response = self.query.request(&self.lines[which]);
        tr.exit(s);
        let response = response.map_err(err("query request"))?;
        Ok(response.contains("\"ok\":true").then_some(response))
    }

    fn stats(&mut self) -> Res<String> {
        self.query.stats_line().map_err(err("stats"))
    }
}

fn field(line: &str, name: &str) -> Res<f64> {
    response_f64(line, name).ok_or_else(|| format!("response lacks {name}: {line}"))
}

fn count(line: &str, name: &str) -> Res<u64> {
    response_u64(line, name).ok_or_else(|| format!("response lacks {name}: {line}"))
}

impl Sut for Wire {
    fn send(&mut self, keys: &[u64], tr: &mut Tracer) -> Res<()> {
        let s = tr.enter("net.send_batch");
        let r = self.ingest.send_batch(keys);
        tr.exit(s);
        r.map_err(err("send_batch"))
    }

    fn query(&mut self, tr: &mut Tracer) -> Res<Answer> {
        let s = tr.enter("net.sync");
        let r = self.ingest.sync();
        tr.exit(s);
        r.map_err(err("sync"))?;
        let response = self.request(0, tr)?.ok_or("self_join refused")?;
        Ok(Answer {
            value: f64::from_bits(count(&response, "value_bits")?),
            half_width: field(&response, "half_width_chebyshev")?,
        })
    }

    fn side_reads(&mut self, tr: &mut Tracer) -> Res<(u64, u64)> {
        if !self.with_side_reads {
            return Ok((0, 0));
        }
        let mut refused = 0;
        for which in 1..4 {
            refused += u64::from(self.request(which, tr)?.is_none());
        }
        Ok((3, refused))
    }

    fn pool_allocations(&mut self) -> Res<u64> {
        count(&self.stats()?, "pool_allocations")
    }

    fn finals(&mut self) -> Res<Finals> {
        let mut off = Tracer::new(false);
        let distinct = self.request(1, &mut off)?.ok_or("distinct refused")?;
        let median = self.request(2, &mut off)?.ok_or("quantile refused")?;
        let topk = self.request(3, &mut off)?.ok_or("topk refused")?;
        let stats = self.stats()?;
        let served = count(&stats, "tuples")?;
        let applied = count(&stats, "runtime_tuples")?;
        if served != applied {
            return Err(format!(
                "server accepted {served} tuples, runtime applied {applied}"
            ));
        }
        Ok(Finals {
            distinct: field(&distinct, "value")?,
            top10: topk
                .match_indices("\"key\":")
                .filter_map(|(at, key)| {
                    let rest = &topk[at + key.len()..];
                    rest[..rest.find(',')?].parse().ok()
                })
                .collect(),
            median: field(&median, "value")?,
            runtime_tuples: applied,
            pool_reuses: count(&stats, "pool_reuses")?,
            kept_share: 1.0,
            // The ring gauge and the snapshot cache are not on the wire.
            queue_high_water: 0,
            cache_hits: 0,
            cache_rebuilds: 0,
            protocol_errors: count(&stats, "protocol_errors")?,
        })
    }

    fn cpu_pid(&self) -> u32 {
        self.serve.child.id()
    }

    fn shards(&self) -> usize {
        self.shards
    }
}
