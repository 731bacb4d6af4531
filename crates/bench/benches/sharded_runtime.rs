//! Ingest throughput of the persistent sharded runtime vs shard count.
//!
//! Each iteration spawns a fresh [`ShardedRuntime`], pushes a fixed
//! stream through it in batches, and merges on shutdown — the full
//! lifecycle a short-lived ingest task pays. Two sinks:
//!
//! * `cpu/N` — plain F-AGMS `JoinSketch` shards: bounded by the host's
//!   cores (on a single-core runner the lines collapse);
//! * `paced/N` — [`PacedSketch`] shards paying a fixed per-batch latency:
//!   worker sleeps overlap, so throughput scales with N even on one core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::{JoinSchema, JoinSketch};
use sss_core::{JoinQuery, Summary};
use sss_stream::{Partition, RuntimeConfig, ShardedRuntime};
use std::hint::black_box;
use std::time::Duration;

const TUPLES: usize = 200_000;
const BATCH: usize = 4_096;
const PAUSE_US: u64 = 50;

/// A latency-bound sink: every batch pays a fixed pause (a downstream
/// commit, a synchronous write, a remote round-trip) before the in-memory
/// sketch update. `thread::sleep` yields the core, so the pauses of
/// different shard workers overlap in wall-clock time.
#[derive(Debug, Clone)]
struct PacedSketch {
    inner: JoinSketch,
    pause: Duration,
}

impl Summary for PacedSketch {
    fn update(&mut self, key: u64, count: i64) {
        self.inner.update(key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        std::thread::sleep(self.pause);
        self.inner.update_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> sss_core::Result<()> {
        self.inner.merge(&other.inner)
    }
}

impl JoinQuery for PacedSketch {
    fn self_join(&self) -> f64 {
        self.inner.raw_self_join()
    }

    fn size_of_join(&self, other: &Self) -> sss_core::Result<f64> {
        self.inner.raw_size_of_join(&other.inner)
    }
}

fn ingest<E: Summary + JoinQuery>(prototype: &E, shards: usize, stream: &[u64]) -> E {
    let config = RuntimeConfig {
        shards,
        queue_depth: 8,
        partition: Partition::RoundRobin,
    };
    let mut rt = ShardedRuntime::new(config, prototype).expect("valid config");
    for chunk in stream.chunks(BATCH) {
        rt.push(chunk).expect("no shard died");
    }
    rt.into_merged().expect("merge after shutdown")
}

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    let schema = JoinSchema::fagms(1, 1_024, &mut rng);
    let stream: Vec<u64> = (0..TUPLES as u64)
        .map(|i| (i.wrapping_mul(2654435761)) % 10_000)
        .collect();
    let mut group = c.benchmark_group("sharded_runtime");
    group.throughput(Throughput::Elements(TUPLES as u64));
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("cpu", shards), |b| {
            b.iter(|| black_box(ingest(&schema.sketch(), shards, &stream)))
        });
        group.bench_function(BenchmarkId::new("paced", shards), |b| {
            let proto = PacedSketch {
                inner: schema.sketch(),
                pause: Duration::from_micros(PAUSE_US),
            };
            b.iter(|| black_box(ingest(&proto, shards, &stream)))
        });
    }
    group.finish();
}

criterion_group!(sharded_runtime, benches);
criterion_main!(sharded_runtime);
