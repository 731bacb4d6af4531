//! The speed-up mechanism itself: processing a stream through a full
//! sketch vs through a Bernoulli shedder at various p. The per-*stream-
//! tuple* cost of the shedded pipeline must fall roughly as p falls, which
//! is exactly the paper's claimed speed-up. The `shed_batched` lines run
//! the same sampler through `feed_batch`, which jumps the geometric gaps
//! instead of branching per tuple. The `runtime_door` lines are the
//! product path: a one-shard `ShardedRuntime` over a `Sampled` prototype,
//! fed by `push` in 512-tuple batches, whose producer tosses the coins
//! before the ring so only kept keys cross it. Pushes are asynchronous;
//! behind a bounded ring the loop runs at the slower of producer and
//! worker, which is the rate a source sees. The `door/admit` lines time the
//! door alone: each iteration offers the stream in 4096-key slices to
//! `Door::admit`, so `1e9 / elements_per_sec` is its cost per offered
//! tuple, and that times `1/p` its cost per kept key.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::JoinSchema;
use sss_core::Sampled;
use sss_sampling::Door;
use sss_stream::{RuntimeConfig, ShardedRuntime};
use std::hint::black_box;

const TUPLES: u64 = 16_384;

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let keys: Vec<u64> = (0..TUPLES).collect();
    let mut group = c.benchmark_group("sampled_update");
    group.throughput(Throughput::Elements(TUPLES));

    // The expensive-update backend, where shedding pays off most.
    let agms = JoinSchema::agms(64, &mut rng);
    // The cheap-update backend of the paper's experiments.
    let fagms = JoinSchema::fagms(1, 5000, &mut rng);

    for p in [0.1, 0.01] {
        group.bench_function(BenchmarkId::new("door/admit", p), |b| {
            let mut door = Door::new(p, 7).expect("valid probability");
            let mut kept = Vec::with_capacity(4096);
            b.iter(|| {
                for slice in keys.chunks(4096) {
                    kept.clear();
                    door.admit(black_box(slice), &mut kept);
                }
                black_box(kept.len())
            })
        });
    }

    for (name, schema) in [("agms64", &agms), ("fagms5000", &fagms)] {
        group.bench_function(BenchmarkId::new(format!("{name}/full"), 1.0), |b| {
            let mut s = schema.sketch();
            b.iter(|| {
                for &key in &keys {
                    s.update(black_box(key), 1);
                }
            })
        });
        group.bench_function(BenchmarkId::new(format!("{name}/full_batched"), 1.0), |b| {
            let mut s = schema.sketch();
            b.iter(|| s.update_batch(black_box(&keys)))
        });
        for p in [0.1, 0.01] {
            group.bench_function(BenchmarkId::new(format!("{name}/shed"), p), |b| {
                let mut shed =
                    Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                b.iter(|| {
                    for &key in &keys {
                        shed.observe(black_box(key));
                    }
                })
            });
            group.bench_function(BenchmarkId::new(format!("{name}/shed_batched"), p), |b| {
                let mut shed =
                    Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                b.iter(|| shed.feed_batch(black_box(&keys)))
            });
        }
        for p in [1.0, 0.1, 0.01] {
            group.bench_function(BenchmarkId::new(format!("{name}/runtime_door"), p), |b| {
                let prototype =
                    Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                let mut rt = ShardedRuntime::new(RuntimeConfig::default(), &prototype)
                    .expect("valid config");
                b.iter(|| {
                    for batch in keys.chunks(512) {
                        rt.push(black_box(batch)).expect("worker alive");
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(sampled, benches);
criterion_main!(sampled);
