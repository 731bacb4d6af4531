//! Ingestion cost of the composite `MultiSummary` vs feeding its four
//! constituents separately — the microbench behind the `multi_summary`
//! acceptance bin.
//!
//! At `p = 1` the composite deduplicates each chunk once for three of its
//! parts where the four separate summaries each walk the batch, so
//! `one_pass/full` vs `four_passes/full` is what sharing the key runs
//! buys. At `p = 0.1` the composite skip-samples the batch once where
//! four separate `Sampled` lenses scan it four times, which is the
//! mechanism the 2× acceptance gate rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::JoinSchema;
use sss_core::{MultiSpec, Sampled, Summary};
use sss_datagen::ZipfGenerator;
use sss_sketch::{HyperLogLog, KllSketch, MisraGries};
use std::hint::black_box;

const TUPLES: usize = 16_384;

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let keys = ZipfGenerator::new(100_000, 1.2).relation(TUPLES, &mut rng);
    let mut group = c.benchmark_group("multi_summary");
    group.throughput(Throughput::Elements(TUPLES as u64));

    let join_schema = JoinSchema::fagms(3, 4096, &mut rng);
    let spec = MultiSpec::new(join_schema.clone(), &mut rng).top_k(256);

    // Full-rate ingestion: composite fan-out vs four separate summaries.
    group.bench_function(BenchmarkId::new("one_pass/full", 1.0), |b| {
        let mut multi = spec.summary().expect("spec");
        b.iter(|| multi.update_batch(black_box(&keys)))
    });
    group.bench_function(BenchmarkId::new("four_passes/full", 1.0), |b| {
        let mut join = join_schema.sketch();
        let mut topk = MisraGries::new(256).expect("topk");
        let mut hll = HyperLogLog::with_seed(12, 1).expect("hll");
        let mut kll = KllSketch::with_seed(200, 2).expect("kll");
        b.iter(|| {
            Summary::update_batch(&mut join, black_box(&keys));
            Summary::update_batch(&mut topk, black_box(&keys));
            Summary::update_batch(&mut hll, black_box(&keys));
            Summary::update_batch(&mut kll, black_box(&keys));
        })
    });

    // Sampled ingestion: one skip-scan of the batch vs four.
    for p in [0.1, 0.05] {
        group.bench_function(BenchmarkId::new("one_pass/sampled", p), |b| {
            let mut multi = spec.sampled(p, &mut rng).expect("spec");
            b.iter(|| multi.feed_batch(black_box(&keys)))
        });
        group.bench_function(BenchmarkId::new("four_passes/sampled", p), |b| {
            let mut join = Sampled::new(join_schema.sketch(), p, &mut rng).expect("join");
            let mg = MisraGries::new(256).expect("topk");
            let mut topk = Sampled::new(mg, p, &mut rng).expect("topk");
            let hll = HyperLogLog::new(12, &mut rng).expect("hll");
            let mut hll = Sampled::new(hll, p, &mut rng).expect("hll");
            let kll = KllSketch::new(200, &mut rng).expect("kll");
            let mut kll = Sampled::new(kll, p, &mut rng).expect("kll");
            b.iter(|| {
                join.feed_batch(black_box(&keys));
                topk.feed_batch(black_box(&keys));
                hll.feed_batch(black_box(&keys));
                kll.feed_batch(black_box(&keys));
            })
        });
    }
    group.finish();
}

criterion_group!(multi_summary, benches);
criterion_main!(multi_summary);
