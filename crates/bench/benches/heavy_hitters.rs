//! Update and query cost of the heavy-hitters summaries.
//!
//! Three ingest paths over the same skewed stream:
//!
//! * `offer/misra_gries` — deterministic counters, branchy min-eviction;
//! * `offer/count_sketch` — sketch row updates + candidate re-scoring;
//! * `sampled/p0.1` — the `Sampled` front end at a 10% Bernoulli
//!   rate, where geometric skips turn most tuples into a counter bump.
//!
//! Plus the query side: `top_k/50` re-scores every candidate against the
//! sketch and sorts — the O(capacity · depth) cost a caller pays per
//! snapshot, not per tuple.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::Sampled;
use sss_datagen::ZipfGenerator;
use sss_sketch::{CountSketchTopK, FagmsSchema, MisraGries};
use std::hint::black_box;

const TUPLES: usize = 100_000;
const K: usize = 50;

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(33);
    let stream = ZipfGenerator::new(100_000, 1.2).relation(TUPLES, &mut rng);
    let schema: FagmsSchema = FagmsSchema::new(5, 2048, &mut rng);

    let mut group = c.benchmark_group("heavy_hitters");
    group.throughput(Throughput::Elements(TUPLES as u64));
    group.bench_function(BenchmarkId::new("offer", "misra_gries"), |b| {
        b.iter(|| {
            let mut mg = MisraGries::new(4 * K).unwrap();
            mg.offer_batch(&stream);
            black_box(mg.items_offered())
        })
    });
    group.bench_function(BenchmarkId::new("offer", "count_sketch"), |b| {
        b.iter(|| {
            let mut cs = CountSketchTopK::new(&schema, 4 * K).unwrap();
            cs.offer_batch(&stream);
            black_box(cs.items_offered())
        })
    });
    group.bench_function(BenchmarkId::new("sampled", "p0.1"), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let tracker = CountSketchTopK::new(&schema, 4 * K).unwrap();
            let mut tracker = Sampled::new(tracker, 0.1, &mut rng).unwrap();
            tracker.feed_batch(&stream);
            black_box(tracker.kept())
        })
    });
    group.finish();

    // Query side in its own group: per-snapshot cost, not per-tuple.
    let mut full = CountSketchTopK::new(&schema, 4 * K).unwrap();
    full.offer_batch(&stream);
    let mut query = c.benchmark_group("heavy_hitters_query");
    query.bench_function(BenchmarkId::new("top_k", K), |b| {
        b.iter(|| black_box(full.raw_top_k(K)))
    });
    query.finish();
}

criterion_group!(heavy_hitters, benches);
criterion_main!(heavy_hitters);
