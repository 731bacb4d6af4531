//! Estimation (query-time) cost: how expensive is turning counters into an
//! answer, as the sketch grows. Relevant for online aggregation, where the
//! running estimate is recomputed at every checkpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_sketch::{AgmsSchema, FagmsSchema};
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("estimate");

    for n in [256usize, 4096] {
        let schema: AgmsSchema = AgmsSchema::new(n, &mut rng);
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        for key in 0..10_000u64 {
            s.update(key, 1);
            t.update(key % 100, 1);
        }
        group.bench_function(BenchmarkId::new("agms_self_join_mean", n), |b| {
            b.iter(|| black_box(s.self_join()))
        });
        group.bench_function(BenchmarkId::new("agms_self_join_mom8", n), |b| {
            b.iter(|| black_box(s.self_join_median_of_means(8)))
        });
        group.bench_function(BenchmarkId::new("agms_join", n), |b| {
            b.iter(|| black_box(s.size_of_join(&t).expect("shared schema")))
        });
        // The typed query: same point estimate plus lane variance and
        // interval state — measures the error-bar overhead.
        group.bench_function(BenchmarkId::new("agms_self_join_estimate", n), |b| {
            b.iter(|| black_box(s.self_join_estimate()))
        });
        group.bench_function(BenchmarkId::new("agms_join_estimate", n), |b| {
            b.iter(|| black_box(s.size_of_join_estimate(&t).expect("shared schema")))
        });
    }
    for width in [5000usize, 10_000] {
        let schema: FagmsSchema = FagmsSchema::new(3, width, &mut rng);
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        for key in 0..10_000u64 {
            s.update(key, 1);
            t.update(key % 100, 1);
        }
        group.bench_function(BenchmarkId::new("fagms_self_join", width), |b| {
            b.iter(|| black_box(s.self_join()))
        });
        group.bench_function(BenchmarkId::new("fagms_join", width), |b| {
            b.iter(|| black_box(s.size_of_join(&t).expect("shared schema")))
        });
        group.bench_function(BenchmarkId::new("fagms_self_join_estimate", width), |b| {
            b.iter(|| black_box(s.self_join_estimate()))
        });
        group.bench_function(BenchmarkId::new("fagms_join_estimate", width), |b| {
            b.iter(|| black_box(s.size_of_join_estimate(&t).expect("shared schema")))
        });
    }
    group.finish();
}

criterion_group!(estimate, benches);
criterion_main!(estimate);
