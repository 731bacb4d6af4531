//! Throughput of the ±1 generator families — the per-tuple cost floor of
//! every sketch update. Reproduces the generator comparison that motivated
//! the paper's testbed choices (Rusu & Dobra, TODS 2007).
//!
//! Two groups:
//!
//! * `xi_sign` — the scalar per-key `sign()` loop, the historical baseline;
//! * `xi_sign_sum` — the batched `sign_sum` entry point at batch sizes
//!   64 / 1k / 64k, which routes through the chunked (and, on an AVX2
//!   host, vectorized) kernels in
//!   `sss_xi::kernels`. Comparing the two groups shows the kernel win;
//!   comparing batch sizes shows where the fixed dispatch cost amortizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_xi::{Bch3, Bch5, Cw2, Cw4, Eh3, SignFamily, Tabulation};
use std::hint::black_box;

const KEYS: u64 = 4096;

/// Batch sizes for the `sign_sum` group: below one chunk, a queue-friendly
/// batch, and a cache-straining batch.
const BATCHES: [usize; 3] = [64, 1024, 65536];

fn bench_family<F: SignFamily>(c: &mut Criterion, name: &str) {
    let mut rng = StdRng::seed_from_u64(1);
    let f = F::random(&mut rng);
    let mut group = c.benchmark_group("xi_sign");
    group.throughput(Throughput::Elements(KEYS));
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for key in 0..KEYS {
                acc += f.sign(black_box(key));
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_family_sign_sum<F: SignFamily>(c: &mut Criterion, name: &str) {
    let mut rng = StdRng::seed_from_u64(1);
    let f = F::random(&mut rng);
    let keys: Vec<u64> = (0..BATCHES[BATCHES.len() - 1] as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut group = c.benchmark_group("xi_sign_sum");
    for &batch in &BATCHES {
        group.throughput(Throughput::Elements(batch as u64));
        let keys = &keys[..batch];
        group.bench_function(BenchmarkId::new(name, batch), |b| {
            b.iter(|| black_box(f.sign_sum(black_box(keys))))
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_family::<Cw2>(c, "cw2");
    bench_family::<Cw4>(c, "cw4");
    bench_family::<Eh3>(c, "eh3");
    bench_family::<Bch3>(c, "bch3");
    bench_family::<Bch5>(c, "bch5");
    bench_family::<Tabulation>(c, "tabulation");
    bench_family_sign_sum::<Cw2>(c, "cw2");
    bench_family_sign_sum::<Cw4>(c, "cw4");
    bench_family_sign_sum::<Eh3>(c, "eh3");
    bench_family_sign_sum::<Bch3>(c, "bch3");
    bench_family_sign_sum::<Bch5>(c, "bch5");
    bench_family_sign_sum::<Tabulation>(c, "tabulation");
}

criterion_group!(xi, benches);
criterion_main!(xi);
