//! Query cost of the epoch-combined self-join after a long adaptive run.
//!
//! A monitoring loop queries `self_join()` after every batch. Without
//! compaction the epoch list grows with every rate change and the naive
//! query pays O(E²) sketch dot products; with same-p compaction plus the
//! cross-term cache a per-batch query pays O(G) dot products for G
//! distinct grid rates. The two lines measure one (feed batch + query)
//! round after the same churn workload ([`epoch_churn`]):
//!
//! * `cached` — compacted epochs, incremental cross-term cache (the
//!   production path),
//! * `uncached` — compacted epochs, full O(G²) recomputation.
//!
//! (The uncompacted O(E²) shedder is a test oracle now —
//! `tests/support/mod.rs` — so it has no line here.)

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::JoinSchema;
use sss_core::{EpochShedder, RateGrid};
use sss_stream::{ControllerConfig, RateController};
use std::hint::black_box;

const CHANGES: usize = 200;
const BATCH: u64 = 1_000;

/// Drive a quantized [`RateController`] with a thrashing two-band load for
/// [`CHANGES`] batches, applying each emitted rate to an [`EpochShedder`]
/// and feeding [`BATCH`] tuples per change.
fn epoch_churn(schema: &JoinSchema) -> EpochShedder {
    let mut controller = RateController::new(ControllerConfig {
        capacity_tps: 1e4,
        smoothing: 0.5,
        hysteresis: 0.1,
        min_p: 1e-3,
        grid: RateGrid::default(),
    })
    .expect("sane controller config");
    let mut shedder = EpochShedder::new(schema, 1.0, 8).expect("valid p");
    for i in 0..CHANGES {
        // Two drifting bands 100× apart: the smoothed rate swings past the
        // hysteresis dead-band on every batch, so p changes each time.
        let rate = if i % 2 == 0 {
            10_000 * (1 + (i % 13) as u64)
        } else {
            1_000_000 * (1 + (i % 7) as u64)
        };
        let p = controller.observe_batch(rate, 1.0);
        shedder.set_probability(p).expect("valid p");
        let batch: Vec<u64> = (0..BATCH).map(|j| (j * 13 + i as u64) % 1000).collect();
        shedder.feed_batch(&batch);
    }
    shedder
}

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let schema = JoinSchema::fagms(1, 512, &mut rng);
    let mut compact = epoch_churn(&schema);
    let batch: Vec<u64> = (0..BATCH).map(|j| (j * 13) % 1_000).collect();
    let mut group = c.benchmark_group("epoch_query");
    group.bench_function(format!("cached/{CHANGES}changes"), |b| {
        b.iter(|| {
            compact.feed_batch(black_box(&batch));
            black_box(compact.self_join().expect("query"))
        })
    });
    group.bench_function(format!("uncached/{CHANGES}changes"), |b| {
        b.iter(|| {
            compact.feed_batch(black_box(&batch));
            black_box(compact.self_join_uncached().expect("query"))
        })
    });
    group.finish();
}

criterion_group!(epoch_query, benches);
criterion_main!(epoch_query);
