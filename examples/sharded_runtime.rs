//! The sharded runtime end to end: live queries, then the bounded-queue →
//! shedding handoff under overload.
//!
//! Act 1 runs a comfortable stream through a 4-shard runtime and queries
//! the merged estimate *while ingest continues* — the merge is exact by
//! sketch linearity, so the live estimate is the one a sequential sketch
//! would give. Act 2 floods a runtime with a depth-1 queue: `try_push`
//! hands back what the rings refuse, a rate controller watching that
//! overflow picks a grid rate, and an epoch shedder Bernoulli-samples the
//! overflow at it. The combined estimate — shard sketches, shedded
//! overflow and their cross term — stays unbiased. A filter stage is a
//! `retain` before the push.
//!
//! Exits non-zero unless the combined F₂ lands within 10% of exact and the
//! queue never held more than depth + 1 batches.
//!
//! ```text
//! cargo run --release --example sharded_runtime
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{EpochShedder, RateGrid};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::stream::{
    ControllerConfig, RateController, RuntimeConfig, ShardedRuntime,
};
use std::process::ExitCode;

fn keep_small(k: &u64) -> bool {
    *k < 8_000
}

fn main() -> ExitCode {
    let mut rng = StdRng::seed_from_u64(21);
    let schema = JoinSchema::fagms(1, 5_000, &mut rng);
    let gen = ZipfGenerator::new(10_000, 0.7);

    // --- Act 1: plenty of headroom, live queries. -----------------------
    let config = RuntimeConfig {
        shards: 4,
        queue_depth: 64,
        ..Default::default()
    };
    let mut runtime = ShardedRuntime::new(config, &schema.sketch()).expect("config is sane");
    let mut exact = ExactAggregator::new();
    println!("-- 4 shards, queue depth 64 (lossless backpressure) --");
    for round in 1..=5 {
        for _ in 0..10 {
            let mut batch = gen.relation(20_000, &mut rng);
            batch.retain(keep_small);
            runtime.push(&batch).expect("no shard died");
            for &k in &batch {
                exact.update(k, 1);
            }
        }
        // Live query: snapshots queue behind accepted batches, so this
        // covers every tuple pushed so far without stopping ingest.
        let est = runtime.merged().expect("snapshot").raw_self_join();
        let truth = exact.self_join();
        println!(
            "round {round}: live F2 = {est:.3e}  exact = {truth:.3e}  \
             rel_err = {:+.2}%",
            100.0 * (est - truth) / truth
        );
    }

    // --- Act 2: depth-1 queue, flooded; overflow goes to the shedder. ---
    let depth = 1;
    let config = RuntimeConfig {
        shards: 1,
        queue_depth: depth,
        ..Default::default()
    };
    let mut runtime = ShardedRuntime::new(config, &schema.sketch()).expect("config is sane");
    let mut controller = RateController::new(ControllerConfig {
        capacity_tps: 5e4,
        smoothing: 0.5,
        hysteresis: 0.1,
        min_p: 0.05,
        grid: RateGrid::default(),
    })
    .expect("controller config is sane");
    let mut shedder = EpochShedder::new(&schema, controller.probability(), 21).expect("p = 1");
    // Generated, filtered and counted up front, so the producer outruns
    // the worker.
    let mut exact = ExactAggregator::new();
    let flood: Vec<Vec<u64>> = (0..60)
        .map(|_| {
            let mut batch = gen.relation(20_000, &mut rng);
            batch.retain(keep_small);
            batch.iter().for_each(|&k| exact.update(k, 1));
            batch
        })
        .collect();
    let mut overflow = Vec::new();
    println!("-- 1 shard, queue depth 1, flooded (overflow is shedded) --");
    for batch in &flood {
        overflow.clear();
        runtime
            .try_push(batch, &mut overflow)
            .expect("no shard died");
        // Claim each batch arrived in 10 ms — a flood.
        let p = controller.observe_batch(overflow.len() as u64, 1e-2);
        shedder.set_probability(p).expect("grid rates are valid");
        shedder.feed_batch(&overflow);
    }
    println!(
        "overflow: {} tuples seen by the shedder, {} kept (p now {:.3})",
        shedder.seen(),
        shedder.kept(),
        controller.probability()
    );
    let high_water = runtime.queue_high_water();
    println!("queue high-water: {high_water} batch(es) — never exceeds depth + 1");
    let merged = runtime.merged().expect("snapshot");
    let est = shedder
        .self_join_estimate_over(&merged)
        .expect("one schema")
        .value;
    let truth = exact.self_join();
    let rel_err = (est - truth) / truth;
    println!(
        "combined F2 = {est:.3e}  exact = {truth:.3e}  rel_err = {:+.2}%",
        100.0 * rel_err
    );
    if rel_err.abs() > 0.1 || high_water > depth + 1 {
        eprintln!("FAIL: the overload leg must stay within 10% and depth + 1");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
