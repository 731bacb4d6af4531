//! The sharded runtime end to end: live queries while ingest continues.
//!
//! A comfortable stream runs through a 4-shard runtime, and the merged
//! estimate is queried *while ingest continues*. The merge is exact by
//! sketch linearity, so the live estimate is the one a sequential sketch
//! would give. A filter stage is a `retain` before the push; a full ring
//! makes `push` wait, so nothing is dropped.
//!
//! Exits non-zero unless the final merge's raw F₂ bits equal those of one
//! sequential sketch fed the same tuples.
//!
//! ```text
//! cargo run --release --example sharded_runtime
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::stream::{RuntimeConfig, ShardedRuntime};
use std::process::ExitCode;

fn keep_small(k: &u64) -> bool {
    *k < 8_000
}

fn main() -> ExitCode {
    let mut rng = StdRng::seed_from_u64(21);
    let schema = JoinSchema::fagms(1, 5_000, &mut rng);
    let gen = ZipfGenerator::new(10_000, 0.7);

    let config = RuntimeConfig {
        shards: 4,
        queue_depth: 64,
        ..Default::default()
    };
    let mut runtime = ShardedRuntime::new(config, &schema.sketch()).expect("config is sane");
    let mut sequential = schema.sketch();
    let mut exact = ExactAggregator::new();
    println!("-- 4 shards, queue depth 64 (lossless backpressure) --");
    for round in 1..=5 {
        for _ in 0..10 {
            let mut batch = gen.relation(20_000, &mut rng);
            batch.retain(keep_small);
            runtime.push(&batch).expect("no shard died");
            sequential.update_batch(&batch);
            for &k in &batch {
                exact.update(k, 1);
            }
        }
        // Live query: it catches every shard up itself, so it covers every
        // tuple pushed so far without stopping ingest.
        let est = runtime.merged().expect("snapshot").raw_self_join();
        let truth = exact.self_join();
        println!(
            "round {round}: live F2 = {est:.3e}  exact = {truth:.3e}  \
             rel_err = {:+.2}%",
            100.0 * (est - truth) / truth
        );
    }
    let high_water = runtime.queue_high_water();
    println!("queue high-water: {high_water} batch(es) — never exceeds depth + 1");
    let merged = runtime
        .into_merged()
        .expect("no shard died")
        .raw_self_join();
    let expect = sequential.raw_self_join();
    println!("final merge F2 = {merged:.6e}  sequential = {expect:.6e}");
    if merged.to_bits() != expect.to_bits() {
        eprintln!("FAIL: the sharded merge must equal the sequential sketch bit for bit");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
