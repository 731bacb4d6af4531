//! Distributed load shedding: one schema, many workers, one estimate.
//!
//! Demonstrates the two composition properties production deployments rely
//! on:
//!
//! 1. **Portable snapshots** — the coordinator ships the sketch schema
//!    once, as the `Portable` bytes of an empty sketch; workers (separate
//!    processes in real life, simulated here) decode it, shed-and-sketch
//!    their partition, and return their sketches' `Portable` bytes, which
//!    the coordinator merges through the fingerprint-checked wire path.
//! 2. **Linearity + Bernoulli composition** — merged worker sketches are
//!    exactly the sketch of a p-sample of the union stream, so the usual
//!    Proposition 14 scaling applies once at the coordinator.
//!
//! Also shows the in-process form of the same thing: a `ShardedRuntime`
//! over one `Sampled` prototype, each shard drawing its own coins.
//!
//! ```text
//! cargo run --release --example distributed_shedding
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{Portable, Sampled};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::moments::scheme::Bernoulli;
use sketch_sampled_streams::stream::{RuntimeConfig, ShardedRuntime};

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let p = 0.1;
    let workers = 4;
    let per_worker = 500_000;

    // The logical stream, partitioned across workers.
    let gen = ZipfGenerator::new(50_000, 0.9);
    let partitions: Vec<Vec<u64>> = (0..workers)
        .map(|_| gen.relation(per_worker, &mut rng))
        .collect();
    let mut exact = ExactAggregator::new();
    for part in &partitions {
        for &k in part {
            exact.update(k, 1);
        }
    }
    let truth = exact.self_join();
    println!(
        "stream: {} tuples across {workers} workers; true F₂ = {truth:.4e}\n",
        workers * per_worker
    );

    // --- The wire protocol: coordinator → workers → coordinator ---------
    let schema = JoinSchema::fagms(1, 5000, &mut rng);
    let schema_wire = schema.sketch().encode().expect("empty sketch encodes");
    println!(
        "schema payload: {} bytes (an empty sketch)",
        schema_wire.len()
    );

    let mut returned: Vec<(Vec<u8>, u64)> = Vec::new();
    for (w, part) in partitions.iter().enumerate() {
        // Each "worker" restores the schema and sheds its partition.
        let empty = JoinSketch::decode(&schema_wire).expect("schema decodes");
        let mut shed = Sampled::new(empty, p, &mut rng).expect("valid probability");
        for &k in part {
            shed.observe(k);
        }
        let payload = shed.summary().encode().expect("sketch encodes");
        println!(
            "worker {w}: kept {} tuples, sketch payload {} bytes",
            shed.kept(),
            payload.len()
        );
        returned.push((payload, shed.kept()));
    }

    // Coordinator: merge, then scale once for the union.
    let mut merged = JoinSketch::decode(&returned[0].0).expect("sketch decodes");
    let mut kept_total = returned[0].1;
    for (payload, kept) in &returned[1..] {
        merged.merge_encoded(payload).expect("same schema");
        kept_total += kept;
    }
    let scheme = Bernoulli::new(p).expect("valid probability");
    let est = scheme.self_join(merged.raw_self_join(), kept_total);
    println!(
        "\ncoordinator estimate: {est:.4e}  (rel. error {:.2}%)",
        100.0 * (est - truth).abs() / truth
    );

    // --- In process: the sampler rides the shard workers ----------------
    // Shards must sample independently for the union to be a p-sample;
    // the runtime gives each shard's copy of the prototype its own coins.
    let prototype = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
    let config = RuntimeConfig {
        shards: workers,
        ..Default::default()
    };
    let mut rt = ShardedRuntime::new(config, &prototype).expect("valid config");
    let start = std::time::Instant::now();
    for part in &partitions {
        for batch in part.chunks(4096) {
            rt.push(batch).expect("no shard died");
        }
    }
    let merged = rt.into_merged().expect("shards merge");
    let secs = start.elapsed().as_secs_f64();
    let est = merged.self_join_estimate().value;
    println!(
        "sharded runtime ({workers} shards): {:.4e}  (rel. error {:.2}%, kept {} of {}, {:.1} Mt/s)",
        est,
        100.0 * (est - truth).abs() / truth,
        merged.kept(),
        merged.seen(),
        merged.seen() as f64 / secs / 1e6
    );
}
