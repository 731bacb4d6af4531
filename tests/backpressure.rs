//! Stress test of the bounded-queue → shedding handoff: saturate a
//! one-shard runtime with a tiny queue, hand what `try_push` refuses to a
//! controller-driven epoch shedder, and verify the three promises of that
//! overload leg — queue occupancy stays bounded, no tuple is silently lost
//! (runtime + shedder account for every one), and the combined estimate
//! stays unbiased because the overflow is shedded at a known probability
//! rather than dropped.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{EpochShedder, RateGrid, Sampled, Summary};
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::stream::{
    ControllerConfig, Partition, RateController, RuntimeConfig, ShardedRuntime,
};
use std::time::Duration;

const BATCHES: usize = 60;
const BATCH: usize = 10_000;
const DOMAIN: u64 = 1_000;

fn stream_key(i: u64) -> u64 {
    (i.wrapping_mul(2654435761)) % DOMAIN
}

/// One overloaded run; returns (estimate, tuples seen by the shedder).
fn overloaded_run(seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = JoinSchema::fagms(1, 2_048, &mut rng);
    let config = RuntimeConfig {
        shards: 1,
        queue_depth: 1,
        ..Default::default()
    };
    let mut runtime = ShardedRuntime::new(config, &schema.sketch()).unwrap();
    let mut controller = RateController::new(ControllerConfig {
        capacity_tps: 2e4,
        smoothing: 0.5,
        hysteresis: 0.1,
        // Keep p away from the floor where the 1/p variance blowup
        // would swamp the Monte-Carlo mean.
        min_p: 0.05,
        grid: RateGrid::default(),
    })
    .unwrap();
    let mut shedder =
        EpochShedder::new(&schema, controller.probability(), seed ^ 0xbacc_0ff5).unwrap();
    let mut batch = Vec::with_capacity(BATCH);
    let mut overflow = Vec::new();
    for b in 0..BATCHES {
        batch.clear();
        batch.extend(((b * BATCH) as u64..((b + 1) * BATCH) as u64).map(stream_key));
        overflow.clear();
        let accepted = runtime.try_push(&batch, &mut overflow).unwrap();
        // Invariant 2: every offered tuple is accepted or handed back.
        assert_eq!(accepted + overflow.len() as u64, BATCH as u64, "batch {b}");
        // Claim the batch arrived in 10 ms: any overflow looks like a
        // flood to the controller and forces aggressive shedding.
        let p = controller.observe_batch(overflow.len() as u64, 1e-2);
        shedder.set_probability(p).unwrap();
        shedder.feed_batch(&overflow);
    }
    // Invariant 1: the queue never held more than depth + 1 batches
    // (one in the ring, one in the worker's hands).
    assert!(
        runtime.queue_high_water() <= 2,
        "queue high-water {} exceeds depth + 1",
        runtime.queue_high_water()
    );
    let merged = runtime.merged().unwrap();
    let est = shedder.self_join_estimate_over(&merged).unwrap().value;
    (est, shedder.seen())
}

#[test]
fn saturated_engine_bounds_memory_and_stays_unbiased() {
    let total = (BATCHES * BATCH) as u64;
    let mut exact = ExactAggregator::new();
    for i in 0..total {
        exact.update(stream_key(i), 1);
    }
    let truth = exact.self_join();

    let reps = 20;
    let mut sum = 0.0;
    let mut shed_total = 0u64;
    for rep in 0..reps {
        let (est, shed_seen) = overloaded_run(1_000 + rep);
        // Each single run is already in the right ballpark.
        assert!(
            (est - truth).abs() / truth < 0.5,
            "rep {rep}: est = {est}, truth = {truth}"
        );
        sum += est;
        shed_total += shed_seen;
    }
    // Overload actually pushed tuples through the shedding leg —
    // otherwise this test exercises nothing.
    assert!(
        shed_total > 0,
        "the saturated queue never overflowed into the shedder"
    );
    // Invariant 3: unbiased.
    let mean = sum / reps as f64;
    assert!(
        (mean - truth).abs() / truth < 0.08,
        "mean over {reps} overloaded runs = {mean}, truth = {truth} \
         (bias beyond Monte-Carlo tolerance)"
    );
}

/// A join sketch whose batched update sleeps, so a depth-1 ring fills.
#[derive(Clone)]
struct Sluggish(JoinSketch);

impl Summary for Sluggish {
    fn update(&mut self, key: u64, count: i64) {
        self.0.update(key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        std::thread::sleep(Duration::from_millis(1));
        self.0.update_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> sketch_sampled_streams::core::Result<()> {
        self.0.merge_from(&other.0)
    }
}

/// A full ring hands its tuples back as offered and leaves the shard's
/// door where it was. A sampled join sketch hammered through a depth-1
/// ring by `try_push` ends with the shard state of a runtime offered only
/// the batches the ring accepted — the same `seen`, `kept` and raw F₂
/// bits — and every refused tuple is in the overflow, in order.
#[test]
fn a_full_ring_spends_no_coins_at_the_door() {
    let mut rng = StdRng::seed_from_u64(27);
    let schema = JoinSchema::fagms(1, 256, &mut rng);
    let prototype = Sampled::new(Sluggish(schema.sketch()), 0.5, &mut rng).unwrap();
    for partition in [Partition::RoundRobin, Partition::Hash] {
        let config = RuntimeConfig {
            shards: 1,
            queue_depth: 1,
            partition,
        };
        let mut rt = ShardedRuntime::new(config, &prototype).unwrap();
        let (mut accepted, mut refused) = (Vec::new(), Vec::new());
        let mut overflow = Vec::new();
        // Push until the worker has taken several batches and the ring has
        // refused some: the worker sleeps 1 ms per batch, so both come soon.
        for b in 0u64.. {
            if accepted.len() >= 8 && !refused.is_empty() {
                break;
            }
            let batch: Vec<u64> = (b * 100..(b + 1) * 100).map(stream_key).collect();
            match rt.try_push(&batch, &mut overflow).unwrap() {
                0 => refused.extend_from_slice(&batch),
                n => {
                    assert_eq!(n, batch.len() as u64);
                    accepted.push(batch);
                }
            }
        }
        assert_eq!(overflow, refused, "{partition:?}");

        let merged = rt.into_merged().unwrap();
        let mut reference = ShardedRuntime::new(config, &prototype).unwrap();
        for batch in &accepted {
            reference.push(batch).unwrap();
        }
        let expect = reference.into_merged().unwrap();
        assert_eq!(merged.seen(), 100 * accepted.len() as u64);
        assert_eq!(
            (merged.seen(), merged.kept()),
            (expect.seen(), expect.kept()),
            "{partition:?}"
        );
        assert_eq!(
            merged.summary().0.raw_self_join().to_bits(),
            expect.summary().0.raw_self_join().to_bits(),
            "{partition:?}"
        );
    }
}
