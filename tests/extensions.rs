//! Integration tests for the engineering around the paper's estimators —
//! the overload leg, the rate controller, the one-pass composite and the
//! planner — exercised together through the public facade.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{EpochShedder, RateGrid};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::moments::planning;
use sketch_sampled_streams::moments::scheme::Bernoulli;
use sketch_sampled_streams::moments::FrequencyVector;
use sketch_sampled_streams::stream::{
    ControllerConfig, RateController, RuntimeConfig, ShardedRuntime,
};

/// The overload leg end to end: filter → map → sharded runtime, its
/// overflow shedded by a controller-driven epoch shedder, with the
/// combined estimate validated against the exact post-transform stream. A
/// tiny queue guarantees the overflow leg is actually exercised.
#[test]
fn engine_estimate_matches_exact_under_overload() {
    fn keep_small(k: u64) -> bool {
        k < 1_500
    }
    fn bucketize(k: u64) -> u64 {
        k / 3
    }
    let mut rng = StdRng::seed_from_u64(2);
    let schema = JoinSchema::fagms(1, 4096, &mut rng);
    let config = RuntimeConfig {
        shards: 1,
        queue_depth: 1,
        ..Default::default()
    };
    let mut runtime = ShardedRuntime::new(config, &schema.sketch()).unwrap();
    let mut controller = RateController::new(ControllerConfig {
        capacity_tps: 50_000.0,
        smoothing: 0.5,
        hysteresis: 0.1,
        min_p: 0.05,
        grid: RateGrid::default(),
    })
    .unwrap();
    let mut shedder = EpochShedder::new(&schema, controller.probability(), 2).unwrap();
    let mut exact = ExactAggregator::new();
    let gen = ZipfGenerator::new(3_000, 0.5);
    let mut overflow = Vec::new();
    for _ in 0..40 {
        let mut batch = gen.relation(100_000, &mut rng);
        batch.retain(|&k| keep_small(k));
        batch.iter_mut().for_each(|k| *k = bucketize(*k));
        overflow.clear();
        runtime.try_push(&batch, &mut overflow).unwrap();
        let p = controller.observe_batch(overflow.len() as u64, 1e-2);
        shedder.set_probability(p).unwrap();
        shedder.feed_batch(&overflow);
        for &k in &batch {
            exact.update(k, 1);
        }
    }
    assert!(
        runtime.queue_high_water() <= 2,
        "bounded queue must never hold more than depth + 1 batches"
    );
    let merged = runtime.merged().unwrap();
    let est = shedder.self_join_estimate_over(&merged).unwrap().value;
    let truth = exact.self_join();
    assert!(
        (est - truth).abs() / truth < 0.1,
        "est = {est}, truth = {truth}"
    );
}

/// The README's "One pass, every query" snippet, as written, so it cannot
/// drift from the API: a `MultiSummary` prototype behind the runtime
/// answers F₂, F₀, quantiles and top-k from one merge.
#[test]
fn readme_one_pass_engine_answers_every_family() -> Result<(), sketch_sampled_streams::Error> {
    // The stream the snippet consumes: 2000 keys × 20 and one heavy key.
    let mut keys: Vec<u64> = (0..40_000u64).map(|i| i % 2_000).collect();
    keys.extend(std::iter::repeat_n(7, 8_000));
    let batches = keys.chunks(4_096);

    // ---- README.md, verbatim ----
    use rand::SeedableRng;
    use sketch_sampled_streams::core::sketch::JoinSchema;
    use sketch_sampled_streams::core::{
        DistinctQuery, JoinQuery, MultiSpec, QuantileQuery, TopKQuery,
    };
    use sketch_sampled_streams::stream::{RuntimeConfig, ShardedRuntime};

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 2048, &mut rng), &mut rng);
    let prototype = spec.summary()?; // join sketch + Misra–Gries + HLL + KLL
    let config = RuntimeConfig {
        shards: 2,
        ..Default::default()
    };
    let mut runtime = ShardedRuntime::new(config, &prototype)?;
    for batch in batches {
        runtime.push(batch)?; // blocks while a shard's ring is full
    }
    let all = runtime.merged()?; // one merge answers every family
    let f2 = all.self_join_estimate(); // F₂ with error bars
    let d = all.distinct_estimate(); // F₀
    let (median, (lo, hi)) = all.quantile_with_bounds(0.5)?; // value and rank envelope
    let top = all.top_k(10); // Misra–Gries picks the keys, the join sketch prices them

    // ---- end of the README snippet ----

    let truth = 1_999.0 * 400.0 + 8_020.0f64.powi(2);
    assert!((f2.value - truth).abs() / truth < 0.1, "f2 {}", f2.value);
    assert!((d.value - 2_000.0).abs() / 2_000.0 < 0.05, "d {}", d.value);
    // Rank 24 000 of 48 000: keys 0..=7 hold 8 160, so ≈ key 800.
    assert!((median - 800.0).abs() < 100.0, "median {median}");
    assert!(lo <= median && median <= hi);
    assert_eq!(top.first().map(|&(key, _)| key), Some(7));
    Ok(())
}

/// Epoch shedding with rates driven by a controller stays unbiased over a
/// bursty schedule (the adaptive_shedding example, as an assertion).
#[test]
fn controller_plus_epochs_is_unbiased_over_bursts() {
    let mut rng = StdRng::seed_from_u64(3);
    let schema = JoinSchema::fagms(1, 5000, &mut rng);
    let mut controller = RateController::new(ControllerConfig {
        capacity_tps: 1_000_000.0,
        smoothing: 0.5,
        hysteresis: 0.15,
        min_p: 1e-3,
        grid: RateGrid::default(),
    })
    .unwrap();
    let mut shedder = EpochShedder::new(&schema, 1.0, rng.random()).unwrap();
    let mut exact = ExactAggregator::new();
    let gen = ZipfGenerator::new(5_000, 0.6);
    for (rate, batches) in [(5e5, 5), (2e7, 5), (5e5, 5)] {
        for _ in 0..batches {
            let batch = gen.relation(100_000, &mut rng);
            let p = controller.observe_batch(rate as u64, 1.0);
            shedder.set_probability(p).unwrap();
            for &k in &batch {
                shedder.observe(k);
                exact.update(k, 1);
            }
        }
    }
    assert!(
        shedder.epoch_count() >= 2,
        "the burst must open a new epoch"
    );
    let est = shedder.self_join().unwrap();
    let truth = exact.self_join();
    assert!(
        (est - truth).abs() / truth < 0.1,
        "est = {est}, truth = {truth}"
    );
}

/// The planner's recommended sketch size actually delivers its target on a
/// real (simulated) run.
#[test]
fn planner_sizes_a_real_sketch_correctly() {
    let mut rng = StdRng::seed_from_u64(4);
    let profile = FrequencyVector::from_counts(vec![50u32; 2_000]);
    let scheme = Bernoulli::new(0.2).unwrap();
    let target = 0.08;
    let n = planning::averages_for_error(&scheme, &profile, target)
        .unwrap()
        .expect("achievable");
    // Build exactly the recommended sketch and measure over repetitions.
    let truth = profile.self_join();
    let reps = 60;
    let mut sq_err = 0.0;
    for _ in 0..reps {
        let schema = JoinSchema::fagms(1, n, &mut rng);
        let mut shed =
            sketch_sampled_streams::core::Sampled::new(schema.sketch(), 0.2, &mut rng).unwrap();
        for key in 0..2_000u64 {
            for _ in 0..50 {
                shed.observe(key);
            }
        }
        let rel = (shed.self_join() - truth) / truth;
        sq_err += rel * rel;
    }
    let rmse = (sq_err / reps as f64).sqrt();
    // F-AGMS beats the AGMS-based bound in practice; allow 1.5× slack for
    // measurement noise, but the planner must be in the right regime.
    assert!(
        rmse < 1.5 * target,
        "planned n = {n}: rmse {rmse} vs target {target}"
    );
}
