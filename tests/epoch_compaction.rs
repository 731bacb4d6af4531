//! Property and end-to-end tests for bounded-memory epoch shedding: the
//! compacted [`EpochShedder`] against the uncompacted
//! [`ReferenceEpochShedder`] oracle (`tests/support`), the cached query path against the
//! cache-free recomputation, Monte-Carlo unbiasedness under grid-snapped
//! rates, and the bounded-epoch guarantee under a thrashing controller.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{EpochShedder, RateGrid};
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::stream::{ControllerConfig, RateController};

mod support;
use support::ReferenceEpochShedder;

/// Dyadic rates: with i64 counters every term of the epoch decomposition
/// (raw/p², (1−p)/p²·kept, 2·cross/(p·q)) is exactly representable in f64,
/// so *any* grouping of the terms — compacted or not, cached or not — must
/// agree bit for bit, not just approximately. Each round is a rate and a
/// tuple count; one round in four carries no traffic, so an empty current
/// cell gets replaced, popped and queried.
fn dyadic_schedule() -> impl Strategy<Value = Vec<(f64, u64)>> {
    prop::collection::vec((0usize..4, 0usize..4), 2..8).prop_map(|picks| {
        picks
            .iter()
            .map(|&(i, j)| ([1.0, 0.5, 0.25, 0.125][i], [0, 1500, 1500, 1500][j]))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same-p compaction is *exact*: an identically seeded uncompacted
    /// reference (one epoch per rate change) and the compacted shedder
    /// (one epoch per distinct rate) produce bit-identical estimates at
    /// every query point of a randomized dyadic rate schedule — with the
    /// compacted side fed through `feed_batch` at randomized batch
    /// boundaries and the reference fed tuple by tuple.
    #[test]
    fn compacted_equals_reference_bitwise(
        ps in dyadic_schedule(),
        chunk in 1usize..700,
        seed: u64,
    ) {
        let mut r = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::agms(8, &mut r);
        let shed_seed = seed ^ 0x9e37;
        let mut compact = EpochShedder::new(&schema, ps[0].0, shed_seed).unwrap();
        let mut reference = ReferenceEpochShedder::new(&schema, ps[0].0, shed_seed).unwrap();
        // The cells the shedder must hold: one per rate that saw traffic,
        // plus the current one, which may still be empty.
        let mut distinct: Vec<f64> = Vec::new();
        for (round, &(p, len)) in ps.iter().enumerate() {
            compact.set_probability(p).unwrap();
            reference.set_probability(p).unwrap();
            if len > 0 && !distinct.contains(&p) {
                distinct.push(p);
            }
            let keys: Vec<u64> = (0..len).map(|i| (i * 7 + round as u64) % 64).collect();
            for batch in keys.chunks(chunk) {
                compact.feed_batch(batch);
            }
            for &k in &keys {
                reference.observe(k);
            }
            prop_assert_eq!(compact.kept(), reference.kept(), "round {}", round);
            prop_assert_eq!(compact.seen(), reference.seen(), "round {}", round);
            // Mid-stream query: cached == uncached == reference, bitwise.
            let cached = compact.self_join().unwrap();
            prop_assert_eq!(cached, compact.self_join_uncached().unwrap(), "round {}", round);
            prop_assert_eq!(cached, reference.self_join().unwrap(), "round {}", round);
        }
        let last = ps[ps.len() - 1].0;
        if !distinct.contains(&last) {
            distinct.push(last);
        }
        prop_assert_eq!(compact.epoch_count(), distinct.len());
        prop_assert!(reference.epoch_count() >= compact.epoch_count());
    }
}

/// Compacted estimates equal the uncompacted reference bit-for-bit on
/// a dyadic-rate schedule (every term exactly representable).
#[test]
fn compaction_is_bit_identical_to_reference() {
    let mut r = StdRng::seed_from_u64(31);
    let schema = JoinSchema::agms(8, &mut r);
    let shed_seed = 32;
    let mut compact = EpochShedder::new(&schema, 0.5, shed_seed).unwrap();
    let mut reference = ReferenceEpochShedder::new(&schema, 0.5, shed_seed).unwrap();
    let ps = [0.5, 0.25, 0.5, 1.0, 0.25, 0.5];
    for (round, p) in ps.iter().enumerate() {
        compact.set_probability(*p).unwrap();
        reference.set_probability(*p).unwrap();
        for k in 0..3_000u64 {
            let key = (k * 7 + round as u64) % 50;
            compact.observe(key);
            reference.observe(key);
        }
    }
    assert_eq!(reference.epoch_count(), 6, "one epoch per change");
    assert_eq!(compact.epoch_count(), 3, "one epoch per distinct rate");
    assert_eq!(compact.kept(), reference.kept());
    assert_eq!(compact.seen(), reference.seen());
    assert_eq!(
        compact.self_join().unwrap(),
        reference.self_join().unwrap(),
        "dyadic rates: every term is exact, any grouping agrees"
    );
}

/// The cached query keys each cell on its kept count, so a stale row could
/// only hide where `set_probability` pops or replaces an empty cell. Walk
/// through each of those moves with a query after the switch and after the
/// traffic: cached, cache-free and the uncompacted reference agree bitwise
/// throughout.
#[test]
fn empty_cells_never_serve_a_stale_row() {
    let mut r = StdRng::seed_from_u64(51);
    let schema = JoinSchema::agms(8, &mut r);
    let shed_seed = 52;
    let mut compact = EpochShedder::new(&schema, 0.5, shed_seed).unwrap();
    let mut reference = ReferenceEpochShedder::new(&schema, 0.5, shed_seed).unwrap();
    // (what the step does, rate, tuples fed after the switch, cells held)
    let steps = [
        ("traffic at the first rate", 0.5, 2_000, 1),
        ("change the rate with no traffic", 0.25, 0, 2),
        ("return to a held rate: the empty cell pops", 0.5, 0, 1),
        ("open a new rate at the freed index", 0.125, 2_000, 2),
        ("resume an old cell", 0.5, 2_000, 2),
        ("change the rate again with no traffic", 1.0, 0, 3),
        ("replace that empty cell in place", 0.25, 2_000, 3),
    ];
    for (round, (step, p, len, cells)) in steps.into_iter().enumerate() {
        compact.set_probability(p).unwrap();
        reference.set_probability(p).unwrap();
        let keys: Vec<u64> = (0..len).map(|i| (i * 11 + round as u64) % 40).collect();
        for fed in [false, true] {
            if fed {
                compact.feed_batch(&keys);
                for &k in &keys {
                    reference.observe(k);
                }
            }
            let cached = compact.self_join().unwrap();
            assert_eq!(cached, compact.self_join_uncached().unwrap(), "{step}");
            assert_eq!(cached, reference.self_join().unwrap(), "{step}");
        }
        assert_eq!(compact.epoch_count(), cells, "{step}");
        assert_eq!(compact.kept(), reference.kept(), "{step}");
    }
}

/// Grid-snapped rates keep the estimator unbiased: the snap changes *which*
/// p is used, never the correctness of the correction applied for it.
#[test]
fn quantized_rates_stay_unbiased() {
    let mut r = StdRng::seed_from_u64(41);
    let grid = RateGrid::default();
    let min_p = 0.01;
    // Relation: 40 keys, key k appears k+1 times. F₂ = Σ (k+1)².
    let truth: f64 = (1..=40u64).map(|f| (f * f) as f64).sum();
    let reps = 500;
    let mut acc = 0.0;
    for rep in 0..reps {
        let schema = JoinSchema::agms(16, &mut r);
        // Three epochs at grid points snapped from off-grid requests.
        let raw = [0.83, 0.31 + (rep % 7) as f64 * 0.05, 0.47];
        let mut shed = EpochShedder::new(&schema, grid.snap(raw[0], min_p), r.random()).unwrap();
        for &want in &raw {
            shed.set_probability(grid.snap(want, min_p)).unwrap();
            for k in 0..40u64 {
                for _ in 0..=k {
                    shed.observe(k);
                }
            }
        }
        acc += shed.self_join().unwrap();
    }
    let mean = acc / reps as f64;
    // Each key ends with 3(k+1) copies: truth scales by 9.
    let truth = 9.0 * truth;
    assert!(
        (mean - truth).abs() / truth < 0.08,
        "mean = {mean}, truth = {truth}"
    );
}

/// The acceptance property of the tentpole: after ~1000 adaptive rate
/// changes the compacted shedder holds at most `distinct_rate_bound()`
/// epochs while the uncompacted reference has accumulated one per change.
#[test]
fn thousand_rate_changes_stay_within_the_grid_bound() {
    let mut r = StdRng::seed_from_u64(42);
    let schema = JoinSchema::agms(4, &mut r);
    let mut controller = RateController::new(ControllerConfig {
        capacity_tps: 1e4,
        smoothing: 0.5,
        hysteresis: 0.1,
        min_p: 1e-3,
        grid: RateGrid::default(),
    })
    .unwrap();
    let bound = controller.distinct_rate_bound();
    let shed_seed = 43;
    let mut compact = EpochShedder::new(&schema, 1.0, shed_seed).unwrap();
    let mut reference = ReferenceEpochShedder::new(&schema, 1.0, shed_seed).unwrap();
    for i in 0..1000u64 {
        // Thrash the controller: the arrival rate alternates 100×, far
        // outside the hysteresis band, so p moves on every batch.
        let rate = if i % 2 == 0 { 10_000 } else { 1_000_000 };
        let p = controller.observe_batch(rate, 1.0);
        compact.set_probability(p).unwrap();
        reference.set_probability(p).unwrap();
        for k in 0..20u64 {
            compact.observe(k);
            reference.observe(k);
        }
    }
    assert!(
        reference.epoch_count() > 500,
        "the thrash must actually change rates (reference has {} epochs)",
        reference.epoch_count()
    );
    assert!(
        compact.epoch_count() <= bound,
        "compacted epochs {} exceed the grid bound {bound}",
        compact.epoch_count()
    );
    // In fact the alternation settles on a handful of grid points.
    assert!(
        compact.epoch_count() <= 8,
        "compacted epochs {} for a two-level thrash",
        compact.epoch_count()
    );
    // And the two still estimate the same stream (same kept sample).
    assert_eq!(compact.kept(), reference.kept());
    assert_eq!(compact.seen(), reference.seen());
}

/// Windowed sanity for the cached path under churn: queries interleaved
/// with epoch switches and batches must track the exact aggregate.
#[test]
fn cached_queries_track_truth_under_churn() {
    let mut r = StdRng::seed_from_u64(44);
    let schema = JoinSchema::fagms(1, 4096, &mut r);
    let grid = RateGrid::default();
    let mut shed = EpochShedder::new(&schema, 1.0, r.random()).unwrap();
    let mut exact = ExactAggregator::new();
    for round in 0..30u64 {
        let p = grid.snap(1.0 / (1.0 + (round % 5) as f64), 0.05);
        shed.set_probability(p).unwrap();
        let batch: Vec<u64> = (0..20_000u64).map(|i| (i * 13 + round) % 1000).collect();
        shed.feed_batch(&batch);
        for &k in &batch {
            exact.update(k, 1);
        }
        let est = shed.self_join().unwrap();
        let truth = exact.self_join();
        assert!(
            (est - truth).abs() / truth < 0.15,
            "round {round}: est = {est}, truth = {truth}"
        );
    }
    assert!(shed.epoch_count() <= 5, "five distinct snapped rates");
}
