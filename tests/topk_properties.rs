//! Properties and acceptance tests of the heavy-hitters layer.
//!
//! Three claims are pinned here end to end through the public facade:
//!
//! 1. **Merge identity** — a `ShardedRuntime` hosting per-shard top-k
//!    summaries answers `top_k` exactly like one sequential summary fed
//!    the same stream, for every shard count, chunking and partition
//!    policy, whenever the candidate capacity covers the distinct keys:
//!    `MisraGries`'s counters are exact until capacity overflows, and the
//!    composite's join sketch that prices them merges linearly.
//! 2. **Zipf acceptance** — top-50 recall ≥ 0.9 on a Zipf(1.2) stream
//!    sampled at `p = 0.1`, the paper's headline sampled-sketch regime,
//!    through the composite every served top-k answer comes from, with
//!    memory `O(k + sketch)`.
//! 3. **Unbiasedness** — the `1/p` sampling correction makes the
//!    frequency estimator unbiased: averaged over Monte-Carlo reruns of
//!    the Bernoulli coin, estimates match the true count.
//!
//! Plus the Misra–Gries contract past capacity (its deterministic bounds
//! hold however the stream is cut, fed and merged) and the collision the
//! composite's counter front exists to keep out of its answers.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{MultiSpec, MultiSummary, Sampled, Summary, TopKQuery};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::sketch::MisraGries;
use sketch_sampled_streams::stream::{Partition, RuntimeConfig, ShardedRuntime};

/// Streams over a bounded domain so a fixed summary capacity can cover
/// every distinct key (the exact-merge regime).
const DOMAIN: u64 = 48;
const CAPACITY: usize = 64;

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..DOMAIN, 1..400)
}

fn partition() -> impl Strategy<Value = Partition> {
    any::<bool>().prop_map(|hash| {
        if hash {
            Partition::Hash
        } else {
            Partition::RoundRobin
        }
    })
}

/// Feed `keys` through a sharded runtime over `proto` and return the
/// merged summary, exercising the snapshot path with a mid-stream query.
fn sharded<H: Summary>(
    proto: &H,
    keys: &[u64],
    shards: usize,
    chunk: usize,
    partition: Partition,
) -> H {
    let config = RuntimeConfig {
        shards,
        queue_depth: 4,
        partition,
    };
    let mut rt = ShardedRuntime::new(config, proto).unwrap();
    let mut pushed = false;
    for chunk in keys.chunks(chunk) {
        rt.push(chunk).unwrap();
        if !pushed {
            // One cached-snapshot query mid-stream so the merge path under
            // test is the real one (cache rebuild + prototype clone).
            let _ = rt.merged().unwrap();
            pushed = true;
        }
    }
    rt.into_merged().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The composite's top-k — Misra–Gries candidates priced by the join
    /// sketch — is bit-identical shard-merged and sequential whenever
    /// capacity covers the distinct keys.
    #[test]
    fn sharded_multi_summary_topk_matches_sequential(
        keys in stream(),
        shards in 1usize..6,
        chunk in 1usize..97,
        partition in partition(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = MultiSpec::new(JoinSchema::fagms(3, 256, &mut rng), &mut rng).top_k(CAPACITY);
        let mut expect = spec.summary().unwrap();
        expect.update_batch(&keys);

        let merged = sharded(&spec.summary().unwrap(), &keys, shards, chunk, partition);

        let want = expect.top_k(10);
        let got = merged.top_k(10);
        prop_assert_eq!(want.len(), got.len());
        for ((wk, wv), (gk, gv)) in want.iter().zip(&got) {
            prop_assert_eq!(wk, gk);
            prop_assert_eq!(wv.to_bits(), gv.to_bits());
        }
    }

    /// Misra-Gries: below capacity the counters are exact, so the sharded
    /// merge must reproduce the sequential summary's top-k exactly.
    #[test]
    fn sharded_misra_gries_matches_sequential(
        keys in stream(),
        shards in 1usize..6,
        chunk in 1usize..97,
        partition in partition(),
    ) {
        let mut expect = MisraGries::new(CAPACITY).unwrap();
        expect.offer_batch(&keys);

        let proto = MisraGries::new(CAPACITY).unwrap();
        let merged = sharded(&proto, &keys, shards, chunk, partition);

        prop_assert_eq!(expect.raw_top_k(10), merged.raw_top_k(10));
        prop_assert_eq!(expect.items_offered(), merged.items_offered());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Misra–Gries contract, far past capacity: split a skewed stream
    /// over `shards` summaries, feed each per key or in batches cut
    /// anywhere, merge them — every counter undercounts by at most
    /// `error_bound()`, which stays within `n/(capacity+1)`; a query sees
    /// at most `capacity` keys and at most `capacity + CHUNK` counters are
    /// held at any time.
    #[test]
    fn misra_gries_bounds_hold_under_recuts_and_merges(
        len in 0usize..9000,
        capacity in 1usize..40,
        shards in 1usize..4,
        cut in 1usize..3000,
        per_key in 0u8..8,
        seed: u64,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let stream: Vec<u64> = (0..len)
            .map(|_| (600.0 * rng.random::<f64>().powi(3)) as u64)
            .collect();
        let exact = ExactAggregator::from_keys(stream.iter().copied());

        let mut merged = MisraGries::new(capacity).unwrap();
        for shard in 0..shards {
            let part: Vec<u64> = stream
                .iter()
                .copied()
                .filter(|key| key % shards as u64 == shard as u64)
                .collect();
            let mut mg = MisraGries::new(capacity).unwrap();
            for call in part.chunks(cut) {
                if per_key >> shard & 1 == 1 {
                    call.iter().for_each(|&key| mg.offer(key, 1));
                } else {
                    mg.offer_batch(call);
                }
                prop_assert!(mg.held() <= capacity + MisraGries::CHUNK);
                prop_assert!(mg.candidates().len() <= capacity);
            }
            merged.merge(&mg).unwrap();
            prop_assert!(merged.held() <= capacity);
        }

        prop_assert_eq!(merged.items_offered(), len as u64);
        prop_assert!(merged.error_bound() <= len as u64 / (capacity as u64 + 1));
        for key in 0..600u64 {
            let truth = exact.get(key) as u64;
            let counter = merged.raw_estimate(key) as u64;
            prop_assert!(counter <= truth, "key {}: {} over {}", key, counter, truth);
            prop_assert!(
                truth - counter <= merged.error_bound(),
                "key {}: {} under {} by more than {}", key, counter, truth, merged.error_bound()
            );
        }
    }
}

/// The acceptance gate: Zipf(1.2), domain 100k, 2M tuples, sampled at
/// p = 0.1 through the served composite — the recovered top-50 must hit at
/// least 90% of the exact top-50 while holding only O(k + sketch) state.
#[test]
fn zipf_top50_recall_at_ten_percent_sample() {
    let mut rng = StdRng::seed_from_u64(42);
    let k = 50;
    let stream = ZipfGenerator::new(100_000, 1.2).relation(2_000_000, &mut rng);
    let exact = ExactAggregator::from_keys(stream.iter().copied());
    let true_top: HashSet<u64> = exact.top_k(k).into_iter().map(|(key, _)| key).collect();

    let schema = JoinSchema::fagms(3, 5000, &mut rng);
    let mut tracker = MultiSpec::new(schema.clone(), &mut rng)
        .top_k(4 * k)
        .sampled(0.1, &mut rng)
        .unwrap();
    tracker.feed_batch(&stream);

    // Memory gate: O(k + sketch) — the fixed join rows (3 × 5000
    // counters) plus at most 4k candidates, and never more than a chunk of
    // counters beyond them, independent of the 2M-tuple stream and the
    // 100k-key domain.
    assert_eq!(schema.counters(), 3 * 5000);
    let heavy = tracker.summary().heavy();
    assert!(heavy.candidates().len() <= 4 * k);
    assert!(heavy.held() <= 4 * k + MisraGries::CHUNK);

    let top = tracker.top_k(k);
    assert_eq!(top.len(), k);
    let hits = top.iter().filter(|(key, _)| true_top.contains(key)).count();
    let recall = hits as f64 / k as f64;
    assert!(recall >= 0.9, "top-{k} recall {recall} < 0.9");

    // Precision equals recall here (both sets have k members), and every
    // reported estimate should be a sane multiple of its true count.
    for (key, est) in &top {
        let truth = exact.get(*key) as f64;
        if truth > 0.0 {
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.5, "key {key}: est {} vs true {truth}", est.value);
        }
    }
}

/// Monte-Carlo unbiasedness of the `1/p` correction: over independent
/// Bernoulli coins the mean estimate converges on the true frequency,
/// for Misra–Gries alone and for the composite's sketch-priced answer.
/// 200 reps at p = 0.25 put ≈ 0.4% relative 3σ noise on the mean of a
/// 12800-count key; we allow 3%.
#[test]
fn sampled_frequency_correction_is_unbiased() {
    let truth = 12_800u64;
    let stream: Vec<u64> = std::iter::repeat(7)
        .take(truth as usize)
        .chain((0..4 * truth).map(|i| 100 + i % 40))
        .collect();
    let reps = 200;
    let p = 0.25;

    let mut mg_sum = 0.0;
    let mut multi_sum = 0.0;
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(1000 + rep);
        let mut mg = Sampled::new(MisraGries::new(256).unwrap(), p, &mut rng).unwrap();
        mg.feed_batch(&stream);
        mg_sum += mg.point_estimate(7).value;

        let spec = MultiSpec::new(JoinSchema::fagms(5, 1024, &mut rng), &mut rng);
        let mut multi = spec.top_k(64).sampled(p, &mut rng).unwrap();
        multi.feed_batch(&stream);
        multi_sum += multi.point_estimate(7).value;
    }
    let truth = truth as f64;
    let mg_mean = mg_sum / reps as f64;
    let multi_mean = multi_sum / reps as f64;
    assert!(
        (mg_mean - truth).abs() / truth < 0.03,
        "Misra-Gries mean {mg_mean} vs true {truth}"
    );
    assert!(
        (multi_mean - truth).abs() / truth < 0.03,
        "composite mean {multi_mean} vs true {truth}"
    );
}

/// The depth-3 false positive a sketch-admitted tracker falls for, on the
/// ledger's own block and spec: the singleton key 19907 shares two of its
/// three join-sketch rows with key 5, so its point query reads as the
/// sixth heaviest key of the stream. A tracker that admits by that
/// estimate reports it; the Misra–Gries front never counts it twice, so it
/// is in no answer — in either arrival order, or merged from two shards —
/// and the top 10 is the exact top 10.
#[test]
fn depth3_collision_is_priced_but_never_picked() {
    const COLLIDER: u64 = 19_907;
    let block = ZipfGenerator::new(1 << 20, 1.1).relation(1 << 20, &mut StdRng::seed_from_u64(1));
    let exact = ExactAggregator::from_keys(block.iter().copied());
    let truth: Vec<u64> = exact.top_k(10).into_iter().map(|(key, _)| key).collect();
    assert_eq!(exact.get(COLLIDER), 1);

    let mut rng = StdRng::seed_from_u64(1);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 5000, &mut rng), &mut rng);
    let mut shuffled = block.clone();
    shuffled.shuffle(&mut StdRng::seed_from_u64(1));

    let one_pass = |keys: &[u64]| {
        let mut summary = spec.summary().unwrap();
        summary.update_batch(keys);
        summary
    };
    let config = RuntimeConfig {
        shards: 2,
        queue_depth: 4,
        partition: Partition::Hash,
    };
    let mut rt = ShardedRuntime::new(config, &spec.summary().unwrap()).unwrap();
    for batch in shuffled.chunks(4096) {
        rt.push(batch).unwrap();
    }
    let answers: [(&str, MultiSummary); 3] = [
        ("as drawn", one_pass(&block)),
        ("shuffled", one_pass(&shuffled)),
        ("two shards", rt.into_merged().unwrap()),
    ];
    for (order, summary) in &answers {
        let read = summary.join().point_query(COLLIDER);
        assert!(
            read > exact.get(truth[5]) as f64,
            "{order}: the collision is real, {read} reads above the sixth heaviest key"
        );
        let top: Vec<u64> = summary.top_k(10).into_iter().map(|(key, _)| key).collect();
        assert_eq!(top, truth, "{order}");
        assert!(
            summary.top_k(256).iter().all(|&(key, _)| key != COLLIDER),
            "{order}: a singleton among the candidates"
        );
    }
}
