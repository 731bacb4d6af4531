//! Property-based tests of the sharded runtime: for every shard count,
//! queue depth, partition policy and batch interleaving, the merged
//! sketch must be bit-identical to feeding the same stream through one
//! sequential sketch. This is the linearity argument of the runtime
//! (counter adds commute) checked end to end through the public facade.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{
    DistinctQuery, JoinQuery, MultiSpec, MultiSummary, Portable, QuantileQuery, Sampled,
    SlimMultiSummary, SlimQuery, Summary, TopKQuery,
};
use sketch_sampled_streams::sketch::{Estimate, MisraGries};
use sketch_sampled_streams::stream::runtime::RUN_TUPLES;
use sketch_sampled_streams::stream::{
    Partition, ReadReplica, RuntimeConfig, ShardedRuntime, StreamError,
};
use sketch_sampled_streams::xi::splitmix64;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..400)
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

fn sequential(schema: &JoinSchema, keys: &[u64]) -> JoinSketch {
    let mut s = schema.sketch();
    s.update_batch(keys);
    s
}

fn multi_spec(seed: u64) -> MultiSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiSpec::new(JoinSchema::fagms(2, 128, &mut rng), &mut rng)
}

const QUANTILES: [f64; 3] = [0.1, 0.5, 0.9];
const TOP: usize = 8;

fn bits(est: &Estimate) -> [u64; 2] {
    [est.value.to_bits(), est.variance.to_bits()]
}

/// Every answer the query plane serves from a projection, as bits.
fn slim_answers(slim: &SlimMultiSummary) -> Vec<u64> {
    let mut out = Vec::new();
    out.extend(bits(&slim.self_join_estimate()));
    out.extend(bits(&slim.distinct_estimate()));
    out.extend(QUANTILES.map(|q| slim.quantile(q).unwrap().to_bits()));
    for (key, _) in slim.top_k(TOP) {
        out.push(key);
        out.extend(bits(&slim.frequency_estimate(key)));
    }
    out
}

/// The same answers through a replica's refreshing calls.
fn replica_answers(replica: &mut ReadReplica<MultiSummary>) -> Vec<u64> {
    let mut out = Vec::new();
    out.extend(bits(&replica.self_join_estimate().unwrap()));
    out.extend(bits(&replica.distinct_estimate().unwrap()));
    out.extend(QUANTILES.map(|q| replica.quantile(q).unwrap().to_bits()));
    for (key, est) in replica.top_k(TOP).unwrap() {
        out.push(key);
        out.extend(bits(&est));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary chunking × shard count × queue depth × partition: the
    /// merged result never depends on how the stream was cut up or routed.
    #[test]
    fn sharded_merge_is_bit_identical_to_sequential(
        keys in stream(),
        shards in 1usize..8,
        queue_depth in 1usize..16,
        chunk in 1usize..97,
        partition in partition(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(2, 64, &mut rng);
        let expect = sequential(&schema, &keys);

        let config = RuntimeConfig { shards, queue_depth, partition };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        for chunk in keys.chunks(chunk) {
            rt.push(chunk).unwrap();
        }
        let merged = rt.into_merged().unwrap();
        prop_assert_eq!(
            merged.raw_self_join().to_bits(),
            expect.raw_self_join().to_bits()
        );
    }

    /// Interleaved pushes and at-all-times queries: after every chunk the
    /// incremental snapshot cache (table re-merges, cache hits on
    /// repeats) must answer bit-identically to a sequential sketch of
    /// everything pushed so far.
    #[test]
    fn interleaved_queries_match_sequential_prefixes(
        keys in stream(),
        shards in 1usize..6,
        queue_depth in 1usize..8,
        chunk in 1usize..97,
        partition in partition(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(1, 64, &mut rng);
        let config = RuntimeConfig { shards, queue_depth, partition };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let mut pushed = 0usize;
        for chunk in keys.chunks(chunk) {
            rt.push(chunk).unwrap();
            pushed += chunk.len();
            let mid = rt.merged().unwrap();
            prop_assert_eq!(
                mid.raw_self_join().to_bits(),
                sequential(&schema, &keys[..pushed]).raw_self_join().to_bits()
            );
            // A repeated query with no intervening ingest is a cache hit
            // and still bit-identical.
            let again = rt.merged().unwrap();
            prop_assert_eq!(
                again.raw_self_join().to_bits(),
                mid.raw_self_join().to_bits()
            );
        }
        let stats = rt.cache_stats();
        prop_assert!(stats.hits >= (keys.len() / chunk) as u64);
        let fin = rt.into_merged().unwrap();
        prop_assert_eq!(
            fin.raw_self_join().to_bits(),
            sequential(&schema, &keys).raw_self_join().to_bits()
        );
    }

    /// After any interleaving of pushes and replica reads, a replica that
    /// lived through it and one opened at the end (nothing pending, so no
    /// staleness term) answer all four query families bit-identically to
    /// `merged().slim()` — and so does that projection after an
    /// `encode`/`decode` round trip: the codec is off the in-process path
    /// but must still say the same thing.
    #[test]
    fn replicas_answer_as_the_merged_projection_does(
        keys in prop::collection::vec(0..500u64, 1..400),
        reads in prop::collection::vec(any::<bool>(), 8),
        shards in 1usize..4,
        chunk in 1usize..97,
        partition in partition(),
        seed: u64,
    ) {
        let config = RuntimeConfig { shards, queue_depth: 4, partition };
        let mut rt = ShardedRuntime::new(config, &multi_spec(seed).summary().unwrap()).unwrap();
        let mut veteran = rt.read_replica(0).unwrap();
        for (i, chunk) in keys.chunks(chunk).enumerate() {
            rt.push(chunk).unwrap();
            if reads[i % reads.len()] {
                veteran.self_join_estimate().unwrap();
            }
        }
        let fat = rt.merged().unwrap();
        let slim = fat.slim();
        let expect = slim_answers(&slim);
        prop_assert_eq!(bits(&fat.self_join_estimate()), expect[..2]);
        let mut fresh = rt.read_replica(0).unwrap();
        prop_assert_eq!(fresh.pending(), 0);
        prop_assert_eq!(&replica_answers(&mut fresh), &expect);
        prop_assert_eq!(&replica_answers(&mut veteran), &expect);
        let decoded = SlimMultiSummary::decode(&slim.encode().unwrap()).unwrap();
        prop_assert_eq!(&slim_answers(&decoded), &expect);
    }

    /// The same property with a filter stage in front (`retain` before
    /// `push`): the sharded runtime reproduces a sequential sketch of the
    /// filtered stream exactly, and a mid-stream snapshot covers every
    /// tuple pushed before it.
    #[test]
    fn engine_snapshot_and_final_merge_are_exact(
        keys in stream(),
        shards in 1usize..6,
        chunk in 1usize..97,
        seed: u64,
    ) {
        fn drop_odd(k: u64) -> bool {
            k % 2 == 0
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(1, 32, &mut rng);

        let config = RuntimeConfig { shards, ..Default::default() };
        let mut runtime = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let push_filtered = |runtime: &mut ShardedRuntime<JoinSketch>, part: &[u64]| {
            for chunk in part.chunks(chunk) {
                let mut batch = chunk.to_vec();
                batch.retain(|&k| drop_odd(k));
                runtime.push(&batch).unwrap();
            }
        };
        let half = keys.len() / 2;
        push_filtered(&mut runtime, &keys[..half]);
        let mid = runtime.merged().unwrap();
        let transformed: Vec<u64> = keys.iter().copied().filter(|&k| drop_odd(k)).collect();
        let split = keys[..half].iter().filter(|&&k| drop_odd(k)).count();
        prop_assert_eq!(
            mid.raw_self_join().to_bits(),
            sequential(&schema, &transformed[..split]).raw_self_join().to_bits()
        );

        push_filtered(&mut runtime, &keys[half..]);
        let fin = runtime.into_merged().unwrap();
        prop_assert_eq!(
            fin.raw_self_join().to_bits(),
            sequential(&schema, &transformed).raw_self_join().to_bits()
        );
    }
}

/// An estimate's value, variance and every basic, as bits.
fn every_bit(est: &Estimate) -> Vec<u64> {
    [est.value, est.variance]
        .iter()
        .chain(&est.basics)
        .map(|x| x.to_bits())
        .collect()
}

fn rebuilds<E: Summary>(rt: &ShardedRuntime<E>) -> u64 {
    let stats = rt.cache_stats();
    stats.partial_rebuilds + stats.full_rebuilds
}

/// Push `keys` in `chunk`s into a runtime. After each chunk, a fresh F₂
/// read through the handle, then through `replica_read` (a replica's,
/// where `E` has one), rebuilds no cached merge and answers what
/// `merged()` then answers, bit for bit. A handle read served by that
/// now-current merge answers the same, even once `into_merged` has taken
/// the shards.
fn fresh_reads_match_the_merge<E: Summary + JoinQuery>(
    mut rt: ShardedRuntime<E>,
    keys: &[u64],
    chunk: usize,
    mut replica_read: impl FnMut() -> Option<Estimate>,
) -> Result<(), TestCaseError> {
    let shards = rt.shards();
    for part in keys.chunks(chunk) {
        rt.push(part).unwrap();
        let before = rebuilds(&rt);
        let fresh = every_bit(&rt.self_join_estimate().unwrap());
        let replica = replica_read().map(|est| every_bit(&est));
        prop_assert_eq!(
            rebuilds(&rt),
            before,
            "a fresh read at {} shards rebuilt the merge",
            shards
        );
        let merged = every_bit(&JoinQuery::self_join_estimate(&*rt.merged().unwrap()));
        prop_assert_eq!(&fresh, &merged, "{} shards", shards);
        if let Some(replica) = replica {
            prop_assert_eq!(&replica, &merged, "{} shards", shards);
        }
        prop_assert_eq!(&every_bit(&rt.self_join_estimate().unwrap()), &merged);
    }
    let handle = rt.query_handle();
    let merged = every_bit(&JoinQuery::self_join_estimate(&*rt.merged().unwrap()));
    rt.into_merged().unwrap();
    prop_assert_eq!(every_bit(&handle.self_join_estimate().unwrap()), merged);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At one, two and three shards under both partitions, a fresh
    /// `self_join` — the handle's, and a `max_pending = 0` replica's — is
    /// read off the caught-up shards without a fold: one shard's own
    /// estimate, or the F₂ of the shards' summed join rows. For the
    /// composite, the sampled composite and a bare join sketch (depth 1
    /// included, where the variance is the plug-in) it equals
    /// `merged().self_join_estimate()` in value, variance and every basic,
    /// and rebuilds no cached merge.
    #[test]
    fn a_fresh_self_join_is_the_merges_answer_at_every_shard_count(
        keys in prop::collection::vec(0..500u64, 1..400),
        chunk in 1usize..97,
        depth in 1usize..4,
        seed: u64,
    ) {
        for (shards, partition) in (1..=3).flat_map(|s| [(s, Partition::RoundRobin), (s, Partition::Hash)]) {
            let config = RuntimeConfig { shards, queue_depth: 4, partition };

            let rt = ShardedRuntime::new(config, &multi_spec(seed).summary().unwrap()).unwrap();
            let mut replica = rt.read_replica(0).unwrap();
            fresh_reads_match_the_merge(rt, &keys, chunk, || {
                Some(replica.self_join_estimate().unwrap())
            })?;

            let sampled = multi_spec(seed)
                .sampled(0.3, &mut StdRng::seed_from_u64(seed ^ 1))
                .unwrap();
            let rt = ShardedRuntime::new(config, &sampled).unwrap();
            fresh_reads_match_the_merge(rt, &keys, chunk, || None)?;

            let schema = JoinSchema::fagms(depth, 64, &mut StdRng::seed_from_u64(seed));
            let rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
            let mut replica = rt.read_replica(0).unwrap();
            fresh_reads_match_the_merge(rt, &keys, chunk, || {
                Some(replica.self_join_estimate().unwrap())
            })?;
        }
    }
}

/// Every family a `max_pending = 0` replica serves, as bits, in one
/// order: F₂ (every bit), F₀, the median and its envelope, the quantiles,
/// then the top keys with their estimates. `topk_first` asks the top-k
/// before the F₂, so it reads no F₂ a `self_join` left.
fn replica_family_bits(replica: &mut ReadReplica<MultiSummary>, topk_first: bool) -> Vec<u64> {
    let top_k = |replica: &mut ReadReplica<MultiSummary>| {
        let top = replica.top_k(TOP).unwrap();
        let pairs = top
            .into_iter()
            .map(|(key, est)| [key, bits(&est)[0], bits(&est)[1]]);
        pairs.flatten().collect::<Vec<u64>>()
    };
    let top = topk_first.then(|| top_k(replica));
    let mut out = every_bit(&replica.self_join_estimate().unwrap());
    out.extend(bits(&replica.distinct_estimate().unwrap()));
    let (value, (lo, hi)) = replica.quantile_with_bounds(0.5).unwrap();
    out.extend([value, lo, hi].map(f64::to_bits));
    out.extend(QUANTILES.map(|q| replica.quantile(q).unwrap().to_bits()));
    out.extend(top.unwrap_or_else(|| top_k(replica)));
    out
}

/// The same answers from a whole summary: the fold's.
fn whole_family_bits(whole: &MultiSummary) -> Vec<u64> {
    let mut out = every_bit(&JoinQuery::self_join_estimate(whole));
    out.extend(bits(&whole.distinct_estimate()));
    let (value, (lo, hi)) = whole.quantile_with_bounds(0.5).unwrap();
    out.extend([value, lo, hi].map(f64::to_bits));
    out.extend(QUANTILES.map(|q| whole.quantile(q).unwrap().to_bits()));
    for (key, _) in TopKQuery::top_k(whole, TOP) {
        let est = whole.frequency_estimate(key);
        out.extend([key, bits(&est)[0], bits(&est)[1]]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At one, two and three shards under both partitions, a
    /// `max_pending = 0` replica reads every family off the caught-up
    /// shards in place — F₀ from the maxed registers, the quantile and its
    /// envelope from the KLLs merged into scratch, the top-k from the
    /// Misra–Gries parts merged into scratch and priced over the summed
    /// join cells, with or without the F₂ a `self_join` left — rebuilds
    /// no cached merge, and answers what `merged()` then answers, bit for
    /// bit.
    #[test]
    fn fresh_family_reads_are_the_folds_answers_at_every_shard_count(
        keys in prop::collection::vec(0..500u64, 1..400),
        chunk in 1usize..97,
        seed: u64,
    ) {
        for (shards, partition) in (1..=3).flat_map(|s| [(s, Partition::RoundRobin), (s, Partition::Hash)]) {
            let config = RuntimeConfig { shards, queue_depth: 4, partition };
            let mut rt = ShardedRuntime::new(config, &multi_spec(seed).summary().unwrap()).unwrap();
            let mut replica = rt.read_replica(0).unwrap();
            for (i, part) in keys.chunks(chunk).enumerate() {
                rt.push(part).unwrap();
                let before = rebuilds(&rt);
                let fresh = replica_family_bits(&mut replica, i % 2 == 1);
                prop_assert_eq!(
                    rebuilds(&rt),
                    before,
                    "a fresh read at {} shards rebuilt the merge",
                    shards
                );
                let merged = whole_family_bits(&rt.merged().unwrap());
                prop_assert_eq!(&fresh, &merged, "{} shards, {:?}", shards, partition);
            }
        }
    }
}

/// A fresh read holds every shard lock at once, taken in shard order under
/// the cache lock, while each worker takes only its own, and a `SYNC`'s
/// catch-up takes them one at a time under the cache lock. Three shards,
/// one thread pushing, a reader looping the handle's and a
/// `max_pending = 0` replica's `self_join_estimate`, the replica's
/// `distinct_estimate`, `quantile_with_bounds` and `top_k`, plus
/// `merged()`, and a third thread looping `catch_up`: nothing deadlocks
/// (the case runs on a thread of its own and fails after 10 s), and once
/// ingest stops every fresh read in place answers the merge's bits.
#[test]
fn fresh_reads_holding_every_shard_lock_cannot_deadlock() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let config = RuntimeConfig {
            shards: 3,
            queue_depth: 2,
            partition: Partition::Hash,
        };
        let mut rt = ShardedRuntime::new(config, &multi_spec(43).summary().unwrap()).unwrap();
        let keys: Vec<u64> = (0..60_000u64).map(|i| splitmix64(i) % 5_000).collect();
        // A first batch, so a quantile has a value to read from the start.
        rt.push(&keys[..512]).unwrap();
        let handle = rt.query_handle();
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut replica = handle.read_replica(0).unwrap();
                let mut reads = 0u64;
                while !stop.load(Ordering::Acquire) {
                    handle.self_join_estimate().unwrap();
                    replica.self_join_estimate().unwrap();
                    replica.distinct_estimate().unwrap();
                    replica.quantile_with_bounds(0.5).unwrap();
                    replica.top_k(TOP).unwrap();
                    handle.merged().unwrap();
                    reads += 1;
                }
                (replica, reads)
            })
        };
        let syncer = {
            let (stop, handle) = (Arc::clone(&stop), handle.clone());
            std::thread::spawn(move || {
                let mut syncs = 0u64;
                while !stop.load(Ordering::Acquire) {
                    handle.catch_up().unwrap();
                    syncs += 1;
                }
                syncs
            })
        };
        for batch in keys[512..].chunks(512) {
            rt.push(batch).unwrap();
        }
        stop.store(true, Ordering::Release);
        let (mut replica, reads) = reader.join().unwrap();
        let syncs = syncer.join().unwrap();
        // One more batch, so every read below is read in place.
        rt.push(&keys[..512]).unwrap();
        let fresh = every_bit(&handle.self_join_estimate().unwrap());
        let by_replica = replica_family_bits(&mut replica, false);
        let merged = rt.merged().unwrap();
        let whole = whole_family_bits(&merged);
        let merged_f2 = every_bit(&JoinQuery::self_join_estimate(&*merged));
        done.send((reads, syncs, fresh, by_replica, merged_f2, whole))
            .unwrap();
    });
    let (reads, syncs, fresh, by_replica, merged_f2, whole) = finished
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("a shard lock was never given back, or a side panicked ({e})"));
    assert!(reads > 0, "the reader never read");
    assert!(syncs > 0, "the catch-up never ran");
    assert_eq!(fresh, merged_f2);
    assert_eq!(by_replica, whole);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sampling at the door keeps what a sampler in the worker kept. For
    /// any cutting of the stream into batches (empty ones and ones with no
    /// kept key included), any mix of `push` and `push_loaned`, both
    /// partitions and one to three shards, `into_merged()` equals each
    /// shard's `for_shard(i)` copy fed that shard's substream through
    /// `feed_batch` and merged in shard order: the inner summary's
    /// `encode()` bytes, `seen` and `kept`. The runtime's tuple counter
    /// counts offered tuples, the merged `seen`.
    #[test]
    fn sampling_at_the_door_keeps_the_worker_side_sample(
        keys in prop::collection::vec(0..300u64, 0..1500),
        cuts in prop::collection::vec(0usize..80, 1..40),
        loaned in prop::collection::vec(any::<bool>(), 1..8),
        rate in 0usize..3,
        shards in 1usize..4,
        partition in partition(),
        seed: u64,
    ) {
        let p = [1.0, 0.3, 0.01][rate];
        let prototype = multi_spec(seed)
            .sampled(p, &mut StdRng::seed_from_u64(seed ^ 1))
            .unwrap();
        let config = RuntimeConfig { shards, queue_depth: 4, partition };
        let mut rt = ShardedRuntime::new(config, &prototype).unwrap();
        let mut batches = Vec::new();
        let mut rest = keys.as_slice();
        for &cut in &cuts {
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            batches.push(batch);
            rest = tail;
        }
        batches.push(rest);

        let mut substreams = vec![Vec::new(); shards];
        let mut cursor = 0;
        for (i, batch) in batches.into_iter().enumerate() {
            if loaned[i % loaned.len()] {
                let mut loan = rt.loan_batch_buf(batch.len());
                loan.extend_from_slice(batch);
                rt.push_loaned(loan).unwrap();
            } else {
                rt.push(batch).unwrap();
            }
            match partition {
                Partition::RoundRobin if !batch.is_empty() => {
                    substreams[cursor].extend_from_slice(batch);
                    cursor = (cursor + 1) % shards;
                }
                Partition::RoundRobin => {}
                Partition::Hash => {
                    for &k in batch {
                        substreams[(splitmix64(k) % shards as u64) as usize].push(k);
                    }
                }
            }
        }
        let mid = rt.merged().unwrap();
        prop_assert_eq!(mid.seen(), keys.len() as u64);
        prop_assert_eq!(rt.tuples_ingested(), mid.seen());

        let mut expect = prototype.clone();
        for (shard, substream) in substreams.iter().enumerate() {
            let mut part = prototype.for_shard(shard);
            part.feed_batch(substream);
            expect.merge_from(&part).unwrap();
        }
        let merged = rt.into_merged().unwrap();
        prop_assert_eq!(
            merged.summary().encode().unwrap(),
            expect.summary().encode().unwrap()
        );
        prop_assert_eq!((merged.seen(), merged.kept()), (expect.seen(), expect.kept()));
    }
}

/// One `Sampled` prototype, handed as is to the runtime, over four
/// round-robin shards that each receive the same batch of distinct keys:
/// every shard must draw its own coins. Shards replaying one coin sequence
/// keep identical positions, so every kept key is kept four times over
/// and the Prop. 14 correction lands ≈ 7.75x above the truth.
#[test]
fn one_sampled_prototype_samples_independently_on_every_shard() {
    let mut rng = StdRng::seed_from_u64(26);
    let schema = JoinSchema::fagms(5, 16_384, &mut rng);
    let prototype = Sampled::new(schema.sketch(), 0.1, &mut rng).unwrap();
    let shards = 4;
    let batch: Vec<u64> = (0..50_000u64).collect();
    // Each key once per shard: F₂ = 50 000 · 4².
    let truth = 50_000.0 * 16.0;
    let config = RuntimeConfig {
        shards,
        ..Default::default()
    };
    let mut rt = ShardedRuntime::new(config, &prototype).unwrap();
    for _ in 0..shards {
        rt.push(&batch).unwrap();
    }
    let merged = rt.into_merged().unwrap();
    assert_eq!(merged.seen(), 200_000);
    let est = merged.self_join();
    assert!(
        (est - truth).abs() / truth < 0.15,
        "F₂ {est} against {truth}"
    );
}

/// The production summary is not linear (KLL and Misra–Gries merge
/// order-sensitively), so its rebuilds are pinned by bytes: on three
/// round-robin shards one push dirties one shard, exactly that shard is
/// counted as refreshed, and the merge of the live shards `encode()`s
/// equal to a from-scratch merge of the three shard states in shard order.
#[test]
fn one_dirty_shard_is_recloned_and_the_remerge_equals_from_scratch() {
    let proto = multi_spec(14).summary().unwrap();
    let config = RuntimeConfig {
        shards: 3,
        queue_depth: 8,
        partition: Partition::RoundRobin,
    };
    let mut rt = ShardedRuntime::new(config, &proto).unwrap();
    let keys: Vec<u64> = (0..5120u64).map(|i| (i * 2654435761) % 4000).collect();
    let batches: Vec<&[u64]> = keys.chunks(512).collect();
    // Shard state is a function of the tuple sequence the shard saw,
    // however its worker coalesced it (tests/batch_properties.rs).
    let from_scratch = |upto: usize| {
        let mut merged = proto.clone();
        for shard in 0..config.shards {
            let mut part = proto.clone();
            for batch in batches[..upto].iter().skip(shard).step_by(config.shards) {
                part.update_batch(batch);
            }
            merged.merge_from(&part).unwrap();
        }
        merged.encode().unwrap()
    };
    for batch in &batches[..9] {
        rt.push(batch).unwrap();
    }
    assert_eq!(rt.merged().unwrap().encode().unwrap(), from_scratch(9));
    let before = rt.cache_stats();
    assert_eq!((before.full_rebuilds, before.shards_refreshed), (1, 3));

    rt.push(batches[9]).unwrap();
    assert_eq!(rt.merged().unwrap().encode().unwrap(), from_scratch(10));
    let after = rt.cache_stats();
    assert_eq!(after.partial_rebuilds, before.partial_rebuilds + 1);
    assert_eq!(after.shards_refreshed, before.shards_refreshed + 1);
    assert_eq!(after.full_rebuilds, before.full_rebuilds);
}

/// Opening a replica folds nothing. Batches sit on the rings of two parked
/// workers (`push_loaned_deferred` wakes neither); `read_replica` asks the
/// cache nothing and applies no batch, and the replica holds the merge of
/// none of them, so every accepted batch is pending.
#[test]
fn opening_a_replica_folds_nothing() {
    let config = RuntimeConfig {
        shards: 2,
        queue_depth: 8,
        partition: Partition::RoundRobin,
    };
    let mut rt = ShardedRuntime::new(config, &multi_spec(44).summary().unwrap()).unwrap();
    // Let both workers go idle and park.
    std::thread::sleep(Duration::from_millis(50));
    for batch in (0..2048u64).collect::<Vec<_>>().chunks(256) {
        let mut loan = rt.loan_batch_buf(batch.len());
        loan.extend_from_slice(batch);
        rt.push_loaned_deferred(loan).unwrap();
    }
    let (queries, tuples) = (rt.cache_stats().queries(), rt.tuples_ingested());
    let replica = rt.read_replica(0).unwrap();
    assert_eq!(rt.cache_stats().queries(), queries, "the cache was asked");
    assert_eq!(rt.tuples_ingested(), tuples, "a batch was applied");
    assert_eq!((replica.version(), replica.pending()), (0, 8));
}

/// Readers share the merge itself: two replicas refreshed on one runtime
/// hold the same merge by pointer, and a third opened later holds it too,
/// without another fat merge.
#[test]
fn read_replicas_hold_the_same_projection_by_pointer() {
    let proto = multi_spec(15).summary().unwrap();
    let mut rt = ShardedRuntime::new(RuntimeConfig::default(), &proto).unwrap();
    let mut a = rt.read_replica(0).unwrap();
    let mut b = rt.read_replica(0).unwrap();
    rt.push(&(0..4096u64).collect::<Vec<_>>()).unwrap();
    assert!(a.refresh().unwrap());
    assert!(b.refresh().unwrap());
    assert!(Arc::ptr_eq(a.merged(), b.merged()));
    let queries = rt.cache_stats().queries();
    let c = rt.read_replica(0).unwrap();
    assert!(Arc::ptr_eq(a.merged(), c.merged()));
    assert_eq!(rt.cache_stats().queries(), queries, "no fat merge for c");
}

/// The runtime keeps one merge, which every replica shares. Four replicas
/// poll on four threads while the owner pushes, at `max_pending` 0 and 8:
/// no replica's version goes back, replicas at one version hold one merge
/// by pointer, and every version any of them saw but the first cost
/// exactly one rebuild of the merge and nothing else the cache counts. The
/// first, version 0, is the prototype each replica opened on.
/// The owner pushes in four phases and, after each, waits until some
/// replica has seen a version newer than the last phase's, so the replicas
/// see at least five versions however the threads are scheduled.
#[test]
fn replicas_polling_under_ingest_share_one_frame_per_version() {
    const PHASES: usize = 4;
    let keys: Vec<u64> = (0..60_000u64).map(|i| splitmix64(i) % 3000).collect();
    for max_pending in [0, 8] {
        let config = RuntimeConfig {
            shards: 2,
            queue_depth: 4,
            partition: Partition::RoundRobin,
        };
        let mut rt = ShardedRuntime::new(config, &multi_spec(17).summary().unwrap()).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let latest = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = rt.query_handle();
                let (done, latest) = (Arc::clone(&done), Arc::clone(&latest));
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut replica = handle.read_replica(max_pending).unwrap();
                    let held = |replica: &ReadReplica<MultiSummary>| {
                        (replica.version(), Arc::as_ptr(replica.merged()) as usize)
                    };
                    let mut seen = vec![held(&replica)];
                    barrier.wait();
                    while !done.load(Ordering::Acquire) {
                        replica.refresh().unwrap();
                        let now = held(&replica);
                        assert!(now.0 >= seen.last().unwrap().0, "a version went back");
                        if now != *seen.last().unwrap() {
                            seen.push(now);
                        }
                        latest.fetch_max(now.0, Ordering::AcqRel);
                    }
                    seen
                })
            })
            .collect();
        barrier.wait();
        let mut last = latest.load(Ordering::Acquire);
        for phase in keys.chunks(keys.len() / PHASES) {
            for batch in phase.chunks(300) {
                rt.push(batch).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(60);
            while latest.load(Ordering::Acquire) <= last {
                assert!(
                    Instant::now() < deadline,
                    "no replica saw version {last} pass"
                );
                std::thread::yield_now();
            }
            last = latest.load(Ordering::Acquire);
        }
        done.store(true, Ordering::Release);
        let mut merges = std::collections::BTreeMap::new();
        for reader in readers {
            for (version, merge) in reader.join().unwrap() {
                let first = *merges.entry(version).or_insert(merge);
                assert_eq!(first, merge, "version {version} has two merges");
            }
        }
        assert!(merges.len() > 2, "the replicas saw ingest: {merges:?}");
        let stats = rt.cache_stats();
        assert_eq!(stats.hits, 0, "max_pending {max_pending}");
        assert_eq!(
            stats.queries(),
            merges.len() as u64 - 1,
            "one rebuild per version, max_pending {max_pending}"
        );
    }
}

/// A replica past its budget adopts the merge the cache keeps when that
/// merge is recent enough: by pointer, with no merge and no cache count.
#[test]
fn a_refresh_within_the_kept_frame_adopts_it_without_a_query() {
    let proto = multi_spec(18).summary().unwrap();
    let mut rt = ShardedRuntime::new(RuntimeConfig::default(), &proto).unwrap();
    let mut lax = rt.read_replica(8).unwrap();
    let keys: Vec<u64> = (0..1500u64).collect();
    for batch in keys.chunks(100) {
        rt.push(batch).unwrap();
    }
    let kept = rt.merged().unwrap();
    for batch in keys.chunks(300) {
        rt.push(batch).unwrap();
    }
    let queries = rt.cache_stats().queries();
    assert_eq!(lax.pending(), 20);
    assert!(lax.refresh().unwrap());
    assert_eq!(lax.version(), 15, "the kept merge covers 20 - 8");
    assert!(Arc::ptr_eq(lax.merged(), &kept));
    assert_eq!(rt.cache_stats().queries(), queries);
}

/// The pool counters live with the runtime's read side, so a handle taken
/// before [`ShardedRuntime::into_merged`] reads the last of them after.
#[test]
fn a_query_handle_reports_the_last_pool_stats_after_into_merged() {
    let schema = JoinSchema::fagms(2, 64, &mut StdRng::seed_from_u64(19));
    let mut rt = ShardedRuntime::new(RuntimeConfig::default(), &schema.sketch()).unwrap();
    let handle = rt.query_handle();
    for batch in (0..20_000u64).collect::<Vec<_>>().chunks(100) {
        rt.push(batch).unwrap();
    }
    let last = rt.pool_stats();
    assert!(last.allocations > 0 && last.reuses > 0, "{last:?}");
    rt.into_merged().unwrap();
    assert_eq!(handle.pool_stats(), last);
}

/// A value and its envelope come from one state: one
/// `quantile_with_bounds` call. A push between two calls lands them on two
/// states — what a response built from two reads would straddle (`sss-net`
/// makes one call). At `max_pending = 0` the later call is read off the
/// shards in place and adopts no merge; a refresh then adopts the merge of
/// that same state.
#[test]
fn a_value_and_its_envelope_come_from_one_state() {
    let proto = multi_spec(16).summary().unwrap();
    let mut rt = ShardedRuntime::new(RuntimeConfig::default(), &proto).unwrap();
    rt.push(&(0..1000u64).collect::<Vec<_>>()).unwrap();
    let mut replica = rt.read_replica(0).unwrap();
    let v0 = replica.version();
    let (value, (lo, hi)) = replica.quantile_with_bounds(0.5).unwrap();
    assert!(lo <= value && value <= hi, "{lo} <= {value} <= {hi}");
    rt.push(&(1_000_000..1_004_000u64).collect::<Vec<_>>())
        .unwrap();
    let (moved, (low, high)) = replica.quantile_with_bounds(0.5).unwrap();
    assert!(low <= moved && moved <= high, "{low} <= {moved} <= {high}");
    assert_eq!(replica.version(), v0, "a read in place adopts no merge");
    assert!(
        moved > hi,
        "the newer state's median {moved} is outside ({lo}, {hi})"
    );
    assert!(replica.refresh().unwrap());
    assert!(replica.version() > v0);
    assert_eq!(
        replica.merged().quantile(0.5).unwrap().to_bits(),
        moved.to_bits()
    );
}

/// FNV-1a over a byte stream: a golden value for bytes a test pins.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `MisraGries::merge` into an empty summary, into one holding counters,
/// and into one whose counters all compacted away (a non-zero offset):
/// `encode()` and `candidates()` equal what the one-by-one counter merge
/// produced (golden hashes). The merged-in summary holds more than
/// `capacity` counters, so the merge's compaction has something to cut.
#[test]
fn misra_gries_merges_keep_their_golden_bytes() {
    let fed = |keys: Vec<u64>| {
        let mut mg = MisraGries::new(64).unwrap();
        Summary::update_batch(&mut mg, &keys);
        mg
    };
    let other = fed((0..3000u64).map(|i| splitmix64(i) % 900).collect());
    assert!(other.held() > 64);
    let holding = fed((0..2500u64).map(|i| splitmix64(i ^ 7) % 300).collect());
    assert!(holding.held() > 0);
    let gone = fed((0..2 * MisraGries::CHUNK as u64).collect());
    assert_eq!(gone.held(), 0);
    assert!(gone.error_bound() > 0);
    let hashes: Vec<[u64; 2]> = [MisraGries::new(64).unwrap(), holding, gone]
        .into_iter()
        .map(|mut into| {
            into.merge_from(&other).unwrap();
            let candidates = into.candidates();
            [
                fnv1a(into.encode().unwrap()),
                fnv1a(candidates.iter().flat_map(|k| k.to_le_bytes())),
            ]
        })
        .collect();
    assert_eq!(hashes, GOLDEN_MG_MERGES, "{hashes:#x?}");
}

/// `[encode(), candidates()]` hashes of the three merges, taken when the
/// merge still added the other table's counters one by one.
const GOLDEN_MG_MERGES: [[u64; 2]; 3] = [
    [0x31ab_6498_d2b8_abce, 0x8fa8_8702_1360_9488],
    [0x34c3_8110_e796_94a5, 0xe554_7cc2_228d_79d4],
    [0xf2a1_cf61_2de9_e19c, 0x8fa8_8702_1360_9488],
];

/// A summary that counts tuples, records the longest slice `update_batch`
/// was handed, and — while `armed` — holds the worker inside one call until
/// the test has queued what it wants behind it.
#[derive(Clone)]
struct GatedCounter {
    tuples: u64,
    longest: Arc<AtomicUsize>,
    armed: Arc<AtomicBool>,
    gate: Arc<Barrier>,
}

impl Summary for GatedCounter {
    fn update(&mut self, _key: u64, count: i64) {
        self.tuples += count.max(0) as u64;
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.tuples += keys.len() as u64;
        self.longest.fetch_max(keys.len(), Ordering::SeqCst);
        if self.armed.swap(false, Ordering::SeqCst) {
            self.gate.wait(); // the worker is in here, the ring is empty
            self.gate.wait(); // the test has refilled it
        }
    }

    fn merge_from(&mut self, other: &Self) -> sketch_sampled_streams::core::Result<()> {
        self.tuples += other.tuples;
        Ok(())
    }
}

/// Every buffer in the runtime's pool, by capacity: loans until the pool
/// runs dry, then hands them all back.
fn pooled_capacities<E: Summary>(rt: &mut ShardedRuntime<E>) -> Vec<usize> {
    let mut held = Vec::new();
    loop {
        let allocations = rt.pool_stats().allocations;
        let buf = rt.loan_batch_buf(0);
        let fresh = rt.pool_stats().allocations > allocations;
        held.push(buf);
        if fresh {
            break;
        }
    }
    let capacities = held[..held.len() - 1].iter().map(Vec::capacity).collect();
    for buf in held {
        rt.push_loaned(buf).unwrap();
    }
    capacities
}

/// The coalesced run has a cap. A producer that only pushes fills the ring
/// with four times `RUN_TUPLES` while the worker is busy; the worker then
/// takes it in runs no longer than the budget plus one batch (it used to
/// take all of it, and whatever arrived meanwhile, as one slice). A run is
/// built in the shard's own buffer, so no pooled buffer ever holds more
/// than the largest batch a producer put in it.
#[test]
fn a_push_only_producer_cannot_grow_the_coalesced_run() {
    const BATCH: usize = 4096;
    let depth = 4 * RUN_TUPLES / BATCH;
    let proto = GatedCounter {
        tuples: 0,
        longest: Arc::new(AtomicUsize::new(0)),
        armed: Arc::new(AtomicBool::new(true)),
        gate: Arc::new(Barrier::new(2)),
    };
    let config = RuntimeConfig {
        queue_depth: depth,
        ..Default::default()
    };
    let mut rt = ShardedRuntime::new(config, &proto).unwrap();
    let batch = vec![7u64; BATCH];

    rt.push(&batch).unwrap();
    proto.gate.wait();
    for _ in 0..depth {
        rt.push(&batch).unwrap();
    }
    proto.gate.wait();
    assert_eq!(rt.merged().unwrap().tuples, ((depth + 1) * BATCH) as u64);
    let longest = proto.longest.load(Ordering::SeqCst);
    assert!(longest > BATCH, "nothing was coalesced: {longest}");
    assert!(longest < RUN_TUPLES + BATCH, "a run of {longest} tuples");
    let pooled = pooled_capacities(&mut rt);
    assert!(pooled.len() > 1);
    assert!(pooled.iter().all(|&c| c <= BATCH), "{pooled:?}");

    // A one-tuple head with 3 · RUN_TUPLES behind it: the run may be that
    // long (one producer batch past the budget), a pooled buffer may not
    // grow past the batch.
    proto.armed.store(true, Ordering::SeqCst);
    rt.push(&batch).unwrap();
    proto.gate.wait();
    rt.push(&[1]).unwrap();
    rt.push(&vec![9u64; 3 * RUN_TUPLES]).unwrap();
    proto.gate.wait();
    rt.merged().unwrap();
    assert_eq!(
        proto.longest.load(Ordering::SeqCst),
        3 * RUN_TUPLES + 1,
        "head and the batch behind it are one run"
    );
    let pooled = pooled_capacities(&mut rt);
    assert!(pooled.iter().all(|&c| c <= 3 * RUN_TUPLES), "{pooled:?}");
}

/// A summary double that logs whose clone was taken: the prototype's
/// (never updated or merged into), a shard's (updated), or a merge
/// result's.
struct CloneLog {
    role: &'static str,
    log: Arc<Mutex<Vec<&'static str>>>,
}

impl Clone for CloneLog {
    fn clone(&self) -> Self {
        self.log.lock().unwrap().push(self.role);
        Self {
            role: self.role,
            log: Arc::clone(&self.log),
        }
    }
}

impl Summary for CloneLog {
    fn update(&mut self, _key: u64, _count: i64) {
        self.role = "shard";
    }

    fn update_batch(&mut self, _keys: &[u64]) {
        self.role = "shard";
    }

    fn merge_from(&mut self, _other: &Self) -> sketch_sampled_streams::core::Result<()> {
        self.role = "merged";
        Ok(())
    }
}

/// No query clones a shard: a rebuild clones the prototype once, to fold
/// the live shards into, and a hit clones nothing. `merged()` lends the
/// cached merge rather than copying it, and a replica holds it as lent;
/// opening one clones nothing, not even the prototype it holds first.
#[test]
fn a_rebuild_clones_the_prototype_once_and_no_shard() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let proto = CloneLog {
        role: "prototype",
        log: Arc::clone(&log),
    };
    let config = RuntimeConfig {
        shards: 3,
        queue_depth: 4,
        partition: Partition::RoundRobin,
    };
    let mut rt = ShardedRuntime::new(config, &proto).unwrap();
    let take = || {
        let mut roles = std::mem::take(&mut *log.lock().unwrap());
        roles.sort_unstable();
        roles
    };
    take();
    let early = rt.read_replica(0).unwrap();
    assert_eq!(early.merged().role, "prototype");
    assert!(take().is_empty(), "opening clones nothing");
    for key in 0..3 {
        rt.push(&[key]).unwrap();
    }
    rt.merged().unwrap();
    assert_eq!(take(), ["prototype"], "rebuild");
    let mut replica = rt.read_replica(0).unwrap();
    assert_eq!(replica.merged().role, "merged");
    assert!(take().is_empty(), "the replica opened on the kept merge");
    rt.push(&[3]).unwrap();
    assert!(replica.refresh().unwrap());
    assert_eq!(take(), ["prototype"], "rebuild");
    assert!(Arc::ptr_eq(&rt.merged().unwrap(), replica.merged()));
    assert!(take().is_empty(), "a hit clones nothing");
    assert_eq!(rt.cache_stats().queries(), 3);
}

/// A join sketch that also counts its tuples, so an answer says how much
/// of the stream it covers.
#[derive(Clone)]
struct Counted {
    sketch: JoinSketch,
    tuples: u64,
}

impl Summary for Counted {
    fn update(&mut self, key: u64, count: i64) {
        self.sketch.update(key, count);
        self.tuples += count.max(0) as u64;
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.sketch.update_batch(keys);
        self.tuples += keys.len() as u64;
    }

    fn merge_from(&mut self, other: &Self) -> sketch_sampled_streams::core::Result<()> {
        self.tuples += other.tuples;
        self.sketch.merge_from(&other.sketch)
    }
}

/// A `QueryHandle` thread polls `merged()` and a replica while the owner
/// pushes. Every answer covers at least the batches accepted before it
/// was asked; on one shard it is exactly the sequential sketch of a
/// batch-boundary prefix. On three shards, with both partitions, the final
/// merge is byte-equal to the sequential sketch.
#[test]
fn polling_under_ingest_covers_what_was_accepted() {
    const BATCH: usize = 64;
    const BATCHES: usize = 300;
    let keys: Vec<u64> = (0..(BATCH * BATCHES) as u64)
        .map(|i| splitmix64(i) % 1000)
        .collect();
    let schema = JoinSchema::fagms(1, 256, &mut StdRng::seed_from_u64(31));
    let prefixes: Arc<Vec<(Vec<u8>, [u64; 2])>> = Arc::new(
        (0..=BATCHES)
            .map(|j| {
                let sketch = sequential(&schema, &keys[..j * BATCH]);
                (
                    sketch.encode().unwrap(),
                    bits(&sketch.raw_self_join_estimate()),
                )
            })
            .collect(),
    );
    let proto = Counted {
        sketch: schema.sketch(),
        tuples: 0,
    };
    for (shards, partition) in [
        (1, Partition::RoundRobin),
        (3, Partition::RoundRobin),
        (3, Partition::Hash),
    ] {
        let config = RuntimeConfig {
            shards,
            queue_depth: 4,
            partition,
        };
        let mut rt = ShardedRuntime::new(config, &proto).unwrap();
        let handle = rt.query_handle();
        let pushed = Arc::new(AtomicUsize::new(0));
        let poller = {
            let pushed = Arc::clone(&pushed);
            let prefixes = Arc::clone(&prefixes);
            std::thread::spawn(move || {
                let mut replica = handle.read_replica(0).unwrap();
                let mut polls = 0;
                loop {
                    let before = pushed.load(Ordering::SeqCst);
                    let merged = handle.merged().unwrap();
                    assert!(merged.tuples >= (before * BATCH) as u64);
                    if shards == 1 {
                        let j = merged.tuples as usize / BATCH;
                        assert_eq!(merged.tuples as usize, j * BATCH);
                        assert_eq!(merged.sketch.encode().unwrap(), prefixes[j].0);
                    }
                    let before = pushed.load(Ordering::SeqCst);
                    replica.refresh().unwrap();
                    let held = replica.merged();
                    assert!(held.tuples >= (before * BATCH) as u64);
                    if shards == 1 {
                        let j = held.tuples as usize / BATCH;
                        let est = held.sketch.raw_self_join_estimate();
                        assert_eq!(bits(&est), prefixes[j].1);
                    }
                    polls += 1;
                    if before == BATCHES {
                        return polls;
                    }
                }
            })
        };
        for (i, batch) in keys.chunks(BATCH).enumerate() {
            rt.push(batch).unwrap();
            pushed.store(i + 1, Ordering::SeqCst);
        }
        assert!(poller.join().unwrap() > 0);
        let fin = rt.into_merged().unwrap();
        assert_eq!(fin.tuples, keys.len() as u64);
        assert_eq!(
            fin.sketch.encode().unwrap(),
            prefixes[BATCHES].0,
            "{shards} shards, {partition:?}"
        );
    }
}

/// A join sketch whose `merge_from`, while `armed`, holds the querier
/// until the test lets it go.
#[derive(Clone)]
struct HeldMerge {
    sketch: JoinSketch,
    armed: Arc<AtomicBool>,
    gate: Arc<Barrier>,
}

impl Summary for HeldMerge {
    fn update(&mut self, key: u64, count: i64) {
        self.sketch.update(key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        self.sketch.update_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> sketch_sampled_streams::core::Result<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.gate.wait(); // the querier is in here
            self.gate.wait(); // the test has pushed behind it
        }
        self.sketch.merge_from(&other.sketch)
    }
}

impl JoinQuery for HeldMerge {
    fn self_join(&self) -> f64 {
        self.sketch.self_join()
    }

    fn size_of_join(&self, other: &Self) -> sketch_sampled_streams::core::Result<f64> {
        self.sketch.size_of_join(&other.sketch)
    }

    fn self_join_estimate(&self) -> Estimate {
        self.sketch.self_join_estimate()
    }

    fn size_of_join_estimate(
        &self,
        other: &Self,
    ) -> sketch_sampled_streams::core::Result<Estimate> {
        self.sketch.size_of_join_estimate(&other.sketch)
    }
}

/// A replica's merge counts only what it merged. A refresh is held inside
/// `merge_from` while the producer pushes one more batch; the merge must
/// not count that batch's tuples as applied, or the replica prices too
/// little staleness once the batch lands.
#[test]
fn a_replica_frame_counts_only_the_tuples_it_merged() {
    let schema = JoinSchema::fagms(1, 256, &mut StdRng::seed_from_u64(32));
    let proto = HeldMerge {
        sketch: schema.sketch(),
        armed: Arc::new(AtomicBool::new(false)),
        gate: Arc::new(Barrier::new(2)),
    };
    let mut rt = ShardedRuntime::new(RuntimeConfig::default(), &proto).unwrap();
    let keys: Vec<u64> = (0..3072u64).map(|i| i % 300).collect();
    rt.push(&keys[..1024]).unwrap();
    rt.push(&keys[1024..2048]).unwrap();
    proto.armed.store(true, Ordering::SeqCst);
    // Both batches are past the prototype it opens on, one more than its
    // budget: the refresh merges.
    let mut replica = rt.read_replica(1).unwrap();
    let querier = std::thread::spawn(move || {
        assert!(replica.refresh().unwrap());
        replica
    });
    proto.gate.wait();
    rt.push(&keys[2048..]).unwrap();
    // Time for a worker that is free to apply the batch to do so.
    let deadline = Instant::now() + Duration::from_millis(250);
    while rt.tuples_ingested() < 3072 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    proto.gate.wait();
    let mut replica = querier.join().unwrap();
    assert_eq!(replica.version(), 2, "the merge folded two batches");
    rt.merged().unwrap();
    assert_eq!(rt.tuples_ingested(), 3072);
    let bare = replica.merged().self_join_estimate();
    let priced = replica.self_join_estimate().unwrap();
    assert_eq!(replica.version(), 2, "one batch pending, max_pending = 1");
    assert_eq!(priced.value.to_bits(), bare.value.to_bits());
    assert!(
        priced.variance > bare.variance,
        "1024 tuples past the merge must widen the bar: {} vs {}",
        priced.variance,
        bare.variance
    );
}

/// A summary that counts tuples and panics on `u64::MAX`, noting the
/// thread that applied it.
#[derive(Clone)]
struct Fuse {
    tuples: u64,
    fired_on: Arc<Mutex<Option<String>>>,
}

impl Summary for Fuse {
    fn update(&mut self, key: u64, _count: i64) {
        self.update_batch(&[key]);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        if keys.contains(&u64::MAX) {
            let name = std::thread::current().name().unwrap_or("").to_string();
            *self.fired_on.lock().unwrap() = Some(name);
            panic!("injected summary panic");
        }
        self.tuples += keys.len() as u64;
    }

    fn merge_from(&mut self, other: &Self) -> sketch_sampled_streams::core::Result<()> {
        self.tuples += other.tuples;
        Ok(())
    }
}

/// A summary panic kills its shard whichever thread applied the batch —
/// the worker, or a query catching an idle shard up. Every later push,
/// `merged()`, replica refresh and `into_merged` is `ShardDisconnected`:
/// nothing panics or hangs, and no partial merge is cached.
#[test]
fn a_summary_panic_on_either_applying_thread_kills_only_its_shard() {
    let disconnected =
        |r: Result<(), StreamError>| matches!(r, Err(StreamError::ShardDisconnected { shard: 0 }));
    for by_query in [false, true] {
        // A query beats a parked worker to a fresh batch almost always;
        // a round the worker won is run again.
        for attempt in 0.. {
            assert!(attempt < 50, "the worker won every race");
            let proto = Fuse {
                tuples: 0,
                fired_on: Arc::new(Mutex::new(None)),
            };
            let config = RuntimeConfig {
                shards: 2,
                queue_depth: 4,
                partition: Partition::RoundRobin,
            };
            let mut rt = ShardedRuntime::new(config, &proto).unwrap();
            rt.push(&[1, 2]).unwrap();
            rt.push(&[3]).unwrap();
            let mut replica = rt.read_replica(0).unwrap();
            assert!(replica.refresh().unwrap());
            assert_eq!(replica.merged().tuples, 3);
            let queries = rt.cache_stats().queries();
            // Let both workers go idle and park.
            std::thread::sleep(Duration::from_millis(20));
            rt.push(&[u64::MAX]).unwrap();
            if by_query {
                assert!(disconnected(rt.merged().map(drop)));
            } else {
                while proto.fired_on.lock().unwrap().is_none() {
                    std::thread::yield_now();
                }
            }
            let fired_on = proto.fired_on.lock().unwrap().clone().unwrap();
            if by_query && fired_on == "sss-shard-0" {
                continue;
            }
            assert_eq!(fired_on == "sss-shard-0", !by_query, "{fired_on}");

            assert!(disconnected(rt.merged().map(drop)));
            assert!(disconnected(replica.refresh().map(drop)));
            assert_eq!(replica.merged().tuples, 3, "the last whole merge stays");
            assert_eq!(rt.cache_stats().queries(), queries, "nothing cached");
            // Round-robin: shard 1 takes the next push, shard 0 refuses one.
            rt.push(&[4]).unwrap();
            assert!(disconnected(rt.push(&[5])));
            assert!(disconnected(rt.merged().map(drop)));
            assert!(disconnected(rt.into_merged().map(drop)));
            break;
        }
    }
}

/// A join sketch whose batched update sleeps 1 ms, so a depth-1 ring fills
/// behind it.
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

/// Backpressure on the blocking path. A depth-1 runtime behind a summary
/// that sleeps per batch, at 1 and 2 shards under both partitions, fed
/// through `push` and through `loan_batch_buf` + `push_loaned`: no shard
/// ever holds more than `queue_depth + 1` batches, every offered tuple is
/// applied, and the merge is the sequential sketch bit for bit.
#[test]
fn a_saturated_depth_one_runtime_blocks_and_keeps_every_tuple() {
    let schema = JoinSchema::fagms(1, 256, &mut StdRng::seed_from_u64(37));
    let keys: Vec<u64> = (0..12_000u64).map(|i| splitmix64(i) % 1_000).collect();
    let expect = sequential(&schema, &keys).raw_self_join().to_bits();
    for shards in [1, 2] {
        for partition in [Partition::RoundRobin, Partition::Hash] {
            for loaned in [false, true] {
                let case = format!("{shards} shards, {partition:?}, loaned {loaned}");
                let config = RuntimeConfig {
                    shards,
                    queue_depth: 1,
                    partition,
                };
                let mut rt = ShardedRuntime::new(config, &Sluggish(schema.sketch())).unwrap();
                for batch in keys.chunks(200) {
                    if loaned {
                        let mut buf = rt.loan_batch_buf(batch.len());
                        buf.extend_from_slice(batch);
                        rt.push_loaned(buf).unwrap();
                    } else {
                        rt.push(batch).unwrap();
                    }
                }
                assert!(
                    rt.queue_high_water() <= rt.queue_depth() + 1,
                    "{case}: high-water {}",
                    rt.queue_high_water()
                );
                let merged = rt.merged().unwrap();
                assert_eq!(rt.tuples_ingested(), keys.len() as u64, "{case}");
                assert_eq!(merged.0.raw_self_join().to_bits(), expect, "{case}");
            }
        }
    }
}

/// Voluntary context switches of each `sss-shard-*` thread of this
/// process, by thread id.
#[cfg(target_os = "linux")]
fn shard_worker_switches() -> std::collections::BTreeMap<String, u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?;
            let tid = dir.file_name()?.to_string_lossy().into_owned();
            comm.starts_with("sss-shard")
                .then_some((tid, switches.trim().parse().ok()?))
        })
        .collect()
}

/// An idle shard worker sleeps until a batch or a hang-up wakes it: after
/// a push and a query, a two-shard runtime's workers make at most a few
/// voluntary context switches in 300 ms of idleness (a worker that polled
/// on a timer would make hundreds). The workers are told apart from other
/// tests' by the thread ids that `new` added.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_runtime_leaves_its_shard_workers_asleep() {
    let schema = JoinSchema::fagms(1, 64, &mut StdRng::seed_from_u64(43));
    let config = RuntimeConfig {
        shards: 2,
        queue_depth: 4,
        partition: Partition::RoundRobin,
    };
    for attempt in 0.. {
        assert!(attempt < 20, "other tests kept spawning shard workers");
        let before = shard_worker_switches();
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let ours: Vec<String> = shard_worker_switches()
            .into_keys()
            .filter(|tid| !before.contains_key(tid))
            .collect();
        if ours.len() != 2 {
            continue;
        }
        rt.push(&[1, 2, 3]).unwrap();
        rt.merged().unwrap();
        let start = shard_worker_switches();
        std::thread::sleep(Duration::from_millis(300));
        let end = shard_worker_switches();
        for tid in &ours {
            let woke = end[tid] - start[tid];
            assert!(woke <= 5, "shard worker {tid} woke {woke} times in 300 ms");
        }
        return;
    }
}
