//! Static assertions over the redesigned `Summary` hierarchy — the
//! API-surface contract of the one-pass multi-summary engine and of the
//! two-stage slim-query read path.
//!
//! These tests mostly "run" at compile time: each `fn bound<T: Trait>()`
//! instantiation proves a trait bound holds, so a refactor that silently
//! drops a capability (say, `HyperLogLog: DistinctQuery`) breaks the
//! build here rather than in downstream code. The runtime bodies pin the
//! parts of the contract the type system cannot see. That removed names
//! stay removed can only be proven at compile time: `sss_core::summary`
//! and the `sss_core`, `sss_stream`, `sss_sketch` and `sss_moments` crate
//! docs carry the `compile_fail` doctests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{
    DistinctQuery, JoinQuery, MultiSpec, MultiSummary, Portable, QuantileQuery, Sampled,
    SampledMultiSummary, SlimJoin, SlimMultiSummary, SlimQuery, SlimTopK, Summary, TopKQuery,
};
use sketch_sampled_streams::sketch::{CountSketchTopK, HyperLogLog, KllSketch, MisraGries};
use sketch_sampled_streams::stream::{QueryHandle, ReadReplica, RuntimeConfig, ShardedRuntime};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// The bound probes. Instantiating `summary::<T>()` is a compile-time
// proof that `T: Summary`; ditto for each capability.
fn summary<T: Summary>() {}
fn join_query<T: JoinQuery>() {}
fn topk_query<T: TopKQuery>() {}
fn distinct_query<T: DistinctQuery>() {}
fn quantile_query<T: QuantileQuery>() {}
fn portable<T: Portable>() {}
fn slim_query<T: SlimQuery>() {}
fn clone_send_static<T: Clone + Send + 'static>() {}

/// Every backend satisfies the base ingestion contract, and `Sampled<S>`
/// preserves it (the sampling lens must ride the sharded runtime exactly
/// like the summary it wraps). `CountSketchTopK` is a summary and nothing
/// else: the write path the ledger's `sketch.topk_update` row replays.
#[test]
fn every_backend_is_a_summary() {
    summary::<JoinSketch>();
    summary::<MisraGries>();
    summary::<CountSketchTopK>();
    summary::<HyperLogLog>();
    summary::<KllSketch>();
    summary::<MultiSummary>();
    summary::<Sampled<JoinSketch>>();
    summary::<Sampled<HyperLogLog>>();
    summary::<Sampled<KllSketch>>();
    summary::<SampledMultiSummary>();
}

/// Each capability trait is held by exactly the backends that can answer
/// it — and by `MultiSummary`, which holds all four at once (that is the
/// tentpole: one pass, every query family).
#[test]
fn capabilities_land_on_the_right_backends() {
    join_query::<JoinSketch>();
    join_query::<MultiSummary>();

    topk_query::<MisraGries>();
    topk_query::<MultiSummary>();

    distinct_query::<HyperLogLog>();
    distinct_query::<MultiSummary>();

    quantile_query::<KllSketch>();
    quantile_query::<MultiSummary>();
}

/// The capability traits are *standalone* — deliberately not subtraits
/// of `Summary` — so read-only slim replicas can answer queries without
/// carrying the ingestion contract. The compile-time proof: `SlimJoin`,
/// `SlimTopK` and `SlimMultiSummary` hold capabilities although none of
/// them is a `Summary` (they have no `update`, and slim lane aggregates
/// cannot merge: `(a+b)² ≠ a² + b²`). `Summary` itself still requires
/// `Clone + Send + Sync + 'static` — the properties the sharded runtime's
/// worker threads, snapshot cache and the read replicas sharing its merge
/// rely on.
#[test]
fn capabilities_are_standalone_and_slim_replicas_hold_them() {
    // Capabilities without `Summary`: these instantiations would not
    // compile if the supertrait bound came back.
    join_query::<SlimJoin>();
    topk_query::<SlimTopK>();
    join_query::<SlimMultiSummary>();
    topk_query::<SlimMultiSummary>();
    distinct_query::<SlimMultiSummary>();
    quantile_query::<SlimMultiSummary>();

    // Slim replicas still cross threads and the wire.
    clone_send_static::<SlimJoin>();
    portable::<SlimJoin>();
    portable::<SlimTopK>();
    portable::<SlimMultiSummary>();

    // The ingestion contract keeps its runtime-facing supertraits.
    fn summary_is_clone_send_sync_static<T: Summary>() {
        clone_send_static::<T>();
        fn sync<T: Sync>() {}
        sync::<T>();
    }
    summary_is_clone_send_sync_static::<MultiSummary>();
}

/// Every fat update-side summary projects to a slim read replica, and
/// every summary (fat or slim) has a versioned portable wire form.
#[test]
fn fat_summaries_are_portable_and_project_slim() {
    slim_query::<JoinSketch>();
    slim_query::<MisraGries>();
    slim_query::<HyperLogLog>();
    slim_query::<KllSketch>();
    slim_query::<MultiSummary>();

    portable::<JoinSketch>();
    portable::<MisraGries>();
    portable::<HyperLogLog>();
    portable::<KllSketch>();
    portable::<MultiSummary>();
}

/// The streaming layer is generic over the hierarchy: the runtime accepts
/// any `Summary` (a sampled composite included), the join-specific query
/// surface demands `Summary + JoinQuery`, and a read replica, which holds
/// the merge itself, any `Summary` (each read adds its family's query
/// trait).
#[test]
fn streaming_layer_is_generic_over_the_hierarchy() {
    // Pure type-level instantiations — never constructed.
    fn runtime_accepts<E: Summary>() {
        let _ = std::marker::PhantomData::<ShardedRuntime<E>>;
    }
    fn replica_accepts<E: Summary>() {
        let _ = std::marker::PhantomData::<ReadReplica<E>>;
    }
    runtime_accepts::<HyperLogLog>();
    runtime_accepts::<KllSketch>();
    runtime_accepts::<SampledMultiSummary>();
    replica_accepts::<JoinSketch>();
    replica_accepts::<MultiSummary>();
    replica_accepts::<SampledMultiSummary>();
}

/// `Estimate`-returning capability queries agree with their scalar
/// counterparts — the typed surface is a superset, not a fork.
#[test]
fn typed_queries_wrap_the_scalar_ones() {
    let mut r = rng(3);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 512, &mut r), &mut r);
    let mut multi = spec.summary().unwrap();
    let keys: Vec<u64> = (0..500u64).map(|i| i % 40).collect();
    multi.update_batch(&keys);

    assert_eq!(multi.self_join_estimate().value, multi.self_join());
    assert_eq!(multi.distinct_estimate().value, multi.distinct());
    assert_eq!(multi.frequency_estimate(7).value, multi.frequency(7));
    let median = multi.quantile(0.5).unwrap();
    let rank_of_median = multi.rank(median as u64);
    assert!((0.0..=1.0).contains(&rank_of_median));
    assert_eq!(multi.stream_len(), keys.len() as u64);
}

/// The slim projection answers the fat summary's query bit-for-bit at
/// projection time: the two-stage read path trades staleness (bounded,
/// and priced into the variance) for bytes, never accuracy at the
/// instant of projection.
#[test]
fn slim_projection_is_bit_identical_at_projection_time() {
    let mut r = rng(4);
    let schema = JoinSchema::fagms(5, 512, &mut r);
    let mut fat = schema.sketch();
    let keys: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 700).collect();
    fat.update_batch(&keys);
    let slim = fat.slim();
    let fat_est = fat.self_join_estimate();
    let slim_est = slim.self_join_estimate();
    assert_eq!(slim_est.value.to_bits(), fat_est.value.to_bits());
    assert_eq!(slim_est.variance.to_bits(), fat_est.variance.to_bits());
    // And it is the cheaper wire object by construction.
    let fat_bytes = fat.encode().unwrap().len();
    let slim_bytes = slim.encode().unwrap().len();
    assert!(
        slim_bytes * 5 < fat_bytes,
        "slim {slim_bytes} bytes vs fat {fat_bytes} bytes"
    );
}

/// What a fresh wire turn rests on: the ingest plane pushes without waking
/// a worker per batch (`push_loaned_deferred`, beside the ledger-named
/// `push_loaned`, which keeps waking), wakes the workers once a turn
/// (`wake_workers`), and answers a `SYNC` by catching every shard up
/// (`catch_up`); a replica reads a quantile and its envelope from one
/// state, and each composite family reads the shards' parts in place.
#[test]
fn a_fresh_turn_pushes_deferred_catches_up_and_reads_in_place() {
    let _ = ShardedRuntime::<MultiSummary>::push_loaned;
    let _ = ShardedRuntime::<MultiSummary>::push_loaned_deferred;
    let _ = ShardedRuntime::<MultiSummary>::wake_workers;
    let _ = QueryHandle::<MultiSummary>::catch_up;
    let _ = ReadReplica::<MultiSummary>::quantile_with_bounds;
    let _ = <MultiSummary as DistinctQuery>::distinct_estimate_of_sum;
    let _ = <MultiSummary as QuantileQuery>::quantile_with_bounds_of_sum;
    let _ = <MultiSummary as TopKQuery>::top_k_of_sum;

    let mut r = rng(5);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 512, &mut r), &mut r);
    let config = RuntimeConfig {
        shards: 2,
        ..RuntimeConfig::default()
    };
    let mut rt = ShardedRuntime::new(config, &spec.summary().unwrap()).unwrap();
    for _ in 0..4 {
        let mut loan = rt.loan_batch_buf(256);
        loan.extend(0..256u64);
        rt.push_loaned_deferred(loan).unwrap();
    }
    rt.catch_up().unwrap();
    assert_eq!(rt.tuples_ingested(), 4 * 256, "applied, not only queued");
    rt.wake_workers();
}
