//! Merge properties of the F₀/quantile backends (`HyperLogLog`,
//! `KllSketch`) under the `Summary` contract.
//!
//! The sharded runtime partitions tuples arbitrarily across shards and
//! re-merges on query, so the whole one-pass design rests on merges being
//! order-insensitive: commutative bit-for-bit for the monotone register
//! maximum (HLL), and guarantee-preserving in either order for the lossy
//! compactor (KLL). Neither merge has an inverse, which is why the
//! snapshot cache rebuilds a merged view from the live shards and never
//! patches one: the last two tests run that through the runtime.
//!
//! That rebuild starts from the first live shard's `merged_into` the
//! prototype, which must be the merge into it bit for bit:
//! `merged_into_is_a_merge_into_the_zero` holds it for the summaries that
//! override it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::{
    DistinctQuery, JoinSchema, MultiSpec, Portable, QuantileQuery, Sampled, Summary,
};
use sketch_sampled_streams::sketch::{HyperLogLog, KllSketch, MisraGries};
use sketch_sampled_streams::stream::{RuntimeConfig, ShardedRuntime};
use sketch_sampled_streams::xi::splitmix64;

#[path = "support/kll_levels.rs"]
mod kll_levels;

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..10_000u64, 1..300)
}

/// `len` values of a fixed scrambled sequence, from `start` on.
fn scrambled(start: u64, len: usize) -> Vec<u64> {
    (start..start + len as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40)
        .collect()
}

/// Normalized exact rank of `value` in `all` (fraction strictly below).
fn exact_rank(all: &[u64], value: f64) -> f64 {
    let below = all.iter().filter(|&&x| (x as f64) < value).count();
    below as f64 / all.len() as f64
}

proptest! {
    /// HLL merging is the register-wise maximum: commutative and
    /// idempotent *bit-for-bit*, and identical to summarizing the
    /// concatenated stream directly — the property that makes arbitrary
    /// shard partitioning invisible to F₀ queries.
    #[test]
    fn hll_merge_is_commutative_idempotent_and_union_exact(
        a in stream(),
        b in stream(),
    ) {
        let empty = HyperLogLog::with_seed(10, 0xF0F0).unwrap();
        let mut ha = empty.clone();
        ha.insert_batch(&a);
        let mut hb = empty.clone();
        hb.insert_batch(&b);

        let mut ab = ha.clone();
        ab.merge_from(&hb).unwrap();
        let mut ba = hb.clone();
        ba.merge_from(&ha).unwrap();
        prop_assert_eq!(ab.distinct_estimate().value.to_bits(), ba.distinct_estimate().value.to_bits());

        // Merge ≡ concatenation.
        let mut direct = empty.clone();
        direct.insert_batch(&a);
        direct.insert_batch(&b);
        prop_assert_eq!(ab.distinct_estimate().value.to_bits(), direct.distinct_estimate().value.to_bits());

        // Idempotent: max(x, x) = x.
        let before = ab.distinct_estimate().value.to_bits();
        let twin = ab.clone();
        ab.merge_from(&twin).unwrap();
        prop_assert_eq!(ab.distinct_estimate().value.to_bits(), before);
    }

    /// KLL merging is lossy (compaction discards items), so the two merge
    /// orders need not be bit-identical — but both must summarize the
    /// same union: identical total weight, and every reported quantile's
    /// exact rank within the advertised ε of the request (with slack for
    /// the discrete grid).
    #[test]
    fn kll_merge_order_preserves_the_rank_guarantee(
        a in stream(),
        b in stream(),
    ) {
        let empty = KllSketch::with_seed(200, 0x6B6C).unwrap();
        let mut ka = empty.clone();
        ka.insert_batch(&a);
        let mut kb = empty.clone();
        kb.insert_batch(&b);

        let mut ab = ka.clone();
        ab.merge_from(&kb).unwrap();
        let mut ba = kb.clone();
        ba.merge_from(&ka).unwrap();

        let n = (a.len() + b.len()) as u64;
        prop_assert_eq!(ab.stream_len(), n);
        prop_assert_eq!(ba.stream_len(), n);

        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        // ε plus one grid step: the exact rank of a discrete order
        // statistic can sit a full 1/n from the requested q even for an
        // exact summary.
        let tol = ab.rank_error() + 1.0 / all.len() as f64 + 1e-9;
        for merged in [&ab, &ba] {
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let v = merged.quantiles(&[q]).unwrap()[0];
                let r = exact_rank(&all, v);
                prop_assert!(
                    (r - q).abs() <= tol,
                    "q = {}, reported value {} has exact rank {} (tol {})",
                    q, v, r, tol
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sampler's invariant survives everything a summary goes through:
    /// after any mix of batches, single inserts, merges of summaries with
    /// fewer or more levels (and therefore fewer or more sampling levels)
    /// and decodes, sampling level `h` holds exactly bit `h` of `n` items
    /// and the levels weigh `n` (at `k = 8` a few hundred values are enough
    /// for sampling levels; at `k = 20`, a few thousand).
    #[test]
    fn kll_sampling_levels_hold_the_binary_expansion_of_n(
        small in 0usize..3,
        ops in prop::collection::vec((0u8..4, 0usize..5000), 1..12),
        seed: u64,
    ) {
        let k = [8usize, 9, 20][small];
        let mut kll = KllSketch::with_seed(k, seed).unwrap();
        let mut n = 0u64;
        for (op, len) in ops {
            match op {
                0 => kll.insert_batch(&scrambled(n, len)),
                1 => scrambled(n, len % 70).into_iter().for_each(|v| kll.insert(v)),
                2 => {
                    let mut other = KllSketch::with_seed(k, seed ^ len as u64).unwrap();
                    other.insert_batch(&scrambled(n, len));
                    kll.merge(&other).unwrap();
                }
                _ => kll = KllSketch::decode(&kll.encode().unwrap()).unwrap(),
            }
            n = kll.len();
            kll_levels::assert_sampler_invariant(&kll);
        }
    }

    /// Merge stays commutative on answers when the two sides stopped at
    /// different places in their windows (unequal `n mod 2^base`) and at
    /// different level counts: both orders hold the same weighted items,
    /// so every quantile and every rank agree to the bit.
    #[test]
    fn kll_merge_is_commutative_on_answers_with_unequal_residuals(
        len_a in 0usize..6000,
        len_b in 0usize..6000,
        seed: u64,
    ) {
        let mut ka = KllSketch::with_seed(8, seed).unwrap();
        ka.insert_batch(&scrambled(0, len_a));
        let mut kb = KllSketch::with_seed(8, !seed).unwrap();
        kb.insert_batch(&scrambled(7_000, len_b));
        let mut ab = ka.clone();
        ab.merge(&kb).unwrap();
        let mut ba = kb.clone();
        ba.merge(&ka).unwrap();
        prop_assert_eq!(ab.len(), (len_a + len_b) as u64);
        prop_assert_eq!(ab.stored(), ba.stored());
        kll_levels::assert_sampler_invariant(&ab);
        prop_assert_eq!(kll_levels::level_sizes(&ab), kll_levels::level_sizes(&ba));
        if !ab.is_empty() {
            let ranks: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
            let values = ab.raw_quantiles(&ranks).unwrap();
            prop_assert_eq!(&values, &ba.raw_quantiles(&ranks).unwrap());
            for v in values {
                prop_assert_eq!(ab.raw_rank(v).to_bits(), ba.raw_rank(v).to_bits());
            }
        }
    }
}

/// A feed's length: empty, ending on a Misra–Gries chunk boundary, or
/// ending mid-chunk.
fn feed_len() -> impl Strategy<Value = usize> {
    let chunk = MisraGries::CHUNK;
    (0..3u8, 1..4usize, 1..4 * chunk).prop_map(move |(kind, chunks, len)| match kind {
        0 => 0,
        1 => chunks * chunk,
        _ => len,
    })
}

/// `zero ⊕ x` the long way: a copy of the zero, then a merge into it.
fn merged_by_hand<S: Summary>(x: &S, zero: &S) -> S {
    let mut merged = zero.clone();
    merged.merge_from(x).unwrap();
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `x.merged_into(&zero)` is `zero.clone()` then `merge_from(&x)`:
    /// byte for byte through `encode()` for the join sketch (both
    /// backends) and the composite, whose Misra–Gries part may have just
    /// compacted; field for field, and the inner summary's bytes, for the
    /// sampled composite, whose shard copy draws other coins than the
    /// zero it merges into.
    #[test]
    fn merged_into_is_a_merge_into_the_zero(
        len in feed_len(),
        domain in 1..5_000u64,
        seed in any::<u64>(),
    ) {
        let keys: Vec<u64> = (0..len as u64)
            .map(|i| splitmix64(seed ^ i) % domain)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for schema in [JoinSchema::fagms(3, 256, &mut rng), JoinSchema::agms(64, &mut rng)] {
            let zero = schema.sketch();
            let mut x = zero.clone();
            x.update_batch(&keys);
            prop_assert_eq!(
                x.merged_into(&zero).unwrap().encode().unwrap(),
                merged_by_hand(&x, &zero).encode().unwrap()
            );
        }

        let spec = MultiSpec::new(JoinSchema::fagms(3, 256, &mut rng), &mut rng).top_k(16);
        let zero = spec.summary().unwrap();
        let mut x = zero.clone();
        x.update_batch(&keys);
        prop_assert_eq!(
            x.merged_into(&zero).unwrap().encode().unwrap(),
            merged_by_hand(&x, &zero).encode().unwrap()
        );

        let zero = spec.sampled(0.25, &mut rng).unwrap();
        let mut x = zero.for_shard(1);
        // The kept keys as a door would hand them over, out of 4× as many
        // offered tuples.
        x.update_admitted(&keys, 4 * keys.len() as u64);
        let (fast, slow) = (x.merged_into(&zero).unwrap(), merged_by_hand(&x, &zero));
        prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        prop_assert_eq!((fast.seen(), fast.kept()), (slow.seen(), slow.kept()));
        prop_assert_eq!(
            fast.summary().encode().unwrap(),
            slow.summary().encode().unwrap()
        );
    }
}

/// `merged_into` refuses what `merge_from` refuses: another schema, another
/// spec, another sampling rate.
#[test]
fn merged_into_refuses_what_a_merge_refuses() {
    let mut rng = StdRng::seed_from_u64(5);
    let fagms = JoinSchema::fagms(2, 64, &mut rng).sketch();
    let agms = JoinSchema::agms(64, &mut rng).sketch();
    let other_fagms = JoinSchema::fagms(2, 64, &mut rng).sketch();
    assert!(fagms.merged_into(&agms).is_err());
    assert!(fagms.merged_into(&other_fagms).is_err());

    let spec = MultiSpec::new(JoinSchema::fagms(2, 64, &mut rng), &mut rng);
    let multi = spec.summary().unwrap();
    assert!(multi
        .merged_into(&spec.clone().top_k(8).summary().unwrap())
        .is_err());

    let sampled = spec.sampled(0.5, &mut rng).unwrap();
    let other_rate = Sampled::new(spec.summary().unwrap(), 0.25, &mut rng).unwrap();
    assert!(sampled.merged_into(&other_rate).is_err());
    assert!(sampled.merged_into(&sampled).is_ok());
}

/// Rebuilds stay exact for non-linear summaries: with a HyperLogLog
/// prototype every post-ingest query re-merges the live shards (the
/// only operation asked of the summary is `merge_from`), while quiet
/// queries still hit the cache.
#[test]
fn snapshot_cache_falls_back_to_full_rebuilds_for_hll() {
    let proto = HyperLogLog::with_seed(12, 0xCAFE).unwrap();
    let config = RuntimeConfig {
        shards: 2,
        ..Default::default()
    };
    let mut rt = ShardedRuntime::new(config, &proto).unwrap();

    let first: Vec<u64> = (0..5_000u64).collect();
    rt.push(&first).unwrap();
    let merged = rt.merged().unwrap();
    let d = merged.distinct_estimate().value;
    assert!(
        (d - 5_000.0).abs() / 5_000.0 < 0.05,
        "merged F₀ {d} not within 5% of 5000"
    );

    // New ingest dirties the other round-robin shard; the rebuild spans
    // both and stays exact: the union now holds 6000 distinct keys.
    let second: Vec<u64> = (5_000..6_000u64).collect();
    rt.push(&second).unwrap();
    let merged = rt.merged().unwrap();
    let d = merged.distinct_estimate().value;
    assert!(
        (d - 6_000.0).abs() / 6_000.0 < 0.05,
        "post-refresh F₀ {d} not within 5% of 6000"
    );
    let mut whole = proto.clone();
    whole.insert_batch(&first);
    whole.insert_batch(&second);
    assert_eq!(
        merged.distinct_estimate().value.to_bits(),
        whole.distinct_estimate().value.to_bits()
    );
    let stats = rt.cache_stats();
    assert_eq!(stats.partial_rebuilds + stats.full_rebuilds, 2);
    assert_eq!(stats.shards_refreshed, 2, "one shard dirty per rebuild");

    // No intervening ingest: pure cache hit, bit-identical answer.
    let again = rt.merged().unwrap();
    assert_eq!(
        again.distinct_estimate().value.to_bits(),
        merged.distinct_estimate().value.to_bits()
    );
    assert_eq!(rt.cache_stats().hits, 1);
}

/// The same for the KLL prototype, checked through the quantile surface:
/// the re-merged summary covers both ingest waves.
#[test]
fn snapshot_cache_falls_back_to_full_rebuilds_for_kll() {
    let proto = KllSketch::with_seed(200, 0xBEEF).unwrap();
    let config = RuntimeConfig {
        shards: 2,
        ..Default::default()
    };
    let mut rt = ShardedRuntime::new(config, &proto).unwrap();

    let first: Vec<u64> = (0..10_000u64).collect();
    rt.push(&first).unwrap();
    let merged = rt.merged().unwrap();
    assert_eq!(merged.stream_len(), 10_000);

    let second: Vec<u64> = (10_000..20_000u64).collect();
    rt.push(&second).unwrap();
    let merged = rt.merged().unwrap();
    assert_eq!(merged.stream_len(), 20_000);
    let median = merged.quantiles(&[0.5]).unwrap()[0];
    assert!(
        (median - 10_000.0).abs() / 20_000.0 <= merged.rank_error() + 0.01,
        "median {median} outside rank envelope around 10000"
    );
    let stats = rt.cache_stats();
    assert_eq!(stats.partial_rebuilds + stats.full_rebuilds, 2);
    assert_eq!(stats.hits, 0);
}
