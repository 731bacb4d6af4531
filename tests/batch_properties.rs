//! Property-based tests of the batched update kernels: `update_batch` /
//! `update_batch_counts` must be bit-identical to the sequential per-key
//! path for every sketch backend and CW family pair, and the
//! skip-sampled `feed_batch` must reproduce `observe` exactly.
//!
//! The order-dependent summaries are held to the same bar by *state*, not
//! by answers: the chunk-merging Misra–Gries batch path, the windowed KLL
//! batch path and the `MultiSummary` fan-out that shares one deduplication
//! between its parts must leave the bytes `encode()` writes equal to the
//! per-key loop's, however the stream is cut into calls. The hash-once
//! Count-Sketch top-k batch path, which writes no bytes, is held to its
//! loop's state as `Debug` prints it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{MultiSpec, MultiSummary, Portable, Sampled, Summary};
use sketch_sampled_streams::sketch::{
    AgmsSchema, CountSketchTopK, FagmsSchema, FagmsSketch, HyperLogLog, KllSketch, MisraGries,
};
use sketch_sampled_streams::xi::{
    BucketFamily, Codec, Cw2, Cw2Bucket, Cw4, Reader, SignFamily, Writer,
};

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..400)
}

/// Signed multiplicities, including negatives (turnstile deletions) and
/// zeros, paired with arbitrary keys.
fn counted_stream() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((any::<u64>(), -50i64..50), 1..400)
}

/// Feed `keys` key by key to `update` and in two arbitrary chunks to
/// `update_batch`: the two sketches behind them must then agree exactly.
fn check_unit_batch(
    keys: &[u64],
    split: usize,
    mut update: impl FnMut(u64, i64),
    mut update_batch: impl FnMut(&[u64]),
) {
    for &k in keys {
        update(k, 1);
    }
    let split = split.min(keys.len());
    update_batch(&keys[..split]);
    update_batch(&keys[split..]);
}

/// [`check_unit_batch`] for `(key, count)` pairs and `update_batch_counts`.
fn check_counted_batch(
    items: &[(u64, i64)],
    split: usize,
    mut update: impl FnMut(u64, i64),
    mut update_batch_counts: impl FnMut(&[(u64, i64)]),
) {
    for &(k, c) in items {
        update(k, c);
    }
    let split = split.min(items.len());
    update_batch_counts(&items[..split]);
    update_batch_counts(&items[split..]);
}

/// The batch paths' chunk size (`sss_sketch::runs`): the lengths below
/// straddle it.
const CHUNK: usize = MisraGries::CHUNK;
const LENGTHS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7];

/// A skewed stream over `domain` keys (cubing a uniform draw piles the
/// mass on the small keys), so chunks repeat keys and a small candidate
/// set keeps admitting and evicting.
fn skewed(len: usize, domain: u64, rng: &mut StdRng) -> Vec<u64> {
    (0..len)
        .map(|_| (domain as f64 * rng.random::<f64>().powi(3)) as u64)
        .collect()
}

/// The Fibonacci multiplier the counter tables hash with, and its inverse
/// modulo 2^64 (Newton's iteration doubles the correct low bits each step).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
const INVERSE: u64 = {
    let mut inverse = 1u64;
    let mut step = 0;
    while step < 6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inverse)));
        step += 1;
    }
    inverse
};

/// Distinct `i` map to distinct keys whose Fibonacci products are `i`
/// itself, so the top bits — the home slot — are zero for every small `i`:
/// all such keys share one probe chain.
fn colliding(i: u64) -> u64 {
    i.wrapping_mul(INVERSE)
}

/// Hand `keys` to `call` in slices of `cut`, `2·cut + 1`, `cut`, … keys —
/// call boundaries that fall anywhere relative to the chunk size.
fn in_calls(keys: &[u64], cut: usize, mut call: impl FnMut(&[u64])) {
    let mut rest = keys;
    let mut wide = false;
    while !rest.is_empty() {
        let take = if wide { 2 * cut + 1 } else { cut }.min(rest.len());
        call(&rest[..take]);
        rest = &rest[take..];
        wide = !wide;
    }
}

/// `offer_batch` (in arbitrary calls) against the per-key `offer` loop:
/// the same state — counters, candidates with the same estimate bits, the
/// weakest-candidate cache, the offered weight — which `Debug` prints in
/// full (the batch path's buffers, not state, print as a placeholder); and,
/// so that a stale cache would show, the same again after 100 further
/// per-key offers on both sides.
fn check_topk_batch<S, B>(depth: usize, keys: &[u64], cut: usize, rng: &mut StdRng)
where
    S: SignFamily + std::fmt::Debug,
    B: BucketFamily + std::fmt::Debug,
{
    let schema = FagmsSchema::<S, B>::new(depth, 61, rng);
    // Far fewer candidate slots than distinct keys.
    let mut scalar = CountSketchTopK::new(&schema, 8).unwrap();
    let mut batched = scalar.clone();
    for &k in keys {
        scalar.offer(k, 1);
    }
    in_calls(keys, cut, |call| batched.offer_batch(call));
    let tail = skewed(100, 500, rng);
    for round in 0..2 {
        assert_eq!(
            format!("{scalar:?}"),
            format!("{batched:?}"),
            "state diverged (round {round})"
        );
        for &k in &tail {
            scalar.offer(k, 1);
            batched.offer(k, 1);
        }
    }
}

/// The same identity at the product's `k = 200`, where the first sampling
/// level appears after 0.82 M tuples and the second after 1.64 M: KLL alone
/// and inside a `MultiSummary`, the per-key loop against calls of 1, 3000
/// and 6001 tuples, and (KLL alone; the proptest below resumes composites)
/// against a resume from a snapshot taken mid-window.
#[test]
fn k_200_batches_match_the_loop_once_sampling_is_live() {
    let mut rng = StdRng::seed_from_u64(0x200);
    let keys = skewed(1_750_077, 1 << 20, &mut rng);
    let calls = |keys: &[u64], call: &mut dyn FnMut(&[u64])| {
        let (singles, rest) = keys.split_at(keys.len().min(1000));
        singles.chunks(1).for_each(&mut *call);
        in_calls(rest, 3000, call);
    };

    let mut scalar = KllSketch::with_seed(200, 9).unwrap();
    keys.iter().for_each(|&k| scalar.insert(k));
    assert!(scalar.stored() < 620, "stored {}", scalar.stored());
    let mut batched = KllSketch::with_seed(200, 9).unwrap();
    calls(&keys, &mut |call| batched.insert_batch(call));
    assert_eq!(scalar.encode().unwrap(), batched.encode().unwrap());
    let (before, after) = keys.split_at(1_700_001);
    let mut resumed = KllSketch::with_seed(200, 9).unwrap();
    resumed.insert_batch(before);
    let mut resumed = KllSketch::decode(&resumed.encode().unwrap()).unwrap();
    calls(after, &mut |call| resumed.insert_batch(call));
    assert_eq!(scalar.encode().unwrap(), resumed.encode().unwrap());

    let spec = MultiSpec::new(JoinSchema::fagms(2, 64, &mut rng), &mut rng);
    let mut scalar = spec.summary().unwrap();
    keys.iter().for_each(|&k| scalar.update(k, 1));
    let mut batched = spec.summary().unwrap();
    calls(&keys, &mut |call| batched.update_batch(call));
    assert_eq!(scalar.encode().unwrap(), batched.encode().unwrap());
}

/// Misra–Gries merging two summaries that each hold `capacity + CHUNK − 1`
/// counters — the most a stream leaves between two compactions — all on
/// one probe chain, so the merge has to grow the index past what either
/// side needed: the batch-fed pair merges to the per-key-fed pair's bytes,
/// and to the counters the merge rule predicts.
#[test]
fn misra_gries_merge_of_full_tables_grows_the_index() {
    const CAPACITY: usize = 8;
    // A window whose compaction keeps exactly `CAPACITY` keys, seen
    // `heavy` times each, then new keys up to one short of the next.
    let side = |base: u64, heavy: u64| -> Vec<u64> {
        let mut keys: Vec<u64> = (0..CAPACITY as u64 * heavy)
            .map(|i| i % CAPACITY as u64)
            .collect();
        keys.extend(keys.len() as u64..2 * CHUNK as u64 - 1);
        keys.into_iter().map(|i| colliding(base + i)).collect()
    };
    let fed = |keys: &[u64]| {
        let mut scalar = MisraGries::new(CAPACITY).unwrap();
        keys.iter().for_each(|&key| scalar.offer(key, 1));
        let mut batched = MisraGries::new(CAPACITY).unwrap();
        in_calls(keys, 777, |call| batched.offer_batch(call));
        assert_eq!(batched.held(), CAPACITY + CHUNK - 1);
        assert_eq!(scalar.encode().unwrap(), batched.encode().unwrap());
        (scalar, batched)
    };
    let right = 1 << 40;
    let (mut scalar, mut batched) = fed(&side(0, 100));
    let (scalar_right, batched_right) = fed(&side(right, 200));
    scalar.merge(&scalar_right).unwrap();
    batched.merge(&batched_right).unwrap();
    assert_eq!(scalar.encode().unwrap(), batched.encode().unwrap());
    // Each side compacted once by 1. The merge's cut is the ninth largest
    // sum, the left side's heavy count: only the right side's heavy keys
    // survive, each by the difference.
    assert_eq!(batched.held(), CAPACITY);
    assert_eq!(batched.error_bound(), 1 + 1 + 99);
    for key in 0..CAPACITY as u64 {
        assert_eq!(batched.raw_estimate(colliding(right + key)), 100.0);
    }
}

/// `Σ_b s_b·t_b` for one row, folded the way a reader writes it: one row
/// after another, each in bucket order.
fn row_fold(s: &[i64], t: &[i64]) -> f64 {
    s.iter().zip(t).map(|(&s, &t)| s as f64 * t as f64).sum()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A depth × `width` sketch whose counters reach ±2^40: their squares
/// pass 2^53, so every partial sum rounds and an F₂ row summed in any
/// other order would show in its low bits.
fn heavy_counters<S: SignFamily, B: BucketFamily>(
    schema: &FagmsSchema<S, B>,
    rng: &mut StdRng,
) -> FagmsSketch<S, B> {
    let mut sketch = schema.sketch();
    let items: Vec<(u64, i64)> = (0..3 * schema.width())
        .map(|_| (rng.random(), rng.random_range(-(1i64 << 40)..1i64 << 40)))
        .collect();
    sketch.update_batch_counts(&items);
    sketch
}

/// Batched pricing against the per-key point query, bit for bit, on an
/// F-AGMS sketch of the given families and depth.
fn check_fagms_pricing<S: SignFamily, B: BucketFamily>(
    depth: usize,
    keys: &[u64],
    fed: &[u64],
    rng: &mut StdRng,
) {
    let schema = FagmsSchema::<S, B>::new(depth, 61, rng);
    let mut sketch = schema.sketch();
    sketch.update_batch(fed);
    let one_by_one: Vec<f64> = keys.iter().map(|&k| sketch.point_query(k)).collect();
    assert_eq!(bits(&sketch.point_queries(keys)), bits(&one_by_one));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// F-AGMS rows summed in one pass over the buckets, up to four rows at
    /// a time, are the row-by-row folds bit for bit: at every depth from 1
    /// to 7 (so 5, 6 and 7 take a block of four and a tail), with counters
    /// whose squares pass 2^53, for the self-join and for the size of join
    /// — also against an empty sketch, where every product is ±0 and the
    /// fold's `-0.0` start shows.
    #[test]
    fn fagms_rows_in_one_pass_match_the_row_folds(
        depth in 1usize..8,
        width in 1usize..300,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(depth, width, &mut rng);
        let s = heavy_counters(&schema, &mut rng);
        let t = heavy_counters(&schema, &mut rng);
        let empty = schema.sketch();
        let folds = |a: &FagmsSketch<Cw4, Cw2Bucket>, b: &FagmsSketch<Cw4, Cw2Bucket>| {
            (0..depth).map(|r| row_fold(a.row(r), b.row(r))).collect::<Vec<f64>>()
        };
        prop_assert_eq!(bits(&s.self_join_rows()), bits(&folds(&s, &s)));
        prop_assert_eq!(bits(&s.size_of_join_rows(&t).unwrap()), bits(&folds(&s, &t)));
        prop_assert_eq!(bits(&empty.size_of_join_rows(&t).unwrap()), bits(&folds(&empty, &t)));
        prop_assert_eq!(bits(&empty.self_join_rows()), bits(&folds(&empty, &empty)));
    }

    /// HyperLogLog's distinct estimate, which sums `2^-r` from a table of
    /// the ranks in register order, is bit for bit the per-register
    /// division `1 / 2^r` summed in the same order: over random register
    /// arrays at every precision up to 14, with a random share of empty
    /// registers, so both the harmonic mean and linear counting answer.
    #[test]
    fn hll_distinct_matches_the_division_form(
        precision in 4u8..=14,
        empty_share in 0.0f64..1.0,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let registers: Vec<u8> = (0..1usize << precision)
            .map(|_| {
                if rng.random_bool(empty_share) {
                    0
                } else {
                    rng.random_range(1..=64 - precision + 1)
                }
            })
            .collect();
        let mut body = Writer::new();
        body.bytes(&registers);
        body.u64(u64::from(precision));
        body.u64(seed);
        let body = body.into_bytes();
        let hll = HyperLogLog::take(&mut Reader::new(&body)).unwrap();

        let m = registers.len() as f64;
        let mut inverse_sum = 0.0f64;
        let mut zeros = 0u64;
        for &r in &registers {
            inverse_sum += 1.0 / (1u64 << r) as f64;
            zeros += u64::from(r == 0);
        }
        let alpha = match registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            len => 0.7213 / (1.0 + 1.079 / len as f64),
        };
        let raw = alpha * m * m / inverse_sum;
        let expect = if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        prop_assert_eq!(hll.raw_distinct().to_bits(), expect.to_bits());
    }

    /// Top-k candidates priced in one batched call are the per-key point
    /// queries bit for bit: on both `JoinSketch` backends, and on F-AGMS
    /// with CW2 signs and with two more independently seeded CW4 pairs, at
    /// depths that take each of the median's paths — for no keys and for
    /// lengths around the kernels' eight-key lanes.
    #[test]
    fn batched_pricing_matches_point_queries(
        length in 0usize..8,
        depth in 1usize..8,
        seed: u64,
    ) {
        const PRICED: [usize; 8] = [0, 1, 7, 8, 9, 23, 256, 259];
        let mut rng = StdRng::seed_from_u64(seed);
        let fed = skewed(3000, 400, &mut rng);
        // Half the priced keys were fed, half most likely not.
        let keys: Vec<u64> = (0..PRICED[length])
            .map(|i| if i % 2 == 0 { fed[i] } else { rng.random() })
            .collect();
        for schema in [
            JoinSchema::fagms(depth, 61, &mut rng),
            JoinSchema::agms(2 * depth + 1, &mut rng),
        ] {
            let mut join = schema.sketch();
            join.update_batch(&fed);
            let one_by_one: Vec<f64> = keys.iter().map(|&k| join.point_query(k)).collect();
            prop_assert_eq!(bits(&join.point_queries(&keys)), bits(&one_by_one));
        }
        check_fagms_pricing::<Cw2, Cw2Bucket>(depth, &keys, &fed, &mut rng);
        for _ in 0..2 {
            check_fagms_pricing::<Cw4, Cw2Bucket>(depth, &keys, &fed, &mut rng);
        }
    }

    /// Top-k: hashing once per distinct key and deciding once per tuple
    /// passes through exactly the states of the per-key loop — at depth 5
    /// and at depth 7, past the median's comparison networks.
    #[test]
    fn topk_offer_batch_matches_offer_loop(length in 0usize..6, cut in 1usize..3000, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = skewed(LENGTHS[length], 500, &mut rng);
        check_topk_batch::<Cw4, Cw2Bucket>(5, &keys, cut, &mut rng);
        check_topk_batch::<Cw4, Cw2Bucket>(7, &keys, cut, &mut rng);
    }

    /// Misra–Gries: gathering a chunk in the counter table one probe per
    /// tuple and compacting where the offered weight reaches a multiple of
    /// the chunk length is what the per-key loop does one tuple at a time —
    /// same counters, same offset, wherever the calls end, whatever a
    /// weighted offer did to the position first, with every key on one
    /// probe chain or spread, and through a snapshot taken anywhere on the
    /// way, mid-chunk or not; and the same again after 100 further per-key
    /// offers.
    #[test]
    fn misra_gries_batch_matches_offer_loop(
        length in 0usize..6,
        cut in 1usize..3000,
        lead in 0i64..5000,
        collide: bool,
        resume in 0.0f64..1.0,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = skewed(LENGTHS[length], 5000, &mut rng);
        if collide {
            keys.iter_mut().for_each(|key| *key = colliding(*key));
        }
        let mut scalar = MisraGries::new(8).unwrap();
        scalar.offer(3, lead);
        let mut batched = scalar.clone();
        for &k in &keys {
            scalar.offer(k, 1);
        }
        let (before, after) = keys.split_at((resume * keys.len() as f64) as usize);
        in_calls(before, cut, |call| batched.offer_batch(call));
        let mut batched = MisraGries::decode(&batched.encode().unwrap()).unwrap();
        in_calls(after, cut, |call| batched.offer_batch(call));
        let tail = skewed(100, 5000, &mut rng);
        for _ in 0..2 {
            prop_assert!(batched.held() <= 8 + CHUNK);
            prop_assert_eq!(scalar.encode().unwrap(), batched.encode().unwrap());
            for &k in &tail {
                scalar.offer(k, 1);
                batched.offer(k, 1);
            }
        }
    }

    /// KLL: `insert_batch` takes a slice as aligned windows — one survivor
    /// per `2^base` values, found by index — and compacts in place, yet
    /// stores what the `insert` loop stores and flips the same coins,
    /// however the calls cut the windows (single values and lengths that
    /// are no power of two included; at `k < 40` the longer streams have
    /// five to eight sampling levels live) — also when the summary was
    /// encoded and decoded anywhere on the way, mid-window or not.
    #[test]
    fn kll_insert_batch_matches_insert_loop(
        length in 0usize..6,
        k in 8usize..40,
        cut in 1usize..3000,
        resume in 0.0f64..1.0,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<u64> = (0..LENGTHS[length]).map(|_| rng.random()).collect();
        let mut scalar = KllSketch::with_seed(k, seed).unwrap();
        for &v in &values {
            scalar.insert(v);
        }
        let mut batched = KllSketch::with_seed(k, seed).unwrap();
        in_calls(&values, cut, |call| batched.insert_batch(call));
        prop_assert_eq!(scalar.encode().unwrap(), batched.encode().unwrap());

        let (before, after) = values.split_at((resume * values.len() as f64) as usize);
        let mut resumed = KllSketch::with_seed(k, seed).unwrap();
        resumed.insert_batch(before);
        let mut resumed = KllSketch::decode(&resumed.encode().unwrap()).unwrap();
        in_calls(after, cut, |call| resumed.insert_batch(call));
        prop_assert_eq!(scalar.encode().unwrap(), resumed.encode().unwrap());
    }

    /// The composite: one deduplication per chunk feeds the join sketch and
    /// Misra–Gries (distinct keys with counts), HyperLogLog (distinct keys)
    /// and KLL (raw tuples, as windows), and every part ends up byte for
    /// byte where per-key `update` leaves it — on both join backends, and
    /// through a snapshot taken anywhere on the way.
    #[test]
    fn multi_update_batch_matches_update_loop(
        length in 0usize..6,
        cut in 1usize..3000,
        resume in 0.0f64..1.0,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = skewed(LENGTHS[length], 700, &mut rng);
        let join = if seed % 2 == 0 {
            JoinSchema::fagms(2, 61, &mut rng)
        } else {
            JoinSchema::agms(8, &mut rng)
        };
        let spec = MultiSpec::new(join, &mut rng)
            .top_k(8)
            .distinct_precision(4)
            .quantile_k(8);
        let mut scalar = spec.summary().unwrap();
        for &k in &keys {
            scalar.update(k, 1);
        }
        let mut batched = spec.summary().unwrap();
        in_calls(&keys, cut, |call| batched.update_batch(call));
        prop_assert_eq!(scalar.encode().unwrap(), batched.encode().unwrap());

        let (before, after) = keys.split_at((resume * keys.len() as f64) as usize);
        let mut resumed = spec.summary().unwrap();
        resumed.update_batch(before);
        let mut resumed = MultiSummary::decode(&resumed.encode().unwrap()).unwrap();
        in_calls(after, cut, |call| resumed.update_batch(call));
        prop_assert_eq!(scalar.encode().unwrap(), resumed.encode().unwrap());
    }

    /// AGMS: the family-major `sign_sum` kernel is bit-identical to the
    /// per-key loop for both CW degrees (CW4 and CW2).
    #[test]
    fn agms_update_batch_matches_scalar(keys in stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);

        let schema = AgmsSchema::<Cw4>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&keys, split, |k, c| scalar.update(k, c), |b| batched.update_batch(b));
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());

        let schema = AgmsSchema::<Cw2>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&keys, split, |k, c| scalar.update(k, c), |b| batched.update_batch(b));
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());
    }

    /// AGMS with signed counts: `sign_dot` handles negative and zero
    /// multiplicities exactly.
    #[test]
    fn agms_update_batch_counts_matches_scalar(items in counted_stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = AgmsSchema::<Cw2>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_counted_batch(&items, split, |k, c| scalar.update(k, c), |b| batched.update_batch_counts(b));
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());
    }

    /// F-AGMS: the fused `signed_scatter` row kernel is bit-identical to
    /// the scalar path, for both CW sign degrees.
    #[test]
    fn fagms_update_batch_matches_scalar(keys in stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);

        // Polynomial sign × polynomial bucket → fused scatter kernel.
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&keys, split, |k, c| scalar.update(k, c), |b| batched.update_batch(b));
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // Pairwise polynomial sign: a different coefficient degree.
        let schema = FagmsSchema::<Cw2, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&keys, split, |k, c| scalar.update(k, c), |b| batched.update_batch(b));
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // A second, independently seeded CW4 pair.
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&keys, split, |k, c| scalar.update(k, c), |b| batched.update_batch(b));
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }
    }

    /// F-AGMS with signed counts through the fused counts kernel.
    #[test]
    fn fagms_update_batch_counts_matches_scalar(items in counted_stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(4, 32, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_counted_batch(&items, split, |k, c| scalar.update(k, c), |b| batched.update_batch_counts(b));
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }
    }

    /// Skip-sampled batching: `feed_batch` over arbitrary chunkings of the
    /// stream keeps the same sample, the same counters and therefore the
    /// same estimator value as per-tuple `observe` with an identically
    /// seeded sketcher.
    #[test]
    fn feed_batch_matches_observe(keys in stream(), chunk in 1usize..97, p in 0.01f64..1.0, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(2, 32, &mut rng);

        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut scalar = Sampled::new(schema.sketch(), p, &mut rng_a).unwrap();
        let mut batched = Sampled::new(schema.sketch(), p, &mut rng_b).unwrap();

        let mut kept = 0u64;
        for &k in &keys {
            kept += scalar.observe(k) as u64;
        }
        let mut kept_batched = 0u64;
        for chunk in keys.chunks(chunk) {
            kept_batched += batched.feed_batch(chunk);
        }

        prop_assert_eq!(kept, kept_batched);
        prop_assert_eq!(scalar.seen(), batched.seen());
        prop_assert_eq!(scalar.kept(), batched.kept());
        prop_assert_eq!(
            scalar.summary().raw_self_join(),
            batched.summary().raw_self_join()
        );
        prop_assert_eq!(scalar.self_join(), batched.self_join());
    }
}
