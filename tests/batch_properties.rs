//! Property-based tests of the batched update kernels: `update_batch` /
//! `update_batch_counts` must be bit-identical to the sequential per-key
//! path for every sketch backend and CW family pair, and the
//! skip-sampled `feed_batch` must reproduce `observe` exactly.
//!
//! The order-dependent summaries are held to the same bar by *state*, not
//! by answers: the chunk-merging Misra–Gries batch path, the windowed KLL
//! batch path and the `MultiSummary` fan-out that shares one deduplication
//! between its parts must leave the bytes `encode()` writes equal to the
//! per-key loop's, however the stream is cut into calls. The Count-Sketch
//! top-k tracker, which writes no bytes of its own, is held to its loop's
//! F-AGMS counters and Misra–Gries bytes, and to a `MultiSummary`'s.
//!
//! The rows' `Σ c²` an F-AGMS sketch keeps on its counted writes must read
//! as the pass over its counters does, bit for bit, after any sequence of
//! writes, merges, clones and decodes, and at each edge of its fast path.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{MultiSpec, MultiSummary, Portable, Sampled, Summary};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::sketch::{
    AgmsSchema, CountSketchTopK, FagmsSchema, FagmsSketch, HyperLogLog, KllSketch, MisraGries,
};
use sketch_sampled_streams::xi::kernels::{self, Dispatch};
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

/// An F-AGMS sketch's counters, row by row.
fn rows(sketch: &FagmsSketch) -> Vec<Vec<i64>> {
    (0..sketch.schema().depth())
        .map(|r| sketch.row(r).to_vec())
        .collect()
}

/// `offer_batch` (in arbitrary calls) against the per-key `offer` loop:
/// the same state — the sketch's counters and the bytes its Misra–Gries
/// front encodes to; and, so that a stale chunk count would show, the
/// same again after 100 further per-key offers on both sides.
fn check_topk_batch(depth: usize, keys: &[u64], cut: usize, rng: &mut StdRng) {
    let schema: FagmsSchema = FagmsSchema::new(depth, 61, rng);
    // Far fewer candidate slots than distinct keys.
    let mut scalar = CountSketchTopK::new(&schema, 8).unwrap();
    let mut batched = scalar.clone();
    for &k in keys {
        scalar.offer(k, 1);
    }
    in_calls(keys, cut, |call| batched.offer_batch(call));
    let state = |t: &CountSketchTopK| (rows(t.sketch()), t.heavy().encode().unwrap());
    let tail = skewed(100, 500, rng);
    for round in 0..2 {
        assert_eq!(
            state(&scalar),
            state(&batched),
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

    /// Top-k: gathering each chunk in Misra–Gries and adding its runs to
    /// the sketch leaves the state of the per-key loop.
    #[test]
    fn topk_offer_batch_matches_offer_loop(length in 0usize..6, cut in 1usize..3000, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = skewed(LENGTHS[length], 500, &mut rng);
        check_topk_batch(5, &keys, cut, &mut rng);
    }

    /// `CountSketchTopK` is the composite's top-k write path on its own:
    /// fed one Zipf stream, each side in its own random call cuts, it holds
    /// the F-AGMS counters and the Misra–Gries bytes of a `MultiSummary`'s
    /// `join()` and `heavy()` over the same schema and capacity. Its two
    /// read-only accessors, `sketch()` and `heavy()`, exist for this test.
    #[test]
    fn topk_tracker_holds_the_composites_join_and_heavy_parts(
        length in 0usize..6,
        capacity in 1usize..40,
        cuts in (1usize..3000, 1usize..3000),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ZipfGenerator::new(3000, 1.1).relation(LENGTHS[length], &mut rng);
        let schema: FagmsSchema = FagmsSchema::new(3, 61, &mut rng);
        let spec = MultiSpec::new(JoinSchema::Fagms(schema.clone()), &mut rng).top_k(capacity);
        let mut multi = spec.summary().unwrap();
        in_calls(&keys, cuts.0, |call| multi.update_batch(call));
        let mut tracker = CountSketchTopK::new(&schema, capacity).unwrap();
        in_calls(&keys, cuts.1, |call| tracker.offer_batch(call));
        let JoinSketch::Fagms(join) = multi.join() else {
            unreachable!("an F-AGMS spec mints an F-AGMS join part")
        };
        prop_assert_eq!(rows(tracker.sketch()), rows(join));
        prop_assert_eq!(tracker.heavy().encode().unwrap(), multi.heavy().encode().unwrap());
    }

    /// Misra–Gries hands every chunk over as what it gathered: the runs are
    /// the chunk's distinct keys with their counts, as a multiset, with
    /// every key on one probe chain or spread, across compactions, wherever
    /// the calls and a weighted lead put the chunk ends.
    #[test]
    fn misra_gries_runs_are_each_chunks_distinct_keys(
        length in 0usize..6,
        cut in 1usize..3000,
        lead in 0i64..5000,
        collide: bool,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = skewed(LENGTHS[length], 5000, &mut rng);
        if collide {
            keys.iter_mut().for_each(|key| *key = colliding(*key));
        }
        let mut mg = MisraGries::new(8).unwrap();
        mg.offer(3, lead);
        in_calls(&keys, cut, |call| {
            mg.offer_chunks(call, |runs, chunk| {
                let mut want = std::collections::BTreeMap::new();
                chunk.iter().for_each(|&key| *want.entry(key).or_insert(0) += 1);
                let mut got = runs.items().to_vec();
                got.sort_unstable();
                assert_eq!(got, want.into_iter().collect::<Vec<_>>());
            })
        });
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

    /// F-AGMS: a batch of unit counts through the all-rows counted kernel
    /// is bit-identical to the scalar path, for both CW sign degrees.
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
        prop_assert_eq!(scalar.self_join_estimate(), batched.self_join_estimate());
    }
}

type Fagms = FagmsSketch<Cw4, Cw2Bucket>;

/// The pass `self_join_rows` stands for: every row's exact `Σ c²` rounded
/// once where `square_sum` takes every row, else every row's f64 fold.
fn squared_rows(sketch: &Fagms) -> Vec<f64> {
    let rows: Vec<&[i64]> = (0..sketch.schema().depth())
        .map(|r| sketch.row(r))
        .collect();
    let exact = |row: &&[i64]| kernels::square_sum(Dispatch::get(), row).map(|sum| sum as f64);
    let exact: Option<Vec<f64>> = rows.iter().map(exact).collect();
    exact.unwrap_or_else(|| rows.iter().map(|row| row_fold(row, row)).collect())
}

/// `self_join_rows` reads the pass's bits, and so does a decoded copy,
/// which keeps no sum.
fn check_kept_rows(sketch: &Fagms) -> Result<(), TestCaseError> {
    let want = bits(&squared_rows(sketch));
    prop_assert_eq!(bits(&sketch.self_join_rows()), want.clone());
    prop_assert_eq!(bits(&round_trip(sketch).self_join_rows()), want);
    Ok(())
}

fn round_trip(sketch: &Fagms) -> Fagms {
    let mut w = Writer::new();
    sketch.put(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let back = Fagms::take(&mut r).unwrap();
    r.finish().unwrap();
    back
}

/// One step of [`the_kept_square_sums_read_as_the_pass`].
#[derive(Debug, Clone)]
enum Step {
    Update(u64, i64),
    Counts(Vec<(u64, i64)>),
    Batch(Vec<u64>),
    /// Merge in a sketch fed these pairs.
    Merge(Vec<(u64, i64)>),
    /// Continue on a clone written with these pairs; the original must
    /// keep its rows.
    CloneThenWrite(Vec<(u64, i64)>),
    RoundTrip,
}

/// Mostly small signed counts; now and then one past `2²⁶` or near `2³¹`,
/// so a sketch crosses each edge of the fast path.
fn edge_count() -> impl Strategy<Value = i64> {
    let wide = (0u8..8, -50i64..50, -(1i64 << 27)..(1 << 27), any::<i32>());
    wide.prop_map(|(pick, small, mid, big)| match pick {
        0 => mid,
        1 => i64::from(big),
        _ => small,
    })
}

fn step() -> impl Strategy<Value = Step> {
    let pairs = prop::collection::vec((0u64..300, edge_count()), 0..40);
    let keys = prop::collection::vec(0u64..300, 0..40);
    let one = (0u64..300, edge_count());
    (0u8..10, one, pairs, keys).prop_map(|(pick, (key, count), pairs, keys)| match pick {
        0..=2 => Step::Update(key, count),
        3..=5 => Step::Counts(pairs),
        6 => Step::Batch(keys),
        7 => Step::Merge(pairs),
        8 => Step::CloneThenWrite(pairs),
        _ => Step::RoundTrip,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of counted writes and unit batches, merges, clones
    /// and decodes leaves `self_join_rows` the pass's every bit, step by
    /// step; a clone's write leaves the original's rows and reads alone.
    #[test]
    fn the_kept_square_sums_read_as_the_pass(
        steps in prop::collection::vec(step(), 1..24),
        width in 1usize..80,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(3, width, &mut rng);
        let mut sketch = schema.sketch();
        check_kept_rows(&sketch)?;
        for step in steps {
            match step {
                Step::Update(key, count) => sketch.update(key, count),
                Step::Counts(items) => sketch.update_batch_counts(&items),
                Step::Batch(keys) => sketch.update_batch(&keys),
                Step::Merge(items) => {
                    let mut other = schema.sketch();
                    other.update_batch_counts(&items);
                    sketch.merge(&other).unwrap();
                }
                Step::CloneThenWrite(items) => {
                    let original = sketch.clone();
                    let (held, read) = (rows(&original), bits(&original.self_join_rows()));
                    sketch.update_batch_counts(&items);
                    prop_assert_eq!(rows(&original), held);
                    prop_assert_eq!(bits(&original.self_join_rows()), read);
                }
                Step::RoundTrip => sketch = round_trip(&sketch),
            }
            check_kept_rows(&sketch)?;
        }
    }
}

/// Keys of distinct buckets in every row of `schema`, found by probing.
fn keys_in_distinct_buckets(schema: &FagmsSchema<Cw4, Cw2Bucket>, n: usize) -> Vec<u64> {
    let bucket_of = |key: u64| {
        let mut probe = schema.sketch();
        probe.update(key, 1);
        (0..schema.depth())
            .map(|r| probe.row(r).iter().position(|&c| c != 0).unwrap())
            .collect::<Vec<_>>()
    };
    let mut taken: Vec<Vec<usize>> = Vec::new();
    let mut keys = Vec::new();
    for key in 0.. {
        let buckets = bucket_of(key);
        if taken
            .iter()
            .all(|t| t.iter().zip(&buckets).all(|(a, b)| a != b))
        {
            taken.push(buckets);
            keys.push(key);
            if keys.len() == n {
                break;
            }
        }
    }
    keys
}

/// Each edge of the fast path, on both sides, through the per-key and
/// the counted batch write: a counter at `±(2²⁶ − 1)` and `±2²⁶`; a row
/// sum just below `2⁵²` and at it, from four counters of `2²⁵`; a weight
/// just below `2³¹` and at it; and a counter at `2³²`, whose square wraps
/// to 0 modulo `2⁶⁴`, so only the weight guard keeps its row off the
/// kept sum.
#[test]
fn the_kept_square_sums_hold_at_each_edge() -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(56);
    let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(3, 64, &mut rng);
    let write = |items: &[(u64, i64)], counted: bool| {
        let mut sketch = schema.sketch();
        for &(key, count) in items {
            if counted {
                sketch.update_batch_counts(&[(key, count)]);
            } else {
                sketch.update(key, count);
            }
        }
        sketch
    };
    let limit = 1i64 << 26;
    let four = keys_in_distinct_buckets(&schema, 4);
    let quarter = 1i64 << 25;
    let cases: Vec<Vec<(u64, i64)>> = vec![
        vec![(7, limit - 1)],
        vec![(7, 1 - limit)],
        vec![(7, limit - 1), (7, 1)],
        vec![(7, -limit)],
        vec![(7, limit), (7, -1)],
        four.iter()
            .map(|&k| (k, quarter))
            .take(3)
            .chain([(four[3], quarter - 1)])
            .collect(),
        four.iter().map(|&k| (k, quarter)).collect(),
        vec![(7, (1 << 31) - 1)],
        vec![(7, 1 << 30), (7, -(1 << 30) + 1)],
        vec![(7, 1 << 30), (7, -(1 << 30))],
        vec![(7, 1 << 31)],
        vec![(7, 1 << 32)],
        vec![(7, 1 << 32), (8, 3)],
    ];
    for items in &cases {
        for counted in [false, true] {
            let sketch = write(items, counted);
            check_kept_rows(&sketch)?;
        }
    }
    // The row sum at 2⁵² is exactly that, below the counter guard.
    let at = write(&cases[6], true);
    for r in 0..3 {
        let sum: i128 = at
            .row(r)
            .iter()
            .map(|&c| i128::from(c) * i128::from(c))
            .sum();
        assert_eq!(sum, 1 << 52);
        assert!(at.row(r).iter().all(|c| c.abs() < limit));
    }
    Ok(())
}

/// What the old merge into an empty Misra–Gries summary left: a copy of
/// `other`'s counter list, compacted as `compact` does it (select the
/// `capacity + 1`-th largest count, keep the first `capacity` in the order
/// the selection leaves them, less the cut, dropping the non-positive).
/// The survivors in list order, and the cut.
fn clone_then_compact(other: &MisraGries) -> (Vec<(u64, u64)>, u64) {
    let mut counters = other.counters();
    let capacity = other.capacity();
    if counters.len() <= capacity {
        return (counters, 0);
    }
    let (_, &mut (_, cut), _) = counters.select_nth_unstable_by(capacity, |a, b| b.1.cmp(&a.1));
    counters.truncate(capacity);
    counters.retain_mut(|(_, count)| {
        *count -= cut;
        *count > 0
    });
    (counters, cut)
}

/// One step of [`an_owed_compaction_reads_and_writes_as_the_eager_one`]:
/// a read, a write, or a merge on either side, by `pick`. The counter
/// list and the candidates read in their order, or sorted by key when
/// `sorted`.
fn owed_step(mg: &mut MisraGries, pick: u8, key: u64, peer: &MisraGries, sorted: bool) -> Vec<u64> {
    match pick % 9 {
        0 => {
            let mut keys = mg.candidates();
            if sorted {
                keys.sort_unstable();
            }
            keys
        }
        1 => vec![
            mg.raw_estimate(key).to_bits(),
            mg.raw_estimate(key ^ 1).to_bits(),
        ],
        2 => vec![mg.error_bound(), mg.raw_estimate_variance().to_bits()],
        3 => vec![mg.held() as u64],
        4 => {
            let mut counters = mg.counters();
            if sorted {
                counters.sort_unstable();
            }
            counters.into_iter().flat_map(|(k, c)| [k, c]).collect()
        }
        5 => {
            mg.offer(key, 1 + (key % 3) as i64);
            vec![]
        }
        6 => {
            mg.offer_batch(&(key..key + 700).map(|k| k % 97).collect::<Vec<_>>());
            vec![]
        }
        7 => {
            mg.merge(peer).unwrap();
            vec![]
        }
        _ => {
            // Merged into a peer: the owed side is the one read.
            let mut other = peer.clone();
            other.merge(mg).unwrap();
            layout(&other).into_iter().map(u64::from).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A merge into an empty Misra–Gries summary owes its compaction and
    /// pays it on the first read or write; read or written in any order,
    /// that summary, a clone of it and a summary merged from it through
    /// another empty one (which shares what the first owes) answer as the
    /// eager compaction does — the same merge with its survivors built at
    /// once, which hold the clone-and-compact list in its order and write
    /// the general path's layout — step by step: `encode()`,
    /// `candidates()`, `raw_estimate`, `error_bound`, `held`, the counter
    /// list in order, offers, batches and merges on either side. Every
    /// read but the list's order also equals that of the survivors decoded
    /// from that layout and put through the same steps: a compaction's
    /// survivors are the counters above its cut, whatever their order.
    #[test]
    fn an_owed_compaction_reads_and_writes_as_the_eager_one(
        capacity in 1usize..200,
        offers in prop::collection::vec((0u64..500, 1i64..5), 0..900),
        peer_offers in prop::collection::vec((0u64..300, 1i64..4), 0..300),
        steps in prop::collection::vec((any::<u8>(), 0u64..600), 0..12),
        chain: bool,
    ) {
        let mut other = MisraGries::new(capacity).unwrap();
        offers.iter().for_each(|&(key, count)| other.offer(key, count));
        let mut peer = MisraGries::new(capacity).unwrap();
        peer_offers.iter().for_each(|&(key, count)| peer.offer(key, count));
        let (survivors, cut) = clone_then_compact(&other);
        let body = misra_gries_body(
            capacity,
            other.error_bound() + cut,
            other.items_offered(),
            &survivors,
        );
        let mut decoded = MisraGries::take(&mut Reader::new(&body)).unwrap();
        let mut eager = MisraGries::new(capacity).unwrap();
        eager.merge(&other).unwrap();
        prop_assert_eq!(eager.counters(), survivors);
        prop_assert_eq!(layout(&eager), body);
        let mut owed = MisraGries::new(capacity).unwrap();
        owed.merge(&other).unwrap();
        if chain {
            let mut again = MisraGries::new(capacity).unwrap();
            again.merge(&owed).unwrap();
            owed = again;
        }
        let mut twin = owed.clone();
        for (i, &(pick, key)) in steps.iter().enumerate() {
            let want = owed_step(&mut eager, pick, key, &peer, false);
            prop_assert_eq!(owed_step(&mut owed, pick, key, &peer, false), want.clone(), "step {}", i);
            prop_assert_eq!(owed_step(&mut twin, pick, key, &peer, false), want, "clone, step {}", i);
            prop_assert_eq!(
                owed_step(&mut decoded, pick, key, &peer, true),
                owed_step(&mut owed.clone(), pick, key, &peer, true),
                "decoded, step {}",
                i
            );
        }
        prop_assert_eq!(layout(&decoded), layout(&eager));
        prop_assert_eq!(layout(&owed), layout(&eager));
        prop_assert_eq!(layout(&twin), layout(&eager));
        prop_assert_eq!(owed.counters(), eager.counters());
    }
}

/// A Misra–Gries layout: capacity, offset, offered weight, then the keys
/// in ascending order and their counts.
fn misra_gries_body(
    capacity: usize,
    offset: u64,
    offered: u64,
    counters: &[(u64, u64)],
) -> Vec<u8> {
    let mut sorted = counters.to_vec();
    sorted.sort_unstable();
    let (keys, counts): (Vec<u64>, Vec<u64>) = sorted.into_iter().unzip();
    let mut w = Writer::new();
    w.usize(capacity);
    w.u64(offset);
    w.u64(offered);
    w.u64s(&keys);
    w.u64s(&counts);
    w.into_bytes()
}

/// A value's layout, without a head.
fn layout<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

/// A KLL layout: the levels, `k`, the weight, the coin and the seed.
fn kll_layout(levels: &[Vec<u64>], k: usize, n: u64, coin: u64, seed: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(levels.len());
    levels.iter().for_each(|level| w.u64s(level));
    w.usize(k);
    w.u64(n);
    w.u64(coin);
    w.u64(seed);
    w.into_bytes()
}

/// A KLL summary's fields, read off its layout.
fn kll_fields(kll: &KllSketch) -> (Vec<Vec<u64>>, usize, u64, u64, u64) {
    let bytes = layout(kll);
    let mut r = Reader::new(&bytes);
    let levels = r.count(1).unwrap();
    let levels = (0..levels).map(|_| r.u64s().unwrap()).collect();
    let fields = (levels, r.usize().unwrap(), r.u64().unwrap());
    (
        fields.0,
        fields.1,
        fields.2,
        r.u64().unwrap(),
        r.u64().unwrap(),
    )
}

/// `merge` into an empty summary of `receiver`'s seed, checked against the
/// concatenation it stands for: `other`'s levels with the XORed coin and
/// the receiver's seed, decoded, then compressed by merging an empty
/// summary whose coin is zero (a summary holding weight, so it takes the
/// general path).
fn check_kll_into_empty(other: &KllSketch, receiver_seed: u64) -> Result<(), TestCaseError> {
    let k = other.k();
    let mut into = KllSketch::with_seed(k, receiver_seed).unwrap();
    into.merge(other).unwrap();
    let (levels, _, n, coin, _) = kll_fields(other);
    let body = kll_layout(&levels, k, n, coin ^ receiver_seed, receiver_seed);
    let mut reference = KllSketch::take(&mut Reader::new(&body)).unwrap();
    reference
        .merge(&KllSketch::with_seed(k, 0).unwrap())
        .unwrap();
    prop_assert_eq!(layout(&into), layout(&reference));
    prop_assert_eq!(into.stored(), reference.stored());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A merge into an empty summary builds only what the merge keeps, and
    /// leaves what the general path leaves. Misra–Gries: tables at
    /// capacities 1–300 of tie-heavy counts (every count in 1–4, so many
    /// counters sit at the cut), into a new summary and into one whose
    /// counters all compacted away; `encode()`, the counter list and the
    /// order of `candidates()` equal a copy of the other table compacted
    /// in place. KLL: a fed summary at `k` 8, 16 or 200, and a decoded
    /// overfull one, whose merge compresses; the layout equals the
    /// concatenation's.
    #[test]
    fn an_empty_receiver_merges_as_the_general_path_does(
        capacity in 1usize..300,
        offers in prop::collection::vec((0u64..800, 1i64..5), 0..700),
        gone: bool,
        k_pick in 0usize..3,
        values in prop::collection::vec(any::<u64>(), 0..5000),
        overfull in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..60), 1..7),
        seed: u64,
    ) {
        let mut other = MisraGries::new(capacity).unwrap();
        offers.iter().for_each(|&(key, count)| other.offer(key, count));
        let mut into = MisraGries::new(capacity).unwrap();
        if gone {
            into.offer_batch(&(1 << 40..(1 << 40) + 2 * CHUNK as u64).collect::<Vec<_>>());
            prop_assert_eq!(into.held(), 0);
        }
        let offset = into.error_bound() + other.error_bound();
        let offered = into.items_offered() + other.items_offered();
        let (survivors, cut) = clone_then_compact(&other);
        into.merge(&other).unwrap();
        prop_assert_eq!(into.counters(), survivors.clone());
        let keys: Vec<u64> = survivors.iter().map(|&(key, _)| key).collect();
        prop_assert_eq!(into.candidates(), keys);
        let body = misra_gries_body(capacity, offset + cut, offered, &survivors);
        prop_assert_eq!(layout(&into), body);

        let k = [8, 16, 200][k_pick];
        let mut fed = KllSketch::with_seed(k, seed ^ 1).unwrap();
        fed.insert_batch(&values);
        check_kll_into_empty(&fed, seed)?;
        let weight: u64 = (overfull.iter().enumerate()).map(|(h, l)| (l.len() as u64) << h).sum();
        let body = kll_layout(&overfull, 8, weight, seed.rotate_left(7), seed ^ 2);
        let decoded = KllSketch::take(&mut Reader::new(&body)).unwrap();
        check_kll_into_empty(&decoded, seed)?;
    }
}
