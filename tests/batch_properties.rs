//! Property-based tests of the batched update kernels: `update_batch` /
//! `update_batch_counts` must be bit-identical to the sequential per-key
//! path for every sketch backend and ξ family combination, and the
//! skip-sampled `feed_batch` must reproduce `observe` exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::Sampled;
use sketch_sampled_streams::sketch::{AgmsSchema, CountMinSchema, FagmsSchema, Sketch};
use sketch_sampled_streams::xi::{Cw2, Cw2Bucket, Cw4, Eh3, Tabulation};

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..400)
}

/// Signed multiplicities, including negatives (turnstile deletions) and
/// zeros, paired with arbitrary keys.
fn counted_stream() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((any::<u64>(), -50i64..50), 1..400)
}

/// Feed `keys` through the scalar path into one sketch and through
/// `update_batch` (split into two arbitrary chunks) into another; the
/// counters must agree exactly.
fn check_unit_batch<S: Sketch>(scalar: &mut S, batched: &mut S, keys: &[u64], split: usize) {
    for &k in keys {
        scalar.update(k, 1);
    }
    let split = split.min(keys.len());
    batched.update_batch(&keys[..split]);
    batched.update_batch(&keys[split..]);
}

fn check_counted_batch<S: Sketch>(
    scalar: &mut S,
    batched: &mut S,
    items: &[(u64, i64)],
    split: usize,
) {
    for &(k, c) in items {
        scalar.update(k, c);
    }
    let split = split.min(items.len());
    batched.update_batch_counts(&items[..split]);
    batched.update_batch_counts(&items[split..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AGMS: the family-major `sign_sum` kernel is bit-identical to the
    /// per-key loop for both a polynomial (CW4) and a non-polynomial
    /// (EH3) sign family.
    #[test]
    fn agms_update_batch_matches_scalar(keys in stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);

        let schema = AgmsSchema::<Cw4>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());

        let schema = AgmsSchema::<Eh3>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());
    }

    /// AGMS with signed counts: `sign_dot` handles negative and zero
    /// multiplicities exactly.
    #[test]
    fn agms_update_batch_counts_matches_scalar(items in counted_stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = AgmsSchema::<Cw2>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_counted_batch(&mut scalar, &mut batched, &items, split);
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());
    }

    /// F-AGMS: the fused `signed_scatter` row kernel (CW sign + CW bucket)
    /// and the buffered fallback (non-polynomial sign) are both
    /// bit-identical to the scalar path.
    #[test]
    fn fagms_update_batch_matches_scalar(keys in stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);

        // Polynomial sign × polynomial bucket → fused scatter kernel.
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // Pairwise polynomial sign: a different coefficient degree.
        let schema = FagmsSchema::<Cw2, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // Non-polynomial sign family → generic buffered fallback.
        let schema = FagmsSchema::<Eh3, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
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
        check_counted_batch(&mut scalar, &mut batched, &items, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }
    }

    /// Count-Min: the `bucket_scatter` kernel (CW bucket) and the
    /// buffered fallback (tabulation bucket) match the scalar path,
    /// including negative counts.
    #[test]
    fn countmin_update_batch_matches_scalar(
        keys in stream(),
        items in counted_stream(),
        split in 0usize..400,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);

        let schema = CountMinSchema::<Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        let schema = CountMinSchema::<Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_counted_batch(&mut scalar, &mut batched, &items, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // Non-polynomial bucket family → generic buffered fallback.
        let schema = CountMinSchema::<Tabulation>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
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
