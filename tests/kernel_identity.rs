//! Property-based bit-identity tests for the `sss_xi::kernels` fast paths:
//! every batched entry point — chunked and, on an x86-64 host with AVX2,
//! the vectorized path behind [`Dispatch::get`] — must agree **exactly**
//! with the per-key scalar reference for all sign and bucket families, on
//! arbitrary keys and signed counts, including empty batches and lengths
//! that are not a multiple of the kernel width (tails). Every case runs on
//! both dispatches, so the portable path stays covered on AVX2 hosts.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::xi::kernels::{self, Dispatch};
use sketch_sampled_streams::xi::{BucketFamily, Cw2, Cw2Bucket, Cw4, Eh3, SignFamily, Tabulation};

/// Arbitrary keys; `0..200` covers empty batches and every tail length
/// modulo the width-8 chunking.
fn keys_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..200)
}

/// Keys with signed multiplicities (turnstile deletions and zeros).
fn items_strategy() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((any::<u64>(), -50i64..50), 0..200)
}

/// Both dispatch outcomes to pin: the portable chunked path, and whatever
/// the runtime probe picked (the AVX2 path on a supporting x86-64 host,
/// chunked elsewhere).
fn paths() -> [Dispatch; 2] {
    [Dispatch::chunked(), Dispatch::get()]
}

/// All fast sign paths of a polynomial (Carter–Wegman) family against the
/// per-key scalar loop.
fn check_poly_sign<F: SignFamily>(
    f: &F,
    keys: &[u64],
    items: &[(u64, i64)],
) -> Result<(), TestCaseError> {
    let coeffs = f.poly_coeffs().expect("CW family is polynomial");
    let sum: i64 = keys.iter().map(|&k| f.sign(k)).sum();
    let dot: i64 = items.iter().map(|&(k, c)| f.sign(k) * c).sum();
    let signs: Vec<i64> = keys.iter().map(|&k| f.sign(k)).collect();
    prop_assert_eq!(kernels::sign_sum_chunked(coeffs, keys), sum);
    prop_assert_eq!(kernels::sign_dot_chunked(coeffs, items), dot);
    for d in paths() {
        prop_assert_eq!(kernels::sign_sum(d, coeffs, keys), sum);
        prop_assert_eq!(kernels::sign_dot(d, coeffs, items), dot);
        let mut out = vec![0i64; keys.len()];
        kernels::sign_batch(d, coeffs, keys, &mut out);
        prop_assert_eq!(&out, &signs);
    }
    // The trait overrides route through Dispatch::get(); pin them too.
    prop_assert_eq!(f.sign_sum(keys), sum);
    prop_assert_eq!(f.sign_dot(items), dot);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CW2 and CW4 sign kernels: chunked and dispatched paths equal the
    /// scalar polynomial evaluation, bit for bit.
    #[test]
    fn cw_sign_kernels_are_bit_identical(
        keys in keys_strategy(),
        items in items_strategy(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cw2 = <Cw2 as SignFamily>::random(&mut rng);
        check_poly_sign(&cw2, &keys, &items)?;
        let cw4 = <Cw4 as SignFamily>::random(&mut rng);
        check_poly_sign(&cw4, &keys, &items)?;
    }

    /// EH3 sign kernels: the fused popcount-parity evaluation equals the
    /// per-key `sign()` definition on every path.
    #[test]
    fn eh3_sign_kernels_are_bit_identical(
        keys in keys_strategy(),
        items in items_strategy(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = <Eh3 as SignFamily>::random(&mut rng);
        let (s0, s) = f.seeds();
        let sum: i64 = keys.iter().map(|&k| f.sign(k)).sum();
        let dot: i64 = items.iter().map(|&(k, c)| f.sign(k) * c).sum();
        let signs: Vec<i64> = keys.iter().map(|&k| f.sign(k)).collect();
        prop_assert_eq!(kernels::eh3_sign_sum_chunked(s0, s, &keys), sum);
        prop_assert_eq!(kernels::eh3_sign_dot_chunked(s0, s, &items), dot);
        for d in paths() {
            prop_assert_eq!(kernels::eh3_sign_sum(d, s0, s, &keys), sum);
            prop_assert_eq!(kernels::eh3_sign_dot(d, s0, s, &items), dot);
            let mut out = vec![0i64; keys.len()];
            kernels::eh3_sign_batch(d, s0, s, &keys, &mut out);
            prop_assert_eq!(&out, &signs);
        }
        prop_assert_eq!(f.sign_sum(&keys), sum);
        prop_assert_eq!(f.sign_dot(&items), dot);
    }

    /// Tabulation sign kernels: the table-major 8-lane traversal equals
    /// the per-key XOR chain (tabulation has no SIMD arm by design).
    #[test]
    fn tabulation_sign_kernels_are_bit_identical(
        keys in keys_strategy(),
        items in items_strategy(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = <Tabulation as SignFamily>::random(&mut rng);
        let sum: i64 = keys.iter().map(|&k| SignFamily::sign(&f, k)).sum();
        let dot: i64 = items.iter().map(|&(k, c)| SignFamily::sign(&f, k) * c).sum();
        let signs: Vec<i64> = keys.iter().map(|&k| SignFamily::sign(&f, k)).collect();
        prop_assert_eq!(kernels::tab_sign_sum(f.tables(), &keys), sum);
        prop_assert_eq!(kernels::tab_sign_dot(f.tables(), &items), dot);
        let mut out = vec![0i64; keys.len()];
        kernels::tab_sign_batch(f.tables(), &keys, &mut out);
        prop_assert_eq!(&out, &signs);
        prop_assert_eq!(f.sign_sum(&keys), sum);
        prop_assert_eq!(f.sign_dot(&items), dot);
    }

    /// Both bucket families: batched bucket computation equals the per-key
    /// `bucket()` on every path, for widths from degenerate to large.
    #[test]
    fn bucket_kernels_are_bit_identical(
        keys in keys_strategy(),
        width in 1usize..5000,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cwb = <Cw2Bucket as BucketFamily>::random(&mut rng);
        let coeffs = cwb.poly_coeffs().expect("CW bucket family is polynomial");
        let expect: Vec<usize> = keys.iter().map(|&k| cwb.bucket(k, width)).collect();
        for d in paths() {
            let mut out = vec![0usize; keys.len()];
            kernels::bucket_batch(d, coeffs, width, &keys, &mut out);
            prop_assert_eq!(&out, &expect);
        }
        let mut out = vec![0usize; keys.len()];
        cwb.bucket_batch(&keys, width, &mut out);
        prop_assert_eq!(&out, &expect);

        let tab = <Tabulation as BucketFamily>::random(&mut rng);
        let expect: Vec<usize> = keys
            .iter()
            .map(|&k| BucketFamily::bucket(&tab, k, width))
            .collect();
        let mut out = vec![0usize; keys.len()];
        kernels::tab_bucket_batch(tab.tables(), width, &keys, &mut out);
        prop_assert_eq!(&out, &expect);
    }

    /// The fused sign+bucket scatter kernels (the F-AGMS / Count-Min row
    /// update) leave counter state byte-identical to the per-key loop —
    /// these route through `Dispatch::get()` internally, so on an AVX2
    /// host this exercises the AVX2 pair-evaluation end to end.
    #[test]
    fn scatter_kernels_are_bit_identical(
        keys in keys_strategy(),
        items in items_strategy(),
        width in 1usize..3000,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sign = <Cw4 as SignFamily>::random(&mut rng);
        let bucket = <Cw2Bucket as BucketFamily>::random(&mut rng);
        let sc = sign.poly_coeffs().expect("CW4 is polynomial");
        let bc = bucket.poly_coeffs().expect("CW bucket family is polynomial");

        let mut expect = vec![0i64; width];
        for &k in &keys {
            expect[bucket.bucket(k, width)] += sign.sign(k);
        }
        let mut got = vec![0i64; width];
        kernels::signed_scatter(Dispatch::get(), sc, bc, width, &keys, &mut got);
        prop_assert_eq!(&got, &expect);

        let mut expect = vec![0i64; width];
        for &(k, c) in &items {
            expect[bucket.bucket(k, width)] += sign.sign(k) * c;
        }
        let mut got = vec![0i64; width];
        kernels::signed_scatter_counts(Dispatch::get(), sc, bc, width, &items, &mut got);
        prop_assert_eq!(&got, &expect);

        let mut expect = vec![0i64; width];
        for &k in &keys {
            expect[bucket.bucket(k, width)] += 1;
        }
        let mut got = vec![0i64; width];
        kernels::bucket_scatter(Dispatch::get(), bc, width, &keys, &mut got);
        prop_assert_eq!(&got, &expect);
    }
}
