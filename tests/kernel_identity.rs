//! Property-based bit-identity tests for the `sss_xi::kernels` fast paths:
//! every batched entry point — chunked and, on an x86-64 host with AVX2,
//! the vectorized path behind [`Dispatch::get`] — must agree **exactly**
//! with the per-key scalar reference for the CW sign and bucket families, on
//! arbitrary keys and signed counts, including empty batches and lengths
//! that are not a multiple of the kernel width (tails). The all-rows
//! gather (`hash_rows`) must give every row's sign and bucket as
//! `poly_eval` does, row by row, at depths across its row groups. Every
//! case runs on both dispatches, so the portable path stays covered on
//! AVX2 hosts. The
//! Bernoulli sampler's gap kernel must equal its reference draw by draw:
//! ten million draws per rate, and draws forced onto and next to integer
//! quotients, where the AVX2 path hands lanes to its exact fallback. The
//! exact row square sum must equal an `i128` reference and today's f64
//! row fold, and decline exactly at its two guards; the change to it that
//! the counted scatter reports must be the sums' difference.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::sampling::{CounterRng, GeometricSkip};
use sketch_sampled_streams::xi::kernels::{self, Dispatch, RowHashes, GAP_LANES};
use sketch_sampled_streams::xi::prime::poly_eval;
use sketch_sampled_streams::xi::{
    splitmix64, BucketFamily, Cw2, Cw2Bucket, Cw4, SignFamily, GOLDEN_GAMMA,
};

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

/// All fast sign paths of a Carter–Wegman family against the per-key
/// scalar loop.
fn check_poly_sign<F: SignFamily>(
    f: &F,
    keys: &[u64],
    items: &[(u64, i64)],
) -> Result<(), TestCaseError> {
    let coeffs = f.coeffs();
    let sum: i64 = keys.iter().map(|&k| f.sign(k)).sum();
    let dot: i64 = items.iter().map(|&(k, c)| f.sign(k) * c).sum();
    prop_assert_eq!(kernels::sign_sum_chunked(coeffs, keys), sum);
    prop_assert_eq!(kernels::sign_dot_chunked(coeffs, items), dot);
    for d in paths() {
        prop_assert_eq!(kernels::sign_sum(d, coeffs, keys), sum);
        prop_assert_eq!(kernels::sign_dot(d, coeffs, items), dot);
    }
    // The trait methods route through Dispatch::get(); pin them too.
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

    /// The all-rows gather: `hash_rows` gives every key at every row the
    /// sign and bucket `poly_eval` gives for that row (its low bit as ±1,
    /// its value modulo the width), key-major, on both paths,
    /// at depths that fill one row group, cross into a second, and take
    /// polynomials past the kernels' coefficient budget.
    #[test]
    fn bucket_kernels_are_bit_identical(
        keys in keys_strategy(),
        width in 1usize..5000,
        depth in 1usize..20,
        long in 0usize..4,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coeffs = random_rows(depth, &mut rng);
        // One row's sign (0) or bucket (1) polynomial past the budget: that
        // row group takes the scalar way.
        let past: Vec<u64> = (1..=12u64).map(|c| c.wrapping_mul(seed)).collect();
        match long {
            0 => coeffs[depth / 2].0 = past,
            1 => coeffs[depth / 2].1 = past,
            _ => {}
        }
        let rows: Vec<(&[u64], &[u64])> =
            coeffs.iter().map(|(s, b)| (&s[..], &b[..])).collect();
        let mut expect = Vec::new();
        for &k in &keys {
            for (sc, bc) in &rows {
                let sign = 1 - 2 * (poly_eval(sc, k) & 1) as i64;
                expect.push((sign, (poly_eval(bc, k) % width as u64) as usize));
            }
        }
        for d in paths() {
            let mut got = vec![(0, 0); keys.len() * depth];
            kernels::hash_rows(d, &RowHashes::new(&rows, width), &keys, &mut got);
            prop_assert_eq!(&got, &expect, "{} path", d.label());
        }
    }

    /// The fused sign+bucket scatter kernels (the F-AGMS row update) leave
    /// counter state byte-identical to the per-key loop: `signed_scatter`
    /// on one row through `Dispatch::get()`, and the counted all-rows
    /// `signed_scatter_counts` on every row of a `depth × width` block, on
    /// both paths.
    #[test]
    fn scatter_kernels_are_bit_identical(
        keys in keys_strategy(),
        items in items_strategy(),
        width in 1usize..3000,
        depth in 1usize..12,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sign = <Cw4 as SignFamily>::random(&mut rng);
        let bucket = <Cw2Bucket as BucketFamily>::random(&mut rng);
        let (sc, bc) = (sign.coeffs(), bucket.coeffs());

        let mut expect = vec![0i64; width];
        for &k in &keys {
            expect[bucket.bucket(k, width)] += sign.sign(k);
        }
        let mut got = vec![0i64; width];
        kernels::signed_scatter(Dispatch::get(), sc, bc, width, &keys, &mut got);
        prop_assert_eq!(&got, &expect);

        let coeffs = random_rows(depth, &mut rng);
        let rows: Vec<(&[u64], &[u64])> =
            coeffs.iter().map(|(s, b)| (&s[..], &b[..])).collect();
        let mut expect = vec![0i64; depth * width];
        for (r, (sc, bc)) in rows.iter().enumerate() {
            for &(k, c) in &items {
                let sign = 1 - 2 * (poly_eval(sc, k) & 1) as i64;
                expect[r * width + (poly_eval(bc, k) % width as u64) as usize] += sign * c;
            }
        }
        for d in paths() {
            let mut got = vec![0i64; depth * width];
            let mut changes = vec![0i64; depth];
            let prepared = RowHashes::new(&rows, width);
            kernels::signed_scatter_counts(d, &prepared, &items, &mut got, &mut changes);
            prop_assert_eq!(&got, &expect, "{} path", d.label());
        }
    }
}

/// Every item count from 0 through 17 — every tail length `n mod 8`
/// alone, after one full group of eight and after two — at depths inside
/// one row group and across two, on both paths: the gather and the
/// counted scatter hash each tail as one padded group of eight and visit
/// only its real lanes, as `poly_eval` per key and row places them.
#[test]
fn every_tail_length_takes_the_padded_group() {
    let mut rng = StdRng::seed_from_u64(17);
    let items: Vec<(u64, i64)> = (0..17u64)
        .map(|i| (splitmix64(i), (i as i64 % 7) - 3))
        .collect();
    for depth in [1, 3, 9] {
        let coeffs = random_rows(depth, &mut rng);
        let rows: Vec<(&[u64], &[u64])> = coeffs.iter().map(|(s, b)| (&s[..], &b[..])).collect();
        for width in [1, 7, 5000] {
            let prepared = RowHashes::new(&rows, width);
            for n in 0..=17 {
                let (keys, items) = (
                    items[..n].iter().map(|&(k, _)| k).collect::<Vec<u64>>(),
                    &items[..n],
                );
                let hashed = |k: u64, (sc, bc): (&[u64], &[u64])| {
                    let sign = 1 - 2 * (poly_eval(sc, k) & 1) as i64;
                    (sign, (poly_eval(bc, k) % width as u64) as usize)
                };
                let expect: Vec<(i64, usize)> = (keys.iter())
                    .flat_map(|&k| rows.iter().map(move |&row| hashed(k, row)))
                    .collect();
                let mut written = vec![0i64; depth * width];
                for &(k, c) in items {
                    for (r, &row) in rows.iter().enumerate() {
                        let (sign, bucket) = hashed(k, row);
                        written[r * width + bucket] += sign * c;
                    }
                }
                for d in paths() {
                    let case = format!("{} path, depth {depth}, width {width}, n {n}", d.label());
                    let mut got = vec![(0, 0); n * depth];
                    kernels::hash_rows(d, &prepared, &keys, &mut got);
                    assert_eq!(got, expect, "gather, {case}");
                    let mut block = vec![0i64; depth * width];
                    let mut changes = vec![0i64; depth];
                    kernels::signed_scatter_counts(d, &prepared, items, &mut block, &mut changes);
                    assert_eq!(block, written, "counted scatter, {case}");
                }
            }
        }
    }
}

/// `depth` rows of a Cw4 sign polynomial and a Cw2 bucket polynomial.
fn random_rows(depth: usize, rng: &mut StdRng) -> Vec<(Vec<u64>, Vec<u64>)> {
    (0..depth)
        .map(|_| {
            let sign = <Cw4 as SignFamily>::random(rng);
            let bucket = <Cw2Bucket as BucketFamily>::random(rng);
            (sign.coeffs().to_vec(), bucket.coeffs().to_vec())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The change `signed_scatter_counts` reports is the row's square sum
    /// after the writes less the one before, on both paths, over signed
    /// counts and batches of every length from empty through tails.
    #[test]
    fn counted_scatter_reports_its_change_to_the_square_sum(
        items in items_strategy(),
        start in prop::collection::vec(-300i64..300, 1..400),
        seed: u64,
    ) {
        check_reported_change(&items, &start, seed)?;
    }
}

/// [`counted_scatter_reports_its_change_to_the_square_sum`] for one batch
/// and one starting row, written as the first of two rows whose second
/// starts at zero: the change reported for the first is `square_sum(after)
/// − square_sum(before)` on both paths, and, whatever the counters reach,
/// the `i128` change modulo `2⁶⁴`; the change added to a row's slot is
/// added to what the slot held.
fn check_reported_change(
    items: &[(u64, i64)],
    start: &[i64],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sign = <Cw4 as SignFamily>::random(&mut rng);
    let bucket = <Cw2Bucket as BucketFamily>::random(&mut rng);
    let (sc, bc) = (sign.coeffs(), bucket.coeffs());
    let width = start.len();
    let exact = |row: &[i64]| {
        row.iter()
            .map(|&c| i128::from(c) * i128::from(c))
            .sum::<i128>()
    };
    for d in paths() {
        let mut block = start.to_vec();
        block.resize(2 * width, 0);
        let mut changes = [7, 0];
        let rows = RowHashes::new(&[(sc, bc), (sc, bc)], width);
        kernels::signed_scatter_counts(d, &rows, items, &mut block, &mut changes);
        let (row, second) = block.split_at(width);
        prop_assert_eq!(changes[1], exact(second) as i64);
        let change = changes[0].wrapping_sub(7);
        prop_assert_eq!(
            change,
            (exact(row) - exact(start)) as i64,
            "{} path",
            d.label()
        );
        if let (Some(before), Some(after)) =
            (kernels::square_sum(d, start), kernels::square_sum(d, row))
        {
            prop_assert_eq!(change, after as i64 - before as i64, "{} path", d.label());
        }
    }
    Ok(())
}

/// The reported change on the batches the property may miss: empty, tails
/// alone (under one chunk), a chunk and a tail, counts that cancel, and
/// counts of `2³²`, whose squares wrap.
#[test]
fn counted_scatter_reports_its_change_on_short_and_wrapping_batches() -> Result<(), TestCaseError> {
    let items: Vec<(u64, i64)> = (0..11u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i as i64 % 5) - 2))
        .collect();
    let start: Vec<i64> = (0..37).map(|i| (i * 7) % 19 - 9).collect();
    for len in [0, 1, 3, 7, 8, 9, 11] {
        check_reported_change(&items[..len], &start, len as u64)?;
        for &w in &[1usize, 2, 5] {
            check_reported_change(&items[..len], &start[..w], 100 + len as u64)?;
        }
    }
    let cancel = [(5, 9), (6, -4), (5, -9), (6, 4)];
    check_reported_change(&cancel, &start, 7)?;
    let wrapping = [(5, 1 << 32), (6, -(1 << 32)), (7, 3)];
    check_reported_change(&wrapping, &start, 8)?;
    Ok(())
}

/// The F-AGMS row fold the exact square sum stands in for: `c as f64 *
/// c as f64` added in counter order from `-0.0`, as `Iterator::sum` does.
fn f64_square_fold(row: &[i64]) -> f64 {
    row.iter()
        .map(|&c| {
            let c = c as f64;
            c * c
        })
        .sum()
}

/// `Σ c²` in `i128`, declined as the kernel declines it.
fn reference_square_sum(row: &[i64]) -> Option<u64> {
    if row.iter().any(|c| c.unsigned_abs() >= 1 << 26) {
        return None;
    }
    let sum: i128 = row.iter().map(|&c| i128::from(c) * i128::from(c)).sum();
    (sum < 1 << 53).then_some(sum as u64)
}

/// Both paths give `want`, and an accepted sum is the f64 fold's bits.
fn check_square_sum(row: &[i64], want: Option<u64>) -> Result<(), TestCaseError> {
    for d in paths() {
        let got = kernels::square_sum(d, row);
        prop_assert_eq!(got, want, "{} path, width {}", d.label(), row.len());
        if let Some(sum) = got {
            prop_assert_eq!((sum as f64).to_bits(), f64_square_fold(row).to_bits());
        }
    }
    Ok(())
}

/// A counter that mostly stays small, sometimes reaches `2²²`, and where
/// `outlier` says so is any `i64` at all.
fn counters_strategy() -> impl Strategy<Value = Vec<i64>> {
    let counter = (0u8..9, -300i64..300, -(1i64 << 22)..(1 << 22))
        .prop_map(|(pick, small, mid)| if pick == 0 { mid } else { small });
    let outlier = (0u8..5, any::<u64>(), any::<i64>());
    (prop::collection::vec(counter, 0..3000), outlier).prop_map(|(mut row, (pick, at, c))| {
        if pick == 0 && !row.is_empty() {
            let len = row.len() as u64;
            row[(at % len) as usize] = c;
        }
        row
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact square sum equals the `i128` reference on both paths, and
    /// whenever it answers, today's f64 row fold to the bit.
    #[test]
    fn square_sum_is_exact_and_is_the_f64_fold(row in counters_strategy()) {
        check_square_sum(&row, reference_square_sum(&row))?;
    }
}

/// Counters whose squares add to `target`, greedily from `2²⁶ − 1` down,
/// alternating in sign.
fn squares_summing_to(mut target: u64) -> Vec<i64> {
    let mut out = Vec::new();
    while target > 0 {
        let mut c = ((target as f64).sqrt() as u64).min((1 << 26) - 1);
        while c * c > target {
            c -= 1;
        }
        while c + 1 < 1 << 26 && (c + 1) * (c + 1) <= target {
            c += 1;
        }
        target -= c * c;
        let sign = if out.len() % 2 == 0 { 1 } else { -1 };
        out.push(sign * c as i64);
    }
    out
}

/// The two guards, each on both sides of its seam, on a row of two full
/// 2048-counter blocks and a tail that is not a multiple of 16: counters
/// at `±(2²⁶ − 1)` pass and `±2²⁶`, `i64::MIN` and `2³²` (whose low half
/// squares to 0) do not, at every lane, step and block seam; sums spread
/// over both blocks pass at `2⁵³ − 1` and not at `2⁵³`; an all-zero row is
/// `+0.0`.
#[test]
fn square_sum_declines_exactly_at_its_guards() -> Result<(), TestCaseError> {
    const WIDTH: usize = 4099;
    let limit = 1i64 << 26;
    let zeros = vec![0i64; WIDTH];
    check_square_sum(&zeros, Some(0))?;
    assert_eq!(f64_square_fold(&zeros).to_bits(), 0.0f64.to_bits());
    for at in [0, 3, 4, 15, 16, 2047, 2048, 4095, 4096, 4098] {
        let mut row = zeros.clone();
        for c in [limit - 1, 1 - limit] {
            row[at] = c;
            check_square_sum(&row, Some((c * c) as u64))?;
        }
        for c in [limit, -limit, i64::MIN, i64::MAX, 1 << 32, -(1 << 32)] {
            row[at] = c;
            check_square_sum(&row, None)?;
        }
    }
    for target in [(1u64 << 53) - 1, 1 << 53] {
        let mut row = zeros.clone();
        for (i, c) in squares_summing_to(target).into_iter().enumerate() {
            row[7 + 601 * i] = c;
        }
        check_square_sum(&row, (target < 1 << 53).then_some(target))?;
    }
    Ok(())
}

/// The reference gaps of the block of draws whose first counter is `state`.
fn reference_gaps(state: u64, log_q: f64) -> [u64; GAP_LANES] {
    std::array::from_fn(|j| {
        let at = state.wrapping_add((j as u64).wrapping_mul(GOLDEN_GAMMA));
        kernels::geometric_gap(splitmix64(at), log_q)
    })
}

/// Ten million consecutive draws at `p` on both paths equal the reference,
/// from a counter that wraps around `u64` after its hundredth block; the
/// first 16 000 also equal `GeometricSkip<CounterRng>::next_gap`, the
/// scalar draw that `Door::keep` makes.
fn gaps_match_reference_at(p: f64) {
    const DRAWS: u64 = 10_000_000;
    let log_q = (-p).ln_1p();
    let step = (GAP_LANES as u64).wrapping_mul(GOLDEN_GAMMA);
    let start = 100u64.wrapping_mul(step).wrapping_neg() ^ (p.to_bits() & 0xff);
    let mut skip = GeometricSkip::with_rng(p, CounterRng::seed_from_u64(start)).unwrap();
    let mut state = start;
    let mut got = [0u64; GAP_LANES];
    for block in 0..DRAWS / GAP_LANES as u64 {
        let want = reference_gaps(state, log_q);
        for d in paths() {
            kernels::geometric_gaps(d, state, log_q, &mut got);
            assert_eq!(got, want, "p {p}, {} block {block}", d.label());
        }
        if block < 1000 {
            let scalar: [u64; GAP_LANES] = std::array::from_fn(|_| skip.next_gap());
            assert_eq!(scalar, want, "p {p}, block {block}");
        }
        state = state.wrapping_add(step);
    }
    assert!(state < start, "the counter wrapped");
}

#[test]
fn gap_kernel_is_exact_at_one_half() {
    gaps_match_reference_at(0.5);
}

#[test]
fn gap_kernel_is_exact_at_one_tenth() {
    gaps_match_reference_at(0.1);
}

#[test]
fn gap_kernel_is_exact_at_one_hundredth() {
    gaps_match_reference_at(0.01);
}

#[test]
fn gap_kernel_is_exact_at_one_thousandth() {
    gaps_match_reference_at(1e-3);
}

#[test]
fn gap_kernel_is_exact_at_one_millionth() {
    gaps_match_reference_at(1e-6);
}

/// SplitMix64 inverted: the counter whose draw is `r`. Each xor-shift is
/// undone by xoring the shifted value back in, each odd multiplier by its
/// inverse mod 2⁶⁴ (Newton's iteration doubles the correct low bits).
fn counter_of(r: u64) -> u64 {
    fn inverse(c: u64) -> u64 {
        let mut x = c;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
        }
        x
    }
    let mut z = r;
    z ^= (z >> 31) ^ (z >> 62);
    z = z.wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
    z ^= (z >> 27) ^ (z >> 54);
    z = z.wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
    z ^= (z >> 30) ^ (z >> 60);
    z.wrapping_sub(GOLDEN_GAMMA)
}

/// Draws forced onto and next to integer quotients, one per call, in
/// every lane: the uniform `1 − 2⁻ⁿ` at `p = ½` (a quotient of exactly
/// `n`), `U = 0`, and the nine words around each boundary `(1 − p)ⁿ` at
/// every rate. Every gap equals the reference, and on the AVX2 path the
/// exact quotients are handed to the fallback.
#[test]
fn gap_kernel_falls_back_on_integer_quotients() {
    let mut forced = 0;
    let mut sent_back = 0;
    let mut check = |p: f64, k: u64, exact: bool| {
        let log_q = (-p).ln_1p();
        let r = (k << 11) | 0x5a5;
        assert_eq!(splitmix64(counter_of(r)), r);
        let lane = forced % GAP_LANES as u64;
        let state = counter_of(r).wrapping_sub(lane.wrapping_mul(GOLDEN_GAMMA));
        let want = reference_gaps(state, log_q);
        for d in paths() {
            let mut got = [0u64; GAP_LANES];
            let back = kernels::geometric_gaps(d, state, log_q, &mut got);
            assert_eq!(got, want, "p {p}, k {k:#x}, {}", d.label());
            if d.is_accelerated() {
                assert!(!exact || back > 0, "p {p}, k {k:#x}: no fallback");
                sent_back += back;
            }
        }
        forced += 1;
    };
    for n in 1..=52u32 {
        check(0.5, (1u64 << 53) - (1u64 << (53 - n)), true);
    }
    for p in [0.5, 0.1, 0.01, 1e-3, 1e-6] {
        check(p, 0, true);
        let log_q = (-p).ln_1p();
        for n in [1u64, 2, 3, 7, 10, 100, 1_000, 100_000, 10_000_000] {
            let u = (n as f64 * log_q).exp();
            if u < 1e-15 {
                continue;
            }
            let k = ((1.0 - u) * (1u64 << 53) as f64).round() as u64;
            for k in k.saturating_sub(4)..=(k + 4).min((1 << 53) - 1) {
                check(p, k, false);
            }
        }
    }
    if Dispatch::get().is_accelerated() {
        assert!(sent_back >= 57, "{sent_back} lanes sent back");
    }
}
