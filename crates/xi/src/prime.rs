//! Arithmetic in the prime field GF(p) with p = 2⁶¹ − 1 (a Mersenne prime).
//!
//! Carter–Wegman polynomial hashing needs fast modular multiplication over a
//! prime larger than the key domain slice it consumes. The Mersenne prime
//! 2⁶¹ − 1 admits a branch-light reduction: for any x < 2¹²², write
//! `x = hi·2⁶¹ + lo`; then `x ≡ hi + lo (mod p)`.

/// The Mersenne prime 2⁶¹ − 1.
pub const P61: u64 = (1 << 61) - 1;

/// Reduce a 128-bit value modulo 2⁶¹ − 1.
///
/// The result is in `[0, P61)`.
#[inline]
pub fn reduce128(x: u128) -> u64 {
    // x = hi·2^61 + lo  ⇒  x ≡ hi + lo (mod p). After the first fold the
    // value fits in 68 bits (hi < 2^67), after the second in 62 bits, so a
    // single conditional subtraction finishes the reduction.
    let mut x = (x & P61 as u128) + (x >> 61);
    x = (x & P61 as u128) + (x >> 61);
    let mut s = x as u64;
    if s >= P61 {
        s -= P61;
    }
    s
}

/// Multiply two field elements modulo 2⁶¹ − 1.
///
/// Inputs need not be reduced, but must be < 2⁶⁴; the result is in `[0, P61)`.
#[inline]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    reduce128(a as u128 * b as u128)
}

/// Add two reduced field elements modulo 2⁶¹ − 1.
#[inline]
pub fn add_mod(a: u64, b: u64) -> u64 {
    let mut s = a + b; // a,b < 2^61 so no overflow
    if s >= P61 {
        s -= P61;
    }
    s
}

/// Evaluate the polynomial `c[0] + c[1]·x + … + c[d]·xᵈ` over GF(2⁶¹−1)
/// using Horner's rule.
#[inline]
pub fn poly_eval(coeffs: &[u64], x: u64) -> u64 {
    let x = x % P61;
    let mut acc = 0u64;
    for &c in coeffs.iter().rev() {
        acc = add_mod(mul_mod(acc, x), c % P61);
    }
    acc
}

/// Reduce a 128-bit value modulo 2⁶¹ − 1 *partially*: two folds, no final
/// conditional subtraction. The result is < 2⁶² and congruent to `x`.
///
/// This is the lazy-reduction half of the batched Horner kernel: an
/// accumulator only needs to stay small enough for the next 64×64→128
/// multiply, so the canonicalizing subtract (a compare + branch/cmov per
/// step) can be deferred to the very end of the evaluation.
#[inline]
fn reduce128_partial(x: u128) -> u64 {
    let x = (x & P61 as u128) + (x >> 61);
    ((x & P61 as u128) + (x >> 61)) as u64
}

/// Evaluate one polynomial at `LANES` points with interleaved Horner chains
/// and lazy reduction. Both `coeffs` and the evaluation points `xs` must
/// already be reduced modulo 2⁶¹−1; the results are canonical.
///
/// The accumulators start at the leading coefficient instead of zero —
/// the generic Horner loop's first `0·x` multiply is dead work that the
/// optimizer cannot remove when the coefficient count is only known at run
/// time. Invariant: each accumulator stays below 2⁶² + 2⁶¹ < 2⁶³ (partial
/// reduction < 2⁶² plus one reduced coefficient < 2⁶¹), so the next
/// `acc·x` product fits comfortably in 128 bits.
#[inline]
pub(crate) fn horner_lanes_reduced<const LANES: usize>(
    coeffs: &[u64],
    xs: &[u64; LANES],
) -> [u64; LANES] {
    let Some((&last, rest)) = coeffs.split_last() else {
        return [0u64; LANES];
    };
    let mut acc = [last; LANES];
    for &c in rest.iter().rev() {
        for lane in 0..LANES {
            acc[lane] = reduce128_partial(acc[lane] as u128 * xs[lane] as u128) + c;
        }
    }
    acc.map(|a| reduce128(a as u128))
}

/// Branchless exact remainder `h % d` for hash values `h < 2⁶¹`, using the
/// round-up magic-number method for division by an invariant integer
/// (Granlund & Montgomery): with `m = ⌈2ᵇ/d⌉` and `b = 61 + ⌈log₂ d⌉`,
/// the quotient `⌊h/d⌋` equals `(h·m) >> b` exactly for every `h < 2⁶¹`,
/// because the magic's excess `e = m·d − 2ᵇ < d` contributes an error
/// `e·h/(d·2ᵇ) < d·2⁶¹/(d·2ᵇ) ≤ 1/d`, too small to push the product over
/// the next integer. One 64×64→128 multiply and a shift replace the
/// hardware divide in the bucket-hash hot loop.
#[derive(Debug, Clone, Copy)]
pub struct FixedMod {
    magic: u64,
    shift: u32,
    d: u64,
}

impl FixedMod {
    /// Prepare the magic constants for divisor `d ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "modulus must be non-zero");
        let ceil_log2 = 64 - (d - 1).leading_zeros();
        let shift = 61 + ceil_log2;
        // m = ceil(2^shift / d) < 2^62 + 1, so it always fits in a u64.
        let magic = (1u128 << shift).div_ceil(d as u128) as u64;
        Self { magic, shift, d }
    }

    /// Exact `h % d`. Requires `h < 2⁶¹` (every canonical GF(2⁶¹−1) value
    /// qualifies).
    #[inline]
    pub fn rem(&self, h: u64) -> u64 {
        debug_assert!(h < (1 << 61), "FixedMod::rem requires h < 2^61");
        let q = ((h as u128 * self.magic as u128) >> self.shift) as u64;
        h - q * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_matches_naive_modulo() {
        let cases: [u128; 8] = [
            0,
            1,
            P61 as u128,
            P61 as u128 + 1,
            u64::MAX as u128,
            u128::MAX,
            (P61 as u128) * (P61 as u128),
            123_456_789_012_345_678_901_234_567u128,
        ];
        for &x in &cases {
            assert_eq!(reduce128(x) as u128, x % P61 as u128, "x = {x}");
        }
    }

    #[test]
    fn mul_matches_wide_multiplication() {
        let pairs = [
            (0u64, 0u64),
            (1, P61 - 1),
            (P61 - 1, P61 - 1),
            (u64::MAX, u64::MAX),
            (0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321),
        ];
        for &(a, b) in &pairs {
            let expect = ((a as u128 * b as u128) % P61 as u128) as u64;
            assert_eq!(mul_mod(a, b), expect, "a={a} b={b}");
        }
    }

    #[test]
    fn add_wraps_at_p() {
        assert_eq!(add_mod(P61 - 1, 1), 0);
        assert_eq!(add_mod(P61 - 1, 2), 1);
        assert_eq!(add_mod(5, 7), 12);
    }

    #[test]
    fn horner_matches_direct_evaluation() {
        // c(x) = 3 + 5x + 7x^2 + 11x^3 at x = 1e9
        let coeffs = [3u64, 5, 7, 11];
        let x = 1_000_000_000u64;
        let direct = {
            let x = x as u128;
            let p = P61 as u128;
            ((3 + 5 * x % p + 7 * (x * x % p) % p + 11 * (x * x % p * x % p) % p) % p) as u64
        };
        assert_eq!(poly_eval(&coeffs, x), direct);
    }

    #[test]
    fn fixed_mod_is_exact_across_divisors() {
        // Awkward divisors: 1, powers of two ±1, the bench widths, large.
        let divisors = [
            1u64,
            2,
            3,
            5,
            7,
            255,
            256,
            257,
            512,
            1000,
            5000,
            10_000,
            (1 << 32) - 1,
            1 << 40,
            (1 << 61) - 2,
        ];
        let hashes = [
            0u64,
            1,
            2,
            12345,
            123_456_789_012,
            P61 / 2,
            P61 - 2,
            P61 - 1,
        ];
        for &d in &divisors {
            let m = FixedMod::new(d);
            for &h in &hashes {
                assert_eq!(m.rem(h), h % d, "d = {d}, h = {h}");
            }
            // Values adjacent to multiples of d, where a magic-number
            // off-by-one would surface.
            for q in [1u64, 2, 1000] {
                if let Some(base) = d.checked_mul(q) {
                    if base < P61 {
                        assert_eq!(m.rem(base - 1), (base - 1) % d, "d = {d}");
                        assert_eq!(m.rem(base), 0, "d = {d}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be non-zero")]
    fn fixed_mod_rejects_zero() {
        let _ = FixedMod::new(0);
    }

    #[test]
    fn poly_eval_reduces_unreduced_inputs() {
        // x >= P61 must behave as x mod P61.
        let coeffs = [17u64, 23, 29, 31];
        assert_eq!(poly_eval(&coeffs, P61 + 5), poly_eval(&coeffs, 5));
        assert_eq!(
            poly_eval(&coeffs, u64::MAX),
            poly_eval(&coeffs, u64::MAX % P61)
        );
    }
}
