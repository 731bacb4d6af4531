//! The EH3 family: 3-wise independent ±1 variables from extended Hamming
//! codes.
//!
//! For a seed `(s₀, s)` with `s₀ ∈ {0,1}` and `s ∈ {0,1}⁶⁴`, the generator is
//!
//! ```text
//! ξ(i) = (−1)^( s₀ ⊕ ⟨s, i⟩ ⊕ q(i) )
//! q(i) = (i₀∧i₁) ⊕ (i₂∧i₃) ⊕ … ⊕ (i₆₂∧i₆₃)
//! ```
//!
//! where `⟨s, i⟩` is the GF(2) inner product and `q` is a fixed quadratic
//! form pairing adjacent bits. The linear part alone would give only 2-wise
//! independence with pathological correlations; the quadratic form upgrades
//! the family to exactly 3-wise independence (Rusu & Dobra, TODS 2007,
//! after Alon et al.). EH3 evaluates in a handful of cycles — two ANDs, two
//! popcounts — which is why it is the fastest practical generator for
//! sketching very fast streams.

use crate::codec::{Codec, CodecError, Reader, Writer};
use crate::family::SignFamily;
use crate::kernels::{self, Dispatch, EVEN_BITS};
use rand::Rng;

/// 3-wise independent ±1 family; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eh3 {
    s0: bool,
    s: u64,
}

impl Eh3 {
    /// Build from an explicit seed.
    pub fn from_seed(s0: bool, s: u64) -> Self {
        Self { s0, s }
    }

    /// The seed `(s₀, s)` — exposed so benches and identity tests can
    /// drive the [`crate::kernels`] EH3 entry points directly.
    pub fn seeds(&self) -> (bool, u64) {
        (self.s0, self.s)
    }

    /// The bit `s₀ ⊕ ⟨s, i⟩ ⊕ q(i)` (0 ⇒ +1, 1 ⇒ −1).
    #[inline]
    pub fn bit(&self, key: u64) -> u64 {
        let linear = (self.s & key).count_ones() as u64 & 1;
        // q(i): AND adjacent bit pairs, then take the parity of the results.
        let pairs = key & (key >> 1) & EVEN_BITS;
        let quad = pairs.count_ones() as u64 & 1;
        (self.s0 as u64) ^ linear ^ quad
    }
}

impl Codec for Eh3 {
    fn put(&self, w: &mut Writer) {
        w.bool(self.s0);
        w.u64(self.s);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self::from_seed(r.bool()?, r.u64()?))
    }
}

impl Eh3 {
    /// The sum `Σ_{i ∈ [start, start+2ᵏ)} ξ(i)` over an **aligned dyadic
    /// block with even level k**, in O(k) time.
    ///
    /// Why this works: for an aligned block with `k` even, the free bits
    /// are `0..k`, every quadratic pair `(2j, 2j+1)` lies entirely inside
    /// or entirely outside the free region, and `⟨s, i⟩` splits into fixed
    /// and free parts. The fixed part contributes a global sign; each free
    /// pair with seed bits `(u, v) = (s₂ⱼ₊₁, s₂ⱼ)` contributes a factor
    /// `Σ_{b₁b₀} (−1)^{u·b₁ ⊕ v·b₀ ⊕ b₁∧b₀} = ±2` (−2 iff `u = v = 1`).
    fn dyadic_sum_even(&self, start: u64, k: u32) -> i64 {
        debug_assert!(k % 2 == 0 && k <= 64);
        debug_assert!(k == 64 || start % (1u64 << k) == 0, "block must be aligned");
        // Sign from the fixed high bits (the whole key with low k bits 0).
        let fixed_sign = self.sign(start);
        // Product over the k/2 free pairs.
        let mut magnitude_log2 = 0u32;
        let mut sign = fixed_sign;
        for j in 0..(k / 2) {
            let u = (self.s >> (2 * j + 1)) & 1;
            let v = (self.s >> (2 * j)) & 1;
            magnitude_log2 += 1;
            if u == 1 && v == 1 {
                sign = -sign;
            }
        }
        sign * (1i64 << magnitude_log2)
    }

    /// The range sum `Σ_{i ∈ [lo, hi)} ξ(i)` in O(log²(hi − lo)) time.
    ///
    /// This is the *range-summable* property of EH3 (Feigenbaum et al.;
    /// Rusu & Dobra, TODS 2007): it lets a sketch ingest a whole interval
    /// of keys — a range predicate, a histogram bucket boundary update —
    /// in logarithmic rather than linear time. The range is decomposed
    /// into aligned dyadic blocks; odd-level blocks split into two
    /// even-level halves.
    ///
    /// Returns 0 for empty ranges. The closed form is exact: the
    /// `range_sum_matches_brute_force` test checks every decomposition
    /// path against direct summation.
    pub fn range_sum(&self, lo: u64, hi: u64) -> i64 {
        if lo >= hi {
            return 0;
        }
        let mut total = 0i64;
        let mut a = lo;
        // Standard dyadic sweep: repeatedly take the largest aligned
        // even-level block that starts at `a` and fits in [a, hi).
        while a < hi {
            let remaining = hi - a;
            // Largest level allowed by alignment of `a` (64 if a == 0).
            let align = if a == 0 { 64 } else { a.trailing_zeros() };
            // Largest level allowed by the remaining length.
            let fit = 63 - remaining.leading_zeros();
            let mut k = align.min(fit);
            // Force even level (odd blocks are two even halves; taking the
            // even level here and looping handles the second half).
            k -= k % 2;
            total += self.dyadic_sum_even(a, k);
            a += 1u64 << k;
        }
        total
    }
}

impl SignFamily for Eh3 {
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        1 - 2 * self.bit(key) as i64
    }

    fn sign_batch(&self, keys: &[u64], out: &mut [i64]) {
        kernels::eh3_sign_batch(Dispatch::get(), self.s0, self.s, keys, out);
    }

    fn sign_sum(&self, keys: &[u64]) -> i64 {
        kernels::eh3_sign_sum(Dispatch::get(), self.s0, self.s, keys)
    }

    fn sign_dot(&self, items: &[(u64, i64)]) -> i64 {
        kernels::eh3_sign_dot(Dispatch::get(), self.s0, self.s, items)
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            s0: rng.random::<bool>(),
            s: rng.random::<u64>(),
        }
    }
}

impl crate::family::RangeSummable for Eh3 {
    fn range_sum(&self, lo: u64, hi: u64) -> i64 {
        Eh3::range_sum(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively verify 3-wise independence on an 8-bit key domain.
    ///
    /// Keys with only the low 8 bits set are unaffected by the upper 56 seed
    /// bits, so enumerating `s ∈ 0..256`, `s₀ ∈ {0,1}` enumerates the full
    /// effective seed space. Exact 3-wise independence of ±1 variables is
    /// equivalent to `Σ_seeds ξ(a)ξ(b)ξ(c) = 0` for distinct keys a, b, c
    /// (all first and second moments vanish by the same argument).
    #[test]
    fn exact_three_wise_independence_on_small_domain() {
        let keys = [0u64, 1, 2, 3, 5, 7, 11, 100, 255];
        for (ai, &a) in keys.iter().enumerate() {
            for (bi, &b) in keys.iter().enumerate().skip(ai + 1) {
                for &c in keys.iter().skip(bi + 1) {
                    let mut sum1 = 0i64;
                    let mut sum2 = 0i64;
                    let mut sum3 = 0i64;
                    for s in 0u64..256 {
                        for s0 in [false, true] {
                            let f = Eh3::from_seed(s0, s);
                            sum1 += f.sign(a);
                            sum2 += f.sign(a) * f.sign(b);
                            sum3 += f.sign(a) * f.sign(b) * f.sign(c);
                        }
                    }
                    assert_eq!(sum1, 0, "E[ξ({a})] ≠ 0");
                    assert_eq!(sum2, 0, "E[ξ({a})ξ({b})] ≠ 0");
                    assert_eq!(sum3, 0, "E[ξ({a})ξ({b})ξ({c})] ≠ 0");
                }
            }
        }
    }

    /// EH3 is famously *not* 4-wise independent: the keys {0, 1, 2, 3} have
    /// ξ(0)ξ(1)ξ(2)ξ(3) = −1 for *every* seed (the linear parts cancel and
    /// the quadratic form contributes q(3) = 1). Document the defect.
    #[test]
    fn four_wise_defect_on_affine_subspace() {
        for s in 0u64..256 {
            for s0 in [false, true] {
                let f = Eh3::from_seed(s0, s);
                let prod: i64 = [0u64, 1, 2, 3].iter().map(|&k| f.sign(k)).product();
                assert_eq!(prod, -1, "seed ({s0}, {s})");
            }
        }
    }

    #[test]
    fn quadratic_form_matches_reference() {
        // q pairs bits (0,1), (2,3), ...: for key 0b1111 both pairs fire -> parity 0.
        let f = Eh3::from_seed(false, 0);
        assert_eq!(f.bit(0b0011), 1); // one pair
        assert_eq!(f.bit(0b1111), 0); // two pairs
        assert_eq!(f.bit(0b0101), 0); // no adjacent pair
        assert_eq!(f.bit(0), 0);
    }

    #[test]
    fn range_sum_matches_brute_force() {
        // Deterministic seed battery covering all pair-seed cases.
        let seeds: Vec<(bool, u64)> = vec![
            (false, 0),
            (true, 0),
            (false, 0b11),
            (false, 0b01),
            (true, 0b10),
            (false, 0xDEAD_BEEF_CAFE_F00D),
            (true, u64::MAX),
        ];
        let ranges: Vec<(u64, u64)> = vec![
            (0, 0),
            (5, 5),
            (0, 1),
            (0, 16),
            (1, 16),
            (3, 29),
            (0, 1024),
            (17, 1023),
            (255, 257),
            (1000, 5000),
            ((1 << 40) - 3, (1 << 40) + 100),
        ];
        for &(s0, s) in &seeds {
            let f = Eh3::from_seed(s0, s);
            for &(lo, hi) in &ranges {
                let brute: i64 = (lo..hi).map(|k| f.sign(k)).sum();
                assert_eq!(
                    f.range_sum(lo, hi),
                    brute,
                    "seed ({s0}, {s:#x}), range [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn dyadic_magnitude_is_power_of_two() {
        // An aligned even-level block sums to ±2^(k/2) exactly.
        let f = Eh3::from_seed(false, 0b1011);
        for k in [0u32, 2, 4, 6, 8] {
            for m in 0..4u64 {
                let start = m << k;
                let s = f.range_sum(start, start + (1 << k));
                assert_eq!(s.unsigned_abs(), 1u64 << (k / 2), "k={k} m={m}: sum {s}");
            }
        }
    }

    #[test]
    fn range_sums_are_additive() {
        let f = Eh3::from_seed(true, 0x1234_5678);
        // [a, c) = [a, b) + [b, c) for arbitrary split points.
        for (a, b, c) in [(0u64, 7, 100), (50, 64, 128), (1, 2, 3), (10, 1000, 4096)] {
            assert_eq!(f.range_sum(a, c), f.range_sum(a, b) + f.range_sum(b, c));
        }
    }

    #[test]
    fn linear_part_matches_inner_product() {
        let f = Eh3::from_seed(false, 0b1010);
        // keys without adjacent pairs isolate the linear part
        assert_eq!(f.bit(0b1000), 1);
        assert_eq!(f.bit(0b0010), 1);
        assert_eq!(f.bit(0b101000), 1); // <s,i> = 1, no adjacent bits? 0b101000: bits 3,5 -> not adjacent. s&key = 0b1000 -> parity 1
    }
}
