//! The BCH5 family: 5-wise independent ±1 variables from dual BCH codes.
//!
//! For a seed `(s₀, s₁, s₂)` the generator is
//!
//! ```text
//! ξ(i) = (−1)^( s₀ ⊕ ⟨s₁, i⟩ ⊕ ⟨s₂, i³⟩ )
//! ```
//!
//! where the cube `i³` is taken in GF(2⁶⁴) and `⟨·,·⟩` is the GF(2) inner
//! product. Rows of the parity-check matrix of a 2-error-correcting BCH code
//! are 5-wise linearly independent, which makes the family 5-wise independent
//! — strictly stronger than the 4-wise requirement of AGMS sketching. The
//! price is the GF(2⁶⁴) cube on every evaluation (two carry-less
//! multiplications in portable code).

use crate::codec::{Codec, CodecError, Reader, Writer};
use crate::family::{FourWise, SignFamily};
use crate::gf2::gf_cube;
use rand::Rng;

/// 3-wise independent ±1 family from the dual (extended) Hamming code:
/// `ξ(i) = (−1)^(s₀ ⊕ ⟨s₁, i⟩)`.
///
/// The columns `(1, i)` of the generator matrix are 3-wise linearly
/// independent over GF(2) (any two distinct columns differ; any three sum
/// to `(1, i₁⊕i₂⊕i₃) ≠ 0`), giving exact 3-wise independence from just one
/// AND and one popcount — the absolute cost floor of a ±1 generator. Like
/// every 3-wise family it fails 4-wise: any four keys XORing to zero (e.g.
/// {0, 1, 2, 3}) have a deterministic product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bch3 {
    s0: bool,
    s1: u64,
}

impl Bch3 {
    /// Build from an explicit seed.
    pub fn from_seed(s0: bool, s1: u64) -> Self {
        Self { s0, s1 }
    }
}

impl SignFamily for Bch3 {
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        let bit = (self.s0 as u64) ^ ((self.s1 & key).count_ones() as u64 & 1);
        1 - 2 * bit as i64
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            s0: rng.random::<bool>(),
            s1: rng.random::<u64>(),
        }
    }
}

/// 5-wise independent ±1 family; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bch5 {
    s0: bool,
    s1: u64,
    s2: u64,
}

impl Bch5 {
    /// Build from an explicit seed.
    pub fn from_seed(s0: bool, s1: u64, s2: u64) -> Self {
        Self { s0, s1, s2 }
    }

    /// The parity bit `s₀ ⊕ ⟨s₁, i⟩ ⊕ ⟨s₂, i³⟩` (0 ⇒ +1, 1 ⇒ −1).
    #[inline]
    pub fn bit(&self, key: u64) -> u64 {
        let linear = (self.s1 & key).count_ones() as u64 & 1;
        let cubic = (self.s2 & gf_cube(key)).count_ones() as u64 & 1;
        (self.s0 as u64) ^ linear ^ cubic
    }
}

impl SignFamily for Bch5 {
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        1 - 2 * self.bit(key) as i64
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            s0: rng.random::<bool>(),
            s1: rng.random::<u64>(),
            s2: rng.random::<u64>(),
        }
    }
}

impl FourWise for Bch5 {}

impl Codec for Bch3 {
    fn put(&self, w: &mut Writer) {
        w.bool(self.s0);
        w.u64(self.s1);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self::from_seed(r.bool()?, r.u64()?))
    }
}

impl Codec for Bch5 {
    fn put(&self, w: &mut Writer) {
        w.bool(self.s0);
        w.u64(self.s1);
        w.u64(self.s2);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self::from_seed(r.bool()?, r.u64()?, r.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// BCH3: exact 3-wise independence by seed enumeration (keys confined
    /// to 8 bits ⇒ only the low 8 seed bits and s₀ matter), and the
    /// deterministic 4-wise defect on XOR-zero quadruples.
    #[test]
    fn bch3_exact_three_wise_and_four_wise_defect() {
        let keys = [1u64, 2, 3, 7, 11, 100, 255];
        for (ai, &a) in keys.iter().enumerate() {
            for (bi, &b) in keys.iter().enumerate().skip(ai + 1) {
                for &c in keys.iter().skip(bi + 1) {
                    let mut sum = 0i64;
                    for s in 0u64..256 {
                        for s0 in [false, true] {
                            let f = Bch3::from_seed(s0, s);
                            sum += f.sign(a) * f.sign(b) * f.sign(c);
                        }
                    }
                    assert_eq!(sum, 0, "E[ξ({a})ξ({b})ξ({c})] ≠ 0");
                }
            }
        }
        // {0,1,2,3} XOR to zero: the product is ξ-independent (s₀ appears
        // 4 times, the linear parts cancel) and equals +1 always.
        for s in 0u64..256 {
            for s0 in [false, true] {
                let f = Bch3::from_seed(s0, s);
                let prod: i64 = [0u64, 1, 2, 3].iter().map(|&k| f.sign(k)).product();
                assert_eq!(prod, 1, "seed ({s0}, {s})");
            }
        }
    }

    /// Statistical 4-wise check over random seeds, including the affine
    /// subspace {0,1,2,3} on which EH3 fails deterministically.
    #[test]
    fn fourth_order_products_average_to_zero() {
        let trials = 20_000;
        let key_sets: [[u64; 4]; 3] = [
            [0, 1, 2, 3],
            [5, 99, 1234, 987_654],
            [1 << 40, 1 << 41, 3 << 40, 7],
        ];
        for keys in key_sets {
            let mut rng = StdRng::seed_from_u64(31_337);
            let mut acc = 0i64;
            for _ in 0..trials {
                let f = Bch5::random(&mut rng);
                acc += keys.iter().map(|&k| f.sign(k)).product::<i64>();
            }
            let mean = acc as f64 / trials as f64;
            assert!(mean.abs() < 0.036, "keys {keys:?}: mean = {mean}");
        }
    }

    /// Key 0 cubes to 0, so ξ(0) depends only on s₀: verify the degenerate
    /// case stays balanced across seeds.
    #[test]
    fn key_zero_depends_only_on_s0() {
        for s1 in [0u64, 5, u64::MAX] {
            for s2 in [0u64, 9, u64::MAX] {
                assert_eq!(Bch5::from_seed(false, s1, s2).sign(0), 1);
                assert_eq!(Bch5::from_seed(true, s1, s2).sign(0), -1);
            }
        }
    }

    /// *Exact* k-wise independence certificate for k ≤ 4.
    ///
    /// The parity of `∏_{k ∈ K} ξ(k)` over a key subset `K` is the linear
    /// form `|K|·s₀ ⊕ ⟨s₁, ⊕K⟩ ⊕ ⟨s₂, ⊕K³⟩` in the seed bits. Over the
    /// uniform seed distribution the product averages to exactly 0 iff that
    /// form is not identically zero, i.e. unless |K| is even *and*
    /// `⊕_{k∈K} k = 0` *and* `⊕_{k∈K} k³ = 0`. The BCH-code distance
    /// argument says no subset of size ≤ 4 (indeed ≤ 5 when 0 ∉ K) can
    /// satisfy both cancellations; verify it exhaustively over a key sample.
    #[test]
    fn exact_four_wise_independence_certificate() {
        let keys: Vec<u64> = (1u64..=40).chain([1 << 20, 1 << 40, u64::MAX]).collect();
        let n = keys.len();
        let cubes: Vec<u64> = keys.iter().map(|&k| gf_cube(k)).collect();
        // Enumerate all subsets of size 2 and 4 (odd sizes are balanced by
        // the s₀ bit regardless).
        for i in 0..n {
            for j in i + 1..n {
                assert!(
                    keys[i] ^ keys[j] != 0 || cubes[i] ^ cubes[j] != 0,
                    "pair ({}, {}) collides",
                    keys[i],
                    keys[j]
                );
                for k in j + 1..n {
                    for l in k + 1..n {
                        let x = keys[i] ^ keys[j] ^ keys[k] ^ keys[l];
                        let c = cubes[i] ^ cubes[j] ^ cubes[k] ^ cubes[l];
                        assert!(
                            x != 0 || c != 0,
                            "4-subset ({}, {}, {}, {}) defeats the family",
                            keys[i],
                            keys[j],
                            keys[k],
                            keys[l]
                        );
                    }
                }
            }
        }
    }
}
