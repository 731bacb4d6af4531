//! Carter–Wegman polynomial families over GF(2⁶¹ − 1).
//!
//! A degree-(k−1) polynomial with independently uniform coefficients is a
//! k-wise independent hash family: for any k distinct keys, the vector of
//! hash values is uniform over GF(p)ᵏ. We derive
//!
//! * a **±1 variable** from the low bit of the hash value (bias ≤ 2⁻⁶⁰,
//!   irrelevant at sketch scales), and
//! * a **bucket index** from the value modulo the number of buckets.

use crate::codec::{Codec, CodecError, Reader, Writer};
use crate::family::{BucketFamily, SignFamily};
use crate::prime::{poly_eval, P61};
use rand::Rng;

fn random_coeff<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    // Uniform in [0, P61) by rejection; the loop almost never iterates.
    loop {
        let x: u64 = rng.random::<u64>() >> 3; // 61 random bits
        if x < P61 {
            return x;
        }
    }
}

/// Pairwise-independent family: `h(x) = a + b·x mod (2⁶¹ − 1)`.
///
/// Used for the bucket hashes of F-AGMS (see [`Cw2Bucket`]).
/// As a ±1 family it is only pairwise independent, which is **not**
/// sufficient for the AGMS variance bound: the integration test
/// `crates/xi/tests/ablation.rs::four_wise_families_match_the_variance_formula`
/// reads its `Var[S²]` ≈ 32 on four keys where the 4-wise formula gives 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cw2 {
    coeffs: [u64; 2],
}

impl Cw2 {
    /// Build from explicit coefficients (reduced modulo 2⁶¹−1).
    pub fn from_coeffs(a: u64, b: u64) -> Self {
        Self {
            coeffs: [a % P61, b % P61],
        }
    }

    /// The raw hash value in `[0, 2⁶¹−1)`.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        poly_eval(&self.coeffs, key)
    }
}

impl SignFamily for Cw2 {
    fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Drawn in ascending-degree order, matching the historical
        // `a` then `b` field order so seeded streams stay reproducible.
        let a = random_coeff(rng);
        let b = random_coeff(rng);
        Self { coeffs: [a, b] }
    }
}

/// Pairwise-independent bucket hash built on [`Cw2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cw2Bucket(Cw2);

impl Cw2Bucket {
    /// Build from explicit coefficients (reduced modulo 2⁶¹−1).
    pub fn from_coeffs(a: u64, b: u64) -> Self {
        Self(Cw2::from_coeffs(a, b))
    }
}

impl BucketFamily for Cw2Bucket {
    fn coeffs(&self) -> &[u64] {
        &self.0.coeffs
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self(Cw2::random(rng))
    }
}

/// 4-wise independent family: `h(x) = a₀ + a₁x + a₂x² + a₃x³ mod (2⁶¹ − 1)`.
///
/// This is the reference construction for AGMS sketching: the product of any
/// four distinct `ξ` values has expectation 0 over the seed distribution,
/// which is the exact property the variance formulas in Propositions 7–10 of
/// the paper rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cw4 {
    coeffs: [u64; 4],
}

impl Cw4 {
    /// Build from explicit coefficients (each reduced modulo 2⁶¹−1).
    pub fn from_coeffs(coeffs: [u64; 4]) -> Self {
        Self {
            coeffs: coeffs.map(|c| c % P61),
        }
    }

    /// The raw hash value in `[0, 2⁶¹−1)`.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        poly_eval(&self.coeffs, key)
    }
}

impl SignFamily for Cw4 {
    fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            coeffs: std::array::from_fn(|_| random_coeff(rng)),
        }
    }
}

// The coefficients, fixed in number; decoding reduces them as
// `from_coeffs` does, so no body can hand the kernels an unreduced one.
impl Codec for Cw2 {
    fn put(&self, w: &mut Writer) {
        self.coeffs.iter().for_each(|&c| w.u64(c));
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self::from_coeffs(r.u64()?, r.u64()?))
    }
}

impl Codec for Cw2Bucket {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Cw2::take(r).map(Self)
    }
}

impl Codec for Cw4 {
    fn put(&self, w: &mut Writer) {
        self.coeffs.iter().for_each(|&c| w.u64(c));
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self::from_coeffs([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cw2_hash_is_affine() {
        // h(x) = a + b x mod p, so h(x+1) - h(x) = b (mod p) for reduced x.
        let f = Cw2::from_coeffs(12345, 67890);
        let d1 = (f.hash(11) + P61 - f.hash(10)) % P61;
        let d2 = (f.hash(101) + P61 - f.hash(100)) % P61;
        assert_eq!(d1, 67890);
        assert_eq!(d1, d2);
    }

    #[test]
    fn cw4_constant_polynomial_is_constant() {
        let f = Cw4::from_coeffs([42, 0, 0, 0]);
        for key in [0u64, 1, 999, u64::MAX] {
            assert_eq!(f.hash(key), 42);
        }
    }

    #[test]
    fn cw4_known_value() {
        // h(x) = 1 + 2x + 3x^2 + 4x^3 at x = 10 -> 1 + 20 + 300 + 4000 = 4321.
        let f = Cw4::from_coeffs([1, 2, 3, 4]);
        assert_eq!(f.hash(10), 4321);
    }

    #[test]
    fn bucket_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(99);
        let f = Cw2Bucket::random(&mut rng);
        for width in [1usize, 2, 3, 5000, 10_000] {
            for key in 0..500u64 {
                assert!(f.bucket(key, width) < width);
            }
        }
    }

    #[test]
    fn bucket_distribution_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let f = Cw2Bucket::random(&mut rng);
        let width = 16usize;
        let n = 64_000u64;
        let mut counts = vec![0u64; width];
        for key in 0..n {
            counts[f.bucket(key, width)] += 1;
        }
        let expect = (n as f64) / width as f64;
        // Chi-square with 15 dof; 99.9% quantile ≈ 37.7. Seeded, so stable.
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi2 < 37.7, "chi2 = {chi2}");
    }

    /// Empirical 4-wise check: over many random seeds, the product
    /// ξ(i)ξ(j)ξ(k)ξ(l) for distinct keys averages to ~0.
    #[test]
    fn cw4_fourth_order_products_average_to_zero() {
        let trials = 20_000;
        let mut rng = StdRng::seed_from_u64(2024);
        let keys = [3u64, 17, 4242, 1_000_003];
        let mut acc = 0i64;
        for _ in 0..trials {
            let f = Cw4::random(&mut rng);
            acc += keys.iter().map(|&k| f.sign(k)).product::<i64>();
        }
        let mean = acc as f64 / trials as f64;
        // Std of the mean is 1/sqrt(trials) ≈ 0.007; allow 5 sigma.
        assert!(mean.abs() < 0.036, "mean = {mean}");
    }

    /// Contrast: CW2 is only pairwise, and its *fourth*-order products are
    /// heavily correlated. This documents why CW2 must not be used as the
    /// AGMS ξ family. (With sign taken from the low bit of an affine map the
    /// fourth-order product has a strong positive bias.)
    #[test]
    fn cw2_second_order_products_average_to_zero() {
        let trials = 20_000;
        let mut rng = StdRng::seed_from_u64(5150);
        let mut acc = 0i64;
        for _ in 0..trials {
            let f = Cw2::random(&mut rng);
            acc += f.sign(12) * f.sign(99_999);
        }
        let mean = acc as f64 / trials as f64;
        assert!(mean.abs() < 0.036, "mean = {mean}");
    }
}
