//! The two family traits, implemented by the Carter–Wegman types only.
//!
//! Every family here is a polynomial over GF(2⁶¹−1): a type supplies its
//! coefficient vector and a seeded constructor, and every evaluation —
//! per key or batched through [`crate::kernels`] — is written once, on
//! the trait. Both traits are sealed, so no type outside this crate can
//! implement them.

use crate::kernels::{self, Dispatch};
use crate::prime::poly_eval;
use rand::Rng;

mod sealed {
    /// The private supertrait that seals [`super::SignFamily`] and
    /// [`super::BucketFamily`].
    pub trait Sealed {}

    impl Sealed for crate::Cw2 {}
    impl Sealed for crate::Cw2Bucket {}
    impl Sealed for crate::Cw4 {}
}

/// A family of {+1, −1} random variables indexed by a `u64` key.
///
/// A *family* is one fixed draw of the seed: `sign(key)` is a deterministic
/// function of `key`, and the randomness lives in the seed. Limited
/// independence (see the implementors) is a property of the *distribution
/// over seeds*, which is why sketch estimators average over many
/// independently-seeded families.
///
/// The sign is the low bit of the family's polynomial at the key. Every
/// batched method runs the runtime-dispatched [`crate::kernels`] and is
/// bit-identical to the per-key [`sign`](SignFamily::sign).
pub trait SignFamily: sealed::Sealed {
    /// The polynomial's coefficients over GF(2⁶¹−1), lowest degree first.
    fn coeffs(&self) -> &[u64];

    /// Construct a family with a fresh random seed drawn from `rng`.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self
    where
        Self: Sized;

    /// The value ξ(key) ∈ {+1, −1}.
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        1 - 2 * ((poly_eval(self.coeffs(), key) & 1) as i64)
    }

    /// Fill `out[i] = self.sign(keys[i])` for a whole batch of keys.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != out.len()`.
    fn sign_batch(&self, keys: &[u64], out: &mut [i64]) {
        kernels::sign_batch(Dispatch::get(), self.coeffs(), keys, out);
    }

    /// `Σᵢ sign(keys[i])` — the net increment a single AGMS counter
    /// receives from a batch of unit-count tuples. The sum folds into the
    /// evaluation loop, so no per-key sign is materialized.
    fn sign_sum(&self, keys: &[u64]) -> i64 {
        kernels::sign_sum(Dispatch::get(), self.coeffs(), keys)
    }

    /// `Σᵢ counts·sign(key)` over `(key, count)` pairs — the weighted twin
    /// of [`SignFamily::sign_sum`] used by count-carrying batch updates.
    fn sign_dot(&self, items: &[(u64, i64)]) -> i64 {
        kernels::sign_dot(Dispatch::get(), self.coeffs(), items)
    }

    /// [`coeffs`](SignFamily::coeffs), always `Some`. The `Option` is kept
    /// only because the benchmark ledger's kernel row (`ledger/src/layers.rs`)
    /// calls `.expect` on it; it goes when that caller reads `coeffs`.
    fn poly_coeffs(&self) -> Option<&[u64]> {
        Some(self.coeffs())
    }
}

/// A family of hash functions mapping a `u64` key to a bucket index:
/// the family's polynomial at the key, modulo the width.
///
/// Pairwise independence of the bucket hash is what the F-AGMS and Count-Min
/// analyses require.
pub trait BucketFamily: sealed::Sealed {
    /// The polynomial's coefficients over GF(2⁶¹−1), lowest degree first.
    fn coeffs(&self) -> &[u64];

    /// Construct a family with a fresh random seed drawn from `rng`.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self
    where
        Self: Sized;

    /// Hash `key` into `0..width`. `width` must be non-zero.
    #[inline]
    fn bucket(&self, key: u64, width: usize) -> usize {
        debug_assert!(width > 0, "bucket width must be non-zero");
        (poly_eval(self.coeffs(), key) % width as u64) as usize
    }

    /// Fill `out[i] = self.bucket(keys[i], width)` for a whole batch,
    /// bit-identically to the per-key loop.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != out.len()` or `width == 0`.
    fn bucket_batch(&self, keys: &[u64], width: usize, out: &mut [usize]) {
        kernels::bucket_batch(Dispatch::get(), self.coeffs(), width, keys, out);
    }

    /// [`coeffs`](BucketFamily::coeffs), always `Some`; kept as an `Option`
    /// for the same caller as [`SignFamily::poly_coeffs`].
    fn poly_coeffs(&self) -> Option<&[u64]> {
        Some(self.coeffs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cw2, Cw2Bucket, Cw4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keys() -> Vec<u64> {
        (0..301u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([0, u64::MAX, 1 << 63])
            .collect()
    }

    /// Every sign is ±1, a family is deterministic, and two seeds disagree
    /// on about half the keys.
    fn check_signs<F: SignFamily>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (F::random(&mut rng), F::random(&mut rng));
        for key in (0..10_000u64).chain(test_keys()) {
            let s = a.sign(key);
            assert!(s == 1 || s == -1, "sign must be ±1, got {s} for key {key}");
            assert_eq!(s, a.sign(key));
        }
        let differing = (0..4096u64).filter(|&k| a.sign(k) != b.sign(k)).count();
        assert!(
            (1024..3072).contains(&differing),
            "families from different seeds look identical or anti-identical ({differing}/4096)"
        );
    }

    #[test]
    fn signs_are_balanced_deterministic_and_seed_dependent() {
        check_signs::<Cw2>(1);
        check_signs::<Cw4>(2);
    }

    /// The batched entry points equal the per-key sign on every tail length.
    fn check_batches<F: SignFamily>(seed: u64) {
        let f = F::random(&mut StdRng::seed_from_u64(seed));
        let keys = test_keys();
        let items: Vec<(u64, i64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i as i64 % 7) - 3))
            .collect();
        for len in [0usize, 1, 3, 4, 5, 17, keys.len()] {
            let mut out = vec![0i64; len];
            f.sign_batch(&keys[..len], &mut out);
            for (i, &s) in out.iter().enumerate() {
                assert_eq!(s, f.sign(keys[i]), "len {len}, index {i}");
            }
            let want_sum: i64 = keys[..len].iter().map(|&k| f.sign(k)).sum();
            assert_eq!(f.sign_sum(&keys[..len]), want_sum, "len {len}");
            let want_dot: i64 = items[..len].iter().map(|&(k, c)| c * f.sign(k)).sum();
            assert_eq!(f.sign_dot(&items[..len]), want_dot, "len {len}");
        }
    }

    #[test]
    fn sign_batches_match_per_key() {
        check_batches::<Cw2>(31);
        check_batches::<Cw4>(32);
    }

    #[test]
    fn poly_coeffs_are_the_coefficients() {
        let mut rng = StdRng::seed_from_u64(46);
        let cw2 = Cw2::random(&mut rng);
        assert_eq!(cw2.poly_coeffs(), Some(cw2.coeffs()));
        assert_eq!(cw2.coeffs().len(), 2);
        assert_eq!(Cw4::random(&mut rng).coeffs().len(), 4);
        let bucket = Cw2Bucket::random(&mut rng);
        assert_eq!(bucket.poly_coeffs(), Some(bucket.coeffs()));
        assert_eq!(bucket.coeffs().len(), 2);
    }

    #[test]
    fn bucket_batch_matches_per_key() {
        let f = Cw2Bucket::random(&mut StdRng::seed_from_u64(36));
        let keys: Vec<u64> = (0..131u64).map(|i| i * 2_654_435_761).collect();
        for width in [1usize, 2, 1000, 5000] {
            let mut out = vec![0usize; keys.len()];
            f.bucket_batch(&keys, width, &mut out);
            for (i, &b) in out.iter().enumerate() {
                assert_eq!(b, f.bucket(keys[i], width), "width {width}, index {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per key")]
    fn sign_batch_rejects_mismatched_lengths() {
        let f = Cw4::random(&mut StdRng::seed_from_u64(37));
        let mut out = [0i64; 1];
        f.sign_batch(&[1, 2], &mut out);
    }
}
