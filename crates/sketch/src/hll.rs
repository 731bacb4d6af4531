//! HyperLogLog distinct-count (F₀) summary.
//!
//! Implemented from first principles after Flajolet, Fusy, Gandouet &
//! Meunier, *"HyperLogLog: the analysis of a near-optimal cardinality
//! estimation algorithm"* (AofA 2007): hash every key to 64 bits, use the
//! top `precision` bits to pick one of `m = 2^precision` registers, and
//! keep in each register the maximum "rank" (position of the leftmost
//! 1-bit) seen among the remaining bits. The harmonic mean of `2^register`
//! across registers estimates the cardinality with relative standard error
//! `≈ 1.04/√m`, independent of how many duplicates the stream carries.
//!
//! Like the join sketches, a summary carries the seed of its hash function:
//! two HyperLogLogs [`merge`](HyperLogLog::merge) (register-wise max —
//! exactly the summary of the union, so the merge is commutative,
//! associative, and idempotent bit-for-bit) only when precision and seed
//! agree, otherwise [`Error::SchemaMismatch`].
//!
//! Registers saturate monotonically, so the summary of "stream minus a
//! fragment" is not recoverable: a merged view that must drop a stale
//! part is rebuilt by merging the current parts again.

use crate::error::{Error, Result};
use sss_xi::{splitmix64, Codec, CodecError, Reader, Writer};
use std::sync::Arc;

/// Smallest accepted precision (m = 16 registers).
pub const MIN_PRECISION: u8 = 4;
/// Largest accepted precision (m = 262144 registers, 256 KiB of state).
pub const MAX_PRECISION: u8 = 18;

/// A HyperLogLog register array with a seeded 64-bit hash.
///
/// The registers sit behind an [`Arc`], written through
/// [`Arc::make_mut`] once per write call: a clone shares them, allocating
/// nothing, and copies them only when it writes while another still holds
/// them.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    registers: Arc<Vec<u8>>,
    precision: u8,
    seed: u64,
}

// A body is hostile until it has the shape `with_seed` builds and `insert`
// keeps: a precision in range, `2^precision` registers, and no register
// above the largest rank `insert` can write. Anything else would index out
// of bounds or shift past 64 bits on first use.
impl Codec for HyperLogLog {
    fn put(&self, w: &mut Writer) {
        w.bytes(&self.registers);
        w.u64(u64::from(self.precision));
        w.u64(self.seed);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let registers = r.bytes()?;
        let precision = u8::try_from(r.u64()?)
            .ok()
            .filter(|p| (MIN_PRECISION..=MAX_PRECISION).contains(p))
            .ok_or(CodecError::Invalid(
                "HyperLogLog precision must be in 4..=18",
            ))?;
        if registers.len() != 1 << precision {
            return Err(CodecError::Invalid(
                "a HyperLogLog holds 2^precision registers",
            ));
        }
        if registers.iter().any(|&r| r > max_rank(precision)) {
            return Err(CodecError::Invalid(
                "a HyperLogLog register is above the largest rank",
            ));
        }
        Ok(Self {
            registers: Arc::new(registers.to_vec()),
            precision,
            seed: r.u64()?,
        })
    }
}

/// The rank `insert` gives a hash whose `64 − precision` tail bits are all
/// zero: the largest value a register can hold.
fn max_rank(precision: u8) -> u8 {
    64 - precision + 1
}

impl HyperLogLog {
    /// An empty summary with `2^precision` registers and a hash seed drawn
    /// from `seed_rng`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDimensions`] unless
    /// `precision ∈ [`[`MIN_PRECISION`]`, `[`MAX_PRECISION`]`]`.
    pub fn new<R: rand::Rng>(precision: u8, seed_rng: &mut R) -> Result<Self> {
        Self::with_seed(precision, seed_rng.random())
    }

    /// An empty summary with an explicit hash seed — two summaries are
    /// mergeable iff they share `precision` and `seed`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDimensions`] unless
    /// `precision ∈ [`[`MIN_PRECISION`]`, `[`MAX_PRECISION`]`]`.
    pub fn with_seed(precision: u8, seed: u64) -> Result<Self> {
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(Error::InvalidDimensions);
        }
        Ok(Self {
            registers: Arc::new(vec![0u8; 1 << precision]),
            precision,
            seed,
        })
    }

    /// The number of registers `m = 2^precision`.
    pub fn registers(&self) -> usize {
        self.registers.len()
    }

    /// The configured precision.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// The hash seed (schema identity together with the precision).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Observe one key occurrence. Duplicates are free: the estimate
    /// depends only on the *set* of keys inserted.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        self.insert_all([key]);
    }

    /// Observe every key in the batch (order-insensitive: registers only
    /// ever grow, so any interleaving gives bit-identical state).
    pub fn insert_batch(&mut self, keys: &[u64]) {
        self.insert_all(keys.iter().copied());
    }

    /// [`insert`](Self::insert) every key `keys` yields, with one
    /// [`Arc::make_mut`] for all of them.
    pub fn insert_all(&mut self, keys: impl IntoIterator<Item = u64>) {
        let (precision, seed) = (self.precision, self.seed);
        let registers = Arc::make_mut(&mut self.registers).as_mut_slice();
        for key in keys {
            let h = splitmix64(key ^ seed);
            let idx = (h >> (64 - precision)) as usize;
            // Rank of the remaining 64 − precision bits: position of the
            // leftmost 1-bit, counting from 1; all-zero tail gets the
            // maximum.
            let tail = h << precision;
            let rank = if tail == 0 {
                max_rank(precision)
            } else {
                tail.leading_zeros() as u8 + 1
            };
            if registers[idx] < rank {
                registers[idx] = rank;
            }
        }
    }

    /// Register-wise max merge: afterwards `self` summarizes the union of
    /// both key sets, bit-identically to having inserted both streams into
    /// one summary in any order.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] unless precision and seed agree.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.precision != other.precision || self.seed != other.seed {
            return Err(Error::SchemaMismatch);
        }
        // A branch-free max, which the compiler turns into vector maxima.
        let registers = Arc::make_mut(&mut self.registers);
        for (r, &o) in registers.iter_mut().zip(other.registers.iter()) {
            *r = (*r).max(o);
        }
        Ok(())
    }

    /// The raw cardinality estimate of the inserted key set, with the
    /// standard small-range (linear counting) correction.
    ///
    /// Bias-corrected harmonic mean `α_m · m² / Σⱼ 2^(−M[j])`; when the
    /// estimate is small (≤ 2.5·m) and empty registers remain, the linear
    /// counting estimate `m · ln(m/V)` (V = empty registers) is more
    /// accurate and is used instead. No large-range correction is needed
    /// with a 64-bit hash.
    pub fn raw_distinct(&self) -> f64 {
        let m = self.registers.len() as f64;
        // `2^-r` for every rank a register can hold (at most 61): one
        // division per rank rather than per register, summed in register
        // order, so the sum is the same bits.
        let inverse: [f64; 64] = std::array::from_fn(|r| 1.0 / (1u64 << r) as f64);
        let mut inverse_sum = 0.0f64;
        let mut zeros = 0u64;
        for &r in self.registers.iter() {
            inverse_sum += inverse[usize::from(r)];
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            len => 0.7213 / (1.0 + 1.079 / len as f64),
        };
        let raw = alpha * m * m / inverse_sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// The analytic relative standard error `≈ 1.04/√m` of
    /// [`raw_distinct`](HyperLogLog::raw_distinct).
    pub fn relative_std_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// Whether no key has ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hll(precision: u8, seed: u64) -> HyperLogLog {
        HyperLogLog::with_seed(precision, seed).unwrap()
    }

    #[test]
    fn rejects_out_of_range_precision() {
        assert!(HyperLogLog::with_seed(3, 1).is_err());
        assert!(HyperLogLog::with_seed(19, 1).is_err());
        assert!(HyperLogLog::with_seed(4, 1).is_ok());
        assert!(HyperLogLog::with_seed(18, 1).is_ok());
    }

    #[test]
    fn duplicates_do_not_move_the_estimate() {
        let mut h = hll(10, 7);
        for _ in 0..5 {
            for k in 0..100u64 {
                h.insert(k);
            }
        }
        let once = {
            let mut h2 = hll(10, 7);
            h2.insert_batch(&(0..100u64).collect::<Vec<_>>());
            h2.raw_distinct()
        };
        assert_eq!(h.raw_distinct().to_bits(), once.to_bits());
    }

    #[test]
    fn estimates_within_analytic_error() {
        let mut rng = StdRng::seed_from_u64(11);
        for &truth in &[100u64, 10_000, 1_000_000] {
            let mut h = HyperLogLog::new(12, &mut rng).unwrap();
            for k in 0..truth {
                // Spread keys over the full 64-bit space.
                h.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            }
            let est = h.raw_distinct();
            let rel = (est - truth as f64).abs() / truth as f64;
            // 5σ of the analytic 1.04/√m ≈ 1.6% at m = 4096.
            assert!(
                rel < 5.0 * h.relative_std_error(),
                "truth {truth}: est {est}, rel {rel}"
            );
        }
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut h = hll(12, 3);
        for k in 0..50u64 {
            h.insert(k);
        }
        let est = h.raw_distinct();
        assert!((est - 50.0).abs() < 5.0, "est {est}");
    }

    #[test]
    fn merge_is_union_and_commutative() {
        let mut a = hll(10, 42);
        let mut b = hll(10, 42);
        a.insert_batch(&(0..500u64).collect::<Vec<_>>());
        b.insert_batch(&(250..750u64).collect::<Vec<_>>());
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab.raw_distinct().to_bits(), ba.raw_distinct().to_bits());
        let mut union = hll(10, 42);
        union.insert_batch(&(0..750u64).collect::<Vec<_>>());
        assert_eq!(ab.raw_distinct().to_bits(), union.raw_distinct().to_bits());
    }

    #[test]
    fn mismatched_schemas_refuse_to_merge() {
        let mut a = hll(10, 1);
        let b = hll(10, 2);
        let c = hll(11, 1);
        assert_eq!(a.merge(&b), Err(Error::SchemaMismatch));
        assert_eq!(a.merge(&c), Err(Error::SchemaMismatch));
    }
}
