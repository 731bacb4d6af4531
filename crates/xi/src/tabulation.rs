//! Simple tabulation hashing.
//!
//! The key is split into 8 bytes; each byte indexes a table of 256 random
//! 64-bit words, and the 8 looked-up words are XORed. Simple tabulation is
//! provably 3-wise independent, and Pǎtraşcu & Thorup showed it behaves like
//! a fully random function for many algorithms (Chernoff-style concentration,
//! linear probing, Count-Sketch/F-AGMS estimation). It trades seed size
//! (16 KiB of tables) for evaluation speed: eight L1 loads and XORs, no
//! multiplications.
//!
//! The same hash value supplies both the ±1 variable (low bit) and the
//! bucket index (remaining bits), so a tabulation-based F-AGMS row needs one
//! table evaluation per update.

use crate::codec::{Codec, CodecError, Reader, Writer};
use crate::family::{BucketFamily, SignFamily};
use crate::kernels;
use rand::Rng;

/// Simple tabulation hash over 8 key bytes; see the module docs.
#[derive(Debug, Clone)]
pub struct Tabulation {
    pub(crate) tables: Box<[[u64; 256]; 8]>,
}

impl Tabulation {
    /// The eight per-byte lookup tables — exposed so benches and identity
    /// tests can drive the [`crate::kernels`] tabulation entry points
    /// directly.
    pub fn tables(&self) -> &[[u64; 256]; 8] {
        &self.tables
    }

    /// The full 64-bit hash value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        let bytes = key.to_le_bytes();
        let mut acc = 0u64;
        for (table, &byte) in self.tables.iter().zip(bytes.iter()) {
            acc ^= table[byte as usize];
        }
        acc
    }
}

impl SignFamily for Tabulation {
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        1 - 2 * ((self.hash(key) & 1) as i64)
    }

    fn sign_batch(&self, keys: &[u64], out: &mut [i64]) {
        kernels::tab_sign_batch(&self.tables, keys, out);
    }

    fn sign_sum(&self, keys: &[u64]) -> i64 {
        kernels::tab_sign_sum(&self.tables, keys)
    }

    fn sign_dot(&self, items: &[(u64, i64)]) -> i64 {
        kernels::tab_sign_dot(&self.tables, items)
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut tables = Box::new([[0u64; 256]; 8]);
        for table in tables.iter_mut() {
            for slot in table.iter_mut() {
                *slot = rng.random::<u64>();
            }
        }
        Self { tables }
    }
}

// The 2048 table words in order, fixed in number.
impl Codec for Tabulation {
    fn put(&self, w: &mut Writer) {
        self.tables.iter().flatten().for_each(|&word| w.u64(word));
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut tables = Box::new([[0u64; 256]; 8]);
        for slot in tables.iter_mut().flatten() {
            *slot = r.u64()?;
        }
        Ok(Self { tables })
    }
}

impl BucketFamily for Tabulation {
    /// Bucket index from the hash bits above the sign bit, so one evaluation
    /// can serve both roles without correlating them beyond pairwise.
    #[inline]
    fn bucket(&self, key: u64, width: usize) -> usize {
        debug_assert!(width > 0, "bucket width must be non-zero");
        ((self.hash(key) >> 1) % width as u64) as usize
    }

    fn bucket_batch(&self, keys: &[u64], width: usize, out: &mut [usize]) {
        kernels::tab_bucket_batch(&self.tables, width, keys, out);
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        <Self as SignFamily>::random(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hash_is_xor_of_byte_tables() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = <Tabulation as SignFamily>::random(&mut rng);
        let key: u64 = 0x0102_0304_0506_0708;
        let bytes = key.to_le_bytes();
        let expect = (0..8).fold(0u64, |acc, i| acc ^ t.tables[i][bytes[i] as usize]);
        assert_eq!(t.hash(key), expect);
    }

    #[test]
    fn single_byte_keys_read_single_table() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = <Tabulation as SignFamily>::random(&mut rng);
        // key = 0xAB uses table[0][0xAB] ^ table[1..8][0]
        let base: u64 = (1..8).fold(t.tables[0][0xAB], |acc, i| acc ^ t.tables[i][0]);
        assert_eq!(t.hash(0xAB), base);
    }

    #[test]
    fn signs_are_balanced_over_a_window() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = <Tabulation as SignFamily>::random(&mut rng);
        let sum: i64 = (0..100_000u64).map(|k| t.sign(k)).sum();
        // std ≈ sqrt(n) ≈ 316; allow 5 sigma.
        assert!(sum.abs() < 1600, "sum = {sum}");
    }

    #[test]
    fn buckets_cover_the_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = <Tabulation as SignFamily>::random(&mut rng);
        let width = 64;
        let mut seen = vec![false; width];
        for key in 0..10_000u64 {
            seen[t.bucket(key, width)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some buckets never hit");
    }
}
