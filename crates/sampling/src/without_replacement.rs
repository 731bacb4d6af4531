//! Sampling without replacement: a uniform random subset of fixed size.
//!
//! The sampled frequency vector `f′` follows the multivariate hypergeometric
//! law. Two entry points match the two ways WOR samples arise here:
//!
//! * [`sample_without_replacement`] — partial Fisher–Yates over a
//!   materialized relation.
//! * [`PrefixScan`] — shuffle once, then expose every prefix of the scan as
//!   a growing WOR sample. This models the online-aggregation scenario of
//!   the paper's Section VI-C, where "the fraction of the relation seen at
//!   each point during the scan represents a sample without replacement of
//!   the entire relation as long as the order of the tuples is random".

use crate::error::{Error, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// Draw a uniform subset of `m` tuples from `population` (order random).
///
/// Runs a partial Fisher–Yates shuffle: O(m) swaps over one O(|population|)
/// copy.
///
/// # Errors
///
/// [`Error::SampleExceedsPopulation`] if `m > |population|`.
pub fn sample_without_replacement<R: Rng + ?Sized>(
    population: &[u64],
    m: u64,
    rng: &mut R,
) -> Result<Vec<u64>> {
    let n = population.len() as u64;
    if m > n {
        return Err(Error::SampleExceedsPopulation {
            sample: m,
            population: n,
        });
    }
    let mut pool: Vec<u64> = population.to_vec();
    let m = m as usize;
    for i in 0..m {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(m);
    Ok(pool)
}

/// A randomly-ordered scan whose prefixes are without-replacement samples.
///
/// Construct once (shuffles the relation), then either iterate tuple by
/// tuple or take prefixes of chosen lengths. This is the substrate for
/// the online-aggregation experiments (Figures 7–8 of the paper).
#[derive(Debug, Clone)]
pub struct PrefixScan {
    tuples: Vec<u64>,
}

impl PrefixScan {
    /// Shuffle `relation` into a random scan order.
    pub fn new<R: Rng + ?Sized>(mut relation: Vec<u64>, rng: &mut R) -> Self {
        relation.shuffle(rng);
        Self { tuples: relation }
    }

    /// Total relation size `|F|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The scan order (full relation).
    pub fn tuples(&self) -> &[u64] {
        &self.tuples
    }

    /// The WOR sample consisting of the first `m` scanned tuples.
    ///
    /// # Errors
    ///
    /// [`Error::SampleExceedsPopulation`] if `m > |F|`.
    pub fn prefix(&self, m: usize) -> Result<&[u64]> {
        if m > self.tuples.len() {
            return Err(Error::SampleExceedsPopulation {
                sample: m as u64,
                population: self.tuples.len() as u64,
            });
        }
        Ok(&self.tuples[..m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn wor_sample_has_exact_size_and_no_duplicates() {
        let pop: Vec<u64> = (0..1000).collect();
        let s = sample_without_replacement(&pop, 300, &mut rng(1)).unwrap();
        assert_eq!(s.len(), 300);
        let distinct: HashSet<u64> = s.iter().copied().collect();
        assert_eq!(distinct.len(), 300, "WOR sample must not repeat tuples");
    }

    #[test]
    fn wor_full_sample_is_a_permutation() {
        let pop: Vec<u64> = (0..64).collect();
        let mut s = sample_without_replacement(&pop, 64, &mut rng(2)).unwrap();
        s.sort_unstable();
        assert_eq!(s, pop);
    }

    #[test]
    fn wor_rejects_oversized_samples() {
        let pop: Vec<u64> = (0..10).collect();
        assert_eq!(
            sample_without_replacement(&pop, 11, &mut rng(3)),
            Err(Error::SampleExceedsPopulation {
                sample: 11,
                population: 10
            })
        );
    }

    /// Each element must be included with probability m/n.
    #[test]
    fn wor_inclusion_probability_is_uniform() {
        let pop: Vec<u64> = (0..20).collect();
        let reps = 40_000;
        let mut incl = [0u32; 20];
        let mut r = rng(4);
        for _ in 0..reps {
            for k in sample_without_replacement(&pop, 5, &mut r).unwrap() {
                incl[k as usize] += 1;
            }
        }
        for (k, &c) in incl.iter().enumerate() {
            let freq = c as f64 / reps as f64;
            assert!((freq - 0.25).abs() < 0.015, "element {k}: inclusion {freq}");
        }
    }

    #[test]
    fn prefix_scan_prefixes_nest_and_bound() {
        let scan = PrefixScan::new((0..100u64).collect(), &mut rng(7));
        let p10 = scan.prefix(10).unwrap().to_vec();
        let p50 = scan.prefix(50).unwrap().to_vec();
        assert_eq!(&p50[..10], &p10[..], "prefixes must nest");
        assert!(scan.prefix(101).is_err());
    }

    #[test]
    fn prefix_scan_shuffles() {
        let scan = PrefixScan::new((0..1000u64).collect(), &mut rng(8));
        // A shuffled scan should not be sorted.
        assert!(scan.tuples().windows(2).any(|w| w[0] > w[1]));
        let mut sorted = scan.tuples().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000u64).collect::<Vec<_>>());
    }
}
