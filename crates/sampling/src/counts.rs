//! Frequency counts of a sampled key multiset.
//!
//! Every sampling-only estimator in this crate consumes the sample through
//! its frequency vector `f′` — the number of times each key appears in the
//! sample — which is exactly how the paper's frequency-domain analysis
//! models the sampling process.

use std::collections::HashMap;

/// The frequency vector `f′` of a sample, stored sparsely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleCounts {
    counts: HashMap<u64, u64>,
    total: u64,
}

impl SampleCounts {
    /// An empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of sampled keys (with multiplicity).
    pub fn from_keys<I: IntoIterator<Item = u64>>(keys: I) -> Self {
        let mut s = Self::new();
        for k in keys {
            s.insert(k);
        }
        s
    }

    /// Record one occurrence of `key`.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// The sample size `|F′| = Σᵢ f′ᵢ`.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The number of distinct keys in the sample.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The sampled frequency `f′ᵢ` of `key` (0 if absent).
    #[inline]
    pub fn get(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Iterate over `(key, f′ᵢ)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// `Σᵢ f′ᵢ²` — the raw self-join size of the sample.
    pub fn sum_squares(&self) -> f64 {
        self.counts.values().map(|&c| (c as f64) * (c as f64)).sum()
    }

    /// `Σᵢ f′ᵢ g′ᵢ` — the raw size of join between two samples.
    pub fn dot(&self, other: &SampleCounts) -> f64 {
        // Iterate over the smaller map for speed.
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .counts
            .iter()
            .map(|(&k, &c)| c as f64 * large.get(k) as f64)
            .sum()
    }
}

impl FromIterator<u64> for SampleCounts {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_keys(iter)
    }
}

impl Extend<u64> for SampleCounts {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let s = SampleCounts::from_keys([1u64, 2, 2, 3, 3, 3]);
        assert_eq!(s.total(), 6);
        assert_eq!(s.distinct(), 3);
        assert_eq!(s.get(1), 1);
        assert_eq!(s.get(2), 2);
        assert_eq!(s.get(3), 3);
        assert_eq!(s.get(99), 0);
    }

    #[test]
    fn sum_squares_matches_definition() {
        let s = SampleCounts::from_keys([1u64, 2, 2, 3, 3, 3]);
        assert_eq!(s.sum_squares(), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn dot_product_is_symmetric_and_sparse() {
        let a = SampleCounts::from_keys([1u64, 1, 2, 5]);
        let b = SampleCounts::from_keys([1u64, 2, 2, 2, 7]);
        // Σ f'g' = f'(1)g'(1) + f'(2)g'(2) = 2·1 + 1·3 = 5
        assert_eq!(a.dot(&b), 5.0);
        assert_eq!(b.dot(&a), 5.0);
        assert_eq!(a.dot(&SampleCounts::new()), 0.0);
    }

    #[test]
    fn insert_aggregates() {
        let mut s = SampleCounts::new();
        s.insert(9);
        s.insert(9);
        assert_eq!(s.get(9), 2);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn extend_and_collect() {
        let mut s: SampleCounts = [1u64, 2].into_iter().collect();
        s.extend([2u64, 3]);
        assert_eq!(s.total(), 4);
        assert_eq!(s.get(2), 2);
    }
}
