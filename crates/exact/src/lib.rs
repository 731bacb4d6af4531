//! # sss-exact — exact streaming aggregates
//!
//! The ground-truth side of every experiment: exact frequency maps over
//! streams, frequency moments `F₀ … F₄`, self-join and join sizes, with
//! merge support so partitioned streams can be aggregated exactly too.
//!
//! The estimators in this workspace exist precisely because this crate's
//! memory footprint — Θ(distinct keys) — is unaffordable on real streams;
//! keeping the exact path as a first-class, well-tested component is what
//! makes the accuracy claims of every harness checkable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// An exact, mergeable frequency map over `u64` keys.
///
/// Supports the turnstile model: negative updates delete occurrences, and
/// keys whose net count returns to zero are physically removed (so
/// [`distinct`](ExactAggregator::distinct) is the true `F₀` of the net
/// stream).
///
/// ```
/// use sss_exact::ExactAggregator;
///
/// let f = ExactAggregator::from_keys([1u64, 1, 2, 3]);
/// let g = ExactAggregator::from_keys([1u64, 3, 3]);
/// assert_eq!(f.self_join(), 6.0);       // 2² + 1² + 1²
/// assert_eq!(f.join(&g), 4.0);          // 2·1 + 1·0 + 1·2
/// assert_eq!(f.top_k(1), vec![(1, 2)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactAggregator {
    counts: HashMap<u64, i64>,
    total: i64,
}

impl ExactAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an insert-only key stream.
    pub fn from_keys<I: IntoIterator<Item = u64>>(keys: I) -> Self {
        let mut a = Self::new();
        for k in keys {
            a.update(k, 1);
        }
        a
    }

    /// Apply a (possibly negative) count to a key.
    pub fn update(&mut self, key: u64, count: i64) {
        if count == 0 {
            return;
        }
        self.total += count;
        match self.counts.entry(key) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += count;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(e) => {
                e.insert(count);
            }
        }
    }

    /// Merge another aggregator (stream union).
    pub fn merge(&mut self, other: &ExactAggregator) {
        for (&k, &c) in &other.counts {
            self.update(k, c);
        }
    }

    /// Net stream size `F₁ = Σᵢ fᵢ`.
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Number of keys with non-zero net count (`F₀` for insert-only
    /// streams).
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The net frequency of `key`.
    pub fn get(&self, key: u64) -> i64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// The k-th frequency moment `F_k = Σᵢ fᵢᵏ` (k ≥ 1).
    pub fn moment(&self, k: u32) -> f64 {
        self.counts
            .values()
            .map(|&c| (c as f64).powi(k as i32))
            .sum()
    }

    /// The self-join size `F₂`.
    pub fn self_join(&self) -> f64 {
        self.moment(2)
    }

    /// The exact size of join `Σᵢ fᵢ·gᵢ` with another relation.
    pub fn join(&self, other: &ExactAggregator) -> f64 {
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

    /// The exact cross sum `Σᵢ fᵢᵃ·gᵢᵇ` (the building block of the
    /// variance formulas).
    pub fn cross_sum(&self, other: &ExactAggregator, a: u32, b: u32) -> f64 {
        // Iterate the side whose exponent is non-zero and small; both maps
        // must be consulted when both exponents are non-zero.
        self.counts
            .iter()
            .map(|(&k, &c)| (c as f64).powi(a as i32) * (other.get(k) as f64).powi(b as i32))
            .sum()
    }

    /// Iterate over `(key, net frequency)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// The keys ranked by net frequency (descending; ties by key), capped
    /// at `k` — exact heavy hitters.
    pub fn top_k(&self, k: usize) -> Vec<(u64, i64)> {
        let mut v: Vec<(u64, i64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

impl FromIterator<u64> for ExactAggregator {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_keys(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_moments() {
        let a = ExactAggregator::from_keys([1u64, 1, 2, 3, 3, 3]);
        assert_eq!(a.total(), 6);
        assert_eq!(a.distinct(), 3);
        assert_eq!(a.get(3), 3);
        assert_eq!(a.moment(1), 6.0);
        assert_eq!(a.self_join(), 4.0 + 1.0 + 9.0);
        assert_eq!(a.moment(3), 8.0 + 1.0 + 27.0);
        assert_eq!(a.moment(4), 16.0 + 1.0 + 81.0);
    }

    #[test]
    fn deletions_remove_keys() {
        let mut a = ExactAggregator::from_keys([5u64, 5, 6]);
        a.update(5, -2);
        assert_eq!(a.get(5), 0);
        assert_eq!(a.distinct(), 1, "zeroed keys leave the map");
        a.update(6, -1);
        assert_eq!(a.distinct(), 0);
        assert_eq!(a.total(), 0);
        // Negative net counts are representable (turnstile).
        a.update(7, -3);
        assert_eq!(a.get(7), -3);
        assert_eq!(a.self_join(), 9.0);
    }

    #[test]
    fn join_and_cross_sums() {
        let f = ExactAggregator::from_keys([1u64, 1, 2]);
        let g = ExactAggregator::from_keys([1u64, 2, 2, 3]);
        assert_eq!(f.join(&g), 2.0 + 2.0);
        assert_eq!(g.join(&f), 4.0);
        assert_eq!(f.cross_sum(&g, 2, 1), 4.0 + 2.0);
        assert_eq!(f.cross_sum(&g, 1, 2), 2.0 + 4.0);
        assert_eq!(f.cross_sum(&g, 2, 2), 4.0 + 4.0);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = ExactAggregator::from_keys([1u64, 2]);
        let b = ExactAggregator::from_keys([2u64, 3]);
        a.merge(&b);
        assert_eq!(a, ExactAggregator::from_keys([1u64, 2, 2, 3]));
    }

    #[test]
    fn top_k_orders_and_breaks_ties() {
        let a = ExactAggregator::from_keys([9u64, 9, 9, 4, 4, 7, 7, 1]);
        assert_eq!(a.top_k(3), vec![(9, 3), (4, 2), (7, 2)]);
        assert_eq!(a.top_k(0), vec![]);
        assert_eq!(a.top_k(100).len(), 4);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Merging partitions equals aggregating the union, for any
            /// split of any stream.
            #[test]
            fn merge_is_union(keys in prop::collection::vec(0u64..100, 0..200), split in 0usize..200) {
                let split = split.min(keys.len());
                let whole = ExactAggregator::from_keys(keys.iter().copied());
                let mut left = ExactAggregator::from_keys(keys[..split].iter().copied());
                let right = ExactAggregator::from_keys(keys[split..].iter().copied());
                left.merge(&right);
                prop_assert_eq!(left, whole);
            }

            /// F-moment inequalities: F₁² ≥ F₂ ≥ F₁ for insert-only
            /// streams (Cauchy–Schwarz and integrality).
            #[test]
            fn moment_inequalities(keys in prop::collection::vec(0u64..50, 1..200)) {
                let a = ExactAggregator::from_keys(keys.iter().copied());
                let f1 = a.moment(1);
                let f2 = a.moment(2);
                prop_assert!(f2 <= f1 * f1 + 1e-9);
                prop_assert!(f2 >= f1 - 1e-9);
                // F₂·F₀ ≥ F₁² (Cauchy–Schwarz with the all-ones vector)
                prop_assert!(f2 * a.distinct() as f64 >= f1 * f1 - 1e-6);
            }

            /// Insert-then-delete returns to the empty state.
            #[test]
            fn perfect_cancellation(keys in prop::collection::vec(0u64..100, 0..200)) {
                let mut a = ExactAggregator::from_keys(keys.iter().copied());
                for &k in &keys {
                    a.update(k, -1);
                }
                prop_assert_eq!(a.distinct(), 0);
                prop_assert_eq!(a.total(), 0);
            }
        }
    }
}
