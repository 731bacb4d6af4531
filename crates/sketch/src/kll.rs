//! KLL streaming quantile summary.
//!
//! Implemented from first principles after Karnin, Lang & Liberty,
//! *"Optimal quantile approximation in streams"* (FOCS 2016): a stack of
//! *compactors*, where level `h` holds items of weight `2^h`. New items
//! enter level 0; when the structure exceeds its capacity the lowest
//! overfull level is sorted and every second item (random even/odd offset)
//! is promoted one level up at double weight, which preserves total weight
//! exactly and perturbs any fixed rank by at most half the compacted
//! level's weight. Capacities decay geometrically (ratio 2/3) from `k` at
//! the top level, giving the paper's `O(k)` space and a normalized rank
//! error that shrinks as `~1/k`.
//!
//! Design choices made for this codebase:
//!
//! * **Deterministic coin.** The even/odd compaction offsets come from a
//!   seeded SplitMix64 state carried by the summary, so runs are exactly
//!   reproducible — the property-test pinning used everywhere else in the
//!   repo applies to quantile queries too.
//! * **Commutative merge.** [`merge`](KllSketch::merge) concatenates
//!   levels, XOR-combines the two coin states, and re-compacts with
//!   levels *sorted before every compaction* — so `a.merge(b)` and
//!   `b.merge(a)` answer every quantile query bit-identically.
//! * **No inverse of merge.** Compaction discards items irreversibly, so
//!   like HyperLogLog a merged view is rebuilt from its current parts,
//!   never patched.
//!
//! Total stored weight is conserved exactly (each compacted pair of
//! weight-`w` items becomes one weight-`2w` survivor; odd leftovers stay
//! put), so rank arithmetic never drifts from the true count `n`.

use crate::error::{Error, Result};

/// Smallest accepted `k` — below this the rank guarantee is vacuous.
pub const MIN_K: usize = 8;

/// Capacity decay ratio between adjacent compactor levels.
const DECAY: f64 = 2.0 / 3.0;

/// Most levels a summary can hold: level `h` carries weight `2^h` and the
/// total weight is a `u64`.
const MAX_LEVELS: usize = 64;

/// A KLL quantile summary over `u64` values with seeded, reproducible
/// compaction randomness.
#[derive(Debug, Clone)]
pub struct KllSketch {
    /// `compactors[h]` holds items of weight `2^h`, unsorted between
    /// compactions.
    compactors: Vec<Vec<u64>>,
    k: usize,
    /// Total weight inserted (= total stored weight, conserved exactly).
    n: u64,
    /// SplitMix64 state driving the even/odd compaction offsets.
    coin: u64,
    /// Cached item count across all levels (= `Σ compactors[h].len()`),
    /// maintained incrementally so the per-insert overflow check is O(1)
    /// instead of an O(levels) walk.
    stored: usize,
    /// `capacities[h]`: how many items level `h` may hold before it is
    /// compacted. Keyed off the distance from the *top* level, so the
    /// table is rebuilt when (and only when) the level count changes.
    capacities: Vec<usize>,
    /// Cached `Σ capacities`.
    cap_total: usize,
}

// Persistence: the levels, `k`, the weight and the coin. `stored` and
// `cap_total` are written because format 1 has always carried them, but
// they are caches: decoding recomputes them (and the capacity table) from
// the levels, and refuses levels that could not have come from a summary.
impl serde::Serialize for KllSketch {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("KllSketch", 6)?;
        st.serialize_field("compactors", &self.compactors)?;
        st.serialize_field("k", &self.k)?;
        st.serialize_field("n", &self.n)?;
        st.serialize_field("coin", &self.coin)?;
        st.serialize_field("stored", &self.stored)?;
        st.serialize_field("cap_total", &self.cap_total)?;
        st.end()
    }
}

impl<'de> serde::Deserialize<'de> for KllSketch {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            compactors: Vec<Vec<u64>>,
            k: usize,
            n: u64,
            coin: u64,
        }
        let repr = Repr::deserialize(deserializer)?;
        if repr.k < MIN_K {
            return Err(serde::de::Error::custom("KLL k is below the minimum"));
        }
        if repr.compactors.is_empty() || repr.compactors.len() > MAX_LEVELS {
            return Err(serde::de::Error::invalid_length(
                repr.compactors.len(),
                &"between 1 and 64 KLL levels",
            ));
        }
        let weight = repr
            .compactors
            .iter()
            .enumerate()
            .try_fold(0u64, |sum, (h, level)| {
                sum.checked_add((level.len() as u64).checked_mul(1 << h)?)
            });
        if weight != Some(repr.n) {
            return Err(serde::de::Error::custom(
                "KLL weight does not match its levels",
            ));
        }
        let mut s = Self {
            stored: repr.compactors.iter().map(Vec::len).sum(),
            compactors: repr.compactors,
            k: repr.k,
            n: repr.n,
            coin: repr.coin,
            capacities: Vec::new(),
            cap_total: 0,
        };
        s.reprice();
        Ok(s)
    }
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl KllSketch {
    /// An empty summary with accuracy parameter `k` and a coin seed drawn
    /// from `seed_rng`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDimensions`] if `k <` [`MIN_K`].
    pub fn new<R: rand::Rng>(k: usize, seed_rng: &mut R) -> Result<Self> {
        Self::with_seed(k, seed_rng.random())
    }

    /// An empty summary with an explicit coin seed (exact reproducibility).
    /// Unlike the hashed sketches, two KLL summaries with *different*
    /// seeds may still merge — the coin is private randomness, not shared
    /// schema.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDimensions`] if `k <` [`MIN_K`].
    pub fn with_seed(k: usize, seed: u64) -> Result<Self> {
        if k < MIN_K {
            return Err(Error::InvalidDimensions);
        }
        let mut s = Self {
            compactors: vec![Vec::new()],
            k,
            n: 0,
            coin: seed,
            stored: 0,
            capacities: Vec::new(),
            cap_total: 0,
        };
        s.reprice();
        Ok(s)
    }

    /// The accuracy parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total weight (stream length) summarized so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Items currently stored across all levels (the memory footprint).
    pub fn stored(&self) -> usize {
        debug_assert_eq!(self.stored, self.compactors.iter().map(Vec::len).sum());
        self.stored
    }

    /// Rebuild the capacity table for the current level count: `k` at the
    /// top, decaying by 2/3 per level downward, floored at 2.
    fn reprice(&mut self) {
        let levels = self.compactors.len();
        let k = self.k as f64;
        self.capacities.clear();
        self.capacities.extend((0..levels).map(|h| {
            let depth = (levels - 1 - h) as i32;
            ((k * DECAY.powi(depth)).ceil() as usize).max(2)
        }));
        // Saturating: a decoded `k` may be anything from `MIN_K` up.
        self.cap_total = self
            .capacities
            .iter()
            .fold(0, |sum, &c| sum.saturating_add(c));
    }

    /// Observe one value.
    #[inline]
    pub fn insert(&mut self, value: u64) {
        self.compactors[0].push(value);
        self.n += 1;
        self.stored += 1;
        if self.stored > self.cap_total {
            self.compress();
        }
    }

    /// Observe every value in the batch: level 0 takes as many values at
    /// once as fit before the next compaction, so the compaction sequence
    /// — and with it the coin sequence and every stored item — is that of
    /// the per-value [`insert`](Self::insert) loop.
    pub fn insert_batch(&mut self, mut values: &[u64]) {
        while !values.is_empty() {
            // The value that makes `stored` exceed `cap_total` is the one
            // `insert` compacts after. (Saturating twice: a decoded summary
            // may be overfull, and a decoded `k` may saturate `cap_total`.)
            let room = self.cap_total.saturating_sub(self.stored).saturating_add(1);
            let (now, later) = values.split_at(room.min(values.len()));
            self.compactors[0].extend_from_slice(now);
            self.n += now.len() as u64;
            self.stored += now.len();
            if self.stored > self.cap_total {
                self.compress();
            }
            values = later;
        }
    }

    /// Advance the coin state and return the next even/odd offset.
    fn next_offset(&mut self) -> usize {
        self.coin = splitmix64(self.coin);
        (self.coin & 1) as usize
    }

    /// Compact the lowest overfull level until the structure fits. Levels
    /// are sorted before compaction, so the surviving *set* depends only on
    /// the level's multiset content and the coin state — the property that
    /// makes [`merge`](KllSketch::merge) commutative. Compaction is in
    /// place: the level keeps its buffer, and its odd leftover if it has
    /// one.
    fn compress(&mut self) {
        while self.stored > self.cap_total {
            let Some(h) = self
                .compactors
                .iter()
                .zip(&self.capacities)
                .position(|(level, &capacity)| level.len() > capacity)
            else {
                break;
            };
            if h + 1 == self.compactors.len() {
                self.compactors.push(Vec::new());
                self.reprice();
            }
            let offset = self.next_offset();
            let (lower, upper) = self.compactors.split_at_mut(h + 1);
            let (level, above) = (&mut lower[h], &mut upper[0]);
            level.sort_unstable();
            let even = level.len() & !1;
            above.extend(level[..even].iter().skip(offset).step_by(2));
            // Odd leftover keeps its weight by staying at this level.
            if even < level.len() {
                level[0] = level[even];
                level.truncate(1);
            } else {
                level.clear();
            }
            // `even` items compacted into `even / 2` survivors.
            self.stored -= even / 2;
        }
    }

    /// Merge another summary built with the same `k`: afterwards `self`
    /// summarizes the concatenation of both streams. Commutative: the two
    /// merge orders answer every quantile query bit-identically.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if the accuracy parameters differ;
    /// [`Error::WeightOverflow`] if the combined weight does not fit a
    /// `u64`. Either way `self` is unchanged.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.k != other.k {
            return Err(Error::SchemaMismatch);
        }
        // Decoded peers can each carry up to `u64::MAX` weight (one item
        // at level 63 is 2⁶³): check the sums before touching `self`.
        let (Some(n), Some(stored)) = (
            self.n.checked_add(other.n),
            self.stored.checked_add(other.stored),
        ) else {
            return Err(Error::WeightOverflow);
        };
        while self.compactors.len() < other.compactors.len() {
            self.compactors.push(Vec::new());
        }
        for (h, level) in other.compactors.iter().enumerate() {
            self.compactors[h].extend_from_slice(level);
        }
        self.n = n;
        self.stored = stored;
        self.coin ^= other.coin;
        self.reprice();
        self.compress();
        Ok(())
    }

    /// All stored (value, weight) pairs, sorted by value.
    fn weighted(&self) -> Vec<(u64, u64)> {
        let mut items: Vec<(u64, u64)> = Vec::with_capacity(self.stored());
        for (h, level) in self.compactors.iter().enumerate() {
            let w = 1u64 << h;
            items.extend(level.iter().map(|&v| (v, w)));
        }
        items.sort_unstable();
        items
    }

    /// The value at normalized rank `q ∈ [0, 1]`: the smallest stored
    /// value whose cumulative weight reaches `⌈q·n⌉` (clamped to at least
    /// 1), so `q = 0` is the minimum and `q = 1` the maximum.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidQuantile`] if `q ∉ [0, 1]` or NaN;
    /// [`Error::EmptySummary`] before any insert.
    pub fn raw_quantile(&self, q: f64) -> Result<u64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(Error::InvalidQuantile(q));
        }
        if self.n == 0 {
            return Err(Error::EmptySummary);
        }
        let target = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let items = self.weighted();
        let mut cumulative = 0u64;
        for &(v, w) in &items {
            cumulative += w;
            if cumulative >= target {
                return Ok(v);
            }
        }
        // Stored weight is conserved, so the loop always reaches `target`;
        // this is unreachable but cheap to keep honest.
        Ok(items.last().map(|&(v, _)| v).unwrap_or(0))
    }

    /// The normalized rank of `value`: the fraction of summarized weight
    /// strictly below it, in `[0, 1]`. Returns 0 on an empty summary.
    pub fn raw_rank(&self, value: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let below: u64 = self
            .compactors
            .iter()
            .enumerate()
            .map(|(h, level)| (1u64 << h) * level.iter().filter(|&&v| v < value).count() as u64)
            .sum();
        below as f64 / self.n as f64
    }

    /// The summary's normalized rank-error bound ε: any reported quantile's
    /// true normalized rank lies within `±ε` of the requested one with high
    /// probability. Uses the empirical fit `ε ≈ 2.296 / k^0.9433` (99%
    /// two-sided) established for KLL with geometric capacities — e.g.
    /// `k = 200` gives ε ≈ 1.6%.
    pub fn rank_error(&self) -> f64 {
        2.296 / (self.k as f64).powf(0.9433)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kll(k: usize, seed: u64) -> KllSketch {
        KllSketch::with_seed(k, seed).unwrap()
    }

    #[test]
    fn rejects_tiny_k() {
        assert!(KllSketch::with_seed(7, 1).is_err());
        assert!(KllSketch::with_seed(8, 1).is_ok());
    }

    #[test]
    fn exact_below_capacity() {
        let mut s = kll(64, 9);
        for v in (0..50u64).rev() {
            s.insert(v);
        }
        // Nothing compacted yet: every quantile is exact.
        assert_eq!(s.raw_quantile(0.0).unwrap(), 0);
        assert_eq!(s.raw_quantile(0.5).unwrap(), 24);
        assert_eq!(s.raw_quantile(1.0).unwrap(), 49);
        assert!((s.raw_rank(25) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_invalid_queries_error() {
        let s = kll(16, 1);
        assert_eq!(s.raw_quantile(0.5), Err(Error::EmptySummary));
        let mut s = s;
        s.insert(7);
        assert_eq!(s.raw_quantile(-0.1), Err(Error::InvalidQuantile(-0.1)));
        assert_eq!(s.raw_quantile(1.5), Err(Error::InvalidQuantile(1.5)));
        assert!(s.raw_quantile(f64::NAN).is_err());
    }

    #[test]
    fn rank_error_holds_on_a_large_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = KllSketch::new(200, &mut rng).unwrap();
        let n = 200_000u64;
        // Insert 0..n in a scrambled order; true rank of value v is v/n.
        let mut v = 1u64;
        for _ in 0..n {
            v = v.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
            s.insert(v % n);
        }
        assert!(s.stored() < 1200, "stored {}", s.stored());
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let est = s.raw_quantile(q).unwrap();
            let true_rank = est as f64 / n as f64;
            assert!(
                (true_rank - q).abs() <= s.rank_error(),
                "q={q}: value {est} has true rank {true_rank}, ε={}",
                s.rank_error()
            );
        }
    }

    #[test]
    fn weight_is_conserved_through_compaction() {
        let mut s = kll(8, 77);
        for v in 0..10_000u64 {
            s.insert(v);
        }
        let stored_weight: u64 = s
            .compactors
            .iter()
            .enumerate()
            .map(|(h, level)| (1u64 << h) * level.len() as u64)
            .sum();
        assert_eq!(stored_weight, s.len());
    }

    #[test]
    fn merge_is_commutative_on_queries() {
        let mut a = kll(32, 101);
        let mut b = kll(32, 202);
        for v in 0..5_000u64 {
            a.insert(v * 3 % 4096);
        }
        for v in 0..7_000u64 {
            b.insert(v * 7 % 8192);
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab.len(), ba.len());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(ab.raw_quantile(q).unwrap(), ba.raw_quantile(q).unwrap());
        }
    }

    #[test]
    fn merge_rank_error_still_holds() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 60_000u64;
        let mut parts: Vec<KllSketch> = (0..4)
            .map(|_| KllSketch::new(200, &mut rng).unwrap())
            .collect();
        let mut v = 9u64;
        for i in 0..n {
            v = v.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
            parts[(i % 4) as usize].insert(v % n);
        }
        let mut merged = parts.pop().unwrap();
        for p in &parts {
            merged.merge(p).unwrap();
        }
        assert_eq!(merged.len(), n);
        for q in [0.05, 0.5, 0.95] {
            let est = merged.raw_quantile(q).unwrap();
            let true_rank = est as f64 / n as f64;
            // Merging multiplies the constant slightly; allow 2ε.
            assert!(
                (true_rank - q).abs() <= 2.0 * merged.rank_error(),
                "q={q}: rank {true_rank}"
            );
        }
    }

    #[test]
    fn mismatched_k_refuses_to_merge() {
        let mut a = kll(16, 1);
        let b = kll(32, 1);
        assert_eq!(a.merge(&b), Err(Error::SchemaMismatch));
    }

    #[test]
    fn serde_round_trip() {
        let mut s = kll(16, 4);
        s.insert_batch(&(0..1000u64).collect::<Vec<_>>());
        let json = serde_json::to_string(&s).unwrap();
        let back: KllSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.raw_quantile(0.5).unwrap(),
            s.raw_quantile(0.5).unwrap()
        );
    }
}
