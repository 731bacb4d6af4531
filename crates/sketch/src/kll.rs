//! KLL streaming quantile summary, with a sampler for a bottom.
//!
//! Implemented from first principles after Karnin, Lang & Liberty,
//! *"Optimal quantile approximation in streams"* (FOCS 2016): a stack of
//! *compactors*, where level `h` holds items of weight `2^h`. When the
//! structure exceeds its capacity the lowest overfull level is sorted and
//! every second item (random even/odd offset) is promoted one level up at
//! double weight, which preserves total weight exactly and perturbs any
//! fixed rank by at most half the compacted level's weight. Capacities
//! decay geometrically (ratio 2/3) from `k` at the top level, giving the
//! paper's `O(k)` space and a normalized rank error that shrinks as
//! `~1/k`.
//!
//! # Sample, then sketch
//!
//! Far enough below the top the capacity formula reaches its floor of 2,
//! and a compactor of capacity 2 is a fair coin between two items: a stack
//! of `b` of them is "keep one of `2^b` tuples, at weight `2^b`" — KLL's
//! own §sampler (and Ivkin et al., arXiv 1907.00236), and this
//! repository's thesis one level down: a uniform sample in front of a
//! sketch, rescaled on the way out. Those `base` levels are kept as a
//! sampler rather than as compactors:
//!
//! * **One item each.** Sampling level `h` holds an item exactly when bit
//!   `h` of `n` is set — the levels are the binary expansion of
//!   `n mod 2^base`, and an insert is the increment: a tuple enters at
//!   level 0, and while its level already holds an item a coin keeps one
//!   of the two and carries it one level up, until it finds an empty level
//!   or reaches level `base`, the first real compactor.
//! * **The coin is positional.** An item at level `h` stands for the
//!   aligned window of `2^h` tuples numbered `n >> h`, and which of two
//!   sibling windows survives is a pure function of (the summary's `seed`,
//!   the level, the parent's window number). So the survivor of a whole
//!   aligned run of `2^j` tuples is found without touching the others:
//!   descend `j` coins from the run's window to one array index.
//!   [`insert_batch`](KllSketch::insert_batch) takes a slice as a handful
//!   of aligned windows — one pick and one push into level `base` per
//!   `2^base` tuples — and [`insert`](KllSketch::insert) is the same loop
//!   on a slice of one. State is a function of the value sequence, never
//!   of how calls cut it.
//! * **Position-only choices are oblivious.** No coin ever looks at a
//!   value, so which tuple of a window survives is independent of the
//!   data: each of the `2^h` is kept with probability `2^-h` at weight
//!   `2^h`, the same unbiased ±`2^h`-per-pair rank perturbation the
//!   capacity-2 compactors made, without their per-tuple sort and scan.
//!
//! Levels from `base` up are lazy sort-and-halve compactors as before.
//! `base` follows the level count (for `k = 200`, every level 12 or more
//! below the top: none before ≈ 1 M values), and whenever the level
//! structure changes — a level is added, a merge concatenates, a snapshot
//! is decoded — any sampling level holding two or more items is halved,
//! bottom up, which restores "one item each" because total weight is
//! exactly `n` throughout.
//!
//! Design choices made for this codebase:
//!
//! * **Deterministic coins.** The compactors' even/odd offsets come from a
//!   seeded SplitMix64 state carried by the summary, the sampler's from
//!   its persisted seed, so runs are exactly reproducible — the
//!   property-test pinning used everywhere else in the repo applies to
//!   quantile queries too.
//! * **Commutative merge.** [`merge`](KllSketch::merge) concatenates
//!   levels, XOR-combines the two coin states, and re-compacts with
//!   levels *sorted before every compaction* — so `a.merge(b)` and
//!   `b.merge(a)` answer every quantile query bit-identically. (The
//!   receiver keeps its own sampler seed: it is private randomness for the
//!   values still to come.)
//! * **No inverse of merge.** Compaction discards items irreversibly, so
//!   like HyperLogLog a merged view is rebuilt from its current parts,
//!   never patched.
//!
//! Total stored weight is conserved exactly (each pair of weight-`w` items
//! becomes one weight-`2w` survivor; odd leftovers stay put), so rank
//! arithmetic never drifts from the true count `n`.

use crate::error::{Error, Result};
use sss_xi::{splitmix64, Codec, CodecError, Reader, Writer};
use std::sync::Arc;

/// Smallest accepted `k` — below this the rank guarantee is vacuous.
pub const MIN_K: usize = 8;

/// Capacity decay ratio between adjacent compactor levels.
const DECAY: f64 = 2.0 / 3.0;

/// Most levels a summary can hold: level `h` carries weight `2^h` and the
/// total weight is a `u64`.
const MAX_LEVELS: usize = 64;

/// A KLL quantile summary over `u64` values with seeded, reproducible
/// randomness.
///
/// The levels sit behind an [`Arc`], written through [`Arc::make_mut`]: a
/// clone shares them, allocating nothing, and copies them only when it
/// writes while another still holds them. A merge into an empty summary
/// takes the other's levels the same way, so a one-shard fold copies none.
#[derive(Debug, Clone)]
pub struct KllSketch {
    levels: Arc<Levels>,
    k: usize,
    /// Total weight inserted (= total stored weight, conserved exactly).
    n: u64,
    /// SplitMix64 state driving the even/odd compaction offsets.
    coin: u64,
    /// Seed of the sampling levels' positional coins; never advances.
    seed: u64,
    /// How many levels, from the bottom, sample: those whose capacity
    /// formula has reached the floor.
    base: usize,
    /// Cached item count of the compacting levels (`base` and up),
    /// maintained incrementally so the overflow check is O(1) instead of
    /// an O(levels) walk.
    stored: usize,
    /// Cached `Σ capacities` over the compacting levels.
    cap_total: usize,
}

/// The items of a [`KllSketch`] and what each level may hold.
#[derive(Debug, Clone)]
struct Levels {
    /// `compactors[h]` holds items of weight `2^h`: below `base` at most
    /// one (the sampler), from `base` up unsorted between compactions.
    compactors: Vec<Vec<u64>>,
    /// `capacities[h]`: how many items level `h` may hold before it is
    /// compacted. Keyed off the distance from the *top* level, so the
    /// table is rebuilt when (and only when) the level count changes.
    capacities: Vec<usize>,
}

// Persistence: the levels, `k`, the weight, the coin and the sampler seed.
// Everything else is derived: decoding rebuilds the capacity table and the
// counts from the levels, refuses levels that could not have come from a
// summary, and halves any sampling level a forger crowded. The level count
// is checked before any level is read.
impl Codec for KllSketch {
    fn put(&self, w: &mut Writer) {
        let compactors = &self.levels.compactors;
        w.usize(compactors.len());
        compactors.iter().for_each(|level| w.u64s(level));
        w.usize(self.k);
        w.u64(self.n);
        w.u64(self.coin);
        w.u64(self.seed);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let levels = r.count(1)?;
        if levels == 0 || levels > MAX_LEVELS {
            return Err(CodecError::Invalid(
                "a KLL summary has between 1 and 64 levels",
            ));
        }
        let compactors = (0..levels)
            .map(|_| r.u64s())
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let k = r.usize()?;
        if k < MIN_K {
            return Err(CodecError::Invalid("KLL k is below the minimum"));
        }
        let n = r.u64()?;
        let weight = compactors
            .iter()
            .enumerate()
            .try_fold(0u64, |sum, (h, level)| {
                sum.checked_add((level.len() as u64).checked_mul(1 << h)?)
            });
        if weight != Some(n) {
            return Err(CodecError::Invalid("KLL weight does not match its levels"));
        }
        let mut s = Self {
            levels: Arc::new(Levels {
                compactors,
                capacities: Vec::new(),
            }),
            k,
            n,
            coin: r.u64()?,
            seed: r.u64()?,
            base: 0,
            stored: 0,
            cap_total: 0,
        };
        s.reprice();
        Ok(s)
    }
}

/// The sampler's positional coin for window `window` of `level`: which of
/// the two windows under it, `2·window` (0) or `2·window + 1` (1) of the
/// level below, survives. One mix of the three: the level rides in the top
/// six bits, which a window number reaches only past `n = 2^58`.
#[inline]
fn coin(seed: u64, level: usize, window: u64) -> u64 {
    splitmix64(seed ^ ((level as u64) << 58) ^ window) & 1
}

/// The offset, within the aligned run of `2^level` values that is window
/// `window` of `level`, of the value that survives: one coin per level on
/// the way down.
#[inline]
fn survivor(seed: u64, level: usize, window: u64) -> usize {
    let mut at = window;
    for l in (1..=level).rev() {
        at = (at << 1) | coin(seed, l, at);
    }
    (at - (window << level)) as usize
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
    /// seeds may still merge — the coins are private randomness, not shared
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
            levels: Arc::new(Levels {
                compactors: vec![Vec::new()],
                capacities: Vec::new(),
            }),
            k,
            n: 0,
            coin: seed,
            seed,
            base: 0,
            stored: 0,
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

    /// Items currently stored across all levels (the memory footprint):
    /// the compacting levels' count plus one per set bit of
    /// `n mod 2^base`, which is what the sampling levels hold.
    pub fn stored(&self) -> usize {
        let sampled = (self.n & ((1 << self.base) - 1)).count_ones() as usize;
        debug_assert_eq!(
            self.stored + sampled,
            self.levels.compactors.iter().map(Vec::len).sum()
        );
        self.stored + sampled
    }

    /// Rebuild the capacity table for the current level count — `k` at the
    /// top, decaying by 2/3 per level downward, floored at 2 — and with it
    /// `base`, the levels at that floor; then [`normalize`](Self::normalize),
    /// because a level that has just become a sampling level (or arrived
    /// by merge or decode) may hold more than its one item.
    fn reprice(&mut self) {
        let Levels {
            compactors,
            capacities,
        } = Arc::make_mut(&mut self.levels);
        let levels = compactors.len();
        let k = self.k as f64;
        capacities.clear();
        capacities.extend((0..levels).map(|h| {
            let depth = (levels - 1 - h) as i32;
            ((k * DECAY.powi(depth)).ceil() as usize).max(2)
        }));
        // Capacities grow with `h` and the top one is `k >= MIN_K`.
        self.base = capacities.iter().take_while(|&&c| c == 2).count();
        // Saturating: a decoded `k` may be anything from `MIN_K` up.
        self.cap_total = capacities[self.base..]
            .iter()
            .fold(0, |sum, &c| sum.saturating_add(c));
        self.normalize();
    }

    /// Halve, bottom up, every sampling level holding two or more items,
    /// and recount the compacting levels. Afterwards sampling level `h`
    /// holds bit `h` of `n` items: each holds at most one, and everything
    /// above weighs a multiple of `2^base`.
    fn normalize(&mut self) {
        for h in 0..self.base {
            if self.levels.compactors[h].len() > 1 {
                self.halve(h);
            }
        }
        let compacting = &self.levels.compactors[self.base..];
        self.stored = compacting.iter().map(Vec::len).sum();
    }

    /// Observe one value.
    #[inline]
    pub fn insert(&mut self, value: u64) {
        self.insert_batch(std::slice::from_ref(&value));
    }

    /// Observe every value in the batch, as aligned windows: the largest
    /// run of `2^level <= 2^base` values that starts at position `n` on a
    /// multiple of its own length is reduced to its one survivor, which
    /// enters at `level`. Full `2^base` windows go straight into level
    /// `base`, as many at once as fit before its next compaction; a
    /// shorter one carries through the sampling levels. Where the windows
    /// fall, which value each keeps and when a level compacts depend on
    /// `n` and the values alone, so every way of cutting a stream into
    /// calls — the per-value [`insert`](Self::insert) loop included —
    /// stores the same items and flips the same coins.
    pub fn insert_batch(&mut self, mut values: &[u64]) {
        while !values.is_empty() {
            values = self.insert_windows(values);
            if self.stored > self.cap_total {
                self.compress();
            }
        }
    }

    /// [`insert_batch`](Self::insert_batch)'s windows, from the first of
    /// `values` (at least one) until they run out or one leaves the
    /// compacting levels overfull; returns the values left. The levels
    /// are made writable once for all of them.
    fn insert_windows<'v>(&mut self, mut values: &'v [u64]) -> &'v [u64] {
        let (base, seed) = (self.base, self.seed);
        let compactors = &mut Arc::make_mut(&mut self.levels).compactors;
        loop {
            let aligned = self.n.trailing_zeros() as usize;
            let mut level = aligned.min(values.len().ilog2() as usize).min(base);
            let mut window = self.n >> level;
            if level == base {
                // The window that makes `stored` exceed `cap_total` is the
                // one the per-value loop compacts after. (Saturating twice:
                // a decoded summary may be overfull, and a decoded `k` may
                // saturate `cap_total`.)
                let room = self.cap_total.saturating_sub(self.stored).saturating_add(1);
                let (now, later) = values.split_at((values.len() >> base).min(room) << base);
                let survivors = now
                    .chunks_exact(1 << base)
                    .zip(window..)
                    .map(|(run, window)| run[survivor(seed, base, window)]);
                compactors[base].extend(survivors);
                self.n += now.len() as u64;
                self.stored += now.len() >> base;
                values = later;
            } else {
                let (now, later) = values.split_at(1 << level);
                let mut item = now[survivor(seed, level, window)];
                // Carry: the sampling levels from `level` up that hold an
                // item are the set bits of the window count from there
                // (each holds the window just before this one's ancestor),
                // and a coin sends one of each two up.
                let carries = ((self.n >> level).trailing_ones() as usize).min(base - level);
                for earlier in &mut compactors[level..level + carries] {
                    window >>= 1;
                    if coin(seed, level + 1, window) == 0 {
                        item = earlier[0];
                    }
                    earlier.clear();
                    level += 1;
                }
                compactors[level].push(item);
                self.n += now.len() as u64;
                self.stored += usize::from(level == base);
                values = later;
            }
            if values.is_empty() || self.stored > self.cap_total {
                return values;
            }
        }
    }

    /// Advance the coin state and return the next even/odd offset.
    fn next_offset(&mut self) -> usize {
        self.coin = splitmix64(self.coin);
        (self.coin & 1) as usize
    }

    /// Sort level `h` and promote every second item (random even/odd
    /// offset) to the level above, in place: the level keeps its buffer,
    /// and its odd leftover if it has one. The surviving *set* depends
    /// only on the level's multiset content and the coin state — the
    /// property that makes [`merge`](KllSketch::merge) commutative.
    fn halve(&mut self, h: usize) {
        let offset = self.next_offset();
        let compactors = &mut Arc::make_mut(&mut self.levels).compactors;
        let (lower, upper) = compactors.split_at_mut(h + 1);
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
    }

    /// Compact the lowest overfull compacting level until the structure
    /// fits. A compaction out of the top level first adds a level, which
    /// reprices every level (and may turn the lowest compactor into a
    /// sampling level), so the search starts over.
    fn compress(&mut self) {
        while self.stored > self.cap_total {
            let Levels {
                compactors,
                capacities,
            } = &*self.levels;
            let Some(h) =
                (self.base..compactors.len()).find(|&h| compactors[h].len() > capacities[h])
            else {
                break;
            };
            if h + 1 == compactors.len() {
                Arc::make_mut(&mut self.levels).compactors.push(Vec::new());
                self.reprice();
                continue;
            }
            // An even prefix compacts into half as many survivors.
            self.stored -= compactors[h].len() / 2;
            self.halve(h);
        }
    }

    /// Merge another summary built with the same `k`: afterwards `self`
    /// summarizes the concatenation of both streams. Commutative: the two
    /// merge orders answer every quantile query bit-identically.
    ///
    /// An empty summary of one level (a runtime's empty prototype) takes
    /// the other's levels, shared, with the XORed coin and its own seed,
    /// and compresses them: what concatenating them onto its empty level
    /// leaves, since the other's sampling levels already hold one item
    /// each.
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
        // at level 63 is 2⁶³): check the sum before touching `self`.
        let Some(n) = self.n.checked_add(other.n) else {
            return Err(Error::WeightOverflow);
        };
        self.coin ^= other.coin;
        if self.n == 0 && self.levels.compactors.len() == 1 {
            self.levels = Arc::clone(&other.levels);
            (self.base, self.stored, self.cap_total) = (other.base, other.stored, other.cap_total);
        } else {
            let compactors = &mut Arc::make_mut(&mut self.levels).compactors;
            if compactors.len() < other.levels.compactors.len() {
                compactors.resize(other.levels.compactors.len(), Vec::new());
            }
            for (h, level) in other.levels.compactors.iter().enumerate() {
                compactors[h].extend_from_slice(level);
            }
            self.reprice();
        }
        self.n = n;
        self.compress();
        Ok(())
    }

    /// All stored (value, weight) pairs, sorted by value.
    fn weighted(&self) -> Vec<(u64, u64)> {
        let mut items: Vec<(u64, u64)> = Vec::with_capacity(self.stored());
        for (h, level) in self.levels.compactors.iter().enumerate() {
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
        Ok(self.raw_quantiles(&[q])?[0])
    }

    /// [`raw_quantile`](Self::raw_quantile) at every rank of `ranks`, in
    /// that order, from one sorted view of the stored items — a value and
    /// its rank envelope cost one sort, not three.
    ///
    /// # Errors
    ///
    /// As for [`raw_quantile`](Self::raw_quantile), for the first rank out
    /// of range.
    pub fn raw_quantiles(&self, ranks: &[f64]) -> Result<Vec<u64>> {
        if let Some(&q) = ranks.iter().find(|q| !(0.0..=1.0).contains(*q)) {
            return Err(Error::InvalidQuantile(q));
        }
        if self.n == 0 {
            return Err(Error::EmptySummary);
        }
        let items = self.weighted();
        let at = |q: f64| {
            let target = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
            let mut cumulative = 0u64;
            let reached = items.iter().find(|&&(_, w)| {
                cumulative += w;
                cumulative >= target
            });
            // Stored weight is conserved, so the scan always reaches
            // `target`; the fallback is unreachable but cheap to keep
            // honest.
            reached.or(items.last()).map_or(0, |&(v, _)| v)
        };
        Ok(ranks.iter().map(|&q| at(q)).collect())
    }

    /// The normalized rank of `value`: the fraction of summarized weight
    /// strictly below it, in `[0, 1]`. Returns 0 on an empty summary.
    pub fn raw_rank(&self, value: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let below: u64 = self
            .levels
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
            .levels
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

    /// The sampler: once levels sit at the capacity floor they hold the
    /// binary expansion of `n`, whole windows and the per-value carry pick
    /// the same survivors, and `stored()` counts both kinds of level.
    #[test]
    fn sampling_levels_count_in_binary_and_ignore_call_boundaries() {
        let values: Vec<u64> = (0..3001u64).map(|v| v.wrapping_mul(7919) % 4096).collect();
        let mut batched = kll(8, 5);
        batched.insert_batch(&values);
        let mut scalar = kll(8, 5);
        for &v in &values {
            scalar.insert(v);
        }
        assert!(
            batched.base >= 4,
            "k = 8 samples early: base {}",
            batched.base
        );
        assert_eq!(batched.levels.compactors, scalar.levels.compactors);
        assert_eq!(batched.coin, scalar.coin);
        for h in 0..batched.base {
            assert_eq!(batched.levels.compactors[h].len() as u64, (3001 >> h) & 1);
        }
        let held: usize = batched.levels.compactors.iter().map(Vec::len).sum();
        assert_eq!(batched.stored(), held);
        assert!(held <= batched.cap_total + batched.base);
    }

    /// One sorted view answers many ranks exactly as one view per rank does.
    #[test]
    fn raw_quantiles_match_raw_quantile() {
        let mut s = kll(16, 6);
        s.insert_batch(&(0..5000u64).rev().collect::<Vec<_>>());
        let ranks = [0.5, 0.0, 1.0, 0.484, 0.516];
        let each: Vec<u64> = ranks.iter().map(|&q| s.raw_quantile(q).unwrap()).collect();
        assert_eq!(s.raw_quantiles(&ranks).unwrap(), each);
        assert_eq!(
            s.raw_quantiles(&[0.5, 1.5]),
            Err(Error::InvalidQuantile(1.5))
        );
    }
}
