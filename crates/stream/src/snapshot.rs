//! Versioned incremental snapshot cache behind
//! [`QueryHandle::merged`](crate::QueryHandle::merged), whose merge every
//! [`ReadReplica`](crate::ReadReplica) holds.
//!
//! The paper's at-all-times query model (and Huang–Tai–Yi's continuous
//! tracking argument, arXiv 1412.1763) means `merged()` runs *while* the
//! stream is still being ingested, often far more frequently than shard
//! state actually changes between queries. The cache makes a query pay
//! for what changed:
//!
//! * The cache keeps the merged result with a `Stamp` per shard: the
//!   batches (and offered tuples) that shard had applied when it was
//!   merged in. A query reads each shard's accepted-batch count as its
//!   floor; a shard whose stamp is below its floor is *dirty*.
//! * **Nothing dirty:** the cached merged result is served as it is —
//!   no merge work, independent of the shard count.
//! * **Otherwise:** the runtime folds every shard's live state again
//!   ([`sss_core::fold`], `stream.merged_dirty_us`) and installs the
//!   result with the new stamps: a from-scratch merge of the current shard
//!   states, with nothing to drift.
//!
//! Either way the cache *lends* the merged result, which it keeps behind
//! an [`Arc`]. `merged()` hands its caller that `Arc` — a clean query
//! copies nothing, and the ledger's `stream.merged_clean_us` times a
//! pointer bump — and a read replica holds the same `Arc` with what it
//! reflects, so a refresh copies no merged result at all. A replica that
//! lags takes the cache lock once: it adopts the kept merge by pointer if
//! that is recent enough (`lent`, which counts no query), and otherwise
//! has the runtime rebuild it under that same lock, so a refresh is
//! single-flight.
//!
//! The cache never touches a shard itself: the runtime catches each shard
//! up and merges it under the shard's lock, and hands the whole merge in
//! via `SnapshotCache::install`, so this module is pure bookkeeping.
//!
//! A rebuild first lets go of the merge it replaces
//! (`SnapshotCache::release`). A merge shares its summary's rows with the
//! shards where the summary allows it (an F-AGMS sketch's counters sit
//! behind an `Arc`, and a one-shard merge is a clone of the shard's
//! summary), and a shard that writes while a reader still holds them
//! copies them first. With the stale merge gone and no caller holding
//! it, a one-shard rebuild's catch-up writes in place and its fold copies
//! no row: `merged()` pays for the keys it applies, not for the width of
//! the sketch. A worker that applies the batch before the query releases
//! the merge copies the rows once. A rebuild that fails (a dead shard)
//! leaves no merge kept.

use std::sync::Arc;

/// Counters describing how the cache served queries so far — exposed as
/// [`QueryHandle::cache_stats`](crate::QueryHandle::cache_stats). A
/// replica adopting the kept merge is not a query here: it merges nothing
/// and reads no shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cached merged result alone (zero dirty
    /// shards): no merge work.
    pub hits: u64,
    /// Rebuilds for which a strict subset of the shards was dirty.
    pub partial_rebuilds: u64,
    /// Rebuilds for which every shard was dirty.
    pub full_rebuilds: u64,
    /// Dirty shards summed over all rebuilds — the shards a rebuild had to
    /// bring past their last stamp, to compare against `queries × shards`
    /// a full barrier would have paid.
    pub shards_refreshed: u64,
}

impl CacheStats {
    /// Total queries served through the cache.
    pub fn queries(&self) -> u64 {
        self.hits + self.partial_rebuilds + self.full_rebuilds
    }
}

/// What a merged result reflects: batches and offered tuples applied by
/// the shard states merged into it, one shard's or summed over all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) batches: u64,
    pub(crate) tuples: u64,
}

/// The incremental snapshot cache. One per runtime, guarded by the
/// runtime's query mutex (queries may come from several
/// [`QueryHandle`](crate::QueryHandle)s concurrently).
pub(crate) struct SnapshotCache<E> {
    /// Per shard, what it had applied when it was merged into `merged`.
    stamps: Vec<Stamp>,
    /// The merged result, shared with the read replicas that hold it;
    /// `None` until the first query.
    merged: Option<Arc<E>>,
    /// The F₂ a fresh read took off the shards in place, with the batches
    /// each shard had applied: the merge's F₂ for as long as they have.
    fresh_f2: Option<(Vec<u64>, f64)>,
    stats: CacheStats,
}

impl<E> SnapshotCache<E> {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            stamps: vec![Stamp::default(); shards],
            merged: None,
            fresh_f2: None,
            stats: CacheStats::default(),
        }
    }

    /// The kept fresh F₂, if the shards have applied what they had when it
    /// was read: `applied` batches, shard by shard.
    pub(crate) fn fresh_f2(&self, applied: &[u64]) -> Option<f64> {
        let (at, f2) = self.fresh_f2.as_ref()?;
        (at[..] == *applied).then_some(*f2)
    }

    /// Keep `f2`, read off shards that had applied `applied` batches, or
    /// forget the kept one.
    pub(crate) fn keep_fresh_f2(&mut self, applied: Vec<u64>, f2: Option<f64>) {
        self.fresh_f2 = f2.map(|f2| (applied, f2));
    }

    /// Shards whose stamp is below their floor.
    fn dirty(&self, floors: &[u64]) -> usize {
        self.stamps
            .iter()
            .zip(floors)
            .filter(|(stamp, &floor)| stamp.batches < floor)
            .count()
    }

    fn total(&self) -> Stamp {
        self.stamps.iter().fold(Stamp::default(), |sum, s| Stamp {
            batches: sum.batches + s.batches,
            tuples: sum.tuples + s.tuples,
        })
    }

    /// The cached merge and what it reflects, counted as a hit, if it
    /// covers every shard's floor (its accepted-batch count).
    pub(crate) fn hit(&mut self, floors: &[u64]) -> Option<(&Arc<E>, Stamp)> {
        if self.merged.is_none() || self.dirty(floors) > 0 {
            return None;
        }
        self.stats.hits += 1;
        self.lent()
    }

    /// The cached merge and what it reflects, whatever it covers, counted
    /// as nothing: what a read replica adopts.
    pub(crate) fn lent(&self) -> Option<(&Arc<E>, Stamp)> {
        Some((self.merged.as_ref()?, self.total()))
    }

    /// Let go of the kept merge ahead of the rebuild that replaces it, so
    /// the shards catching up no longer share their rows with it. Until
    /// the rebuild installs, nothing is kept or lent.
    pub(crate) fn release(&mut self) {
        self.merged = None;
    }

    /// Install a rebuild that missed [`hit`](Self::hit) at `floors`:
    /// `merged` reflects `stamps`, shard by shard. Lends it back.
    pub(crate) fn install(
        &mut self,
        merged: E,
        stamps: Vec<Stamp>,
        floors: &[u64],
    ) -> (&Arc<E>, Stamp) {
        let dirty = self.dirty(floors);
        if dirty < self.stamps.len() {
            self.stats.partial_rebuilds += 1;
        } else {
            self.stats.full_rebuilds += 1;
        }
        self.stats.shards_refreshed += dirty as u64;
        self.stamps = stamps;
        let total = self.total();
        (self.merged.insert(Arc::new(merged)), total)
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(batches: u64, tuples: u64) -> Stamp {
        Stamp { batches, tuples }
    }

    /// A hit needs a merge whose stamps cover every floor; a rebuild
    /// counts the shards that were behind theirs, and is partial unless
    /// all of them were. What the cache lends is summed from its stamps,
    /// and a hit lends the installed merge itself, not a copy; so does
    /// `lent`, whatever the floors, without counting a hit.
    #[test]
    fn a_hit_needs_a_merge_that_covers_every_floor() {
        let mut cache = SnapshotCache::new(2);
        assert!(cache.hit(&[0, 0]).is_none(), "nothing merged yet");
        assert!(cache.lent().is_none());
        cache.install("empty", vec![stamp(0, 0); 2], &[0, 0]);
        assert_eq!(cache.hit(&[0, 0]), Some((&Arc::new("empty"), stamp(0, 0))));
        assert!(cache.hit(&[1, 0]).is_none());

        let (lent, total) = cache.install("one", vec![stamp(2, 20), stamp(0, 0)], &[1, 0]);
        let lent = Arc::clone(lent);
        assert_eq!((*lent, total), ("one", stamp(2, 20)));
        let (hit, total) = cache.hit(&[2, 0]).unwrap();
        assert!(Arc::ptr_eq(hit, &lent));
        assert_eq!(total, stamp(2, 20));
        let (kept, total) = cache.lent().expect("a merge is kept");
        assert!(Arc::ptr_eq(kept, &lent));
        assert_eq!(total, stamp(2, 20));
        cache.install("both", vec![stamp(3, 30), stamp(1, 5)], &[3, 1]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                partial_rebuilds: 2,
                full_rebuilds: 1,
                shards_refreshed: 3,
            }
        );
        assert_eq!(cache.hit(&[3, 1]), Some((&Arc::new("both"), stamp(4, 35))));
    }

    /// A released merge is neither lent nor a hit, and the stamps and
    /// counters stay for the rebuild that installs the next one.
    #[test]
    fn a_released_merge_is_dropped_and_its_stamps_kept() {
        let mut cache = SnapshotCache::new(2);
        cache.install("one", vec![stamp(2, 20), stamp(1, 10)], &[2, 1]);
        let held = Arc::clone(cache.lent().unwrap().0);
        cache.release();
        assert_eq!(Arc::strong_count(&held), 1, "the cache let go of it");
        assert!(cache.lent().is_none());
        assert!(cache.hit(&[2, 1]).is_none());
        cache.install("two", vec![stamp(3, 30), stamp(1, 10)], &[3, 1]);
        assert_eq!(cache.stats().partial_rebuilds, 1);
        assert_eq!(cache.stats().full_rebuilds, 1);
        assert_eq!(cache.lent(), Some((&Arc::new("two"), stamp(4, 40))));
    }
}
