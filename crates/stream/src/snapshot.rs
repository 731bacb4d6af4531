//! Versioned incremental snapshot cache behind
//! [`QueryHandle::merged`](crate::QueryHandle::merged), and the replica
//! frame over its merge that every [`ReadReplica`](crate::ReadReplica)
//! shares.
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
//! * **Otherwise:** the runtime folds every shard's live state again, in
//!   shard order, into the prototype (`stream.merged_dirty_us`) and
//!   installs the result with the new stamps. The first live shard enters
//!   through [`merged_into`](sss_core::Summary::merged_into), which is one
//!   copy of its state where the summary can copy (the join counters, the
//!   HyperLogLog registers), the rest through `merge_from`, so linear
//!   sketches, HyperLogLog and KLL all take the same path, and the result
//!   *is* a from-scratch merge of the current shard states — there is
//!   nothing to drift.
//!
//! Either way the cache *lends* the merged result, which it keeps behind
//! an [`Arc`]. `merged()` hands its caller that `Arc` — a clean query
//! copies nothing, and the ledger's `stream.merged_clean_us` times a
//! pointer bump — and a replica frame holds the same `Arc` and projects
//! from it per query family
//! ([`SlimQuery::frame`](sss_core::SlimQuery::frame)), so a refresh copies
//! no merged result at all.
//!
//! The cache keeps that frame beside the merge, stamped with what the
//! merge reflects, until the next `install` replaces the merge. Slim
//! states deliberately cannot merge (`(a+b)² ≠ a² + b²`), so a replica
//! moves from whole frame to whole frame: a reader whose version lags
//! takes the cache lock once, adopts the kept frame by pointer if it is
//! recent enough, and otherwise refreshes the merge and projects the new
//! frame under that same lock, which makes the refresh single-flight.
//!
//! The cache never touches a shard itself: the runtime catches each shard
//! up and merges it under the shard's lock, and hands the whole merge in
//! via `SnapshotCache::install`, so this module is pure bookkeeping.

use std::any::Any;
use std::sync::Arc;

/// Counters describing how the cache served queries so far — exposed as
/// [`QueryHandle::cache_stats`](crate::QueryHandle::cache_stats). A
/// reader adopting the kept replica frame is not a query here: it merges
/// nothing and reads no shard.
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
    /// The merged result, shared with the replica frames projected from
    /// it; `None` until the first query.
    merged: Option<Arc<E>>,
    /// The replica frame over `merged`, once a reader asked for one.
    frame: Option<ReplicaFrame>,
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
            frame: None,
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
        let total = self.total();
        self.merged.as_ref().map(|merged| (merged, total))
    }

    /// Install a rebuild that missed [`hit`](Self::hit) at `floors`:
    /// `merged` reflects `stamps`, shard by shard. Lends it back, and drops
    /// the frame over the merge it replaces.
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
        self.frame = None;
        let total = self.total();
        (self.merged.insert(Arc::new(merged)), total)
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The kept replica frame, if it reflects at least `min_version`
    /// batches.
    pub(crate) fn frame(&self, min_version: u64) -> Option<ReplicaFrame> {
        self.frame.clone().filter(|f| f.version >= min_version)
    }

    /// Keep `frame`, projected from the current merge, for the readers
    /// after this one.
    pub(crate) fn keep_frame(&mut self, frame: ReplicaFrame) {
        self.frame = Some(frame);
    }
}

/// The replica frame: the merged summary's
/// [`SlimQuery::frame`](sss_core::SlimQuery::frame), stamped with the
/// batches and tuples that merge reflects.
///
/// The frame sits behind an [`Arc`], so N concurrent readers adopt it by
/// pointer and query the one shared value. The slot is type-erased because
/// the cache lives in a runtime generic over plain
/// [`Summary`](sss_core::Summary); the runtime's `SlimQuery` block, the
/// only code that keeps or adopts frames, downcasts it back to `E::Slim`.
#[derive(Clone)]
pub(crate) struct ReplicaFrame {
    /// Batches the merged shard states had applied, summed over the
    /// shards: at least every batch accepted before the projection — the
    /// staleness yardstick readers compare against the accepted total.
    pub(crate) version: u64,
    /// Offered tuples the merged shard states had applied — the
    /// denominator of the staleness variance plug-in.
    pub(crate) applied: u64,
    /// The frame ([`sss_core::SlimQuery::frame`]).
    pub(crate) slim: Arc<dyn Any + Send + Sync>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sss_core::Summary;
    use std::sync::Mutex;

    /// A summary double that logs whose clone was taken: the prototype's
    /// (never updated or merged into), a shard's (updated), or a merge
    /// result's.
    #[derive(Debug)]
    pub(crate) struct CloneLog {
        role: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl CloneLog {
        pub(crate) fn prototype(log: &Arc<Mutex<Vec<&'static str>>>) -> Self {
            Self {
                role: "prototype",
                log: Arc::clone(log),
            }
        }
    }

    impl Clone for CloneLog {
        fn clone(&self) -> Self {
            self.log.lock().unwrap().push(self.role);
            Self {
                role: self.role,
                log: Arc::clone(&self.log),
            }
        }
    }

    impl Summary for CloneLog {
        fn update(&mut self, _key: u64, _count: i64) {
            self.role = "shard";
        }
        fn update_batch(&mut self, _keys: &[u64]) {
            self.role = "shard";
        }
        fn merge_from(&mut self, _other: &Self) -> sss_core::Result<()> {
            self.role = "merged";
            Ok(())
        }
    }

    /// The projection names whose state it read and copies nothing.
    impl sss_core::SlimQuery for CloneLog {
        type Slim = &'static str;

        fn slim(&self) -> &'static str {
            self.role
        }
    }

    fn stamp(batches: u64, tuples: u64) -> Stamp {
        Stamp { batches, tuples }
    }

    /// A hit needs a merge whose stamps cover every floor; a rebuild
    /// counts the shards that were behind theirs, and is partial unless
    /// all of them were. What the cache lends is summed from its stamps,
    /// and a hit lends the installed merge itself, not a copy. A kept
    /// frame is served while it is recent enough, and goes with its merge.
    #[test]
    fn a_hit_needs_a_merge_that_covers_every_floor() {
        let mut cache = SnapshotCache::new(2);
        assert!(cache.hit(&[0, 0]).is_none(), "nothing merged yet");
        cache.install("empty", vec![stamp(0, 0); 2], &[0, 0]);
        assert_eq!(cache.hit(&[0, 0]), Some((&Arc::new("empty"), stamp(0, 0))));
        assert!(cache.hit(&[1, 0]).is_none());

        let (lent, total) = cache.install("one", vec![stamp(2, 20), stamp(0, 0)], &[1, 0]);
        let lent = Arc::clone(lent);
        assert_eq!((*lent, total), ("one", stamp(2, 20)));
        let (hit, total) = cache.hit(&[2, 0]).unwrap();
        assert!(Arc::ptr_eq(hit, &lent));
        assert_eq!(total, stamp(2, 20));
        cache.keep_frame(ReplicaFrame {
            version: 2,
            applied: 20,
            slim: Arc::new("frame"),
        });
        let frame = cache.frame(2).expect("recent enough");
        assert_eq!(frame.slim.downcast_ref::<&str>(), Some(&"frame"));
        assert!(cache.frame(3).is_none(), "too old");
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
        assert!(cache.frame(0).is_none(), "a new merge drops the old frame");
    }
}
