//! Versioned incremental snapshot cache behind
//! [`ShardedRuntime::merged`](crate::ShardedRuntime::merged), and the hub
//! that hands its slim projection to readers.
//!
//! The paper's at-all-times query model (and Huang–Tai–Yi's continuous
//! tracking argument, arXiv 1412.1763) means `merged()` runs *while* the
//! stream is still being ingested, often far more frequently than shard
//! state actually changes between queries. The cache makes a query pay
//! for what changed:
//!
//! * Every shard worker bumps a **dirty-epoch** counter (its applied
//!   batch count) after each `update_batch`. A shard whose epoch matches
//!   the version stamped on its cached clone has not changed since the
//!   previous query and is not asked for a new clone.
//! * **Nothing dirty:** the cached merged result is served as it is —
//!   no merge work, independent of the shard count.
//! * **Otherwise:** the fresh clones replace their entries in the
//!   per-shard table and the table is merged again in shard order, into
//!   one copy of the prototype (`stream.merged_dirty_us`). Only
//!   `merge_from` is asked of the summary, so linear sketches, HyperLogLog
//!   and KLL all take the same path, and the result *is* a from-scratch
//!   merge of the current shard states — there is nothing to drift.
//!
//! Either way the cache *lends* the merged result. `merged()` copies it
//! once for its caller — O(sketch bytes), the ledger's
//! `stream.merged_clean_us` — and a replica refresh projects it in place,
//! so a refresh copies no merged result at all.
//!
//! The cache never talks to workers itself: the runtime fetches fresh
//! clones for dirty shards (via the control queue) and hands them in via
//! `SnapshotCache::refresh`, so this module is pure bookkeeping and
//! stays trivially safe code.

use sss_core::Summary;
use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters describing how the cache served queries so far — exposed as
/// [`ShardedRuntime::cache_stats`](crate::ShardedRuntime::cache_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cached merged result alone (zero dirty
    /// shards): no merge work.
    pub hits: u64,
    /// Queries that re-cloned a strict subset of the shards and reused
    /// the per-shard table for the rest.
    pub partial_rebuilds: u64,
    /// Queries that re-cloned every shard.
    pub full_rebuilds: u64,
    /// Total shard clones taken across all rebuilds — the work actually
    /// paid, to compare against `queries × shards` a full barrier would
    /// have paid.
    pub shards_refreshed: u64,
}

impl CacheStats {
    /// Total queries served through the cache.
    pub fn queries(&self) -> u64 {
        self.hits + self.partial_rebuilds + self.full_rebuilds
    }
}

/// Per-shard cached state: the version (dirty-epoch) at which `clone`
/// was taken.
struct ShardEntry<E> {
    version: u64,
    clone: E,
}

/// The incremental snapshot cache. One per runtime, guarded by the
/// runtime's query mutex (queries may come from several
/// [`QueryHandle`](crate::QueryHandle)s concurrently).
pub(crate) struct SnapshotCache<E> {
    /// Last integrated clone per shard; `None` until first queried.
    shards: Vec<Option<ShardEntry<E>>>,
    /// The merged result as of the versions recorded in `shards`.
    merged: Option<E>,
    stats: CacheStats,
}

impl<E: Summary> SnapshotCache<E> {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| None).collect(),
            merged: None,
            stats: CacheStats::default(),
        }
    }

    /// The stamped version of `shard`'s cached clone, or `None` if the
    /// shard has never been integrated. The runtime compares this with
    /// the worker's live dirty epoch to decide whether the shard needs a
    /// fresh clone.
    pub(crate) fn shard_version(&self, shard: usize) -> Option<u64> {
        self.shards[shard].as_ref().map(|e| e.version)
    }

    /// Serve a query given fresh clones for exactly the dirty shards.
    ///
    /// `fresh` holds `(shard, version, clone)` for every shard whose live
    /// epoch differed from [`shard_version`](Self::shard_version);
    /// `prototype` is the empty summary a rebuild merges into. Lends the
    /// (now current) merged estimator: the caller copies it, or projects
    /// it in place, under the cache lock.
    pub(crate) fn refresh(
        &mut self,
        prototype: &E,
        fresh: Vec<(usize, u64, E)>,
    ) -> sss_core::Result<&E> {
        let slot = match (&mut self.merged, fresh.is_empty()) {
            (Some(merged), true) => {
                self.stats.hits += 1;
                return Ok(merged);
            }
            (slot, _) => slot,
        };
        if fresh.len() < self.shards.len() {
            self.stats.partial_rebuilds += 1;
        } else {
            self.stats.full_rebuilds += 1;
        }
        self.stats.shards_refreshed += fresh.len() as u64;
        for (shard, version, clone) in fresh {
            self.shards[shard] = Some(ShardEntry { version, clone });
        }
        let mut merged = prototype.clone();
        for entry in self.shards.iter().flatten() {
            merged.merge_from(&entry.clone)?;
        }
        Ok(slot.insert(merged))
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// One published slim snapshot: the merged summary's slim projection,
/// stamped with the accepted-batch total it reflects.
///
/// The projection sits behind an [`Arc`], so N concurrent readers adopt
/// a frame by pointer and query the one shared value. The slot is
/// type-erased because the hub lives in a runtime generic over plain
/// [`Summary`]; the runtime's `SlimQuery` block, the only code that
/// publishes or adopts frames, downcasts it back to `E::Slim`.
#[derive(Clone)]
pub(crate) struct ReplicaFrame {
    /// Sum of every shard's accepted-batch counter when the frame was
    /// projected — the staleness yardstick readers compare against.
    pub(crate) version: u64,
    /// Tuples applied across all shards at projection time — the
    /// denominator of the staleness variance plug-in.
    pub(crate) applied: u64,
    /// The slim projection ([`sss_core::SlimQuery::slim`]).
    pub(crate) slim: Arc<dyn Any + Send + Sync>,
}

/// The slim-replica exchange point between the (single) refresher that
/// projects the merged fat state and the N readers serving `*_estimate()`
/// queries.
///
/// Slim states deliberately cannot merge (`(a+b)² ≠ a² + b²`), so deltas
/// are *whole frames*: a refresh merges fat state through the
/// [`SnapshotCache`], projects once, and publishes the projection; every
/// reader whose local version lags adopts the shared pointer.
/// The `refreshing` mutex makes the expensive projection single-flight —
/// concurrent stale readers elect one refresher and the rest pick up the
/// frame it publishes.
pub(crate) struct ReplicaHub {
    frame: Mutex<Option<ReplicaFrame>>,
    /// Held for the duration of a fat merge + projection; see above.
    refreshing: Mutex<()>,
}

impl ReplicaHub {
    pub(crate) fn new() -> Self {
        Self {
            frame: Mutex::new(None),
            refreshing: Mutex::new(()),
        }
    }

    /// The latest published frame, if any. Lock-poisoning on either mutex
    /// is survivable: frames are immutable once published, so a poisoned
    /// guard still reads a consistent frame.
    pub(crate) fn frame(&self) -> Option<ReplicaFrame> {
        self.frame
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publish a frame, keeping whichever reflects more accepted batches
    /// (two racing refreshers can finish out of order).
    pub(crate) fn publish(&self, frame: ReplicaFrame) {
        let mut slot = self.frame.lock().unwrap_or_else(PoisonError::into_inner);
        if !slot.as_ref().is_some_and(|f| f.version > frame.version) {
            *slot = Some(frame);
        }
    }

    /// Serialize refreshers; the guard's lifetime brackets the fat merge.
    pub(crate) fn begin_refresh(&self) -> MutexGuard<'_, ()> {
        self.refreshing
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_core::sketch::{JoinSchema, JoinSketch};

    fn shard_sketch(schema: &JoinSchema, keys: &[u64]) -> JoinSketch {
        let mut s = schema.sketch();
        s.update_batch(keys);
        s
    }

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

    /// The clones the cache pays: a hit none, a rebuild one of the
    /// prototype to merge into. The merged result is lent, never copied.
    #[test]
    fn a_hit_clones_nothing_and_a_rebuild_clones_the_prototype_once() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let proto = CloneLog::prototype(&log);
        let mut shard = CloneLog::prototype(&log);
        shard.update_batch(&[1]);
        let mut cache = SnapshotCache::new(2);
        let take = || std::mem::take(&mut *log.lock().unwrap());

        let merged = cache.refresh(&proto, vec![(0, 1, shard)]).unwrap();
        assert_eq!(merged.role, "merged");
        assert_eq!(take(), ["prototype"]);
        cache.refresh(&proto, vec![]).unwrap();
        assert!(take().is_empty());
    }

    /// Both paths — a rebuild (every shard fresh, or only some) and a
    /// hit — produce results bit-identical to a from-scratch merge of the
    /// same shard states.
    #[test]
    fn both_paths_match_a_fresh_merge() {
        let mut rng = StdRng::seed_from_u64(11);
        let schema = JoinSchema::fagms(2, 128, &mut rng);
        let proto = schema.sketch();
        let mut cache = SnapshotCache::new(3);

        let s0 = shard_sketch(&schema, &[1, 2, 3]);
        let s1 = shard_sketch(&schema, &[40, 50]);
        let s2 = shard_sketch(&schema, &[600]);

        // First query: every shard is fresh.
        let m1 = cache
            .refresh(
                &proto,
                vec![(0, 1, s0.clone()), (1, 1, s1.clone()), (2, 1, s2.clone())],
            )
            .unwrap()
            .clone();
        let mut expect = proto.clone();
        for s in [&s0, &s1, &s2] {
            expect.merge_from(s).unwrap();
        }
        assert_eq!(
            m1.raw_self_join().to_bits(),
            expect.raw_self_join().to_bits()
        );
        assert_eq!(cache.stats().full_rebuilds, 1);

        // No dirt: cache hit, bit-identical to the previous answer.
        let m2 = cache.refresh(&proto, vec![]).unwrap();
        assert_eq!(m2.raw_self_join().to_bits(), m1.raw_self_join().to_bits());
        assert_eq!(cache.stats().hits, 1);

        // Shard 1 advances: only its table entry is replaced.
        let s1b = shard_sketch(&schema, &[40, 50, 60, 70]);
        let m3 = cache.refresh(&proto, vec![(1, 2, s1b.clone())]).unwrap();
        let mut expect3 = proto.clone();
        for s in [&s0, &s1b, &s2] {
            expect3.merge_from(s).unwrap();
        }
        assert_eq!(
            m3.raw_self_join().to_bits(),
            expect3.raw_self_join().to_bits()
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                partial_rebuilds: 1,
                full_rebuilds: 1,
                shards_refreshed: 4,
            }
        );
        assert_eq!(cache.shard_version(0), Some(1));
        assert_eq!(cache.shard_version(1), Some(2));
    }

    /// The replica hub: publish is monotone in the version, frames are
    /// shared (not copied), and racing refreshers single-flight through
    /// `begin_refresh`.
    #[test]
    fn replica_hub_publishes_monotonically() {
        let hub = ReplicaHub::new();
        assert!(hub.frame().is_none());
        hub.publish(ReplicaFrame {
            version: 5,
            applied: 100,
            slim: Arc::new(vec![1u8, 2, 3]),
        });
        // An older frame from a slow racer does not regress the slot.
        hub.publish(ReplicaFrame {
            version: 3,
            applied: 60,
            slim: Arc::new(vec![9u8]),
        });
        let f = hub.frame().unwrap();
        assert_eq!(f.version, 5);
        assert_eq!(f.applied, 100);
        assert_eq!(f.slim.downcast_ref::<Vec<u8>>(), Some(&vec![1, 2, 3]));
        // Two readers share one projection.
        let g = hub.frame().unwrap();
        assert!(Arc::ptr_eq(&f.slim, &g.slim));
        // The refresh guard is just a mutex — hold and release.
        drop(hub.begin_refresh());
        let _second = hub.begin_refresh();
    }

    /// Many rounds of random dirtying: re-merging the table never drifts
    /// from a from-scratch merge, bit for bit.
    #[test]
    fn incremental_never_drifts_from_scratch() {
        let mut rng = StdRng::seed_from_u64(12);
        let schema = JoinSchema::agms(32, &mut rng);
        let proto = schema.sketch();
        const SHARDS: usize = 4;
        let mut cache = SnapshotCache::new(SHARDS);
        let mut live: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
        let mut versions = [0u64; SHARDS];

        let mut state = 99u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for round in 0..60 {
            // Dirty a random subset of shards.
            let mut fresh = Vec::new();
            for shard in 0..SHARDS {
                if rand() % 3 == 0 || round == 0 {
                    live[shard].push(rand());
                    versions[shard] += 1;
                    fresh.push((shard, versions[shard], shard_sketch(&schema, &live[shard])));
                }
            }
            let merged = cache.refresh(&proto, fresh).unwrap();
            let mut expect = proto.clone();
            for keys in &live {
                expect.merge_from(&shard_sketch(&schema, keys)).unwrap();
            }
            assert_eq!(
                merged.raw_self_join().to_bits(),
                expect.raw_self_join().to_bits(),
                "round {round}"
            );
        }
        assert!(cache.stats().hits > 0, "some rounds dirtied nothing");
        assert!(cache.stats().partial_rebuilds > 0);
    }
}
