//! Versioned incremental snapshot cache behind
//! [`ShardedRuntime::merged`](crate::ShardedRuntime::merged).
//!
//! The paper's at-all-times query model (and Huang–Tai–Yi's continuous
//! tracking argument, arXiv 1412.1763) means `merged()` runs *while* the
//! stream is still being ingested, often far more frequently than shard
//! state actually changes between queries. The old full snapshot barrier
//! paid O(shards × sketch bytes) per query regardless; this cache makes
//! the cost proportional to what changed:
//!
//! * Every shard worker bumps a **dirty-epoch** counter (its applied
//!   batch count) after each `update_batch`. A shard whose epoch matches
//!   the version stamped on its cached clone has not changed since the
//!   previous query — its bytes need no work at all.
//! * The cache keeps the previous **merged** result too. When the
//!   estimator supports exact retraction
//!   ([`supports_retract`](sss_core::Summary::supports_retract) —
//!   true for every integer-counter sketch in this repo), a dirty shard
//!   is folded in by `retract_from(stale clone)` + `merge_from(fresh
//!   clone)`. Counter arithmetic is exact over `i64`, so
//!   `merged − old + new` is **bit-identical** to re-merging everything
//!   from scratch — the same linearity that makes sharding itself exact
//!   (see `tests/runtime_properties.rs`).
//! * Without retraction support the cache falls back to a full re-merge
//!   in shard order — still correct, just O(shards) again.
//!
//! A query with **zero** dirty shards — the common case for repeated
//! at-all-times polling — costs one clone of the cached merged result:
//! O(sketch bytes), independent of the shard count (the ledger's
//! `stream.merged_clean_us` against `stream.merged_dirty_us`).
//!
//! The cache never talks to workers itself: the runtime fetches fresh
//! clones for dirty shards (via the control queue) and hands them in via
//! `SnapshotCache::refresh`, so this module is pure bookkeeping and
//! stays trivially safe code.

use sss_core::Summary;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters describing how the cache served queries so far — exposed as
/// [`ShardedRuntime::cache_stats`](crate::ShardedRuntime::cache_stats)
/// and recorded by the `queries_under_ingest` bench series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cached merged result alone (zero dirty
    /// shards): one clone, no merge work.
    pub hits: u64,
    /// Queries that re-integrated only the dirty shards via
    /// retract + merge deltas.
    pub partial_rebuilds: u64,
    /// Queries that re-merged every shard (first query, or the estimator
    /// does not support retraction).
    pub full_rebuilds: u64,
    /// The subset of [`full_rebuilds`](Self::full_rebuilds) that were
    /// *fallbacks*: a warm cache had dirty shards to fold in but the
    /// estimator does not support retraction, so the incremental path was
    /// unavailable and the whole merge was redone. A growing
    /// `rebuild_count` under a polling workload means the estimator's
    /// `RetractUnsupported` is costing `O(shards)` per query — logged once
    /// per cache (see the module docs) so it cannot pass silently.
    pub rebuild_count: u64,
    /// Total shard clones folded in across all partial rebuilds — the
    /// work actually paid, to compare against `queries × shards` the old
    /// barrier would have paid.
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
    /// Whether the `RetractUnsupported` fallback has been logged yet —
    /// once per cache, so a polling loop cannot flood stderr.
    logged_fallback: bool,
}

impl<E: Summary> SnapshotCache<E> {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| None).collect(),
            merged: None,
            stats: CacheStats::default(),
            logged_fallback: false,
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
    /// `prototype` seeds a full rebuild. Returns a clone of the (now
    /// current) merged estimator.
    pub(crate) fn refresh(
        &mut self,
        prototype: &E,
        fresh: Vec<(usize, u64, E)>,
    ) -> sss_core::Result<E> {
        match (&mut self.merged, fresh.is_empty()) {
            // Nothing dirty and a cached merge exists: pure cache hit.
            (Some(merged), true) => {
                self.stats.hits += 1;
                Ok(merged.clone())
            }
            // Dirty shards and a cached merge: retract stale, merge fresh
            // — exact by integer-counter linearity. Falls back to a full
            // rebuild if the estimator cannot retract.
            (Some(_), false) if prototype.supports_retract() => {
                self.stats.partial_rebuilds += 1;
                self.stats.shards_refreshed += fresh.len() as u64;
                let merged = self.merged.as_mut().expect("checked Some above");
                for (shard, version, clone) in fresh {
                    if let Some(stale) = &self.shards[shard] {
                        merged.retract_from(&stale.clone)?;
                    }
                    merged.merge_from(&clone)?;
                    self.shards[shard] = Some(ShardEntry { version, clone });
                }
                Ok(merged.clone())
            }
            // First query, or no retraction support: integrate the fresh
            // clones into the per-shard cache, then re-merge everything
            // in shard order (deterministic walk; merge order cannot
            // matter — integer adds commute).
            other => {
                // A warm cache with dirty shards and no retraction is the
                // *fallback* case: the incremental path wanted to run and
                // could not. Count it, and say so once — silently paying
                // O(shards) per poll is how perf regressions hide.
                if matches!(other, (Some(_), false)) {
                    self.stats.rebuild_count += 1;
                    if !self.logged_fallback {
                        self.logged_fallback = true;
                        eprintln!(
                            "sss-stream: estimator does not support retraction \
                             (RetractUnsupported); snapshot cache falls back to full \
                             re-merges — every dirty query pays O(shards) \
                             (rebuild_count in cache_stats() tracks this)"
                        );
                    }
                }
                self.stats.full_rebuilds += 1;
                self.stats.shards_refreshed += fresh.len() as u64;
                for (shard, version, clone) in fresh {
                    self.shards[shard] = Some(ShardEntry { version, clone });
                }
                let mut merged = prototype.clone();
                for entry in self.shards.iter().flatten() {
                    merged.merge_from(&entry.clone)?;
                }
                self.merged = Some(merged.clone());
                Ok(merged)
            }
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// One published slim snapshot: the encoded bytes of the merged summary's
/// slim projection, stamped with the accepted-batch total it reflects.
///
/// The bytes are behind an [`Arc`] so N concurrent readers share one
/// buffer — distributing a refresh costs pointer bumps, not copies; each
/// reader then decodes *slim* bytes (tens of lanes) instead of cloning the
/// fat merged state.
#[derive(Clone)]
pub(crate) struct ReplicaFrame {
    /// Sum of every shard's accepted-batch counter when the frame was
    /// projected — the staleness yardstick readers compare against.
    pub(crate) version: u64,
    /// Tuples applied across all shards at projection time — the
    /// denominator of the staleness variance plug-in.
    pub(crate) applied: u64,
    /// The encoded slim projection ([`sss_core::Portable::encode`]).
    pub(crate) bytes: Arc<Vec<u8>>,
}

/// The slim-replica exchange point between the (single) refresher that
/// projects the merged fat state and the N readers serving `*_estimate()`
/// queries — the second stage of the two-stage read path (DESIGN.md §4k).
///
/// Slim states deliberately cannot merge (`(a+b)² ≠ a² + b²`), so deltas
/// are *whole frames*: a refresh merges fat state through the
/// [`SnapshotCache`], projects once, encodes once, and publishes the
/// bytes; every reader whose local version lags decodes the shared buffer.
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
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_core::sketch::{JoinSchema, JoinSketch};

    fn shard_sketch(schema: &JoinSchema, keys: &[u64]) -> JoinSketch {
        let mut s = schema.sketch();
        s.update_batch(keys);
        s
    }

    /// The cache's three paths (full, partial, hit) all produce results
    /// bit-identical to a from-scratch merge of the same shard states.
    #[test]
    fn all_three_paths_match_a_fresh_merge() {
        let mut rng = StdRng::seed_from_u64(11);
        let schema = JoinSchema::fagms(2, 128, &mut rng);
        let proto = schema.sketch();
        let mut cache = SnapshotCache::new(3);

        let s0 = shard_sketch(&schema, &[1, 2, 3]);
        let s1 = shard_sketch(&schema, &[40, 50]);
        let s2 = shard_sketch(&schema, &[600]);

        // First query: full rebuild.
        let m1 = cache
            .refresh(
                &proto,
                vec![(0, 1, s0.clone()), (1, 1, s1.clone()), (2, 1, s2.clone())],
            )
            .unwrap();
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

        // Shard 1 advances: partial rebuild touches only that shard.
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
                rebuild_count: 0,
                shards_refreshed: 4,
            }
        );
        assert_eq!(cache.shard_version(0), Some(1));
        assert_eq!(cache.shard_version(1), Some(2));
    }

    /// A warm cache without retraction support: every dirty query is a
    /// counted fallback rebuild (`rebuild_count`), while the first build
    /// and pure hits are not.
    #[test]
    fn fallback_rebuilds_are_counted_separately() {
        #[derive(Clone)]
        struct NoRetract(JoinSketch);
        impl Summary for NoRetract {
            fn update(&mut self, key: u64, count: i64) {
                self.0.update(key, count);
            }
            fn update_batch(&mut self, keys: &[u64]) {
                self.0.update_batch(keys);
            }
            fn merge_from(&mut self, other: &Self) -> sss_core::Result<()> {
                self.0.merge_from(&other.0)
            }
            // supports_retract() stays the default: false.
        }

        let mut rng = StdRng::seed_from_u64(21);
        let schema = JoinSchema::agms(8, &mut rng);
        let proto = NoRetract(schema.sketch());
        let mut cache = SnapshotCache::new(2);
        let shard = |keys: &[u64]| NoRetract(shard_sketch(&schema, keys));

        // Cold first build: a full rebuild, but not a *fallback*.
        cache
            .refresh(&proto, vec![(0, 1, shard(&[1])), (1, 1, shard(&[2]))])
            .unwrap();
        assert_eq!(cache.stats().full_rebuilds, 1);
        assert_eq!(cache.stats().rebuild_count, 0);

        // Pure hit: nothing dirty.
        cache.refresh(&proto, vec![]).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().rebuild_count, 0);

        // Warm cache + dirty shard + no retraction: counted fallback.
        let m = cache.refresh(&proto, vec![(0, 2, shard(&[1, 3]))]).unwrap();
        assert_eq!(cache.stats().full_rebuilds, 2);
        assert_eq!(cache.stats().rebuild_count, 1);
        // Still exact.
        let mut expect = proto.clone();
        expect.merge_from(&shard(&[1, 3])).unwrap();
        expect.merge_from(&shard(&[2])).unwrap();
        assert_eq!(
            m.0.raw_self_join().to_bits(),
            expect.0.raw_self_join().to_bits()
        );
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
            bytes: Arc::new(vec![1, 2, 3]),
        });
        // An older frame from a slow racer does not regress the slot.
        hub.publish(ReplicaFrame {
            version: 3,
            applied: 60,
            bytes: Arc::new(vec![9]),
        });
        let f = hub.frame().unwrap();
        assert_eq!(f.version, 5);
        assert_eq!(f.applied, 100);
        assert_eq!(*f.bytes, vec![1, 2, 3]);
        // Two readers share one buffer.
        let g = hub.frame().unwrap();
        assert!(Arc::ptr_eq(&f.bytes, &g.bytes));
        // The refresh guard is just a mutex — hold and release.
        drop(hub.begin_refresh());
        let _second = hub.begin_refresh();
    }

    /// Many rounds of random dirtying: the incremental path never drifts
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
