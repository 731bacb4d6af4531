//! The persistent sharded streaming runtime.
//!
//! The paper's §VI-C observes that by sketch linearity "on the modern
//! multi-core processors, sketching can be done essentially for free":
//! partition the stream any way at all, sketch each partition on its own
//! core, and the merged sketch is *bit-identical* to sequential sketching.
//! This module is the long-lived version of that remark — a DSMS needs a
//! runtime that absorbs batches continuously and answers at-all-times
//! queries, not a one-shot scatter/gather (which is just
//! [`ShardedRuntime::new`] → `push` → [`ShardedRuntime::into_merged`]).
//!
//! ```text
//!  ShardedRuntime: the write side        ┌─ data ring ─▶ worker 0 ─┐
//!  push_batch (partition) ───────────────┼─ data ring ─▶ worker 1 ─┼─ each applies runs to its  ⇠ recycle
//!                                        └─ data ring ─▶ worker 2 ─┘  shard core (E₀, E₁, E₂)     rings
//!  QueryHandle: the read side (the runtime derefs to it), one cache lock:
//!  merged() ── lock shard s, apply what is queued below its floor, merge it in ──▶ Arc<E₀ ⊕ E₁ ⊕ E₂>
//!  refresh() ── adopts that Arc, or the kept one if it is recent enough ──▶ every replica
//!  fresh read ── lock shards 0…S−1 in order, catch each up, keep every lock ──▶ an answer of the parts
//!  catch_up() ── lock shard s, apply what is queued below its floor, let go ──▶ (a SYNC)
//! ```
//!
//! Two design decisions (see `DESIGN.md` §4h; the ledger's `stream.*`
//! rows measure both):
//!
//! * **Transport** — each shard lane is a pair of bounded rings, each a
//!   `Mutex<VecDeque>` with two `Condvar`s: a *data* ring carrying batch
//!   buffers (keys plus an offered count, no command enum) to the shard,
//!   and a reverse *recycle* ring returning emptied buffers to the
//!   producer. Steady-state ingest therefore performs **zero heap
//!   allocations per batch** ([`QueryHandle::pool_stats`] proves it). A
//!   batch carries hundreds of keys or more, so one short lock per push or
//!   pop is noise beside the sketch work, and an idle worker sleeps on its
//!   data ring until a push or a hang-up wakes it. The rings are
//!   **bounded** (`queue_depth` batches each), and a run coalesces what
//!   is queued up to at most [`RUN_TUPLES`] tuples plus one batch, so a
//!   shard holds `O(queue_depth · max(batch, RUN_TUPLES))` tuples in
//!   buffers however fast the producer is (see `ShardCore::apply_run`).
//! * **Queries** — a shard's summary, the consumer ends of its rings and
//!   its run buffer are one *shard core* behind a mutex, under which the
//!   worker applies each run. A query takes the shard locks in shard
//!   order under the cache lock, applies what is still queued below its
//!   floor itself (the same `apply_run`, so the same runs and bits, on the
//!   core that then reads them) and keeps every lock while it reads the
//!   live summaries, the parts. No request, no copy of a shard, no
//!   wake-up to wait for; a worker only ever takes its own shard's lock,
//!   so the locks cannot deadlock. [`merged`](QueryHandle::merged) builds
//!   the parts' merge with [`sss_core::fold`], and the cache
//!   ([`snapshot`](crate::snapshot)) serves it until a shard's
//!   accepted-batch count moves past it, lent as an `Arc`: a repeated
//!   query with no intervening ingest copies nothing. A rebuild releases
//!   the stale merge before it catches the shards up. An F-AGMS sketch
//!   keeps its rows behind an `Arc` and copies them on a write only while
//!   a reader still holds them, so with no reader holding the last merge
//!   a one-shard `merged()` applies the queued keys in place and its fold
//!   shares the rows: it copies no row, and a composite's F₂ then reads
//!   the `Σ c²` its counted writes kept, exact below their weight guard
//!   (see `sss_sketch::fagms`), in O(depth). A shard that writes while a
//!   reader holds its rows (a worker that wins the race to a pushed batch,
//!   a replica's merge) copies them once. A [`ReadReplica`]
//!   holds that `Arc` itself, and replicas that refresh to one version
//!   share it by pointer. A fresh answer asks the parts instead, through
//!   the capability's read of a sum
//!   ([`JoinQuery::self_join_estimate_of_sum`] and its siblings): the
//!   merge's answer, bit for bit, with no cache install — and, for the
//!   join counters (summed, §VI-C) and a composite's small parts (merged
//!   into scratch), no fold either. [`catch_up`](QueryHandle::catch_up)
//!   applies what every shard has accepted, one shard lock at a time, and
//!   reads nothing.
//!
//! * [`push`](ShardedRuntime::push) and
//!   [`push_loaned`](ShardedRuntime::push_loaned) block when a ring is
//!   full, so backpressure propagates to the source and nothing is
//!   dropped. Each wakes a sleeping worker once the kept keys it and the
//!   pushes before it left on the ring since the last wake reach its
//!   batch's offered count: every batch at `p = 1`, about every `1/p`-th
//!   behind a door, so a sampled worker wakes to one coalesced run rather
//!   than to each ≈ `p`-sized batch, and a read applies what is still
//!   queued itself. A full ring always wakes it;
//!   [`push_loaned_deferred`](ShardedRuntime::push_loaned_deferred) wakes
//!   one only then, and its caller catches the shards up itself
//!   or calls [`wake_workers`](ShardedRuntime::wake_workers) once. Shedding is the paper's one mechanism: a
//!   [`Sampled`](sss_core::Sampled) prototype at one rate `p`, its coins
//!   drawn in the producer lane before the hop.
//! * [`merged`](QueryHandle::merged) reflects at least every tuple
//!   accepted before the call — the at-all-times query, without a barrier.
//! * A summary that panics, on the worker or on a query applying a run,
//!   empties its shard core, which closes the shard's rings: every later
//!   push or query needing the shard is [`StreamError::ShardDisconnected`].
//! * Every query is a [`QueryHandle`] method. The runtime holds one and
//!   derefs to it, and [`query_handle`](ShardedRuntime::query_handle)
//!   clones it so queries can run from other threads *while* the owner
//!   keeps pushing — the one write side and one read side SF-sketch
//!   (arXiv 1701.04148) argues for, with Huang–Tai–Yi (arXiv 1412.1763)
//!   continuous-tracking polling as the motivating workload.
//!
//! The runtime is generic over any [`Summary`] — join sketches and
//! heavy-hitter summaries alike, not just the backend-erased `JoinSketch`;
//! the join-query conveniences additionally require a [`JoinQuery`].
//! [`new`](ShardedRuntime::new) gives shard `i` the prototype's
//! [`for_shard(i)`](Summary::for_shard): a clone for every summary but a
//! [`Sampled`](sss_core::Sampled) front end, whose coins are re-seeded
//! from `(seed, i)` — so shards sample independently and the merged
//! sample is one Bernoulli(`p`) sample, with no per-shard setup by the
//! caller. That shard copy's [`door`](Summary::door) moves to the
//! producer: every push path tosses the shard's coins before the ring and
//! copies only kept keys, and the worker hands a run of them to
//! [`Summary::update_admitted`] with the run's offered count. The coins
//! are a function of `(seed, position)` and each shard's substream is
//! offered in order, so the kept sequence, and every bit of the merge,
//! is what a worker-side sampler would have kept. There is no second
//! constructor:
//!
//! ```compile_fail
//! use sss_core::JoinSketch;
//! use sss_stream::{RuntimeConfig, ShardedRuntime};
//! // removed: `ShardedRuntime::new` decorrelates shards itself
//! let _ = ShardedRuntime::<JoinSketch>::new_per_shard(RuntimeConfig::default(), vec![]);
//! ```
//!
//! ```compile_fail
//! fn gone(h: &sss_stream::QueryHandle<sss_core::MultiSummary>) -> usize {
//!     h.queue_occupancy() // removed: `applied_and_pending`, summed over the shards
//! }
//! ```

use crate::error::{Result, StreamError};
use crate::ring;
use crate::snapshot::{CacheStats, SnapshotCache, Stamp};
use sss_core::{fold, DistinctQuery, Estimate, JoinQuery, QuantileQuery, Summary, TopKQuery};
use sss_sampling::Door;
use sss_xi::splitmix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// How [`ShardedRuntime::push`] routes tuples to shard workers.
///
/// By linearity every policy merges to the same (bit-identical) sketch;
/// the choice only affects load balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Each batch goes, whole, to the next shard in rotation. Cheapest
    /// (no per-key work) and balanced when batches are similar in size.
    #[default]
    RoundRobin,
    /// Each key is routed by a hash of its value, so a given key always
    /// lands on the same shard. Balanced even when batch sizes vary
    /// wildly, at the cost of a per-key hash and scatter.
    Hash,
}

/// Configuration for a [`ShardedRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of shard workers (threads) to spawn.
    pub shards: usize,
    /// Bounded depth of each shard's data ring, in batches.
    pub queue_depth: usize,
    /// Tuple-routing policy.
    pub partition: Partition,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_depth: 64,
            partition: Partition::default(),
        }
    }
}

/// The most shard workers a runtime starts: each is an OS thread.
const MAX_SHARDS: usize = 256;

/// The deepest data ring a shard gets: each ring preallocates its slots.
const MAX_QUEUE_DEPTH: usize = 1 << 16;

impl RuntimeConfig {
    /// Reject configurations the runtime cannot honour, before anything
    /// is allocated or started.
    fn validate(&self) -> Result<()> {
        let invalid = |parameter, value, reason| {
            Err(StreamError::InvalidConfig {
                parameter,
                value,
                reason,
            })
        };
        match (self.shards, self.queue_depth) {
            (0, _) => invalid("shards", 0, "must be at least 1"),
            (n, _) if n > MAX_SHARDS => invalid("shards", n, "must be at most 256"),
            (_, 0) => invalid(
                "queue_depth",
                0,
                "must be at least 1 (0 would rendezvous every batch)",
            ),
            (_, d) if d > MAX_QUEUE_DEPTH => invalid("queue_depth", d, "must be at most 65536"),
            _ => Ok(()),
        }
    }
}

/// A shard's summary with the consumer ends of its lane: everything that
/// applying a run touches, so whoever holds the shard lock — the worker,
/// or a query catching the shard up — applies runs the same way.
struct ShardCore<E> {
    est: E,
    data: ring::Consumer<Batch>,
    recycle: ring::Producer<Vec<u64>>,
    /// The coalesced run; empty between runs. The shard's one buffer that
    /// grows past what a producer put in a batch.
    run: Vec<u64>,
}

/// Per-shard state shared between the producer, the worker, and queriers.
struct ShardState<E> {
    /// Batches successfully enqueued on this shard's data ring
    /// (producer-bumped, immediately after the ring push).
    accepted: AtomicU64,
    /// Offered tuples in the batches pushed onto the data ring, bumped
    /// before the push: never behind what a worker or query has applied,
    /// so `accepted_tuples − ingested` never undercounts the tuples a
    /// summary does not reflect yet.
    accepted_tuples: AtomicU64,
    /// Batches popped off the data ring, under the core lock and in the
    /// critical section that applies them: under the lock, what the
    /// summary reflects; without it, `accepted − applied` is the
    /// occupancy gauge (high water `≤ depth + 1`).
    applied: AtomicU64,
    /// Tuples offered to this shard that are applied: a batch's offered
    /// count, kept or not (the door's `seen`), bumped after
    /// `update_admitted` under the core lock, so the gauge counts work
    /// done rather than work promised.
    ingested: AtomicU64,
    /// The floor of the query waiting for or holding the core lock (at
    /// most one: queries serialize on the cache lock), else `u64::MAX`.
    /// A busy worker applies runs up to it, keeping the summary in its own
    /// cache, then leaves the lock to the query; an idle one is not waited
    /// for — the query applies the runs itself.
    query_floor: AtomicU64,
    /// `None` once the shard is dead (a summary panicked) or
    /// [`into_merged`](ShardedRuntime::into_merged) took it.
    core: Mutex<Option<ShardCore<E>>>,
}

impl<E: Summary> ShardState<E> {
    /// Lock the shard core, recovering from poison: a querier that panics
    /// in `merge_from` held the lock but only read the summary. A panic
    /// while applying never poisons it (see
    /// [`apply_next`](Self::apply_next)).
    fn lock_core(&self) -> MutexGuard<'_, Option<ShardCore<E>>> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Post `floor`, lock the core and apply what is queued below it: the
    /// summary then reflects at least the first `floor` accepted batches
    /// (unless the shard is dead). The worker yields the lock to the
    /// posted floor; an idle one is not waited for.
    fn caught_up(&self, floor: u64) -> MutexGuard<'_, Option<ShardCore<E>>> {
        let _waiting = Waiting::new(&self.query_floor, floor);
        let mut core = self.lock_core();
        while self.applied.load(Ordering::Relaxed) < floor && self.apply_next(&mut core) {}
        core
    }

    /// Under the core lock: apply the run at the head of the data ring, if
    /// one is queued. A summary that panics empties the core.
    fn apply_next(&self, core: &mut Option<ShardCore<E>>) -> bool {
        let Some(live) = core else {
            return false;
        };
        let Some(head) = live.data.try_pop() else {
            return false;
        };
        let run = AssertUnwindSafe(|| live.apply_run(head, &self.applied, &self.ingested));
        if catch_unwind(run).is_err() {
            *core = None;
            return false;
        }
        true
    }
}

/// Posts a query's floor in its shard's `query_floor` for as long as it
/// lives.
struct Waiting<'a>(&'a AtomicU64);

impl<'a> Waiting<'a> {
    fn new(query_floor: &'a AtomicU64, floor: u64) -> Self {
        query_floor.store(floor, Ordering::Release);
        Self(query_floor)
    }
}

impl Drop for Waiting<'_> {
    fn drop(&mut self) {
        self.0.store(u64::MAX, Ordering::Release);
    }
}

/// State shared by the runtime, its workers, and every [`QueryHandle`].
struct RuntimeShared<E> {
    config: RuntimeConfig,
    /// The empty estimator the shards' copies came from (schema seeds),
    /// and the zero their states fold into: the merge of no shard, which
    /// a replica opened before the first query holds.
    prototype: Arc<E>,
    shards: Vec<ShardState<E>>,
    /// The incremental snapshot cache; its mutex serializes concurrent
    /// queries from multiple handles.
    cache: Mutex<SnapshotCache<E>>,
    /// Highest `accepted − applied` any shard ever reached (≤ depth + 1).
    high_water: AtomicUsize,
    /// The [`PoolStats`] counters; only the producer bumps them.
    pool_allocations: AtomicU64,
    pool_reuses: AtomicU64,
    /// Monotonic construction timestamp — the denominator of
    /// [`QueryHandle::tuples_per_sec`].
    started: Instant,
}

impl<E: Summary> RuntimeShared<E> {
    /// Lock the snapshot cache, recovering from poison. A querier thread
    /// can panic while holding this lock (estimator `Clone`/`merge_from`
    /// run user code), but a rebuild installs its merge only once whole,
    /// so a poisoned cache is still a consistent one.
    fn lock_cache(&self) -> MutexGuard<'_, SnapshotCache<E>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What rides a data ring: the keys a lane's door kept, and how many
/// tuples were offered to get them (equal without a door).
struct Batch {
    keys: Vec<u64>,
    offered: u64,
}

/// The producer side of one shard lane: the data ring in, the recycle
/// ring back, a stack of spare (cleared) batch buffers, and the shard
/// summary's [`door`](Summary::door), if it has one.
struct IngestLane {
    data: ring::Producer<Batch>,
    recycle: ring::Consumer<Vec<u64>>,
    spare: Vec<Vec<u64>>,
    door: Option<Door>,
    /// Kept keys of the waking pushes since this lane last woke its
    /// worker: a waking push wakes it once they reach the push's offered
    /// count (see [`send_blocking`](ShardedRuntime::send_blocking)).
    unwoken: u64,
}

/// Batch-buffer pool accounting ([`QueryHandle::pool_stats`]): in
/// steady state `reuses` grows with every batch while `allocations`
/// stays at its warm-up value — the observable form of the zero
/// allocations / batch claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers allocated fresh (pool was empty — warm-up, or the worker
    /// fell so far behind that the recycle ring starved).
    pub allocations: u64,
    /// Buffers taken from the spare stack or the recycle ring.
    pub reuses: u64,
}

/// A long-lived pool of shard workers, each owning one estimator.
///
/// Created from a *prototype* estimator (a fresh, empty sketch carrying
/// the schema seeds); every shard starts from a copy of it
/// ([`Summary::for_shard`]), so all shards share the same hash functions
/// and their sketches merge exactly.
///
/// ```
/// use rand::SeedableRng;
/// use sss_core::sketch::JoinSchema;
/// use sss_stream::{RuntimeConfig, ShardedRuntime};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let schema = JoinSchema::fagms(1, 512, &mut rng);
/// let config = RuntimeConfig { shards: 4, ..Default::default() };
/// let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
/// for chunk in (0..10_000u64).collect::<Vec<_>>().chunks(256) {
///     rt.push(chunk).unwrap();
/// }
/// let merged = rt.into_merged().unwrap();
/// // Bit-identical to the sequential sketch of the same stream.
/// let mut seq = schema.sketch();
/// for k in 0..10_000u64 { seq.update(k, 1); }
/// assert_eq!(merged.raw_self_join(), seq.raw_self_join());
/// ```
pub struct ShardedRuntime<E: Summary> {
    /// The read side; the runtime derefs to it.
    query: QueryHandle<E>,
    lanes: Vec<IngestLane>,
    handles: Vec<JoinHandle<()>>,
    /// Next shard for [`Partition::RoundRobin`].
    cursor: usize,
    /// Per-shard scatter buffers for [`Partition::Hash`]; these circulate
    /// through the pool too (a filled one is pushed as-is and replaced by
    /// a recycled buffer).
    scatter: Vec<Vec<u64>>,
}

impl<E: Summary> ShardedRuntime<E> {
    /// Spawn the worker pool. `prototype` must be a fresh estimator; shard
    /// `i` starts from [`prototype.for_shard(i)`](Summary::for_shard) — a
    /// clone, except that a [`Sampled`](sss_core::Sampled) front end
    /// draws its own coins on every shard, so the union of the shards'
    /// samples is one Bernoulli(`p`) sample. A shard copy's
    /// [`door`](Summary::door) goes to the producer's lane for that shard.
    pub fn new(config: RuntimeConfig, prototype: &E) -> Result<Self> {
        config.validate()?;
        let mut lanes = Vec::with_capacity(config.shards);
        let mut watches = Vec::with_capacity(config.shards);
        let mut states = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let est = prototype.for_shard(shard);
            let (data_tx, data_rx) = ring::bounded::<Batch>(config.queue_depth);
            // The recycle ring holds every buffer that can circulate:
            // `queue_depth` in the data ring + one being applied + one
            // being filled by the producer, with headroom so a run never
            // has to drop a buffer on a full recycle ring.
            let (recycle_tx, recycle_rx) = ring::bounded::<Vec<u64>>(config.queue_depth + 4);
            lanes.push(IngestLane {
                data: data_tx,
                recycle: recycle_rx,
                spare: Vec::new(),
                door: est.door(),
                unwoken: 0,
            });
            watches.push(data_rx.watch());
            states.push(ShardState {
                accepted: AtomicU64::new(0),
                accepted_tuples: AtomicU64::new(0),
                applied: AtomicU64::new(0),
                ingested: AtomicU64::new(0),
                query_floor: AtomicU64::new(u64::MAX),
                core: Mutex::new(Some(ShardCore {
                    est,
                    data: data_rx,
                    recycle: recycle_tx,
                    run: Vec::new(),
                })),
            });
        }
        let shared = Arc::new(RuntimeShared {
            config,
            prototype: Arc::new(prototype.clone()),
            shards: states,
            cache: Mutex::new(SnapshotCache::new(config.shards)),
            high_water: AtomicUsize::new(0),
            pool_allocations: AtomicU64::new(0),
            pool_reuses: AtomicU64::new(0),
            started: Instant::now(),
        });
        let mut handles = Vec::with_capacity(config.shards);
        for (shard, watch) in watches.into_iter().enumerate() {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("sss-shard-{shard}"))
                .spawn(move || shard_worker(&worker_shared.shards[shard], &watch))
                .expect("spawning a shard worker thread");
            handles.push(handle);
        }
        Ok(Self {
            query: QueryHandle { shared },
            lanes,
            handles,
            cursor: 0,
            scatter: vec![Vec::new(); config.shards],
        })
    }

    /// A cloneable handle answering queries concurrently with ingest —
    /// valid (for cache-served queries) even after the runtime itself is
    /// gone. The runtime answers through its own handle: every query
    /// method is [`QueryHandle`]'s, reached through `Deref`.
    pub fn query_handle(&self) -> QueryHandle<E> {
        self.query.clone()
    }

    /// Take a cleared batch buffer: spare stack, then the recycle ring,
    /// then (warm-up only) a fresh allocation.
    fn take_buf(&mut self, shard: usize, hint: usize) -> Vec<u64> {
        let lane = &mut self.lanes[shard];
        let shared = &self.query.shared;
        let (count, buf) = match lane.spare.pop().or_else(|| lane.recycle.try_pop()) {
            Some(buf) => (&shared.pool_reuses, buf),
            None => (&shared.pool_allocations, Vec::with_capacity(hint)),
        };
        // Only this thread writes the counter: no read-modify-write.
        count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        buf
    }

    /// Record a successful enqueue on `shard` in the occupancy gauges.
    fn note_enqueued(&self, shard: usize) {
        let state = &self.query.shared.shards[shard];
        let accepted = state.accepted.fetch_add(1, Ordering::AcqRel) + 1;
        let occupancy = accepted.saturating_sub(state.applied.load(Ordering::Acquire)) as usize;
        self.query
            .shared
            .high_water
            .fetch_max(occupancy, Ordering::AcqRel);
    }

    /// Scatter `keys` into the per-shard hash buffers (which must be, and
    /// are left, managed by the push paths). SplitMix64 avalanches fully,
    /// so adversarially clustered keys still spread (the sketch hash
    /// families are independent of it).
    fn scatter_keys(&mut self, keys: &[u64]) {
        let shards = self.query.shared.config.shards as u64;
        for &k in keys {
            self.scatter[(splitmix64(k) % shards) as usize].push(k);
        }
    }

    /// The shard the next round-robin batch goes to.
    fn next_shard(&mut self) -> usize {
        let shard = self.cursor;
        self.cursor = (self.cursor + 1) % self.shards();
        shard
    }

    /// A pooled buffer holding the keys of `keys` that `shard`'s door
    /// admits: all of them when the shard has no door.
    fn admit_copy(&mut self, shard: usize, keys: &[u64]) -> Batch {
        let mut buf = self.take_buf(shard, keys.len());
        match &mut self.lanes[shard].door {
            Some(door) => door.admit(keys, &mut buf),
            None => buf.extend_from_slice(keys),
        }
        Batch {
            keys: buf,
            offered: keys.len() as u64,
        }
    }

    /// `keys`, compacted in place to what `shard`'s door admits.
    fn admit_owned(&mut self, shard: usize, mut keys: Vec<u64>) -> Batch {
        let offered = keys.len() as u64;
        if let Some(door) = &mut self.lanes[shard].door {
            door.retain(&mut keys);
        }
        Batch { keys, offered }
    }

    /// Enqueue a finished batch on `shard`, blocking while its ring is
    /// full. A full ring always wakes a sleeping worker. Otherwise `wake`
    /// (a waking push) wakes it once the kept keys of the waking pushes
    /// since the lane last woke it reach this batch's offered count — every
    /// batch when no door drops a key, about every `1/p`-th behind a door
    /// at rate `p`, so the worker gets one coalesced run for the lot — and
    /// a deferred push never does. A read applies what its floor covers
    /// itself, so a batch left queued is still in every answer.
    fn send_blocking(&mut self, shard: usize, batch: Batch, wake: bool) -> Result<()> {
        self.query.shared.shards[shard]
            .accepted_tuples
            .fetch_add(batch.offered, Ordering::AcqRel);
        let lane = &mut self.lanes[shard];
        let wake = wake && {
            lane.unwoken += batch.keys.len() as u64;
            lane.unwoken >= batch.offered
        };
        if wake {
            lane.unwoken = 0;
        }
        let data = &mut lane.data;
        let pushed = if wake {
            data.push(batch)
        } else {
            data.push_deferred(batch)
        };
        match pushed {
            Ok(()) => {
                self.note_enqueued(shard);
                Ok(())
            }
            Err(_) => Err(StreamError::ShardDisconnected { shard }),
        }
    }

    /// Scatter `keys` by hash and send each shard its part: the filled
    /// scatter buffer itself, compacted by the shard's door, with a pooled
    /// buffer put in its place (one copy in all).
    fn offer_scattered(&mut self, keys: &[u64], wake: bool) -> Result<()> {
        self.scatter_keys(keys);
        for shard in 0..self.shards() {
            if self.scatter[shard].is_empty() {
                continue;
            }
            let part = std::mem::take(&mut self.scatter[shard]);
            let batch = self.admit_owned(shard, part);
            self.send_blocking(shard, batch, wake)?;
            self.scatter[shard] = self.take_buf(shard, keys.len());
        }
        Ok(())
    }

    /// Borrow a cleared batch buffer from the pool — the **loan half** of
    /// the zero-copy ingest pair ([`push_loaned`](Self::push_loaned) is
    /// the other half).
    ///
    /// The buffer is drawn from the recycle ring of the shard the next
    /// `push_loaned` will target (falling back to a fresh allocation only
    /// during warm-up — [`pool_stats`](QueryHandle::pool_stats) accounts for
    /// both), so a caller that *fills* the loan in place — say, a network
    /// server decoding a wire frame's keys straight into it — extends the
    /// zero-allocations-per-batch invariant across the socket boundary:
    /// socket bytes → loaned buffer → data ring → worker → recycle ring,
    /// with no copy and no allocation in steady state.
    ///
    /// A loaned buffer must go back via `push_loaned` (possibly empty);
    /// dropping it instead is safe but shrinks the pool by one buffer.
    pub fn loan_batch_buf(&mut self, hint: usize) -> Vec<u64> {
        let shard = self.cursor;
        self.take_buf(shard, hint)
    }

    /// Enqueue a buffer obtained from
    /// [`loan_batch_buf`](Self::loan_batch_buf), **blocking** while the
    /// target ring is full. A sleeping worker is woken as by
    /// [`push`](Self::push).
    ///
    /// Under [`Partition::RoundRobin`] the buffer itself is shipped to
    /// the worker, compacted in place to what the shard's door admits —
    /// the keys are never copied after the caller wrote them. Under
    /// [`Partition::Hash`] the keys are scattered into the per-shard
    /// buffers (one copy, same as [`push`](Self::push)) and the loan
    /// returns to the pool. An empty loan just returns to the pool.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a shard's summary panicked.
    pub fn push_loaned(&mut self, batch: Vec<u64>) -> Result<()> {
        self.push_loaned_waking(batch, true)
    }

    /// [`push_loaned`](Self::push_loaned), except that a sleeping worker is
    /// not woken for the batch unless its ring is full. The caller applies
    /// what it pushed itself ([`QueryHandle::catch_up`]) or wakes the
    /// workers once for all of it ([`wake_workers`](Self::wake_workers)):
    /// a worker left asleep with a batch on its ring applies it only when
    /// the ring fills, a query catches its shard up, or the runtime shuts
    /// down.
    ///
    /// # Errors
    ///
    /// As for [`push_loaned`](Self::push_loaned).
    pub fn push_loaned_deferred(&mut self, batch: Vec<u64>) -> Result<()> {
        self.push_loaned_waking(batch, false)
    }

    /// Wake every shard worker that sleeps while its ring holds a batch:
    /// the one wake-up owed for any number of
    /// [`push_loaned_deferred`](Self::push_loaned_deferred)s.
    pub fn wake_workers(&self) {
        for lane in &self.lanes {
            lane.data.wake();
        }
    }

    fn push_loaned_waking(&mut self, mut batch: Vec<u64>, wake: bool) -> Result<()> {
        if batch.is_empty() {
            self.lanes[self.cursor].spare.push(batch);
            return Ok(());
        }
        match self.query.shared.config.partition {
            Partition::RoundRobin => {
                let shard = self.next_shard();
                let batch = self.admit_owned(shard, batch);
                self.send_blocking(shard, batch, wake)
            }
            Partition::Hash => {
                self.offer_scattered(&batch, wake)?;
                batch.clear();
                self.lanes[self.cursor].spare.push(batch);
                Ok(())
            }
        }
    }

    /// Feed one batch, **blocking** while any target shard's ring is
    /// full. Backpressure propagates to the caller; nothing is dropped.
    /// Only the keys a shard's door admits are copied onto its ring.
    ///
    /// A sleeping worker is woken once the kept keys pushed to its shard
    /// since the last wake reach this batch's offered count, or on a full
    /// ring: without a door every push wakes it, behind a door at rate
    /// `p` about every `1/p`-th does. No read waits for a worker — each
    /// applies what it covers — and [`into_merged`](Self::into_merged) or
    /// a drop applies the rest.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a shard's summary panicked.
    pub fn push(&mut self, keys: &[u64]) -> Result<()> {
        if keys.is_empty() {
            return Ok(());
        }
        match self.query.shared.config.partition {
            Partition::RoundRobin => {
                let shard = self.next_shard();
                let batch = self.admit_copy(shard, keys);
                self.send_blocking(shard, batch, true)
            }
            Partition::Hash => self.offer_scattered(keys, true),
        }
    }

    /// Shut the pool down and merge the final shard estimators through the
    /// same [`fold`] as [`merged`](QueryHandle::merged): the natural
    /// end-of-stream call, which waits for the workers to drain their
    /// rings, takes the shards and hands back an owned merge.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a shard's summary panicked.
    pub fn into_merged(mut self) -> Result<E> {
        // Dropping the lanes closes the data rings — the shutdown signal…
        self.lanes.clear();
        // …after which each worker drains its ring and exits.
        for (shard, handle) in std::mem::take(&mut self.handles).into_iter().enumerate() {
            handle
                .join()
                .map_err(|_| StreamError::ShardDisconnected { shard })?;
        }
        // Each worker left its ring drained, or its shard dead. The shards
        // are taken: a handle that needs one later finds it disconnected.
        let shared = &self.query.shared;
        let mut parts = Vec::with_capacity(shared.shards.len());
        for (shard, state) in shared.shards.iter().enumerate() {
            let live = state.lock_core().take();
            parts.push(live.ok_or(StreamError::ShardDisconnected { shard })?.est);
        }
        Ok(fold(&*shared.prototype, &parts.iter().collect::<Vec<_>>())?)
    }
}

impl<E: Summary> Drop for ShardedRuntime<E> {
    fn drop(&mut self) {
        // Hang up, then wait: workers drain their rings and exit.
        self.lanes.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<E: Summary> std::ops::Deref for ShardedRuntime<E> {
    type Target = QueryHandle<E>;

    fn deref(&self) -> &QueryHandle<E> {
        &self.query
    }
}

impl<E: Summary> std::fmt::Debug for ShardedRuntime<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("config", &self.query.shared.config)
            .field("tuples_ingested", &self.tuples_ingested())
            .field("queue_high_water", &self.queue_high_water())
            .field("pool", &self.pool_stats())
            .finish()
    }
}

/// The read side of a [`ShardedRuntime`]: every query and gauge, answered
/// through the incremental snapshot cache concurrently with the owner's
/// ingest (queries from multiple handles serialize on the cache). The
/// runtime holds one and derefs to it, so `rt.merged()` and
/// `rt.query_handle().merged()` are the same call; a clone is as cheap as
/// an `Arc`.
///
/// A handle outlives the runtime: after
/// [`into_merged`](ShardedRuntime::into_merged) (or drop) it still serves
/// queries whose cached merge is current, reads the runtime's last gauges,
/// and reports [`StreamError::ShardDisconnected`] when a shard would have
/// to be merged again.
pub struct QueryHandle<E: Summary> {
    shared: Arc<RuntimeShared<E>>,
}

impl<E: Summary> QueryHandle<E> {
    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shared.config.shards
    }

    /// The configured per-shard data-ring depth, in batches.
    pub fn queue_depth(&self) -> usize {
        self.shared.config.queue_depth
    }

    /// The highest number of batches ever enqueued-or-in-flight on any
    /// single shard — never exceeds `queue_depth + 1` (one batch may be
    /// mid-application when the ring refills).
    pub fn queue_high_water(&self) -> usize {
        self.shared.high_water.load(Ordering::Acquire)
    }

    /// Batches the shards have applied, and batches they accepted but
    /// have not yet, each summed over the shards. A worker counts a batch
    /// applied as it pops it, so the first includes the batches in flight
    /// and the second counts the queued ones: 0 once a
    /// [`catch_up`](Self::catch_up) or a query has caught every shard up.
    pub fn applied_and_pending(&self) -> (u64, u64) {
        // Applied first: accepted counts only grow, so it never trails.
        let applied = self.total(|s| &s.applied);
        (applied, self.accepted_total().saturating_sub(applied))
    }

    /// `counter` summed over the shards.
    fn total(&self, counter: fn(&ShardState<E>) -> &AtomicU64) -> u64 {
        let shards = self.shared.shards.iter();
        shards.map(|s| counter(s).load(Ordering::Acquire)).sum()
    }

    /// Tuples applied to shard sketches so far, summed over all workers.
    ///
    /// These are *offered* tuples: behind a [`door`](Summary::door) the
    /// count includes the ones it dropped, so it equals a merged
    /// [`Sampled`](sss_core::Sampled)'s `seen`. Each worker bumps its
    /// counter *after* applying a run, so this lags
    /// [`push`](ShardedRuntime::push) while batches sit in rings. After a
    /// [`merged`](Self::merged) call returns, the gauge covers every tuple
    /// accepted before it (the query catches each shard up to its floor).
    pub fn tuples_ingested(&self) -> u64 {
        self.total(|s| &s.ingested)
    }

    /// Offered tuples applied by one worker (panics if
    /// `shard >= shards()`). The spread across shards shows how well the
    /// partition policy balances the load.
    pub fn shard_tuples_ingested(&self, shard: usize) -> u64 {
        self.shared.shards[shard].ingested.load(Ordering::Acquire)
    }

    /// Merged ingest throughput gauge: offered tuples applied per second of
    /// monotonic wall-clock time since the pool was constructed
    /// ([`Instant`] captured in `new`, so system clock adjustments never
    /// skew it). Pair with [`queue_high_water`](Self::queue_high_water)
    /// when deciding whether a pipeline needs more shards or a lower
    /// sampling rate.
    pub fn tuples_per_sec(&self) -> f64 {
        let secs = self.shared.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.tuples_ingested() as f64 / secs
        } else {
            0.0
        }
    }

    /// Snapshot-cache counters: how many queries were served from cache,
    /// and how many rebuilt it from some or from all of the shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.lock_cache().stats()
    }

    /// Batch-buffer pool counters — the zero-allocations-per-batch
    /// evidence (see [`PoolStats`]).
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            allocations: self.shared.pool_allocations.load(Ordering::Relaxed),
            reuses: self.shared.pool_reuses.load(Ordering::Relaxed),
        }
    }

    /// Merge the shard estimators as of *now*: every batch accepted by
    /// [`push`](ShardedRuntime::push)/[`push_loaned`](ShardedRuntime::push_loaned)
    /// before this call is reflected, because the query applies whatever
    /// of each shard's accepted batches its worker has not yet.
    ///
    /// The runtime keeps running; this is the at-all-times query, served
    /// through the incremental snapshot cache (shards untouched since the
    /// previous query cost nothing — [`cache_stats`](Self::cache_stats)).
    /// The answer is the cache's own merge, lent behind an [`Arc`]: a hit
    /// copies nothing, and a caller that needs to mutate it clones it.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a shard must be merged again
    /// and its summary panicked or
    /// [`into_merged`](ShardedRuntime::into_merged) took it.
    pub fn merged(&self) -> Result<Arc<E>> {
        Ok(self.with_merged(&mut self.shared.lock_cache())?.0)
    }

    /// Apply every batch accepted before the call. Each shard in turn is
    /// caught up under its lock, as a query catches it up, and let go: one
    /// shard lock at a time, nothing read or merged. Once this returns,
    /// the shards reflect every tuple accepted before the call,
    /// [`tuples_ingested`](Self::tuples_ingested) counts them, and no
    /// worker need wake for them — the ingest service answers a `SYNC`
    /// with this.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a shard's summary panicked or
    /// [`into_merged`](ShardedRuntime::into_merged) took it.
    pub fn catch_up(&self) -> Result<()> {
        // Held throughout, as by every query: one posted floor per shard.
        let _cache = self.shared.lock_cache();
        for (shard, state) in self.shared.shards.iter().enumerate() {
            let floor = state.accepted.load(Ordering::Acquire);
            if state.caught_up(floor).is_none() {
                return Err(StreamError::ShardDisconnected { shard });
            }
        }
        Ok(())
    }

    /// Every shard's accepted-batch count, less `slack`: the floors a
    /// query catches the shards up to.
    fn floors(&self, slack: u64) -> Vec<u64> {
        let floor = |s: &ShardState<E>| s.accepted.load(Ordering::Acquire).saturating_sub(slack);
        self.shared.shards.iter().map(floor).collect()
    }

    /// The one read of the shards: under the cache lock the caller holds,
    /// catch every shard up to its floor in shard order, keep every shard
    /// lock, and hand `read` the prototype, the states of the shards that
    /// have applied a batch in shard order — the fold's parts — and every
    /// shard's stamp. The shard locks nest inside the cache lock in shard
    /// order, and a worker only ever takes its own, so holding them all
    /// cannot deadlock.
    fn with_parts<T>(
        &self,
        floors: &[u64],
        read: impl FnOnce(&E, &[&E], Vec<Stamp>) -> Result<T>,
    ) -> Result<T> {
        let shards = &self.shared.shards;
        let mut cores = Vec::with_capacity(shards.len());
        for (shard, (state, &floor)) in shards.iter().zip(floors).enumerate() {
            let core = state.caught_up(floor);
            if core.is_none() {
                return Err(StreamError::ShardDisconnected { shard });
            }
            cores.push(core);
        }
        let stamps: Vec<Stamp> = shards
            .iter()
            .map(|s| Stamp {
                batches: s.applied.load(Ordering::Relaxed),
                tuples: s.ingested.load(Ordering::Relaxed),
            })
            .collect();
        // A shard that has applied no batch holds no tuple: it is left
        // out rather than merged as an empty copy.
        let parts: Vec<&E> = cores
            .iter()
            .zip(&stamps)
            .filter(|&(_, stamp)| stamp.batches > 0)
            .flat_map(|(core, _)| core.as_ref())
            .map(|live| &live.est)
            .collect();
        read(&self.shared.prototype, &parts, stamps)
    }

    /// A fresh read, with the offered tuples of the state it read: `whole`
    /// of the cached merge when that covers every floor, else `sum` of the
    /// parts ([`with_parts`](Self::with_parts)) and the F₂ a read of this
    /// same state left, if one did (it may leave one). One shard is caught
    /// up to all but `max_pending` of its accepted batches, more shards to
    /// all of theirs.
    fn read_fresh<T>(
        &self,
        max_pending: u64,
        whole: impl FnOnce(&E) -> sss_core::Result<T>,
        sum: impl FnOnce(&E, &[&E], &mut Option<f64>) -> sss_core::Result<T>,
    ) -> Result<(T, u64)> {
        let slack = if self.shards() == 1 { max_pending } else { 0 };
        let mut cache = self.shared.lock_cache();
        let floors = self.floors(slack);
        if let Some((merged, stamp)) = cache.hit(&floors) {
            return Ok((whole(merged)?, stamp.tuples));
        }
        self.with_parts(&floors, |zero, parts, stamps| {
            let applied: Vec<u64> = stamps.iter().map(|s| s.batches).collect();
            let mut f2 = cache.fresh_f2(&applied);
            let answer = sum(zero, parts, &mut f2)?;
            cache.keep_fresh_f2(applied, f2);
            Ok((answer, stamps.iter().map(|s| s.tuples).sum()))
        })
    }

    /// The incremental at-all-times query, under the cache lock the caller
    /// holds, which serializes concurrent handles: the cached merge while
    /// every shard's floor is at or below what it reflects, otherwise the
    /// [`fold`] of the parts ([`with_parts`](Self::with_parts)), which the
    /// cache keeps. Returns the merge the cache shares, with what it
    /// reflects. A rebuild releases the stale merge before the shards
    /// catch up, so a shard whose rows it shared writes them in place.
    fn with_merged(&self, cache: &mut SnapshotCache<E>) -> Result<(Arc<E>, Stamp)> {
        let floors = self.floors(0);
        if let Some((merged, stamp)) = cache.hit(&floors) {
            return Ok((Arc::clone(merged), stamp));
        }
        cache.release();
        let (merged, stamps) = self.with_parts(&floors, |zero, parts, stamps| {
            Ok((fold(zero, parts)?, stamps))
        })?;
        let (merged, stamp) = cache.install(merged, stamps, &floors);
        Ok((Arc::clone(merged), stamp))
    }

    /// Sum of every shard's accepted-batch counter — the staleness
    /// yardstick of the read replicas (monotone; each shard's counter is
    /// bumped by the producer at enqueue time).
    fn accepted_total(&self) -> u64 {
        self.total(|s| &s.accepted)
    }

    /// Offered tuples pushed so far, applied or not: the frontier a
    /// replica's staleness term is measured against.
    fn accepted_tuples_total(&self) -> u64 {
        self.total(|s| &s.accepted_tuples)
    }

    /// Open a read replica (see [`ReadReplica`]). It holds the merge the
    /// cache keeps, whatever that reflects, or before the first query the
    /// prototype, the merge of no shard: opening one folds nothing, asks
    /// the cache nothing and applies no batch.
    ///
    /// # Errors
    ///
    /// None: opening reads no shard.
    pub fn read_replica(&self, max_pending: u64) -> Result<ReadReplica<E>> {
        let kept = self
            .shared
            .lock_cache()
            .lent()
            .map(|(merged, stamp)| (Arc::clone(merged), stamp));
        let (merged, stamp) =
            kept.unwrap_or_else(|| (Arc::clone(&self.shared.prototype), Stamp::default()));
        Ok(ReadReplica {
            handle: self.clone(),
            max_pending,
            merged,
            stamp,
        })
    }
}

impl<E: JoinQuery> QueryHandle<E> {
    /// Typed at-all-times self-join query: merge the shards as of now and
    /// return the merged estimator's [`Estimate`]. The error bar is
    /// computed on the *combined* sketch — by linearity the merge is
    /// bit-identical to sequential sketching, so the merged lanes carry
    /// exactly the sketch noise of the answer (per-shard error bars would
    /// measure the noise of partial streams instead).
    ///
    /// The answer is read off the shards themselves, each caught up under
    /// its lock ([`JoinQuery::self_join_estimate_of_sum`]): the merge's
    /// bits, and no cache install (see the module docs).
    ///
    /// # Errors
    ///
    /// As for [`merged`](Self::merged).
    pub fn self_join_estimate(&self) -> Result<Estimate> {
        let whole = |merged: &E| Ok(merged.self_join_estimate());
        Ok(self.read_fresh(0, whole, self_join_of_parts)?.0)
    }

    /// Typed at-all-times size-of-join query against another runtime over
    /// the same schema, with the error bar computed on the two combined
    /// sketches (see [`self_join_estimate`](Self::self_join_estimate)),
    /// both borrowed from their caches.
    ///
    /// # Errors
    ///
    /// As for [`merged`](Self::merged), or an estimator error (schema
    /// mismatch between the runtimes).
    pub fn size_of_join_estimate(&self, other: &QueryHandle<E>) -> Result<Estimate> {
        let (ours, theirs) = (self.merged()?, other.merged()?);
        ours.size_of_join_estimate(&theirs)
            .map_err(StreamError::Estimator)
    }
}

impl<E: Summary> Clone for QueryHandle<E> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<E: Summary> std::fmt::Debug for QueryHandle<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("tuples_ingested", &self.tuples_ingested())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

/// A read replica on a [`ShardedRuntime`]: the runtime's merge, held
/// behind the [`Arc`] the snapshot cache lends, with what it reflects.
///
/// At `max_pending = 0` every read is fresh: the cache's merge if that
/// covers every accepted batch, else the capability's read of the
/// caught-up shards' sum (see the module docs), so the held merge does not
/// move. Past a larger budget a read asks the held merge, and
/// [`refresh`](ReadReplica::refresh) first adopts a newer one once more
/// than `max_pending` accepted batches are past it: the kept one by
/// pointer if it is recent enough, else one rebuild under the cache lock,
/// which every replica refreshing to that version then shares.
///
/// `self_join_estimate` widens its error bar by a staleness term
/// (`staleness_variance_plugin`) grown from the tuples
/// accepted past the state it answered from, so a replica lagging behind
/// ingest reports honestly wider error bars rather than a silently stale
/// point value. [`version`](ReadReplica::version) and
/// [`pending`](ReadReplica::pending) describe the held merge, not a fresh
/// answer.
pub struct ReadReplica<E: Summary> {
    handle: QueryHandle<E>,
    /// Accepted-batch staleness tolerated before a refresh is forced.
    max_pending: u64,
    /// The merge stale reads ask, as the cache lent it.
    merged: Arc<E>,
    /// What `merged` reflects: batches (the version) and offered tuples.
    stamp: Stamp,
}

impl<E: Summary> ReadReplica<E> {
    /// Bring the held merge within `max_pending` accepted batches of the
    /// ingest frontier. Returns `true` if a newer merge was adopted. One
    /// cache lock covers the choice, so of the replicas refreshing past
    /// one version one rebuilds the merge and the rest adopt it by
    /// pointer.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShardDisconnected`] if a refresh needs a dead
    /// shard.
    pub fn refresh(&mut self) -> Result<bool> {
        let target = self.handle.accepted_total();
        if target.saturating_sub(self.stamp.batches) <= self.max_pending {
            return Ok(false);
        }
        let floor = target.saturating_sub(self.max_pending);
        let mut cache = self.handle.shared.lock_cache();
        let kept = cache
            .lent()
            .filter(|&(_, stamp)| stamp.batches >= floor)
            .map(|(merged, stamp)| (Arc::clone(merged), stamp));
        let (merged, stamp) = match kept {
            Some(kept) => kept,
            // Stamped with the batches and tuples of the shard states
            // actually merged, read under their locks.
            None => self.handle.with_merged(&mut cache)?,
        };
        if stamp.batches <= self.stamp.batches {
            return Ok(false);
        }
        self.merged = merged;
        self.stamp = stamp;
        Ok(true)
    }

    /// The merge this replica holds (as of the last refresh).
    pub fn merged(&self) -> &Arc<E> {
        &self.merged
    }

    /// Batches the held merge reflects: at least every batch accepted
    /// before it was adopted. A fresh answer adopts nothing and leaves
    /// this where it was.
    pub fn version(&self) -> u64 {
        self.stamp.batches
    }

    /// Accepted batches past the held merge right now: its staleness, not
    /// that of a fresh answer, which is caught up.
    pub fn pending(&self) -> u64 {
        self.handle
            .accepted_total()
            .saturating_sub(self.stamp.batches)
    }

    /// The staleness gauges of the state answers come from: the batches
    /// it reflects and the accepted batches past it. At `max_pending = 0`
    /// every answer is fresh and the held merge does not move, so they are
    /// the shards' [`applied_and_pending`](QueryHandle::applied_and_pending);
    /// past it, the held merge's [`version`](Self::version) and
    /// [`pending`](Self::pending).
    pub fn gauges(&self) -> (u64, u64) {
        match self.max_pending {
            0 => self.handle.applied_and_pending(),
            _ => (self.version(), self.pending()),
        }
    }

    /// One read with the offered tuples of the state it read. `in_place`,
    /// through [`QueryHandle::read_fresh`] at this replica's budget:
    /// `whole` of the cache's merge on a hit, else `sum` of the caught-up
    /// shards. Otherwise `whole` of the held merge, refreshed first.
    fn read<T>(
        &mut self,
        in_place: bool,
        whole: impl FnOnce(&E) -> sss_core::Result<T>,
        sum: impl FnOnce(&E, &[&E], &mut Option<f64>) -> sss_core::Result<T>,
    ) -> Result<(T, u64)> {
        if in_place {
            return self.handle.read_fresh(self.max_pending, whole, sum);
        }
        self.refresh()?;
        Ok((whole(&self.merged)?, self.stamp.tuples))
    }
}

/// [`JoinQuery::self_join_estimate_of_sum`], its value left in `f2` for a
/// top-k read of the same state.
fn self_join_of_parts<E: JoinQuery>(
    zero: &E,
    parts: &[&E],
    f2: &mut Option<f64>,
) -> sss_core::Result<Estimate> {
    let est = E::self_join_estimate_of_sum(zero, parts)?;
    *f2 = Some(est.value);
    Ok(est)
}

/// The staleness term of a replica's F₂ error bar. Read at `applied`
/// tuples with `pending` more accepted since, an F₂ `value` (quadratic in
/// a homogeneously growing stream) has drifted by
/// `≈ value·((1 + pending/applied)² − 1)`, priced as one standard
/// deviation: a model term, not a moment, since real streams drift slower
/// (repeated keys) or faster (novel keys). Zero when nothing is pending or
/// nothing was applied.
fn staleness_variance_plugin(value: f64, applied: u64, pending: u64) -> f64 {
    if pending == 0 || applied == 0 {
        return 0.0;
    }
    let growth = 1.0 + pending as f64 / applied as f64;
    let drift = value.abs() * (growth * growth - 1.0);
    drift * drift
}

impl<E: JoinQuery> ReadReplica<E> {
    /// Staleness-aware self-join query: fresh at `max_pending = 0` and
    /// past a larger budget (one shard caught up to `max_pending` batches
    /// behind, more shards to all of theirs), the held merge's within it.
    /// Either way the error bar widens by the staleness plug-in for the
    /// tuples pushed since the state answered from. With nothing pending
    /// it is [`QueryHandle::self_join_estimate`] on the same state, bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// As for [`refresh`](ReadReplica::refresh).
    pub fn self_join_estimate(&mut self) -> Result<Estimate> {
        let in_place = self.max_pending == 0 || self.pending() > self.max_pending;
        let whole = |merged: &E| Ok(merged.self_join_estimate());
        let (est, applied) = self.read(in_place, whole, self_join_of_parts)?;
        let pending = self.handle.accepted_tuples_total().saturating_sub(applied);
        let extra = staleness_variance_plugin(est.value, applied, pending);
        Ok(est.plus_variance(extra))
    }
}

impl<E: DistinctQuery> ReadReplica<E> {
    /// Distinct-count query ([`DistinctQuery::distinct_estimate_of_sum`]
    /// at `max_pending = 0`). No staleness term is added (there is no F₀
    /// drift bound analogous to the F₂ one): the bar is "as of the state
    /// answered from".
    ///
    /// # Errors
    ///
    /// As for [`refresh`](ReadReplica::refresh).
    pub fn distinct_estimate(&mut self) -> Result<Estimate> {
        let whole = |merged: &E| Ok(merged.distinct_estimate());
        let sum =
            |zero: &E, parts: &[&E], _: &mut Option<f64>| E::distinct_estimate_of_sum(zero, parts);
        Ok(self.read(self.max_pending == 0, whole, sum)?.0)
    }
}

impl<E: QuantileQuery> ReadReplica<E> {
    /// Quantile query: [`quantile_with_bounds`](Self::quantile_with_bounds)'s
    /// value.
    ///
    /// # Errors
    ///
    /// As for [`quantile_with_bounds`](Self::quantile_with_bounds).
    pub fn quantile(&mut self, q: f64) -> Result<f64> {
        Ok(self.quantile_with_bounds(q)?.0)
    }

    /// The `q`-quantile and its rank envelope, all three from one state
    /// ([`QuantileQuery::quantile_with_bounds_of_sum`] at
    /// `max_pending = 0`); under ingest two reads could answer from two.
    ///
    /// # Errors
    ///
    /// As for [`refresh`](ReadReplica::refresh), or an estimator error
    /// for `q ∉ [0, 1]` / an empty summary.
    pub fn quantile_with_bounds(&mut self, q: f64) -> Result<(f64, (f64, f64))> {
        let whole = |whole: &E| whole.quantile_with_bounds(q);
        let sum = |zero: &E, parts: &[&E], _: &mut Option<f64>| {
            E::quantile_with_bounds_of_sum(zero, parts, q, 0.0)
        };
        Ok(self.read(self.max_pending == 0, whole, sum)?.0)
    }
}

impl<E: TopKQuery> ReadReplica<E> {
    /// Top-k query: the `k` heaviest candidates, each with its typed
    /// frequency estimate ([`TopKQuery::top_k_of_sum`] at
    /// `max_pending = 0`, handed the F₂ a `self_join` read off the same
    /// state, if one did).
    ///
    /// # Errors
    ///
    /// As for [`refresh`](ReadReplica::refresh).
    pub fn top_k(&mut self, k: usize) -> Result<Vec<(u64, Estimate)>> {
        let sum =
            |zero: &E, parts: &[&E], f2: &mut Option<f64>| E::top_k_of_sum(zero, parts, k, f2);
        let whole = |merged: &E| Ok(merged.top_k_estimates(k));
        Ok(self.read(self.max_pending == 0, whole, sum)?.0)
    }
}

impl<E: Summary> std::fmt::Debug for ReadReplica<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadReplica")
            .field("version", &self.stamp.batches)
            .field("applied", &self.stamp.tuples)
            .field("max_pending", &self.max_pending)
            .field("pending", &self.pending())
            .finish()
    }
}

/// The most keys a run coalesces before it stops popping the ring and
/// applies: 2^16 keys are 512 KiB, a run that stays in L2 next to the
/// summary's counters. One `update_admitted` call sees fewer than this
/// plus one producer batch. The bound is on *kept* keys, the ones on the
/// ring: behind a [`door`](Summary::door) at rate `p` a run stands for
/// about `1/p` times as many offered tuples.
pub const RUN_TUPLES: usize = 1 << 16;

impl<E: Summary> ShardCore<E> {
    /// Apply `head` and what is queued behind it as one batched update, up
    /// to `RUN_TUPLES`: a lone batch from its own buffer, a longer run
    /// copied into the shard's run buffer (so a pooled buffer never grows),
    /// with the sum of the batches' offered counts. Update order is ring
    /// order, so summary state is bit-identical to batch-at-a-time applies;
    /// the sketch row kernels, which cost per *call*, are amortized. The
    /// budget bounds the run, which a producer refilling the ring would
    /// otherwise grow with the stream. `applied` is bumped per *pop*, so
    /// `accepted − applied` never counts claimed buffers as queued.
    fn apply_run(&mut self, head: Batch, applied: &AtomicU64, ingested: &AtomicU64) {
        let claim = || applied.store(applied.load(Ordering::Relaxed) + 1, Ordering::Release);
        claim();
        let Batch { keys, mut offered } = head;
        let mut next = if keys.len() < RUN_TUPLES {
            self.data.try_pop()
        } else {
            None
        };
        if next.is_none() {
            self.est.update_admitted(&keys, offered);
            self.give_back(keys);
        } else {
            self.run.extend_from_slice(&keys);
            self.give_back(keys);
            while let Some(batch) = next {
                claim();
                self.run.extend_from_slice(&batch.keys);
                offered += batch.offered;
                self.give_back(batch.keys);
                next = if self.run.len() < RUN_TUPLES {
                    self.data.try_pop()
                } else {
                    None
                };
            }
            self.est.update_admitted(&self.run, offered);
            self.run.clear();
        }
        ingested.fetch_add(offered, Ordering::AcqRel);
    }

    /// Return an applied batch's buffer to the producer's pool. A full
    /// recycle ring (only possible if the producer stopped taking buffers
    /// back) just drops it.
    fn give_back(&mut self, mut keys: Vec<u64>) {
        keys.clear();
        let _ = self.recycle.try_push(keys);
    }
}

/// The shard worker loop: apply runs off the data ring under the shard
/// lock until the producer hangs up and the ring is drained, or the shard
/// dies. The worker sleeps on the ring's [`Watch`](ring::Watch), not on
/// the shard lock, so an idle worker neither wakes nor touches that lock;
/// a query waiting for the lock gets it as soon as the shard reflects the
/// query's floor. Locks nest one way only: the shard core, then a ring.
fn shard_worker<E: Summary>(state: &ShardState<E>, watch: &ring::Watch<Batch>) {
    while watch.wait() {
        let mut core = state.lock_core();
        if core.is_none() {
            return;
        }
        if state.applied.load(Ordering::Relaxed) >= state.query_floor.load(Ordering::Acquire) {
            // A query wants the lock and the shard reflects its floor: let
            // it in before another run starts, then wait for it on the
            // lock, not on the CPU.
            drop(core);
            std::thread::yield_now();
            continue;
        }
        state.apply_next(&mut core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_core::sketch::{JoinSchema, JoinSketch};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::time::Duration;

    fn stream() -> Vec<u64> {
        (0..50_000u64).map(|i| (i * 2654435761) % 4000).collect()
    }

    #[test]
    fn staleness_plugin_scales_with_the_pending_backlog() {
        let stale = staleness_variance_plugin;
        // Nothing pending (or an empty replica): no staleness term.
        assert_eq!(stale(1e6, 10_000, 0), 0.0);
        assert_eq!(stale(1e6, 0, 10_000), 0.0);
        // 10% backlog on an F₂ estimate: drift ≈ value·(1.1² − 1) = 21%.
        let sd = stale(1e6, 100_000, 10_000).sqrt();
        assert!((sd - 0.21 * 1e6).abs() < 1e-6 * 1e6, "sd = {sd}");
        // Monotone in the backlog, and symmetric in sign of the value.
        assert!(stale(1e6, 100_000, 20_000) > stale(1e6, 100_000, 10_000));
        assert_eq!(stale(-1e6, 100_000, 10_000), stale(1e6, 100_000, 10_000));
    }

    fn sequential(schema: &JoinSchema, keys: &[u64]) -> JoinSketch {
        let mut sk = schema.sketch();
        sk.update_batch(keys);
        sk
    }

    #[test]
    fn merged_is_bit_identical_for_both_partitions() {
        let mut rng = StdRng::seed_from_u64(1);
        let schema = JoinSchema::fagms(2, 512, &mut rng);
        let s = stream();
        let seq = sequential(&schema, &s);
        for partition in [Partition::RoundRobin, Partition::Hash] {
            for shards in [1usize, 2, 4, 7] {
                let config = RuntimeConfig {
                    shards,
                    queue_depth: 8,
                    partition,
                };
                let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
                for chunk in s.chunks(997) {
                    rt.push(chunk).unwrap();
                }
                let merged = rt.into_merged().unwrap();
                assert_eq!(
                    merged.raw_self_join().to_bits(),
                    seq.raw_self_join().to_bits(),
                    "partition {partition:?}, shards {shards}"
                );
            }
        }
    }

    #[test]
    fn live_snapshot_reflects_everything_pushed_so_far() {
        let mut rng = StdRng::seed_from_u64(2);
        let schema = JoinSchema::agms(64, &mut rng);
        let s = stream();
        let config = RuntimeConfig {
            shards: 3,
            queue_depth: 4,
            partition: Partition::Hash,
        };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let half = s.len() / 2;
        for chunk in s[..half].chunks(512) {
            rt.push(chunk).unwrap();
        }
        let mid = rt.merged().unwrap();
        assert_eq!(
            mid.raw_self_join().to_bits(),
            sequential(&schema, &s[..half]).raw_self_join().to_bits(),
            "mid-stream snapshot"
        );
        // The runtime keeps absorbing tuples after the query.
        for chunk in s[half..].chunks(512) {
            rt.push(chunk).unwrap();
        }
        let end = rt.into_merged().unwrap();
        assert_eq!(
            end.raw_self_join().to_bits(),
            sequential(&schema, &s).raw_self_join().to_bits(),
            "end-of-stream merge"
        );
    }

    #[test]
    fn blocking_push_never_drops_under_a_tiny_queue() {
        let mut rng = StdRng::seed_from_u64(4);
        let schema = JoinSchema::fagms(1, 256, &mut rng);
        let config = RuntimeConfig {
            shards: 2,
            queue_depth: 1,
            partition: Partition::Hash,
        };
        let s = stream();
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        for chunk in s.chunks(4096) {
            rt.push(chunk).unwrap();
        }
        assert!(rt.queue_high_water() <= 2);
        let merged = rt.into_merged().unwrap();
        assert_eq!(
            merged.raw_self_join().to_bits(),
            sequential(&schema, &s).raw_self_join().to_bits()
        );
    }

    #[test]
    fn empty_batches_and_degenerate_configs() {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = JoinSchema::agms(4, &mut rng);
        assert!(matches!(
            ShardedRuntime::new(
                RuntimeConfig {
                    shards: 0,
                    ..Default::default()
                },
                &schema.sketch()
            ),
            Err(StreamError::InvalidConfig {
                parameter: "shards",
                ..
            })
        ));
        assert!(matches!(
            ShardedRuntime::new(
                RuntimeConfig {
                    queue_depth: 0,
                    ..Default::default()
                },
                &schema.sketch()
            ),
            Err(StreamError::InvalidConfig {
                parameter: "queue_depth",
                ..
            })
        ));
        let mut rt = ShardedRuntime::new(RuntimeConfig::default(), &schema.sketch()).unwrap();
        rt.push(&[]).unwrap();
        assert_eq!(rt.into_merged().unwrap().raw_self_join(), 0.0);
    }

    /// The first shard count and ring depth past their bounds are refused
    /// with the value named, before a ring is allocated or a thread
    /// started; the bounds themselves pass.
    #[test]
    fn geometry_past_its_bounds_is_refused_before_anything_starts() {
        let mut rng = StdRng::seed_from_u64(6);
        let sketch = JoinSchema::agms(4, &mut rng).sketch();
        for (config, parameter, value) in [
            (
                RuntimeConfig {
                    shards: MAX_SHARDS + 1,
                    ..Default::default()
                },
                "shards",
                MAX_SHARDS + 1,
            ),
            (
                RuntimeConfig {
                    queue_depth: MAX_QUEUE_DEPTH + 1,
                    ..Default::default()
                },
                "queue_depth",
                MAX_QUEUE_DEPTH + 1,
            ),
        ] {
            match ShardedRuntime::new(config, &sketch) {
                Err(StreamError::InvalidConfig {
                    parameter: p,
                    value: v,
                    ..
                }) => assert_eq!((p, v), (parameter, value)),
                other => panic!("{parameter}: {:?}", other.map(|_| ())),
            }
        }
        let widest = RuntimeConfig {
            shards: MAX_SHARDS,
            queue_depth: MAX_QUEUE_DEPTH,
            ..Default::default()
        };
        assert!(widest.validate().is_ok());
    }

    /// The typed runtime queries answer on the combined sketch: values
    /// bit-identical to the sequential sketch's estimates, lanes intact.
    #[test]
    fn typed_estimates_answer_on_the_combined_sketch() {
        let mut rng = StdRng::seed_from_u64(7);
        let schema = JoinSchema::agms(32, &mut rng);
        let s = stream();
        let seq = sequential(&schema, &s);
        let config = RuntimeConfig {
            shards: 4,
            ..Default::default()
        };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let mut rt2 = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        for chunk in s.chunks(1234) {
            rt.push(chunk).unwrap();
            rt2.push(chunk).unwrap();
        }
        let est = rt.self_join_estimate().unwrap();
        let seq_est = seq.raw_self_join_estimate();
        assert_eq!(est.value.to_bits(), seq_est.value.to_bits());
        assert_eq!(
            est.basics, seq_est.basics,
            "merged lanes = sequential lanes"
        );
        assert!(est.variance.is_finite() && est.variance > 0.0);
        // Identical streams: the join estimate equals each self-join.
        let join = rt.size_of_join_estimate(&rt2).unwrap();
        assert_eq!(join.value.to_bits(), est.value.to_bits());
        assert!(join.chebyshev(0.9).unwrap().contains(join.value));
    }

    /// After a quiescing `merged()` call the ingest gauges are exact: the
    /// per-worker counters sum to every tuple pushed, the throughput
    /// gauge is positive, and the point-in-time occupancy is back to 0.
    #[test]
    fn ingest_counters_are_exact_after_quiesce() {
        let mut rng = StdRng::seed_from_u64(8);
        let schema = JoinSchema::fagms(1, 256, &mut rng);
        let s = stream();
        for partition in [Partition::RoundRobin, Partition::Hash] {
            let config = RuntimeConfig {
                shards: 3,
                queue_depth: 8,
                partition,
            };
            let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
            assert_eq!(rt.tuples_ingested(), 0);
            assert_eq!(rt.applied_and_pending().1, 0);
            for chunk in s.chunks(777) {
                rt.push(chunk).unwrap();
            }
            // merged() waits for each shard to reach its accepted-batch
            // floor, so by the time it returns each worker has applied
            // (and counted) everything pushed before the call.
            let _ = rt.merged().unwrap();
            assert_eq!(rt.tuples_ingested(), s.len() as u64, "{partition:?}");
            let per_shard: u64 = (0..rt.shards()).map(|i| rt.shard_tuples_ingested(i)).sum();
            assert_eq!(per_shard, s.len() as u64, "{partition:?}");
            assert!(rt.tuples_per_sec() > 0.0, "{partition:?}");
            assert_eq!(rt.applied_and_pending().1, 0, "{partition:?}: quiesced");
        }
    }

    /// One `Sampled` prototype: `new` hands every shard its own coins
    /// (`for_shard`), so correlated inclusions cannot bias the cross-shard
    /// estimator and the merged correction lands on the truth.
    #[test]
    fn one_sampled_prototype_decorrelates_sampling() {
        use sss_core::Sampled;
        let mut rng = StdRng::seed_from_u64(21);
        let schema = JoinSchema::fagms(1, 4096, &mut rng);
        let proto = Sampled::new(schema.sketch(), 0.1, &mut rng).unwrap();
        let config = RuntimeConfig {
            shards: 4,
            ..Default::default()
        };
        let mut rt = ShardedRuntime::new(config, &proto).unwrap();
        // 2000 keys × 100: F₂ = 2000 · 100² = 2·10⁷.
        let s: Vec<u64> = (0..200_000u64).map(|i| i % 2000).collect();
        for chunk in s.chunks(512) {
            rt.push(chunk).unwrap();
        }
        let merged = rt.into_merged().unwrap();
        assert!(merged.kept() < 30_000, "only ~10% sketched");
        let est = merged.self_join_estimate().value;
        assert!((est - 2e7).abs() / 2e7 < 0.15, "est = {est}");
    }

    /// An estimator that sleeps per batch, and holds its first batch until
    /// the test has met it twice at `gate`: the worker is then inside the
    /// apply with its ring empty, and stays there while the test fills it.
    #[derive(Clone)]
    struct SlowSketch {
        inner: JoinSketch,
        delay: Duration,
        armed: Arc<AtomicBool>,
        gate: Arc<Barrier>,
    }

    impl Summary for SlowSketch {
        fn update(&mut self, key: u64, count: i64) {
            self.inner.update(key, count);
        }
        fn update_batch(&mut self, keys: &[u64]) {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.gate.wait(); // the worker holds the batch it popped
                self.gate.wait(); // the test has filled the ring
            }
            std::thread::sleep(self.delay);
            self.inner.update_batch(keys);
        }
        fn merge_from(&mut self, other: &Self) -> sss_core::Result<()> {
            self.inner.merge_from(&other.inner)
        }
    }

    impl JoinQuery for SlowSketch {
        fn self_join_estimate(&self) -> Estimate {
            self.inner.raw_self_join_estimate()
        }
        fn size_of_join_estimate(&self, other: &Self) -> sss_core::Result<Estimate> {
            self.inner.raw_size_of_join_estimate(&other.inner)
        }
    }

    /// Regression for the old transport's dead `Full(Cmd::Snapshot)` arm:
    /// a query never rides the data ring, so it succeeds — exactly and
    /// promptly, applying the backlog itself — while blocking pushes keep
    /// the data ring full.
    #[test]
    fn snapshots_never_ride_the_data_queue() {
        let mut rng = StdRng::seed_from_u64(9);
        let schema = JoinSchema::fagms(1, 64, &mut rng);
        let proto = SlowSketch {
            inner: schema.sketch(),
            delay: Duration::from_millis(2),
            armed: Arc::new(AtomicBool::new(true)),
            gate: Arc::new(Barrier::new(2)),
        };
        let config = RuntimeConfig {
            shards: 1,
            queue_depth: 1,
            partition: Partition::RoundRobin,
        };
        let mut rt = ShardedRuntime::new(config, &proto).unwrap();
        let batch: Vec<u64> = (0..64u64).collect();
        // The worker holds batch 1; batch 2 fills the depth-1 ring behind
        // it, with no race: the worker cannot pop it until the gate opens.
        rt.push(&batch).unwrap();
        proto.gate.wait();
        rt.push(&batch).unwrap();
        let (_, behind) = rt.applied_and_pending();
        // Open the gate before asserting, so a failure does not leave the
        // worker waiting at it.
        proto.gate.wait();
        assert_eq!(
            behind,
            rt.queue_depth() as u64,
            "the data ring is full behind the batch in flight"
        );
        // The worker sleeps 2 ms per batch: pushing back-to-back keeps the
        // ring full, and each push waits.
        for _ in 2..40 {
            rt.push(&batch).unwrap();
        }
        assert!(rt.queue_high_water() <= rt.queue_depth() + 1);
        // A query behind the full data ring: answered, not stuck, covering
        // exactly the accepted tuples.
        let merged = rt.merged().unwrap();
        let mut expect = schema.sketch();
        for _ in 0..40 {
            expect.update_batch(&batch);
        }
        assert_eq!(
            merged.self_join_estimate().value.to_bits(),
            expect.raw_self_join().to_bits()
        );
        assert_eq!(rt.cache_stats().full_rebuilds, 1, "the one shard was dirty");
        assert_eq!(rt.applied_and_pending().1, 0, "query quiesced the shard");
    }

    /// merged() with zero batches pushed is the empty (prototype) sketch,
    /// and asking again is a pure cache hit.
    #[test]
    fn merged_with_zero_batches_is_the_empty_sketch() {
        let mut rng = StdRng::seed_from_u64(10);
        let schema = JoinSchema::fagms(2, 128, &mut rng);
        let rt = ShardedRuntime::new(
            RuntimeConfig {
                shards: 4,
                ..Default::default()
            },
            &schema.sketch(),
        )
        .unwrap();
        let empty = rt.merged().unwrap();
        assert_eq!(
            empty.raw_self_join().to_bits(),
            schema.sketch().raw_self_join().to_bits()
        );
        let again = rt.merged().unwrap();
        assert_eq!(
            again.raw_self_join().to_bits(),
            empty.raw_self_join().to_bits()
        );
        let stats = rt.cache_stats();
        assert_eq!(stats.partial_rebuilds, 1, "first query built the cache");
        assert_eq!(stats.hits, 1, "second query was served from it");
        assert_eq!(stats.shards_refreshed, 0, "no shard was ever dirty");
    }

    /// Repeated queries with no intervening ingest are cache hits,
    /// bit-identical to the first answer; new ingest dirties only the
    /// shards it touched.
    #[test]
    fn repeated_queries_hit_the_cache_bit_identically() {
        let mut rng = StdRng::seed_from_u64(11);
        let schema = JoinSchema::fagms(1, 256, &mut rng);
        let s = stream();
        let config = RuntimeConfig {
            shards: 4,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let half = s.len() / 2;
        for chunk in s[..half].chunks(512) {
            rt.push(chunk).unwrap();
        }
        let first = rt.merged().unwrap();
        for _ in 0..10 {
            let again = rt.merged().unwrap();
            assert_eq!(
                again.raw_self_join().to_bits(),
                first.raw_self_join().to_bits()
            );
        }
        let stats = rt.cache_stats();
        assert_eq!(stats.hits, 10, "all repeats served from cache");
        // The cached answer is the sequential sketch of the same prefix.
        assert_eq!(
            first.raw_self_join().to_bits(),
            sequential(&schema, &s[..half]).raw_self_join().to_bits()
        );
        // One more round-robin batch dirties exactly one shard; the
        // re-merged table still matches the sequential sketch bit for bit.
        rt.push(&s[half..half + 512]).unwrap();
        let after = rt.merged().unwrap();
        assert_eq!(
            after.raw_self_join().to_bits(),
            sequential(&schema, &s[..half + 512])
                .raw_self_join()
                .to_bits()
        );
        let stats = rt.cache_stats();
        assert_eq!(stats.partial_rebuilds, 1);
        assert_eq!(
            stats.shards_refreshed,
            config.shards as u64 + 1,
            "every shard was dirty for the first query, one for the second"
        );
    }

    /// A sibling QueryHandle works during ingest, and after
    /// `into_merged()` consumed the runtime it still serves cache-clean
    /// queries (bit-identical to the final merge) while honestly failing
    /// queries that would need a dead worker.
    #[test]
    fn query_handle_outlives_into_merged() {
        let mut rng = StdRng::seed_from_u64(12);
        let schema = JoinSchema::fagms(1, 256, &mut rng);
        let s = stream();
        let config = RuntimeConfig {
            shards: 3,
            queue_depth: 8,
            partition: Partition::Hash,
        };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let handle = rt.query_handle();
        let sibling = handle.clone();
        for chunk in s.chunks(1024) {
            rt.push(chunk).unwrap();
        }
        // Live query through the handle, concurrent with the runtime.
        let mid = handle.merged().unwrap();
        assert_eq!(
            mid.raw_self_join().to_bits(),
            sequential(&schema, &s).raw_self_join().to_bits()
        );
        assert_eq!(handle.tuples_ingested(), s.len() as u64);
        // No ingest since the last query: the final merge and a
        // post-shutdown handle query agree with it bit for bit.
        let fin = rt.into_merged().unwrap();
        assert_eq!(fin.raw_self_join().to_bits(), mid.raw_self_join().to_bits());
        let after = sibling.merged().unwrap();
        assert_eq!(
            after.raw_self_join().to_bits(),
            fin.raw_self_join().to_bits()
        );
        assert!(sibling.cache_stats().hits >= 1);

        // A handle whose cache is stale at shutdown reports the dead
        // shard instead of answering from thin air.
        let mut rt2 = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let stale = rt2.query_handle();
        rt2.push(&s[..4096]).unwrap();
        let _ = rt2.into_merged().unwrap();
        assert!(matches!(
            stale.merged(),
            Err(StreamError::ShardDisconnected { .. })
        ));
    }

    /// The runtime hosts heavy-hitter summaries too (any
    /// [`Summary`], not only join estimators): with candidate
    /// capacity ≥ distinct keys the sharded merge is identical to the
    /// sequential summary — same top-k keys, same counts, same weight.
    #[test]
    fn hosts_heavy_hitter_summaries() {
        use sss_sketch::MisraGries;
        let proto = MisraGries::new(64).unwrap();
        let s: Vec<u64> = (0..40_000u64).map(|i| (i * 2654435761) % 60).collect();
        let config = RuntimeConfig {
            shards: 4,
            queue_depth: 8,
            partition: Partition::Hash,
        };
        let mut rt = ShardedRuntime::new(config, &proto).unwrap();
        for chunk in s.chunks(997) {
            rt.push(chunk).unwrap();
        }
        // A live snapshot merge and the shutdown merge both match the
        // sequential summary exactly.
        let mid = rt.merged().unwrap();
        let merged = rt.into_merged().unwrap();
        let mut seq = MisraGries::new(64).unwrap();
        seq.offer_batch(&s);
        assert_eq!(mid.raw_top_k(10), seq.raw_top_k(10));
        assert_eq!(merged.raw_top_k(10), seq.raw_top_k(10));
        assert_eq!(merged.items_offered(), seq.items_offered());
    }

    /// A join sketch that panics on `u64::MAX`.
    #[derive(Clone)]
    struct BombSketch(JoinSketch);

    impl Summary for BombSketch {
        fn update(&mut self, key: u64, count: i64) {
            assert_ne!(key, u64::MAX, "injected worker panic");
            self.0.update(key, count);
        }
        fn update_batch(&mut self, keys: &[u64]) {
            for &k in keys {
                self.update(k, 1);
            }
        }
        fn merge_from(&mut self, other: &Self) -> sss_core::Result<()> {
            self.0.merge_from(&other.0)
        }
    }

    impl JoinQuery for BombSketch {
        fn self_join_estimate(&self) -> Estimate {
            self.0.raw_self_join_estimate()
        }
        fn size_of_join_estimate(&self, other: &Self) -> sss_core::Result<Estimate> {
            self.0.raw_size_of_join_estimate(&other.0)
        }
    }

    /// A worker that panics mid-batch: the shard dies, and every
    /// subsequent query reports [`StreamError::ShardDisconnected`] as a
    /// typed error — never a panic, never a hang.
    #[test]
    fn dead_worker_yields_typed_errors_not_panics() {
        let mut rng = StdRng::seed_from_u64(23);
        let schema = JoinSchema::fagms(1, 64, &mut rng);
        let config = RuntimeConfig {
            shards: 1,
            queue_depth: 4,
            partition: Partition::RoundRobin,
        };
        let mut rt = ShardedRuntime::new(config, &BombSketch(schema.sketch())).unwrap();
        rt.push(&[1, 2, 3]).unwrap();
        rt.push(&[u64::MAX]).unwrap();
        assert!(matches!(
            rt.merged(),
            Err(StreamError::ShardDisconnected { shard: 0 })
        ));
        // The failure is sticky but stays typed on every later query.
        assert!(matches!(
            rt.merged(),
            Err(StreamError::ShardDisconnected { shard: 0 })
        ));
        assert!(matches!(
            rt.into_merged(),
            Err(StreamError::ShardDisconnected { shard: 0 })
        ));
    }

    /// The same at two shards, where a fresh F₂ read holds every shard's
    /// lock at once: when shard 1 is dead, the handle's and a
    /// `max_pending = 0` replica's `self_join_estimate` are
    /// `ShardDisconnected { shard: 1 }`, with no hang (the case runs on a
    /// thread of its own and fails after 10 s) and no panic, and shard 0's
    /// lock is free again.
    #[test]
    fn dead_worker_yields_typed_errors_not_panics_at_two_shards() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let schema = JoinSchema::fagms(2, 64, &mut StdRng::seed_from_u64(23));
            let config = RuntimeConfig {
                shards: 2,
                queue_depth: 4,
                partition: Partition::RoundRobin,
            };
            let mut rt = ShardedRuntime::new(config, &BombSketch(schema.sketch())).unwrap();
            rt.push(&[1, 2, 3]).unwrap(); // shard 0
            let mut replica = rt.read_replica(0).unwrap();
            rt.push(&[u64::MAX]).unwrap(); // shard 1
            let dead =
                |r: Result<Estimate>| matches!(r, Err(StreamError::ShardDisconnected { shard: 1 }));
            let handle = dead(rt.self_join_estimate());
            let by_replica = dead(replica.self_join_estimate());
            let free = rt.shared.shards[0].core.try_lock().is_ok();
            done.send((handle, by_replica, free)).unwrap();
        });
        let (handle, by_replica, free) = finished
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("a read hung or panicked ({e})"));
        assert!(handle, "the handle's fresh read");
        assert!(by_replica, "the replica's fresh read");
        assert!(free, "shard 0's lock was kept");
    }

    /// A panic on the *querier* thread — estimator `Clone` runs user code
    /// inside the snapshot-cache and shard-core critical sections — used
    /// to poison their mutexes, turning every later query into a
    /// `PoisonError` panic. Regression: the query path recovers (poison
    /// swallowed, answer rebuilt from the live shards).
    #[test]
    fn poisoned_query_path_recovers_after_querier_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        struct PanickyClone {
            inner: JoinSketch,
            bomb: Arc<AtomicBool>,
        }
        impl Clone for PanickyClone {
            fn clone(&self) -> Self {
                assert!(!self.bomb.load(Ordering::SeqCst), "injected clone panic");
                Self {
                    inner: self.inner.clone(),
                    bomb: Arc::clone(&self.bomb),
                }
            }
        }
        impl Summary for PanickyClone {
            fn update(&mut self, key: u64, count: i64) {
                self.inner.update(key, count);
            }
            fn update_batch(&mut self, keys: &[u64]) {
                self.inner.update_batch(keys);
            }
            fn merge_from(&mut self, other: &Self) -> sss_core::Result<()> {
                self.inner.merge_from(&other.inner)
            }
        }

        let mut rng = StdRng::seed_from_u64(24);
        let schema = JoinSchema::fagms(1, 128, &mut rng);
        let bomb = Arc::new(AtomicBool::new(false));
        let proto = PanickyClone {
            inner: schema.sketch(),
            bomb: Arc::clone(&bomb),
        };
        let config = RuntimeConfig {
            shards: 2,
            queue_depth: 4,
            partition: Partition::RoundRobin,
        };
        let mut rt = ShardedRuntime::new(config, &proto).unwrap();
        let keys: Vec<u64> = (0..4096u64).map(|i| i % 97).collect();
        for chunk in keys.chunks(512) {
            rt.push(chunk).unwrap();
        }
        // The armed first query must rebuild, and the one clone a rebuild
        // takes is the prototype's, under the first shard's lock — the
        // panic lands on the querier, not a shard.
        bomb.store(true, Ordering::SeqCst);
        assert!(
            catch_unwind(AssertUnwindSafe(|| rt.merged())).is_err(),
            "the armed query panics on the querier thread"
        );
        bomb.store(false, Ordering::SeqCst);
        // Recovery: no poison panic, and the rebuilt answer is the
        // sequential sketch of everything pushed, bit for bit.
        let first = rt.merged().unwrap();
        let mut expect = schema.sketch();
        expect.update_batch(&keys);
        assert_eq!(
            first.inner.raw_self_join().to_bits(),
            expect.raw_self_join().to_bits()
        );
        // The read-only stats path survives too.
        let _ = rt.cache_stats();
        let fin = rt.into_merged().unwrap();
        assert_eq!(
            fin.inner.raw_self_join().to_bits(),
            first.inner.raw_self_join().to_bits()
        );
    }

    /// The zero-allocations-per-batch claim, in accounting form: over a
    /// long steady-state run the pool allocates at most its warm-up
    /// complement (bounded by ring capacities, independent of batch
    /// count) and every other batch reuses a recycled buffer.
    #[test]
    fn steady_state_ingest_reuses_pooled_buffers() {
        let mut rng = StdRng::seed_from_u64(13);
        let schema = JoinSchema::fagms(1, 128, &mut rng);
        for partition in [Partition::RoundRobin, Partition::Hash] {
            let config = RuntimeConfig {
                shards: 2,
                queue_depth: 4,
                partition,
            };
            let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
            let batch: Vec<u64> = (0..256u64).collect();
            let pushes = 2_000u64;
            for _ in 0..pushes {
                rt.push(&batch).unwrap();
            }
            let stats = rt.pool_stats();
            // Warm-up bound: every buffer that can be in flight at once —
            // ring slots + one in the worker + one per scatter/compose
            // slot — and not a buffer more, no matter how many batches ran.
            let cap = (config.shards * (config.queue_depth + 3)) as u64;
            assert!(
                stats.allocations <= cap,
                "{partition:?}: {} allocations exceed warm-up bound {cap}",
                stats.allocations
            );
            assert!(
                stats.reuses >= pushes - cap,
                "{partition:?}: steady state must reuse (reuses = {}, pushes = {pushes})",
                stats.reuses
            );
            // And the accounting didn't cost correctness.
            let merged = rt.into_merged().unwrap();
            let mut expect = schema.sketch();
            for _ in 0..pushes {
                expect.update_batch(&batch);
            }
            assert_eq!(
                merged.raw_self_join().to_bits(),
                expect.raw_self_join().to_bits(),
                "{partition:?}"
            );
        }
    }
    #[test]
    fn read_replica_matches_merged_when_fresh() {
        let mut rng = StdRng::seed_from_u64(11);
        let schema = JoinSchema::fagms(5, 512, &mut rng);
        let s = stream();
        let config = RuntimeConfig {
            shards: 3,
            queue_depth: 8,
            partition: Partition::Hash,
        };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        for chunk in s.chunks(997) {
            rt.push(chunk).unwrap();
        }
        let fat = rt.self_join_estimate().unwrap();
        // max_pending = 0: the replica refuses any staleness, so its
        // first answer reflects every accepted batch and the staleness
        // plug-in term is zero — the value AND variance are bit-identical
        // to the fat query on the same state.
        // Both were read off the shards in place: the replica still holds
        // the merge of no batch.
        let mut replica = rt.read_replica(0).unwrap();
        let fresh = replica.self_join_estimate().unwrap();
        assert_eq!(fresh.value.to_bits(), fat.value.to_bits());
        assert_eq!(fresh.variance.to_bits(), fat.variance.to_bits());
        assert_eq!(replica.version(), 0);
    }

    #[test]
    fn read_replica_refreshes_only_past_max_pending() {
        let mut rng = StdRng::seed_from_u64(12);
        let schema = JoinSchema::fagms(3, 256, &mut rng);
        let s = stream();
        let config = RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        rt.push(&s[..1024]).unwrap();
        rt.merged().unwrap();
        let mut replica = rt.read_replica(1_000_000).unwrap();
        let v0 = replica.version();
        assert!(v0 > 0, "the replica opened on the merge");
        // More ingest, but far below the staleness budget: no refresh.
        rt.push(&s[1024..2048]).unwrap();
        assert!(!replica.refresh().unwrap(), "within budget: no refresh");
        assert_eq!(replica.version(), v0);
        // A tight replica on the same runtime must refresh and see it.
        let mut tight = rt.read_replica(0).unwrap();
        assert!(tight.refresh().unwrap());
        assert!(tight.version() > v0);
        // The wide replica's answer is still served, with the staleness
        // term widening the error bar instead of a silent stale value.
        let est = replica.self_join_estimate().unwrap();
        assert!(est.variance.is_finite());
        let fresh = tight.self_join_estimate().unwrap();
        assert!(est.variance >= fresh.variance);
    }

    /// A stale replica's error bar counts every tuple pushed past its held
    /// merge, applied or still on a ring: a lone batch pushed after the
    /// merge widens the bar by exactly its tuples, however soon a worker
    /// or query gets to it. The replica opens on the merge a query left.
    #[test]
    fn a_stale_replica_counts_a_lone_batch_it_has_not_seen() {
        let mut rng = StdRng::seed_from_u64(14);
        let schema = JoinSchema::fagms(3, 256, &mut rng);
        let s = stream();
        for shards in [1, 2] {
            for partition in [Partition::RoundRobin, Partition::Hash] {
                let config = RuntimeConfig {
                    shards,
                    queue_depth: 8,
                    partition,
                };
                let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
                rt.push(&s[..1024]).unwrap();
                rt.merged().unwrap();
                let mut replica = rt.read_replica(1_000_000).unwrap();
                rt.push(&s[1024..1536]).unwrap();
                let est = replica.self_join_estimate().unwrap();
                let held = replica.merged().self_join_estimate();
                let extra = staleness_variance_plugin(held.value, 1024, 512);
                assert!(extra > 0.0);
                assert_eq!(
                    est.variance.to_bits(),
                    held.plus_variance(extra).variance.to_bits(),
                    "{shards} shards, {partition:?}"
                );
            }
        }
    }
}
