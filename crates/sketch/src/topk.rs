//! Mergeable heavy-hitter (top-k) summaries.
//!
//! * [`MisraGries`] — the deterministic counter summary of Misra & Gries
//!   (the SpaceSaving family). With `capacity` counters over a stream of
//!   `n` tuples, every reported count undershoots the true frequency by at
//!   most `n/(capacity+1)`; keys above that bar are guaranteed present.
//!   Summaries are mergeable in the sense of Agarwal et al. (*Mergeable
//!   Summaries*, PODS 2012): add counters pointwise, subtract the
//!   `(capacity+1)`-th largest, drop the non-positive remainder — the
//!   merged error bounds add. The same step is how the summary absorbs its
//!   own stream, one deduplicated chunk at a time (see its docs). This is
//!   the candidate front of `sss-core`'s `MultiSummary`, which prices the
//!   candidates with its join sketch; `sss-core` implements its `Summary`
//!   and `TopKQuery` traits over it.
//! * [`CountSketchTopK`] — Charikar–Chen–Farach-Colton top-k over an
//!   [`FagmsSketch`] (Count-Sketch): a bounded candidate set admits a key
//!   when its running point estimate beats the weakest candidate. No
//!   answer reads it any more — every served top-k is the composite's —
//!   and it keeps only its write path ([`offer`](CountSketchTopK::offer),
//!   [`offer_batch`](CountSketchTopK::offer_batch),
//!   [`merge`](CountSketchTopK::merge)), the work the benchmark ledger's
//!   `sketch.topk_update` replay row times.
//!
//! Misra–Gries reports **raw** (sample-universe) estimates; the
//! `1/p`-unbiasing for Bernoulli-sampled streams lives one layer up in
//! `sss-core::Sampled`, next to the paper's Prop. 13/14 corrections
//! for the join estimators.
//!
//! Top-k answers are a *pure function* of the summary state:
//! [`MisraGries::raw_top_k`] re-scores every candidate at query time and
//! sorts with the same descending-estimate / ascending-key tie-break as
//! [`FagmsSketch::top_k`]. That is what makes shard-merged answers
//! reproducible — whenever the merged candidate sets and counters match
//! the sequential ones (always, when `capacity` covers the distinct keys),
//! the merged top-k is bit-identical to the sequential top-k.

use crate::error::{Error, Result};
use crate::fagms::{FagmsSchema, FagmsSketch, RowCells};
use crate::fasthash::KeyHashMap;
use crate::runs::{KeyRuns, CHUNK, MULTIPLIER};
use sss_xi::{
    BucketFamily, Codec, CodecError, DefaultBucket, DefaultSign, Reader, SignFamily, Writer,
};

/// The crate-wide top-k order: `scored` sorted by estimate descending,
/// ties toward the smaller key, cut to the first `k`.
///
/// # Panics
///
/// If an estimate is NaN (no summary in this crate produces one).
pub fn ranked(mut scored: Vec<(u64, f64)>, k: usize) -> Vec<(u64, f64)> {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("estimates are finite")
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// The Misra–Gries deterministic heavy-hitter summary.
///
/// An offer adds to its key's counter, creating it if need be. Whenever the
/// offered weight crosses a multiple of [`CHUNK`](Self::CHUNK) the summary
/// *compacts* — the Agarwal et al. merge step: the `(capacity+1)`-th
/// largest counter value is subtracted from every counter and the
/// non-positive ones are dropped, leaving at most `capacity`. The
/// cumulative subtracted amount — [`error_bound`](Self::error_bound) —
/// bounds every key's undercount and never exceeds `n/(capacity+1)`, since
/// every compaction takes its cut from each of `capacity + 1` counters.
///
/// Compactions sit at **stream positions**, not call positions. Between
/// two of them only additions happen, and additions commute, so
/// [`offer_batch`](Self::offer_batch) may gather a whole chunk
/// before it compacts — provided the chunk ends where the per-key loop
/// would compact, which is why the batch path cuts its first chunk at the
/// distance to the next multiple. State is then a function of the offered
/// sequence alone: `encode()` after any re-cut of the stream into calls
/// equals `encode()` after the per-key loop.
///
/// # The counter table
///
/// The counters are one dense list of `(key, count)` entries, found
/// through an open-addressing index: Fibonacci hashing, linear probing, at
/// most half full, and a slot counts only while it carries the index's
/// current stamp, so re-indexing writes the live entries and clears
/// nothing. The list is also the batch path's deduplication table:
/// [`offer_chunks`](Self::offer_chunks) probes the index **once per
/// tuple**, bumping the key's counter and its count in the current chunk.
/// At the chunk's end one walk down the list collects every entry the
/// chunk touched, with that count, as the chunk's [`KeyRuns`], and zeroes
/// the count again. A compaction is a selection over the counts, an
/// in-place retain and a re-index of the at most `capacity` survivors.
///
/// At most `capacity + CHUNK` counters are ever held (at most `CHUNK`
/// offers, so at most `CHUNK` new keys, separate two compactions); a
/// [`merge`](Self::merge) always compacts, and
/// [`candidates`](Self::candidates) — so every top-k answer — is
/// the `capacity` largest of them.
///
/// This summary is insert-only: non-positive offer counts are ignored
/// (deletions would break the deterministic guarantee). So is an offer
/// that would take the offered weight past `u64::MAX`.
#[derive(Debug)]
pub struct MisraGries {
    table: CounterTable,
    capacity: usize,
    /// Cumulative amount subtracted by compactions and merges — the
    /// deterministic per-key undercount bound.
    offset: u64,
    offered: u64,
    /// The last chunk's runs, the batch path's buffer. Not state: never
    /// cloned, serialized or compared.
    runs: KeyRuns,
}

/// The largest `capacity`: a merge holds up to `2·(capacity + CHUNK)`
/// counters, and the index addresses them with 31 bits.
const MAX_CAPACITY: usize = 1 << 28;

/// One held counter of a [`MisraGries`] summary.
#[derive(Debug, Clone, Copy)]
struct Counter {
    key: u64,
    count: u64,
    /// Occurrences in the chunk being gathered; zero between chunks.
    in_chunk: u32,
}

/// The dense counter list and its index; see [`MisraGries`].
#[derive(Debug, Clone)]
struct CounterTable {
    counters: Vec<Counter>,
    /// A power of two, at least twice `counters.len()`. A slot holds
    /// `stamp << log2(slots.len()) | position` and is empty unless it
    /// carries the current `stamp`.
    slots: Vec<u32>,
    stamp: u32,
}

/// Index slots of an empty table.
const MIN_SLOTS: usize = 16;

impl CounterTable {
    fn new() -> Self {
        Self {
            counters: Vec::new(),
            slots: vec![0; MIN_SLOTS],
            stamp: 1,
        }
    }

    /// The bits of a slot above its position, as a live slot carries them.
    fn live(&self) -> u32 {
        self.stamp << self.slots.len().trailing_zeros()
    }

    /// The slot where `key`'s probe starts: the top bits of its Fibonacci
    /// product.
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MULTIPLIER) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// `Ok` with the position of `key`'s counter, or `Err` with the empty
    /// slot its counter would take. Keys crafted to collide cost a probe
    /// chain as long as the table is full, a bounded slowdown and never a
    /// wrong answer.
    #[inline]
    fn probe(&self, key: u64) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let live = self.live();
        let mut slot = self.home(key);
        loop {
            let entry = self.slots[slot];
            if entry & !(mask as u32) != live {
                return Err(slot);
            }
            let position = entry as usize & mask;
            if self.counters[position].key == key {
                return Ok(position);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Every held `(key, count)`, in table order.
    fn pairs(&self) -> Vec<(u64, u64)> {
        self.counters
            .iter()
            .map(|counter| (counter.key, counter.count))
            .collect()
    }

    fn get(&self, key: u64) -> Option<&Counter> {
        self.probe(key)
            .ok()
            .map(|position| &self.counters[position])
    }

    /// The position of `key`'s counter, created at zero if it is not held.
    #[inline]
    fn upsert(&mut self, key: u64) -> usize {
        match self.probe(key) {
            Ok(position) => position,
            Err(slot) => {
                let position = self.counters.len();
                self.counters.push(Counter {
                    key,
                    count: 0,
                    in_chunk: 0,
                });
                if 2 * self.counters.len() > self.slots.len() {
                    self.reindex();
                } else {
                    self.slots[slot] = self.live() | position as u32;
                }
                position
            }
        }
    }

    /// One tuple of the chunk being gathered: `key`'s counter grows by
    /// `weight` and its chunk count by one.
    #[inline]
    fn tally(&mut self, key: u64, weight: u64) {
        let position = self.upsert(key);
        let counter = &mut self.counters[position];
        counter.in_chunk += 1;
        counter.count += weight;
    }

    /// Keep the counters `keep` returns `true` for (it may change them),
    /// then re-index the survivors.
    fn retain(&mut self, keep: impl FnMut(&mut Counter) -> bool) {
        self.counters.retain_mut(keep);
        self.reindex();
    }

    /// Make room for `more` counters: one re-index, if any, now rather than
    /// one per doubling while they arrive.
    fn reserve(&mut self, more: usize) {
        let held = self.counters.len() + more;
        self.counters.reserve(more);
        if 2 * held > self.slots.len() {
            self.reindex_for(held);
        }
    }

    /// Index every counter afresh: in slots twice as many when they would
    /// be more than half full, otherwise under the next stamp — which
    /// empties every slot without writing it, until the stamp outgrows the
    /// bits above the position.
    fn reindex(&mut self) {
        self.reindex_for(self.counters.len());
    }

    /// [`reindex`](Self::reindex), sizing the slots for `held` counters.
    #[inline(never)]
    fn reindex_for(&mut self, held: usize) {
        if 2 * held > self.slots.len() {
            self.slots = vec![0; (2 * held).next_power_of_two()];
            self.stamp = 1;
        } else {
            self.stamp += 1;
            if self.stamp >> (32 - self.slots.len().trailing_zeros()) != 0 {
                self.slots.fill(0);
                self.stamp = 1;
            }
        }
        let mask = self.slots.len() - 1;
        let live = self.live();
        for (position, counter) in self.counters.iter().enumerate() {
            let mut slot = self.home(counter.key);
            while self.slots[slot] & !(mask as u32) == live {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = live | position as u32;
        }
    }
}

// A clone starts with empty runs.
impl Clone for MisraGries {
    fn clone(&self) -> Self {
        Self {
            table: self.table.clone(),
            capacity: self.capacity,
            offset: self.offset,
            offered: self.offered,
            runs: KeyRuns::default(),
        }
    }
}

// Persistence: capacity + error offset + offered weight + the held
// counters as parallel key/count columns in ascending key order, so the
// encoding of a given summary state is deterministic regardless of the
// table's entry order (snapshot proptests pin byte-for-byte stability on
// this).
//
// A body is hostile until it has passed what every state this module can
// reach satisfies: at most `capacity + CHUNK` distinct keys with positive
// counters, and `Σ counters + offset·(capacity+1) ≤ offered` — offers add
// equally to both sides' slack, and a compaction with cut `c` adds `c` to
// the offset while taking at least `c` from each of `capacity + 1`
// counters. With that, no later sum of counters can overflow before the
// offered weight does, and that one is checked where it grows.
impl Codec for MisraGries {
    fn put(&self, w: &mut Writer) {
        let mut entries = self.table.pairs();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let (keys, counts): (Vec<u64>, Vec<u64>) = entries.into_iter().unzip();
        w.usize(self.capacity);
        w.u64(self.offset);
        w.u64(self.offered);
        w.u64s(&keys);
        w.u64s(&counts);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let capacity = r.usize()?;
        if !(1..=MAX_CAPACITY).contains(&capacity) {
            return Err(CodecError::Invalid(
                "Misra-Gries capacity must be non-zero and at most 2^28",
            ));
        }
        let offset = r.u64()?;
        let offered = r.u64()?;
        let keys = r.u64s()?;
        let counts = r.u64s()?;
        if keys.len() != counts.len() || keys.len() > capacity.saturating_add(CHUNK) {
            return Err(CodecError::Invalid(
                "Misra-Gries holds matching key/count columns of at most capacity + chunk entries",
            ));
        }
        if counts.contains(&0) {
            return Err(CodecError::Invalid("Misra-Gries counters are positive"));
        }
        let accounted = u64::try_from(capacity)
            .ok()
            .and_then(|capacity| capacity.checked_add(1))
            .and_then(|shares| shares.checked_mul(offset))
            .and_then(|cut| counts.iter().try_fold(cut, |sum, &c| sum.checked_add(c)));
        if !matches!(accounted, Some(accounted) if accounted <= offered) {
            return Err(CodecError::Invalid(
                "Misra-Gries counters and offset exceed the offered weight",
            ));
        }
        let mut table = CounterTable::new();
        for (&key, &count) in keys.iter().zip(&counts) {
            let position = table.upsert(key);
            let counter = &mut table.counters[position];
            if counter.count != 0 {
                return Err(CodecError::Invalid("Misra-Gries keys are distinct"));
            }
            counter.count = count;
        }
        Ok(Self {
            table,
            capacity,
            offset,
            offered,
            runs: KeyRuns::default(),
        })
    }
}

impl MisraGries {
    /// Offered weight between two compactions — part of the summary's
    /// definition, not a knob (see the type docs).
    pub const CHUNK: usize = CHUNK;

    /// Create a summary with `capacity` counters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDimensions`] if `capacity` is zero or above 2^28.
    pub fn new(capacity: usize) -> Result<Self> {
        if !(1..=MAX_CAPACITY).contains(&capacity) {
            return Err(Error::InvalidDimensions);
        }
        Ok(Self {
            table: CounterTable::new(),
            capacity,
            offset: 0,
            offered: 0,
            runs: KeyRuns::default(),
        })
    }

    /// The configured counter budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters held right now: at most `capacity` after a compaction or a
    /// merge, at most `capacity + CHUNK` in between.
    pub fn held(&self) -> usize {
        self.table.counters.len()
    }

    /// The deterministic undercount bound: for every key,
    /// `true frequency − raw_estimate ∈ [0, error_bound]`. Bounded by
    /// `items_offered / (capacity + 1)`.
    pub fn error_bound(&self) -> u64 {
        self.offset
    }

    /// [`offer_batch`](Self::offer_batch), sharing the batch's
    /// deduplication: `keys` is cut into chunks ending on this summary's
    /// compaction positions, each chunk is gathered into the counter table
    /// one probe per tuple (see the type docs), and `each` then sees the
    /// chunk's [`KeyRuns`] — its distinct keys and their counts — next to
    /// its raw tuples, so summaries fed from the same batch (`sss-core`'s
    /// `MultiSummary`) take their order-free updates per distinct key
    /// without deduplicating again.
    pub fn offer_chunks(&mut self, keys: &[u64], mut each: impl FnMut(&KeyRuns, &[u64])) {
        let first = CHUNK - (self.offered % CHUNK as u64) as usize;
        let (head, rest) = keys.split_at(first.min(keys.len()));
        for chunk in std::iter::once(head).chain(rest.chunks(CHUNK)) {
            if chunk.is_empty() {
                continue;
            }
            // Past `u64::MAX` the per-key loop drops offers: those tuples
            // still reach `each`, but no counter.
            let room = usize::try_from(u64::MAX - self.offered).unwrap_or(usize::MAX);
            let counted = chunk.len().min(room);
            for &key in &chunk[..counted] {
                self.table.tally(key, 1);
            }
            for &key in &chunk[counted..] {
                self.table.tally(key, 0);
            }
            self.offered += counted as u64;
            self.runs.clear();
            for counter in &mut self.table.counters {
                if counter.in_chunk > 0 {
                    self.runs.push(counter.key, i64::from(counter.in_chunk));
                    counter.in_chunk = 0;
                }
            }
            if counted < chunk.len() {
                self.table.retain(|counter| counter.count > 0);
            }
            if self.offered % CHUNK as u64 == 0 {
                self.compact();
            }
            each(&self.runs, chunk);
        }
    }

    /// Subtract the `(capacity+1)`-th largest counter value from every
    /// counter and drop the non-positive ones. Leaves at most `capacity`
    /// counters (everything at or below the cut dies).
    fn compact(&mut self) {
        let counters = &mut self.table.counters;
        if counters.len() <= self.capacity {
            return;
        }
        let (_, nth, _) =
            counters.select_nth_unstable_by(self.capacity, |a, b| b.count.cmp(&a.count));
        let cut = nth.count;
        // What the selection put first is at least the cut.
        counters.truncate(self.capacity);
        self.table.retain(|counter| {
            counter.count -= cut;
            counter.count > 0
        });
        self.offset += cut;
    }

    /// Record `count` occurrences of `key`. Non-positive counts are
    /// ignored (see the type docs), and so is an offer that would take the
    /// offered weight past `u64::MAX`.
    pub fn offer(&mut self, key: u64, count: i64) {
        if count <= 0 {
            return;
        }
        let count = count as u64;
        let Some(offered) = self.offered.checked_add(count) else {
            return;
        };
        let position = self.table.upsert(key);
        self.table.counters[position].count += count;
        let crossed = offered / CHUNK as u64 != self.offered / CHUNK as u64;
        self.offered = offered;
        if crossed {
            self.compact();
        }
    }

    /// Record one occurrence of every key in the batch, leaving the state
    /// the loop `for &k in keys { self.offer(k, 1) }` leaves: compactions
    /// sit at the same stream positions however the stream is cut into
    /// calls.
    pub fn offer_batch(&mut self, keys: &[u64]) {
        self.offer_chunks(keys, |_, _| {});
    }

    /// Pointwise counter addition followed by one compaction — the
    /// Agarwal et al. merge; the undercount bounds (`offset`s) add.
    ///
    /// Into a summary that holds no counters (a runtime's empty prototype)
    /// the addition is a copy of the other table, index and all; otherwise
    /// the index is sized for both tables before the other's counters are
    /// added. Either way the counter list is in the order adding them one
    /// by one leaves it, so the compaction keeps the same counters.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] on different capacities,
    /// [`Error::WeightOverflow`] if the offered weights sum past
    /// `u64::MAX`; either way `self` is untouched.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.capacity != other.capacity {
            return Err(Error::SchemaMismatch);
        }
        self.offered = self
            .offered
            .checked_add(other.offered)
            .ok_or(Error::WeightOverflow)?;
        if self.table.counters.is_empty() {
            self.table.clone_from(&other.table);
        } else {
            self.table.reserve(other.table.counters.len());
            for counter in &other.table.counters {
                let position = self.table.upsert(counter.key);
                self.table.counters[position].count += counter.count;
            }
        }
        self.offset += other.offset;
        self.compact();
        Ok(())
    }

    /// Estimated frequency of `key` in the offered stream: its held count,
    /// an undercount by at most [`error_bound`](Self::error_bound).
    pub fn raw_estimate(&self, key: u64) -> f64 {
        self.table.get(key).map_or(0, |counter| counter.count) as f64
    }

    /// Variance proxy for one [`raw_estimate`](Self::raw_estimate), feeding
    /// the typed `Estimate` path: the undercount bound taken as two
    /// standard errors.
    pub fn raw_estimate_variance(&self) -> f64 {
        let half = self.offset as f64 / 2.0;
        half * half
    }

    /// The keys of the `capacity` largest held counters (ties toward the
    /// smaller key) — what the next compaction would keep, and a few at
    /// its cut besides.
    pub fn candidates(&self) -> Vec<u64> {
        let mut held = self.table.pairs();
        if held.len() > self.capacity {
            held.select_nth_unstable_by(self.capacity, |a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            held.truncate(self.capacity);
        }
        held.into_iter().map(|(key, _)| key).collect()
    }

    /// The estimated `k` most frequent keys: every candidate re-scored by
    /// [`raw_estimate`](Self::raw_estimate), in the crate's [`ranked`]
    /// order.
    pub fn raw_top_k(&self, k: usize) -> Vec<(u64, f64)> {
        let scored = self.candidates().into_iter();
        ranked(scored.map(|key| (key, self.raw_estimate(key))).collect(), k)
    }

    /// Total weight offered so far (the `n` of the `n/(capacity+1)`
    /// guarantee).
    pub fn items_offered(&self) -> u64 {
        self.offered
    }
}

/// Count-Sketch-backed top-k: an [`FagmsSketch`] plus a bounded candidate
/// set (Charikar et al.'s heavy-hitter algorithm), kept as a write path
/// only (see the module docs).
///
/// Every offer updates the sketch; the candidate set admits a new key when
/// its [`point_query`](FagmsSketch::point_query) estimate beats the
/// current weakest candidate, which is then evicted. A non-positive offer
/// reaches the sketch only.
#[derive(Debug)]
pub struct CountSketchTopK<S = DefaultSign, B = DefaultBucket> {
    sketch: FagmsSketch<S, B>,
    /// Candidate → running estimate (cheap bump on re-offer; refreshed
    /// from the sketch on admission and at query time).
    candidates: KeyHashMap<f64>,
    capacity: usize,
    /// Cached weakest candidate, rebuilt lazily when stale.
    min_key: u64,
    min_est: f64,
    min_dirty: bool,
    offered: u64,
    /// Buffers of the batch path. Not state: never cloned, serialized or
    /// compared, and empty until the first batch.
    scratch: Scratch,
}

/// What [`CountSketchTopK`]'s `offer_batch` reuses from call to call.
#[derive(Default)]
struct Scratch {
    runs: KeyRuns,
    cells: RowCells,
    per_row: Vec<f64>,
}

/// Not state, so `Debug` shows none of it: two trackers that passed
/// through the same states print alike, whichever path fed them.
impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scratch")
    }
}

// Manual impl, like the sketch's: the families sit behind the schema's
// `Arc`, so `S: Clone`/`B: Clone` are not required. A clone starts with
// empty scratch.
impl<S, B> Clone for CountSketchTopK<S, B> {
    fn clone(&self) -> Self {
        Self {
            sketch: self.sketch.clone(),
            candidates: self.candidates.clone(),
            capacity: self.capacity,
            min_key: self.min_key,
            min_est: self.min_est,
            min_dirty: self.min_dirty,
            offered: self.offered,
            scratch: Scratch::default(),
        }
    }
}

impl<S: SignFamily, B: BucketFamily> CountSketchTopK<S, B> {
    /// Create a top-k summary over `schema` tracking at most `capacity`
    /// candidate keys.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDimensions`] if `capacity` is zero.
    pub fn new(schema: &FagmsSchema<S, B>, capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(Error::InvalidDimensions);
        }
        Ok(Self {
            sketch: schema.sketch(),
            candidates: KeyHashMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            min_key: 0,
            min_est: f64::INFINITY,
            min_dirty: true,
            offered: 0,
            scratch: Scratch::default(),
        })
    }

    /// Recompute the weakest candidate: smallest estimate, ties broken
    /// toward the *larger* key (so the smaller key survives eviction,
    /// matching the top-k tie-break).
    fn recompute_min(&mut self) {
        self.min_est = f64::INFINITY;
        self.min_key = 0;
        for (&key, &est) in &self.candidates {
            if est < self.min_est || (est == self.min_est && key > self.min_key) {
                self.min_est = est;
                self.min_key = key;
            }
        }
        self.min_dirty = false;
    }

    /// The admission test of a non-candidate `key` whose post-update point
    /// estimate is `est`: take a free slot, or evict the weakest candidate
    /// if `est` beats it.
    fn admit(&mut self, key: u64, est: f64) {
        if self.candidates.len() < self.capacity {
            self.candidates.insert(key, est);
            self.min_dirty = true;
            return;
        }
        if self.min_dirty {
            self.recompute_min();
        }
        if est > self.min_est {
            self.candidates.remove(&self.min_key);
            self.candidates.insert(key, est);
            self.recompute_min();
        }
    }

    /// Record `count` occurrences of `key`. A non-positive count reaches
    /// the sketch only.
    pub fn offer(&mut self, key: u64, count: i64) {
        if count <= 0 {
            // The sketch absorbs the deletion; no candidate bookkeeping.
            self.sketch.update(key, count);
            return;
        }
        self.offered += count as u64;
        if let Some(est) = self.candidates.get_mut(&key) {
            *est += count as f64;
            self.sketch.update(key, count);
            if key == self.min_key {
                // The cached min grew; another candidate may now be
                // weakest. Rebuild lazily on the next admission test.
                self.min_dirty = true;
            }
            return;
        }
        // Non-candidate: the admission test needs the post-update point
        // estimate anyway, so the fused sketch op computes each row's
        // hashes once (state identical to update-then-query).
        let est = self.sketch.update_and_query(key, count);
        self.admit(key, est);
    }

    /// Every row's sign and bucket is evaluated once per *distinct* key of
    /// a chunk ([`KeyRuns`]); the tuples are then walked in arrival order,
    /// each doing exactly what [`offer`](Self::offer) does —
    /// candidate bump or counter increments, median, admission, eviction —
    /// against the memoised cells. Counters, candidates, running estimates
    /// and the min-cache therefore pass through the same states as under
    /// the per-key loop, whatever the chunking and however the stream was
    /// cut into calls.
    pub fn offer_batch(&mut self, keys: &[u64]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let Scratch {
            runs,
            cells,
            per_row,
        } = &mut scratch;
        let depth = self.sketch.schema().depth();
        per_row.resize(depth, 0.0);
        for chunk in keys.chunks(CHUNK) {
            runs.fill(chunk);
            let distinct = runs.keys();
            self.sketch.hash_cells(distinct, cells);
            let cells = cells.cells();
            self.offered += chunk.len() as u64;
            for &position in runs.index() {
                let position = usize::from(position);
                let key = distinct[position];
                let cells = &cells[position * depth..(position + 1) * depth];
                if let Some(est) = self.candidates.get_mut(&key) {
                    *est += 1.0;
                    self.sketch.bump(cells);
                    if key == self.min_key {
                        self.min_dirty = true;
                    }
                } else {
                    let est = self.sketch.bump_and_query(cells, per_row);
                    self.admit(key, est);
                }
            }
        }
        self.scratch = scratch;
    }

    /// Sketch counters add entry-wise (linearity); candidate sets union,
    /// are re-scored against the *merged* sketch, and the strongest
    /// `capacity` survive.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] on different capacities or sketch
    /// schemas.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.capacity != other.capacity {
            return Err(Error::SchemaMismatch);
        }
        self.sketch.merge(&other.sketch)?;
        let mut union: Vec<u64> = self
            .candidates
            .keys()
            .chain(other.candidates.keys())
            .copied()
            .collect();
        union.sort_unstable();
        union.dedup();
        let scored = union
            .into_iter()
            .map(|key| (key, self.sketch.point_query(key)))
            .collect();
        self.candidates = ranked(scored, self.capacity).into_iter().collect();
        self.offered += other.offered;
        self.min_dirty = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small skewed stream: key k appears 2^(9-k) times, k = 0..10.
    fn skewed_stream() -> Vec<u64> {
        let mut s = Vec::new();
        for k in 0..10u64 {
            for _ in 0..(1u64 << (9 - k)) {
                s.push(k);
            }
        }
        // Deterministic shuffle so arrival order interleaves keys.
        let mut state = 42u64;
        for i in (1..s.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.swap(i, (state >> 33) as usize % (i + 1));
        }
        s
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert_eq!(MisraGries::new(0).unwrap_err(), Error::InvalidDimensions);
        let mut rng = StdRng::seed_from_u64(1);
        let schema: FagmsSchema = FagmsSchema::new(3, 64, &mut rng);
        assert!(CountSketchTopK::new(&schema, 0).is_err());
    }

    #[test]
    fn misra_gries_is_exact_at_full_capacity() {
        let stream = skewed_stream();
        let mut mg = MisraGries::new(16).unwrap();
        mg.offer_batch(&stream);
        assert_eq!(mg.error_bound(), 0, "no compaction at capacity ≥ distinct");
        for k in 0..10u64 {
            assert_eq!(mg.raw_estimate(k), (1u64 << (9 - k)) as f64);
        }
        let top = mg.raw_top_k(3);
        assert_eq!(
            top,
            vec![(0, 512.0), (1, 256.0), (2, 128.0)],
            "exact counts in rank order"
        );
    }

    #[test]
    fn misra_gries_undercount_respects_the_deterministic_bound() {
        // Five passes over the stream: past two compaction positions.
        const PASSES: u64 = 5;
        let stream = skewed_stream().repeat(PASSES as usize);
        let n = stream.len() as u64;
        assert!(n > 2 * CHUNK as u64);
        let mut mg = MisraGries::new(3).unwrap();
        mg.offer_batch(&stream);
        assert_eq!(mg.items_offered(), n);
        assert!(mg.error_bound() > 0, "capacity 3 over 10 keys must compact");
        assert!(
            mg.error_bound() <= n / 4,
            "offset {} exceeds n/(c+1) = {}",
            mg.error_bound(),
            n / 4
        );
        // Every estimate is an undercount within the bound.
        for k in 0..10u64 {
            let truth = (PASSES << (9 - k)) as f64;
            let est = mg.raw_estimate(k);
            assert!(est <= truth, "key {k}: over-estimate {est} > {truth}");
            assert!(
                truth - est <= mg.error_bound() as f64,
                "key {k}: undercount {} > bound {}",
                truth - est,
                mg.error_bound()
            );
        }
        // The head (half the stream) is guaranteed present.
        assert!(mg.candidates().contains(&0));
    }

    /// Compaction sits at multiples of `CHUNK` offered, wherever the calls
    /// end: between two of them every distinct key is held, a query still
    /// sees `capacity` of them, and a weighted offer that jumps a multiple
    /// compacts once.
    #[test]
    fn misra_gries_compacts_at_stream_positions() {
        let keys: Vec<u64> = (0..CHUNK as u64 - 1).collect();
        let mut mg = MisraGries::new(4).unwrap();
        mg.offer_batch(&keys);
        assert_eq!(mg.held(), CHUNK - 1);
        let mut candidates = mg.candidates();
        candidates.sort_unstable();
        assert_eq!(candidates, vec![0, 1, 2, 3], "ties toward the smaller key");
        assert_eq!(mg.error_bound(), 0);
        mg.offer(7, 5);
        assert_eq!(mg.items_offered(), CHUNK as u64 + 4);
        assert_eq!((mg.held(), mg.error_bound()), (1, 1));
        assert_eq!(mg.raw_top_k(4), vec![(7, 5.0)]);
        // A merge compacts wherever it happens.
        let mut other = MisraGries::new(4).unwrap();
        other.offer_batch(&keys[..100]);
        mg.merge(&other).unwrap();
        assert!(mg.held() <= 4);
        assert_eq!(mg.items_offered(), CHUNK as u64 + 104);
    }

    #[test]
    fn misra_gries_merge_matches_sequential_at_full_capacity() {
        let stream = skewed_stream();
        let (a, b) = stream.split_at(stream.len() / 3);
        let mut left = MisraGries::new(32).unwrap();
        left.offer_batch(a);
        let mut right = MisraGries::new(32).unwrap();
        right.offer_batch(b);
        left.merge(&right).unwrap();

        let mut seq = MisraGries::new(32).unwrap();
        seq.offer_batch(&stream);
        assert_eq!(left.raw_top_k(10), seq.raw_top_k(10));
        assert_eq!(left.items_offered(), seq.items_offered());
        assert_eq!(left.error_bound(), 0);
    }

    /// When the index's stamp outgrows the bits above a slot's position,
    /// re-indexing clears the slots for real: slots written under a stamp
    /// that comes round again never read as live.
    #[test]
    fn counter_index_stamp_wrap_clears_old_slots() {
        let mut table = CounterTable::new();
        for key in 0..200 {
            table.upsert(key);
        }
        assert_eq!(table.stamp, 1);
        // The next re-index passes the last stamp this many slots allow.
        table.stamp = (1 << (32 - table.slots.len().trailing_zeros())) - 1;
        table.retain(|counter| counter.key < 3);
        assert_eq!(table.stamp, 1, "the stamp wrapped");
        for key in 200..300 {
            table.upsert(key);
        }
        for key in 0..300 {
            let held = !(3..200).contains(&key);
            assert_eq!(
                table.get(key).map(|counter| counter.key),
                held.then_some(key)
            );
        }
        assert_eq!(table.counters.len(), 103);
    }

    #[test]
    fn misra_gries_merge_requires_equal_capacities() {
        let mut a = MisraGries::new(4).unwrap();
        let b = MisraGries::new(8).unwrap();
        assert_eq!(a.merge(&b).unwrap_err(), Error::SchemaMismatch);
    }

    /// The sketches add and the candidate sets union: at full capacity a
    /// merge of two halves holds the sequential summary's counters and
    /// candidate keys.
    #[test]
    fn count_sketch_topk_merge_matches_sequential_at_full_capacity() {
        let mut rng = StdRng::seed_from_u64(9);
        let schema: FagmsSchema = FagmsSchema::new(5, 256, &mut rng);
        let stream = skewed_stream();
        let (a, b) = stream.split_at(stream.len() / 2);

        let mut left = CountSketchTopK::new(&schema, 16).unwrap();
        left.offer_batch(a);
        let mut right = CountSketchTopK::new(&schema, 16).unwrap();
        right.offer_batch(b);
        left.merge(&right).unwrap();

        let mut seq = CountSketchTopK::new(&schema, 16).unwrap();
        seq.offer_batch(&stream);

        for r in 0..5 {
            assert_eq!(left.sketch.row(r), seq.sketch.row(r), "row {r}");
        }
        let keys = |tk: &CountSketchTopK| {
            let mut keys: Vec<u64> = tk.candidates.keys().copied().collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(keys(&left), keys(&seq));
        assert_eq!(keys(&seq), (0..10).collect::<Vec<u64>>());
        assert_eq!(left.offered, seq.offered);
    }

    #[test]
    fn count_sketch_topk_merge_rejects_mismatched_schemas() {
        let mut rng = StdRng::seed_from_u64(11);
        let s1: FagmsSchema = FagmsSchema::new(3, 64, &mut rng);
        let s2: FagmsSchema = FagmsSchema::new(3, 64, &mut rng);
        let mut a = CountSketchTopK::new(&s1, 4).unwrap();
        let b = CountSketchTopK::new(&s2, 4).unwrap();
        assert_eq!(a.merge(&b).unwrap_err(), Error::SchemaMismatch);
        // Capacity mismatch is structural too.
        let c = CountSketchTopK::new(&s1, 8).unwrap();
        assert_eq!(a.merge(&c).unwrap_err(), Error::SchemaMismatch);
    }

    #[test]
    fn candidate_set_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(13);
        let schema: FagmsSchema = FagmsSchema::new(4, 128, &mut rng);
        let mut tk = CountSketchTopK::new(&schema, 8).unwrap();
        // 1000 distinct keys, one occurrence each.
        let keys: Vec<u64> = (0..1000u64).collect();
        tk.offer_batch(&keys);
        assert!(tk.candidates.len() <= 8);
        let mut mg = MisraGries::new(8).unwrap();
        mg.offer_batch(&keys);
        assert!(mg.candidates().len() <= 8);
    }
}
