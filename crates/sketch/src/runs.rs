//! Key runs: one chunk of a batch, split into its distinct keys.
//!
//! On skewed streams most tuples of a batch repeat a key already seen a
//! few hundred tuples earlier (half of every 2048 keys at Zipf(1.1)).
//! Everything a summary computes from the *key alone* — its sign and
//! bucket hashes, its HyperLogLog register — needs computing once per
//! distinct key; only decisions that depend on arrival order need the
//! tuples. [`KeyRuns`] is that split for one chunk: the distinct keys, how
//! often each occurred, and for every tuple the position of its key among
//! the distinct ones.
//!
//! Two writers fill it. [`CountSketchTopK`](crate::CountSketchTopK)
//! deduplicates each chunk here ([`KeyRuns::fill`]), because its per-tuple
//! decisions need the positions. [`MisraGries`](crate::MisraGries) already
//! probes its own counter table once per tuple, so it pushes the distinct
//! keys and counts it gathered there, without positions, and hands them to
//! the summaries `sss-core`'s `MultiSummary` feeds from the same batch —
//! each of which is indifferent to the order of the distinct keys.

/// Tuples per chunk. Small enough that the table, the runs and a consumer's
/// per-key scratch stay cache-resident, large enough that a skewed stream
/// repeats itself inside one chunk. Not a knob: it is also the distance
/// between two [`MisraGries`](crate::MisraGries) compactions, which makes it
/// part of that summary's definition.
pub(crate) const CHUNK: usize = 2048;

/// Table slots: twice the chunk, so the load factor never exceeds one half.
const SLOTS: usize = 2 * CHUNK;
const SLOT_BITS: u32 = SLOTS.trailing_zeros();

/// Low bits of a slot hold a position among the distinct keys (`< CHUNK`);
/// the bits above hold the stamp of the chunk that wrote it.
const POSITION_BITS: u32 = CHUNK.trailing_zeros();
const POSITION_MASK: u32 = (1 << POSITION_BITS) - 1;
const STAMP_LIMIT: u32 = 1 << (32 - POSITION_BITS);

/// Fibonacci multiplier: a key's home slot is the product's top bits.
pub(crate) const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// One chunk of a key batch, split into its distinct keys; see the module
/// docs.
///
/// Holds the most recently filled chunk. The buffers are reused from
/// chunk to chunk: the open-addressing table is never cleared, a slot
/// counts as empty unless it carries the current chunk's stamp.
#[derive(Debug, Default)]
pub struct KeyRuns {
    keys: Vec<u64>,
    items: Vec<(u64, i64)>,
    index: Vec<u16>,
    slots: Vec<u32>,
    stamp: u32,
}

impl KeyRuns {
    /// The chunk's distinct keys: in order of first arrival when
    /// [`CountSketchTopK`](crate::CountSketchTopK) split the chunk, in
    /// counter-table order when [`MisraGries`](crate::MisraGries) gathered
    /// it.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// `(key, occurrences)` for every distinct key, in the order of
    /// [`keys`](Self::keys) — the shape the counted batch kernels take.
    pub fn items(&self) -> &[(u64, i64)] {
        &self.items
    }

    /// For every tuple of the chunk, in arrival order, the position of its
    /// key in [`keys`](Self::keys). Filled by [`fill`](Self::fill) only.
    pub(crate) fn index(&self) -> &[u16] {
        &self.index
    }

    /// Start a chunk with no keys.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.items.clear();
        self.index.clear();
    }

    /// Append a distinct key of the chunk and its occurrences.
    pub(crate) fn push(&mut self, key: u64, occurrences: i64) {
        self.keys.push(key);
        self.items.push((key, occurrences));
    }

    /// Deduplicate one chunk (at most [`CHUNK`] tuples).
    ///
    /// Fibonacci hashing with linear probing: keys crafted to collide cost
    /// at most a chunk's worth of probes each, a bounded slowdown and never
    /// a wrong answer — the same trade Misra–Gries's counter table makes.
    pub(crate) fn fill(&mut self, chunk: &[u64]) {
        debug_assert!(chunk.len() <= CHUNK);
        self.stamp += 1;
        if self.slots.is_empty() || self.stamp == STAMP_LIMIT {
            self.slots.clear();
            self.slots.resize(SLOTS, 0);
            self.stamp = 1;
        }
        let stamp = self.stamp << POSITION_BITS;
        self.clear();
        for &key in chunk {
            let mut slot = (key.wrapping_mul(MULTIPLIER) >> (64 - SLOT_BITS)) as usize;
            let position = loop {
                let entry = self.slots[slot];
                if entry & !POSITION_MASK != stamp {
                    let position = self.keys.len();
                    self.slots[slot] = stamp | position as u32;
                    self.push(key, 0);
                    break position;
                }
                let position = (entry & POSITION_MASK) as usize;
                if self.keys[position] == key {
                    break position;
                }
                slot = (slot + 1) & (SLOTS - 1);
            };
            self.items[position].1 += 1;
            self.index.push(position as u16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rebuilt(runs: &KeyRuns) -> Vec<u64> {
        runs.index()
            .iter()
            .map(|&p| runs.keys()[p as usize])
            .collect()
    }

    #[test]
    fn runs_reproduce_the_chunk() {
        let keys: Vec<u64> = (0..3 * CHUNK as u64 + 7)
            .map(|i| i.wrapping_mul(2_654_435_761) % 300)
            .collect();
        let mut runs = KeyRuns::default();
        for chunk in keys.chunks(CHUNK) {
            runs.fill(chunk);
            assert_eq!(rebuilt(&runs), chunk);
            let mut distinct = chunk.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(runs.keys().len(), distinct.len());
            for (&key, &(item_key, count)) in runs.keys().iter().zip(runs.items()) {
                assert_eq!(key, item_key);
                assert_eq!(count as usize, chunk.iter().filter(|&&k| k == key).count());
            }
        }
    }

    #[test]
    fn colliding_keys_and_stamp_wrap_stay_exact() {
        // Multiples of the multiplier's inverse hash to products 0, 1, 2, …
        // whose top bits are all zero: every key lands on slot 0, one long
        // probe chain.
        let mut inverse = 1u64;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inverse)));
        }
        assert_eq!(MULTIPLIER.wrapping_mul(inverse), 1);
        let colliding: Vec<u64> = (0..CHUNK as u64).map(|i| i.wrapping_mul(inverse)).collect();
        let mut runs = KeyRuns::default();
        runs.fill(&colliding);
        assert_eq!(rebuilt(&runs), colliding);
        // Force the stamp to wrap: stale slots must not alias live ones.
        runs.stamp = STAMP_LIMIT - 2;
        for round in 0..4u64 {
            let chunk: Vec<u64> = (0..100).map(|i| i % 10 + round).collect();
            runs.fill(&chunk);
            assert_eq!(rebuilt(&runs), chunk);
            assert_eq!(runs.keys().len(), 10);
        }
        assert!(runs.stamp < 4);
    }
}
