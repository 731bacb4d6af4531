//! Key runs: one chunk of a batch, split into its distinct keys.
//!
//! On skewed streams most tuples of a batch repeat a key already seen a
//! few hundred tuples earlier (half of every 2048 keys at Zipf(1.1)).
//! Everything a summary computes from the *key alone* — its sign and
//! bucket hashes, its HyperLogLog register — needs computing once per
//! distinct key. [`KeyRuns`] is that split for one chunk: the distinct
//! keys and how often each occurred, as [`MisraGries`](crate::MisraGries)
//! gathered them in its counter table for the summaries fed from the same
//! batch, each of which is indifferent to their order.

/// Tuples per chunk. Small enough that the counter table, the runs and a
/// consumer's per-key scratch stay cache-resident, large enough that a
/// skewed stream repeats itself inside one chunk. Not a knob: it is also
/// the distance between two [`MisraGries`](crate::MisraGries) compactions,
/// which makes it part of that summary's definition.
pub(crate) const CHUNK: usize = 2048;

/// One chunk of a key batch, split into its distinct keys; see the module
/// docs. Holds the most recently gathered chunk; the buffer is reused from
/// chunk to chunk.
#[derive(Debug, Default)]
pub struct KeyRuns {
    items: Vec<(u64, i64)>,
}

impl KeyRuns {
    /// `(key, occurrences)` for every distinct key, in no promised order —
    /// the shape the counted batch kernels take.
    pub fn items(&self) -> &[(u64, i64)] {
        &self.items
    }

    /// Start a chunk with no keys.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    /// Append a distinct key of the chunk and its occurrences.
    pub(crate) fn push(&mut self, key: u64, occurrences: i64) {
        self.items.push((key, occurrences));
    }
}
