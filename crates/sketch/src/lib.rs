//! # sss-sketch — sketches for join-size estimation over data streams
//!
//! Implementations of the sketching techniques referenced by *"Sketching
//! Sampled Data Streams"* (Rusu & Dobra, ICDE 2009):
//!
//! * [`agms`] — the basic **AGMS** ("tug-of-war") sketch of Alon, Matias &
//!   Szegedy: `S = Σᵢ fᵢξᵢ` with a 4-wise independent ±1 family `ξ`. A
//!   sketch is a vector of `n` such counters with independent families;
//!   estimates are means (or medians of means) of per-counter basics.
//!   Update cost is O(n) — every counter is touched by every tuple.
//! * [`fagms`] — **F-AGMS** (Fast-AGMS / Count-Sketch) of Cormode &
//!   Garofalakis: each row hashes the key to one of `width` buckets and
//!   adds `ξ(key)` there. A row behaves like averaging `width` basic AGMS
//!   estimators but costs O(1) per update; rows are combined by median.
//!   This is the sketch used in all the paper's experiments.
//! * [`countmin`] — **Count-Min** of Cormode & Muthukrishnan, included as
//!   the standard non-±1 baseline for the comparison benches.
//!
//! The three-way chain-join sketches are gone: no workload, subcommand or
//! paper result reaches them.
//!
//! ```compile_fail
//! use sss_sketch::multiway::chain_join; // removed: joins are two-way, as in the paper
//! ```
//!
//! ## Seed sharing
//!
//! Size-of-join estimation requires the two sketches to be built with the
//! *same* random families (`S = Σfᵢξᵢ`, `T = Σgᵢξᵢ`). Each sketch type
//! therefore has a *schema* object holding the seeds; sketches are created
//! from a schema and remember its identity, and cross-sketch operations
//! return [`Error::SchemaMismatch`] when given sketches from different
//! schemas.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use sss_sketch::agms::AgmsSchema;
//! use sss_sketch::Sketch;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let schema: AgmsSchema = AgmsSchema::new(800, &mut rng);
//! let mut s = schema.sketch();
//! let mut t = schema.sketch();
//! for key in 0..1000u64 {
//!     s.update(key, 1);       // relation F: each key once
//!     t.update(key % 100, 1); // relation G: 10 copies of keys 0..100
//! }
//! let est = s.size_of_join(&t).unwrap();
//! let truth = 100.0 * 10.0;   // keys 0..100 match, g-frequency 10
//! assert!((est - truth).abs() / truth < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agms;
pub mod countmin;
pub mod error;
pub mod estimate;
pub mod fagms;
mod fasthash;
pub mod hll;
pub mod kll;
mod runs;
pub mod topk;

pub use agms::{AgmsSchema, AgmsSketch};
pub use countmin::{CountMinSchema, CountMinSketch};
pub use error::{Error, Result};
pub use estimate::{Bound, Estimate};
pub use fagms::{FagmsSchema, FagmsSketch};
pub use hll::HyperLogLog;
pub use kll::KllSketch;
pub use runs::KeyRuns;
pub use topk::{CountSketchTopK, HeavyHitters, MisraGries};

/// Common behaviour of all linear sketches in this crate.
///
/// Linearity is the property that makes sketches streamable: the sketch of
/// a union (or of a weighted difference) of streams is the entry-wise
/// combination of the individual sketches.
pub trait Sketch {
    /// Add `count` occurrences of `key` (negative counts model deletions —
    /// all sketches here are turnstile-capable).
    fn update(&mut self, key: u64, count: i64);

    /// Add one occurrence of every key in the batch.
    ///
    /// Semantically `for &k in keys { self.update(k, 1) }`, and every
    /// implementation must leave **bit-identical** counter state to that
    /// loop (exact by linearity: integer counter updates commute). The
    /// sketches in this crate override the default with row-major kernels
    /// that walk the batch once per row/family, keeping the family seeds
    /// hot and evaluating the ξ polynomials several keys at a time.
    fn update_batch(&mut self, keys: &[u64]) {
        for &key in keys {
            self.update(key, 1);
        }
    }

    /// Add `count` occurrences of `key` for every `(key, count)` pair
    /// (negative counts model deletions).
    ///
    /// Same bit-identity contract as [`Sketch::update_batch`], relative to
    /// `for &(k, c) in items { self.update(k, c) }`.
    fn update_batch_counts(&mut self, items: &[(u64, i64)]) {
        for &(key, count) in items {
            self.update(key, count);
        }
    }

    /// Entry-wise merge of a sketch built over another stream fragment with
    /// the same schema.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if the sketches were not created by the
    /// same schema.
    fn merge(&mut self, other: &Self) -> Result<()>;

    /// Entry-wise subtraction: afterwards `self` summarizes the frequency
    /// *difference* `f − g` of the two streams. For the ±1 sketches the
    /// self-join estimate of the result is the squared L2 distance
    /// `Σᵢ(fᵢ−gᵢ)²` — the classic sketch-based change detector.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if the sketches were not created by the
    /// same schema.
    fn subtract(&mut self, other: &Self) -> Result<()>;

    /// Number of counters the sketch maintains (its memory footprint in
    /// units of one counter).
    fn counters(&self) -> usize;
}
