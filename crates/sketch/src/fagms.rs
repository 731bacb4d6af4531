//! F-AGMS (Fast-AGMS / Count-Sketch).
//!
//! Each of `depth` rows owns a pairwise-independent bucket hash `h` and a
//! 4-wise independent sign family `ξ`; an update adds `count·ξ(key)` to
//! bucket `h(key)` of every row — O(depth) work regardless of `width`.
//!
//! A row's self-join estimate is `Σ_b c_b²` and its size-of-join estimate
//! `Σ_b s_b·t_b`; both behave like an *average of `width` basic AGMS
//! estimators* in terms of variance, at a fraction of the update cost. Rows
//! are combined by **median**, never by mean: a row estimate concentrates
//! but is not symmetric, and the median converts row-level confidence into
//! exponentially small failure probability.
//!
//! This is the sketch used in all experiments of the paper, and its
//! hash-bucket *contention* is what produces the paper's Section VII-D
//! observation that sketching **more** data can *increase* F-AGMS error —
//! an effect reproduced by the `fig7` harness.
//!
//! # Shared rows and the kept `Σ c²`
//!
//! The counters and their kept `Σ c²` sit behind one [`Arc`], and every
//! write goes through [`Arc::make_mut`]: a clone shares them, allocating
//! nothing, and a sketch copies them only when it writes while a clone
//! still holds them. A one-shard merge (a clone of the shard's sketch) and
//! a shard's starting copy (a clone of the prototype) therefore share rows
//! instead of copying them, and a shard that writes while a reader still
//! holds its last merge copies them once. The composite's other parts do
//! the same (`kll`, `hll`, and `topk`, whose merge into an empty summary
//! owes its compaction until it is read), so a one-shard fold copies no
//! part (`tests/runtime_properties.rs::a_one_shard_fold_allocates_only_the_survivors`).
//!
//! Every write ([`FagmsSketch::update`], [`FagmsSketch::update_batch`],
//! [`FagmsSketch::update_batch_counts`], the composite's path) also keeps
//! each row's `Σ c²`: a write of `delta` onto `c` changes it by
//! `delta·(2c + delta)` ([`kernels::square_change`]), summed wrapping,
//! and the sketch adds the writes' weight `W = Σ|count|`. A row's `Σ|c|`
//! is at most `W`, so while `W < 2³¹` its `Σ c²` is below `2⁶²` and the
//! wrapped sum is exact. A kept sum below `2⁵²` has every `|c| < 2²⁶`, inside
//! [`kernels::square_sum`]'s limits, so
//! [`self_join_rows`](FagmsSketch::self_join_rows) returns the pass's
//! value, bit for bit, in O(depth). Every other state squares the rows:
//! after a merge or a decode, once `W` reaches `2³¹`, and while a kept
//! sum is at or above `2⁵²`.

use crate::error::{Error, Result};
use crate::estimate::{self, Estimate};
use rand::Rng;
use sss_xi::kernels::{self, RowHashes, RowPolys};
use sss_xi::{
    BucketFamily, Codec, CodecError, DefaultBucket, DefaultSign, Dispatch, Reader, SignFamily,
    Writer,
};
use std::sync::{Arc, OnceLock};

/// Per-row seeds: a bucket hash and a sign family.
#[derive(Debug, Clone)]
struct Row<S, B> {
    sign: S,
    bucket: B,
}

/// The shared seeds of an F-AGMS sketch: `depth` rows over `width` buckets.
pub struct FagmsSchema<S = DefaultSign, B = DefaultBucket> {
    rows: Arc<[Row<S, B>]>,
    width: usize,
    id: u64,
    /// The rows' polynomials and the width prepared for the all-rows
    /// kernels, built on the first write or point query and shared by
    /// every clone: derived from the seeds, so never printed or stored.
    hashes: Arc<OnceLock<RowHashes>>,
}

// Manual impl: cloning shares the seed Arc, so `S: Clone`/`B: Clone` are not
// required.
impl<S, B> Clone for FagmsSchema<S, B> {
    fn clone(&self) -> Self {
        Self {
            rows: Arc::clone(&self.rows),
            width: self.width,
            id: self.id,
            hashes: Arc::clone(&self.hashes),
        }
    }
}

// The seeds, the width and the identity: the prepared hashes are derived.
impl<S: std::fmt::Debug, B: std::fmt::Debug> std::fmt::Debug for FagmsSchema<S, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FagmsSchema")
            .field("rows", &self.rows)
            .field("width", &self.width)
            .field("id", &self.id)
            .finish()
    }
}

impl<S: Codec, B: Codec> Codec for Row<S, B> {
    fn put(&self, w: &mut Writer) {
        self.sign.put(w);
        self.bucket.put(w);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(Self {
            sign: S::take(r)?,
            bucket: B::take(r)?,
        })
    }
}

// Persistence: seeds + width + identity; see the AGMS impls for rationale.
impl<S: Codec, B: Codec> Codec for FagmsSchema<S, B> {
    fn put(&self, w: &mut Writer) {
        w.seq(&self.rows[..]);
        w.usize(self.width);
        w.u64(self.id);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let rows: Vec<Row<S, B>> = r.seq()?;
        let width = r.usize()?;
        if rows.is_empty() || width == 0 {
            return Err(CodecError::Invalid("F-AGMS dimensions must be non-zero"));
        }
        Ok(Self {
            rows: rows.into(),
            width,
            id: r.u64()?,
            hashes: Arc::default(),
        })
    }
}

impl<S: Codec, B: Codec> Codec for FagmsSketch<S, B> {
    fn put(&self, w: &mut Writer) {
        self.schema.put(w);
        w.i64s(&self.cells.counters);
    }

    /// A decoded sketch keeps no `Σ c²`: its reads square the rows.
    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let schema = FagmsSchema::take(r)?;
        let counters = r.i64s()?;
        if Some(counters.len()) != schema.rows.len().checked_mul(schema.width) {
            return Err(CodecError::Invalid(
                "an F-AGMS sketch has depth × width counters",
            ));
        }
        Ok(Self {
            schema,
            cells: Arc::new(Cells {
                counters,
                squares: None,
            }),
        })
    }
}

impl<S: SignFamily, B: BucketFamily> FagmsSchema<S, B> {
    /// Create a schema with the given depth (number of rows, combined by
    /// median) and width (buckets per row, the implicit averaging factor).
    ///
    /// The paper's experiments use `width` = 5000 or 10000 with a single
    /// row; depths of 3–7 are typical when confidence boosting matters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; see [`FagmsSchema::try_new`].
    pub fn new<R: Rng + ?Sized>(depth: usize, width: usize, rng: &mut R) -> Self {
        Self::try_new(depth, width, rng).expect("F-AGMS dimensions must be non-zero")
    }

    /// Size a schema for a target accuracy: with probability at least
    /// `1 − δ`, the self-join estimate is within `±ε·F₂` (and the
    /// size-of-join estimate within `±ε·√(F₂(f)·F₂(g))`).
    ///
    /// A row of `width = ⌈16/ε²⌉` buckets has variance `≤ 2F₂²/width`, so
    /// by Chebyshev it misses the `ε`-window with probability `≤ 1/8`; the
    /// median over `depth = ⌈3.6·ln(1/δ)⌉` rows then fails with
    /// probability `≤ δ` by the Chernoff bound `exp(−2·depth·(3/8)²)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε ≤ 1` and `0 < δ < 1`.
    pub fn for_accuracy<R: Rng + ?Sized>(epsilon: f64, delta: f64, rng: &mut R) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let width = (16.0 / (epsilon * epsilon)).ceil() as usize;
        let depth = ((3.6 * (1.0 / delta).ln()).ceil() as usize).max(1);
        Self::new(depth, width, rng)
    }

    /// Fallible constructor: errors when `depth == 0 || width == 0`.
    pub fn try_new<R: Rng + ?Sized>(depth: usize, width: usize, rng: &mut R) -> Result<Self> {
        if depth == 0 || width == 0 {
            return Err(Error::InvalidDimensions);
        }
        let rows: Arc<[Row<S, B>]> = (0..depth)
            .map(|_| Row {
                sign: S::random(rng),
                bucket: B::random(rng),
            })
            .collect();
        Ok(Self {
            rows,
            width,
            id: rng.random::<u64>(),
            hashes: Arc::default(),
        })
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Buckets per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The schema identity: random at construction, preserved by
    /// serialization, equal only for sketches that may merge/join.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Every row's sign and bucket polynomials, in row order, prepared
    /// with the width for the all-rows kernels: built once per schema and
    /// shared by its clones, so a write of a few keys pays for its keys.
    fn hashes(&self) -> &RowHashes {
        self.hashes.get_or_init(|| {
            let rows = self.rows.iter();
            let polys: Vec<RowPolys<'_>> = rows
                .map(|row| (row.sign.coeffs(), row.bucket.coeffs()))
                .collect();
            RowHashes::new(&polys, self.width)
        })
    }

    /// A zeroed sketch bound to this schema.
    pub fn sketch(&self) -> FagmsSketch<S, B> {
        FagmsSketch {
            schema: self.clone(),
            cells: Arc::new(Cells {
                counters: vec![0; self.rows.len() * self.width],
                squares: Some(Squares {
                    rows: vec![0; self.rows.len()],
                    weight: 0,
                }),
            }),
        }
    }
}

/// An F-AGMS sketch: `depth × width` counters.
pub struct FagmsSketch<S = DefaultSign, B = DefaultBucket> {
    schema: FagmsSchema<S, B>,
    /// Shared with clones until one of them writes: every write goes
    /// through [`Arc::make_mut`].
    cells: Arc<Cells>,
}

/// The counters of an [`FagmsSketch`] and the sums kept of them.
#[derive(Debug, Clone)]
struct Cells {
    /// The rows, row-major.
    counters: Vec<i64>,
    /// Each row's `Σ c²`, kept by the counted writes while it is exact;
    /// `None` once another write, a merge or a decode left it behind.
    squares: Option<Squares>,
}

/// Each row's `Σ c²` as the counted writes left it, wrapping, and the
/// weight `Σ|count|` of every write since the rows were zero.
#[derive(Debug, Clone)]
struct Squares {
    rows: Vec<i64>,
    weight: u64,
}

/// The kept `Σ c²` is dropped once the writes' weight reaches this: below
/// it every row's `Σ c² ≤ (Σ|c|)² < 2⁶²`, so the wrapped sums are exact.
const KEPT_WEIGHT_LIMIT: u64 = 1 << 31;

/// A kept row sum answers for the pass below this: every `|c|` is then
/// below `2²⁶` and the sum below `2⁵³`, where [`kernels::square_sum`]
/// returns the same integer.
const KEPT_SUM_LIMIT: i64 = 1 << 52;

// The state is the schema and the counters; the kept sums are derived
// from them, so two sketches of one state print alike however they got
// there.
impl<S: std::fmt::Debug, B: std::fmt::Debug> std::fmt::Debug for FagmsSketch<S, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FagmsSketch")
            .field("schema", &self.schema)
            .field("counters", &self.cells.counters)
            .finish()
    }
}

// Manual impl, like the schema's: the families sit behind `Arc`s, so a
// sketch clones without requiring `S: Clone` or `B: Clone`. The rows and
// their kept sums are shared, not copied.
impl<S, B> Clone for FagmsSketch<S, B> {
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            cells: Arc::clone(&self.cells),
        }
    }
}

impl<S: SignFamily, B: BucketFamily> FagmsSketch<S, B> {
    /// The schema this sketch was created from.
    pub fn schema(&self) -> &FagmsSchema<S, B> {
        &self.schema
    }

    /// The raw counters of row `row`.
    pub fn row(&self, row: usize) -> &[i64] {
        let w = self.schema.width;
        &self.cells.counters[row * w..(row + 1) * w]
    }

    pub(crate) fn check_schema(&self, other: &Self) -> Result<()> {
        let len = |sketch: &Self| sketch.cells.counters.len();
        if self.schema.id == other.schema.id && len(self) == len(other) {
            Ok(())
        } else {
            Err(Error::SchemaMismatch)
        }
    }

    /// Per-row self-join estimates `Σ_b c_b²`: each row's exact integer
    /// sum ([`sss_xi::kernels::square_sum`]) rounded once, which is the f64
    /// fold's every bit while the counters and sums stay in the kernel's
    /// range, and the f64 fold itself for a sketch where some row does not.
    /// The sums the counted writes kept answer in O(depth) where they can
    /// (see the module docs), with the same bits.
    pub fn self_join_rows(&self) -> Vec<f64> {
        self.self_join_rows_on(Dispatch::get())
    }

    /// [`self_join_rows`](Self::self_join_rows) on the kernel path `d`.
    fn self_join_rows_on(&self, d: Dispatch) -> Vec<f64> {
        if let Some(rows) = self.kept_rows() {
            return rows;
        }
        let counters = &self.cells.counters;
        let exact: Option<Vec<f64>> = counters
            .chunks(self.schema.width)
            .map(|row| exact_square_sum(d, row))
            .collect();
        exact.unwrap_or_else(|| folded_squares(counters, self.schema.width))
    }

    /// The kept row sums as the pass would round them, if every one is
    /// below [`KEPT_SUM_LIMIT`].
    fn kept_rows(&self) -> Option<Vec<f64>> {
        let squares = self.cells.squares.as_ref()?;
        let exact = |&sum: &i64| (0..KEPT_SUM_LIMIT).contains(&sum).then_some(sum as f64);
        squares.rows.iter().map(exact).collect()
    }

    /// [`self_join_rows`](Self::self_join_rows) of the merge of `first`
    /// and `rest`, all of one schema, without building it: each row of the
    /// parts is summed into one buffer with [`merge`](Self::merge)'s `+`,
    /// and the summed rows are squared as a merged sketch's are, guards and
    /// fallback included.
    fn self_join_rows_of_sum(d: Dispatch, first: &Self, rest: &[&Self]) -> Vec<f64> {
        let mut row = vec![0; first.schema.width];
        let exact: Option<Vec<f64>> = (0..first.schema.depth())
            .map(|r| {
                sum_rows(&mut row, first.row(r), rest.iter().map(|part| part.row(r)));
                exact_square_sum(d, &row)
            })
            .collect();
        exact.unwrap_or_else(|| {
            let mut sum = first.cells.counters.to_vec();
            for part in rest {
                add_counters(&mut sum, &part.cells.counters);
            }
            folded_squares(&sum, first.schema.width)
        })
    }

    /// Self-join size estimate: median across rows.
    pub fn self_join(&self) -> f64 {
        estimate::median(&self.self_join_rows())
    }

    /// Per-row size-of-join estimates `Σ_b s_b·t_b`.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    pub fn size_of_join_rows(&self, other: &Self) -> Result<Vec<f64>> {
        self.check_schema(other)?;
        let product = |s: i64, t: i64| s as f64 * t as f64;
        Ok(row_sums(
            &self.cells.counters,
            &other.cells.counters,
            self.schema.width,
            product,
        ))
    }

    /// Size-of-join estimate: median across rows.
    pub fn size_of_join(&self, other: &Self) -> Result<f64> {
        Ok(estimate::median(&self.size_of_join_rows(other)?))
    }

    /// Typed self-join estimate: value bit-identical to
    /// [`FagmsSketch::self_join`]; the variance applies the conservative
    /// normal-median factor to the rows' sample variance (each row is an
    /// implicit average over `width` buckets, so rows of a wide sketch are
    /// near-Gaussian). A depth-1 sketch has no cross-row spread and falls
    /// back to the analytic per-row bound `2·F₂²/width`.
    pub fn self_join_estimate(&self) -> Estimate {
        self.self_join_estimate_from(self.self_join_rows())
    }

    /// The [`self_join_estimate`](Self::self_join_estimate) of `parts`
    /// merged into `zero`, an empty sketch of their schema, every bit, read
    /// off the parts' summed rows without building the merge; over no
    /// parts `zero`'s own, over one that part's.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if a part was built from another schema.
    pub fn self_join_estimate_of_sum(zero: &Self, parts: &[&Self]) -> Result<Estimate> {
        parts.iter().try_for_each(|part| zero.check_schema(part))?;
        Ok(match parts {
            [] => zero.self_join_estimate(),
            [part] => part.self_join_estimate(),
            [first, rest @ ..] => {
                let rows = Self::self_join_rows_of_sum(Dispatch::get(), first, rest);
                zero.self_join_estimate_from(rows)
            }
        })
    }

    fn self_join_estimate_from(&self, rows: Vec<f64>) -> Estimate {
        let width = self.schema.width() as f64;
        Estimate::from_median(rows).or_variance(|v| 2.0 * v * v / width)
    }

    /// Typed size-of-join estimate: value bit-identical to
    /// [`FagmsSketch::size_of_join`]; cross-row empirical variance with the
    /// depth-1 fallback `(F₂(f)·F₂(g) + (Σfg)²)/width`.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    pub fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        let width = self.schema.width() as f64;
        let e = Estimate::from_median(self.size_of_join_rows(other)?);
        Ok(e.or_variance(|v| (self.self_join() * other.self_join() + v * v) / width))
    }

    /// The estimated `k` most frequent keys among `candidates`, sorted by
    /// estimated frequency (descending; ties broken by key).
    ///
    /// Count-Sketch point queries have additive error `≈ √(F₂/width)` per
    /// row (median-boosted across rows), so keys whose frequency clears
    /// that bar are recovered reliably — the classic heavy-hitter use of
    /// this structure. The candidate set is supplied by the caller (e.g.
    /// the distinct keys of a dictionary, or keys observed by a parallel
    /// space-saving pass); the sketch alone cannot enumerate keys.
    pub fn top_k<I: IntoIterator<Item = u64>>(&self, candidates: I, k: usize) -> Vec<(u64, f64)> {
        let keys: Vec<u64> = candidates.into_iter().collect();
        let scored = keys
            .iter()
            .copied()
            .zip(self.point_queries(&keys))
            .collect();
        crate::topk::ranked(scored, k)
    }

    /// Point estimate of the frequency of `key` (the Count-Sketch query):
    /// median over rows of `ξ(key)·c[h(key)]`.
    pub fn point_query(&self, key: u64) -> f64 {
        let w = self.schema.width;
        with_row_scratch(self.schema.rows.len(), |per_row| {
            for ((r, row), out) in self.schema.rows.iter().enumerate().zip(per_row.iter_mut()) {
                let cell = self.cells.counters[r * w + row.bucket.bucket(key, w)];
                *out = (row.sign.sign(key) * cell) as f64;
            }
            estimate::median_in_place(per_row)
        })
    }

    /// [`point_query`](Self::point_query) of every key of `keys`, in order
    /// and bit for bit: one [`kernels::hash_rows`] pass (the hashing the
    /// counted write runs) gives each key's sign and bucket at every row,
    /// then each key takes the median of its rows.
    pub fn point_queries(&self, keys: &[u64]) -> Vec<f64> {
        self.point_queries_over(&[self], keys)
    }

    /// [`point_queries`](Self::point_queries) of `parts` merged into
    /// `zero`, an empty sketch of their schema, every bit: each key's cell
    /// is the parts' cells summed with [`merge`](Self::merge)'s `+`, and no
    /// merge is built. Over no parts they are `zero`'s own.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if a part was built from another schema.
    pub fn point_queries_of_sum(zero: &Self, parts: &[&Self], keys: &[u64]) -> Result<Vec<f64>> {
        parts.iter().try_for_each(|part| zero.check_schema(part))?;
        let parts = if parts.is_empty() { &[zero][..] } else { parts };
        Ok(zero.point_queries_over(parts, keys))
    }

    /// The point queries of `keys` over the sum of `parts`, all of this
    /// sketch's schema.
    fn point_queries_over(&self, parts: &[&Self], keys: &[u64]) -> Vec<f64> {
        let depth = self.schema.rows.len();
        let mut hashed = vec![(0, 0); keys.len() * depth];
        kernels::hash_rows(Dispatch::get(), self.schema.hashes(), keys, &mut hashed);
        let cell =
            |r: usize, bucket: usize| -> i64 { parts.iter().map(|part| part.row(r)[bucket]).sum() };
        let mut per_row: Vec<f64> = (hashed.iter().enumerate())
            .map(|(j, &(sign, bucket))| (sign * cell(j % depth, bucket)) as f64)
            .collect();
        per_row
            .chunks_exact_mut(depth)
            .map(estimate::median_in_place)
            .collect()
    }

    /// Add `count` occurrences of `key` (negative counts model deletions:
    /// the sketch is turnstile-capable). Keeps the rows' `Σ c²`.
    #[inline]
    pub fn update(&mut self, key: u64, count: i64) {
        let w = self.schema.width;
        let Cells { counters, squares } = Arc::make_mut(&mut self.cells);
        for (r, row) in self.schema.rows.iter().enumerate() {
            let c = &mut counters[r * w + row.bucket.bucket(key, w)];
            let delta = count * row.sign.sign(key);
            if let Some(squares) = squares {
                let sum = &mut squares.rows[r];
                *sum = sum.wrapping_add(kernels::square_change(*c, delta));
            }
            *c += delta;
        }
        weigh(squares, count.unsigned_abs());
    }

    /// Add one occurrence of every key in the batch, bit-identically to
    /// [`update`](Self::update) once per key, keeping the rows' `Σ c²`:
    /// the keys go, as unit counts in stack chunks of 512,
    /// through [`update_batch_counts`](Self::update_batch_counts)'s
    /// all-rows write.
    pub fn update_batch(&mut self, keys: &[u64]) {
        let hashes = self.schema.hashes();
        let cells = Arc::make_mut(&mut self.cells);
        let mut items = [(0, 1); UNIT_CHUNK];
        for chunk in keys.chunks(UNIT_CHUNK) {
            for (item, &key) in items.iter_mut().zip(chunk) {
                item.0 = key;
            }
            cells.write_counted(hashes, &items[..chunk.len()]);
        }
    }

    /// Add `count` occurrences of `key` for every `(key, count)` pair,
    /// bit-identically to the per-pair [`update`](Self::update) loop, and
    /// keep the rows' `Σ c²` from the changes the kernel reports. One
    /// [`kernels::signed_scatter_counts`] call writes every row.
    pub fn update_batch_counts(&mut self, items: &[(u64, i64)]) {
        let hashes = self.schema.hashes();
        Arc::make_mut(&mut self.cells).write_counted(hashes, items);
    }

    /// Entry-wise merge of a sketch of another stream fragment: afterwards
    /// `self` sketches the union.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    ///
    /// The merged sketch keeps no `Σ c²`: its reads square the rows.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        self.check_schema(other)?;
        let cells = Arc::make_mut(&mut self.cells);
        add_counters(&mut cells.counters, &other.cells.counters);
        cells.squares = None;
        Ok(())
    }
}

impl Cells {
    /// The counted write of `items` into every row `rows` prepares, with
    /// the change to each row's `Σ c²` added to the kept sums while there
    /// are any.
    fn write_counted(&mut self, rows: &RowHashes, items: &[(u64, i64)]) {
        let Cells { counters, squares } = self;
        let d = Dispatch::get();
        let mut write =
            |changes: &mut [i64]| kernels::signed_scatter_counts(d, rows, items, counters, changes);
        match squares {
            Some(kept) => write(&mut kept.rows),
            None => with_row_scratch(rows.depth(), write),
        }
        if squares.is_some() {
            let weight = items.iter().map(|&(_, count)| count.unsigned_abs());
            weigh(squares, weight.fold(0, u64::saturating_add));
        }
    }
}

/// Add `weight` to the kept sums' writes, and drop the sums once it
/// reaches [`KEPT_WEIGHT_LIMIT`].
fn weigh(squares: &mut Option<Squares>, weight: u64) {
    if let Some(kept) = squares {
        kept.weight = kept.weight.saturating_add(weight);
        if kept.weight >= KEPT_WEIGHT_LIMIT {
            *squares = None;
        }
    }
}

/// Rows whose scratch lives on the stack.
const STACK_ROWS: usize = 16;

/// Keys per stack chunk of [`FagmsSketch::update_batch`]'s unit counts.
const UNIT_CHUNK: usize = 512;

/// Run `f` on `depth` zeroed scratch values: on the stack at the depths
/// sketches use, on the heap past them.
fn with_row_scratch<X: Copy + Default, T>(depth: usize, f: impl FnOnce(&mut [X]) -> T) -> T {
    if depth <= STACK_ROWS {
        f(&mut [X::default(); STACK_ROWS][..depth])
    } else {
        f(&mut vec![X::default(); depth])
    }
}

/// One row's `Σ_b c_b²`, exact and rounded once, or `None` where
/// [`kernels::square_sum`] declines.
fn exact_square_sum(d: Dispatch, row: &[i64]) -> Option<f64> {
    kernels::square_sum(d, row).map(|sum| sum as f64)
}

/// Every row's `Σ_b c_b²` as the f64 fold, one conversion per counter:
/// `c·c` is `c as f64 * c as f64`.
fn folded_squares(counters: &[i64], width: usize) -> Vec<f64> {
    let square = |c: i64, _| {
        let c = c as f64;
        c * c
    };
    row_sums(counters, counters, width, square)
}

/// Add `other`'s counters into `counters`: the `+` of a merge.
fn add_counters(counters: &mut [i64], other: &[i64]) {
    for (c, o) in counters.iter_mut().zip(other) {
        *c += o;
    }
}

/// `sum = first + rest[0] + rest[1] + …`, counter by counter with a
/// merge's `+`; the first addition writes `sum` in the same pass.
fn sum_rows<'a>(sum: &mut [i64], first: &[i64], mut rest: impl Iterator<Item = &'a [i64]>) {
    match rest.next() {
        Some(second) => {
            for ((s, a), b) in sum.iter_mut().zip(first).zip(second) {
                *s = a + b;
            }
        }
        None => sum.copy_from_slice(first),
    }
    rest.for_each(|row| add_counters(sum, row));
}

/// `Σ_b term(s_b, t_b)` for every row of two `depth × width` counter
/// arrays. Each row is added in bucket order from `-0.0`, exactly as
/// `Iterator::sum` folds it, so every bit matches the row-by-row sum; but
/// up to four rows share one pass over the buckets, one accumulator each,
/// so their dependency chains overlap instead of running back to back.
fn row_sums(s: &[i64], t: &[i64], width: usize, term: impl Fn(i64, i64) -> f64 + Copy) -> Vec<f64> {
    let mut sums = Vec::with_capacity(s.len() / width);
    for (s, t) in s.chunks(4 * width).zip(t.chunks(4 * width)) {
        match s.len() / width {
            1 => sums.extend(rows_in_one_pass::<1>(s, t, width, term)),
            2 => sums.extend(rows_in_one_pass::<2>(s, t, width, term)),
            3 => sums.extend(rows_in_one_pass::<3>(s, t, width, term)),
            _ => sums.extend(rows_in_one_pass::<4>(s, t, width, term)),
        }
    }
    sums
}

/// [`row_sums`] over exactly `R` rows.
#[inline(always)]
fn rows_in_one_pass<const R: usize>(
    s: &[i64],
    t: &[i64],
    width: usize,
    term: impl Fn(i64, i64) -> f64,
) -> [f64; R] {
    let s: [&[i64]; R] = std::array::from_fn(|r| &s[r * width..][..width]);
    let t: [&[i64]; R] = std::array::from_fn(|r| &t[r * width..][..width]);
    let mut sums = [-0.0f64; R];
    for b in 0..width {
        for r in 0..R {
            sums[r] += term(s[r][b], t[r][b]);
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    type Schema = FagmsSchema<DefaultSign, DefaultBucket>;

    #[test]
    fn dimensions_are_validated() {
        assert!(Schema::try_new(0, 10, &mut rng(0)).is_err());
        assert!(Schema::try_new(3, 0, &mut rng(0)).is_err());
        let s = Schema::new(3, 100, &mut rng(0));
        assert_eq!(s.depth(), 3);
        assert_eq!(s.width(), 100);
    }

    #[test]
    fn single_key_self_join_is_exact() {
        let schema = Schema::new(5, 64, &mut rng(1));
        let mut s = schema.sketch();
        s.update(1234, 9);
        // Only one bucket per row is non-zero: (9·ξ)² = 81 in every row.
        assert_eq!(s.self_join(), 81.0);
        assert_eq!(s.point_query(1234), 9.0);
    }

    #[test]
    fn deletions_cancel() {
        let schema = Schema::new(3, 32, &mut rng(2));
        let mut s = schema.sketch();
        for k in 0..100u64 {
            s.update(k, 2);
        }
        for k in 0..100u64 {
            s.update(k, -2);
        }
        assert_eq!(s.self_join(), 0.0);
    }

    #[test]
    fn merge_equals_union_stream() {
        let schema = Schema::new(4, 128, &mut rng(3));
        let mut whole = schema.sketch();
        let mut a = schema.sketch();
        let mut b = schema.sketch();
        for k in 0..400u64 {
            whole.update(k, 1);
            if k < 200 {
                a.update(k, 1)
            } else {
                b.update(k, 1)
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.cells.counters, whole.cells.counters);
    }

    #[test]
    fn cross_schema_rejected() {
        let a = Schema::new(2, 16, &mut rng(4)).sketch();
        let mut b = Schema::new(2, 16, &mut rng(5)).sketch();
        assert_eq!(b.merge(&a).unwrap_err(), Error::SchemaMismatch);
        assert_eq!(b.size_of_join(&a).unwrap_err(), Error::SchemaMismatch);
    }

    #[test]
    fn estimates_concentrate_on_zipfish_data() {
        let schema = Schema::new(5, 2000, &mut rng(6));
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        let mut truth_join = 0f64;
        let mut truth_f2 = 0f64;
        for k in 0..2000u64 {
            let f = (2000 / (k + 1)).min(200) as i64;
            let g = ((k % 10) + 1) as i64;
            s.update(k, f);
            t.update(k, g);
            truth_join += (f * g) as f64;
            truth_f2 += (f * f) as f64;
        }
        let sj = s.self_join();
        let join = s.size_of_join(&t).unwrap();
        assert!(
            (sj - truth_f2).abs() / truth_f2 < 0.1,
            "self-join {sj} vs {truth_f2}"
        );
        assert!(
            (join - truth_join).abs() / truth_join < 0.25,
            "join {join} vs {truth_join}"
        );
    }

    /// A single F-AGMS row with `width` buckets has (for self-join) the
    /// variance profile of averaging `width` AGMS basics: check the
    /// concentration improves with width.
    #[test]
    fn wider_rows_estimate_better() {
        let mut errors = Vec::new();
        for width in [8usize, 512] {
            let mut r = rng(7);
            let reps = 60;
            let mut err_acc = 0f64;
            let truth: f64 = (0..500u64)
                .map(|k| ((k % 5 + 1) * (k % 5 + 1)) as f64)
                .sum();
            for _ in 0..reps {
                let schema = Schema::new(1, width, &mut r);
                let mut s = schema.sketch();
                for k in 0..500u64 {
                    s.update(k, (k % 5 + 1) as i64);
                }
                err_acc += ((s.self_join() - truth) / truth).abs();
            }
            errors.push(err_acc / reps as f64);
        }
        assert!(
            errors[1] < errors[0] / 2.0,
            "width 512 should be far more accurate: {errors:?}"
        );
    }

    /// The batched kernels must leave exactly the counter state of the
    /// per-key loop, across chunk boundaries and with negative counts.
    #[test]
    fn batched_updates_are_bit_identical_to_scalar() {
        let schema = Schema::new(5, 300, &mut rng(50));
        let keys: Vec<u64> = (0..777u64).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let items: Vec<(u64, i64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i as i64 % 5) - 2))
            .collect();
        let mut scalar = schema.sketch();
        let mut batched = schema.sketch();
        for &k in &keys {
            scalar.update(k, 1);
        }
        batched.update_batch(&keys);
        assert_eq!(scalar.cells.counters, batched.cells.counters);
        for &(k, c) in &items {
            scalar.update(k, c);
        }
        batched.update_batch_counts(&items);
        assert_eq!(scalar.cells.counters, batched.cells.counters);
    }

    impl FagmsSketch {
        /// [`FagmsSketch::self_join_rows`] as the pass computes it.
        fn self_join_rows_by_pass(&self) -> Vec<f64> {
            let mut pass = self.clone();
            Arc::make_mut(&mut pass.cells).squares = None;
            pass.self_join_rows()
        }
    }

    /// An estimate's value, variance and every basic, as bits.
    fn every_bit(e: &Estimate) -> Vec<u64> {
        [e.value, e.variance]
            .iter()
            .chain(&e.basics)
            .map(|x| x.to_bits())
            .collect()
    }

    /// Two parts whose rows are small noise plus `big` counters of about
    /// `magnitude` each (odd, so squares and sums round past 2⁵³).
    fn big_parts(schema: &Schema, big: usize, magnitude: i64) -> [FagmsSketch; 2] {
        let mut r = rng(61);
        std::array::from_fn(|_| {
            let mut s = schema.sketch();
            let cells = Arc::make_mut(&mut s.cells);
            cells.squares = None;
            for (i, c) in cells.counters.iter_mut().enumerate() {
                let noise = r.random_range(-999..=999);
                *c = if i % schema.width() < big {
                    magnitude + 2 * noise + 1
                } else {
                    noise
                };
            }
            s
        })
    }

    /// A sum is guarded on its summed rows, not on its parts. Every part's
    /// counters and row sums are inside `square_sum`'s range, but a summed
    /// counter is not (case one) or a summed row's `Σc²` is not (case
    /// two), so the merge falls back to the f64 fold, which rounds apart
    /// from the exact sum. On both kernel paths the sum's rows and
    /// estimate are merge-then-estimate's, bit for bit.
    #[test]
    fn a_sum_is_guarded_on_its_summed_rows() {
        let schema = Schema::new(3, 64, &mut rng(60));
        // One counter of ≈ 2^25.6 per part row: the sum's is ≈ 2^26.6.
        // Eight of ≈ 2^24.5 per part row: the sum's Σc² is ≈ 2^54.
        for (case, big, magnitude) in [("counter", 1, 3 << 24), ("row sum", 8, 23_726_566)] {
            let parts = big_parts(&schema, big, magnitude);
            let mut merged = parts[0].clone();
            merged.merge(&parts[1]).unwrap();
            let refs = [&parts[0], &parts[1]];
            for d in [Dispatch::chunked(), Dispatch::get()] {
                for (part, r) in parts.iter().flat_map(|p| (0..3).map(move |r| (p, r))) {
                    let part_row = part.row(r);
                    assert!(part_row.iter().all(|c| c.abs() < 1 << 26), "{case}");
                    assert!(kernels::square_sum(d, part_row).is_some(), "{case}");
                }
                let declined = (0..3).filter(|&r| kernels::square_sum(d, merged.row(r)).is_none());
                assert_eq!(declined.count(), 3, "{case}: every summed row declines");
                let rows = FagmsSketch::self_join_rows_of_sum(d, refs[0], &refs[1..]);
                let want = merged.self_join_rows_on(d);
                let bits = |rows: &[f64]| rows.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rows), bits(&want), "{case}");
                assert_eq!(
                    every_bit(&merged.self_join_estimate_from(rows)),
                    every_bit(&merged.self_join_estimate_from(want)),
                    "{case}"
                );
            }
            // The f64 fold is not the exact sum rounded once here, so an
            // exact read of the summed rows would answer other bits.
            let exact = (0..3).map(|r| {
                let row = merged.row(r);
                row.iter()
                    .map(|&c| i128::from(c) * i128::from(c))
                    .sum::<i128>() as f64
            });
            let folded = merged.self_join_rows();
            assert!(exact.zip(&folded).any(|(e, f)| e != *f), "{case}");
            let zero = schema.sketch();
            let of_sum = FagmsSketch::self_join_estimate_of_sum(&zero, &refs).unwrap();
            assert_eq!(every_bit(&of_sum), every_bit(&merged.self_join_estimate()));
            let one = FagmsSketch::self_join_estimate_of_sum(&zero, &refs[..1]).unwrap();
            assert_eq!(every_bit(&one), every_bit(&parts[0].self_join_estimate()));
        }
        let stranger = Schema::new(3, 64, &mut rng(62)).sketch();
        let zero = schema.sketch();
        let none = FagmsSketch::self_join_estimate_of_sum(&zero, &[]).unwrap();
        assert_eq!(every_bit(&none), every_bit(&zero.self_join_estimate()));
        assert!(matches!(
            FagmsSketch::self_join_estimate_of_sum(&zero, &[&zero, &stranger]),
            Err(Error::SchemaMismatch)
        ));
    }

    /// The kept sums answer only inside their guards: from a zeroed sketch
    /// through any write, while the writes' weight is below 2³¹ and every
    /// row sum below 2⁵². A merge, a decode and the weight guard drop
    /// them; a clone keeps them and shares the rows until it writes; a
    /// batch of unit counts keeps the rows' full squaring.
    #[test]
    fn the_kept_sums_answer_only_inside_their_guards() {
        let schema = Schema::new(3, 64, &mut rng(70));
        let mut s = schema.sketch();
        assert_eq!(s.kept_rows(), Some(vec![0.0; 3]));
        s.update(5, (1 << 26) - 1);
        let below = (((1i64 << 26) - 1) * ((1 << 26) - 1)) as f64;
        assert_eq!(s.kept_rows(), Some(vec![below; 3]));
        s.update_batch_counts(&[(5, 1)]);
        assert!(
            s.cells.squares.is_some() && s.kept_rows().is_none(),
            "Σc² = 2⁵²"
        );
        s.update(5, -1);
        assert_eq!(s.kept_rows(), Some(vec![below; 3]));

        let mut clone = s.clone();
        assert!(Arc::ptr_eq(&clone.cells, &s.cells));
        clone.update(6, 1);
        assert!(!Arc::ptr_eq(&clone.cells, &s.cells));
        assert_eq!(s.kept_rows(), Some(vec![below; 3]));
        assert_eq!(clone.self_join_rows(), clone.self_join_rows_by_pass());

        let mut light = schema.sketch();
        light.update_batch_counts(&[(1, 1 << 30), (1, 1 - (1 << 30))]);
        assert_eq!(light.kept_rows(), Some(vec![1.0; 3]), "weight 2³¹ − 1");
        let mut heavy = schema.sketch();
        heavy.update_batch_counts(&[(1, 1 << 30), (1, -(1 << 30))]);
        assert!(heavy.cells.squares.is_none(), "weight 2³¹");

        let mut batched = schema.sketch();
        let keys: Vec<u64> = (0..3 * UNIT_CHUNK as u64 + 7).map(|k| k % 97).collect();
        batched.update_batch(&keys);
        let squared = (0..3).map(|r| batched.row(r).iter().map(|&c| c * c).sum::<i64>());
        let kept = &batched
            .cells
            .squares
            .as_ref()
            .expect("a batch keeps its sums");
        assert_eq!(kept.rows, squared.collect::<Vec<_>>());
        assert_eq!(kept.weight, keys.len() as u64);
        assert_eq!(batched.self_join_rows(), batched.self_join_rows_by_pass());
        let mut merged = schema.sketch();
        merged.merge(&light).unwrap();
        assert!(merged.cells.squares.is_none());
        let mut w = Writer::new();
        light.put(&mut w);
        let bytes = w.into_bytes();
        let decoded = FagmsSketch::<DefaultSign, DefaultBucket>::take(&mut Reader::new(&bytes));
        assert!(decoded.unwrap().cells.squares.is_none());
    }

    #[test]
    fn point_query_recovers_heavy_hitter() {
        let schema = Schema::new(7, 512, &mut rng(8));
        let mut s = schema.sketch();
        s.update(77, 10_000);
        for k in 0..1000u64 {
            s.update(k, 1);
        }
        let q = s.point_query(77);
        assert!((q - 10_001.0).abs() < 100.0, "q = {q}");
    }

    /// Point queries of the parts' sum are the merge's, bit for bit, for
    /// one part and three, and the zero's own for none; a part of another
    /// schema is the error a merge returns.
    #[test]
    fn point_queries_of_a_sum_are_the_merges() {
        let schema = Schema::new(3, 64, &mut rng(9));
        let parts: Vec<FagmsSketch> = (0..3u64)
            .map(|p| {
                let mut s = schema.sketch();
                s.update_batch(&(0..500).map(|i| (i * (p + 3)) % 97).collect::<Vec<_>>());
                s
            })
            .collect();
        let refs: Vec<&FagmsSketch> = parts.iter().collect();
        let keys: Vec<u64> = (0..120).collect();
        let mut merged = parts[0].clone();
        for part in &parts[1..] {
            merged.merge(part).unwrap();
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let zero = schema.sketch();
        let of_sum = FagmsSketch::point_queries_of_sum(&zero, &refs, &keys).unwrap();
        assert_eq!(bits(of_sum), bits(merged.point_queries(&keys)));
        let one = FagmsSketch::point_queries_of_sum(&zero, &refs[..1], &keys).unwrap();
        assert_eq!(bits(one), bits(parts[0].point_queries(&keys)));
        let none = FagmsSketch::point_queries_of_sum(&zero, &[], &keys).unwrap();
        assert_eq!(bits(none), bits(zero.point_queries(&keys)));
        let stranger = Schema::new(3, 64, &mut rng(10)).sketch();
        let mixed = FagmsSketch::point_queries_of_sum(&zero, &[&parts[0], &stranger], &keys);
        assert!(matches!(mixed, Err(Error::SchemaMismatch)));
    }
}
