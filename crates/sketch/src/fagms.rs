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

use crate::error::{Error, Result};
use crate::estimate::{self, Estimate};
use crate::Sketch;
use rand::Rng;
use sss_xi::{
    BucketFamily, Codec, CodecError, DefaultBucket, DefaultSign, Reader, SignFamily, Writer,
};
use std::sync::Arc;

/// Per-row seeds: a bucket hash and a sign family.
#[derive(Debug, Clone)]
struct Row<S, B> {
    sign: S,
    bucket: B,
}

/// The shared seeds of an F-AGMS sketch: `depth` rows over `width` buckets.
#[derive(Debug)]
pub struct FagmsSchema<S = DefaultSign, B = DefaultBucket> {
    rows: Arc<[Row<S, B>]>,
    width: usize,
    id: u64,
}

// Manual impl: cloning shares the seed Arc, so `S: Clone`/`B: Clone` are not
// required.
impl<S, B> Clone for FagmsSchema<S, B> {
    fn clone(&self) -> Self {
        Self {
            rows: Arc::clone(&self.rows),
            width: self.width,
            id: self.id,
        }
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
        })
    }
}

impl<S: Codec, B: Codec> Codec for FagmsSketch<S, B> {
    fn put(&self, w: &mut Writer) {
        self.schema.put(w);
        w.i64s(&self.counters);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let schema = FagmsSchema::take(r)?;
        let counters = r.i64s()?;
        if Some(counters.len()) != schema.rows.len().checked_mul(schema.width) {
            return Err(CodecError::Invalid(
                "an F-AGMS sketch has depth × width counters",
            ));
        }
        Ok(Self { schema, counters })
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

    /// A zeroed sketch bound to this schema.
    pub fn sketch(&self) -> FagmsSketch<S, B> {
        FagmsSketch {
            schema: self.clone(),
            counters: vec![0; self.rows.len() * self.width],
        }
    }
}

/// One row's memoised hash of a key: which counter it lands on (an index
/// into the whole `depth × width` array) and with which sign.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cell {
    index: usize,
    sign: i64,
}

/// Scratch of [`FagmsSketch::hash_cells`]: `depth` cells per key, key by
/// key, plus the row-at-a-time buffers the batch hashes land in first.
#[derive(Debug, Default)]
pub(crate) struct RowCells {
    cells: Vec<Cell>,
    signs: Vec<i64>,
    buckets: Vec<usize>,
}

impl RowCells {
    /// The cells of every hashed key, `depth` consecutive entries each.
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

/// An F-AGMS sketch: `depth × width` counters.
#[derive(Debug)]
pub struct FagmsSketch<S = DefaultSign, B = DefaultBucket> {
    schema: FagmsSchema<S, B>,
    counters: Vec<i64>,
}

// Manual impl, like the schema's: the families sit behind `Arc`s, so a
// sketch clones without requiring `S: Clone` or `B: Clone`.
impl<S, B> Clone for FagmsSketch<S, B> {
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            counters: self.counters.clone(),
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
        &self.counters[row * w..(row + 1) * w]
    }

    fn check_schema(&self, other: &Self) -> Result<()> {
        if self.schema.id == other.schema.id && self.counters.len() == other.counters.len() {
            Ok(())
        } else {
            Err(Error::SchemaMismatch)
        }
    }

    /// Per-row self-join estimates `Σ_b c_b²`.
    pub fn self_join_rows(&self) -> Vec<f64> {
        // One conversion per counter: `c·c` is `c as f64 * c as f64`.
        let square = |c: i64, _| {
            let c = c as f64;
            c * c
        };
        row_sums(&self.counters, &self.counters, self.schema.width, square)
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
            &self.counters,
            &other.counters,
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
        let width = self.schema.width() as f64;
        let e = Estimate::from_median(self.self_join_rows());
        let plugin = 2.0 * e.value * e.value / width;
        e.or_variance(plugin)
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
        let plugin = (self.self_join() * other.self_join() + e.value * e.value) / width;
        Ok(e.or_variance(plugin))
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
                *out =
                    (row.sign.sign(key) * self.counters[r * w + row.bucket.bucket(key, w)]) as f64;
            }
            estimate::median_in_place(per_row)
        })
    }

    /// [`point_query`](Self::point_query) of every key of `keys`, in order
    /// and bit for bit, priced a row at a time: each row hashes the whole
    /// batch through its families' `sign_batch` / `bucket_batch` (the
    /// runtime-dispatched kernels the batched update path hashes with),
    /// then each key takes the median of its rows.
    pub fn point_queries(&self, keys: &[u64]) -> Vec<f64> {
        let w = self.schema.width;
        let depth = self.schema.rows.len();
        let mut signs = vec![0; keys.len()];
        let mut buckets = vec![0; keys.len()];
        let mut per_row = vec![0.0; keys.len() * depth];
        for (r, row) in self.schema.rows.iter().enumerate() {
            row.sign.sign_batch(keys, &mut signs);
            row.bucket.bucket_batch(keys, w, &mut buckets);
            let counters = self.row(r);
            let hashed = signs.iter().zip(&buckets);
            for (out, (&sign, &bucket)) in per_row.iter_mut().skip(r).step_by(depth).zip(hashed) {
                *out = (sign * counters[bucket]) as f64;
            }
        }
        per_row
            .chunks_exact_mut(depth)
            .map(estimate::median_in_place)
            .collect()
    }

    /// Hash every key of `keys` once: afterwards `cells` holds, key by key,
    /// the counter index and sign of each of the `depth` rows — what
    /// [`bump`](Self::bump) and [`bump_and_query`](Self::bump_and_query)
    /// take in place of the key. Rows are evaluated through the families'
    /// `sign_batch` / `bucket_batch`, so any family pair takes the same
    /// (runtime-dispatched) path.
    pub(crate) fn hash_cells(&self, keys: &[u64], cells: &mut RowCells) {
        let w = self.schema.width;
        let depth = self.schema.rows.len();
        cells.signs.resize(keys.len(), 0);
        cells.buckets.resize(keys.len(), 0);
        cells.cells.resize(keys.len() * depth, Cell::default());
        for (r, row) in self.schema.rows.iter().enumerate() {
            row.sign.sign_batch(keys, &mut cells.signs);
            row.bucket.bucket_batch(keys, w, &mut cells.buckets);
            let signed = cells.signs.iter().zip(&cells.buckets);
            for (cell, (&sign, &bucket)) in cells.cells[r..].iter_mut().step_by(depth).zip(signed) {
                *cell = Cell {
                    index: r * w + bucket,
                    sign,
                };
            }
        }
    }

    /// [`update`](Sketch::update)`(key, 1)` for the key whose rows were
    /// hashed into `cells`.
    #[inline]
    pub(crate) fn bump(&mut self, cells: &[Cell]) {
        for cell in cells {
            self.counters[cell.index] += cell.sign;
        }
    }

    /// [`update_and_query`](Self::update_and_query)`(key, 1)` for the key
    /// whose rows were hashed into `cells`; `per_row` is scratch of the
    /// sketch's depth.
    #[inline]
    pub(crate) fn bump_and_query(&mut self, cells: &[Cell], per_row: &mut [f64]) -> f64 {
        for (cell, out) in cells.iter().zip(per_row.iter_mut()) {
            let counter = &mut self.counters[cell.index];
            *counter += cell.sign;
            *out = (cell.sign * *counter) as f64;
        }
        estimate::median_in_place(per_row)
    }

    /// Fused [`update`](Sketch::update) + [`point_query`](Self::point_query):
    /// applies the update and returns the *post-update* point estimate,
    /// computing each row's bucket and sign hashes once instead of twice.
    /// Counter state and returned value are bit-identical to calling the
    /// two operations in sequence; the per-tuple heavy-hitter path
    /// ([`CountSketchTopK`](crate::CountSketchTopK)) lives on this.
    pub fn update_and_query(&mut self, key: u64, count: i64) -> f64 {
        let w = self.schema.width;
        with_row_scratch(self.schema.rows.len(), |per_row| {
            for (r, row) in self.schema.rows.iter().enumerate() {
                let sign = row.sign.sign(key);
                let counter = &mut self.counters[r * w + row.bucket.bucket(key, w)];
                *counter += count * sign;
                per_row[r] = (sign * *counter) as f64;
            }
            estimate::median_in_place(per_row)
        })
    }
}

/// Run `f` on `depth` floats of scratch: on the stack at the depths
/// sketches use, on the heap past them.
fn with_row_scratch<T>(depth: usize, f: impl FnOnce(&mut [f64]) -> T) -> T {
    const STACK_ROWS: usize = 16;
    if depth <= STACK_ROWS {
        f(&mut [0.0; STACK_ROWS][..depth])
    } else {
        f(&mut vec![0.0; depth])
    }
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

impl<S: SignFamily, B: BucketFamily> Sketch for FagmsSketch<S, B> {
    #[inline]
    fn update(&mut self, key: u64, count: i64) {
        let w = self.schema.width;
        for (r, row) in self.schema.rows.iter().enumerate() {
            let b = row.bucket.bucket(key, w);
            self.counters[r * w + b] += count * row.sign.sign(key);
        }
    }

    // Row-major batched kernel: each row hands the whole batch and its two
    // coefficient vectors to the fused `signed_scatter` kernel — shared lane
    // evaluation, runtime CPU dispatch, immediate scatter. Bit-identical to
    // per-key updates because integer counter increments commute.
    fn update_batch(&mut self, keys: &[u64]) {
        let w = self.schema.width;
        for (row, counters) in self.schema.rows.iter().zip(self.counters.chunks_mut(w)) {
            sss_xi::signed_scatter(row.sign.coeffs(), row.bucket.coeffs(), w, keys, counters);
        }
    }

    fn update_batch_counts(&mut self, items: &[(u64, i64)]) {
        let w = self.schema.width;
        for (row, counters) in self.schema.rows.iter().zip(self.counters.chunks_mut(w)) {
            let (sc, bc) = (row.sign.coeffs(), row.bucket.coeffs());
            sss_xi::signed_scatter_counts(sc, bc, w, items, counters);
        }
    }

    fn merge(&mut self, other: &Self) -> Result<()> {
        self.check_schema(other)?;
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        Ok(())
    }

    fn subtract(&mut self, other: &Self) -> Result<()> {
        self.check_schema(other)?;
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c -= o;
        }
        Ok(())
    }

    fn counters(&self) -> usize {
        self.counters.len()
    }
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
        assert_eq!(s.sketch().counters(), 300);
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
        assert_eq!(a.counters, whole.counters);
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
        assert_eq!(scalar.counters, batched.counters);
        for &(k, c) in &items {
            scalar.update(k, c);
        }
        batched.update_batch_counts(&items);
        assert_eq!(scalar.counters, batched.counters);
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
}
