//! Count-Min sketch (Cormode & Muthukrishnan), the non-±1 baseline.
//!
//! Each of `depth` rows adds `count` (unsigned) to bucket `h(key)`; a point
//! query takes the **minimum** over rows, which upper-bounds the true
//! frequency (one-sided error `≤ ε‖f‖₁` with `width = e/ε`). The
//! inner-product estimate `min_r Σ_b s_b·t_b` likewise upper-bounds the true
//! size of join for insert-only streams.
//!
//! Included for the comparison benches: Count-Min's join estimate is biased
//! upward (the bias grows with `‖f‖₁‖g‖₁/width`), whereas the ±1 sketches
//! are unbiased — the trade-off the paper's choice of F-AGMS reflects.

use crate::error::{Error, Result};
use crate::estimate::{self, Estimate};
use crate::Sketch;
use rand::Rng;
use sss_xi::{BucketFamily, DefaultBucket};
use std::sync::Arc;

/// The shared bucket hashes of a Count-Min sketch.
#[derive(Debug)]
pub struct CountMinSchema<B = DefaultBucket> {
    rows: Arc<[B]>,
    width: usize,
    id: u64,
}

// Manual impl: cloning shares the seed Arc, so `B: Clone` is not required.
impl<B> Clone for CountMinSchema<B> {
    fn clone(&self) -> Self {
        Self {
            rows: Arc::clone(&self.rows),
            width: self.width,
            id: self.id,
        }
    }
}

impl<B: BucketFamily> CountMinSchema<B> {
    /// Create a schema with the given depth and width.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; see [`CountMinSchema::try_new`].
    pub fn new<R: Rng + ?Sized>(depth: usize, width: usize, rng: &mut R) -> Self {
        Self::try_new(depth, width, rng).expect("Count-Min dimensions must be non-zero")
    }

    /// Fallible constructor: errors when `depth == 0 || width == 0`.
    pub fn try_new<R: Rng + ?Sized>(depth: usize, width: usize, rng: &mut R) -> Result<Self> {
        if depth == 0 || width == 0 {
            return Err(Error::InvalidDimensions);
        }
        let rows: Arc<[B]> = (0..depth).map(|_| B::random(rng)).collect();
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
    pub fn sketch(&self) -> CountMinSketch<B> {
        CountMinSketch {
            schema: self.clone(),
            counters: vec![0; self.rows.len() * self.width],
        }
    }
}

/// A Count-Min sketch: `depth × width` non-negative counters.
#[derive(Debug)]
pub struct CountMinSketch<B = DefaultBucket> {
    schema: CountMinSchema<B>,
    counters: Vec<i64>,
}

// Manual impl, like the schema's: the bucket families sit behind an
// `Arc`, so a sketch clones without requiring `B: Clone`.
impl<B> Clone for CountMinSketch<B> {
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            counters: self.counters.clone(),
        }
    }
}

impl<B: BucketFamily> CountMinSketch<B> {
    /// The schema this sketch was created from.
    pub fn schema(&self) -> &CountMinSchema<B> {
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

    /// Conservative-update insert (Estan & Varghese): raise only the
    /// counters that would otherwise fall below the new lower bound
    /// `point_query(key) + count`. Point queries remain upper bounds for
    /// insert-only streams, but the collision inflation shrinks — often
    /// dramatically on skewed data (see the `conservative_update_dominates`
    /// test).
    ///
    /// **Insert-only**: conservative update is incompatible with deletions
    /// (counters no longer decompose linearly), so `count` must be
    /// positive.
    ///
    /// # Panics
    ///
    /// Panics if `count <= 0`.
    pub fn update_conservative(&mut self, key: u64, count: i64) {
        assert!(count > 0, "conservative update is insert-only");
        let w = self.schema.width;
        let floor = self.point_query(key) + count;
        for (r, row) in self.schema.rows.iter().enumerate() {
            let slot = &mut self.counters[r * w + row.bucket(key, w)];
            if *slot < floor {
                *slot = floor;
            }
        }
    }

    /// Point frequency estimate: `min_r c[h_r(key)]`. For insert-only
    /// streams this never underestimates.
    pub fn point_query(&self, key: u64) -> i64 {
        let w = self.schema.width;
        self.schema
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| self.counters[r * w + row.bucket(key, w)])
            .min()
            .unwrap_or(0)
    }

    /// Size-of-join estimate: `min_r Σ_b s_b·t_b`. Upper-bounds the true
    /// value for insert-only streams.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    pub fn size_of_join(&self, other: &Self) -> Result<f64> {
        self.check_schema(other)?;
        let est = (0..self.schema.depth())
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(other.row(r))
                    .map(|(&s, &t)| s as f64 * t as f64)
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        Ok(est)
    }

    /// Self-join size estimate: the inner product with itself.
    pub fn self_join(&self) -> f64 {
        self.size_of_join(self)
            .expect("self always shares its own schema")
    }

    /// Typed size-of-join estimate. Count-Min's minimum is a *biased*
    /// (upper-bound) estimator, so no unbiased variance exists; the
    /// reported variance is the sample variance of the per-row inner
    /// products — a dispersion heuristic that indicates how much collision
    /// inflation the rows disagree on, not a calibrated error bar. A
    /// depth-1 sketch reports infinite variance. The value is bit-identical
    /// to [`CountMinSketch::size_of_join`].
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] if `other` was built from another schema.
    pub fn size_of_join_estimate(&self, other: &Self) -> Result<Estimate> {
        self.check_schema(other)?;
        let rows: Vec<f64> = (0..self.schema.depth())
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(other.row(r))
                    .map(|(&s, &t)| s as f64 * t as f64)
                    .sum::<f64>()
            })
            .collect();
        let value = rows.iter().copied().fold(f64::INFINITY, f64::min);
        let variance = estimate::sample_variance(&rows);
        Ok(Estimate {
            value,
            variance,
            basics: rows,
        })
    }

    /// Typed self-join estimate — see [`CountMinSketch::size_of_join_estimate`]
    /// for the bias and variance caveats.
    pub fn self_join_estimate(&self) -> Estimate {
        self.size_of_join_estimate(self)
            .expect("self always shares its own schema")
    }
}

impl<B: BucketFamily> Sketch for CountMinSketch<B> {
    #[inline]
    fn update(&mut self, key: u64, count: i64) {
        let w = self.schema.width;
        for (r, row) in self.schema.rows.iter().enumerate() {
            self.counters[r * w + row.bucket(key, w)] += count;
        }
    }

    // Row-major batched kernel. Each row's polynomial-vs-generic dispatch
    // lives in `crate::rowkernel`: polynomial bucket hashes (the default)
    // go through the fused `bucket_scatter` kernel — lane-parallel hashing,
    // a magic-number remainder instead of a hardware divide, an immediate
    // scatter — and other families take the generic buffered path.
    // Bit-identical to per-key updates because integer counter increments
    // commute.
    fn update_batch(&mut self, keys: &[u64]) {
        let w = self.schema.width;
        for (r, row) in self.schema.rows.iter().enumerate() {
            crate::rowkernel::bucket_row_keys(row, w, keys, &mut self.counters[r * w..(r + 1) * w]);
        }
    }

    fn update_batch_counts(&mut self, items: &[(u64, i64)]) {
        let w = self.schema.width;
        for (r, row) in self.schema.rows.iter().enumerate() {
            crate::rowkernel::bucket_row_items(
                row,
                w,
                items,
                &mut self.counters[r * w..(r + 1) * w],
            );
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

    type Schema = CountMinSchema<DefaultBucket>;

    #[test]
    fn dimensions_validated() {
        assert!(Schema::try_new(0, 5, &mut rng(0)).is_err());
        assert!(Schema::try_new(5, 0, &mut rng(0)).is_err());
    }

    #[test]
    fn point_query_never_underestimates() {
        let schema = Schema::new(4, 64, &mut rng(1));
        let mut s = schema.sketch();
        for k in 0..500u64 {
            s.update(k, (k % 9 + 1) as i64);
        }
        for k in 0..500u64 {
            let truth = (k % 9 + 1) as i64;
            assert!(s.point_query(k) >= truth, "key {k}");
        }
    }

    #[test]
    fn point_query_is_exact_without_collisions() {
        let schema = Schema::new(4, 4096, &mut rng(2));
        let mut s = schema.sketch();
        s.update(7, 123);
        assert_eq!(s.point_query(7), 123);
        assert_eq!(s.point_query(8), 0);
    }

    #[test]
    fn join_estimate_upper_bounds_truth() {
        let schema = Schema::new(4, 4096, &mut rng(3));
        let mut s = schema.sketch();
        let mut t = schema.sketch();
        let mut truth = 0f64;
        for k in 0..1000u64 {
            let f = (k % 3 + 1) as i64;
            let g = (k % 5 + 1) as i64;
            s.update(k, f);
            t.update(k, g);
            truth += (f * g) as f64;
        }
        let est = s.size_of_join(&t).unwrap();
        assert!(est >= truth, "CM join estimate must not underestimate");
        // The expected additive bias is ≈ ‖f‖₁‖g‖₁/width ≈ 1.5k on a truth
        // of ≈ 6k, so a 2× envelope is comfortable at this width.
        assert!(est < truth * 2.0, "est = {est}, truth = {truth}");
    }

    /// Conservative update still upper-bounds, and its total overestimate
    /// is no worse — and on skewed streams clearly better — than the
    /// regular update's.
    #[test]
    fn conservative_update_dominates() {
        let mut rng = rng(7);
        let schema = Schema::new(4, 64, &mut rng);
        let mut regular = schema.sketch();
        let mut conservative = schema.sketch();
        // Skewed insert-only stream over 1000 keys, arriving one tuple at
        // a time (conservative update's gains accumulate across repeated
        // arrivals of the same key).
        let mut truth = std::collections::HashMap::new();
        for rep in 0..200u64 {
            for k in 0..1000u64 {
                if rep % (k + 1) == 0 {
                    regular.update(k, 1);
                    conservative.update_conservative(k, 1);
                    *truth.entry(k).or_insert(0i64) += 1;
                }
            }
        }
        let mut over_regular = 0i64;
        let mut over_conservative = 0i64;
        for (&k, &t) in &truth {
            let qr = regular.point_query(k);
            let qc = conservative.point_query(k);
            assert!(qc >= t, "conservative must not underestimate key {k}");
            assert!(qc <= qr, "conservative must not exceed regular for key {k}");
            over_regular += qr - t;
            over_conservative += qc - t;
        }
        assert!(
            over_conservative * 10 < over_regular * 7,
            "conservative {over_conservative} vs regular {over_regular}"
        );
    }

    #[test]
    #[should_panic(expected = "insert-only")]
    fn conservative_rejects_deletions() {
        let mut rng = rng(8);
        let schema = Schema::new(2, 16, &mut rng);
        let mut s = schema.sketch();
        s.update_conservative(1, -1);
    }

    /// The batched kernels must leave exactly the counter state of the
    /// per-key loop, across chunk boundaries and with negative counts.
    #[test]
    fn batched_updates_are_bit_identical_to_scalar() {
        let schema = Schema::new(4, 150, &mut rng(50));
        let keys: Vec<u64> = (0..777u64).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let items: Vec<(u64, i64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i as i64 % 9) - 4))
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
    fn merge_matches_union() {
        let schema = Schema::new(3, 64, &mut rng(4));
        let mut whole = schema.sketch();
        let mut a = schema.sketch();
        let mut b = schema.sketch();
        for k in 0..200u64 {
            whole.update(k, 1);
            if k % 2 == 0 {
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
        let a = Schema::new(2, 16, &mut rng(5)).sketch();
        let mut b = Schema::new(2, 16, &mut rng(6)).sketch();
        assert!(b.merge(&a).is_err());
        assert!(b.size_of_join(&a).is_err());
    }
}
