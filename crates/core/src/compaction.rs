//! Bounded-memory support for epoch-based shedding: the rate-quantization
//! grid and the cross-term query cache.
//!
//! Together with same-`p` compaction they turn [`crate::EpochShedder`]
//! from an O(E)-memory, O(E²)-query structure (E = number of rate changes)
//! into one bounded by the number of *distinct* sampling rates G:
//!
//! * **Same-`p` compaction** (implemented in `epochs.rs`, justified here):
//!   two epochs A and B with equal rate `p` merge *exactly*. By sketch
//!   linearity `(A+B)` self-join expands to `A² + B² + 2AB`, which is
//!   precisely the two Prop-14 diagonals plus the Prop-13 cross term at
//!   `p·p`; the kept-tuple corrections add because the kept counts add.
//!   So the shedder never needs more than one cell per distinct `p`.
//! * **[`RateGrid`]**: the adaptive controller snaps its targets onto a
//!   small logarithmic grid (`steps_per_decade` points per decade between
//!   1 and `min_p`, with 1 and `min_p` always representable), so the
//!   number of distinct rates — and with compaction the number of cells —
//!   is bounded by [`RateGrid::size`] regardless of stream length.
//! * **`QueryCache`** (crate-private): a monitoring loop calling
//!   `self_join()` per batch only dirties the *current* cell between
//!   queries, so the cache recomputes one diagonal and one row of cross
//!   terms (O(G) sketch dot products) instead of the full O(G²) table. A
//!   row is keyed on its cell's `kept()`: that count grows exactly when
//!   the cell's sketch changes, a cell that holds tuples is never removed
//!   or replaced, and an empty cell's diagonal and cross terms are zero at
//!   any `p` — so a key that still matches never serves a stale row.
//!
//! The uncompacted implementation — one epoch per rate change, full O(E²)
//! query — lives on as the bit-identity oracle in
//! `tests/support/mod.rs`.

use crate::error::{Error, Result};
use crate::sampled::{bernoulli_self_join, Sampled};
use crate::sketch::JoinSketch;

/// A logarithmic grid of admissible sampling rates.
///
/// Grid point `k` is `10^(−k/steps_per_decade)`; `k = 0` is exactly `1.0`.
/// Snapping clamps to a caller-supplied floor `min_p` (returned verbatim,
/// so the floor itself is always representable). Snapping is idempotent:
/// a snapped value snaps to itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateGrid {
    steps_per_decade: u32,
}

impl Default for RateGrid {
    /// 40 steps per decade: adjacent rates differ by ≈ 5.9%, finer than
    /// any useful hysteresis band, yet only 81 points span `[0.01, 1]`.
    fn default() -> Self {
        Self {
            steps_per_decade: 40,
        }
    }
}

impl RateGrid {
    /// A grid with `steps_per_decade` points per factor-of-10 of `p`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidGrid`] if `steps_per_decade` is zero.
    pub fn new(steps_per_decade: u32) -> Result<Self> {
        if steps_per_decade == 0 {
            return Err(Error::InvalidGrid { steps_per_decade });
        }
        Ok(Self { steps_per_decade })
    }

    /// The grid resolution.
    pub fn steps_per_decade(&self) -> u32 {
        self.steps_per_decade
    }

    /// The grid step nearest to `p` (0 for `p ≥ 1`; grows as `p` falls).
    pub fn step_of(&self, p: f64) -> i64 {
        (-(p.log10()) * self.steps_per_decade as f64).round() as i64
    }

    /// The rate at grid step `step` (`step ≤ 0` yields exactly 1).
    pub fn value(&self, step: i64) -> f64 {
        if step <= 0 {
            1.0
        } else {
            10f64.powf(-(step as f64) / self.steps_per_decade as f64)
        }
    }

    /// Snap `p` to the nearest grid point within `[min_p, 1]`. Values at
    /// or below the floor return `min_p` itself, bit-exactly.
    pub fn snap(&self, p: f64, min_p: f64) -> f64 {
        debug_assert!(min_p > 0.0 && min_p <= 1.0, "min_p must be in (0, 1]");
        if p >= 1.0 {
            return 1.0;
        }
        if p <= min_p {
            return min_p;
        }
        self.value(self.step_of(p)).clamp(min_p, 1.0)
    }

    /// Upper bound on the number of distinct snapped rates in `[min_p, 1]`
    /// (grid points plus the `min_p` floor) — and therefore, with same-`p`
    /// compaction, on the number of epochs a shedder can ever hold.
    pub fn size(&self, min_p: f64) -> usize {
        debug_assert!(min_p > 0.0 && min_p <= 1.0, "min_p must be in (0, 1]");
        let k_max = (-(min_p.log10()) * self.steps_per_decade as f64).floor();
        k_max as usize + 2
    }
}

/// Cached pairwise terms of the epoch self-join decomposition.
///
/// `diag[i]` holds `raw_self_join` of cell `i`'s sketch; `cross[i][j]`
/// (for `i < j`) holds the raw sketch dot product between cells `i` and
/// `j`. Entries are recomputed only for cells whose `kept()` moved since
/// the last query — between monitoring queries only the current cell
/// mutates, so a steady-state query costs O(G) dot products, not O(G²).
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    kept: Vec<Option<u64>>,
    diag: Vec<f64>,
    cross: Vec<Vec<f64>>,
}

impl QueryCache {
    /// Bring the cache in line with `cells`, recomputing the diagonal and
    /// cross row/column of every cell whose kept count changed.
    pub(crate) fn sync(&mut self, cells: &[Sampled<JoinSketch>]) -> Result<()> {
        let n = cells.len();
        // The cell list only grows, except that an empty trailing cell
        // may be dropped again — truncation handles both directions.
        self.kept.truncate(n);
        self.diag.truncate(n);
        self.cross.truncate(n);
        while self.kept.len() < n {
            self.kept.push(None);
            self.diag.push(0.0);
            self.cross.push(Vec::new());
        }
        for row in &mut self.cross {
            row.resize(n, 0.0);
        }
        for i in 0..n {
            if self.kept[i] == Some(cells[i].kept()) {
                continue;
            }
            let sketch = cells[i].summary();
            self.diag[i] = sketch.raw_self_join();
            for (j, other) in cells.iter().enumerate() {
                if j == i {
                    continue;
                }
                let v = sketch.raw_size_of_join(other.summary())?;
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                self.cross[a][b] = v;
            }
            self.kept[i] = Some(cells[i].kept());
        }
        Ok(())
    }

    /// Combine the cached terms exactly as the uncached loop does (same
    /// summation order, so the result is bit-identical to recomputing).
    pub(crate) fn combined_self_join(&self, cells: &[Sampled<JoinSketch>]) -> f64 {
        let mut total = 0.0;
        for (i, c) in cells.iter().enumerate() {
            total += bernoulli_self_join(self.diag[i], c.probability(), c.kept());
            for (j, c2) in cells.iter().enumerate().skip(i + 1) {
                total += 2.0 * self.cross[i][j] / (c.probability() * c2.probability());
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_snaps_idempotently_and_keeps_endpoints() {
        let grid = RateGrid::default();
        assert_eq!(grid.snap(1.0, 1e-4), 1.0);
        assert_eq!(grid.snap(2.5, 1e-4), 1.0);
        assert_eq!(grid.snap(1e-9, 0.01), 0.01);
        assert_eq!(grid.snap(0.01, 0.01), 0.01);
        for &p in &[0.7, 0.31, 0.1, 0.033, 0.0011] {
            let snapped = grid.snap(p, 1e-4);
            assert_eq!(
                grid.snap(snapped, 1e-4),
                snapped,
                "snap must be idempotent at p = {p}"
            );
            // Within one half-step of the requested rate, geometrically.
            let half_step = 10f64.powf(0.5 / 40.0);
            assert!(snapped / p < half_step && p / snapped < half_step);
        }
    }

    #[test]
    fn grid_size_bounds_distinct_snaps() {
        let grid = RateGrid::new(40).unwrap();
        let min_p = 0.01;
        let mut seen = std::collections::BTreeSet::new();
        let mut p = 1.0f64;
        while p > min_p / 10.0 {
            seen.insert(grid.snap(p, min_p).to_bits());
            p *= 0.993;
        }
        assert!(
            seen.len() <= grid.size(min_p),
            "{} distinct snaps > bound {}",
            seen.len(),
            grid.size(min_p)
        );
        // Two decades at 40 steps each, plus both endpoints.
        assert_eq!(grid.size(min_p), 82);
    }

    #[test]
    fn zero_step_grid_is_rejected() {
        assert!(matches!(
            RateGrid::new(0),
            Err(Error::InvalidGrid {
                steps_per_decade: 0
            })
        ));
        assert!(RateGrid::new(1).is_ok());
    }
}
