//! Epoch-based shedding: unbiased estimates under a **time-varying**
//! sampling rate, in bounded memory.
//!
//! An adaptive load shedder changes `p` as the arrival rate drifts, but
//! the paper's Proposition 14 scaling assumes one fixed `p`. The fix is to
//! segment the stream into *epochs* of constant `p` and keep one sketch
//! per epoch (same schema). Writing `fᵢ = Σ_e fᵢᵉ` for the per-epoch
//! frequencies, the self-join size splits over epoch pairs:
//!
//! ```text
//! F₂ = Σ_{e} Σᵢ (fᵢᵉ)²  +  Σ_{e ≠ e′} Σᵢ fᵢᵉ fᵢᵉ′
//! ```
//!
//! and each piece has an unbiased sketch-over-samples estimator from the
//! paper: the diagonal terms via Proposition 14 (self-join over a
//! Bernoulli sample at `p_e`, with its additive correction), the
//! off-diagonal terms via Proposition 13 (size of join between two
//! *independent* Bernoulli samples at `p_e`, `p_e′` — independence holds
//! because the epochs cover disjoint stream segments). Everything reuses
//! the single shared sketch schema, so the combination is exact linear
//! algebra over the same counters.
//!
//! An epoch is a [`Sampled<JoinSketch>`](crate::Sampled) *cell*: the one
//! Bernoulli front end, with its own skip sampler and `seen`/`kept`
//! counts. The shedder is the list of cells plus the cross-cell terms;
//! every diagonal is the cell's own [`Sampled::self_join`]. Two additions
//! keep long-running pipelines bounded (see [`crate::compaction`] for the
//! full argument):
//!
//! * **One cell per distinct rate.** When a rate recurs, the shedder
//!   resumes the cell that already accumulated at that rate instead of
//!   opening a new one. This is exact: revisiting a cell just adds more
//!   independently Bernoulli(`p`)-sampled tuples to the same sketch, and
//!   `(A+B)²` expands by linearity to the same diagonal + cross terms the
//!   separate epochs would contribute. Memory is therefore O(#distinct
//!   rates), not O(#rate changes) — with a quantized controller
//!   ([`crate::compaction::RateGrid`]), a hard constant.
//! * **Cross-term caching.** `self_join()` memoizes the pairwise sketch
//!   dot products and recomputes only the rows of cells whose `kept()`
//!   moved since the last query, so a per-batch monitoring loop pays O(G)
//!   sketch dot products per query instead of O(G²).
//!
//! **Coins per rate.** The shedder holds one `seed`. The cell for rate `p`
//! draws its coins from the seed `splitmix64(seed ^ p.to_bits())`
//! ([`Sampled`]'s counter generator), and a resumed cell simply continues
//! its own sequence, pending gap included. The leftover part of a
//! geometric gap is still geometric, so a cell samples its segments as if
//! they were one continuous stream. The uncompacted shedder
//! (`tests/support/mod.rs`, one epoch per change) draws each epoch from
//! the same per-rate sequence, so compaction changes no estimate
//! (`tests/epoch_compaction.rs`).
//!
//! The same decomposition gives the size of join between two epoch-shedded
//! streams: `Σ_{e,e′} (1/(p_e q_e′))·S_e·T_e′` with no diagonal
//! correction, since the two relations' samples are always independent.
//!
//! **A runtime in front.** Under overload a sharded runtime's `try_push`
//! sketches what its rings accept at full rate and hands the rest back;
//! fed to a shedder, that overflow makes the stream two disjoint parts,
//! the runtime's merged sketch `A` and the shedded `O`. Then
//! `F₂ = A·A + O·O + 2·A·O`: `A·A` is the raw sketch estimate, `O·O` the
//! shedder's own, and the cross term is `Σ_e raw(O_e·A)/p_e`, a
//! Proposition 13 product with rate 1 on the runtime's side. Ring fullness
//! decides the split independently of the coins and the sketch seeds, so
//! the sum is unbiased under any overload pattern.
//! [`EpochShedder::self_join_estimate_over`] answers it, and
//! [`EpochShedder::size_of_join_estimate_over`] expands
//! `(A₁+O₁)·(A₂+O₂)` the same way for two split streams.
//!
//! The shedder has no wire form, because a [`Sampled`] has none yet
//! (ROADMAP 5(a)).
//!
//! ```compile_fail
//! use sss_core::{EpochShedder, Portable};
//! fn gone(s: &EpochShedder) -> u64 { s.fingerprint() }
//! ```
//!
//! Nor a join against a bare sketch: the runtime-plus-overflow split is
//! what the `*_over` estimates answer.
//!
//! ```compile_fail
//! use sss_core::{EpochShedder, JoinSketch};
//! fn gone(s: &EpochShedder, a: &JoinSketch) -> f64 {
//!     s.size_of_join_sketch(a, 1.0).unwrap() // removed: `size_of_join_estimate_over`
//! }
//! ```
//!
//! ```compile_fail
//! use sss_core::{EpochShedder, JoinSketch};
//! fn gone(s: &EpochShedder, a: &JoinSketch) -> Vec<f64> {
//!     s.size_of_join_sketch_basics(a, 1.0).unwrap() // removed with it
//! }
//! ```
//!
//! ```compile_fail
//! use sss_core::{EpochShedder, Estimate, JoinSketch};
//! fn gone(s: &EpochShedder, a: &JoinSketch) -> Estimate {
//!     s.size_of_join_sketch_estimate(a, 1.0).unwrap() // removed with it
//! }
//! ```

use crate::compaction::QueryCache;
use crate::error::Result;
use crate::sampled::{bernoulli_self_join, Sampled};
use crate::sketch::{JoinSchema, JoinSketch};
use sss_sketch::Estimate;
use sss_xi::splitmix64;
use std::cell::RefCell;

/// Whether two sampling rates are the same epoch rate (relative-epsilon
/// comparison).
#[inline]
fn same_p(a: f64, b: f64) -> bool {
    (a - b).abs() < f64::EPSILON * b.abs()
}

/// A load shedder whose sampling rate may change between epochs while the
/// overall estimate stays unbiased, holding at most one cell per distinct
/// rate.
#[derive(Debug)]
pub struct EpochShedder {
    schema: JoinSchema,
    /// The cell for rate `p` is seeded `splitmix64(seed ^ p.to_bits())`.
    seed: u64,
    /// Invariant: no two cells share a rate, and only the current cell
    /// can be empty (`seen == 0`) — then it is the trailing one.
    cells: Vec<Sampled<JoinSketch>>,
    /// Index of the cell currently receiving tuples.
    current: usize,
    cache: RefCell<QueryCache>,
}

impl EpochShedder {
    /// Start a shedder with an initial sampling probability; `seed` fixes
    /// every cell's coins.
    pub fn new(schema: &JoinSchema, p: f64, seed: u64) -> Result<Self> {
        Ok(Self {
            schema: schema.clone(),
            seed,
            cells: vec![Self::cell(schema, p, seed)?],
            current: 0,
            cache: RefCell::new(QueryCache::default()),
        })
    }

    /// A fresh cell at rate `p`.
    fn cell(schema: &JoinSchema, p: f64, seed: u64) -> Result<Sampled<JoinSketch>> {
        Sampled::seeded(schema.sketch(), p, splitmix64(seed ^ p.to_bits()))
    }

    /// Switch to probability `p` (no-op if `p` equals the current rate).
    ///
    /// If a cell already accumulated at `p`, it is resumed where its coins
    /// left off — the union of its segments is still one Bernoulli(`p`)
    /// sample, so the estimate stays exactly unbiased while the cell count
    /// stays bounded by the number of distinct rates. An empty current
    /// cell is replaced in place, or dropped when the target rate already
    /// has a cell. An invalid `p` is refused before anything changes.
    pub fn set_probability(&mut self, p: f64) -> Result<()> {
        if same_p(self.probability(), p) {
            return Ok(());
        }
        let empty = self.cells[self.current].seen() == 0;
        if let Some(held) = self.cells.iter().position(|c| same_p(c.probability(), p)) {
            if empty {
                // The empty cell is the trailing one, so dropping it
                // cannot shift `held`.
                debug_assert_eq!(self.current, self.cells.len() - 1);
                self.cells.pop();
            }
            self.current = held;
        } else {
            let cell = Self::cell(&self.schema, p, self.seed)?;
            if empty {
                self.cells[self.current] = cell;
            } else {
                self.cells.push(cell);
                self.current = self.cells.len() - 1;
            }
        }
        Ok(())
    }

    /// Offer the next stream tuple to the current cell; returns whether it
    /// was sketched.
    #[inline]
    pub fn observe(&mut self, key: u64) -> bool {
        self.cells[self.current].observe(key)
    }

    /// Offer a whole batch of tuples to the current cell
    /// ([`Sampled::feed_batch`], bit-identical to [`EpochShedder::observe`]
    /// per key); returns how many were kept. Rate changes take effect
    /// between batches via [`EpochShedder::set_probability`].
    pub fn feed_batch(&mut self, keys: &[u64]) -> u64 {
        self.cells[self.current].feed_batch(keys)
    }

    /// The probability currently in force.
    pub fn probability(&self) -> f64 {
        self.cells[self.current].probability()
    }

    /// The smallest sampling rate any cell ran at — the dominant
    /// contributor to the sampling noise of combined estimates, and the
    /// rate the conservative plug-in variances are evaluated at.
    fn min_probability(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.probability())
            .fold(1.0, f64::min)
    }

    /// Number of live cells — at most one per distinct rate ever used
    /// (bounded by the rate grid size when rates come from a quantized
    /// controller), *not* the number of rate changes.
    pub fn epoch_count(&self) -> usize {
        self.cells.len()
    }

    /// Tuples offered across all cells.
    pub fn seen(&self) -> u64 {
        self.cells.iter().map(|c| c.seen()).sum()
    }

    /// Tuples sketched across all cells.
    pub fn kept(&self) -> u64 {
        self.cells.iter().map(|c| c.kept()).sum()
    }

    /// Unbiased self-join size estimate of the *entire* stream, combining
    /// Proposition 14 within cells and Proposition 13 across them.
    ///
    /// Pairwise cross terms are served from a cache that only recomputes
    /// the rows of cells modified since the previous query, so calling
    /// this per batch from a monitoring loop costs O(G) sketch dot
    /// products per call (G = number of distinct rates) instead of O(G²).
    /// The result is bit-identical to [`EpochShedder::self_join_uncached`].
    pub fn self_join(&self) -> Result<f64> {
        let mut cache = self.cache.borrow_mut();
        cache.sync(&self.cells)?;
        Ok(cache.combined_self_join(&self.cells))
    }

    /// The cache-free O(G²) self-join path: recomputes every diagonal and
    /// cross term from the sketches. Retained as the oracle the cached
    /// [`EpochShedder::self_join`] is tested (and benchmarked) against.
    pub fn self_join_uncached(&self) -> Result<f64> {
        let mut total = 0.0;
        for (i, c) in self.cells.iter().enumerate() {
            total += c.self_join();
            for c2 in &self.cells[i + 1..] {
                total += 2.0 * c.size_of_join(c2)?;
            }
        }
        Ok(total)
    }

    /// Unbiased size-of-join estimate against another epoch-shedded stream
    /// (sharing the sketch schema): every cell pair's
    /// [`Sampled::size_of_join`].
    pub fn size_of_join(&self, other: &EpochShedder) -> Result<f64> {
        let mut total = 0.0;
        for c in &self.cells {
            for o in &other.cells {
                total += c.size_of_join(o)?;
            }
        }
        Ok(total)
    }

    /// The per-lane basic estimates of the combined self-join: for each
    /// independent sketch lane `k`, the Prop.-14-corrected diagonal of
    /// every cell plus the `2/(p_e·p_e′)`-scaled pairwise cross terms —
    /// the same decomposition as [`EpochShedder::self_join_uncached`],
    /// restricted to lane `k`. Combining the lanes (mean or median by
    /// backend) recovers an estimate of the full-stream self-join; their
    /// spread measures the sketch noise of the combined estimator.
    ///
    /// O(G²·lanes) sketch work (G = cell count, bounded by compaction).
    ///
    /// # Errors
    ///
    /// Propagates schema mismatches (impossible for internally built
    /// cells).
    fn self_join_basics(&self) -> Result<Vec<f64>> {
        let mut lanes = vec![0.0; self.cells[0].summary().self_join_basics().len()];
        for (i, c) in self.cells.iter().enumerate() {
            for (lane, d) in lanes.iter_mut().zip(c.summary().self_join_basics()) {
                *lane += bernoulli_self_join(d, c.probability(), c.kept());
            }
            for c2 in &self.cells[i + 1..] {
                let scale = 2.0 / (c.probability() * c2.probability());
                let cross = c.summary().size_of_join_basics(c2.summary())?;
                for (lane, x) in lanes.iter_mut().zip(cross) {
                    *lane += scale * x;
                }
            }
        }
        Ok(lanes)
    }

    /// The sampling-noise part of the combined self-join variance: the
    /// Bernoulli plug-in summed per cell (cell samples are independent),
    /// each evaluated at that cell's rate, seen count, and corrected
    /// sketch estimate. Cross-cell terms reuse the same samples as the
    /// diagonals, so their extra sampling covariance is not modeled — the
    /// per-cell plug-ins (F₃ ≤ F₂^{3/2}, clamped) are conservative
    /// precisely to absorb that.
    fn sampling_variance(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| {
                sss_sampling::bernoulli_self_join_variance_plugin(
                    c.probability(),
                    c.seen(),
                    c.self_join(),
                )
            })
            .sum()
    }

    /// Typed combined self-join estimate: value bit-identical to
    /// [`EpochShedder::self_join`] (the cached path). Lane `k` sums the
    /// Prop.-14-corrected diagonals and the `2/(p_e·p_e′)`-scaled cross
    /// terms of lane `k`; the variance is the backend-combined lane spread
    /// plus the per-cell Bernoulli sampling plug-ins.
    ///
    /// # Errors
    ///
    /// As for [`EpochShedder::self_join`].
    pub fn self_join_estimate(&self) -> Result<Estimate> {
        let value = self.self_join()?;
        let lanes = self.self_join_basics()?;
        let af = self.schema.averaging_factor() as f64;
        let single = 2.0 * value * value / af;
        let e = self.cells[0].summary().combine_lanes(value, lanes, single);
        Ok(e.plus_variance(self.sampling_variance()))
    }

    /// Per-lane basics of [`EpochShedder::size_of_join`]: all cell-pair
    /// cross lanes, each scaled by `1/(p_e·p_o)`.
    ///
    /// # Errors
    ///
    /// Schema mismatch between the two shedders' sketches.
    fn size_of_join_basics(&self, other: &EpochShedder) -> Result<Vec<f64>> {
        let mut lanes = vec![0.0; self.cells[0].summary().self_join_basics().len()];
        for c in &self.cells {
            for o in &other.cells {
                let scale = 1.0 / (c.probability() * o.probability());
                for (lane, x) in lanes
                    .iter_mut()
                    .zip(c.summary().size_of_join_basics(o.summary())?)
                {
                    *lane += scale * x;
                }
            }
        }
        Ok(lanes)
    }

    /// Typed counterpart of [`EpochShedder::size_of_join`] against another
    /// epoch-shedded stream. Value bit-identical to the scalar path;
    /// sampling plug-in evaluated at both sides' smallest cell rates.
    ///
    /// # Errors
    ///
    /// Schema mismatch between the two shedders' sketches.
    pub fn size_of_join_estimate(&self, other: &EpochShedder) -> Result<Estimate> {
        let value = self.size_of_join(other)?;
        let lanes = self.size_of_join_basics(other)?;
        let af = self.schema.averaging_factor() as f64;
        let f2_self = self.self_join()?.max(0.0);
        let f2_other = other.self_join()?.max(0.0);
        let single = (f2_self * f2_other + value * value) / af;
        let sampling = sss_sampling::bernoulli_size_of_join_variance_plugin(
            self.min_probability(),
            other.min_probability(),
            f2_self,
            f2_other,
            value,
        );
        Ok(self.cells[0]
            .summary()
            .combine_lanes(value, lanes, single)
            .plus_variance(sampling))
    }

    /// Typed unbiased self-join estimate of a stream split between a
    /// full-rate sketch `runtime` (`A`, what a sharded runtime accepted)
    /// and this shedder (`O`, the overflow it was handed): the value is
    ///
    /// ```text
    /// A.raw_self_join() + O.self_join() + 2·Σ_e raw(O_e·A)/p_e
    /// ```
    ///
    /// summed in that order. Lane `k` sums the same three parts of lane
    /// `k`, so the spread measures the sketch noise of the combined
    /// estimator; the shedder's Bernoulli sampling plug-in is added on top
    /// (every lane sees the same sample, so averaging lanes cannot average
    /// it away).
    ///
    /// # Errors
    ///
    /// Schema mismatch between `runtime` and the shedder.
    pub fn self_join_estimate_over(&self, runtime: &JoinSketch) -> Result<Estimate> {
        let value = self.self_join_over(runtime)?;
        let mut lanes = runtime.self_join_basics();
        let shed_lanes = self.self_join_basics()?;
        let cross = self.cross_basics(runtime)?;
        for ((lane, s), c) in lanes.iter_mut().zip(shed_lanes).zip(cross) {
            *lane += s + 2.0 * c;
        }
        let single = 2.0 * value * value / runtime.averaging_factor() as f64;
        Ok(runtime
            .combine_lanes(value, lanes, single)
            .plus_variance(self.sampling_variance()))
    }

    /// Typed unbiased size-of-join estimate between two split streams:
    /// this one (`A₁` = `runtime`, `O₁` = this shedder) and another
    /// (`A₂` = `other_runtime`, `O₂` = `other`, `None` when that side never
    /// overflowed). The product `(A₁+O₁)·(A₂+O₂)` is summed as
    ///
    /// ```text
    /// A₁·A₂ + Σ_e raw(O₁ₑ·A₂)/p_e + Σ_e raw(O₂ₑ·A₁)/p_e + O₁·O₂
    /// ```
    ///
    /// value and lanes alike, the last two terms only with an `other`.
    /// When only the other side sheds, call this on its shedder: the raw
    /// products are symmetric to the bit. The sampling plug-in is evaluated
    /// at each side's smallest cell rate (1 for a side without a shedder),
    /// with the combined self-join values standing in for the unknown F₂'s.
    ///
    /// # Errors
    ///
    /// Schema mismatch between any two of the sketches.
    pub fn size_of_join_estimate_over(
        &self,
        runtime: &JoinSketch,
        other_runtime: &JoinSketch,
        other: Option<&EpochShedder>,
    ) -> Result<Estimate> {
        let add = |lanes: &mut Vec<f64>, extra: Vec<f64>| {
            for (lane, x) in lanes.iter_mut().zip(extra) {
                *lane += x;
            }
        };
        let mut value = runtime.raw_size_of_join(other_runtime)?;
        let mut lanes = runtime.size_of_join_basics(other_runtime)?;
        value += self.cross(other_runtime)?;
        add(&mut lanes, self.cross_basics(other_runtime)?);
        if let Some(o) = other {
            value += o.cross(runtime)?;
            add(&mut lanes, o.cross_basics(runtime)?);
            value += self.size_of_join(o)?;
            add(&mut lanes, self.size_of_join_basics(o)?);
        }
        let f2_self = self.self_join_over(runtime)?.max(0.0);
        let f2_other = match other {
            Some(o) => o.self_join_over(other_runtime)?,
            None => other_runtime.raw_self_join(),
        }
        .max(0.0);
        let sampling = sss_sampling::bernoulli_size_of_join_variance_plugin(
            self.min_probability(),
            other.map_or(1.0, EpochShedder::min_probability),
            f2_self,
            f2_other,
            value,
        );
        let single = (f2_self * f2_other + value * value) / runtime.averaging_factor() as f64;
        Ok(runtime
            .combine_lanes(value, lanes, single)
            .plus_variance(sampling))
    }

    /// The value of [`EpochShedder::self_join_estimate_over`]:
    /// `A·A + O·O + 2·A·O`, in that order.
    fn self_join_over(&self, runtime: &JoinSketch) -> Result<f64> {
        let mut value = runtime.raw_self_join();
        value += self.self_join()?;
        value += 2.0 * self.cross(runtime)?;
        Ok(value)
    }

    /// The cross term against a full-rate sketch of a disjoint segment,
    /// `Σ_e raw(O_e·A)/p_e`: each cell's sample is independent of `A`, so
    /// each term is a Proposition 13 estimator with rate 1 on `A`'s side.
    fn cross(&self, runtime: &JoinSketch) -> Result<f64> {
        let mut total = 0.0;
        for c in &self.cells {
            total += c.summary().raw_size_of_join(runtime)? / c.probability();
        }
        Ok(total)
    }

    /// Per-lane basics of [`EpochShedder::cross`]: the `1/p_e`-scaled cross
    /// lanes summed over cells.
    fn cross_basics(&self, runtime: &JoinSketch) -> Result<Vec<f64>> {
        let mut lanes = vec![0.0; runtime.self_join_basics().len()];
        for c in &self.cells {
            let scale = 1.0 / c.probability();
            for (lane, x) in lanes
                .iter_mut()
                .zip(c.summary().size_of_join_basics(runtime)?)
            {
                *lane += scale * x;
            }
        }
        Ok(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn estimates_match_scalar_queries_bit_for_bit() {
        let mut r = rng(42);
        let schema = JoinSchema::fagms(5, 256, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.8, r.random()).unwrap();
        for k in 0..20_000u64 {
            shed.observe(k % 300);
            if k == 7_000 {
                shed.set_probability(0.4).unwrap();
            }
            if k == 14_000 {
                shed.set_probability(0.6).unwrap();
            }
        }
        assert!(shed.epoch_count() > 1);
        let e = shed.self_join_estimate().unwrap();
        assert_eq!(e.value.to_bits(), shed.self_join().unwrap().to_bits());
        assert!(e.variance.is_finite() && e.variance > 0.0);
        assert_eq!(e.basics.len(), 5);

        let mut shed2 = EpochShedder::new(&schema, 0.5, r.random()).unwrap();
        for k in 0..10_000u64 {
            shed2.observe(k % 300);
        }
        let ee = shed.size_of_join_estimate(&shed2).unwrap();
        assert_eq!(
            ee.value.to_bits(),
            shed.size_of_join(&shed2).unwrap().to_bits()
        );
    }

    /// The lane decomposition must re-combine to (approximately — the
    /// summation order differs) the scalar combined estimate, and the mean
    /// path exactly distributes over lanes.
    #[test]
    fn self_join_basics_recombine_to_the_combined_estimate() {
        let mut r = rng(43);
        let schema = JoinSchema::agms(16, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.9, r.random()).unwrap();
        for k in 0..8_000u64 {
            shed.observe(k % 100);
            if k == 4_000 {
                shed.set_probability(0.5).unwrap();
            }
        }
        let lanes = shed.self_join_basics().unwrap();
        assert_eq!(lanes.len(), 16);
        let combined: f64 = lanes.iter().sum::<f64>() / lanes.len() as f64;
        let scalar = shed.self_join().unwrap();
        assert!(
            (combined - scalar).abs() <= scalar.abs() * 1e-9 + 1e-6,
            "lanes {combined} vs scalar {scalar}"
        );
    }

    #[test]
    fn sampling_variance_is_zero_without_shedding() {
        let mut r = rng(44);
        let schema = JoinSchema::agms(8, &mut r);
        let mut shed = EpochShedder::new(&schema, 1.0, r.random()).unwrap();
        for k in 0..1_000u64 {
            shed.observe(k % 50);
        }
        assert_eq!(shed.sampling_variance(), 0.0);
        // Shedding makes it strictly positive.
        let mut lossy = EpochShedder::new(&schema, 0.3, r.random()).unwrap();
        for k in 0..1_000u64 {
            lossy.observe(k % 50);
        }
        assert!(lossy.sampling_variance() > 0.0);
    }

    #[test]
    fn single_epoch_matches_plain_shedder_scaling() {
        let mut r = rng(1);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        let mut shed = EpochShedder::new(&schema, 1.0, r.random()).unwrap();
        for k in 0..50_000u64 {
            shed.observe(k % 500);
        }
        assert_eq!(shed.epoch_count(), 1);
        assert_eq!(shed.kept(), 50_000);
        // p = 1: exact.
        let truth = 500.0 * 100.0 * 100.0;
        assert!((shed.self_join().unwrap() - truth).abs() / truth < 0.05);
    }

    #[test]
    fn probability_changes_create_epochs_lazily() {
        let mut r = rng(2);
        let schema = JoinSchema::agms(4, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.5, r.random()).unwrap();
        // Change before any tuple: reuse the empty epoch.
        shed.set_probability(0.25).unwrap();
        assert_eq!(shed.epoch_count(), 1);
        assert_eq!(shed.probability(), 0.25);
        shed.observe(1);
        // Same p: no new epoch.
        shed.set_probability(0.25).unwrap();
        assert_eq!(shed.epoch_count(), 1);
        // Different p after traffic: new epoch.
        shed.set_probability(0.5).unwrap();
        assert_eq!(shed.epoch_count(), 2);
    }

    /// Compaction: revisiting a rate resumes its epoch instead of opening
    /// a new one, and an untouched trailing epoch is dropped on the way.
    #[test]
    fn recurring_rates_are_compacted() {
        let mut r = rng(20);
        let schema = JoinSchema::agms(4, &mut r);
        let mut shed = EpochShedder::new(&schema, 0.5, r.random()).unwrap();
        shed.observe(1);
        shed.set_probability(0.25).unwrap();
        shed.observe(2);
        shed.set_probability(0.5).unwrap(); // revisit epoch 0
        assert_eq!(shed.epoch_count(), 2);
        assert_eq!(shed.probability(), 0.5);
        shed.observe(3);
        // A rate change that never sees traffic leaves no epoch behind.
        shed.set_probability(0.1).unwrap();
        assert_eq!(shed.epoch_count(), 3);
        shed.set_probability(0.25).unwrap(); // empty 0.1 epoch dropped
        assert_eq!(shed.epoch_count(), 2);
        assert_eq!(shed.probability(), 0.25);
        // 1000 alternations never grow past the two distinct rates.
        for i in 0..1000u64 {
            let p = if i % 2 == 0 { 0.5 } else { 0.25 };
            shed.set_probability(p).unwrap();
            shed.observe(i);
        }
        assert_eq!(shed.epoch_count(), 2);
    }

    /// The headline property: an estimate over epochs with *different*
    /// sampling rates is still unbiased.
    #[test]
    fn varying_rates_stay_unbiased() {
        let mut r = rng(3);
        // Relation: 40 keys, key k appears 3(k+1) times, split across
        // three epochs with different rates.
        let truth: f64 = (1..=40u64)
            .map(|f| (3.0 * f as f64) * (3.0 * f as f64))
            .sum();
        let reps = 600;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut shed = EpochShedder::new(&schema, 0.9, r.random()).unwrap();
            for (epoch, p) in [(0u64, 0.9), (1, 0.3), (2, 0.6)] {
                shed.set_probability(p).unwrap();
                for k in 0..40u64 {
                    for _ in 0..=k {
                        shed.observe(k);
                    }
                }
                let _ = epoch;
            }
            acc += shed.self_join().unwrap();
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.08,
            "mean = {mean}, truth = {truth}"
        );
    }

    #[test]
    fn epoch_join_between_streams_is_unbiased() {
        let mut r = rng(4);
        // F: keys 0..30 ×4 (two epochs at different rates);
        // G: keys 15..45 ×20 (one epoch). Overlap: 15 keys.
        let truth = 15.0 * 4.0 * 20.0;
        let reps = 800;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut f = EpochShedder::new(&schema, 0.8, r.random()).unwrap();
            let mut g = EpochShedder::new(&schema, 0.5, r.random()).unwrap();
            // F in two epochs of 2 copies each = 4 copies per key.
            for (p, copies) in [(0.8, 2u64), (0.4, 2)] {
                f.set_probability(p).unwrap();
                for k in 0..30u64 {
                    for _ in 0..copies {
                        f.observe(k);
                    }
                }
            }
            for k in 15..45u64 {
                for _ in 0..20u64 {
                    g.observe(k);
                }
            }
            acc += f.size_of_join(&g).unwrap();
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean = {mean}, truth = {truth}"
        );
    }

    /// The batched path must replay the scalar path exactly, including
    /// across epoch changes between batches — and compaction must keep the
    /// recurring rates (0.1 and 0.4 appear twice) in single epochs.
    #[test]
    fn feed_batch_is_bit_identical_to_observe() {
        let mut r = rng(10);
        let schema = JoinSchema::fagms(1, 512, &mut r);
        let mut scalar = EpochShedder::new(&schema, 0.4, 11).unwrap();
        let mut batched = EpochShedder::new(&schema, 0.4, 11).unwrap();
        let keys: Vec<u64> = (0..20_000u64).map(|i| (i * 2_654_435_761) % 300).collect();
        for (i, (batch, p)) in keys.chunks(4999).zip([0.4, 0.1, 0.8, 0.1, 0.4]).enumerate() {
            scalar.set_probability(p).unwrap();
            batched.set_probability(p).unwrap();
            for &k in batch {
                scalar.observe(k);
            }
            batched.feed_batch(batch);
            assert_eq!(scalar.kept(), batched.kept(), "batch {i}");
        }
        assert_eq!(scalar.epoch_count(), 3, "three distinct rates");
        assert_eq!(scalar.epoch_count(), batched.epoch_count());
        assert_eq!(scalar.seen(), batched.seen());
        assert_eq!(
            scalar.self_join().unwrap(),
            batched.self_join().unwrap(),
            "identical epochs must give identical estimates"
        );
    }

    /// The cached query path must agree with the cache-free recomputation
    /// exactly, at every point of an interleaved update/query sequence.
    #[test]
    fn cached_query_matches_uncached_under_interleaving() {
        let mut r = rng(30);
        let schema = JoinSchema::fagms(2, 256, &mut r);
        let mut shed = EpochShedder::new(&schema, 1.0, r.random()).unwrap();
        let ps = [1.0, 0.5, 0.25, 0.5, 0.125, 1.0, 0.25];
        for (round, p) in ps.iter().enumerate() {
            shed.set_probability(*p).unwrap();
            let batch: Vec<u64> = (0..2_000u64)
                .map(|i| (i * 31 + round as u64) % 100)
                .collect();
            shed.feed_batch(&batch);
            assert_eq!(
                shed.self_join().unwrap(),
                shed.self_join_uncached().unwrap(),
                "round {round}"
            );
            // A second query with nothing dirty must serve from cache and
            // still agree.
            assert_eq!(
                shed.self_join().unwrap(),
                shed.self_join_uncached().unwrap(),
                "round {round} (repeat)"
            );
        }
        assert!(shed.epoch_count() <= 4, "four distinct rates used");
    }

    /// The sketch cross term: a shedded stream (behind an empty runtime)
    /// joined against a full-rate sketch of a disjoint segment is unbiased.
    #[test]
    fn cross_term_against_plain_sketch_is_unbiased() {
        let mut r = rng(6);
        // F (shedded, two rates): keys 0..30, 4 copies each.
        // G (full-rate sketch):   keys 15..45, 10 copies each.
        let truth = 15.0 * 4.0 * 10.0;
        let reps = 600;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let mut f = EpochShedder::new(&schema, 0.8, r.random()).unwrap();
            for (p, copies) in [(0.8, 2u64), (0.4, 2)] {
                f.set_probability(p).unwrap();
                for k in 0..30u64 {
                    for _ in 0..copies {
                        f.observe(k);
                    }
                }
            }
            let mut g = schema.sketch();
            for k in 15..45u64 {
                g.update(k, 10);
            }
            let over = f.size_of_join_estimate_over(&schema.sketch(), &g, None);
            acc += over.unwrap().value;
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean = {mean}, truth = {truth}"
        );
    }

    /// A skewed stream of 700 keys plus one heavy key, split as a runtime
    /// under overload splits it: the heavy key and every third batch into
    /// the full-rate sketch, the rest into the shedder at three rates from
    /// `p0` down. Terms of unlike size and full mantissas make summation
    /// order visible in the bits for about a third of the seeds.
    fn split(schema: &JoinSchema, p0: f64, seed: u64, offset: u64) -> (JoinSketch, EpochShedder) {
        let mut runtime = schema.sketch();
        runtime.update(offset + 1, 3_000);
        let mut shed = EpochShedder::new(schema, p0, seed).unwrap();
        for b in 0..30u64 {
            let batch: Vec<u64> = (0..1_000u64).map(|i| offset + (i * i + b) % 700).collect();
            if b % 3 == 0 {
                runtime.update_batch(&batch);
            } else {
                let p = [p0, 0.3 * p0, 0.13 * p0][(b / 10) as usize];
                shed.set_probability(p).unwrap();
                shed.feed_batch(&batch);
            }
        }
        (runtime, shed)
    }

    /// The overload estimate keeps the bits of the sums it always summed,
    /// in their order: `A·A + O·O + 2·Σ_e raw(O_e·A)/p_e` for the self-join,
    /// and `A₁·A₂ + O₁·A₂ + O₂·A₁ + O₁·O₂` for a join with overflow on one
    /// side or on both, whichever side's shedder answers a one-sided join.
    /// Its error state is coherent, and an empty shedder leaves the raw
    /// runtime estimate.
    #[test]
    fn over_estimates_keep_the_engine_sums_bit_for_bit() {
        let cross = |o: &EpochShedder, a: &JoinSketch| {
            let mut total = 0.0;
            for c in &o.cells {
                total += c.summary().raw_size_of_join(a).unwrap() / c.probability();
            }
            total
        };
        for seed in 0..8 {
            let mut r = rng(seed);
            let schema = if seed % 2 == 0 {
                JoinSchema::fagms(3, 512, &mut r)
            } else {
                JoinSchema::agms(12, &mut r)
            };
            let (a1, o1) = split(&schema, 0.8, 11 + seed, 0);
            let (a2, o2) = split(&schema, 0.5, 12 + seed, 300);
            assert!(o1.epoch_count() == 3 && o2.epoch_count() == 3);

            let mut sum = a1.raw_self_join();
            sum += o1.self_join().unwrap();
            sum += 2.0 * cross(&o1, &a1);
            let sj = o1.self_join_estimate_over(&a1).unwrap();
            assert_eq!(sj.value.to_bits(), sum.to_bits(), "seed {seed}");
            assert_eq!(sj.basics.len(), schema.sketch().self_join_basics().len());
            assert!(sj.variance.is_finite() && sj.variance > 0.0);
            let (cheb, clt) = (sj.chebyshev(0.95).unwrap(), sj.clt(0.95).unwrap());
            assert!(cheb.half_width() > clt.half_width());

            let mut both = a1.raw_size_of_join(&a2).unwrap();
            both += cross(&o1, &a2);
            both += cross(&o2, &a1);
            both += o1.size_of_join(&o2).unwrap();
            let join = o1.size_of_join_estimate_over(&a1, &a2, Some(&o2)).unwrap();
            assert_eq!(join.value.to_bits(), both.to_bits(), "seed {seed}");
            assert!(join.variance.is_finite() && join.variance > 0.0);

            // Overflow on the first side only, and on the second side only
            // (answered by the second side's shedder, the join unchanged).
            let mut first = a1.raw_size_of_join(&a2).unwrap();
            first += cross(&o1, &a2);
            let one = o1.size_of_join_estimate_over(&a1, &a2, None).unwrap();
            assert_eq!(one.value.to_bits(), first.to_bits(), "seed {seed}");
            let mut second = a1.raw_size_of_join(&a2).unwrap();
            second += cross(&o2, &a1);
            let rev = o2.size_of_join_estimate_over(&a2, &a1, None).unwrap();
            assert_eq!(rev.value.to_bits(), second.to_bits(), "seed {seed}");
            assert!(one.variance.is_finite() && rev.variance.is_finite());

            let mut idle = EpochShedder::new(&schema, 1.0, 13).unwrap();
            assert_eq!(idle.feed_batch(&[]), 0);
            let calm = idle.self_join_estimate_over(&a1).unwrap();
            assert_eq!(calm.value.to_bits(), a1.raw_self_join().to_bits());
            let nothing = idle.self_join_estimate_over(&schema.sketch()).unwrap();
            assert_eq!(nothing.value, 0.0);
        }
    }

    /// Two split streams join without bias, overflow on one side, and a
    /// runtime of another schema is refused, not misread.
    #[test]
    fn size_of_join_over_split_streams_is_unbiased() {
        let mut r = rng(8);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        // Side 1: keys 0..1000 ×20, all at full rate.
        let mut a1 = schema.sketch();
        for _ in 0..20 {
            a1.update_batch(&(0..1000u64).collect::<Vec<_>>());
        }
        // Side 2: keys 500..1500 ×10, half of the batches overflowing into
        // a shedder whose rate falls from 1 to 1/4.
        let mut a2 = schema.sketch();
        let mut o2 = EpochShedder::new(&schema, 1.0, 99).unwrap();
        for b in 0..10 {
            let batch: Vec<u64> = (500..1500u64).collect();
            if b % 2 == 0 {
                a2.update_batch(&batch);
            } else {
                o2.set_probability([1.0, 0.5, 0.25][b / 4]).unwrap();
                o2.feed_batch(&batch);
            }
        }
        // Overlap 500..1000: 500 keys × 20 × 10.
        let truth = 500.0 * 20.0 * 10.0;
        let est = o2.size_of_join_estimate_over(&a2, &a1, None).unwrap().value;
        assert!(
            (est - truth).abs() / truth < 0.2,
            "est = {est}, truth = {truth}"
        );
        let alien = JoinSchema::agms(8, &mut r).sketch();
        assert!(o2.size_of_join_estimate_over(&a2, &alien, None).is_err());
        assert!(o2.self_join_estimate_over(&alien).is_err());
    }
}
