//! Adaptive load shedding: choosing `p` on line.
//!
//! The paper's §VI-A scenario assumes the operator knows how aggressively
//! to shed. In a running system the right `p` follows from two live
//! quantities:
//!
//! * the **capacity** `C` — tuples/second the sketch path can ingest
//!   (measured once at startup, or supplied), and
//! * the **arrival rate** `λ` — estimated online with exponential
//!   smoothing over batch timestamps.
//!
//! The controller sets `p = min(1, C/λ)`, **snapped onto a logarithmic
//! rate grid** ([`RateGrid`], default 40 steps per decade). Quantization
//! is what makes long-running adaptive shedding bounded: the epoch shedder
//! compacts same-rate epochs, so the number of epochs — and the memory and
//! query cost of the combined estimate — can never exceed the grid size,
//! no matter how long the stream runs or how often the rate drifts.
//! Hysteresis operates on grid steps: the controller only moves when the
//! quantized target is more than the dead-band away from the current grid
//! point, so `p` cannot thrash between adjacent points under load wobble.
//!
//! The controller can also report, through the exact analysis of
//! `sss-moments`, what the chosen `p` costs in accuracy for a *planned*
//! workload profile. This closes the loop the paper's introduction
//! sketches: "the formulas resulting from such an analysis could be used
//! to determine how aggressive the load shedding can be without a
//! significant loss in the accuracy".

use crate::error::{Result as StreamResult, StreamError};
use sss_core::sketch::JoinSchema;
use sss_core::{RateGrid, Result};

/// Configuration of the [`RateController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Sustainable ingest rate of the sketch path, tuples/second.
    pub capacity_tps: f64,
    /// Smoothing factor for the arrival-rate estimate (0 = frozen,
    /// 1 = last batch only). Typical: 0.2–0.5.
    pub smoothing: f64,
    /// Relative change of the target `p` required before the controller
    /// actually moves, applied as a symmetric geometric dead-band in grid
    /// steps (hysteresis against thrash). Typical: 0.1–0.3.
    pub hysteresis: f64,
    /// Lower bound on `p` (never shed below this rate). Always exactly
    /// representable by the quantizer.
    pub min_p: f64,
    /// The logarithmic grid the emitted probabilities snap to. Bounds the
    /// number of distinct rates — and, through epoch compaction, the
    /// shedder's memory — by [`RateGrid::size`]`(min_p)`.
    pub grid: RateGrid,
}

impl ControllerConfig {
    /// The default configuration at a given sustainable ingest rate — the
    /// one knob almost every caller sets.
    pub fn with_capacity(capacity_tps: f64) -> Self {
        Self {
            capacity_tps,
            ..Self::default()
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            capacity_tps: 1e7,
            smoothing: 0.3,
            hysteresis: 0.2,
            min_p: 1e-4,
            grid: RateGrid::default(),
        }
    }
}

/// Tracks the arrival rate and recommends a shedding probability from the
/// configured rate grid.
#[derive(Debug, Clone)]
pub struct RateController {
    config: ControllerConfig,
    /// Smoothed arrival rate, tuples/second (None until the first batch).
    rate: Option<f64>,
    /// The probability currently in force — always a grid point (or the
    /// `min_p` floor).
    current_p: f64,
    /// Grid step of `current_p`, for the step-space hysteresis test.
    current_step: i64,
    /// How many times the controller actually changed `p`.
    adjustments: u64,
}

impl RateController {
    /// Create a controller; `p` starts at 1 (no shedding) until the
    /// observed rate justifies dropping tuples.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidController`] naming the first bad field:
    /// capacity not positive, smoothing outside `(0, 1]`, hysteresis
    /// negative or not finite, or `min_p` outside `(0, 1]` (NaN fails
    /// every check).
    pub fn new(config: ControllerConfig) -> StreamResult<Self> {
        let check = |ok: bool, parameter, value, reason| {
            if ok {
                Ok(())
            } else {
                Err(StreamError::InvalidController {
                    parameter,
                    value,
                    reason,
                })
            }
        };
        let c = &config;
        check(
            c.capacity_tps > 0.0,
            "capacity_tps",
            c.capacity_tps,
            "must be positive",
        )?;
        check(
            c.smoothing > 0.0 && c.smoothing <= 1.0,
            "smoothing",
            c.smoothing,
            "must be in (0, 1]",
        )?;
        check(
            c.hysteresis >= 0.0 && c.hysteresis.is_finite(),
            "hysteresis",
            c.hysteresis,
            "must be finite and non-negative",
        )?;
        check(
            c.min_p > 0.0 && c.min_p <= 1.0,
            "min_p",
            c.min_p,
            "must be in (0, 1]",
        )?;
        Ok(Self {
            config,
            rate: None,
            current_p: 1.0,
            current_step: 0,
            adjustments: 0,
        })
    }

    /// The dead-band in grid steps implied by the relative `hysteresis`:
    /// move only when the quantized target is strictly more than
    /// `(1 + hysteresis)×` away (in either direction) from the rate in
    /// force, i.e. at least this many grid steps.
    fn hysteresis_steps(&self) -> i64 {
        let steps = self.config.grid.steps_per_decade() as f64;
        (steps * (1.0 + self.config.hysteresis).log10()).floor() as i64 + 1
    }

    /// Report one observed batch: `tuples` arrived over `seconds`.
    /// Returns the probability now in force.
    ///
    /// Degenerate durations (`seconds ≤ 0`, NaN, or infinite) cannot
    /// update a rate estimate; the batch is ignored and the current `p` is
    /// returned unchanged, so a zero-duration timestamp on the hot ingest
    /// path can never panic the pipeline.
    pub fn observe_batch(&mut self, tuples: u64, seconds: f64) -> f64 {
        if !(seconds > 0.0 && seconds.is_finite()) {
            return self.current_p;
        }
        let batch_rate = tuples as f64 / seconds;
        let s = self.config.smoothing;
        let rate = match self.rate {
            None => batch_rate,
            Some(r) => (1.0 - s) * r + s * batch_rate,
        };
        self.rate = Some(rate);
        let raw_target = (self.config.capacity_tps / rate)
            .min(1.0)
            .max(self.config.min_p);
        let target = self.config.grid.snap(raw_target, self.config.min_p);
        let target_step = self.config.grid.step_of(target);
        // Hysteresis in grid steps: only move when the change is material.
        if (target_step - self.current_step).abs() >= self.hysteresis_steps() {
            self.current_p = target;
            self.current_step = target_step;
            self.adjustments += 1;
        }
        self.current_p
    }

    /// The probability currently in force.
    pub fn probability(&self) -> f64 {
        self.current_p
    }

    /// The smoothed arrival-rate estimate, if any batch has been seen.
    pub fn estimated_rate(&self) -> Option<f64> {
        self.rate
    }

    /// Number of times the controller changed `p`.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Upper bound on the number of distinct probabilities this controller
    /// can ever emit — and therefore on the epochs a compacting
    /// [`sss_core::EpochShedder`] driven by it can hold.
    pub fn distinct_rate_bound(&self) -> usize {
        self.config.grid.size(self.config.min_p)
    }

    /// The expected relative standard error of a self-join estimate at the
    /// probability currently in force, for a planned workload profile
    /// (true frequency vector) and sketch schema — the accuracy price of
    /// the current shedding level, computed exactly.
    pub fn expected_self_join_error(
        &self,
        profile: &sss_moments::FrequencyVector,
        schema: &JoinSchema,
    ) -> Result<f64> {
        let m = sss_core::analysis::shedding_self_join(profile, self.current_p, schema)?;
        Ok(m.relative_error(profile.self_join()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_moments::FrequencyVector;

    fn controller(capacity: f64) -> RateController {
        RateController::new(ControllerConfig {
            capacity_tps: capacity,
            smoothing: 0.5,
            hysteresis: 0.1,
            min_p: 1e-4,
            grid: RateGrid::default(),
        })
        .unwrap()
    }

    #[test]
    fn underload_keeps_p_at_one() {
        let mut c = controller(1e6);
        for _ in 0..10 {
            assert_eq!(c.observe_batch(100_000, 1.0), 1.0); // 10× headroom
        }
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn overload_drops_p_toward_capacity_ratio() {
        let mut c = controller(1e6);
        for _ in 0..20 {
            c.observe_batch(10_000_000, 1.0); // 10× overload
        }
        let p = c.probability();
        assert!((p - 0.1).abs() < 0.02, "p = {p}, expected ≈ 0.1");
        // Overload clears: p recovers to 1.
        for _ in 0..20 {
            c.observe_batch(100_000, 1.0);
        }
        assert_eq!(c.probability(), 1.0);
    }

    /// Every probability the controller emits is a fixed point of the
    /// quantizer, so a downstream compacting shedder sees a bounded set.
    #[test]
    fn emitted_probabilities_lie_on_the_grid() {
        let mut c = controller(1e6);
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..1_000u64 {
            // Rate sweeps over two decades and back.
            let rate = 1e5 * (1.0 + (i % 200) as f64);
            let p = c.observe_batch(rate as u64, 1.0);
            assert_eq!(
                c.config.grid.snap(p, c.config.min_p),
                p,
                "emitted p must be snapped"
            );
            distinct.insert(p.to_bits());
        }
        assert!(
            distinct.len() <= c.distinct_rate_bound(),
            "{} distinct rates exceed the grid bound {}",
            distinct.len(),
            c.distinct_rate_bound()
        );
    }

    #[test]
    fn hysteresis_suppresses_thrash() {
        let mut c = RateController::new(ControllerConfig {
            capacity_tps: 1e6,
            smoothing: 1.0, // no smoothing: isolate the hysteresis
            hysteresis: 0.3,
            min_p: 1e-4,
            grid: RateGrid::default(),
        })
        .unwrap();
        c.observe_batch(2_000_000, 1.0); // 2× overload → p ≈ 0.5
        let adjustments_before = c.adjustments();
        // ±10% load wobble must not move p (relative p change < 30%).
        for i in 0..50 {
            let tuples = if i % 2 == 0 { 2_200_000 } else { 1_800_000 };
            c.observe_batch(tuples, 1.0);
        }
        assert_eq!(
            c.adjustments(),
            adjustments_before,
            "p thrashed under wobble"
        );
    }

    #[test]
    fn min_p_is_a_floor() {
        let mut c = RateController::new(ControllerConfig {
            capacity_tps: 1.0,
            smoothing: 1.0,
            hysteresis: 0.0,
            min_p: 0.01,
            grid: RateGrid::default(),
        })
        .unwrap();
        c.observe_batch(u32::MAX as u64, 1.0);
        assert_eq!(c.probability(), 0.01);
    }

    #[test]
    fn smoothing_damps_single_spikes() {
        let mut c = RateController::new(ControllerConfig {
            capacity_tps: 1e6,
            smoothing: 0.1,
            hysteresis: 0.0,
            min_p: 1e-4,
            grid: RateGrid::default(),
        })
        .unwrap();
        for _ in 0..10 {
            c.observe_batch(1_000_000, 1.0); // exactly at capacity
        }
        // One 100× spike barely moves the smoothed rate.
        c.observe_batch(100_000_000, 1.0);
        assert!(
            c.probability() > 0.08,
            "p = {} after a single spike",
            c.probability()
        );
    }

    /// Regression: a zero-duration (or negative, or non-finite) batch
    /// timestamp must not panic the hot ingest path; the controller keeps
    /// its rate estimate and probability unchanged.
    #[test]
    fn degenerate_durations_are_ignored() {
        let mut c = controller(1e6);
        for _ in 0..5 {
            c.observe_batch(10_000_000, 1.0);
        }
        let p = c.probability();
        let rate = c.estimated_rate();
        assert!(p < 1.0, "controller is shedding");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(c.observe_batch(1_000_000, bad), p, "seconds = {bad}");
        }
        assert_eq!(c.estimated_rate(), rate, "degenerate batches ignored");
        // And the controller still works afterwards.
        for _ in 0..20 {
            c.observe_batch(100, 1.0);
        }
        assert_eq!(c.probability(), 1.0);
    }

    #[test]
    fn reports_the_accuracy_price() {
        let mut rng = StdRng::seed_from_u64(2);
        let schema = JoinSchema::fagms(1, 5000, &mut rng);
        let profile = FrequencyVector::from_counts(vec![100u32; 1000]);
        let mut c = controller(1e6);
        for _ in 0..20 {
            c.observe_batch(10_000_000, 1.0);
        }
        let err_shedded = c.expected_self_join_error(&profile, &schema).unwrap();
        let mut idle = controller(1e12);
        idle.observe_batch(10, 1.0);
        let err_full = idle.expected_self_join_error(&profile, &schema).unwrap();
        assert!(err_shedded > err_full, "shedding must cost accuracy");
        assert!(err_shedded < 1.0, "but not absurdly much at p ≈ 0.1");
    }

    /// Every out-of-range field is a typed error naming it, never a panic.
    #[test]
    fn bad_configs_are_typed_errors() {
        let table = [
            ("capacity_tps", 0.0),
            ("capacity_tps", -5.0),
            ("capacity_tps", f64::NAN),
            ("smoothing", 0.0),
            ("smoothing", 1.5),
            ("smoothing", f64::NAN),
            ("hysteresis", -0.1),
            ("hysteresis", f64::NAN),
            ("hysteresis", f64::INFINITY),
            ("min_p", 0.0),
            ("min_p", 1.5),
            ("min_p", f64::NAN),
        ];
        for (field, value) in table {
            let mut cfg = ControllerConfig::default();
            *match field {
                "capacity_tps" => &mut cfg.capacity_tps,
                "smoothing" => &mut cfg.smoothing,
                "hysteresis" => &mut cfg.hysteresis,
                _ => &mut cfg.min_p,
            } = value;
            match RateController::new(cfg) {
                Err(StreamError::InvalidController { parameter, .. }) => {
                    assert_eq!(parameter, field)
                }
                other => panic!("{field}: {other:?}"),
            }
        }
        assert!(RateController::new(ControllerConfig::default()).is_ok());
    }
}
