//! Test oracle: the original, uncompacted epoch shedder — one epoch per
//! rate change, O(E) memory, O(E²) sketch dot products per query.
//!
//! Written against the public API only. Fed the same tuples with the same
//! seed RNG it makes bit-identical sampling decisions to
//! [`EpochShedder`](sketch_sampled_streams::core::EpochShedder) (both draw
//! a fresh geometric skip per effective rate change), so the compacted,
//! cached estimates can be checked against this one exactly.

use rand::rngs::StdRng;
use rand::Rng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{bernoulli_self_join, Result};
use sketch_sampled_streams::sampling::bernoulli::GeometricSkip;

struct Epoch {
    p: f64,
    sketch: JoinSketch,
    kept: u64,
    seen: u64,
}

pub struct ReferenceEpochShedder {
    schema: JoinSchema,
    epochs: Vec<Epoch>,
    skip: GeometricSkip<StdRng>,
    gap: u64,
}

impl ReferenceEpochShedder {
    pub fn new<R: Rng>(schema: &JoinSchema, p: f64, seed_rng: &mut R) -> Result<Self> {
        let mut skip = GeometricSkip::<StdRng>::new(p, seed_rng)?;
        let gap = skip.next_gap();
        Ok(Self {
            schema: schema.clone(),
            epochs: vec![Self::epoch(schema, p)],
            skip,
            gap,
        })
    }

    fn epoch(schema: &JoinSchema, p: f64) -> Epoch {
        Epoch {
            p,
            sketch: schema.sketch(),
            kept: 0,
            seen: 0,
        }
    }

    /// Begin a new epoch at probability `p` (no-op if `p` equals the
    /// current epoch's rate). Empty current epochs are reused in place.
    pub fn set_probability<R: Rng>(&mut self, p: f64, seed_rng: &mut R) -> Result<()> {
        let current = self.epochs.last_mut().expect("never empty");
        if (current.p - p).abs() < f64::EPSILON * p.abs() {
            return Ok(());
        }
        self.skip = GeometricSkip::<StdRng>::new(p, seed_rng)?;
        self.gap = self.skip.next_gap();
        if current.seen == 0 {
            current.p = p;
        } else {
            self.epochs.push(Self::epoch(&self.schema, p));
        }
        Ok(())
    }

    /// Offer the next stream tuple; returns whether it was sketched.
    pub fn observe(&mut self, key: u64) -> bool {
        let epoch = self.epochs.last_mut().expect("never empty");
        epoch.seen += 1;
        if self.gap > 0 {
            self.gap -= 1;
            return false;
        }
        epoch.sketch.update(key, 1);
        epoch.kept += 1;
        self.gap = self.skip.next_gap();
        true
    }

    /// Number of epochs — one per effective rate change, unbounded.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    pub fn seen(&self) -> u64 {
        self.epochs.iter().map(|e| e.seen).sum()
    }

    pub fn kept(&self) -> u64 {
        self.epochs.iter().map(|e| e.kept).sum()
    }

    /// Unbiased self-join estimate: Proposition 14 within epochs,
    /// Proposition 13 across them, recomputed from scratch over all
    /// E(E−1)/2 epoch pairs.
    pub fn self_join(&self) -> Result<f64> {
        let mut total = 0.0;
        for (i, e) in self.epochs.iter().enumerate() {
            total += bernoulli_self_join(e.sketch.raw_self_join(), e.p, e.kept as f64);
            for e2 in &self.epochs[i + 1..] {
                let cross = e.sketch.raw_size_of_join(&e2.sketch)?;
                total += 2.0 * cross / (e.p * e2.p);
            }
        }
        Ok(total)
    }
}
