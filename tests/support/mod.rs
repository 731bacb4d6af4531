//! Test oracle: the original, uncompacted epoch shedder — one epoch per
//! rate change, O(E) memory, O(E²) sketch dot products per query.
//!
//! Written against the public API only. Every epoch at rate `p` draws from
//! that rate's one coin sequence (seeded `splitmix64(seed ^ p.to_bits())`)
//! where the previous epoch at `p` left off, pending gap included — the
//! coins [`EpochShedder`](sketch_sampled_streams::core::EpochShedder)'s
//! cell for `p` draws. Fed the same tuples with the same seed, the two
//! make bit-identical sampling decisions, so the compacted, cached
//! estimates can be checked against this one exactly.

use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{bernoulli_self_join, Result};
use sketch_sampled_streams::sampling::{CounterRng, GeometricSkip};
use sketch_sampled_streams::xi::splitmix64;

struct Epoch {
    p: f64,
    sketch: JoinSketch,
    kept: u64,
    seen: u64,
}

/// One rate's coin sequence and its pending gap.
struct Coins {
    p: f64,
    skip: GeometricSkip<CounterRng>,
    gap: u64,
}

pub struct ReferenceEpochShedder {
    schema: JoinSchema,
    seed: u64,
    epochs: Vec<Epoch>,
    coins: Vec<Coins>,
    /// Index into `coins` of the current rate.
    current: usize,
}

fn same_p(a: f64, b: f64) -> bool {
    (a - b).abs() < f64::EPSILON * b.abs()
}

impl ReferenceEpochShedder {
    pub fn new(schema: &JoinSchema, p: f64, seed: u64) -> Result<Self> {
        let mut reference = Self {
            schema: schema.clone(),
            seed,
            epochs: vec![Self::epoch(schema, p)],
            coins: Vec::new(),
            current: 0,
        };
        reference.current = reference.coins_for(p)?;
        Ok(reference)
    }

    fn epoch(schema: &JoinSchema, p: f64) -> Epoch {
        Epoch {
            p,
            sketch: schema.sketch(),
            kept: 0,
            seen: 0,
        }
    }

    /// The index of rate `p`'s coin sequence, started on first use.
    fn coins_for(&mut self, p: f64) -> Result<usize> {
        if let Some(at) = self.coins.iter().position(|c| same_p(c.p, p)) {
            return Ok(at);
        }
        let rng = CounterRng::seed_from_u64(splitmix64(self.seed ^ p.to_bits()));
        let mut skip = GeometricSkip::with_rng(p, rng)?;
        let gap = skip.next_gap();
        self.coins.push(Coins { p, skip, gap });
        Ok(self.coins.len() - 1)
    }

    /// Begin a new epoch at probability `p` (no-op if `p` equals the
    /// current epoch's rate). Empty current epochs are reused in place.
    pub fn set_probability(&mut self, p: f64) -> Result<()> {
        if same_p(self.epochs.last().expect("never empty").p, p) {
            return Ok(());
        }
        self.current = self.coins_for(p)?;
        let p = self.coins[self.current].p;
        let current = self.epochs.last_mut().expect("never empty");
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
        let coins = &mut self.coins[self.current];
        epoch.seen += 1;
        if coins.gap > 0 {
            coins.gap -= 1;
            return false;
        }
        epoch.sketch.update(key, 1);
        epoch.kept += 1;
        coins.gap = coins.skip.next_gap();
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
            total += bernoulli_self_join(e.sketch.raw_self_join(), e.p, e.kept);
            for e2 in &self.epochs[i + 1..] {
                let cross = e.sketch.raw_size_of_join(&e2.sketch)?;
                total += 2.0 * cross / (e.p * e2.p);
            }
        }
        Ok(total)
    }
}
