//! Hash-coordinated load shedding: Bernoulli sampling that supports
//! **deletions** (turnstile streams).
//!
//! The coin-flip shedder ([`crate::Sampled`]) cannot process
//! a deletion: it has no way to know whether the matching insertion was
//! kept. Coordinated sampling replaces the coin with a hash of a stable
//! *tuple identity*: tuple `t` is kept iff `h(t) < p·2⁶⁴`. The decision is
//! a pure function of the tuple, so an insert and its later delete agree,
//! and the sketch stays an unbiased summary of a p-sample of the *net*
//! stream.
//!
//! Two caveats, both documented by tests:
//!
//! * Tuples sharing an identity share a fate. Identities should be unique
//!   per physical tuple (e.g. a row id); hashing the *join key* instead
//!   turns the scheme into key-level (distinct) sampling, which has a
//!   different — and for join estimation undesirable — analysis.
//! * The paper's Bernoulli analysis assumes tuple-level independence. A
//!   [`Tabulation`] hash (3-wise independent, Chernoff-concentrated) is
//!   used so the deviation from true independence is negligible for the
//!   second-moment analysis.

use crate::error::Result;
use crate::sampled::bernoulli_self_join;
use crate::sketch::{JoinSchema, JoinSketch};
use rand::Rng;
use sss_xi::Tabulation;

/// Deletion-safe Bernoulli shedder; see the module docs.
#[derive(Debug, Clone)]
pub struct CoordinatedShedder {
    sketch: JoinSketch,
    hash: Tabulation,
    /// Keep iff `hash(id) < threshold`.
    threshold: u64,
    p: f64,
    seen: u64,
    kept_net: i64,
}

impl CoordinatedShedder {
    /// Create a shedder with inclusion probability `p ∈ (0, 1]`.
    pub fn new<R: Rng>(schema: &JoinSchema, p: f64, seed_rng: &mut R) -> Result<Self> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(sss_sampling::Error::InvalidProbability(p).into());
        }
        // threshold = p·2⁶⁴, saturating so p = 1 keeps everything.
        let threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * 2f64.powi(64)) as u64
        };
        Ok(Self {
            sketch: schema.sketch(),
            hash: <Tabulation as sss_xi::SignFamily>::random(seed_rng),
            threshold,
            p,
            seen: 0,
            kept_net: 0,
        })
    }

    /// Whether a tuple with this identity belongs to the sample.
    #[inline]
    pub fn is_kept(&self, tuple_id: u64) -> bool {
        self.p >= 1.0 || self.hash.hash(tuple_id) < self.threshold
    }

    /// Offer a tuple event: `count = +1` for an insert, `−1` for a delete
    /// of the tuple with the same identity (and key). Returns whether the
    /// event reached the sketch.
    pub fn observe(&mut self, tuple_id: u64, key: u64, count: i64) -> bool {
        self.seen += 1;
        if !self.is_kept(tuple_id) {
            return false;
        }
        self.sketch.update(key, count);
        self.kept_net += count;
        true
    }

    /// The inclusion probability `p`.
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// Stream events offered so far (inserts + deletes).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Net kept tuples `|F′|` (inserts minus deletes that hit the sample).
    pub fn kept_net(&self) -> i64 {
        self.kept_net
    }

    /// The underlying sketch.
    pub fn sketch(&self) -> &JoinSketch {
        &self.sketch
    }

    /// Unbiased self-join size estimate of the net stream (Proposition 14
    /// scaling, with `Σf′ = kept_net`).
    pub fn self_join(&self) -> f64 {
        bernoulli_self_join(self.sketch.raw_self_join(), self.p, self.kept_net as f64)
    }

    /// Unbiased size-of-join estimate against another coordinated shedder
    /// (sharing the sketch schema; the two hashes must be independent,
    /// which `new` guarantees when seeded separately).
    pub fn size_of_join(&self, other: &CoordinatedShedder) -> Result<f64> {
        let raw = self.sketch.raw_size_of_join(&other.sketch)?;
        Ok(raw / (self.p * other.p))
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

    #[test]
    fn rejects_bad_probability() {
        let mut r = rng(0);
        let schema = JoinSchema::agms(4, &mut r);
        assert!(CoordinatedShedder::new(&schema, 0.0, &mut r).is_err());
        assert!(CoordinatedShedder::new(&schema, 1.1, &mut r).is_err());
    }

    /// The defining property: deleting exactly what was inserted leaves an
    /// empty sketch, at any p.
    #[test]
    fn deletions_cancel_exactly() {
        let mut r = rng(1);
        let schema = JoinSchema::fagms(2, 64, &mut r);
        let mut shed = CoordinatedShedder::new(&schema, 0.3, &mut r).unwrap();
        for id in 0..10_000u64 {
            shed.observe(id, id % 97, 1);
        }
        for id in 0..10_000u64 {
            shed.observe(id, id % 97, -1);
        }
        assert_eq!(shed.kept_net(), 0);
        assert_eq!(shed.sketch().raw_self_join(), 0.0);
        assert_eq!(shed.self_join(), 0.0);
    }

    /// Insert/delete decisions agree per identity even when interleaved.
    #[test]
    fn decisions_are_stable_per_identity() {
        let mut r = rng(2);
        let schema = JoinSchema::agms(4, &mut r);
        let mut shed = CoordinatedShedder::new(&schema, 0.5, &mut r).unwrap();
        for id in 0..1000u64 {
            let kept_in = shed.observe(id, 7, 1);
            let kept_out = shed.observe(id, 7, -1);
            assert_eq!(kept_in, kept_out, "id {id}");
        }
    }

    #[test]
    fn p_one_keeps_all_identities() {
        let mut r = rng(3);
        let schema = JoinSchema::agms(4, &mut r);
        let shed = CoordinatedShedder::new(&schema, 1.0, &mut r).unwrap();
        assert!((0..10_000u64).all(|id| shed.is_kept(id)));
    }

    #[test]
    fn kept_fraction_tracks_p() {
        let mut r = rng(4);
        let schema = JoinSchema::agms(4, &mut r);
        let shed = CoordinatedShedder::new(&schema, 0.1, &mut r).unwrap();
        let kept = (0..100_000u64).filter(|&id| shed.is_kept(id)).count() as f64;
        assert!(
            (kept / 100_000.0 - 0.1).abs() < 0.01,
            "kept fraction {kept}"
        );
    }

    /// Accuracy on a turnstile stream: insert 400k tuples, delete 100k of
    /// them, estimate the F₂ of the 300k survivors.
    #[test]
    fn estimates_the_net_stream() {
        let mut r = rng(5);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        let mut shed = CoordinatedShedder::new(&schema, 0.25, &mut r).unwrap();
        // 1000 keys; each key gets 400 inserts (ids encode key and copy).
        for key in 0..1000u64 {
            for copy in 0..400u64 {
                shed.observe(key * 1000 + copy, key, 1);
            }
        }
        // Delete the first 100 copies of every key.
        for key in 0..1000u64 {
            for copy in 0..100u64 {
                shed.observe(key * 1000 + copy, key, -1);
            }
        }
        let truth = 1000.0 * 300.0 * 300.0;
        let est = shed.self_join();
        // The one Prop. 14 correction, fed the signed net count.
        let prop14 = bernoulli_self_join(
            shed.sketch().raw_self_join(),
            shed.probability(),
            shed.kept_net() as f64,
        );
        assert_eq!(est.to_bits(), prop14.to_bits());
        assert!(
            (est - truth).abs() / truth < 0.15,
            "est = {est}, truth = {truth}"
        );
    }

    #[test]
    fn join_between_coordinated_streams() {
        let mut r = rng(6);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        let mut f = CoordinatedShedder::new(&schema, 0.5, &mut r).unwrap();
        let mut g = CoordinatedShedder::new(&schema, 0.25, &mut r).unwrap();
        for key in 0..500u64 {
            for copy in 0..80u64 {
                f.observe(key * 100 + copy, key, 1);
            }
        }
        for key in 250..750u64 {
            for copy in 0..60u64 {
                g.observe(key * 100 + copy, key, 1);
            }
        }
        let truth = 250.0 * 80.0 * 60.0;
        let est = f.size_of_join(&g).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.25,
            "est = {est}, truth = {truth}"
        );
    }
}
