//! The sketch backend selector.
//!
//! The drivers can run on either sketch family from `sss-sketch`:
//!
//! * **AGMS** — `n` basic counters, O(n) per update, mean-combined. The
//!   reference estimator the theory is stated for.
//! * **F-AGMS** — `depth × width` bucketed counters, O(depth) per update,
//!   median-combined. The paper's experimental choice ("due to their
//!   superior performance both in accuracy and update time").
//!
//! [`JoinSchema`] fixes the seeds; every sketch created from one schema can
//! be joined against every other. The concrete families are the workspace
//! defaults (CW4 signs, CW2 bucket hashes).
//!
//! [`JoinSketch`] is the one join summary: the `Summary`, `JoinQuery`,
//! `SlimQuery` and `Portable` impls are its, and the raw sketches it wraps
//! have none. It updates, merges and estimates; it does not subtract (no
//! workload, subcommand or served answer asks for a sketch of a stream
//! difference):
//!
//! ```compile_fail
//! fn gone(a: &mut sss_core::JoinSketch, b: &sss_core::JoinSketch) {
//!     let _ = a.subtract(b); // removed: sketch the difference stream instead
//! }
//! ```

use crate::error::Result;
use crate::summary::fold;
use rand::Rng;
use sss_sketch::{AgmsSchema, AgmsSketch, Estimate, FagmsSchema, FagmsSketch};
use sss_xi::{Codec, CodecError, Reader, Writer};

/// Seeds for a join-capable sketch (AGMS or F-AGMS).
#[derive(Debug, Clone)]
pub enum JoinSchema {
    /// Basic AGMS with the given number of averaged counters.
    Agms(AgmsSchema),
    /// F-AGMS with `depth` median-combined rows of `width` buckets.
    Fagms(FagmsSchema),
}

impl JoinSchema {
    /// An AGMS schema with `counters` basic estimators.
    pub fn agms<R: Rng + ?Sized>(counters: usize, rng: &mut R) -> Self {
        JoinSchema::Agms(AgmsSchema::new(counters, rng))
    }

    /// An F-AGMS schema with `depth` rows of `width` buckets. The paper's
    /// experiments use `fagms(1, 5000)` or `fagms(1, 10000)`.
    pub fn fagms<R: Rng + ?Sized>(depth: usize, width: usize, rng: &mut R) -> Self {
        JoinSchema::Fagms(FagmsSchema::new(depth, width, rng))
    }

    /// A zeroed sketch bound to this schema.
    pub fn sketch(&self) -> JoinSketch {
        match self {
            JoinSchema::Agms(s) => JoinSketch::Agms(s.sketch()),
            JoinSchema::Fagms(s) => JoinSketch::Fagms(s.sketch()),
        }
    }

    /// Total number of counters a sketch from this schema maintains.
    pub fn counters(&self) -> usize {
        match self {
            JoinSchema::Agms(s) => s.len(),
            JoinSchema::Fagms(s) => s.depth() * s.width(),
        }
    }

    /// The averaging factor `n` entering the variance formulas: the number
    /// of basic AGMS estimators effectively averaged (`width` per F-AGMS
    /// row).
    pub fn averaging_factor(&self) -> usize {
        match self {
            JoinSchema::Agms(s) => s.len(),
            JoinSchema::Fagms(s) => s.width(),
        }
    }
}

/// A sketch created from a [`JoinSchema`].
#[derive(Debug, Clone)]
pub enum JoinSketch {
    /// Basic AGMS counters.
    Agms(AgmsSketch),
    /// F-AGMS rows.
    Fagms(FagmsSketch),
}

// Both enums travel as a backend tag (0 AGMS, 1 F-AGMS) and the backend's
// own layout.
macro_rules! tagged_codec {
    ($enum:ident: $agms:ident, $fagms:ident) => {
        impl Codec for $enum {
            fn put(&self, w: &mut Writer) {
                match self {
                    $enum::Agms(s) => {
                        w.u64(0);
                        s.put(w);
                    }
                    $enum::Fagms(s) => {
                        w.u64(1);
                        s.put(w);
                    }
                }
            }

            fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
                match r.u64()? {
                    0 => $agms::take(r).map($enum::Agms),
                    1 => $fagms::take(r).map($enum::Fagms),
                    _ => Err(CodecError::Invalid("an unknown join sketch backend")),
                }
            }
        }
    };
}

tagged_codec!(JoinSchema: AgmsSchema, FagmsSchema);
tagged_codec!(JoinSketch: AgmsSketch, FagmsSketch);

impl JoinSketch {
    /// Add `count` occurrences of `key`.
    #[inline]
    pub fn update(&mut self, key: u64, count: i64) {
        match self {
            JoinSketch::Agms(s) => s.update(key, count),
            JoinSketch::Fagms(s) => s.update(key, count),
        }
    }

    /// Add one occurrence of every key, through the backend's row-major
    /// batched kernel. Bit-identical to updating each key in turn, but the
    /// enum dispatch happens once per batch instead of once per tuple.
    #[inline]
    pub fn update_batch(&mut self, keys: &[u64]) {
        match self {
            JoinSketch::Agms(s) => s.update_batch(keys),
            JoinSketch::Fagms(s) => s.update_batch(keys),
        }
    }

    /// Add `count` occurrences of `key` for every `(key, count)` pair, via
    /// the backend's batched kernel (bit-identical to per-pair updates).
    #[inline]
    pub fn update_batch_counts(&mut self, items: &[(u64, i64)]) {
        match self {
            JoinSketch::Agms(s) => s.update_batch_counts(items),
            JoinSketch::Fagms(s) => s.update_batch_counts(items),
        }
    }

    /// Raw (unscaled) self-join estimate of whatever was sketched.
    pub fn raw_self_join(&self) -> f64 {
        match self {
            JoinSketch::Agms(s) => s.self_join(),
            JoinSketch::Fagms(s) => s.self_join(),
        }
    }

    /// Raw (unscaled) size-of-join estimate against another sketch of the
    /// same schema.
    pub fn raw_size_of_join(&self, other: &JoinSketch) -> Result<f64> {
        match (self, other) {
            (JoinSketch::Agms(a), JoinSketch::Agms(b)) => Ok(a.size_of_join(b)?),
            (JoinSketch::Fagms(a), JoinSketch::Fagms(b)) => Ok(a.size_of_join(b)?),
            _ => Err(sss_sketch::Error::SchemaMismatch.into()),
        }
    }

    /// Point estimate of the frequency of `key` — the Count-Sketch query:
    /// median over rows of `ξ(key)·c[h(key)]` on F-AGMS, mean over counters
    /// of `ξₖ(key)·Sₖ` on AGMS. Unbiased on both, with variance at most
    /// `F₂ /` [`averaging_factor`](Self::averaging_factor) per lane.
    pub fn point_query(&self, key: u64) -> f64 {
        match self {
            JoinSketch::Agms(s) => s.point_query(key),
            JoinSketch::Fagms(s) => s.point_query(key),
        }
    }

    /// [`point_query`](Self::point_query) of every key of `keys`, in order
    /// and bit for bit. F-AGMS hashes the whole batch once per row
    /// ([`FagmsSketch::point_queries`]); AGMS, on no served path, asks
    /// key by key.
    pub fn point_queries(&self, keys: &[u64]) -> Vec<f64> {
        match self {
            JoinSketch::Agms(s) => keys.iter().map(|&key| s.point_query(key)).collect(),
            JoinSketch::Fagms(s) => s.point_queries(keys),
        }
    }

    /// [`point_queries`](Self::point_queries) of the merge
    /// `zero ⊕ parts[0] ⊕ …` ([`fold`]), in order and bit for bit: read off
    /// F-AGMS parts' rows ([`FagmsSketch::point_queries_of_sum`]) without
    /// building it, asked of the fold for AGMS parts.
    ///
    /// # Errors
    ///
    /// Schema mismatch for a part that would not merge into `zero`.
    pub fn point_queries_of_sum(zero: &Self, parts: &[&Self], keys: &[u64]) -> Result<Vec<f64>> {
        match zero.fagms_parts(parts)? {
            Some((zero, parts)) => Ok(FagmsSketch::point_queries_of_sum(zero, &parts, keys)?),
            None => Ok(fold(zero, parts)?.point_queries(keys)),
        }
    }

    /// This F-AGMS sketch and the F-AGMS sketches of `parts`, or schema
    /// mismatch for an AGMS part; `None` for an AGMS sketch, whose reads of
    /// a sum fold.
    pub(crate) fn fagms_parts<'a>(
        &'a self,
        parts: &[&'a Self],
    ) -> Result<Option<(&'a FagmsSketch, Vec<&'a FagmsSketch>)>> {
        let JoinSketch::Fagms(zero) = self else {
            return Ok(None);
        };
        let parts = parts.iter().map(|part| match part {
            JoinSketch::Fagms(s) => Ok(s),
            JoinSketch::Agms(_) => Err(sss_sketch::Error::SchemaMismatch.into()),
        });
        Ok(Some((zero, parts.collect::<Result<_>>()?)))
    }

    /// Merge another sketch of the same schema (stream union).
    pub fn merge(&mut self, other: &JoinSketch) -> Result<()> {
        match (self, other) {
            (JoinSketch::Agms(a), JoinSketch::Agms(b)) => Ok(a.merge(b)?),
            (JoinSketch::Fagms(a), JoinSketch::Fagms(b)) => Ok(a.merge(b)?),
            _ => Err(sss_sketch::Error::SchemaMismatch.into()),
        }
    }

    /// The averaging factor `n` of the paper's variance formulas — see
    /// [`JoinSchema::averaging_factor`].
    pub fn averaging_factor(&self) -> usize {
        match self {
            JoinSketch::Agms(s) => s.schema().len(),
            JoinSketch::Fagms(s) => s.schema().width(),
        }
    }

    /// Typed raw self-join estimate with empirical error state; the value
    /// is bit-identical to [`JoinSketch::raw_self_join`].
    pub fn raw_self_join_estimate(&self) -> Estimate {
        match self {
            JoinSketch::Agms(s) => s.self_join_estimate(),
            JoinSketch::Fagms(s) => s.self_join_estimate(),
        }
    }

    /// Typed raw size-of-join estimate; the value is bit-identical to
    /// [`JoinSketch::raw_size_of_join`].
    pub fn raw_size_of_join_estimate(&self, other: &JoinSketch) -> Result<Estimate> {
        match (self, other) {
            (JoinSketch::Agms(a), JoinSketch::Agms(b)) => Ok(a.size_of_join_estimate(b)?),
            (JoinSketch::Fagms(a), JoinSketch::Fagms(b)) => Ok(a.size_of_join_estimate(b)?),
            _ => Err(sss_sketch::Error::SchemaMismatch.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn both_backends_estimate_the_same_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let truth: f64 = (0..500u64)
            .map(|k| ((k % 4 + 1) * (k % 4 + 1)) as f64)
            .sum();
        for schema in [
            JoinSchema::agms(1024, &mut rng),
            JoinSchema::fagms(3, 1024, &mut rng),
        ] {
            let mut s = schema.sketch();
            for k in 0..500u64 {
                s.update(k, (k % 4 + 1) as i64);
            }
            let est = s.raw_self_join();
            assert!(
                (est - truth).abs() / truth < 0.2,
                "est = {est}, truth = {truth}"
            );
        }
    }

    #[test]
    fn mixed_backends_cannot_be_joined() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = JoinSchema::agms(8, &mut rng).sketch();
        let mut b = JoinSchema::fagms(2, 8, &mut rng).sketch();
        assert!(a.raw_size_of_join(&b).is_err());
        assert!(b.merge(&a).is_err());
    }

    #[test]
    fn counters_and_averaging_factor() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = JoinSchema::agms(64, &mut rng);
        assert_eq!(a.counters(), 64);
        assert_eq!(a.averaging_factor(), 64);
        let f = JoinSchema::fagms(5, 1000, &mut rng);
        assert_eq!(f.counters(), 5000);
        assert_eq!(f.averaging_factor(), 1000);
    }

    #[test]
    fn merge_matches_union() {
        let mut rng = StdRng::seed_from_u64(8);
        let schema = JoinSchema::fagms(2, 64, &mut rng);
        let mut whole = schema.sketch();
        let mut part1 = schema.sketch();
        let mut part2 = schema.sketch();
        for k in 0..100u64 {
            whole.update(k, 1);
            if k < 50 {
                part1.update(k, 1);
            } else {
                part2.update(k, 1);
            }
        }
        part1.merge(&part2).unwrap();
        assert_eq!(part1.raw_self_join(), whole.raw_self_join());
    }
}
