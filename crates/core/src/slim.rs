//! The slim stage: compact wire forms of fat update-side summaries (the
//! SF-sketch fat/slim split, arXiv 1701.04148).
//!
//! A fat summary spends its space on *ingestion* — the full counter
//! matrix every update touches. A reader needs far less: the join
//! estimate is a function of `depth`-or-`n` per-lane medians-of-means
//! aggregates, a top-k answer is its ranked candidate list, and HLL/KLL
//! state is already compact. [`SlimQuery::slim`] projects the fat state
//! down to exactly that core:
//!
//! | fat summary | slim form | kept state |
//! |---|---|---|
//! | [`JoinSketch`] (AGMS or F-AGMS) | [`SlimJoin`] | the typed self-join [`Estimate`]: value, variance, per-lane basics |
//! | [`MultiSummary`] | [`SlimMultiSummary`] | a [`SlimJoin`], the `capacity` priced top-k candidates and their variance, the HLL and KLL whole |
//!
//! A slim form is a projection, its accessors and a codec: it answers no
//! query. It is what crosses a process boundary — `sss load` prints the
//! size of a join sketch's, and the codec ships the composite's. In
//! process a runtime's read replica holds the fat merge itself and asks
//! it. Each projection carries the fat answers' bits at projection time.
//!
//! ```compile_fail
//! fn answers<T: sss_core::JoinQuery>() {}
//! answers::<sss_core::SlimJoin>(); // removed: a slim form answers nothing; ask the fat summary
//! ```
//!
//! ```compile_fail
//! fn portable<T: sss_core::Portable>() {}
//! portable::<sss_core::SlimTopK>(); // removed: the "slim-topk" kind; the top-k stage travels inside "slim-multi"
//! ```
//!
//! ```compile_fail
//! fn projects<T: sss_core::SlimQuery>() {}
//! projects::<sss_sketch::MisraGries>(); // removed: only the join sketch and the composite project
//! ```
//!
//! **Slim states do not merge.** `(a+b)² ≠ a² + b²`: a lane aggregate of
//! a union cannot be recovered from the unions' lane aggregates. The
//! slim form is therefore always projected from *fat* state, merged first.

use crate::multi::MultiSummary;
use crate::sketch::JoinSketch;
use crate::summary::{Portable, SlimQuery};
use sss_sketch::{Estimate, HyperLogLog, KllSketch};
use sss_xi::{Codec, CodecError, Reader, Writer};

/// The slim join stage: the fat sketch's typed self-join estimate — value,
/// variance, and the per-lane medians-of-means basics it was combined
/// from — plus the fat configuration fingerprint. Tens of lanes instead
/// of `depth × width` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SlimJoin {
    estimate: Estimate,
    fingerprint: u64,
}

impl SlimJoin {
    /// Package a fat summary's self-join estimate as its slim stage.
    /// `fingerprint` must be the fat summary's, so replicas built from
    /// snapshots of differently-seeded runtimes compare unequal.
    pub fn project(fingerprint: u64, estimate: Estimate) -> Self {
        Self {
            estimate,
            fingerprint,
        }
    }

    /// The projected estimate (bit-identical to the fat summary's
    /// `self_join_estimate()` at projection time).
    pub fn estimate(&self) -> &Estimate {
        &self.estimate
    }

    /// Number of per-lane basics carried (the slim state's size driver).
    pub fn lanes(&self) -> usize {
        self.estimate.basics.len()
    }
}

// The estimate's value, variance and lanes (floats travel as their bits:
// the variance may legitimately be +∞), then the fat fingerprint.
impl Codec for SlimJoin {
    fn put(&self, w: &mut Writer) {
        w.f64(self.estimate.value);
        w.f64(self.estimate.variance);
        w.f64s(&self.estimate.basics);
        w.u64(self.fingerprint);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(Self {
            estimate: Estimate {
                value: r.f64()?,
                variance: r.f64()?,
                basics: r.f64s()?,
            },
            fingerprint: r.u64()?,
        })
    }
}

impl Portable for SlimJoin {
    const KIND: &'static str = "slim-join";
    const FORMAT: u32 = 2;

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The slim top-k stage of a [`SlimMultiSummary`]: the fat composite's
/// ranked candidates (estimate-descending, key-ascending tie-break — the
/// crate-wide top-k order), their one frequency variance, and the
/// Misra–Gries fingerprint. It travels only inside the composite.
#[derive(Debug, Clone, PartialEq)]
struct SlimTopK {
    ranked: Vec<(u64, f64)>,
    variance: f64,
    fingerprint: u64,
}

// The ranked candidates as key and estimate columns, then the variance and
// the fat fingerprint.
impl Codec for SlimTopK {
    fn put(&self, w: &mut Writer) {
        let (keys, estimates): (Vec<u64>, Vec<f64>) = self.ranked.iter().copied().unzip();
        w.u64s(&keys);
        w.f64s(&estimates);
        w.f64(self.variance);
        w.u64(self.fingerprint);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let keys = r.u64s()?;
        let estimates = r.f64s()?;
        if keys.len() != estimates.len() {
            return Err(CodecError::Invalid(
                "a slim top-k holds matching key/estimate columns",
            ));
        }
        Ok(Self {
            ranked: keys.into_iter().zip(estimates).collect(),
            variance: r.f64()?,
            fingerprint: r.u64()?,
        })
    }
}

/// The slim composite: one slim stage per constituent. The HLL and KLL
/// constituents ride along whole (they are their own compact state), so
/// the composite's space win comes from the join and top-k stages — which
/// is where the fat space went.
///
/// [`MultiSummary`]'s [`slim`](SlimQuery::slim) and
/// [`decode`](Portable::decode) make one, all four stages filled.
#[derive(Debug, Clone)]
pub struct SlimMultiSummary {
    join: SlimJoin,
    topk: SlimTopK,
    distinct: HyperLogLog,
    quantiles: KllSketch,
    fingerprint: u64,
}

impl SlimMultiSummary {
    /// The slim join stage.
    pub fn join(&self) -> &SlimJoin {
        &self.join
    }
}

/// The four stages' layouts, in order, then the fat fingerprint.
impl Codec for SlimMultiSummary {
    fn put(&self, w: &mut Writer) {
        self.join.put(w);
        self.topk.put(w);
        self.distinct.put(w);
        self.quantiles.put(w);
        w.u64(self.fingerprint);
    }

    fn take(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(Self {
            join: SlimJoin::take(r)?,
            topk: SlimTopK::take(r)?,
            distinct: HyperLogLog::take(r)?,
            quantiles: KllSketch::take(r)?,
            fingerprint: r.u64()?,
        })
    }
}

/// Format 3: format 2's stages in the binary layout (format 2 was JSON, with
/// a format-2 `KllSketch` body for the quantile stage).
impl Portable for SlimMultiSummary {
    const KIND: &'static str = "slim-multi";
    const FORMAT: u32 = 3;

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl SlimQuery for JoinSketch {
    type Slim = SlimJoin;

    fn slim(&self) -> SlimJoin {
        SlimJoin::project(Portable::fingerprint(self), self.raw_self_join_estimate())
    }
}

/// The top-k stage is the composite's own top-k — its `capacity`
/// Misra–Gries candidates priced by the join sketch — and its variance
/// takes `F₂` from the join stage, the same combination of the same lanes
/// the fat read prices with, so the lanes are summed once.
impl SlimQuery for MultiSummary {
    type Slim = SlimMultiSummary;

    fn slim(&self) -> SlimMultiSummary {
        let join = self.join().slim();
        let topk = SlimTopK {
            ranked: self.ranked_candidates(self.heavy().capacity()),
            variance: self.frequency_variance_at(join.estimate().value),
            fingerprint: Portable::fingerprint(self.heavy()),
        };
        SlimMultiSummary {
            join,
            topk,
            distinct: self.hll().clone(),
            quantiles: self.kll().clone(),
            fingerprint: Portable::fingerprint(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::JoinSchema;
    use crate::summary::{JoinQuery, Summary, TopKQuery};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fed_join_sketch(seed: u64) -> JoinSketch {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = JoinSchema::fagms(5, 256, &mut rng).sketch();
        for k in 0..2_000u64 {
            s.update(k % 113, 1);
        }
        s
    }

    #[test]
    fn slim_join_carries_the_fat_estimate_round_trips_and_shrinks() {
        let fat = fed_join_sketch(1);
        let slim = fat.slim();
        let fe = fat.self_join_estimate();
        assert_eq!(slim.estimate().value.to_bits(), fe.value.to_bits());
        assert_eq!(slim.estimate().variance.to_bits(), fe.variance.to_bits());
        assert_eq!(slim.estimate().basics, fe.basics);
        assert_eq!(slim.lanes(), 5, "one lane per F-AGMS row");
        let back = SlimJoin::decode(&slim.encode().unwrap()).unwrap();
        assert_eq!(back, slim);
        assert_eq!(back.fingerprint(), Portable::fingerprint(&fat));
        let fat_bytes = fat.encode().unwrap().len();
        let slim_bytes = slim.encode().unwrap().len();
        assert!(
            slim_bytes * 5 < fat_bytes,
            "slim {slim_bytes}B should be well under 20% of fat {fat_bytes}B"
        );
    }

    #[test]
    fn slim_multi_carries_the_fat_answers_round_trips_and_shrinks() {
        let mut rng = StdRng::seed_from_u64(4);
        // The served join geometry: the size claim at the bottom is about
        // the counters a reader does not need, and the join sketch is the
        // only part that has any — at 3×128 the two forms are the same size
        // (17,161 B fat, 16,683 B slim).
        let spec = crate::MultiSpec::new(JoinSchema::fagms(3, 5000, &mut rng), &mut rng);
        let mut fat = spec.summary().unwrap();
        let keys: Vec<u64> = (0..30_000u64).map(|i| i % 777).collect();
        Summary::update_batch(&mut fat, &keys);
        let slim = fat.slim();
        assert_eq!(slim.join().estimate(), &fat.self_join_estimate());
        // Every candidate, bit for bit, each priced at its point query
        // although the projection prices them in one batched call; the
        // variance from the join stage's F₂ is the fat read's too.
        let capacity = fat.heavy().capacity();
        let top = fat.top_k_estimates(capacity);
        assert_eq!(slim.topk.ranked.len(), capacity);
        for (&(key, value), (fat_key, e)) in slim.topk.ranked.iter().zip(&top) {
            assert_eq!(key, *fat_key);
            assert_eq!(value.to_bits(), e.value.to_bits());
            assert_eq!(slim.topk.variance.to_bits(), e.variance.to_bits());
            assert_eq!(value.to_bits(), fat.join().point_query(key).to_bits());
        }
        assert_eq!(slim.distinct.encode().unwrap(), fat.hll().encode().unwrap());
        assert_eq!(
            slim.quantiles.encode().unwrap(),
            fat.kll().encode().unwrap()
        );
        let bytes = slim.encode().unwrap();
        let back = SlimMultiSummary::decode(&bytes).unwrap();
        assert_eq!(back.encode().unwrap(), bytes);
        assert_eq!(back.fingerprint(), Portable::fingerprint(&fat));
        let fat_bytes = fat.encode().unwrap().len();
        assert!(
            bytes.len() < fat_bytes / 2,
            "slim multi {}B vs fat {fat_bytes}B",
            bytes.len()
        );
    }

    #[test]
    fn infinite_variance_survives_the_wire() {
        let slim = SlimJoin::project(9, Estimate::point(42.0));
        let back = SlimJoin::decode(&slim.encode().unwrap()).unwrap();
        assert!(back.estimate().variance.is_infinite());
        assert_eq!(back.estimate().value.to_bits(), 42.0f64.to_bits());
    }
}
