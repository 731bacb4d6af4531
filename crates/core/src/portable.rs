//! [`Portable`] implementations for every summary backend that travels.
//!
//! Each impl names the backend's [`sss_xi::Codec`] body in a
//! [`crate::wire`] head: the kind tag names the concrete shape, the
//! format version pins the body layout, and the fingerprint hashes exactly
//! the configuration its `merge`/`merge_from` compatibility check depends
//! on — schema identities (which stand in for the random seeds they were
//! drawn with), dimensions, precision, capacities. Two summaries merge
//! through the wire iff they would merge in memory.
//!
//! Not here, deliberately:
//!
//! * The raw `sss_sketch::{AgmsSketch, FagmsSketch}` — they travel as a
//!   [`JoinSketch`] (kind `join`): a backend tag, then the raw sketch's own
//!   [`sss_xi::Codec`] body.
//! * [`crate::Sampled`] — not yet; snapshot the *inner* summary instead.
//!   Its sampler state is plain words (`p`, seed, counter position,
//!   `seen`, `kept`, pending gap), so serialising it is ROADMAP item 5(a).

use crate::multi::MultiSummary;
use crate::sketch::JoinSketch;
use crate::summary::Portable;
use crate::wire;
use sss_sketch::{HyperLogLog, KllSketch, MisraGries};

// Kind discriminant words folded into each fingerprint so that two
// backends whose remaining configuration words collide (e.g. equal
// depth/width) still fingerprint apart. 0x03 and 0x05 (the retired
// Count-Sketch top-k) are not reused, so no fingerprint word changes
// meaning.
pub(crate) const TAG_AGMS: u64 = 0x01;
pub(crate) const TAG_FAGMS: u64 = 0x02;
pub(crate) const TAG_MISRA_GRIES: u64 = 0x04;
pub(crate) const TAG_HLL: u64 = 0x06;
pub(crate) const TAG_KLL: u64 = 0x07;

/// The one join summary fingerprints its backend's schema identity and
/// dimensions behind the backend's tag, so an AGMS-backed and an
/// F-AGMS-backed [`JoinSketch`] of coincidentally equal dimensions never
/// claim compatibility.
impl Portable for JoinSketch {
    const KIND: &'static str = "join";
    const FORMAT: u32 = 2;

    fn fingerprint(&self) -> u64 {
        match self {
            JoinSketch::Agms(s) => {
                let schema = s.schema();
                wire::fingerprint(&[TAG_AGMS, schema.id(), schema.len() as u64])
            }
            JoinSketch::Fagms(s) => {
                let schema = s.schema();
                let (depth, width) = (schema.depth() as u64, schema.width() as u64);
                wire::fingerprint(&[TAG_FAGMS, schema.id(), depth, width])
            }
        }
    }
}

/// Misra–Gries summaries merge whenever their capacities agree — there is
/// no randomness to pin — so the fingerprint covers exactly that.
impl Portable for MisraGries {
    const KIND: &'static str = "misra-gries";
    const FORMAT: u32 = 2;

    fn fingerprint(&self) -> u64 {
        wire::fingerprint(&[TAG_MISRA_GRIES, self.capacity() as u64])
    }
}

/// HyperLogLog merges iff precision *and* hash seed agree (the module
/// docs' schema identity), so both enter the fingerprint.
impl Portable for HyperLogLog {
    const KIND: &'static str = "hll";
    const FORMAT: u32 = 2;

    fn fingerprint(&self) -> u64 {
        wire::fingerprint(&[TAG_HLL, self.precision() as u64, self.seed()])
    }
}

/// KLL merges on equal accuracy parameter `k` alone — the coin and sampler
/// seeds are private randomness, not shared structure — so only `k`
/// fingerprints.
///
/// Format 3 is format 2's fields (the levels, `k`, the weight, the coin and
/// the sampler seed) in the binary layout; format 2 was JSON, and format 1
/// had no sampler seed. An older head is refused before its body is read.
impl Portable for KllSketch {
    const KIND: &'static str = "kll";
    const FORMAT: u32 = 3;

    fn fingerprint(&self) -> u64 {
        wire::fingerprint(&[TAG_KLL, self.k() as u64])
    }
}

/// The composite fingerprints as the chain of its constituents'
/// fingerprints — two `MultiSummary`s are wire-compatible iff every part
/// is, which mirrors `merge_from`'s part-by-part checks exactly.
///
/// Format 4: format 3's parts in the binary layout (format 3 was JSON with
/// a format-2 [`KllSketch`] body, format 2 carried a format-1 one, format 1
/// a Count-Sketch top-k where the [`MisraGries`] body is). The head refuses
/// an older snapshot before its body is read, and a body whose parts do not
/// fingerprint to the head's value — a join sketch paired with another
/// spec's candidates — is refused after.
impl Portable for MultiSummary {
    const KIND: &'static str = "multi";
    const FORMAT: u32 = 4;

    fn fingerprint(&self) -> u64 {
        wire::fingerprint(&[
            self.join().fingerprint(),
            self.heavy().fingerprint(),
            self.hll().fingerprint(),
            self.kll().fingerprint(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::sketch::JoinSchema;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn join_sketch_round_trips_through_the_wire() {
        let mut rng = StdRng::seed_from_u64(11);
        let schema = JoinSchema::fagms(3, 64, &mut rng);
        let mut s = schema.sketch();
        for k in 0..500u64 {
            s.update(k, (k % 3 + 1) as i64);
        }
        let bytes = s.encode().unwrap();
        let head = wire::peek(&bytes).unwrap();
        assert_eq!(head.kind, "join");
        assert_eq!(head.fingerprint, s.fingerprint());
        let back = JoinSketch::decode(&bytes).unwrap();
        assert_eq!(
            back.raw_self_join().to_bits(),
            s.raw_self_join().to_bits(),
            "decode must reproduce the estimate exactly"
        );
    }

    #[test]
    fn merge_encoded_equals_in_memory_merge() {
        let mut rng = StdRng::seed_from_u64(12);
        let schema = JoinSchema::agms(32, &mut rng);
        let mut a = schema.sketch();
        let mut b = schema.sketch();
        a.update_batch(&[1, 2, 3, 4, 5]);
        b.update_batch(&[3, 4, 5, 6, 7]);
        let mut in_memory = a.clone();
        in_memory.merge_from(&b).unwrap();
        let mut through_wire = a.clone();
        through_wire.merge_encoded(&b.encode().unwrap()).unwrap();
        assert_eq!(
            through_wire.raw_self_join().to_bits(),
            in_memory.raw_self_join().to_bits()
        );
    }

    #[test]
    fn mismatched_fingerprints_refuse_to_merge() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut a = JoinSchema::fagms(2, 32, &mut rng).sketch();
        let b = JoinSchema::fagms(2, 32, &mut rng).sketch();
        let err = a.merge_encoded(&b.encode().unwrap()).unwrap_err();
        assert!(matches!(err, Error::FingerprintMismatch { .. }), "{err}");
    }

    #[test]
    fn foreign_kind_is_a_wire_mismatch() {
        let mut rng = StdRng::seed_from_u64(14);
        let hll = HyperLogLog::with_seed(12, 5).unwrap();
        let bytes = hll.encode().unwrap();
        assert!(matches!(
            KllSketch::decode(&bytes),
            Err(Error::WireMismatch { .. })
        ));
        let join = JoinSchema::fagms(2, 16, &mut rng).sketch();
        assert!(matches!(
            MisraGries::decode(&join.encode().unwrap()),
            Err(Error::WireMismatch { .. })
        ));
    }

    #[test]
    fn misra_gries_round_trips_with_candidates() {
        let mut mg = MisraGries::new(8).unwrap();
        mg.offer_batch(&(0..3_000u64).map(|i| i % 37).collect::<Vec<_>>());
        let mg2 = MisraGries::decode(&mg.encode().unwrap()).unwrap();
        assert_eq!(mg.raw_top_k(8), mg2.raw_top_k(8));
        assert_eq!(mg.error_bound(), mg2.error_bound());
    }

    #[test]
    fn multi_summary_round_trips_and_fingerprints_all_parts() {
        let mut rng = StdRng::seed_from_u64(16);
        let spec = crate::MultiSpec::new(JoinSchema::fagms(2, 64, &mut rng), &mut rng);
        let mut m = spec.summary().unwrap();
        m.update_batch(&(0..2_000u64).map(|i| i % 99).collect::<Vec<_>>());
        let back = MultiSummary::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(back.fingerprint(), m.fingerprint());
        assert_eq!(
            crate::JoinQuery::self_join_estimate(&back),
            crate::JoinQuery::self_join_estimate(&m)
        );
        assert_eq!(
            crate::DistinctQuery::distinct_estimate(&back),
            crate::DistinctQuery::distinct_estimate(&m)
        );
        // A spec with different seeds fingerprints apart.
        let mut rng2 = StdRng::seed_from_u64(17);
        let other = crate::MultiSpec::new(JoinSchema::fagms(2, 64, &mut rng2), &mut rng2)
            .summary()
            .unwrap();
        assert_ne!(other.fingerprint(), m.fingerprint());
    }

    /// Encoding is deterministic: the same state always yields the same
    /// bytes (hash-map-backed summaries write their entries in sorted key
    /// order).
    #[test]
    fn encoding_is_deterministic() {
        let mut mg = MisraGries::new(16).unwrap();
        mg.offer_batch(&(0..500u64).map(|i| i % 23).collect::<Vec<_>>());
        assert_eq!(mg.encode().unwrap(), mg.encode().unwrap());
        let mut mg2 = mg.clone();
        mg2.offer(999, 1);
        assert_ne!(mg.encode().unwrap(), mg2.encode().unwrap());
    }
}
