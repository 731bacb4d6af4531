//! Property tests for the typed [`Estimate`] query path: every public
//! query surface must report an `Estimate` whose **value is bit-identical**
//! to the raw sketch's scalar (with the sampling correction applied, for a
//! shedder), whose intervals are centered on that value, and whose
//! Chebyshev interval is never tighter than the CLT interval at the same
//! confidence level.
//!
//! [`Estimate`]: sketch_sampled_streams::core::Estimate

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{JoinQuery, Sampled};
use sketch_sampled_streams::sketch::{AgmsSchema, Estimate, FagmsSchema};
use sketch_sampled_streams::stream::{RuntimeConfig, ShardedRuntime};

/// Shared coherence checks: finite-value intervals centered on the point
/// estimate, Chebyshev at least as wide as CLT.
fn assert_coherent(e: &Estimate) {
    assert!(e.value.is_finite());
    for level in [0.5, 0.9, 0.99] {
        let cheb = e.chebyshev(level).unwrap();
        let clt = e.clt(level).unwrap();
        assert!(cheb.contains(e.value));
        assert!(clt.contains(e.value));
        assert!(
            cheb.half_width() >= clt.half_width(),
            "chebyshev {} < clt {} at level {level}",
            cheb.half_width(),
            clt.half_width()
        );
    }
}

/// Proposition 14's correction of a raw F₂ at rate `p` with `kept`
/// tuples sketched, as the shedder computes it.
fn corrected(raw: f64, p: f64, kept: u64) -> f64 {
    let p2 = p * p;
    raw / p2 - (1.0 - p) / p2 * kept as f64
}

/// A small but non-degenerate key stream: `len` keys over `domain` values.
fn keys(len: usize, domain: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..domain, 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Typed sketch estimates (AGMS mean, F-AGMS median)
    /// carry the scalar values bit for bit.
    #[test]
    fn sketch_estimates_are_bit_identical(
        seed in 0u64..1000,
        f in keys(400, 64),
        g in keys(400, 64),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let agms: AgmsSchema = AgmsSchema::new(16, &mut rng);
        let fagms: FagmsSchema = FagmsSchema::new(3, 32, &mut rng);

        let (mut af, mut ag) = (agms.sketch(), agms.sketch());
        let (mut ff, mut fg) = (fagms.sketch(), fagms.sketch());
        for &k in &f {
            af.update(k, 1);
            ff.update(k, 1);
        }
        for &k in &g {
            ag.update(k, 1);
            fg.update(k, 1);
        }

        // Inherent methods.
        prop_assert_eq!(af.self_join_estimate().value.to_bits(), af.self_join().to_bits());
        prop_assert_eq!(ff.self_join_estimate().value.to_bits(), ff.self_join().to_bits());
        prop_assert_eq!(
            af.size_of_join_estimate(&ag).unwrap().value.to_bits(),
            af.size_of_join(&ag).unwrap().to_bits()
        );
        prop_assert_eq!(
            ff.size_of_join_estimate(&fg).unwrap().value.to_bits(),
            ff.size_of_join(&fg).unwrap().to_bits()
        );

        // The join summary's trait read is the inherent raw value.
        for join in [JoinSketch::Agms(af.clone()), JoinSketch::Fagms(ff.clone())] {
            prop_assert_eq!(
                JoinQuery::self_join_estimate(&join).value.to_bits(),
                join.raw_self_join().to_bits()
            );
        }

        assert_coherent(&af.self_join_estimate());
        assert_coherent(&ff.self_join_estimate());
        assert_coherent(&af.size_of_join_estimate(&ag).unwrap());
    }

    /// The shedding driver, `Sampled<JoinSketch>`, reports bit-identical
    /// typed values.
    #[test]
    fn shedder_estimates_are_bit_identical(
        seed in 0u64..1000,
        stream in keys(600, 50),
        p in 0.2f64..1.0,
        fagms in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = if fagms {
            JoinSchema::fagms(2, 64, &mut rng)
        } else {
            JoinSchema::agms(24, &mut rng)
        };

        let mut shed = Sampled::new(schema.sketch(), p, &mut rng).unwrap();
        let mut other = Sampled::new(schema.sketch(), 1.0, &mut rng).unwrap();
        for &k in &stream {
            shed.observe(k);
            other.observe(k);
        }
        let e = shed.self_join_estimate();
        prop_assert_eq!(e.value.to_bits(), corrected(shed.summary().raw_self_join(), p, shed.kept()).to_bits());
        assert_coherent(&e);
        let ej = shed.size_of_join_estimate(&other).unwrap();
        let raw_join = shed.summary().raw_size_of_join(other.summary()).unwrap();
        prop_assert_eq!(ej.value.to_bits(), (raw_join / (p * 1.0)).to_bits());
        assert_coherent(&ej);
    }

    /// The stream layer: the sharded runtime reports typed values that are
    /// its scalar answers bit for bit, and a sharded shed matches its
    /// scalar correction.
    #[test]
    fn stream_layer_estimates_are_bit_identical(
        seed in 0u64..1000,
        stream in keys(800, 80),
        shards in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(2, 128, &mut rng);

        // Sharded runtime: estimate answered on the combined sketch.
        let config = RuntimeConfig { shards, ..Default::default() };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let mut rt2 = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        for chunk in stream.chunks(97) {
            rt.push(chunk).unwrap();
            rt2.push(chunk).unwrap();
        }
        let mut seq = schema.sketch();
        seq.update_batch(&stream);
        let e = rt.self_join_estimate().unwrap();
        prop_assert_eq!(e.value.to_bits(), seq.raw_self_join().to_bits());
        assert_coherent(&e);
        let ej = rt.size_of_join_estimate(&rt2).unwrap();
        prop_assert_eq!(ej.value.to_bits(), seq.raw_self_join().to_bits());

        // Parallel shedding: one `Sampled` prototype, its own coins on
        // every shard, merged; the typed value is the scalar correction.
        let prototype = Sampled::new(schema.sketch(), 0.5, &mut rng).unwrap();
        let mut shed_rt = ShardedRuntime::new(config, &prototype).unwrap();
        for chunk in stream.chunks(97) {
            shed_rt.push(chunk).unwrap();
        }
        let shed = shed_rt.into_merged().unwrap();
        prop_assert_eq!(shed.seen(), stream.len() as u64);
        let want = corrected(shed.summary().raw_self_join(), 0.5, shed.kept());
        prop_assert_eq!(shed.self_join_estimate().value.to_bits(), want.to_bits());
    }
}
