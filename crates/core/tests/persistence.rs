//! Driver-level persistence: the distributed load-shedding workflow.
//!
//! A coordinator creates one `JoinSchema`, ships it to workers, each worker
//! sheds-and-sketches its stream partition, and the coordinator merges the
//! returned sketches and applies the Bernoulli scaling once over the union
//! (Bernoulli sampling composes across partitions: each tuple of the union
//! was kept independently with probability p).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::{JoinSchema, JoinSketch};
use sss_core::{Portable, Sampled};
use sss_xi::{Codec, Reader, Writer};

/// A schema in the binary layout (a schema alone is not a snapshot, so it
/// travels without a head).
fn ship(schema: &JoinSchema) -> Vec<u8> {
    let mut w = Writer::new();
    schema.put(&mut w);
    w.into_bytes()
}

fn land(bytes: &[u8]) -> JoinSchema {
    let mut r = Reader::new(bytes);
    let schema = JoinSchema::take(&mut r).unwrap();
    r.finish().unwrap();
    schema
}

#[test]
fn schema_and_sketch_roundtrip_both_backends() {
    let mut rng = StdRng::seed_from_u64(1);
    for schema in [
        JoinSchema::agms(16, &mut rng),
        JoinSchema::fagms(2, 128, &mut rng),
    ] {
        let restored = land(&ship(&schema));
        let mut a = schema.sketch();
        let mut b = restored.sketch();
        for k in 0..1000u64 {
            a.update(k % 37, 1);
            b.update(k % 37, 1);
        }
        // Identical seeds ⇒ identical estimates, and cross-joinable.
        assert_eq!(a.raw_self_join(), b.raw_self_join());
        assert!(a.raw_size_of_join(&b).is_ok());

        let a2 = JoinSketch::decode(&a.encode().unwrap()).unwrap();
        assert_eq!(a2.raw_self_join(), a.raw_self_join());
        assert_eq!(a2.encode().unwrap(), a.encode().unwrap());
    }
}

#[test]
fn distributed_shedding_merges_to_one_estimate() {
    let mut rng = StdRng::seed_from_u64(2);
    let schema = JoinSchema::fagms(1, 4096, &mut rng);
    let schema_bytes = ship(&schema);
    let p = 0.2;

    // Three workers shed three partitions of the same logical stream.
    let mut worker_payloads = Vec::new();
    let mut total_kept = 0u64;
    for w in 0..3u64 {
        let worker_schema = land(&schema_bytes);
        let mut shed = Sampled::new(worker_schema.sketch(), p, &mut rng).unwrap();
        for i in 0..200_000u64 {
            shed.observe((w * 200_000 + i) % 1000);
        }
        total_kept += shed.kept();
        worker_payloads.push(shed.summary().encode().unwrap());
    }

    // Coordinator: merge and scale once.
    let mut merged = JoinSketch::decode(&worker_payloads[0]).unwrap();
    for payload in &worker_payloads[1..] {
        merged.merge_encoded(payload).unwrap();
    }
    let est = merged.raw_self_join() / (p * p) - (1.0 - p) / (p * p) * total_kept as f64;

    // Truth: 1000 keys × 600 copies.
    let truth = 1000.0 * 600.0 * 600.0;
    let rel = (est - truth).abs() / truth;
    assert!(rel < 0.1, "distributed estimate off by {rel}");
}

#[test]
fn cross_backend_payloads_do_not_merge() {
    let mut rng = StdRng::seed_from_u64(3);
    let agms = JoinSchema::agms(8, &mut rng).sketch();
    let fagms = JoinSchema::fagms(1, 8, &mut rng).sketch();
    let mut f = JoinSketch::decode(&fagms.encode().unwrap()).unwrap();
    let a = JoinSketch::decode(&agms.encode().unwrap()).unwrap();
    assert!(f.merge(&a).is_err());
    assert!(f.merge_encoded(&agms.encode().unwrap()).is_err());
}
