//! Persistence round-trips: the distributed-aggregation workflow.
//!
//! A schema is created once, shipped (in the workspace's binary layout,
//! `sss_xi::codec`) to several workers, each worker sketches its stream
//! partition, the encoded sketches come back, and the coordinator merges
//! and estimates. This only works if (a) the seeds survive exactly and (b)
//! the schema identity survives, so decoded sketches still recognize each
//! other.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_sketch::{AgmsSchema, AgmsSketch, FagmsSchema, FagmsSketch};
use sss_xi::{BucketFamily, Codec, CodecError, Cw2Bucket, Cw4, Reader, SignFamily, Writer};

fn ship<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

fn land<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::take(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[test]
fn agms_distributed_roundtrip() {
    let mut rng = StdRng::seed_from_u64(1);
    let schema: AgmsSchema = AgmsSchema::new(64, &mut rng);
    let schema_bytes = ship(&schema);

    // Two "workers" each restore the schema and sketch a partition.
    let mut parts = Vec::new();
    for w in 0..2u64 {
        let worker_schema: AgmsSchema = land(&schema_bytes).unwrap();
        let mut sk = worker_schema.sketch();
        for k in (w * 500)..(w * 500 + 500) {
            sk.update(k % 100, 1);
        }
        parts.push(ship(&sk));
    }

    // The coordinator merges the returned sketches.
    let mut merged: AgmsSketch = land(&parts[0]).unwrap();
    let second: AgmsSketch = land(&parts[1]).unwrap();
    merged.merge(&second).unwrap();

    // Reference: one sketch over the whole stream.
    let mut whole = schema.sketch();
    for k in 0..1000u64 {
        whole.update(k % 100, 1);
    }
    assert_eq!(merged.raw_counters(), whole.raw_counters());
}

#[test]
fn fagms_roundtrip_preserves_estimates_and_identity() {
    let mut rng = StdRng::seed_from_u64(2);
    let schema: FagmsSchema = FagmsSchema::new(3, 256, &mut rng);
    let mut s = schema.sketch();
    let mut t = schema.sketch();
    for k in 0..5000u64 {
        s.update(k % 300, 1);
        t.update(k % 150, 1);
    }
    let s2: FagmsSketch = land(&ship(&s)).unwrap();
    let t2: FagmsSketch = land(&ship(&t)).unwrap();
    assert_eq!(ship(&s2), ship(&s), "re-encodes byte for byte");
    assert_eq!(s.self_join(), s2.self_join());
    // Identity survives: a restored sketch can be joined with a live one.
    assert_eq!(s.size_of_join(&t).unwrap(), s2.size_of_join(&t2).unwrap());
    assert_eq!(s.size_of_join(&t2).unwrap(), s2.size_of_join(&t).unwrap());
}

#[test]
fn corrupted_payloads_are_rejected() {
    let mut rng = StdRng::seed_from_u64(4);
    let schema: AgmsSchema = AgmsSchema::new(8, &mut rng);
    // Counter count no longer matches the schema.
    let mut w = Writer::new();
    schema.put(&mut w);
    w.i64s(&[0, 0, 0]);
    let res: Result<AgmsSketch, _> = land(&w.into_bytes());
    assert!(
        matches!(res, Err(CodecError::Invalid(_))),
        "mismatched counter counts must not decode"
    );

    // Empty schema.
    let mut w = Writer::new();
    w.seq::<Cw4>(&[]);
    w.u64(7);
    let res: Result<AgmsSchema, _> = land(&w.into_bytes());
    assert!(
        matches!(res, Err(CodecError::Invalid(_))),
        "empty schemas must not decode"
    );

    // An F-AGMS width whose counter count overflows a usize.
    let mut w = Writer::new();
    w.usize(2);
    for _ in 0..2 {
        Cw4::random(&mut rng).put(&mut w);
        Cw2Bucket::random(&mut rng).put(&mut w);
    }
    w.usize(1 << 63);
    w.u64(7);
    w.i64s(&[]);
    let res: Result<FagmsSketch, _> = land(&w.into_bytes());
    assert!(matches!(res, Err(CodecError::Invalid(_))), "{res:?}");
}
