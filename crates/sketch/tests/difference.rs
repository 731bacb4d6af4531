//! L2-difference (change detection) tests: `subtract` turns two stream
//! sketches into a sketch of the frequency delta, whose self-join estimate
//! is the squared L2 distance between the streams.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_sketch::{AgmsSchema, FagmsSchema, Sketch};

#[test]
fn identical_streams_have_zero_distance() {
    let mut rng = StdRng::seed_from_u64(1);
    let schema: FagmsSchema = FagmsSchema::new(3, 256, &mut rng);
    let mut a = schema.sketch();
    let mut b = schema.sketch();
    for k in 0..5000u64 {
        a.update(k % 100, 1);
        b.update(k % 100, 1);
    }
    a.subtract(&b).unwrap();
    assert_eq!(
        a.self_join(),
        0.0,
        "identical streams differ by exactly nothing"
    );
}

#[test]
fn l2_distance_is_estimated_accurately() {
    let mut rng = StdRng::seed_from_u64(2);
    let schema: FagmsSchema = FagmsSchema::new(3, 4096, &mut rng);
    let mut yesterday = schema.sketch();
    let mut today = schema.sketch();
    // Base traffic: 1000 keys × 50 each day.
    for k in 0..1000u64 {
        yesterday.update(k, 50);
        today.update(k, 50);
    }
    // Today's anomaly: 20 keys spike by +200, 10 keys drop by −30.
    for k in 0..20u64 {
        today.update(k, 200);
    }
    for k in 500..510u64 {
        today.update(k, -30);
    }
    let truth = 20.0 * 200.0 * 200.0 + 10.0 * 30.0 * 30.0;
    today.subtract(&yesterday).unwrap();
    let est = today.self_join();
    assert!(
        (est - truth).abs() / truth < 0.1,
        "est = {est}, truth = {truth}"
    );
    // The spiked keys dominate the difference point queries.
    let spike = today.point_query(3);
    assert!(
        (spike - 200.0).abs() < 40.0,
        "difference point query {spike}"
    );
}

#[test]
fn agms_subtract_matches_direct_difference_stream() {
    let mut rng = StdRng::seed_from_u64(3);
    let schema: AgmsSchema = AgmsSchema::new(32, &mut rng);
    let mut a = schema.sketch();
    let mut b = schema.sketch();
    let mut direct = schema.sketch();
    for k in 0..500u64 {
        a.update(k, (k % 7) as i64);
        b.update(k, (k % 3) as i64);
        direct.update(k, (k % 7) as i64 - (k % 3) as i64);
    }
    a.subtract(&b).unwrap();
    assert_eq!(
        a.raw_counters(),
        direct.raw_counters(),
        "subtract is exact linearity"
    );
}

/// `subtract` is the exact inverse of `merge`: merging a peer in and
/// subtracting it again restores every counter.
#[test]
fn subtract_undoes_a_merge_exactly() {
    let mut rng = StdRng::seed_from_u64(5);
    let agms: AgmsSchema = AgmsSchema::new(32, &mut rng);
    let fagms: FagmsSchema = FagmsSchema::new(3, 256, &mut rng);
    let (mut a, mut peer) = (agms.sketch(), agms.sketch());
    let (mut f, mut fpeer) = (fagms.sketch(), fagms.sketch());
    for k in 0..2000u64 {
        a.update(k % 90, 1);
        f.update(k % 90, 1);
        peer.update(k % 37, 3);
        fpeer.update(k % 37, 3);
    }
    let (a0, f0) = (a.clone(), f.clone());
    a.merge(&peer).unwrap();
    f.merge(&fpeer).unwrap();
    assert_ne!(a.raw_counters(), a0.raw_counters());
    a.subtract(&peer).unwrap();
    f.subtract(&fpeer).unwrap();
    assert_eq!(a.raw_counters(), a0.raw_counters());
    assert_eq!(f.self_join().to_bits(), f0.self_join().to_bits());
    assert_eq!(f.point_query(7).to_bits(), f0.point_query(7).to_bits());
}

#[test]
fn subtract_requires_shared_schema() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut a = FagmsSchema::<sss_xi::Cw4, sss_xi::Cw2Bucket>::new(2, 16, &mut rng).sketch();
    let b = FagmsSchema::<sss_xi::Cw4, sss_xi::Cw2Bucket>::new(2, 16, &mut rng).sketch();
    assert!(a.subtract(&b).is_err());
}
