//! Property-based tests of the operational pipeline: sketch linearity,
//! driver bookkeeping, and estimator consistency on arbitrary streams.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{Sampled, ScanSketcher};
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::moments::scheme::{Bernoulli, WithoutReplacement};
use sketch_sampled_streams::sketch::{AgmsSchema, FagmsSchema};
use sketch_sampled_streams::xi::{Cw2Bucket, Cw4};

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..500, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Linearity: sketching a stream equals merging sketches of any split
    /// of it, for both backends.
    #[test]
    fn sketches_are_linear(keys in stream(), split in 0usize..400, seed: u64) {
        let split = split.min(keys.len());
        let mut rng = StdRng::seed_from_u64(seed);

        let agms = AgmsSchema::<Cw4>::new(8, &mut rng);
        let mut whole = agms.sketch();
        let mut left = agms.sketch();
        let mut right = agms.sketch();
        for (i, &k) in keys.iter().enumerate() {
            whole.update(k, 1);
            if i < split { left.update(k, 1) } else { right.update(k, 1) }
        }
        left.merge(&right).unwrap();
        prop_assert_eq!(left.raw_counters(), whole.raw_counters());

        let fagms = FagmsSchema::<Cw4, Cw2Bucket>::new(2, 32, &mut rng);
        let mut whole = fagms.sketch();
        let mut left = fagms.sketch();
        let mut right = fagms.sketch();
        for (i, &k) in keys.iter().enumerate() {
            whole.update(k, 1);
            if i < split { left.update(k, 1) } else { right.update(k, 1) }
        }
        left.merge(&right).unwrap();
        prop_assert_eq!(left.self_join(), whole.self_join());
    }

    /// Insertions followed by matching deletions return every sketch to
    /// the empty state (turnstile correctness).
    #[test]
    fn deletions_cancel_insertions(keys in stream(), seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(3, 16, &mut rng);
        let mut s = schema.sketch();
        for &k in &keys { s.update(k, 2); }
        for &k in &keys { s.update(k, -2); }
        prop_assert_eq!(s.self_join(), 0.0);
    }

    /// The load shedder never sketches more tuples than it sees and its
    /// p = 1 estimate equals the raw sketch estimate exactly.
    #[test]
    fn shedder_bookkeeping(keys in stream(), seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::agms(4, &mut rng);
        let mut shed = Sampled::new(schema.sketch(), 0.5, &mut rng).unwrap();
        for &k in &keys { shed.observe(k); }
        prop_assert!(shed.kept() <= shed.seen());
        prop_assert_eq!(shed.seen(), keys.len() as u64);

        let mut full = Sampled::new(schema.sketch(), 1.0, &mut rng).unwrap();
        for &k in &keys { full.observe(k); }
        prop_assert_eq!(full.kept(), keys.len() as u64);
        prop_assert_eq!(full.self_join_estimate().value, full.summary().raw_self_join());
    }

    /// A complete scan's estimate is the raw sketch estimate (the WOR
    /// corrections vanish at α = 1), regardless of the stream content.
    #[test]
    fn complete_scan_has_no_correction(keys in stream(), seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(1, 64, &mut rng);
        let mut scan = ScanSketcher::new(&schema, keys.len() as u64).unwrap();
        for &k in &keys { scan.observe(k).unwrap(); }
        prop_assert!(scan.is_complete());
        if keys.len() >= 2 {
            let est = scan.self_join().unwrap();
            prop_assert!((est - scan.sketch().raw_self_join()).abs() < 1e-9);
        }
    }

    /// Sampling-only estimators at full rate are exact, whatever the data:
    /// the schemes' corrections over a sample's exact aggregates.
    #[test]
    fn sampling_estimators_exact_at_full_rate(keys in stream()) {
        let counts = ExactAggregator::from_keys(keys.iter().copied());
        let (truth, m) = (counts.self_join(), counts.total() as u64);
        let est = Bernoulli::new(1.0).unwrap().self_join(truth, m);
        prop_assert!((est - truth).abs() < 1e-9);
        if m >= 2 {
            let est = WithoutReplacement::new(m, m).unwrap().self_join(truth).unwrap();
            prop_assert!((est - truth).abs() < 1e-6 * truth.max(1.0));
        }
    }

    /// The join of two samples' counts is symmetric and bounded by the
    /// Cauchy–Schwarz inequality.
    #[test]
    fn sample_counts_dot_is_cauchy_schwarz(a in stream(), b in stream()) {
        let ca = ExactAggregator::from_keys(a.iter().copied());
        let cb = ExactAggregator::from_keys(b.iter().copied());
        let dot = ca.join(&cb);
        prop_assert_eq!(dot, cb.join(&ca));
        let bound = (ca.self_join() * cb.self_join()).sqrt();
        prop_assert!(dot <= bound + 1e-6);
    }
}
