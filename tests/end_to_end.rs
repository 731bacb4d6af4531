//! Cross-crate integration tests: generators → drivers → estimates →
//! analytical validation, exercising the public facade exactly as a
//! downstream user would.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::analysis;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{IidStreamSketcher, Sampled, ScanSketcher};
use sketch_sampled_streams::datagen::{TpchGenerator, ZipfGenerator};
use sketch_sampled_streams::moments::{bounds, FrequencyVector};
use sketch_sampled_streams::sampling::without_replacement::PrefixScan;

#[test]
fn zipf_stream_shedding_keeps_accuracy_at_10_percent() {
    let mut rng = StdRng::seed_from_u64(1);
    let domain = 20_000;
    let stream = ZipfGenerator::new(domain, 1.0).relation(400_000, &mut rng);
    let truth = FrequencyVector::from_keys(stream.iter().copied(), domain).self_join();

    let schema = JoinSchema::fagms(1, 5000, &mut rng);
    let mut full = Sampled::new(schema.sketch(), 1.0, &mut rng).unwrap();
    let mut shed = Sampled::new(schema.sketch(), 0.1, &mut rng).unwrap();
    for &k in &stream {
        full.observe(k);
        shed.observe(k);
    }
    let full_err = (full.self_join_estimate().value - truth).abs() / truth;
    let shed_err = (shed.self_join_estimate().value - truth).abs() / truth;
    assert!(full_err < 0.05, "full-stream error {full_err}");
    assert!(shed_err < 0.12, "10%-sample error {shed_err}");
    assert!(shed.kept() < 50_000, "≈10% of the stream should be kept");
}

#[test]
fn predicted_confidence_interval_covers_realized_estimates() {
    let mut rng = StdRng::seed_from_u64(2);
    let domain = 5_000;
    let stream = ZipfGenerator::new(domain, 0.5).relation(100_000, &mut rng);
    let freqs = FrequencyVector::from_keys(stream.iter().copied(), domain);
    let truth = freqs.self_join();

    let schema = JoinSchema::fagms(1, 2000, &mut rng);
    let p = 0.2;
    let moments = analysis::shedding_self_join(&freqs, p, &schema).unwrap();
    let ci = bounds::normal(truth, &moments, 0.99);

    // 30 independent runs: nearly all must land inside the 99% interval.
    let mut inside = 0;
    let runs = 30;
    for _ in 0..runs {
        let schema = JoinSchema::fagms(1, 2000, &mut rng);
        let mut shed = Sampled::new(schema.sketch(), p, &mut rng).unwrap();
        for &k in &stream {
            shed.observe(k);
        }
        if ci.contains(shed.self_join_estimate().value) {
            inside += 1;
        }
    }
    assert!(
        inside >= runs - 3,
        "only {inside}/{runs} runs inside the 99% CI"
    );
}

#[test]
fn tpch_online_aggregation_trajectory_converges() {
    let mut rng = StdRng::seed_from_u64(3);
    let tables = TpchGenerator::new(0.003).generate(&mut rng);
    let truth = tables.lineitem_self_join();

    let schema = JoinSchema::fagms(1, 4000, &mut rng);
    let scan = PrefixScan::new(tables.lineitem.clone(), &mut rng);
    // The running estimate at 10%, 50% and 100% of a random-order scan.
    let n = scan.len();
    let checkpoints = [0.1, 0.5, 1.0].map(|f| (f * n as f64).round() as usize);
    let mut sketcher = ScanSketcher::new(&schema, n as u64).unwrap();
    let mut snaps = Vec::new();
    for (i, &k) in scan.tuples().iter().enumerate() {
        sketcher.observe(k).unwrap();
        if checkpoints.contains(&(i + 1)) {
            snaps.push(sketcher.self_join().unwrap());
        }
    }
    assert_eq!(snaps.len(), 3);
    let err10 = (snaps[0] - truth).abs() / truth;
    let err100 = (snaps[2] - truth).abs() / truth;
    assert!(err10 < 0.25, "10% scan error {err10}");
    assert!(err100 < 0.08, "full scan error {err100}");
}

#[test]
fn tpch_join_estimate_from_partial_scans() {
    let mut rng = StdRng::seed_from_u64(4);
    let tables = TpchGenerator::new(0.003).generate(&mut rng);
    let truth = tables.join_size();

    let schema = JoinSchema::fagms(1, 4000, &mut rng);
    let l_scan = PrefixScan::new(tables.lineitem.clone(), &mut rng);
    let o_scan = PrefixScan::new(tables.orders.clone(), &mut rng);
    let mut l = ScanSketcher::new(&schema, l_scan.len() as u64).unwrap();
    let mut o = ScanSketcher::new(&schema, o_scan.len() as u64).unwrap();
    for &k in l_scan.prefix(l_scan.len() / 5).unwrap() {
        l.observe(k).unwrap();
    }
    for &k in o_scan.prefix(o_scan.len() / 5).unwrap() {
        o.observe(k).unwrap();
    }
    let est = l.size_of_join(&o).unwrap();
    assert!(
        (est - truth).abs() / truth < 0.25,
        "20% scans: est {est} vs truth {truth}"
    );
}

#[test]
fn iid_stream_estimates_its_generative_model() {
    let mut rng = StdRng::seed_from_u64(5);
    let domain = 2_000;
    let population = 50_000u64;
    let weights = ZipfGenerator::new(domain, 1.0).expected_frequencies(population);
    let freqs = FrequencyVector::from_counts(weights.clone());
    let model = sketch_sampled_streams::datagen::DiscreteAlias::new(&weights);
    let truth = freqs.self_join();

    let schema = JoinSchema::fagms(1, 4000, &mut rng);
    let mut sketcher = IidStreamSketcher::new(&schema, population).unwrap();
    for _ in 0..(population / 10) {
        sketcher.observe(model.sample(&mut rng));
    }
    let est = sketcher.self_join().unwrap();
    assert!(
        (est - truth).abs() / truth < 0.15,
        "10% i.i.d. stream: {est} vs {truth}"
    );
}

#[test]
fn shedder_comparison_reports_consistent_estimates() {
    let mut rng = StdRng::seed_from_u64(6);
    let stream = ZipfGenerator::new(10_000, 0.8).relation(300_000, &mut rng);
    // The same stream through a sketch that sees every tuple and through
    // a 10% Bernoulli front end over the same schema.
    let schema = JoinSchema::fagms(1, 5000, &mut rng);
    let mut full = schema.sketch();
    full.update_batch(&stream);
    let mut shed = Sampled::new(schema.sketch(), 0.1, &mut rng).unwrap();
    for &k in &stream {
        shed.observe(k);
    }
    let gap =
        ((shed.self_join_estimate().value - full.raw_self_join()) / full.raw_self_join()).abs();
    assert!(gap < 0.15, "gap {gap}");
    assert!(shed.kept() < 40_000);
}

/// The paper's three regimes agree with each other on the same data: at a
/// 10% sample each scheme's estimate lands near the truth.
#[test]
fn three_regimes_agree_on_one_relation() {
    let mut rng = StdRng::seed_from_u64(7);
    let domain = 5_000;
    let rel = ZipfGenerator::new(domain, 0.7).relation(100_000, &mut rng);
    let truth = FrequencyVector::from_keys(rel.iter().copied(), domain).self_join();
    let schema = JoinSchema::fagms(1, 5000, &mut rng);

    // Bernoulli 10%.
    let mut shed = Sampled::new(schema.sketch(), 0.1, &mut rng).unwrap();
    for &k in &rel {
        shed.observe(k);
    }
    // WR 10%.
    let mut iid = IidStreamSketcher::new(&schema, rel.len() as u64).unwrap();
    for _ in 0..rel.len() / 10 {
        iid.observe(rel[rand::Rng::random_range(&mut rng, 0..rel.len())]);
    }
    // WOR 10%.
    let scan = PrefixScan::new(rel.clone(), &mut rng);
    let mut wor = ScanSketcher::new(&schema, rel.len() as u64).unwrap();
    for &k in scan.prefix(rel.len() / 10).unwrap() {
        wor.observe(k).unwrap();
    }
    for (name, est) in [
        ("bernoulli", shed.self_join_estimate().value),
        ("wr", iid.self_join().unwrap()),
        ("wor", wor.self_join().unwrap()),
    ] {
        let rel_err = (est - truth).abs() / truth;
        assert!(rel_err < 0.2, "{name}: error {rel_err}");
    }
}
