//! Quickstart: estimate a self-join size and a join size from a 10% sample
//! of a stream, and compare against sketching everything.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::analysis;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::Sampled;
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::moments::{bounds, FrequencyVector};

fn main() {
    let mut rng = StdRng::seed_from_u64(2009);

    // A moderately skewed stream: 1M tuples over a domain of 100k values.
    let domain = 100_000;
    let tuples = 1_000_000;
    let gen = ZipfGenerator::new(domain, 0.8);
    let stream = gen.relation(tuples, &mut rng);

    // Ground truth, for the comparison table.
    let freqs = FrequencyVector::from_keys(stream.iter().copied(), domain);
    let truth = freqs.self_join();
    println!("stream: {tuples} tuples, domain {domain}, Zipf 0.8");
    println!("true self-join size F₂ = {truth:.0}\n");

    // The paper's sketch: F-AGMS with 5000 buckets.
    let schema = JoinSchema::fagms(1, 5000, &mut rng);

    // Sketch the full stream (p = 1) and a 10% Bernoulli sample (p = 0.1).
    println!(
        "{:>6} {:>14} {:>10} {:>10}",
        "p", "estimate", "rel.err", "sketched"
    );
    for p in [1.0, 0.5, 0.1, 0.01] {
        let mut sketcher = Sampled::new(schema.sketch(), p, &mut rng).unwrap();
        for &k in &stream {
            sketcher.observe(k);
        }
        let est = sketcher.self_join_estimate().value;
        println!(
            "{:>6} {:>14.0} {:>9.2}% {:>10}",
            p,
            est,
            100.0 * (est - truth).abs() / truth,
            sketcher.kept()
        );
    }

    // The analysis engine predicts the error before you ever run the
    // stream — the load-shedding planning question of the paper.
    println!("\nanalytical 95% confidence intervals (CLT):");
    for p in [1.0, 0.1, 0.01] {
        let m = analysis::shedding_self_join(&freqs, p, &schema).unwrap();
        let ci = bounds::normal(truth, &m, 0.95);
        println!(
            "  p = {:>5}: F₂ ± {:>12.0}  ({:.2}% relative)",
            p,
            ci.half_width(),
            100.0 * ci.half_width() / truth
        );
    }
    let max_shed = analysis::max_shedding_rate(&freqs, &schema, 0.05);
    println!(
        "\nmost aggressive shedding for ≤5% std error: p = {}",
        max_shed.map_or("unachievable".into(), |p| format!("{p}")),
    );
}
