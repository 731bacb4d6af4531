//! Load shedding (paper §VI-A): how fast can the stream get before the
//! sketch falls behind, and what does shedding cost in accuracy?
//!
//! Runs the same Zipf stream through a full sketch and through Bernoulli
//! shedders at decreasing p, reporting wall-clock speed-up and estimate
//! quality side by side.
//!
//! ```text
//! cargo run --release --example load_shedding
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::Sampled;
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::moments::FrequencyVector;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(41);
    let domain = 50_000;
    let tuples = 2_000_000;
    println!("generating {tuples} Zipf(1.0) tuples over domain {domain}…");
    let stream = ZipfGenerator::new(domain, 1.0).relation(tuples, &mut rng);
    let truth = FrequencyVector::from_keys(stream.iter().copied(), domain).self_join();
    println!("true F₂ = {truth:.3e}\n");

    // AGMS with 128 counters: an expensive per-tuple update, the regime
    // where shedding pays off most visibly. Swap in `fagms(1, 5000)` to see
    // the cheap-update regime (speed-up then comes from skipping RNG work).
    let schema = JoinSchema::agms(128, &mut rng);
    let mtps = |since: Instant| tuples as f64 / since.elapsed().as_secs_f64() / 1e6;

    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "p", "kept", "full Mt/s", "shed Mt/s", "speedup", "rel.err"
    );
    for p in [1.0, 0.5, 0.1, 0.01, 0.001] {
        let mut full = schema.sketch();
        let start = Instant::now();
        for &k in &stream {
            full.update(k, 1);
        }
        let full_mtps = mtps(start);
        let mut shed = Sampled::new(schema.sketch(), p, &mut rng).unwrap();
        let start = Instant::now();
        for &k in &stream {
            shed.observe(k);
        }
        let shed_mtps = mtps(start);
        // The shedded estimate is corrected for p; compare against truth.
        let rel = (shed.self_join_estimate().value - truth).abs() / truth;
        println!(
            "{:>8} {:>10} {:>12.2} {:>12.2} {:>9.1}x {:>9.2}%",
            p,
            shed.kept(),
            full_mtps,
            shed_mtps,
            shed_mtps / full_mtps,
            100.0 * rel
        );
    }
    println!(
        "\nReading: a 10% sample (p = 0.1) keeps the estimate within a few\n\
         percent while processing an order of magnitude fewer tuples — the\n\
         paper's \"speed-up factor of at least 10\"."
    );
}
