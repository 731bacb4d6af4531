//! The §I / §VII-E speed-up table: wall-clock cost of sketching a
//! Bernoulli p-sample vs the full stream, for both sketch backends.
//!
//! "The sketching of streams can thus be sped-up by a factor of 10" (at
//! p = 0.1) "and a factor of up to 1000 in some cases" (p = 0.001).
//!
//! ```text
//! cargo run --release -p sss-bench --bin speedup \
//!     [--tuples=10000000] [--domain=1000000] [--skew=1.0] [--seed=15]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_bench::{arg, banner, mtps};
use sss_core::sketch::JoinSchema;
use sss_core::Sampled;
use sss_datagen::ZipfGenerator;
use sss_moments::FrequencyVector;

fn main() {
    let tuples: usize = arg("tuples", 10_000_000);
    let domain: usize = arg("domain", 1_000_000);
    let skew: f64 = arg("skew", 1.0);
    let seed: u64 = arg("seed", 15);
    banner(
        "speedup",
        "sketch-update speed-up vs shedding probability",
        &[
            ("tuples", tuples.to_string()),
            ("domain", domain.to_string()),
            ("skew", skew.to_string()),
        ],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    eprintln!("# generating {tuples} Zipf({skew}) tuples…");
    let stream = ZipfGenerator::new(domain, skew).relation(tuples, &mut rng);
    let truth = FrequencyVector::from_keys(stream.iter().copied(), domain).self_join();

    println!("backend,p,kept,full_mtps,shed_mtps,speedup,rel_error");
    let backends: Vec<(&str, JoinSchema)> = vec![
        ("fagms-1x5000", JoinSchema::fagms(1, 5000, &mut rng)),
        ("agms-64", JoinSchema::agms(64, &mut rng)),
    ];
    for (name, schema) in backends {
        // Warm-up pass so the first measured row doesn't pay the cold
        // cache/page-fault cost of the first touch of the stream.
        let mut warm = schema.sketch();
        for &k in &stream[..stream.len().min(1_000_000)] {
            warm.update(k, 1);
        }
        for p in [1.0, 0.1, 0.01, 0.001] {
            // The same stream through a sketch that ingests every tuple
            // and through a Bernoulli(p) front end over the same schema.
            let mut full = schema.sketch();
            let full_mtps = mtps(stream.len(), || {
                for &k in &stream {
                    full.update(k, 1);
                }
            });
            let mut shed = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
            let shed_mtps = mtps(stream.len(), || {
                for &k in &stream {
                    shed.observe(k);
                }
            });
            println!(
                "{name},{p},{},{full_mtps:.2},{shed_mtps:.2},{:.1},{:.6}",
                shed.kept(),
                shed_mtps / full_mtps,
                ((shed.self_join_estimate().value - truth) / truth).abs()
            );
        }
    }
}
