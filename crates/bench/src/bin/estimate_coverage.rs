//! Acceptance measurement for the typed `Estimate` query path: empirical
//! interval **coverage** and relative interval **width** as the sketch
//! grows, for both backends and the Bernoulli shedder.
//!
//! For each configuration the estimator is rebuilt `runs` times with
//! fresh seeds over a fixed skewed stream; a nominal 95% CLT and
//! Chebyshev interval is asked of every run and checked against the
//! exact answer. The process exits nonzero if any CLT coverage falls
//! below `level − 3σ` (σ the binomial noise of `runs` indicator draws)
//! or any Chebyshev coverage falls below its CLT counterpart — making
//! the binary a CI acceptance gate, not just a report.
//!
//! ```text
//! cargo run --release -p sss-bench --bin estimate_coverage \
//!     [--runs=200] [--level=0.95] [--seed=5]
//! ```
//!
//! Prints CSV (`backend,size,clt_coverage,chebyshev_coverage,rel_width`);
//! `rel_width` is the mean CLT half-width divided by the true value —
//! watch it shrink as the sketch widens while coverage stays nominal.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_bench::{arg, banner};
use sss_core::sketch::JoinSchema;
use sss_core::Sampled;
use sss_sketch::{AgmsSchema, Estimate, FagmsSchema, Sketch};

/// Mildly Zipfian frequencies shared by every configuration.
fn frequencies() -> Vec<u32> {
    (0..200u32).map(|k| 1 + 200 / (k + 1)).collect()
}

struct Row {
    backend: &'static str,
    size: usize,
    clt: f64,
    chebyshev: f64,
    rel_width: f64,
}

fn summarize(
    backend: &'static str,
    size: usize,
    estimates: &[Estimate],
    truth: f64,
    level: f64,
) -> Row {
    let runs = estimates.len() as f64;
    let clt = estimates
        .iter()
        .filter(|e| e.clt(level).unwrap().contains(truth))
        .count() as f64
        / runs;
    let chebyshev = estimates
        .iter()
        .filter(|e| e.chebyshev(level).unwrap().contains(truth))
        .count() as f64
        / runs;
    let rel_width = estimates
        .iter()
        .map(|e| e.clt(level).unwrap().half_width())
        .sum::<f64>()
        / runs
        / truth;
    Row {
        backend,
        size,
        clt,
        chebyshev,
        rel_width,
    }
}

fn main() {
    let runs: usize = arg("runs", 200);
    let level: f64 = arg("level", 0.95);
    let seed: u64 = arg("seed", 5);
    banner(
        "estimate_coverage",
        "typed-estimate interval coverage and width vs sketch size (acceptance gate)",
        &[
            ("runs", runs.to_string()),
            ("level", level.to_string()),
            ("seed", seed.to_string()),
        ],
    );
    let counts = frequencies();
    let truth: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    let stream: Vec<u64> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat(k as u64).take(c as usize))
        .collect();
    let floor = level - 3.0 * (level * (1.0 - level) / runs as f64).sqrt();

    let mut rows = Vec::new();
    for n in [64usize, 256, 1024] {
        let estimates: Vec<Estimate> = (0..runs)
            .map(|run| {
                let mut rng = StdRng::seed_from_u64(seed ^ (1000 + run as u64));
                let schema: AgmsSchema = AgmsSchema::new(n, &mut rng);
                let mut sk = schema.sketch();
                for (k, &c) in counts.iter().enumerate() {
                    sk.update(k as u64, c as i64);
                }
                sk.self_join_estimate()
            })
            .collect();
        rows.push(summarize("agms", n, &estimates, truth, level));
    }
    for width in [128usize, 512, 2048] {
        let estimates: Vec<Estimate> = (0..runs)
            .map(|run| {
                let mut rng = StdRng::seed_from_u64(seed ^ (2000 + run as u64));
                let schema: FagmsSchema = FagmsSchema::new(11, width, &mut rng);
                let mut sk = schema.sketch();
                for (k, &c) in counts.iter().enumerate() {
                    sk.update(k as u64, c as i64);
                }
                sk.self_join_estimate()
            })
            .collect();
        rows.push(summarize("fagms", width, &estimates, truth, level));
    }
    for n in [128usize, 512] {
        let estimates: Vec<Estimate> = (0..runs)
            .map(|run| {
                let mut rng = StdRng::seed_from_u64(seed ^ (3000 + run as u64));
                let schema = JoinSchema::agms(n, &mut rng);
                let mut shed = Sampled::new(schema.sketch(), 0.3, &mut rng).unwrap();
                shed.feed_batch(&stream);
                shed.self_join_estimate()
            })
            .collect();
        rows.push(summarize("shedder_p0.3", n, &estimates, truth, level));
    }

    println!("backend,size,clt_coverage,chebyshev_coverage,rel_width");
    let mut failed = false;
    for r in &rows {
        println!(
            "{},{},{:.3},{:.3},{:.4}",
            r.backend, r.size, r.clt, r.chebyshev, r.rel_width
        );
        if r.clt < floor {
            eprintln!(
                "FAIL {} size {}: CLT coverage {:.3} < floor {floor:.3}",
                r.backend, r.size, r.clt
            );
            failed = true;
        }
        if r.chebyshev < r.clt {
            eprintln!(
                "FAIL {} size {}: Chebyshev coverage {:.3} < CLT {:.3}",
                r.backend, r.size, r.chebyshev, r.clt
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("# all configurations at or above the {floor:.3} coverage floor");
}
