//! The experiment sweeps behind the figure binaries, as testable library
//! functions.
//!
//! Each function reproduces one experimental *procedure* of the paper's
//! Section VII; the `fig*` binaries only parse flags and print CSV. Keeping
//! the logic here means the smoke tests in this module — not the binaries —
//! are what pin the procedures.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::JoinSchema;
use sss_core::{IidStreamSketcher, JoinQuery, Sampled, ScanSketcher};
use sss_datagen::{DiscreteAlias, TpchGenerator, ZipfGenerator};
use sss_moments::FrequencyVector;
use sss_sampling::without_replacement::PrefixScan;

/// Common workload parameters of the Bernoulli (Figures 3–4) sweeps.
#[derive(Debug, Clone)]
pub struct BernoulliSweep {
    /// Tuples per relation.
    pub tuples: usize,
    /// Key domain size.
    pub domain: usize,
    /// F-AGMS buckets.
    pub buckets: usize,
    /// Repetitions per cell.
    pub reps: usize,
    /// Sampling probabilities to test (1.0 = full stream).
    pub probabilities: Vec<f64>,
    /// Zipf skews to sweep.
    pub skews: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// One cell of a skew × probability error grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Zipf skew of the workload.
    pub skew: f64,
    /// Sampling probability.
    pub p: f64,
    /// Mean absolute relative error over the repetitions.
    pub error: f64,
}

/// Figure 3 procedure: size-of-join error between two independently drawn
/// Zipf relations, sketched over Bernoulli samples.
pub fn bernoulli_sj_sweep(cfg: &BernoulliSweep) -> Vec<SweepPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    for &skew in &cfg.skews {
        let gen = ZipfGenerator::new(cfg.domain, skew);
        let mut errors = vec![0.0; cfg.probabilities.len()];
        for _ in 0..cfg.reps {
            let f_stream = gen.relation(cfg.tuples, &mut rng);
            let g_stream = gen.relation(cfg.tuples, &mut rng);
            let truth = FrequencyVector::from_keys(f_stream.iter().copied(), cfg.domain).dot(
                &FrequencyVector::from_keys(g_stream.iter().copied(), cfg.domain),
            );
            let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
            for (pi, &p) in cfg.probabilities.iter().enumerate() {
                let mut fs = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                let mut gs = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                for &k in &f_stream {
                    fs.observe(k);
                }
                for &k in &g_stream {
                    gs.observe(k);
                }
                let est = fs.size_of_join_estimate(&gs).expect("shared schema").value;
                errors[pi] += ((est - truth) / truth).abs();
            }
        }
        for (pi, &p) in cfg.probabilities.iter().enumerate() {
            out.push(SweepPoint {
                skew,
                p,
                error: errors[pi] / cfg.reps as f64,
            });
        }
    }
    out
}

/// Figure 4 procedure: self-join size error of one Zipf relation, sketched
/// over Bernoulli samples.
pub fn bernoulli_sjs_sweep(cfg: &BernoulliSweep) -> Vec<SweepPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    for &skew in &cfg.skews {
        let gen = ZipfGenerator::new(cfg.domain, skew);
        let mut errors = vec![0.0; cfg.probabilities.len()];
        for _ in 0..cfg.reps {
            let stream = gen.relation(cfg.tuples, &mut rng);
            let truth = FrequencyVector::from_keys(stream.iter().copied(), cfg.domain).self_join();
            let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
            for (pi, &p) in cfg.probabilities.iter().enumerate() {
                let mut s = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                for &k in &stream {
                    s.observe(k);
                }
                errors[pi] += ((s.self_join_estimate().value - truth) / truth).abs();
            }
        }
        for (pi, &p) in cfg.probabilities.iter().enumerate() {
            out.push(SweepPoint {
                skew,
                p,
                error: errors[pi] / cfg.reps as f64,
            });
        }
    }
    out
}

/// Parameters of the with-replacement (Figures 5–6) sweeps.
#[derive(Debug, Clone)]
pub struct WrSweep {
    /// Population size each generative model represents.
    pub population: u64,
    /// Key domain size.
    pub domain: usize,
    /// F-AGMS buckets.
    pub buckets: usize,
    /// Repetitions per fraction.
    pub reps: usize,
    /// Zipf skew of the populations.
    pub skew: f64,
    /// Sample-size fractions of the population to test.
    pub fractions: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// Figure 5 procedure: size-of-join error vs WR sample fraction, two
/// i.i.d. streams from the same Zipf law.
pub fn wr_sj_sweep(cfg: &WrSweep) -> Vec<(f64, f64)> {
    let weights = ZipfGenerator::new(cfg.domain, cfg.skew).expected_frequencies(cfg.population);
    let freqs = FrequencyVector::from_counts(weights.clone());
    let truth = freqs.dot(&freqs);
    let model = DiscreteAlias::new(&weights);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    cfg.fractions
        .iter()
        .map(|&frac| {
            let m = ((frac * cfg.population as f64) as u64).max(2);
            let mut err = 0.0;
            for _ in 0..cfg.reps {
                let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
                let mut fs =
                    IidStreamSketcher::new(&schema, cfg.population).expect("population > 0");
                let mut gs =
                    IidStreamSketcher::new(&schema, cfg.population).expect("population > 0");
                for _ in 0..m {
                    fs.observe(model.sample(&mut rng));
                    gs.observe(model.sample(&mut rng));
                }
                let est = fs.size_of_join(&gs).expect("non-empty samples");
                err += ((est - truth) / truth).abs();
            }
            (frac, err / cfg.reps as f64)
        })
        .collect()
}

/// Figure 6 procedure: self-join error vs WR sample fraction.
pub fn wr_sjs_sweep(cfg: &WrSweep) -> Vec<(f64, f64)> {
    let weights = ZipfGenerator::new(cfg.domain, cfg.skew).expected_frequencies(cfg.population);
    let truth = FrequencyVector::from_counts(weights.clone()).self_join();
    let model = DiscreteAlias::new(&weights);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    cfg.fractions
        .iter()
        .map(|&frac| {
            let m = ((frac * cfg.population as f64) as u64).max(2);
            let mut err = 0.0;
            for _ in 0..cfg.reps {
                let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
                let mut s =
                    IidStreamSketcher::new(&schema, cfg.population).expect("population > 0");
                for _ in 0..m {
                    s.observe(model.sample(&mut rng));
                }
                err += ((s.self_join().expect("m >= 2") - truth) / truth).abs();
            }
            (frac, err / cfg.reps as f64)
        })
        .collect()
}

/// Parameters of the without-replacement / TPC-H (Figures 7–8) sweeps.
#[derive(Debug, Clone)]
pub struct WorSweep {
    /// Mini-dbgen scale factor.
    pub scale: f64,
    /// F-AGMS buckets.
    pub buckets: usize,
    /// Repetitions (fresh scan order + schema each).
    pub reps: usize,
    /// Scan rates to snapshot at (ascending, each in (0, 1]).
    pub rates: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// Figure 7 procedure: `lineitem ⋈ orders` error vs WOR scan rate.
pub fn wor_join_sweep(cfg: &WorSweep) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tables = TpchGenerator::new(cfg.scale).generate(&mut rng);
    let truth = tables.join_size();
    let mut sums = vec![0.0; cfg.rates.len()];
    for _ in 0..cfg.reps {
        let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
        let l_scan = PrefixScan::new(tables.lineitem.clone(), &mut rng);
        let o_scan = PrefixScan::new(tables.orders.clone(), &mut rng);
        let mut l = ScanSketcher::new(&schema, l_scan.len() as u64).expect("non-empty");
        let mut o = ScanSketcher::new(&schema, o_scan.len() as u64).expect("non-empty");
        let mut li = 0usize;
        let mut oi = 0usize;
        for (ri, &rate) in cfg.rates.iter().enumerate() {
            let lt = ((rate * l_scan.len() as f64) as usize).min(l_scan.len());
            let ot = ((rate * o_scan.len() as f64) as usize).min(o_scan.len());
            while li < lt {
                l.observe(l_scan.tuples()[li]).expect("within population");
                li += 1;
            }
            while oi < ot {
                o.observe(o_scan.tuples()[oi]).expect("within population");
                oi += 1;
            }
            let est = l.size_of_join(&o).expect("non-empty scans");
            sums[ri] += ((est - truth) / truth).abs();
        }
    }
    cfg.rates
        .iter()
        .zip(sums)
        .map(|(&r, s)| (r, s / cfg.reps as f64))
        .collect()
}

/// Figure 8 procedure: `F₂(lineitem.l_orderkey)` error vs WOR scan rate.
pub fn wor_sjs_sweep(cfg: &WorSweep) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tables = TpchGenerator::new(cfg.scale).generate(&mut rng);
    let truth = tables.lineitem_self_join();
    let mut sums = vec![0.0; cfg.rates.len()];
    for _ in 0..cfg.reps {
        let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
        let scan = PrefixScan::new(tables.lineitem.clone(), &mut rng);
        let mut s = ScanSketcher::new(&schema, scan.len() as u64).expect("non-empty");
        let mut idx = 0usize;
        for (ri, &rate) in cfg.rates.iter().enumerate() {
            let target = ((rate * scan.len() as f64) as usize).min(scan.len());
            while idx < target {
                s.observe(scan.tuples()[idx]).expect("within population");
                idx += 1;
            }
            sums[ri] += ((s.self_join().expect("enough tuples") - truth) / truth).abs();
        }
    }
    cfg.rates
        .iter()
        .zip(sums)
        .map(|(&r, s)| (r, s / cfg.reps as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_sweeps_have_the_papers_shape() {
        let cfg = BernoulliSweep {
            tuples: 60_000,
            domain: 5_000,
            buckets: 2_000,
            reps: 4,
            probabilities: vec![0.01, 0.1, 1.0],
            skews: vec![0.0, 1.0],
            seed: 1,
        };
        for points in [bernoulli_sj_sweep(&cfg), bernoulli_sjs_sweep(&cfg)] {
            assert_eq!(points.len(), 6);
            assert!(points
                .iter()
                .all(|pt| pt.error.is_finite() && pt.error >= 0.0));
            // At skew 0, a 10% sample is close to the full stream while a
            // 1% sample is clearly worse.
            let get = |skew: f64, p: f64| {
                points
                    .iter()
                    .find(|pt| pt.skew == skew && pt.p == p)
                    .expect("cell exists")
                    .error
            };
            assert!(
                get(0.0, 0.01) > get(0.0, 1.0),
                "1% should trail the full stream"
            );
            assert!(
                get(0.0, 0.1) < 3.0 * get(0.0, 1.0) + 0.05,
                "10% should be near the full stream"
            );
        }
    }

    #[test]
    fn wr_sweeps_stabilize_with_fraction() {
        let cfg = WrSweep {
            population: 50_000,
            domain: 4_000,
            buckets: 2_000,
            reps: 4,
            skew: 1.0,
            fractions: vec![0.002, 0.1, 0.5],
            seed: 2,
        };
        for series in [wr_sj_sweep(&cfg), wr_sjs_sweep(&cfg)] {
            assert_eq!(series.len(), 3);
            let (tiny, big) = (series[0].1, series[2].1);
            assert!(tiny > big, "error must shrink with the sample: {series:?}");
        }
    }

    #[test]
    fn wor_sweeps_converge_along_the_scan() {
        let cfg = WorSweep {
            scale: 0.002,
            buckets: 2_000,
            reps: 4,
            rates: vec![0.02, 0.5, 1.0],
            seed: 3,
        };
        for series in [wor_join_sweep(&cfg), wor_sjs_sweep(&cfg)] {
            assert_eq!(series.len(), 3);
            assert!(
                series[0].1 > series[2].1,
                "early-scan error must exceed full-scan error: {series:?}"
            );
        }
    }
}
