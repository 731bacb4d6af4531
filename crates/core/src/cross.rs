//! Cross-regime size-of-join: any sampled stream against any other.
//!
//! The generic analysis (Proposition 1/9) never required the two relations
//! to use the *same* sampling scheme — only that their samples be
//! independent and that each scheme scale its frequencies linearly
//! (`E[f′ᵢ] = rate·fᵢ`). So a Bernoulli-shedded live stream can be joined
//! against a without-replacement table scan, an i.i.d. model stream
//! against a shedded feed, and so on, with the scaling factor simply the
//! product of the two inverse rates:
//!
//! ```text
//! X = (1 / (rate_F · rate_G)) · S·T
//! ```
//!
//! This is the API for the realistic mixed deployments the paper's three
//! application sections describe separately: the DSMS ingests `F` under
//! load shedding while the online aggregation engine scans the stored
//! relation `G`.

use crate::error::{Error, Result};
use crate::sketch::JoinSketch;
use crate::{CoordinatedShedder, IidStreamSketcher, Sampled, ScanSketcher};

/// A driver exposing its raw sketch and its effective sampling rate
/// (`E[f′ᵢ]/fᵢ`).
pub trait RatedSketch {
    /// The raw (unscaled) sketch of the sampled tuples.
    fn raw_sketch(&self) -> &JoinSketch;

    /// The linear frequency scaling of the sampling process — `p` for
    /// Bernoulli, `α = m/N` for the fixed-size schemes.
    fn rate(&self) -> f64;
}

impl RatedSketch for Sampled<JoinSketch> {
    fn raw_sketch(&self) -> &JoinSketch {
        self.summary()
    }
    fn rate(&self) -> f64 {
        self.probability()
    }
}

impl RatedSketch for CoordinatedShedder {
    fn raw_sketch(&self) -> &JoinSketch {
        self.sketch()
    }
    fn rate(&self) -> f64 {
        self.probability()
    }
}

impl RatedSketch for IidStreamSketcher {
    fn raw_sketch(&self) -> &JoinSketch {
        self.sketch()
    }
    fn rate(&self) -> f64 {
        self.alpha()
    }
}

impl RatedSketch for ScanSketcher {
    fn raw_sketch(&self) -> &JoinSketch {
        self.sketch()
    }
    fn rate(&self) -> f64 {
        self.progress()
    }
}

/// Unbiased size-of-join estimate between two sampled streams of possibly
/// different sampling regimes.
///
/// # Errors
///
/// [`Error::InsufficientSample`] when either side has rate 0 (nothing
/// observed yet); [`Error::Sketch`] on schema mismatch.
pub fn size_of_join<A: RatedSketch + ?Sized, B: RatedSketch + ?Sized>(a: &A, b: &B) -> Result<f64> {
    let (ra, rb) = (a.rate(), b.rate());
    if ra <= 0.0 || rb <= 0.0 {
        return Err(Error::InsufficientSample { got: 0, need: 1 });
    }
    let raw = a.raw_sketch().raw_size_of_join(b.raw_sketch())?;
    Ok(raw / (ra * rb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::JoinSchema;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sss_sampling::without_replacement::PrefixScan;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Bernoulli-shedded live stream joined against a WOR table scan: the
    /// flagship mixed deployment.
    #[test]
    fn shedded_stream_joins_scanned_table() {
        let mut r = rng(1);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        // Live stream F: keys 0..800 ×50, shedded at p = 0.2.
        let mut live = Sampled::new(schema.sketch(), 0.2, &mut r).unwrap();
        for _ in 0..50 {
            for k in 0..800u64 {
                live.observe(k);
            }
        }
        // Stored table G: keys 400..1200 ×30, scanned 25% of the way.
        let table: Vec<u64> = (400..1200u64)
            .flat_map(|k| std::iter::repeat(k).take(30))
            .collect();
        let scan_order = PrefixScan::new(table.clone(), &mut r);
        let mut scan = ScanSketcher::new(&schema, table.len() as u64).unwrap();
        for &k in scan_order.prefix(table.len() / 4).unwrap() {
            scan.observe(k).unwrap();
        }
        let truth = 400.0 * 50.0 * 30.0; // overlap keys 400..800
        let est = size_of_join(&live, &scan).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.25,
            "est = {est}, truth = {truth}"
        );
    }

    /// All regime pairings produce estimates near truth on one dataset.
    #[test]
    fn every_pairing_is_consistent() {
        let mut r = rng(2);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        let keys: Vec<u64> = (0..500u64)
            .flat_map(|k| std::iter::repeat(k).take(40))
            .collect();
        let truth = 500.0 * 40.0 * 40.0;

        // Bernoulli at 0.5.
        let mut bern = Sampled::new(schema.sketch(), 0.5, &mut r).unwrap();
        for &k in &keys {
            bern.observe(k);
        }
        // Coordinated at 0.4.
        let mut coord = CoordinatedShedder::new(&schema, 0.4, &mut r).unwrap();
        for (id, &k) in keys.iter().enumerate() {
            coord.observe(id as u64, k, 1);
        }
        // WR stream: 30% of the population size in i.i.d. draws.
        let mut iid = IidStreamSketcher::new(&schema, keys.len() as u64).unwrap();
        for _ in 0..keys.len() * 3 / 10 {
            iid.observe(keys[r.random_range(0..keys.len())]);
        }
        // WOR scan of 60%.
        let order = PrefixScan::new(keys.clone(), &mut r);
        let mut scan = ScanSketcher::new(&schema, keys.len() as u64).unwrap();
        for &k in order.prefix(keys.len() * 6 / 10).unwrap() {
            scan.observe(k).unwrap();
        }

        let pairs: Vec<(&str, f64)> = vec![
            ("bern×coord", size_of_join(&bern, &coord).unwrap()),
            ("bern×iid", size_of_join(&bern, &iid).unwrap()),
            ("bern×scan", size_of_join(&bern, &scan).unwrap()),
            ("coord×iid", size_of_join(&coord, &iid).unwrap()),
            ("coord×scan", size_of_join(&coord, &scan).unwrap()),
            ("iid×scan", size_of_join(&iid, &scan).unwrap()),
        ];
        for (name, est) in pairs {
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.3, "{name}: est {est} vs truth {truth} ({rel})");
        }
    }

    #[test]
    fn empty_sides_are_rejected() {
        let mut r = rng(3);
        let schema = JoinSchema::agms(4, &mut r);
        let bern = Sampled::new(schema.sketch(), 0.5, &mut r).unwrap();
        let scan = ScanSketcher::new(&schema, 100).unwrap(); // nothing scanned
        assert!(matches!(
            size_of_join(&bern, &scan),
            Err(Error::InsufficientSample { .. })
        ));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut r = rng(4);
        let s1 = JoinSchema::agms(4, &mut r);
        let s2 = JoinSchema::agms(4, &mut r);
        let mut a = Sampled::new(s1.sketch(), 1.0, &mut r).unwrap();
        let mut b = Sampled::new(s2.sketch(), 1.0, &mut r).unwrap();
        a.observe(1);
        b.observe(1);
        assert!(size_of_join(&a, &b).is_err());
    }

    /// Monte-Carlo unbiasedness of the mixed Bernoulli × WOR estimator,
    /// also validating the mixed-scheme path of the analysis engine.
    #[test]
    fn mixed_regime_unbiasedness_matches_engine() {
        use sss_moments::engine;
        use sss_moments::scheme::{Bernoulli, WithoutReplacement};
        use sss_moments::FrequencyVector;

        let f = FrequencyVector::from_counts(vec![6u32, 3, 8, 1, 5, 2]);
        let g = FrequencyVector::from_counts(vec![2u32, 7, 1, 4, 3, 6]);
        let truth = f.dot(&g);
        let p = 0.4;
        let m_g = 12u64;
        let scheme_f = Bernoulli::new(p).unwrap();
        let scheme_g = WithoutReplacement::new(m_g, g.total() as u64).unwrap();
        let n_avg = 16;
        let theory = engine::sketch_sample_sj(&scheme_f, &f, &scheme_g, &g, n_avg).unwrap();
        assert!(
            (theory.mean - truth).abs() < 1e-9,
            "engine mixed-scheme mean"
        );

        // Simulate with real drivers.
        let g_tuples: Vec<u64> = (0..6u64)
            .flat_map(|k| std::iter::repeat(k).take(g.get(k as usize) as usize))
            .collect();
        let reps = 3000;
        let mut r = rng(5);
        let mut acc = 0.0;
        let mut acc_sq = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(n_avg, &mut r);
            let mut bern = Sampled::new(schema.sketch(), p, &mut r).unwrap();
            for k in 0..6u64 {
                for _ in 0..f.get(k as usize) as u64 {
                    bern.observe(k);
                }
            }
            let order = PrefixScan::new(g_tuples.clone(), &mut r);
            let mut scan = ScanSketcher::new(&schema, g_tuples.len() as u64).unwrap();
            for &k in order.prefix(m_g as usize).unwrap() {
                scan.observe(k).unwrap();
            }
            let est = size_of_join(&bern, &scan).unwrap();
            acc += est;
            acc_sq += est * est;
        }
        let mean = acc / reps as f64;
        let var = acc_sq / reps as f64 - mean * mean;
        assert!(
            (mean - truth).abs() <= 6.0 * (theory.variance / reps as f64).sqrt(),
            "mixed mean {mean} vs truth {truth}"
        );
        assert!(
            (var - theory.variance).abs() <= 0.25 * theory.variance,
            "mixed var {var} vs engine {}",
            theory.variance
        );
    }
}
