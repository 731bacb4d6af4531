//! Online aggregation: sketching a random-order scan, whose prefixes are
//! without-replacement samples (paper Section VI-C).
//!
//! "The fraction of the relation seen at each point during the scan
//! represents a sample without replacement of the entire relation as long
//! as the order of the tuples is random. More accurate estimates for the
//! computed statistics are available as the scanning advances." The driver
//! therefore exposes a *running* estimate after every tuple; when the scan
//! completes (`α = α₁ = 1`) the corrections vanish and the estimate is the
//! plain sketch estimate of the full relation.
//!
//! Estimates apply the Section III-E / Proposition 16 corrections of
//! [`WithoutReplacement`]:
//!
//! ```text
//! size of join:  X = (1/αβ) · S·T
//! self-join:     X = (1/αα₁)·S² − ((1−α₁)/α₁)·N
//! ```

use crate::error::{Error, Result};
use crate::sketch::{JoinSchema, JoinSketch};
use sss_moments::scheme::{SamplingScheme, WithoutReplacement};

/// Sketches the prefix of a random-order scan of a relation of known size.
///
/// ```
/// use rand::SeedableRng;
/// use sss_core::sketch::JoinSchema;
/// use sss_core::ScanSketcher;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let schema = JoinSchema::fagms(1, 2000, &mut rng);
/// // A relation of 10k tuples, scanned 20% of the way (random order).
/// let mut scan = ScanSketcher::new(&schema, 10_000).unwrap();
/// for i in 0..2000u64 {
///     scan.observe(i % 100).unwrap();
/// }
/// assert_eq!(scan.progress(), 0.2);
/// // Running estimate of the FULL relation's self-join size: the true
/// // relation is 100 keys × 100 copies ⇒ F₂ = 10⁶.
/// let est = scan.self_join().unwrap();
/// assert!((est - 1e6).abs() / 1e6 < 0.25, "est = {est}");
/// ```
#[derive(Debug, Clone)]
pub struct ScanSketcher {
    sketch: JoinSketch,
    population: u64,
    scanned: u64,
}

impl ScanSketcher {
    /// Create a sketcher for a relation of `population` tuples.
    ///
    /// # Errors
    ///
    /// [`Error::Sampling`] if `population == 0`.
    pub fn new(schema: &JoinSchema, population: u64) -> Result<Self> {
        if population == 0 {
            return Err(sss_sampling::Error::EmptyPopulation.into());
        }
        Ok(Self {
            sketch: schema.sketch(),
            population,
            scanned: 0,
        })
    }

    /// Observe (and sketch) the next scanned tuple.
    ///
    /// # Errors
    ///
    /// [`Error::ScanOverrun`] if more tuples than the declared relation
    /// size are observed — a WOR sample cannot exceed its population.
    #[inline]
    pub fn observe(&mut self, key: u64) -> Result<()> {
        if self.scanned >= self.population {
            return Err(Error::ScanOverrun {
                population: self.population,
            });
        }
        self.sketch.update(key, 1);
        self.scanned += 1;
        Ok(())
    }

    /// Tuples scanned so far (`m = |F′|`).
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    /// Declared relation size `N = |F|`.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Scan progress `α = m/N ∈ [0, 1]`.
    pub fn progress(&self) -> f64 {
        self.scheme().map_or(0.0, |wor| wor.alpha())
    }

    /// The without-replacement scheme of the `m ≥ 1` tuples scanned so
    /// far.
    fn scheme(&self) -> Result<WithoutReplacement> {
        Ok(WithoutReplacement::new(self.scanned, self.population)?)
    }

    /// Whether the whole relation has been scanned (estimates are then the
    /// plain full-data sketch estimates).
    pub fn is_complete(&self) -> bool {
        self.scanned == self.population
    }

    /// The underlying sketch.
    pub fn sketch(&self) -> &JoinSketch {
        &self.sketch
    }

    /// Unbiased running estimate of the relation's self-join size.
    ///
    /// # Errors
    ///
    /// [`Error::InsufficientSample`] until two tuples have been scanned
    /// (the `α₁` correction divides by `m − 1`).
    pub fn self_join(&self) -> Result<f64> {
        if self.scanned < 2 {
            return Err(Error::InsufficientSample {
                got: self.scanned,
                need: 2,
            });
        }
        Ok(self.scheme()?.self_join(self.sketch.raw_self_join())?)
    }

    /// Running estimate of the **correlation** between the two scanned
    /// attributes — the normalized join size
    /// `Σfᵢgᵢ / √(F₂(f)·F₂(g))` — one of the statistics the paper's §VI-C
    /// names as input to an online aggregation engine's decisions.
    ///
    /// The estimate is the ratio of the unbiased component estimates — a
    /// consistent (though mildly biased) ratio estimator. Frequencies are
    /// non-negative, so the true value lies in `[0, 1]`; sketch noise can
    /// push the raw ratio outside that interval, and the result is clamped
    /// to keep reports interpretable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScanSketcher::size_of_join`] and
    /// [`ScanSketcher::self_join`] on both sides.
    pub fn correlation(&self, other: &ScanSketcher) -> Result<f64> {
        let join = self.size_of_join(other)?;
        let f2 = self.self_join()?;
        let g2 = other.self_join()?;
        if f2 <= 0.0 || g2 <= 0.0 {
            // Degenerate sketch noise; report zero correlation.
            return Ok(0.0);
        }
        Ok((join / (f2 * g2).sqrt()).clamp(0.0, 1.0))
    }

    /// Unbiased running estimate of the size of join against another scan
    /// (built on the same schema).
    ///
    /// # Errors
    ///
    /// [`Error::InsufficientSample`] if either scan is empty;
    /// [`Error::Sketch`] on schema mismatch.
    pub fn size_of_join(&self, other: &ScanSketcher) -> Result<f64> {
        if self.scanned == 0 || other.scanned == 0 {
            return Err(Error::InsufficientSample {
                got: self.scanned.min(other.scanned),
                need: 1,
            });
        }
        let raw = self.sketch.raw_size_of_join(&other.sketch)?;
        Ok(self.scheme()?.size_of_join(raw, &other.scheme()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_sampling::without_replacement::PrefixScan;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// A relation of 100 keys, key k with frequency k+1 (N = 5050).
    fn relation() -> Vec<u64> {
        (0..100u64)
            .flat_map(|k| std::iter::repeat(k).take(k as usize + 1))
            .collect()
    }

    fn truth() -> f64 {
        (1..=100u64).map(|f| (f * f) as f64).sum()
    }

    #[test]
    fn complete_scan_equals_full_sketch_estimate() {
        let mut r = rng(1);
        let schema = JoinSchema::fagms(1, 2048, &mut r);
        let rel = relation();
        let scan = PrefixScan::new(rel.clone(), &mut r);
        let mut s = ScanSketcher::new(&schema, rel.len() as u64).unwrap();
        for &k in scan.tuples() {
            s.observe(k).unwrap();
        }
        assert!(s.is_complete());
        assert_eq!(s.progress(), 1.0);
        // α = α₁ = 1: the correction vanishes exactly.
        let est = s.self_join().unwrap();
        assert!((est - s.sketch().raw_self_join()).abs() < 1e-9);
        // And one more tuple is an overrun.
        assert!(matches!(s.observe(0), Err(Error::ScanOverrun { .. })));
    }

    #[test]
    fn running_estimates_stabilize_after_ten_percent() {
        let mut r = rng(2);
        let schema = JoinSchema::fagms(1, 5000, &mut r);
        let rel = relation();
        let scan = PrefixScan::new(rel.clone(), &mut r);
        let mut s = ScanSketcher::new(&schema, rel.len() as u64).unwrap();
        let mut errors = Vec::new();
        for (i, &k) in scan.tuples().iter().enumerate() {
            s.observe(k).unwrap();
            if (i + 1) % 505 == 0 {
                errors.push((s.self_join().unwrap() - truth()).abs() / truth());
            }
        }
        // After 10% the error should already be moderate; at 100% tiny.
        assert!(errors[0] < 0.5, "10% error {}", errors[0]);
        assert!(errors[9] < 0.05, "100% error {}", errors[9]);
    }

    #[test]
    fn size_of_join_between_two_scans() {
        let mut r = rng(3);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        // F: keys 0..200 ×50; G: keys 100..300 ×40; overlap 100 keys.
        let f_rel: Vec<u64> = (0..200u64)
            .flat_map(|k| std::iter::repeat(k).take(50))
            .collect();
        let g_rel: Vec<u64> = (100..300u64)
            .flat_map(|k| std::iter::repeat(k).take(40))
            .collect();
        let f_scan = PrefixScan::new(f_rel.clone(), &mut r);
        let g_scan = PrefixScan::new(g_rel.clone(), &mut r);
        let mut fs = ScanSketcher::new(&schema, f_rel.len() as u64).unwrap();
        let mut gs = ScanSketcher::new(&schema, g_rel.len() as u64).unwrap();
        // Scan 20% of F and 30% of G.
        for &k in f_scan.prefix(f_rel.len() / 5).unwrap() {
            fs.observe(k).unwrap();
        }
        for &k in g_scan.prefix(g_rel.len() * 3 / 10).unwrap() {
            gs.observe(k).unwrap();
        }
        let truth = 100.0 * 50.0 * 40.0;
        let est = fs.size_of_join(&gs).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.3,
            "est = {est}, truth = {truth}"
        );
    }

    #[test]
    fn correlation_tracks_overlap() {
        let mut r = rng(31);
        let schema = JoinSchema::fagms(1, 4096, &mut r);
        // Identical relations ⇒ correlation 1.
        let rel: Vec<u64> = (0..500u64)
            .flat_map(|k| std::iter::repeat(k).take(10))
            .collect();
        let scan_a = PrefixScan::new(rel.clone(), &mut r);
        let scan_b = PrefixScan::new(rel.clone(), &mut r);
        let mut a = ScanSketcher::new(&schema, rel.len() as u64).unwrap();
        let mut b = ScanSketcher::new(&schema, rel.len() as u64).unwrap();
        for &k in scan_a.prefix(rel.len() / 2).unwrap() {
            a.observe(k).unwrap();
        }
        for &k in scan_b.prefix(rel.len() / 2).unwrap() {
            b.observe(k).unwrap();
        }
        let c = a.correlation(&b).unwrap();
        assert!(c > 0.8, "identical relations: correlation {c}");

        // Disjoint relations ⇒ correlation ≈ 0.
        let rel2: Vec<u64> = (1000..1500u64)
            .flat_map(|k| std::iter::repeat(k).take(10))
            .collect();
        let scan_c = PrefixScan::new(rel2.clone(), &mut r);
        let mut cship = ScanSketcher::new(&schema, rel2.len() as u64).unwrap();
        for &k in scan_c.prefix(rel2.len() / 2).unwrap() {
            cship.observe(k).unwrap();
        }
        let c0 = a.correlation(&cship).unwrap();
        assert!(c0 < 0.2, "disjoint relations: correlation {c0}");
    }

    #[test]
    fn error_paths() {
        let mut r = rng(4);
        let schema = JoinSchema::agms(8, &mut r);
        assert!(ScanSketcher::new(&schema, 0).is_err());
        let s = ScanSketcher::new(&schema, 10).unwrap();
        assert!(matches!(
            s.self_join(),
            Err(Error::InsufficientSample { .. })
        ));
        let other = ScanSketcher::new(&schema, 10).unwrap();
        assert!(matches!(
            s.size_of_join(&other),
            Err(Error::InsufficientSample { .. })
        ));
    }

    #[test]
    fn unbiasedness_of_partial_scans() {
        let mut r = rng(5);
        let rel: Vec<u64> = (0..30u64)
            .flat_map(|k| std::iter::repeat(k).take(k as usize + 1))
            .collect();
        let truth: f64 = (1..=30u64).map(|f| (f * f) as f64).sum();
        let reps = 500;
        let mut acc = 0.0;
        for _ in 0..reps {
            let schema = JoinSchema::agms(16, &mut r);
            let scan = PrefixScan::new(rel.clone(), &mut r);
            let mut s = ScanSketcher::new(&schema, rel.len() as u64).unwrap();
            for &k in scan.prefix(rel.len() / 4).unwrap() {
                s.observe(k).unwrap();
            }
            acc += s.self_join().unwrap();
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean = {mean}, truth = {truth}"
        );
    }
}
