//! Bernoulli sampling: each tuple is kept independently with probability `p`.
//!
//! This is the *load shedding* scheme of the paper's Section VI-A.
//! [`GeometricSkip`] draws the *gap* until the next kept tuple from the
//! geometric distribution (Olken's interval generation, the paper's
//! reference \[18\]) — O(1) work per *kept* tuple, which is what makes the
//! speed-up of sketching a p-sample proportional to `1/p` rather than
//! bounded by a per-tuple coin's cost. Over a [`CounterRng`], gap `j` is a
//! function of `(seed, j)` alone, and a [`Door`] walks those gaps over a
//! stream arriving in slices: [`Door::keep`] is the per-tuple coin.

use crate::error::{Error, Result};
use rand::{Rng, RngCore, SeedableRng};
use sss_xi::kernels::{self, Dispatch, GAP_LANES};
use sss_xi::{splitmix64, GOLDEN_GAMMA};

/// A counter generator: output `j` is `splitmix64(seed + j·γ)` with `γ`
/// SplitMix64's own increment, so its whole state is one `u64`
/// (`seed + j·γ` for the next output `j`) and output `j` is a function of
/// `(seed, j)` alone. This is the standard SplitMix64 stream, which passes
/// BigCrush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRng {
    state: u64,
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

impl SeedableRng for CounterRng {
    fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }
}

/// Geometric-skip Bernoulli sampler: generates the positions of kept tuples
/// directly.
///
/// The gap `G` before the next kept tuple satisfies `P(G = k) = (1−p)ᵏ·p`,
/// i.e. `G = ⌊ln U / ln(1−p)⌋` for `U ~ Uniform(0,1)`. Work is proportional
/// to the number of *kept* tuples only.
///
/// ```
/// use rand::SeedableRng;
/// use sss_sampling::GeometricSkip;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut sampler: GeometricSkip = GeometricSkip::new(0.01, &mut rng).unwrap();
/// // 10 000 kept tuples span ≈ 1 000 000 stream positions.
/// let span: u64 = (0..10_000).map(|_| sampler.next_gap() + 1).sum();
/// assert!((span as f64 - 1_000_000.0).abs() < 60_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct GeometricSkip<R = rand::rngs::StdRng> {
    /// `ln(1 − p)`, cached.
    log_q: f64,
    p: f64,
    rng: R,
}

impl<R: Rng> GeometricSkip<R> {
    /// Create a skip sampler with inclusion probability `p ∈ (0, 1]`,
    /// seeding its RNG from `seed_rng`.
    ///
    /// `p = 0` is rejected: the gap would be infinite.
    pub fn new<S: Rng>(p: f64, seed_rng: &mut S) -> Result<Self>
    where
        R: SeedableRng,
    {
        Self::with_rng(p, R::from_rng(seed_rng))
    }

    /// Create from an explicit RNG. Same `p ∈ (0, 1]` contract as
    /// [`new`](Self::new).
    pub fn with_rng(p: f64, rng: R) -> Result<Self> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(Error::InvalidProbability(p));
        }
        // `ln_1p`, not `(1 − p).ln()`: below p ≈ 1.1e-16 the subtraction
        // rounds to 1, `ln` to 0, and every gap to 0 (keep everything).
        Ok(Self {
            log_q: (-p).ln_1p(),
            p,
            rng,
        })
    }

    /// The inclusion probability.
    #[inline]
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// The number of tuples to skip before the next kept tuple: one draw,
    /// `(ln(1 − U) / ln(1 − p)) as u64` for the `U` that `rand` makes of
    /// the next word ([`kernels::geometric_gap`]). `1 − U ∈ (0, 1]`, so the
    /// quotient is `≥ 0` (`−0.0` at `U = 0`), and the saturating cast is
    /// its floor, or `u64::MAX` for a quotient `≥ 2⁶⁴`.
    #[inline]
    pub fn next_gap(&mut self) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        kernels::geometric_gap(self.rng.next_u64(), self.log_q)
    }
}

/// A Bernoulli(`p`) sample in progress over a stream that arrives in
/// slices: a [`GeometricSkip`] over a [`CounterRng`] plus the gap still
/// pending before the next kept tuple. It is what a producer holds at the
/// door of a queue, so the queue carries only kept keys.
///
/// Every method walks the same gaps in the same order, one draw per kept
/// tuple, so the kept positions do not depend on how the stream is cut
/// into slices or which method offers each slice; a slice costs work per
/// *kept* key. [`keep`](Door::keep) draws one gap at a time with
/// [`GeometricSkip::next_gap`]. [`admit`](Door::admit) and
/// [`retain`](Door::retain) draw [`GAP_LANES`] at a time with
/// [`kernels::geometric_gaps`], which equals those draws bit for bit, and
/// at the end of the slice rewind the counter over the draws they did not
/// use. The state is two plain words, the counter and the pending gap
/// (plus the rate): a copy taken before a slice and put back after undoes
/// the slice.
#[derive(Debug, Clone)]
pub struct Door {
    skip: GeometricSkip<CounterRng>,
    gap: u64,
}

impl Door {
    /// The door of a fresh sample at rate `p ∈ (0, 1]` whose coins come
    /// from a [`CounterRng`] seeded `seed`.
    pub fn new(p: f64, seed: u64) -> Result<Self> {
        let mut skip = GeometricSkip::with_rng(p, CounterRng::seed_from_u64(seed))?;
        let gap = skip.next_gap();
        Ok(Self { skip, gap })
    }

    /// Offer one tuple; whether it is kept.
    #[inline]
    pub fn keep(&mut self) -> bool {
        if self.gap > 0 {
            self.gap -= 1;
            return false;
        }
        self.gap = self.skip.next_gap();
        true
    }

    /// Offer `keys` and append the kept ones to `out`, in order.
    pub fn admit(&mut self, keys: &[u64], out: &mut Vec<u64>) {
        if self.skip.probability() >= 1.0 {
            // Every gap is 0 and draws nothing: keep the slice whole.
            out.extend_from_slice(keys);
            return;
        }
        self.walk(keys.len(), |at| out.extend(at.iter().map(|&pos| keys[pos])));
    }

    /// Offer the keys in `buf` and compact it, in place, to the kept ones.
    pub fn retain(&mut self, buf: &mut Vec<u64>) {
        if self.skip.probability() >= 1.0 {
            return;
        }
        let mut kept = 0;
        self.walk(buf.len(), |at| {
            for &pos in at {
                buf[kept] = buf[pos];
                kept += 1;
            }
        });
        buf.truncate(kept);
    }

    /// Hand `keep` the kept positions of the next `n` offered tuples, a
    /// block at a time, jumping the skipped ones. Gaps come [`GAP_LANES`]
    /// per kernel call; the counter ends just past the last gap used, as if
    /// each had been drawn alone. Only for `p < 1`, whose gaps are draws.
    #[inline]
    fn walk(&mut self, n: usize, mut keep: impl FnMut(&[usize])) {
        let n = n as u64;
        if self.gap >= n {
            self.gap -= n;
            return;
        }
        let d = Dispatch::get();
        let mut state = self.skip.rng.state;
        let mut gaps = [0u64; GAP_LANES];
        let mut kept = [0usize; GAP_LANES];
        let mut pos = self.gap;
        loop {
            kernels::geometric_gaps(d, state, self.skip.log_q, &mut gaps);
            for (j, &gap) in gaps.iter().enumerate() {
                kept[j] = pos as usize;
                let rest = n - pos - 1;
                if gap >= rest {
                    keep(&kept[..=j]);
                    self.gap = gap - rest;
                    let used = j as u64 + 1;
                    self.skip.rng.state = state.wrapping_add(used.wrapping_mul(GOLDEN_GAMMA));
                    return;
                }
                pos += gap + 1;
            }
            keep(&kept);
            state = state.wrapping_add((GAP_LANES as u64).wrapping_mul(GOLDEN_GAMMA));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The positions `0..n` a door at rate `p` seeded `seed` keeps.
    fn kept_positions(p: f64, seed: u64, n: u64) -> Vec<u64> {
        let mut kept = Vec::new();
        let positions: Vec<u64> = (0..n).collect();
        Door::new(p, seed).unwrap().admit(&positions, &mut kept);
        kept
    }

    #[test]
    fn rejects_bad_probabilities() {
        let mut r = rng(0);
        assert!(Door::new(-0.1, 0).is_err());
        assert!(Door::new(1.1, 0).is_err());
        assert!(Door::new(f64::NAN, 0).is_err());
        // p = 0 is rejected: downstream 1/p corrections would be inf/NaN.
        assert!(matches!(
            Door::new(0.0, 0),
            Err(Error::InvalidProbability(p)) if p == 0.0
        ));
        assert!(GeometricSkip::<StdRng>::new(0.0, &mut r).is_err());
        assert!(GeometricSkip::<StdRng>::new(-1.0, &mut r).is_err());
        assert!(GeometricSkip::<StdRng>::new(1.5, &mut r).is_err());
    }

    #[test]
    fn degenerate_probabilities() {
        let mut door = Door::new(1.0, rng(1).next_u64()).unwrap();
        assert!((0..100).all(|_| door.keep()));
        let mut g = GeometricSkip::<StdRng>::new(1.0, &mut rng(3)).unwrap();
        assert!((0..100).all(|_| g.next_gap() == 0));
    }

    #[test]
    fn coin_sample_size_concentrates() {
        let n = 100_000u64;
        let p = 0.1;
        let mut door = Door::new(p, rng(4).next_u64()).unwrap();
        let kept = (0..n).filter(|_| door.keep()).count() as f64;
        let mean = n as f64 * p;
        let std = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (kept - mean).abs() < 5.0 * std,
            "kept = {kept}, expect ≈ {mean}"
        );
    }

    #[test]
    fn skip_sample_size_concentrates() {
        let n = 100_000u64;
        let p = 0.05;
        let kept = kept_positions(p, rng(5).next_u64(), n).len() as f64;
        let mean = n as f64 * p;
        let std = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (kept - mean).abs() < 5.0 * std,
            "kept = {kept}, expect ≈ {mean}"
        );
    }

    #[test]
    fn skip_positions_are_strictly_increasing_and_in_range() {
        let idx = kept_positions(0.03, rng(6).next_u64(), 50_000);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i < 50_000));
    }

    /// The gap distribution must be geometric: compare the empirical mean
    /// and the P(G = 0) mass against theory.
    #[test]
    fn gap_distribution_is_geometric() {
        let p: f64 = 0.2;
        let mut g = GeometricSkip::<StdRng>::new(p, &mut rng(7)).unwrap();
        let n = 200_000;
        let mut sum = 0u64;
        let mut zeros = 0u64;
        for _ in 0..n {
            let gap = g.next_gap();
            sum += gap;
            zeros += (gap == 0) as u64;
        }
        let mean = sum as f64 / n as f64;
        let expect_mean = (1.0 - p) / p; // E[G] for gaps counted before the success
        assert!(
            (mean - expect_mean).abs() < 0.05,
            "mean gap = {mean}, expect {expect_mean}"
        );
        let p0 = zeros as f64 / n as f64;
        assert!((p0 - p).abs() < 0.01, "P(G=0) = {p0}, expect {p}");
    }

    /// The skip sampler induces the per-tuple coin's inclusion law: each
    /// index is kept with probability p. Check per-index inclusion
    /// frequency through `retain`.
    #[test]
    fn skip_inclusion_is_uniform_over_positions() {
        let p = 0.3;
        let n = 50u64;
        let reps = 20_000;
        let mut incl = vec![0u32; n as usize];
        let mut r = rng(8);
        for _ in 0..reps {
            let mut kept: Vec<u64> = (0..n).collect();
            Door::new(p, r.next_u64()).unwrap().retain(&mut kept);
            for i in kept {
                incl[i as usize] += 1;
            }
        }
        for (i, &c) in incl.iter().enumerate() {
            let freq = c as f64 / reps as f64;
            assert!((freq - p).abs() < 0.02, "index {i}: inclusion {freq}");
        }
    }

    /// Below p ≈ 1.1e-16, `1 − p` rounds to 1: a `(1 − p).ln()` log_q is
    /// 0 and every gap `0`, so everything is kept. `ln_1p` keeps both the
    /// rate and the gaps right down to the smallest positive p.
    #[test]
    fn tiny_probabilities_still_skip() {
        for p in [1e-16, 1e-17, 1e-300] {
            let mut g = GeometricSkip::<CounterRng>::new(p, &mut rng(12)).unwrap();
            assert!((g.log_q / -p - 1.0).abs() < 1e-12, "p = {p}: {}", g.log_q);
            let gaps: Vec<u64> = (0..16).map(|_| g.next_gap()).collect();
            // E[gap] ≈ 1/p: sixteen draws are not short by chance.
            let long = gaps.iter().filter(|&&gap| gap > 1 << 40).count();
            assert!(long >= 15, "p = {p}: gaps {gaps:?}");
        }
    }

    /// Output `j` of the counter generator is `splitmix64(seed + j·γ)`,
    /// and a door, whose skip sampler runs over it, keeps a `p` share.
    #[test]
    fn counter_outputs_are_a_function_of_seed_and_position() {
        let mut c = CounterRng::seed_from_u64(7);
        for j in 0..5u64 {
            let at = 7u64.wrapping_add(j.wrapping_mul(GOLDEN_GAMMA));
            assert_eq!(c.next_u64(), splitmix64(at));
        }
        let p = 0.2;
        let n = 100_000u64;
        let kept = kept_positions(p, 3, n).len() as f64;
        let std = (n as f64 * p * (1.0 - p)).sqrt();
        assert!((kept - n as f64 * p).abs() < 5.0 * std, "kept = {kept}");
    }

    /// `keep`, `admit` and `retain` walk one gap sequence: however the
    /// stream is cut and whichever methods offer the slices, in every
    /// order of the three, the kept keys are those of the per-tuple loop.
    /// The cuts straddle the kernel's 16-gap blocks; the stream is long
    /// enough at every rate for gaps to carry across many slices.
    #[test]
    fn door_methods_agree_across_any_cut() {
        const CUTS: [usize; 9] = [0, 1, 7, 8, 9, 15, 16, 17, 4095];
        for p in [1.0f64, 0.5, 0.3, 0.1, 0.01, 1e-3, 1e-6] {
            let n = (40.0 / p).clamp(20_000.0, 3_000_000.0) as u64;
            let keys: Vec<u64> = (0..n).map(|i| i * 7 + 1).collect();
            let mut one = Door::new(p, 9).unwrap();
            let expect: Vec<u64> = keys.iter().copied().filter(|_| one.keep()).collect();
            for mix in 0..27 {
                let order = [mix % 3, mix / 3 % 3, mix / 9];
                let mut door = Door::new(p, 9).unwrap();
                let mut kept = Vec::new();
                let mut rest = keys.as_slice();
                for i in 0.. {
                    if rest.is_empty() {
                        break;
                    }
                    let (slice, tail) = rest.split_at(CUTS[i % 9].min(rest.len()));
                    // i / 9 shifts the order each round, so every method
                    // meets every cut length.
                    match order[(i + i / 9) % 3] {
                        0 => door.admit(slice, &mut kept),
                        1 => {
                            let mut buf = slice.to_vec();
                            door.retain(&mut buf);
                            kept.extend(buf);
                        }
                        _ => kept.extend(slice.iter().copied().filter(|_| door.keep())),
                    }
                    rest = tail;
                }
                assert_eq!(kept, expect, "p = {p}, order {order:?}");
            }
        }
    }

    /// Replays fixed words as a generator.
    struct Words(Vec<u64>);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.pop().expect("a word per draw")
        }
    }

    /// The gap as it was computed before the saturating cast replaced the
    /// explicit floor and overflow guard.
    fn floor_gap(r: u64, log_q: f64) -> u64 {
        let u = 1.0 - (r >> 11) as f64 / (1u64 << 53) as f64;
        let g = (u.ln() / log_q).floor();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// `next_gap`'s saturating cast equals the floor-and-guard form on the
    /// draws where they could differ: `U = 0` (quotient `−0.0`),
    /// `U = 1 − 2⁻⁵³` (the longest gap), quotients within `10⁻¹²` of an
    /// integer, and quotients past `2⁶⁴` (`p = 10⁻³⁰⁰`).
    #[test]
    fn next_gap_edge_draws() {
        let mut words = vec![0, u64::MAX, 1 << 11, (1 << 11) - 1];
        let mut near_integer = 0;
        for p in [0.5f64, 0.3, 0.1, 0.01, 1e-6, 1e-300] {
            let log_q = (-p).ln_1p();
            // The words whose quotients straddle each integer gap n.
            let mut cases = words.clone();
            for n in [1u32, 2, 3, 5, 10, 52, 53, 100, 1000, 1 << 20] {
                let u = (f64::from(n) * log_q).exp();
                if u < 1e-15 {
                    continue;
                }
                let k = ((1.0 - u) * (1u64 << 53) as f64).round() as u64;
                for k in k.saturating_sub(3)..=(k + 3).min((1 << 53) - 1) {
                    let r = k << 11;
                    let q = (1.0 - k as f64 / (1u64 << 53) as f64).ln() / log_q;
                    near_integer += ((q - q.round()).abs() < 1e-12) as u32;
                    cases.push(r);
                }
            }
            let mut skip = GeometricSkip::with_rng(p, Words(cases.clone())).unwrap();
            for &r in cases.iter().rev() {
                let gap = skip.next_gap();
                assert_eq!(gap, floor_gap(r, log_q), "p = {p}, r = {r:#x}");
                assert_eq!(gap, kernels::geometric_gap(r, log_q));
                if r >> 11 == 0 {
                    assert_eq!(gap, 0, "U = 0 keeps the next tuple");
                } else if p == 1e-300 {
                    assert_eq!(gap, u64::MAX, "the quotient saturates");
                }
            }
            words.push(splitmix64(p.to_bits()));
        }
        assert!(
            near_integer >= 10,
            "{near_integer} quotients near an integer"
        );
        // U = 1 − 2⁻⁵³ at p = ½: ln 2⁻⁵³ / ln ½ rounds to exactly 53.
        let mut skip = GeometricSkip::with_rng(0.5, Words(vec![u64::MAX])).unwrap();
        assert_eq!(skip.next_gap(), 53);
    }
}
