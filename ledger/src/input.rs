//! The common input and its oracle.
//!
//! Every workload replays one block of 2^20 keys, Zipf(1.1) over a 2^20
//! domain, drawn by `sss-datagen`. The block's *frequency vector* is part
//! of the workload's definition, like its skew: it comes from a fixed
//! seed. `--seed` decides the *arrival order* (a Fisher–Yates shuffle),
//! and with it what the Bernoulli sampler keeps, what the top-k tracker
//! admits, how KLL compacts, and every intermediate F2. A linear sketch
//! of a whole number of replays does not depend on the order, so the
//! accuracy column of the p = 1 workloads is exact for every seed; a
//! fresh draw of the frequencies per seed moved it by 9% between seeds.
//!
//! The stream a run feeds is the block repeated, always cut at multiples
//! of [`GRAIN`] keys, so the exact second frequency moment after *any*
//! number of tuples is a closed form over two prefix tables — every served
//! `self_join` answer of a run is checked, not only the last one. The
//! final multiset goes through `sss-exact` for F0, top-k and the median.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sss_datagen::ZipfGenerator;
use sss_exact::ExactAggregator;
use std::time::Instant;

/// Keys in the replayed block, and the size of the key domain.
pub const BLOCK: usize = 1 << 20;
/// Zipf skew of the block.
pub const SKEW: f64 = 1.1;
/// Seed of the block's frequency vector (workload definition, not input).
const FREQUENCY_SEED: u64 = 1;
/// Every batch length used by the harness is a multiple of this and
/// divides [`BLOCK`], so no batch wraps around the block's end.
pub const GRAIN: usize = 512;

/// The key block plus what the oracle needs to price any prefix of its
/// cyclic replay.
pub struct Input {
    pub keys: Vec<u64>,
    /// Wall time of making the block (alias table, 2^20 draws, shuffle).
    pub gen_s: f64,
    /// Exact frequencies of one block, and their second moment.
    block: ExactAggregator,
    block_f2: f64,
    /// `cross[i] = Σ_k c_k · pre_k(i·GRAIN)`: block frequency times
    /// prefix frequency, at every grain boundary.
    cross: Vec<f64>,
    /// `own[i] = F2` of the first `i·GRAIN` keys of the block.
    own: Vec<f64>,
}

impl Input {
    pub fn generate(seed: u64) -> Self {
        let started = Instant::now();
        let mut keys = ZipfGenerator::new(BLOCK, SKEW)
            .relation(BLOCK, &mut StdRng::seed_from_u64(FREQUENCY_SEED));
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        let gen_s = started.elapsed().as_secs_f64();

        let mut dense = vec![0u32; BLOCK];
        for &k in &keys {
            dense[k as usize] += 1;
        }
        let mut pre = vec![0u32; BLOCK];
        let (mut cross_now, mut own_now) = (0f64, 0f64);
        let mut cross = Vec::with_capacity(BLOCK / GRAIN + 1);
        let mut own = Vec::with_capacity(BLOCK / GRAIN + 1);
        for (i, &k) in keys.iter().enumerate() {
            if i % GRAIN == 0 {
                cross.push(cross_now);
                own.push(own_now);
            }
            let k = k as usize;
            cross_now += f64::from(dense[k]);
            own_now += f64::from(2 * pre[k] + 1);
            pre[k] += 1;
        }
        cross.push(cross_now);
        own.push(own_now);
        let block = ExactAggregator::from_keys(keys.iter().copied());
        Self {
            keys,
            gen_s,
            block_f2: block.self_join(),
            block,
            cross,
            own,
        }
    }

    /// The batch of `len` keys that starts `sent` tuples into the stream.
    pub fn batch(&self, sent: u64, len: usize) -> &[u64] {
        debug_assert!(len.is_multiple_of(GRAIN) && sent.is_multiple_of(GRAIN as u64));
        let at = (sent % BLOCK as u64) as usize;
        &self.keys[at..at + len]
    }

    /// Exact F2 of the first `sent` tuples of the stream: with `r` whole
    /// replays and a prefix `j`, `(r·c + pre)² = r²·F2 + 2r·cross + own`.
    pub fn exact_f2(&self, sent: u64) -> f64 {
        debug_assert!(sent.is_multiple_of(GRAIN as u64));
        let r = (sent / BLOCK as u64) as f64;
        let j = (sent % BLOCK as u64) as usize / GRAIN;
        r * r * self.block_f2 + 2.0 * r * self.cross[j] + self.own[j]
    }

    /// The exact multiset of the first `sent` tuples, through `sss-exact`.
    pub fn exact_after(&self, sent: u64) -> ExactAggregator {
        let replays = (sent / BLOCK as u64) as i64;
        let mut agg = ExactAggregator::new();
        for (key, count) in self.block.iter() {
            agg.update(key, count * replays);
        }
        for &k in &self.keys[..(sent % BLOCK as u64) as usize] {
            agg.update(k, 1);
        }
        agg
    }
}

/// Distance from rank 0.5 to the rank interval `value` occupies in the
/// exact multiset (0 when the true median is `value`).
pub fn median_rank_error(exact: &ExactAggregator, value: f64) -> f64 {
    let total = exact.total() as f64;
    let (mut below, mut at) = (0i64, 0i64);
    for (key, count) in exact.iter() {
        if (key as f64) < value {
            below += count;
        } else if key as f64 == value {
            at += count;
        }
    }
    let lo = below as f64 / total;
    let hi = (below + at) as f64 / total;
    if 0.5 < lo {
        lo - 0.5
    } else if 0.5 > hi {
        0.5 - hi
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_f2_matches_sss_exact_at_any_grain_boundary() {
        let input = Input::generate(7);
        for sent in [
            0u64,
            GRAIN as u64,
            BLOCK as u64,
            3 * BLOCK as u64 + 5 * GRAIN as u64,
            2 * BLOCK as u64 + (BLOCK - GRAIN) as u64,
        ] {
            let want = input.exact_after(sent).self_join();
            assert_eq!(input.exact_f2(sent), want, "sent {sent}");
        }
        assert_eq!(input.batch(BLOCK as u64 + 512, 512), &input.keys[512..1024]);
    }

    #[test]
    fn the_seed_decides_the_order_not_the_frequencies() {
        let (a, b) = (Input::generate(3), Input::generate(4));
        assert_eq!(a.keys, Input::generate(3).keys);
        assert_ne!(a.keys, b.keys);
        assert_eq!(a.block, b.block);
        assert_eq!(a.exact_f2(5 * BLOCK as u64), b.exact_f2(5 * BLOCK as u64));
        assert_ne!(a.exact_f2(GRAIN as u64), b.exact_f2(GRAIN as u64));
    }

    #[test]
    fn rank_error_of_a_value() {
        // 0,0,0,1,2,2,3,3,3,3: rank interval of 2 is [0.4, 0.6].
        let e = ExactAggregator::from_keys([0, 0, 0, 1, 2, 2, 3, 3, 3, 3]);
        assert_eq!(median_rank_error(&e, 2.0), 0.0);
        assert!((median_rank_error(&e, 0.0) - 0.2).abs() < 1e-12);
        assert!((median_rank_error(&e, 3.0) - 0.1).abs() < 1e-12);
    }
}
