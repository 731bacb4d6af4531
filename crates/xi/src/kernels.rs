//! Vectorized batch kernels with runtime CPU dispatch.
//!
//! Every hot per-tuple operation in this workspace — Carter–Wegman sign
//! evaluation, the fused sign+bucket row scatter, and the Bernoulli
//! sampler's geometric gaps — is a pure function of `(seed, key)` or
//! `(seed, draw index)`, which makes the batch versions embarrassingly
//! data-parallel; the F-AGMS read's row sum of squares ([`square_sum`])
//! is an exact integer sum. This module centralizes those
//! batch loops in one place and provides two implementations per kernel:
//!
//! * a **chunked** path: fixed-width-8 array inner loops that LLVM can
//!   autovectorize (and that provide instruction-level parallelism even
//!   where it cannot), compiled for every target; and
//! * an **AVX2** path, compiled on every x86-64 build: explicit
//!   `std::arch` intrinsics in the single audited `avx2` submodule,
//!   selected *at runtime* via `is_x86_feature_detected!` (AVX2 and FMA)
//!   so the same binary still runs correctly on x86-64 parts without them.
//!
//! The selection is memoized in a [`Dispatch`] value; callers grab it once
//! per batch (an atomic load) and thread it through the kernels.
//!
//! # Bit-identity contract
//!
//! Every path — chunked and AVX2 alike — must produce results that are
//! **bit-identical** to the scalar per-key reference (`poly_eval` low-bit
//! signs and `poly_eval % width` buckets). Sketch state is compared
//! byte-for-byte across machines and across resumed test runs, so a kernel
//! that is merely "statistically equivalent" would silently break every
//! golden test the moment dispatch picks a different path. The AVX2 code
//! achieves this by performing literally the same reduction sequence as
//! the scalar field arithmetic (two lazy folds per product, one canonical
//! fold at the end), not a rearranged one. The gap kernel cannot repeat the
//! platform `ln`, so it proves instead which lanes its own logarithm
//! decides exactly and recomputes the rest with the reference (see
//! [`geometric_gaps`]). The square sum is exact on every path, or `None`.

use crate::prime::{horner_lanes_reduced, poly_eval, FixedMod, P61};
use crate::{splitmix64, GOLDEN_GAMMA};

/// Number of keys processed per inner-loop iteration by the chunked kernels.
///
/// Eight independent Horner chains fill the multiplier pipeline about as
/// well as the register file allows on x86-64 and aarch64, and eight u64
/// lanes are exactly two 256-bit vectors for the AVX2 path, so both paths
/// share one chunking granularity (and therefore one tail-handling story).
pub const CHUNK: usize = 8;

/// Which kernel implementation a [`Dispatch`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Safe fixed-width-8 loops; always available.
    Chunked,
    /// Explicit AVX2 intrinsics; only constructed after runtime detection.
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Avx2Token),
}

/// Memoized runtime CPU-feature dispatch for the batch kernels.
///
/// [`Dispatch::get`] probes the CPU once per process (the result is cached
/// in a `OnceLock`) and returns the fastest available path;
/// [`Dispatch::chunked`] forces the portable path, which benchmarks and
/// bit-identity tests use as the comparison baseline. `Dispatch` is `Copy`
/// and two machine words, so threading it through kernel calls is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    path: Path,
}

impl Dispatch {
    /// The fastest path supported by the running CPU (memoized).
    pub fn get() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static DETECTED: OnceLock<Dispatch> = OnceLock::new();
            *DETECTED.get_or_init(|| match avx2::Avx2Token::probe() {
                Some(token) => Dispatch {
                    path: Path::Avx2(token),
                },
                None => Dispatch::chunked(),
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::chunked()
    }

    /// The portable chunked path, regardless of CPU support.
    pub const fn chunked() -> Self {
        Dispatch {
            path: Path::Chunked,
        }
    }

    /// `true` when this dispatch resolved to an explicit SIMD path.
    pub fn is_accelerated(self) -> bool {
        self.path != Path::Chunked
    }

    /// Human-readable path name for benchmark and log output.
    pub fn label(self) -> &'static str {
        match self.path {
            Path::Chunked => "chunked",
            #[cfg(target_arch = "x86_64")]
            Path::Avx2(_) => "avx2",
        }
    }
}

/// Reduce up to 8 coefficients onto the stack; `None` means the degree
/// exceeds the kernels' coefficient budget and the caller should take its
/// scalar path. No polynomial family in this workspace goes past degree 3,
/// so the fallback exists for API robustness, not performance.
#[inline]
pub(crate) fn reduced_coeffs(coeffs: &[u64], buf: &mut [u64; 8]) -> Option<usize> {
    if coeffs.len() > buf.len() {
        return None;
    }
    for (r, &c) in buf.iter_mut().zip(coeffs) {
        *r = c % P61;
    }
    Some(coeffs.len())
}

/// Evaluate one polynomial (reduced coefficients) at 8 keys, canonical
/// results, on whichever path `d` resolved to.
#[inline]
fn hash8(d: Dispatch, coeffs: &[u64], keys: &[u64; CHUNK]) -> [u64; CHUNK] {
    match d.path {
        Path::Chunked => {
            let xs = keys.map(|k| k % P61);
            horner_lanes_reduced(coeffs, &xs)
        }
        #[cfg(target_arch = "x86_64")]
        Path::Avx2(token) => avx2::horner8(token, coeffs, keys),
    }
}

// ---------------------------------------------------------------------------
// Carter–Wegman polynomial kernels
// ---------------------------------------------------------------------------

/// `Σᵢ sign(keys[i])` for a polynomial ±1 family: the net increment a
/// single AGMS counter receives from a batch of unit-count tuples. The sum
/// folds into the evaluation loop, so no per-key sign ever touches memory.
pub fn sign_sum(d: Dispatch, coeffs: &[u64], keys: &[u64]) -> i64 {
    let mut buf = [0u64; 8];
    let Some(n) = reduced_coeffs(coeffs, &mut buf) else {
        let odd: u64 = keys.iter().map(|&k| poly_eval(coeffs, k) & 1).sum();
        return keys.len() as i64 - 2 * odd as i64;
    };
    let c = &buf[..n];
    let mut odd = 0u64;
    let mut chunks = keys.chunks_exact(CHUNK);
    for kc in chunks.by_ref() {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let h = hash8(d, c, ks);
        for v in h {
            odd += v & 1;
        }
    }
    for &k in chunks.remainder() {
        odd += poly_eval(c, k) & 1;
    }
    // Each odd hash contributes −1, each even one +1.
    keys.len() as i64 - 2 * odd as i64
}

/// Forced-portable [`sign_sum`]: the baseline that benchmarks and identity
/// tests compare the dispatched paths against.
pub fn sign_sum_chunked(coeffs: &[u64], keys: &[u64]) -> i64 {
    sign_sum(Dispatch::chunked(), coeffs, keys)
}

/// `Σᵢ countᵢ·sign(keyᵢ)`: the weighted twin of [`sign_sum`].
pub fn sign_dot(d: Dispatch, coeffs: &[u64], items: &[(u64, i64)]) -> i64 {
    let mut buf = [0u64; 8];
    let Some(n) = reduced_coeffs(coeffs, &mut buf) else {
        return items
            .iter()
            .map(|&(k, c)| (1 - 2 * ((poly_eval(coeffs, k) & 1) as i64)) * c)
            .sum();
    };
    let c = &buf[..n];
    let mut dot = 0i64;
    let mut chunks = items.chunks_exact(CHUNK);
    for ic in chunks.by_ref() {
        let ks: [u64; CHUNK] = std::array::from_fn(|l| ic[l].0);
        let h = hash8(d, c, &ks);
        for l in 0..CHUNK {
            dot += (1 - 2 * ((h[l] & 1) as i64)) * ic[l].1;
        }
    }
    for &(k, count) in chunks.remainder() {
        dot += (1 - 2 * ((poly_eval(c, k) & 1) as i64)) * count;
    }
    dot
}

/// Forced-portable [`sign_dot`].
pub fn sign_dot_chunked(coeffs: &[u64], items: &[(u64, i64)]) -> i64 {
    sign_dot(Dispatch::chunked(), coeffs, items)
}

// ---------------------------------------------------------------------------
// Fused sign+bucket row scatter kernels
// ---------------------------------------------------------------------------

/// Fused F-AGMS row kernel: for every key, add `sign(key)` (the low bit of
/// the `sign_coeffs` polynomial) into `counters[hash(key) % width]` (the
/// `bucket_coeffs` polynomial): the pass [`hash_rows`] runs, over one row,
/// scattering as it hashes, with no sign or bucket buffer.
///
/// Bit-identical to the per-key `counters[bucket(k, width)] += sign(k)`
/// loop: hashes are canonical, `FixedMod` is an exact remainder, and
/// integer counter increments commute. The sketches write through
/// [`signed_scatter_counts`], which also reports each row's change to its
/// `Σ c²`; this one-row form is the kernel the ledger's
/// `xi.signed_scatter` row times.
///
/// # Panics
///
/// Panics if `width == 0` or `counters.len() < width`.
pub fn signed_scatter(
    d: Dispatch,
    sign_coeffs: &[u64],
    bucket_coeffs: &[u64],
    width: usize,
    keys: &[u64],
    counters: &mut [i64],
) {
    assert!(width > 0, "bucket width must be non-zero");
    assert!(counters.len() >= width, "counter row narrower than width");
    let group = RowGroup::new(&[(sign_coeffs, bucket_coeffs)]);
    let wm = FixedMod::new(width as u64);
    let groups = std::slice::from_ref(&group);
    for_each_hash(
        d,
        groups,
        wm,
        keys.len(),
        |i| keys[i],
        |_, _, sign, bucket| {
            counters[bucket] += sign;
        },
    );
}

/// One F-AGMS row's two polynomials over GF(2⁶¹−1): its sign family's
/// coefficients and its bucket family's, lowest degree first.
pub type RowPolys<'a> = (&'a [u64], &'a [u64]);

/// Rows one pass over the keys hashes; a deeper sketch takes one pass per
/// group of this many rows.
const ROW_GROUP: usize = 8;

/// At most [`ROW_GROUP`] rows' polynomials, the way the pass evaluates
/// them: reduced into fixed arrays, or, when one of them exceeds the
/// kernels' coefficient budget, kept whole in `long` and evaluated key by
/// key.
#[derive(Debug, Clone)]
struct RowGroup {
    reduced: Reduced,
    long: Option<Vec<(Vec<u64>, Vec<u64>)>>,
}

/// A [`RowGroup`]'s polynomials reduced: `coeffs[2r]` is row `r`'s sign
/// polynomial, `coeffs[2r + 1]` its bucket polynomial.
#[derive(Debug, Clone)]
struct Reduced {
    coeffs: [[u64; 8]; 2 * ROW_GROUP],
    lens: [usize; 2 * ROW_GROUP],
    rows: usize,
}

impl RowGroup {
    fn new(rows: &[RowPolys<'_>]) -> Self {
        let mut group = Reduced {
            coeffs: [[0; 8]; 2 * ROW_GROUP],
            lens: [0; 2 * ROW_GROUP],
            rows: rows.len(),
        };
        let mut reduce = || {
            for (r, &(sign, bucket)) in rows.iter().enumerate() {
                group.lens[2 * r] = reduced_coeffs(sign, &mut group.coeffs[2 * r])?;
                group.lens[2 * r + 1] = reduced_coeffs(bucket, &mut group.coeffs[2 * r + 1])?;
            }
            Some(())
        };
        let long = reduce().is_none().then(|| {
            let rows = rows.iter();
            rows.map(|&(s, b)| (s.to_vec(), b.to_vec())).collect()
        });
        Self {
            reduced: group,
            long,
        }
    }
}

impl Reduced {
    fn sign(&self, r: usize) -> &[u64] {
        &self.coeffs[2 * r][..self.lens[2 * r]]
    }

    fn bucket(&self, r: usize) -> &[u64] {
        &self.coeffs[2 * r + 1][..self.lens[2 * r + 1]]
    }
}

/// Every row's polynomials of an F-AGMS schema and its width, prepared
/// once for the all-rows pass ([`hash_rows`], [`signed_scatter_counts`]):
/// the coefficients reduced into row groups and the width's remainder
/// constants ([`FixedMod`]), which a call would otherwise recompute for a
/// batch of any size.
#[derive(Debug, Clone)]
pub struct RowHashes {
    groups: Vec<RowGroup>,
    depth: usize,
    width: usize,
    wm: FixedMod,
}

impl RowHashes {
    /// Prepare `rows` over `width` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(rows: &[RowPolys<'_>], width: usize) -> Self {
        assert!(width > 0, "bucket width must be non-zero");
        Self {
            groups: rows.chunks(ROW_GROUP).map(RowGroup::new).collect(),
            depth: rows.len(),
            width,
            wm: FixedMod::new(width as u64),
        }
    }

    /// Rows prepared.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Every row's sign and bucket of every key: `out[i·depth + r]` is
/// `(sign, bucket)` of `keys[i]` at row `r`, where `sign` is the low bit
/// of the row's sign polynomial at the key as ±1 and `bucket` its bucket
/// polynomial modulo the width. The F-AGMS point queries read through
/// this; the writes ([`signed_scatter`] over one row,
/// [`signed_scatter_counts`] over all) run the same pass and scatter as
/// they hash.
///
/// On either path a key is reduced once for all rows, and on the AVX2 path
/// the whole pass runs inside one `target_feature` function, every row's
/// Horner chains for eight keys issued before they are used. The last
/// `n mod 8` keys run as one more group of eight, padded, whose padding
/// lanes are never visited. Bit-identical to `poly_eval` per key and row
/// on every path.
///
/// # Panics
///
/// Panics if `out.len() != keys.len() × rows.depth()`.
pub fn hash_rows(d: Dispatch, rows: &RowHashes, keys: &[u64], out: &mut [(i64, usize)]) {
    let depth = rows.depth;
    assert_eq!(out.len(), keys.len() * depth, "one output per key and row");
    let key = |i: usize| keys[i];
    for_each_hash(
        d,
        &rows.groups,
        rows.wm,
        keys.len(),
        key,
        |i, r, sign, bucket| {
            out[i * depth + r] = (sign, bucket);
        },
    );
}

/// [`hash_rows`] handing each `(i, r, sign, bucket)` to `visit` instead,
/// in no promised order, for the key index `i < n` whose key is `key(i)`,
/// over `groups` of [`ROW_GROUP`] rows (the last may hold fewer) and the
/// width `wm` divides by. Generic, so it stays private: its callers here
/// are compiled with this crate's optimizations, whoever calls them.
fn for_each_hash(
    d: Dispatch,
    groups: &[RowGroup],
    wm: FixedMod,
    n: usize,
    key: impl Fn(usize) -> u64,
    mut visit: impl FnMut(usize, usize, i64, usize),
) {
    let sign = |h: u64| 1 - 2 * ((h & 1) as i64);
    for (g, group) in groups.iter().enumerate() {
        let first = g * ROW_GROUP;
        let mut at = |i: usize, r: usize, hs: u64, hb: u64| {
            visit(i, first + r, sign(hs), wm.rem(hb) as usize);
        };
        match (d.path, &group.long) {
            // A group past the coefficient budget is evaluated key by key.
            (_, Some(rows)) => {
                for i in 0..n {
                    let k = key(i);
                    for (r, (sc, bc)) in rows.iter().enumerate() {
                        at(i, r, poly_eval(sc, k), poly_eval(bc, k));
                    }
                }
            }
            (Path::Chunked, None) => hash_rows_chunked(&group.reduced, n, &key, &mut at),
            #[cfg(target_arch = "x86_64")]
            (Path::Avx2(token), None) => avx2::hash_rows(token, &group.reduced, n, &key, &mut at),
        }
    }
}

/// The eight keys from `start` on, the ones at or past `n` read as 0: a
/// pass's last group of eight, padded. The caller visits only the first
/// `n − start` lanes.
#[inline(always)]
fn eight_keys(key: &impl Fn(usize) -> u64, start: usize, n: usize) -> [u64; CHUNK] {
    std::array::from_fn(|l| if start + l < n { key(start + l) } else { 0 })
}

/// The portable body of [`for_each_hash`] over `n` keys:
/// `at(i, r, sign hash, bucket hash)`, eight keys at a time and the last
/// `n mod 8` as one padded eight.
fn hash_rows_chunked(
    polys: &Reduced,
    n: usize,
    key: &impl Fn(usize) -> u64,
    at: &mut impl FnMut(usize, usize, u64, u64),
) {
    let full = n - n % CHUNK;
    let mut eight = |start: usize, keys: [u64; CHUNK], lanes: usize| {
        let xs = keys.map(|k| k % P61);
        for r in 0..polys.rows {
            let hs = horner_lanes_reduced(polys.sign(r), &xs);
            let hb = horner_lanes_reduced(polys.bucket(r), &xs);
            for l in 0..lanes {
                at(start + l, r, hs[l], hb[l]);
            }
        }
    };
    for start in (0..full).step_by(CHUNK) {
        eight(start, std::array::from_fn(|l| key(start + l)), CHUNK);
    }
    if full < n {
        eight(full, eight_keys(key, full, n), n - full);
    }
}

/// The count-carrying F-AGMS write over every row at once:
/// `counters[r·width + bucket_r(key)] += count·sign_r(key)` per
/// `(key, count)` and row `r` of `rows`, hashed as [`hash_rows`] hashes.
/// Adds to
/// `changes[r]` the change the writes made to row `r`'s `Σ c²`, summed
/// with [`square_change`] per write: wrapping, so it is the exact change
/// modulo `2⁶⁴` whatever the counters hold, and the exact change itself
/// while the row's `Σ c²` stays below `2⁶³` before and after.
///
/// # Panics
///
/// Panics if `counters` holds fewer than `depth × width` counters or
/// `changes` has fewer than `depth` entries.
pub fn signed_scatter_counts(
    d: Dispatch,
    rows: &RowHashes,
    items: &[(u64, i64)],
    counters: &mut [i64],
    changes: &mut [i64],
) {
    let (depth, width) = (rows.depth, rows.width);
    assert!(
        counters.len() >= depth * width,
        "counter block smaller than depth × width"
    );
    assert!(changes.len() >= depth, "one change per row");
    let key = |i: usize| items[i].0;
    for_each_hash(
        d,
        &rows.groups,
        rows.wm,
        items.len(),
        key,
        |i, r, sign, bucket| {
            let change = add_counted(&mut counters[r * width + bucket], sign * items[i].1);
            changes[r] = changes[r].wrapping_add(change);
        },
    );
}

/// `c += delta`, returning the change to `c²`.
#[inline(always)]
fn add_counted(c: &mut i64, delta: i64) -> i64 {
    let change = square_change(*c, delta);
    *c += delta;
    change
}

/// The change to `c²` when `c = old` becomes `old + delta`:
/// `delta·(2·old + delta)`, wrapping, so it is exact modulo `2⁶⁴`.
#[inline(always)]
pub fn square_change(old: i64, delta: i64) -> i64 {
    delta.wrapping_mul(old.wrapping_mul(2).wrapping_add(delta))
}

// ---------------------------------------------------------------------------
// Geometric gap kernel
// ---------------------------------------------------------------------------

/// Gaps one [`geometric_gaps`] call draws: four 4-lane vectors on the
/// AVX2 path, whose latency chains (a division, a polynomial) overlap.
pub const GAP_LANES: usize = 16;

/// `2⁻⁵³`, the step of a 53-bit uniform in `[0, 1)`.
const UNIT53: f64 = 1.0 / (1u64 << 53) as f64;

/// The reference geometric gap of one random word `r` at
/// `log_q = ln(1 − p) < 0`: `(ln(1 − U) / log_q) as u64` with
/// `U = (r >> 11)·2⁻⁵³`, the uniform `rand` draws from `r`.
///
/// `1 − U` lies in `(0, 1]` and is exact, so the quotient is `≥ 0` (or
/// `−0.0` when `U = 0`). The saturating cast truncates it, which is its
/// floor, and sends anything `≥ 2⁶⁴` to `u64::MAX`.
#[inline]
pub fn geometric_gap(r: u64, log_q: f64) -> u64 {
    let u = 1.0 - (r >> 11) as f64 * UNIT53;
    (u.ln() / log_q) as u64
}

/// Fill `out[j]` with draw `j` of a SplitMix64 counter stream whose next
/// state is `state`: `geometric_gap(splitmix64(state + j·γ), log_q)`,
/// bit for bit, on whichever path `d` resolved to. Returns how many lanes
/// the fast path handed to the exact fallback (always 0 on the portable
/// path, which computes the reference lane by lane). The caller advances
/// its counter by the draws it consumes.
///
/// # Error argument
///
/// The AVX2 path computes `x = ln₄(1 − U) · (1/log_q)`, where `1 − U` is
/// built exactly and `ln₄` splits it as `2ᵉ·f` with `f ∈ [√½, √2)` and
/// sums `e·ln 2` and `s·Σₖ₌₀⁷ (2/(2k+1))·s²ᵏ`, `s = (f − 1)/(f + 1)`.
/// `f − 1` is exact, the series remainder is below `s¹⁶/17 < 2⁻⁴⁴·⁸`
/// relative (`s² < 0.0295`), and each rounding adds a few units of
/// `2⁻⁵³`, so `ln₄` is within `2⁻⁴⁴` relative of `ln` (a unit test
/// measures it over a million draws). Assume only that `ln₄` and the
/// platform `ln` are each within `2⁻⁴⁰` relative. Then both quotients lie
/// within `(2⁻⁴⁰ + 2⁻⁵²)·x` of the true `ln(1 − U)/log_q`, so the
/// reference quotient lies within `2⁻³⁸·x` of `x`. A lane keeps `⌊x⌋`
/// only when `x < 2⁵²` and `x` is farther than `2⁻³⁰ + 2⁻³⁸·x` from the
/// nearest integer: no integer then lies between the two quotients, and
/// their floors agree. Every other lane — `x` near an integer, `x ≥ 2⁵²`
/// (an integer itself), `U = 0` (`x = 0`), and the NaN or infinite `x` of
/// a `log_q` whose reciprocal overflows — is recomputed with
/// [`geometric_gap`]. A lane is sent back with probability about
/// `2⁻²⁹ + 2⁻³⁷·x`.
pub fn geometric_gaps(d: Dispatch, state: u64, log_q: f64, out: &mut [u64; GAP_LANES]) -> usize {
    match d.path {
        Path::Chunked => {
            for (j, gap) in out.iter_mut().enumerate() {
                let at = state.wrapping_add((j as u64).wrapping_mul(GOLDEN_GAMMA));
                *gap = geometric_gap(splitmix64(at), log_q);
            }
            0
        }
        #[cfg(target_arch = "x86_64")]
        Path::Avx2(token) => avx2::geometric_gaps(token, state, log_q, out),
    }
}

// ---------------------------------------------------------------------------
// Exact square sum
// ---------------------------------------------------------------------------

/// [`square_sum`] declines a counter with `|c|` at or above this.
const SQUARE_LIMIT: i64 = 1 << 26;

/// [`square_sum`] declines a sum at or above this: `2⁵³`.
const SQUARE_SUM_LIMIT: u64 = 1 << 53;

/// Counters one [`square_sum`] block adds in 64-bit lanes before the sum
/// is checked: `2048` squares below `2⁵²` stay below `2⁶³`.
const SQUARE_BLOCK: usize = 2048;

/// `|c| < 2²⁶`, branch-free: `c + 2²⁶ − 1` lands in `[0, 2²⁷ − 2]` as an
/// unsigned word exactly then (`i64::MIN` and `i64::MAX` wrap far out).
#[inline]
fn square_fits(c: i64) -> bool {
    (c.wrapping_add(SQUARE_LIMIT - 1) as u64) < (2 * SQUARE_LIMIT - 1) as u64
}

/// `Σ c²` over `counters` in exact integers, on whichever path `d`
/// resolved to; `None` when some `|c| ≥ 2²⁶` or the sum is `≥ 2⁵³`.
///
/// Below both limits every square is below `2⁵²` and every partial sum
/// below `2⁵³`, so an f64 loop adding `c as f64 * c as f64` in any order
/// is exact too: `Some(s)` as f64 is that loop's result, bit for bit (an
/// empty or all-zero slice gives `+0.0`, as `-0.0 + 0.0` does). A caller
/// keeps its f64 loop for `None`.
pub fn square_sum(d: Dispatch, counters: &[i64]) -> Option<u64> {
    let mut total = 0u64;
    for block in counters.chunks(SQUARE_BLOCK) {
        total += match d.path {
            Path::Chunked => square_block(block)?,
            #[cfg(target_arch = "x86_64")]
            Path::Avx2(token) => avx2::square_block(token, block)?,
        };
        if total >= SQUARE_SUM_LIMIT {
            return None;
        }
    }
    Some(total)
}

/// The portable [`square_sum`] block: `Σ c²` of at most [`SQUARE_BLOCK`]
/// counters, or `None` when one of them does not fit. The squares wrap
/// instead of overflowing; an out-of-range block's sum is discarded.
fn square_block(block: &[i64]) -> Option<u64> {
    let mut fits = true;
    let mut sum = 0u64;
    for &c in block {
        fits &= square_fits(c);
        sum = sum.wrapping_add(c.wrapping_mul(c) as u64);
    }
    fits.then_some(sum)
}

// ---------------------------------------------------------------------------
// AVX2 path (the single audited unsafe module)
// ---------------------------------------------------------------------------

/// Explicit AVX2 implementations of the hot kernels.
///
/// This is the only module in the workspace that uses `unsafe` (scoped
/// `#[allow]` under the crate-level `#![deny(unsafe_code)]`), and the only
/// unsafety in it is (a) calling `#[target_feature(enable = "avx2")]` and
/// `#[target_feature(enable = "avx2,fma")]` functions and (b) unaligned
/// vector load/store through raw pointers. Reachability of (a) is gated by
/// [`Avx2Token`], which can only be constructed after
/// `is_x86_feature_detected!` reports both AVX2 and FMA.
///
/// Bit-identity with the scalar field arithmetic is by construction: every
/// 64×64→128 product is reduced with the same two lazy folds as
/// `reduce128_partial` and canonicalized with the same two folds plus
/// conditional subtract as `reduce128`, so each lane computes literally
/// the same u64 sequence as one scalar Horner chain. The gap kernel's
/// bit-identity is by proof and fallback (see [`super::geometric_gaps`]).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2 {
    use super::{eight_keys, geometric_gap, Reduced, CHUNK, GAP_LANES, ROW_GROUP, SQUARE_LIMIT};
    use crate::prime::P61;
    use crate::{splitmix64, GOLDEN_GAMMA};
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_si256, _mm256_andnot_pd,
        _mm256_andnot_si256, _mm256_castpd_si256, _mm256_castsi256_pd, _mm256_cmp_pd,
        _mm256_cmpgt_epi64, _mm256_div_pd, _mm256_fmadd_pd, _mm256_fnmadd_pd, _mm256_loadu_si256,
        _mm256_movemask_pd, _mm256_mul_epi32, _mm256_mul_epu32, _mm256_mul_pd, _mm256_or_si256,
        _mm256_round_pd, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setzero_si256,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_sub_epi64, _mm256_sub_pd,
        _mm256_testz_si256, _mm256_xor_si256, _CMP_GT_OQ, _MM_FROUND_NO_EXC,
        _MM_FROUND_TO_NEAREST_INT, _MM_FROUND_TO_ZERO,
    };

    /// Proof token that the running CPU supports AVX2 and FMA.
    ///
    /// The only constructor is [`Avx2Token::probe`], so holding a token is
    /// a compile-time-checkable witness that the `target_feature` calls
    /// below are sound on this machine. Every x86-64 part with AVX2 that
    /// this workspace targets also has FMA; one without gets the chunked
    /// path for every kernel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Avx2Token(());

    impl Avx2Token {
        /// `Some` iff the CPU reports AVX2 and FMA support.
        pub(crate) fn probe() -> Option<Self> {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                Some(Self(()))
            } else {
                None
            }
        }
    }

    /// 4-lane partially-reduced modular multiply step of the Horner chain:
    /// returns a value ≡ `acc·x (mod 2⁶¹−1)` that is `< 2⁶²`, given
    /// `acc < 2⁶³` and canonical `x < 2⁶¹` — the same contract (and the
    /// same fold sequence) as the scalar `reduce128_partial(acc·x)`.
    ///
    /// AVX2 has no 64×64 multiply, so the product is assembled from 32-bit
    /// partials: with `a = a_hi·2³² + a_lo` and `x = x_hi·2³² + x_lo`,
    /// `a·x = hh·2⁶⁴ + (lh + hl)·2³² + ll`. The bounds above keep the mid
    /// sum `lh + hl < 2⁶¹ + 2⁶³` from wrapping 64 bits.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul_reduce_partial(acc: __m256i, x: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(acc, 32);
        let x_hi = _mm256_srli_epi64(x, 32);
        // vpmuludq reads only the low 32 bits of each 64-bit lane, so the
        // low halves need no masking.
        let ll = _mm256_mul_epu32(acc, x);
        let lh = _mm256_mul_epu32(acc, x_hi);
        let hl = _mm256_mul_epu32(a_hi, x);
        let hh = _mm256_mul_epu32(a_hi, x_hi);
        let mid = _mm256_add_epi64(lh, hl);
        // lo64 = ll + (mid << 32); detect the unsigned carry by comparing
        // the sum against an addend (sign-bit flip turns vpcmpgtq into an
        // unsigned compare), then fold it into the high word.
        let lo = _mm256_add_epi64(ll, _mm256_slli_epi64(mid, 32));
        let sign = _mm256_set1_epi64x(i64::MIN);
        let carry = _mm256_srli_epi64(
            _mm256_cmpgt_epi64(_mm256_xor_si256(ll, sign), _mm256_xor_si256(lo, sign)),
            63,
        );
        let hi = _mm256_add_epi64(_mm256_add_epi64(hh, _mm256_srli_epi64(mid, 32)), carry);
        // First fold of t = hi·2⁶⁴ + lo: (t & P61) + (t >> 61), where
        // t >> 61 = (lo >> 61) | (hi << 3) exactly (hi < 2⁶⁰, and the OR
        // operands occupy disjoint bits). Result < 2⁶³ + 2⁶¹ < 2⁶⁴.
        let p61 = _mm256_set1_epi64x(P61 as i64);
        let r = _mm256_add_epi64(
            _mm256_and_si256(lo, p61),
            _mm256_or_si256(_mm256_srli_epi64(lo, 61), _mm256_slli_epi64(hi, 3)),
        );
        // Second fold brings the value under 2⁶², restoring the Horner
        // accumulator invariant.
        _mm256_add_epi64(_mm256_and_si256(r, p61), _mm256_srli_epi64(r, 61))
    }

    /// Canonicalize 4 lanes (any u64: after the first fold a lane is below
    /// 2⁶¹ + 8) to `[0, P61)`: the same two folds plus conditional subtract
    /// as the scalar `reduce128` tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn canonicalize(v: __m256i) -> __m256i {
        let p61 = _mm256_set1_epi64x(P61 as i64);
        let f1 = _mm256_add_epi64(_mm256_and_si256(v, p61), _mm256_srli_epi64(v, 61));
        let f2 = _mm256_add_epi64(_mm256_and_si256(f1, p61), _mm256_srli_epi64(f1, 61));
        // f2 < 2⁶² so a signed compare is an unsigned compare; subtract
        // P61 from every lane where f2 >= P61.
        let lt = _mm256_cmpgt_epi64(p61, f2);
        _mm256_sub_epi64(f2, _mm256_andnot_si256(lt, p61))
    }

    /// One Horner evaluation of `coeffs` at 8 keys already reduced into
    /// two 4-lane registers, canonical results.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn horner(coeffs: &[u64], x0: __m256i, x1: __m256i) -> [u64; CHUNK] {
        let mut out = [0u64; CHUNK];
        let Some((&last, rest)) = coeffs.split_last() else {
            return out;
        };
        let mut a0 = _mm256_set1_epi64x(last as i64);
        let mut a1 = a0;
        for &c in rest.iter().rev() {
            let cv = _mm256_set1_epi64x(c as i64);
            a0 = _mm256_add_epi64(mul_reduce_partial(a0, x0), cv);
            a1 = _mm256_add_epi64(mul_reduce_partial(a1, x1), cv);
        }
        // SAFETY: `out` is a [u64; 8]; both 32-byte unaligned stores are in
        // bounds.
        _mm256_storeu_si256(out.as_mut_ptr().cast(), canonicalize(a0));
        _mm256_storeu_si256(out.as_mut_ptr().add(4).cast(), canonicalize(a1));
        out
    }

    /// One 8-key Horner evaluation. The keys are reduced by
    /// [`canonicalize`], the vector twin of the scalar `k % P61`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `keys` must point at 8 readable u64s.
    #[target_feature(enable = "avx2")]
    unsafe fn horner8_impl(coeffs: &[u64], keys: &[u64; CHUNK]) -> [u64; CHUNK] {
        // SAFETY: `keys` is a [u64; 8], so both 32-byte unaligned loads are
        // in bounds; loadu has no alignment requirement.
        let x0 = canonicalize(_mm256_loadu_si256(keys.as_ptr().cast()));
        let x1 = canonicalize(_mm256_loadu_si256(keys.as_ptr().add(4).cast()));
        horner(coeffs, x0, x1)
    }

    /// Safe-to-call wrapper: the token witnesses AVX2 support.
    #[inline]
    pub(crate) fn horner8(_token: Avx2Token, coeffs: &[u64], keys: &[u64; CHUNK]) -> [u64; CHUNK] {
        // SAFETY: an Avx2Token exists only if is_x86_feature_detected!
        // ("avx2") returned true, so the target-feature call is sound, and
        // the references satisfy the pointer contracts above.
        unsafe { horner8_impl(coeffs, keys) }
    }

    /// Every row's sign and bucket hashes of eight keys, into `hs` and
    /// `hb`: the keys are loaded and reduced once, and every row's chains
    /// run on them (independent chains, which overlap).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hash_eight(
        polys: &Reduced,
        keys: &[u64; CHUNK],
        hs: &mut [[u64; CHUNK]; ROW_GROUP],
        hb: &mut [[u64; CHUNK]; ROW_GROUP],
    ) {
        // SAFETY: `keys` is a [u64; 8], so both 32-byte unaligned loads
        // are in bounds.
        let x0 = canonicalize(_mm256_loadu_si256(keys.as_ptr().cast()));
        let x1 = canonicalize(_mm256_loadu_si256(keys.as_ptr().add(4).cast()));
        for r in 0..polys.rows {
            hs[r] = horner(polys.sign(r), x0, x1);
            hb[r] = horner(polys.bucket(r), x0, x1);
        }
    }

    /// [`super::for_each_hash`] over `n` keys: each eight are hashed at
    /// every row ([`hash_eight`]) before `at(i, r, sign hash, bucket
    /// hash)` sees them, and the last `n mod 8` run as one padded eight
    /// whose padding lanes `at` never sees.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    unsafe fn hash_rows_impl(
        polys: &Reduced,
        n: usize,
        key: &impl Fn(usize) -> u64,
        at: &mut impl FnMut(usize, usize, u64, u64),
    ) {
        let mut hs = [[0u64; CHUNK]; ROW_GROUP];
        let mut hb = [[0u64; CHUNK]; ROW_GROUP];
        let full = n - n % CHUNK;
        for start in (0..full).step_by(CHUNK) {
            let keys: [u64; CHUNK] = std::array::from_fn(|l| key(start + l));
            hash_eight(polys, &keys, &mut hs, &mut hb);
            for r in 0..polys.rows {
                for l in 0..CHUNK {
                    at(start + l, r, hs[r][l], hb[r][l]);
                }
            }
        }
        if full < n {
            hash_eight(polys, &eight_keys(key, full, n), &mut hs, &mut hb);
            for r in 0..polys.rows {
                for l in 0..n - full {
                    at(full + l, r, hs[r][l], hb[r][l]);
                }
            }
        }
    }

    /// Safe-to-call wrapper: the token witnesses AVX2 support.
    #[inline]
    pub(super) fn hash_rows(
        _token: Avx2Token,
        polys: &Reduced,
        n: usize,
        key: &impl Fn(usize) -> u64,
        at: &mut impl FnMut(usize, usize, u64, u64),
    ) {
        // SAFETY: an Avx2Token exists only if is_x86_feature_detected!
        // ("avx2") returned true, so the target-feature call is sound.
        unsafe { hash_rows_impl(polys, n, key, at) }
    }

    /// SplitMix64's two multipliers.
    const MIX1: u64 = 0xbf58_476d_1ce4_e5b9;
    const MIX2: u64 = 0x94d0_49bb_1331_11eb;
    /// `2⁵²`: OR-ing a small integer `n` into its bits makes the float
    /// `2⁵² + n`.
    const TWO52: f64 = 4_503_599_627_370_496.0;
    /// `0x3fe6a09e667f3bcd` is `√½`; adding `ONE − SQRT_HALF` to the bits
    /// of `v > 0` carries into the exponent exactly when `v`'s mantissa is
    /// at least `√2`.
    const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
    const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
    const MANTISSA: u64 = (1 << 52) - 1;
    /// `2/(2k+1)` for `k = 7, 6, …, 0`: `ln f = s·Σₖ (2/(2k+1))·s²ᵏ`, the
    /// atanh series, highest power first for Horner's rule.
    const ATANH: [f64; 8] = [
        2.0 / 15.0,
        2.0 / 13.0,
        2.0 / 11.0,
        2.0 / 9.0,
        2.0 / 7.0,
        2.0 / 5.0,
        2.0 / 3.0,
        2.0,
    ];

    /// `(j + 1)·γ` per lane: SplitMix64 adds `γ` to draw `j`'s counter
    /// `state + j·γ` before it mixes.
    const COUNTER_STEPS: [u64; GAP_LANES] = {
        let mut steps = [0u64; GAP_LANES];
        let mut j = 0;
        while j < GAP_LANES {
            steps[j] = ((j + 1) as u64).wrapping_mul(GOLDEN_GAMMA);
            j += 1;
        }
        steps
    };

    /// The low 64 bits of `a·m` per lane, from 32-bit partials:
    /// `lo(a)·lo(m) + ((lo(a)·hi(m) + hi(a)·lo(m)) << 32)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul_lo(a: __m256i, m: u64) -> __m256i {
        let m_lo = _mm256_set1_epi64x(m as i64);
        let m_hi = _mm256_set1_epi64x((m >> 32) as i64);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(a, m_hi),
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m_lo),
        );
        _mm256_add_epi64(_mm256_mul_epu32(a, m_lo), _mm256_slli_epi64(cross, 32))
    }

    /// SplitMix64's finalizer on `z = x + γ`, per lane: the scalar
    /// `splitmix64(x)` after its increment. Each step runs on every vector
    /// before the next, so the multiplies' latency overlaps.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mix(mut z: [__m256i; VECS]) -> [__m256i; VECS] {
        for zi in &mut z {
            *zi = mul_lo(_mm256_xor_si256(*zi, _mm256_srli_epi64(*zi, 30)), MIX1);
        }
        for zi in &mut z {
            *zi = mul_lo(_mm256_xor_si256(*zi, _mm256_srli_epi64(*zi, 27)), MIX2);
        }
        for zi in &mut z {
            *zi = _mm256_xor_si256(*zi, _mm256_srli_epi64(*zi, 31));
        }
        z
    }

    /// `1 − U` per lane for the uniform `U = (r >> 11)·2⁻⁵³` of the word
    /// `r`, exactly: with `U = hi·2⁻³² + lo·2⁻⁵³` (`hi = r >> 32`, `lo`
    /// the next 21 bits), the floats `2⁵² + hi` and `2⁵² + lo` are bit
    /// patterns, and each fused step's exact result is representable, so
    /// it is not rounded: `t = 1.5 − hi·2⁻³²`, then `t − 0.5 − lo·2⁻⁵³`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn one_minus_uniform(r: __m256i) -> __m256d {
        let two52 = _mm256_set1_epi64x(TWO52.to_bits() as i64);
        let hi = _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(r, 32), two52));
        let lo = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(_mm256_srli_epi64(r, 11), _mm256_set1_epi64x((1 << 21) - 1)),
            two52,
        ));
        let t = _mm256_fnmadd_pd(
            hi,
            _mm256_set1_pd(1.0 / (1u64 << 32) as f64),
            _mm256_set1_pd(1.5 + (1u64 << 20) as f64),
        );
        _mm256_fnmadd_pd(lo, _mm256_set1_pd(super::UNIT53), t)
    }

    /// Vectors per gap block. Each step below runs on all of them before
    /// the next starts, so their latency chains overlap.
    const VECS: usize = GAP_LANES / 4;

    /// `ln v` per lane for `v ∈ [2⁻⁵³, 1]`, within `2⁻⁴⁴` relative: `v` is
    /// split as `2ᵉ·f`, `f ∈ [√½, √2)`, and
    /// `ln v = e·ln 2 + s·Σₖ₌₀⁷ (2/(2k+1))·s²ᵏ` with `s = (f − 1)/(f + 1)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn ln4(v: [__m256d; VECS]) -> [__m256d; VECS] {
        let mut e = [_mm256_set1_pd(0.0); VECS];
        let mut s = [_mm256_set1_pd(0.0); VECS];
        for i in 0..VECS {
            let ix = _mm256_add_epi64(
                _mm256_castpd_si256(v[i]),
                _mm256_set1_epi64x((ONE_BITS - SQRT_HALF_BITS) as i64),
            );
            // `e`: the biased exponent, a small integer, made a float.
            e[i] = _mm256_sub_pd(
                _mm256_castsi256_pd(_mm256_or_si256(
                    _mm256_srli_epi64(ix, 52),
                    _mm256_set1_epi64x(TWO52.to_bits() as i64),
                )),
                _mm256_set1_pd(TWO52 + 1023.0),
            );
            let f = _mm256_castsi256_pd(_mm256_add_epi64(
                _mm256_and_si256(ix, _mm256_set1_epi64x(MANTISSA as i64)),
                _mm256_set1_epi64x(SQRT_HALF_BITS as i64),
            ));
            // f − 1 is exact (Sterbenz): near v = 1 the log keeps its digits.
            let g = _mm256_sub_pd(f, _mm256_set1_pd(1.0));
            s[i] = _mm256_div_pd(g, _mm256_add_pd(g, _mm256_set1_pd(2.0)));
        }
        let mut z = s;
        for zi in &mut z {
            *zi = _mm256_mul_pd(*zi, *zi);
        }
        let mut poly = [_mm256_set1_pd(ATANH[0]); VECS];
        for &c in &ATANH[1..] {
            for i in 0..VECS {
                poly[i] = _mm256_fmadd_pd(poly[i], z[i], _mm256_set1_pd(c));
            }
        }
        let mut out = [_mm256_set1_pd(0.0); VECS];
        for i in 0..VECS {
            let ln_f = _mm256_mul_pd(s[i], poly[i]);
            out[i] = _mm256_fmadd_pd(e[i], _mm256_set1_pd(std::f64::consts::LN_2), ln_f);
        }
        out
    }

    /// Sixteen gaps (see [`super::geometric_gaps`]); returns the lanes
    /// recomputed by the reference.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn geometric_gaps_impl(state: u64, log_q: f64, out: &mut [u64; GAP_LANES]) -> usize {
        let inv = _mm256_set1_pd(1.0 / log_q);
        let base = _mm256_set1_epi64x(state as i64);
        let mut counters = [base; VECS];
        for (i, z) in counters.iter_mut().enumerate() {
            // SAFETY: `COUNTER_STEPS` has 4·VECS entries, so the 32-byte
            // unaligned load at 4i is in bounds.
            *z = _mm256_add_epi64(
                base,
                _mm256_loadu_si256(COUNTER_STEPS.as_ptr().add(4 * i).cast()),
            );
        }
        let mut one_minus_u = [_mm256_set1_pd(0.0); VECS];
        for (v, r) in one_minus_u.iter_mut().zip(mix(counters)) {
            *v = one_minus_uniform(r);
        }
        let logs = ln4(one_minus_u);
        let mut exact = 0u32;
        for (i, &ln) in logs.iter().enumerate() {
            let x = _mm256_mul_pd(ln, inv);
            let near = _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
            let dist = _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(x, near));
            let margin = _mm256_fmadd_pd(
                x,
                _mm256_set1_pd(f64::from_bits(0x3d90_0000_0000_0000)), // 2⁻³⁸
                _mm256_set1_pd(f64::from_bits(0x3e10_0000_0000_0000)), // 2⁻³⁰
            );
            // An x ≥ 2⁵² is an integer (dist = 0), an infinite one makes
            // dist NaN, and an ordered compare leaves a NaN lane undecided.
            let decided = _mm256_cmp_pd(dist, margin, _CMP_GT_OQ);
            // A decided x lies in (0, 2⁵²): its truncation plus 2⁵² is
            // exact, and the low bits of that float are the integer.
            let whole = _mm256_add_pd(
                _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC),
                _mm256_set1_pd(TWO52),
            );
            let gaps = _mm256_sub_epi64(
                _mm256_castpd_si256(whole),
                _mm256_set1_epi64x(TWO52.to_bits() as i64),
            );
            // SAFETY: `out` holds 4·VECS u64s; the 32-byte unaligned store
            // at 4i is in bounds.
            _mm256_storeu_si256(out.as_mut_ptr().add(4 * i).cast(), gaps);
            exact |= ((!_mm256_movemask_pd(decided) & 0xf) as u32) << (4 * i);
        }
        let sent_back = exact.count_ones() as usize;
        while exact != 0 {
            let j = exact.trailing_zeros() as usize;
            let at = state.wrapping_add((j as u64).wrapping_mul(GOLDEN_GAMMA));
            out[j] = geometric_gap(splitmix64(at), log_q);
            exact &= exact - 1;
        }
        sent_back
    }

    /// Safe-to-call wrapper: the token witnesses AVX2 and FMA support.
    #[inline]
    pub(crate) fn geometric_gaps(
        _token: Avx2Token,
        state: u64,
        log_q: f64,
        out: &mut [u64; GAP_LANES],
    ) -> usize {
        // SAFETY: an Avx2Token exists only if is_x86_feature_detected!
        // reported AVX2 and FMA, so the target-feature call is sound.
        unsafe { geometric_gaps_impl(state, log_q, out) }
    }

    /// Counters per step of [`square_block_impl`]: four vectors, one
    /// accumulator each, so the adds do not wait on one another.
    const SQUARE_STEP: usize = 16;

    /// The AVX2 [`super::square_sum`] block: `vpmuldq` squares the low
    /// 32 bits of four counters at once, sign-extended, which is `c²` for
    /// every `|c| < 2²⁶`, into 64-bit lanes that at most
    /// [`super::SQUARE_BLOCK`] squares below `2⁵²` cannot overflow. The
    /// range test is [`super::square_fits`] per lane: the biased counter,
    /// sign-flipped so that the signed `vpcmpgtq` compares unsigned words.
    /// The last `len % 16` counters take the portable block.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    unsafe fn square_block_impl(block: &[i64]) -> Option<u64> {
        let bias = _mm256_set1_epi64x(SQUARE_LIMIT - 1);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let top = _mm256_set1_epi64x((2 * SQUARE_LIMIT - 2) ^ i64::MIN);
        let mut sums = [_mm256_setzero_si256(); SQUARE_STEP / 4];
        let mut outside = _mm256_setzero_si256();
        let mut steps = block.chunks_exact(SQUARE_STEP);
        for step in steps.by_ref() {
            for (i, sum) in sums.iter_mut().enumerate() {
                // SAFETY: `step` holds 16 i64s, so the 32-byte unaligned
                // load at 4i is in bounds.
                let c = _mm256_loadu_si256(step.as_ptr().add(4 * i).cast());
                let biased = _mm256_xor_si256(_mm256_add_epi64(c, bias), sign);
                outside = _mm256_or_si256(outside, _mm256_cmpgt_epi64(biased, top));
                *sum = _mm256_add_epi64(*sum, _mm256_mul_epi32(c, c));
            }
        }
        let tail = super::square_block(steps.remainder());
        if _mm256_testz_si256(outside, outside) == 0 {
            return None;
        }
        let total = _mm256_add_epi64(
            _mm256_add_epi64(sums[0], sums[1]),
            _mm256_add_epi64(sums[2], sums[3]),
        );
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` holds four u64s; the unaligned store is in
        // bounds.
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), total);
        Some(lanes.iter().sum::<u64>() + tail?)
    }

    /// Safe-to-call wrapper: the token witnesses AVX2 support.
    #[inline]
    pub(crate) fn square_block(_token: Avx2Token, block: &[i64]) -> Option<u64> {
        // SAFETY: an Avx2Token exists only if is_x86_feature_detected!
        // reported AVX2, so the target-feature call is sound.
        unsafe { square_block_impl(block) }
    }

    /// The gap kernel's logarithm on four values, for the tests that
    /// measure its error.
    #[cfg(test)]
    pub(super) fn ln_lanes(_token: Avx2Token, v: [f64; 4]) -> [f64; 4] {
        use std::arch::x86_64::{_mm256_loadu_pd, _mm256_storeu_pd};
        let mut out = [0.0; 4];
        // SAFETY: the token witnesses AVX2 and FMA; both arrays hold four
        // f64s, so the unaligned load and store are in bounds.
        unsafe {
            let [ln, ..] = ln4([_mm256_loadu_pd(v.as_ptr()); VECS]);
            _mm256_storeu_pd(out.as_mut_ptr(), ln);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::poly_eval;

    fn test_keys() -> Vec<u64> {
        (0..203u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([0, 1, P61 - 1, P61, P61 + 1, u64::MAX])
            .collect()
    }

    fn test_items(keys: &[u64]) -> Vec<(u64, i64)> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, (i as i64 % 9) - 4))
            .collect()
    }

    /// Every dispatchable path must agree with the scalar per-key
    /// reference on every tail length, for both CW degrees.
    #[test]
    fn cw_kernels_match_scalar_reference() {
        let coeff_sets: [&[u64]; 3] = [
            &[12345, 67890],
            &[7, 0, P61 - 1, 1 << 60],
            &[u64::MAX, P61 + 3, 1 << 62],
        ];
        let keys = test_keys();
        let items = test_items(&keys);
        let paths = [Dispatch::chunked(), Dispatch::get()];
        for coeffs in coeff_sets {
            for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, keys.len()] {
                let want_sum: i64 = keys[..len]
                    .iter()
                    .map(|&k| 1 - 2 * ((poly_eval(coeffs, k) & 1) as i64))
                    .sum();
                let want_dot: i64 = items[..len]
                    .iter()
                    .map(|&(k, c)| (1 - 2 * ((poly_eval(coeffs, k) & 1) as i64)) * c)
                    .sum();
                for d in paths {
                    assert_eq!(sign_sum(d, coeffs, &keys[..len]), want_sum, "len {len}");
                    assert_eq!(sign_dot(d, coeffs, &items[..len]), want_dot, "len {len}");
                }
            }
        }
    }

    #[test]
    fn scatter_kernels_match_scalar_reference() {
        let sc: &[u64] = &[3, 5, 7, 11];
        let bc: &[u64] = &[12345, 67890];
        let keys = test_keys();
        let items = test_items(&keys);
        for d in [Dispatch::chunked(), Dispatch::get()] {
            for width in [1usize, 3, 300, 5000] {
                for len in [0usize, 5, 8, 9, keys.len()] {
                    let mut want = vec![0i64; width];
                    for &k in &keys[..len] {
                        let s = 1 - 2 * ((poly_eval(sc, k) & 1) as i64);
                        want[(poly_eval(bc, k) % width as u64) as usize] += s;
                    }
                    let mut got = vec![0i64; width];
                    signed_scatter(d, sc, bc, width, &keys[..len], &mut got);
                    assert_eq!(got, want, "signed width {width} len {len}");

                    let mut want = vec![0i64; width];
                    for &(k, c) in &items[..len] {
                        let s = 1 - 2 * ((poly_eval(sc, k) & 1) as i64);
                        want[(poly_eval(bc, k) % width as u64) as usize] += s * c;
                    }
                    let mut got = vec![0i64; width];
                    let mut change = [0];
                    let rows = RowHashes::new(&[(sc, bc)], width);
                    signed_scatter_counts(d, &rows, &items[..len], &mut got, &mut change);
                    assert_eq!(got, want, "signed counts width {width} len {len}");
                }
            }
        }
    }

    /// Degree > 7 polynomials take the scalar fallback and must still
    /// agree with direct evaluation.
    #[test]
    fn kernels_fall_back_beyond_coefficient_budget() {
        let coeffs: Vec<u64> = (1..=12u64).collect();
        let keys: Vec<u64> = (0..37u64).map(|i| i * 997).collect();
        let want: i64 = keys
            .iter()
            .map(|&k| 1 - 2 * ((poly_eval(&coeffs, k) & 1) as i64))
            .sum();
        for d in [Dispatch::chunked(), Dispatch::get()] {
            assert_eq!(sign_sum(d, &coeffs, &keys), want);
        }
    }

    /// A row whose sign or bucket polynomial is past the coefficient
    /// budget takes the scalar way on every path, and so does every row of
    /// its group: the scatters still equal direct evaluation.
    #[test]
    fn scatter_kernels_fall_back_beyond_coefficient_budget() {
        let long: Vec<u64> = (1..=12u64).collect();
        let short: &[u64] = &[3, 5, 7, 11];
        let keys: Vec<u64> = (0..37u64).map(|i| i * 997).collect();
        let items = test_items(&keys);
        let width = 29usize;
        let row_sets: [&[RowPolys<'_>]; 3] = [
            &[(&long, short)],
            &[(short, &long)],
            &[(short, short), (&long, &long), (short, &[1, 2])],
        ];
        for rows in row_sets {
            let mut want = vec![0i64; rows.len() * width];
            for (r, &(sc, bc)) in rows.iter().enumerate() {
                for &(k, c) in &items {
                    let s = 1 - 2 * ((poly_eval(sc, k) & 1) as i64);
                    want[r * width + (poly_eval(bc, k) % width as u64) as usize] += s * c;
                }
            }
            for d in [Dispatch::chunked(), Dispatch::get()] {
                let mut got = vec![0i64; rows.len() * width];
                let mut changes = vec![0i64; rows.len()];
                let prepared = RowHashes::new(rows, width);
                signed_scatter_counts(d, &prepared, &items, &mut got, &mut changes);
                assert_eq!(got, want, "{} path", d.label());

                let (sc, bc) = rows[0];
                let mut want = vec![0i64; width];
                for &k in &keys {
                    let s = 1 - 2 * ((poly_eval(sc, k) & 1) as i64);
                    want[(poly_eval(bc, k) % width as u64) as usize] += s;
                }
                let mut got = vec![0i64; width];
                signed_scatter(d, sc, bc, width, &keys, &mut got);
                assert_eq!(got, want, "{} path", d.label());
            }
        }
    }

    /// A zero width is refused on every path, by the one-row scatter and
    /// by the preparation the counted scatter and the gather take, before
    /// any key is hashed.
    #[test]
    fn scatter_kernels_reject_zero_width() {
        let rows: [RowPolys<'_>; 1] = [(&[1, 2, 3, 4], &[1, 2])];
        for d in [Dispatch::chunked(), Dispatch::get()] {
            let calls: [&(dyn Fn() + std::panic::RefUnwindSafe); 2] = [
                &|| signed_scatter(d, rows[0].0, rows[0].1, 0, &[1], &mut []),
                &|| drop(RowHashes::new(&rows, 0)),
            ];
            for call in calls {
                let panic = std::panic::catch_unwind(call).expect_err("width 0 must panic");
                let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(
                    message,
                    "bucket width must be non-zero",
                    "{} path",
                    d.label()
                );
            }
        }
    }

    /// Sixteen gaps per call on every path equal the reference, from
    /// counters that wrap around `u64`, at rates from ½ to 10⁻³⁰⁰ (where
    /// every lane is sent back) and 1 (no lane is decided by the fast path).
    #[test]
    fn gap_kernel_matches_reference() {
        for p in [0.5f64, 0.1, 0.01, 1e-6, 1e-300, 1.0] {
            let log_q = (-p).ln_1p();
            for start in [
                0,
                12345,
                7u64.wrapping_mul(GOLDEN_GAMMA).wrapping_neg(),
                u64::MAX,
            ] {
                let mut state = start;
                for _ in 0..500 {
                    for d in [Dispatch::chunked(), Dispatch::get()] {
                        let mut got = [0u64; GAP_LANES];
                        geometric_gaps(d, state, log_q, &mut got);
                        for (j, &gap) in got.iter().enumerate() {
                            let at = state.wrapping_add((j as u64).wrapping_mul(GOLDEN_GAMMA));
                            assert_eq!(gap, geometric_gap(splitmix64(at), log_q), "p {p}");
                        }
                    }
                    state = state.wrapping_add((GAP_LANES as u64).wrapping_mul(GOLDEN_GAMMA));
                }
            }
        }
    }

    /// The logarithm behind the AVX2 gaps is within `2⁻⁴⁴` relative of
    /// the platform's, on the exponent seams, at both ends of `(0, 1]`
    /// and over a million 53-bit uniforms.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fast_log_is_within_its_stated_bound() {
        let Some(token) = avx2::Avx2Token::probe() else {
            return;
        };
        let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
        let mut values = vec![1.0, 1.0 - UNIT53, UNIT53, 2.0 * UNIT53, 0.5, 0.25];
        for x in [sqrt_half, 0.5 * sqrt_half, 1e-10] {
            values.extend([
                x,
                f64::from_bits(x.to_bits() - 1),
                f64::from_bits(x.to_bits() + 1),
            ]);
        }
        values.extend((0..1u64 << 20).map(|i| 1.0 - (splitmix64(i) >> 11) as f64 * UNIT53));
        let mut worst = 0.0f64;
        for chunk in values.chunks(4) {
            let mut v = [1.0; 4];
            v[..chunk.len()].copy_from_slice(chunk);
            for (fast, x) in avx2::ln_lanes(token, v).into_iter().zip(v) {
                let exact = x.ln();
                if exact != 0.0 {
                    worst = worst.max(((fast - exact) / exact).abs());
                } else {
                    assert_eq!(fast, 0.0);
                }
            }
        }
        assert!(worst < 2f64.powi(-44), "worst relative error {worst:e}");
    }

    #[test]
    fn dispatch_is_memoized_and_labelled() {
        let a = Dispatch::get();
        let b = Dispatch::get();
        assert_eq!(a, b);
        assert!(["chunked", "avx2"].contains(&a.label()));
        assert_eq!(Dispatch::chunked().label(), "chunked");
        assert!(!Dispatch::chunked().is_accelerated());
    }
}
