//! Vectorized batch kernels with runtime CPU dispatch.
//!
//! Every hot per-tuple operation in this workspace — Carter–Wegman sign
//! evaluation, the fused sign+bucket row scatter, EH3 parity, tabulation
//! lookups — is a pure function of `(seed, key)`, which makes the batch
//! versions embarrassingly data-parallel. This module centralizes those
//! batch loops in one place and provides two implementations per kernel:
//!
//! * a **chunked** path: fixed-width-8 array inner loops that LLVM can
//!   autovectorize (and that provide instruction-level parallelism even
//!   where it cannot), compiled for every target; and
//! * an **AVX2** path, compiled on every x86-64 build: explicit
//!   `std::arch` intrinsics in the single audited `avx2` submodule,
//!   selected *at runtime* via `is_x86_feature_detected!` so the same
//!   binary still runs correctly on x86-64 parts without AVX2.
//!
//! The selection is memoized in a [`Dispatch`] value; callers grab it once
//! per batch (an atomic load) and thread it through the kernels.
//!
//! # Bit-identity contract
//!
//! Every path — chunked and AVX2 alike — must produce results that are
//! **bit-identical** to the scalar per-key reference (`poly_eval` low-bit
//! signs, `Eh3::bit`, `Tabulation::hash`). Sketch state is compared
//! byte-for-byte across machines and across resumed test runs, so a kernel
//! that is merely "statistically equivalent" would silently break every
//! golden test the moment dispatch picks a different path. The AVX2 code
//! achieves this by performing literally the same reduction sequence as
//! the scalar field arithmetic (two lazy folds per product, one canonical
//! fold at the end), not a rearranged one.

use crate::prime::{horner_lanes_reduced, poly_eval, FixedMod, P61};

/// Number of keys processed per inner-loop iteration by the chunked kernels.
///
/// Eight independent Horner chains fill the multiplier pipeline about as
/// well as the register file allows on x86-64 and aarch64, and eight u64
/// lanes are exactly two 256-bit vectors for the AVX2 path, so both paths
/// share one chunking granularity (and therefore one tail-handling story).
pub const CHUNK: usize = 8;

/// Bit mask selecting the even-indexed bits (bit 0, 2, 4, …) — the EH3
/// quadratic form pairs bit `2j` with bit `2j+1`.
pub(crate) const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

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

/// Evaluate two polynomials at the same 8 keys, sharing the key reduction.
/// This is the inner step of the fused sign+bucket row scatter.
#[inline]
fn hash8_pair(
    d: Dispatch,
    sign_coeffs: &[u64],
    bucket_coeffs: &[u64],
    keys: &[u64; CHUNK],
) -> ([u64; CHUNK], [u64; CHUNK]) {
    match d.path {
        Path::Chunked => {
            let xs = keys.map(|k| k % P61);
            (
                horner_lanes_reduced(sign_coeffs, &xs),
                horner_lanes_reduced(bucket_coeffs, &xs),
            )
        }
        #[cfg(target_arch = "x86_64")]
        Path::Avx2(token) => avx2::horner8_pair(token, sign_coeffs, bucket_coeffs, keys),
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

/// Fill `out[i]` with the ±1 sign (low hash bit) of every key.
///
/// # Panics
///
/// Panics if `keys.len() != out.len()`.
pub fn sign_batch(d: Dispatch, coeffs: &[u64], keys: &[u64], out: &mut [i64]) {
    assert_eq!(
        keys.len(),
        out.len(),
        "sign_batch needs one output slot per key"
    );
    let mut buf = [0u64; 8];
    let Some(n) = reduced_coeffs(coeffs, &mut buf) else {
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = 1 - 2 * ((poly_eval(coeffs, k) & 1) as i64);
        }
        return;
    };
    let c = &buf[..n];
    let mut key_chunks = keys.chunks_exact(CHUNK);
    let mut out_chunks = out.chunks_exact_mut(CHUNK);
    for (kc, oc) in key_chunks.by_ref().zip(out_chunks.by_ref()) {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let h = hash8(d, c, ks);
        for (o, v) in oc.iter_mut().zip(h) {
            *o = 1 - 2 * ((v & 1) as i64);
        }
    }
    for (o, &k) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(key_chunks.remainder())
    {
        *o = 1 - 2 * ((poly_eval(c, k) & 1) as i64);
    }
}

/// Fill `out[i] = hash(keys[i]) % width` for a polynomial bucket family.
///
/// # Panics
///
/// Panics if `keys.len() != out.len()` or `width == 0`.
pub fn bucket_batch(d: Dispatch, coeffs: &[u64], width: usize, keys: &[u64], out: &mut [usize]) {
    assert_eq!(
        keys.len(),
        out.len(),
        "bucket_batch needs one output slot per key"
    );
    assert!(width > 0, "bucket width must be non-zero");
    let mut buf = [0u64; 8];
    let Some(n) = reduced_coeffs(coeffs, &mut buf) else {
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = (poly_eval(coeffs, k) % width as u64) as usize;
        }
        return;
    };
    let c = &buf[..n];
    let wm = FixedMod::new(width as u64);
    let mut key_chunks = keys.chunks_exact(CHUNK);
    let mut out_chunks = out.chunks_exact_mut(CHUNK);
    for (kc, oc) in key_chunks.by_ref().zip(out_chunks.by_ref()) {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let h = hash8(d, c, ks);
        for (o, v) in oc.iter_mut().zip(h) {
            *o = wm.rem(v) as usize;
        }
    }
    for (o, &k) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(key_chunks.remainder())
    {
        *o = wm.rem(poly_eval(c, k)) as usize;
    }
}

// ---------------------------------------------------------------------------
// Fused sign+bucket row scatter kernels
// ---------------------------------------------------------------------------

/// Fused F-AGMS row kernel: for every key, add `sign(key)` (the low bit of
/// the `sign_coeffs` polynomial) into `counters[hash(key) % width]` (the
/// `bucket_coeffs` polynomial). One pass over the keys evaluates both
/// polynomials on shared reduced lanes and scatters immediately — no
/// intermediate sign/bucket buffers — and the per-key `% width` divide is
/// replaced by a [`FixedMod`] multiply.
///
/// Bit-identical to the per-key `counters[bucket(k, width)] += sign(k)`
/// loop: hashes are canonical, `FixedMod` is an exact remainder, and
/// integer counter increments commute.
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
    let mut sbuf = [0u64; 8];
    let mut bbuf = [0u64; 8];
    let (Some(sn), Some(bn)) = (
        reduced_coeffs(sign_coeffs, &mut sbuf),
        reduced_coeffs(bucket_coeffs, &mut bbuf),
    ) else {
        for &k in keys {
            let s = 1 - 2 * ((poly_eval(sign_coeffs, k) & 1) as i64);
            counters[(poly_eval(bucket_coeffs, k) % width as u64) as usize] += s;
        }
        return;
    };
    let (sc, bc) = (&sbuf[..sn], &bbuf[..bn]);
    let wm = FixedMod::new(width as u64);
    let mut chunks = keys.chunks_exact(CHUNK);
    for kc in chunks.by_ref() {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let (hs, hb) = hash8_pair(d, sc, bc, ks);
        for l in 0..CHUNK {
            counters[wm.rem(hb[l]) as usize] += 1 - 2 * ((hs[l] & 1) as i64);
        }
    }
    for &k in chunks.remainder() {
        let s = 1 - 2 * ((poly_eval(sc, k) & 1) as i64);
        counters[wm.rem(poly_eval(bc, k)) as usize] += s;
    }
}

/// Count-carrying twin of [`signed_scatter`]:
/// `counters[hash(key) % width] += count·sign(key)` per `(key, count)`.
///
/// # Panics
///
/// Panics if `width == 0` or `counters.len() < width`.
pub fn signed_scatter_counts(
    d: Dispatch,
    sign_coeffs: &[u64],
    bucket_coeffs: &[u64],
    width: usize,
    items: &[(u64, i64)],
    counters: &mut [i64],
) {
    assert!(width > 0, "bucket width must be non-zero");
    assert!(counters.len() >= width, "counter row narrower than width");
    let mut sbuf = [0u64; 8];
    let mut bbuf = [0u64; 8];
    let (Some(sn), Some(bn)) = (
        reduced_coeffs(sign_coeffs, &mut sbuf),
        reduced_coeffs(bucket_coeffs, &mut bbuf),
    ) else {
        for &(k, count) in items {
            let s = 1 - 2 * ((poly_eval(sign_coeffs, k) & 1) as i64);
            counters[(poly_eval(bucket_coeffs, k) % width as u64) as usize] += s * count;
        }
        return;
    };
    let (sc, bc) = (&sbuf[..sn], &bbuf[..bn]);
    let wm = FixedMod::new(width as u64);
    let mut chunks = items.chunks_exact(CHUNK);
    for ic in chunks.by_ref() {
        let ks: [u64; CHUNK] = std::array::from_fn(|l| ic[l].0);
        let (hs, hb) = hash8_pair(d, sc, bc, &ks);
        for l in 0..CHUNK {
            counters[wm.rem(hb[l]) as usize] += (1 - 2 * ((hs[l] & 1) as i64)) * ic[l].1;
        }
    }
    for &(k, count) in chunks.remainder() {
        let s = 1 - 2 * ((poly_eval(sc, k) & 1) as i64);
        counters[wm.rem(poly_eval(bc, k)) as usize] += s * count;
    }
}

/// Fused Count-Min row kernel: `counters[hash(key) % width] += 1` per key.
/// Same lane evaluation and [`FixedMod`] remainder as [`signed_scatter`],
/// minus the sign polynomial.
///
/// # Panics
///
/// Panics if `width == 0` or `counters.len() < width`.
pub fn bucket_scatter(
    d: Dispatch,
    bucket_coeffs: &[u64],
    width: usize,
    keys: &[u64],
    counters: &mut [i64],
) {
    assert!(width > 0, "bucket width must be non-zero");
    assert!(counters.len() >= width, "counter row narrower than width");
    let mut bbuf = [0u64; 8];
    let Some(bn) = reduced_coeffs(bucket_coeffs, &mut bbuf) else {
        for &k in keys {
            counters[(poly_eval(bucket_coeffs, k) % width as u64) as usize] += 1;
        }
        return;
    };
    let bc = &bbuf[..bn];
    let wm = FixedMod::new(width as u64);
    let mut chunks = keys.chunks_exact(CHUNK);
    for kc in chunks.by_ref() {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let hb = hash8(d, bc, ks);
        for v in hb {
            counters[wm.rem(v) as usize] += 1;
        }
    }
    for &k in chunks.remainder() {
        counters[wm.rem(poly_eval(bc, k)) as usize] += 1;
    }
}

/// Count-carrying twin of [`bucket_scatter`]:
/// `counters[hash(key) % width] += count` per `(key, count)`.
///
/// # Panics
///
/// Panics if `width == 0` or `counters.len() < width`.
pub fn bucket_scatter_counts(
    d: Dispatch,
    bucket_coeffs: &[u64],
    width: usize,
    items: &[(u64, i64)],
    counters: &mut [i64],
) {
    assert!(width > 0, "bucket width must be non-zero");
    assert!(counters.len() >= width, "counter row narrower than width");
    let mut bbuf = [0u64; 8];
    let Some(bn) = reduced_coeffs(bucket_coeffs, &mut bbuf) else {
        for &(k, count) in items {
            counters[(poly_eval(bucket_coeffs, k) % width as u64) as usize] += count;
        }
        return;
    };
    let bc = &bbuf[..bn];
    let wm = FixedMod::new(width as u64);
    let mut chunks = items.chunks_exact(CHUNK);
    for ic in chunks.by_ref() {
        let ks: [u64; CHUNK] = std::array::from_fn(|l| ic[l].0);
        let hb = hash8(d, bc, &ks);
        for l in 0..CHUNK {
            counters[wm.rem(hb[l]) as usize] += ic[l].1;
        }
    }
    for &(k, count) in chunks.remainder() {
        counters[wm.rem(poly_eval(bc, k)) as usize] += count;
    }
}

// ---------------------------------------------------------------------------
// EH3 kernels
// ---------------------------------------------------------------------------

/// The EH3 bit `⟨s, k⟩ ⊕ q(k)` (everything except the `s₀` flip) as a
/// single masked parity: `parity(a) ⊕ parity(b) = parity(a ⊕ b)`, so the
/// linear term `⟨s, k⟩ = parity(s & k)` and the quadratic form
/// `q(k) = parity(k & (k≫1) & EVEN_BITS)` fuse into one `count_ones`.
#[inline]
fn eh3_t(s: u64, k: u64) -> u64 {
    ((s & k) ^ (k & (k >> 1) & EVEN_BITS)).count_ones() as u64 & 1
}

/// `t(k)` for 8 keys on whichever path `d` resolved to.
#[inline]
fn eh3_t8(d: Dispatch, s: u64, keys: &[u64; CHUNK]) -> [u64; CHUNK] {
    match d.path {
        Path::Chunked => {
            let mut t = [0u64; CHUNK];
            for l in 0..CHUNK {
                t[l] = eh3_t(s, keys[l]);
            }
            t
        }
        #[cfg(target_arch = "x86_64")]
        Path::Avx2(token) => avx2::eh3_t8(token, s, keys),
    }
}

/// `Σᵢ sign(keys[i])` for the EH3 seed `(s₀, s)`.
///
/// The `s₀` flip is hoisted out of the loop entirely: if `o` keys have
/// `t(k) = 1` among `n`, the number of −1 signs is `o` when `s₀ = 0` and
/// `n − o` when `s₀ = 1`.
pub fn eh3_sign_sum(d: Dispatch, s0: bool, s: u64, keys: &[u64]) -> i64 {
    let mut t_odd = 0u64;
    let mut chunks = keys.chunks_exact(CHUNK);
    for kc in chunks.by_ref() {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let t = eh3_t8(d, s, ks);
        for v in t {
            t_odd += v;
        }
    }
    for &k in chunks.remainder() {
        t_odd += eh3_t(s, k);
    }
    let n = keys.len() as u64;
    let minus = if s0 { n - t_odd } else { t_odd };
    n as i64 - 2 * minus as i64
}

/// Forced-portable [`eh3_sign_sum`].
pub fn eh3_sign_sum_chunked(s0: bool, s: u64, keys: &[u64]) -> i64 {
    eh3_sign_sum(Dispatch::chunked(), s0, s, keys)
}

/// `Σᵢ countᵢ·sign(keyᵢ)` for the EH3 seed `(s₀, s)`.
pub fn eh3_sign_dot(d: Dispatch, s0: bool, s: u64, items: &[(u64, i64)]) -> i64 {
    let flip = s0 as u64;
    let mut dot = 0i64;
    let mut chunks = items.chunks_exact(CHUNK);
    for ic in chunks.by_ref() {
        let ks: [u64; CHUNK] = std::array::from_fn(|l| ic[l].0);
        let t = eh3_t8(d, s, &ks);
        for l in 0..CHUNK {
            dot += (1 - 2 * ((t[l] ^ flip) as i64)) * ic[l].1;
        }
    }
    for &(k, count) in chunks.remainder() {
        dot += (1 - 2 * ((eh3_t(s, k) ^ flip) as i64)) * count;
    }
    dot
}

/// Forced-portable [`eh3_sign_dot`].
pub fn eh3_sign_dot_chunked(s0: bool, s: u64, items: &[(u64, i64)]) -> i64 {
    eh3_sign_dot(Dispatch::chunked(), s0, s, items)
}

/// Fill `out[i]` with the EH3 ±1 sign of every key.
///
/// # Panics
///
/// Panics if `keys.len() != out.len()`.
pub fn eh3_sign_batch(d: Dispatch, s0: bool, s: u64, keys: &[u64], out: &mut [i64]) {
    assert_eq!(
        keys.len(),
        out.len(),
        "sign_batch needs one output slot per key"
    );
    let flip = s0 as u64;
    let mut key_chunks = keys.chunks_exact(CHUNK);
    let mut out_chunks = out.chunks_exact_mut(CHUNK);
    for (kc, oc) in key_chunks.by_ref().zip(out_chunks.by_ref()) {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let t = eh3_t8(d, s, ks);
        for (o, v) in oc.iter_mut().zip(t) {
            *o = 1 - 2 * ((v ^ flip) as i64);
        }
    }
    for (o, &k) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(key_chunks.remainder())
    {
        *o = 1 - 2 * ((eh3_t(s, k) ^ flip) as i64);
    }
}

// ---------------------------------------------------------------------------
// Tabulation kernels
// ---------------------------------------------------------------------------

/// Hash 8 keys through the tabulation tables with table-major traversal:
/// the inner 8-lane loop reads one table per step, so the 2 KiB table stays
/// hot in L1 while eight independent XOR chains hide the load latency.
#[inline]
fn tab_hash8(tables: &[[u64; 256]; 8], keys: &[u64; CHUNK]) -> [u64; CHUNK] {
    let mut acc = [0u64; CHUNK];
    for (b, table) in tables.iter().enumerate() {
        for l in 0..CHUNK {
            acc[l] ^= table[((keys[l] >> (8 * b)) & 0xFF) as usize];
        }
    }
    acc
}

/// Scalar tabulation hash, byte-serial; the tail/reference evaluation.
#[inline]
fn tab_hash1(tables: &[[u64; 256]; 8], key: u64) -> u64 {
    let mut acc = 0u64;
    for (b, table) in tables.iter().enumerate() {
        acc ^= table[((key >> (8 * b)) & 0xFF) as usize];
    }
    acc
}

/// `Σᵢ sign(keys[i])` for a tabulation family (sign = low hash bit).
///
/// There is no SIMD path: without AVX2 gather (which loses to L1 loads at
/// these table sizes) the lookups are irreducibly scalar, so the chunked
/// form — which pipelines eight independent lookup chains — is the fast
/// path on every CPU.
pub fn tab_sign_sum(tables: &[[u64; 256]; 8], keys: &[u64]) -> i64 {
    let mut odd = 0u64;
    let mut chunks = keys.chunks_exact(CHUNK);
    for kc in chunks.by_ref() {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let h = tab_hash8(tables, ks);
        for v in h {
            odd += v & 1;
        }
    }
    for &k in chunks.remainder() {
        odd += tab_hash1(tables, k) & 1;
    }
    keys.len() as i64 - 2 * odd as i64
}

/// `Σᵢ countᵢ·sign(keyᵢ)` for a tabulation family.
pub fn tab_sign_dot(tables: &[[u64; 256]; 8], items: &[(u64, i64)]) -> i64 {
    let mut dot = 0i64;
    let mut chunks = items.chunks_exact(CHUNK);
    for ic in chunks.by_ref() {
        let ks: [u64; CHUNK] = std::array::from_fn(|l| ic[l].0);
        let h = tab_hash8(tables, &ks);
        for l in 0..CHUNK {
            dot += (1 - 2 * ((h[l] & 1) as i64)) * ic[l].1;
        }
    }
    for &(k, count) in chunks.remainder() {
        dot += (1 - 2 * ((tab_hash1(tables, k) & 1) as i64)) * count;
    }
    dot
}

/// Fill `out[i]` with the tabulation ±1 sign of every key.
///
/// # Panics
///
/// Panics if `keys.len() != out.len()`.
pub fn tab_sign_batch(tables: &[[u64; 256]; 8], keys: &[u64], out: &mut [i64]) {
    assert_eq!(
        keys.len(),
        out.len(),
        "sign_batch needs one output slot per key"
    );
    let mut key_chunks = keys.chunks_exact(CHUNK);
    let mut out_chunks = out.chunks_exact_mut(CHUNK);
    for (kc, oc) in key_chunks.by_ref().zip(out_chunks.by_ref()) {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let h = tab_hash8(tables, ks);
        for (o, v) in oc.iter_mut().zip(h) {
            *o = 1 - 2 * ((v & 1) as i64);
        }
    }
    for (o, &k) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(key_chunks.remainder())
    {
        *o = 1 - 2 * ((tab_hash1(tables, k) & 1) as i64);
    }
}

/// Fill `out[i] = (hash(keys[i]) >> 1) % width` — the tabulation bucket
/// derivation (bits above the sign bit, plain hardware remainder because
/// the 63-bit shifted hash exceeds [`FixedMod`]'s 2⁶¹ input bound).
///
/// # Panics
///
/// Panics if `keys.len() != out.len()` or `width == 0`.
pub fn tab_bucket_batch(tables: &[[u64; 256]; 8], width: usize, keys: &[u64], out: &mut [usize]) {
    assert_eq!(
        keys.len(),
        out.len(),
        "bucket_batch needs one output slot per key"
    );
    assert!(width > 0, "bucket width must be non-zero");
    let w = width as u64;
    let mut key_chunks = keys.chunks_exact(CHUNK);
    let mut out_chunks = out.chunks_exact_mut(CHUNK);
    for (kc, oc) in key_chunks.by_ref().zip(out_chunks.by_ref()) {
        let ks: &[u64; CHUNK] = kc.try_into().expect("chunks_exact yields full chunks");
        let h = tab_hash8(tables, ks);
        for (o, v) in oc.iter_mut().zip(h) {
            *o = ((v >> 1) % w) as usize;
        }
    }
    for (o, &k) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(key_chunks.remainder())
    {
        *o = ((tab_hash1(tables, k) >> 1) % w) as usize;
    }
}

// ---------------------------------------------------------------------------
// AVX2 path (the single audited unsafe module)
// ---------------------------------------------------------------------------

/// Explicit AVX2 implementations of the hot kernels.
///
/// This is the only module in the workspace that uses `unsafe` (scoped
/// `#[allow]` under the crate-level `#![deny(unsafe_code)]`), and the only
/// unsafety in it is (a) calling `#[target_feature(enable = "avx2")]`
/// functions and (b) unaligned vector load/store through raw pointers.
/// Reachability of (a) is gated by [`Avx2Token`], which can only be
/// constructed after `is_x86_feature_detected!("avx2")` returns true.
///
/// Bit-identity with the scalar field arithmetic is by construction: every
/// 64×64→128 product is reduced with the same two lazy folds as
/// `reduce128_partial` and canonicalized with the same two folds plus
/// conditional subtract as `reduce128`, so each lane computes literally
/// the same u64 sequence as one scalar Horner chain.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2 {
    use super::CHUNK;
    use crate::prime::P61;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_andnot_si256, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_mul_epu32, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// Proof token that the running CPU supports AVX2.
    ///
    /// The only constructor is [`Avx2Token::probe`], so holding a token is
    /// a compile-time-checkable witness that the `target_feature` calls
    /// below are sound on this machine.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Avx2Token(());

    impl Avx2Token {
        /// `Some` iff the CPU reports AVX2 support.
        pub(crate) fn probe() -> Option<Self> {
            if std::arch::is_x86_feature_detected!("avx2") {
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

    /// Canonicalize 4 lanes `< 2⁶³` to `[0, P61)`: the same two folds plus
    /// conditional subtract as the scalar `reduce128` tail.
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
        _mm256_sub_epi64_portable(f2, _mm256_andnot_si256(lt, p61))
    }

    /// `_mm256_sub_epi64` under a name that records why it is here (the
    /// conditional-subtract tail of the canonical reduction).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn _mm256_sub_epi64_portable(a: __m256i, b: __m256i) -> __m256i {
        std::arch::x86_64::_mm256_sub_epi64(a, b)
    }

    /// Reduce 4 lanes of arbitrary u64 keys to canonical residues mod
    /// 2⁶¹−1 — the vector twin of the scalar `k % P61` key preparation.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (call only while holding an [`Avx2Token`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn keys_mod_p(v: __m256i) -> __m256i {
        canonicalize(v)
    }

    /// One 8-key Horner evaluation across two 4-lane registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `keys` must point at 8 readable u64s.
    #[target_feature(enable = "avx2")]
    unsafe fn horner8_impl(coeffs: &[u64], keys: &[u64; CHUNK]) -> [u64; CHUNK] {
        let mut out = [0u64; CHUNK];
        let Some((&last, rest)) = coeffs.split_last() else {
            return out;
        };
        // SAFETY: `keys` is a [u64; 8], so both 32-byte unaligned loads are
        // in bounds; loadu has no alignment requirement.
        let k0 = _mm256_loadu_si256(keys.as_ptr().cast());
        let k1 = _mm256_loadu_si256(keys.as_ptr().add(4).cast());
        let x0 = keys_mod_p(k0);
        let x1 = keys_mod_p(k1);
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

    /// Two-polynomial variant sharing the reduced keys.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `keys` must point at 8 readable u64s.
    #[target_feature(enable = "avx2")]
    unsafe fn horner8_pair_impl(
        sc: &[u64],
        bc: &[u64],
        keys: &[u64; CHUNK],
    ) -> ([u64; CHUNK], [u64; CHUNK]) {
        // SAFETY: `keys` is a [u64; 8]; see `horner8_impl`.
        let k0 = _mm256_loadu_si256(keys.as_ptr().cast());
        let k1 = _mm256_loadu_si256(keys.as_ptr().add(4).cast());
        let x0 = keys_mod_p(k0);
        let x1 = keys_mod_p(k1);
        let eval = |coeffs: &[u64]| -> [u64; CHUNK] {
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
            // SAFETY: `out` is a [u64; 8]; see `horner8_impl`.
            _mm256_storeu_si256(out.as_mut_ptr().cast(), canonicalize(a0));
            _mm256_storeu_si256(out.as_mut_ptr().add(4).cast(), canonicalize(a1));
            out
        };
        (eval(sc), eval(bc))
    }

    /// EH3 `t(k)` bits for 8 keys: mask, XOR-fuse the linear and quadratic
    /// parts, then a log-fold parity (baseline x86-64 has no vector
    /// popcount; parity only needs the XOR of all bits, which six
    /// shift-XOR steps deliver per lane).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `keys` must point at 8 readable u64s.
    #[target_feature(enable = "avx2")]
    unsafe fn eh3_t8_impl(s: u64, keys: &[u64; CHUNK]) -> [u64; CHUNK] {
        let sv = _mm256_set1_epi64x(s as i64);
        let even = _mm256_set1_epi64x(super::EVEN_BITS as i64);
        let one = _mm256_set1_epi64x(1);
        let mut out = [0u64; CHUNK];
        for half in 0..2 {
            // SAFETY: `keys`/`out` are [u64; 8]; each half touches 4 lanes.
            let k = _mm256_loadu_si256(keys.as_ptr().add(4 * half).cast());
            let quad = _mm256_and_si256(_mm256_and_si256(k, _mm256_srli_epi64(k, 1)), even);
            let mut m = _mm256_xor_si256(_mm256_and_si256(sv, k), quad);
            // Parity via xor-fold: after folding the top half into the
            // bottom six times, bit 0 holds the XOR of all 64 bits.
            m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 32));
            m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 16));
            m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 8));
            m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 4));
            m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 2));
            m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 1));
            _mm256_storeu_si256(
                out.as_mut_ptr().add(4 * half).cast(),
                _mm256_and_si256(m, one),
            );
        }
        out
    }

    /// Safe-to-call wrapper: the token witnesses AVX2 support.
    #[inline]
    pub(crate) fn horner8(_token: Avx2Token, coeffs: &[u64], keys: &[u64; CHUNK]) -> [u64; CHUNK] {
        // SAFETY: an Avx2Token exists only if is_x86_feature_detected!
        // ("avx2") returned true, so the target-feature call is sound, and
        // the references satisfy the pointer contracts above.
        unsafe { horner8_impl(coeffs, keys) }
    }

    /// Safe-to-call wrapper: the token witnesses AVX2 support.
    #[inline]
    pub(crate) fn horner8_pair(
        _token: Avx2Token,
        sc: &[u64],
        bc: &[u64],
        keys: &[u64; CHUNK],
    ) -> ([u64; CHUNK], [u64; CHUNK]) {
        // SAFETY: as in `horner8`.
        unsafe { horner8_pair_impl(sc, bc, keys) }
    }

    /// Safe-to-call wrapper: the token witnesses AVX2 support.
    #[inline]
    pub(crate) fn eh3_t8(_token: Avx2Token, s: u64, keys: &[u64; CHUNK]) -> [u64; CHUNK] {
        // SAFETY: as in `horner8`.
        unsafe { eh3_t8_impl(s, keys) }
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
                    let mut out = vec![0i64; len];
                    sign_batch(d, coeffs, &keys[..len], &mut out);
                    for (i, &s) in out.iter().enumerate() {
                        assert_eq!(s, 1 - 2 * ((poly_eval(coeffs, keys[i]) & 1) as i64));
                    }
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
                    signed_scatter_counts(d, sc, bc, width, &items[..len], &mut got);
                    assert_eq!(got, want, "signed counts width {width} len {len}");

                    let mut want = vec![0i64; width];
                    for &k in &keys[..len] {
                        want[(poly_eval(bc, k) % width as u64) as usize] += 1;
                    }
                    let mut got = vec![0i64; width];
                    bucket_scatter(d, bc, width, &keys[..len], &mut got);
                    assert_eq!(got, want, "bucket width {width} len {len}");

                    let mut want = vec![0i64; width];
                    for &(k, c) in &items[..len] {
                        want[(poly_eval(bc, k) % width as u64) as usize] += c;
                    }
                    let mut got = vec![0i64; width];
                    bucket_scatter_counts(d, bc, width, &items[..len], &mut got);
                    assert_eq!(got, want, "bucket counts width {width} len {len}");
                }
            }
        }
    }

    /// The fused single-popcount `t(k)` must equal the two-popcount
    /// definition `⟨s,k⟩ ⊕ q(k)` bit for bit.
    #[test]
    fn eh3_fused_parity_matches_definition() {
        let seeds = [0u64, 1, 0b1010, 0xDEAD_BEEF_CAFE_F00D, u64::MAX];
        for &s in &seeds {
            for &k in &test_keys() {
                let linear = (s & k).count_ones() as u64 & 1;
                let quad = (k & (k >> 1) & EVEN_BITS).count_ones() as u64 & 1;
                assert_eq!(eh3_t(s, k), linear ^ quad, "s={s:#x} k={k:#x}");
            }
        }
    }

    #[test]
    fn eh3_kernels_match_scalar_reference() {
        let keys = test_keys();
        let items = test_items(&keys);
        let seeds = [(false, 0u64), (true, 0b11), (false, u64::MAX), (true, 42)];
        for d in [Dispatch::chunked(), Dispatch::get()] {
            for &(s0, s) in &seeds {
                let f = crate::Eh3::from_seed(s0, s);
                use crate::SignFamily;
                for len in [0usize, 1, 7, 8, 9, 16, 17, keys.len()] {
                    let want_sum: i64 = keys[..len].iter().map(|&k| f.sign(k)).sum();
                    assert_eq!(eh3_sign_sum(d, s0, s, &keys[..len]), want_sum, "len {len}");
                    let want_dot: i64 = items[..len].iter().map(|&(k, c)| c * f.sign(k)).sum();
                    assert_eq!(eh3_sign_dot(d, s0, s, &items[..len]), want_dot, "len {len}");
                    let mut out = vec![0i64; len];
                    eh3_sign_batch(d, s0, s, &keys[..len], &mut out);
                    for (i, &v) in out.iter().enumerate() {
                        assert_eq!(v, f.sign(keys[i]), "len {len} index {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn tab_kernels_match_scalar_reference() {
        use crate::{BucketFamily, SignFamily, Tabulation};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1234);
        let t = <Tabulation as SignFamily>::random(&mut rng);
        let keys = test_keys();
        let items = test_items(&keys);
        for len in [0usize, 1, 7, 8, 9, keys.len()] {
            let want_sum: i64 = keys[..len].iter().map(|&k| t.sign(k)).sum();
            assert_eq!(tab_sign_sum(&t.tables, &keys[..len]), want_sum, "len {len}");
            let want_dot: i64 = items[..len].iter().map(|&(k, c)| c * t.sign(k)).sum();
            assert_eq!(tab_sign_dot(&t.tables, &items[..len]), want_dot);
            let mut out = vec![0i64; len];
            tab_sign_batch(&t.tables, &keys[..len], &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, t.sign(keys[i]));
            }
            for width in [1usize, 3, 5000] {
                let mut out = vec![0usize; len];
                tab_bucket_batch(&t.tables, width, &keys[..len], &mut out);
                for (i, &b) in out.iter().enumerate() {
                    assert_eq!(b, t.bucket(keys[i], width), "width {width}");
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
