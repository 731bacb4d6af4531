//! # sss-xi — pseudo-random variable families for sketch-based estimation
//!
//! AGMS-style sketches summarize a relation as `S = Σᵢ fᵢ·ξᵢ`, where `ξ` is a
//! family of {+1, −1} random variables indexed by the (huge) key domain. The
//! estimator analysis only requires *limited* independence from the family:
//!
//! * **4-wise independence** suffices for the variance bounds of the AGMS
//!   size-of-join and self-join estimators (Alon, Matias & Szegedy, STOC'96).
//! * **2-wise (pairwise) independence** suffices for the bucket hashes used
//!   by F-AGMS (Count-Sketch) and Count-Min.
//!
//! This crate provides the generator constructions studied in Rusu & Dobra,
//! *"Pseudo-random number generation for sketch-based estimations"* (TODS
//! 2007), which is the substrate used by the experimental testbed of
//! *"Sketching Sampled Data Streams"* (ICDE 2009):
//!
//! | Type | Construction | Independence |
//! |---|---|---|
//! | [`Cw2`] | linear polynomial over GF(2⁶¹−1) | 2-wise |
//! | [`Cw4`] | cubic polynomial over GF(2⁶¹−1) | 4-wise |
//! | [`Bch3`] | dual extended-Hamming parity (`s₀ ⊕ ⟨s₁, i⟩`) | 3-wise |
//! | [`Eh3`] | extended Hamming code parity + quadratic form | 3-wise, **range-summable** |
//! | [`Bch5`] | dual BCH code parity (`s₀ ⊕ s₁·i ⊕ s₂·i³` over GF(2⁶⁴)) | 5-wise |
//! | [`Tabulation`] | simple tabulation hashing | 3-wise (≈4-wise behaviour) |
//!
//! Every family is cheap to seed (a few machine words), deterministic given
//! its seed, and generates each `ξᵢ` *on demand* from the key — the defining
//! property that lets sketches summarize domains of size 2⁶⁴ in a handful of
//! counters.
//!
//! ## Example
//!
//! ```
//! use sss_xi::{Cw4, SignFamily};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let xi = Cw4::random(&mut rng);
//! let s: i64 = (0u64..1000).map(|key| xi.sign(key)).sum();
//! // A balanced family keeps the sum near zero.
//! assert!(s.abs() < 250);
//! ```

// `deny` instead of `forbid`: the one audited AVX2 module in `kernels`
// carries a scoped `#[allow(unsafe_code)]` (compiled on x86-64 only);
// everything else in the crate remains statically unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bch;
pub mod codec;
pub mod cw;
pub mod eh3;
pub mod family;
pub mod gf2;
pub mod kernels;
pub mod prime;
pub mod tabulation;

pub use bch::{Bch3, Bch5};
pub use codec::{Codec, CodecError, Reader, Writer};
pub use cw::{
    bucket_scatter, bucket_scatter_counts, signed_scatter, signed_scatter_counts, Cw2, Cw2Bucket,
    Cw4,
};
pub use eh3::Eh3;
pub use family::{BucketFamily, FourWise, RangeSummable, SignFamily};
pub use kernels::Dispatch;
pub use tabulation::Tabulation;

/// The default 4-wise-independent sign family used throughout the workspace.
///
/// CW4 is the only construction here with a *proven* 4-wise guarantee and a
/// branch-free evaluation, which makes it the safe default; swap in [`Eh3`]
/// or [`Bch5`] when update speed matters more than the formal guarantee (see
/// the `xi_families` Criterion bench for the trade-off on your machine).
pub type DefaultSign = Cw4;

/// The default pairwise-independent bucket hash used by F-AGMS and Count-Min.
pub type DefaultBucket = Cw2Bucket;

/// SplitMix64's increment: `2⁶⁴/φ`, rounded to odd.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 (Steele, Lea & Flood): add [`GOLDEN_GAMMA`], then the
/// full-avalanche finalizer. The workspace's one 64-bit mixer — HLL
/// hashing, KLL's positional coins, wire fingerprints, hash partitioning,
/// synthetic keys, and the sampler's counter generator all call this.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
