//! # sss-xi — pseudo-random variable families for sketch-based estimation
//!
//! AGMS-style sketches summarize a relation as `S = Σᵢ fᵢ·ξᵢ`, where `ξ` is a
//! family of {+1, −1} random variables indexed by the (huge) key domain. The
//! estimator analysis only requires *limited* independence from the family:
//!
//! * **4-wise independence** suffices for the variance bounds of the AGMS
//!   size-of-join and self-join estimators (Alon, Matias & Szegedy, STOC'96).
//! * **2-wise (pairwise) independence** suffices for the bucket hashes used
//!   by F-AGMS (Count-Sketch).
//!
//! This crate provides the Carter–Wegman polynomial families over
//! GF(2⁶¹−1), the ones every sketch of *"Sketching Sampled Data Streams"*
//! (ICDE 2009) runs on:
//!
//! | Type | Construction | Independence | Role |
//! |---|---|---|---|
//! | [`Cw4`] | cubic polynomial | 4-wise | the ±1 signs ξ |
//! | [`Cw2Bucket`] | linear polynomial, `mod width` | 2-wise | F-AGMS buckets |
//! | [`Cw2`] | linear polynomial | 2-wise | a ±1 family too weak for AGMS |
//!
//! Every family is cheap to seed (a few machine words), deterministic given
//! its seed, and generates each `ξᵢ` *on demand* from the key — the defining
//! property that lets sketches summarize domains of size 2⁶⁴ in a handful of
//! counters. The batched evaluations run the runtime-dispatched
//! [`kernels`].
//!
//! The other constructions compared by Rusu & Dobra, *"Pseudo-random
//! number generation for sketch-based estimations"* (TODS 2007) — EH3,
//! BCH and tabulation — are not here: that comparison is the paper's
//! reference \[17\], not one of its results. Code naming them no longer
//! compiles:
//!
//! ```compile_fail
//! use sss_xi::Eh3; // removed: the sketches run on Cw4 signs
//! ```
//!
//! ```compile_fail
//! use sss_xi::Bch5; // removed: the sketches run on Cw4 signs
//! ```
//!
//! ```compile_fail
//! use sss_xi::Bch3; // removed: the sketches run on Cw4 signs
//! ```
//!
//! ```compile_fail
//! use sss_xi::gf2; // removed with BCH, its only user
//! ```
//!
//! ```compile_fail
//! use sss_xi::Tabulation; // removed: the sketches run on Cw4 signs and Cw2Bucket buckets
//! ```
//!
//! ```compile_fail
//! use sss_xi::RangeSummable; // removed with EH3, the one range-summable family
//! ```
//!
//! ```compile_fail
//! use sss_xi::FourWise; // removed: no bound used it; Cw4 is the 4-wise family
//! ```
//!
//! The unsigned bucket kernels went with Count-Min, their one sketch: every
//! row kernel carries a ±1 sign.
//!
//! ```compile_fail
//! use sss_xi::bucket_scatter; // removed with Count-Min; rows run signed_scatter
//! ```
//!
//! Both family traits are sealed: a type outside this crate cannot
//! implement them.
//!
//! ```compile_fail
//! use rand::Rng;
//! use sss_xi::SignFamily;
//!
//! struct Mine;
//!
//! impl SignFamily for Mine {
//!     fn coeffs(&self) -> &[u64] {
//!         &[1, 2, 3, 4]
//!     }
//!
//!     fn random<R: Rng + ?Sized>(_rng: &mut R) -> Self {
//!         Mine
//!     }
//! }
//! ```
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

pub mod codec;
pub mod cw;
pub mod family;
pub mod kernels;
pub mod prime;

pub use codec::{Codec, CodecError, Reader, Writer};
pub use cw::{Cw2, Cw2Bucket, Cw4};
pub use family::{BucketFamily, SignFamily};
pub use kernels::Dispatch;

/// The 4-wise-independent sign family every sketch defaults to: the
/// independence the paper's variance formulas (Propositions 7–8) assume.
pub type DefaultSign = Cw4;

/// The default pairwise-independent bucket hash used by F-AGMS.
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
