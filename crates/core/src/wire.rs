//! The snapshot wire format: a self-describing JSON envelope plus the
//! fingerprint hash every [`Portable`](crate::Portable) implementation
//! builds on.
//!
//! Layout of every payload:
//!
//! ```json
//! { "kind": "fagms", "format": 1, "fingerprint": 1234, "body": { ... } }
//! ```
//!
//! The head fields come first so a receiver can [`peek`] them — route,
//! version-check, and fingerprint-check a payload — without deserializing
//! the body (the deserializer ignores unknown fields, so `Head` reads the
//! same bytes the private `Envelope` does). JSON was chosen over a binary format
//! deliberately: the vendored serde backend supports it natively, payloads
//! are debuggable with standard tooling, and snapshot exchange is not a
//! hot path — the hot read path ships *slim* payloads whose size is tens
//! of lanes, not the fat counter matrix.
//!
//! Two invariants every wire representation in this crate maintains:
//!
//! * **Determinism** — encoding a given summary state yields one byte
//!   string (hash maps are serialized in sorted key order), so round-trip
//!   tests can pin bytes and replica refreshes can be deduplicated by
//!   comparison.
//! * **Finite floats** — the JSON writer rejects NaN/±∞, so any `f64`
//!   that may be non-finite (estimate variances) travels as its IEEE-754
//!   bit pattern via [`bits_of`]/[`f64_of`].

use crate::error::{Error, Result};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use sss_xi::splitmix64;

/// The envelope head: everything a receiver needs before committing to a
/// body decode.
///
/// Also serializable on its own (see [`encode_head`]): the network ingest
/// handshake ships a body-less head so two processes can agree on
/// kind/format/fingerprint before any tuple crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Head {
    /// The summary kind tag ([`Portable::KIND`](crate::Portable::KIND)).
    pub kind: String,
    /// The wire format version
    /// ([`Portable::FORMAT`](crate::Portable::FORMAT)).
    pub format: u32,
    /// The configuration fingerprint
    /// ([`Portable::fingerprint`](crate::Portable::fingerprint)).
    pub fingerprint: u64,
}

/// A full envelope around a body `T`.
#[derive(Debug, Serialize, Deserialize)]
struct Envelope<T> {
    kind: String,
    format: u32,
    fingerprint: u64,
    body: T,
}

/// Serialize a body-less [`Head`] — the network handshake payload.
///
/// The bytes parse back through [`peek`] (the deserializer never looks
/// for a body), so a handshake receiver routes and fingerprint-checks a
/// connection with exactly the machinery it already uses on snapshot
/// files: one head codec, two transports.
///
/// # Errors
///
/// [`Error::Wire`] if the serializer refuses the head (it cannot — kept
/// for signature symmetry with [`encode_envelope`]).
pub fn encode_head(kind: &str, format: u32, fingerprint: u64) -> Result<Vec<u8>> {
    let head = Head {
        kind: kind.to_string(),
        format,
        fingerprint,
    };
    serde_json::to_string(&head)
        .map(String::into_bytes)
        .map_err(|e| Error::Wire {
            detail: format!("handshake head failed to serialize: {e}"),
        })
}

/// Read the head of a payload without decoding its body.
///
/// # Errors
///
/// [`Error::Wire`] if the bytes are not a valid envelope.
pub fn peek(bytes: &[u8]) -> Result<Head> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::Wire {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| Error::Wire {
        detail: format!("malformed envelope head: {e}"),
    })
}

/// Wrap `body` in an envelope and serialize it.
///
/// # Errors
///
/// [`Error::Wire`] if the serializer refuses the body (non-finite floats
/// must be pre-converted with [`bits_of`]).
pub fn encode_envelope<T: Serialize>(
    kind: &'static str,
    format: u32,
    fingerprint: u64,
    body: T,
) -> Result<Vec<u8>> {
    let envelope = Envelope {
        kind: kind.to_string(),
        format,
        fingerprint,
        body,
    };
    serde_json::to_string(&envelope)
        .map(String::into_bytes)
        .map_err(|e| Error::Wire {
            detail: format!("{kind} body failed to serialize: {e}"),
        })
}

/// Deserialize an envelope, validating kind and format, and return its
/// body.
///
/// # Errors
///
/// [`Error::Wire`] on malformed bytes, [`Error::WireMismatch`] when the
/// payload carries a different kind or format version.
pub fn decode_envelope<T: DeserializeOwned>(
    bytes: &[u8],
    kind: &'static str,
    format: u32,
) -> Result<T> {
    let head = peek(bytes)?;
    if head.kind != kind || head.format != format {
        return Err(Error::WireMismatch {
            expected: format!("{kind} v{format}"),
            found: format!("{} v{}", head.kind, head.format),
        });
    }
    let text = std::str::from_utf8(bytes).map_err(|e| Error::Wire {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    let envelope: Envelope<T> = serde_json::from_str(text).map_err(|e| Error::Wire {
        detail: format!("{kind} body failed to decode: {e}"),
    })?;
    Ok(envelope.body)
}

/// The `f64` → wire representation: IEEE-754 bits, so NaN/±∞ survive the
/// JSON writer and values round-trip exactly.
pub fn bits_of(value: f64) -> u64 {
    value.to_bits()
}

/// Inverse of [`bits_of`].
pub fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// An order-sensitive fingerprint combinator: fold every word of a
/// summary's merge-relevant configuration (schema ids, dimensions, seeds,
/// precision) through a splitmix64 chain. Deliberately *not* a secure
/// hash — a 64-bit accidental-collision guard on configuration identity,
/// in the spirit of the schema `id` fields.
pub fn fingerprint(words: &[u64]) -> u64 {
    let mut acc = splitmix64(0x5353_5320_5749_5245); // "SSS WIRE"
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

/// A violation of the length-prefixed binary ingest framing — the typed
/// protocol errors the network plane reports instead of panicking or
/// silently dropping bytes.
///
/// Frames on the ingest plane are `[u32 LE length][u8 type][payload]`,
/// where `length` counts the type byte plus the payload. Every way a
/// byte stream can fail to be a frame sequence maps to exactly one
/// variant here, so the server can close *one* offending connection with
/// a precise diagnosis while every other connection keeps streaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix declares an empty frame — there is no room for
    /// even the type byte.
    Undersized,
    /// The length prefix exceeds the protocol's frame-size ceiling (a
    /// corrupt prefix, or a non-protocol client such as HTTP reads as a
    /// gigantic length).
    Oversized {
        /// The declared length.
        len: u32,
        /// The ceiling it exceeded.
        max: u32,
    },
    /// The frame type byte names no known frame.
    UnknownType {
        /// The unrecognized type byte.
        tag: u8,
    },
    /// The payload's internal structure contradicts the frame length
    /// (e.g. a batch frame whose key count disagrees with the bytes
    /// present).
    LengthMismatch {
        /// Payload bytes the internal structure requires.
        declared: u32,
        /// Payload bytes the frame actually carries.
        payload: usize,
    },
    /// A data frame arrived before the handshake completed.
    HandshakeRequired,
    /// The peer hung up in the middle of a frame — `buffered` bytes of an
    /// incomplete frame were pending when the stream ended.
    TruncatedStream {
        /// Bytes of the incomplete frame that had arrived.
        buffered: usize,
    },
    /// The peer reported a protocol error and closed the lane (the
    /// client-side mirror of a server-sent error frame).
    Rejected {
        /// The machine-readable error code from the error frame.
        code: u16,
        /// The human-readable detail from the error frame.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Undersized => {
                write!(f, "frame length prefix is 0 (no room for a type byte)")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            FrameError::UnknownType { tag } => {
                write!(f, "unknown frame type {tag:#04x}")
            }
            FrameError::LengthMismatch { declared, payload } => {
                write!(
                    f,
                    "frame payload structure needs {declared} bytes but the frame carries {payload}"
                )
            }
            FrameError::HandshakeRequired => {
                write!(f, "data frame before the handshake completed")
            }
            FrameError::TruncatedStream { buffered } => {
                write!(
                    f,
                    "stream ended mid-frame with {buffered} bytes of an incomplete frame buffered"
                )
            }
            FrameError::Rejected { code, detail } => {
                write!(f, "peer rejected the connection (code {code}): {detail}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_encodes_and_peeks_without_a_body() {
        let bytes = encode_head("fagms", 2, 0xfeed_f00d).unwrap();
        let head = peek(&bytes).unwrap();
        assert_eq!(head.kind, "fagms");
        assert_eq!(head.format, 2);
        assert_eq!(head.fingerprint, 0xfeed_f00d);
    }

    #[test]
    fn frame_errors_display_their_evidence() {
        let cases: Vec<(FrameError, &str)> = vec![
            (FrameError::Undersized, "length prefix is 0"),
            (FrameError::Oversized { len: 9, max: 4 }, "9"),
            (FrameError::UnknownType { tag: 0xab }, "0xab"),
            (
                FrameError::LengthMismatch {
                    declared: 12,
                    payload: 7,
                },
                "12",
            ),
            (FrameError::HandshakeRequired, "handshake"),
            (FrameError::TruncatedStream { buffered: 3 }, "3 bytes"),
            (
                FrameError::Rejected {
                    code: 4,
                    detail: "nope".into(),
                },
                "code 4",
            ),
        ];
        for (err, needle) in cases {
            let s = err.to_string();
            assert!(s.contains(needle), "{s:?} should contain {needle:?}");
        }
    }

    #[test]
    fn envelope_round_trips_and_peeks() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Body {
            xs: Vec<u64>,
        }
        let bytes =
            encode_envelope("test-kind", 3, 0xdead_beef, Body { xs: vec![1, 2, 3] }).unwrap();
        let head = peek(&bytes).unwrap();
        assert_eq!(head.kind, "test-kind");
        assert_eq!(head.format, 3);
        assert_eq!(head.fingerprint, 0xdead_beef);
        let body: Body = decode_envelope(&bytes, "test-kind", 3).unwrap();
        assert_eq!(body, Body { xs: vec![1, 2, 3] });
    }

    #[test]
    fn foreign_kind_and_version_are_typed_errors() {
        let bytes = encode_envelope("alpha", 1, 7, 42u64).unwrap();
        assert!(matches!(
            decode_envelope::<u64>(&bytes, "beta", 1),
            Err(Error::WireMismatch { .. })
        ));
        assert!(matches!(
            decode_envelope::<u64>(&bytes, "alpha", 2),
            Err(Error::WireMismatch { .. })
        ));
        assert!(matches!(peek(b"not json"), Err(Error::Wire { .. })));
    }

    #[test]
    fn non_finite_floats_round_trip_as_bits() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.5e300] {
            assert_eq!(f64_of(bits_of(v)).to_bits(), v.to_bits());
        }
        assert!(f64_of(bits_of(f64::NAN)).is_nan());
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[3, 2, 1]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
    }
}
