//! The head every payload that leaves the process starts with, and the
//! fingerprint hash every [`Portable`](crate::Portable) implementation
//! builds on.
//!
//! Layout of every payload, in `sss_xi::codec`'s layout:
//!
//! | field | encoding |
//! |---|---|
//! | magic | the four bytes `93 53 53 53` (`\x93SSS`) |
//! | kind | length-prefixed UTF-8 ([`Portable::KIND`](crate::Portable::KIND)) |
//! | format | varint ([`Portable::FORMAT`](crate::Portable::FORMAT)) |
//! | fingerprint | varint ([`Portable::fingerprint`](crate::Portable::fingerprint)) |
//! | body | length-prefixed bytes, the summary's [`Codec`] layout |
//!
//! Snapshot files and slim frames carry a body; the network ingest
//! handshake ships the same head with an empty one, so two processes agree
//! on kind, format and fingerprint with the machinery snapshot files use.
//! A receiver can [`peek`] the head — route, version-check and
//! fingerprint-check a payload — without decoding the body. A body length
//! the bytes present cannot back is refused, and so are bytes after the
//! body.
//!
//! A payload of the JSON generation (a `{` where the magic goes) is refused
//! by its first byte with [`Error::WireMismatch`]; there is no fallback
//! decoder for it. Encoding a given summary state yields one byte string
//! (hash-map-backed summaries write their entries in sorted key order), so
//! round-trip tests can pin bytes.
//!
//! [`Codec`]: sss_xi::Codec

use crate::error::{Error, Result};
use sss_xi::{splitmix64, CodecError, Reader, Writer};

/// The first four bytes of every payload: not ASCII, so no text format
/// (the JSON generation included) starts with them.
const MAGIC: [u8; 4] = *b"\x93SSS";

/// A payload head: everything a receiver needs before committing to a
/// body decode.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Head {
    /// This head in front of `body`: a whole payload (the handshake's is
    /// an empty body).
    pub fn seal(&self, body: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(self.kind.as_bytes());
        w.u64(u64::from(self.format));
        w.u64(self.fingerprint);
        w.bytes(body);
        [&MAGIC[..], &w.into_bytes()].concat()
    }

    /// Split a payload into its head and its body.
    ///
    /// # Errors
    ///
    /// [`Error::WireMismatch`] for a JSON-generation payload,
    /// [`Error::Wire`] for any other byte string that is not a head
    /// followed by exactly the body it declares.
    pub fn open(bytes: &[u8]) -> Result<(Head, &[u8])> {
        let Some(rest) = bytes.strip_prefix(&MAGIC) else {
            return Err(match bytes.first() {
                Some(b'{') => Error::WireMismatch {
                    expected: "a binary payload".into(),
                    found: "a JSON-generation payload".into(),
                },
                _ => CodecError::Invalid("not a payload: no magic bytes").into(),
            });
        };
        let mut r = Reader::new(rest);
        let kind = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|_| CodecError::Invalid("a kind tag that is not UTF-8"))?;
        let format = u32::try_from(r.u64()?)
            .map_err(|_| CodecError::Invalid("a format version past u32"))?;
        let fingerprint = r.u64()?;
        let body = r.bytes()?;
        r.finish()?;
        let head = Head {
            kind,
            format,
            fingerprint,
        };
        Ok((head, body))
    }
}

/// Read the head of a payload without decoding its body.
///
/// # Errors
///
/// As for [`Head::open`].
pub fn peek(bytes: &[u8]) -> Result<Head> {
    Head::open(bytes).map(|(head, _)| head)
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

    fn head(kind: &str, format: u32, fingerprint: u64) -> Head {
        Head {
            kind: kind.into(),
            format,
            fingerprint,
        }
    }

    #[test]
    fn heads_seal_open_and_peek() {
        let sealed = head("fagms", 2, 0xfeed_f00d).seal(&[]);
        assert_eq!(peek(&sealed).unwrap(), head("fagms", 2, 0xfeed_f00d));
        let payload = head("test-kind", 3, u64::MAX).seal(&[1, 2, 3]);
        let (opened, body) = Head::open(&payload).unwrap();
        assert_eq!(opened, head("test-kind", 3, u64::MAX));
        assert_eq!(body, [1, 2, 3]);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let payload = head("alpha", 1, 7).seal(&[9; 20]);
        for cut in 0..payload.len() {
            assert!(
                matches!(peek(&payload[..cut]), Err(Error::Wire { .. })),
                "a payload cut at {cut} bytes"
            );
        }
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(matches!(peek(&trailing), Err(Error::Wire { .. })));
        assert!(matches!(peek(b"not a payload"), Err(Error::Wire { .. })));
        let json = br#"{"kind":"alpha","format":1,"fingerprint":7,"body":{}}"#;
        assert!(matches!(peek(json), Err(Error::WireMismatch { .. })));
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
    fn fingerprint_is_order_and_content_sensitive() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[3, 2, 1]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
    }
}
