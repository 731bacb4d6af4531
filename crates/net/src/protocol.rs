//! The two wire planes: length-prefixed binary frames for ingest,
//! newline-delimited JSON for queries.
//!
//! # Ingest plane
//!
//! Every frame is `[u32 LE length][u8 type][payload]`, where `length`
//! counts the type byte plus the payload (so the smallest legal frame
//! is five bytes on the wire). Frame types:
//!
//! | type | name       | payload                                         |
//! |------|------------|-------------------------------------------------|
//! | 0x01 | `HELLO`    | body-less binary [`Head`](sss_core::wire::Head) |
//! | 0x02 | `BATCH`    | `u32 LE count` + `count × u64 LE` keys          |
//! | 0x03 | `SYNC`     | `u64 LE` cookie                                 |
//! | 0x81 | `HELLO_OK` | body-less binary head (the server banner)       |
//! | 0x83 | `SYNC_OK`  | the echoed `u64 LE` cookie                      |
//! | 0x7f | `ERROR`    | `u16 LE` code + UTF-8 detail, then close        |
//!
//! The server speaks first: on accept it sends `HELLO_OK` carrying its
//! summary kind/format/configuration fingerprint, and the client must
//! answer with a matching `HELLO` before any `BATCH` is accepted — the
//! same fingerprint discipline snapshot merging already enforces, over
//! a second transport. `SYNC` is the client's flush barrier: once the
//! matching `SYNC_OK` arrives, every batch written before the `SYNC`
//! has been applied to the shards — the server catches every shard up
//! before it answers — so the runtime's gauge counts them and an
//! immediately following query covers them.
//!
//! Batch payloads are little-endian `u64` keys decoded **directly into
//! a pooled buffer** ([`decode_batch_into`]) loaned from the shard
//! recycle rings — the frame is the only copy between socket and ring.
//!
//! Malformed input never panics and never kills the server: every
//! violation is a typed [`FrameError`] (length prefix of zero, a
//! length over [`MAX_FRAME`], an unknown type byte, a payload whose
//! internal structure contradicts the frame length, data before the
//! handshake, a disconnect mid-frame), and the connection that sent it
//! is answered with an `ERROR` frame and closed while every other
//! connection keeps streaming. The proptest suite drives the reader
//! with arbitrary corrupted bytes to pin exactly that.
//!
//! # Query plane
//!
//! One JSON object per line, flat fields only:
//!
//! ```json
//! {"cmd":"self_join","confidence":0.95}
//! {"cmd":"distinct"}
//! {"cmd":"quantile","q":0.5}
//! {"cmd":"topk","k":10}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `stats` answers the server's gauges — among them the rings'
//! `queue_high_water` and the snapshot cache's `cache_hits` and
//! `cache_rebuilds` (partial plus full) — and in `"kernels"` the sign and
//! bucket kernel path the process picked at run time (`"avx2"` or
//! `"chunked"`, [`sss_xi::Dispatch::label`]).
//!
//! An error is `{"ok":false,"error":"…"}`, the message a JSON string
//! whatever the client sent: `"`, `\\`, newline, carriage return and tab
//! go out as their two-character escapes, the other C0 controls as a
//! lowercase `\u00XX`, and every other character as it is.
//!
//! A request line is at most [`MAX_QUERY_LINE`] bytes: the server buffers
//! no more than that (plus one socket read) per connection, refuses a
//! longer line once and closes its side; what the client still sends is
//! discarded unbuffered, a bounded amount of it, and then the connection is
//! dropped — a client that never sends a newline costs the server neither
//! memory nor, past that bound, time.
//!
//! Responses are one JSON object per line; every `f64` that must
//! round-trip exactly (point estimates compared against oracles) also
//! travels as its IEEE-754 bit pattern (`f64::to_bits`) in a sibling
//! `*_bits` field, as the snapshot layout carries every float. This module
//! owns the whole line format: the request parser, a flat scanner over
//! `"key":value` pairs, and the response renderers beside it, both written
//! by hand with no JSON library behind them.

use sss_core::wire::FrameError;
use sss_core::Estimate;
use std::fmt;
use std::io::Write as _;
use std::str::FromStr;

/// Client → server: the echoed handshake head.
pub const FRAME_HELLO: u8 = 0x01;
/// Client → server: a batch of keys for ingestion.
pub const FRAME_BATCH: u8 = 0x02;
/// Client → server: flush barrier carrying a cookie to echo.
pub const FRAME_SYNC: u8 = 0x03;
/// Server → client: the banner head, sent on accept.
pub const FRAME_HELLO_OK: u8 = 0x81;
/// Server → client: the echoed sync cookie.
pub const FRAME_SYNC_OK: u8 = 0x83;
/// Either direction: a terminal protocol error; sender closes after it.
pub const FRAME_ERROR: u8 = 0x7f;

/// Frame-size ceiling (4 MiB): anything larger is a corrupt prefix or
/// a non-protocol client (an HTTP request line reads as a gigantic
/// little-endian length).
pub const MAX_FRAME: u32 = 1 << 22;

/// Largest key count a `BATCH` frame can carry under [`MAX_FRAME`].
pub const MAX_BATCH_KEYS: usize = ((MAX_FRAME as usize) - 1 - 4) / 8;

/// Longest query-plane request line, newline excluded. Every request the
/// plane knows fits in a tenth of it; a connection that buffers more
/// without a newline is answered `{"ok":false,…}` once and closed.
pub const MAX_QUERY_LINE: usize = 4096;

/// `ERROR` code: generic framing violation.
pub const ERR_PROTOCOL: u16 = 1;
/// `ERROR` code: handshake head had a different kind/format.
pub const ERR_WIRE_MISMATCH: u16 = 3;
/// `ERROR` code: handshake head had a different configuration
/// fingerprint.
pub const ERR_FINGERPRINT: u16 = 4;

/// Incremental frame extractor over a growing byte buffer.
///
/// Feed it whatever the socket produced ([`extend`](Self::extend)),
/// then drain complete frames with [`next_frame`](Self::next_frame);
/// partial frames stay buffered until their bytes arrive. Consumed
/// bytes are compacted away lazily (only once the buffer's dead prefix
/// outgrows the live tail), so steady-state extraction is copy-free.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames.
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by one
        // frame plus one read, instead of growing for the connection's
        // lifetime.
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extract the next complete frame as `(type, payload)`, or `None`
    /// if more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::Undersized`] for a zero length prefix,
    /// [`FrameError::Oversized`] for a length over [`MAX_FRAME`],
    /// [`FrameError::UnknownType`] for an unrecognized type byte. After
    /// an error the reader is poisoned in place — the connection is
    /// expected to close, so no resynchronization is attempted.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 {
            return Err(FrameError::Undersized);
        }
        if len > MAX_FRAME {
            return Err(FrameError::Oversized {
                len,
                max: MAX_FRAME,
            });
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let tag = avail[4];
        if !matches!(
            tag,
            FRAME_HELLO | FRAME_BATCH | FRAME_SYNC | FRAME_HELLO_OK | FRAME_SYNC_OK | FRAME_ERROR
        ) {
            return Err(FrameError::UnknownType { tag });
        }
        let payload_range = (self.start + 5)..(self.start + total);
        self.start += total;
        Ok(Some((tag, &self.buf[payload_range])))
    }

    /// The stream ended: `Ok` if it ended on a frame boundary,
    /// [`FrameError::TruncatedStream`] if a partial frame was pending.
    pub fn finish(&self) -> Result<(), FrameError> {
        match self.buffered() {
            0 => Ok(()),
            buffered => Err(FrameError::TruncatedStream { buffered }),
        }
    }
}

/// Append one frame (`[len][type][payload]`) to `out`.
pub fn write_frame(out: &mut Vec<u8>, frame_type: u8, payload: &[u8]) {
    let len = 1 + payload.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(frame_type);
    out.extend_from_slice(payload);
}

/// Append a `BATCH` frame carrying `keys` to `out`.
///
/// Callers must keep `keys.len() ≤` [`MAX_BATCH_KEYS`]; larger batches
/// should be split (the clients in this crate do).
pub fn write_batch(out: &mut Vec<u8>, keys: &[u64]) {
    debug_assert!(keys.len() <= MAX_BATCH_KEYS);
    let len = 1 + 4 + 8 * keys.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(FRAME_BATCH);
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for &k in keys {
        out.extend_from_slice(&k.to_le_bytes());
    }
}

/// Append a `SYNC` or `SYNC_OK` frame carrying `cookie` to `out`.
pub fn write_sync(out: &mut Vec<u8>, frame_type: u8, cookie: u64) {
    write_frame(out, frame_type, &cookie.to_le_bytes());
}

/// Append an `ERROR` frame (`u16 LE` code + UTF-8 detail) to `out`.
pub fn write_error(out: &mut Vec<u8>, code: u16, detail: &str) {
    let mut payload = Vec::with_capacity(2 + detail.len());
    payload.extend_from_slice(&code.to_le_bytes());
    payload.extend_from_slice(detail.as_bytes());
    write_frame(out, FRAME_ERROR, &payload);
}

/// Decode a `BATCH` payload **into** `out` (a pooled buffer loaned from
/// the shard recycle rings) — the zero-copy hop between socket bytes
/// and ring buffer.
///
/// # Errors
///
/// [`FrameError::LengthMismatch`] when the declared key count does not
/// match the bytes present.
pub fn decode_batch_into(payload: &[u8], out: &mut Vec<u64>) -> Result<(), FrameError> {
    if payload.len() < 4 {
        return Err(FrameError::LengthMismatch {
            declared: 4,
            payload: payload.len(),
        });
    }
    let count = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
    let need = 4 + 8 * count as usize;
    if payload.len() != need {
        return Err(FrameError::LengthMismatch {
            declared: need as u32,
            payload: payload.len(),
        });
    }
    out.reserve(count as usize);
    for chunk in payload[4..].chunks_exact(8) {
        out.push(u64::from_le_bytes([
            chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
        ]));
    }
    Ok(())
}

/// Decode a `SYNC`/`SYNC_OK` payload.
///
/// # Errors
///
/// [`FrameError::LengthMismatch`] unless the payload is exactly the
/// eight cookie bytes.
pub fn decode_sync(payload: &[u8]) -> Result<u64, FrameError> {
    let bytes: [u8; 8] = payload.try_into().map_err(|_| FrameError::LengthMismatch {
        declared: 8,
        payload: payload.len(),
    })?;
    Ok(u64::from_le_bytes(bytes))
}

/// Decode an `ERROR` payload into the [`FrameError::Rejected`] the
/// receiving side reports.
pub fn decode_error(payload: &[u8]) -> FrameError {
    if payload.len() < 2 {
        return FrameError::Rejected {
            code: 0,
            detail: "malformed error frame".to_string(),
        };
    }
    FrameError::Rejected {
        code: u16::from_le_bytes([payload[0], payload[1]]),
        detail: String::from_utf8_lossy(&payload[2..]).into_owned(),
    }
}

/// A parsed query-plane request line. Fields absent from the JSON stay
/// `None`; each command validates the fields it needs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRequest {
    /// The command name (`self_join`, `distinct`, `quantile`, `topk`,
    /// `stats`, `shutdown`).
    pub cmd: String,
    /// Quantile rank for `quantile`.
    pub q: Option<f64>,
    /// Result size for `topk`.
    pub k: Option<u64>,
    /// Confidence level for interval-bearing answers.
    pub confidence: Option<f64>,
}

/// Parse one flat JSON request line. Unknown keys are ignored, whatever
/// JSON scalar they carry; duplicate keys keep the last value, as JSON
/// parsers conventionally do. A string ends at its first unescaped quote
/// and is kept as written, escapes and all.
///
/// # Errors
///
/// A human-readable description of the malformation — the server wraps
/// it into an error response for that line, keeping the connection. A
/// value that is not a JSON scalar (a nested object or array), a `q`, `k`
/// or `confidence` that is not a number, a `k` that is not a non-negative
/// whole number, or a `confidence` outside `(0, 1)`, is a malformation too.
pub fn parse_query_line(line: &str) -> Result<QueryRequest, String> {
    let body = line.trim();
    let inner = body
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "request must be one JSON object".to_string())?;
    let mut req = QueryRequest::default();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key: a quoted string.
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted key at: {rest:.20}"))?;
        let key_end = string_end(after_quote).ok_or_else(|| "unterminated key".to_string())?;
        let key = &after_quote[..key_end];
        let after_key = after_quote[key_end + 1..].trim_start();
        let value_part = after_key
            .strip_prefix(':')
            .ok_or_else(|| format!("missing ':' after key {key:?}"))?
            .trim_start();
        // Value: a quoted string or a bare JSON scalar up to the next
        // top-level comma (requests have no nested containers).
        let after_value = if let Some(after) = value_part.strip_prefix('"') {
            let end = string_end(after)
                .ok_or_else(|| format!("unterminated string value for {key:?}"))?;
            match key {
                "cmd" => req.cmd = after[..end].to_string(),
                "q" | "k" | "confidence" => {
                    return Err(format!("key {key:?} needs a number, got a string"))
                }
                _ => {}
            }
            &after[end + 1..]
        } else {
            let end = value_part.find(',').unwrap_or(value_part.len());
            let token = value_part[..end].trim();
            if token.is_empty() {
                return Err(format!("missing value for key {key:?}"));
            }
            let number = || {
                token
                    .parse::<f64>()
                    .map_err(|_| format!("non-numeric value {token:?} for key {key:?}"))
            };
            match key {
                "q" => req.q = Some(number()?),
                "k" => match number()? {
                    n if n >= 0.0 && n.fract() == 0.0 => req.k = Some(n as u64),
                    _ => {
                        return Err(format!(
                            "\"k\" must be a non-negative whole number, got {token}"
                        ))
                    }
                },
                "confidence" => match number()? {
                    c if c > 0.0 && c < 1.0 => req.confidence = Some(c),
                    _ => return Err(format!("\"confidence\" must be in (0, 1), got {token}")),
                },
                _ if matches!(token, "true" | "false" | "null") => {}
                _ => {
                    number()?;
                }
            }
            &value_part[end..]
        };
        let after_value = after_value.trim_start();
        rest = match after_value.strip_prefix(',') {
            Some(r) => r.trim_start(),
            None if after_value.is_empty() => "",
            None => return Err(format!("trailing bytes after value: {after_value:.20}")),
        };
    }
    if req.cmd.is_empty() {
        return Err("request has no \"cmd\" field".to_string());
    }
    Ok(req)
}

/// The byte offset of the quote that ends a JSON string whose opening
/// quote is already consumed: the first `"` not escaped by a backslash.
fn string_end(s: &str) -> Option<usize> {
    let mut escaped = false;
    s.bytes().position(|b| {
        let end = b == b'"' && !escaped;
        escaped = b == b'\\' && !escaped;
        end
    })
}

/// Extract a numeric field from a flat JSON response line — the client
/// side of the hand-rolled convention. Returns `None` when the field
/// is absent or non-numeric.
pub fn response_f64(line: &str, field: &str) -> Option<f64> {
    response_field(line, field)
}

/// Extract a `u64` field (typically `*_bits` IEEE-754 payloads) from a
/// flat JSON response line.
pub fn response_u64(line: &str, field: &str) -> Option<u64> {
    response_field(line, field)
}

fn response_field<T: FromStr>(line: &str, field: &str) -> Option<T> {
    let needle = format!("\"{field}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// A float rendered as a JSON number when finite and as `null` when not
/// (the sibling `*_bits` field always carries the exact IEEE-754
/// pattern), written straight into the line.
pub(crate) struct JsonNum(pub(crate) f64);

impl fmt::Display for JsonNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Append `"name":value,"name_bits":bits` for an exact-round-trip
/// float field.
pub(crate) fn push_f64_field(out: &mut Vec<u8>, name: &str, value: f64) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "\"{name}\":{},\"{name}_bits\":{}",
        JsonNum(value),
        value.to_bits()
    );
}

/// Append `{"ok":true,"cmd":…,"value":…,"variance":…}` with the `*_bits`
/// siblings, and the intervals when a confidence level was requested.
pub(crate) fn estimate_line(out: &mut Vec<u8>, cmd: &str, est: &Estimate, confidence: Option<f64>) {
    let _ = write!(out, "{{\"ok\":true,\"cmd\":\"{cmd}\",");
    push_f64_field(out, "value", est.value);
    out.push(b',');
    push_f64_field(out, "variance", est.variance);
    push_intervals(out, est, confidence);
    out.push(b'}');
}

/// Append `,"confidence":…,"half_width_chebyshev":…,"half_width_clt":…`
/// when a confidence level was requested and the estimate carries variance.
pub(crate) fn push_intervals(out: &mut Vec<u8>, est: &Estimate, confidence: Option<f64>) {
    let Some(level) = confidence else { return };
    if let (Ok(cheb), Ok(clt)) = (est.chebyshev(level), est.clt(level)) {
        let _ = write!(
            out,
            ",\"confidence\":{},\"half_width_chebyshev\":{},\"half_width_clt\":{}",
            JsonNum(level),
            JsonNum(cheb.half_width()),
            JsonNum(clt.half_width())
        );
    }
}

/// Append the `{"ok":false,"error":…}` response. Parse errors echo client
/// text, so the message goes out as a JSON string (module docs).
pub(crate) fn error_line(out: &mut Vec<u8>, message: &str) {
    out.extend_from_slice(b"{\"ok\":false,\"error\":");
    push_json_str(out, message);
    out.push(b'}');
}

/// Append `s` as a JSON string, escaped as the module docs say.
fn push_json_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
        }
    }
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_reader() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_HELLO, b"{}");
        write_batch(&mut wire, &[1, 2, 3]);
        write_sync(&mut wire, FRAME_SYNC, 42);
        write_error(&mut wire, ERR_FINGERPRINT, "bad print");

        let mut reader = FrameReader::new();
        // Deliver byte-by-byte to exercise partial-frame buffering.
        let mut seen = Vec::new();
        for &b in &wire {
            reader.extend(&[b]);
            while let Some((tag, payload)) = reader.next_frame().unwrap() {
                seen.push((tag, payload.to_vec()));
            }
        }
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0].0, FRAME_HELLO);
        let mut keys = Vec::new();
        decode_batch_into(&seen[1].1, &mut keys).unwrap();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(decode_sync(&seen[2].1).unwrap(), 42);
        assert_eq!(
            decode_error(&seen[3].1),
            FrameError::Rejected {
                code: ERR_FINGERPRINT,
                detail: "bad print".to_string(),
            }
        );
        reader.finish().unwrap();
    }

    #[test]
    fn violations_are_typed_not_panics() {
        // Zero length prefix.
        let mut r = FrameReader::new();
        r.extend(&[0, 0, 0, 0, 9]);
        assert_eq!(r.next_frame(), Err(FrameError::Undersized));

        // Oversized length prefix ("GET " as LE u32 is enormous).
        let mut r = FrameReader::new();
        r.extend(b"GET / HTTP/1.1\r\n");
        assert!(matches!(r.next_frame(), Err(FrameError::Oversized { .. })));

        // Unknown type byte.
        let mut r = FrameReader::new();
        r.extend(&[1, 0, 0, 0, 0x55]);
        assert_eq!(r.next_frame(), Err(FrameError::UnknownType { tag: 0x55 }));

        // Mid-frame hangup.
        let mut r = FrameReader::new();
        r.extend(&[200, 0, 0, 0, FRAME_BATCH, 1, 2, 3]);
        assert_eq!(r.next_frame(), Ok(None));
        assert_eq!(r.finish(), Err(FrameError::TruncatedStream { buffered: 8 }));

        // Batch whose key count contradicts its length.
        let mut payload = vec![0u8; 4 + 8];
        payload[0] = 7; // claims 7 keys, carries 1
        let mut out = Vec::new();
        assert!(matches!(
            decode_batch_into(&payload, &mut out),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn reader_compacts_consumed_bytes() {
        let mut r = FrameReader::new();
        for i in 0..1000u64 {
            let mut wire = Vec::new();
            write_batch(&mut wire, &[i; 16]);
            r.extend(&wire);
            let (tag, _) = r.next_frame().unwrap().unwrap();
            assert_eq!(tag, FRAME_BATCH);
        }
        // Compaction keeps the buffer near one frame, not 1000.
        assert!(r.buf.len() < 4 * (4 + 1 + 4 + 16 * 8));
    }

    #[test]
    fn query_lines_parse_and_reject() {
        let req = parse_query_line(r#"{"cmd":"quantile","q":0.5}"#).unwrap();
        assert_eq!(req.cmd, "quantile");
        assert_eq!(req.q, Some(0.5));
        assert_eq!(req.k, None);

        let req =
            parse_query_line(r#"{ "k" : 10 , "cmd" : "topk" , "confidence" : 0.99 }"#).unwrap();
        assert_eq!(req.cmd, "topk");
        assert_eq!(req.k, Some(10));
        assert_eq!(req.confidence, Some(0.99));

        for bad in [
            "",
            "not json",
            "{}",
            r#"{"q":0.5}"#,
            r#"{"cmd":}"#,
            r#"{"cmd":"x" junk}"#,
            r#"{"cmd":"x","q":"not a number"}"#,
            r#"{"cmd":"stats","x":[1]}"#,
            r#"{"cmd":"stats","x":{"y":1}}"#,
            r#"{"cmd":"stats","x":junk}"#,
            r#"{"cmd":5}"#,
        ] {
            assert!(parse_query_line(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn response_fields_extract() {
        let line = r#"{"ok":true,"value":12.5,"value_bits":4622945017495814144,"n":3}"#;
        assert_eq!(response_f64(line, "value"), Some(12.5));
        assert_eq!(response_u64(line, "value_bits"), Some(4622945017495814144));
        assert_eq!(response_f64(line, "missing"), None);
    }

    /// A field renders as `format!` of the float did before it was written
    /// in place: Rust's shortest round-trip digits for a finite value
    /// (`-0` for negative zero), `null` for NaN and both infinities, and
    /// the exact bits beside it.
    #[test]
    fn float_fields_render_in_place_as_before() {
        let cases: [(f64, &str); 8] = [
            (0.5, "0.5"),
            (4268950.0, "4268950"),
            (10098.948861726185, "10098.948861726185"),
            (1e-7, "0.0000001"),
            (-0.0, "-0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (value, text) in cases {
            let mut out = b"{".to_vec();
            push_f64_field(&mut out, "value", value);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                format!("{{\"value\":{text},\"value_bits\":{}", value.to_bits()),
                "{value:?}"
            );
        }
        let est = Estimate {
            value: 100.0,
            variance: 16.0,
            basics: Vec::new(),
        };
        let clt = est.clt(0.75).unwrap().half_width();
        let mut out = Vec::new();
        push_intervals(&mut out, &est, Some(0.75));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!(",\"confidence\":0.75,\"half_width_chebyshev\":8,\"half_width_clt\":{clt}")
        );
    }
}
