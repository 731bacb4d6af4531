//! The binary layout every byte that leaves the process is written in:
//! snapshots, slim frames and the ingest handshake head.
//!
//! One [`Writer`], one [`Reader`], and a [`Codec`] impl next to each type
//! that travels:
//!
//! * integers are LEB128 varints, an `i64` zig-zagged first;
//! * an `f64` is its eight little-endian bytes, so every bit pattern
//!   (NaN and ±∞ included) travels as it is;
//! * sequences are length-prefixed, and a declared length the bytes left
//!   could not hold is refused before anything is allocated for it;
//! * a body is its fields in a fixed order, with no names, so any change
//!   to it is a new format version of the kind that carries it.
//!
//! Decoding is hostile-input decoding: `take` returns a typed
//! [`CodecError`] instead of panicking, and a type whose fields must agree
//! (counters with dimensions, weights with levels) checks them there.

use std::fmt;

/// Why a byte string is not a value of the type being read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end inside a value.
    Truncated,
    /// A sequence declares more elements than the bytes left could hold.
    Length {
        /// The declared element count.
        declared: u64,
        /// Bytes left when it was read.
        left: usize,
    },
    /// Bytes are left over after the value.
    Trailing {
        /// How many.
        left: usize,
    },
    /// Well-formed bytes describing a value its type can never hold.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "the bytes end inside a value"),
            CodecError::Length { declared, left } => write!(
                f,
                "a sequence declares {declared} elements with {left} bytes left"
            ),
            CodecError::Trailing { left } => write!(f, "{left} bytes left after the value"),
            CodecError::Invalid(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A type with a binary layout. `take` reads back exactly what `put`
/// wrote, and the value re-encodes to the same bytes.
pub trait Codec: Sized {
    /// Append this value's layout.
    fn put(&self, w: &mut Writer);

    /// Read one value, refusing bytes no `put` could have written with the
    /// first violation found.
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Appends values in the layout of the module docs.
#[derive(Debug, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// An unsigned integer.
    pub fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// A count or a dimension.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A flag, as 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// A float.
    pub fn f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// A byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.bytes.extend_from_slice(v);
    }

    /// A sequence of unsigned integers.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        vs.iter().for_each(|&v| self.u64(v));
    }

    /// A sequence of signed integers.
    pub fn i64s(&mut self, vs: &[i64]) {
        self.usize(vs.len());
        vs.iter().for_each(|&v| self.i64(v));
    }

    /// A sequence of floats.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        vs.iter().for_each(|&v| self.f64(v));
    }

    /// A sequence of [`Codec`] values.
    pub fn seq<T: Codec>(&mut self, items: &[T]) {
        self.usize(items.len());
        items.iter().for_each(|item| item.put(self));
    }
}

/// Reads values in the layout of the module docs; each method reads what
/// the [`Writer`] method of the same name writes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    /// Succeed only if every byte has been read.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.bytes.len() {
            0 => Ok(()),
            left => Err(CodecError::Trailing { left }),
        }
    }

    /// An unsigned integer.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for (i, &byte) in self.bytes.iter().enumerate().take(10) {
            // The tenth byte has room for bit 63 only.
            if i == 9 && byte > 1 {
                return Err(CodecError::Invalid("a varint past 64 bits"));
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                self.bytes = &self.bytes[i + 1..];
                return Ok(value);
            }
        }
        Err(CodecError::Truncated)
    }

    /// A signed integer.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let z = self.u64()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// A count or a dimension.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("a size past usize"))
    }

    /// A flag.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("a flag other than 0 or 1")),
        }
    }

    /// A float.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        if self.bytes.len() < 8 {
            return Err(CodecError::Truncated);
        }
        let (word, rest) = self.bytes.split_at(8);
        self.bytes = rest;
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        Ok(f64::from_le_bytes(le))
    }

    /// A sequence length whose elements take at least `min_bytes` each,
    /// refused unless the bytes left could hold them — so a caller may
    /// allocate for it.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let declared = self.u64()?;
        let left = self.bytes.len();
        match usize::try_from(declared) {
            Ok(n) if n.checked_mul(min_bytes).is_some_and(|need| need <= left) => Ok(n),
            _ => Err(CodecError::Length { declared, left }),
        }
    }

    /// A byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.count(1)?;
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    /// A sequence of unsigned integers.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        self.each(1, Self::u64)
    }

    /// A sequence of signed integers.
    pub fn i64s(&mut self) -> Result<Vec<i64>, CodecError> {
        self.each(1, Self::i64)
    }

    /// A sequence of floats.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        self.each(8, Self::f64)
    }

    /// A sequence of [`Codec`] values. Nothing is reserved up front: an
    /// element may be far larger in memory than its shortest layout.
    pub fn seq<T: Codec>(&mut self) -> Result<Vec<T>, CodecError> {
        let n = self.count(1)?;
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(T::take(self)?);
        }
        Ok(items)
    }

    /// `count(min_bytes)` words, each read by `read`, into a vector
    /// reserved for them.
    fn each<T>(
        &mut self,
        min_bytes: usize,
        read: fn(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(min_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(read(self)?);
        }
        Ok(items)
    }
}
