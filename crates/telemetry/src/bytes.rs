//! Minimal little-endian byte codec for content-addressed persistence.
//!
//! The workspace builds offline without a serialization framework, so
//! every durable artifact is hand-rolled. This module is the shared substrate:
//! a [`ByteWriter`] that appends fixed-width little-endian scalars and
//! length-prefixed strings to a `Vec<u8>`, and a [`ByteReader`] that
//! consumes the same layout and reports structural problems as typed
//! [`CodecError`]s instead of panicking. The records of the `ecl-serve`
//! daemon's on-disk cache segments (E18's under `results/cache/`) and its
//! wire frames are both built on it.
//!
//! Layout conventions shared by every encoder in the workspace:
//!
//! - scalars are little-endian (`u32`/`u64`/`i64`; `f64` as IEEE-754 bit
//!   pattern via `to_bits`, so values round-trip bit-exactly, including
//!   `-0.0` and NaN payloads);
//! - `i128` (the histogram running sum) is split into low/high `u64`
//!   halves;
//! - strings are `u32` byte length + UTF-8 bytes; sequence lengths are
//!   `u32` counts checked against [`MAX_SEQ`] before any allocation, so
//!   a corrupt length cannot trigger an absurd reservation.
//!
//! # Examples
//!
//! ```
//! use ecl_telemetry::bytes::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.put_u64(42);
//! w.put_str("adequation");
//! let buf = w.into_bytes();
//! let mut r = ByteReader::new(&buf);
//! assert_eq!(r.get_u64().unwrap(), 42);
//! assert_eq!(r.get_str().unwrap(), "adequation");
//! assert!(r.finish().is_ok());
//! ```

use std::fmt;

/// Upper bound on any length prefix a [`ByteReader`] will honor, so a
/// corrupt length field cannot drive a multi-gigabyte allocation.
pub const MAX_SEQ: usize = 1 << 24;

/// Structural decode failure (truncated input, bad magic, corrupt
/// length, invalid UTF-8, checksum mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested field.
    Truncated {
        /// Bytes needed to finish the read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A magic tag or version did not match the expected value.
    BadMagic {
        /// What the decoder expected (human-readable).
        expected: String,
        /// What it found.
        found: String,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A semantic invariant failed (bad length, checksum mismatch, …).
    Invalid {
        /// What went wrong.
        reason: String,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} remaining"
                )
            }
            CodecError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected}, found {found}")
            }
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            CodecError::Invalid { reason } => write!(f, "invalid payload: {reason}"),
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fields to a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i128` as two little-endian `u64` halves (low, high).
    pub fn put_i128(&mut self, v: i128) {
        let bits = v as u128;
        self.put_u64(bits as u64);
        self.put_u64((bits >> 64) as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round
    /// trip, including `-0.0`).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` as a `u64` (platform-independent layout).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `u32` length prefix and the string's UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no prefix (the caller owns the framing).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` element count (sequence header). Pairs with
    /// [`ByteReader::get_seq_len`].
    pub fn put_seq_len(&mut self, len: usize) {
        debug_assert!(len <= MAX_SEQ, "sequence of {len} exceeds codec bound");
        self.put_u32(len as u32);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Consumes little-endian fields from a byte slice, reporting structural
/// problems as [`CodecError`]s.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `i128` written by [`ByteWriter::put_i128`].
    pub fn get_i128(&mut self) -> Result<i128, CodecError> {
        let low = self.get_u64()? as u128;
        let high = self.get_u64()? as u128;
        Ok((low | (high << 64)) as i128)
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `usize` written by [`ByteWriter::put_usize`]; rejects
    /// values that do not fit the platform's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            reason: format!("usize field {v} out of range"),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        if len > MAX_SEQ {
            return Err(CodecError::Invalid {
                reason: format!("string length {len} exceeds bound"),
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a sequence header written by [`ByteWriter::put_seq_len`],
    /// bounded by [`MAX_SEQ`].
    pub fn get_seq_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u32()? as usize;
        if len > MAX_SEQ {
            return Err(CodecError::Invalid {
                reason: format!("sequence length {len} exceeds bound"),
            });
        }
        Ok(len)
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Checks a fixed magic tag, reporting both sides on mismatch.
    pub fn expect_magic(&mut self, magic: &[u8]) -> Result<(), CodecError> {
        let found = self.take(magic.len())?;
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: String::from_utf8_lossy(magic).into_owned(),
                found: String::from_utf8_lossy(found).into_owned(),
            });
        }
        Ok(())
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(i64::MIN);
        w.put_i128(-(1i128 << 100) + 17);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_usize(123_456);
        w.put_str("Ls_j(k) ≤ La_j(k)");
        let buf = w.into_bytes();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert_eq!(r.get_i128().unwrap(), -(1i128 << 100) + 17);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_usize().unwrap(), 123_456);
        assert_eq!(r.get_str().unwrap(), "Ls_j(k) ≤ La_j(k)");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            r.get_u64(),
            Err(CodecError::Truncated {
                needed: 8,
                remaining: 4
            })
        ));
        // A string whose length prefix overruns the buffer is truncated,
        // not a panic.
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.get_str(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let buf = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&buf).get_seq_len(),
            Err(CodecError::Invalid { .. })
        ));
        assert!(matches!(
            ByteReader::new(&buf).get_str(),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn magic_mismatch_names_both_sides() {
        let buf = b"ECLX".to_vec();
        let err = ByteReader::new(&buf).expect_magic(b"ECLS").unwrap_err();
        match err {
            CodecError::BadMagic { expected, found } => {
                assert_eq!(expected, "ECLS");
                assert_eq!(found, "ECLX");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u8(9);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        r.get_u64().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_raw(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        assert_eq!(ByteReader::new(&buf).get_str(), Err(CodecError::BadUtf8));
    }
}
