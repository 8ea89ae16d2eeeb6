//! Fixed-width binary codec for checkpoint payloads.
//!
//! Checkpoint frames (fleet block accumulators) are stored as
//! [`crate::Store`] records, whose framing already gives
//! whole-record atomicity and checksums. What it does not give is a
//! *structured* payload: this module is the hand-rolled, zero-dependency
//! encoder/decoder the checkpoint writers share, so every field is a
//! little-endian `u64` and a decoder can prove it consumed exactly the
//! bytes the encoder produced ([`Dec::finish`]).

use std::fmt;

/// Typed decode failures. A checkpoint that fails to decode is treated
/// like a corrupt store record: dropped, recomputed, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the field did.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The payload had bytes left after the last expected field — the
    /// schema the encoder used is not the one the decoder expects.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "payload truncated: field needs {needed} bytes, {remaining} remain"
                )
            }
            CodecError::TrailingBytes { remaining } => {
                write!(
                    f,
                    "payload has {remaining} trailing bytes after the last field"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends fields to a byte buffer. Builder-style: every method returns
/// `self`, and [`Enc::finish`] yields the payload.
///
/// ```
/// use obd_store::codec::{Dec, Enc};
/// let bytes = Enc::default().u64(7).u64(u64::MAX).finish();
/// let mut dec = Dec::new(&bytes);
/// assert_eq!(dec.u64().unwrap(), 7);
/// assert_eq!(dec.u64().unwrap(), u64::MAX);
/// dec.finish().unwrap();
/// ```
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder with room for `bytes` bytes of payload.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends a little-endian `u64`.
    #[must_use]
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads fields back in encoder order, tracking its position; every
/// read is bounds-checked and surfaces [`CodecError::Truncated`]
/// instead of slicing out of range.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] past the end of the payload.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Proves the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::TrailingBytes {
                remaining: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip() {
        let bytes = Enc::default().u64(0).u64(u64::MAX - 1).u64(7).finish();
        assert_eq!(bytes.len(), 24);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64().unwrap(), 0);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.u64().unwrap(), 7);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let bytes = Enc::default().u64(7).u64(9).finish();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            let r = d.u64().and_then(|_| d.u64());
            assert!(
                matches!(r, Err(CodecError::Truncated { .. })),
                "cut at {cut} must be Truncated, got {r:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut bytes = Enc::default().u64(1).finish();
        bytes.push(0);
        let mut d = Dec::new(&bytes);
        d.u64().unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }
}
