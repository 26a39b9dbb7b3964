//! Minimal little-endian wire helpers for hand-rolled binary codecs.
//!
//! The vendored `serde` is a no-op stand-in, so schemes hand-roll their
//! [`export_state`](crate::scheme::EraseScheme::export_state) blobs with
//! these helpers, and the drive snapshot codec (`aero_ssd::persist`) is
//! built on them too. Decoding is strictly bounds-checked and never panics:
//! every read returns `None` past the end without consuming anything, and
//! callers size allocations against [`Reader::remaining`] so corrupt length
//! fields cannot trigger huge reservations.

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, value: f64) {
    put_u64(out, value.to_bits());
}

/// A bounds-checked little-endian cursor over a byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Reads the next `n` bytes as a slice.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Some(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` written by [`put_f64`].
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_exhaustion() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xA5);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        out.extend_from_slice(b"tail");
        let mut r = Reader::new(&out);
        assert_eq!(r.remaining(), 25);
        assert_eq!(r.u8(), Some(0xA5));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.take(5), None);
        assert_eq!(r.take(4), Some(&b"tail"[..]));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u64(), None);
    }

    #[test]
    fn short_reads_do_not_consume() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32(), None);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u8(), Some(1));
    }
}
