//! Hand-rolled binary serialization for paging tokens.
//!
//! The workspace ships no serde (offline-shim policy), so tokens cross
//! the wire in a small fixed format built here: little-endian
//! fixed-width integers, an FNV-1a checksum over the payload, and a
//! URL-safe base64 rendering for embedding tokens in line-delimited
//! JSON.
//!
//! Everything in this module is written against **hostile input**: the
//! reader never indexes past the buffer and returns [`WireError`]
//! instead of panicking on truncation, corruption or version skew.

/// Why a byte sequence failed to decode. Every variant is a
/// recoverable protocol error; decoding never panics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure did.
    Truncated,
    /// A field held a value the format does not allow (a token
    /// minted for another query, trailing bytes, an out-of-range
    /// reference into the data a token continues over).
    Malformed(&'static str),
    /// The payload checksum did not match: bytes were corrupted or
    /// forged in transit.
    Checksum,
    /// The token was minted by a different format version.
    Version(u16),
    /// The base64 rendering contained a character outside the
    /// URL-safe alphabet, or an impossible length.
    Encoding,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::Checksum => write!(f, "checksum mismatch"),
            WireError::Version(v) => write!(f, "unsupported token version {v}"),
            WireError::Encoding => write!(f, "invalid token encoding"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink for encoding (little-endian throughout).
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (for checksumming mid-stream).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked sequential reader over an untrusted byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed? Decoders check this last so
    /// trailing garbage is rejected rather than silently ignored.
    pub fn finished(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// FNV-1a 64-bit over `bytes` — the token checksum. Not
/// cryptographic: it catches corruption, truncation-at-a-boundary and
/// casual tampering; content stamps and server-side validation carry
/// the rest of the trust story.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Render bytes in URL-safe base64 (no padding) — the printable form
/// tokens take inside JSON strings.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let v = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let chars = [
            B64[(v >> 18) as usize & 63],
            B64[(v >> 12) as usize & 63],
            B64[(v >> 6) as usize & 63],
            B64[v as usize & 63],
        ];
        // 1 byte → 2 chars, 2 → 3, 3 → 4.
        for &c in &chars[..=chunk.len()] {
            out.push(c as char);
        }
    }
    out
}

/// Decode URL-safe base64 (no padding). Rejects characters outside
/// the alphabet and lengths no encoder produces.
pub fn b64_decode(s: &str) -> Result<Vec<u8>, WireError> {
    fn val(c: u8) -> Result<u32, WireError> {
        match c {
            b'A'..=b'Z' => Ok(u32::from(c - b'A')),
            b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
            b'-' => Ok(62),
            b'_' => Ok(63),
            _ => Err(WireError::Encoding),
        }
    }
    let bytes = s.as_bytes();
    if bytes.len() % 4 == 1 {
        return Err(WireError::Encoding);
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3 + 2);
    for chunk in bytes.chunks(4) {
        let mut v: u32 = 0;
        for &c in chunk {
            v = (v << 6) | val(c)?;
        }
        v <<= 6 * (4 - chunk.len());
        let emit = chunk.len() - 1;
        let parts = [(v >> 16) as u8, (v >> 8) as u8, v as u8];
        out.extend_from_slice(&parts[..emit]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip() {
        let mut w = Writer::new();
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX - 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.finished());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Reader::new(&bytes[..cut]).u64().unwrap_err(),
                WireError::Truncated
            );
        }
    }

    #[test]
    fn base64_round_trips_all_lengths() {
        for len in 0..=17usize {
            let data: Vec<u8> = (0..len as u8)
                .map(|i| i.wrapping_mul(37).wrapping_add(5))
                .collect();
            let enc = b64_encode(&data);
            assert!(enc
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_'));
            assert_eq!(b64_decode(&enc).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn base64_rejects_garbage() {
        assert_eq!(b64_decode("ab!d").unwrap_err(), WireError::Encoding);
        assert_eq!(b64_decode("abcde").unwrap_err(), WireError::Encoding);
        assert_eq!(b64_decode("a\u{e9}").unwrap_err(), WireError::Encoding);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
