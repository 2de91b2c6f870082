//! Low-level binary primitives: LEB128 varints, zigzag signed integers,
//! exact f64 bit transport, CRC32 and the strict [`TraceError`] decoder
//! errors.
//!
//! No serde: the format mirrors the hand-rolled discipline of
//! `gdp-runner::json` — every byte written is explicit, every byte read
//! is bounds-checked, and every failure is a typed error naming where
//! the decode went wrong.

use std::fmt;

/// A decode failure (typed; `at` offsets are into the decoded buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the trace magic.
    BadMagic,
    /// The format version is not one this decoder understands.
    UnsupportedVersion(u32),
    /// The file's kind byte does not match the requested trace kind.
    WrongKind {
        /// Kind tag expected by the caller.
        want: u8,
        /// Kind tag found in the header.
        got: u8,
    },
    /// The buffer ended before a value could be read.
    Truncated {
        /// Offset at which more bytes were needed.
        at: usize,
    },
    /// A varint ran past 10 bytes (not a canonical u64).
    VarintOverflow {
        /// Offset of the varint's first byte.
        at: usize,
    },
    /// An enum/option tag byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
        /// Offset of the tag byte.
        at: usize,
    },
    /// A section's CRC32 check failed.
    Crc {
        /// Section name.
        section: &'static str,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A section's declared length was inconsistent with the buffer.
    BadSection {
        /// Section name.
        section: &'static str,
    },
    /// Bytes remained after the last section.
    TrailingBytes {
        /// Number of unconsumed bytes.
        len: usize,
    },
    /// A string section held invalid UTF-8.
    BadUtf8 {
        /// Offset of the string's first byte.
        at: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => f.write_str("not a gdp-trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceError::WrongKind { want, got } => {
                write!(f, "wrong trace kind: want {want}, got {got}")
            }
            TraceError::Truncated { at } => write!(f, "truncated trace at byte {at}"),
            TraceError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            TraceError::BadTag { what, tag, at } => {
                write!(f, "bad {what} tag {tag:#x} at byte {at}")
            }
            TraceError::Crc { section, stored, computed } => {
                write!(f, "CRC mismatch in section {section}: stored {stored:#010x}, computed {computed:#010x}")
            }
            TraceError::BadSection { section } => write!(f, "malformed section {section}"),
            TraceError::TrailingBytes { len } => {
                write!(f, "{len} trailing bytes after last section")
            }
            TraceError::BadUtf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
        }
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------- CRC32

/// Slicing-by-8 tables for the reflected IEEE polynomial: `T[0]` is the
/// classic byte-at-a-time table, and `T[k][b]` is the CRC state after
/// byte `b` is followed by `k` zero bytes, so one step folds eight
/// input bytes with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Incremental CRC-32 (IEEE 802.3): feed discontiguous pieces and
/// finish once — bit-identical to [`crc32`] over their concatenation.
/// The stream framing layer needs this because a frame's checksum
/// covers the tag byte *and* the payload, which are separated by the
/// length varint in the buffered bytes.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the running checksum: eight bytes per step
    /// (slicing-by-8), then the tail one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

// --------------------------------------------------------------- writer

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Raw bytes, verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Exact f64 bits, little-endian (bit-identical transport).
    pub fn f64_bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// u32, little-endian (headers and CRCs).
    pub fn u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

// --------------------------------------------------------------- reader

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current offset into the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or(TraceError::Truncated { at: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// `n` raw bytes, verbatim.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated { at: self.pos })?;
        if end > self.buf.len() {
            return Err(TraceError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, TraceError> {
        let start = self.pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(TraceError::VarintOverflow { at: start });
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn zigzag(&mut self) -> Result<i64, TraceError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Exact f64 bits, little-endian.
    pub fn f64_bits(&mut self) -> Result<f64, TraceError> {
        let b = self.bytes(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }

    /// u32, little-endian.
    pub fn u32_le(&mut self) -> Result<u32, TraceError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, TraceError> {
        let len = self.varint()? as usize;
        let at = self.pos;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::BadUtf8 { at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundary_values() {
        let cases =
            [0u64, 1, 127, 128, 129, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut w = Writer::new();
        for &v in &cases {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn zigzag_round_trips_signed_extremes() {
        let cases = [0i64, -1, 1, -2, i64::MIN, i64::MAX, -123_456, 123_456];
        let mut w = Writer::new();
        for &v in &cases {
            w.zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.zigzag().unwrap(), v);
        }
    }

    #[test]
    fn f64_transport_is_bit_exact() {
        let cases = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0];
        let mut w = Writer::new();
        for &v in &cases {
            w.f64_bits(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.f64_bits().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut w = Writer::new();
        w.str("4c-H-07 ünïcode");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().unwrap(), "4c-H-07 ünïcode");
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = Writer::new();
        w.varint(300);
        let mut bytes = w.into_bytes();
        bytes.truncate(1); // continuation bit set, then nothing
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.varint(), Err(TraceError::Truncated { at: 1 })));
        let mut r2 = Reader::new(&[]);
        assert!(matches!(r2.f64_bits(), Err(TraceError::Truncated { .. })));
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes: more than a u64 can hold.
        let bytes = [0x80u8; 10];
        let mut padded = bytes.to_vec();
        padded.push(0x01);
        let mut r = Reader::new(&padded);
        assert!(matches!(r.varint(), Err(TraceError::VarintOverflow { at: 0 })));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference kernel: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn pseudo_random_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_oracle() {
        let buf = pseudo_random_bytes(80);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {start}, length {len}");
            }
        }
    }

    #[test]
    fn incremental_crc32_equals_one_shot_at_every_split() {
        let buf = pseudo_random_bytes(64);
        let whole = crc32(&buf);
        for split in 0..=buf.len() {
            let mut c = Crc32::new();
            c.update(&buf[..split]);
            c.update(&buf[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }
}
