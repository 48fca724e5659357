//! The versioned binary codec underneath checkpoints and log records.
//!
//! Values are encoded little-endian into a growable byte buffer via
//! [`Writer`] and decoded from a slice via [`Reader`]; [`StoreCodec`] is the
//! trait a type implements to participate. Floats are carried as raw IEEE-754
//! bits (`f64::to_bits`), so a decode→encode round trip is byte-identical and
//! recovered distances equal the persisted ones bit for bit. Containers are
//! length-prefixed with `u64` counts; lengths are validated against the bytes
//! actually available before any allocation, so a corrupt count cannot make
//! the decoder allocate unbounded memory.
//!
//! Integrity is the caller's job: [`crc32`] implements the CRC-32/ISO-HDLC
//! checksum (the zlib polynomial) that both the checkpoint footer and every
//! delta-log record use to reject torn or bit-rotted bytes.

use crate::error::CodecError;

/// CRC-32 (ISO-HDLC, reflected polynomial 0xEDB88320) over `bytes`.
///
/// This is the same checksum zlib and gzip use, computed with a 256-entry
/// lookup table built at first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A checked little-endian byte source over a borrowed slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` count and validates that at least `min_bytes_per_item`
    /// bytes per counted item remain, so corrupt counts fail before any
    /// allocation happens.
    pub fn get_count(&mut self, min_bytes_per_item: usize) -> Result<usize, CodecError> {
        let declared = self.get_u64()?;
        let available = self.remaining();
        let fits = usize::try_from(declared)
            .ok()
            .and_then(|n| n.checked_mul(min_bytes_per_item.max(1)))
            .is_some_and(|total| total <= available);
        if !fits {
            return Err(CodecError::LengthOutOfBounds { declared, available });
        }
        Ok(declared as usize)
    }
}

/// A type that can be written to and reconstructed from the store's binary
/// format.
///
/// Implementations must be *stable* (the on-disk layout is part of the
/// checkpoint format version) and *exact*: `decode(encode(x))` reproduces `x`
/// including every floating-point bit, so a recovered index answers queries
/// byte-identically to the one that was persisted.
pub trait StoreCodec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Reads one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a value that must consume `bytes` exactly.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(CodecError::InvalidValue("trailing bytes after value"));
        }
        Ok(value)
    }
}

impl StoreCodec for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u8()
    }
}

impl StoreCodec for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}

impl StoreCodec for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl StoreCodec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_f64()
    }
}

impl StoreCodec for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what: "bool", tag }),
        }
    }
}

/// Encodes a borrowed slice as a length-prefixed sequence — the same wire
/// format as `Vec<T>::encode`, without cloning the items into a `Vec` first.
pub fn encode_slice<T: StoreCodec>(items: &[T], w: &mut Writer) {
    w.put_u64(items.len() as u64);
    for item in items {
        item.encode(w);
    }
}

impl<T: StoreCodec> StoreCodec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        encode_slice(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = r.get_count(1)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl StoreCodec for String {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_count(1)?;
        String::from_utf8(r.get_bytes(len)?.to_vec())
            .map_err(|_| CodecError::InvalidValue("string payload is not valid UTF-8"))
    }
}

/// A `u8` tag — 0 for `None`, 1 for `Some` — followed by the value when
/// present.
impl<T: StoreCodec> StoreCodec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Some(value) => {
                w.put_u8(1);
                value.encode(w);
            }
            None => w.put_u8(0),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag { what: "Option", tag }),
        }
    }
}

impl<A: StoreCodec, B: StoreCodec> StoreCodec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        0xABu8.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        0x0123_4567_89AB_CDEFu64.encode(&mut w);
        (-0.0f64).encode(&mut w);
        true.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xAB);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(f64::decode(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(bool::decode(&mut r).unwrap());
        assert!(r.is_exhausted());
    }

    #[test]
    fn vectors_and_tuples_round_trip() {
        let value: Vec<(u32, f64)> = vec![(1, 0.5), (2, f64::INFINITY), (7, 1e-300)];
        let decoded = Vec::<(u32, f64)>::from_bytes(&value.to_bytes()).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn strings_and_options_round_trip() {
        let value: Vec<(String, Option<u64>)> =
            vec![(String::new(), None), ("shard=\"1\" ü".to_string(), Some(u64::MAX))];
        let decoded = Vec::<(String, Option<u64>)>::from_bytes(&value.to_bytes()).unwrap();
        assert_eq!(decoded, value);
        assert!(matches!(
            Option::<u64>::from_bytes(&[2]),
            Err(CodecError::InvalidTag { what: "Option", tag: 2 })
        ));
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_bytes(&[0xC3, 0x28]);
        assert!(matches!(String::from_bytes(&w.into_bytes()), Err(CodecError::InvalidValue(_))));
    }

    #[test]
    fn truncated_input_reports_eof() {
        let bytes = 0x1234_5678u32.to_bytes();
        let mut r = Reader::new(&bytes[..2]);
        assert!(matches!(u32::decode(&mut r), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn oversized_count_is_rejected_before_allocation() {
        // A count of u64::MAX with only a handful of payload bytes must fail
        // fast instead of attempting a huge Vec::with_capacity.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_bytes(&[0; 16]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(Vec::<u64>::decode(&mut r), Err(CodecError::LengthOutOfBounds { .. })));
    }

    #[test]
    fn trailing_bytes_are_an_error_for_from_bytes() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(matches!(u32::from_bytes(&bytes), Err(CodecError::InvalidValue(_))));
    }

    #[test]
    fn invalid_bool_tag_is_rejected() {
        assert!(matches!(bool::from_bytes(&[3]), Err(CodecError::InvalidTag { .. })));
    }
}
