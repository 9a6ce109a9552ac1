//! Canonical binary encoding.
//!
//! Non-repudiation evidence is a signature over a byte string, so the byte
//! string must be *canonical*: the same logical content must always encode
//! to the same bytes regardless of which party produced it. This module
//! defines a small deterministic codec used for everything that is signed,
//! hashed, logged or sent between organisations.
//!
//! Layout rules:
//!
//! * integers are little-endian fixed width,
//! * byte strings and lists are length-prefixed with a `u32`,
//! * maps are encoded sorted by key (see [`crate::value::Value`]),
//! * enums are encoded as a `u8` tag followed by the variant payload.
//!
//! There is no versioning or schema evolution by design — evidence formats
//! are part of the inter-organisation agreement (paper §5: "the exact
//! representation of evidence is a matter for agreement between parties").
//!
//! Scratch rule: an encoding that is only hashed, persisted or copied out
//! is built in the thread's one scratch [`Writer`] ([`with_scratch`]),
//! never in a fresh buffer grown by doubling. [`Encode::encode_to_vec`]
//! copies the scratch out at its exact size; `nonrep_crypto`'s
//! `sha256_encoded` hashes it in place. A nested call finds the scratch
//! taken and encodes into a fresh writer instead, so nesting is safe.

use std::cell::Cell;
use std::error::Error;
use std::fmt;

/// Maximum length accepted for any length-prefixed field (16 MiB).
///
/// A decoder reading attacker-supplied bytes must not allocate unbounded
/// memory from a forged length prefix.
const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd {
        /// Bytes still required.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A length prefix exceeded the 16 MiB field limit.
    FieldTooLong(usize),
    /// An enum tag byte did not correspond to any variant.
    InvalidTag {
        /// Name of the type being decoded.
        ty: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A byte string was not valid UTF-8 where a string was required.
    InvalidUtf8,
    /// Input had trailing bytes after a complete value.
    TrailingBytes(usize),
    /// Domain-specific validation failed during decode.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remaining"
                )
            }
            CodecError::FieldTooLong(len) => write!(f, "field length {len} exceeds maximum"),
            CodecError::InvalidTag { ty, tag } => write!(f, "invalid tag {tag} for type {ty}"),
            CodecError::InvalidUtf8 => write!(f, "byte string was not valid utf-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::Invalid(msg) => write!(f, "invalid value: {msg}"),
        }
    }
}

impl Error for CodecError {}

/// Canonical encoder sink.
///
/// A thin wrapper over `Vec<u8>` so that encode implementations cannot
/// accidentally use a non-canonical write path.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes with no length prefix (fixed-width fields only).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u32` length prefix followed by the bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` exceeds `u32::MAX` (not reachable with
    /// fields inside the 16 MiB decode limit).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("field larger than u32::MAX");
        self.put_u32(len);
        self.put_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// A scratch writer grown past this is released after use, so one large
/// encoding does not pin its buffer for the thread's lifetime.
const SCRATCH_KEEP_MAX: usize = 1024 * 1024;

thread_local! {
    static SCRATCH: Cell<Writer> = const { Cell::new(Writer { buf: Vec::new() }) };
}

/// Runs `f` on this thread's scratch [`Writer`], cleared. The writer is
/// out of its slot for the call, so a nested call gets a fresh writer.
pub fn with_scratch<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
    let mut w = SCRATCH.try_with(Cell::take).unwrap_or_default();
    w.buf.clear();
    let out = f(&mut w);
    if w.buf.capacity() <= SCRATCH_KEEP_MAX {
        // A thread already tearing down its locals just drops the writer.
        let _ = SCRATCH.try_with(|slot| slot.set(w));
    }
    out
}

/// Canonical decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Returns an error if any bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.rest.len()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.rest.len() < n {
            return Err(CodecError::UnexpectedEnd {
                needed: n,
                remaining: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any nonzero byte is an error to keep canonicity.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { ty: "bool", tag }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::FieldTooLong(len));
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a length-prefixed owned `String`.
    pub fn get_string(&mut self) -> Result<String, CodecError> {
        self.get_str().map(str::to_owned)
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh `Vec<u8>` whose capacity is its
    /// length. Encodings are often kept (log records, cached replies),
    /// and a buffer grown by doubling would keep up to half again its
    /// size in slack for as long as it lives, so the encoding is built in
    /// the thread's scratch writer and copied out once.
    fn encode_to_vec(&self) -> Vec<u8> {
        with_scratch(|w| {
            self.encode(w);
            w.as_slice().to_vec()
        })
    }
}

/// Types decodable from the canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes a value, consuming bytes from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a value from a complete byte slice, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the input is truncated, malformed, or has
    /// trailing bytes.
    fn decode_from_slice(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(*self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_i64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_bool()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_string()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_bytes()?.to_vec())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag { ty: "Option", tag }),
        }
    }
}

/// Encodes a homogeneous sequence with a `u32` count prefix.
pub fn encode_seq<T: Encode>(items: &[T], w: &mut Writer) {
    let len = u32::try_from(items.len()).expect("sequence larger than u32::MAX");
    w.put_u32(len);
    for item in items {
        item.encode(w);
    }
}

/// Decodes a homogeneous sequence written by [`encode_seq`].
///
/// # Errors
///
/// Returns [`CodecError`] on truncated/malformed input or an oversized count.
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let len = r.get_u32()? as usize;
    if len > MAX_FIELD_LEN {
        return Err(CodecError::FieldTooLong(len));
    }
    let mut out = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

// Note: there is deliberately no generic `impl Encode for Vec<T>` — it would
// conflict with the dedicated `Vec<u8>` impl (no specialization on stable).
// Sequences of non-byte items use `encode_seq`/`decode_seq`.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_bytes(b"hello");
        w.put_str("world");
        let bytes = w.into_vec();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "world");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes[..4]);
        let err = r.get_u64().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEnd {
                needed: 8,
                remaining: 4
            }
        );
    }

    #[test]
    fn forged_length_prefix_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // absurd length prefix with no data behind it
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let err = r.get_bytes().unwrap_err();
        assert_eq!(err, CodecError::FieldTooLong(u32::MAX as usize));
    }

    #[test]
    fn non_canonical_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            r.get_bool(),
            Err(CodecError::InvalidTag { ty: "bool", tag: 2 })
        ));
    }

    #[test]
    fn trailing_bytes_rejected_by_decode_from_slice() {
        let mut bytes = 5u64.encode_to_vec();
        bytes.push(0);
        let err = u64::decode_from_slice(&bytes).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes(1));
    }

    #[test]
    fn oversized_scratch_is_released() {
        let kept = |f: &dyn Fn(&mut Writer)| {
            with_scratch(f);
            SCRATCH.with(|slot| {
                let w = slot.take();
                let cap = w.buf.capacity();
                slot.set(w);
                cap
            })
        };
        assert!(kept(&|w| w.put_raw(&[1; 4096])) >= 4096);
        assert_eq!(kept(&|w| w.put_raw(&vec![1; 2 * 1024 * 1024])), 0);
    }

    #[test]
    fn encode_to_vec_keeps_no_slack() {
        for len in [0usize, 1, 100, 5_000, 70_000] {
            let bytes = vec![7u8; len].encode_to_vec();
            assert_eq!(bytes.capacity(), bytes.len(), "payload of {len} B");
        }
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        assert_eq!(
            Option::<u64>::decode_from_slice(&some.encode_to_vec()).unwrap(),
            some
        );
        assert_eq!(
            Option::<u64>::decode_from_slice(&none.encode_to_vec()).unwrap(),
            none
        );
    }

    #[test]
    fn seq_roundtrip() {
        let items = vec![1u64, 2, 3];
        let mut w = Writer::new();
        encode_seq(&items, &mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back: Vec<u64> = decode_seq(&mut r).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn string_utf8_enforced() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str().unwrap_err(), CodecError::InvalidUtf8);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = ("x".to_string(), 1u64);
        let encode = |v: &(String, u64)| {
            let mut w = Writer::new();
            v.0.encode(&mut w);
            v.1.encode(&mut w);
            w.into_vec()
        };
        assert_eq!(encode(&a), encode(&a));
    }
}
