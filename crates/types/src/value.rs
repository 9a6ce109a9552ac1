//! Dynamic values for component invocations.
//!
//! The paper's prototype uses Java reflection to snapshot invocation
//! parameters and results so they can be hashed and signed (§3.4: value
//! types "must be resolved to an agreed representation of their state at
//! invocation"). [`Value`] plays that role here: a self-describing tree of
//! primitives, byte strings, lists and string-keyed maps with a canonical
//! encoding.
//!
//! Maps are backed by `BTreeMap` so iteration (and hence encoding) order is
//! the sorted key order — two honest parties always hash identical bytes
//! for identical logical content.

use std::collections::BTreeMap;
use std::fmt;

use crate::codec::{CodecError, Decode, Encode, Reader, Writer};

/// A dynamic, canonically-encodable value.
///
/// Floating point is deliberately represented by its IEEE-754 bit pattern
/// ([`Value::F64Bits`]) so that `Value` can implement `Eq`/`Hash` and encode
/// canonically; use `Value::F64Bits(x.to_bits())`/[`Value::as_f64`] at the edges.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    I64(i64),
    /// An unsigned 64-bit integer.
    U64(u64),
    /// An IEEE-754 double, stored as raw bits (see type docs).
    F64Bits(u64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte string.
    Bytes(Vec<u8>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A string-keyed map with canonical (sorted) key order.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Builds a map value from `(key, value)` pairs.
    pub fn map<K, I>(entries: I) -> Self
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, Value)>,
    {
        Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a list value.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::List(items.into_iter().collect())
    }

    /// Returns the value as `f64` if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64Bits(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// Returns the value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as `i64` if it is a signed integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as a byte slice if it is a byte string.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the value as a map if it is one.
    fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` if the value is a map.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64Bits(bits) => write!(f, "{}", f64::from_bits(*bits)),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_MAP: u8 = 8;

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => w.put_u8(TAG_NULL),
            Value::Bool(b) => {
                w.put_u8(TAG_BOOL);
                w.put_bool(*b);
            }
            Value::I64(v) => {
                w.put_u8(TAG_I64);
                w.put_i64(*v);
            }
            Value::U64(v) => {
                w.put_u8(TAG_U64);
                w.put_u64(*v);
            }
            Value::F64Bits(bits) => {
                w.put_u8(TAG_F64);
                w.put_u64(*bits);
            }
            Value::Str(s) => {
                w.put_u8(TAG_STR);
                w.put_str(s);
            }
            Value::Bytes(b) => {
                w.put_u8(TAG_BYTES);
                w.put_bytes(b);
            }
            Value::List(items) => {
                w.put_u8(TAG_LIST);
                w.put_u32(items.len() as u32);
                for item in items {
                    item.encode(w);
                }
            }
            Value::Map(m) => {
                w.put_u8(TAG_MAP);
                w.put_u32(m.len() as u32);
                // BTreeMap iterates in sorted key order: canonical.
                for (k, v) in m {
                    w.put_str(k);
                    v.encode(w);
                }
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => Ok(Value::Bool(r.get_bool()?)),
            TAG_I64 => Ok(Value::I64(r.get_i64()?)),
            TAG_U64 => Ok(Value::U64(r.get_u64()?)),
            TAG_F64 => Ok(Value::F64Bits(r.get_u64()?)),
            TAG_STR => Ok(Value::Str(r.get_string()?)),
            TAG_BYTES => Ok(Value::Bytes(r.get_bytes()?.to_vec())),
            TAG_LIST => {
                let len = r.get_u32()? as usize;
                let mut items = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    items.push(Value::decode(r)?);
                }
                Ok(Value::List(items))
            }
            TAG_MAP => {
                let len = r.get_u32()? as usize;
                let mut map = BTreeMap::new();
                let mut prev: Option<String> = None;
                for _ in 0..len {
                    let key = r.get_string()?;
                    // Enforce canonical (strictly sorted) key order on decode
                    // so a forged non-canonical encoding is rejected rather
                    // than silently re-canonicalised (its hash would differ).
                    if let Some(p) = &prev {
                        if *p >= key {
                            return Err(CodecError::Invalid(format!(
                                "map keys not strictly sorted: {p:?} then {key:?}"
                            )));
                        }
                    }
                    let val = Value::decode(r)?;
                    prev = Some(key.clone());
                    map.insert(key, val);
                }
                Ok(Value::Map(map))
            }
            tag => Err(CodecError::InvalidTag { ty: "Value", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::map([
            ("part", Value::from("gearbox")),
            ("qty", Value::from(2i64)),
            ("unit_price", Value::F64Bits(1999.99f64.to_bits())),
            ("rush", Value::from(true)),
            ("notes", Value::Null),
            (
                "serials",
                Value::list([Value::from(1u64), Value::from(2u64)]),
            ),
            ("blob", Value::from(vec![0u8, 255])),
        ])
    }

    #[test]
    fn roundtrip_nested() {
        let v = sample();
        let bytes = v.encode_to_vec();
        assert_eq!(Value::decode_from_slice(&bytes).unwrap(), v);
    }

    #[test]
    fn map_encoding_is_order_independent() {
        let a = Value::map([("a", Value::from(1i64)), ("b", Value::from(2i64))]);
        let b = Value::map([("b", Value::from(2i64)), ("a", Value::from(1i64))]);
        assert_eq!(a.encode_to_vec(), b.encode_to_vec());
    }

    #[test]
    fn non_canonical_map_rejected() {
        // Hand-encode a map with keys out of order.
        let mut w = Writer::new();
        w.put_u8(TAG_MAP);
        w.put_u32(2);
        w.put_str("b");
        Value::Null.encode(&mut w);
        w.put_str("a");
        Value::Null.encode(&mut w);
        let err = Value::decode_from_slice(&w.into_vec()).unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)));
    }

    #[test]
    fn duplicate_map_keys_rejected() {
        let mut w = Writer::new();
        w.put_u8(TAG_MAP);
        w.put_u32(2);
        w.put_str("a");
        Value::Null.encode(&mut w);
        w.put_str("a");
        Value::Null.encode(&mut w);
        assert!(Value::decode_from_slice(&w.into_vec()).is_err());
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get("part").and_then(Value::as_str), Some("gearbox"));
        assert_eq!(v.get("qty").and_then(Value::as_i64), Some(2));
        assert_eq!(v.get("rush"), Some(&Value::Bool(true)));
        assert_eq!(v.get("unit_price").and_then(Value::as_f64), Some(1999.99));
        assert_eq!(v.get("notes"), Some(&Value::Null));
        assert!(matches!(v.get("serials"), Some(Value::List(items)) if items.len() == 2));
        assert_eq!(
            v.get("blob").and_then(Value::as_bytes),
            Some(&[0u8, 255][..])
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn display_is_compact() {
        let v = Value::map([("k", Value::from(1i64))]);
        assert_eq!(v.to_string(), "{\"k\": 1}");
        assert_eq!(Value::Bytes(vec![0xAB]).to_string(), "0xab");
    }

    #[test]
    fn nan_bits_are_preserved() {
        let v = Value::F64Bits(f64::NAN.to_bits());
        let back = Value::decode_from_slice(&v.encode_to_vec()).unwrap();
        assert_eq!(v, back); // bitwise equality, even for NaN
        assert!(back.as_f64().unwrap().is_nan());
    }

    #[test]
    fn invalid_tag_rejected() {
        assert!(matches!(
            Value::decode_from_slice(&[99]),
            Err(CodecError::InvalidTag {
                ty: "Value",
                tag: 99
            })
        ));
    }
}
