//! Strongly-typed identifiers.
//!
//! The paper's model names several distinct kinds of entity: organisations
//! (parties to an interaction), services (URIs, §3.4), protocol runs
//! ("a unique request identifier, to distinguish between protocol runs and
//! to bind protocol steps to a run", §3.2), protocols themselves, and
//! information-sharing groups (§3.3). Each gets a newtype so they cannot be
//! confused ([C-NEWTYPE]).

use std::fmt;

use crate::codec::{CodecError, Decode, Encode, Reader, Writer};

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(String);

        impl $name {
            /// Creates an identifier from anything string-like.
            pub fn new(s: impl Into<String>) -> Self {
                Self(s.into())
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self(s)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Encode for $name {
            fn encode(&self, w: &mut Writer) {
                w.put_str(&self.0);
            }
        }

        impl Decode for $name {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(Self(r.get_string()?))
            }
        }
    };
}

string_id! {
    /// An organisation participating in a composite service (paper Fig 1:
    /// car dealer, manufacturer, part suppliers, TTPs).
    OrgId
}

string_id! {
    /// A globally resolvable service name (paper §3.4 requires service
    /// references to resolve to "a meaningful, agreed representation of the
    /// service such as a URI").
    ServiceUri
}

string_id! {
    /// A method on a deployed component (the operation being invoked).
    MethodName
}

string_id! {
    /// Identifies a registered non-repudiation protocol (e.g. `"direct"`,
    /// `"inline-ttp"`), mirroring the `getInstance(platform, protocol)`
    /// factory arguments in paper §4.2.
    ProtocolId
}

string_id! {
    /// Identifies a group of organisations sharing a B2BObject (§3.3).
    GroupId
}

/// Unique identifier of a protocol run.
///
/// Paper §3.2: "Non-repudiation tokens include a unique request identifier,
/// to distinguish between protocol runs and to bind protocol steps to a
/// run". Runs are minted from a secure random source by the initiating
/// interceptor; 128 bits keeps collision probability negligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub [u8; 16]);

impl RunId {
    /// Builds a run identifier from raw bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Self(bytes)
    }

    /// The raw bytes of the identifier.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Deterministic run id for tests: the 128-bit little-endian value `n`.
    pub fn from_u128(n: u128) -> Self {
        Self(n.to_le_bytes())
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl Encode for RunId {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.0);
    }
}

impl Decode for RunId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let raw = r.get_raw(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(raw);
        Ok(Self(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_accessors() {
        let org = OrgId::new("supplier-a");
        assert_eq!(org.to_string(), "supplier-a");
        assert_eq!(org.as_str(), "supplier-a");
        assert_eq!(org.clone().as_str(), "supplier-a");
        assert_eq!(OrgId::from("x"), OrgId::new("x"));
    }

    #[test]
    fn ids_are_distinct_types() {
        // Purely a compile-time property; keep a runtime witness anyway.
        let s = ServiceUri::new("urn:parts/gearbox");
        let m = MethodName::new("quote");
        assert_ne!(s.as_str(), m.as_str());
    }

    #[test]
    fn id_codec_roundtrip() {
        let org = OrgId::new("manufacturer");
        let bytes = org.encode_to_vec();
        assert_eq!(OrgId::decode_from_slice(&bytes).unwrap(), org);
    }

    #[test]
    fn run_id_roundtrip_and_display() {
        let run = RunId::from_u128(0xDEAD_BEEF);
        let bytes = run.encode_to_vec();
        assert_eq!(bytes.len(), 16);
        assert_eq!(RunId::decode_from_slice(&bytes).unwrap(), run);
        assert_eq!(run.to_string().len(), 32);
    }

    #[test]
    fn run_id_ordering_is_stable() {
        let a = RunId::from_u128(1);
        let b = RunId::from_u128(2);
        assert_ne!(a, b);
        // Ordering exists and is consistent (exact order is byte-wise).
        assert_eq!(a.cmp(&b), a.as_bytes().cmp(b.as_bytes()));
    }
}
