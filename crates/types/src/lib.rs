//! Shared base types for the non-repudiation middleware.
//!
//! This crate is the bottom of the workspace dependency graph. It provides:
//!
//! * [`ids`] — strongly-typed identifiers (organisations, protocol runs,
//!   services, sharing groups …). Newtypes keep the rest of the workspace
//!   honest about which string/number means what ([C-NEWTYPE]).
//! * [`value`] — [`Value`], a dynamic value model used for component method
//!   parameters and results (the Rust stand-in for the paper's reflective
//!   access to EJB invocation parameters).
//! * [`codec`] — a *canonical*, deterministic binary encoding. Everything
//!   that is ever signed or hashed in the workspace goes through this codec,
//!   so that two honest parties always compute identical digests for
//!   identical logical content.
//! * [`time`] — logical timestamps and pluggable clocks (deterministic tests,
//!   simulated time).
//!
//! # Example
//!
//! ```
//! use nonrep_types::{codec::Encode, value::Value, ids::OrgId};
//!
//! let org = OrgId::new("manufacturer");
//! let v = Value::map([("part", Value::from("gearbox")), ("qty", Value::from(2i64))]);
//! let bytes = v.encode_to_vec();
//! assert!(!bytes.is_empty());
//! assert_eq!(org.as_str(), "manufacturer");
//! ```

pub mod codec;
pub mod ids;
pub mod time;
pub mod value;

pub use codec::{CodecError, Decode, Encode, Reader, Writer};
pub use ids::{GroupId, MethodName, OrgId, ProtocolId, RunId, ServiceUri};
pub use time::{Clock, LogicalClock, Timestamp};
pub use value::Value;
