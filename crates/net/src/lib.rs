//! Communication substrate for the non-repudiation middleware.
//!
//! Paper §3.1, assumption 2: "The communication channel between trusted
//! interceptors provides eventual message delivery (there is a bounded
//! number of temporary network and computer related failures)." This crate
//! provides channels with exactly that failure model, under test control:
//!
//! * [`bus`] — [`LocalBus`], a synchronous in-process request/response bus
//!   connecting organisation endpoints (the transport under the paper's
//!   `deliver`/`deliverRequest` coordinator interface, §4.1). Supports
//!   fault injection and latency accounting on a shared logical clock.
//! * [`fault`] — [`FaultPlan`]: message drops with a *bounded* number of
//!   consecutive failures per link (the paper's assumption), link
//!   partitions, node crashes/recoveries.
//! * [`latency`] — latency models (constant, uniform, LAN/WAN presets)
//!   used to account simulated time for the trust-domain comparison
//!   (experiment E3).
//! * [`retry`] — [`ReliableRequester`], bounded retransmission over the
//!   bus. With a `FaultPlan` whose failures are bounded and retries
//!   exceeding that bound, delivery is guaranteed — making the liveness
//!   assumption executable.
//! * [`stats`] — message/byte/drop accounting for the communication
//!   overhead experiment (E8).

pub mod bus;
pub mod fault;
pub mod latency;
pub mod retry;
pub mod stats;

pub use bus::{BusEndpoint, LocalBus, RequestBus};
pub use fault::FaultPlan;
pub use latency::LatencyModel;
pub use retry::{ReliableRequester, RetryPolicy};
pub use stats::NetStats;

use std::error::Error;
use std::fmt;

use nonrep_types::ids::OrgId;

/// Errors surfaced by the communication substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination organisation is not registered on the bus.
    UnknownDestination(OrgId),
    /// The message was dropped by fault injection (temporary failure).
    Dropped,
    /// The response was dropped by fault injection: the request *was*
    /// delivered and may have been executed (at-most-once ambiguity).
    ResponseDropped,
    /// Sender and receiver are in different partitions.
    Partitioned,
    /// The destination node is crashed.
    Crashed(OrgId),
    /// The remote endpoint returned an application-level failure.
    Endpoint(String),
    /// Retries were exhausted without successful delivery.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownDestination(org) => write!(f, "unknown destination {org}"),
            NetError::Dropped => f.write_str("message dropped (temporary failure)"),
            NetError::ResponseDropped => {
                f.write_str("response dropped after delivery (temporary failure)")
            }
            NetError::Partitioned => f.write_str("link partitioned"),
            NetError::Crashed(org) => write!(f, "node {org} is crashed"),
            NetError::Endpoint(msg) => write!(f, "endpoint failure: {msg}"),
            NetError::RetriesExhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} attempts")
            }
        }
    }
}

impl Error for NetError {}

impl NetError {
    /// `true` for failures that a retransmission may cure.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            NetError::Dropped
                | NetError::ResponseDropped
                | NetError::Partitioned
                | NetError::Crashed(_)
        )
    }
}
