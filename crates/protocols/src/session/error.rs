//! Typed exchange errors: peer-fault vs transport-fault vs local-fault.
//!
//! The legacy invocation clients surfaced every failure as a flat
//! [`ProtocolError`], which forced the simulator and adjudicator to
//! pattern-match on message *text* to distinguish "the peer defected"
//! from "the network ate the message" from "my own key is exhausted".
//! [`ExchangeError`] makes the three causes first-class so callers can
//! assert on them directly; both directions of conversion with
//! [`ProtocolError`] are lossless enough that handler code (which keeps
//! the coordinator-facing [`ProtocolError`] surface) composes with
//! engine helpers via `?`.

use std::error::Error;
use std::fmt;

use nonrep_net::NetError;
use nonrep_types::codec::CodecError;
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::ProtocolError;

/// The remote party misbehaved: bad evidence, malformed or out-of-order
/// messages, or an explicit refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerFault {
    /// A signature (frame or token) failed to verify.
    BadSignature {
        /// Whose signature.
        org: OrgId,
        /// What was being verified.
        what: String,
    },
    /// Malformed protocol message.
    BadMessage(String),
    /// The peer replied with a step the choreography does not allow here.
    UnexpectedStep {
        /// The run the exchange was pinned to.
        run: RunId,
        /// The step the session type expected.
        expected: u32,
        /// The step (and run) actually received.
        got: u32,
    },
    /// The peer rejected the action at the application level.
    Rejected(String),
    /// The run was aborted (offline-TTP abort sub-protocol).
    Aborted(RunId),
    /// The peer does not know the run.
    UnknownRun(RunId),
    /// The peer does not speak the protocol.
    UnknownProtocol(ProtocolId),
    /// The proposal was built against a stale version of shared state.
    StaleVersion {
        /// Version the proposer used.
        proposed_base: u64,
        /// Version the validator holds.
        current: u64,
    },
    /// The peer failed to act within its step deadline: the run's
    /// deadline budget expired while this party awaited the peer's next
    /// message. The partial evidence sealed so far remains valid; the
    /// supervisor decides the escalation (abort, resolve, or report).
    Timeout {
        /// The run whose deadline expired.
        run: RunId,
        /// The choreography step that was awaited.
        step: u32,
        /// Simulated milliseconds waited past the last progress.
        waited_ms: u64,
    },
}

/// This party could not do its share: missing keys, exhausted signing
/// material, or evidence persistence failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalFault {
    /// No verifying key known for the organisation.
    UnknownKey(OrgId),
    /// Signing failed (key exhausted).
    Signing(String),
    /// Evidence persistence failed.
    Storage(String),
}

/// A failed exchange, classified by who (or what) is at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The remote party misbehaved.
    Peer(PeerFault),
    /// Communication failed (after retries, where applicable).
    Transport(NetError),
    /// This party failed locally.
    Local(LocalFault),
}

impl fmt::Display for PeerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerFault::BadSignature { org, what } => {
                write!(f, "bad signature from {org} on {what}")
            }
            PeerFault::BadMessage(msg) => write!(f, "bad message: {msg}"),
            PeerFault::UnexpectedStep { run, expected, got } => {
                write!(f, "expected step {expected} of run {run}, got step {got}")
            }
            PeerFault::Rejected(msg) => write!(f, "rejected: {msg}"),
            PeerFault::Aborted(r) => write!(f, "run {r} aborted"),
            PeerFault::UnknownRun(r) => write!(f, "unknown run: {r}"),
            PeerFault::UnknownProtocol(p) => write!(f, "unknown protocol: {p}"),
            PeerFault::StaleVersion {
                proposed_base,
                current,
            } => write!(
                f,
                "stale version: proposed base {proposed_base}, current {current}"
            ),
            PeerFault::Timeout {
                run,
                step,
                waited_ms,
            } => write!(
                f,
                "run {run} timed out awaiting step {step} ({waited_ms} ms past deadline)"
            ),
        }
    }
}

impl fmt::Display for LocalFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalFault::UnknownKey(org) => write!(f, "no verifying key for {org}"),
            LocalFault::Signing(msg) => write!(f, "signing failure: {msg}"),
            LocalFault::Storage(msg) => write!(f, "storage failure: {msg}"),
        }
    }
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::Peer(e) => write!(f, "peer fault: {e}"),
            ExchangeError::Transport(e) => write!(f, "transport fault: {e}"),
            ExchangeError::Local(e) => write!(f, "local fault: {e}"),
        }
    }
}

impl Error for ExchangeError {}

impl From<ProtocolError> for ExchangeError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Net(e) => ExchangeError::Transport(e),
            ProtocolError::BadSignature { org, what } => {
                ExchangeError::Peer(PeerFault::BadSignature { org, what })
            }
            ProtocolError::BadMessage(msg) => ExchangeError::Peer(PeerFault::BadMessage(msg)),
            ProtocolError::Rejected(msg) => ExchangeError::Peer(PeerFault::Rejected(msg)),
            ProtocolError::Aborted(r) => ExchangeError::Peer(PeerFault::Aborted(r)),
            ProtocolError::UnknownRun(r) => ExchangeError::Peer(PeerFault::UnknownRun(r)),
            ProtocolError::UnknownProtocol(p) => ExchangeError::Peer(PeerFault::UnknownProtocol(p)),
            ProtocolError::StaleVersion {
                proposed_base,
                current,
            } => ExchangeError::Peer(PeerFault::StaleVersion {
                proposed_base,
                current,
            }),
            ProtocolError::UnknownKey(org) => ExchangeError::Local(LocalFault::UnknownKey(org)),
            ProtocolError::Signing(msg) => ExchangeError::Local(LocalFault::Signing(msg)),
            ProtocolError::Storage(msg) => ExchangeError::Local(LocalFault::Storage(msg)),
        }
    }
}

impl From<ExchangeError> for ProtocolError {
    fn from(e: ExchangeError) -> Self {
        match e {
            ExchangeError::Transport(e) => ProtocolError::Net(e),
            ExchangeError::Peer(PeerFault::BadSignature { org, what }) => {
                ProtocolError::BadSignature { org, what }
            }
            ExchangeError::Peer(PeerFault::BadMessage(msg)) => ProtocolError::BadMessage(msg),
            ExchangeError::Peer(PeerFault::UnexpectedStep { run, expected, got }) => {
                ProtocolError::BadMessage(format!(
                    "expected step {expected} of run {run}, got step {got}"
                ))
            }
            ExchangeError::Peer(PeerFault::Rejected(msg)) => ProtocolError::Rejected(msg),
            ExchangeError::Peer(PeerFault::Aborted(r)) => ProtocolError::Aborted(r),
            ExchangeError::Peer(PeerFault::UnknownRun(r)) => ProtocolError::UnknownRun(r),
            ExchangeError::Peer(PeerFault::UnknownProtocol(p)) => ProtocolError::UnknownProtocol(p),
            ExchangeError::Peer(PeerFault::StaleVersion {
                proposed_base,
                current,
            }) => ProtocolError::StaleVersion {
                proposed_base,
                current,
            },
            // Lossy by design (like UnexpectedStep): the coordinator
            // surface has no timeout variant; the supervisor retains the
            // typed form.
            ExchangeError::Peer(PeerFault::Timeout {
                run,
                step,
                waited_ms,
            }) => ProtocolError::Rejected(format!(
                "run {run} timed out awaiting step {step} ({waited_ms} ms past deadline)"
            )),
            ExchangeError::Local(LocalFault::UnknownKey(org)) => ProtocolError::UnknownKey(org),
            ExchangeError::Local(LocalFault::Signing(msg)) => ProtocolError::Signing(msg),
            ExchangeError::Local(LocalFault::Storage(msg)) => ProtocolError::Storage(msg),
        }
    }
}

impl From<NetError> for ExchangeError {
    fn from(e: NetError) -> Self {
        ExchangeError::Transport(e)
    }
}

impl From<nonrep_crypto::sig::SignError> for ExchangeError {
    fn from(e: nonrep_crypto::sig::SignError) -> Self {
        ExchangeError::Local(LocalFault::Signing(e.to_string()))
    }
}

impl From<nonrep_store::StoreError> for ExchangeError {
    fn from(e: nonrep_store::StoreError) -> Self {
        ExchangeError::Local(LocalFault::Storage(e.to_string()))
    }
}

impl From<CodecError> for ExchangeError {
    fn from(e: CodecError) -> Self {
        ExchangeError::Peer(PeerFault::BadMessage(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_error_round_trips_by_class() {
        let cases = vec![
            (
                ProtocolError::Net(NetError::Endpoint("down".into())),
                "transport",
            ),
            (
                ProtocolError::BadSignature {
                    org: OrgId::new("o"),
                    what: "frame".into(),
                },
                "peer",
            ),
            (ProtocolError::BadMessage("junk".into()), "peer"),
            (ProtocolError::Rejected("no".into()), "peer"),
            (ProtocolError::Aborted(RunId::from_u128(7)), "peer"),
            (ProtocolError::UnknownRun(RunId::from_u128(7)), "peer"),
            (ProtocolError::UnknownProtocol(ProtocolId::new("p")), "peer"),
            (
                ProtocolError::StaleVersion {
                    proposed_base: 1,
                    current: 2,
                },
                "peer",
            ),
            (ProtocolError::UnknownKey(OrgId::new("o")), "local"),
            (ProtocolError::Signing("worn".into()), "local"),
            (ProtocolError::Storage("disk".into()), "local"),
        ];
        for (err, class) in cases {
            let ex = ExchangeError::from(err.clone());
            match class {
                "peer" => assert!(matches!(ex, ExchangeError::Peer(_)), "{err:?}"),
                "transport" => assert!(matches!(ex, ExchangeError::Transport(_)), "{err:?}"),
                _ => assert!(matches!(ex, ExchangeError::Local(_)), "{err:?}"),
            }
            assert_eq!(ProtocolError::from(ex), err, "lossless round trip");
        }
    }

    #[test]
    fn peer_timeout_flattens_to_rejected() {
        let ex = ExchangeError::Peer(PeerFault::Timeout {
            run: RunId::from_u128(5),
            step: 3,
            waited_ms: 120,
        });
        match ProtocolError::from(ex) {
            ProtocolError::Rejected(msg) => {
                assert!(msg.contains("timed out awaiting step 3"), "{msg}");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn unexpected_step_flattens_to_bad_message() {
        let ex = ExchangeError::Peer(PeerFault::UnexpectedStep {
            run: RunId::from_u128(3),
            expected: 2,
            got: 9,
        });
        match ProtocolError::from(ex) {
            ProtocolError::BadMessage(msg) => {
                assert!(msg.contains("expected step 2"), "{msg}");
                assert!(msg.contains("got step 9"), "{msg}");
            }
            other => panic!("expected BadMessage, got {other:?}"),
        }
    }
}
