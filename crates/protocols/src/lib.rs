//! Non-repudiation protocols.
//!
//! The paper's framework is deliberately protocol-neutral: "interceptors …
//! can be seen as a flexible framework in which protocols can be deployed
//! as appropriate to the regulatory regime governing an interaction or to
//! the trust relationships between the parties" (§3). This crate provides
//! the protocol suite:
//!
//! **NR-Invocation** ([`invocation`]):
//!
//! * [`invocation::direct`] — the paper's three-message direct exchange
//!   (§3.2): `req,NROreq → resp,NRRreq,NROresp → NRRresp`. No TTP;
//!   safety and liveness under the trusted-interceptor assumptions.
//! * [`invocation::voluntary`] — the asymmetric baseline of Wichert et al
//!   (paper §5, ref \[23\]): client supplies NRO of the request, gets no
//!   evidence back. Cheap but one-sided; benchmarked as E11.
//! * [`invocation::inline_ttp`] — all traffic relayed through inline
//!   TTP(s) that issue their own receipts (paper Fig 3(a)/(b)).
//! * [`invocation::fair_offline`] — a fair-exchange variant with an
//!   *offline* TTP: the response travels encrypted, the key is escrowed,
//!   and resolve/abort sub-protocols guarantee fairness when a party
//!   defects mid-exchange (paper §3.1's stronger trust domain).
//!
//! **NR-Sharing** ([`sharing`]):
//!
//! * [`sharing::coordination`] — the non-repudiable state coordination
//!   protocol of §3.3/B2BObjects: propose → independent signed votes →
//!   unanimous decision → apply, with all evidence persisted.
//! * [`sharing::membership`] — non-repudiable connect/disconnect protocols
//!   governing the sharing group, built on the same coordination round.
//!
//! Supporting pieces: [`message::ProtocolMessage`] (the
//! `B2BProtocolMessage` of §4.1), [`tokens::NrToken`] (NRO/NRR & friends),
//! [`party::Party`] (one organisation's protocol identity: keys, clock,
//! evidence log, key directory), [`scheduler::CommitmentScheduler`] (the
//! batched evidence-commitment pipeline every party routes token issuance
//! and log appends through — sealing epochs on a load-tuned size or a
//! deadline, with [`scheduler::DeadlineSealer`] covering idle logs), [`coordinator::B2BCoordinator`]
//! (`deliver`/`deliverRequest` dispatch to registered
//! [`handler::ProtocolHandler`]s), and [`session`] (the typestate
//! choreography core: every variant above is a typed state machine
//! driven by one shared [`session::ExchangeEngine`], with the TTP as a
//! first-class [`session::Role`]).

pub mod coordinator;
pub mod gossip;
pub mod handler;
pub mod invocation;
pub mod message;
pub mod party;
pub mod scheduler;
pub mod session;
pub mod sharing;
pub mod tokens;

pub use coordinator::B2BCoordinator;
pub use handler::ProtocolHandler;
pub use message::ProtocolMessage;
pub use party::{KeyDirectory, Party, StaticKeyDirectory};
pub use scheduler::{CommitmentMode, CommitmentScheduler, DeadlineSealer, TokenSpec};
pub use session::{
    EscalationAction, EscalationOutcome, ExchangeEngine, ExchangeSupervisor, ExpiryReport, OpenRun,
    RunJournal,
};
pub use tokens::{NrToken, TokenKind};

use std::error::Error;
use std::fmt;

use nonrep_net::NetError;
use nonrep_types::codec::CodecError;
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

/// Errors raised by protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Communication failure (after retries, where applicable).
    Net(NetError),
    /// A signature failed to verify.
    BadSignature {
        /// Whose signature.
        org: OrgId,
        /// What was being verified.
        what: String,
    },
    /// No verifying key known for the organisation.
    UnknownKey(OrgId),
    /// Malformed or out-of-order protocol message.
    BadMessage(String),
    /// No handler registered for the protocol.
    UnknownProtocol(ProtocolId),
    /// Unknown protocol run.
    UnknownRun(RunId),
    /// Application-level validation rejected the action.
    Rejected(String),
    /// The proposal was built against a stale version of shared state.
    StaleVersion {
        /// Version the proposer used.
        proposed_base: u64,
        /// Version the validator holds.
        current: u64,
    },
    /// The run was aborted (offline-TTP abort sub-protocol).
    Aborted(RunId),
    /// Signing failed (key exhausted).
    Signing(String),
    /// Evidence persistence failed.
    Storage(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Net(e) => write!(f, "network: {e}"),
            ProtocolError::BadSignature { org, what } => {
                write!(f, "bad signature from {org} on {what}")
            }
            ProtocolError::UnknownKey(org) => write!(f, "no verifying key for {org}"),
            ProtocolError::BadMessage(msg) => write!(f, "bad message: {msg}"),
            ProtocolError::UnknownProtocol(p) => write!(f, "unknown protocol: {p}"),
            ProtocolError::UnknownRun(r) => write!(f, "unknown run: {r}"),
            ProtocolError::Rejected(msg) => write!(f, "rejected: {msg}"),
            ProtocolError::StaleVersion {
                proposed_base,
                current,
            } => {
                write!(
                    f,
                    "stale version: proposed base {proposed_base}, current {current}"
                )
            }
            ProtocolError::Aborted(r) => write!(f, "run {r} aborted"),
            ProtocolError::Signing(msg) => write!(f, "signing failure: {msg}"),
            ProtocolError::Storage(msg) => write!(f, "storage failure: {msg}"),
        }
    }
}

impl Error for ProtocolError {}

impl From<NetError> for ProtocolError {
    fn from(e: NetError) -> Self {
        ProtocolError::Net(e)
    }
}

impl From<nonrep_crypto::sig::SignError> for ProtocolError {
    fn from(e: nonrep_crypto::sig::SignError) -> Self {
        ProtocolError::Signing(e.to_string())
    }
}

impl From<nonrep_store::StoreError> for ProtocolError {
    fn from(e: nonrep_store::StoreError) -> Self {
        ProtocolError::Storage(e.to_string())
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::BadMessage(e.to_string())
    }
}
