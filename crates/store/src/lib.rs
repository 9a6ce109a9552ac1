//! Persistence substrate for the non-repudiation middleware.
//!
//! Paper §3.5: "Persistence services are required both to log
//! non-repudiation evidence and to store the state of invocation
//! parameters/results and of shared information. Non-repudiation evidence
//! will include a signed secure digest of state that is held in a state
//! store. Persistence services should support the mapping of the state
//! digest to the representation of state in the state store."
//!
//! * [`record`] — [`EvidenceRecord`], the unit of the audit trail. Records
//!   are **hash-chained**: each embeds the hash of its predecessor, so any
//!   after-the-fact tampering with the local log is detectable (a
//!   strengthening over the paper's plain log, see DESIGN.md §5.2).
//!   [`EpochCommitment`] seals a range of records under one signed Merkle
//!   root, amortizing a signature over the whole range and letting an
//!   adjudicator authenticate a *window* of the log without a full replay.
//! * [`log`] — the [`EvidenceLog`] trait with in-memory and append-only
//!   file backends (records stored behind `Arc`, snapshots clone handles,
//!   never payloads), chain verification, queries by protocol run, and
//!   the [`SyncPolicy`] durability contract (fsync per append, one
//!   grouped fsync per sealed epoch, or async group commit),
//!   and the [`Fold`] trait: state a party derives from its own log,
//!   fed by one reopen pass and then by every append.
//! * [`group_commit`] — the [`GroupCommitQueue`] behind
//!   [`SyncPolicy::GroupCommit`]: one dedicated sync thread per log, fed
//!   by a bounded handoff channel, coalescing concurrently sealed epochs
//!   into one write and one device barrier, with [`DurabilityTicket`]
//!   completions.
//! * [`state`] — [`StateStore`], a content-addressed store mapping digests
//!   to state bytes, with named version histories for shared objects.

pub mod group_commit;
pub mod log;
pub mod record;
pub mod state;

pub use group_commit::{DurabilityTicket, GroupCommitQueue};
pub use log::{DurabilityClass, EvidenceLog, FileLog, Fold, MemoryLog, SyncPolicy};
pub use record::{
    ChainViolation, EpochCommitment, EvidenceRecord, MarkerPhase, RecordDraft, RunMarker,
    EPOCH_KIND,
};
pub use state::StateStore;

use std::error::Error;
use std::fmt;

/// Errors from persistence operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (file backend).
    Io(std::io::Error),
    /// Stored bytes failed to decode.
    Corrupt(String),
    /// The hash chain does not verify.
    Chain(ChainViolation),
    /// The operation cannot proceed right now, but the log itself is
    /// intact — e.g. a seal retry is in its failure cooldown, or the
    /// signer behind it is exhausted. Distinct from [`StoreError::Corrupt`]
    /// so monitors matching on corruption do not alarm on backoff.
    Unavailable(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Chain(v) => write!(f, "chain violation: {v}"),
            StoreError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
