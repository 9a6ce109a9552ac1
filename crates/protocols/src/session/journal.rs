//! The run journal: exchange progress markers in the evidence log.
//!
//! A crash between choreography steps must not orphan a run. Every
//! journalled party appends a [`RunMarker`] record as each step
//! completes and when the run closes (completed or aborted); the markers
//! ride the ordinary hash chain, so they are tamper-evident, survive
//! exactly as far as the log's durability policy guarantees, and cost
//! one unsigned append per step on the hot path (amortised into the
//! same epoch seals as the tokens they describe — no extra signature).
//!
//! On reopen, [`RunJournal::recovered_open_runs`] folds the recovered log into
//! the set of runs that were in flight at the kill: a `Progress` marker
//! opens (or advances) a run, a `Closed`/`Aborted` marker retires it.
//! The recovering party either resumes each open run from its last
//! completed step (the peer's caches make redelivery idempotent) or
//! closes it with [`RunJournal::abort`] — appending the `Aborted`
//! marker, so no run is ever left open and no accusation is
//! manufactured: markers attest nothing about the peer, and
//! adjudicators skip them.

use std::collections::BTreeMap;
use std::sync::Arc;

use nonrep_store::record::{MarkerPhase, RunMarker};
use nonrep_types::ids::{ProtocolId, RunId};

use crate::party::Party;
use crate::ProtocolError;

/// A run the journal shows as in flight (opened, never closed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRun {
    /// The run identifier.
    pub run: RunId,
    /// The protocol variant that was executing it.
    pub variant: ProtocolId,
    /// The last choreography step whose completion reached the log.
    pub last_step: u32,
}

/// Journals exchange progress markers through a party's commitment
/// pipeline. Cheap to clone.
#[derive(Debug, Clone)]
pub struct RunJournal {
    party: Arc<Party>,
}

impl RunJournal {
    /// A journal writing through `party`'s evidence pipeline.
    pub fn new(party: Arc<Party>) -> Arc<Self> {
        Arc::new(Self { party })
    }

    /// The party whose log this journal writes.
    pub fn party(&self) -> &Arc<Party> {
        &self.party
    }

    fn append(&self, marker: RunMarker) -> Result<(), ProtocolError> {
        let draft = marker.to_draft(self.party.org().clone(), self.party.now());
        self.party.record_draft(draft)
    }

    /// Records that `run` completed choreography step `step` under
    /// `variant`. The first progress marker of a run opens it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] on persistence failure.
    pub fn progress(
        &self,
        run: RunId,
        variant: &ProtocolId,
        step: u32,
    ) -> Result<(), ProtocolError> {
        self.append(RunMarker {
            run_id: run,
            variant: variant.to_string(),
            step,
            phase: MarkerPhase::Progress,
        })
    }

    /// Records that `run` completed.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] on persistence failure.
    pub fn close(&self, run: RunId, variant: &ProtocolId, step: u32) -> Result<(), ProtocolError> {
        self.append(RunMarker {
            run_id: run,
            variant: variant.to_string(),
            step,
            phase: MarkerPhase::Closed,
        })
    }

    /// Closes `run` without completion (timeout abort, or recovery
    /// declining to resume). The marker becomes durable with the next
    /// sealed epoch, or at once on a write-through log; a caller that
    /// must know it is on disk follows with `Party::flush_evidence`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] on persistence failure.
    pub fn abort(&self, run: RunId, variant: &ProtocolId, step: u32) -> Result<(), ProtocolError> {
        self.append(RunMarker {
            run_id: run,
            variant: variant.to_string(),
            step,
            phase: MarkerPhase::Aborted,
        })
    }

    /// Folds this journal's own party log into the set of runs that were
    /// open when it was last written: every run with a `Progress` marker
    /// and no `Closed`/`Aborted` marker, with the deepest step that
    /// reached the log. Call on the recovered log before re-registering
    /// the party on the bus.
    pub fn recovered_open_runs(&self) -> Vec<OpenRun> {
        let mut open: BTreeMap<RunId, OpenRun> = BTreeMap::new();
        self.party.log().for_each(&mut |record| {
            let Some(marker) = RunMarker::from_record(record) else {
                return;
            };
            match marker.phase {
                MarkerPhase::Progress => {
                    let entry = open.entry(marker.run_id).or_insert_with(|| OpenRun {
                        run: marker.run_id,
                        variant: ProtocolId::new(marker.variant.clone()),
                        last_step: 0,
                    });
                    entry.last_step = entry.last_step.max(marker.step);
                }
                MarkerPhase::Closed | MarkerPhase::Aborted => {
                    open.remove(&marker.run_id);
                }
            }
        });
        open.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::StaticKeyDirectory;
    use nonrep_types::time::LogicalClock;

    fn fixture() -> (Arc<Party>, Arc<RunJournal>) {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let party = Party::quick("org", 7, &clock, &dir);
        let journal = RunJournal::new(party.clone());
        (party, journal)
    }

    #[test]
    fn open_runs_are_those_with_progress_but_no_close() {
        let (_party, journal) = fixture();
        let variant = ProtocolId::new("direct");
        let done = RunId::from_u128(1);
        let open = RunId::from_u128(2);
        let aborted = RunId::from_u128(3);
        journal.progress(done, &variant, 1).unwrap();
        journal.progress(open, &variant, 1).unwrap();
        journal.progress(open, &variant, 3).unwrap();
        journal.progress(aborted, &variant, 1).unwrap();
        journal.close(done, &variant, 3).unwrap();
        journal.abort(aborted, &variant, 1).unwrap();

        let recovered = journal.recovered_open_runs();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].run, open);
        assert_eq!(recovered[0].variant, variant);
        assert_eq!(recovered[0].last_step, 3);
    }

    #[test]
    fn markers_keep_the_chain_verifiable() {
        let (party, journal) = fixture();
        let variant = ProtocolId::new("fair-offline");
        journal.progress(RunId::from_u128(9), &variant, 1).unwrap();
        journal.close(RunId::from_u128(9), &variant, 4).unwrap();
        party.log().verify().unwrap();
    }

    #[test]
    fn no_markers_means_no_open_runs() {
        let (_party, journal) = fixture();
        assert!(journal.recovered_open_runs().is_empty());
    }
}
