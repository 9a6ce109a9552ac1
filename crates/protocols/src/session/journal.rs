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
//! The open-run set is a [`Fold`] the party's scheduler keeps: its
//! build feeds it the reopened log, and every append after that, so
//! [`RunJournal::recovered_open_runs`] reads it without a scan. A
//! `Progress` marker opens (or advances) a run, a `Closed`/`Aborted`
//! marker retires it.
//!
//! The recovering party either resumes each open run from its last
//! completed step (the peer's caches make redelivery idempotent) or
//! closes it with an `Aborted` [`RunJournal::mark`] — appending the
//! marker, so no run is ever left open and no accusation is
//! manufactured: markers attest nothing about the peer, and
//! adjudicators skip them.

use std::collections::BTreeMap;
use std::sync::Arc;

use nonrep_store::record::{MarkerPhase, RunMarker};
use nonrep_store::{EvidenceRecord, Fold, RecordDraft};
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
    /// The step of the run's latest `Progress` marker in log order.
    pub last_step: u32,
}

/// The runs a party's log shows in flight, by run: the journal's fold.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct OpenRuns(pub(crate) BTreeMap<RunId, OpenRun>);

impl Fold for OpenRuns {
    fn absorb(&mut self, record: &EvidenceRecord) {
        let Some(marker) = RunMarker::from_record(record) else {
            return;
        };
        match marker.phase {
            MarkerPhase::Progress => {
                let run = marker.run_id;
                let entry = self.0.entry(run).or_insert_with(|| OpenRun {
                    run,
                    variant: ProtocolId::new(marker.variant),
                    last_step: 0,
                });
                // Log order, not step order: a fair server's escrow leg
                // (step 10) precedes the step-2 reply it secures.
                entry.last_step = marker.step;
            }
            MarkerPhase::Closed | MarkerPhase::Aborted => {
                self.0.remove(&marker.run_id);
            }
        }
    }
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

    /// Records that `run_id` under `variant` reached `step`: a
    /// `Progress` marker opens (or advances) the run, a `Closed` or
    /// `Aborted` marker retires it. A marker becomes durable with the
    /// next sealed epoch, or at once on a write-through log; a caller
    /// that must know it is on disk follows with
    /// `Party::flush_evidence`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] on persistence failure.
    pub fn mark(
        &self,
        run_id: RunId,
        variant: &ProtocolId,
        step: u32,
        phase: MarkerPhase,
    ) -> Result<(), ProtocolError> {
        self.party
            .record_draft(self.marker(run_id, variant, step, phase))
    }

    /// The record [`RunJournal::mark`] appends.
    pub(crate) fn marker(
        &self,
        run_id: RunId,
        variant: &ProtocolId,
        step: u32,
        phase: MarkerPhase,
    ) -> RecordDraft {
        let variant = variant.to_string();
        let marker = RunMarker {
            run_id,
            variant,
            step,
            phase,
        };
        marker.to_draft(self.party.org().clone(), self.party.now())
    }

    /// The runs this journal's party log shows open: every run with a
    /// `Progress` marker and no `Closed`/`Aborted` marker, with the step
    /// of its latest `Progress` marker. Read from the scheduler's
    /// fold, so it costs no log scan. Call on the recovered log before
    /// re-registering the party on the bus.
    pub fn recovered_open_runs(&self) -> Vec<OpenRun> {
        self.party.scheduler().unclosed_runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::StaticKeyDirectory;
    use nonrep_store::{EvidenceLog, MemoryLog, RecordDraft, StoreError};
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
        journal
            .mark(done, &variant, 1, MarkerPhase::Progress)
            .unwrap();
        journal
            .mark(open, &variant, 1, MarkerPhase::Progress)
            .unwrap();
        journal
            .mark(open, &variant, 3, MarkerPhase::Progress)
            .unwrap();
        journal
            .mark(aborted, &variant, 1, MarkerPhase::Progress)
            .unwrap();
        journal
            .mark(done, &variant, 3, MarkerPhase::Closed)
            .unwrap();
        journal
            .mark(aborted, &variant, 1, MarkerPhase::Aborted)
            .unwrap();

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
        journal
            .mark(RunId::from_u128(9), &variant, 1, MarkerPhase::Progress)
            .unwrap();
        journal
            .mark(RunId::from_u128(9), &variant, 4, MarkerPhase::Closed)
            .unwrap();
        party.log().verify().unwrap();
    }

    /// A log that counts the reads able to walk it from record 0:
    /// `for_each`, `for_each_window`, `records`, and a `snapshot_range`
    /// that starts at 0. Every range snapshotted is kept.
    #[derive(Default)]
    struct CountingLog {
        inner: MemoryLog,
        passes: parking_lot::Mutex<u64>,
        ranges: parking_lot::Mutex<Vec<std::ops::Range<u64>>>,
    }

    impl EvidenceLog for CountingLog {
        fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
            self.inner.append(draft)
        }

        fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
            *self.passes.lock() += 1;
            self.inner.for_each(f)
        }

        fn for_each_window(
            &self,
            window_len: u64,
            f: &mut dyn FnMut(&[Arc<EvidenceRecord>]) -> bool,
        ) {
            *self.passes.lock() += 1;
            self.inner.for_each_window(window_len, f)
        }

        fn records(&self) -> Vec<Arc<EvidenceRecord>> {
            *self.passes.lock() += 1;
            self.inner.records()
        }

        fn snapshot_range(&self, range: std::ops::Range<u64>) -> Vec<Arc<EvidenceRecord>> {
            if range.start == 0 {
                *self.passes.lock() += 1;
            }
            self.ranges.lock().push(range.clone());
            self.inner.snapshot_range(range)
        }

        fn head(&self) -> nonrep_crypto::digest::Digest {
            self.inner.head()
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn a_party_build_is_the_only_pass_over_its_log() {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let log = Arc::new(CountingLog::default());
        let keys = Party::quick("org", 7, &clock, &dir).keys().clone();
        let build = || {
            Party::with_commitment(
                "org",
                keys.clone(),
                Arc::new(clock.clone()),
                log.clone(),
                dir.clone(),
                nonrep_crypto::rng::SecureRandom::from_seed(8),
                crate::scheduler::CommitmentMode::auto(50),
            )
        };
        let variant = ProtocolId::new("direct");
        let (first, second) = (RunId::from_u128(1), RunId::from_u128(2));
        {
            let party = build();
            let journal = RunJournal::new(party.clone());
            journal
                .mark(first, &variant, 1, MarkerPhase::Progress)
                .unwrap();
            party.flush_evidence().unwrap();
            journal
                .mark(second, &variant, 1, MarkerPhase::Progress)
                .unwrap();
        }
        *log.passes.lock() = 0;
        log.ranges.lock().clear();

        // The reopen: one pass, however many folds read it.
        let party = build();
        let journal = RunJournal::new(party.clone());
        assert_eq!(*log.passes.lock(), 1);
        assert_eq!(journal.recovered_open_runs().len(), 2);

        // Appends, seals and reading the open runs walk nothing.
        journal
            .mark(first, &variant, 3, MarkerPhase::Closed)
            .unwrap();
        let pending = party.scheduler().unsealed_len();
        let len = log.len();
        party.flush_evidence().unwrap();
        assert_eq!(journal.recovered_open_runs().len(), 1);
        assert_eq!(*log.passes.lock(), 1);
        // The seal read its own unsealed tail and nothing before it.
        assert_eq!(*log.ranges.lock(), vec![len - pending..len]);
    }

    #[test]
    fn no_markers_means_no_open_runs() {
        let (_party, journal) = fixture();
        assert!(journal.recovered_open_runs().is_empty());
    }
}
