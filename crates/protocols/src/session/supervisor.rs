//! The exchange supervisor: deadline tracking and timeout escalation.
//!
//! Liveness in an asynchronous exchange cannot come from the
//! choreography alone — a peer that simply stops talking leaves the
//! session suspended at a receive with no event to drive it. The
//! supervisor closes that hole: every in-flight run registers a watch
//! ([`ExchangeSupervisor::watch`]) carrying a deadline on the shared [`Clock`] and an
//! [`EscalationAction`] to fire if the deadline passes before the run
//! completes. Periodic [`ExchangeSupervisor::sweep`] calls (through
//! `OrgMiddleware::tick` in crate `nonrep_core`; the fleet simulator
//! calls it on its logical clock) fire every expired watch exactly once
//! and report what happened.
//!
//! The escalation ladder, least to most drastic:
//!
//! 1. **retry** — the transport layer's business: `ReliableRequester`
//!    re-sends a transiently failed message up to its policy's attempt
//!    count (`NetError::RetriesExhausted`). It keeps no clock; the
//!    supervisor never re-sends.
//! 2. **abort choreography** — the fair-offline server escalates to the
//!    TTP's abort sub-protocol, closing the run so a stalled client can
//!    never collect the key later. If the client already delivered the
//!    receipt, or resolved first (the TTP then answers with it), the
//!    action reports [`EscalationOutcome::AlreadyComplete`] and nothing is
//!    aborted — the timeout path never manufactures an
//!    `AbortedAfterReceipt` finding against an honest server. An abort
//!    the TTP did not answer is re-armed one receipt window later.
//!
//! Variants with no recourse protocol (direct, voluntary, inline TTP)
//! have no rung of their own yet: their partial evidence is already in
//! the log and reaches disk with the party's next sealed epoch. The
//! middleware arms no watch for them yet.
//!
//! Safety never depends on any of this firing: a run the supervisor
//! abandons is merely unfinished, not unfair. Timeouts buy liveness
//! (every run terminates) and attribution (the evidence shows *who*
//! stalled), nothing else.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use nonrep_types::ids::{ProtocolId, RunId};
use nonrep_types::time::{Clock, Timestamp};
use parking_lot::Mutex;

/// What an [`EscalationAction`] did when its watch expired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscalationOutcome {
    /// The run was closed through an abort choreography (fair
    /// exchange): the TTP confirmed the abort, the stalled peer can
    /// never finish the run.
    Aborted,
    /// The run had in fact completed: the awaited message raced the
    /// sweep, or was the escalation's answer (the TTP answering the fair
    /// server's abort with the client's receipt). Nothing was aborted.
    AlreadyComplete,
    /// Escalation itself failed (the fair server's abort: the TTP was
    /// unreachable or refused); the run is not closed, and the action may
    /// have re-armed its watch to retry. The error goes to the operator.
    Failed(String),
}

/// The escalation to run when a watched run's deadline expires.
///
/// Implementations must be idempotent and must re-check run state:
/// between the sweep observing the expiry and the action firing, the
/// awaited message may have arrived.
pub trait EscalationAction: Send + Sync {
    /// Escalates the expired `run`. Never called twice for one watch.
    fn escalate(&self, run: RunId) -> EscalationOutcome;
}

/// One fired expiration, as reported by [`ExchangeSupervisor::sweep`].
#[derive(Debug, Clone)]
pub struct ExpiryReport {
    /// The run whose deadline passed.
    pub run: RunId,
    /// The protocol variant it was executing.
    pub variant: ProtocolId,
    /// The choreography step the run was awaiting when it expired.
    pub awaiting_step: u32,
    /// The deadline that passed.
    pub deadline: Timestamp,
    /// What the escalation action did.
    pub outcome: EscalationOutcome,
}

impl fmt::Display for ExpiryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} ({}) expired awaiting step {} at {} ms: {:?}",
            self.run,
            self.variant,
            self.awaiting_step,
            self.deadline.millis(),
            self.outcome
        )
    }
}

struct Watch {
    variant: ProtocolId,
    awaiting_step: u32,
    deadline: Timestamp,
    action: Arc<dyn EscalationAction>,
}

/// Tracks every in-flight exchange against the shared clock and fires
/// escalations when deadlines pass.
///
/// One supervisor serves every run of its owner (the middleware builds
/// one per organisation); watches are keyed by run id. Cheap to clone
/// handles via `Arc`.
pub struct ExchangeSupervisor {
    clock: Arc<dyn Clock>,
    inflight: Mutex<BTreeMap<RunId, Watch>>,
}

impl fmt::Debug for ExchangeSupervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExchangeSupervisor")
            .field("in_flight", &self.inflight.lock().len())
            .finish()
    }
}

impl ExchangeSupervisor {
    /// A supervisor reading deadlines off `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Self {
            clock,
            inflight: Mutex::new(BTreeMap::new()),
        })
    }

    /// Registers (or re-arms) a watch: if `run` has not completed by
    /// `deadline`, the next [`sweep`](Self::sweep) at or past that
    /// instant fires `action`. Re-watching an existing run replaces its
    /// watch — a run advancing through steps keeps one live watch for
    /// the step it is currently awaiting.
    pub fn watch(
        &self,
        run: RunId,
        variant: &ProtocolId,
        awaiting_step: u32,
        deadline: Timestamp,
        action: Arc<dyn EscalationAction>,
    ) {
        self.inflight.lock().insert(
            run,
            Watch {
                variant: variant.clone(),
                awaiting_step,
                deadline,
                action,
            },
        );
    }

    /// Registers a watch expiring `timeout_ms` from now.
    pub fn watch_for(
        &self,
        run: RunId,
        variant: &ProtocolId,
        awaiting_step: u32,
        timeout_ms: u64,
        action: Arc<dyn EscalationAction>,
    ) {
        let deadline = self.clock.now().plus_millis(timeout_ms);
        self.watch(run, variant, awaiting_step, deadline, action);
    }

    /// Discharges the watch on `run`: the awaited message arrived (or
    /// the run closed through another path). Returns whether a watch
    /// was actually pending.
    pub fn complete(&self, run: RunId) -> bool {
        self.inflight.lock().remove(&run).is_some()
    }

    /// How many runs are currently watched.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.inflight.lock().len()
    }

    /// The earliest pending deadline, if any — the next instant at
    /// which a sweep could fire something.
    #[cfg(test)]
    fn next_deadline(&self) -> Option<Timestamp> {
        self.inflight.lock().values().map(|w| w.deadline).min()
    }

    /// Fires every watch whose deadline is at or before now. Each
    /// expired watch is removed *before* its action runs (an action
    /// that re-arms sees a clean slate), and each fires exactly once.
    pub fn sweep(&self) -> Vec<ExpiryReport> {
        let now = self.clock.now();
        let expired: Vec<(RunId, Watch)> = {
            let mut inflight = self.inflight.lock();
            let runs: Vec<RunId> = inflight
                .iter()
                .filter(|(_, w)| w.deadline.millis() <= now.millis())
                .map(|(run, _)| *run)
                .collect();
            runs.into_iter()
                .filter_map(|run| inflight.remove(&run).map(|w| (run, w)))
                .collect()
        };
        expired
            .into_iter()
            .map(|(run, watch)| {
                let outcome = watch.action.escalate(run);
                ExpiryReport {
                    run,
                    variant: watch.variant,
                    awaiting_step: watch.awaiting_step,
                    deadline: watch.deadline,
                    outcome,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_types::time::LogicalClock;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingAction {
        fired: AtomicUsize,
        outcome: EscalationOutcome,
    }

    impl CountingAction {
        fn new(outcome: EscalationOutcome) -> Arc<Self> {
            Arc::new(Self {
                fired: AtomicUsize::new(0),
                outcome,
            })
        }
    }

    impl EscalationAction for CountingAction {
        fn escalate(&self, _run: RunId) -> EscalationOutcome {
            self.fired.fetch_add(1, Ordering::SeqCst);
            self.outcome.clone()
        }
    }

    fn fixture() -> (LogicalClock, Arc<ExchangeSupervisor>) {
        let clock = LogicalClock::new();
        let supervisor = ExchangeSupervisor::new(Arc::new(clock.clone()));
        (clock, supervisor)
    }

    #[test]
    fn sweep_before_deadline_fires_nothing() {
        let (clock, sup) = fixture();
        let action = CountingAction::new(EscalationOutcome::Aborted);
        sup.watch_for(
            RunId::from_u128(1),
            &ProtocolId::new("fair-offline"),
            3,
            100,
            action.clone(),
        );
        clock.advance(99);
        assert!(sup.sweep().is_empty());
        assert_eq!(action.fired.load(Ordering::SeqCst), 0);
        assert_eq!(sup.in_flight(), 1);
    }

    #[test]
    fn expired_watch_fires_exactly_once() {
        let (clock, sup) = fixture();
        let action = CountingAction::new(EscalationOutcome::Aborted);
        sup.watch_for(
            RunId::from_u128(1),
            &ProtocolId::new("fair-offline"),
            3,
            100,
            action.clone(),
        );
        clock.advance(100);
        let reports = sup.sweep();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, EscalationOutcome::Aborted);
        assert_eq!(reports[0].awaiting_step, 3);
        // A second sweep finds nothing: the watch was consumed.
        clock.advance(1000);
        assert!(sup.sweep().is_empty());
        assert_eq!(action.fired.load(Ordering::SeqCst), 1);
        assert_eq!(sup.in_flight(), 0);
    }

    #[test]
    fn completion_discharges_the_watch() {
        let (clock, sup) = fixture();
        let action = CountingAction::new(EscalationOutcome::Aborted);
        let run = RunId::from_u128(7);
        sup.watch_for(run, &ProtocolId::new("direct"), 3, 50, action.clone());
        assert!(sup.complete(run));
        clock.advance(500);
        assert!(sup.sweep().is_empty());
        assert_eq!(action.fired.load(Ordering::SeqCst), 0);
        // Completing again reports no pending watch.
        assert!(!sup.complete(run));
    }

    #[test]
    fn rearming_replaces_the_deadline() {
        let (clock, sup) = fixture();
        let action = CountingAction::new(EscalationOutcome::AlreadyComplete);
        let run = RunId::from_u128(3);
        let variant = ProtocolId::new("direct");
        sup.watch_for(run, &variant, 1, 50, action.clone());
        // Step 1 arrived in time; the run now awaits step 3 with a
        // fresh deadline.
        sup.watch_for(run, &variant, 3, 200, action.clone());
        assert_eq!(sup.in_flight(), 1);
        clock.advance(60);
        assert!(sup.sweep().is_empty(), "old deadline must not fire");
        clock.advance(140);
        let reports = sup.sweep();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].awaiting_step, 3);
    }

    #[test]
    fn next_deadline_is_the_minimum() {
        let (_clock, sup) = fixture();
        let action = CountingAction::new(EscalationOutcome::AlreadyComplete);
        let variant = ProtocolId::new("direct");
        sup.watch_for(RunId::from_u128(1), &variant, 3, 300, action.clone());
        sup.watch_for(RunId::from_u128(2), &variant, 3, 100, action.clone());
        assert_eq!(sup.next_deadline().unwrap().millis(), 100);
    }

    #[test]
    fn sweep_fires_all_expired_watches() {
        let (clock, sup) = fixture();
        let action = CountingAction::new(EscalationOutcome::AlreadyComplete);
        let variant = ProtocolId::new("voluntary");
        for i in 0..5u128 {
            sup.watch_for(
                RunId::from_u128(i),
                &variant,
                2,
                10 + i as u64,
                action.clone(),
            );
        }
        clock.advance(12);
        let reports = sup.sweep();
        assert_eq!(reports.len(), 3, "deadlines 10, 11, 12 expired");
        assert_eq!(sup.in_flight(), 2);
    }
}
