//! Bounded retransmission.
//!
//! The paper's liveness argument rests on retrying over a channel with a
//! bounded number of temporary failures. [`ReliableRequester`] implements
//! the retry side: if the [`crate::FaultPlan`] bounds consecutive drops at
//! `k` and the [`RetryPolicy`] allows more than `k` attempts, every send
//! eventually succeeds — the pairing tested here and exploited by every
//! protocol in `nonrep-protocols`.
//!
//! Retrying is all this layer does: a policy is an attempt count, and a
//! failure that outlasts it surfaces as [`NetError::RetriesExhausted`].
//! Detecting a silent peer is not a transport matter; the one deadline in
//! the stack is the fair server's receipt window, which
//! `ExchangeSupervisor` arms and sweeps on the shared logical clock.

use std::sync::Arc;

use nonrep_types::ids::OrgId;

use crate::bus::RequestBus;
use crate::NetError;

/// How many attempts a send makes before it gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (must be at least 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt required");
        Self { max_attempts }
    }
}

/// Outcome statistics of a reliable request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempted<T> {
    /// The successful result.
    pub value: T,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// Retrying wrapper over a [`RequestBus`].
#[derive(Clone)]
pub struct ReliableRequester {
    bus: Arc<dyn RequestBus>,
    policy: RetryPolicy,
}

impl std::fmt::Debug for ReliableRequester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableRequester")
            .field("policy", &self.policy)
            .finish()
    }
}

impl ReliableRequester {
    /// Wraps `bus` with `policy`.
    pub fn new(bus: Arc<dyn RequestBus>, policy: RetryPolicy) -> Self {
        Self { bus, policy }
    }

    /// The underlying bus.
    pub fn bus(&self) -> &Arc<dyn RequestBus> {
        &self.bus
    }

    /// Sends a one-way message, retrying transient failures.
    ///
    /// # Errors
    ///
    /// [`NetError::RetriesExhausted`] after `max_attempts` transient
    /// failures; non-transient errors propagate immediately.
    pub fn send(
        &self,
        from: &OrgId,
        to: &OrgId,
        payload: &[u8],
    ) -> Result<Attempted<()>, NetError> {
        self.run(|| self.bus.send(from, to, payload))
    }

    /// Sends a request, retrying transient failures.
    ///
    /// Retrying a request whose *response* was lost re-executes it on the
    /// server; receivers must deduplicate by run identifier (the protocol
    /// engine does, honouring at-most-once semantics, §3.2).
    ///
    /// # Errors
    ///
    /// As [`ReliableRequester::send`].
    pub fn request(
        &self,
        from: &OrgId,
        to: &OrgId,
        payload: &[u8],
    ) -> Result<Attempted<Vec<u8>>, NetError> {
        self.run(|| self.bus.request(from, to, payload))
    }

    fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T, NetError>,
    ) -> Result<Attempted<T>, NetError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match op() {
                Ok(value) => return Ok(Attempted { value, attempts }),
                Err(e) if e.is_transient() && attempts < self.policy.max_attempts => {}
                Err(e) if e.is_transient() => return Err(NetError::RetriesExhausted { attempts }),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusEndpoint, LocalBus};
    use crate::fault::FaultPlan;
    use crate::latency::LatencyModel;
    use parking_lot::Mutex;

    #[derive(Default)]
    struct Counter {
        hits: Mutex<u32>,
    }

    impl BusEndpoint for Counter {
        fn handle_oneway(&self, _: &OrgId, _: &[u8]) -> Result<(), String> {
            *self.hits.lock() += 1;
            Ok(())
        }
        fn handle_request(&self, _: &OrgId, _: &[u8]) -> Result<Vec<u8>, String> {
            *self.hits.lock() += 1;
            Ok(vec![1])
        }
    }

    fn lossy_setup(bound: u32, attempts: u32) -> (ReliableRequester, Arc<Counter>, OrgId, OrgId) {
        let bus = LocalBus::with_config(
            FaultPlan::lossy(0.9, bound, 11).with_response_drop_share(0.0),
            LatencyModel::Zero,
            0,
        );
        let counter = Arc::new(Counter::default());
        let a = OrgId::new("a");
        let b = OrgId::new("b");
        bus.register(b.clone(), counter.clone());
        (
            ReliableRequester::new(bus, RetryPolicy::new(attempts)),
            counter,
            a,
            b,
        )
    }

    #[test]
    fn delivery_guaranteed_when_retries_exceed_fault_bound() {
        // Fault bound 3, 5 attempts: every send must succeed.
        let (req, counter, a, b) = lossy_setup(3, 5);
        for _ in 0..50 {
            let out = req.send(&a, &b, b"x").unwrap();
            assert!(out.attempts <= 4);
        }
        assert_eq!(*counter.hits.lock(), 50);
    }

    #[test]
    fn retries_exhausted_when_attempts_below_bound() {
        // Fault bound 10 with only 2 attempts: failures possible.
        let (req, _counter, a, b) = lossy_setup(10, 2);
        let mut exhausted = false;
        for _ in 0..100 {
            if let Err(NetError::RetriesExhausted { attempts }) = req.send(&a, &b, b"x") {
                assert_eq!(attempts, 2);
                exhausted = true;
                break;
            }
        }
        assert!(
            exhausted,
            "expected at least one exhaustion under heavy loss"
        );
    }

    #[test]
    fn request_returns_payload_and_attempt_count() {
        let (req, _counter, a, b) = lossy_setup(2, 4);
        let out = req.request(&a, &b, b"x").unwrap();
        assert_eq!(out.value, vec![1]);
        assert!(out.attempts >= 1 && out.attempts <= 3);
    }

    #[test]
    fn non_transient_errors_do_not_retry() {
        let bus = LocalBus::new();
        let a = OrgId::new("a");
        let missing = OrgId::new("missing");
        let req = ReliableRequester::new(bus, RetryPolicy::new(5));
        assert!(matches!(
            req.send(&a, &missing, b"x").unwrap_err(),
            NetError::UnknownDestination(_)
        ));
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::new(0);
    }
}
