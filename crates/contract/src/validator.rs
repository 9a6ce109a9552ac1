//! Contract-compliance validation of shared-information updates.
//!
//! The integration the paper sketches in §6: a verified contract FSM
//! validates proposed changes to shared information. The
//! [`ContractValidator`] derives a contract event from each proposed
//! update (via an application-supplied `EventExtractor`) and accepts the
//! update only if the monitor accepts the event.
//!
//! Vetoes produced this way flow back through the NR-sharing protocol as
//! *signed votes*, so "update rejected: contract violation" is itself
//! non-repudiable evidence.

use std::fmt;
use std::sync::Arc;

use nonrep_protocols::sharing::coordination::UpdateValidator;

use crate::monitor::ContractMonitor;

/// Derives the contract event named by a proposed update.
///
/// Returns `None` when the update is outside the contract's scope (then
/// the validator abstains, i.e. accepts).
type EventExtractor = dyn Fn(&str, Option<&[u8]>, &[u8]) -> Option<String> + Send + Sync;

/// An [`UpdateValidator`] enforcing a contract monitor.
pub struct ContractValidator {
    monitor: Arc<ContractMonitor>,
    extractor: Box<EventExtractor>,
}

impl fmt::Debug for ContractValidator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContractValidator(state={})", self.monitor.state())
    }
}

impl ContractValidator {
    /// Creates a validator over `monitor`, mapping updates to events with
    /// `extractor`.
    pub fn new(
        monitor: Arc<ContractMonitor>,
        extractor: impl Fn(&str, Option<&[u8]>, &[u8]) -> Option<String> + Send + Sync + 'static,
    ) -> Arc<Self> {
        Arc::new(Self {
            monitor,
            extractor: Box::new(extractor),
        })
    }

    /// The underlying monitor (e.g. to advance it when a validated update
    /// is finally applied).
    pub fn monitor(&self) -> &Arc<ContractMonitor> {
        &self.monitor
    }
}

impl UpdateValidator for ContractValidator {
    fn validate(
        &self,
        object: &str,
        current: Option<&[u8]>,
        proposed: &[u8],
    ) -> Result<(), String> {
        match (self.extractor)(object, current, proposed) {
            None => Ok(()),
            Some(event) => {
                if self.monitor.permits(&event) {
                    Ok(())
                } else {
                    Err(format!(
                        "contract violation: event {event} not permitted in state {}",
                        self.monitor.state()
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::ContractSpec;

    fn monitor() -> Arc<ContractMonitor> {
        Arc::new(ContractMonitor::new(
            ContractSpec::new("order", "negotiating")
                .state("agreed")
                .breach_state("breached")
                .transition("negotiating", "spec.agreed", "agreed")
                .transition("agreed", "deadline.missed", "breached"),
        ))
    }

    /// Event = the update's first word, prefixed "spec." when object is
    /// "spec".
    fn extractor(object: &str, _cur: Option<&[u8]>, proposed: &[u8]) -> Option<String> {
        if object != "spec" {
            return None;
        }
        Some(format!("spec.{}", String::from_utf8_lossy(proposed)))
    }

    #[test]
    fn permitted_update_accepted() {
        let v = ContractValidator::new(monitor(), extractor);
        assert!(v.validate("spec", None, b"agreed").is_ok());
    }

    #[test]
    fn forbidden_update_rejected_with_reason() {
        let v = ContractValidator::new(monitor(), extractor);
        let err = v.validate("spec", None, b"cancelled").unwrap_err();
        assert!(err.contains("contract violation"));
        assert!(err.contains("negotiating"));
    }

    #[test]
    fn out_of_scope_objects_abstain() {
        let v = ContractValidator::new(monitor(), extractor);
        assert!(v.validate("unrelated", None, b"anything").is_ok());
    }

    #[test]
    fn validation_does_not_advance_monitor() {
        let v = ContractValidator::new(monitor(), extractor);
        v.validate("spec", None, b"agreed").unwrap();
        assert_eq!(v.monitor().state().as_str(), "negotiating");
        // Application applies the update and advances the contract:
        v.monitor().observe("spec.agreed").unwrap();
        assert_eq!(v.monitor().state().as_str(), "agreed");
    }
}
