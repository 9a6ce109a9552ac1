//! Contract representation and run-time monitoring.
//!
//! Paper §6: "We intend to integrate the underlying mechanisms presented
//! here with work on run-time monitoring of contracts \[16\]. Contracts are
//! represented as executable finite state machines that can be verified
//! using model-checking tools. We will, for example, use implementations
//! of the verified state machines to validate changes to shared
//! information for contract compliance."
//!
//! * [`fsm`] — [`ContractSpec`]: a deterministic FSM over named events,
//!   with breach states, plus a static checker ([`ContractSpec::check`])
//!   for the model-level defects (unreachable states, nondeterminism,
//!   undefined targets) that the paper's model-checking step would catch.
//! * [`monitor`] — [`ContractMonitor`]: executes the verified FSM against
//!   the observed event stream; entering a breach state or receiving an
//!   event with no transition is a violation.
//! * [`validator`] — [`ContractValidator`]: plugs a monitor into the
//!   NR-sharing validation hook so that proposed updates to shared
//!   information are vetoed (with a signed, attributable reason) when they
//!   would breach the contract.

pub mod fsm;
pub mod monitor;
pub mod validator;

pub use fsm::{ContractSpec, SpecIssue, State};
pub use monitor::{ContractMonitor, ContractViolation};
pub use validator::ContractValidator;
