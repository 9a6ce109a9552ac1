//! Session-typed protocol core: typestate choreographies over one
//! shared exchange engine.
//!
//! Every request/reply protocol is a *choreography* — a type-level
//! program built from the combinators in [`typestate`] — executed by a
//! [`Session`] against the shared [`ExchangeEngine`]. The session
//! consumes itself on every transition and returns the next state type,
//! so sending out of order or twice is a **compile error**, and all
//! variants inherit one implementation of framing, retries (the
//! coordinator's `ReliableRequester`, hence `net::fault` injection) and
//! evidence capture through the `CommitmentScheduler`, which seals on
//! its own policy rather than per run.
//!
//! Declaring a new choreography is a type alias plus payload
//! construction:
//!
//! ```
//! use nonrep_protocols::session::{Call, CallOpen, End};
//!
//! // A two-round notarisation: signed request/reply, then an
//! // unverified ack round, then end.
//! type Notarise = Call<1, 2, CallOpen<3, 4, End>>;
//!
//! // The legal traces fall out of the type — conformance tests walk
//! // them instead of being maintained by hand.
//! use nonrep_protocols::session::State;
//! assert_eq!(Notarise::traces().len(), 1);
//! assert_eq!(Notarise::traces()[0].len(), 2);
//! ```
//!
//! The four paper variants export their choreographies from their
//! modules: [`direct::DirectChoreography`],
//! [`voluntary::VoluntaryChoreography`],
//! [`inline_ttp::InlineChoreography`] (plus the TTP-role
//! [`inline_ttp::RelayChoreography`]) and
//! [`fair_offline::FairChoreography`] with its dispute sub-protocols.
//! NR-sharing runs on the same engine:
//! [`coordination::SharingChoreography`] fans each round out to the
//! group, and [`membership::WelcomeChoreography`] welcomes a joiner.
//!
//! [`direct::DirectChoreography`]: crate::invocation::direct::DirectChoreography
//! [`voluntary::VoluntaryChoreography`]: crate::invocation::voluntary::VoluntaryChoreography
//! [`inline_ttp::InlineChoreography`]: crate::invocation::inline_ttp::InlineChoreography
//! [`inline_ttp::RelayChoreography`]: crate::invocation::inline_ttp::RelayChoreography
//! [`fair_offline::FairChoreography`]: crate::invocation::fair_offline::FairChoreography
//! [`coordination::SharingChoreography`]: crate::sharing::coordination::SharingChoreography
//! [`membership::WelcomeChoreography`]: crate::sharing::membership::WelcomeChoreography

pub mod engine;
pub mod journal;
pub mod supervisor;
pub mod trace;
pub mod typestate;

pub use engine::ExchangeEngine;
pub use journal::{OpenRun, RunJournal};
pub use supervisor::{EscalationAction, EscalationOutcome, ExchangeSupervisor, ExpiryReport};
pub use trace::{TraceStep, WireMode};
pub use typestate::{
    Branch, Call, CallLossy, CallOpen, CallOr, CallRelayed, Client, End, Fan, Forward, Role,
    Server, Session, State, Ttp,
};
