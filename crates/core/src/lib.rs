//! The non-repudiation middleware core: trusted interceptors.
//!
//! This crate assembles the substrates (crypto, net, store, container,
//! protocols) into the paper's architecture:
//!
//! * [`middleware`] — [`OrgMiddleware`], one organisation's full stack:
//!   party identity (keys, clock, evidence log), component container,
//!   B2B coordinator (registered on the bus at `"{org}#b2b"`), state
//!   store, sharing membership, protocol handlers, the anchor store its
//!   counterparties gossip into and the supervisor its fair server arms
//!   (swept by `OrgMiddleware::tick`). The programmatic
//!   face of "the NR interceptor, B2BInvocationHandler, B2BProtocolHandler
//!   and B2BCoordinator comprise each party's trusted interceptor" (§4.2).
//!   The builder also selects the evidence pipeline: commitment mode
//!   (per-record vs batched, size/time/auto seal policy — with a
//!   background deadline sealer when a time bound is set) and the log
//!   backend (e.g. a group-commit file log). Both are fixed once built.
//! * [`interceptor`] — [`ClientNrInterceptor`], the client-side JBoss-NR-
//!   interceptor analogue: first on the outgoing path, it diverts the
//!   invocation into a non-repudiation protocol instead of the plain
//!   transport; plus [`ContainerExecutor`], the server-side hook through
//!   which protocol handlers finally execute the request on the container.
//! * [`domain`] — [`TrustDomain`]: deployment-level choice between the
//!   direct domain, inline TTP(s) and the offline-TTP fair exchange
//!   (paper Fig 3), applied when building proxies. Together with
//!   [`OrgMiddleware::builder`] it does the job of the paper's
//!   `B2BInvocationHandler.getInstance(platform, protocol)` factory
//!   (§4.2): the protocol is picked per organisation and per proxy.
//! * [`dispute`] — [`Adjudicator`]: replays evidence logs, verifies every
//!   token and hash chain, and derives facts and conduct findings.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root, or the integration
//! tests under `tests/`.

pub mod dispute;
pub mod domain;
pub mod interceptor;
pub mod middleware;

pub use dispute::{
    Adjudicator, Corroboration, Fact, Finding, LogReport, Verdict, WindowSubmission,
};
pub use domain::TrustDomain;
pub use interceptor::{ClientNrInterceptor, ContainerExecutor};
pub use middleware::{b2b_address, MiddlewareBuilder, OrgMiddleware, RECEIPT_WINDOW_MS};
