//! `nonrep` — component middleware for non-repudiable service interactions.
//!
//! A from-scratch Rust reproduction of Cook, Robinson & Shrivastava,
//! *Component Middleware to Support Non-repudiable Service Interactions*
//! (DSN 2004 / Newcastle CS-TR-834). This facade crate re-exports the
//! workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`types`] | ids, dynamic values, canonical codec |
//! | [`crypto`] | SHA-256, HMAC, Merkle trees, forward-secure signatures, timestamping |
//! | [`net`] | in-process bus, fault injection, latency models, simulator |
//! | [`store`] | hash-chained evidence logs (epoch-grouped durability), state store |
//! | [`container`] | components, descriptors, interceptor chains, proxies |
//! | [`protocols`] | NR-invocation & NR-sharing protocol suite, coordinator |
//! | [`core`] | trusted interceptors, org middleware, trust domains, adjudication |
//! | [`contract`] | contract FSMs, monitoring, contract validators |
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use nonrep::prelude::*;
//!
//! // Shared world: bus, key directory, clock.
//! let bus = LocalBus::new();
//! let dir = Arc::new(StaticKeyDirectory::new());
//! let clock = LogicalClock::new();
//!
//! // Two organisations.
//! let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone()).build();
//! let server = OrgMiddleware::builder("server", bus, dir.clone(), clock).build();
//!
//! // The server deploys a component requiring non-repudiation.
//! server.deploy(
//!     DeploymentDescriptor::new("urn:quote", [MethodName::new("quote")])
//!         .with_non_repudiation(NrConfig::protocol("direct")),
//!     Arc::new(FnComponent::new().method("quote", |args| {
//!         Ok(Value::map([("part", args.clone()), ("price", Value::from(100i64))]))
//!     })),
//! )?;
//!
//! // The client invokes it through its trusted interceptor.
//! let proxy = client.nr_proxy(server.org(), "urn:quote");
//! let quote = proxy.invoke("quote", Value::from("gearbox"))?;
//! assert_eq!(quote.get("price").and_then(Value::as_i64), Some(100));
//!
//! // Both sides now hold the full §3.2 evidence set, hash-chained.
//! assert_eq!(client.log().len(), 4);
//! assert_eq!(server.log().len(), 4);
//! client.log().verify()?;
//!
//! // Dispute-resolution dry run: each party submits a *window* of its
//! // log (Arc-backed handles plus its chain head — never a deep copy)
//! // and the adjudicator derives the facts neither side can deny.
//! let run = client.log().snapshot_range(0..1)[0].draft.run_id;
//! let adjudicator = Adjudicator::new(dir.clone() as std::sync::Arc<dyn KeyDirectory>);
//! let verdict = adjudicator.adjudicate_windows(
//!     run,
//!     &[client.submit_full_window(), server.submit_full_window()],
//! );
//! assert!(verdict.suspect_submitters().is_empty());
//! assert!(verdict.cannot_deny(client.org(), TokenKind::NroReq));
//! assert!(verdict.cannot_deny(server.org(), TokenKind::NroResp));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For high-throughput deployments the evidence pipeline is tunable per
//! organisation, without changing any of the above: batched evidence
//! commitments (`MiddlewareBuilder::commitment`, one signature per epoch
//! instead of per token, sealed on size and/or a time deadline) and
//! disk-backed durability grouped at the same epoch boundary
//! (`MiddlewareBuilder::evidence_file` with
//! `store::SyncPolicy::GroupCommit` — one fsync per sealed epoch, on a
//! dedicated sync thread). Both are chosen when the organisation is
//! built and fixed from then on.
//! See `docs/ARCHITECTURE.md` for the full map from the paper's concepts
//! to these crates.

pub use nonrep_container as container;
pub use nonrep_contract as contract;
pub use nonrep_core as core;
pub use nonrep_crypto as crypto;
pub use nonrep_net as net;
pub use nonrep_protocols as protocols;
pub use nonrep_store as store;
pub use nonrep_types as types;

/// The most common imports for applications built on the middleware.
pub mod prelude {
    pub use nonrep_container::component::FnComponent;
    pub use nonrep_container::descriptor::{DeploymentDescriptor, EvidenceDurability, NrConfig};
    pub use nonrep_container::{ClientProxy, Component, Container, ContainerError};
    pub use nonrep_core::{
        b2b_address, Adjudicator, ClientNrInterceptor, OrgMiddleware, TrustDomain, WindowSubmission,
    };
    pub use nonrep_crypto::sig::{KeyPair, SignatureScheme};
    pub use nonrep_crypto::SecureRandom;
    pub use nonrep_net::bus::LocalBus;
    pub use nonrep_net::fault::FaultPlan;
    pub use nonrep_net::latency::LatencyModel;
    pub use nonrep_net::retry::RetryPolicy;
    pub use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
    pub use nonrep_protocols::scheduler::{CommitmentMode, DeadlineSealer};
    pub use nonrep_protocols::tokens::TokenKind;
    pub use nonrep_protocols::ProtocolError;
    pub use nonrep_store::{
        DurabilityClass, DurabilityTicket, EvidenceLog, FileLog, MemoryLog, StateStore, SyncPolicy,
    };
    pub use nonrep_types::ids::{GroupId, MethodName, OrgId, RunId, ServiceUri};
    pub use nonrep_types::time::{Clock, LogicalClock, Timestamp};
    pub use nonrep_types::value::Value;
}
