//! Conformance suite generated from the session types.
//!
//! For every protocol variant the *choreography type* is the source of
//! truth: each test enumerates [`State::traces`] and, for every legal
//! trace, drives a live multi-party fixture configured to elicit exactly
//! that trace, then asserts the evidence records the run must leave in
//! each participant's log. Adding a state to a choreography makes the
//! corresponding test fail ("no conformance driver for trace …") until a
//! driver and an evidence expectation exist for the new trace — the
//! suite is generated from the types, not maintained in parallel with
//! them.

use std::collections::BTreeSet;
use std::sync::Arc;

use nonrep_net::bus::LocalBus;
use nonrep_net::retry::{ReliableRequester, RetryPolicy};
use nonrep_protocols::invocation::direct::{DirectChoreography, DirectClient, DirectServerHandler};
use nonrep_protocols::invocation::fair_offline::{
    FairChoreography, FairClient, FairServerHandler, FairServerRuntime, KeySource,
    OfflineTtpHandler, ResolveChoreography, ServerConduct, STEP_RECEIPT, STEP_REQUEST,
    STEP_RESOLVE,
};
use nonrep_protocols::invocation::inline_ttp::{
    InlineChoreography, InlineTtpClient, InlineTtpHandler, RelayChoreography,
};
use nonrep_protocols::invocation::voluntary::{
    VoluntaryChoreography, VoluntaryClient, VoluntaryServerHandler,
};
use nonrep_protocols::invocation::{RequestExecutor, ServerResponse};
use nonrep_protocols::party::{Party, StaticKeyDirectory};
use nonrep_protocols::session::{State, TraceStep, WireMode};
use nonrep_protocols::sharing::coordination::SharingChoreography;
use nonrep_protocols::sharing::membership::{connect, MembershipHandler, WelcomeChoreography};
use nonrep_protocols::sharing::{GroupRegistry, SharingMember};
use nonrep_protocols::tokens::{defection_digest, NrToken, TokenKind};
use nonrep_protocols::B2BCoordinator;
use nonrep_store::StateStore;
use nonrep_types::codec::Decode;
use nonrep_types::ids::{GroupId, OrgId, RunId};
use nonrep_types::time::LogicalClock;

/// A three-party fixture (client, server, offline/inline TTP) with every
/// variant's server-side handler registered.
struct World {
    client_party: Arc<Party>,
    server_party: Arc<Party>,
    ttp_party: Arc<Party>,
    client_coord: Arc<B2BCoordinator>,
    server: OrgId,
    ttp: OrgId,
}

fn world(conduct: ServerConduct) -> World {
    let bus = LocalBus::new();
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let client_party = Party::quick("client", 1, &clock, &dir);
    let server_party = Party::quick("server", 2, &clock, &dir);
    let ttp_party = Party::quick("ttp", 3, &clock, &dir);
    let coord = |name: &str| {
        B2BCoordinator::new(
            name,
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        )
    };
    let client_coord = coord("client");
    let server_coord = coord("server");
    let ttp_coord = coord("ttp");
    let executor: Arc<dyn RequestExecutor> =
        Arc::new(|_: &OrgId, req: &[u8]| Ok([b"res:".as_slice(), req].concat()));
    server_coord.register_handler(DirectServerHandler::new(
        server_party.clone(),
        executor.clone(),
    ));
    server_coord.register_handler(VoluntaryServerHandler::new(
        server_party.clone(),
        executor.clone(),
    ));
    server_coord.register_handler(FairServerHandler::with_runtime(
        server_party.clone(),
        server_coord.clone(),
        executor,
        OrgId::new("ttp"),
        conduct,
        FairServerRuntime::default(),
    ));
    ttp_coord.register_handler(InlineTtpHandler::terminal(
        ttp_party.clone(),
        ttp_coord.clone(),
    ));
    ttp_coord.register_handler(OfflineTtpHandler::new(ttp_party.clone()));
    bus.register(OrgId::new("client"), client_coord.clone());
    bus.register(OrgId::new("server"), server_coord);
    bus.register(OrgId::new("ttp"), ttp_coord);
    World {
        client_party,
        server_party,
        ttp_party,
        client_coord,
        server: OrgId::new("server"),
        ttp: OrgId::new("ttp"),
    }
}

/// The record kinds `party` logged for `run`, in log order.
fn kinds(party: &Party, run: RunId) -> Vec<String> {
    party
        .log()
        .by_run(&run)
        .iter()
        .map(|r| r.draft.kind.clone())
        .collect()
}

/// `true` if the TTP's own log holds a `kind` token it issued for `run`
/// — the evidence of a resolve or abort, not the TTP's memory.
fn ttp_logged(w: &World, run: RunId, kind: TokenKind) -> bool {
    w.ttp_party
        .log()
        .by_run(&run)
        .iter()
        .any(|r| r.draft.kind == kind.label() && r.draft.actor == w.ttp)
}

fn labels(kinds: &[TokenKind]) -> Vec<String> {
    kinds.iter().map(|k| k.label().to_string()).collect()
}

#[test]
fn direct_conformance_covers_every_legal_trace() {
    let traces = DirectChoreography::traces();
    assert_eq!(
        traces,
        vec![vec![
            TraceStep::new(1, 2, WireMode::Signed),
            TraceStep::new(3, 4, WireMode::Lossy),
        ]]
    );
    for trace in traces {
        let steps: Vec<u32> = trace.iter().map(|t| t.step).collect();
        match steps.as_slice() {
            [1, 3] => {
                let w = world(ServerConduct::Honest);
                let client = DirectClient::new(w.client_party.clone(), w.client_coord.clone());
                let out = client.invoke(&w.server, b"req".to_vec()).unwrap();
                assert!(out.receipt_acked);
                assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
                // Both sides hold the complete §3.2 evidence set.
                let expected = labels(&[
                    TokenKind::NroReq,
                    TokenKind::NrrReq,
                    TokenKind::NroResp,
                    TokenKind::NrrResp,
                ]);
                assert_eq!(kinds(&w.client_party, out.run_id), expected);
                assert_eq!(kinds(&w.server_party, out.run_id), expected);
            }
            other => panic!("no conformance driver for direct trace {other:?}"),
        }
    }
}

#[test]
fn voluntary_conformance_covers_every_legal_trace() {
    let traces = VoluntaryChoreography::traces();
    assert_eq!(traces, vec![vec![TraceStep::new(1, 2, WireMode::Open)]]);
    for trace in traces {
        let steps: Vec<u32> = trace.iter().map(|t| t.step).collect();
        match steps.as_slice() {
            [1] => {
                let w = world(ServerConduct::Honest);
                let client = VoluntaryClient::new(w.client_party.clone(), w.client_coord.clone());
                let out = client.invoke(&w.server, b"req".to_vec()).unwrap();
                assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
                // The voluntary baseline leaves exactly one token on each
                // side: the client's NRO, nothing from the server.
                let expected = labels(&[TokenKind::NroReq]);
                assert_eq!(kinds(&w.client_party, out.run_id), expected);
                assert_eq!(kinds(&w.server_party, out.run_id), expected);
            }
            other => panic!("no conformance driver for voluntary trace {other:?}"),
        }
    }
}

#[test]
fn inline_ttp_conformance_covers_every_legal_trace() {
    // Client leg and the TTP's relay leg are separate (per-role)
    // choreographies of the same protocol.
    assert_eq!(
        RelayChoreography::traces(),
        vec![vec![TraceStep::new(1, 2, WireMode::Forwarded)]]
    );
    let traces = InlineChoreography::traces();
    assert_eq!(traces, vec![vec![TraceStep::new(1, 2, WireMode::Relayed)]]);
    for trace in traces {
        let steps: Vec<u32> = trace.iter().map(|t| t.step).collect();
        match steps.as_slice() {
            [1] => {
                let w = world(ServerConduct::Honest);
                let client = InlineTtpClient::new(
                    w.client_party.clone(),
                    w.client_coord.clone(),
                    w.ttp.clone(),
                );
                let out = client.invoke(&w.server, b"req".to_vec()).unwrap();
                assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
                // Two TTP receipts (request + response), both bound to
                // the outer run alongside the client's NRO.
                assert_eq!(out.receipts.len(), 2);
                let expected = labels(&[
                    TokenKind::NroReq,
                    TokenKind::TtpReceipt,
                    TokenKind::TtpReceipt,
                ]);
                assert_eq!(kinds(&w.client_party, out.run_id), expected);
                assert_eq!(kinds(&w.ttp_party, out.run_id), expected);
                // The TTP↔server inner leg ran the full direct exchange.
                assert_eq!(w.server_party.log().len(), 4);
            }
            other => panic!("no conformance driver for inline-ttp trace {other:?}"),
        }
    }
}

#[test]
fn fair_offline_conformance_covers_every_legal_trace() {
    // The dispute sub-choreography is one open resolve round at the TTP.
    assert_eq!(
        ResolveChoreography::traces(),
        vec![vec![TraceStep::new(20, 21, WireMode::Open)]]
    );
    let traces = FairChoreography::traces();
    assert_eq!(traces.len(), 2, "primary path and dispute path");
    for trace in traces {
        let steps: Vec<u32> = trace.iter().map(|t| t.step).collect();
        match steps.as_slice() {
            // Primary path: the server sends the key at step 4.
            [STEP_REQUEST, STEP_RECEIPT] => {
                let w = world(ServerConduct::Honest);
                let client = FairClient::new(
                    w.client_party.clone(),
                    w.client_coord.clone(),
                    w.ttp.clone(),
                );
                let out = client.invoke(&w.server, b"req".to_vec()).unwrap();
                assert_eq!(out.key_source, KeySource::Server);
                assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
                let expected = labels(&[
                    TokenKind::NroReq,
                    TokenKind::NrrReq,
                    TokenKind::NroResp,
                    TokenKind::Escrow,
                    TokenKind::NrrResp,
                ]);
                assert_eq!(kinds(&w.client_party, out.run_id), expected);
                // No dispute: the TTP never resolved the run and no
                // decision exists anywhere.
                assert!(!ttp_logged(&w, out.run_id, TokenKind::Resolve));
                assert!(!kinds(&w.client_party, out.run_id)
                    .contains(&TokenKind::Decision.label().to_string()));
            }
            // Dispute path: the server withholds the key; the client
            // resolves at the TTP and walks away with the key *and* the
            // TTP's signed decision against the defector.
            [STEP_REQUEST, STEP_RECEIPT, STEP_RESOLVE] => {
                let w = world(ServerConduct::WithholdKey);
                let client = FairClient::new(
                    w.client_party.clone(),
                    w.client_coord.clone(),
                    w.ttp.clone(),
                );
                let out = client.invoke(&w.server, b"req".to_vec()).unwrap();
                assert_eq!(out.key_source, KeySource::TtpResolve);
                assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
                let expected = labels(&[
                    TokenKind::NroReq,
                    TokenKind::NrrReq,
                    TokenKind::NroResp,
                    TokenKind::Escrow,
                    TokenKind::NrrResp,
                    TokenKind::Decision,
                    TokenKind::Resolve,
                ]);
                assert_eq!(kinds(&w.client_party, out.run_id), expected);
                assert!(ttp_logged(&w, out.run_id, TokenKind::Resolve));
                // The decision is ledger-free evidence: any verifier can
                // recompute its subject from (accused, run) and check the
                // TTP's signature.
                let records = w.client_party.log().by_run(&out.run_id);
                let decision = records
                    .iter()
                    .find(|r| r.draft.kind == TokenKind::Decision.label())
                    .expect("client logged the TTP decision");
                assert_eq!(
                    decision.draft.content_digest,
                    defection_digest(&w.server, out.run_id)
                );
                let token = NrToken::decode_from_slice(&decision.draft.payload).unwrap();
                let ttp_key = w.client_party.key_of(&w.ttp).unwrap();
                assert!(token.verify(
                    &ttp_key,
                    Some(TokenKind::Decision),
                    Some(out.run_id),
                    Some(&defection_digest(&w.server, out.run_id)),
                ));
            }
            other => panic!("no conformance driver for fair-offline trace {other:?}"),
        }
    }
}

/// Sharing members a, b and c of group `ve`, and d, who knows no group
/// yet; each with both sharing handlers registered.
fn sharing_world() -> (Vec<Arc<SharingMember>>, Arc<SharingMember>) {
    let bus = LocalBus::new();
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let group: BTreeSet<OrgId> = ["a", "b", "c"].into_iter().map(OrgId::new).collect();
    let node = |name: &str, seed: u64| {
        let party = Party::quick(name, seed, &clock, &dir);
        let coordinator = B2BCoordinator::new(
            name,
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        let groups = Arc::new(GroupRegistry::new());
        if group.contains(party.org()) {
            groups.set(GroupId::new("ve"), group.clone());
        }
        let member = SharingMember::new(
            party,
            coordinator.clone(),
            Arc::new(StateStore::new()),
            groups,
        );
        coordinator.register_handler(member.clone());
        coordinator.register_handler(MembershipHandler::new(member.clone()));
        bus.register(OrgId::new(name), coordinator);
        member
    };
    let members = vec![node("a", 1), node("b", 2), node("c", 3)];
    (members, node("d", 4))
}

/// Who issued each `kind` record `party` logged for `run`, in log order.
fn issuers(party: &Party, run: RunId, kind: TokenKind) -> Vec<OrgId> {
    party
        .log()
        .by_run(&run)
        .iter()
        .filter(|r| r.draft.kind == kind.label())
        .map(|r| r.draft.actor.clone())
        .collect()
}

#[test]
fn sharing_conformance_covers_every_legal_trace() {
    let voters = vec![OrgId::new("b"), OrgId::new("c")];
    let traces = SharingChoreography::traces();
    assert_eq!(
        traces,
        vec![vec![
            TraceStep::new(1, 2, WireMode::Open),
            TraceStep::new(3, 4, WireMode::Open),
        ]]
    );
    for trace in traces {
        let steps: Vec<u32> = trace.iter().map(|t| t.step).collect();
        match steps.as_slice() {
            [1, 3] => {
                let (members, _) = sharing_world();
                let out = members[0]
                    .propose(&GroupId::new("ve"), "doc", b"v1".to_vec())
                    .unwrap();
                assert!(out.accepted);
                // The proposer holds the proposal, both signed votes and
                // its decision over them.
                let proposer = members[0].party();
                assert_eq!(
                    kinds(proposer, out.run_id),
                    labels(&[
                        TokenKind::Proposal,
                        TokenKind::Vote,
                        TokenKind::Vote,
                        TokenKind::Decision,
                    ])
                );
                assert_eq!(issuers(proposer, out.run_id, TokenKind::Vote), voters);
                // Each member holds the proposal, its own vote and the
                // decision.
                for member in &members[1..] {
                    let party = member.party();
                    assert_eq!(
                        kinds(party, out.run_id),
                        labels(&[TokenKind::Proposal, TokenKind::Vote, TokenKind::Decision])
                    );
                    assert_eq!(
                        issuers(party, out.run_id, TokenKind::Vote),
                        vec![party.org().clone()]
                    );
                }
            }
            other => panic!("no conformance driver for sharing trace {other:?}"),
        }
    }

    let traces = WelcomeChoreography::traces();
    assert_eq!(traces, vec![vec![TraceStep::new(5, 6, WireMode::Open)]]);
    for trace in traces {
        let steps: Vec<u32> = trace.iter().map(|t| t.step).collect();
        match steps.as_slice() {
            [5] => {
                let (members, joiner) = sharing_world();
                let out = connect(&members[0], &GroupId::new("ve"), joiner.party().org()).unwrap();
                assert!(out.accepted);
                // The joiner holds the sponsor's membership token and the
                // votes that decided it.
                let party = joiner.party();
                assert_eq!(
                    kinds(party, out.run_id),
                    labels(&[TokenKind::Membership, TokenKind::Vote, TokenKind::Vote])
                );
                assert_eq!(issuers(party, out.run_id, TokenKind::Vote), voters);
                assert_eq!(
                    issuers(party, out.run_id, TokenKind::Membership),
                    vec![OrgId::new("a")]
                );
            }
            other => panic!("no conformance driver for welcome trace {other:?}"),
        }
    }
}
