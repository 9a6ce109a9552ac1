//! The fleet simulator's defences, reached through the facade alone:
//! organisations built with `OrgMiddleware::builder` gossip epoch anchors
//! that convict a forked history, and their `tick` abort-closes a fair
//! run whose client stalls inside the receipt window.

use std::collections::BTreeSet;
use std::sync::Arc;

use nonrep_container::component::FnComponent;
use nonrep_container::descriptor::DeploymentDescriptor;
use nonrep_container::interceptor::Invocation;
use nonrep_core::{
    Adjudicator, Finding, OrgMiddleware, TrustDomain, Verdict, WindowSubmission, RECEIPT_WINDOW_MS,
};
use nonrep_crypto::digest::{sha256, Digest};
use nonrep_net::bus::LocalBus;
use nonrep_protocols::invocation::fair_offline::{FairClient, ServerConduct};
use nonrep_protocols::party::{KeyDirectory, StaticKeyDirectory};
use nonrep_protocols::{CommitmentMode, EscalationOutcome, NrToken};
use nonrep_store::record::{ChainViolation, EpochCommitment, EvidenceRecord, EPOCH_KIND};
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::{MethodName, OrgId, RunId};
use nonrep_types::time::LogicalClock;
use nonrep_types::value::Value;

/// A client, a server serving fair runs escrowed with the TTP, and the
/// TTP, all batched, on one bus and one clock.
struct Trio {
    clock: LogicalClock,
    dir: Arc<StaticKeyDirectory>,
    client: Arc<OrgMiddleware>,
    server: Arc<OrgMiddleware>,
    ttp: Arc<OrgMiddleware>,
}

impl Trio {
    fn new(conduct: ServerConduct) -> Self {
        let bus = LocalBus::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let clock = LogicalClock::new();
        let ttp_org = OrgId::new("ttp");
        let builder = |name: &str| {
            OrgMiddleware::builder(name, bus.clone(), dir.clone(), clock.clone())
                .commitment(CommitmentMode::auto(50))
        };
        let client = builder("client").build();
        let server = builder("server")
            .offline_ttp(ttp_org)
            .server_conduct(conduct)
            .build();
        let ttp = builder("ttp").build();
        ttp.serve_as_offline_ttp();
        server
            .deploy(
                DeploymentDescriptor::new("urn:echo", [MethodName::new("echo")]),
                Arc::new(FnComponent::new().method("echo", |args| Ok(args.clone()))),
            )
            .unwrap();
        Self {
            clock,
            dir,
            client,
            server,
            ttp,
        }
    }

    fn judge(&self) -> Adjudicator {
        Adjudicator::new(Arc::clone(&self.dir) as Arc<dyn KeyDirectory>)
    }

    fn fair_client(&self) -> FairClient {
        FairClient::new(
            Arc::clone(self.client.party()),
            Arc::clone(self.client.coordinator()),
            self.ttp.org().clone(),
        )
    }

    fn request(&self) -> Vec<u8> {
        Invocation::new(
            self.client.org().clone(),
            "urn:echo",
            "echo",
            Value::Bytes(b"req".to_vec()),
        )
        .encode_to_vec()
    }

    /// Seals every log, then adjudicates `run` over all three.
    fn verdict(&self, run: RunId) -> Verdict {
        let orgs = [&self.client, &self.server, &self.ttp];
        for org in orgs {
            org.flush_evidence().unwrap();
        }
        let submissions: Vec<WindowSubmission> =
            orgs.iter().map(|org| org.submit_full_window()).collect();
        self.judge().adjudicate_windows(run, &submissions)
    }
}

/// `org`'s log with its first own token re-issued over `forged_subject`,
/// the chain re-linked and every epoch re-sealed with its real key: a
/// history that passes every internal check.
fn forked_submission(org: &OrgMiddleware, forged_subject: Digest) -> WindowSubmission {
    let party = org.party();
    let records = party.log().records();
    let target = records
        .iter()
        .position(|r| r.draft.actor == *party.org() && r.draft.kind != EPOCH_KIND)
        .expect("an own token to rewrite");
    let mut forged = Vec::with_capacity(records.len());
    let mut hashes: Vec<Digest> = Vec::with_capacity(records.len());
    let mut prev = Digest::ZERO;
    for (i, r) in records.iter().enumerate() {
        let mut draft = r.draft.clone();
        if i == target {
            let orig = NrToken::decode_from_slice(&r.draft.payload).unwrap();
            let token = party
                .issue_token(orig.kind, orig.run_id, forged_subject)
                .unwrap();
            draft.content_digest = token.subject;
            draft.payload = token.encode_to_vec();
        } else if let Some(orig) = EpochCommitment::from_record(r) {
            let root =
                EpochCommitment::root_over_hashes(&hashes[orig.lo as usize..=orig.hi as usize]);
            let signature = party
                .keys()
                .sign_digest(&EpochCommitment::signing_digest(orig.lo, orig.hi, &root))
                .unwrap();
            draft = EpochCommitment {
                lo: orig.lo,
                hi: orig.hi,
                root,
                signature,
            }
            .to_draft(r.draft.actor.clone(), r.draft.at);
        }
        let record = EvidenceRecord {
            seq: r.seq,
            prev_hash: prev,
            draft,
        };
        prev = record.record_hash();
        hashes.push(prev);
        forged.push(Arc::new(record));
    }
    WindowSubmission {
        submitter: party.org().clone(),
        records: forged,
        head: prev,
        certs: Vec::new(),
    }
}

#[test]
fn gossiped_anchors_convict_a_forked_history() {
    let trio = Trio::new(ServerConduct::Honest);
    let proxy = trio
        .client
        .nr_proxy_in(TrustDomain::Direct, trio.server.org(), "urn:echo");
    for n in 0..3i64 {
        proxy.invoke("echo", Value::from(n)).unwrap();
    }
    trio.client.flush_evidence().unwrap();
    let peers = [trio.server.org().clone(), trio.ttp.org().clone()];
    assert!(trio.client.gossip_anchors(&peers).unwrap() >= 1);
    // Nothing new sealed, nothing re-sent.
    assert_eq!(trio.client.gossip_anchors(&peers).unwrap(), 0);

    let forged = forked_submission(&trio.client, sha256(b"forged"));
    // Alone, the fork is indistinguishable from the real log.
    assert!(trio.judge().verify_window(&forged).clean());
    // Against the anchors the server was gossiped, it is convicted, and
    // the honest log still verifies.
    let judge = trio.judge().corroborated_by(trio.server.corroboration());
    assert!(matches!(
        judge.verify_window(&forged).anchor_violation,
        Some(ChainViolation::ForkedHistory { .. })
    ));
    assert!(judge
        .verify_window(&trio.client.submit_full_window())
        .clean());
}

#[test]
fn tick_abort_closes_a_run_whose_client_stalls_after_step_two() {
    let trio = Trio::new(ServerConduct::Honest);
    let run = RunId::from_u128(0x57a1);
    trio.fair_client()
        .invoke_stalling(run, trio.server.org(), trio.request())
        .unwrap();
    trio.clock.advance(RECEIPT_WINDOW_MS - 1);
    assert!(trio.server.tick().is_empty(), "fired inside the window");
    trio.clock.advance(1);
    let fired = trio.server.tick();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].run, run);
    assert_eq!(fired[0].outcome, EscalationOutcome::Aborted);

    let verdict = trio.verdict(run);
    assert_eq!(
        verdict.findings,
        BTreeSet::from([Finding::Stalled {
            party: trio.client.org().clone(),
            ttp: trio.ttp.org().clone(),
        }])
    );
    assert!(verdict.suspect_submitters().is_empty());
}

#[test]
fn a_server_that_stalls_before_the_key_release_is_convicted() {
    let trio = Trio::new(ServerConduct::Stall);
    let run = RunId::from_u128(0x57a2);
    // The client resolves the key at the TTP instead.
    trio.fair_client()
        .invoke_with(run, trio.server.org(), trio.request())
        .unwrap();

    let verdict = trio.verdict(run);
    assert_eq!(
        verdict.findings,
        BTreeSet::from([Finding::Defected {
            party: trio.server.org().clone(),
            ttp: trio.ttp.org().clone(),
        }])
    );
}

#[test]
fn a_peer_answering_one_millisecond_inside_the_window_fires_nothing() {
    let trio = Trio::new(ServerConduct::Honest);
    let run = RunId::from_u128(0x57a3);
    trio.fair_client()
        .invoke_paced(run, trio.server.org(), trio.request(), || {
            trio.clock.advance(RECEIPT_WINDOW_MS - 1);
            for org in [&trio.client, &trio.server, &trio.ttp] {
                assert!(org.tick().is_empty(), "{} fired", org.org());
            }
        })
        .unwrap();
    // The receipt discharged the watch: no later sweep fires it.
    trio.clock.advance(RECEIPT_WINDOW_MS);
    assert!(trio.server.tick().is_empty());

    let verdict = trio.verdict(run);
    assert!(verdict.findings.is_empty());
    assert!(verdict.suspect_submitters().is_empty());
}
