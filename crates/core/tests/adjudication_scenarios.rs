//! Additional adversarial adjudication scenarios for the dispute service
//! (complementing the unit tests in `nonrep-core::dispute`).

mod common;

use std::sync::Arc;

use nonrep_core::{Adjudicator, Finding, Verdict, WindowSubmission};
use nonrep_crypto::digest::{sha256, Digest};
use nonrep_crypto::mss::MssSigner;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_crypto::SubtreeCert;
use nonrep_net::bus::LocalBus;
use nonrep_net::retry::{ReliableRequester, RetryPolicy};
use nonrep_protocols::handler::ProtocolHandler;
use nonrep_protocols::invocation::fair_offline::{
    self, FairClient, FairServerHandler, FairServerRuntime, KeySource, OfflineTtpHandler,
    ServerConduct,
};
use nonrep_protocols::message::ProtocolMessage;
use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
use nonrep_protocols::tokens::TokenKind;
use nonrep_protocols::{B2BCoordinator, CommitmentMode, ProtocolError};
use nonrep_store::record::{EpochCommitment, EvidenceRecord, RecordDraft};
use nonrep_store::{EvidenceLog, MemoryLog};
use nonrep_types::codec::Encode;
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

struct Duo {
    alice: Arc<Party>,
    bob: Arc<Party>,
    dir: Arc<StaticKeyDirectory>,
}

fn duo() -> Duo {
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    Duo {
        alice: Party::quick("alice", 1, &clock, &dir),
        bob: Party::quick("bob", 2, &clock, &dir),
        dir,
    }
}

/// A whole log as records: the window from sequence 0, claiming no head.
fn full(org: &str, records: Vec<Arc<EvidenceRecord>>) -> WindowSubmission {
    WindowSubmission {
        submitter: OrgId::new(org),
        records,
        head: Digest::ZERO,
        certs: Vec::new(),
    }
}

fn exchange(duo: &Duo) -> RunId {
    let run = duo.alice.new_run_id();
    let subject = sha256(b"payload");
    let nro = duo
        .alice
        .issue_token(TokenKind::NroReq, run, subject)
        .unwrap();
    duo.alice.store_token(&nro).unwrap();
    duo.bob
        .verify_and_store(&nro, TokenKind::NroReq, run, Some(&subject))
        .unwrap();
    let nrr = duo
        .bob
        .issue_token(TokenKind::NrrReq, run, subject)
        .unwrap();
    duo.bob.store_token(&nrr).unwrap();
    duo.alice
        .verify_and_store(&nrr, TokenKind::NrrReq, run, Some(&subject))
        .unwrap();
    run
}

#[test]
fn replayed_records_from_another_run_do_not_pollute_the_verdict() {
    let d = duo();
    let run1 = exchange(&d);
    let run2 = exchange(&d);
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    // Submitting *everything* while adjudicating run2: run1 tokens are
    // verified but contribute no facts to run2.
    let verdict = adj.adjudicate_windows(run2, &[full("alice", d.alice.log().records())]);
    assert!(verdict.facts.iter().all(|f| f.run_id == run2));
    assert_ne!(run1, run2);
}

#[test]
fn reordered_log_is_flagged_but_tokens_still_count() {
    let d = duo();
    let run = exchange(&d);
    let mut records = d.alice.log().records();
    records.swap(0, 1); // breaks seq order + chain
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let verdict = adj.adjudicate_windows(run, &[full("alice", records)]);
    assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
    // The tokens themselves are genuine, so the facts still stand —
    // tampering with ordering does not let alice *suppress* bob's receipt.
    assert!(verdict.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
}

#[test]
fn empty_submission_set_yields_no_facts() {
    let d = duo();
    let run = exchange(&d);
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let verdict = adj.adjudicate_windows(run, &[]);
    assert!(verdict.facts.is_empty());
    assert!(verdict.suspect_submitters().is_empty());
}

#[test]
fn both_parties_tampering_is_both_flagged() {
    let d = duo();
    let run = exchange(&d);
    let mut a = d.alice.log().records();
    let mut b = d.bob.log().records();
    Arc::make_mut(&mut a[0]).draft.kind = "edited".into();
    Arc::make_mut(&mut b[1]).draft.payload.push(0xFF);
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let verdict = adj.adjudicate_windows(run, &[full("alice", a), full("bob", b)]);
    let mut suspects = verdict.suspect_submitters();
    suspects.sort();
    assert_eq!(suspects, vec![OrgId::new("alice"), OrgId::new("bob")]);
}

#[test]
fn third_party_submission_corroborates() {
    // A TTP-like witness holding copies of the tokens corroborates facts
    // even if both principals refuse to submit.
    let d = duo();
    let clock = LogicalClock::new();
    let witness = Party::new(
        "witness",
        Arc::new(nonrep_crypto::sig::KeyPair::generate(
            nonrep_crypto::sig::SignatureScheme::Arbitrated,
            &mut nonrep_crypto::rng::SecureRandom::from_seed(9),
        )),
        Arc::new(clock),
        Arc::new(nonrep_store::MemoryLog::new()),
        d.dir.clone() as Arc<dyn KeyDirectory>,
        nonrep_crypto::rng::SecureRandom::from_seed(10),
    );
    let run = exchange(&d);
    // Witness stores copies of both parties' tokens.
    for record in d.alice.log().records() {
        use nonrep_types::codec::Decode;
        let token =
            nonrep_protocols::tokens::NrToken::decode_from_slice(&record.draft.payload).unwrap();
        witness.store_token(&token).unwrap();
    }
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let verdict = adj.adjudicate_windows(run, &[full("witness", witness.log().records())]);
    assert!(verdict.cannot_deny(&OrgId::new("alice"), TokenKind::NroReq));
    assert!(verdict.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
    assert!(verdict.suspect_submitters().is_empty());
}

/// Doctored records served through the [`EvidenceLog`] surface, so the
/// in-place audit door sees the same bytes a window submission carries.
struct Exhibit(Vec<Arc<EvidenceRecord>>);

impl EvidenceLog for Exhibit {
    fn append(&self, _: RecordDraft) -> Result<Arc<EvidenceRecord>, nonrep_store::StoreError> {
        unreachable!("an exhibit is never appended to")
    }
    fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
        self.0.iter().for_each(|r| f(r));
    }
    fn snapshot_range(&self, range: std::ops::Range<u64>) -> Vec<Arc<EvidenceRecord>> {
        self.0[range.start as usize..range.end.min(self.len()) as usize].to_vec()
    }
    fn head(&self) -> Digest {
        self.0.last().map_or(Digest::ZERO, |r| r.record_hash())
    }
    fn len(&self) -> u64 {
        self.0.len() as u64
    }
}

#[test]
fn the_window_door_and_the_in_place_door_report_the_same_log_identically() {
    // One batched log, honest and doctored five ways: the whole log as a
    // window and the same records audited in place yield the same report
    // (no anchors are held, so neither door sets `anchor_violation`).
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let alice = common::batched_party("alice", 1, &clock, &dir);
    let run = alice.new_run_id();
    for i in 0..4u8 {
        let t = alice
            .issue_token(TokenKind::NroReq, run, sha256(&[i]))
            .unwrap();
        alice.store_token(&t).unwrap();
        if i % 2 == 1 {
            alice.flush_evidence().unwrap();
        }
    }
    let forge_epoch_root = |r: &mut Vec<Arc<EvidenceRecord>>| {
        let at = r.iter().position(|x| x.is_epoch_commit()).unwrap();
        let mut commitment = EpochCommitment::from_record(&r[at]).unwrap();
        commitment.root = sha256(b"another history");
        Arc::make_mut(&mut r[at]).draft.payload = commitment.encode_to_vec();
    };
    let launder_cert = |r: &mut Vec<Arc<EvidenceRecord>>| {
        for draft in common::laundered_drafts(&alice, RunId::from_u128(666), 666) {
            let last = r.last().unwrap();
            r.push(Arc::new(EvidenceRecord {
                seq: last.seq + 1,
                prev_hash: last.record_hash(),
                draft,
            }));
        }
    };
    type Doctoring<'a> = &'a dyn Fn(&mut Vec<Arc<EvidenceRecord>>);
    let table: [(&str, Doctoring, bool); 6] = [
        ("honest", &|_| {}, true),
        // Past the first record: a window is anchored where it starts.
        ("swapped records", &|r| r.swap(1, 2), false),
        (
            "edited payload",
            &|r| Arc::make_mut(&mut r[0]).draft.payload.push(0xFF),
            false,
        ),
        ("forged epoch root", &forge_epoch_root, false),
        ("laundered foreign cert", &launder_cert, false),
        // Internally consistent: only held anchors could convict it.
        ("truncated tail", &|r| r.truncate(3), true),
    ];
    let adj = Adjudicator::new(dir.clone() as Arc<dyn KeyDirectory>);
    for (what, doctor, clean) in table {
        let mut records = alice.log().records();
        doctor(&mut records);
        let in_place = adj.verify_log_in_place(OrgId::new("alice"), &Exhibit(records.clone()));
        assert_eq!(in_place.clean(), clean, "{what}");
        assert_eq!(in_place.anchor_violation, None, "{what}");
        let tail = records.last().unwrap().record_hash();
        let window = |head| {
            let records = records.clone();
            adj.verify_window(&WindowSubmission {
                head,
                ..full("alice", records)
            })
        };
        assert_eq!(window(Digest::ZERO), in_place, "{what}: no head claimed");
        assert_eq!(window(tail), in_place, "{what}: honest head");
        // A false head claim changes `chain` and nothing else.
        let mut misclaimed = window(sha256(b"not the tail"));
        misclaimed.chain = in_place.chain.clone();
        assert_eq!(misclaimed, in_place, "{what}: false head");
    }
}

/// Alice and bob on hierarchical keys with 16-leaf subtrees, batched,
/// after eight exchanges each sealed on both sides.
fn hierarchical_duo() -> (Duo, Vec<RunId>) {
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let party = |org: &str, seed: u64| {
        let mut rng = SecureRandom::from_seed(seed);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Hss {
                root_height: 4,
                subtree_height: 4,
            },
            &mut rng,
        ));
        dir.insert(OrgId::new(org), keys.verifying_key());
        Party::with_commitment(
            org,
            keys,
            Arc::new(clock.clone()),
            Arc::new(nonrep_store::MemoryLog::new()),
            Arc::clone(&dir) as Arc<dyn KeyDirectory>,
            rng,
            CommitmentMode::auto(50),
        )
    };
    let duo = Duo {
        alice: party("alice", 11),
        bob: party("bob", 12),
        dir: dir.clone(),
    };
    let runs = (0..8)
        .map(|_| {
            let run = exchange(&duo);
            duo.alice.flush_evidence().unwrap();
            duo.bob.flush_evidence().unwrap();
            run
        })
        .collect();
    (duo, runs)
}

/// The span of `run`'s records in `party`'s log, as a window.
fn run_window(party: &Party, run: RunId) -> WindowSubmission {
    let seqs: Vec<u64> = party.log().by_run(&run).iter().map(|r| r.seq).collect();
    let (lo, hi) = (seqs[0], *seqs.last().unwrap());
    WindowSubmission::from_log(party.org().clone(), &**party.log(), lo..hi + 1)
}

/// A run of [`hierarchical_duo`] whose window in alice's log holds no
/// certificate record: every certificate its tokens reference was
/// stored before the window starts.
fn run_with_certs_before_its_window(d: &Duo, runs: &[RunId]) -> (RunId, WindowSubmission) {
    runs.iter()
        .map(|run| (*run, run_window(&d.alice, *run)))
        .find(|(_, w)| w.records.iter().all(|r| !r.is_subtree_cert()))
        .expect("most runs store no certificate")
}

/// The established facts as `(kind, issuer, holders)`.
fn fact_shape(v: &Verdict) -> Vec<(TokenKind, OrgId, Vec<OrgId>)> {
    v.facts
        .iter()
        .map(|f| (f.kind, f.issuer.clone(), f.held_by.clone()))
        .collect()
}

#[test]
fn a_window_stripped_of_its_certs_establishes_nothing_and_spares_the_counterparty() {
    let (d, runs) = hierarchical_duo();
    let (run, honest) = run_with_certs_before_its_window(&d, &runs);
    // Alice's NRO references her certificate, bob's NRR his.
    assert_eq!(honest.certs.len(), 2);
    let bob = run_window(&d.bob, run);
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let verdict = adj.adjudicate_windows(run, &[honest.clone(), bob.clone()]);
    assert!(verdict.suspect_submitters().is_empty());
    let both = vec![OrgId::new("alice"), OrgId::new("bob")];
    assert_eq!(
        fact_shape(&verdict),
        vec![
            (TokenKind::NroReq, OrgId::new("alice"), both.clone()),
            (TokenKind::NrrReq, OrgId::new("bob"), both),
        ]
    );

    let stripped = WindowSubmission {
        certs: Vec::new(),
        ..honest
    };
    let verdict = adj.adjudicate_windows(run, &[stripped, bob.clone()]);
    let report = &verdict.reports[0];
    assert!(!report.clean());
    assert_eq!(report.tokens.len(), 2);
    assert!(report.tokens.iter().all(|(_, ok)| !ok));
    assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
    // Bob's window alone proves what it proved before.
    let bob_alone = adj.adjudicate_windows(run, &[bob]);
    assert!(bob_alone.suspect_submitters().is_empty());
    assert_eq!(fact_shape(&verdict), fact_shape(&bob_alone));
    assert!(verdict
        .facts
        .iter()
        .all(|f| f.held_by == [OrgId::new("bob")]));
}

#[test]
fn a_cert_swapped_for_one_under_another_root_fails() {
    let (d, runs) = hierarchical_duo();
    let (run, honest) = run_with_certs_before_its_window(&d, &runs);
    let mut other_root = MssSigner::generate(3, &mut SecureRandom::from_seed(99));
    // Same generation, same subtree: only the certifying root differs.
    let swapped = WindowSubmission {
        certs: honest
            .certs
            .iter()
            .map(|c| SubtreeCert {
                root_sig: other_root
                    .sign(&SubtreeCert::signing_digest(c.generation, &c.subtree_root))
                    .unwrap(),
                ..c.clone()
            })
            .collect(),
        ..honest
    };
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let verdict = adj.adjudicate_windows(run, &[swapped]);
    assert!(verdict.facts.is_empty());
    assert!(verdict.reports[0].tokens.iter().all(|(_, ok)| !ok));
    assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
}

#[test]
fn an_edited_cert_record_counts_as_undecodable() {
    let (d, _) = hierarchical_duo();
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let records = d.alice.log().records();
    assert!(adj
        .verify_log_in_place(OrgId::new("alice"), &Exhibit(records.clone()))
        .clean());
    let at = records.iter().position(|r| r.is_subtree_cert()).unwrap();
    type Edit = fn(&mut RecordDraft);
    let edits: [(&str, Edit); 2] = [
        ("cut payload", |d| {
            d.payload.pop();
        }),
        ("renamed subtree", |d| {
            d.content_digest = sha256(b"another subtree")
        }),
    ];
    for (what, edit) in edits {
        let mut doctored = records.clone();
        edit(&mut Arc::make_mut(&mut doctored[at]).draft);
        let report = adj.verify_log_in_place(OrgId::new("alice"), &Exhibit(doctored));
        assert_eq!(report.undecodable, 1, "{what}");
        assert!(!report.clean(), "{what}");
    }
}

/// A party on seeded HSS keys over a memory log, registered in `dir`.
fn hss_party(
    org: &str,
    seed: u64,
    clock: &LogicalClock,
    dir: &Arc<StaticKeyDirectory>,
) -> Arc<Party> {
    let mut rng = SecureRandom::from_seed(seed);
    let scheme = SignatureScheme::Hss {
        root_height: 3,
        subtree_height: 2,
    };
    let keys = Arc::new(KeyPair::generate(scheme, &mut rng));
    dir.insert(OrgId::new(org), keys.verifying_key());
    let directory = Arc::clone(dir) as Arc<dyn KeyDirectory>;
    let log = Arc::new(MemoryLog::new());
    Party::new(org, keys, Arc::new(clock.clone()), log, directory, rng)
}

#[test]
fn a_rebuilt_ttp_answers_an_abort_with_the_resolved_outcome() {
    // The client resolves against a server that withholds the key, then
    // the TTP restarts: a new handler over the same party and log. The
    // server's abort is answered with the client's receipt and the TTP
    // logs no Abort, so the three logs never show it equivocating.
    let bus = LocalBus::new();
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let client = hss_party("client", 1, &clock, &dir);
    let server = Party::quick("server", 2, &clock, &dir);
    let ttp = hss_party("ttp", 3, &clock, &dir);
    let other = Party::quick("other", 4, &clock, &dir);
    let coord = |org: &str| {
        let c = B2BCoordinator::new(
            org,
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        bus.register(OrgId::new(org), c.clone());
        c
    };
    let client_coord = coord("client");
    let server_coord = coord("server");
    let ttp_coord = coord("ttp");
    ttp_coord.register_handler(OfflineTtpHandler::new(ttp.clone()));
    let fair_server = FairServerHandler::with_runtime(
        server.clone(),
        server_coord.clone(),
        Arc::new(|_: &OrgId, req: &[u8]| Ok(req.to_vec())),
        ttp.org().clone(),
        ServerConduct::WithholdKey,
        FairServerRuntime::default(),
    );
    server_coord.register_handler(fair_server.clone());
    let out = FairClient::new(client.clone(), client_coord, ttp.org().clone())
        .invoke(server.org(), b"req".to_vec())
        .unwrap();
    assert_eq!(out.key_source, KeySource::TtpResolve);
    let run = out.run_id;

    let rebuilt = OfflineTtpHandler::new(ttp.clone());
    ttp_coord.register_handler(rebuilt.clone());
    let receipt = fair_server.abort(run).unwrap();
    assert_eq!(receipt.kind, TokenKind::NrrResp);
    assert_eq!(&receipt.issuer, client.org());
    let ttp_records = ttp.log().by_run(&run);
    assert!(!ttp_records
        .iter()
        .any(|r| r.draft.kind == TokenKind::Abort.label()));

    let logs = [&client, &server, &ttp]
        .map(|p| WindowSubmission::from_log(p.org().clone(), &**p.log(), 0..p.log().len()));
    let verdict =
        Adjudicator::new(dir.clone() as Arc<dyn KeyDirectory>).adjudicate_windows(run, &logs);
    assert!(
        !verdict
            .findings
            .iter()
            .any(|f| matches!(f, Finding::Equivocated { .. })),
        "{:?}",
        verdict.findings
    );

    // The receipt goes only to the server the decision names.
    for org in [&client, &other] {
        let frame = ProtocolMessage::new(
            fair_offline::PROTOCOL_ID,
            run,
            30,
            org.org().as_str(),
            vec![],
        );
        let msg = org.sign_frame(frame, &[]).unwrap();
        let answer = rebuilt.process_request(org.org(), msg);
        assert!(
            matches!(answer, Err(ProtocolError::Rejected(_))),
            "{answer:?}"
        );
    }
}
