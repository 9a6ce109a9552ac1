//! Adjudication over a warm verification memo (`nonrep_crypto::mss`):
//! a doctored submission must draw the same verdict the second time it is
//! presented as the first, and after a clean adjudication of the same run
//! has cached every genuine triple it tries to ride on.
//!
//! The tests read the process-wide memo counters, so they take turns.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;

use nonrep_core::{
    Adjudicator, Corroboration, Fact, Finding, LogReport, Verdict, WindowSubmission,
};
use nonrep_crypto::digest::sha256;
use nonrep_crypto::hss::CertLink;
use nonrep_crypto::mss::{memo_stats, MemoStats};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignaturePayload, SignatureScheme};
use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
use nonrep_protocols::scheduler::TokenSpec;
use nonrep_protocols::tokens::{NrToken, TokenKind};
use nonrep_protocols::{CommitmentMode, ProtocolMessage};
use nonrep_store::record::{cert_from_record, EpochCommitment, RecordDraft};
use nonrep_store::{EvidenceRecord, MemoryLog};
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

static TURN: Mutex<()> = Mutex::new(());

struct Duo {
    alice: Arc<Party>,
    bob: Arc<Party>,
    dir: Arc<StaticKeyDirectory>,
}

/// Two batched hierarchical-key parties, so tokens share subtree
/// certificates and batch signatures — what the memo caches.
fn duo(seed: u64) -> Duo {
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let party = |org: &str, seed: u64| {
        let mut rng = SecureRandom::from_seed(seed);
        let scheme = SignatureScheme::Hss {
            root_height: 2,
            subtree_height: 3,
        };
        let keys = Arc::new(KeyPair::generate(scheme, &mut rng));
        dir.insert(OrgId::new(org), keys.verifying_key());
        Party::with_commitment(
            org,
            keys,
            Arc::new(clock.clone()),
            Arc::new(MemoryLog::new()),
            Arc::clone(&dir) as Arc<dyn KeyDirectory>,
            rng,
            CommitmentMode::auto(50),
        )
    };
    let alice = party("alice", seed);
    let bob = party("bob", seed ^ 0x626f62);
    Duo { alice, bob, dir }
}

/// Alice's NRO and bob's NRR for one request, both cross-stored.
fn exchange(d: &Duo, payload: &[u8]) -> RunId {
    let run = d.alice.new_run_id();
    let subject = sha256(payload);
    let nro = d
        .alice
        .issue_token(TokenKind::NroReq, run, subject)
        .unwrap();
    d.alice.store_token(&nro).unwrap();
    d.bob
        .verify_and_store(&nro, TokenKind::NroReq, run, Some(&subject))
        .unwrap();
    let nrr = d.bob.issue_token(TokenKind::NrrReq, run, subject).unwrap();
    d.bob.store_token(&nrr).unwrap();
    d.alice
        .verify_and_store(&nrr, TokenKind::NrrReq, run, Some(&subject))
        .unwrap();
    run
}

fn window(org: &str, party: &Party) -> WindowSubmission {
    WindowSubmission::from_log(org, &**party.log(), 0..u64::MAX)
}

/// Everything a verdict established, in comparable form.
fn content(v: &Verdict) -> (Vec<LogReport>, Vec<Fact>, BTreeSet<Finding>) {
    (v.reports.clone(), v.facts.clone(), v.findings.clone())
}

fn since(before: MemoStats) -> MemoStats {
    let now = memo_stats();
    MemoStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        inserts: now.inserts - before.inserts,
        overwrites: now.overwrites - before.overwrites,
    }
}

/// Appends a hand-made record to a copy of a log with perfect chaining.
fn graft(records: &mut Vec<Arc<EvidenceRecord>>, draft: RecordDraft) {
    let last = records.last().unwrap();
    records.push(Arc::new(EvidenceRecord {
        seq: last.seq + 1,
        prev_hash: last.record_hash(),
        draft,
    }));
}

#[test]
fn doctored_submissions_draw_the_same_verdict_cold_warm_and_after_a_clean_pass() {
    let _turn = TURN.lock();
    let d = duo(0xd0c7);
    let run = exchange(&d, b"order 1");
    let other_run = exchange(&d, b"order 2");
    d.alice.flush_evidence().unwrap();
    d.bob.flush_evidence().unwrap();
    let adj = Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>);
    let alice = OrgId::new("alice");
    let records = || d.alice.log().snapshot_range(0..d.alice.log().len());
    let bob_window = window("bob", &d.bob);

    // Forged cert: bob's receipt in alice's log, its genuine (and soon
    // cached) batch signature kept, its certificate put back inline from
    // alice's certificate record with the generation bumped.
    let mut forged_cert = records();
    let slot = forged_cert
        .iter()
        .position(|r| r.draft.kind == TokenKind::NrrReq.label() && r.draft.run_id == run)
        .unwrap();
    let mut token = NrToken::decode_from_slice(&forged_cert[slot].draft.payload).unwrap();
    let reference = token.signature.cert_ref().expect("stored tokens reference");
    let cert = forged_cert
        .iter()
        .filter_map(|r| cert_from_record(r))
        .find(|c| c.reference() == reference)
        .unwrap();
    assert!(token.signature.attach_cert(cert));
    let SignaturePayload::Hss(h) = &mut token.signature.payload else {
        panic!("hierarchical keys sign hierarchical signatures");
    };
    let CertLink::Inline(cert) = &mut h.cert else {
        panic!("the cert was just attached");
    };
    Arc::make_mut(cert).generation += 1;
    Arc::make_mut(&mut forged_cert[slot]).draft.payload = token.encode_to_vec();

    // Laundered cert: a foreign hierarchy's genuine certificate record
    // and a token in alice's name that its subtree signed, grafted onto
    // alice's history.
    let mut laundered = records();
    for draft in common::laundered_drafts(&d.alice, RunId::from_u128(666), 666) {
        graft(&mut laundered, draft);
    }

    // Replayed token: the other run's genuine NRO under this run's context.
    let mut replayed = records();
    let nro = replayed
        .iter()
        .find(|r| r.draft.kind == TokenKind::NroReq.label() && r.draft.run_id == other_run)
        .unwrap()
        .draft
        .clone();
    graft(&mut replayed, RecordDraft { run_id: run, ..nro });

    let doctored: Vec<(&str, WindowSubmission)> = [
        ("forged cert", forged_cert),
        ("laundered cert", laundered),
        ("replayed token", replayed),
    ]
    .into_iter()
    .map(|(what, records)| {
        let submission = WindowSubmission {
            submitter: alice.clone(),
            records,
            head: nonrep_crypto::Digest::ZERO,
            certs: Vec::new(),
        };
        (what, submission)
    })
    .collect();

    // Forked history: alice signed a second root over her first epoch.
    let real = records()
        .iter()
        .find_map(|r| EpochCommitment::from_record(r))
        .unwrap();
    let other_root = sha256(b"the history alice showed carol");
    let forked = EpochCommitment {
        signature: d
            .alice
            .keys()
            .sign_digest(&EpochCommitment::signing_digest(
                real.lo,
                real.hi,
                &other_root,
            ))
            .unwrap(),
        root: other_root,
        ..real.clone()
    };
    let anchored =
        Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>).corroborated_by(Corroboration {
            epochs: BTreeMap::from([(alice.clone(), vec![real, forked])]),
        });

    let clean = || adj.adjudicate_windows(run, &[window("alice", &d.alice), bob_window.clone()]);
    let baseline = clean();
    assert!(baseline.suspect_submitters().is_empty());
    assert!(baseline.cannot_deny(&alice, TokenKind::NroReq));
    assert!(baseline.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));

    for (what, submission) in &doctored {
        let judge = || adj.adjudicate_windows(run, &[submission.clone(), bob_window.clone()]);
        let first = judge();
        assert_eq!(
            first.suspect_submitters(),
            std::slice::from_ref(&alice),
            "{what}"
        );
        assert_eq!(content(&judge()), content(&first), "{what}: second sight");
        assert_eq!(content(&clean()), content(&baseline), "{what}: clean after");
        assert_eq!(content(&judge()), content(&first), "{what}: after clean");
    }
    let judge =
        || anchored.adjudicate_windows(run, &[window("alice", &d.alice), bob_window.clone()]);
    let first = judge();
    assert_eq!(
        first.findings,
        BTreeSet::from([
            Finding::Suspect {
                submitter: alice.clone()
            },
            Finding::ForkedHistory {
                submitter: alice.clone()
            },
        ]),
        "forked history"
    );
    assert_eq!(first.suspect_submitters(), std::slice::from_ref(&alice));
    assert_eq!(content(&judge()), content(&first));
    assert_eq!(content(&clean()), content(&baseline));
    assert_eq!(content(&judge()), content(&first));

    // The repeats really were answered from the memo.
    let before = memo_stats();
    assert_eq!(content(&clean()), content(&baseline));
    let repeat = since(before);
    assert!(repeat.hits > 0 && repeat.inserts == repeat.misses);
}

#[test]
fn tokens_sharing_a_batch_signature_cost_one_walk_each_for_cert_and_batch() {
    let _turn = TURN.lock();
    let d = duo(0xba7c);
    let run = d.alice.new_run_id();
    let (req, resp) = (sha256(b"request"), sha256(b"response"));
    // The server's pair for one run, carried by its step-2 frame: one
    // shared batch signature.
    let specs = [
        TokenSpec::new(TokenKind::NrrReq, run, req),
        TokenSpec::new(TokenKind::NroResp, run, resp),
    ];
    let frame = ProtocolMessage::new("direct", run, 2, "bob", Vec::new());
    let pair = d.bob.scheduler().sign_frame(frame, &specs).unwrap().tokens;
    let before = memo_stats();
    d.alice
        .verify_and_store(&pair[0], TokenKind::NrrReq, run, Some(&req))
        .unwrap();
    let first = since(before);
    assert_eq!((first.hits, first.misses, first.inserts), (0, 2, 2));
    let before = memo_stats();
    d.alice
        .verify_and_store(&pair[1], TokenKind::NroResp, run, Some(&resp))
        .unwrap();
    let second = since(before);
    assert_eq!((second.hits, second.misses, second.inserts), (2, 0, 0));

    // A forged sibling of the pair — same cached certificate and batch
    // signature, another subject — takes the walk, fails, and leaves
    // nothing behind, however often it is presented.
    let mut forged = pair[1].clone();
    forged.subject = sha256(b"a response bob never gave");
    for _ in 0..2 {
        let before = memo_stats();
        assert!(d
            .alice
            .verify_and_store(&forged, TokenKind::NroResp, run, None)
            .is_err());
        let attempt = since(before);
        assert_eq!((attempt.hits, attempt.misses, attempt.inserts), (1, 1, 0));
    }
}
