//! End-to-end coverage for the batched evidence pipeline: property tests
//! that tampering with any part of a sealed batch is detected by the
//! adjudicator, a differential test that batched and per-record modes
//! yield equivalent verdicts, and windowed-adjudication scenarios.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use nonrep_core::{Adjudicator, WindowSubmission};
use nonrep_crypto::batch::BatchSignature;
use nonrep_crypto::digest::{sha256, Digest};
use nonrep_crypto::sig::SignaturePayload;
use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
use nonrep_protocols::scheduler::TokenSpec;
use nonrep_protocols::tokens::{NrToken, TokenKind};
use nonrep_protocols::ProtocolMessage;
use nonrep_store::record::EpochCommitment;
use nonrep_store::EvidenceRecord;
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

struct Duo {
    alice: Arc<Party>,
    bob: Arc<Party>,
    dir: Arc<StaticKeyDirectory>,
}

/// A pair of parties; `batched` selects the evidence pipeline.
fn duo(batched: bool) -> Duo {
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let (alice, bob) = if batched {
        (
            common::batched_party("alice", 1, &clock, &dir),
            common::batched_party("bob", 2, &clock, &dir),
        )
    } else {
        (
            Party::quick("alice", 1, &clock, &dir),
            Party::quick("bob", 2, &clock, &dir),
        )
    };
    Duo { alice, bob, dir }
}

/// Signs a two-token batch as `party`: the tokens share one batch
/// signature with the (discarded) frame carrying them.
fn token_pair(party: &Party, specs: [TokenSpec; 2]) -> Vec<NrToken> {
    let frame = ProtocolMessage::new(
        "direct",
        specs[0].run_id,
        2,
        party.org().clone(),
        Vec::new(),
    );
    party.scheduler().sign_frame(frame, &specs).unwrap().tokens
}

/// One §3.2-style exchange: alice's NRO + bob's NRR, both cross-stored.
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

fn adjudicator(d: &Duo) -> Adjudicator {
    Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>)
}

#[test]
fn differential_batched_and_per_record_verdicts_agree() {
    // Same exchanges through both pipelines; the *verdicts* must agree on
    // every fact even though the batched logs contain epoch records and
    // batch signatures.
    let per_record = duo(false);
    let batched = duo(true);
    for d in [&per_record, &batched] {
        for i in 0..3u8 {
            exchange(d, &[i]);
        }
        d.alice.flush_evidence().unwrap();
        d.bob.flush_evidence().unwrap();
    }
    let runs_pr: Vec<RunId> = (0..3u8)
        .map(|i| exchange(&per_record, &[100 + i]))
        .collect();
    let runs_b: Vec<RunId> = (0..3u8).map(|i| exchange(&batched, &[100 + i])).collect();
    per_record.alice.flush_evidence().unwrap();
    per_record.bob.flush_evidence().unwrap();
    batched.alice.flush_evidence().unwrap();
    batched.bob.flush_evidence().unwrap();

    for (run_pr, run_b) in runs_pr.iter().zip(&runs_b) {
        let v_pr = adjudicator(&per_record).adjudicate_windows(
            *run_pr,
            &[
                WindowSubmission::from_log("alice", &**per_record.alice.log(), 0..u64::MAX),
                WindowSubmission::from_log("bob", &**per_record.bob.log(), 0..u64::MAX),
            ],
        );
        let v_b = adjudicator(&batched).adjudicate_windows(
            *run_b,
            &[
                WindowSubmission::from_log("alice", &**batched.alice.log(), 0..u64::MAX),
                WindowSubmission::from_log("bob", &**batched.bob.log(), 0..u64::MAX),
            ],
        );
        for (who, kind) in [("alice", TokenKind::NroReq), ("bob", TokenKind::NrrReq)] {
            assert_eq!(
                v_pr.cannot_deny(&OrgId::new(who), kind),
                v_b.cannot_deny(&OrgId::new(who), kind),
                "{who}/{kind} must agree across pipelines"
            );
            assert!(v_b.cannot_deny(&OrgId::new(who), kind));
        }
        assert!(v_pr.suspect_submitters().is_empty());
        assert!(
            v_b.suspect_submitters().is_empty(),
            "batched logs must be clean"
        );
        // The batched reports actually exercised epoch verification.
        assert!(v_b.reports.iter().all(|r| r.epoch_commits > 0 && r.clean()));
        assert!(v_pr.reports.iter().all(|r| r.epoch_commits == 0));
    }
}

#[test]
fn windowed_submission_with_head_and_batch_proofs() {
    let d = duo(true);
    let mut runs = Vec::new();
    for i in 0..5u8 {
        runs.push(exchange(&d, &[i]));
        // Epochs of four of alice's records.
        if i % 2 == 1 {
            d.alice.flush_evidence().unwrap();
        }
    }
    d.alice.flush_evidence().unwrap();
    let log = d.alice.log();
    // Submit only the tail window covering the last sealed epoch, not the
    // whole log.
    let len = log.len();
    let window = WindowSubmission::from_log("alice", &**log, len.saturating_sub(4)..len);
    assert!(window.records.len() < len as usize);
    assert_ne!(
        window.head,
        Digest::ZERO,
        "tail window carries the head claim"
    );
    let verdict = adjudicator(&d).adjudicate_windows(*runs.last().unwrap(), &[window]);
    assert!(verdict.cannot_deny(&OrgId::new("alice"), TokenKind::NroReq));
    assert!(verdict.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
    assert!(verdict.suspect_submitters().is_empty());
}

#[test]
fn forged_head_claim_is_flagged() {
    let d = duo(true);
    let run = exchange(&d, b"x");
    d.alice.flush_evidence().unwrap();
    let log = d.alice.log();
    let mut window = WindowSubmission::from_log("alice", &**log, 0..log.len());
    // Claim a head that does not match the submitted tail — e.g. hiding
    // later records while presenting an older head, or vice versa.
    window.head = sha256(b"forged head");
    let verdict = adjudicator(&d).adjudicate_windows(run, &[window]);
    assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
}

#[test]
fn dropping_a_sealed_run_from_the_window_is_detected() {
    // The dispute_resolution scenario, windowed: the cheater drops the
    // records of one run from an otherwise contiguous window.
    let d = duo(true);
    let _run1 = exchange(&d, b"one");
    let run2 = exchange(&d, b"two");
    let _run3 = exchange(&d, b"three");
    d.bob.flush_evidence().unwrap();
    let full = d.bob.log().records();
    let doctored: Vec<Arc<EvidenceRecord>> = full
        .iter()
        .filter(|r| r.draft.run_id != run2)
        .cloned()
        .collect();
    assert!(doctored.len() < full.len());
    let submission = WindowSubmission {
        submitter: OrgId::new("bob"),
        records: doctored,
        head: d.bob.log().head(),
        certs: Vec::new(),
    };
    let verdict = adjudicator(&d).adjudicate_windows(run2, &[submission]);
    assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("bob")]);
}

/// Re-seal helper: tamper one field of the epoch commitment record inside
/// a window and return the doctored submission.
fn doctor_epoch(
    window: &WindowSubmission,
    f: impl FnOnce(&mut EpochCommitment),
) -> WindowSubmission {
    let mut records = window.records.clone();
    let idx = records
        .iter()
        .position(|r| r.is_epoch_commit())
        .expect("sealed window");
    let mut commitment = EpochCommitment::from_record(&records[idx]).unwrap();
    f(&mut commitment);
    let rec = Arc::make_mut(&mut records[idx]);
    rec.draft.payload = commitment.encode_to_vec();
    rec.draft.content_digest = commitment.root;
    WindowSubmission {
        submitter: window.submitter.clone(),
        records,
        // The tampered record breaks the old head claim trivially; drop
        // the claim so detection must come from the chain/epoch checks.
        head: Digest::ZERO,
        certs: window.certs.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tampering any single record inside a sealed batch is detected.
    #[test]
    fn tampered_record_in_sealed_batch_detected(victim in 0usize..4, flip in any::<u8>()) {
        let d = duo(true);
        let run = exchange(&d, b"payload");
        d.alice.flush_evidence().unwrap();
        let log = d.alice.log();
        let mut records = log.records();
        // Tamper an ordinary (non-epoch) record.
        let ordinary: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_epoch_commit())
            .map(|(i, _)| i)
            .collect();
        let idx = ordinary[victim % ordinary.len()];
        Arc::make_mut(&mut records[idx]).draft.payload.push(flip | 1);
        let submission = WindowSubmission {
            submitter: OrgId::new("alice"),
            records,
            head: Digest::ZERO,
            certs: Vec::new(),
        };
        let verdict = adjudicator(&d).adjudicate_windows(run, &[submission]);
        prop_assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
    }

    /// Tampering the epoch root or either range bound is detected.
    #[test]
    fn tampered_epoch_root_or_bounds_detected(which in 0usize..3, delta in 1u64..4) {
        let d = duo(true);
        let run = exchange(&d, b"payload");
        d.alice.flush_evidence().unwrap();
        let window = WindowSubmission::from_log("alice", &**d.alice.log(), 0..u64::MAX);
        let doctored = doctor_epoch(&window, |c| match which {
            0 => c.root = sha256(&delta.to_le_bytes()),
            1 => c.lo = c.lo.wrapping_add(delta),
            _ => c.hi = c.hi.wrapping_add(delta),
        });
        let verdict = adjudicator(&d).adjudicate_windows(run, &[doctored]);
        prop_assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
    }

    /// Tampering a batched token's authentication path is detected.
    #[test]
    fn tampered_auth_path_detected(step_byte in any::<u8>()) {
        let d = duo(true);
        let run = d.bob.new_run_id();
        // A genuine two-token batch from bob (shared signature).
        let tokens = token_pair(&d.bob, [
            TokenSpec::new(TokenKind::NrrReq, run, sha256(b"req")),
            TokenSpec::new(TokenKind::NroResp, run, sha256(b"resp")),
        ]);
        let mut forged = tokens[0].clone();
        if let SignaturePayload::BatchedMss(BatchSignature { auth_path, .. }) =
            &mut forged.signature.payload
        {
            auth_path.steps[0].sibling = sha256(&[step_byte]);
        } else {
            panic!("expected batched signature");
        }
        // Alice stores the forged token; her log must come up suspect and
        // the forged token must establish no fact.
        d.alice.store_token(&forged).unwrap();
        d.alice.flush_evidence().unwrap();
        let verdict = adjudicator(&d).adjudicate_windows(
            run,
            &[WindowSubmission::from_log("alice", &**d.alice.log(), 0..u64::MAX)],
        );
        prop_assert!(!verdict.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
        prop_assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
        // The untampered sibling token still verifies on its own.
        let bob_key = d.alice.key_of(&OrgId::new("bob")).unwrap();
        prop_assert!(tokens[1].verify(&bob_key, Some(TokenKind::NroResp), Some(run), None));
    }
}

#[test]
fn batched_tokens_survive_wire_roundtrip_and_adjudication() {
    let d = duo(true);
    let run = d.alice.new_run_id();
    let tokens = token_pair(
        &d.alice,
        [
            TokenSpec::new(TokenKind::NroReq, run, sha256(b"a")),
            TokenSpec::new(TokenKind::NrrResp, run, sha256(b"b")),
        ],
    );
    for t in &tokens {
        assert!(t.signature.batch().is_some());
        let wire = t.encode_to_vec();
        let back = NrToken::decode_from_slice(&wire).unwrap();
        // Bob verifies and stores the decoded token like any other.
        d.bob
            .verify_and_store(&back, t.kind, run, Some(&t.subject))
            .unwrap();
    }
    d.bob.flush_evidence().unwrap();
    let verdict = adjudicator(&d).adjudicate_windows(
        run,
        &[WindowSubmission::from_log(
            "bob",
            &**d.bob.log(),
            0..u64::MAX,
        )],
    );
    assert!(verdict.cannot_deny(&OrgId::new("alice"), TokenKind::NroReq));
    assert!(verdict.suspect_submitters().is_empty());
}

#[test]
fn token_lifted_out_of_its_frame_verifies_and_adjudicates_clean() {
    // A frame and the token it carries share one batch leaf; the token,
    // once out of the frame, is ordinary self-contained evidence.
    let d = duo(true);
    let run = d.alice.new_run_id();
    let subject = sha256(b"request");
    let frame = d
        .alice
        .sign_frame(
            ProtocolMessage::new("direct", run, 1, "alice", b"request".to_vec()),
            &[TokenSpec::new(TokenKind::NroReq, run, subject)],
        )
        .unwrap();
    let frame = ProtocolMessage::decode_from_slice(&frame.encode_to_vec()).unwrap();
    let alice_key = d.bob.key_of(&OrgId::new("alice")).unwrap();
    assert!(frame.verify_frame(&alice_key));
    let token = frame.tokens[0].clone();
    assert!(token.signature.batch().is_some());
    assert!(token.verify(
        &alice_key,
        Some(TokenKind::NroReq),
        Some(run),
        Some(&subject)
    ));
    d.bob
        .absorb_carried(&frame, [(TokenKind::NroReq, subject)])
        .unwrap();
    d.bob.flush_evidence().unwrap();
    let verdict = adjudicator(&d).adjudicate_windows(
        run,
        &[WindowSubmission::from_log(
            "bob",
            &**d.bob.log(),
            0..u64::MAX,
        )],
    );
    assert!(verdict.cannot_deny(&OrgId::new("alice"), TokenKind::NroReq));
    assert!(verdict.suspect_submitters().is_empty());
    assert!(verdict.reports.iter().all(|r| r.clean()));
}
