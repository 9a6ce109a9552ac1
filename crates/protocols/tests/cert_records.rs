//! Each hierarchical signer's subtree certificate is stored once per log,
//! ahead of every token record whose signature references it: under two
//! concurrent writers, at every point a group-commit log can be killed,
//! and across a party rebuilt on a reopened log.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use nonrep_crypto::digest::sha256;
use nonrep_crypto::hss::{CertRef, SubtreeCert};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
use nonrep_protocols::tokens::{NrToken, TokenKind};
use nonrep_protocols::{CommitmentMode, ProtocolError};
use nonrep_store::record::cert_from_record;
use nonrep_store::{EvidenceLog, FileLog, MemoryLog, SyncPolicy};
use nonrep_types::codec::Decode;
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

/// Two-leaf subtrees: every second signature crosses a rollover.
fn tiny_hss(seed: u64) -> Arc<KeyPair> {
    hss(seed, 1)
}

fn hss(seed: u64, subtree_height: u8) -> Arc<KeyPair> {
    Arc::new(KeyPair::generate(
        SignatureScheme::Hss {
            root_height: 6,
            subtree_height,
        },
        &mut SecureRandom::from_seed(seed),
    ))
}

struct Pair {
    alice: Arc<Party>,
    bob: Arc<Party>,
    alice_keys: Arc<KeyPair>,
    dir: Arc<StaticKeyDirectory>,
    clock: LogicalClock,
}

/// Alice (batched, on `log`) and bob (batched, in memory), both on tiny
/// hierarchical keys.
fn pair(log: Arc<dyn EvidenceLog>) -> Pair {
    pair_with(log, tiny_hss(1))
}

/// [`pair`] with alice signing under `alice_keys`.
fn pair_with(log: Arc<dyn EvidenceLog>, alice_keys: Arc<KeyPair>) -> Pair {
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let bob_keys = tiny_hss(2);
    dir.insert(OrgId::new("alice"), alice_keys.verifying_key());
    dir.insert(OrgId::new("bob"), bob_keys.verifying_key());
    Pair {
        alice: rebuild_alice(&alice_keys, &dir, &clock, log),
        bob: party("bob", bob_keys, &dir, &clock, Arc::new(MemoryLog::new())),
        alice_keys,
        dir,
        clock,
    }
}

fn party(
    org: &str,
    keys: Arc<KeyPair>,
    dir: &Arc<StaticKeyDirectory>,
    clock: &LogicalClock,
    log: Arc<dyn EvidenceLog>,
) -> Arc<Party> {
    Party::with_commitment(
        org,
        keys,
        Arc::new(clock.clone()),
        log,
        Arc::clone(dir) as Arc<dyn KeyDirectory>,
        SecureRandom::from_seed(3),
        CommitmentMode::auto(50),
    )
}

/// Alice's party on `log`: what a restart builds over a reopened log.
fn rebuild_alice(
    keys: &Arc<KeyPair>,
    dir: &Arc<StaticKeyDirectory>,
    clock: &LogicalClock,
    log: Arc<dyn EvidenceLog>,
) -> Arc<Party> {
    party("alice", Arc::clone(keys), dir, clock, log)
}

/// Alice's own token `i` and bob's, both landing in alice's log.
fn store_pair(p: &Pair, run: RunId, i: u32) {
    let subject = sha256(&i.to_le_bytes());
    let own = p
        .alice
        .issue_token(TokenKind::NroReq, run, subject)
        .unwrap();
    p.alice.store_token(&own).unwrap();
    let peer = p.bob.issue_token(TokenKind::NrrReq, run, subject).unwrap();
    p.alice
        .verify_and_store(&peer, TokenKind::NrrReq, run, Some(&subject))
        .unwrap();
}

/// Checks that every token record of `log` follows a certificate record
/// its issuer filed for the subtree its signature references, that the
/// token verifies through that certificate under the issuer's key, and
/// that no (signer, subtree) pair has two certificate records. Returns
/// `(certificate records, token records)`.
fn certs_precede_tokens(
    log: &dyn EvidenceLog,
    dir: &StaticKeyDirectory,
) -> Result<(usize, usize), String> {
    let mut certs: HashMap<(OrgId, CertRef), SubtreeCert> = HashMap::new();
    let mut tokens = 0;
    let mut violation = None;
    log.for_each(&mut |r| {
        if violation.is_some() || r.is_epoch_commit() {
            return;
        }
        if r.is_subtree_cert() {
            let cert = cert_from_record(r).expect("certificate records decode");
            if certs
                .insert((r.draft.actor.clone(), cert.reference()), cert)
                .is_some()
            {
                violation = Some(format!("second record of one certificate at {}", r.seq));
            }
            return;
        }
        let mut token = NrToken::decode_from_slice(&r.draft.payload).expect("token records decode");
        let Some(reference) = token.signature.cert_ref() else {
            violation = Some(format!("token at {} stores its certificate inline", r.seq));
            return;
        };
        let Some(cert) = certs.get(&(token.issuer.clone(), reference)) else {
            violation = Some(format!("token at {} precedes its certificate", r.seq));
            return;
        };
        token.signature.attach_cert(cert.clone());
        let key = dir.key_of(&token.issuer).expect("issuers are registered");
        if token.verify(&key, None, None, None) {
            tokens += 1;
        } else {
            violation = Some(format!("token at {} does not verify", r.seq));
        }
    });
    match violation {
        Some(v) => Err(v),
        None => Ok((certs.len(), tokens)),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nonrep-certs-{name}-{}.log", std::process::id()));
    p
}

#[test]
fn two_writers_across_many_rollovers_never_store_a_token_before_its_cert() {
    let p = pair(Arc::new(MemoryLog::new()));
    let run = RunId::from_u128(0x5eed);
    let (alice, bob) = (p.alice.clone(), p.bob.clone());
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..24u32 {
                let t = alice
                    .issue_token(TokenKind::NroReq, run, sha256(&i.to_le_bytes()))
                    .unwrap();
                alice.store_token(&t).unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..24u32 {
                let subject = sha256(&(1000 + i).to_le_bytes());
                let t = bob.issue_token(TokenKind::NrrReq, run, subject).unwrap();
                alice
                    .verify_and_store(&t, TokenKind::NrrReq, run, Some(&subject))
                    .unwrap();
            }
        });
    });
    p.alice.flush_evidence().unwrap();
    assert!(
        p.alice_keys.generation() >= 10,
        "alice rolled over and over"
    );
    let (certs, tokens) = certs_precede_tokens(&**p.alice.log(), &p.dir).unwrap();
    assert_eq!(tokens, 48);
    // Bob signed 24 times on two-leaf subtrees: 12 generations. Alice's
    // seals signed too, so at least as many of hers.
    assert!(certs >= 24, "{certs} certificates");
}

#[test]
fn every_group_commit_kill_point_keeps_certs_ahead_of_their_tokens() {
    let path = temp_path("kill");
    let _ = std::fs::remove_file(&path);
    let dir = {
        let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let p = pair(file.clone());
        let run = RunId::from_u128(0xc0de);
        for i in 0..12u32 {
            store_pair(&p, run, i);
            if i % 3 == 2 {
                p.alice.flush_evidence().unwrap();
            }
        }
        // The tail past the last seal is buffered: dropping the log
        // drains it, so the file holds every record appended.
        p.dir
    };
    let bytes = std::fs::read(&path).unwrap();
    // A kill leaves the file holding some prefix of what was written.
    // Try a cut at every record boundary, and inside every record.
    let mut cuts = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        cuts.extend([at, at + 3, at + 4 + len / 2]);
        at += 4 + len;
    }
    cuts.push(bytes.len());
    let cut_path = temp_path("kill-cut");
    let mut most = 0;
    for cut in cuts {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let log = FileLog::open_recover_with(&cut_path, SyncPolicy::GroupCommit).unwrap();
        let (_, tokens) =
            certs_precede_tokens(&log, &dir).unwrap_or_else(|v| panic!("cut at byte {cut}: {v}"));
        most = most.max(tokens);
    }
    assert_eq!(most, 24, "the uncut file holds every token");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut_path);
}

#[test]
fn a_party_rebuilt_on_a_reopened_log_does_not_record_a_cert_twice() {
    let path = temp_path("reopen");
    let _ = std::fs::remove_file(&path);
    let run = RunId::from_u128(0xface);
    let (alice_keys, dir, clock, token) = {
        let p = pair(Arc::new(FileLog::open(&path).unwrap()));
        for i in 0..4u32 {
            store_pair(&p, run, i);
        }
        let token = p
            .alice
            .issue_token(TokenKind::NroResp, run, sha256(b"again"))
            .unwrap();
        p.alice.store_token(&token).unwrap();
        p.alice.flush_evidence().unwrap();
        (p.alice_keys, p.dir, p.clock, token)
    };
    let log: Arc<dyn EvidenceLog> = Arc::new(FileLog::open(&path).unwrap());
    let (certs_before, _) = certs_precede_tokens(&*log, &dir).unwrap();
    let rebuilt = rebuild_alice(&alice_keys, &dir, &clock, log.clone());
    // The wire form of a token whose certificate the log already holds:
    // storing it again adds the token record and no certificate record.
    rebuilt.store_token(&token).unwrap();
    let (certs_after, tokens) = certs_precede_tokens(&*log, &dir).unwrap();
    assert_eq!(certs_after, certs_before);
    assert_eq!(tokens, 10);
    assert_eq!(
        log.count_where(&|r| r.draft.kind == TokenKind::NroResp.label()),
        2
    );
    let _ = std::fs::remove_file(&path);
}

/// Alice's own token over `i`, stored in her log.
fn store_own(alice: &Party, run: RunId, i: u32) {
    let token = alice
        .issue_token(TokenKind::NroReq, run, sha256(&i.to_le_bytes()))
        .unwrap();
    alice.store_token(&token).unwrap();
}

/// Kills a party whose group-commit log buffers its unsealed tail: the
/// buffer is never written.
fn kill(alice: Arc<Party>, file: Arc<FileLog>) {
    std::mem::forget(alice);
    std::mem::forget(file);
}

#[test]
fn kills_either_side_of_a_rollover_keep_one_cert_record_per_subtree() {
    // Alice on four-leaf subtrees, batched, on a group-commit file log.
    // Kill A lands after her key rolls over and before the next seal;
    // kill B after the new generation's first stored token is sealed.
    // After each reopen every token verifies through exactly one
    // certificate record per (signer, subtree), and the rebuilt party
    // appends no certificate record twice.
    let path = temp_path("rollover-kills");
    let _ = std::fs::remove_file(&path);
    let run = RunId::from_u128(0x0a11);
    let reopen = || Arc::new(FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap());
    let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
    let p = pair_with(file.clone(), hss(1, 2));
    let (keys, dir, clock) = (p.alice_keys.clone(), p.dir.clone(), p.clock.clone());
    for i in 0..3u32 {
        store_pair(&p, run, i);
        p.alice.flush_evidence().unwrap();
    }
    let before = keys.generation();
    let mut i = 100;
    while keys.generation() == before {
        store_own(&p.alice, run, i);
        i += 1;
    }
    let rolled = keys.generation();
    assert!(
        p.alice.scheduler().unsealed_len() > 0,
        "kill A precedes the seal"
    );
    let (certs_at_kill, _) = certs_precede_tokens(&*file, &dir).unwrap();
    kill(p.alice, file);

    // After kill A: the new generation's certificate record died with
    // the unsealed tail, and the first token of it the rebuilt party
    // stores records it again, once.
    let file = reopen();
    let (certs, _) = certs_precede_tokens(&*file, &dir).unwrap();
    assert_eq!(certs + 1, certs_at_kill);
    let alice = rebuild_alice(&keys, &dir, &clock, file.clone());
    store_own(&alice, run, i);
    assert_eq!(keys.generation(), rolled, "the same generation's next leaf");
    alice.flush_evidence().unwrap();
    let (certs_b, tokens_b) = certs_precede_tokens(&*file, &dir).unwrap();
    assert_eq!(certs_b, certs_at_kill);
    kill(alice, file);

    // After kill B: the sealed record survives, and the rebuilt party's
    // next token of that generation finds it instead of adding one.
    let file = reopen();
    assert_eq!(
        certs_precede_tokens(&*file, &dir).unwrap(),
        (certs_b, tokens_b)
    );
    let alice = rebuild_alice(&keys, &dir, &clock, file.clone());
    store_own(&alice, run, i + 1);
    assert_eq!(keys.generation(), rolled);
    assert_eq!(
        certs_precede_tokens(&*file, &dir).unwrap(),
        (certs_b, tokens_b + 1)
    );

    // Onward across two more rollovers, with bob's tokens interleaved.
    let p = Pair { alice, ..p };
    for i in 200..210u32 {
        store_pair(&p, run, i);
    }
    p.alice.flush_evidence().unwrap();
    assert!(keys.generation() >= rolled + 2, "three rollovers crossed");
    let (_, tokens) = certs_precede_tokens(&*file, &dir).unwrap();
    assert_eq!(tokens, tokens_b + 21);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_stored_form_token_presented_on_the_wire_never_verifies() {
    let p = pair(Arc::new(MemoryLog::new()));
    let run = RunId::from_u128(0xbad);
    let subject = sha256(b"request");
    let mut token = p.bob.issue_token(TokenKind::NrrReq, run, subject).unwrap();
    assert!(token.signature.detach_cert().is_some());
    let err = p
        .alice
        .verify_and_store(&token, TokenKind::NrrReq, run, Some(&subject))
        .unwrap_err();
    assert!(matches!(err, ProtocolError::BadSignature { .. }));
    assert_eq!(p.alice.log().len(), 0, "nothing stored");
}
