//! Each hierarchical signer's subtree certificate is stored once per log,
//! ahead of every token record whose signature references it: under two
//! concurrent writers, at every point a group-commit log can be killed,
//! and across a party rebuilt on a reopened log.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use nonrep_crypto::digest::sha256;
use nonrep_crypto::hss::CertRef;
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
    Arc::new(KeyPair::generate(
        SignatureScheme::Hss {
            root_height: 6,
            subtree_height: 1,
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
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let alice_keys = tiny_hss(1);
    let bob_keys = tiny_hss(2);
    dir.insert(OrgId::new("alice"), alice_keys.verifying_key());
    dir.insert(OrgId::new("bob"), bob_keys.verifying_key());
    let party = |org: &str, keys: Arc<KeyPair>, log: Arc<dyn EvidenceLog>, seed: u64| {
        Party::with_commitment(
            org,
            keys,
            Arc::new(clock.clone()),
            log,
            Arc::clone(&dir) as Arc<dyn KeyDirectory>,
            SecureRandom::from_seed(seed),
            CommitmentMode::auto(50),
        )
    };
    Pair {
        alice: party("alice", alice_keys.clone(), log, 3),
        bob: party("bob", bob_keys, Arc::new(MemoryLog::new()), 4),
        alice_keys,
        dir,
        clock,
    }
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
/// naming the subtree its signature references, and that no subtree has
/// two certificate records. Returns `(certificate records, token
/// records)`.
fn certs_precede_tokens(log: &dyn EvidenceLog) -> Result<(usize, usize), String> {
    let mut certs: HashSet<CertRef> = HashSet::new();
    let mut tokens = 0;
    let mut violation = None;
    log.for_each(&mut |r| {
        if violation.is_some() || r.is_epoch_commit() || r.is_key_rollover() {
            return;
        }
        if r.is_subtree_cert() {
            let cert = cert_from_record(r).expect("certificate records decode");
            if !certs.insert(cert.reference()) {
                violation = Some(format!("second record of one certificate at {}", r.seq));
            }
            return;
        }
        let token = NrToken::decode_from_slice(&r.draft.payload).expect("token records decode");
        match token.signature.cert_ref() {
            Some(reference) if certs.contains(&reference) => tokens += 1,
            Some(_) => violation = Some(format!("token at {} precedes its certificate", r.seq)),
            None => violation = Some(format!("token at {} stores its certificate inline", r.seq)),
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
    let (certs, tokens) = certs_precede_tokens(&**p.alice.log()).unwrap();
    assert_eq!(tokens, 48);
    // Bob signed 24 times on two-leaf subtrees: 12 generations. Alice's
    // seals signed too, so at least as many of hers.
    assert!(certs >= 24, "{certs} certificates");
}

#[test]
fn every_group_commit_kill_point_keeps_certs_ahead_of_their_tokens() {
    let path = temp_path("kill");
    let _ = std::fs::remove_file(&path);
    {
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
    }
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
            certs_precede_tokens(&log).unwrap_or_else(|v| panic!("cut at byte {cut}: {v}"));
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
    let (certs_before, _) = certs_precede_tokens(&*log).unwrap();
    let rebuilt = Party::with_commitment(
        "alice",
        alice_keys,
        Arc::new(clock),
        log.clone(),
        dir as Arc<dyn KeyDirectory>,
        SecureRandom::from_seed(5),
        CommitmentMode::auto(50),
    );
    // The wire form of a token whose certificate the log already holds:
    // storing it again adds the token record and no certificate record.
    rebuilt.store_token(&token).unwrap();
    let (certs_after, tokens) = certs_precede_tokens(&*log).unwrap();
    assert_eq!(certs_after, certs_before);
    assert_eq!(tokens, 10);
    assert_eq!(
        log.count_where(&|r| r.draft.kind == TokenKind::NroResp.label()),
        2
    );
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
