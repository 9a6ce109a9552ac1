//! Fixtures shared by the core integration tests (each test crate uses
//! a subset).
#![allow(dead_code)]

use std::sync::Arc;

use nonrep_crypto::digest::sha256;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
use nonrep_protocols::tokens::{NrToken, TokenKind};
use nonrep_protocols::CommitmentMode;
use nonrep_store::record::{cert_draft, RecordDraft};
use nonrep_store::MemoryLog;
use nonrep_types::codec::Encode;
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

/// A party on a fresh MSS key (height 8, seeded) and a memory log,
/// registered in `directory`, committing evidence in batches (the auto
/// seal policy with a 50 ms deadline on `clock`).
pub fn batched_party(
    org: &str,
    seed: u64,
    clock: &LogicalClock,
    directory: &Arc<StaticKeyDirectory>,
) -> Arc<Party> {
    let mut rng = SecureRandom::from_seed(seed);
    let keys = Arc::new(KeyPair::generate(
        SignatureScheme::Mss { height: 8 },
        &mut rng,
    ));
    directory.insert(OrgId::new(org), keys.verifying_key());
    Party::with_commitment(
        org,
        keys,
        Arc::new(clock.clone()),
        Arc::new(MemoryLog::new()),
        Arc::clone(directory) as Arc<dyn KeyDirectory>,
        rng,
        CommitmentMode::auto(50),
    )
}

/// The two records that launder a subtree of a hierarchy `submitter`
/// does not own (derived from `seed`) into its log: that subtree's
/// genuine certificate record, then a token in the submitter's name —
/// its key id, its context, run `run` — that the foreign subtree
/// signed, in the stored form that references the certificate.
pub fn laundered_drafts(submitter: &Party, run: RunId, seed: u64) -> [RecordDraft; 2] {
    let org = submitter.org().clone();
    let at = submitter.now();
    let subject = sha256(&seed.to_le_bytes());
    let foreign = KeyPair::generate(
        SignatureScheme::Hss {
            root_height: 2,
            subtree_height: 1,
        },
        &mut SecureRandom::from_seed(seed),
    );
    let digest = NrToken::signing_digest(TokenKind::NroReq, &run, &org, &subject, at);
    let mut signature = foreign.sign_digest(&digest).unwrap();
    signature.key_id = submitter.keys().key_id();
    let cert = signature.detach_cert().unwrap();
    let token = NrToken::from_parts(TokenKind::NroReq, run, org.clone(), subject, at, signature);
    [
        cert_draft(&cert, org.clone(), at),
        RecordDraft {
            run_id: run,
            kind: TokenKind::NroReq.label().to_string(),
            actor: org,
            at,
            content_digest: subject,
            payload: token.encode_to_vec(),
        },
    ]
}
