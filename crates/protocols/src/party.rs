//! A party's protocol identity.
//!
//! [`Party`] bundles what every protocol role needs: the organisation's
//! identity, signing keys, clock, evidence log, random source, and a
//! [`KeyDirectory`] to resolve other organisations' verifying keys. This is
//! the protocol-facing face of a trusted interceptor's local resources.
//!
//! All evidence generation — token issuance *and* log appends — routes
//! through the party's [`CommitmentScheduler`], so choosing between
//! per-record signing and the batched commitment pipeline is a
//! construction-time choice that protocol code never sees.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use nonrep_crypto::digest::Digest;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, VerifyingKey};
use nonrep_store::{EvidenceLog, EvidenceRecord, MemoryLog, RecordDraft};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::{Clock, LogicalClock, Timestamp};

use crate::message::ProtocolMessage;
use crate::scheduler::{CommitmentMode, CommitmentScheduler, TokenSpec};
use crate::tokens::{NrToken, TokenKind};
use crate::ProtocolError;

/// Resolves an organisation's verifying key.
///
/// This is the paper's §3.5 signature-verification service: the one way an
/// organisation's key is resolved. [`StaticKeyDirectory`] is the one
/// implementation, in deployments and tests alike.
pub trait KeyDirectory: Send + Sync {
    /// The verifying key of `org`, if known and currently valid.
    fn key_of(&self, org: &OrgId) -> Option<VerifyingKey>;
}

/// A fixed in-memory key directory.
#[derive(Debug, Default)]
pub struct StaticKeyDirectory {
    keys: Mutex<HashMap<OrgId, VerifyingKey>>,
}

impl StaticKeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the key of `org`.
    pub fn insert(&self, org: OrgId, key: VerifyingKey) {
        self.keys.lock().insert(org, key);
    }
}

impl KeyDirectory for StaticKeyDirectory {
    fn key_of(&self, org: &OrgId) -> Option<VerifyingKey> {
        self.keys.lock().get(org).cloned()
    }
}

/// One organisation's protocol-level identity and local services.
pub struct Party {
    org: OrgId,
    keys: Arc<KeyPair>,
    clock: Arc<dyn Clock>,
    directory: Arc<dyn KeyDirectory>,
    rng: Mutex<SecureRandom>,
    scheduler: Arc<CommitmentScheduler>,
}

impl fmt::Debug for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Party({})", self.org)
    }
}

impl Party {
    /// Creates a party in per-record commitment mode (see
    /// [`Party::with_commitment`] for the batched pipeline).
    pub fn new(
        org: impl Into<OrgId>,
        keys: Arc<KeyPair>,
        clock: Arc<dyn Clock>,
        log: Arc<dyn EvidenceLog>,
        directory: Arc<dyn KeyDirectory>,
        rng: SecureRandom,
    ) -> Arc<Self> {
        Self::with_commitment(
            org,
            keys,
            clock,
            log,
            directory,
            rng,
            CommitmentMode::PerRecord,
        )
    }

    /// Creates a party with an explicit evidence-commitment mode.
    pub fn with_commitment(
        org: impl Into<OrgId>,
        keys: Arc<KeyPair>,
        clock: Arc<dyn Clock>,
        log: Arc<dyn EvidenceLog>,
        directory: Arc<dyn KeyDirectory>,
        rng: SecureRandom,
        mode: CommitmentMode,
    ) -> Arc<Self> {
        let org = org.into();
        let scheduler = Arc::new(CommitmentScheduler::new(
            Arc::clone(&keys),
            log,
            org.clone(),
            Arc::clone(&clock),
            mode,
        ));
        Arc::new(Self {
            org,
            keys,
            clock,
            directory,
            rng: Mutex::new(rng),
            scheduler,
        })
    }

    /// Convenience constructor for tests/examples: fresh MSS keys, memory
    /// log, shared logical clock, registration in the given directory.
    pub fn quick(
        org: &str,
        seed: u64,
        clock: &LogicalClock,
        directory: &Arc<StaticKeyDirectory>,
    ) -> Arc<Self> {
        Self::quick_with(org, seed, clock, directory, CommitmentMode::PerRecord)
    }

    /// [`Party::quick`] with the batched commitment pipeline enabled
    /// (a 50 ms deadline on `clock`).
    #[cfg(test)]
    pub(crate) fn quick_batched(
        org: &str,
        seed: u64,
        clock: &LogicalClock,
        directory: &Arc<StaticKeyDirectory>,
    ) -> Arc<Self> {
        Self::quick_with(org, seed, clock, directory, CommitmentMode::auto(50))
    }

    fn quick_with(
        org: &str,
        seed: u64,
        clock: &LogicalClock,
        directory: &Arc<StaticKeyDirectory>,
        mode: CommitmentMode,
    ) -> Arc<Self> {
        let mut rng = SecureRandom::from_seed(seed);
        let keys = Arc::new(KeyPair::generate(
            nonrep_crypto::sig::SignatureScheme::Mss { height: 8 },
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
            mode,
        )
    }

    /// This party's organisation id.
    pub fn org(&self) -> &OrgId {
        &self.org
    }

    /// This party's signing keys.
    pub fn keys(&self) -> &Arc<KeyPair> {
        &self.keys
    }

    /// This party's clock.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The clock itself (deadline supervision shares it).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// This party's evidence log.
    pub fn log(&self) -> &Arc<dyn EvidenceLog> {
        self.scheduler.log()
    }

    /// This party's logged records of `kind` for `run`, in log order,
    /// read through the log's run index. A handler's per-run facts (a
    /// receipt arrived, the run was aborted, its outcome) are these
    /// records, so callers match issuer and subject, not kind alone.
    pub fn logged(&self, run: RunId, kind: TokenKind) -> Vec<Arc<EvidenceRecord>> {
        let mut records = self.log().by_run(&run);
        records.retain(|r| r.draft.kind == kind.label());
        records
    }

    /// Mints a fresh protocol run identifier.
    pub fn new_run_id(&self) -> RunId {
        self.rng.lock().run_id()
    }

    /// Fresh random 32 bytes (per-run encryption keys etc.).
    pub fn fresh_secret(&self) -> [u8; 32] {
        self.rng.lock().secret32()
    }

    /// Resolves `org`'s verifying key.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKey`] if the directory has no key.
    pub fn key_of(&self, org: &OrgId) -> Result<VerifyingKey, ProtocolError> {
        self.directory
            .key_of(org)
            .ok_or_else(|| ProtocolError::UnknownKey(org.clone()))
    }

    /// This party's evidence-commitment scheduler (seal policy, epoch
    /// sealing state). Returned as an `Arc` so deployments can hand it to
    /// a background [`crate::scheduler::DeadlineSealer`].
    pub fn scheduler(&self) -> &Arc<CommitmentScheduler> {
        &self.scheduler
    }

    /// Issues a signed token as this party (routed through the
    /// commitment scheduler).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Signing`] if the key is exhausted.
    pub fn issue_token(
        &self,
        kind: TokenKind,
        run_id: RunId,
        subject: Digest,
    ) -> Result<NrToken, ProtocolError> {
        self.scheduler.issue(TokenSpec::new(kind, run_id, subject))
    }

    /// Signs `frame` as this party together with the tokens `specs` asks
    /// it to issue at this step (one batch signature in batched mode, see
    /// [`CommitmentScheduler::sign_frame`]), and persists those tokens.
    /// The returned frame carries them.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Signing`] if the key is exhausted,
    /// [`ProtocolError::Storage`] on logging failure.
    pub fn sign_frame(
        &self,
        frame: ProtocolMessage,
        specs: &[TokenSpec],
    ) -> Result<ProtocolMessage, ProtocolError> {
        let frame = self.scheduler.sign_frame(frame, specs)?;
        for token in &frame.tokens {
            self.store_token(token)?;
        }
        Ok(frame)
    }

    /// Verifies and persists the tokens `msg`'s sender issued at this
    /// step: exactly one per `expected` entry, in order, each of that
    /// entry's kind and subject, bound to the frame's run and issued by
    /// the frame's sender. Returns the tokens, borrowed from the frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadMessage`] on a wrong token count or issuer,
    /// otherwise as [`Party::verify_and_store`].
    pub fn absorb_carried<'m, const N: usize>(
        &self,
        msg: &'m ProtocolMessage,
        expected: [(TokenKind, Digest); N],
    ) -> Result<[&'m NrToken; N], ProtocolError> {
        let tokens = <&[NrToken; N]>::try_from(msg.tokens.as_slice()).map_err(|_| {
            ProtocolError::BadMessage(format!(
                "step-{} frame carries {} tokens, expected {N}",
                msg.step,
                msg.tokens.len()
            ))
        })?;
        for (token, (kind, subject)) in tokens.iter().zip(expected) {
            if token.issuer != msg.sender {
                return Err(ProtocolError::BadMessage(format!(
                    "{kind} carried by {} was issued by {}",
                    msg.sender, token.issuer
                )));
            }
            self.verify_and_store(token, kind, msg.run_id, Some(&subject))?;
        }
        Ok(tokens.each_ref())
    }

    /// Explicitly seals pending evidence under an epoch commitment and
    /// waits out the backend's durability barrier (see
    /// [`crate::scheduler::CommitmentScheduler::seal_durable`]): when
    /// this returns `Ok`, the evidence is on stable storage even on an
    /// async group-commit backend.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] if the seal cannot be persisted.
    pub fn flush_evidence(&self) -> Result<(), ProtocolError> {
        self.scheduler
            .seal_durable()
            .map(|_| ())
            .map_err(ProtocolError::from)
    }

    /// Verifies a token allegedly issued by `issuer`, pinned to
    /// `kind`/`run_id` (and `subject` if given), then persists it.
    ///
    /// This is the paper's interceptor duty in one call: "the interceptors
    /// are responsible for verification and persistence of evidence
    /// generated during the exchange" (§3.2).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadSignature`]/[`ProtocolError::UnknownKey`] on
    /// verification failure, [`ProtocolError::Storage`] on logging failure.
    pub fn verify_and_store(
        &self,
        token: &NrToken,
        expect_kind: TokenKind,
        expect_run: RunId,
        expect_subject: Option<&Digest>,
    ) -> Result<(), ProtocolError> {
        let key = self.key_of(&token.issuer)?;
        if !token.verify(&key, Some(expect_kind), Some(expect_run), expect_subject) {
            return Err(ProtocolError::BadSignature {
                org: token.issuer.clone(),
                what: expect_kind.label().to_string(),
            });
        }
        self.store_token(token)?;
        Ok(())
    }

    /// Persists a token in the evidence log without verification: the
    /// tokens this party issued itself, and — through
    /// [`Party::verify_and_store`] — peer tokens it has verified. This is
    /// the one place a token becomes a record. Routed through the
    /// commitment scheduler, so in batched mode the append counts toward
    /// the next epoch seal.
    ///
    /// A hierarchical signature is stored with its subtree certificate
    /// replaced by a reference; the certificate itself gets one record
    /// per log, ahead of the first token that references it
    /// ([`CommitmentScheduler::record_token`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] on logging failure.
    pub fn store_token(&self, token: &NrToken) -> Result<(), ProtocolError> {
        use nonrep_types::codec::Encode;
        // Only an inline certificate makes the stored form differ.
        let mut detached = token.signature.inline_cert().map(|_| token.clone());
        let cert = detached.as_mut().and_then(|t| t.signature.detach_cert());
        let stored = detached.as_ref().unwrap_or(token);
        let draft = RecordDraft {
            run_id: token.run_id,
            kind: token.kind.label().to_string(),
            actor: token.issuer.clone(),
            at: self.now(),
            content_digest: token.subject,
            payload: stored.encode_to_vec(),
        };
        self.scheduler.record_token(draft, cert.as_deref())?;
        Ok(())
    }

    /// Appends an arbitrary draft through the commitment pipeline (run
    /// journal markers and other non-token records).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] on logging failure.
    pub fn record_draft(&self, draft: RecordDraft) -> Result<(), ProtocolError> {
        self.scheduler.record(draft)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_crypto::digest::sha256;

    fn setup() -> (Arc<Party>, Arc<Party>, Arc<StaticKeyDirectory>) {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let alice = Party::quick("alice", 1, &clock, &dir);
        let bob = Party::quick("bob", 2, &clock, &dir);
        (alice, bob, dir)
    }

    #[test]
    fn issue_verify_store_roundtrip() {
        let (alice, bob, _dir) = setup();
        let run = alice.new_run_id();
        let subject = sha256(b"request");
        let token = alice.issue_token(TokenKind::NroReq, run, subject).unwrap();
        // Bob verifies and stores Alice's token.
        bob.verify_and_store(&token, TokenKind::NroReq, run, Some(&subject))
            .unwrap();
        assert_eq!(bob.log().len(), 1);
        assert_eq!(bob.log().by_run(&run).len(), 1);
        bob.log().verify().unwrap();
    }

    #[test]
    fn verification_failure_is_not_stored() {
        let (alice, bob, _dir) = setup();
        let run = alice.new_run_id();
        let mut token = alice
            .issue_token(TokenKind::NroReq, run, sha256(b"x"))
            .unwrap();
        token.subject = sha256(b"forged");
        let err = bob
            .verify_and_store(&token, TokenKind::NroReq, run, None)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BadSignature { .. }));
        assert_eq!(bob.log().len(), 0);
    }

    #[test]
    fn unknown_issuer_rejected() {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let alice = Party::quick("alice", 1, &clock, &dir);
        // Mallory is not in the directory.
        let mallory_dir = Arc::new(StaticKeyDirectory::new());
        let mallory = Party::quick("mallory", 9, &clock, &mallory_dir);
        let run = mallory.new_run_id();
        let token = mallory
            .issue_token(TokenKind::NroReq, run, sha256(b"x"))
            .unwrap();
        assert!(matches!(
            alice.verify_and_store(&token, TokenKind::NroReq, run, None),
            Err(ProtocolError::UnknownKey(_))
        ));
    }

    #[test]
    fn run_ids_are_unique() {
        let (alice, _bob, _dir) = setup();
        let a = alice.new_run_id();
        let b = alice.new_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn carried_tokens_are_pinned_to_count_and_sender() {
        let (alice, bob, _dir) = setup();
        let run = alice.new_run_id();
        let subject = sha256(b"request");
        let spec = TokenSpec::new(TokenKind::NroReq, run, subject);
        let frame = ProtocolMessage::new("direct", run, 1, "alice", Vec::new());
        let signed = alice.sign_frame(frame.clone(), &[spec]).unwrap();
        assert!(matches!(
            bob.absorb_carried(&signed, []),
            Err(ProtocolError::BadMessage(_))
        ));
        let [nro] = bob
            .absorb_carried(&signed, [(TokenKind::NroReq, subject)])
            .unwrap();
        assert_eq!(nro.issuer, OrgId::new("alice"));
        assert_eq!(bob.log().len(), 1);
        // Alice signs a frame carrying a genuine token of Bob's: the
        // token is not hers to carry.
        let mut relayed = frame;
        relayed.tokens = vec![bob
            .issue_token(spec.kind, spec.run_id, spec.subject)
            .unwrap()];
        relayed.signature = Some(alice.keys().sign_digest(&relayed.frame_digest()).unwrap());
        assert!(matches!(
            bob.absorb_carried(&relayed, [(TokenKind::NroReq, subject)]),
            Err(ProtocolError::BadMessage(_))
        ));
        assert_eq!(bob.log().len(), 1);
    }

    #[test]
    fn kind_pinning_rejects_substituted_kind() {
        let (alice, bob, _dir) = setup();
        let run = alice.new_run_id();
        let token = alice
            .issue_token(TokenKind::NroReq, run, sha256(b"x"))
            .unwrap();
        assert!(matches!(
            bob.verify_and_store(&token, TokenKind::NroResp, run, None),
            Err(ProtocolError::BadSignature { .. })
        ));
    }
}
