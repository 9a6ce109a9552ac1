//! Non-repudiation tokens.
//!
//! Paper §3.2: "Non-repudiation tokens include a unique request identifier,
//! to distinguish between protocol runs and to bind protocol steps to a
//! run, and a signature on a secure hash of the evidence generated."
//! [`NrToken`] is exactly that: `(kind, run, issuer, subject digest, time)`
//! under the issuer's signature.

use nonrep_crypto::digest::{sha256_encoded, Digest};
use nonrep_crypto::sig::{KeyPair, SignError, Signature, VerifyingKey};
use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::Timestamp;

/// What a token attests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Non-repudiation of origin of the request (client).
    NroReq,
    /// Non-repudiation of receipt of the request (server).
    NrrReq,
    /// Non-repudiation of origin of the response (server).
    NroResp,
    /// Non-repudiation of receipt of the response (client).
    NrrResp,
    /// A proposed update to shared information (proposer).
    Proposal,
    /// A validation decision on a proposal (validator).
    Vote,
    /// The collective decision on a proposal (proposer, over all votes).
    Decision,
    /// A TTP's receipt for a relayed message.
    TtpReceipt,
    /// Key escrow deposit acknowledgement (offline TTP).
    Escrow,
    /// Resolution of an interrupted exchange (offline TTP).
    Resolve,
    /// Abortion of an exchange (offline TTP).
    Abort,
    /// A membership change (connect/disconnect).
    Membership,
}

impl TokenKind {
    /// Stable wire tag.
    fn tag(self) -> u8 {
        match self {
            TokenKind::NroReq => 0,
            TokenKind::NrrReq => 1,
            TokenKind::NroResp => 2,
            TokenKind::NrrResp => 3,
            TokenKind::Proposal => 4,
            TokenKind::Vote => 5,
            TokenKind::Decision => 6,
            TokenKind::TtpReceipt => 7,
            TokenKind::Escrow => 8,
            TokenKind::Resolve => 9,
            TokenKind::Abort => 10,
            TokenKind::Membership => 11,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => TokenKind::NroReq,
            1 => TokenKind::NrrReq,
            2 => TokenKind::NroResp,
            3 => TokenKind::NrrResp,
            4 => TokenKind::Proposal,
            5 => TokenKind::Vote,
            6 => TokenKind::Decision,
            7 => TokenKind::TtpReceipt,
            8 => TokenKind::Escrow,
            9 => TokenKind::Resolve,
            10 => TokenKind::Abort,
            11 => TokenKind::Membership,
            _ => return None,
        })
    }

    /// The label used in evidence records.
    pub fn label(self) -> &'static str {
        match self {
            TokenKind::NroReq => "NRO_req",
            TokenKind::NrrReq => "NRR_req",
            TokenKind::NroResp => "NRO_resp",
            TokenKind::NrrResp => "NRR_resp",
            TokenKind::Proposal => "proposal",
            TokenKind::Vote => "vote",
            TokenKind::Decision => "decision",
            TokenKind::TtpReceipt => "ttp_receipt",
            TokenKind::Escrow => "escrow",
            TokenKind::Resolve => "resolve",
            TokenKind::Abort => "abort",
            TokenKind::Membership => "membership",
        }
    }
}

impl std::fmt::Display for TokenKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A signed non-repudiation token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NrToken {
    /// What is attested.
    pub kind: TokenKind,
    /// The protocol run the token is bound to.
    pub run_id: RunId,
    /// Who issued (signed) the token.
    pub issuer: OrgId,
    /// Digest of the subject matter (request, response, state, …).
    pub subject: Digest,
    /// Issuer clock reading at signing time.
    pub at: Timestamp,
    /// Issuer signature over the token body.
    pub signature: Signature,
}

impl NrToken {
    /// The digest a signer commits to for the given token body — what
    /// [`NrToken::issue`] signs, exposed so the batching scheduler can
    /// sign many token bodies under one batch signature.
    pub fn signing_digest(
        kind: TokenKind,
        run_id: &RunId,
        issuer: &OrgId,
        subject: &Digest,
        at: Timestamp,
    ) -> Digest {
        sha256_encoded(|w| {
            w.put_str("nonrep.token.v1");
            w.put_u8(kind.tag());
            run_id.encode(w);
            issuer.encode(w);
            subject.encode(w);
            at.encode(w);
        })
    }

    /// [`NrToken::signing_digest`] of this token's body: what its
    /// signature covers, and what a frame carrying it signs in its place.
    pub fn digest(&self) -> Digest {
        Self::signing_digest(
            self.kind,
            &self.run_id,
            &self.issuer,
            &self.subject,
            self.at,
        )
    }

    /// Assembles a token from a body and an externally produced signature
    /// (the batch-commitment path; the signature must cover
    /// [`NrToken::signing_digest`] of the same body to verify).
    pub fn from_parts(
        kind: TokenKind,
        run_id: RunId,
        issuer: OrgId,
        subject: Digest,
        at: Timestamp,
        signature: Signature,
    ) -> Self {
        Self {
            kind,
            run_id,
            issuer,
            subject,
            at,
            signature,
        }
    }

    /// Issues a token signed by `keys`.
    ///
    /// # Errors
    ///
    /// Returns [`SignError`] if the key is exhausted.
    pub fn issue(
        kind: TokenKind,
        run_id: RunId,
        issuer: OrgId,
        subject: Digest,
        at: Timestamp,
        keys: &KeyPair,
    ) -> Result<Self, SignError> {
        let signature =
            keys.sign_digest(&Self::signing_digest(kind, &run_id, &issuer, &subject, at))?;
        Ok(Self {
            kind,
            run_id,
            issuer,
            subject,
            at,
            signature,
        })
    }

    /// Verifies the token under the issuer's verifying key, optionally
    /// pinning the expected kind, run and subject.
    pub fn verify(
        &self,
        key: &VerifyingKey,
        expect_kind: Option<TokenKind>,
        expect_run: Option<RunId>,
        expect_subject: Option<&Digest>,
    ) -> bool {
        if let Some(k) = expect_kind {
            if self.kind != k {
                return false;
            }
        }
        if let Some(r) = expect_run {
            if self.run_id != r {
                return false;
            }
        }
        if let Some(s) = expect_subject {
            if self.subject != *s {
                return false;
            }
        }
        key.verify_digest(&self.digest(), &self.signature)
    }

    /// Serialized size in bytes (space-overhead accounting).
    pub fn byte_len(&self) -> usize {
        self.encode_to_vec().len()
    }
}

impl NrToken {
    /// Encodes every field but the signature — the token's part of a
    /// frame that carries the signature's shared material once.
    pub(crate) fn encode_fields(&self, w: &mut Writer) {
        w.put_u8(self.kind.tag());
        self.run_id.encode(w);
        self.issuer.encode(w);
        self.subject.encode(w);
        self.at.encode(w);
    }

    /// Decodes what [`NrToken::encode_fields`] wrote, then the signature
    /// with `signature`.
    pub(crate) fn decode_fields(
        r: &mut Reader<'_>,
        signature: impl FnOnce(&mut Reader<'_>) -> Result<Signature, CodecError>,
    ) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        let kind = TokenKind::from_tag(tag).ok_or(CodecError::InvalidTag {
            ty: "TokenKind",
            tag,
        })?;
        Ok(Self {
            kind,
            run_id: RunId::decode(r)?,
            issuer: OrgId::decode(r)?,
            subject: Digest::decode(r)?,
            at: Timestamp::decode(r)?,
            signature: signature(r)?,
        })
    }
}

impl Encode for NrToken {
    fn encode(&self, w: &mut Writer) {
        self.encode_fields(w);
        self.signature.encode(w);
    }
}

impl Decode for NrToken {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Self::decode_fields(r, Signature::decode)
    }
}

/// The subject digest of a dispute [`TokenKind::Decision`]: a
/// domain-separated commitment to *who defected in which run*. Both the
/// TTP (when it resolves against a non-completing server) and any later
/// adjudicator (recomputing the digest from the accused identity and the
/// run id) derive the same value, so a decision token is checkable
/// without access to the TTP's ledger.
pub fn defection_digest(accused: &OrgId, run: RunId) -> Digest {
    sha256_encoded(|w| {
        w.put_str("nonrep.defect.v1");
        accused.encode(w);
        run.encode(w);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_crypto::digest::sha256;
    use nonrep_crypto::rng::SecureRandom;
    use nonrep_crypto::sig::SignatureScheme;

    fn keys(seed: u64) -> KeyPair {
        KeyPair::generate(
            SignatureScheme::Mss { height: 4 },
            &mut SecureRandom::from_seed(seed),
        )
    }

    /// Values computed before the token digests moved to the thread's
    /// scratch writer: what is signed and hashed must not change a byte.
    #[test]
    fn golden_token_digests() {
        let run = RunId::from_u128(0x0102_0304);
        let digest = NrToken::signing_digest(
            TokenKind::NrrResp,
            &run,
            &OrgId::new("client"),
            &sha256(b"response"),
            Timestamp(1_700_000),
        );
        assert_eq!(
            digest.to_hex(),
            "513dc6c8ada9fd407a4bb0350e2e12e91e1e5f4f91c5af80ea93e1ae870f5b09"
        );
        assert_eq!(
            defection_digest(&OrgId::new("server"), run).to_hex(),
            "45b3a57bc2f7d92af1db3debe28e3d64c19f27b57a71ff4e71add59654d6203e"
        );
        let issued = token(&keys(3));
        assert_eq!(
            sha256(&issued.encode_to_vec()).to_hex(),
            "d4d53a27b2a97354585cc672d1c9eab630780d9ecdcac238162d20966aa2a13b"
        );
    }

    fn token(kp: &KeyPair) -> NrToken {
        NrToken::issue(
            TokenKind::NroReq,
            RunId::from_u128(1),
            OrgId::new("client"),
            sha256(b"request"),
            Timestamp(100),
            kp,
        )
        .unwrap()
    }

    #[test]
    fn issue_and_verify() {
        let kp = keys(1);
        let t = token(&kp);
        assert!(t.verify(&kp.verifying_key(), None, None, None));
        assert!(t.verify(
            &kp.verifying_key(),
            Some(TokenKind::NroReq),
            Some(RunId::from_u128(1)),
            Some(&sha256(b"request")),
        ));
    }

    #[test]
    fn expectation_pins_reject_mismatches() {
        let kp = keys(2);
        let t = token(&kp);
        let vk = kp.verifying_key();
        assert!(!t.verify(&vk, Some(TokenKind::NrrReq), None, None));
        assert!(!t.verify(&vk, None, Some(RunId::from_u128(9)), None));
        assert!(!t.verify(&vk, None, None, Some(&sha256(b"other"))));
    }

    #[test]
    fn cross_run_replay_fails() {
        // A token from run 1 re-used in run 2 must not verify when the run
        // is pinned — the paper's reason for embedding run identifiers.
        let kp = keys(3);
        let t = token(&kp);
        assert!(!t.verify(
            &kp.verifying_key(),
            Some(TokenKind::NroReq),
            Some(RunId::from_u128(2)),
            None
        ));
    }

    #[test]
    fn tampered_token_fails() {
        let kp = keys(4);
        let mut t = token(&kp);
        t.subject = sha256(b"substituted");
        assert!(!t.verify(&kp.verifying_key(), None, None, None));
        let mut t2 = token(&kp);
        t2.at = Timestamp(999);
        assert!(!t2.verify(&kp.verifying_key(), None, None, None));
        let mut t3 = token(&kp);
        t3.issuer = OrgId::new("mallory");
        assert!(!t3.verify(&kp.verifying_key(), None, None, None));
    }

    #[test]
    fn wrong_key_fails() {
        let kp = keys(5);
        let other = keys(6);
        assert!(!token(&kp).verify(&other.verifying_key(), None, None, None));
    }

    #[test]
    fn codec_roundtrip_all_kinds() {
        let kp = keys(7);
        for kind in [
            TokenKind::NroReq,
            TokenKind::NrrReq,
            TokenKind::NroResp,
            TokenKind::NrrResp,
            TokenKind::Proposal,
            TokenKind::Vote,
            TokenKind::Decision,
            TokenKind::TtpReceipt,
            TokenKind::Escrow,
            TokenKind::Resolve,
            TokenKind::Abort,
            TokenKind::Membership,
        ] {
            let t = NrToken::issue(
                kind,
                RunId::from_u128(2),
                OrgId::new("org"),
                sha256(kind.label().as_bytes()),
                Timestamp(1),
                &kp,
            )
            .unwrap();
            let back = NrToken::decode_from_slice(&t.encode_to_vec()).unwrap();
            assert_eq!(back, t);
            assert!(back.verify(&kp.verifying_key(), Some(kind), None, None));
            assert_eq!(back.kind.label(), kind.label());
        }
    }

    #[test]
    fn kind_labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = (0u8..12)
            .map(|t| TokenKind::from_tag(t).unwrap().label())
            .collect();
        assert_eq!(labels.len(), 12);
        assert!(TokenKind::from_tag(99).is_none());
    }
}
