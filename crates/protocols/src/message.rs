//! Protocol messages.
//!
//! [`ProtocolMessage`] is the Rust rendering of the paper's
//! `B2BProtocolMessage` (§4.1): "an interface to information common to
//! non-repudiation protocol messages — request (protocol run) identifier,
//! sender, protocol step, signed content, payload etc." Step-specific
//! content lives in `body` (canonically encoded by each protocol).
//!
//! The NR tokens the sender issues at a step travel beside the body, in
//! `tokens`, and the frame signature covers them: the signed digest
//! (`ProtocolMessage::frame_digest`) is over the header, the body and
//! each carried token's [`NrToken::digest`] — never a token's signature,
//! so the frame and its tokens can be signed together. The sender's
//! [`crate::scheduler::CommitmentScheduler::sign_frame`] does exactly
//! that: in batched mode one batch signature covers the tokens (leaves
//! `0..n`) and the frame (leaf `n`). Each carried token still verifies
//! alone, so the receiver persists it as an ordinary self-contained
//! [`NrToken`]. Tokens relayed from another party, issued at an earlier
//! step, or sent in an unsigned reply stay in the body.

use nonrep_crypto::digest::{sha256, Digest};
use nonrep_crypto::sig::{Signature, VerifyingKey};
use nonrep_types::codec::{encode_seq, CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::tokens::NrToken;

/// Most tokens one frame may carry: the two a server issues at the
/// response step (`NRR_req` and `NRO_resp`). The decoder rejects a larger
/// count before allocating for it.
const MAX_FRAME_TOKENS: usize = 2;

/// A framed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolMessage {
    /// Which protocol this message belongs to.
    pub protocol: ProtocolId,
    /// The protocol run it is part of.
    pub run_id: RunId,
    /// Step number within the run (1-based).
    pub step: u32,
    /// The sending organisation.
    pub sender: OrgId,
    /// Step-specific encoded content.
    pub body: Vec<u8>,
    /// The tokens the sender issued at this step (at most
    /// `MAX_FRAME_TOKENS`), covered by the frame signature.
    pub tokens: Vec<NrToken>,
    /// Optional sender signature over the frame.
    pub signature: Option<Signature>,
}

impl ProtocolMessage {
    /// Creates an unsigned message carrying no tokens.
    pub fn new(
        protocol: impl Into<ProtocolId>,
        run_id: RunId,
        step: u32,
        sender: impl Into<OrgId>,
        body: Vec<u8>,
    ) -> Self {
        Self {
            protocol: protocol.into(),
            run_id,
            step,
            sender: sender.into(),
            body,
            tokens: Vec::new(),
            signature: None,
        }
    }

    /// The digest the frame signature covers: the header, the body and
    /// the digest of every carried token, in order.
    pub(crate) fn frame_digest(&self) -> Digest {
        let tokens: Vec<Digest> = self.tokens.iter().map(NrToken::digest).collect();
        self.digest_over(&tokens)
    }

    /// `ProtocolMessage::frame_digest` for carried tokens given by
    /// their digests — what a signer computes before the tokens' own
    /// signatures exist.
    pub(crate) fn digest_over(&self, token_digests: &[Digest]) -> Digest {
        let mut w = Writer::new();
        w.put_str("nonrep.pmsg.v2");
        self.protocol.encode(&mut w);
        self.run_id.encode(&mut w);
        w.put_u32(self.step);
        self.sender.encode(&mut w);
        w.put_bytes(&self.body);
        encode_seq(token_digests, &mut w);
        sha256(&w.into_vec())
    }

    /// Verifies the frame signature under `key`.
    ///
    /// Returns `false` if the message is unsigned. Carried tokens are
    /// bound by their digests only; their own signatures are checked
    /// when the receiver absorbs them.
    pub fn verify_frame(&self, key: &VerifyingKey) -> bool {
        match &self.signature {
            Some(sig) => key.verify_digest(&self.frame_digest(), sig),
            None => false,
        }
    }

    /// Serialized size in bytes (communication-overhead accounting).
    pub fn byte_len(&self) -> usize {
        self.encode_to_vec().len()
    }
}

impl Encode for ProtocolMessage {
    fn encode(&self, w: &mut Writer) {
        self.protocol.encode(w);
        self.run_id.encode(w);
        w.put_u32(self.step);
        self.sender.encode(w);
        w.put_bytes(&self.body);
        encode_seq(&self.tokens, w);
        self.signature.encode(w);
    }
}

impl Decode for ProtocolMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let protocol = ProtocolId::decode(r)?;
        let run_id = RunId::decode(r)?;
        let step = r.get_u32()?;
        let sender = OrgId::decode(r)?;
        let body = r.get_bytes()?.to_vec();
        let count = r.get_u32()? as usize;
        if count > MAX_FRAME_TOKENS {
            return Err(CodecError::Invalid(format!(
                "frame carries {count} tokens, at most {MAX_FRAME_TOKENS} allowed"
            )));
        }
        let mut tokens = Vec::with_capacity(count);
        for _ in 0..count {
            tokens.push(NrToken::decode(r)?);
        }
        Ok(Self {
            protocol,
            run_id,
            step,
            sender,
            body,
            tokens,
            signature: Option::<Signature>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::party::{Party, StaticKeyDirectory};
    use crate::scheduler::TokenSpec;
    use crate::tokens::TokenKind;
    use nonrep_types::time::{LogicalClock, Timestamp};

    fn party(seed: u64, batched: bool) -> Arc<Party> {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        if batched {
            Party::quick_batched("client", seed, &clock, &dir)
        } else {
            Party::quick("client", seed, &clock, &dir)
        }
    }

    fn msg() -> ProtocolMessage {
        ProtocolMessage::new(
            "direct",
            RunId::from_u128(5),
            1,
            "client",
            b"payload".to_vec(),
        )
    }

    fn specs(tag: &[u8]) -> [TokenSpec; 2] {
        let run = RunId::from_u128(5);
        [
            TokenSpec::new(TokenKind::NrrReq, run, sha256(&[tag, b"req"].concat())),
            TokenSpec::new(TokenKind::NroResp, run, sha256(&[tag, b"resp"].concat())),
        ]
    }

    #[test]
    fn sign_and_verify_frame() {
        let p = party(1, false);
        let m = p.sign_frame(msg(), &[]).unwrap();
        assert!(m.verify_frame(&p.keys().verifying_key()));
        assert!(
            !msg().verify_frame(&p.keys().verifying_key()),
            "unsigned frame must not verify"
        );
    }

    #[test]
    fn tampered_fields_break_signature() {
        let p = party(2, true);
        let signed = p.sign_frame(msg(), &specs(b"a")).unwrap();
        let key = p.keys().verifying_key();
        assert!(signed.verify_frame(&key));
        let mut tampered: Vec<ProtocolMessage> = Vec::new();
        let mut push = |f: &dyn Fn(&mut ProtocolMessage)| {
            let mut m = signed.clone();
            f(&mut m);
            tampered.push(m);
        };
        push(&|m| m.protocol = ProtocolId::new("voluntary"));
        push(&|m| m.run_id = RunId::from_u128(6));
        push(&|m| m.step = 99);
        push(&|m| m.sender = OrgId::new("mallory"));
        for i in 0..signed.body.len() {
            push(&move |m| m.body[i] ^= 1);
        }
        push(&|m| m.body.push(0));
        for i in 0..signed.tokens.len() {
            push(&move |m| m.tokens[i].kind = TokenKind::NroReq);
            push(&move |m| m.tokens[i].run_id = RunId::from_u128(6));
            push(&move |m| m.tokens[i].issuer = OrgId::new("mallory"));
            push(&move |m| m.tokens[i].subject = sha256(b"substituted"));
            push(&move |m| m.tokens[i].at = Timestamp(999));
        }
        push(&|m| {
            m.tokens.pop();
        });
        for (n, m) in tampered.iter().enumerate() {
            assert!(!m.verify_frame(&key), "tamper {n} passed");
        }
    }

    #[test]
    fn a_token_from_another_frame_breaks_the_signature() {
        let p = party(3, true);
        let key = p.keys().verifying_key();
        let one = p.sign_frame(msg(), &specs(b"one")).unwrap();
        let other = p.sign_frame(msg(), &specs(b"other")).unwrap();
        assert!(other.tokens[0].verify(&key, None, None, None));
        let mut spliced = one.clone();
        spliced.tokens[0] = other.tokens[0].clone();
        assert!(!spliced.verify_frame(&key));
    }

    #[test]
    fn batched_frame_and_tokens_share_one_leaf() {
        let p = party(4, true);
        let key = p.keys().verifying_key();
        let before = p.keys().remaining().unwrap();
        let m = p.sign_frame(msg(), &specs(b"x")).unwrap();
        assert_eq!(p.keys().remaining().unwrap(), before - 1);
        assert!(m.verify_frame(&key));
        assert!(m.signature.as_ref().unwrap().is_batched());
        for (t, spec) in m.tokens.iter().zip(specs(b"x")) {
            // Each token verifies alone, lifted out of the frame.
            assert!(t.signature.is_batched());
            assert!(t.verify(
                &key,
                Some(spec.kind),
                Some(spec.run_id),
                Some(&spec.subject)
            ));
        }
        // Per-record mode: one signature per token plus the frame's.
        let p = party(5, false);
        let before = p.keys().remaining().unwrap();
        let m = p.sign_frame(msg(), &specs(b"x")).unwrap();
        assert_eq!(p.keys().remaining().unwrap(), before - 3);
        assert!(m.verify_frame(&p.keys().verifying_key()));
        assert!(m.tokens.iter().all(|t| !t.signature.is_batched()));
        // The issuer persisted the tokens it sent.
        assert_eq!(p.log().len(), 2);
    }

    #[test]
    fn codec_roundtrip_signed_and_unsigned() {
        let p = party(6, true);
        for m in [
            msg(),
            p.sign_frame(msg(), &[]).unwrap(),
            p.sign_frame(msg(), &specs(b"c")).unwrap(),
        ] {
            let back = ProtocolMessage::decode_from_slice(&m.encode_to_vec()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn decode_rejects_a_token_count_over_the_bound() {
        let mut w = Writer::new();
        ProtocolId::new("direct").encode(&mut w);
        RunId::from_u128(5).encode(&mut w);
        w.put_u32(1);
        OrgId::new("client").encode(&mut w);
        w.put_bytes(b"payload");
        w.put_u32(u32::MAX);
        assert!(matches!(
            ProtocolMessage::decode_from_slice(&w.into_vec()),
            Err(CodecError::Invalid(_))
        ));
        // One over the bound is refused the same way.
        let mut m = msg();
        m.tokens = vote_tokens(MAX_FRAME_TOKENS + 1);
        assert!(matches!(
            ProtocolMessage::decode_from_slice(&m.encode_to_vec()),
            Err(CodecError::Invalid(_))
        ));
    }

    fn vote_tokens(n: usize) -> Vec<NrToken> {
        let p = party(7, false);
        (0..n)
            .map(|i| {
                p.issue_token(TokenKind::Vote, RunId::from_u128(5), sha256(&[i as u8]))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn frame_digest_is_stable_and_signature_independent() {
        let p = party(8, false);
        let unsigned = msg();
        let signed = p.sign_frame(msg(), &[]).unwrap();
        assert_eq!(unsigned.frame_digest(), signed.frame_digest());
    }

    #[test]
    fn byte_len_counts_encoding() {
        let m = msg();
        assert_eq!(m.byte_len(), m.encode_to_vec().len());
    }
}
