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
//! `0..n`) and the frame (leaf `n`). Tokens relayed from another party,
//! issued at an earlier step, or sent in an unsigned reply stay in the
//! body.
//!
//! On the wire the frame's signature comes before its tokens, and a
//! token signed in the frame's own batch is written compact: its fields,
//! its leaf index and its authentication path, without the shared
//! signature, certificate and leaf count, which the frame's signature
//! already carries. The decoder rebuilds each compact token's full
//! [`Signature`] from the frame's, so every carried token still verifies
//! alone and the receiver persists it as an ordinary self-contained
//! [`NrToken`]. Any other token (per-record frames, HMAC tags) is
//! written whole.

use nonrep_crypto::digest::{sha256_encoded, Digest};
use nonrep_crypto::merkle::AuthPath;
use nonrep_crypto::sig::{Signature, VerifyingKey};
use nonrep_types::codec::{encode_seq, CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::tokens::NrToken;

/// Most tokens one frame may carry: the two a server issues at the
/// response step (`NRR_req` and `NRO_resp`). The decoder rejects a larger
/// count before allocating for it.
const MAX_FRAME_TOKENS: usize = 2;

/// Wire tag of a carried token written whole.
const TOKEN_FULL: u8 = 0;
/// Wire tag of a carried token signed in the frame's batch, written
/// without the signature material it shares with the frame.
const TOKEN_COMPACT: u8 = 1;

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
        sha256_encoded(|w| {
            w.put_str("nonrep.pmsg.v2");
            self.protocol.encode(w);
            self.run_id.encode(w);
            w.put_u32(self.step);
            self.sender.encode(w);
            w.put_bytes(&self.body);
            encode_seq(token_digests, w);
        })
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
}

impl Encode for ProtocolMessage {
    fn encode(&self, w: &mut Writer) {
        self.protocol.encode(w);
        self.run_id.encode(w);
        w.put_u32(self.step);
        self.sender.encode(w);
        w.put_bytes(&self.body);
        self.signature.encode(w);
        let count = u32::try_from(self.tokens.len()).expect("frame token count fits u32");
        w.put_u32(count);
        for token in &self.tokens {
            match (&self.signature, token.signature.batch()) {
                (Some(frame), Some(leaf)) if token.signature.shares_batch_with(frame) => {
                    w.put_u8(TOKEN_COMPACT);
                    token.encode_fields(w);
                    w.put_u32(leaf.leaf_index);
                    leaf.auth_path.encode(w);
                }
                _ => {
                    w.put_u8(TOKEN_FULL);
                    token.encode(w);
                }
            }
        }
    }
}

/// Rebuilds a compact token's signature: the frame's batched signature
/// with the token's own leaf index and authentication path.
fn leaf_signature(frame: Option<&Signature>, r: &mut Reader<'_>) -> Result<Signature, CodecError> {
    let frame = frame
        .ok_or_else(|| CodecError::Invalid("compact token in an unsigned frame".to_string()))?;
    let leaf_index = r.get_u32()?;
    let auth_path = AuthPath::decode(r)?;
    frame.sibling(leaf_index, auth_path).ok_or_else(|| {
        CodecError::Invalid(
            "compact token's auth path is not a leaf of the frame's batch signature".to_string(),
        )
    })
}

impl Decode for ProtocolMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let protocol = ProtocolId::decode(r)?;
        let run_id = RunId::decode(r)?;
        let step = r.get_u32()?;
        let sender = OrgId::decode(r)?;
        let body = r.get_bytes()?.to_vec();
        let signature = Option::<Signature>::decode(r)?;
        let count = r.get_u32()? as usize;
        if count > MAX_FRAME_TOKENS {
            return Err(CodecError::Invalid(format!(
                "frame carries {count} tokens, at most {MAX_FRAME_TOKENS} allowed"
            )));
        }
        let mut tokens = Vec::with_capacity(count);
        for _ in 0..count {
            tokens.push(match r.get_u8()? {
                TOKEN_FULL => NrToken::decode(r)?,
                TOKEN_COMPACT => {
                    NrToken::decode_fields(r, |r| leaf_signature(signature.as_ref(), r))?
                }
                tag => {
                    return Err(CodecError::InvalidTag {
                        ty: "carried token",
                        tag,
                    })
                }
            });
        }
        Ok(Self {
            protocol,
            run_id,
            step,
            sender,
            body,
            tokens,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::party::{Party, StaticKeyDirectory};
    use crate::scheduler::{CommitmentMode, TokenSpec};
    use crate::tokens::TokenKind;
    use nonrep_crypto::digest::sha256;
    use nonrep_crypto::rng::SecureRandom;
    use nonrep_crypto::sig::{KeyPair, SignatureScheme};
    use nonrep_store::MemoryLog;
    use nonrep_types::time::{LogicalClock, Timestamp};
    use proptest::prelude::*;

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

    /// Values computed before the frame digest moved to the thread's
    /// scratch writer: what a frame signature covers must not change.
    #[test]
    fn golden_frame_digest() {
        assert_eq!(
            msg().frame_digest().to_hex(),
            "29ca595c83b859ade51d44dd5acee978c291cff085820871485cdf1e8931271b"
        );
        let keys = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(7));
        let mut m = msg();
        m.tokens = specs(b"golden")
            .iter()
            .map(|s| {
                NrToken::issue(
                    s.kind,
                    s.run_id,
                    OrgId::new("client"),
                    s.subject,
                    Timestamp(42),
                    &keys,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(
            m.frame_digest().to_hex(),
            "e299ebbc178892115cddf744ec460d2853734d75545844a08b087577622f3d4d"
        );
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
        assert!(m.signature.as_ref().unwrap().batch().is_some());
        for (t, spec) in m.tokens.iter().zip(specs(b"x")) {
            // Each token verifies alone, lifted out of the frame.
            assert!(t.signature.batch().is_some());
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
        assert!(m.tokens.iter().all(|t| t.signature.batch().is_none()));
        // The issuer persisted the tokens it sent.
        assert_eq!(p.log().len(), 2);
    }

    #[test]
    fn codec_roundtrip_signed_and_unsigned() {
        let p = party(6, true);
        let per_record = party(9, false);
        let hss = hss_party(10);
        for m in [
            msg(),
            p.sign_frame(msg(), &[]).unwrap(),
            p.sign_frame(msg(), &specs(b"c")).unwrap(),
            per_record.sign_frame(msg(), &specs(b"c")).unwrap(),
            hss.sign_frame(msg(), &specs(b"c")).unwrap(),
        ] {
            let back = ProtocolMessage::decode_from_slice(&m.encode_to_vec()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn batched_frame_carries_its_signature_once() {
        for p in [party(11, true), hss_party(12)] {
            let key = p.keys().verifying_key();
            let m = p.sign_frame(msg(), &specs(b"once")).unwrap();
            let sig_len = m.signature.as_ref().unwrap().byte_len();
            let bytes = m.encode_to_vec();
            assert!(bytes.len() < sig_len + 600, "{} B on the wire", bytes.len());
            let back = ProtocolMessage::decode_from_slice(&bytes).unwrap();
            assert!(back.verify_frame(&key));
            for (t, spec) in back.tokens.iter().zip(specs(b"once")) {
                assert_eq!(t.signature.byte_len(), sig_len);
                assert!(t.verify(&key, Some(spec.kind), Some(spec.run_id), None));
            }
        }
        // Per-record tokens keep their own signatures.
        let m = party(13, false).sign_frame(msg(), &specs(b"x")).unwrap();
        let sig_len = m.signature.as_ref().unwrap().byte_len();
        assert!(m.encode_to_vec().len() > 3 * sig_len);
    }

    /// A hierarchical, batched party: its frames carry compact HSS
    /// tokens.
    fn hss_party(seed: u64) -> Arc<Party> {
        let dir = Arc::new(StaticKeyDirectory::new());
        let mut rng = SecureRandom::from_seed(seed);
        let scheme = SignatureScheme::Hss {
            root_height: 2,
            subtree_height: 2,
        };
        let keys = Arc::new(KeyPair::generate(scheme, &mut rng));
        dir.insert(OrgId::new("client"), keys.verifying_key());
        Party::with_commitment(
            "client",
            keys,
            Arc::new(LogicalClock::new()),
            Arc::new(MemoryLog::new()),
            dir,
            rng,
            CommitmentMode::auto(50),
        )
    }

    /// The wire form of `m`'s header and body.
    fn header(m: &ProtocolMessage) -> Writer {
        let mut w = Writer::new();
        m.protocol.encode(&mut w);
        m.run_id.encode(&mut w);
        w.put_u32(m.step);
        m.sender.encode(&mut w);
        w.put_bytes(&m.body);
        w
    }

    /// `m`'s header and body followed by `signature` and the given
    /// tagged token entries: what a hostile sender can put together.
    fn wire(m: &ProtocolMessage, signature: Option<&Signature>, entries: &[Vec<u8>]) -> Vec<u8> {
        let mut w = header(m);
        signature.cloned().encode(&mut w);
        w.put_u32(entries.len() as u32);
        for entry in entries {
            w.put_raw(entry);
        }
        w.into_vec()
    }

    /// A compact entry for `t` with authentication path `path`.
    fn compact_entry(t: &NrToken, path: &AuthPath) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(TOKEN_COMPACT);
        t.encode_fields(&mut w);
        w.put_u32(t.signature.batch().unwrap().leaf_index);
        path.encode(&mut w);
        w.into_vec()
    }

    fn fields(t: &NrToken) -> Vec<u8> {
        let mut w = Writer::new();
        t.encode_fields(&mut w);
        w.into_vec()
    }

    #[test]
    fn decode_refuses_a_compact_token_the_frame_cannot_rebuild() {
        let p = hss_party(14);
        let m = p.sign_frame(msg(), &specs(b"h")).unwrap();
        let path = |t: &NrToken| t.signature.batch().unwrap().auth_path.clone();
        let entries: Vec<Vec<u8>> = m
            .tokens
            .iter()
            .map(|t| compact_entry(t, &path(t)))
            .collect();
        // The hand-built form is the encoder's, so each case below
        // differs from a valid frame in one respect only.
        assert_eq!(wire(&m, m.signature.as_ref(), &entries), m.encode_to_vec());
        let refused = |bytes: Vec<u8>| {
            assert!(matches!(
                ProtocolMessage::decode_from_slice(&bytes),
                Err(CodecError::Invalid(_))
            ));
        };
        // In an unsigned frame.
        refused(wire(&m, None, &entries));
        // In a frame whose signature is not batched.
        let direct = party(15, false).sign_frame(msg(), &[]).unwrap();
        refused(wire(&m, direct.signature.as_ref(), &entries));
        // With an auth path shorter or longer than the frame's.
        let mut short = path(&m.tokens[0]);
        short.steps.pop();
        let mut long = path(&m.tokens[0]);
        long.steps.push(long.steps[0]);
        for bad in [short, long] {
            let entries = [compact_entry(&m.tokens[0], &bad), entries[1].clone()];
            refused(wire(&m, m.signature.as_ref(), &entries));
        }
        // An unknown entry tag.
        let mut unknown = entries.clone();
        unknown[1][0] = 2;
        assert!(matches!(
            ProtocolMessage::decode_from_slice(&wire(&m, m.signature.as_ref(), &unknown)),
            Err(CodecError::InvalidTag { .. })
        ));
    }

    #[test]
    fn decoded_compact_tokens_share_the_frame_signatures_chains() {
        let m = hss_party(18).sign_frame(msg(), &specs(b"s")).unwrap();
        let back = ProtocolMessage::decode_from_slice(&m.encode_to_vec()).unwrap();
        let chains = |s: &Signature| Arc::clone(&s.batch().unwrap().mss_sig.wots.chains);
        let cert = |s: &Signature| Arc::clone(s.inline_cert().unwrap());
        // The frame as one `sign_batch` call signed it, and as decoded:
        // every token shares the frame's chains and subtree certificate.
        for m in [&m, &back] {
            let frame = m.signature.as_ref().unwrap();
            assert!(!m.tokens.is_empty());
            for t in &m.tokens {
                assert!(Arc::ptr_eq(&chains(&t.signature), &chains(frame)));
                assert!(Arc::ptr_eq(&cert(&t.signature), &cert(frame)));
            }
        }
    }

    /// Every move, clone and `Vec` growth of a token or a frame copies
    /// these types whole; the W-OTS chains stay behind their `Arc`.
    #[test]
    fn in_memory_sizes_are_stated() {
        for (ty, size) in [
            ("NrToken", std::mem::size_of::<NrToken>()),
            ("Signature", std::mem::size_of::<Signature>()),
            ("ProtocolMessage", std::mem::size_of::<ProtocolMessage>()),
        ] {
            assert!(size <= 256, "{ty} grew to {size} B in memory (bound 256 B)");
        }
    }

    #[test]
    fn every_truncation_of_a_compact_hss_frame_is_refused() {
        let m = hss_party(16).sign_frame(msg(), &specs(b"t")).unwrap();
        let bytes = m.encode_to_vec();
        for len in 0..bytes.len() {
            assert!(
                ProtocolMessage::decode_from_slice(&bytes[..len]).is_err(),
                "a {len}-byte prefix of {} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn decode_rejects_a_token_count_over_the_bound() {
        let m = msg();
        for count in [MAX_FRAME_TOKENS as u32 + 1, u32::MAX] {
            let mut w = header(&m);
            None::<Signature>.encode(&mut w);
            w.put_u32(count);
            assert!(matches!(
                ProtocolMessage::decode_from_slice(&w.into_vec()),
                Err(CodecError::Invalid(_))
            ));
        }
        // One token over the bound, written out in full, is refused the
        // same way.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Flipping one byte of a compact frame's header, body or token
        /// fields leaves a frame that fails to decode, or fails
        /// `verify_frame` or its token's `verify`.
        #[test]
        fn a_flipped_covered_byte_fails_verification(pick in any::<u16>(), mask in 1u8..255) {
            let p = hss_party(17);
            let key = p.keys().verifying_key();
            let m = p.sign_frame(msg(), &specs(b"p")).unwrap();
            let bytes = m.encode_to_vec();
            let mut covered: Vec<usize> = (0..header(&m).as_slice().len()).collect();
            for t in &m.tokens {
                let f = fields(t);
                let at = bytes.windows(f.len()).position(|w| w == f.as_slice()).unwrap();
                covered.extend(at..at + f.len());
            }
            let mut flipped = bytes.clone();
            flipped[covered[pick as usize % covered.len()]] ^= mask;
            if let Ok(back) = ProtocolMessage::decode_from_slice(&flipped) {
                let tokens_verify = back.tokens.iter().all(|t| t.verify(&key, None, None, None));
                prop_assert!(!back.verify_frame(&key) || !tokens_verify);
            }
        }
    }
}
