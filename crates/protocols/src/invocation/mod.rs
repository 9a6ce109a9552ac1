//! NR-Invocation protocols.
//!
//! All variants exchange the same *logical* evidence set from §3.2 —
//! `NRO_req`, `NRR_req`, `NRO_resp`, `NRR_resp` — but differ in who signs,
//! who relays, and what happens when a party defects:
//!
//! | module | trust model | messages | evidence held by client |
//! |---|---|---|---|
//! | [`voluntary`] | server trusts client's NRO only (ref \[23\] baseline) | 2 | none |
//! | [`direct`] | direct trust domain (Fig 3c) | 3 (+ack) | NRR_req, NRO_resp |
//! | [`inline_ttp`] | inline TTP(s) relay everything (Fig 3a/b) | 2×hops | TTP receipts |
//! | [`fair_offline`] | offline TTP for resolve/abort | 4 (+TTP) | key or TTP resolution |

pub mod direct;
pub mod fair_offline;
pub mod inline_ttp;
pub mod voluntary;

use std::collections::HashMap;

use parking_lot::Mutex;

use nonrep_crypto::digest::Digest;
use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{OrgId, RunId};

use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::tokens::TokenKind;
use crate::ProtocolError;

/// Executes the actual application request on the server side once the
/// protocol says it should run.
///
/// In a full deployment this is the container invoking the component
/// ("the client's request is actually passed through the interceptor chain
/// to the EJB component for execution", §4.2); tests use closures.
pub trait RequestExecutor: Send + Sync {
    /// Executes `request` on behalf of `caller`, returning the encoded
    /// result.
    ///
    /// # Errors
    ///
    /// A human-readable business failure, which becomes
    /// [`ServerResponse::Failed`] — itself evidenced, as §3.2 requires
    /// ("interceptor-generated evidence that the request failed").
    fn execute(&self, caller: &OrgId, request: &[u8]) -> Result<Vec<u8>, String>;
}

impl<F> RequestExecutor for F
where
    F: Fn(&OrgId, &[u8]) -> Result<Vec<u8>, String> + Send + Sync,
{
    fn execute(&self, caller: &OrgId, request: &[u8]) -> Result<Vec<u8>, String> {
        self(caller, request)
    }
}

/// The server-side result carried in step 2.
///
/// §3.2: "resp is either the result of normal execution of the request at
/// the server or interceptor-generated evidence that the request failed".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerResponse {
    /// The request executed; payload is the encoded result.
    Executed(Vec<u8>),
    /// The request was delivered but execution failed.
    Failed(String),
}

impl Encode for ServerResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            ServerResponse::Executed(bytes) => {
                w.put_u8(0);
                w.put_bytes(bytes);
            }
            ServerResponse::Failed(msg) => {
                w.put_u8(1);
                w.put_str(msg);
            }
        }
    }
}

impl Decode for ServerResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(ServerResponse::Executed(r.get_bytes()?.to_vec())),
            1 => Ok(ServerResponse::Failed(r.get_string()?)),
            tag => Err(CodecError::InvalidTag {
                ty: "ServerResponse",
                tag,
            }),
        }
    }
}

/// The at-most-once reply cache (§3.2): each run's step-2 reply, so a
/// duplicate delivery gets the first reply without re-executing the
/// request. Reply bytes are not evidence, so the log does not keep them;
/// everything else a server knows about a run it reads from its log.
///
/// The cache keeps one entry per run for the server's lifetime, so it
/// holds each reply *encoded*, in a buffer sized to fit: the wire form
/// carries a batched frame's signature once, where the decoded frame
/// rebuilds a full signature for each carried token. Only a duplicate
/// delivery decodes one.
#[derive(Debug, Default)]
pub struct RunRegistry {
    replies: Mutex<HashMap<RunId, Vec<u8>>>,
}

impl RunRegistry {
    /// The cached reply to the step-1 frame `msg`, if its run was
    /// already answered (duplicate delivery). The caller has verified
    /// `msg`'s signature; the reply goes only to the run's client, the
    /// issuer of the `NRO_req` that `party` logged for it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Rejected`] if the run was answered for another
    /// sender.
    pub fn cached_response(
        &self,
        party: &Party,
        msg: &ProtocolMessage,
    ) -> Result<Option<ProtocolMessage>, ProtocolError> {
        let Some(reply) = self.replies.lock().get(&msg.run_id).map(|reply| {
            ProtocolMessage::decode_from_slice(reply)
                .expect("the registry holds frames it encoded itself")
        }) else {
            return Ok(None);
        };
        if !party
            .logged(msg.run_id, TokenKind::NroReq)
            .iter()
            .any(|r| r.draft.actor == msg.sender)
        {
            return Err(ProtocolError::Rejected(format!(
                "run {} belongs to another client",
                msg.run_id
            )));
        }
        Ok(Some(reply))
    }

    /// Records the reply produced for `run`.
    pub fn record_response(&self, run: RunId, response: &ProtocolMessage) {
        self.replies.lock().insert(run, response.encode_to_vec());
    }
}

/// A server's own log on a run it answered.
struct AnsweredRun {
    /// The issuer of the run's `NRO_req`, the only acceptable receipt issuer.
    client: OrgId,
    /// The subject of the server's own `NRO_resp`: what the receipt covers.
    resp_digest: Digest,
    /// `true` once the client's `NRR_resp` over `resp_digest` is logged.
    receipt: bool,
}

impl AnsweredRun {
    /// Reads `run` from `server`'s log; `None` if it sent no response.
    fn read(server: &Party, run: RunId) -> Option<Self> {
        let own_resp = server.logged(run, TokenKind::NroResp);
        let resp = own_resp.iter().find(|r| r.draft.actor == *server.org())?;
        let resp_digest = resp.draft.content_digest;
        let client = server
            .logged(run, TokenKind::NroReq)
            .first()?
            .draft
            .actor
            .clone();
        let receipts = server.logged(run, TokenKind::NrrResp);
        let receipt = receipts
            .iter()
            .any(|r| r.draft.actor == client && r.draft.content_digest == resp_digest);
        Some(Self {
            client,
            resp_digest,
            receipt,
        })
    }

    /// Reads `run` for a receipt from `sender`, which must be its client.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownRun`] for a run the server never
    /// answered, [`ProtocolError::BadMessage`] for another sender.
    fn for_receipt(server: &Party, run: RunId, sender: &OrgId) -> Result<Self, ProtocolError> {
        let answered = Self::read(server, run).ok_or(ProtocolError::UnknownRun(run))?;
        if answered.client != *sender {
            return Err(ProtocolError::BadMessage(format!(
                "receipt for run {run} not from its client"
            )));
        }
        Ok(answered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_response_roundtrip() {
        for resp in [
            ServerResponse::Executed(b"result".to_vec()),
            ServerResponse::Failed("no stock".into()),
        ] {
            let back = ServerResponse::decode_from_slice(&resp.encode_to_vec()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn run_registry_replies_only_to_the_runs_client() {
        use crate::party::StaticKeyDirectory;
        use crate::scheduler::TokenSpec;
        use nonrep_crypto::digest::sha256;
        use nonrep_types::time::LogicalClock;
        use std::sync::Arc;

        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let client = Party::quick("client", 1, &clock, &dir);
        let server = Party::quick("server", 2, &clock, &dir);
        let other = Party::quick("other", 3, &clock, &dir);
        let run = RunId::from_u128(1);
        let step1 = |party: &Party| {
            let nro = TokenSpec::new(TokenKind::NroReq, run, sha256(b"req"));
            let frame =
                ProtocolMessage::new("direct", run, 1, party.org().as_str(), b"req".to_vec());
            party.sign_frame(frame, &[nro]).unwrap()
        };
        let msg1 = step1(&client);
        let reg = RunRegistry::default();
        assert!(reg.cached_response(&server, &msg1).unwrap().is_none());
        server
            .absorb_carried(&msg1, [(TokenKind::NroReq, sha256(b"req"))])
            .unwrap();
        let resp = ProtocolMessage::new("direct", run, 2, "server", vec![1]);
        reg.record_response(run, &resp);
        assert_eq!(reg.cached_response(&server, &msg1).unwrap(), Some(resp));
        assert!(matches!(
            reg.cached_response(&server, &step1(&other)),
            Err(ProtocolError::Rejected(_))
        ));
    }
}
