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

/// Per-run server state: caches the step-2 response for idempotent retries
/// (at-most-once semantics, §3.2) and tracks receipt arrival.
///
/// The registry keeps one entry per run for the server's lifetime, so it
/// holds each reply *encoded*, in a buffer sized to fit: the wire form
/// carries a batched frame's signature once, where the decoded frame
/// rebuilds a full signature for each carried token. Only a duplicate
/// delivery decodes one.
#[derive(Debug, Default)]
pub struct RunRegistry {
    runs: Mutex<HashMap<RunId, RunEntry>>,
}

#[derive(Debug, Clone)]
struct RunEntry {
    /// The encoded reply frame.
    response: Vec<u8>,
    /// Digest of the response a later client receipt must cover.
    receipt_digest: Option<Digest>,
    receipt_received: bool,
}

impl RunRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached response for `run`, if the request was already
    /// executed (duplicate delivery).
    pub fn cached_response(&self, run: &RunId) -> Option<ProtocolMessage> {
        self.runs.lock().get(run).map(|e| {
            ProtocolMessage::decode_from_slice(&e.response)
                .expect("the registry holds frames it encoded itself")
        })
    }

    /// Records the response produced for `run` and, for a variant whose
    /// server later checks a client receipt against this registry, the
    /// digest that receipt must cover.
    pub fn record_response(
        &self,
        run: RunId,
        response: &ProtocolMessage,
        receipt_digest: Option<Digest>,
    ) {
        let response = response.encode_to_vec();
        self.runs.lock().insert(
            run,
            RunEntry {
                response,
                receipt_digest,
                receipt_received: false,
            },
        );
    }

    /// The digest recorded for `run`'s receipt (`None` for an unknown run
    /// or one recorded without a digest).
    pub fn receipt_digest(&self, run: &RunId) -> Option<Digest> {
        self.runs.lock().get(run).and_then(|e| e.receipt_digest)
    }

    /// Marks the client receipt as received for `run`. Returns `false` if
    /// the run is unknown.
    pub fn mark_receipt(&self, run: &RunId) -> bool {
        match self.runs.lock().get_mut(run) {
            Some(e) => {
                e.receipt_received = true;
                true
            }
            None => false,
        }
    }

    /// `true` if the client's receipt arrived for `run`.
    pub fn receipt_received(&self, run: &RunId) -> bool {
        self.runs
            .lock()
            .get(run)
            .map(|e| e.receipt_received)
            .unwrap_or(false)
    }

    /// Number of runs tracked.
    pub fn len(&self) -> usize {
        self.runs.lock().len()
    }

    /// `true` if no runs are tracked.
    pub fn is_empty(&self) -> bool {
        self.runs.lock().is_empty()
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
    fn run_registry_dedup_and_receipt() {
        let reg = RunRegistry::new();
        let run = RunId::from_u128(1);
        assert!(reg.cached_response(&run).is_none());
        assert!(reg.is_empty());
        let resp = ProtocolMessage::new("direct", run, 2, "server", vec![1]);
        assert_eq!(reg.receipt_digest(&run), None);
        reg.record_response(run, &resp, Some(Digest::ZERO));
        assert_eq!(reg.cached_response(&run).unwrap(), resp);
        assert_eq!(reg.receipt_digest(&run), Some(Digest::ZERO));
        assert_eq!(reg.len(), 1);
        assert!(!reg.receipt_received(&run));
        assert!(reg.mark_receipt(&run));
        assert!(reg.receipt_received(&run));
        assert!(!reg.mark_receipt(&RunId::from_u128(9)));
    }
}
