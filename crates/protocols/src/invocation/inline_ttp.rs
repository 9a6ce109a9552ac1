//! Inline-TTP NR-invocation (paper Fig 3(a) and 3(b)).
//!
//! All communication between client and server is routed through one or
//! more trusted third parties. Each TTP hop verifies the client's evidence,
//! issues its own signed receipts (request and response), logs everything,
//! and forwards. The *terminal* TTP invokes the server using the ordinary
//! [direct protocol](crate::invocation::direct) — the server needs no
//! inline-TTP-specific code, which is exactly the paper's point about
//! interceptor composability.
//!
//! * Fig 3(a): `client → TTP → server` — one [`InlineTtpHandler`] in
//!   terminal mode.
//! * Fig 3(b): `client → TTP_A → TTP_B → server` — TTP_A relays to TTP_B
//!   (relay mode), TTP_B is terminal.
//!
//! The client drives the [`InlineChoreography`] (the step-2 reply is
//! verified under its *sender*'s key — the first hop answers, not the
//! server); a relay TTP drives the [`crate::session::Ttp`]-role
//! [`RelayChoreography`], forwarding the client's pre-signed frame
//! unchanged so the originator's signature travels end-to-end.
//!
//! Relaying anything but the due step is a compile *and* run-time
//! impossibility — and the client cannot re-enter its only round:
//!
//! ```compile_fail
//! use nonrep_protocols::invocation::inline_ttp::InlineChoreography;
//! use nonrep_protocols::session::{Client, Session};
//! use nonrep_types::ids::OrgId;
//!
//! fn replay_round(s: Session<Client, InlineChoreography>, ttp: &OrgId) {
//!     let _ = s.call_relayed(ttp, vec![], &[]);
//!     let _ = s.call_relayed(ttp, vec![], &[]); // error[E0382]: use of moved value
//! }
//! ```

use std::fmt;
use std::sync::Arc;

use nonrep_crypto::digest::{sha256, sha256_encoded};
use nonrep_types::codec::{decode_seq, encode_seq, CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::handler::ProtocolHandler;
use crate::invocation::direct::DirectClient;
use crate::invocation::{RunRegistry, ServerResponse};
use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::scheduler::TokenSpec;
use crate::session::{CallRelayed, Client, End, ExchangeEngine, Forward, RunJournal, Ttp};
use crate::tokens::{NrToken, TokenKind};
use crate::{B2BCoordinator, ProtocolError};

/// Protocol id of the inline-TTP protocol.
pub const PROTOCOL_ID: &str = "inline-ttp";

/// The client's choreography: one relayed request/response round (the
/// reply frame is signed by the first TTP hop), then seal.
pub type InlineChoreography = CallRelayed<1, 2, End>;

/// A relay TTP's choreography: forward the client's pre-signed step 1
/// unchanged to the next hop and take its signed step-2 reply.
pub type RelayChoreography = Forward<1, 2, End>;

/// Step-1 body: the request and its ultimate destination. The client's
/// `NRO_req` rides the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineStep1 {
    /// The server that should ultimately execute the request.
    pub server: OrgId,
    /// Encoded application request.
    pub request: Vec<u8>,
}

impl Encode for InlineStep1 {
    fn encode(&self, w: &mut Writer) {
        self.server.encode(w);
        w.put_bytes(&self.request);
    }
}

impl Decode for InlineStep1 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            server: OrgId::decode(r)?,
            request: r.get_bytes()?.to_vec(),
        })
    }
}

/// Step-2 body: the response, the server's origin token, and the TTP
/// receipts issued before the replying hop signed its frame, in issue
/// order. That hop's response receipt rides the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InlineResp {
    /// The server-side outcome.
    pub response: ServerResponse,
    /// The server's NRO over the response (forwarded by the terminal TTP).
    pub server_nro_resp: NrToken,
    /// Receipts from this hop's request receipt onwards, relayed inner
    /// receipts included.
    pub receipts: Vec<NrToken>,
}

impl Encode for InlineResp {
    fn encode(&self, w: &mut Writer) {
        self.response.encode(w);
        self.server_nro_resp.encode(w);
        encode_seq(&self.receipts, w);
    }
}

impl Decode for InlineResp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            response: ServerResponse::decode(r)?,
            server_nro_resp: NrToken::decode(r)?,
            receipts: decode_seq(r)?,
        })
    }
}

/// What the client ends up holding after an inline-TTP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineOutcome {
    /// The run identifier.
    pub run_id: RunId,
    /// The server's response.
    pub response: ServerResponse,
    /// The server's NRO over the response.
    pub server_nro_resp: NrToken,
    /// Verified TTP receipts (request and response, per hop), in issue
    /// order: the first hop's request receipt first, its response
    /// receipt last.
    pub receipts: Vec<NrToken>,
}

/// Client side of the inline-TTP protocol.
pub struct InlineTtpClient {
    engine: ExchangeEngine,
    /// First TTP hop.
    ttp: OrgId,
}

impl fmt::Debug for InlineTtpClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InlineTtpClient({} via {})",
            self.engine.party().org(),
            self.ttp
        )
    }
}

impl InlineTtpClient {
    /// Creates a client that routes through `ttp`.
    pub fn new(party: Arc<Party>, coordinator: Arc<B2BCoordinator>, ttp: OrgId) -> Self {
        Self {
            engine: ExchangeEngine::new(party, coordinator, PROTOCOL_ID),
            ttp,
        }
    }

    /// Enables crash-recovery journalling: completed steps leave
    /// progress markers in this party's evidence log for
    /// [`RunJournal::recovered_open_runs`] to find on reopen.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<RunJournal>) -> Self {
        self.engine = self.engine.with_journal(journal);
        self
    }

    /// The engine driving this client.
    pub fn engine(&self) -> &ExchangeEngine {
        &self.engine
    }

    /// Invokes `request` on `server` via the TTP path.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on communication failure or bad evidence.
    pub fn invoke(&self, server: &OrgId, request: Vec<u8>) -> Result<InlineOutcome, ProtocolError> {
        self.invoke_with(self.engine.party().new_run_id(), server, request)
    }

    /// [`InlineTtpClient::invoke`] under a caller-chosen run identifier
    /// (deterministic scenario harnesses).
    ///
    /// # Errors
    ///
    /// As [`InlineTtpClient::invoke`].
    pub fn invoke_with(
        &self,
        run_id: RunId,
        server: &OrgId,
        request: Vec<u8>,
    ) -> Result<InlineOutcome, ProtocolError> {
        let req_digest = sha256(&request);
        let session = self.engine.session::<Client, InlineChoreography>(run_id);
        let step1 = InlineStep1 {
            server: server.clone(),
            request,
        };
        let nro_req = TokenSpec::new(TokenKind::NroReq, run_id, req_digest);
        // The reply frame is signed by the first TTP hop, so the relayed
        // round verifies it under the reply *sender*'s key.
        let (msg2, session) = session.call_relayed(&self.ttp, step1.encode_to_vec(), &[nro_req])?;
        let resp: InlineResp = self.engine.decode_body(&msg2.body)?;
        // Verify every relayed receipt under its issuer key and persist
        // it, then the first hop's own response receipt.
        for receipt in &resp.receipts {
            self.engine
                .absorb(receipt, TokenKind::TtpReceipt, run_id, None)?;
        }
        let resp_digest = sha256_encoded(|w| resp.response.encode(w));
        self.engine
            .party()
            .absorb_carried(&msg2, [(TokenKind::TtpReceipt, resp_digest)])?;
        // Verify the server's own response-origin token. It is bound to the
        // *inner* run id of the TTP↔server direct exchange (the TTP acts as
        // the protocol client there), so only kind and subject are pinned;
        // the TTP receipts bind the inner exchange to this outer run.
        let server_key = self.engine.party().key_of(&resp.server_nro_resp.issuer)?;
        if !resp.server_nro_resp.verify(
            &server_key,
            Some(TokenKind::NroResp),
            None,
            Some(&resp_digest),
        ) {
            return Err(ProtocolError::BadSignature {
                org: resp.server_nro_resp.issuer.clone(),
                what: "server NRO_resp".into(),
            });
        }
        self.engine.party().store_token(&resp.server_nro_resp)?;
        // Run complete: seal pending evidence if the policy asks for it.
        session.finish()?;
        let mut receipts = resp.receipts;
        receipts.extend(msg2.tokens);
        Ok(InlineOutcome {
            run_id,
            response: resp.response,
            server_nro_resp: resp.server_nro_resp,
            receipts,
        })
    }
}

/// An inline TTP node: relay or terminal.
pub struct InlineTtpHandler {
    engine: ExchangeEngine,
    /// `Some(next)` = relay to the next TTP; `None` = terminal (invoke the
    /// server directly).
    next_hop: Option<OrgId>,
    runs: RunRegistry,
}

impl fmt::Debug for InlineTtpHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InlineTtpHandler({}, next={:?})",
            self.engine.party().org(),
            self.next_hop
        )
    }
}

impl InlineTtpHandler {
    /// Creates a terminal TTP: verifies, receipts, and invokes the server
    /// with the direct protocol.
    pub fn terminal(party: Arc<Party>, coordinator: Arc<B2BCoordinator>) -> Arc<Self> {
        Arc::new(Self {
            engine: ExchangeEngine::new(party, coordinator, PROTOCOL_ID),
            next_hop: None,
            runs: RunRegistry::new(),
        })
    }

    /// Creates a relay TTP forwarding to `next` (distributed inline TTP,
    /// Fig 3(b)).
    pub fn relay(party: Arc<Party>, coordinator: Arc<B2BCoordinator>, next: OrgId) -> Arc<Self> {
        Arc::new(Self {
            engine: ExchangeEngine::new(party, coordinator, PROTOCOL_ID),
            next_hop: Some(next),
            runs: RunRegistry::new(),
        })
    }

    fn handle_step1(
        &self,
        _from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        if let Some(cached) = self.runs.cached_response(&msg.run_id) {
            return Ok(cached);
        }
        // The frame is signed by the *originating client* (msg.sender), not
        // necessarily the bus-level previous hop.
        self.engine.verify_sender_frame(&msg)?;
        let step1: InlineStep1 = self.engine.decode_body(&msg.body)?;
        let req_digest = sha256(&step1.request);
        self.engine
            .party()
            .absorb_carried(&msg, [(TokenKind::NroReq, req_digest)])?;
        // Receipt for the request passing through this TTP, issued now
        // and sent in the body of the later response frame.
        let receipt_req =
            self.engine
                .issue_and_store(TokenKind::TtpReceipt, msg.run_id, req_digest)?;

        let (response, server_nro_resp, inner_receipts) = match &self.next_hop {
            None => {
                // Terminal: invoke the server with the direct protocol,
                // acting as the client's proxy.
                let direct = DirectClient::new(
                    Arc::clone(self.engine.party()),
                    Arc::clone(
                        self.engine
                            .coordinator()
                            .expect("ttp engine has a coordinator"),
                    ),
                );
                let outcome = direct.invoke(&step1.server, step1.request.clone())?;
                (outcome.response, outcome.nro_resp, Vec::new())
            }
            Some(next) => {
                // Relay: forward the original message unchanged — a
                // TTP-role session, so the originator's signature travels
                // end-to-end.
                let relay = self.engine.session::<Ttp, RelayChoreography>(msg.run_id);
                let (reply, _end) = relay.forward(next, &msg)?;
                let inner: InlineResp = self.engine.decode_body(&reply.body)?;
                // The next hop's response receipt rode its frame; relayed
                // on, it joins the body.
                let mut receipts = inner.receipts;
                receipts.extend(reply.tokens);
                (inner.response, inner.server_nro_resp, receipts)
            }
        };
        let resp_digest = sha256_encoded(|w| response.encode(w));
        let mut receipts = vec![receipt_req];
        receipts.extend(inner_receipts);
        let body = InlineResp {
            response,
            server_nro_resp,
            receipts,
        };
        // This hop's response receipt rides the response frame.
        let msg2 = self.engine.request_frame(
            msg.run_id,
            2,
            body.encode_to_vec(),
            &[TokenSpec::new(
                TokenKind::TtpReceipt,
                msg.run_id,
                resp_digest,
            )],
        )?;
        self.runs.record_response(msg.run_id, &msg2, None);
        Ok(msg2)
    }
}

impl ProtocolHandler for InlineTtpHandler {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(PROTOCOL_ID)
    }

    fn process(&self, _from: &OrgId, _msg: ProtocolMessage) -> Result<(), ProtocolError> {
        Err(ProtocolError::BadMessage(
            "inline-ttp has no one-way steps".into(),
        ))
    }

    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        match msg.step {
            1 => self.handle_step1(from, msg),
            step => Err(ProtocolError::BadMessage(format!("unexpected step {step}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::direct::DirectServerHandler;
    use crate::party::StaticKeyDirectory;
    use nonrep_net::bus::LocalBus;
    use nonrep_net::retry::{ReliableRequester, RetryPolicy};
    use nonrep_types::time::LogicalClock;

    struct World {
        bus: Arc<LocalBus>,
        clock: LogicalClock,
        dir: Arc<StaticKeyDirectory>,
    }

    impl World {
        fn new() -> Self {
            Self {
                bus: LocalBus::new(),
                clock: LogicalClock::new(),
                dir: Arc::new(StaticKeyDirectory::new()),
            }
        }

        fn coordinator(&self, org: &str) -> Arc<B2BCoordinator> {
            let c = B2BCoordinator::new(
                org,
                ReliableRequester::new(self.bus.clone(), RetryPolicy::new(6)),
            );
            self.bus.register(OrgId::new(org), c.clone());
            c
        }
    }

    fn echo_server(world: &World, name: &str, seed: u64) -> Arc<Party> {
        let party = Party::quick(name, seed, &world.clock, &world.dir);
        let coord = world.coordinator(name);
        let handler = DirectServerHandler::new(
            party.clone(),
            Arc::new(|_: &OrgId, req: &[u8]| Ok([b"res:", req].concat())),
        );
        coord.register_handler(handler);
        party
    }

    #[test]
    fn single_inline_ttp_fig3a() {
        let world = World::new();
        let client_party = Party::quick("client", 1, &world.clock, &world.dir);
        let ttp_party = Party::quick("ttp", 2, &world.clock, &world.dir);
        let _server_party = echo_server(&world, "server", 3);

        let ttp_coord = world.coordinator("ttp");
        ttp_coord.register_handler(InlineTtpHandler::terminal(
            ttp_party.clone(),
            ttp_coord.clone(),
        ));
        let client_coord = world.coordinator("client");
        let client = InlineTtpClient::new(client_party.clone(), client_coord, OrgId::new("ttp"));

        let out = client
            .invoke(&OrgId::new("server"), b"req".to_vec())
            .unwrap();
        assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
        // Two TTP receipts (request + response).
        assert_eq!(out.receipts.len(), 2);
        assert!(out.receipts.iter().all(|r| r.issuer == OrgId::new("ttp")));
        // Client log: own NRO + 2 receipts bound to the outer run, plus the
        // server's NRO_resp (bound to the TTP↔server inner run).
        assert_eq!(client_party.log().by_run(&out.run_id).len(), 3);
        assert_eq!(client_party.log().len(), 4);
        // TTP log holds the full audit trail of both legs: client NRO +
        // 2 own receipts (outer run) + 4 direct-leg tokens (inner run).
        assert_eq!(ttp_party.log().by_run(&out.run_id).len(), 3);
        assert_eq!(ttp_party.log().len(), 7);
    }

    #[test]
    fn distributed_inline_ttp_fig3b() {
        let world = World::new();
        let client_party = Party::quick("client", 1, &world.clock, &world.dir);
        let ttp_a_party = Party::quick("ttp-a", 2, &world.clock, &world.dir);
        let ttp_b_party = Party::quick("ttp-b", 3, &world.clock, &world.dir);
        let _server_party = echo_server(&world, "server", 4);

        let coord_b = world.coordinator("ttp-b");
        coord_b.register_handler(InlineTtpHandler::terminal(
            ttp_b_party.clone(),
            coord_b.clone(),
        ));
        let coord_a = world.coordinator("ttp-a");
        coord_a.register_handler(InlineTtpHandler::relay(
            ttp_a_party.clone(),
            coord_a.clone(),
            OrgId::new("ttp-b"),
        ));
        let client_coord = world.coordinator("client");
        let client = InlineTtpClient::new(client_party.clone(), client_coord, OrgId::new("ttp-a"));

        let out = client
            .invoke(&OrgId::new("server"), b"req".to_vec())
            .unwrap();
        assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
        // Four receipts in issue order: A(req), B(req), B(resp), A(resp).
        let issuers: Vec<&str> = out.receipts.iter().map(|r| r.issuer.as_str()).collect();
        assert_eq!(issuers, ["ttp-a", "ttp-b", "ttp-b", "ttp-a"]);
        // Both TTPs logged their legs.
        assert!(ttp_a_party.log().len() >= 3);
        assert!(ttp_b_party.log().len() >= 3);
    }

    #[test]
    fn ttp_rejects_forged_client_message() {
        let world = World::new();
        let client_party = Party::quick("client", 1, &world.clock, &world.dir);
        let ttp_party = Party::quick("ttp", 2, &world.clock, &world.dir);
        let _server = echo_server(&world, "server", 3);
        let ttp_coord = world.coordinator("ttp");
        let handler = InlineTtpHandler::terminal(ttp_party, ttp_coord);

        // NRO over a different request than the one sent.
        let run = client_party.new_run_id();
        let msg = client_party
            .sign_frame(
                ProtocolMessage::new(
                    PROTOCOL_ID,
                    run,
                    1,
                    "client",
                    InlineStep1 {
                        server: OrgId::new("server"),
                        request: b"real".to_vec(),
                    }
                    .encode_to_vec(),
                ),
                &[TokenSpec::new(TokenKind::NroReq, run, sha256(b"other"))],
            )
            .unwrap();
        let err = handler
            .process_request(&OrgId::new("client"), msg)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BadSignature { .. }));
    }

    #[test]
    fn duplicate_request_uses_cached_response() {
        let world = World::new();
        let client_party = Party::quick("client", 1, &world.clock, &world.dir);
        let ttp_party = Party::quick("ttp", 2, &world.clock, &world.dir);
        let _server = echo_server(&world, "server", 3);
        let ttp_coord = world.coordinator("ttp");
        let handler = InlineTtpHandler::terminal(ttp_party, ttp_coord);

        let run = client_party.new_run_id();
        let request = b"dup".to_vec();
        let nro = TokenSpec::new(TokenKind::NroReq, run, sha256(&request));
        let msg = client_party
            .sign_frame(
                ProtocolMessage::new(
                    PROTOCOL_ID,
                    run,
                    1,
                    "client",
                    InlineStep1 {
                        server: OrgId::new("server"),
                        request,
                    }
                    .encode_to_vec(),
                ),
                &[nro],
            )
            .unwrap();
        let r1 = handler
            .process_request(&OrgId::new("client"), msg.clone())
            .unwrap();
        let r2 = handler.process_request(&OrgId::new("client"), msg).unwrap();
        assert_eq!(r1, r2);
    }
}
