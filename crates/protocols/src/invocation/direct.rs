//! The direct three-message NR-invocation protocol (paper §3.2).
//!
//! ```text
//! client interceptor → server interceptor : req,  NRO_req          (step 1)
//! server interceptor → client interceptor : resp, NRR_req, NRO_resp (step 2)
//! client interceptor → server interceptor : NRR_resp               (step 3)
//! server interceptor → client interceptor : ack                    (step 4)
//! ```
//!
//! The client side is the [`DirectChoreography`] session type — a
//! signed request/reply round followed by a lossy receipt/ack round —
//! driven by the shared [`ExchangeEngine`]: steps 1/2 ride one
//! `deliverRequest`, steps 3/4 a second. Each signed frame carries the
//! tokens its sender issues at that step, under one signature in batched
//! mode; the bodies are the request, the encoded [`ServerResponse`], and
//! nothing. The server caches step 2 per run, so a client retry after a
//! lost response re-collects the identical message without re-executing
//! the request (at-most-once, §3.2). Each side verifies every peer token
//! before persisting it; a bad token aborts the exchange (interceptor
//! assumption 4: well-constructed messages only).
//!
//! Sending the receipt before the request is a compile error:
//!
//! ```compile_fail
//! use nonrep_protocols::invocation::direct::DirectChoreography;
//! use nonrep_protocols::session::{Client, Session};
//! use nonrep_types::ids::OrgId;
//!
//! fn receipt_first(s: Session<Client, DirectChoreography>, server: &OrgId) {
//!     // Step 3 before step 1: the opening state has no `call_lossy`.
//!     let _ = s.call_lossy(server, vec![], &[]);
//! }
//! ```

use std::fmt;
use std::sync::Arc;

use nonrep_crypto::digest::sha256;
use nonrep_types::codec::Encode;
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::handler::ProtocolHandler;
use crate::invocation::{AnsweredRun, RequestExecutor, RunRegistry, ServerResponse};
use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::scheduler::TokenSpec;
use crate::session::{Call, CallLossy, Client, End, ExchangeEngine, RunJournal};
use crate::tokens::{NrToken, TokenKind};
use crate::{B2BCoordinator, ProtocolError};

/// Protocol id of the direct protocol.
pub const PROTOCOL_ID: &str = "direct";

/// The client's choreography: signed request/evidence round (steps
/// 1/2), then a lossy receipt/ack round (steps 3/4), then seal.
pub type DirectChoreography = Call<1, 2, CallLossy<3, 4, End>>;

/// The client's view of a completed exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectOutcome {
    /// The run identifier.
    pub run_id: RunId,
    /// The server's response.
    pub response: ServerResponse,
    /// Server's receipt for the request (client evidence).
    pub nrr_req: NrToken,
    /// Server's origin token for the response (client evidence).
    pub nro_resp: NrToken,
    /// `true` if the server acknowledged the client's final receipt.
    pub receipt_acked: bool,
}

/// Client side of the direct protocol.
pub struct DirectClient {
    engine: ExchangeEngine,
}

impl fmt::Debug for DirectClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DirectClient({})", self.engine.party().org())
    }
}

impl DirectClient {
    /// Creates a client executing through `coordinator`.
    pub fn new(party: Arc<Party>, coordinator: Arc<B2BCoordinator>) -> Self {
        Self {
            engine: ExchangeEngine::new(party, coordinator, PROTOCOL_ID),
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

    /// Runs the full exchange for `request` against `server`.
    ///
    /// On success the client holds verified `NRR_req` and `NRO_resp`
    /// tokens, and its own `NRO_req`/`NRR_resp` are persisted — the
    /// complete §3.2 evidence set.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Net`] on communication failure (after retries),
    /// [`ProtocolError::Rejected`] if the server refuses the request,
    /// [`ProtocolError::BadSignature`] or [`ProtocolError::BadMessage`]
    /// on bad peer evidence, [`ProtocolError::Signing`] or
    /// [`ProtocolError::Storage`] on signing/persistence failure. If the
    /// error occurs after step 2 the client has already persisted the
    /// server's evidence.
    pub fn invoke(&self, server: &OrgId, request: Vec<u8>) -> Result<DirectOutcome, ProtocolError> {
        self.invoke_with(self.engine.party().new_run_id(), server, request)
    }

    /// [`DirectClient::invoke`] under a caller-chosen run identifier.
    ///
    /// Scenario harnesses derive run ids from their seed so that replays
    /// and schedule permutations adjudicate identical runs.
    ///
    /// # Errors
    ///
    /// As [`DirectClient::invoke`].
    pub fn invoke_with(
        &self,
        run_id: RunId,
        server: &OrgId,
        request: Vec<u8>,
    ) -> Result<DirectOutcome, ProtocolError> {
        let req_digest = sha256(&request);
        let session = self.engine.session::<Client, DirectChoreography>(run_id);

        // Step 1: request + NRO_req; steps 1/2 ride one deliverRequest
        // (with retries; the server caches its reply per run).
        let nro_req = TokenSpec::new(TokenKind::NroReq, run_id, req_digest);
        let (msg2, mut session) = session.call(server, request, &[nro_req])?;
        let response: ServerResponse = self.engine.decode_body(&msg2.body)?;

        // Verify the server's evidence; it is persisted with the receipt
        // below, in one write, before the receipt leaves.
        let resp_digest = sha256(&msg2.body);
        session.absorb_carried(
            &msg2,
            [
                (TokenKind::NrrReq, req_digest),
                (TokenKind::NroResp, resp_digest),
            ],
        )?;
        let [nrr_req, nro_resp] = msg2.tokens.try_into().expect("absorbed: two tokens");

        // Step 3: client receipt for the response. The exchange is
        // already complete for the client; a lost ack only means the
        // server may chase the receipt (it has evidence that the
        // response was produced, §3.2).
        let nrr_resp = TokenSpec::new(TokenKind::NrrResp, run_id, resp_digest);
        let (receipt_acked, session) = session.call_lossy(server, Vec::new(), &[nrr_resp])?;

        // The run is complete for the client: let the commitment policy
        // seal its evidence (no-op in per-record mode).
        session.finish()?;

        Ok(DirectOutcome {
            run_id,
            response,
            nrr_req,
            nro_resp,
            receipt_acked,
        })
    }
}

/// Server side of the direct protocol: a [`ProtocolHandler`].
pub struct DirectServerHandler {
    engine: ExchangeEngine,
    executor: Arc<dyn RequestExecutor>,
    runs: RunRegistry,
}

impl fmt::Debug for DirectServerHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DirectServerHandler({})", self.engine.party().org())
    }
}

impl DirectServerHandler {
    /// Creates the handler; register it with the server's coordinator.
    pub fn new(party: Arc<Party>, executor: Arc<dyn RequestExecutor>) -> Arc<Self> {
        Arc::new(Self {
            engine: ExchangeEngine::local(party, PROTOCOL_ID),
            executor,
            runs: RunRegistry::default(),
        })
    }

    /// `true` if this server's log holds the client's final receipt for
    /// `run`.
    pub fn receipt_received(&self, run: &RunId) -> bool {
        AnsweredRun::read(self.engine.party(), *run).is_some_and(|r| r.receipt)
    }

    fn handle_step1(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        // Duplicate delivery (client retry): return the cached response
        // without re-executing (at-most-once semantics).
        if let Some(cached) = self.runs.cached_response(self.engine.party(), &msg)? {
            return Ok(cached);
        }
        let req_digest = sha256(&msg.body);
        self.engine
            .party()
            .absorb_carried(&msg, [(TokenKind::NroReq, req_digest)])?;

        // NRO verified: the request is "made available" to the server.
        // Execute it, turning business failure into evidenced failure.
        let response = match self.executor.execute(from, &msg.body) {
            Ok(result) => ServerResponse::Executed(result),
            Err(reason) => ServerResponse::Failed(reason),
        };
        let body = response.encode_to_vec();
        let resp_digest = sha256(&body);

        // The server's token pair rides the response frame: one
        // signature for both tokens and the frame in batched mode.
        let msg2 = self.engine.request_frame(
            msg.run_id,
            2,
            body,
            &[
                TokenSpec::new(TokenKind::NrrReq, msg.run_id, req_digest),
                TokenSpec::new(TokenKind::NroResp, msg.run_id, resp_digest),
            ],
        )?;
        self.runs.record_response(msg.run_id, &msg2);
        Ok(msg2)
    }

    fn handle_step3(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        // The receipt must be the run's client's, over the digest of the
        // response we actually sent; a repeated one is logged once.
        let run = AnsweredRun::for_receipt(self.engine.party(), msg.run_id, from)?;
        if !run.receipt {
            self.engine
                .party()
                .absorb_carried(&msg, [(TokenKind::NrrResp, run.resp_digest)])?;
        }
        Ok(self.engine.open_frame(msg.run_id, 4, Vec::new()))
    }
}

impl ProtocolHandler for DirectServerHandler {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(PROTOCOL_ID)
    }

    fn process(&self, from: &OrgId, msg: ProtocolMessage) -> Result<(), ProtocolError> {
        match msg.step {
            3 => self.handle_step3(from, msg).map(|_| ()),
            step => Err(ProtocolError::BadMessage(format!(
                "unexpected one-way step {step}"
            ))),
        }
    }

    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        match msg.step {
            1 => self.handle_step1(from, msg),
            3 => self.handle_step3(from, msg),
            step => Err(ProtocolError::BadMessage(format!(
                "unexpected request step {step}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::StaticKeyDirectory;
    use nonrep_net::bus::LocalBus;
    use nonrep_net::fault::FaultPlan;
    use nonrep_net::latency::LatencyModel;
    use nonrep_net::retry::{ReliableRequester, RetryPolicy};
    use nonrep_types::time::LogicalClock;
    use parking_lot::Mutex;

    struct Fixture {
        bus: Arc<LocalBus>,
        client: DirectClient,
        client_party: Arc<Party>,
        server_party: Arc<Party>,
        server_handler: Arc<DirectServerHandler>,
        server: OrgId,
        exec_count: Arc<Mutex<u32>>,
        dir: Arc<StaticKeyDirectory>,
    }

    fn fixture_with_bus(bus: Arc<LocalBus>) -> Fixture {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let client_party = Party::quick("client", 1, &clock, &dir);
        let server_party = Party::quick("server", 2, &clock, &dir);
        let server = OrgId::new("server");

        let coord_client = B2BCoordinator::new(
            "client",
            ReliableRequester::new(bus.clone(), RetryPolicy::new(8)),
        );
        let coord_server = B2BCoordinator::new(
            "server",
            ReliableRequester::new(bus.clone(), RetryPolicy::new(8)),
        );
        let exec_count = Arc::new(Mutex::new(0u32));
        let counter = Arc::clone(&exec_count);
        let executor = Arc::new(move |_caller: &OrgId, req: &[u8]| {
            *counter.lock() += 1;
            Ok([b"echo:", req].concat())
        });
        let handler = DirectServerHandler::new(server_party.clone(), executor);
        coord_server.register_handler(handler.clone());
        bus.register(OrgId::new("client"), coord_client.clone());
        bus.register(server.clone(), coord_server);

        Fixture {
            bus,
            client: DirectClient::new(client_party.clone(), coord_client),
            client_party,
            server_party,
            server_handler: handler,
            server,
            exec_count,
            dir,
        }
    }

    fn fixture() -> Fixture {
        fixture_with_bus(LocalBus::new())
    }

    #[test]
    fn full_exchange_produces_all_four_tokens() {
        let fx = fixture();
        let out = fx
            .client
            .invoke(&fx.server, b"order gearbox".to_vec())
            .unwrap();
        assert!(out.receipt_acked);
        assert_eq!(
            out.response,
            ServerResponse::Executed(b"echo:order gearbox".to_vec())
        );
        // Client log: own NRO_req + NRR_resp, server's NRR_req + NRO_resp.
        let client_kinds: Vec<String> = fx
            .client_party
            .log()
            .by_run(&out.run_id)
            .iter()
            .map(|r| r.draft.kind.clone())
            .collect();
        assert_eq!(
            client_kinds,
            vec!["NRO_req", "NRR_req", "NRO_resp", "NRR_resp"]
        );
        // Server log: client's NRO_req + NRR_resp, own NRR_req + NRO_resp.
        let server_kinds: Vec<String> = fx
            .server_party
            .log()
            .by_run(&out.run_id)
            .iter()
            .map(|r| r.draft.kind.clone())
            .collect();
        assert_eq!(
            server_kinds,
            vec!["NRO_req", "NRR_req", "NRO_resp", "NRR_resp"]
        );
        assert!(fx.server_handler.receipt_received(&out.run_id));
        // Both chains verify.
        fx.client_party.log().verify().unwrap();
        fx.server_party.log().verify().unwrap();
        assert_eq!(*fx.exec_count.lock(), 1);
    }

    #[test]
    fn tokens_cross_verify_between_parties() {
        let fx = fixture();
        let out = fx.client.invoke(&fx.server, b"req".to_vec()).unwrap();
        let server_key = fx.client_party.key_of(&fx.server).unwrap();
        assert!(out
            .nrr_req
            .verify(&server_key, Some(TokenKind::NrrReq), Some(out.run_id), None));
        assert!(out.nro_resp.verify(
            &server_key,
            Some(TokenKind::NroResp),
            Some(out.run_id),
            None
        ));
    }

    #[test]
    fn business_failure_is_still_evidenced() {
        let fx = fixture();
        // Replace executor behaviour by deploying a new handler is overkill;
        // instead invoke a request the echo executor cannot fail on — so
        // build a second fixture with a failing executor.
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let client_party = Party::quick("client", 11, &clock, &dir);
        let server_party = Party::quick("server", 12, &clock, &dir);
        let bus = LocalBus::new();
        let coord_client = B2BCoordinator::new(
            "client",
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        let coord_server = B2BCoordinator::new(
            "server",
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        let handler = DirectServerHandler::new(
            server_party.clone(),
            Arc::new(|_: &OrgId, _: &[u8]| Err("out of stock".to_string())),
        );
        coord_server.register_handler(handler);
        bus.register(OrgId::new("client"), coord_client.clone());
        bus.register(OrgId::new("server"), coord_server);
        let client = DirectClient::new(client_party.clone(), coord_client);
        let out = client
            .invoke(&OrgId::new("server"), b"order".to_vec())
            .unwrap();
        assert_eq!(out.response, ServerResponse::Failed("out of stock".into()));
        // Failure outcome still has the full evidence set.
        assert_eq!(client_party.log().by_run(&out.run_id).len(), 4);
        drop(fx);
    }

    #[test]
    fn lossy_channel_exchange_completes_without_double_execution() {
        // 50% drops bounded at 3 consecutive; 8 retry attempts.
        let bus = LocalBus::with_config(
            FaultPlan::lossy(0.5, 3, 77).with_response_drop_share(0.5),
            LatencyModel::Zero,
            0,
        );
        let fx = fixture_with_bus(bus);
        for i in 0..10 {
            let out = fx
                .client
                .invoke(&fx.server, format!("req-{i}").into_bytes())
                .unwrap();
            assert!(matches!(out.response, ServerResponse::Executed(_)));
        }
        // At-most-once: despite retried deliveries, each request executed once.
        assert_eq!(*fx.exec_count.lock(), 10);
        assert!(
            fx.bus.stats().dropped > 0,
            "fault injection must have fired"
        );
    }

    /// Answers step 1 through the real server, then refuses the receipt.
    struct RefuseReceipt(Arc<DirectServerHandler>);

    impl ProtocolHandler for RefuseReceipt {
        fn protocol(&self) -> ProtocolId {
            self.0.protocol()
        }
        fn process(&self, from: &OrgId, msg: ProtocolMessage) -> Result<(), ProtocolError> {
            self.0.process(from, msg)
        }
        fn process_request(
            &self,
            from: &OrgId,
            msg: ProtocolMessage,
        ) -> Result<ProtocolMessage, ProtocolError> {
            match msg.step {
                3 => Err(ProtocolError::Rejected("receipt refused".into())),
                _ => self.0.process_request(from, msg),
            }
        }
    }

    #[test]
    fn refused_receipt_reads_as_a_lost_ack() {
        // The exchange is complete for the client once step 2 is
        // verified: a server refusing the step-3 receipt costs only the
        // ack, exactly like a lost one.
        let fx = fixture();
        let coord = B2BCoordinator::new(
            "server",
            ReliableRequester::new(fx.bus.clone(), RetryPolicy::new(8)),
        );
        coord.register_handler(Arc::new(RefuseReceipt(fx.server_handler.clone())));
        fx.bus.register(fx.server.clone(), coord);
        let out = fx.client.invoke(&fx.server, b"req".to_vec()).unwrap();
        assert!(!out.receipt_acked);
        assert!(!fx.server_handler.receipt_received(&out.run_id));
    }

    #[test]
    fn unknown_client_rejected_as_refusal() {
        let fx = fixture();
        // A party whose key the server does not know.
        let clock = LogicalClock::new();
        let rogue_dir = Arc::new(StaticKeyDirectory::new());
        let rogue = Party::quick("rogue", 99, &clock, &rogue_dir);
        // Rogue knows the server key (copies the directory entry) but not
        // vice versa.
        rogue_dir.insert(
            fx.server.clone(),
            fx.client_party.key_of(&fx.server).unwrap(),
        );
        let coord = B2BCoordinator::new(
            "rogue",
            ReliableRequester::new(fx.bus.clone(), RetryPolicy::new(2)),
        );
        fx.bus.register(OrgId::new("rogue"), coord.clone());
        let client = DirectClient::new(rogue, coord);
        let err = client.invoke(&fx.server, b"req".to_vec()).unwrap_err();
        // The remote handler's refusal reaches the caller as a refusal.
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err:?}");
        assert_eq!(*fx.exec_count.lock(), 0, "request must not execute");
    }

    #[test]
    fn duplicate_step1_returns_cached_response() {
        let fx = fixture();
        let run = fx.client_party.new_run_id();
        let request = b"idempotent".to_vec();
        let nro = TokenSpec::new(TokenKind::NroReq, run, sha256(&request));
        let msg1 = fx
            .client_party
            .sign_frame(
                ProtocolMessage::new(PROTOCOL_ID, run, 1, "client", request),
                &[nro],
            )
            .unwrap();
        let from = OrgId::new("client");
        let r1 = fx
            .server_handler
            .process_request(&from, msg1.clone())
            .unwrap();
        let r2 = fx.server_handler.process_request(&from, msg1).unwrap();
        assert_eq!(
            r1.encode_to_vec(),
            r2.encode_to_vec(),
            "byte-identical resend"
        );
        assert_eq!(*fx.exec_count.lock(), 1);
    }

    #[test]
    fn a_cached_reply_goes_only_to_the_runs_client() {
        // Another registered org's signed step-1 frame names the client's
        // run: it is refused, and neither executes nor logs anything.
        let fx = fixture();
        let out = fx.client.invoke(&fx.server, b"order".to_vec()).unwrap();
        let other = Party::quick("other", 7, &LogicalClock::new(), &fx.dir);
        let nro = TokenSpec::new(TokenKind::NroReq, out.run_id, sha256(b"peek"));
        let frame = ProtocolMessage::new(PROTOCOL_ID, out.run_id, 1, "other", b"peek".to_vec());
        let msg1 = other.sign_frame(frame, &[nro]).unwrap();
        let logged = fx.server_party.log().len();
        let err = fx
            .server_handler
            .process_request(&OrgId::new("other"), msg1)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err:?}");
        assert_eq!(*fx.exec_count.lock(), 1);
        assert_eq!(fx.server_party.log().len(), logged);
    }

    #[test]
    fn a_rebuilt_server_reads_the_receipt_from_its_log() {
        // A handler built again over the same party reports the logged
        // receipt, and acks a re-sent one without storing it again.
        let fx = fixture();
        let out = fx.client.invoke(&fx.server, b"order".to_vec()).unwrap();
        let rebuilt = DirectServerHandler::new(
            fx.server_party.clone(),
            Arc::new(|_: &OrgId, req: &[u8]| Ok(req.to_vec())),
        );
        assert!(rebuilt.receipt_received(&out.run_id));
        let nrr = TokenSpec::new(TokenKind::NrrResp, out.run_id, out.nro_resp.subject);
        let frame = ProtocolMessage::new(PROTOCOL_ID, out.run_id, 3, "client", Vec::new());
        let msg3 = fx.client_party.sign_frame(frame, &[nrr]).unwrap();
        let logged = fx.server_party.log().len();
        let ack = rebuilt
            .process_request(&OrgId::new("client"), msg3)
            .unwrap();
        assert_eq!(ack.step, 4);
        assert_eq!(fx.server_party.log().len(), logged);
    }

    #[test]
    fn batched_server_caches_its_reply_sized_to_fit() {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let client = Party::quick_batched("client", 1, &clock, &dir);
        let server = Party::quick_batched("server", 2, &clock, &dir);
        let executor = Arc::new(|_caller: &OrgId, req: &[u8]| Ok(req.to_vec()));
        let handler = DirectServerHandler::new(server.clone(), executor);
        let run = client.new_run_id();
        let request = b"idempotent".to_vec();
        let nro = TokenSpec::new(TokenKind::NroReq, run, sha256(&request));
        let msg1 = client
            .sign_frame(
                ProtocolMessage::new(PROTOCOL_ID, run, 1, "client", request),
                &[nro],
            )
            .unwrap();
        let from = OrgId::new("client");
        let r1 = handler.process_request(&from, msg1.clone()).unwrap();
        let r2 = handler.process_request(&from, msg1).unwrap();
        assert_eq!(r1, r2, "a duplicate delivery gets the first reply");
        let key = server.keys().verifying_key();
        assert_eq!(r2.tokens.len(), 2);
        for t in &r2.tokens {
            assert!(t.signature.batch().is_some());
            assert!(t.verify(&key, None, Some(run), None), "{} alone", t.kind);
        }
        let replies = handler.runs.replies.lock();
        let cached = &replies[&run];
        assert_eq!(cached.capacity(), cached.len());
        assert_eq!(*cached, r1.encode_to_vec());
        // The server stored the client's token and its own two through
        // `Party::store_token`, each payload sized to fit.
        let records = server.log().by_run(&run);
        assert_eq!(records.len(), 3);
        for r in &records {
            assert_eq!(r.draft.payload.capacity(), r.draft.payload.len());
        }
    }

    #[test]
    fn receipt_for_unknown_run_rejected() {
        let fx = fixture();
        let run = fx.client_party.new_run_id();
        let msg3 = fx
            .client_party
            .sign_frame(
                ProtocolMessage::new(PROTOCOL_ID, run, 3, "client", Vec::new()),
                &[TokenSpec::new(TokenKind::NrrResp, run, sha256(b"x"))],
            )
            .unwrap();
        assert!(matches!(
            fx.server_handler
                .process_request(&OrgId::new("client"), msg3),
            Err(ProtocolError::UnknownRun(_))
        ));
    }

    /// Leaves each side spends on one exchange, as `KeyPair::remaining`
    /// deltas, and the epoch seals among them.
    fn leaves_per_exchange(batched: bool) -> ((u32, u64), (u32, u64)) {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let party = |org: &str, seed: u64| {
            if batched {
                Party::quick_batched(org, seed, &clock, &dir)
            } else {
                Party::quick(org, seed, &clock, &dir)
            }
        };
        let client_party = party("client", 1);
        let server_party = party("server", 2);
        let bus = LocalBus::new();
        let coord = |org: &str| {
            let c = B2BCoordinator::new(
                org,
                ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
            );
            bus.register(OrgId::new(org), c.clone());
            c
        };
        let client_coord = coord("client");
        coord("server").register_handler(DirectServerHandler::new(
            server_party.clone(),
            Arc::new(|_: &OrgId, req: &[u8]| Ok(req.to_vec())),
        ));
        let remaining = |p: &Party| p.keys().remaining().unwrap();
        let epochs = |p: &Party| p.log().count_where(&|r| r.is_epoch_commit());
        let before = (remaining(&client_party), remaining(&server_party));
        DirectClient::new(client_party.clone(), client_coord)
            .invoke(&OrgId::new("server"), b"req".to_vec())
            .unwrap();
        (
            (before.0 - remaining(&client_party), epochs(&client_party)),
            (before.1 - remaining(&server_party), epochs(&server_party)),
        )
    }

    #[test]
    fn each_signed_step_spends_one_leaf_in_batched_mode() {
        // Steps 1 and 3 for the client, step 2 for the server: each frame
        // shares one leaf with the tokens it carries, and one exchange
        // fills no epoch.
        let ((client, client_seals), (server, server_seals)) = leaves_per_exchange(true);
        assert_eq!((client, client_seals), (2, 0));
        assert_eq!((server, server_seals), (1, 0));
        // Per-record mode: one leaf per token and one per frame.
        let ((client, client_seals), (server, server_seals)) = leaves_per_exchange(false);
        assert_eq!((client, client_seals), (4, 0));
        assert_eq!((server, server_seals), (3, 0));
    }

    /// Device barriers per op of each side of `ops` direct exchanges
    /// between two parties over write-through `FileLog`s (the client
    /// journalled if `journalled`). The server's executor checks that the
    /// request's `NRO_req` is on disk before the request executes.
    fn write_through_barriers(tag: &str, journalled: bool, ops: u64) -> (u64, u64) {
        use nonrep_crypto::rng::SecureRandom;
        use nonrep_store::{EvidenceLog, FileLog};
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let bus = LocalBus::new();
        let file = |org: &str| {
            let name = format!("nonrep-direct-{tag}-{org}-{}.log", std::process::id());
            let path = std::env::temp_dir().join(name);
            let _ = std::fs::remove_file(&path);
            path
        };
        let durable = |org: &str, seed: u64| {
            let path = file(org);
            let keys = Party::quick(org, seed, &clock, &dir).keys().clone();
            let log = Arc::new(FileLog::open(&path).unwrap());
            let rng = SecureRandom::from_seed(seed);
            let party = Party::new(
                org,
                keys,
                Arc::new(clock.clone()),
                log.clone(),
                dir.clone(),
                rng,
            );
            (party, log, path)
        };
        let (client_party, client_log, client_path) = durable("client", 1);
        let (server_party, server_log, server_path) = durable("server", 2);
        let coord = |org: &str| {
            let c = B2BCoordinator::new(
                org,
                ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
            );
            bus.register(OrgId::new(org), c.clone());
            c
        };
        let on_disk = server_path.clone();
        coord("server").register_handler(DirectServerHandler::new(
            server_party,
            Arc::new(move |_: &OrgId, req: &[u8]| {
                let logged = FileLog::open(&on_disk).unwrap().records();
                let last = logged.last().expect("the request's NRO_req is logged");
                assert_eq!(last.draft.kind, TokenKind::NroReq.label());
                assert_eq!(last.draft.content_digest, sha256(req));
                Ok(req.to_vec())
            }),
        ));
        let mut client = DirectClient::new(client_party.clone(), coord("client"));
        if journalled {
            client = client.with_journal(RunJournal::new(client_party));
        }
        for _ in 0..ops {
            let out = client.invoke(&OrgId::new("server"), b"req".to_vec());
            assert!(out.unwrap().receipt_acked);
        }
        let per_op = (
            client_log.sync_batches() / ops,
            server_log.sync_batches() / ops,
        );
        drop((client, client_log, server_log));
        let _ = std::fs::remove_file(client_path);
        let _ = std::fs::remove_file(server_path);
        per_op
    }

    #[test]
    fn a_write_through_op_waits_on_one_barrier_per_step() {
        // Client: {NRO_req}, then {NRR_req, NRO_resp, NRR_resp}. Server:
        // {NRO_req} before executing, {NRR_req, NRO_resp}, {NRR_resp}.
        let (client, server) = write_through_barriers("plain", false, 3);
        assert!(client + server <= 5, "{client} + {server} barriers per op");
        assert_eq!((client, server), (2, 3));
    }

    #[test]
    fn journal_markers_ride_their_steps_write() {
        // The step-1 marker joins the step-3 batch; the step-3 marker and
        // the close marker share one write.
        let (client, _) = write_through_barriers("journalled", true, 3);
        assert!(client <= 3, "{client} barriers per journalled client op");
    }

    #[test]
    fn bad_step_rejected() {
        let fx = fixture();
        let msg = ProtocolMessage::new(PROTOCOL_ID, RunId::from_u128(1), 9, "client", vec![]);
        assert!(matches!(
            fx.server_handler
                .process_request(&OrgId::new("client"), msg),
            Err(ProtocolError::BadMessage(_))
        ));
    }
}
