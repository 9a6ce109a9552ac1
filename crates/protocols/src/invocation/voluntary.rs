//! The asymmetric "voluntary" baseline protocol.
//!
//! Reproduces the CORBA-filter approach of Wichert et al (paper §5, ref
//! \[23\]): "the client provides the server with non-repudiation of origin of
//! a request but there is no exchange to provide corresponding evidence to
//! the client."
//!
//! ```text
//! client → server : req, NRO_req      (step 1)
//! server → client : resp              (step 2, no evidence)
//! ```
//!
//! The client side is the single-round [`VoluntaryChoreography`]: an
//! *open* reply, because the bare response carries no evidence to
//! verify. The comparison baseline for experiments E8/E11: half the
//! messages and a fraction of the evidence bytes of the direct protocol
//! — and none of the client-side guarantees.
//!
//! Repeating the only round is a compile error — the session is consumed:
//!
//! ```compile_fail
//! use nonrep_protocols::invocation::voluntary::VoluntaryChoreography;
//! use nonrep_protocols::session::{Client, Session};
//! use nonrep_types::ids::OrgId;
//!
//! fn double_send(s: Session<Client, VoluntaryChoreography>, server: &OrgId) {
//!     let _ = s.call_open(server, vec![], &[]);
//!     let _ = s.call_open(server, vec![], &[]); // error[E0382]: use of moved value
//! }
//! ```

use std::fmt;
use std::sync::Arc;

use nonrep_crypto::digest::sha256;
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::handler::ProtocolHandler;
use crate::invocation::{RequestExecutor, RunRegistry, ServerResponse};
use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::scheduler::TokenSpec;
use crate::session::{CallOpen, Client, End, ExchangeEngine, RunJournal};
use crate::tokens::TokenKind;
use crate::{B2BCoordinator, ProtocolError};
use nonrep_types::codec::Encode;

/// Protocol id of the voluntary protocol.
pub const PROTOCOL_ID: &str = "voluntary";

/// The client's choreography: one open request/response round, then
/// seal. The reply frame is deliberately unverified — the baseline
/// offers the client no evidence at all.
pub type VoluntaryChoreography = CallOpen<1, 2, End>;

/// Client side: sends NRO, receives a bare response.
pub struct VoluntaryClient {
    engine: ExchangeEngine,
}

impl fmt::Debug for VoluntaryClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VoluntaryClient({})", self.engine.party().org())
    }
}

/// The client's view of a completed voluntary exchange: a response and the
/// run id — *no* evidence about the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoluntaryOutcome {
    /// The run identifier.
    pub run_id: RunId,
    /// The server's response (unauthenticated at the protocol level).
    pub response: ServerResponse,
}

impl VoluntaryClient {
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

    /// Sends `request` with an NRO token and returns the bare response.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on communication or signing failure.
    pub fn invoke(
        &self,
        server: &OrgId,
        request: Vec<u8>,
    ) -> Result<VoluntaryOutcome, ProtocolError> {
        self.invoke_with(self.engine.party().new_run_id(), server, request)
    }

    /// [`VoluntaryClient::invoke`] under a caller-chosen run identifier
    /// (deterministic scenario harnesses).
    ///
    /// # Errors
    ///
    /// As [`VoluntaryClient::invoke`].
    pub fn invoke_with(
        &self,
        run_id: RunId,
        server: &OrgId,
        request: Vec<u8>,
    ) -> Result<VoluntaryOutcome, ProtocolError> {
        let req_digest = sha256(&request);
        let session = self.engine.session::<Client, VoluntaryChoreography>(run_id);
        let nro_req = TokenSpec::new(TokenKind::NroReq, run_id, req_digest);
        let (msg2, session) = session.call_open(server, request, &[nro_req])?;
        let response: ServerResponse = self.engine.decode_body(&msg2.body)?;
        // Run complete: seal pending evidence if the policy asks for it.
        session.finish()?;
        Ok(VoluntaryOutcome { run_id, response })
    }
}

/// Server side: verifies + stores the client's NRO, executes, answers with
/// a bare response.
pub struct VoluntaryServerHandler {
    engine: ExchangeEngine,
    executor: Arc<dyn RequestExecutor>,
    runs: RunRegistry,
}

impl fmt::Debug for VoluntaryServerHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VoluntaryServerHandler({})", self.engine.party().org())
    }
}

impl VoluntaryServerHandler {
    /// Creates the handler.
    pub fn new(party: Arc<Party>, executor: Arc<dyn RequestExecutor>) -> Arc<Self> {
        Arc::new(Self {
            engine: ExchangeEngine::local(party, PROTOCOL_ID),
            executor,
            runs: RunRegistry::new(),
        })
    }
}

impl ProtocolHandler for VoluntaryServerHandler {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(PROTOCOL_ID)
    }

    fn process(&self, _from: &OrgId, _msg: ProtocolMessage) -> Result<(), ProtocolError> {
        Err(ProtocolError::BadMessage(
            "voluntary protocol has no one-way steps".into(),
        ))
    }

    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        if msg.step != 1 {
            return Err(ProtocolError::BadMessage(format!(
                "unexpected step {}",
                msg.step
            )));
        }
        if let Some(cached) = self.runs.cached_response(&msg.run_id) {
            return Ok(cached);
        }
        self.engine.verify_frame_from(&msg, from)?;
        self.engine
            .party()
            .absorb_carried(&msg, [(TokenKind::NroReq, sha256(&msg.body))])?;
        let response = match self.executor.execute(from, &msg.body) {
            Ok(result) => ServerResponse::Executed(result),
            Err(reason) => ServerResponse::Failed(reason),
        };
        let msg2 = self
            .engine
            .open_frame(msg.run_id, 2, response.encode_to_vec());
        self.runs.record_response(msg.run_id, &msg2, None);
        Ok(msg2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::StaticKeyDirectory;
    use nonrep_net::bus::LocalBus;
    use nonrep_net::retry::{ReliableRequester, RetryPolicy};
    use nonrep_types::time::LogicalClock;

    fn fixture() -> (VoluntaryClient, Arc<Party>, Arc<Party>, OrgId) {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let client_party = Party::quick("client", 1, &clock, &dir);
        let server_party = Party::quick("server", 2, &clock, &dir);
        let bus = LocalBus::new();
        let coord_c = B2BCoordinator::new(
            "client",
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        let coord_s = B2BCoordinator::new(
            "server",
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        let handler = VoluntaryServerHandler::new(
            server_party.clone(),
            Arc::new(|_: &OrgId, req: &[u8]| Ok([b"ok:", req].concat())),
        );
        coord_s.register_handler(handler);
        bus.register(OrgId::new("client"), coord_c.clone());
        bus.register(OrgId::new("server"), coord_s);
        (
            VoluntaryClient::new(client_party.clone(), coord_c),
            client_party,
            server_party,
            OrgId::new("server"),
        )
    }

    #[test]
    fn exchange_completes_with_one_sided_evidence() {
        let (client, client_party, server_party, server) = fixture();
        let out = client.invoke(&server, b"req".to_vec()).unwrap();
        assert_eq!(out.response, ServerResponse::Executed(b"ok:req".to_vec()));
        // The asymmetry: server holds the client's NRO; client holds only
        // its own NRO copy — no token *about the server* at all.
        let server_kinds: Vec<String> = server_party
            .log()
            .by_run(&out.run_id)
            .iter()
            .map(|r| r.draft.kind.clone())
            .collect();
        assert_eq!(server_kinds, vec!["NRO_req"]);
        let client_kinds: Vec<String> = client_party
            .log()
            .by_run(&out.run_id)
            .iter()
            .map(|r| r.draft.kind.clone())
            .collect();
        assert_eq!(client_kinds, vec!["NRO_req"]);
    }

    #[test]
    fn forged_nro_rejected() {
        let (client, client_party, _server_party, server) = fixture();
        drop(client);
        // Build a message whose NRO subject doesn't match the request.
        let run = client_party.new_run_id();
        let nro = TokenSpec::new(TokenKind::NroReq, run, sha256(b"other"));
        let msg = client_party
            .sign_frame(
                ProtocolMessage::new(PROTOCOL_ID, run, 1, "client", b"real".to_vec()),
                &[nro],
            )
            .unwrap();
        // Dispatch directly at a fresh handler.
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        dir.insert(OrgId::new("client"), client_party.keys().verifying_key());
        let sp = Party::quick("server", 5, &clock, &dir);
        let handler = VoluntaryServerHandler::new(sp, Arc::new(|_: &OrgId, _: &[u8]| Ok(vec![])));
        let err = handler
            .process_request(&OrgId::new("client"), msg)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BadSignature { .. }));
        drop(server);
    }

    #[test]
    fn duplicate_requests_are_deduplicated() {
        let (client, _cp, server_party, server) = fixture();
        let out1 = client.invoke(&server, b"a".to_vec()).unwrap();
        let out2 = client.invoke(&server, b"a".to_vec()).unwrap();
        // Distinct runs (fresh run ids), both logged once each.
        assert_ne!(out1.run_id, out2.run_id);
        assert_eq!(server_party.log().len(), 2);
    }
}
