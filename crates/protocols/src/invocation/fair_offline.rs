//! Fair NR-invocation with an *offline* TTP.
//!
//! The paper's stronger trust domain (§3.1): the TTP is "not directly
//! involved in all communication between the parties but may be called upon
//! to resolve or abort a protocol run to deliver fairness and/or liveness
//! guarantees to honest parties". The construction follows the
//! Zhou–Gollmann key-escrow idea (paper refs \[12\]/\[26\]):
//!
//! ```text
//! main protocol
//!   1  C → S : req, NRO_req
//!      S → T : escrow(run, K)            — key deposited before commitment
//!      T → S : escrow_ack (signed)
//!   2  S → C : enc_K(resp), NRR_req, NRO_resp, escrow_ack
//!   3  C → S : NRR_resp                  — client commits; it can now
//!                                          always recover K from T
//!   4  S → C : K                         — normal completion
//!
//! recovery sub-protocols at T — the first fixes the run's outcome, and
//! every later one is answered with it
//!   resolve (C) : present NRR_resp  → K and a signed dispute *decision*
//!                                     naming the defecting server
//!                                     (if aborted: T's Abort token)
//!   abort   (S) :                   → T's Abort token (if resolved: NRR_resp)
//! ```
//!
//! **Fairness**: after step 3 the server can always obtain `NRR_resp` (from
//! C, or from T as the answer to its abort), and the client can obtain `K`
//! from S or T — a wrong key at step 4 counts as a withheld one (the
//! acceptance check decrypts against the committed digest before believing
//! it), so garbage diverts to the TTP exactly like silence. One race is
//! inherent to an *offline* TTP: a server that collects the receipt
//! directly and then wins an abort race at T leaves the client without `K`.
//! That interleaving is not prevented but it is **adjudicable**: pulling it
//! off plants the client's `NRR_resp` next to the TTP's `Abort` token in
//! the server's own evidence log, and the core adjudicator's
//! `Finding::AbortedAfterReceipt` convicts exactly that combination — the
//! server cannot use the receipt without self-incrimination. An honest
//! server never trips the rule: once it aborts, a late receipt is refused.
//! Before step 3 neither party holds the other's item — aborting is
//! harmless.
//!
//! The client side is the [`FairChoreography`]: a signed opening round,
//! then a *branching* step — the receipt round either completes normally
//! (step 4 delivers the key) or diverts into the
//! [`ResolveChoreography`], the optimistic **dispute sub-protocol**. A
//! TTP resolution is itself evidence: the resolve ack carries a signed
//! [`TokenKind::Decision`] over [`defection_digest`]`(server, run)`,
//! convicting the defector from the sealed record alone.
//!
//! The branch order is fixed by the types — escalating to the TTP before
//! the exchange even starts is a compile error:
//!
//! ```compile_fail
//! use nonrep_protocols::invocation::fair_offline::FairChoreography;
//! use nonrep_protocols::session::{Client, Session};
//! use nonrep_types::ids::OrgId;
//!
//! fn dispute_first(s: Session<Client, FairChoreography>, ttp: &OrgId) {
//!     // The opening state only offers `call`; the dispute branch is
//!     // reachable only through the receipt round.
//!     let _ = s.call_or(ttp, vec![], &[], |_| true); // error: no method `call_or`
//! }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use nonrep_crypto::digest::{sha256, Digest};
use nonrep_crypto::stream::xor_keystream;
use nonrep_store::MarkerPhase;
use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::handler::ProtocolHandler;
use crate::invocation::{RequestExecutor, RunRegistry, ServerResponse};
use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::scheduler::TokenSpec;
use crate::session::{
    Branch, Call, CallOpen, CallOr, Client, End, EscalationAction, EscalationOutcome,
    ExchangeEngine, ExchangeSupervisor, RunJournal, Server, Session,
};
use crate::tokens::{defection_digest, NrToken, TokenKind};
use crate::{B2BCoordinator, ProtocolError};

/// `true` if a TTP call got no answer: a transport fault, or this
/// party's own signing or storage fault.
fn unanswered(e: &ProtocolError) -> bool {
    use ProtocolError::{Net, Signing, Storage};
    matches!(e, Net(_) | Signing(_) | Storage(_))
}

/// A failed TTP call as its caller reports it: an [`unanswered`] call's
/// own error, else the call site's `refusal` (a refusal carries no
/// outcome: wrong party, forged receipt, unknown run).
fn ttp_refusal(e: ProtocolError, refusal: ProtocolError) -> ProtocolError {
    match e {
        e if unanswered(&e) => e,
        _ => refusal,
    }
}

/// Protocol id of the fair offline-TTP protocol.
pub const PROTOCOL_ID: &str = "fair-offline";

// Step numbers. 1–4 are the main exchange; 10+ are TTP sub-protocols.
/// Step 1: client's request + `NRO_req`.
pub const STEP_REQUEST: u32 = 1;
/// Step 2: encrypted response + evidence + escrow ack.
pub const STEP_RESPONSE: u32 = 2;
/// Step 3: client's `NRR_resp` (the commitment point).
pub const STEP_RECEIPT: u32 = 3;
/// Step 4: the decryption key, in the honest completion.
pub const STEP_KEY: u32 = 4;
/// Server deposits the key with the TTP.
const STEP_ESCROW: u32 = 10;
/// TTP acknowledges the escrow (signed token in the body).
const STEP_ESCROW_ACK: u32 = 11;
/// Client escalates: presents the receipt, demands the key.
pub const STEP_RESOLVE: u32 = 20;
/// TTP answers with the run's outcome (K + decision, or its `Abort`).
pub const STEP_RESOLVE_ACK: u32 = 21;
/// Server asks the TTP to kill an unresolved run.
const STEP_ABORT: u32 = 30;
/// TTP answers with the run's outcome (its `Abort`, or `NRR_resp`).
const STEP_ABORT_ACK: u32 = 31;

/// The dispute sub-protocol: one open round at the TTP. The ack frame is
/// unsigned — the `ResolveAck` payload carries the TTP's signed
/// [`TokenKind::Decision`] (or its `Abort` token), which is the evidence
/// that matters.
pub type ResolveChoreography = CallOpen<STEP_RESOLVE, STEP_RESOLVE_ACK, End>;

/// The client's choreography: signed request round, then the receipt
/// round branches — an acceptable step-4 key completes normally, any
/// defection diverts into the [`ResolveChoreography`].
pub type FairChoreography =
    Call<STEP_REQUEST, STEP_RESPONSE, CallOr<STEP_RECEIPT, STEP_KEY, End, ResolveChoreography>>;

/// What [`FairChoreography`]'s opening round leaves the client: the
/// session at the receipt round, the step-2 body, and the server's
/// `NRR_req` / `NRO_resp`.
type Opened = (
    Session<Client, CallOr<STEP_RECEIPT, STEP_KEY, End, ResolveChoreography>>,
    FairStep2,
    [NrToken; 2],
);

/// The server's escrow leg: deposit the key, collect the signed ack.
type EscrowChoreography = CallOpen<STEP_ESCROW, STEP_ESCROW_ACK, End>;

/// The server's abort sub-protocol at the TTP.
type AbortChoreography = CallOpen<STEP_ABORT, STEP_ABORT_ACK, End>;

/// Step-2 body. The server's `NRR_req` and `NRO_resp` (over the
/// plaintext response digest) ride the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairStep2 {
    /// The response encrypted under the escrowed key.
    pub enc_response: Vec<u8>,
    /// Digest of the *plaintext* encoded response.
    pub resp_digest: Digest,
    /// TTP's escrow acknowledgement (proof the key is recoverable),
    /// relayed by the server.
    pub escrow_ack: NrToken,
}

impl Encode for FairStep2 {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.enc_response);
        self.resp_digest.encode(w);
        self.escrow_ack.encode(w);
    }
}

impl Decode for FairStep2 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            enc_response: r.get_bytes()?.to_vec(),
            resp_digest: Digest::decode(r)?,
            escrow_ack: NrToken::decode(r)?,
        })
    }
}

/// Escrow deposit body (server → TTP).
#[derive(Debug, Clone, PartialEq, Eq)]
struct EscrowBody {
    key: [u8; 32],
    resp_digest: Digest,
    client: OrgId,
}

impl Encode for EscrowBody {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.key);
        self.resp_digest.encode(w);
        self.client.encode(w);
    }
}

impl Decode for EscrowBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            key: r.get_raw(32)?.try_into().expect("32 bytes"),
            resp_digest: Digest::decode(r)?,
            client: OrgId::decode(r)?,
        })
    }
}

/// Resolve-ack body (TTP → client): the run's outcome behind a one-byte
/// tag. Resolved: the escrowed `key`, and `token` is the TTP's signed
/// [`TokenKind::Decision`] over [`defection_digest`]`(server, run)`.
/// Aborted first: no key, and `token` is the TTP's `Abort` token.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ResolveAck {
    key: Option<[u8; 32]>,
    token: NrToken,
}

impl Encode for ResolveAck {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.key.is_some());
        if let Some(key) = &self.key {
            w.put_raw(key);
        }
        self.token.encode(w);
    }
}

impl Decode for ResolveAck {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let key = match r.get_bool()? {
            true => Some(r.get_raw(32)?.try_into().expect("32 bytes")),
            false => None,
        };
        Ok(Self {
            key,
            token: NrToken::decode(r)?,
        })
    }
}

/// The client's view of a fair exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairOutcome {
    /// The run identifier.
    pub run_id: RunId,
    /// The decrypted server response.
    pub response: ServerResponse,
    /// Server's receipt for the request.
    pub nrr_req: NrToken,
    /// Server's origin token over the response.
    pub nro_resp: NrToken,
    /// How the client obtained the decryption key.
    pub key_source: KeySource,
}

/// Where the decryption key came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySource {
    /// The server completed step 4 normally.
    Server,
    /// The server defected; the TTP resolved the run and issued a signed
    /// dispute decision against it.
    TtpResolve,
}

/// Client side of the fair offline-TTP protocol.
pub struct FairClient {
    engine: ExchangeEngine,
    ttp: OrgId,
}

impl fmt::Debug for FairClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FairClient({} ttp={})",
            self.engine.party().org(),
            self.ttp
        )
    }
}

impl FairClient {
    /// Creates a client whose recovery TTP is `ttp`.
    pub fn new(party: Arc<Party>, coordinator: Arc<B2BCoordinator>, ttp: OrgId) -> Self {
        Self {
            engine: ExchangeEngine::new(party, coordinator, PROTOCOL_ID),
            ttp,
        }
    }

    /// Enables crash-recovery journalling: every completed step of an
    /// invocation leaves a progress marker in this party's evidence
    /// log, so a crashed client finds the run via
    /// [`RunJournal::recovered_open_runs`] on reopen.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<RunJournal>) -> Self {
        self.engine = self.engine.with_journal(journal);
        self
    }

    /// The engine driving this client (kill-point harnesses journal
    /// recovery decisions through it).
    pub fn engine(&self) -> &ExchangeEngine {
        &self.engine
    }

    /// Runs the fair exchange against `server`.
    ///
    /// If the server defects after collecting the receipt — step 4 never
    /// arrives, or arrives carrying a key that does not decrypt the
    /// committed ciphertext — the session diverts into the dispute
    /// sub-protocol with the TTP; [`FairOutcome::key_source`] records
    /// which path delivered the key, and on the dispute path the TTP's
    /// signed decision against the defector lands in this party's
    /// evidence log.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Aborted`] if the server aborted the run at the TTP —
    /// normally before the client's receipt was committed (harmless), but
    /// a malicious server can also win an abort race *after* collecting
    /// the receipt; that interleaving is convicted at adjudication (see
    /// the module docs). Other [`ProtocolError`]s on bad evidence or
    /// unreachable peers.
    pub fn invoke(&self, server: &OrgId, request: Vec<u8>) -> Result<FairOutcome, ProtocolError> {
        self.invoke_with(self.engine.party().new_run_id(), server, request)
    }

    /// [`FairClient::invoke`] under a caller-chosen run identifier
    /// (deterministic scenario harnesses).
    ///
    /// # Errors
    ///
    /// As [`FairClient::invoke`].
    pub fn invoke_with(
        &self,
        run_id: RunId,
        server: &OrgId,
        request: Vec<u8>,
    ) -> Result<FairOutcome, ProtocolError> {
        self.invoke_paced(run_id, server, request, || ())
    }

    /// [`FairClient::invoke_with`] with a pause hook fired after the
    /// server's step-2 evidence is verified and *before* the receipt is
    /// committed — exactly the window the server's receipt deadline
    /// covers. Harnesses model a slow-but-live client by advancing the
    /// logical clock (and sweeping the supervisor) inside `pause`: a
    /// client that resumes inside the window completes normally and
    /// must never be treated as a staller.
    ///
    /// # Errors
    ///
    /// As [`FairClient::invoke`]; additionally, if the pause outlasted
    /// the server's receipt window the server will have timeout-aborted
    /// the run, surfacing here as [`ProtocolError::Aborted`].
    pub fn invoke_paced(
        &self,
        run_id: RunId,
        server: &OrgId,
        request: Vec<u8>,
        pause: impl FnOnce(),
    ) -> Result<FairOutcome, ProtocolError> {
        // Verify all evidence before committing.
        let (session, step2, [nrr_req, nro_resp]) = self.request_round(run_id, server, request)?;
        // The escrow ack must come from *our* TTP and cover this run.
        if step2.escrow_ack.issuer != self.ttp {
            return Err(ProtocolError::BadMessage(
                "escrow ack not from the agreed TTP".into(),
            ));
        }
        self.engine.absorb(
            &step2.escrow_ack,
            TokenKind::Escrow,
            run_id,
            Some(&step2.resp_digest),
        )?;

        // The receipt window: the server is now committed (key escrowed,
        // evidence issued) and waiting on step 3.
        pause();

        // Step 3: commit the receipt. From here the exchange must end
        // fairly: K from the server, or K + a conviction from the TTP.
        let nrr_resp = TokenSpec::new(TokenKind::NrrResp, run_id, step2.resp_digest);
        // Accept a step-4 body only if it actually decrypts the committed
        // ciphertext: 32 bytes of garbage is a withheld key with extra
        // steps, and diverts to the TTP exactly like silence.
        let branch = session.call_or(server, Vec::new(), &[nrr_resp], |m| {
            <[u8; 32]>::try_from(m.body.as_slice()).is_ok_and(|key| {
                sha256(&xor_keystream(&key, &step2.enc_response)) == step2.resp_digest
            })
        })?;
        let (key, key_source, session) = match branch {
            Branch::Primary(msg4, session) => {
                let key = msg4.body[..].try_into().expect("32 bytes: vetted above");
                (key, KeySource::Server, session)
            }
            // Server defected or vanished: the dispute sub-protocol,
            // presenting the receipt the step-3 frame carried.
            Branch::Diverted(sent, dispute) => {
                let (key, session) = self.resolve(dispute, server, &sent[0])?;
                (key, KeySource::TtpResolve, session)
            }
        };

        let plain = xor_keystream(&key, &step2.enc_response);
        // Primary-path keys were vetted by the branch predicate; this
        // recheck guards the resolve path against a server that escrowed
        // garbage (the client still holds the TTP's signed decision
        // against it by the time this fires).
        if sha256(&plain) != step2.resp_digest {
            return Err(ProtocolError::BadMessage(
                "decrypted response does not match committed digest".into(),
            ));
        }
        let response: ServerResponse = self.engine.decode_body(&plain)?;
        // Run complete (key in hand, evidence stored): let the commitment
        // policy seal it.
        session.finish()?;
        Ok(FairOutcome {
            run_id,
            response,
            nrr_req,
            nro_resp,
            key_source,
        })
    }

    /// The stalling adversary's driver: runs the exchange only through
    /// step 2 — request sent, server evidence collected and verified —
    /// then goes silent forever, never committing the receipt. The
    /// server is left holding an escrowed key and an open receipt
    /// window; its supervisor must timeout-abort the run at the TTP.
    /// Harmless before step 3 by construction: neither party holds the
    /// other's item, so the abort closes the run with no winner and no
    /// false conviction.
    ///
    /// # Errors
    ///
    /// As [`FairClient::invoke`] for steps 1–2.
    pub fn invoke_stalling(
        &self,
        run_id: RunId,
        server: &OrgId,
        request: Vec<u8>,
    ) -> Result<(), ProtocolError> {
        let (session, _, _) = self.request_round(run_id, server, request)?;
        // Silence: the session is dropped mid-choreography (legal at
        // runtime — typestate forbids wrong orders, not walking away).
        drop(session);
        Ok(())
    }

    /// The step-1/2 round: sends `request` with its `NRO_req`, then
    /// verifies and persists the `NRR_req` / `NRO_resp` pair the step-2
    /// frame carries.
    fn request_round(
        &self,
        run_id: RunId,
        server: &OrgId,
        request: Vec<u8>,
    ) -> Result<Opened, ProtocolError> {
        let req_digest = sha256(&request);
        let session = self.engine.session::<Client, FairChoreography>(run_id);
        let nro_req = TokenSpec::new(TokenKind::NroReq, run_id, req_digest);
        let (msg2, session) = session.call(server, request, &[nro_req])?;
        let step2: FairStep2 = self.engine.decode_body(&msg2.body)?;
        self.engine.party().absorb_carried(
            &msg2,
            [
                (TokenKind::NrrReq, req_digest),
                (TokenKind::NroResp, step2.resp_digest),
            ],
        )?;
        let pair = msg2.tokens.try_into().expect("absorbed: two tokens");
        Ok((session, step2, pair))
    }

    /// The dispute sub-protocol: deposit the receipt with the TTP, get
    /// the key and the TTP's signed decision against `server` back — or,
    /// if the server aborted first, the TTP's `Abort` token, which is
    /// logged before the call reports [`ProtocolError::Aborted`].
    fn resolve(
        &self,
        dispute: Session<Client, ResolveChoreography>,
        server: &OrgId,
        nrr_resp: &NrToken,
    ) -> Result<([u8; 32], Session<Client, End>), ProtocolError> {
        let run = dispute.run();
        // A refusal (wrong party, bad receipt, unknown run): the run is
        // dead for this client.
        let (reply, session) = dispute
            .call_open(&self.ttp, nrr_resp.encode_to_vec(), &[])
            .map_err(|e| ttp_refusal(e, ProtocolError::Aborted(run)))?;
        let ack: ResolveAck = self
            .engine
            .decode_body(&reply.body)
            .map_err(|_| ProtocolError::Aborted(run))?;
        // The answer must be the agreed TTP's: its signed conviction of
        // the server we were exchanging with, for *this* run — or, if the
        // server aborted first, its Abort token, kept all the same.
        if ack.token.issuer != self.ttp {
            return Err(ProtocolError::BadMessage(
                "resolve answer not from the agreed TTP".into(),
            ));
        }
        let (kind, subject) = match ack.key {
            Some(_) => (TokenKind::Decision, Some(defection_digest(server, run))),
            None => (TokenKind::Abort, None),
        };
        self.engine
            .absorb(&ack.token, kind, run, subject.as_ref())?;
        let Some(key) = ack.key else {
            return Err(ProtocolError::Aborted(run));
        };
        // Record the TTP's involvement in our own log too.
        self.engine
            .issue_and_store(TokenKind::Resolve, run, sha256(&key))?;
        Ok((key, session))
    }
}

/// Server behaviour knobs for testing defection scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerConduct {
    /// Follow the protocol.
    #[default]
    Honest,
    /// Collect the client's receipt at step 3 but never send the key —
    /// the defection the dispute sub-protocol exists for; a resolving
    /// client walks away with the key *and* the TTP's signed decision
    /// against this server.
    WithholdKey,
    /// Collect the receipt and answer step 4 with a well-formed but
    /// wrong key. The client's acceptance check decrypts against the
    /// committed digest before taking the primary branch, so this is
    /// treated as a withheld key and diverts to the TTP.
    GarbageKey,
    /// Go silent before the key release: the server answers step 3
    /// with no frame at all — the client's round fails (the refusal
    /// reaches it as [`ProtocolError::Rejected`], which is not retried)
    /// and diverts into the dispute sub-protocol exactly like a withheld
    /// key. Distinct from [`ServerConduct::WithholdKey`], which answers
    /// with a frame that carries no key.
    Stall,
}

#[derive(Debug)]
struct FairRunState {
    /// The run's client: the only issuer of an acceptable receipt.
    client: OrgId,
    key: [u8; 32],
    /// The committed response digest: the step-3 receipt must cover it,
    /// or the key is not released (a receipt over an arbitrary digest is
    /// worthless as non-repudiation-of-receipt evidence).
    resp_digest: Digest,
    receipt_received: bool,
    /// Set once this server aborted the run at the TTP; a receipt
    /// arriving afterwards is refused, so an honest server's log never
    /// holds the client's `NRR_resp` alongside an `Abort` token.
    aborted: bool,
}

/// Optional runtime attachments for a fair server: deadline supervision
/// of the receipt window and crash-recovery journalling.
#[derive(Clone, Default)]
pub struct FairServerRuntime {
    /// Supervisor plus the receipt window in clock milliseconds: once
    /// step 2 is sent, the client has this long to commit its receipt
    /// before the server escalates to the TTP's abort choreography.
    pub supervision: Option<(Arc<ExchangeSupervisor>, u64)>,
    /// Crash-recovery journal for the server's own log.
    pub journal: Option<Arc<RunJournal>>,
}

/// The supervisor's escalation for a fair server whose client went
/// silent after the receipt window opened: run the TTP's abort
/// choreography, unless a receipt raced the sweep (the timeout path never
/// pairs `NRR_resp` with `Abort` in an honest server's log). An
/// unanswered abort is retried one receipt window later.
struct FairTimeoutAbort {
    handler: Weak<FairServerHandler>,
}

impl EscalationAction for FairTimeoutAbort {
    fn escalate(&self, run: RunId) -> EscalationOutcome {
        let Some(handler) = self.handler.upgrade() else {
            return EscalationOutcome::Failed("fair server handler dropped".into());
        };
        if handler.receipt_received(&run) {
            return EscalationOutcome::AlreadyComplete;
        }
        match handler.abort(run) {
            Ok(outcome) if outcome.kind == TokenKind::Abort => EscalationOutcome::Aborted,
            Ok(_) => EscalationOutcome::AlreadyComplete,
            Err(e) => {
                if unanswered(&e) {
                    handler.watch_receipt(run);
                }
                EscalationOutcome::Failed(e.to_string())
            }
        }
    }
}

/// Server side of the fair offline-TTP protocol.
pub struct FairServerHandler {
    engine: ExchangeEngine,
    executor: Arc<dyn RequestExecutor>,
    ttp: OrgId,
    conduct: ServerConduct,
    runs: RunRegistry,
    keys: Mutex<HashMap<RunId, FairRunState>>,
    supervision: Option<(Arc<ExchangeSupervisor>, u64)>,
    me: Weak<FairServerHandler>,
}

impl fmt::Debug for FairServerHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FairServerHandler({})", self.engine.party().org())
    }
}

impl FairServerHandler {
    /// Creates the handler (escrowing keys with `ttp`) with its runtime
    /// attachments: a supervisor watching the receipt window (escalating
    /// to the TTP's abort choreography on expiry) and/or a crash-recovery
    /// journal (`FairServerRuntime::default()` for neither).
    pub fn with_runtime(
        party: Arc<Party>,
        coordinator: Arc<B2BCoordinator>,
        executor: Arc<dyn RequestExecutor>,
        ttp: OrgId,
        conduct: ServerConduct,
        runtime: FairServerRuntime,
    ) -> Arc<Self> {
        let mut engine = ExchangeEngine::new(party, coordinator, PROTOCOL_ID);
        if let Some(journal) = runtime.journal {
            engine = engine.with_journal(journal);
        }
        Arc::new_cyclic(|me| Self {
            engine,
            executor,
            ttp,
            conduct,
            runs: RunRegistry::new(),
            keys: Mutex::new(HashMap::new()),
            supervision: runtime.supervision,
            me: me.clone(),
        })
    }

    /// `true` if the client's receipt arrived directly for `run`.
    pub fn receipt_received(&self, run: &RunId) -> bool {
        self.keys
            .lock()
            .get(run)
            .map(|s| s.receipt_received)
            .unwrap_or(false)
    }

    /// Runs the abort sub-protocol for `run` at the TTP, then absorbs and
    /// returns its answer, the run's outcome: the TTP's `Abort` token, or
    /// the client's `NRR_resp` if the client resolved first (the run is
    /// then complete).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Rejected`] if the TTP refused; `BadMessage`,
    /// `BadSignature` or `UnknownRun` if a returned receipt is not this
    /// run's client's over the committed digest; [`ProtocolError::Net`]
    /// if the TTP is unreachable.
    pub fn abort(&self, run: RunId) -> Result<NrToken, ProtocolError> {
        let session = self.engine.session::<Server, AbortChoreography>(run);
        let (reply, _done) = session
            .call_open(&self.ttp, Vec::new(), &[])
            .map_err(|e| ttp_refusal(e, ProtocolError::Rejected("TTP refused the abort".into())))?;
        let token: NrToken = self.engine.decode_body(&reply.body)?;
        if token.kind == TokenKind::NrrResp {
            // The client resolved first: its receipt, checked as at step 3.
            let resp_digest = {
                let keys = self.keys.lock();
                let state = keys.get(&run).ok_or(ProtocolError::UnknownRun(run))?;
                if token.issuer != state.client {
                    return Err(ProtocolError::BadMessage(
                        "relayed receipt not from the run's client".into(),
                    ));
                }
                state.resp_digest
            };
            self.engine
                .absorb(&token, TokenKind::NrrResp, run, Some(&resp_digest))?;
            if let Some(state) = self.keys.lock().get_mut(&run) {
                state.receipt_received = true;
            }
            self.engine
                .journal(run, STEP_RECEIPT, MarkerPhase::Closed)?;
            return Ok(token);
        }
        self.engine.absorb(&token, TokenKind::Abort, run, None)?;
        // The run is dead from our side: refuse a late receipt.
        if let Some(state) = self.keys.lock().get_mut(&run) {
            state.aborted = true;
        }
        // Journalled servers close the run and seal: the abort decision
        // itself must survive a crash.
        self.engine
            .journal(run, STEP_RECEIPT, MarkerPhase::Aborted)?;
        Ok(token)
    }

    /// Arms the receipt-window watch on `run`, if this server is supervised.
    fn watch_receipt(&self, run: RunId) {
        if let Some((supervisor, receipt_window_ms)) = &self.supervision {
            supervisor.watch_for(
                run,
                self.engine.protocol(),
                STEP_RECEIPT,
                *receipt_window_ms,
                Arc::new(FairTimeoutAbort {
                    handler: self.me.clone(),
                }),
            );
        }
    }

    fn handle_step1(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        if let Some(cached) = self.runs.cached_response(&msg.run_id) {
            return Ok(cached);
        }
        self.engine.verify_frame_from(&msg, from)?;
        let req_digest = sha256(&msg.body);
        self.engine
            .party()
            .absorb_carried(&msg, [(TokenKind::NroReq, req_digest)])?;

        let response = match self.executor.execute(from, &msg.body) {
            Ok(result) => ServerResponse::Executed(result),
            Err(reason) => ServerResponse::Failed(reason),
        };
        let plain = response.encode_to_vec();
        let resp_digest = sha256(&plain);
        let key = self.engine.party().fresh_secret();
        let enc_response = xor_keystream(&key, &plain);

        // Escrow the key with the TTP *before* committing to step 2.
        let escrow = EscrowBody {
            key,
            resp_digest,
            client: from.clone(),
        };
        let session = self
            .engine
            .session::<Server, EscrowChoreography>(msg.run_id);
        let (ack, _escrowed) = session
            .call_open(&self.ttp, escrow.encode_to_vec(), &[])
            .map_err(|e| ttp_refusal(e, ProtocolError::BadMessage("TTP refused escrow".into())))?;
        let escrow_ack: NrToken = self.engine.decode_body(&ack.body)?;
        self.engine.absorb(
            &escrow_ack,
            TokenKind::Escrow,
            msg.run_id,
            Some(&resp_digest),
        )?;

        // The server's token pair rides the response frame: one
        // signature for both tokens and the frame in batched mode.
        let msg2 = self.engine.request_frame(
            msg.run_id,
            STEP_RESPONSE,
            FairStep2 {
                enc_response,
                resp_digest,
                escrow_ack,
            }
            .encode_to_vec(),
            &[
                TokenSpec::new(TokenKind::NrrReq, msg.run_id, req_digest),
                TokenSpec::new(TokenKind::NroResp, msg.run_id, resp_digest),
            ],
        )?;
        self.keys.lock().insert(
            msg.run_id,
            FairRunState {
                client: from.clone(),
                key,
                resp_digest,
                receipt_received: false,
                aborted: false,
            },
        );
        self.runs.record_response(msg.run_id, &msg2, None);
        // Step 2 is committed: the receipt window opens.
        self.engine
            .journal(msg.run_id, STEP_RESPONSE, MarkerPhase::Progress)?;
        self.watch_receipt(msg.run_id);
        Ok(msg2)
    }

    fn handle_step3(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        let (key, resp_digest) = {
            let keys = self.keys.lock();
            let state = keys
                .get(&msg.run_id)
                .ok_or(ProtocolError::UnknownRun(msg.run_id))?;
            if state.aborted {
                return Err(ProtocolError::Aborted(msg.run_id));
            }
            (state.key, state.resp_digest)
        };
        // The receipt must cover the committed response digest — the key
        // is exchanged for evidence that is actually worth something.
        self.engine
            .party()
            .absorb_carried(&msg, [(TokenKind::NrrResp, resp_digest)])?;
        if let Some(state) = self.keys.lock().get_mut(&msg.run_id) {
            state.receipt_received = true;
        }
        // The receipt arrived: discharge the deadline watch. Done before
        // replying, so a sweep racing this handler sees the run complete.
        if let Some((supervisor, _)) = &self.supervision {
            supervisor.complete(msg.run_id);
        }
        match self.conduct {
            ServerConduct::Honest => {
                self.engine
                    .journal(msg.run_id, STEP_KEY, MarkerPhase::Closed)?;
                Ok(self.engine.open_frame(msg.run_id, STEP_KEY, key.to_vec()))
            }
            // Defection: acknowledge nothing useful (wrong step forces the
            // client down the dispute path).
            ServerConduct::WithholdKey => Ok(self.engine.open_frame(msg.run_id, 99, Vec::new())),
            // Defection with a fig leaf: a well-formed but useless key.
            // The client's acceptance check decrypts before believing it,
            // so this diverts to the TTP exactly like silence.
            ServerConduct::GarbageKey => {
                Ok(self.engine.open_frame(msg.run_id, STEP_KEY, vec![0x5a; 32]))
            }
            // Silence, modelled as a refusal with no reply frame: the
            // client's round fails (as `Rejected`) rather than returning
            // a wrong-step frame.
            ServerConduct::Stall => Err(ProtocolError::Rejected(
                "server went silent before key release".into(),
            )),
        }
    }
}

impl ProtocolHandler for FairServerHandler {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(PROTOCOL_ID)
    }

    fn process(&self, _from: &OrgId, _msg: ProtocolMessage) -> Result<(), ProtocolError> {
        Err(ProtocolError::BadMessage(
            "fair-offline has no one-way steps".into(),
        ))
    }

    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        match msg.step {
            STEP_REQUEST => self.handle_step1(from, msg),
            STEP_RECEIPT => self.handle_step3(from, msg),
            step => Err(ProtocolError::BadMessage(format!("unexpected step {step}"))),
        }
    }
}

/// One escrowed key, with the parties it binds.
#[derive(Debug, Clone)]
struct EscrowedKey {
    key: [u8; 32],
    resp_digest: Digest,
    client: OrgId,
    server: OrgId,
}

#[derive(Debug, Default)]
struct EscrowEntry {
    key: Option<EscrowedKey>,
    /// The run's outcome, once it has one: the TTP's own `Abort` token,
    /// or the client's `NRR_resp` that a resolve deposited. Boxed, as
    /// `decision` is: most runs never get one, and the ledger keeps an
    /// entry per run, so inline `None`s would cost 2 × 192 B each.
    outcome: Option<Box<NrToken>>,
    /// The TTP's `Decision` issued with a deposited `NRR_resp`.
    decision: Option<Box<NrToken>>,
}

/// The offline TTP: escrow ledger plus the resolve and abort
/// sub-protocols. A run's first resolve or abort fixes its outcome (the
/// client's receipt or the TTP's `Abort` token), and every later one is
/// answered with it (Asokan, Shoup and Waidner, IEEE S&P 1998).
///
/// A resolve is adjudication, not just recovery: the TTP releases the key
/// *and* issues a signed [`TokenKind::Decision`] over
/// [`defection_digest`]`(server, run)` — durable, third-party evidence
/// that the escrowing server failed to complete the run.
pub struct OfflineTtpHandler {
    engine: ExchangeEngine,
    ledger: Mutex<HashMap<RunId, EscrowEntry>>,
}

impl fmt::Debug for OfflineTtpHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OfflineTtpHandler({})", self.engine.party().org())
    }
}

impl OfflineTtpHandler {
    /// Creates the TTP handler.
    pub fn new(party: Arc<Party>) -> Arc<Self> {
        Arc::new(Self {
            engine: ExchangeEngine::local(party, PROTOCOL_ID),
            ledger: Mutex::new(HashMap::new()),
        })
    }

    fn handle_escrow(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        let body: EscrowBody = self.engine.decode_body(&msg.body)?;
        {
            let mut ledger = self.ledger.lock();
            let entry = ledger.entry(msg.run_id).or_default();
            if entry.outcome.is_some() {
                return Err(ProtocolError::Aborted(msg.run_id));
            }
            entry.key = Some(EscrowedKey {
                key: body.key,
                resp_digest: body.resp_digest,
                client: body.client.clone(),
                server: from.clone(),
            });
        }
        let ack = self
            .engine
            .issue_and_store(TokenKind::Escrow, msg.run_id, body.resp_digest)?;
        Ok(self.ack(msg.run_id, STEP_ESCROW_ACK, &ack))
    }

    fn handle_resolve(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        let client_key = self.engine.party().key_of(from)?;
        let nrr_resp: NrToken = self.engine.decode_body(&msg.body)?;
        let mut ledger = self.ledger.lock();
        let entry = ledger
            .get_mut(&msg.run_id)
            .ok_or(ProtocolError::UnknownRun(msg.run_id))?;
        if let Some(abort) = entry
            .outcome
            .as_ref()
            .filter(|t| t.kind == TokenKind::Abort)
        {
            // The server aborted first: that is the answer.
            let ack = ResolveAck {
                key: None,
                token: NrToken::clone(abort),
            };
            return Ok(self.ack(msg.run_id, STEP_RESOLVE_ACK, &ack));
        }
        let escrowed = entry
            .key
            .as_ref()
            .ok_or(ProtocolError::UnknownRun(msg.run_id))?;
        if escrowed.client != *from {
            return Err(ProtocolError::Rejected(
                "resolver is not the escrowed client".into(),
            ));
        }
        let key = escrowed.key;
        let decision = match &entry.decision {
            // A repeated resolve (its ack was lost) gets the same answer
            // and leaves no new evidence.
            Some(decision) => NrToken::clone(decision),
            None => {
                // The receipt must cover the escrowed response digest.
                if !nrr_resp.verify(
                    &client_key,
                    Some(TokenKind::NrrResp),
                    Some(msg.run_id),
                    Some(&escrowed.resp_digest),
                ) {
                    return Err(ProtocolError::BadSignature {
                        org: from.clone(),
                        what: "NRR_resp presented at resolve".into(),
                    });
                }
                self.engine.party().store_token(&nrr_resp)?;
                // Adjudicate: the escrowing server failed to complete a
                // run its client committed to. The decision is signed
                // evidence any verifier can check by recomputing the
                // defection digest. Issued under the ledger lock, so a
                // racing resolve finds it.
                let decision = self.engine.issue_and_store(
                    TokenKind::Decision,
                    msg.run_id,
                    defection_digest(&escrowed.server, msg.run_id),
                )?;
                self.engine
                    .issue_and_store(TokenKind::Resolve, msg.run_id, sha256(&key))?;
                entry.outcome = Some(Box::new(nrr_resp));
                entry.decision = Some(Box::new(decision.clone()));
                decision
            }
        };
        let ack = ResolveAck {
            key: Some(key),
            token: decision,
        };
        Ok(self.ack(msg.run_id, STEP_RESOLVE_ACK, &ack))
    }

    fn handle_abort(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        let mut ledger = self.ledger.lock();
        let entry = ledger.entry(msg.run_id).or_default();
        // Only the party that escrowed the key may kill the run — a
        // stranger (or the client itself) cannot abort someone else's
        // exchange out from under them.
        if let Some(escrowed) = &entry.key {
            if escrowed.server != *from {
                return Err(ProtocolError::Rejected(
                    "aborter is not the escrowed server".into(),
                ));
            }
        }
        // The answer is the run's outcome: the client's receipt if its
        // resolve came first, else the Abort token — issued under the
        // ledger lock, so a racing resolve finds it.
        let outcome = match &entry.outcome {
            Some(outcome) => outcome,
            None => entry.outcome.insert(Box::new(self.engine.issue_and_store(
                TokenKind::Abort,
                msg.run_id,
                Digest::ZERO,
            )?)),
        };
        Ok(self.ack(msg.run_id, STEP_ABORT_ACK, &**outcome))
    }

    /// An unsigned ack frame carrying `body`.
    fn ack(&self, run: RunId, step: u32, body: &impl Encode) -> ProtocolMessage {
        self.engine.open_frame(run, step, body.encode_to_vec())
    }
}

impl ProtocolHandler for OfflineTtpHandler {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(PROTOCOL_ID)
    }

    fn process(&self, _from: &OrgId, _msg: ProtocolMessage) -> Result<(), ProtocolError> {
        Err(ProtocolError::BadMessage(
            "TTP sub-protocols are request/response".into(),
        ))
    }

    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        match msg.step {
            STEP_ESCROW => self.handle_escrow(from, msg),
            STEP_RESOLVE => self.handle_resolve(from, msg),
            STEP_ABORT => self.handle_abort(from, msg),
            step => Err(ProtocolError::BadMessage(format!(
                "unexpected TTP step {step}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::{KeyDirectory, StaticKeyDirectory};
    use nonrep_crypto::sig::{KeyPair, SignatureScheme};
    use nonrep_crypto::SecureRandom;
    use nonrep_net::bus::LocalBus;
    use nonrep_net::retry::{ReliableRequester, RetryPolicy};
    use nonrep_store::{EvidenceLog, EvidenceRecord, MemoryLog, RecordDraft, StoreError};
    use nonrep_types::time::LogicalClock;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The client's evidence log: appends fail while `fail` is set.
    #[derive(Default)]
    struct SwitchLog {
        inner: MemoryLog,
        fail: AtomicBool,
    }

    impl EvidenceLog for SwitchLog {
        fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(StoreError::Corrupt("disk full".into()));
            }
            self.inner.append(draft)
        }

        fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
            self.inner.for_each(f)
        }

        fn snapshot_range(&self, range: std::ops::Range<u64>) -> Vec<Arc<EvidenceRecord>> {
            self.inner.snapshot_range(range)
        }

        fn head(&self) -> Digest {
            self.inner.head()
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    struct World {
        bus: Arc<LocalBus>,
        client: FairClient,
        client_party: Arc<Party>,
        client_log: Arc<SwitchLog>,
        server_handler: Arc<FairServerHandler>,
        server_party: Arc<Party>,
        ttp_handler: Arc<OfflineTtpHandler>,
        server: OrgId,
        clock: LogicalClock,
        supervisor: Arc<ExchangeSupervisor>,
    }

    fn world(conduct: ServerConduct) -> World {
        world_with(conduct, None)
    }

    /// `receipt_window_ms: Some(w)` builds a *supervised* server whose
    /// receipt deadline is `w` ms on the shared logical clock.
    fn world_with(conduct: ServerConduct, receipt_window_ms: Option<u64>) -> World {
        let bus = LocalBus::new();
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let client_log = Arc::new(SwitchLog::default());
        let mut rng = SecureRandom::from_seed(1);
        let client_keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 8 },
            &mut rng,
        ));
        dir.insert(OrgId::new("client"), client_keys.verifying_key());
        let client_party = Party::new(
            "client",
            client_keys,
            Arc::new(clock.clone()),
            client_log.clone(),
            Arc::clone(&dir) as Arc<dyn KeyDirectory>,
            rng,
        );
        let server_party = Party::quick("server", 2, &clock, &dir);
        let ttp_party = Party::quick("ttp", 3, &clock, &dir);
        let supervisor = ExchangeSupervisor::new(Arc::new(clock.clone()));

        let mk = |org: &str| {
            let c = B2BCoordinator::new(
                org,
                ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
            );
            bus.register(OrgId::new(org), c.clone());
            c
        };
        let coord_c = mk("client");
        let coord_s = mk("server");
        let coord_t = mk("ttp");

        let server_handler = FairServerHandler::with_runtime(
            server_party.clone(),
            coord_s.clone(),
            Arc::new(|_: &OrgId, req: &[u8]| Ok([b"res:".as_slice(), req].concat())),
            OrgId::new("ttp"),
            conduct,
            FairServerRuntime {
                supervision: receipt_window_ms.map(|w| (supervisor.clone(), w)),
                journal: None,
            },
        );
        coord_s.register_handler(server_handler.clone());
        let ttp_handler = OfflineTtpHandler::new(ttp_party);
        coord_t.register_handler(ttp_handler.clone());

        World {
            bus,
            client: FairClient::new(client_party.clone(), coord_c, OrgId::new("ttp")),
            client_party,
            client_log,
            server_handler,
            server_party,
            ttp_handler,
            server: OrgId::new("server"),
            clock,
            supervisor,
        }
    }

    impl World {
        /// `true` if the TTP's own log holds a `kind` token it issued
        /// for `run`: the evidence of a resolve or abort.
        fn ttp_logged(&self, run: RunId, kind: TokenKind) -> bool {
            let ttp = self.ttp_handler.engine.party();
            ttp.log()
                .by_run(&run)
                .iter()
                .any(|r| r.draft.kind == kind.label() && &r.draft.actor == ttp.org())
        }
    }

    /// Drives a run through step 2 (the server escrows its key with the
    /// TTP) and returns it with the client's receipt, not yet sent.
    fn escrowed_receipt(w: &World) -> (RunId, NrToken) {
        let run = w.client_party.new_run_id();
        let msg2 = w
            .server_handler
            .process_request(&OrgId::new("client"), request_frame(w, run, b"req"))
            .unwrap();
        let step2 = FairStep2::decode_from_slice(&msg2.body).unwrap();
        let nrr = w
            .client_party
            .issue_token(TokenKind::NrrResp, run, step2.resp_digest)
            .unwrap();
        (run, nrr)
    }

    /// The client's signed frame for `step` of `run`, carrying `tokens`.
    fn client_frame(
        w: &World,
        run: RunId,
        step: u32,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> ProtocolMessage {
        w.client_party
            .sign_frame(
                ProtocolMessage::new(PROTOCOL_ID, run, step, "client", body),
                tokens,
            )
            .unwrap()
    }

    /// The client's step-1 frame for `request`.
    fn request_frame(w: &World, run: RunId, request: &[u8]) -> ProtocolMessage {
        let nro = TokenSpec::new(TokenKind::NroReq, run, sha256(request));
        client_frame(w, run, STEP_REQUEST, request.to_vec(), &[nro])
    }

    /// The client's step-3 frame with a receipt over `digest`.
    fn receipt_frame(w: &World, run: RunId, digest: Digest) -> ProtocolMessage {
        let nrr = TokenSpec::new(TokenKind::NrrResp, run, digest);
        client_frame(w, run, STEP_RECEIPT, Vec::new(), &[nrr])
    }

    #[test]
    fn honest_exchange_completes_via_server_key() {
        let w = world(ServerConduct::Honest);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
        assert_eq!(out.key_source, KeySource::Server);
        assert!(w.server_handler.receipt_received(&out.run_id));
        assert!(!w.ttp_logged(out.run_id, TokenKind::Resolve));
        // Evidence set complete on both sides.
        assert!(w.client_party.log().by_run(&out.run_id).len() >= 5);
        assert!(w.server_party.log().by_run(&out.run_id).len() >= 4);
    }

    #[test]
    fn defecting_server_is_defeated_by_resolve() {
        let w = world(ServerConduct::WithholdKey);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        // The client still got the plaintext — via the TTP.
        assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
        assert_eq!(out.key_source, KeySource::TtpResolve);
        assert!(w.ttp_logged(out.run_id, TokenKind::Resolve));
        // Fairness: an abort at the TTP is answered with the receipt the
        // client deposited.
        let receipt = w.server_handler.abort(out.run_id).unwrap();
        assert_eq!(receipt.kind, TokenKind::NrrResp);
        assert_eq!(receipt.issuer, OrgId::new("client"));
    }

    #[test]
    fn resolve_yields_signed_decision_against_defector() {
        let w = world(ServerConduct::WithholdKey);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        assert_eq!(out.key_source, KeySource::TtpResolve);
        // The dispute left a TTP-signed decision in the *client's* log,
        // checkable without the TTP ledger: its subject is the
        // recomputable defection digest of (server, run).
        let expected = defection_digest(&w.server, out.run_id);
        let records = w.client_party.log().by_run(&out.run_id);
        let decision = records
            .iter()
            .find(|r| r.draft.kind == TokenKind::Decision.label())
            .expect("decision recorded at the client");
        assert_eq!(decision.draft.content_digest, expected);
        let token = NrToken::decode_from_slice(&decision.draft.payload).unwrap();
        assert_eq!(token.issuer, OrgId::new("ttp"));
        assert!(token.verify(
            &w.client_party.key_of(&OrgId::new("ttp")).unwrap(),
            Some(TokenKind::Decision),
            Some(out.run_id),
            Some(&expected),
        ));
    }

    #[test]
    fn garbage_key_is_a_defection_not_an_error() {
        // A well-formed 32-byte key that fails to decrypt is a withheld
        // key with extra steps: the client must divert to the TTP, not
        // die on a decode error with its receipt already committed.
        let w = world(ServerConduct::GarbageKey);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
        assert_eq!(out.key_source, KeySource::TtpResolve);
        assert!(w.ttp_logged(out.run_id, TokenKind::Resolve));
        // The defector was convicted just like a silent one.
        let expected = defection_digest(&w.server, out.run_id);
        let records = w.client_party.log().by_run(&out.run_id);
        assert!(records
            .iter()
            .any(|r| r.draft.kind == TokenKind::Decision.label()
                && r.draft.content_digest == expected));
    }

    #[test]
    fn receipt_over_wrong_digest_does_not_release_the_key() {
        // The server only exchanges K for a receipt covering the
        // committed response digest; a receipt over garbage is refused
        // and never marks the run as receipted.
        let w = world(ServerConduct::Honest);
        let run = w.client_party.new_run_id();
        w.server_handler
            .process_request(&OrgId::new("client"), request_frame(&w, run, b"req"))
            .unwrap();

        let msg3 = receipt_frame(&w, run, sha256(b"not the response"));
        let err = w
            .server_handler
            .process_request(&OrgId::new("client"), msg3)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BadSignature { .. }));
        assert!(!w.server_handler.receipt_received(&run));
    }

    #[test]
    fn receipt_then_abort_race_is_self_incriminating() {
        // The one unfair interleaving an offline TTP cannot prevent: the
        // server collects the step-3 receipt directly, then wins the
        // abort race at the TTP before the client's resolve arrives.
        let w = world(ServerConduct::WithholdKey);
        let run = w.client_party.new_run_id();
        let msg2 = w
            .server_handler
            .process_request(&OrgId::new("client"), request_frame(&w, run, b"req"))
            .unwrap();
        let step2 = FairStep2::decode_from_slice(&msg2.body).unwrap();
        let msg3 = receipt_frame(&w, run, step2.resp_digest);
        let nrr = msg3.tokens[0].clone();
        w.server_handler
            .process_request(&OrgId::new("client"), msg3.clone())
            .unwrap();
        assert!(w.server_handler.receipt_received(&run));

        // The server aborts; the client's resolve loses the race.
        w.server_handler.abort(run).unwrap();
        let dispute = w.client.engine.session::<Client, ResolveChoreography>(run);
        let err = w.client.resolve(dispute, &w.server, &nrr).unwrap_err();
        assert!(matches!(err, ProtocolError::Aborted(r) if r == run));

        // The race is self-incriminating: the server's own evidence log
        // now pairs the client's NRR_resp with the TTP's Abort token —
        // the combination `Finding::AbortedAfterReceipt` convicts.
        let records = w.server_party.log().by_run(&run);
        assert!(records
            .iter()
            .any(|r| r.draft.kind == TokenKind::NrrResp.label()
                && r.draft.actor == OrgId::new("client")));
        assert!(records.iter().any(
            |r| r.draft.kind == TokenKind::Abort.label() && r.draft.actor == OrgId::new("ttp")
        ));

        // And a receipt arriving after the abort is refused, so an
        // *honest* aborting server never produces that pairing.
        let err = w
            .server_handler
            .process_request(&OrgId::new("client"), msg3)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Aborted(_)));
    }

    #[test]
    fn stranger_cannot_abort_someone_elses_run() {
        // Only the escrowed server may kill a run: the client (or anyone
        // else) racing an abort against its own exchange is refused.
        let w = world(ServerConduct::Honest);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        let msg = client_frame(&w, out.run_id, STEP_ABORT, Vec::new(), &[]);
        let err = w
            .ttp_handler
            .process_request(&OrgId::new("client"), msg)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)));
        assert!(!w.ttp_logged(out.run_id, TokenKind::Abort));
    }

    #[test]
    fn abort_before_receipt_blocks_resolve() {
        let w = world(ServerConduct::Honest);
        // Simulate: server escrows, but client never sends step 3; server
        // aborts; a later resolve attempt by the client must fail.
        // Drive the protocol manually up to step 2.
        let run = w.client_party.new_run_id();
        let msg2 = w
            .server_handler
            .process_request(&OrgId::new("client"), request_frame(&w, run, b"req"))
            .unwrap();
        let step2 = FairStep2::decode_from_slice(&msg2.body).unwrap();

        // Server aborts (client went silent).
        let abort_token = w.server_handler.abort(run).unwrap();
        assert_eq!(abort_token.kind, TokenKind::Abort);
        assert!(w.ttp_logged(run, TokenKind::Abort));

        // Client belatedly tries to resolve: refused, and it never gets K.
        let nrr = w
            .client_party
            .issue_token(TokenKind::NrrResp, run, step2.resp_digest)
            .unwrap();
        let dispute = w.client.engine.session::<Client, ResolveChoreography>(run);
        let err = w.client.resolve(dispute, &w.server, &nrr).unwrap_err();
        assert!(matches!(err, ProtocolError::Aborted(r) if r == run));
        // The TTP answered with its Abort token, now in the client's log.
        assert!(w
            .client_party
            .log()
            .by_run(&run)
            .iter()
            .any(
                |r| r.draft.kind == TokenKind::Abort.label() && r.draft.actor == OrgId::new("ttp")
            ));
    }

    #[test]
    fn abort_after_resolve_returns_the_receipt() {
        let w = world(ServerConduct::WithholdKey);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        assert_eq!(out.key_source, KeySource::TtpResolve);
        let receipt = w.server_handler.abort(out.run_id).unwrap();
        assert_eq!(receipt.kind, TokenKind::NrrResp);
        assert_eq!(receipt.issuer, OrgId::new("client"));
        assert!(!w.ttp_logged(out.run_id, TokenKind::Abort));
    }

    #[test]
    fn repeated_resolve_is_answered_alike_and_logged_once() {
        // A client whose resolve ack was lost resolves again: the TTP
        // answers with the same key and decision, and signs nothing new.
        let w = world(ServerConduct::WithholdKey);
        let (run, nrr) = escrowed_receipt(&w);
        let resolve = || {
            let msg = client_frame(&w, run, STEP_RESOLVE, nrr.encode_to_vec(), &[]);
            w.ttp_handler
                .process_request(&OrgId::new("client"), msg)
                .unwrap()
        };
        let first = resolve();
        assert!(resolve() == first, "a repeated resolve got another answer");
        let ack = ResolveAck::decode_from_slice(&first.body).unwrap();
        assert!(ack.key.is_some());
        assert_eq!(ack.token.kind, TokenKind::Decision);
        let ttp = w.ttp_handler.engine.party();
        let mut kinds: Vec<String> = ttp
            .log()
            .by_run(&run)
            .iter()
            .map(|r| r.draft.kind.clone())
            .collect();
        kinds.sort();
        let mut expected: Vec<String> = [
            TokenKind::Escrow,
            TokenKind::NrrResp,
            TokenKind::Decision,
            TokenKind::Resolve,
        ]
        .iter()
        .map(|k| k.label().to_string())
        .collect();
        expected.sort();
        assert_eq!(kinds, expected);
    }

    #[test]
    fn relayed_receipt_must_be_the_clients_over_the_committed_digest() {
        // A receipt the TTP hands back is checked as a step-3 receipt
        // would be: the run's client must have issued it, over the
        // committed response digest.
        let w = world(ServerConduct::Honest);
        let (run, genuine) = escrowed_receipt(&w);
        let forgeries = [
            w.server_party
                .issue_token(TokenKind::NrrResp, run, genuine.subject)
                .unwrap(),
            w.client_party
                .issue_token(TokenKind::NrrResp, run, sha256(b"other"))
                .unwrap(),
        ];
        for forged in forgeries {
            w.ttp_handler.ledger.lock().get_mut(&run).unwrap().outcome = Some(Box::new(forged));
            let err = w.server_handler.abort(run).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::BadMessage(_) | ProtocolError::BadSignature { .. }
                ),
                "{err:?}"
            );
            assert!(!w.server_handler.receipt_received(&run));
        }
    }

    #[test]
    fn resolve_with_forged_receipt_refused() {
        let w = world(ServerConduct::Honest);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        // A receipt over the wrong digest cannot resolve.
        let bogus = w
            .client_party
            .issue_token(TokenKind::NrrResp, out.run_id, sha256(b"wrong"))
            .unwrap();
        let dispute = w
            .client
            .engine
            .session::<Client, ResolveChoreography>(out.run_id);
        let err = w.client.resolve(dispute, &w.server, &bogus).unwrap_err();
        assert!(matches!(err, ProtocolError::Aborted(r) if r == out.run_id));
        // And no conviction was minted against the honest server.
        assert!(!w.ttp_logged(out.run_id, TokenKind::Resolve));
    }

    #[test]
    fn stranger_cannot_resolve_someone_elses_run() {
        let w = world(ServerConduct::Honest);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        // The server itself tries to "resolve" as if it were the client.
        let body = w
            .server_party
            .issue_token(TokenKind::NrrResp, out.run_id, sha256(b"x"))
            .unwrap()
            .encode_to_vec();
        let msg = w
            .server_party
            .sign_frame(
                ProtocolMessage::new(PROTOCOL_ID, out.run_id, STEP_RESOLVE, "server", body),
                &[],
            )
            .unwrap();
        let err = w
            .ttp_handler
            .process_request(&OrgId::new("server"), msg)
            .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Rejected(_) | ProtocolError::BadSignature { .. }
        ));
    }

    #[test]
    fn ttp_calls_pass_transport_faults_through() {
        // An unreachable TTP is a transport fault at every TTP call
        // site, never the call site's refusal variant.
        let w = world(ServerConduct::Honest);
        let ttp = OrgId::new("ttp");
        let client = OrgId::new("client");
        let (run, nrr) = escrowed_receipt(&w);
        let is_net = |r: Result<NrToken, ProtocolError>| matches!(r, Err(ProtocolError::Net(_)));

        w.bus.fault_plan().crash(&ttp);
        let dispute = w.client.engine.session::<Client, ResolveChoreography>(run);
        let err = w.client.resolve(dispute, &w.server, &nrr).unwrap_err();
        assert!(matches!(err, ProtocolError::Net(_)), "{err:?}");
        assert!(is_net(w.server_handler.abort(run)));
        let fresh = w.client_party.new_run_id();
        let err = w
            .server_handler
            .process_request(&client, request_frame(&w, fresh, b"req"))
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Net(_)), "{err:?}");

        // The same through a partition between the server and the TTP.
        w.bus.fault_plan().recover(&ttp);
        w.bus.fault_plan().partition(&w.server, &ttp);
        assert!(is_net(w.server_handler.abort(run)));
        let fresh = w.client_party.new_run_id();
        let err = w
            .server_handler
            .process_request(&client, request_frame(&w, fresh, b"req"))
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Net(_)), "{err:?}");
        assert!(!w.ttp_logged(run, TokenKind::Abort));
    }

    #[test]
    fn resolve_reports_its_own_signing_fault() {
        // A client whose key is exhausted cannot sign its resolve frame:
        // that is its own fault, not the TTP aborting the run.
        let w = world(ServerConduct::Honest);
        let (run, nrr) = escrowed_receipt(&w);
        while w.client_party.keys().sign(b"burn").is_ok() {}
        let dispute = w.client.engine.session::<Client, ResolveChoreography>(run);
        let err = w.client.resolve(dispute, &w.server, &nrr).unwrap_err();
        assert!(matches!(err, ProtocolError::Signing(_)), "{err:?}");
    }

    #[test]
    fn resolve_reports_its_own_storage_fault() {
        // A journalled client whose log fails to take the resolve round's
        // progress marker reports a storage fault, not an aborted run.
        let w = world(ServerConduct::Honest);
        let (run, nrr) = escrowed_receipt(&w);
        let client = FairClient::new(
            w.client_party.clone(),
            w.client
                .engine
                .coordinator()
                .expect("client engine has a coordinator")
                .clone(),
            OrgId::new("ttp"),
        )
        .with_journal(RunJournal::new(w.client_party.clone()));
        w.client_log.fail.store(true, Ordering::SeqCst);
        let dispute = client.engine.session::<Client, ResolveChoreography>(run);
        let err = client.resolve(dispute, &w.server, &nrr).unwrap_err();
        assert!(matches!(err, ProtocolError::Storage(_)), "{err:?}");
    }

    #[test]
    fn stalling_client_is_timeout_aborted_without_false_accusation() {
        // The client goes silent after the receipt window opens; the
        // supervised server escalates to the TTP's abort choreography.
        let w = world_with(ServerConduct::Honest, Some(100));
        let run = w.client_party.new_run_id();
        w.client
            .invoke_stalling(run, &w.server, b"req".to_vec())
            .unwrap();
        assert_eq!(w.supervisor.in_flight(), 1, "receipt window armed");

        // Inside the window nothing fires.
        w.clock.advance(99);
        assert!(w.supervisor.sweep().is_empty());

        // Past the window the abort choreography closes the run.
        w.clock.advance(1);
        let reports = w.supervisor.sweep();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, EscalationOutcome::Aborted);
        assert_eq!(reports[0].awaiting_step, STEP_RECEIPT);
        assert!(w.ttp_logged(run, TokenKind::Abort));
        assert_eq!(w.supervisor.in_flight(), 0, "no run left in flight");

        // The stalled client can no longer recover the key.
        let nrr = w
            .client_party
            .issue_token(TokenKind::NrrResp, run, sha256(b"whatever"))
            .unwrap();
        let dispute = w.client.engine.session::<Client, ResolveChoreography>(run);
        assert!(w.client.resolve(dispute, &w.server, &nrr).is_err());

        // No false accusation: the server's log holds the TTP's Abort
        // but NOT the client's NRR_resp, so `AbortedAfterReceipt` has
        // nothing to convict.
        let records = w.server_party.log().by_run(&run);
        assert!(records
            .iter()
            .any(|r| r.draft.kind == TokenKind::Abort.label()));
        assert!(!records
            .iter()
            .any(|r| r.draft.kind == TokenKind::NrrResp.label()
                && r.draft.actor == OrgId::new("client")));
    }

    #[test]
    fn slow_client_inside_the_window_is_never_aborted() {
        // A client that answers just under the deadline completes
        // normally: slowness is not defection.
        let w = world_with(ServerConduct::Honest, Some(100));
        let run = w.client_party.new_run_id();
        let clock = w.clock.clone();
        let supervisor = w.supervisor.clone();
        let out = w
            .client
            .invoke_paced(run, &w.server, b"req".to_vec(), || {
                clock.advance(99);
                assert!(supervisor.sweep().is_empty(), "window not yet expired");
            })
            .unwrap();
        assert_eq!(out.key_source, KeySource::Server);
        assert!(!w.ttp_logged(run, TokenKind::Abort));
        assert_eq!(w.supervisor.in_flight(), 0, "watch discharged on receipt");
        // Late sweeps stay quiet: the watch is gone.
        w.clock.advance(1000);
        assert!(w.supervisor.sweep().is_empty());
    }

    #[test]
    fn receipt_racing_the_sweep_reports_already_complete() {
        // The awaited receipt arrives between the deadline passing and
        // the escalation firing: the action re-checks and aborts nothing.
        let w = world_with(ServerConduct::Honest, Some(50));
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        // Re-arm a watch on the already-complete run (the race window).
        w.supervisor.watch_for(
            out.run_id,
            &ProtocolId::new(PROTOCOL_ID),
            STEP_RECEIPT,
            5,
            Arc::new(FairTimeoutAbort {
                handler: Arc::downgrade(&w.server_handler),
            }),
        );
        w.clock.advance(10);
        let reports = w.supervisor.sweep();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, EscalationOutcome::AlreadyComplete);
        assert!(!w.ttp_logged(out.run_id, TokenKind::Abort));
    }

    #[test]
    fn lost_receipt_frame_is_answered_with_the_receipt_at_the_ttp() {
        // A partition between client and server loses the step-3 frame.
        // The client resolves at the TTP; after the heal, the honest
        // server's timeout abort is answered with the client's receipt,
        // so it is not left without it and nothing is aborted.
        let w = world_with(ServerConduct::Honest, Some(100));
        let run = w.client_party.new_run_id();
        let client = OrgId::new("client");
        let out = w
            .client
            .invoke_paced(run, &w.server, b"req".to_vec(), || {
                w.bus.fault_plan().partition(&client, &w.server)
            })
            .unwrap();
        assert_eq!(out.key_source, KeySource::TtpResolve);
        assert!(!w.server_handler.receipt_received(&run));

        w.bus.fault_plan().heal(&client, &w.server);
        w.clock.advance(100);
        let reports = w.supervisor.sweep();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, EscalationOutcome::AlreadyComplete);
        assert!(w.server_handler.receipt_received(&run));
        assert!(w
            .server_party
            .log()
            .by_run(&run)
            .iter()
            .any(|r| r.draft.kind == TokenKind::NrrResp.label() && r.draft.actor == client));
        assert!(!w.ttp_logged(run, TokenKind::Abort));
        assert_eq!(w.supervisor.in_flight(), 0);
    }

    #[test]
    fn unanswered_timeout_abort_is_retried_a_window_later() {
        // The TTP is down at the first sweep: the abort gets no answer,
        // so the watch is re-armed, and the next sweep closes the run.
        let w = world_with(ServerConduct::Honest, Some(100));
        let run = w.client_party.new_run_id();
        let ttp = OrgId::new("ttp");
        w.client
            .invoke_stalling(run, &w.server, b"req".to_vec())
            .unwrap();
        w.bus.fault_plan().crash(&ttp);
        w.clock.advance(100);
        let reports = w.supervisor.sweep();
        assert_eq!(reports.len(), 1);
        assert!(
            matches!(reports[0].outcome, EscalationOutcome::Failed(_)),
            "{:?}",
            reports[0].outcome
        );
        assert_eq!(w.supervisor.in_flight(), 1, "watch re-armed");

        w.bus.fault_plan().recover(&ttp);
        w.clock.advance(99);
        assert!(w.supervisor.sweep().is_empty(), "one window, not sooner");
        w.clock.advance(1);
        let reports = w.supervisor.sweep();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, EscalationOutcome::Aborted);
        assert!(w.ttp_logged(run, TokenKind::Abort));
        assert_eq!(w.supervisor.in_flight(), 0);
    }

    #[test]
    fn stalling_server_is_defeated_by_resolve() {
        // Silence before the key release fails the client's round, which
        // diverts into the dispute sub-protocol exactly like a withheld
        // key — and convicts the same way.
        let w = world(ServerConduct::Stall);
        let out = w.client.invoke(&w.server, b"req".to_vec()).unwrap();
        assert_eq!(out.response, ServerResponse::Executed(b"res:req".to_vec()));
        assert_eq!(out.key_source, KeySource::TtpResolve);
        assert!(w.ttp_logged(out.run_id, TokenKind::Resolve));
        let expected = defection_digest(&w.server, out.run_id);
        let records = w.client_party.log().by_run(&out.run_id);
        assert!(records
            .iter()
            .any(|r| r.draft.kind == TokenKind::Decision.label()
                && r.draft.content_digest == expected));
    }

    #[test]
    fn journalled_exchange_leaves_no_open_runs() {
        // A journalled client that completes a run leaves a closed
        // journal: recovery on reopen finds nothing to do.
        let w = world(ServerConduct::Honest);
        let journal = RunJournal::new(w.client_party.clone());
        let client = FairClient::new(
            w.client_party.clone(),
            w.client
                .engine
                .coordinator()
                .expect("client engine has a coordinator")
                .clone(),
            OrgId::new("ttp"),
        )
        .with_journal(journal.clone());
        let out = client.invoke(&w.server, b"req".to_vec()).unwrap();
        assert!(journal.recovered_open_runs().is_empty());
        // The markers are in the chain and the chain still verifies.
        assert!(w
            .client_party
            .log()
            .by_run(&out.run_id)
            .iter()
            .any(|r| r.is_run_marker()));
        w.client_party.log().verify().unwrap();
    }

    #[test]
    fn ciphertext_alone_reveals_nothing_useful() {
        // Construction-level check: a wrong key fails the digest check.
        let key = [1u8; 32];
        let plain = ServerResponse::Executed(b"secret".to_vec()).encode_to_vec();
        let enc = xor_keystream(&key, &plain);
        let wrong = xor_keystream(&[2u8; 32], &enc);
        assert_ne!(sha256(&wrong), sha256(&plain));
    }
}
