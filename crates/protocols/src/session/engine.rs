//! The shared exchange engine: one implementation of framing, delivery
//! with retries and evidence capture for every choreography.
//!
//! Each protocol variant used to hand-roll this plumbing. The engine
//! centralises it:
//!
//! - **framing and evidence** — [`ExchangeEngine::request_frame`] signs
//!   an outbound frame together with the tokens this party issues at
//!   that step, which the frame carries (one batch signature for all of
//!   them in batched mode, through the party's `CommitmentScheduler`),
//!   and persists those tokens; [`ExchangeEngine::open_frame`] builds
//!   unsigned frames;
//! - **delivery** — [`ExchangeEngine::deliver`] rides the coordinator's
//!   [`ReliableRequester`](nonrep_net::retry::ReliableRequester), so
//!   retries, fault injection (`net::fault`) and latency models apply
//!   uniformly;
//! - **verification** — [`ExchangeEngine::verify_frame_from`] /
//!   [`ExchangeEngine::verify_sender_frame`] check frame signatures,
//!   `Party::absorb_carried` verifies-and-persists the tokens a frame
//!   carries and [`ExchangeEngine::absorb`] any other peer token;
//! - **unframed evidence** — [`ExchangeEngine::issue_and_store`] issues
//!   and persists a token sent outside a signed frame of its own (in an
//!   open reply, or at a later step).
//!
//! Sealing is not a per-run event: the party's `CommitmentScheduler`
//! seals evidence on its own policy, whichever runs it belongs to.
//!
//! Typed choreographies (the invocation variants, NR-sharing rounds and
//! the membership welcome) drive the engine through [`Session`];
//! handlers (which are callback-shaped by the coordinator's RPC
//! dispatch) and anchor gossip call the same helpers directly, so every
//! protocol shares one framing and evidence path.

use std::fmt;
use std::sync::Arc;

use nonrep_crypto::digest::Digest;
use nonrep_store::MarkerPhase;
use nonrep_types::codec::Decode;
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::scheduler::TokenSpec;
use crate::tokens::{NrToken, TokenKind};
use crate::{B2BCoordinator, ProtocolError};

use super::journal::RunJournal;
use super::typestate::{Role, Session, State};

/// The shared engine behind every session-typed choreography.
///
/// Cheap to clone: it holds `Arc`s to one party's identity and
/// coordinator plus the protocol id the frames are stamped with.
#[derive(Clone)]
pub struct ExchangeEngine {
    party: Arc<Party>,
    coordinator: Option<Arc<B2BCoordinator>>,
    protocol: ProtocolId,
    journal: Option<Arc<RunJournal>>,
}

impl fmt::Debug for ExchangeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExchangeEngine({}, {})", self.party.org(), self.protocol)
    }
}

impl ExchangeEngine {
    /// Creates an engine for `protocol` over this party's coordinator.
    pub fn new(
        party: Arc<Party>,
        coordinator: Arc<B2BCoordinator>,
        protocol: impl Into<ProtocolId>,
    ) -> Self {
        Self {
            party,
            coordinator: Some(coordinator),
            protocol: protocol.into(),
            journal: None,
        }
    }

    /// Creates a delivery-less engine: framing, verification and
    /// evidence helpers only. Reply-side handlers that never initiate a
    /// round (the direct server) use this; calling
    /// [`ExchangeEngine::deliver`] on a local engine panics.
    pub fn local(party: Arc<Party>, protocol: impl Into<ProtocolId>) -> Self {
        Self {
            party,
            coordinator: None,
            protocol: protocol.into(),
            journal: None,
        }
    }

    /// Enables crash-recovery journalling: every completed choreography
    /// step appends a progress marker through `journal`, and finishing a
    /// run appends its close marker. Off by default — the fast path
    /// pays nothing unless a deployment opts in.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<RunJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Journals that `run` reached `step` in `phase` (progress, close
    /// or abort), if journalling is on.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] if the marker cannot be persisted.
    pub fn journal(&self, run: RunId, step: u32, phase: MarkerPhase) -> Result<(), ProtocolError> {
        match &self.journal {
            Some(journal) => journal.mark(run, &self.protocol, step, phase),
            None => Ok(()),
        }
    }

    /// The party whose identity this engine signs and stores under.
    pub fn party(&self) -> &Arc<Party> {
        &self.party
    }

    /// The protocol id stamped on every frame.
    pub fn protocol(&self) -> &ProtocolId {
        &self.protocol
    }

    /// The coordinator delivering this engine's rounds (`None` for a
    /// [`ExchangeEngine::local`] engine).
    pub fn coordinator(&self) -> Option<&Arc<B2BCoordinator>> {
        self.coordinator.as_ref()
    }

    /// Opens a typed session on `run` in role `R` at the initial state
    /// `S` of a choreography.
    pub fn session<R: Role, S: State>(&self, run: RunId) -> Session<R, S> {
        Session::open(self.clone(), run)
    }

    /// Builds and signs an outbound frame for `step` of `run`, carrying
    /// the tokens `tokens` asks this party to issue at that step
    /// (persisted before the frame is returned; see `Party::sign_frame`).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Signing`] if signing fails (key exhausted),
    /// [`ProtocolError::Storage`] if persisting the tokens fails.
    pub fn request_frame(
        &self,
        run: RunId,
        step: u32,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<ProtocolMessage, ProtocolError> {
        let frame = ProtocolMessage::new(
            self.protocol.clone(),
            run,
            step,
            self.party.org().clone(),
            body,
        );
        self.party.sign_frame(frame, tokens)
    }

    /// Builds an unsigned frame (acks and voluntary-style replies whose
    /// payload carries its own evidence, or none).
    pub fn open_frame(&self, run: RunId, step: u32, body: Vec<u8>) -> ProtocolMessage {
        ProtocolMessage::new(
            self.protocol.clone(),
            run,
            step,
            self.party.org().clone(),
            body,
        )
    }

    /// Delivers `msg` to `to` as a request/reply round, with the
    /// coordinator's retry policy (and any injected faults) applied.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Net`] after retries are exhausted;
    /// [`ProtocolError::Rejected`] carrying the remote handler's message
    /// if it refused the frame (see [`B2BCoordinator::deliver_request`]).
    ///
    /// # Panics
    ///
    /// If this engine was built with [`ExchangeEngine::local`].
    pub fn deliver(
        &self,
        to: &OrgId,
        msg: &ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.coordinator
            .as_ref()
            .expect("local engine cannot deliver; build with ExchangeEngine::new")
            .deliver_request(to, msg)
    }

    /// Checks a reply belongs to `run` and carries `expected` as step.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadMessage`] otherwise.
    pub fn expect_step(
        &self,
        run: RunId,
        expected: u32,
        reply: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        if reply.step != expected || reply.run_id != run {
            return Err(ProtocolError::BadMessage(format!(
                "expected step {expected} of run {run}, got step {}",
                reply.step
            )));
        }
        Ok(reply)
    }

    /// Verifies that `msg` names `org` as its sender and carries a frame
    /// signature under `org`'s directory key.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadSignature`] on verification failure,
    /// [`ProtocolError::UnknownKey`] if no key is known for `org`.
    pub fn verify_frame_from(
        &self,
        msg: &ProtocolMessage,
        org: &OrgId,
    ) -> Result<(), ProtocolError> {
        let key = self.party.key_of(org)?;
        if msg.sender != *org || !msg.verify_frame(&key) {
            return Err(ProtocolError::BadSignature {
                org: org.clone(),
                what: format!("step-{} frame", msg.step),
            });
        }
        Ok(())
    }

    /// Verifies `msg`'s frame signature under its *claimed sender*'s key
    /// (relay hops, where the first-hop reply is signed by whichever node
    /// answered).
    ///
    /// # Errors
    ///
    /// As [`ExchangeEngine::verify_frame_from`].
    pub fn verify_sender_frame(&self, msg: &ProtocolMessage) -> Result<(), ProtocolError> {
        let sender = msg.sender.clone();
        self.verify_frame_from(msg, &sender)
    }

    /// Decodes a message body.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadMessage`] on codec failure.
    pub fn decode_body<T: Decode>(&self, body: &[u8]) -> Result<T, ProtocolError> {
        Ok(T::decode_from_slice(body)?)
    }

    /// Issues a token as this party and persists it, routed through the
    /// commitment scheduler — for tokens no frame of this party carries.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Signing`] or [`ProtocolError::Storage`] on
    /// signing or persistence failure.
    pub fn issue_and_store(
        &self,
        kind: TokenKind,
        run: RunId,
        subject: Digest,
    ) -> Result<NrToken, ProtocolError> {
        let token = self.party.issue_token(kind, run, subject)?;
        self.party.store_token(&token)?;
        Ok(token)
    }

    /// Verifies a peer token pinned to `kind`/`run` (and `subject` if
    /// given) and persists it — the interceptor's verify-then-log duty.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadSignature`] on verification failure,
    /// [`ProtocolError::UnknownKey`] or [`ProtocolError::Storage`] on
    /// unknown key or persistence failure.
    pub fn absorb(
        &self,
        token: &NrToken,
        kind: TokenKind,
        run: RunId,
        subject: Option<&Digest>,
    ) -> Result<(), ProtocolError> {
        self.party.verify_and_store(token, kind, run, subject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::StaticKeyDirectory;
    use nonrep_types::time::LogicalClock;

    #[test]
    fn unexpected_step_is_bad_message() {
        let party = Party::quick(
            "o",
            1,
            &LogicalClock::new(),
            &Arc::new(StaticKeyDirectory::new()),
        );
        let engine = ExchangeEngine::local(party, "p");
        let run = RunId::from_u128(3);
        let reply = engine.open_frame(run, 9, Vec::new());
        match engine.expect_step(run, 2, reply) {
            Err(ProtocolError::BadMessage(msg)) => {
                assert!(msg.contains("expected step 2"), "{msg}");
                assert!(msg.contains("got step 9"), "{msg}");
            }
            other => panic!("expected BadMessage, got {other:?}"),
        }
    }
}
