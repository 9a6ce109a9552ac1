//! Typestate-encoded choreographies: sessions whose transitions consume
//! `self` and return the *next* state type, so out-of-order or duplicate
//! sends are compile errors.
//!
//! A choreography is a type built from the combinators below; the
//! variants export theirs as aliases (e.g.
//! [`DirectChoreography`](crate::invocation::direct::DirectChoreography)).
//! A [`Session<R, S>`] is opened on an
//! [`ExchangeEngine`] at the choreography's first
//! state and driven to [`End`]; every wire round is one method call that
//! moves the session to the next state.
//!
//! Sending twice is rejected at compile time because transitions take
//! `self` by value:
//!
//! ```compile_fail
//! use nonrep_protocols::invocation::voluntary::VoluntaryChoreography;
//! use nonrep_protocols::session::{Client, Session};
//! use nonrep_types::ids::OrgId;
//!
//! fn double_send(s: Session<Client, VoluntaryChoreography>, to: &OrgId) {
//!     let _ = s.call_open(to, vec![], &[]);
//!     let _ = s.call_open(to, vec![], &[]); // error[E0382]: use of moved value `s`
//! }
//! ```
//!
//! …and sending a later step first is rejected because only the current
//! state's transition exists:
//!
//! ```compile_fail
//! use nonrep_protocols::invocation::direct::DirectChoreography;
//! use nonrep_protocols::session::{Client, Session};
//! use nonrep_types::ids::OrgId;
//!
//! fn receipt_before_request(s: Session<Client, DirectChoreography>, to: &OrgId) {
//!     // Step 3 before step 1: the opening state only offers `call`.
//!     let _ = s.call_lossy(to, vec![], &[]); // error: no method `call_lossy`
//! }
//! ```

use std::marker::PhantomData;
use std::sync::Arc;

use nonrep_crypto::digest::Digest;
use nonrep_store::MarkerPhase;
use nonrep_types::ids::{OrgId, RunId};

use super::engine::ExchangeEngine;
use super::trace::{prepend, TraceStep, WireMode};
use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::scheduler::{StepRecord, TokenSpec};
use crate::tokens::{NrToken, TokenKind};
use crate::ProtocolError;

mod sealed {
    pub trait Sealed {}
}

/// A protocol role. The set is closed: [`Client`], [`Server`] and
/// [`Ttp`] — the trusted third party is a first-class role of the
/// engine, not a bolt-on module.
pub trait Role: sealed::Sealed + Send + Sync + 'static {
    /// Human-readable role name (for diagnostics).
    const NAME: &'static str;
}

/// The invoking party's role.
#[derive(Debug, Clone, Copy)]
pub struct Client;
/// The responding party's role.
#[derive(Debug, Clone, Copy)]
pub struct Server;
/// The trusted third party's role (inline relay or offline escrow).
#[derive(Debug, Clone, Copy)]
pub struct Ttp;

impl sealed::Sealed for Client {}
impl sealed::Sealed for Server {}
impl sealed::Sealed for Ttp {}
impl Role for Client {
    const NAME: &'static str = "client";
}
impl Role for Server {
    const NAME: &'static str = "server";
}
impl Role for Ttp {
    const NAME: &'static str = "ttp";
}

/// A choreography state. States are built from the combinators in this
/// module; each enumerates the legal traces reachable from it.
pub trait State: Send + Sync + 'static {
    /// Every legal message trace from this state to [`End`].
    fn traces() -> Vec<Vec<TraceStep>>;
}

/// Terminal state: the only transition left is [`Session::finish`],
/// which journals the run's close.
pub struct End(());

/// Signed request `STEP`, signed reply `REPLY` verified under the
/// callee's key; continue as `Next`.
pub struct Call<const STEP: u32, const REPLY: u32, Next: State>(PhantomData<Next>);

/// Signed request `STEP`, signed reply `REPLY` verified under the
/// *reply sender*'s key (first hop of a relay chain); continue as `Next`.
pub struct CallRelayed<const STEP: u32, const REPLY: u32, Next: State>(PhantomData<Next>);

/// Signed request `STEP`; reply `REPLY` accepted without frame
/// verification (its payload carries its own evidence, or none);
/// continue as `Next`.
pub struct CallOpen<const STEP: u32, const REPLY: u32, Next: State>(PhantomData<Next>);

/// Signed request `STEP` whose `REPLY` ack may be lost: a transport
/// fault is tolerated and reported as "not acked" rather than an error;
/// continue as `Next` either way.
pub struct CallLossy<const STEP: u32, const REPLY: u32, Next: State>(PhantomData<Next>);

/// Signed request `STEP` with a branch: an acceptable `REPLY` continues
/// as `Next`, anything else (wrong step, refused, transport fault)
/// diverts to the `Alt` sub-choreography.
pub struct CallOr<const STEP: u32, const REPLY: u32, Next: State, Alt: State>(
    PhantomData<(Next, Alt)>,
);

/// A pre-signed frame with step `STEP` forwarded unchanged to the next
/// hop, whose signed `REPLY` is verified under its sender's key (the
/// inline TTP's relay leg); continue as `Next`.
pub struct Forward<const STEP: u32, const REPLY: u32, Next: State>(PhantomData<Next>);

/// Signed request `STEP`, one frame delivered to each of several peers in
/// turn; every peer's `REPLY` is accepted without frame verification, as
/// in [`CallOpen`]; continue as `Next`.
pub struct Fan<const STEP: u32, const REPLY: u32, Next: State>(PhantomData<Next>);

impl State for End {
    fn traces() -> Vec<Vec<TraceStep>> {
        vec![Vec::new()]
    }
}

impl<const STEP: u32, const REPLY: u32, Next: State> State for Call<STEP, REPLY, Next> {
    fn traces() -> Vec<Vec<TraceStep>> {
        prepend(
            TraceStep::new(STEP, REPLY, WireMode::Signed),
            Next::traces(),
        )
    }
}

impl<const STEP: u32, const REPLY: u32, Next: State> State for CallRelayed<STEP, REPLY, Next> {
    fn traces() -> Vec<Vec<TraceStep>> {
        prepend(
            TraceStep::new(STEP, REPLY, WireMode::Relayed),
            Next::traces(),
        )
    }
}

impl<const STEP: u32, const REPLY: u32, Next: State> State for CallOpen<STEP, REPLY, Next> {
    fn traces() -> Vec<Vec<TraceStep>> {
        prepend(TraceStep::new(STEP, REPLY, WireMode::Open), Next::traces())
    }
}

impl<const STEP: u32, const REPLY: u32, Next: State> State for CallLossy<STEP, REPLY, Next> {
    fn traces() -> Vec<Vec<TraceStep>> {
        prepend(TraceStep::new(STEP, REPLY, WireMode::Lossy), Next::traces())
    }
}

impl<const STEP: u32, const REPLY: u32, Next: State, Alt: State> State
    for CallOr<STEP, REPLY, Next, Alt>
{
    fn traces() -> Vec<Vec<TraceStep>> {
        let head = TraceStep::new(STEP, REPLY, WireMode::Signed);
        let mut traces = prepend(head, Next::traces());
        traces.extend(prepend(head, Alt::traces()));
        traces
    }
}

impl<const STEP: u32, const REPLY: u32, Next: State> State for Forward<STEP, REPLY, Next> {
    fn traces() -> Vec<Vec<TraceStep>> {
        prepend(
            TraceStep::new(STEP, REPLY, WireMode::Forwarded),
            Next::traces(),
        )
    }
}

impl<const STEP: u32, const REPLY: u32, Next: State> State for Fan<STEP, REPLY, Next> {
    fn traces() -> Vec<Vec<TraceStep>> {
        prepend(TraceStep::new(STEP, REPLY, WireMode::Open), Next::traces())
    }
}

/// A live session: one run of a choreography, in role `R`, currently at
/// state `S`. Transitions consume the session and return it retyped at
/// the next state.
///
/// A session persists one batch per step: the records its step
/// collects — the peer tokens [`Session::absorb_carried`] verified, the
/// journal marker of the round just completed — are persisted with the
/// tokens of the next frame it signs, before that frame leaves, or at
/// [`Session::finish`]. A session dropped mid-choreography persists
/// them as it drops.
pub struct Session<R: Role, S: State> {
    engine: ExchangeEngine,
    run: RunId,
    staged: Staged,
    _state: PhantomData<(R, S)>,
}

/// The records a session's current step has collected and not yet
/// persisted.
struct Staged {
    party: Arc<Party>,
    records: Vec<StepRecord>,
}

impl Drop for Staged {
    fn drop(&mut self) {
        // Best effort: an abandoned session has no caller to report to.
        let _ = self.party.persist(&mut self.records);
    }
}

impl<R: Role, S: State> std::fmt::Debug for Session<R, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Session({}, {}, run={})",
            R::NAME,
            self.engine.protocol(),
            self.run
        )
    }
}

impl<R: Role, S: State> Session<R, S> {
    pub(super) fn open(engine: ExchangeEngine, run: RunId) -> Self {
        let staged = Staged {
            party: Arc::clone(engine.party()),
            records: Vec::new(),
        };
        Self {
            engine,
            run,
            staged,
            _state: PhantomData,
        }
    }

    /// The run this session is pinned to.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// The engine driving this session.
    pub fn engine(&self) -> &ExchangeEngine {
        &self.engine
    }

    /// Verifies the tokens `msg`'s sender issued at its step, as
    /// `Party::absorb_carried` does, and adds their records to this
    /// party's step: they are persisted with the next frame it signs.
    ///
    /// # Errors
    ///
    /// As `Party::absorb_carried`; nothing is added then.
    pub fn absorb_carried<'m, const N: usize>(
        &mut self,
        msg: &'m ProtocolMessage,
        expected: [(TokenKind, Digest); N],
    ) -> Result<[&'m NrToken; N], ProtocolError> {
        let records = &mut self.staged.records;
        self.engine.party().stage_carried(records, msg, expected)
    }

    /// Verifies a peer token pinned to `kind`, this run and `subject` (if
    /// given), as `Party::verify_and_store` does, and adds its record to
    /// this party's step: it is persisted with the next frame it signs.
    ///
    /// # Errors
    ///
    /// As `Party::verify_and_store`; nothing is added then.
    pub fn absorb(
        &mut self,
        token: &NrToken,
        kind: TokenKind,
        subject: Option<&Digest>,
    ) -> Result<(), ProtocolError> {
        let party = self.engine.party();
        let record = party.verified_record(token, kind, self.run, subject)?;
        self.staged.records.push(record);
        Ok(())
    }

    /// Persists what this party's step has collected so far, as one
    /// batch, for a round whose answer is acted on before another frame.
    pub(crate) fn persist(&mut self) -> Result<(), ProtocolError> {
        self.engine.party().persist(&mut self.staged.records)
    }

    /// Signs the frame of `step` and persists its tokens with the records
    /// the step collected (see [`ExchangeEngine::request_frame`]).
    fn send(
        &mut self,
        step: u32,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<ProtocolMessage, ProtocolError> {
        let records = &mut self.staged.records;
        self.engine
            .request_frame_after(records, self.run, step, body, tokens)
    }

    /// Journals that the round of `step` completed, with the next step's
    /// records.
    fn completed(&mut self, step: u32) {
        let records = &mut self.staged.records;
        self.engine
            .journal_into(records, self.run, step, MarkerPhase::Progress);
    }

    fn advance<T: State>(self) -> Session<R, T> {
        Session {
            engine: self.engine,
            run: self.run,
            staged: self.staged,
            _state: PhantomData,
        }
    }
}

/// The outcome of a [`CallOr`] transition: either the primary reply or
/// a session diverted into the alternative sub-choreography.
pub enum Branch<R: Role, Next: State, Alt: State> {
    /// The acceptable reply arrived; continue on the primary path.
    Primary(ProtocolMessage, Session<R, Next>),
    /// The peer defected (or transport failed); the session diverts to
    /// the alternative sub-choreography, holding the tokens this party
    /// issued in the diverted round's request — the evidence it already
    /// committed, which the alternative path may present.
    Diverted(Vec<NrToken>, Session<R, Alt>),
}

impl<R: Role, const STEP: u32, const REPLY: u32, Next: State> Session<R, Call<STEP, REPLY, Next>> {
    /// Sends `body` as step `STEP` to `to`, in a frame carrying the
    /// tokens `tokens` asks this party to issue at this step (see
    /// [`ExchangeEngine::request_frame`]); the signed `REPLY` is pinned to
    /// this run and verified under `to`'s key.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Net`] after retries; [`ProtocolError::Rejected`]
    /// if the peer refuses the frame; [`ProtocolError::BadMessage`] or
    /// [`ProtocolError::BadSignature`] on a wrong step or bad frame
    /// signature; [`ProtocolError::Signing`] if signing fails.
    pub fn call(
        mut self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(ProtocolMessage, Session<R, Next>), ProtocolError> {
        let msg = self.send(STEP, body, tokens)?;
        let reply = self.engine.deliver(to, &msg)?;
        let reply = self.engine.expect_step(self.run, REPLY, reply)?;
        self.engine.verify_frame_from(&reply, to)?;
        self.completed(STEP);
        Ok((reply, self.advance()))
    }
}

impl<R: Role, const STEP: u32, const REPLY: u32, Next: State>
    Session<R, CallRelayed<STEP, REPLY, Next>>
{
    /// As [`Session::call`], but the reply frame is verified under its
    /// *sender*'s key — the first hop of a relay chain answers, not the
    /// final destination.
    ///
    /// # Errors
    ///
    /// As [`Session::call`].
    pub fn call_relayed(
        mut self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(ProtocolMessage, Session<R, Next>), ProtocolError> {
        let msg = self.send(STEP, body, tokens)?;
        let reply = self.engine.deliver(to, &msg)?;
        let reply = self.engine.expect_step(self.run, REPLY, reply)?;
        self.engine.verify_sender_frame(&reply)?;
        self.completed(STEP);
        Ok((reply, self.advance()))
    }
}

impl<R: Role, const STEP: u32, const REPLY: u32, Next: State>
    Session<R, CallOpen<STEP, REPLY, Next>>
{
    /// As [`Session::call`], but the reply frame is not verified — the
    /// payload carries its own evidence (tokens), or none by design.
    ///
    /// # Errors
    ///
    /// As [`Session::call`], minus frame-signature faults.
    pub fn call_open(
        mut self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(ProtocolMessage, Session<R, Next>), ProtocolError> {
        let msg = self.send(STEP, body, tokens)?;
        let reply = self.engine.deliver(to, &msg)?;
        let reply = self.engine.expect_step(self.run, REPLY, reply)?;
        self.completed(STEP);
        Ok((reply, self.advance()))
    }
}

impl<R: Role, const STEP: u32, const REPLY: u32, Next: State> Session<R, Fan<STEP, REPLY, Next>> {
    /// Signs `body` as step `STEP` once, in a frame carrying the tokens
    /// `tokens` asks this party to issue (see
    /// [`ExchangeEngine::request_frame`]), and delivers that frame to
    /// each of `peers` in order; returns their `REPLY`s, pinned to this
    /// run, in peer order.
    ///
    /// # Errors
    ///
    /// As [`Session::call_open`], from the first peer that fails.
    pub fn fan(
        mut self,
        peers: &[OrgId],
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(Vec<ProtocolMessage>, Session<R, Next>), ProtocolError> {
        let msg = self.send(STEP, body, tokens)?;
        let replies = peers
            .iter()
            .map(|peer| {
                let reply = self.engine.deliver(peer, &msg)?;
                self.engine.expect_step(self.run, REPLY, reply)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.completed(STEP);
        Ok((replies, self.advance()))
    }
}

impl<R: Role, const STEP: u32, const REPLY: u32, Next: State>
    Session<R, CallLossy<STEP, REPLY, Next>>
{
    /// Sends `body` (and `tokens`, as in [`Session::call`]) as step
    /// `STEP`, tolerating a lost ack: returns
    /// whether a `REPLY`-stepped ack arrived. A transport fault
    /// ([`ProtocolError::Net`]) or the peer's refusal
    /// ([`ProtocolError::Rejected`]) is *not* an error — it reads as a
    /// lost ack and the session still advances (the exchange is complete
    /// for this side; the peer may chase the receipt).
    ///
    /// # Errors
    ///
    /// Local faults (signing, journalling) and any other error the
    /// round returns.
    pub fn call_lossy(
        mut self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(bool, Session<R, Next>), ProtocolError> {
        let msg = self.send(STEP, body, tokens)?;
        let outcome = match self.engine.deliver(to, &msg) {
            Ok(ack) => ack.step == REPLY,
            Err(ProtocolError::Net(_) | ProtocolError::Rejected(_)) => false,
            Err(e) => return Err(e),
        };
        self.completed(STEP);
        Ok((outcome, self.advance()))
    }
}

impl<R: Role, const STEP: u32, const REPLY: u32, Next: State, Alt: State>
    Session<R, CallOr<STEP, REPLY, Next, Alt>>
{
    /// Sends `body` (and `tokens`, as in [`Session::call`]) as step
    /// `STEP` and branches on the outcome: a
    /// `REPLY`-stepped answer of this run that satisfies `accept`
    /// continues on the primary path; anything else — wrong step,
    /// rejected payload, or a transport fault — diverts the session to
    /// the `Alt` sub-choreography (the defection/dispute path).
    ///
    /// # Errors
    ///
    /// Only local faults (signing); every remote misbehaviour is a
    /// branch, not an error.
    pub fn call_or(
        mut self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
        accept: impl FnOnce(&ProtocolMessage) -> bool,
    ) -> Result<Branch<R, Next, Alt>, ProtocolError> {
        let msg = self.send(STEP, body, tokens)?;
        match self.engine.deliver(to, &msg) {
            Ok(reply) if reply.step == REPLY && reply.run_id == self.run && accept(&reply) => {
                self.completed(STEP);
                Ok(Branch::Primary(reply, self.advance()))
            }
            _ => Ok(Branch::Diverted(msg.tokens, self.advance())),
        }
    }
}

impl<R: Role, const STEP: u32, const REPLY: u32, Next: State>
    Session<R, Forward<STEP, REPLY, Next>>
{
    /// Forwards a pre-signed frame unchanged to the next hop and
    /// verifies the signed reply under its sender's key (the relay never
    /// re-frames: the originator's signature travels end-to-end).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadMessage`] if `msg` is not step `STEP` or the
    /// reply step mismatches, [`ProtocolError::BadSignature`] if the
    /// reply frame fails verification; [`ProtocolError::Net`] after
    /// retries.
    pub fn forward(
        mut self,
        to: &OrgId,
        msg: &ProtocolMessage,
    ) -> Result<(ProtocolMessage, Session<R, Next>), ProtocolError> {
        if msg.step != STEP || msg.run_id != self.run {
            return Err(ProtocolError::BadMessage(format!(
                "forwarding step {} where step {STEP} is due",
                msg.step
            )));
        }
        let reply = self.engine.deliver(to, msg)?;
        let reply = self.engine.expect_step(self.run, REPLY, reply)?;
        self.engine.verify_sender_frame(&reply)?;
        self.completed(STEP);
        Ok((reply, self.advance()))
    }
}

impl<R: Role> Session<R, End> {
    /// Completes the run: journals the close marker, if journalling is
    /// on, and persists it with the last step's records in one batch.
    /// The run's evidence is sealed with whatever epoch the commitment
    /// policy seals next, close marker included.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] if the records cannot be persisted.
    pub fn finish(mut self) -> Result<(), ProtocolError> {
        let records = &mut self.staged.records;
        self.engine
            .journal_into(records, self.run, 0, MarkerPhase::Closed);
        self.engine.party().persist(records)
    }

    /// Ends a sub-choreography inside a handler's step without closing
    /// the run: the step's records go to the frame that answers it
    /// (`ExchangeEngine::request_frame_after`).
    pub(crate) fn into_records(mut self) -> Vec<StepRecord> {
        std::mem::take(&mut self.staged.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Direct = Call<1, 2, CallLossy<3, 4, End>>;
    type WithBranch = Call<1, 2, CallOr<3, 4, End, CallOpen<20, 21, End>>>;

    #[test]
    fn linear_traces_concatenate() {
        let traces = Direct::traces();
        assert_eq!(
            traces,
            vec![vec![
                TraceStep::new(1, 2, WireMode::Signed),
                TraceStep::new(3, 4, WireMode::Lossy),
            ]]
        );
    }

    #[test]
    fn branching_states_fork_the_trace_set() {
        let traces = WithBranch::traces();
        assert_eq!(traces.len(), 2, "primary and diverted paths");
        assert_eq!(
            traces[0],
            vec![
                TraceStep::new(1, 2, WireMode::Signed),
                TraceStep::new(3, 4, WireMode::Signed),
            ]
        );
        assert_eq!(
            traces[1],
            vec![
                TraceStep::new(1, 2, WireMode::Signed),
                TraceStep::new(3, 4, WireMode::Signed),
                TraceStep::new(20, 21, WireMode::Open),
            ]
        );
    }

    #[test]
    fn end_has_the_empty_trace() {
        assert_eq!(End::traces(), vec![Vec::<TraceStep>::new()]);
    }
}
