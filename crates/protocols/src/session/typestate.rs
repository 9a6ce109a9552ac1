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

use nonrep_store::MarkerPhase;
use nonrep_types::ids::{OrgId, RunId};

use super::engine::ExchangeEngine;
use super::trace::{prepend, TraceStep, WireMode};
use crate::message::ProtocolMessage;
use crate::scheduler::TokenSpec;
use crate::tokens::NrToken;
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
pub struct Session<R: Role, S: State> {
    engine: ExchangeEngine,
    run: RunId,
    _state: PhantomData<(R, S)>,
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
        Self {
            engine,
            run,
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

    fn advance<T: State>(self) -> Session<R, T> {
        Session::open(self.engine, self.run)
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
        self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(ProtocolMessage, Session<R, Next>), ProtocolError> {
        let msg = self.engine.request_frame(self.run, STEP, body, tokens)?;
        let reply = self.engine.deliver(to, &msg)?;
        let reply = self.engine.expect_step(self.run, REPLY, reply)?;
        self.engine.verify_frame_from(&reply, to)?;
        self.engine.journal(self.run, STEP, MarkerPhase::Progress)?;
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
        self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(ProtocolMessage, Session<R, Next>), ProtocolError> {
        let msg = self.engine.request_frame(self.run, STEP, body, tokens)?;
        let reply = self.engine.deliver(to, &msg)?;
        let reply = self.engine.expect_step(self.run, REPLY, reply)?;
        self.engine.verify_sender_frame(&reply)?;
        self.engine.journal(self.run, STEP, MarkerPhase::Progress)?;
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
        self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(ProtocolMessage, Session<R, Next>), ProtocolError> {
        let msg = self.engine.request_frame(self.run, STEP, body, tokens)?;
        let reply = self.engine.deliver(to, &msg)?;
        let reply = self.engine.expect_step(self.run, REPLY, reply)?;
        self.engine.journal(self.run, STEP, MarkerPhase::Progress)?;
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
        self,
        peers: &[OrgId],
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(Vec<ProtocolMessage>, Session<R, Next>), ProtocolError> {
        let msg = self.engine.request_frame(self.run, STEP, body, tokens)?;
        let replies = peers
            .iter()
            .map(|peer| {
                let reply = self.engine.deliver(peer, &msg)?;
                self.engine.expect_step(self.run, REPLY, reply)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.engine.journal(self.run, STEP, MarkerPhase::Progress)?;
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
        self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
    ) -> Result<(bool, Session<R, Next>), ProtocolError> {
        let msg = self.engine.request_frame(self.run, STEP, body, tokens)?;
        let outcome = match self.engine.deliver(to, &msg) {
            Ok(ack) => ack.step == REPLY,
            Err(ProtocolError::Net(_) | ProtocolError::Rejected(_)) => false,
            Err(e) => return Err(e),
        };
        self.engine.journal(self.run, STEP, MarkerPhase::Progress)?;
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
        self,
        to: &OrgId,
        body: Vec<u8>,
        tokens: &[TokenSpec],
        accept: impl FnOnce(&ProtocolMessage) -> bool,
    ) -> Result<Branch<R, Next, Alt>, ProtocolError> {
        let msg = self.engine.request_frame(self.run, STEP, body, tokens)?;
        match self.engine.deliver(to, &msg) {
            Ok(reply) if reply.step == REPLY && reply.run_id == self.run && accept(&reply) => {
                self.engine.journal(self.run, STEP, MarkerPhase::Progress)?;
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
        self,
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
        self.engine.journal(self.run, STEP, MarkerPhase::Progress)?;
        Ok((reply, self.advance()))
    }
}

impl<R: Role> Session<R, End> {
    /// Completes the run: journals the close marker, if journalling is
    /// on. The run's evidence is sealed with whatever epoch the
    /// commitment policy seals next, close marker included.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] if the marker cannot be persisted.
    pub fn finish(self) -> Result<(), ProtocolError> {
        self.engine.journal(self.run, 0, MarkerPhase::Closed)
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
