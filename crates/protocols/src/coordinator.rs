//! The B2BCoordinator service.
//!
//! Paper §4.1: "Each trusted interceptor provides a B2BCoordinator service
//! for the exchange of messages with other trusted interceptors. … This
//! service is the external entry point for execution of non-repudiation
//! protocols."
//!
//! ```text
//! B2BCoordinatorRemote {
//!     void deliver(B2BProtocolMessage msg);
//!     B2BProtocolMessage deliverRequest(B2BProtocolMessage msg);
//! }
//! ```
//!
//! [`B2BCoordinator`] implements both the *local* side (handler registry +
//! dispatch; it is a [`BusEndpoint`]) and the *remote-facing* side
//! ([`B2BCoordinator::deliver`]/[`B2BCoordinator::deliver_request`] send to
//! a peer's coordinator over the bus, with bounded retries).
//!
//! A peer handler's `Err` crosses the bus as [`NetError::Endpoint`]
//! carrying the handler's message; the two send methods are the one
//! place it becomes [`ProtocolError::Rejected`], the peer's typed
//! refusal. Every other [`NetError`] is a transport fault
//! ([`ProtocolError::Net`]). A refusal is not retried.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use nonrep_net::bus::BusEndpoint;
use nonrep_net::retry::ReliableRequester;
use nonrep_net::NetError;
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::{OrgId, ProtocolId};

use crate::handler::ProtocolHandler;
use crate::message::ProtocolMessage;
use crate::ProtocolError;

/// Coordinator: protocol-handler registry + message dispatch.
pub struct B2BCoordinator {
    org: OrgId,
    handlers: RwLock<HashMap<ProtocolId, Arc<dyn ProtocolHandler>>>,
    requester: ReliableRequester,
    /// Suffix appended to peer organisation ids to form their coordinator's
    /// bus address (deployments that register the coordinator separately
    /// from the component container use e.g. `"#b2b"`).
    peer_suffix: String,
}

impl fmt::Debug for B2BCoordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("B2BCoordinator")
            .field("org", &self.org)
            .field("protocols", &self.handlers.read().len())
            .finish()
    }
}

impl B2BCoordinator {
    /// Creates a coordinator for `org` sending through `requester`.
    pub fn new(org: impl Into<OrgId>, requester: ReliableRequester) -> Arc<Self> {
        Arc::new(Self {
            org: org.into(),
            handlers: RwLock::new(HashMap::new()),
            requester,
            peer_suffix: String::new(),
        })
    }

    /// Creates a coordinator whose outbound messages target
    /// `"{peer}{suffix}"` on the bus (see `peer_suffix` field docs).
    pub fn with_peer_suffix(
        org: impl Into<OrgId>,
        requester: ReliableRequester,
        suffix: impl Into<String>,
    ) -> Arc<Self> {
        Arc::new(Self {
            org: org.into(),
            handlers: RwLock::new(HashMap::new()),
            requester,
            peer_suffix: suffix.into(),
        })
    }

    fn wire_addr(&self, to: &OrgId) -> OrgId {
        if self.peer_suffix.is_empty() {
            to.clone()
        } else {
            OrgId::new(format!("{to}{}", self.peer_suffix))
        }
    }

    /// The owning organisation.
    pub fn org(&self) -> &OrgId {
        &self.org
    }

    /// Registers a protocol handler (replacing any previous handler for the
    /// same protocol id) — the paper's "custom protocol handlers are
    /// registered with the coordinator service".
    pub fn register_handler(&self, handler: Arc<dyn ProtocolHandler>) {
        self.handlers.write().insert(handler.protocol(), handler);
    }

    /// Removes the handler for `protocol`.
    pub fn unregister_handler(&self, protocol: &ProtocolId) {
        self.handlers.write().remove(protocol);
    }

    /// Registered protocol ids.
    pub fn protocols(&self) -> Vec<ProtocolId> {
        self.handlers.read().keys().cloned().collect()
    }

    fn handler_for(
        &self,
        protocol: &ProtocolId,
    ) -> Result<Arc<dyn ProtocolHandler>, ProtocolError> {
        self.handlers
            .read()
            .get(protocol)
            .cloned()
            .ok_or_else(|| ProtocolError::UnknownProtocol(protocol.clone()))
    }

    /// Dispatches an incoming one-way message to its handler.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownProtocol`] or the handler's error.
    pub fn dispatch(&self, from: &OrgId, msg: ProtocolMessage) -> Result<(), ProtocolError> {
        self.handler_for(&msg.protocol)?.process(from, msg)
    }

    /// Dispatches an incoming request message, returning the response.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownProtocol`] or the handler's error.
    fn dispatch_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.handler_for(&msg.protocol)?.process_request(from, msg)
    }

    /// Sends a one-way protocol message to `to`'s coordinator (`deliver`).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Net`] after retries are exhausted;
    /// [`ProtocolError::Rejected`] if `to`'s handler refused the message.
    pub fn deliver(&self, to: &OrgId, msg: &ProtocolMessage) -> Result<(), ProtocolError> {
        self.requester
            .send(&self.org, &self.wire_addr(to), &msg.encode_to_vec())
            .map_err(refusal_or_net)?;
        Ok(())
    }

    /// Sends a request message to `to`'s coordinator and awaits the
    /// response (`deliverRequest`).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Net`] after retries; [`ProtocolError::Rejected`]
    /// if `to`'s handler refused the request; [`ProtocolError::BadMessage`]
    /// if the response fails to decode.
    pub fn deliver_request(
        &self,
        to: &OrgId,
        msg: &ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        let out = self
            .requester
            .request(&self.org, &self.wire_addr(to), &msg.encode_to_vec())
            .map_err(refusal_or_net)?;
        ProtocolMessage::decode_from_slice(&out.value)
            .map_err(|e| ProtocolError::BadMessage(format!("undecodable response: {e}")))
    }
}

/// A peer's refusal (see the module docs) or a transport fault.
fn refusal_or_net(e: NetError) -> ProtocolError {
    match e {
        NetError::Endpoint(msg) => ProtocolError::Rejected(msg),
        e => ProtocolError::Net(e),
    }
}

/// A handler's error as it crosses the bus: a refusal as its own text
/// (the sender's [`refusal_or_net`] restores it), else its `Display`.
fn wire_error(e: ProtocolError) -> String {
    match e {
        ProtocolError::Rejected(reason) => reason,
        e => e.to_string(),
    }
}

impl BusEndpoint for B2BCoordinator {
    fn handle_oneway(&self, from: &OrgId, payload: &[u8]) -> Result<(), String> {
        let msg = ProtocolMessage::decode_from_slice(payload).map_err(|e| e.to_string())?;
        self.dispatch(from, msg).map_err(wire_error)
    }

    fn handle_request(&self, from: &OrgId, payload: &[u8]) -> Result<Vec<u8>, String> {
        let msg = ProtocolMessage::decode_from_slice(payload).map_err(|e| e.to_string())?;
        let resp = self.dispatch_request(from, msg).map_err(wire_error)?;
        Ok(resp.encode_to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_net::bus::LocalBus;
    use nonrep_net::retry::RetryPolicy;
    use nonrep_types::ids::RunId;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Echo handler: responds with the same body at step+1.
    struct EchoHandler {
        seen_oneway: Mutex<Vec<ProtocolMessage>>,
        me: OrgId,
    }

    impl ProtocolHandler for EchoHandler {
        fn protocol(&self) -> ProtocolId {
            ProtocolId::new("echo")
        }
        fn process(&self, _from: &OrgId, msg: ProtocolMessage) -> Result<(), ProtocolError> {
            self.seen_oneway.lock().push(msg);
            Ok(())
        }
        fn process_request(
            &self,
            _from: &OrgId,
            msg: ProtocolMessage,
        ) -> Result<ProtocolMessage, ProtocolError> {
            Ok(ProtocolMessage::new(
                msg.protocol.clone(),
                msg.run_id,
                msg.step + 1,
                self.me.clone(),
                msg.body,
            ))
        }
    }

    fn wired_pair() -> (Arc<B2BCoordinator>, Arc<B2BCoordinator>, Arc<EchoHandler>) {
        let bus = LocalBus::new();
        let a = OrgId::new("a");
        let b = OrgId::new("b");
        let coord_a = B2BCoordinator::new(
            a.clone(),
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        let coord_b = B2BCoordinator::new(
            b.clone(),
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        let handler = Arc::new(EchoHandler {
            seen_oneway: Mutex::new(Vec::new()),
            me: b.clone(),
        });
        coord_b.register_handler(handler.clone());
        bus.register(a, coord_a.clone());
        bus.register(b, coord_b.clone());
        (coord_a, coord_b, handler)
    }

    fn msg(step: u32) -> ProtocolMessage {
        ProtocolMessage::new("echo", RunId::from_u128(7), step, "a", b"hello".to_vec())
    }

    #[test]
    fn deliver_request_roundtrip() {
        let (coord_a, _coord_b, _handler) = wired_pair();
        let resp = coord_a.deliver_request(&OrgId::new("b"), &msg(1)).unwrap();
        assert_eq!(resp.step, 2);
        assert_eq!(resp.sender, OrgId::new("b"));
        assert_eq!(resp.body, b"hello");
    }

    #[test]
    fn deliver_oneway_reaches_handler() {
        let (coord_a, _coord_b, handler) = wired_pair();
        coord_a.deliver(&OrgId::new("b"), &msg(1)).unwrap();
        assert_eq!(handler.seen_oneway.lock().len(), 1);
    }

    #[test]
    fn unknown_protocol_is_reported() {
        let (coord_a, _coord_b, _handler) = wired_pair();
        let bad = ProtocolMessage::new("nope", RunId::from_u128(1), 1, "a", vec![]);
        let err = coord_a.deliver_request(&OrgId::new("b"), &bad).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::Rejected("unknown protocol: nope".into())
        );
    }

    /// Refuses every request and counts how often it was asked.
    struct RefusingHandler {
        calls: AtomicUsize,
    }

    impl ProtocolHandler for RefusingHandler {
        fn protocol(&self) -> ProtocolId {
            ProtocolId::new("refuse")
        }
        fn process(&self, _from: &OrgId, _msg: ProtocolMessage) -> Result<(), ProtocolError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Err(ProtocolError::Rejected("not today".into()))
        }
        fn process_request(
            &self,
            _from: &OrgId,
            _msg: ProtocolMessage,
        ) -> Result<ProtocolMessage, ProtocolError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Err(ProtocolError::BadMessage("not today".into()))
        }
    }

    #[test]
    fn handler_refusal_arrives_as_rejected_once() {
        let (coord_a, coord_b, _handler) = wired_pair();
        let refusing = Arc::new(RefusingHandler {
            calls: AtomicUsize::new(0),
        });
        coord_b.register_handler(refusing.clone());
        let b = OrgId::new("b");
        let req = ProtocolMessage::new("refuse", RunId::from_u128(2), 1, "a", vec![]);
        // The requesters retry transient faults up to 4 attempts; a
        // refusal is not one of them.
        let err = coord_a.deliver_request(&b, &req).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::Rejected("bad message: not today".into())
        );
        assert_eq!(refusing.calls.load(Ordering::SeqCst), 1);
        let err = coord_a.deliver(&b, &req).unwrap_err();
        assert_eq!(err, ProtocolError::Rejected("not today".into()));
        assert_eq!(refusing.calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn handler_replacement_and_unregister() {
        let (_coord_a, coord_b, _handler) = wired_pair();
        assert_eq!(coord_b.protocols(), vec![ProtocolId::new("echo")]);
        coord_b.unregister_handler(&ProtocolId::new("echo"));
        assert!(coord_b.protocols().is_empty());
        assert!(matches!(
            coord_b.dispatch(&OrgId::new("a"), msg(1)),
            Err(ProtocolError::UnknownProtocol(_))
        ));
    }

    #[test]
    fn garbage_payload_rejected_at_endpoint() {
        let (_a, coord_b, _h) = wired_pair();
        assert!(coord_b.handle_oneway(&OrgId::new("a"), b"junk").is_err());
        assert!(coord_b.handle_request(&OrgId::new("a"), b"junk").is_err());
    }
}
