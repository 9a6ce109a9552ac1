//! Protocol handlers.
//!
//! Paper §4.1: "To execute specific protocols, and meet different
//! application or platform requirements, custom protocol handlers are
//! registered with the coordinator service. The coordinator is responsible
//! for mapping an incoming protocol message to an appropriate handler."
//!
//! ```text
//! B2BProtocolHandler {
//!     void process(B2BProtocolMessage msg);
//!     B2BProtocolMessage processRequest(B2BProtocolMessage msg);
//! }
//! ```

use nonrep_types::ids::{OrgId, ProtocolId};

use crate::message::ProtocolMessage;
use crate::ProtocolError;

/// A registered protocol's server-side message processor.
pub trait ProtocolHandler: Send + Sync {
    /// The protocol this handler executes.
    fn protocol(&self) -> ProtocolId;

    /// Processes a one-way message (the coordinator's `deliver` path).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; the sender's coordinator reports it as
    /// [`ProtocolError::Rejected`] (a `Rejected` as itself, others by text).
    fn process(&self, from: &OrgId, msg: ProtocolMessage) -> Result<(), ProtocolError>;

    /// Processes a request message and produces the response message
    /// (the `deliverRequest` path).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`].
    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError>;
}
