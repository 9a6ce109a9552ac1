//! NR interceptors: where non-repudiation meets the container.
//!
//! Paper §4.2: "We add an extra interceptor — the JBoss NR interceptor — to
//! both client and server invocation paths. These NR interceptors are
//! responsible for triggering execution of a non-repudiation protocol."
//!
//! * [`ClientNrInterceptor`] sits **first** in the client proxy's chain.
//!   Instead of letting the invocation reach the plain transport terminal,
//!   it serialises the invocation, runs the configured NR protocol through
//!   the organisation's coordinator, and returns the evidenced response.
//! * [`ContainerExecutor`] is the server-side counterpart: protocol
//!   handlers call it "at the appropriate point during execution of the
//!   non-repudiation protocol \[when\] the client's request is actually
//!   passed through the interceptor chain to the EJB component" — it runs
//!   the *full server chain* (every interceptor the container deployed),
//!   so a request that arrives with valid evidence can still be refused by
//!   the chain, and that refusal is itself evidenced.

use std::fmt;
use std::sync::Arc;

use nonrep_container::interceptor::{Chain, Interceptor, Invocation};
use nonrep_container::{Container, ContainerError};
use nonrep_protocols::invocation::direct::DirectClient;
use nonrep_protocols::invocation::fair_offline::FairClient;
use nonrep_protocols::invocation::inline_ttp::InlineTtpClient;
use nonrep_protocols::invocation::voluntary::VoluntaryClient;
use nonrep_protocols::invocation::{RequestExecutor, ServerResponse};
use nonrep_protocols::ProtocolError;
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::OrgId;
use nonrep_types::value::Value;

/// The protocol client run by a [`ClientNrInterceptor`].
pub enum ProtocolClient {
    /// Three-message direct exchange (paper §3.2).
    Direct(DirectClient),
    /// Asymmetric voluntary baseline (paper §5, ref \[23\]).
    Voluntary(VoluntaryClient),
    /// Routed through inline TTP(s) (paper Fig 3(a)/(b)).
    InlineTtp(InlineTtpClient),
    /// Fair exchange with an offline TTP.
    FairOffline(FairClient),
}

impl fmt::Debug for ProtocolClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProtocolClient::Direct(_) => "direct",
            ProtocolClient::Voluntary(_) => "voluntary",
            ProtocolClient::InlineTtp(_) => "inline-ttp",
            ProtocolClient::FairOffline(_) => "fair-offline",
        };
        write!(f, "ProtocolClient({name})")
    }
}

/// Client-side NR interceptor.
///
/// Install it first in a proxy's chain
/// ([`ClientProxy::add_first_interceptor`]); it terminates the chain itself
/// (the plain transport terminal is never reached for NR services).
///
/// [`ClientProxy::add_first_interceptor`]: nonrep_container::proxy::ClientProxy::add_first_interceptor
pub struct ClientNrInterceptor {
    target: OrgId,
    client: ProtocolClient,
}

impl fmt::Debug for ClientNrInterceptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClientNrInterceptor(target={}, {:?})",
            self.target, self.client
        )
    }
}

fn map_protocol_err(e: ProtocolError) -> ContainerError {
    ContainerError::Protocol(e.to_string())
}

fn decode_response(response: ServerResponse) -> Result<Value, ContainerError> {
    match response {
        ServerResponse::Executed(bytes) => {
            Value::decode_from_slice(&bytes).map_err(|e| ContainerError::Wire(e.to_string()))
        }
        ServerResponse::Failed(msg) => Err(ContainerError::Application(msg)),
    }
}

impl ClientNrInterceptor {
    /// Creates an interceptor running `client` against `target`.
    pub fn new(target: OrgId, client: ProtocolClient) -> Arc<Self> {
        Arc::new(Self { target, client })
    }

    /// Runs the protocol for an already-serialised request.
    fn run(&self, request: Vec<u8>) -> Result<Value, ContainerError> {
        match &self.client {
            ProtocolClient::Direct(c) => {
                let out = c.invoke(&self.target, request).map_err(map_protocol_err)?;
                decode_response(out.response)
            }
            ProtocolClient::Voluntary(c) => {
                let out = c.invoke(&self.target, request).map_err(map_protocol_err)?;
                decode_response(out.response)
            }
            ProtocolClient::InlineTtp(c) => {
                let out = c.invoke(&self.target, request).map_err(map_protocol_err)?;
                decode_response(out.response)
            }
            ProtocolClient::FairOffline(c) => {
                let out = c.invoke(&self.target, request).map_err(map_protocol_err)?;
                decode_response(out.response)
            }
        }
    }
}

impl Interceptor for ClientNrInterceptor {
    fn invoke(&self, inv: Invocation, _chain: &Chain<'_>) -> Result<Value, ContainerError> {
        // The NR interceptor replaces the rest of the outgoing path: the
        // invocation travels inside the protocol messages, not over the
        // plain transport (paper §4.2: the invocation handler "replaces the
        // arguments to the service invocation with the first message of the
        // protocol").
        self.run(inv.encode_to_vec())
    }

    fn name(&self) -> &str {
        "nr-client"
    }
}

/// Server-side executor bridging protocol handlers to the container.
pub struct ContainerExecutor {
    container: Arc<Container>,
}

impl fmt::Debug for ContainerExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContainerExecutor({})", self.container.org())
    }
}

impl ContainerExecutor {
    /// Wraps `container` as a protocol-side request executor.
    pub fn new(container: Arc<Container>) -> Arc<Self> {
        Arc::new(Self { container })
    }
}

impl RequestExecutor for ContainerExecutor {
    fn execute(&self, caller: &OrgId, request: &[u8]) -> Result<Vec<u8>, String> {
        let mut inv =
            Invocation::decode_from_slice(request).map_err(|e| format!("bad request: {e}"))?;
        // The authenticated protocol-level sender overrides whatever caller
        // the serialized invocation claims: identity comes from evidence,
        // not from the payload.
        inv.caller = caller.clone();
        let value = self.container.invoke(inv).map_err(|e| e.to_string())?;
        Ok(value.encode_to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_container::component::FnComponent;
    use nonrep_container::descriptor::DeploymentDescriptor;
    use nonrep_types::ids::MethodName;

    fn container() -> Arc<Container> {
        let c = Container::new("server");
        c.deploy(
            DeploymentDescriptor::new("urn:svc", [MethodName::new("who")]),
            Arc::new(
                FnComponent::new().method("who", |args| Ok(Value::map([("echo", args.clone())]))),
            ),
        )
        .unwrap();
        c
    }

    #[test]
    fn executor_roundtrips_invocations() {
        let exec = ContainerExecutor::new(container());
        let inv = Invocation::new("claimed-caller", "urn:svc", "who", Value::from(1i64));
        let out = exec
            .execute(&OrgId::new("real-caller"), &inv.encode_to_vec())
            .unwrap();
        let value = Value::decode_from_slice(&out).unwrap();
        assert_eq!(value.get("echo"), Some(&Value::from(1i64)));
    }

    #[test]
    fn executor_rejects_garbage() {
        let exec = ContainerExecutor::new(container());
        assert!(exec.execute(&OrgId::new("x"), b"junk").is_err());
    }

    #[test]
    fn executor_reports_container_errors() {
        let exec = ContainerExecutor::new(container());
        let inv = Invocation::new("c", "urn:svc", "missing", Value::Null);
        let err = exec
            .execute(&OrgId::new("c"), &inv.encode_to_vec())
            .unwrap_err();
        assert!(err.contains("missing"));
    }

    #[test]
    fn decode_response_maps_failures() {
        assert!(matches!(
            decode_response(ServerResponse::Failed("no".into())),
            Err(ContainerError::Application(_))
        ));
        let ok = decode_response(ServerResponse::Executed(Value::from(5i64).encode_to_vec()));
        assert_eq!(ok.unwrap(), Value::from(5i64));
        assert!(matches!(
            decode_response(ServerResponse::Executed(b"junk".to_vec())),
            Err(ContainerError::Wire(_))
        ));
    }
}
