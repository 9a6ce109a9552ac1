//! Component container: the J2EE/JBoss stand-in.
//!
//! Paper §4 implements non-repudiation by inserting interceptors into a
//! J2EE container's invocation path: "An application-level invocation
//! passes through a chain of interceptors, each interceptor completing some
//! task before passing the invocation to the next interceptor in the
//! chain." and "JBoss provides interceptors both at the server and the
//! client (using a dynamic proxy)."
//!
//! This crate reproduces that machinery:
//!
//! * [`component`] — the [`Component`] trait (the "enterprise bean"):
//!   business logic invoked by method name with [`Value`] arguments.
//! * [`descriptor`] — [`DeploymentDescriptor`]: per-component declarative
//!   configuration, including whether non-repudiation is required and with
//!   which protocol (§4.2: "The application programmer on the server side
//!   is responsible for identifying, in a bean's deployment descriptor,
//!   when non-repudiation is required").
//! * [`interceptor`] — [`Interceptor`], [`Chain`], [`Invocation`]: the
//!   chain-of-responsibility invocation path, plus a stock metrics
//!   interceptor.
//! * [`container`] — [`Container`]: deploys components with descriptors
//!   and runs the server-side chain.
//! * [`proxy`] — [`ClientProxy`]: the client-side dynamic proxy running a
//!   client chain whose terminal ships the invocation over the bus to the
//!   remote container ([`BusTransport`] / [`ContainerEndpoint`]).
//!
//! [`Value`]: nonrep_types::value::Value

pub mod component;
pub mod container;
pub mod descriptor;
pub mod interceptor;
pub mod proxy;

pub use component::{Component, FnComponent};
pub use container::Container;
pub use descriptor::{DeploymentDescriptor, EvidenceDurability, NrConfig};
pub use interceptor::{Chain, Interceptor, Invocation, InvocationTarget};
pub use proxy::{BusTransport, ClientProxy, ContainerEndpoint, ProxyTransport};

use std::error::Error;
use std::fmt;

use nonrep_types::ids::{MethodName, ServiceUri};

/// Errors from the container invocation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// No component deployed under the service name.
    NoSuchService(ServiceUri),
    /// The component does not export the method.
    NoSuchMethod(ServiceUri, MethodName),
    /// Business-logic failure raised by the component.
    Application(String),
    /// Transport failure between client proxy and remote container.
    Transport(String),
    /// Non-repudiation protocol failure (raised by NR interceptors).
    Protocol(String),
    /// Malformed wire bytes.
    Wire(String),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::NoSuchService(s) => write!(f, "no such service: {s}"),
            ContainerError::NoSuchMethod(s, m) => write!(f, "no method {m} on {s}"),
            ContainerError::Application(msg) => write!(f, "application error: {msg}"),
            ContainerError::Transport(msg) => write!(f, "transport error: {msg}"),
            ContainerError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ContainerError::Wire(msg) => write!(f, "wire error: {msg}"),
        }
    }
}

impl Error for ContainerError {}
