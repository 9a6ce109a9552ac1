//! Deployment descriptors.
//!
//! The declarative half of the paper's programming model: the application
//! programmer *identifies* (not implements) the container services a
//! component needs. §4.2: the server-side programmer identifies "when
//! non-repudiation is required and … the platform and protocol for
//! instantiation of the B2BInvocationHandler". Here the protocol is the
//! whole of that choice: the middleware runs natively, so there is no
//! platform to name.

use nonrep_types::ids::{MethodName, ProtocolId, ServiceUri};

/// Declarative evidence-durability requirement: how the hosting
/// middleware's evidence log must make appends durable. Mirrors the
/// store's `DurabilityClass` without depending on it (descriptors are
/// pure declarations); the middleware validates the requirement against
/// the log actually in force at deploy time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceDurability {
    /// Every append must be durable before it returns (a write-through
    /// file log). Highest per-append cost, zero loss window.
    WriteThrough,
    /// Appends may buffer; the epoch seal hands them to a background
    /// sync thread and concurrent epochs share one device barrier
    /// (lowest append latency; loss window = unsealed + unacked tail).
    GroupCommit,
}

/// Non-repudiation configuration for a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NrConfig {
    /// Which registered protocol to execute (e.g. `"direct"`).
    pub protocol: ProtocolId,
    /// Required durability class of the hosting middleware's evidence
    /// log. `None` accepts whatever the deployment runs (including the
    /// in-memory log of tests); `Some(req)` makes a mismatch a
    /// deployment error — a component that *identifies* a group-commit
    /// durability requirement must not silently land on a backend that
    /// fsyncs inline (or not at all).
    pub evidence_durability: Option<EvidenceDurability>,
}

impl NrConfig {
    /// Configuration selecting `protocol`.
    pub fn protocol(protocol: impl Into<ProtocolId>) -> Self {
        Self {
            protocol: protocol.into(),
            evidence_durability: None,
        }
    }

    /// Requires the hosting middleware's evidence log to provide the
    /// given durability class (deploy fails on a mismatch).
    #[must_use]
    pub fn with_evidence_durability(mut self, durability: EvidenceDurability) -> Self {
        self.evidence_durability = Some(durability);
        self
    }
}

/// A component's deployment descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentDescriptor {
    /// Service name the component is bound to.
    pub service: ServiceUri,
    /// Exported methods (subset of the component's methods).
    pub methods: Vec<MethodName>,
    /// Non-repudiation requirement, if any.
    pub non_repudiation: Option<NrConfig>,
}

impl DeploymentDescriptor {
    /// Starts a descriptor for `service` exporting `methods`.
    pub fn new(
        service: impl Into<ServiceUri>,
        methods: impl IntoIterator<Item = MethodName>,
    ) -> Self {
        Self {
            service: service.into(),
            methods: methods.into_iter().collect(),
            non_repudiation: None,
        }
    }

    /// Requires non-repudiation with `config` (builder).
    #[must_use]
    pub fn with_non_repudiation(mut self, config: NrConfig) -> Self {
        self.non_repudiation = Some(config);
        self
    }

    /// `true` if `method` is exported.
    pub fn exports(&self, method: &MethodName) -> bool {
        self.methods.iter().any(|m| m == method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let d = DeploymentDescriptor::new(
            "urn:parts",
            [MethodName::new("quote"), MethodName::new("order")],
        )
        .with_non_repudiation(NrConfig::protocol("direct"));

        assert!(d.exports(&MethodName::new("quote")));
        assert!(!d.exports(&MethodName::new("secret")));
        assert_eq!(
            d.non_repudiation.as_ref().unwrap().protocol,
            ProtocolId::new("direct")
        );
    }

    #[test]
    fn plain_descriptor_has_no_nr() {
        let d = DeploymentDescriptor::new("urn:plain", [MethodName::new("m")]);
        assert!(d.non_repudiation.is_none());
    }
}
