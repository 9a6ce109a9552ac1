//! Deployment descriptors.
//!
//! The declarative half of the paper's programming model: the application
//! programmer *identifies* (not implements) the container services a
//! component needs. §4.2: the server-side programmer identifies "when
//! non-repudiation is required and … the platform and protocol for
//! instantiation of the B2BInvocationHandler". §4.3: the programmer
//! identifies "an entity bean as a B2BObject", names validator beans, and
//! may mark methods whose operations are rolled up into one coordination
//! event.

use std::collections::HashMap;

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

/// Declarative signing-key lifecycle requirement: what exhaustion
/// behaviour the hosting organisation's signing key must have. Like
/// [`EvidenceDurability`], the descriptor *identifies* the requirement;
/// the key itself is a property of the organisation the middleware was
/// built with, never reconfigured by a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyLifecycle {
    /// A single forward-secure tree: finite signatures, signing stops at
    /// exhaustion. Acceptable for bounded deployments.
    SingleTree,
    /// A hierarchical key (root tree certifying rolling subtrees):
    /// signing survives subtree exhaustion via certified rollover, so a
    /// long-lived component never lands on a signer that goes dark.
    Hierarchical,
}

/// Non-repudiation configuration for a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NrConfig {
    /// The platform tag handed to the invocation-handler factory
    /// (`"JBossJ2EE"` in the paper; `"rust"` here).
    pub platform: String,
    /// Which registered protocol to execute (e.g. `"direct"`).
    pub protocol: ProtocolId,
    /// Required durability class of the hosting middleware's evidence
    /// log. `None` accepts whatever the deployment runs (including the
    /// in-memory log of tests); `Some(req)` makes a mismatch a
    /// deployment error — a component that *identifies* a group-commit
    /// durability requirement must not silently land on a backend that
    /// fsyncs inline (or not at all).
    pub evidence_durability: Option<EvidenceDurability>,
    /// Required lifecycle of the hosting organisation's signing key.
    /// `None` accepts any key; `Some(req)` makes a mismatch a deployment
    /// error — a long-lived component that *identifies* a hierarchical
    /// (never-exhausting) key requirement must not silently land on a
    /// single finite tree that will eventually stop signing (and vice
    /// versa for deployments that demand the strict single-tree bound).
    pub key_lifecycle: Option<KeyLifecycle>,
}

impl NrConfig {
    /// Configuration selecting `protocol` on the native platform.
    pub fn protocol(protocol: impl Into<ProtocolId>) -> Self {
        Self {
            platform: "rust".into(),
            protocol: protocol.into(),
            evidence_durability: None,
            key_lifecycle: None,
        }
    }

    /// Requires the hosting middleware's evidence log to provide the
    /// given durability class (deploy fails on a mismatch).
    #[must_use]
    pub fn with_evidence_durability(mut self, durability: EvidenceDurability) -> Self {
        self.evidence_durability = Some(durability);
        self
    }

    /// Requires the hosting organisation's signing key to have the given
    /// lifecycle (deploy fails on a mismatch).
    #[must_use]
    pub fn with_key_lifecycle(mut self, lifecycle: KeyLifecycle) -> Self {
        self.key_lifecycle = Some(lifecycle);
        self
    }
}

/// Shared-information (B2BObject) configuration for a component.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SharedObjectConfig {
    /// Key of the coordinated object in the state store.
    pub object_key: String,
    /// Names of validator components consulted on remote proposals.
    pub validators: Vec<String>,
    /// Methods whose internal operations are rolled up into a single
    /// coordination event.
    pub rollup_methods: Vec<MethodName>,
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
    /// Shared-object coordination, if the component encapsulates shared
    /// information.
    pub shared_object: Option<SharedObjectConfig>,
    /// Free-form extra configuration.
    pub metadata: HashMap<String, String>,
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
            shared_object: None,
            metadata: HashMap::new(),
        }
    }

    /// Requires non-repudiation with `config` (builder).
    #[must_use]
    pub fn with_non_repudiation(mut self, config: NrConfig) -> Self {
        self.non_repudiation = Some(config);
        self
    }

    /// Marks the component as encapsulating a shared object (builder).
    #[must_use]
    pub fn with_shared_object(mut self, config: SharedObjectConfig) -> Self {
        self.shared_object = Some(config);
        self
    }

    /// Adds a metadata entry (builder).
    #[must_use]
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// `true` if `method` is exported.
    pub fn exports(&self, method: &MethodName) -> bool {
        self.methods.iter().any(|m| m == method)
    }

    /// `true` if invocations must run a non-repudiation protocol.
    pub fn requires_nr(&self) -> bool {
        self.non_repudiation.is_some()
    }

    /// `true` if `method`'s operations roll up into one coordination event.
    pub fn rolls_up(&self, method: &MethodName) -> bool {
        self.shared_object
            .as_ref()
            .map(|c| c.rollup_methods.iter().any(|m| m == method))
            .unwrap_or(false)
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
        .with_non_repudiation(NrConfig::protocol("direct"))
        .with_shared_object(SharedObjectConfig {
            object_key: "spec".into(),
            validators: vec!["spec-validator".into()],
            rollup_methods: vec![MethodName::new("order")],
        })
        .with_metadata("owner", "manufacturer");

        assert!(d.exports(&MethodName::new("quote")));
        assert!(!d.exports(&MethodName::new("secret")));
        assert!(d.requires_nr());
        assert_eq!(
            d.non_repudiation.as_ref().unwrap().protocol,
            ProtocolId::new("direct")
        );
        assert!(d.rolls_up(&MethodName::new("order")));
        assert!(!d.rolls_up(&MethodName::new("quote")));
        assert_eq!(d.metadata["owner"], "manufacturer");
    }

    #[test]
    fn plain_descriptor_has_no_nr() {
        let d = DeploymentDescriptor::new("urn:plain", [MethodName::new("m")]);
        assert!(!d.requires_nr());
        assert!(!d.rolls_up(&MethodName::new("m")));
        assert!(d.shared_object.is_none());
    }
}
