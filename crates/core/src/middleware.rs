//! Per-organisation middleware assembly.
//!
//! [`OrgMiddleware`] is one organisation's complete trusted-interceptor
//! stack (paper §4.2: "the NR interceptor, B2BInvocationHandler,
//! B2BProtocolHandler and B2BCoordinator comprise each party's trusted
//! interceptor"), wired over the shared bus:
//!
//! * the component **container** is registered at the organisation's plain
//!   bus address (ordinary, un-evidenced remoting stays available as the
//!   baseline);
//! * the **B2B coordinator** is registered at [`b2b_address`]
//!   (`"{org}#b2b"`), with the protocol handlers, anchor gossip and
//!   receipt-window supervision.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use nonrep_container::component::Component;
use nonrep_container::descriptor::{DeploymentDescriptor, EvidenceDurability};
use nonrep_container::proxy::{BusTransport, ClientProxy, ContainerEndpoint};
use nonrep_container::{Container, ContainerError};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_net::bus::LocalBus;
use nonrep_net::retry::{ReliableRequester, RetryPolicy};
use nonrep_protocols::gossip::{AnchorGossip, AnchorGossipHandler, AnchorStore};
use nonrep_protocols::invocation::direct::{DirectClient, DirectServerHandler};
use nonrep_protocols::invocation::fair_offline::{
    FairClient, FairServerHandler, FairServerRuntime, OfflineTtpHandler, ServerConduct,
};
use nonrep_protocols::invocation::inline_ttp::{InlineTtpClient, InlineTtpHandler};
use nonrep_protocols::invocation::voluntary::{VoluntaryClient, VoluntaryServerHandler};
use nonrep_protocols::party::{Party, StaticKeyDirectory};
use nonrep_protocols::scheduler::{CommitmentMode, DeadlineSealer};
use nonrep_protocols::sharing::coordination::{
    CoordinationOutcome, SharingMember, UpdateValidator,
};
use nonrep_protocols::sharing::membership::{self, MembershipHandler};
use nonrep_protocols::sharing::GroupRegistry;
use nonrep_protocols::{B2BCoordinator, ExchangeSupervisor, ExpiryReport, ProtocolError};
use nonrep_store::{DurabilityClass, EvidenceLog, MemoryLog, StateStore, SyncPolicy};
use nonrep_types::ids::{GroupId, OrgId, ServiceUri};
use nonrep_types::time::LogicalClock;

use crate::dispute::{Corroboration, WindowSubmission};
use crate::domain::TrustDomain;
use crate::interceptor::{ClientNrInterceptor, ContainerExecutor, ProtocolClient};

/// Clock milliseconds a fair server's client has between the step-2
/// response and its receipt before [`OrgMiddleware::tick`] aborts the run.
pub const RECEIPT_WINDOW_MS: u64 = 400;

/// The bus address of an organisation's B2B coordinator.
pub fn b2b_address(org: &OrgId) -> OrgId {
    OrgId::new(format!("{org}#b2b"))
}

/// Builder for [`OrgMiddleware`].
pub struct MiddlewareBuilder {
    org: OrgId,
    bus: Arc<LocalBus>,
    directory: Arc<StaticKeyDirectory>,
    clock: LogicalClock,
    seed: u64,
    scheme: SignatureScheme,
    keys: Option<Arc<KeyPair>>,
    retry: RetryPolicy,
    domain: TrustDomain,
    offline_ttp: Option<OrgId>,
    server_conduct: ServerConduct,
    commitment: CommitmentMode,
    evidence_log: Option<Arc<dyn EvidenceLog>>,
}

impl fmt::Debug for MiddlewareBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MiddlewareBuilder({})", self.org)
    }
}

impl MiddlewareBuilder {
    /// Sets the random seed (keys + run ids); defaults to a per-org hash.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the signature scheme; defaults to MSS of height 8
    /// (256 signatures).
    #[must_use]
    pub fn scheme(mut self, scheme: SignatureScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Signs with `keys`, overriding `scheme` and the key use of `seed`.
    /// Rebuilding on a reopened log needs the surviving key pair: one
    /// regenerated from the seed re-signs one-time leaves already used.
    #[must_use]
    pub fn keys(mut self, keys: Arc<KeyPair>) -> Self {
        self.keys = Some(keys);
        self
    }

    /// Sets the retry policy for outgoing protocol messages.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the default trust domain for outgoing NR invocations.
    #[must_use]
    pub fn domain(mut self, domain: TrustDomain) -> Self {
        self.domain = domain;
        self
    }

    /// Names the offline TTP this organisation escrows response keys with
    /// when *serving* fair-offline invocations.
    #[must_use]
    pub fn offline_ttp(mut self, ttp: OrgId) -> Self {
        self.offline_ttp = Some(ttp);
        self
    }

    /// Configures server conduct for fair-offline (tests/fault injection).
    #[must_use]
    pub fn server_conduct(mut self, conduct: ServerConduct) -> Self {
        self.server_conduct = conduct;
        self
    }

    /// Sets the evidence-commitment mode; defaults to per-record signing.
    /// [`CommitmentMode::auto`] routes this organisation's evidence
    /// through the batched pipeline: one signature per signed step, and
    /// epoch commitments sealing the log on a load-tuned size or the
    /// given deadline, with a background [`DeadlineSealer`] so idle
    /// evidence is sealed on time. This is the one place the mode is
    /// decided: it is fixed for the life of the organisation once
    /// [`MiddlewareBuilder::build`] returns.
    #[must_use]
    pub fn commitment(mut self, mode: CommitmentMode) -> Self {
        self.commitment = mode;
        self
    }

    /// Uses `log` as this organisation's evidence backend instead of the
    /// default in-memory log — e.g. a `nonrep_store::FileLog` opened with
    /// `SyncPolicy::WriteThrough` (every append fsyncs) or
    /// `SyncPolicy::GroupCommit` (the seal hands the batch to a
    /// dedicated sync thread and concurrent epochs share one fsync).
    ///
    /// A buffering backend must be paired with a batched commitment mode
    /// (see [`MiddlewareBuilder::commitment`]); [`MiddlewareBuilder::build`]
    /// panics otherwise.
    #[must_use]
    pub fn evidence_log(mut self, log: Arc<dyn EvidenceLog>) -> Self {
        self.evidence_log = Some(log);
        self
    }

    /// Deploy-time selection of a durable, file-backed evidence log:
    /// opens (creating or crash-recovering) the log at `path` under
    /// `policy` and uses it as this organisation's evidence backend.
    /// Recovery semantics are those of `FileLog::open_recover_with` — a
    /// torn tail from a previous kill is dropped, mid-file tampering
    /// still refuses to open. The signer is not restored: reopening without
    /// [`MiddlewareBuilder::keys`] re-signs one-time leaves already used.
    ///
    /// # Errors
    ///
    /// [`nonrep_store::StoreError`] if the log cannot be opened (I/O
    /// failure, corruption, chain violation).
    pub fn evidence_file(
        self,
        path: impl AsRef<std::path::Path>,
        policy: SyncPolicy,
    ) -> Result<Self, nonrep_store::StoreError> {
        let log = nonrep_store::FileLog::open_recover_with(path, policy)?;
        Ok(self.evidence_log(Arc::new(log)))
    }

    /// Assembles the middleware and registers it on the bus.
    ///
    /// # Panics
    ///
    /// If the configured evidence log buffers its appends
    /// (`SyncPolicy::GroupCommit`) while the commitment mode is
    /// per-record: per-record mode never seals, so
    /// nothing would ever be fsynced and a kill could lose the
    /// organisation's whole evidence history. That combination is a
    /// deployment error, rejected here rather than discovered at the
    /// first crash.
    pub fn build(self) -> Arc<OrgMiddleware> {
        // Validate before any side effect (keygen, directory insert), so
        // a rejected configuration leaves no stale key registered.
        let buffers = self
            .evidence_log
            .as_ref()
            .is_some_and(|log| log.buffers_appends());
        assert!(
            !(buffers && matches!(self.commitment, CommitmentMode::PerRecord)),
            "evidence log buffers appends per epoch (SyncPolicy::GroupCommit) \
             but the commitment mode is PerRecord, which never seals epochs — nothing \
             would ever be made durable; configure MiddlewareBuilder::commitment with \
             a batched mode (see nonrep_store::SyncPolicy)"
        );
        let mut rng = SecureRandom::from_seed(self.seed);
        let keys = self
            .keys
            .unwrap_or_else(|| Arc::new(KeyPair::generate(self.scheme, &mut rng)));
        self.directory
            .insert(self.org.clone(), keys.verifying_key());
        let party = Party::with_commitment(
            self.org.clone(),
            keys,
            Arc::new(self.clock.clone()),
            self.evidence_log
                .unwrap_or_else(|| Arc::new(MemoryLog::new())),
            Arc::clone(&self.directory) as Arc<_>,
            rng,
            self.commitment,
        );

        let requester = ReliableRequester::new(self.bus.clone(), self.retry);
        let coordinator = B2BCoordinator::with_peer_suffix(self.org.clone(), requester, "#b2b");
        self.bus
            .register(b2b_address(&self.org), coordinator.clone());

        let container = Container::new(self.org.clone());
        self.bus.register(
            self.org.clone(),
            Arc::new(ContainerEndpoint::new(container.clone())),
        );

        // Server-side protocol handlers over the container executor.
        let executor = ContainerExecutor::new(container.clone());
        coordinator.register_handler(DirectServerHandler::new(party.clone(), executor.clone()));
        coordinator.register_handler(VoluntaryServerHandler::new(party.clone(), executor.clone()));
        let supervisor = ExchangeSupervisor::new(Arc::new(self.clock.clone()));
        if let Some(ttp) = &self.offline_ttp {
            coordinator.register_handler(FairServerHandler::with_runtime(
                party.clone(),
                coordinator.clone(),
                executor,
                ttp.clone(),
                self.server_conduct,
                FairServerRuntime {
                    supervision: Some((Arc::clone(&supervisor), RECEIPT_WINDOW_MS)),
                    journal: None,
                },
            ));
        }
        let anchors = Arc::new(AnchorStore::new());
        let anchor_handler = AnchorGossipHandler::new(party.clone(), anchors.clone());
        coordinator.register_handler(Arc::new(anchor_handler));

        // Information sharing.
        let store = Arc::new(StateStore::new());
        let groups = Arc::new(GroupRegistry::new());
        let sharing = SharingMember::new(
            party.clone(),
            coordinator.clone(),
            store.clone(),
            groups.clone(),
        );
        coordinator.register_handler(sharing.clone());
        coordinator.register_handler(MembershipHandler::new(sharing.clone()));

        Arc::new(OrgMiddleware {
            org: self.org,
            bus: self.bus,
            directory: self.directory,
            _sealer: DeadlineSealer::spawn(Arc::clone(party.scheduler())),
            gossip: AnchorGossip::new(party.clone(), coordinator.clone()),
            party,
            coordinator,
            container,
            store,
            groups,
            sharing,
            anchors,
            supervisor,
            domain: self.domain,
        })
    }
}

/// One organisation's assembled middleware stack.
pub struct OrgMiddleware {
    org: OrgId,
    bus: Arc<LocalBus>,
    directory: Arc<StaticKeyDirectory>,
    party: Arc<Party>,
    coordinator: Arc<B2BCoordinator>,
    container: Arc<Container>,
    store: Arc<StateStore>,
    groups: Arc<GroupRegistry>,
    sharing: Arc<SharingMember>,
    anchors: Arc<AnchorStore>,
    gossip: AnchorGossip,
    supervisor: Arc<ExchangeSupervisor>,
    domain: TrustDomain,
    /// Background deadline poller, present in batched mode (stopped when
    /// the middleware is dropped).
    _sealer: Option<DeadlineSealer>,
}

impl fmt::Debug for OrgMiddleware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OrgMiddleware({}, domain={})", self.org, self.domain)
    }
}

impl OrgMiddleware {
    /// Starts building middleware for `org` on `bus` with a shared key
    /// `directory` and `clock`.
    pub fn builder(
        org: impl Into<OrgId>,
        bus: Arc<LocalBus>,
        directory: Arc<StaticKeyDirectory>,
        clock: LogicalClock,
    ) -> MiddlewareBuilder {
        let org = org.into();
        // Default seed derived from the org name so multi-org tests get
        // distinct deterministic keys without explicit seeding.
        let seed = org.as_str().bytes().fold(0u64, |acc, b| {
            acc.wrapping_mul(31).wrapping_add(u64::from(b))
        });
        MiddlewareBuilder {
            org,
            bus,
            directory,
            clock,
            seed,
            scheme: SignatureScheme::Mss { height: 8 },
            keys: None,
            retry: RetryPolicy::new(8),
            domain: TrustDomain::Direct,
            offline_ttp: None,
            server_conduct: ServerConduct::Honest,
            commitment: CommitmentMode::PerRecord,
            evidence_log: None,
        }
    }

    /// The owning organisation.
    pub fn org(&self) -> &OrgId {
        &self.org
    }

    /// This organisation's protocol identity.
    pub fn party(&self) -> &Arc<Party> {
        &self.party
    }

    /// This organisation's coordinator.
    pub fn coordinator(&self) -> &Arc<B2BCoordinator> {
        &self.coordinator
    }

    /// This organisation's component container.
    pub fn container(&self) -> &Arc<Container> {
        &self.container
    }

    /// This organisation's replica state store.
    pub fn store(&self) -> &Arc<StateStore> {
        &self.store
    }

    /// This organisation's evidence log.
    pub fn log(&self) -> &Arc<dyn EvidenceLog> {
        self.party.log()
    }

    /// Seals any pending evidence under an epoch commitment and, on
    /// buffered log backends, forces it to disk (in per-record mode there
    /// is nothing to seal, but the log is still flushed). Call before
    /// submitting evidence for adjudication so the log's tail is covered
    /// by a batch proof.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] if the seal cannot be persisted.
    pub fn flush_evidence(&self) -> Result<(), ProtocolError> {
        self.party.flush_evidence()
    }

    /// Sends each epoch anchor sealed since the last call to every peer
    /// and returns how many went out; call after
    /// [`OrgMiddleware::flush_evidence`] (see [`AnchorGossip::gossip_to`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if signing or delivery fails; the next call
    /// re-sends the failed anchor.
    pub fn gossip_anchors(&self, peers: &[OrgId]) -> Result<usize, ProtocolError> {
        self.gossip.gossip_to(peers)
    }

    /// The anchors counterparties gossiped here, for
    /// [`crate::Adjudicator::corroborated_by`].
    pub fn corroboration(&self) -> Corroboration {
        self.anchors.snapshot()
    }

    /// Fires every supervised deadline past on the clock: a fair run whose
    /// client sent no receipt within [`RECEIPT_WINDOW_MS`] is aborted.
    pub fn tick(&self) -> Vec<ExpiryReport> {
        self.supervisor.sweep()
    }

    /// Builds an adjudication submission covering this organisation's
    /// whole log — a `snapshot_range` of `Arc`-backed records plus the
    /// chain head (handles are cloned, record payloads are not).
    pub fn submit_full_window(&self) -> WindowSubmission {
        let log = self.party.log();
        WindowSubmission::from_log(self.org.clone(), &**log, 0..log.len())
    }

    /// The default trust domain for outgoing invocations.
    pub fn domain(&self) -> &TrustDomain {
        &self.domain
    }

    /// Deploys a component, validating the descriptor's declarative NR
    /// requirements against the evidence pipeline this organisation was
    /// *built* with. A descriptor identifies requirements; it never
    /// reconfigures the organisation.
    ///
    /// # Errors
    ///
    /// See [`Container::deploy`]; additionally
    /// [`ContainerError::Protocol`] if the descriptor declares an
    /// evidence-durability requirement
    /// (`NrConfig::with_evidence_durability`) the organisation does not
    /// provide — e.g. requiring group commit while the org runs a
    /// write-through (or in-memory) log.
    pub fn deploy(
        &self,
        descriptor: DeploymentDescriptor,
        component: Arc<dyn Component>,
    ) -> Result<(), ContainerError> {
        if let Some(required) = descriptor
            .non_repudiation
            .as_ref()
            .and_then(|nr| nr.evidence_durability)
        {
            // Durability is a property of the log the org was *built*
            // with; a descriptor cannot change it after the fact, so a
            // mismatch is a deployment error, not a reconfiguration.
            let required_class = match required {
                EvidenceDurability::WriteThrough => DurabilityClass::Synchronous,
                EvidenceDurability::GroupCommit => DurabilityClass::GroupCommit,
            };
            let in_force = self.party.log().durability_class();
            if in_force != required_class {
                return Err(ContainerError::Protocol(format!(
                    "evidence durability mismatch: descriptor for {} requires \
                     {required:?} but the organisation's evidence log provides \
                     {in_force:?} — build the middleware with \
                     MiddlewareBuilder::evidence_file(path, SyncPolicy::...) to match",
                    descriptor.service
                )));
            }
        }
        self.container.deploy(descriptor, component)
    }

    /// Turns this node into an inline TTP (paper Fig 3(a)/(b)): it will
    /// verify, receipt and forward inline-TTP invocations, relaying to
    /// `next` or invoking the destination server directly.
    pub fn serve_as_inline_ttp(&self, next: Option<OrgId>) {
        let handler = match next {
            Some(next) => {
                InlineTtpHandler::relay(self.party.clone(), self.coordinator.clone(), next)
            }
            None => InlineTtpHandler::terminal(self.party.clone(), self.coordinator.clone()),
        };
        self.coordinator.register_handler(handler);
    }

    /// Turns this node into an offline TTP (escrow/resolve/abort for the
    /// fair-offline protocol).
    pub fn serve_as_offline_ttp(&self) {
        self.coordinator
            .register_handler(OfflineTtpHandler::new(self.party.clone()));
    }

    fn protocol_client(&self, domain: &TrustDomain) -> ProtocolClient {
        match domain {
            TrustDomain::Direct => ProtocolClient::Direct(DirectClient::new(
                self.party.clone(),
                self.coordinator.clone(),
            )),
            TrustDomain::Voluntary => ProtocolClient::Voluntary(VoluntaryClient::new(
                self.party.clone(),
                self.coordinator.clone(),
            )),
            TrustDomain::InlineTtp { first_hop } => {
                ProtocolClient::InlineTtp(InlineTtpClient::new(
                    self.party.clone(),
                    self.coordinator.clone(),
                    first_hop.clone(),
                ))
            }
            TrustDomain::FairOffline { ttp } => ProtocolClient::FairOffline(FairClient::new(
                self.party.clone(),
                self.coordinator.clone(),
                ttp.clone(),
            )),
        }
    }

    /// Builds a non-repudiable proxy for `service` at `target` using the
    /// middleware's default trust domain.
    pub fn nr_proxy(&self, target: &OrgId, service: impl Into<ServiceUri>) -> ClientProxy {
        self.nr_proxy_in(self.domain.clone(), target, service)
    }

    /// Builds a non-repudiable proxy under an explicit trust domain
    /// (per-interaction override; paper §3.1: "As an interaction evolves it
    /// may be appropriate to change the deployment of interceptors").
    pub fn nr_proxy_in(
        &self,
        domain: TrustDomain,
        target: &OrgId,
        service: impl Into<ServiceUri>,
    ) -> ClientProxy {
        let transport = Arc::new(BusTransport::new(
            self.bus.clone() as Arc<dyn nonrep_net::bus::RequestBus>,
            self.org.clone(),
        ));
        let mut proxy = ClientProxy::new(self.org.clone(), target.clone(), service, transport);
        let client = self.protocol_client(&domain);
        proxy.add_first_interceptor(ClientNrInterceptor::new(target.clone(), client));
        proxy
    }

    /// Builds a *plain* proxy (no evidence; the paper's Fig 4(a) baseline).
    pub fn plain_proxy(&self, target: &OrgId, service: impl Into<ServiceUri>) -> ClientProxy {
        let transport = Arc::new(BusTransport::new(
            self.bus.clone() as Arc<dyn nonrep_net::bus::RequestBus>,
            self.org.clone(),
        ));
        ClientProxy::new(self.org.clone(), target.clone(), service, transport)
    }

    /// Seeds a sharing group locally (the out-of-band initial agreement;
    /// subsequent changes go through the connect/disconnect protocols).
    pub fn install_group(&self, group: GroupId, members: BTreeSet<OrgId>) {
        self.groups.set(group, members);
    }

    /// Adds an application validator consulted on every incoming proposal.
    pub fn add_validator(&self, validator: Arc<dyn UpdateValidator>) {
        self.sharing.add_validator(validator);
    }

    /// Proposes an update to shared information (paper Fig 5(b)).
    ///
    /// # Errors
    ///
    /// See [`SharingMember::propose`]. A veto is *not* an error.
    pub fn propose_update(
        &self,
        group: &GroupId,
        object: &str,
        new_state: Vec<u8>,
    ) -> Result<CoordinationOutcome, ProtocolError> {
        self.sharing.propose(group, object, new_state)
    }

    /// The latest agreed state of a shared object.
    pub fn current_state(&self, object: &str) -> Option<Vec<u8>> {
        self.sharing.current_state(object)
    }

    /// Sponsors `joiner` into `group` (connect protocol).
    ///
    /// # Errors
    ///
    /// See [`membership::connect`].
    pub fn connect(
        &self,
        group: &GroupId,
        joiner: &OrgId,
    ) -> Result<CoordinationOutcome, ProtocolError> {
        membership::connect(&self.sharing, group, joiner)
    }

    /// Proposes removing `leaver` from `group` (disconnect protocol).
    ///
    /// # Errors
    ///
    /// See [`membership::disconnect`].
    pub fn disconnect(
        &self,
        group: &GroupId,
        leaver: &OrgId,
    ) -> Result<CoordinationOutcome, ProtocolError> {
        membership::disconnect(&self.sharing, group, leaver)
    }

    /// The local view of `group`'s membership.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Rejected`] if the group is unknown.
    pub fn group_members(&self, group: &GroupId) -> Result<BTreeSet<OrgId>, ProtocolError> {
        self.groups.members(group)
    }

    /// The shared key directory: one current verifying key per
    /// organisation. It is the only `KeyDirectory` the middleware builds
    /// on; `nonrep_pki::CredentialManager` does not implement that trait.
    pub fn directory(&self) -> &Arc<StaticKeyDirectory> {
        &self.directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_container::component::FnComponent;
    use nonrep_types::ids::MethodName;
    use nonrep_types::value::Value;

    fn world() -> (Arc<LocalBus>, Arc<StaticKeyDirectory>, LogicalClock) {
        (
            LocalBus::new(),
            Arc::new(StaticKeyDirectory::new()),
            LogicalClock::new(),
        )
    }

    fn deploy_echo(mw: &OrgMiddleware) {
        mw.deploy(
            DeploymentDescriptor::new("urn:echo", [MethodName::new("echo")]),
            Arc::new(FnComponent::new().method("echo", |args| Ok(args.clone()))),
        )
        .unwrap();
    }

    #[test]
    fn nr_invocation_end_to_end_through_middleware() {
        let (bus, dir, clock) = world();
        let client =
            OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone()).build();
        let server = OrgMiddleware::builder("server", bus, dir, clock).build();
        deploy_echo(&server);
        let proxy = client.nr_proxy(server.org(), "urn:echo");
        let out = proxy.invoke("echo", Value::from(42i64)).unwrap();
        assert_eq!(out, Value::from(42i64));
        // Evidence on both sides.
        assert_eq!(client.log().len(), 4);
        assert_eq!(server.log().len(), 4);
        client.log().verify().unwrap();
        server.log().verify().unwrap();
    }

    #[test]
    fn batched_commitment_through_middleware_builder() {
        let (bus, dir, clock) = world();
        let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
            .commitment(CommitmentMode::auto(50))
            .build();
        let server = OrgMiddleware::builder("server", bus, dir.clone(), clock).build();
        deploy_echo(&server);
        let proxy = client.nr_proxy(server.org(), "urn:echo");
        proxy.invoke("echo", Value::from(1i64)).unwrap();
        client.flush_evidence().unwrap();
        // Client sealed its run under an epoch commitment: 4 tokens + 1
        // epoch record; the per-record server has exactly 4.
        assert_eq!(client.log().len(), 5);
        assert_eq!(client.log().count_where(&|r| r.is_epoch_commit()), 1);
        assert_eq!(server.log().len(), 4);
        client.log().verify().unwrap();
        // Windowed adjudication over both submissions is clean and
        // establishes the full fact set.
        let run = client.log().snapshot_range(0..1)[0].draft.run_id;
        let adjudicator = crate::Adjudicator::new(
            client.directory().clone() as Arc<dyn nonrep_protocols::party::KeyDirectory>
        );
        let verdict = adjudicator.adjudicate_windows(
            run,
            &[client.submit_full_window(), server.submit_full_window()],
        );
        assert!(verdict.suspect_submitters().is_empty());
        assert!(verdict.cannot_deny(&OrgId::new("client"), nonrep_protocols::TokenKind::NroReq));
        assert!(verdict.cannot_deny(&OrgId::new("server"), nonrep_protocols::TokenKind::NroResp));
    }

    #[test]
    fn deploy_never_changes_the_commitment_mode() {
        // The commitment mode is decided once, by the builder. Whatever a
        // descriptor declares — and whether the deploy is accepted or
        // refused — the mode observed afterwards is the mode built.
        use nonrep_container::descriptor::NrConfig;
        let (bus, dir, clock) = world();
        let built = [CommitmentMode::PerRecord, CommitmentMode::auto(40)];
        for (i, mode) in built.into_iter().enumerate() {
            let org =
                OrgMiddleware::builder(format!("org{i}"), bus.clone(), dir.clone(), clock.clone())
                    .commitment(mode)
                    .build();
            let configs = [
                None,
                Some(NrConfig::protocol("direct")),
                Some(
                    NrConfig::protocol("direct")
                        .with_evidence_durability(EvidenceDurability::GroupCommit),
                ),
            ];
            for (n, config) in configs.into_iter().enumerate() {
                let mut descriptor =
                    DeploymentDescriptor::new(format!("urn:svc{n}"), [MethodName::new("m")]);
                descriptor.non_repudiation = config;
                let _ = org.deploy(
                    descriptor,
                    Arc::new(FnComponent::new().method("m", |args| Ok(args.clone()))),
                );
                assert_eq!(org.party().scheduler().mode(), mode);
            }
        }
    }

    #[test]
    fn plain_proxy_leaves_no_evidence() {
        let (bus, dir, clock) = world();
        let client =
            OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone()).build();
        let server = OrgMiddleware::builder("server", bus, dir, clock).build();
        deploy_echo(&server);
        let proxy = client.plain_proxy(server.org(), "urn:echo");
        assert_eq!(
            proxy.invoke("echo", Value::from(1i64)).unwrap(),
            Value::from(1i64)
        );
        assert_eq!(client.log().len(), 0);
        assert_eq!(server.log().len(), 0);
    }

    #[test]
    fn sharing_through_middleware() {
        let (bus, dir, clock) = world();
        let a = OrgMiddleware::builder("a", bus.clone(), dir.clone(), clock.clone()).build();
        let b = OrgMiddleware::builder("b", bus, dir, clock).build();
        let group = GroupId::new("ve");
        let members: BTreeSet<OrgId> = [OrgId::new("a"), OrgId::new("b")].into();
        a.install_group(group.clone(), members.clone());
        b.install_group(group.clone(), members);
        let out = a.propose_update(&group, "spec", b"v1".to_vec()).unwrap();
        assert!(out.accepted);
        assert_eq!(b.current_state("spec").unwrap(), b"v1");
        assert_eq!(a.group_members(&group).unwrap().len(), 2);
    }

    #[test]
    fn fair_offline_through_middleware() {
        let (bus, dir, clock) = world();
        let ttp_org = OrgId::new("ttp");
        let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
            .domain(TrustDomain::FairOffline {
                ttp: ttp_org.clone(),
            })
            .build();
        let server = OrgMiddleware::builder("server", bus.clone(), dir.clone(), clock.clone())
            .offline_ttp(ttp_org.clone())
            .build();
        let ttp = OrgMiddleware::builder("ttp", bus, dir, clock).build();
        ttp.serve_as_offline_ttp();
        deploy_echo(&server);
        let proxy = client.nr_proxy(server.org(), "urn:echo");
        assert_eq!(
            proxy.invoke("echo", Value::from(7i64)).unwrap(),
            Value::from(7i64)
        );
    }

    #[test]
    fn inline_ttp_through_middleware() {
        let (bus, dir, clock) = world();
        let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
            .domain(TrustDomain::InlineTtp {
                first_hop: OrgId::new("ttp"),
            })
            .build();
        let server =
            OrgMiddleware::builder("server", bus.clone(), dir.clone(), clock.clone()).build();
        let ttp = OrgMiddleware::builder("ttp", bus, dir, clock).build();
        ttp.serve_as_inline_ttp(None);
        deploy_echo(&server);
        let proxy = client.nr_proxy(server.org(), "urn:echo");
        assert_eq!(
            proxy.invoke("echo", Value::from(9i64)).unwrap(),
            Value::from(9i64)
        );
        // TTP kept a full audit trail.
        assert!(ttp.log().len() >= 3);
    }

    #[test]
    fn b2b_address_formatting() {
        assert_eq!(b2b_address(&OrgId::new("acme")), OrgId::new("acme#b2b"));
    }

    fn temp_log(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nonrep-mw-{name}-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn evidence_file_group_commit_end_to_end() {
        // Deploy-time selection of the group-commit log through the
        // builder: invocations work, evidence seals asynchronously, and
        // flush_evidence is the durability barrier — a strict reopen
        // after it sees the complete log.
        let (bus, dir, clock) = world();
        let path = temp_log("gc");
        let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
            .commitment(CommitmentMode::auto(50))
            .evidence_file(&path, SyncPolicy::GroupCommit)
            .unwrap()
            .build();
        let server = OrgMiddleware::builder("server", bus, dir, clock).build();
        deploy_echo(&server);
        let proxy = client.nr_proxy(server.org(), "urn:echo");
        assert_eq!(
            proxy.invoke("echo", Value::from(5i64)).unwrap(),
            Value::from(5i64)
        );
        client.flush_evidence().unwrap();
        assert_eq!(
            client.log().durability_class(),
            DurabilityClass::GroupCommit
        );
        let len = client.log().len();
        assert!(client.log().count_where(&|r| r.is_epoch_commit()) >= 1);
        drop(client);
        let reopened = nonrep_store::FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), len);
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebuild_on_a_reopened_log_keeps_the_live_signer() {
        use nonrep_crypto::sig::SignaturePayload;
        use nonrep_protocols::NrToken;
        use nonrep_types::codec::Decode;

        let (bus, dir, clock) = world();
        let path = temp_log("rekey");
        let server =
            OrgMiddleware::builder("server", bus.clone(), dir.clone(), clock.clone()).build();
        deploy_echo(&server);
        let open = |keys: Option<Arc<KeyPair>>| {
            let builder = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
                .evidence_file(&path, SyncPolicy::WriteThrough)
                .unwrap();
            let builder = match keys {
                Some(keys) => builder.keys(keys),
                None => builder,
            };
            builder.build()
        };
        let invoke = |client: &OrgMiddleware, n: i64| {
            client
                .nr_proxy(server.org(), "urn:echo")
                .invoke("echo", Value::from(n))
                .unwrap();
        };

        let client = open(None);
        invoke(&client, 1);
        let keys = Arc::clone(client.party().keys());
        let after_first = keys.remaining().unwrap();
        // Stop the stack: both bus registrations hold it alive.
        bus.unregister(client.org());
        bus.unregister(&b2b_address(client.org()));
        drop(client);

        let client = open(Some(Arc::clone(&keys)));
        assert_eq!(client.log().len(), 4, "the reopened log lost records");
        invoke(&client, 2);
        assert!(keys.remaining().unwrap() < after_first);
        // Every token the client signed, before and after the restart,
        // used its own one-time leaf.
        let mut leaves = Vec::new();
        for record in client.log().records() {
            let token = NrToken::decode_from_slice(&record.draft.payload).unwrap();
            if token.issuer == *client.org() {
                match token.signature.payload {
                    SignaturePayload::Mss(sig) => leaves.push(sig.leaf_index),
                    other => panic!("per-record token signed as {other:?}"),
                }
            }
        }
        let distinct: BTreeSet<u32> = leaves.iter().copied().collect();
        assert_eq!(leaves.len(), 4);
        assert_eq!(
            distinct.len(),
            leaves.len(),
            "a leaf was re-signed: {leaves:?}"
        );
        drop(client);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn descriptor_durability_requirement_validated_at_deploy() {
        use nonrep_container::descriptor::NrConfig;
        let (bus, dir, clock) = world();
        let path = temp_log("req");
        let org = OrgMiddleware::builder("org", bus.clone(), dir.clone(), clock.clone())
            .commitment(CommitmentMode::auto(50))
            .evidence_file(&path, SyncPolicy::GroupCommit)
            .unwrap()
            .build();
        // Matching requirement deploys fine.
        org.deploy(
            DeploymentDescriptor::new("urn:gc", [MethodName::new("m")]).with_non_repudiation(
                NrConfig::protocol("direct")
                    .with_evidence_durability(EvidenceDurability::GroupCommit),
            ),
            Arc::new(FnComponent::new().method("m", |args| Ok(args.clone()))),
        )
        .unwrap();
        // A component requiring write-through durability conflicts with
        // the group-commit log in force.
        let mismatch = org.deploy(
            DeploymentDescriptor::new("urn:wt0", [MethodName::new("m")]).with_non_repudiation(
                NrConfig::protocol("direct")
                    .with_evidence_durability(EvidenceDurability::WriteThrough),
            ),
            Arc::new(FnComponent::new().method("m", |args| Ok(args.clone()))),
        );
        assert!(matches!(mismatch, Err(ContainerError::Protocol(_))));
        // And on a default (in-memory, volatile) org, requiring group
        // commit fails too…
        let plain = OrgMiddleware::builder("plain", bus, dir, clock).build();
        let mismatch = plain.deploy(
            DeploymentDescriptor::new("urn:gc2", [MethodName::new("m")]).with_non_repudiation(
                NrConfig::protocol("direct")
                    .with_evidence_durability(EvidenceDurability::GroupCommit),
            ),
            Arc::new(FnComponent::new().method("m", |args| Ok(args.clone()))),
        );
        assert!(matches!(mismatch, Err(ContainerError::Protocol(_))));
        // …and so does requiring write-through: "nothing to flush" must
        // not satisfy "durable on every append".
        let mismatch = plain.deploy(
            DeploymentDescriptor::new("urn:wt", [MethodName::new("m")]).with_non_repudiation(
                NrConfig::protocol("direct")
                    .with_evidence_durability(EvidenceDurability::WriteThrough),
            ),
            Arc::new(FnComponent::new().method("m", |args| Ok(args.clone()))),
        );
        assert!(matches!(mismatch, Err(ContainerError::Protocol(_))));
        drop(org);
        let _ = std::fs::remove_file(&path);
    }
}
