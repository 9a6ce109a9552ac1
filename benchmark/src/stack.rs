//! The only file that constructs middleware stacks.
//!
//! Every organisation is a full `OrgMiddleware` built through
//! `OrgMiddleware::builder`, on one bus with `LatencyModel::Lan` and no
//! faults, over a `FileLog` under the benchmark's out directory.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nonrep_container::component::FnComponent;
use nonrep_container::descriptor::DeploymentDescriptor;
use nonrep_core::{b2b_address, OrgMiddleware};
use nonrep_crypto::sig::SignatureScheme;
use nonrep_net::bus::{BusEndpoint, LocalBus};
use nonrep_net::fault::FaultPlan;
use nonrep_net::latency::LatencyModel;
use nonrep_protocols::party::StaticKeyDirectory;
use nonrep_protocols::scheduler::CommitmentMode;
use nonrep_store::{EvidenceLog, FileLog, SyncPolicy};
use nonrep_types::ids::{GroupId, MethodName, OrgId};

use crate::trace::{self, Capture, EndpointTap, TimedLog};

pub const SERVICE: &str = "urn:echo";
pub const METHOD: &str = "echo";

/// Signatures a key must still have at the end of a run. Below it the
/// run is reported incorrect: an exhausted key refuses to sign, and the
/// refusals would read as throughput.
pub const KEY_MARGIN: u32 = 4096;

/// Seal deadline of the durable configurations, in ms of bus time.
const SEAL_DEADLINE_MS: u64 = 50;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// The ROADMAP target: rolling hash-based keys, group-committed log,
    /// load-tuned batching.
    HssDurable,
    /// The same log and batching under HMAC ("arbitrated") keys.
    ArbDurable,
    /// Paper-literal: every record signed and fsynced on its own.
    ArbWritethrough,
}

impl Config {
    pub fn name(self) -> &'static str {
        match self {
            Config::HssDurable => "hss_durable",
            Config::ArbDurable => "arb_durable",
            Config::ArbWritethrough => "arb_writethrough",
        }
    }

    pub fn scheme(self) -> SignatureScheme {
        match self {
            Config::HssDurable => SignatureScheme::Hss {
                root_height: 10,
                subtree_height: 8,
            },
            Config::ArbDurable | Config::ArbWritethrough => SignatureScheme::Arbitrated,
        }
    }

    fn sync_policy(self) -> SyncPolicy {
        match self {
            Config::HssDurable | Config::ArbDurable => SyncPolicy::GroupCommit,
            Config::ArbWritethrough => SyncPolicy::WriteThrough,
        }
    }

    fn commitment(self) -> CommitmentMode {
        match self {
            Config::HssDurable | Config::ArbDurable => CommitmentMode::auto(SEAL_DEADLINE_MS),
            Config::ArbWritethrough => CommitmentMode::PerRecord,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Client,
    Server,
    InlineTtp,
    OfflineTtp,
    /// Third member of the sharing group.
    Member,
}

impl Role {
    pub const ALL: [Role; 5] = [
        Role::Client,
        Role::Server,
        Role::InlineTtp,
        Role::OfflineTtp,
        Role::Member,
    ];

    pub fn org_name(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::Server => "server",
            Role::InlineTtp => "ittp",
            Role::OfflineTtp => "ottp",
            Role::Member => "member",
        }
    }

    pub fn org(self) -> OrgId {
        OrgId::new(self.org_name())
    }

    /// Span name of this role's coordinator tap.
    fn tap_name(self) -> &'static str {
        match self {
            Role::Client => "protocols.client",
            Role::Server => "protocols.server",
            Role::InlineTtp | Role::OfflineTtp => "protocols.ttp",
            Role::Member => "protocols.member",
        }
    }
}

/// The benchmark's scratch directory: log files live in a per-process
/// subdirectory that is removed when the guard drops — at exit, and
/// during the unwind of a panic.
pub struct OutDir {
    root: PathBuf,
    logs: PathBuf,
}

/// Where results, traces and temporary logs go: `$NRBENCH_OUT` (set by
/// `run.sh`), else `benchmark/out` under the current directory.
pub fn out_root() -> PathBuf {
    std::env::var_os("NRBENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

impl OutDir {
    /// # Errors
    ///
    /// If the directories cannot be created.
    pub fn create() -> std::io::Result<Self> {
        let root = out_root();
        let logs = root.join(format!("logs-{}", std::process::id()));
        std::fs::create_dir_all(&logs)?;
        settle(&root);
        Ok(Self { root, logs })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// Commits the filesystem's pending metadata work. Deleting hundreds of
/// MB of logs leaves the journal busy, and the next run's fsyncs would
/// wait behind it: a run settles the directory after removing its logs,
/// and again before it starts in case an earlier one was killed.
fn settle(dir: &Path) {
    if let Ok(handle) = std::fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.logs);
        settle(&self.root);
    }
}

pub struct Org {
    pub role: Role,
    pub mw: Arc<OrgMiddleware>,
    pub file: Arc<FileLog>,
    /// Present in traced worlds only.
    pub timed: Option<Arc<TimedLog>>,
    pub path: PathBuf,
}

/// One set of organisations on one bus.
pub struct World {
    pub config: Config,
    pub bus: Arc<LocalBus>,
    pub dir: Arc<StaticKeyDirectory>,
    pub orgs: Vec<Org>,
    pub group: GroupId,
    pub capture: Arc<Capture>,
}

/// What outlives a dropped [`World`]: where its logs are and whose keys
/// signed them.
pub struct WorldRemains {
    pub config: Config,
    pub dir: Arc<StaticKeyDirectory>,
    pub logs: Vec<(Role, PathBuf)>,
}

impl World {
    /// Builds the organisations in `roles` (which must include the client
    /// and the server) under `config`. `tag` keeps the log files of
    /// successive worlds of one process apart. With `taps`, every log is
    /// wrapped in a [`TimedLog`], every coordinator is re-registered
    /// behind an [`EndpointTap`], and the echo component opens a span.
    ///
    /// # Panics
    ///
    /// If a log file cannot be opened.
    pub fn build(
        config: Config,
        roles: &[Role],
        out: &OutDir,
        tag: &str,
        seed: u64,
        taps: bool,
    ) -> World {
        let bus = LocalBus::with_config(FaultPlan::none(), LatencyModel::Lan, seed);
        let dir = Arc::new(StaticKeyDirectory::new());
        let clock = bus.clock();
        let capture = Arc::new(Capture::default());
        let has = |r: Role| roles.contains(&r);
        let mut orgs = Vec::with_capacity(roles.len());
        for (i, &role) in roles.iter().enumerate() {
            let path = out.logs.join(format!("{tag}-{}.log", role.org_name()));
            let _ = std::fs::remove_file(&path);
            let file = Arc::new(
                FileLog::open_recover_with(&path, config.sync_policy())
                    .unwrap_or_else(|e| panic!("open {}: {e}", path.display())),
            );
            let timed = taps.then(|| Arc::new(TimedLog::new(file.clone())));
            let log: Arc<dyn EvidenceLog> = match &timed {
                Some(t) => t.clone(),
                None => file.clone(),
            };
            let mut builder =
                OrgMiddleware::builder(role.org_name(), bus.clone(), dir.clone(), clock.clone())
                    .seed(
                        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(i as u64 + 1),
                    )
                    .scheme(config.scheme())
                    .commitment(config.commitment())
                    .evidence_log(log);
            if role == Role::Server && has(Role::OfflineTtp) {
                builder = builder.offline_ttp(Role::OfflineTtp.org());
            }
            let mw = builder.build();
            match role {
                Role::Server => deploy_echo(&mw, taps),
                Role::InlineTtp => mw.serve_as_inline_ttp(None),
                Role::OfflineTtp => mw.serve_as_offline_ttp(),
                Role::Client | Role::Member => {}
            }
            if taps {
                let coordinator: Arc<dyn BusEndpoint> = mw.coordinator().clone();
                bus.register(
                    b2b_address(mw.org()),
                    Arc::new(EndpointTap::new(
                        coordinator,
                        role.tap_name(),
                        capture.clone(),
                    )),
                );
            }
            orgs.push(Org {
                role,
                mw,
                file,
                timed,
                path,
            });
        }
        let group = GroupId::new("bench-group");
        let members: BTreeSet<OrgId> = [Role::Client, Role::Server, Role::Member]
            .into_iter()
            .filter(|r| has(*r))
            .map(Role::org)
            .collect();
        for org in orgs.iter().filter(|o| members.contains(o.mw.org())) {
            org.mw.install_group(group.clone(), members.clone());
        }
        World {
            config,
            bus,
            dir,
            orgs,
            group,
            capture,
        }
    }

    pub fn org(&self, role: Role) -> &Org {
        self.orgs
            .iter()
            .find(|o| o.role == role)
            .unwrap_or_else(|| panic!("world has no {role:?}"))
    }

    pub fn has(&self, role: Role) -> bool {
        self.orgs.iter().any(|o| o.role == role)
    }

    /// Seals and lands every organisation's evidence.
    ///
    /// # Errors
    ///
    /// The first organisation whose flush failed.
    pub fn flush_all(&self) -> Result<(), String> {
        for org in &self.orgs {
            org.mw
                .flush_evidence()
                .map_err(|e| format!("flush {}: {e}", org.role.org_name()))?;
        }
        Ok(())
    }

    /// Bytes on disk across every organisation's log. Exact after
    /// [`World::flush_all`].
    pub fn disk_bytes(&self) -> u64 {
        self.orgs
            .iter()
            .map(|o| std::fs::metadata(&o.path).map_or(0, |m| m.len()))
            .sum()
    }

    /// Signatures left on each organisation's key (`None`: unbounded).
    pub fn keys_remaining(&self) -> Vec<Option<u32>> {
        self.orgs
            .iter()
            .map(|o| o.mw.party().keys().remaining())
            .collect()
    }

    /// `true` if every bounded key still holds [`KEY_MARGIN`] signatures.
    pub fn keys_above_margin(&self) -> bool {
        self.keys_remaining()
            .iter()
            .all(|r| r.is_none_or(|left| left >= KEY_MARGIN))
    }

    /// Drops the stacks and returns what a later dispute needs. The bus
    /// holds each coordinator and some handlers hold their own
    /// coordinator, so both registrations are undone first; otherwise the
    /// cycle would keep every log (and its records) alive.
    ///
    /// # Panics
    ///
    /// If a log is still referenced after the stacks are gone: a later
    /// phase would then measure memory and files it believes released.
    pub fn teardown(self) -> WorldRemains {
        let World {
            config,
            bus,
            dir,
            orgs,
            ..
        } = self;
        let mut logs = Vec::with_capacity(orgs.len());
        for Org {
            role,
            mw,
            file,
            timed,
            path,
        } in orgs
        {
            bus.unregister(mw.org());
            bus.unregister(&b2b_address(mw.org()));
            for protocol in mw.coordinator().protocols() {
                mw.coordinator().unregister_handler(&protocol);
            }
            drop((mw, timed));
            assert_eq!(
                Arc::strong_count(&file),
                1,
                "{role:?}'s log outlived its stack"
            );
            logs.push((role, path));
        }
        WorldRemains { config, dir, logs }
    }
}

impl WorldRemains {
    pub fn remove_logs(&self) {
        for (_, path) in &self.logs {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn deploy_echo(mw: &OrgMiddleware, traced: bool) {
    let component = FnComponent::new().method(METHOD, move |args| {
        let _span = traced.then(|| trace::span("container.component"));
        Ok(args.clone())
    });
    mw.deploy(
        DeploymentDescriptor::new(SERVICE, [MethodName::new(METHOD)]),
        Arc::new(component),
    )
    .expect("deploy echo");
}
