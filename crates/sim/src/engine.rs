//! The fleet engine: builds a world from a [`Scenario`], drives the work
//! items in a schedule-seed-derived order, and adjudicates every run with
//! anchor corroboration.
//!
//! Every organisation is an [`OrgMiddleware`] built with
//! `OrgMiddleware::builder`, the stack a deployment builds; the engine
//! picks keys, seeds and conduct and drives the protocol clients over each
//! org's party and coordinator. Outcomes are *replay-deterministic* (every
//! key, run id, payload and drop verdict derives from the scenario seed)
//! and *schedule-invariant* (verdicts compare facts by kind, issuer,
//! subject and holders, and findings by organisation and kind, never by
//! log order or signing leaf); see
//! "Scenario engine & schedule invariance" in `docs/ARCHITECTURE.md`.
//! Retries exceed the bounded drop budget, so losses change how evidence
//! is produced, never whether it is.
//!
//! `o0` keeps its evidence in a `FileLog` (`SyncPolicy::GroupCommit` or
//! `WriteThrough`, per `scenario.group_commit`). Its crash leaves a torn
//! frame on the log's tail that `FileLog::open_recover_with` must drop;
//! only durable records precede it (anchors are gossiped only after a
//! durable flush), so recovery is verdict-neutral. The rebuilt org keeps
//! its live signer (`MiddlewareBuilder::keys`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nonrep_container::component::FnComponent;
use nonrep_container::descriptor::DeploymentDescriptor;
use nonrep_container::interceptor::Invocation;
use nonrep_core::dispute::{Adjudicator, Fact, Finding, WindowSubmission};
use nonrep_core::{b2b_address, OrgMiddleware, RECEIPT_WINDOW_MS};
use nonrep_crypto::digest::{sha256, Digest};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_net::bus::LocalBus;
use nonrep_net::fault::FaultPlan;
use nonrep_net::latency::LatencyModel;
use nonrep_net::retry::RetryPolicy;
use nonrep_protocols::gossip::AnchorStore;
use nonrep_protocols::invocation::direct::DirectClient;
use nonrep_protocols::invocation::fair_offline::{FairClient, ServerConduct};
use nonrep_protocols::invocation::inline_ttp::InlineTtpClient;
use nonrep_protocols::invocation::voluntary::VoluntaryClient;
use nonrep_protocols::party::{KeyDirectory, StaticKeyDirectory};
use nonrep_protocols::tokens::TokenKind;
use nonrep_protocols::{CommitmentMode, ExpiryReport};
use nonrep_store::log::SyncPolicy;
use nonrep_types::codec::Encode;
use nonrep_types::ids::{MethodName, OrgId, RunId};
use nonrep_types::time::LogicalClock;
use nonrep_types::value::Value;

use crate::adversary::{
    Adversary, EquivocatingTtp, EvidenceWithholder, ForgedCertSubmitter, ForkHistorySubmitter,
    HonestSubmitter, TokenReplayer,
};
use crate::scenario::{Adversity, Role, Scenario, Variant, WorkItem};

/// The adjudicated result of one work item: the verdict's facts and its
/// findings about the scenario's parties and TTP. Both are
/// schedule-invariant, so two outcomes compare equal exactly when the
/// adjudicator established the same things.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Scenario item index.
    pub index: usize,
    /// The adjudicated run.
    pub run_id: RunId,
    /// Protocol variant driven.
    pub variant: &'static str,
    /// `true` if the client's invocation returned success.
    pub completed: bool,
    /// `true` if the TTP's `Abort` token is an established fact (the run
    /// was closed by a supervisor timeout, not by key release).
    pub aborted: bool,
    /// Established facts.
    pub facts: Vec<Fact>,
    /// Findings that name no TTP, or name the scenario's TTP.
    pub findings: BTreeSet<Finding>,
}

impl RunOutcome {
    /// The organisations `pick` selects from this run's findings.
    pub fn named(&self, pick: fn(&Finding) -> Option<&str>) -> BTreeSet<&str> {
        self.findings.iter().filter_map(pick).collect()
    }
}

/// The submitter a [`Finding::Suspect`] names.
pub fn suspect(finding: &Finding) -> Option<&str> {
    match finding {
        Finding::Suspect { submitter } => Some(submitter.as_str()),
        _ => None,
    }
}

/// The party convicted of protocol-time defection: by a TTP dispute
/// decision, or for aborting after taking the receipt.
pub fn defector(finding: &Finding) -> Option<&str> {
    match finding {
        Finding::Defected { party, .. } | Finding::AbortedAfterReceipt { party, .. } => {
            Some(party.as_str())
        }
        _ => None,
    }
}

/// The party a timeout abort is attributed to. Attribution, not
/// conviction, but in the simulator only a genuine staller earns it.
pub fn staller(finding: &Finding) -> Option<&str> {
    match finding {
        Finding::Stalled { party, .. } => Some(party.as_str()),
        _ => None,
    }
}

/// The adjudicated result of a whole fleet execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Scenario seed.
    pub seed: u64,
    /// Schedule seed the items were permuted with.
    pub schedule_seed: u64,
    /// Per-item outcomes, in scenario (not execution) order.
    pub runs: Vec<RunOutcome>,
}

impl FleetOutcome {
    /// `true` if `org` was flagged suspect, convicted as a defector or
    /// named as a staller in at least one run.
    pub fn detected(&self, org: &OrgId) -> bool {
        let pickers = [suspect, defector, staller];
        let accuses = |f| pickers.iter().any(|pick| pick(f) == Some(org.as_str()));
        self.runs.iter().flat_map(|r| &r.findings).any(accuses)
    }

    /// Every organisation flagged suspect anywhere.
    pub fn all_suspects(&self) -> BTreeSet<&str> {
        self.runs.iter().flat_map(|r| r.named(suspect)).collect()
    }

    /// `true` if both executions established the same verdicts (the
    /// schedule seed itself is allowed to differ).
    pub fn verdicts_match(&self, other: &FleetOutcome) -> bool {
        self.seed == other.seed && self.runs == other.runs
    }
}

fn derive_seed(seed: u64, org: &OrgId, salt: u64) -> u64 {
    let mut x = seed ^ salt;
    for b in org.as_str().bytes() {
        x = (x ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    x | 1
}

struct OrgHandle {
    mw: Arc<OrgMiddleware>,
    conduct: Box<dyn Adversary>,
}

/// Both bus identities of a middleware org.
fn identities(org: &OrgId) -> [OrgId; 2] {
    [org.clone(), b2b_address(org)]
}

/// Puts `adversity` in force (`active`) or lifts it, on both bus
/// identities of every organisation it names.
fn set_overlay(plan: &FaultPlan, adversity: &Adversity, active: bool) {
    let links = |a: &OrgId, b: &OrgId| {
        let ys = identities(b);
        identities(a)
            .into_iter()
            .flat_map(move |x| ys.clone().map(|y| (x.clone(), y)))
    };
    match (adversity, active) {
        (Adversity::CrashRecover(org), true) => identities(org).iter().for_each(|o| plan.crash(o)),
        (Adversity::CrashRecover(org), false) => {
            identities(org).iter().for_each(|o| plan.recover(o))
        }
        (Adversity::Partition(a, b), true) => links(a, b).for_each(|(x, y)| plan.partition(&x, &y)),
        (Adversity::Partition(a, b), false) => links(a, b).for_each(|(x, y)| plan.heal(&x, &y)),
    }
}

struct Fleet<'a> {
    scenario: &'a Scenario,
    bus: Arc<LocalBus>,
    clock: LogicalClock,
    dir: Arc<StaticKeyDirectory>,
    handles: BTreeMap<OrgId, OrgHandle>,
    durable_path: PathBuf,
}

impl<'a> Fleet<'a> {
    fn build(scenario: &'a Scenario, scratch: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(scratch)?;
        let fault = FaultPlan::lossy(
            scenario.drop_probability,
            scenario.max_consecutive_drops,
            scenario.seed,
        );
        let durable_path = scratch.join(format!("{}-o0.log", scenario.seed));
        let _ = std::fs::remove_file(&durable_path);
        let mut fleet = Fleet {
            scenario,
            bus: LocalBus::with_config(fault, LatencyModel::Zero, scenario.seed),
            clock: LogicalClock::new(),
            dir: Arc::new(StaticKeyDirectory::new()),
            handles: BTreeMap::new(),
            durable_path,
        };
        let orgs = scenario
            .regular
            .iter()
            .chain(std::iter::once(&scenario.ttp));
        for org in orgs.chain(scenario.exhausted.iter()) {
            let exhausted = scenario.exhausted.as_ref() == Some(org);
            // The hierarchical org gets the same 128-signature capacity as
            // everyone else (2^5 subtrees of 2^2 leaves vs one 2^7 tree),
            // but crosses a certified subtree rollover every 4 signatures
            // — rollover is routine, not an edge case, in every schedule.
            let scheme = if exhausted {
                SignatureScheme::Mss { height: 4 }
            } else if scenario.hierarchical.as_ref() == Some(org) {
                SignatureScheme::Hss {
                    root_height: 5,
                    subtree_height: 2,
                }
            } else if *org == scenario.ttp {
                SignatureScheme::Mss {
                    height: scenario.ttp_key_height,
                }
            } else {
                SignatureScheme::Mss {
                    height: scenario.key_height,
                }
            };
            let mut rng = SecureRandom::from_seed(derive_seed(scenario.seed, org, 0x6b65));
            let keys = Arc::new(KeyPair::generate(scheme, &mut rng));
            // Key exhaustion is injected *before* the scenario starts: the
            // burn count then never depends on the schedule.
            while exhausted && keys.sign_digest(&Digest::ZERO).is_ok() {}
            fleet.install(org, keys, false)?;
        }
        Ok(fleet)
    }

    /// Builds (or, after a crash, rebuilds around the recovered log) the
    /// middleware of `org`, signing with its live `keys`; the middleware
    /// registers itself on the bus. `recovered` re-salts the run-id seed.
    fn install(&mut self, org: &OrgId, keys: Arc<KeyPair>, recovered: bool) -> std::io::Result<()> {
        let scenario = self.scenario;
        let role = scenario.role_of(org);
        // Per-record commitment for organisations whose logs must carry no
        // epoch anchors (the replayer's poison pill lands after the final
        // flush; the exhausted org cannot sign seals); everyone else runs
        // the batched pipeline and gossips its anchors.
        let batched = scenario.exhausted.as_ref() != Some(org) && role != Some(Role::TokenReplayer);
        let salt = if recovered { 0x7265_6375 } else { 0x7274 };
        let mut builder = OrgMiddleware::builder(
            org.clone(),
            self.bus.clone(),
            Arc::clone(&self.dir),
            self.clock.clone(),
        )
        .keys(keys)
        .seed(derive_seed(scenario.seed, org, salt))
        // Above the bounded drop budget: delivery is guaranteed.
        .retry(RetryPolicy::new(scenario.max_consecutive_drops + 2))
        .commitment(if batched {
            CommitmentMode::auto(50)
        } else {
            CommitmentMode::PerRecord
        });
        if *org == scenario.regular[0] {
            let policy = if scenario.group_commit {
                SyncPolicy::GroupCommit
            } else {
                SyncPolicy::WriteThrough
            };
            builder = builder
                .evidence_file(&self.durable_path, policy)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        if *org != scenario.ttp {
            // Protocol-time conduct: the defecting server withholds the
            // fair-exchange step-4 key on the wire, the stalling server
            // goes silent before releasing it (both submit honestly —
            // the wire behaviour is the attack).
            builder = builder
                .offline_ttp(scenario.ttp.clone())
                .server_conduct(match role {
                    Some(Role::DefectingServer) => ServerConduct::WithholdKey,
                    Some(Role::StallingServer) => ServerConduct::Stall,
                    _ => ServerConduct::Honest,
                });
        }
        let mw = builder.build();
        if *org == scenario.ttp {
            mw.serve_as_inline_ttp(None);
            mw.serve_as_offline_ttp();
        } else {
            mw.deploy(
                DeploymentDescriptor::new("urn:echo", [MethodName::new("echo")]),
                Arc::new(FnComponent::new().method("echo", |args| Ok(args.clone()))),
            )
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let party = Arc::clone(mw.party());
        let forged_subject = sha256(format!("forged-{}-{org}", scenario.seed).as_bytes());
        let conduct: Box<dyn Adversary> = match role {
            None => Box::new(HonestSubmitter::new(party.clone())),
            Some(Role::ForkHistory) => {
                Box::new(ForkHistorySubmitter::new(party.clone(), forged_subject))
            }
            Some(Role::Withholder) => Box::new(EvidenceWithholder::new(party.clone())),
            Some(Role::TokenReplayer) => Box::new(TokenReplayer::new(
                party.clone(),
                replay_target_run(scenario),
            )),
            Some(Role::ForgedRollover) => Box::new(ForgedCertSubmitter::new(
                party.clone(),
                derive_seed(scenario.seed, org, 0x726f_6c6c),
            )),
            Some(Role::EquivocatingTtp) => {
                Box::new(EquivocatingTtp::new(party.clone(), forged_subject))
            }
            // The defection already happened on the wire; at dispute time
            // these parties present their genuine logs like everyone
            // honest.
            Some(Role::DefectingServer | Role::StallingClient | Role::StallingServer) => {
                Box::new(HonestSubmitter::new(party.clone()))
            }
        };
        self.handles.insert(org.clone(), OrgHandle { mw, conduct });
        Ok(())
    }

    fn crash_and_recover_durable(&mut self) -> std::io::Result<()> {
        let org = self.scenario.regular[0].clone();
        // Drop the whole stack first so the log closes, then recover the
        // evidence from disk and rebuild around the recovered log.
        for id in identities(&org) {
            self.bus.unregister(&id);
        }
        let keys = Arc::clone(self.handles[&org].mw.party().keys());
        self.handles.remove(&org);
        // The kill lands mid-append: leave the half-written frame a
        // mid-write crash leaves on the log's tail. Recovery must drop
        // exactly these bytes — every durable record precedes them, so
        // the verdicts cannot move.
        let durable_len = std::fs::metadata(&self.durable_path)?.len();
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&self.durable_path)?;
            file.write_all(b"torn mid-append frame")?;
            file.sync_all()?;
        }
        self.install(&org, keys, true)?;
        if std::fs::metadata(&self.durable_path)?.len() != durable_len {
            return Err(std::io::Error::other(
                "recovery kept the torn mid-append frame",
            ));
        }
        Ok(())
    }

    fn flush_and_gossip(&self, org: &OrgId) {
        let mw = &self.handles[org].mw;
        mw.flush_evidence()
            .unwrap_or_else(|e| panic!("{org}: flush failed: {e}"));
        // The anchors of one epoch reach the judge if any peer holds
        // them, so a bounded fan-out keeps corroboration intact while
        // capping the per-flush signature cost at fleet scale.
        let mut peers: Vec<OrgId> = self.handles.keys().filter(|o| *o != org).cloned().collect();
        peers.truncate(self.scenario.gossip_fanout);
        mw.gossip_anchors(&peers)
            .unwrap_or_else(|e| panic!("{org}: anchor gossip failed: {e}"));
    }

    /// Sweeps every organisation's supervisor.
    fn tick_all(&self) -> Vec<ExpiryReport> {
        self.handles.values().flat_map(|h| h.mw.tick()).collect()
    }

    fn run_item(&mut self, item: &WorkItem) -> std::io::Result<bool> {
        if let Some(adversity) = &item.adversity {
            set_overlay(self.bus.fault_plan(), adversity, true);
        }
        let mw = &self.handles[&item.client].mw;
        let party = Arc::clone(mw.party());
        let coordinator = Arc::clone(mw.coordinator());
        let request = Invocation::new(
            item.client.clone(),
            "urn:echo",
            "echo",
            Value::Bytes(format!("req-{}-{}", self.scenario.seed, item.index).into_bytes()),
        )
        .encode_to_vec();
        let completed = match item.variant {
            Variant::Direct => DirectClient::new(party, coordinator)
                .invoke_with(item.run_id, &item.server, request)
                .is_ok(),
            Variant::Voluntary => VoluntaryClient::new(party, coordinator)
                .invoke_with(item.run_id, &item.server, request)
                .is_ok(),
            Variant::InlineTtp => {
                InlineTtpClient::new(party, coordinator, self.scenario.ttp.clone())
                    .invoke_with(item.run_id, &item.server, request)
                    .is_ok()
            }
            Variant::FairOffline => {
                let client = FairClient::new(party, coordinator, self.scenario.ttp.clone());
                if self.scenario.role_of(&item.client) == Some(Role::StallingClient) {
                    // The staller walks away inside the receipt window.
                    // Its silence costs the window; the server's
                    // supervisor then times the run out into the TTP's
                    // abort choreography. The run never completes for a
                    // client that stalls it.
                    let _ = client.invoke_stalling(item.run_id, &item.server, request);
                    self.clock.advance(RECEIPT_WINDOW_MS);
                    for report in self.tick_all() {
                        assert_eq!(report.run, item.run_id, "foreign watch fired: {report}");
                    }
                    false
                } else if self.scenario.slow.as_ref() == Some(&item.client) {
                    // The slow-but-honest peer answers one simulated
                    // millisecond under the deadline; nothing may fire.
                    client
                        .invoke_paced(item.run_id, &item.server, request, || {
                            self.clock.advance(RECEIPT_WINDOW_MS - 1);
                            let fired = self.tick_all();
                            assert!(fired.is_empty(), "slow peer timed out: {fired:?}");
                        })
                        .is_ok()
                } else {
                    client
                        .invoke_with(item.run_id, &item.server, request)
                        .is_ok()
                }
            }
        };
        if let Some(adversity) = &item.adversity {
            if matches!(adversity, Adversity::CrashRecover(_)) {
                self.crash_and_recover_durable()?;
            }
            set_overlay(self.bus.fault_plan(), adversity, false);
        }
        // Participants seal what the run produced and gossip the anchors
        // while every organisation is reachable again.
        for p in item.participants(&self.scenario.ttp) {
            self.flush_and_gossip(&p);
        }
        Ok(completed)
    }

    /// An adjudicator holding every epoch anchor any organisation has
    /// been gossiped so far; one serves every item.
    fn adjudicator(&self) -> Adjudicator {
        let anchors = AnchorStore::new();
        for handle in self.handles.values() {
            for (org, epochs) in handle.mw.corroboration().epochs {
                for epoch in epochs {
                    anchors.record(&org, epoch);
                }
            }
        }
        Adjudicator::new(Arc::clone(&self.dir) as Arc<dyn KeyDirectory>)
            .corroborated_by(anchors.snapshot())
    }

    fn adjudicate(&self, judge: &Adjudicator, item: &WorkItem, completed: bool) -> RunOutcome {
        let submissions: Vec<WindowSubmission> = item
            .participants(&self.scenario.ttp)
            .iter()
            .map(|p| self.handles[p].conduct.submission())
            .collect();
        let verdict = judge.adjudicate_windows(item.run_id, &submissions);
        let ttp = &self.scenario.ttp;
        RunOutcome {
            index: item.index,
            run_id: item.run_id,
            variant: item.variant.name(),
            completed,
            aborted: verdict.cannot_deny(ttp, TokenKind::Abort),
            facts: verdict.facts,
            findings: verdict
                .findings
                .into_iter()
                .filter(|f| f.ttp().is_none_or(|t| t == ttp))
                .collect(),
        }
    }
}

/// The run id the token replayer re-files foreign tokens under: reserved,
/// never adjudicated, and distinct from every item's run id.
fn replay_target_run(scenario: &Scenario) -> RunId {
    RunId::from_u128(((scenario.seed as u128) << 16) | 0xdead)
}

/// Executes `scenario` with the item order derived from `schedule_seed`
/// and adjudicates every run. `scratch` hosts the durable organisation's
/// `FileLog` (one path per scenario seed — concurrent fleets need
/// distinct scratch directories).
///
/// # Errors
///
/// [`std::io::Error`] if the durable log cannot be created or recovered.
/// Protocol-level failures do not error the fleet: they surface as
/// `completed == false` on the item (and, for byzantine conduct, as
/// suspects in the verdicts).
pub fn run_fleet(
    scenario: &Scenario,
    schedule_seed: u64,
    scratch: &Path,
) -> std::io::Result<FleetOutcome> {
    let mut fleet = Fleet::build(scenario, scratch)?;
    let mut completed = vec![false; scenario.items.len()];
    for index in scenario.schedule(schedule_seed) {
        let item = scenario.items[index].clone();
        completed[index] = fleet.run_item(&item)?;
    }
    // Final seal + gossip for everyone, then let the adversaries plant
    // their dispute-time evidence.
    for org in fleet.handles.keys() {
        fleet.flush_and_gossip(org);
    }
    for handle in fleet.handles.values() {
        handle.conduct.finalize();
    }
    let judge = fleet.adjudicator();
    let runs = scenario
        .items
        .iter()
        .map(|item| fleet.adjudicate(&judge, item, completed[item.index]))
        .collect();
    Ok(FleetOutcome {
        seed: scenario.seed,
        schedule_seed,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_store::log::FileLog;
    use nonrep_store::EvidenceLog;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nonrep-sim-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn showcase_replays_identically_for_equal_seeds() {
        let scenario = Scenario::showcase(3);
        let a = run_fleet(&scenario, 0, &scratch("replay-a")).unwrap();
        let b = run_fleet(&scenario, 0, &scratch("replay-b")).unwrap();
        assert_eq!(a, b);
        assert!(!a.runs.is_empty());
        assert!(a.runs.iter().any(|r| !r.facts.is_empty()));
    }

    #[test]
    fn showcase_detects_every_byzantine_and_accuses_no_honest_org() {
        let scenario = Scenario::showcase(11);
        let out = run_fleet(&scenario, 0, &scratch("detect")).unwrap();
        for (org, role) in &scenario.byzantine {
            assert!(out.detected(org), "{org} ({}) not detected", role.name());
        }
        // The fork and the equivocating TTP are convicted specifically by
        // anchor corroboration; the withholder by the attested tail.
        let findings: BTreeSet<&Finding> = out.runs.iter().flat_map(|r| &r.findings).collect();
        let org = |name: &str| OrgId::new(name);
        for finding in [
            Finding::ForkedHistory {
                submitter: org("o2"),
            },
            Finding::ForkedHistory {
                submitter: org("ttp"),
            },
            Finding::WithheldRecords {
                submitter: org("o3"),
            },
        ] {
            assert!(findings.contains(&finding), "{finding} not found");
        }
        // Whom a chain or anchor violation is established against.
        let violators: BTreeSet<&str> = findings
            .iter()
            .filter_map(|f| match *f {
                Finding::BrokenChain { submitter }
                | Finding::ForkedHistory { submitter }
                | Finding::WithheldRecords { submitter } => Some(submitter.as_str()),
                _ => None,
            })
            .collect();
        let suspects: BTreeSet<&str> = findings.iter().filter_map(|f| suspect(f)).collect();
        // The forged-rollover org is convicted by cert cryptography alone:
        // no chain violation is ever established against it.
        assert!(!violators.contains("o5"));
        // The wire-conduct adversaries (defecting server, both stallers)
        // are convicted from protocol evidence alone — their own
        // submissions are honest, so neither a chain violation nor a
        // suspect flag is ever raised against them.
        for wire_adversary in ["o6", "o7", "o8"] {
            assert!(!violators.contains(wire_adversary));
            assert!(!suspects.contains(wire_adversary));
        }
        // Withholding the key (o6) and stalling before its release (o8)
        // are punished identically: a TTP dispute decision.
        let named =
            |pick| -> BTreeSet<&str> { out.runs.iter().flat_map(|r| r.named(pick)).collect() };
        assert_eq!(named(defector), BTreeSet::from(["o6", "o8"]));
        // The stalling client is attributed through the timeout abort:
        // exactly its run is abort-closed, and exactly it is named.
        assert_eq!(named(staller), BTreeSet::from(["o7"]));
        for run in &out.runs {
            let staller_item = scenario.items[run.index].client == scenario.regular[7];
            assert_eq!(run.aborted, staller_item, "item {}", run.index);
            // Convictions and attributions land only on fair-offline runs.
            if !run.named(defector).is_empty() || !run.named(staller).is_empty() {
                assert_eq!(run.variant, "fair_offline", "item {}", run.index);
            }
        }
        for org in scenario.honest_orgs() {
            assert!(!out.detected(&org), "honest {org} falsely accused");
        }
        // The slow-but-honest peer (o1) drove fair runs right up against
        // the deadline and was never accused of anything.
        assert!(!out.detected(scenario.slow.as_ref().unwrap()));
        // The exhausted client's item and the stalled run fail; every
        // other item completes.
        for run in &out.runs {
            let item = &scenario.items[run.index];
            let expect_fail = item.client == *scenario.exhausted.as_ref().unwrap()
                || scenario.role_of(&item.client) == Some(Role::StallingClient);
            assert_eq!(run.completed, !expect_fail, "item {}", run.index);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "hundred-org fleet; run in release (scripts/sim.sh stall sweep)"
    )]
    fn metropolis_convicts_stallers_at_fleet_scale_under_any_schedule() {
        let scenario = Scenario::metropolis(41);
        assert!(scenario.regular.len() >= 100);
        let base = run_fleet(&scenario, 0, &scratch("metro-base")).unwrap();
        let permuted = run_fleet(&scenario, 42, &scratch("metro-perm")).unwrap();
        assert!(base.verdicts_match(&permuted));
        for (org, role) in &scenario.byzantine {
            assert!(base.detected(org), "{org} ({}) not detected", role.name());
        }
        for org in scenario.honest_orgs() {
            assert!(!base.detected(&org), "honest {org} falsely accused");
        }
        // Every stalled or crashed run terminated with a verdict: the
        // staller's run is the only abort-closed one, and it names the
        // staller alone.
        let aborted: Vec<&RunOutcome> = base.runs.iter().filter(|r| r.aborted).collect();
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].named(staller), BTreeSet::from(["m097"]));
        assert!(!aborted[0].completed);
        // Everything except the stalled run completed despite the
        // partitions, the crash, and the lossy channel.
        assert_eq!(
            base.runs.iter().filter(|r| !r.completed).count(),
            1,
            "exactly one run (the stalled one) may fail at fleet scale"
        );
    }

    #[test]
    fn overlays_cut_both_bus_identities_until_lifted() {
        // A middleware org sends as `org` and receives at `org#b2b`. An
        // overlay that cut only one identity would leave the other open,
        // and the crash and partition items would pass vacuously.
        let scenario = Scenario::showcase(5);
        let fleet = Fleet::build(&scenario, &scratch("overlay")).unwrap();
        let plan = fleet.bus.fault_plan();
        let mut run = 0xfeed_0000u128;
        let mut invoke = |client: &OrgId, server: &OrgId| {
            run += 1;
            let mw = &fleet.handles[client].mw;
            let request = Invocation::new(client.clone(), "urn:echo", "echo", Value::Null);
            DirectClient::new(Arc::clone(mw.party()), Arc::clone(mw.coordinator()))
                .invoke_with(RunId::from_u128(run), server, request.encode_to_vec())
                .is_ok()
        };
        let (a, b, c) = (OrgId::new("o0"), OrgId::new("o1"), OrgId::new("o2"));

        let crash = Adversity::CrashRecover(a.clone());
        set_overlay(plan, &crash, true);
        assert!(!invoke(&a, &b), "a crashed org still sends");
        assert!(!invoke(&b, &a), "a crashed org still receives");
        set_overlay(plan, &crash, false);
        assert!(
            invoke(&a, &b) && invoke(&b, &a),
            "recovery left the org cut off"
        );

        let partition = Adversity::Partition(b.clone(), c.clone());
        set_overlay(plan, &partition, true);
        assert!(!invoke(&b, &c), "a partition lets b reach c");
        assert!(!invoke(&c, &b), "a partition lets c reach b");
        assert!(
            invoke(&a, &b) && invoke(&c, &a),
            "a partition cut a bystander"
        );
        set_overlay(plan, &partition, false);
        assert!(
            invoke(&b, &c) && invoke(&c, &b),
            "healing left the pair cut off"
        );
    }

    #[test]
    fn showcase_verdicts_survive_a_schedule_permutation() {
        let scenario = Scenario::showcase(17);
        let base = run_fleet(&scenario, 0, &scratch("perm-base")).unwrap();
        let permuted = run_fleet(&scenario, 42, &scratch("perm-alt")).unwrap();
        assert_ne!(scenario.schedule(0), scenario.schedule(42));
        assert!(base.verdicts_match(&permuted));
    }

    #[test]
    fn showcase_crash_crosses_the_rollover_boundary_and_recovery_keeps_the_chain() {
        use nonrep_store::record::cert_from_record;

        // Drive the showcase item by item so the hierarchical org's
        // generation can be observed around the crash overlay: its
        // subtrees roll before the crash, the recovery resumes the same
        // generation chain, and rollovers keep arriving afterwards.
        let scenario = Scenario::showcase(13);
        let mut fleet = Fleet::build(&scenario, &scratch("roll-crash")).unwrap();
        let o0 = scenario.regular[0].clone();
        let crash_index = scenario
            .items
            .iter()
            .position(|i| matches!(&i.adversity, Some(Adversity::CrashRecover(org)) if *org == o0))
            .expect("showcase has a crash overlay on o0");
        // The rebuilt middleware signs with this same key pair.
        let keys = Arc::clone(fleet.handles[&o0].mw.party().keys());
        let mut gen_at_crash = 0;
        for index in scenario.schedule(0) {
            if index == crash_index {
                gen_at_crash = keys.generation();
            }
            let item = scenario.items[index].clone();
            fleet.run_item(&item).unwrap();
        }
        for org in fleet.handles.keys() {
            fleet.flush_and_gossip(org);
        }
        // Subtree exhaustions happened on both sides of the crash: the
        // signer had already rolled when the kill landed, and recovery
        // kept it rolling instead of starving it.
        assert!(gen_at_crash >= 1, "no rollover before the crash");
        let final_gen = keys.generation();
        assert!(final_gen > gen_at_crash, "no rollover after recovery");
        // The recovered log holds one certificate record per signer and
        // subtree (the reopen scan seeds the stored set, so the rebuilt
        // party appends no duplicate), o0's own records span the crash,
        // and every token verifies through them under its issuer's root.
        let log = Arc::clone(fleet.handles[&o0].conduct.party().log());
        let mut certs = std::collections::HashSet::new();
        let mut own_generations: Vec<u32> = Vec::new();
        log.for_each(&mut |r| {
            if let Some(cert) = cert_from_record(r) {
                assert!(
                    certs.insert((r.draft.actor.clone(), cert.reference())),
                    "second record of one certificate at {}",
                    r.seq
                );
                if r.draft.actor == o0 {
                    own_generations.push(cert.generation);
                }
            }
        });
        own_generations.sort_unstable();
        assert!(own_generations.first() < Some(&gen_at_crash));
        assert!(own_generations.last() > Some(&gen_at_crash));
        let judge = Adjudicator::new(Arc::clone(&fleet.dir) as Arc<dyn KeyDirectory>);
        let report = judge.verify_log_in_place(o0.clone(), log.as_ref());
        assert!(report.clean());
        assert!(report.tokens.iter().any(|(t, _)| t.issuer == o0));
    }

    #[test]
    fn group_commit_backlog_kill_recovers_the_acked_prefix_and_verdicts_hold() {
        use nonrep_protocols::tokens::TokenKind;
        use std::time::{Duration, Instant};

        // The showcase with o0's durable log under
        // `SyncPolicy::GroupCommit`. Drive one item to completion, then
        // pile an un-flushed burst onto o0's log and kill the org with
        // the backlog still in flight: recovery must come back to
        // exactly the acked prefix, and the already-adjudicated verdict
        // must not move.
        let scenario = Scenario {
            group_commit: true,
            ..Scenario::showcase(31)
        };
        let mut fleet = Fleet::build(&scenario, &scratch("gc-backlog")).unwrap();
        let item = scenario.items[0].clone();
        let completed = fleet.run_item(&item).unwrap();
        assert!(completed);
        let before = fleet.adjudicate(&fleet.adjudicator(), &item, completed);
        assert!(before.named(suspect).is_empty());
        assert!(!before.facts.is_empty());

        let o0 = scenario.regular[0].clone();
        let party = Arc::clone(fleet.handles[&o0].conduct.party());
        let log = Arc::clone(party.log());
        // A run no item adjudicates: its records add no fact to the item.
        let burst_run = (1u128..)
            .map(RunId::from_u128)
            .find(|r| scenario.items.iter().all(|i| i.run_id != *r))
            .unwrap();
        for i in 0..3u8 {
            let t = party
                .issue_token(TokenKind::NroReq, burst_run, sha256(&[i]))
                .unwrap();
            party.store_token(&t).unwrap();
        }
        // Let the sync thread drain every barrier that was enqueued; what
        // remains off disk is the pure in-memory backlog the kill will
        // take. (Stability poll: the on-disk record count must sit
        // still; a read racing a write fails strict decoding and counts
        // as a change.)
        let path = fleet.durable_path.clone();
        let on_disk = || FileLog::open(&path).map_or(0, |f| f.len());
        let deadline = Instant::now() + Duration::from_secs(10);
        let on_disk = loop {
            let sample = on_disk();
            std::thread::sleep(Duration::from_millis(100));
            if on_disk() == sample || Instant::now() > deadline {
                break sample;
            }
        };
        let at_kill = log.len();
        let backlog = at_kill - on_disk;
        assert!(backlog > 0, "the burst left no backlog to lose");

        // Kill o0 mid-backlog: forget an Arc so no destructor ever drains
        // the buffered tail, then recover from disk and rebuild.
        for id in identities(&o0) {
            fleet.bus.unregister(&id);
        }
        fleet.handles.remove(&o0);
        let keys = Arc::clone(party.keys());
        std::mem::forget(party);
        drop(log);
        fleet.install(&o0, keys, true).unwrap();

        let recovered = Arc::clone(fleet.handles[&o0].conduct.party().log());
        assert_eq!(
            recovered.len(),
            at_kill - backlog,
            "recovery must resume at the acked prefix"
        );
        // The verdict on the already-adjudicated run is unchanged: the
        // backlog the kill took was never part of any submission.
        let after = fleet.adjudicate(&fleet.adjudicator(), &item, completed);
        assert_eq!(before, after);
        // And the recovered log keeps sealing: fresh evidence lands,
        // flushes, and the whole log verifies end to end.
        let party = Arc::clone(fleet.handles[&o0].conduct.party());
        for i in 0..2u8 {
            let t = party
                .issue_token(TokenKind::NroReq, burst_run, sha256(&[0x40 | i]))
                .unwrap();
            party.store_token(&t).unwrap();
        }
        party.flush_evidence().unwrap();
        recovered.verify().unwrap();
    }
}
