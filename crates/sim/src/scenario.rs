//! Seeded scenario descriptions.
//!
//! A [`Scenario`] is a *pure function of one `u64` seed*: the fleet of
//! organisations, which of them are byzantine (and how), the protocol
//! variant mix, the channel loss rate, and the adversity overlays
//! (crash/recovery, partitions, key exhaustion) are all derived from the
//! seed with a splitmix64 walk — no ambient randomness, no clock. Running
//! the same scenario twice therefore replays the same world, and a failing
//! seed printed by the smoke runner is a complete reproduction recipe.
//!
//! Two generators are provided:
//!
//! - [`Scenario::from_seed`] — the randomised family the property sweep
//!   walks: 2–4 regular organisations, a TTP, an optional exhausted-key
//!   organisation, zero or more byzantine roles, and 2–4 honest work items
//!   plus one *guarantee item* per byzantine party.
//! - [`Scenario::showcase`] — the maximal hand-laid fleet (every byzantine
//!   role at once) used by the `fleet_sim` example and the headline
//!   regression test.
//!
//! Byzantine organisations participate in **exactly one** work item each.
//! Items execute atomically, so a single-item log has the same record
//! order under every schedule permutation — which is what lets the
//! crafted submissions (and hence the verdicts) stay schedule-invariant.
//! The showcase's equivocating TTP is the one sanctioned exception: it
//! additionally adjudicates the defecting server's dispute item. That is
//! safe because its crafted fork is pinned *by token kind* to the inline
//! run's receipt (the offline-TTP records carry no receipts), and the
//! verdict layer reduces submissions to order-free content — so the extra
//! item permutes its log without moving any verdict.

use nonrep_types::ids::{OrgId, RunId};

/// The four NR-invocation protocol variants the simulator can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Three-message direct exchange (paper §3.2, Fig 3(c)).
    Direct,
    /// Wichert et al baseline: client NRO only.
    Voluntary,
    /// All traffic relayed through the inline TTP (Fig 3(a)).
    InlineTtp,
    /// Fair exchange with the offline TTP (escrowed key).
    FairOffline,
}

impl Variant {
    /// Short stable name (logs, repro output).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Direct => "direct",
            Variant::Voluntary => "voluntary",
            Variant::InlineTtp => "inline_ttp",
            Variant::FairOffline => "fair_offline",
        }
    }

    /// `true` if the variant routes through the TTP organisation.
    fn uses_ttp(self) -> bool {
        matches!(self, Variant::InlineTtp | Variant::FairOffline)
    }
}

/// How a byzantine organisation misbehaves. Every role except
/// [`Role::DefectingServer`] attacks *at submission time* — during
/// protocol execution those parties run the honest stack, because the
/// attacks in scope are evidence attacks, which is exactly what the
/// paper's adjudication layer must survive. The defecting server is the
/// one protocol-time adversary: it defects *inside* the fair-exchange
/// choreography, and it is convicted not by anything in its own
/// submission but by the TTP's signed dispute decision held in its
/// counterparty's evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Submits an internally consistent *rewritten* history that diverges
    /// from the epoch anchors it gossiped while executing.
    ForkHistory,
    /// Submits a truncated prefix of its log while claiming it is the
    /// whole thing.
    Withholder,
    /// Appends a counterparty's genuine token to its log under a
    /// different run id before submitting.
    TokenReplayer,
    /// Grafts a key-rollover record whose subtree cert was signed by a
    /// root *other than its registered one* onto its submission — the
    /// byzantine move against the hierarchical key lifecycle. The chain
    /// stays intact; only the cert cryptography convicts it.
    ForgedRollover,
    /// An inline TTP that rewrites one of its own receipts, forking its
    /// history against its gossiped anchors.
    EquivocatingTtp,
    /// A fair-offline server that executes the request and collects the
    /// client's receipt, then withholds the step-4 decryption key. The
    /// client's dispute sub-protocol recovers the key from the TTP's
    /// escrow, and the TTP's signed `Decision` token — logged by the
    /// client — convicts the server at adjudication. It submits its
    /// evidence honestly: the defection *is* the attack.
    DefectingServer,
    /// A fair-offline *client* that goes silent inside the receipt
    /// window — after the server's signed response arrives, before the
    /// step-3 receipt goes out. The server's exchange supervisor times
    /// the window out and escalates to the TTP's abort choreography;
    /// the adjudicator then attributes the stall from the abort token
    /// plus the client's own `NRO_req` (`Finding::Stalled`).
    /// Like the defecting server, it submits honestly: walking away
    /// *is* the attack.
    StallingClient,
    /// A fair-offline server that collects the step-3 receipt and then
    /// goes silent before the step-4 key release. The client's session
    /// diverts into the dispute sub-protocol, recovers the key from the
    /// TTP's escrow, and the TTP's signed `Decision` convicts the
    /// server — stalling after taking the receipt is indistinguishable
    /// from withholding the key, and is punished identically.
    StallingServer,
}

impl Role {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Role::ForkHistory => "fork_history",
            Role::Withholder => "withholder",
            Role::TokenReplayer => "token_replayer",
            Role::ForgedRollover => "forged_rollover",
            Role::EquivocatingTtp => "equivocating_ttp",
            Role::DefectingServer => "defecting_server",
            Role::StallingClient => "stalling_client",
            Role::StallingServer => "stalling_server",
        }
    }
}

/// A scripted adversity overlay attached to one work item: applied before
/// the item runs, healed (and, for a crash, recovered from disk) after.
/// Overlays only ever target non-participants of their item, so the
/// bounded-failure budget of the channel is the *only* adversity protocol
/// traffic sees — the overlays exercise the recovery machinery without
/// making delivery (and hence the verdicts) schedule-dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Adversity {
    /// Crash `org` for the duration of the item; afterwards recover its
    /// evidence log from disk (`FileLog::open_recover`) and rebuild its
    /// protocol stack around the recovered log.
    CrashRecover(OrgId),
    /// Partition the two (non-participant) organisations from each other
    /// for the duration of the item.
    Partition(OrgId, OrgId),
}

/// One protocol run to drive: a client invoking a server under a variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// Position in the scenario (adjudication reports in this order).
    pub index: usize,
    /// Seed-derived run identifier — identical across permutations, so
    /// every schedule adjudicates the same runs.
    pub run_id: RunId,
    /// Protocol variant to run.
    pub variant: Variant,
    /// Invoking organisation.
    pub client: OrgId,
    /// Serving organisation.
    pub server: OrgId,
    /// Optional adversity overlay around this item.
    pub adversity: Option<Adversity>,
}

impl WorkItem {
    /// The organisations whose evidence is submitted when this item is
    /// adjudicated (client, server, and the TTP when the variant uses
    /// one).
    pub fn participants(&self, ttp: &OrgId) -> Vec<OrgId> {
        let mut p = vec![self.client.clone(), self.server.clone()];
        if self.variant.uses_ttp() {
            p.push(ttp.clone());
        }
        p
    }

    /// `true` if `org` takes part in this item.
    fn involves(&self, org: &OrgId, ttp: &OrgId) -> bool {
        self.participants(ttp).contains(org)
    }
}

/// A complete seeded scenario: fleet, adversary assignment, work list,
/// and channel-fault budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed everything below derives from.
    pub seed: u64,
    /// Regular organisations `o0..`; `o0` is always honest and keeps its
    /// evidence in a `FileLog` (the crash/recovery target).
    pub regular: Vec<OrgId>,
    /// The trusted-third-party organisation.
    pub ttp: OrgId,
    /// An organisation whose signing keys are exhausted before the
    /// scenario starts, if the seed asks for one.
    pub exhausted: Option<OrgId>,
    /// An always-honest organisation running a *hierarchical* (HSS)
    /// signing key, if the seed asks for one: its short subtrees exhaust
    /// and roll over mid-scenario, so the sweep exercises certified
    /// rollover under every schedule — and, when the choice lands on
    /// `o0`, under the crash/recovery overlay too (crash at the rollover
    /// boundary).
    pub hierarchical: Option<OrgId>,
    /// An always-honest organisation whose fair-offline invocations
    /// pause just under the server's receipt deadline (the SlowPeer
    /// conduct), if the scenario fields one: present to prove the
    /// negative — slowness alone must never be convicted.
    pub slow: Option<OrgId>,
    /// Byzantine role per organisation (regular orgs and/or the TTP).
    pub byzantine: Vec<(OrgId, Role)>,
    /// The runs to drive, in index order.
    pub items: Vec<WorkItem>,
    /// `true` runs `o0`'s durable `FileLog` under
    /// `SyncPolicy::GroupCommit` (a sync thread lands each sealed epoch);
    /// `false` keeps `SyncPolicy::WriteThrough` (every append fsyncs).
    pub group_commit: bool,
    /// Per-hop message drop probability on the bus.
    pub drop_probability: f64,
    /// Bound on consecutive drops per link (the paper's bounded-failure
    /// assumption; the engine sizes its retry budget above it).
    pub max_consecutive_drops: u32,
    /// Merkle-tree height of the regular organisations' MSS keys
    /// (signature capacity `2^h`). The metropolis fleet shrinks it so a
    /// hundred-organisation world builds quickly.
    pub key_height: u8,
    /// Merkle-tree height of the TTP's key — larger fleets route more
    /// runs through the TTP, so its signature budget scales separately.
    pub ttp_key_height: u8,
    /// Upper bound on anchor-gossip fan-out per flush. The judge holds
    /// the union of every org's anchor store, so one recipient per anchor
    /// keeps corroboration intact while a bounded fan-out caps the
    /// per-flush signature cost — which is what lets a hundred
    /// organisations gossip at all.
    pub gossip_fanout: usize,
}

/// splitmix64 — the derivation PRF for everything scenario-shaped.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A tiny deterministic generator over splitmix64.
struct Derive(u64);

impl Derive {
    fn new(seed: u64, salt: u64) -> Self {
        Self(splitmix64(seed ^ salt))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Derives the run id of item `index`: unique within the scenario,
/// distinct across seeds, and never the reserved gossip run id 0.
fn run_id_for(seed: u64, index: usize) -> RunId {
    let hi = splitmix64(seed ^ (index as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    RunId::from_u128(((hi as u128) << 64) | (index as u128 + 1))
}

impl Scenario {
    /// Derives the randomised scenario family for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut d = Derive::new(seed, 0x5363_656e_6172_696f); // "Scenario"
        let n_regular = 2 + d.below(3) as usize;
        let regular: Vec<OrgId> = (0..n_regular)
            .map(|i| OrgId::new(format!("o{i}")))
            .collect();
        let ttp = OrgId::new("ttp");

        // o0 is always honest (it is the durable/recovery org); at least
        // two honest regular orgs must remain to carry the honest items.
        let capacity = n_regular.saturating_sub(2);
        let byz_count = d.below(capacity as u64 + 1) as usize;
        let ttp_byzantine = d.below(4) == 0;
        let mut byzantine: Vec<(OrgId, Role)> = Vec::new();
        // The defecting server's dispute — and both stalling roles'
        // timeout escalations — run through the TTP, so those roles
        // only enter the pool when the TTP is honest.
        let roles: &[Role] = if ttp_byzantine {
            &[
                Role::ForkHistory,
                Role::Withholder,
                Role::TokenReplayer,
                Role::ForgedRollover,
            ]
        } else {
            &[
                Role::ForkHistory,
                Role::Withholder,
                Role::TokenReplayer,
                Role::ForgedRollover,
                Role::DefectingServer,
                Role::StallingClient,
                Role::StallingServer,
            ]
        };
        for i in 0..byz_count {
            // Take roles from the tail of the fleet: o_{n-1}, o_{n-2}, ...
            let org = regular[n_regular - 1 - i].clone();
            let role = roles[d.below(roles.len() as u64) as usize];
            byzantine.push((org, role));
        }
        if ttp_byzantine {
            byzantine.push((ttp.clone(), Role::EquivocatingTtp));
        }
        let honest: Vec<OrgId> = regular
            .iter()
            .filter(|o| byzantine.iter().all(|(b, _)| b != *o))
            .cloned()
            .collect();

        let exhausted = (d.below(3) == 0).then(|| OrgId::new("xkey"));

        // Honest items: 2–4 runs between honest regular orgs. A byzantine
        // TTP gets exactly one (guarantee) item, so honest items then
        // avoid the TTP variants.
        let variants: &[Variant] = if ttp_byzantine {
            &[Variant::Direct, Variant::Voluntary]
        } else {
            &[
                Variant::Direct,
                Variant::Voluntary,
                Variant::InlineTtp,
                Variant::FairOffline,
            ]
        };
        let mut items = Vec::new();
        let honest_items = 2 + d.below(3);
        for _ in 0..honest_items {
            let c = d.below(honest.len() as u64) as usize;
            let s = (c + 1 + d.below(honest.len() as u64 - 1) as usize) % honest.len();
            items.push((
                variants[d.below(variants.len() as u64) as usize],
                honest[c].clone(),
                honest[s].clone(),
            ));
        }
        // Guarantee items: each byzantine org participates in exactly one
        // run, so its log (and thus its crafted submission) has the same
        // record order under every schedule permutation.
        for (org, role) in &byzantine {
            match role {
                Role::EquivocatingTtp => {
                    // An inline run relayed by the byzantine TTP.
                    items.push((Variant::InlineTtp, honest[0].clone(), honest[1].clone()));
                }
                Role::DefectingServer => {
                    // The defector *serves* a fair run: an honest client
                    // drives the exchange, hits the withheld key, and
                    // disputes at the (honest) TTP.
                    items.push((Variant::FairOffline, honest[0].clone(), org.clone()));
                }
                Role::StallingClient => {
                    // The staller *invokes* a fair run against an honest
                    // server and walks away in the receipt window; the
                    // server's supervisor escalates to the TTP abort.
                    items.push((Variant::FairOffline, org.clone(), honest[0].clone()));
                }
                Role::StallingServer => {
                    // The staller serves a fair run and goes silent
                    // before the key release; the honest client resolves
                    // at the TTP.
                    items.push((Variant::FairOffline, honest[0].clone(), org.clone()));
                }
                _ => {
                    // A direct run gives the byzantine client both its own
                    // tokens (to fork) and counterparty tokens (to replay).
                    let server = honest[1 % honest.len()].clone();
                    items.push((Variant::Direct, org.clone(), server));
                }
            }
        }
        if let Some(x) = &exhausted {
            items.push((Variant::Direct, x.clone(), honest[0].clone()));
        }
        // A third of the honest-TTP family fields a slow-but-honest fair
        // client: it pauses just under the server's receipt deadline, so
        // the sweep continuously proves slowness alone is never
        // convicted under any schedule.
        let slow = (!ttp_byzantine && d.below(3) == 0).then(|| honest[0].clone());
        if let Some(s) = &slow {
            items.push((Variant::FairOffline, s.clone(), honest[1].clone()));
        }

        let mut items: Vec<WorkItem> = items
            .into_iter()
            .enumerate()
            .map(|(index, (variant, client, server))| WorkItem {
                index,
                run_id: run_id_for(seed, index),
                variant,
                client,
                server,
                adversity: None,
            })
            .collect();

        // Crash/recovery overlay: o0 crashes during the first item it does
        // not participate in, then recovers its FileLog from disk.
        let o0 = regular[0].clone();
        if let Some(item) = items.iter_mut().find(|i| !i.involves(&o0, &ttp)) {
            item.adversity = Some(Adversity::CrashRecover(o0));
        }
        // Partition overlay: the first *other* item with two regular
        // non-participants gets them partitioned for its duration.
        let all_orgs: Vec<OrgId> = regular.clone();
        for item in items.iter_mut() {
            if item.adversity.is_some() {
                continue;
            }
            let outsiders: Vec<&OrgId> = all_orgs
                .iter()
                .filter(|o| !item.involves(o, &ttp))
                .collect();
            if outsiders.len() >= 2 {
                item.adversity = Some(Adversity::Partition(
                    outsiders[0].clone(),
                    outsiders[1].clone(),
                ));
                break;
            }
        }

        let drop_probability = [0.0, 0.1, 0.25][d.below(3) as usize];
        // Half the family runs o0's durable log under group commit, so
        // the property sweep covers the sync thread's landing of sealed
        // epochs next to the write-through path.
        let group_commit = d.below(4) >= 2;
        // Half the family puts one always-honest organisation on a
        // hierarchical key (o0 and o1 are never byzantine, so the choice
        // is safe): its subtrees roll mid-scenario, and the o0 draw
        // composes with the crash overlay above into a crash at the
        // rollover boundary.
        let hierarchical = (d.below(2) == 0).then(|| regular[d.below(2) as usize].clone());
        Scenario {
            seed,
            regular,
            ttp,
            exhausted,
            hierarchical,
            slow,
            byzantine,
            items,
            group_commit,
            drop_probability,
            max_consecutive_drops: 2,
            key_height: 7,
            ttp_key_height: 7,
            gossip_fanout: usize::MAX,
        }
    }

    /// The maximal hand-laid fleet: nine regular organisations with every
    /// regular byzantine role present, an equivocating TTP, an
    /// exhausted-key organisation, a crash/recovery overlay and a
    /// partition overlay. The durable organisation `o0` runs a
    /// hierarchical key, so the crash overlay doubles as a
    /// crash-at-the-rollover-boundary fault. `o6` serves a fair-offline
    /// run and withholds the key, so the dispute sub-protocol runs in
    /// every showcase execution; `o7` stalls a fair run as client (the
    /// timeout abort fires), `o8` stalls one as server (the client
    /// resolves), and `o1` is the slow-but-honest peer that answers just
    /// under the deadline. `seed` still varies run ids, request payloads
    /// and the channel drop pattern.
    pub fn showcase(seed: u64) -> Self {
        let regular: Vec<OrgId> = (0..9).map(|i| OrgId::new(format!("o{i}"))).collect();
        let ttp = OrgId::new("ttp");
        let byzantine = vec![
            (regular[2].clone(), Role::ForkHistory),
            (regular[3].clone(), Role::Withholder),
            (regular[4].clone(), Role::TokenReplayer),
            (regular[5].clone(), Role::ForgedRollover),
            (regular[6].clone(), Role::DefectingServer),
            (regular[7].clone(), Role::StallingClient),
            (regular[8].clone(), Role::StallingServer),
            (ttp.clone(), Role::EquivocatingTtp),
        ];
        let plan: Vec<(Variant, usize, usize)> = vec![
            (Variant::Direct, 0, 1),
            (Variant::Voluntary, 1, 0),
            (Variant::Direct, 2, 1),      // fork-history guarantee item
            (Variant::Direct, 3, 1),      // withholder guarantee item
            (Variant::Direct, 4, 1),      // token-replayer guarantee item
            (Variant::Direct, 5, 1),      // forged-rollover guarantee item
            (Variant::InlineTtp, 0, 1),   // equivocating-TTP guarantee item
            (Variant::FairOffline, 1, 6), // defecting-server dispute item
            (Variant::FairOffline, 7, 0), // stalling-client timeout item
            (Variant::FairOffline, 1, 8), // stalling-server resolve item
        ];
        let mut items: Vec<WorkItem> = plan
            .into_iter()
            .enumerate()
            .map(|(index, (variant, c, s))| WorkItem {
                index,
                run_id: run_id_for(seed, index),
                variant,
                client: regular[c].clone(),
                server: regular[s].clone(),
                adversity: None,
            })
            .collect();
        // o0 crashes during the fork-history item and recovers from disk;
        // two idle orgs are partitioned during the withholder item.
        items[2].adversity = Some(Adversity::CrashRecover(regular[0].clone()));
        items[3].adversity = Some(Adversity::Partition(regular[2].clone(), regular[4].clone()));
        let exhausted = OrgId::new("xkey");
        let index = items.len();
        items.push(WorkItem {
            index,
            run_id: run_id_for(seed, index),
            variant: Variant::Direct,
            client: exhausted.clone(),
            server: regular[0].clone(),
            adversity: None,
        });
        let hierarchical = Some(regular[0].clone());
        let slow = Some(regular[1].clone());
        Scenario {
            seed,
            regular,
            ttp,
            exhausted: Some(exhausted),
            hierarchical,
            slow,
            byzantine,
            items,
            group_commit: false,
            drop_probability: 0.2,
            max_consecutive_drops: 2,
            key_height: 7,
            ttp_key_height: 7,
            gossip_fanout: usize::MAX,
        }
    }

    /// A hundred-organisation fleet for the stalling-adversary sweep:
    /// 48 pairwise exchanges across the variant mix, a stalling client,
    /// a stalling server, a defecting server, and a slow-but-honest peer
    /// — with partition overlays running *during* the stalling items, so
    /// timeout verdicts are reached while bystanders are cut off. Keys
    /// are short and anchor gossip fans out to a bounded peer set: the
    /// point is scale in *runs and organisations*, not in signature
    /// budgets, and this is what lets the world build in seconds.
    pub fn metropolis(seed: u64) -> Self {
        let regular: Vec<OrgId> = (0..100).map(|i| OrgId::new(format!("m{i:03}"))).collect();
        let ttp = OrgId::new("ttp");
        let byzantine = vec![
            (regular[97].clone(), Role::StallingClient),
            (regular[98].clone(), Role::StallingServer),
            (regular[99].clone(), Role::DefectingServer),
        ];
        let variants = [
            Variant::Direct,
            Variant::Voluntary,
            Variant::InlineTtp,
            Variant::FairOffline,
        ];
        // Pair the first 96 organisations off into 48 honest exchanges;
        // m096 idles (a fleet member that only gossips), the byzantine
        // tail gets exactly one guarantee item each.
        let mut plan: Vec<(Variant, OrgId, OrgId)> = (0..48)
            .map(|i| {
                (
                    variants[i % variants.len()],
                    regular[2 * i].clone(),
                    regular[2 * i + 1].clone(),
                )
            })
            .collect();
        plan.push((
            Variant::FairOffline,
            regular[97].clone(),
            regular[1].clone(),
        ));
        plan.push((
            Variant::FairOffline,
            regular[2].clone(),
            regular[98].clone(),
        ));
        plan.push((
            Variant::FairOffline,
            regular[3].clone(),
            regular[99].clone(),
        ));
        // The slow peer answers a fair exchange just under the deadline.
        plan.push((Variant::FairOffline, regular[5].clone(), regular[4].clone()));
        let mut items: Vec<WorkItem> = plan
            .into_iter()
            .enumerate()
            .map(|(index, (variant, client, server))| WorkItem {
                index,
                run_id: run_id_for(seed, index),
                variant,
                client,
                server,
                adversity: None,
            })
            .collect();
        // The durable organisation crashes and recovers mid-fleet, and
        // every stalling/dispute item runs under a bystander partition:
        // the escalation choreographies must convict through them.
        items[1].adversity = Some(Adversity::CrashRecover(regular[0].clone()));
        items[48].adversity = Some(Adversity::Partition(
            regular[90].clone(),
            regular[91].clone(),
        ));
        items[49].adversity = Some(Adversity::Partition(
            regular[92].clone(),
            regular[93].clone(),
        ));
        items[50].adversity = Some(Adversity::Partition(
            regular[94].clone(),
            regular[95].clone(),
        ));
        let slow = Some(regular[5].clone());
        Scenario {
            seed,
            regular,
            ttp,
            exhausted: None,
            hierarchical: None,
            slow,
            byzantine,
            items,
            group_commit: false,
            drop_probability: 0.1,
            max_consecutive_drops: 2,
            key_height: 5,
            ttp_key_height: 8,
            gossip_fanout: 2,
        }
    }

    /// The honest organisations of the fleet: everyone who is not
    /// byzantine (the exhausted org is honest — it merely ran out of
    /// keys).
    pub fn honest_orgs(&self) -> Vec<OrgId> {
        let mut orgs: Vec<OrgId> = self
            .regular
            .iter()
            .chain(std::iter::once(&self.ttp))
            .chain(self.exhausted.iter())
            .cloned()
            .collect();
        orgs.retain(|o| self.byzantine.iter().all(|(b, _)| b != o));
        orgs
    }

    /// The byzantine role of `org`, if any.
    pub fn role_of(&self, org: &OrgId) -> Option<Role> {
        self.byzantine
            .iter()
            .find(|(b, _)| b == org)
            .map(|(_, r)| *r)
    }

    /// A permutation of item indices derived from `schedule_seed` — the
    /// execution order the engine drives. `schedule_seed == 0` is the
    /// identity schedule.
    pub fn schedule(&self, schedule_seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        if schedule_seed == 0 {
            return order;
        }
        let mut d = Derive::new(schedule_seed, 0x7363_6865_6475_6c65); // "schedule"
        for i in (1..order.len()).rev() {
            let j = d.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The guarantee item of `org` — the single run a byzantine org
    /// participates in.
    fn guarantee_item<'a>(s: &'a Scenario, org: &OrgId) -> Option<&'a WorkItem> {
        s.items.iter().find(|i| i.involves(org, &s.ttp))
    }

    #[test]
    fn scenarios_are_pure_functions_of_the_seed() {
        for seed in 0..200u64 {
            assert_eq!(Scenario::from_seed(seed), Scenario::from_seed(seed));
        }
        assert_ne!(Scenario::from_seed(1), Scenario::from_seed(2));
    }

    #[test]
    fn byzantine_orgs_participate_in_exactly_one_item() {
        for seed in 0..200u64 {
            let s = Scenario::from_seed(seed);
            for (org, _) in &s.byzantine {
                let n = s.items.iter().filter(|i| i.involves(org, &s.ttp)).count();
                assert_eq!(n, 1, "seed {seed}: {org} participates in {n} items");
            }
        }
    }

    #[test]
    fn o0_is_never_byzantine_and_two_honest_regulars_remain() {
        for seed in 0..200u64 {
            let s = Scenario::from_seed(seed);
            assert!(s.role_of(&s.regular[0]).is_none(), "seed {seed}");
            let honest_regular = s.regular.iter().filter(|o| s.role_of(o).is_none()).count();
            assert!(honest_regular >= 2, "seed {seed}");
        }
    }

    #[test]
    fn overlays_only_target_non_participants() {
        for seed in 0..200u64 {
            let s = Scenario::from_seed(seed);
            for item in &s.items {
                match &item.adversity {
                    Some(Adversity::CrashRecover(org)) => {
                        assert!(!item.involves(org, &s.ttp), "seed {seed}")
                    }
                    Some(Adversity::Partition(a, b)) => {
                        assert!(!item.involves(a, &s.ttp), "seed {seed}");
                        assert!(!item.involves(b, &s.ttp), "seed {seed}");
                        assert_ne!(a, b, "seed {seed}");
                    }
                    None => {}
                }
            }
        }
    }

    #[test]
    fn run_ids_are_unique_and_never_the_gossip_run() {
        for seed in [0u64, 1, 7, 99, u64::MAX] {
            let s = Scenario::from_seed(seed);
            let mut ids: Vec<_> = s.items.iter().map(|i| i.run_id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), s.items.len());
            assert!(ids.iter().all(|r| *r != RunId::from_u128(0)));
        }
    }

    #[test]
    fn schedules_permute_every_item_exactly_once() {
        let s = Scenario::showcase(5);
        assert_eq!(s.schedule(0), (0..s.items.len()).collect::<Vec<_>>());
        for seed in 1..50u64 {
            let mut order = s.schedule(seed);
            order.sort_unstable();
            assert_eq!(order, (0..s.items.len()).collect::<Vec<_>>());
        }
        // Permutations actually differ from the identity somewhere.
        assert!((1..50u64).any(|x| s.schedule(x) != s.schedule(0)));
    }

    #[test]
    fn both_sync_policies_are_reachable_from_the_seed_family() {
        assert!((0..200u64).any(|s| Scenario::from_seed(s).group_commit));
        assert!((0..200u64).any(|s| !Scenario::from_seed(s).group_commit));
    }

    #[test]
    fn showcase_fields_every_byzantine_role() {
        let s = Scenario::showcase(1);
        let mut roles: Vec<Role> = s.byzantine.iter().map(|(_, r)| *r).collect();
        roles.dedup();
        assert_eq!(roles.len(), 8);
        for (org, _) in &s.byzantine {
            assert!(guarantee_item(&s, org).is_some(), "{org} has no item");
        }
        // The durable org runs the hierarchical key, so its crash overlay
        // is a crash at the rollover boundary.
        assert_eq!(s.hierarchical.as_ref(), Some(&s.regular[0]));
        // The slow peer is honest: it must be present to prove slowness
        // is never convicted, and never double as an adversary.
        let slow = s.slow.as_ref().expect("showcase fields a slow peer");
        assert!(s.role_of(slow).is_none());
    }

    #[test]
    fn stalling_roles_are_reachable_and_correctly_shaped() {
        let mut saw_client = false;
        let mut saw_server = false;
        for seed in 0..400u64 {
            let s = Scenario::from_seed(seed);
            for (org, role) in &s.byzantine {
                let item = match role {
                    Role::StallingClient => {
                        saw_client = true;
                        guarantee_item(&s, org).expect("guarantee item")
                    }
                    Role::StallingServer => {
                        saw_server = true;
                        guarantee_item(&s, org).expect("guarantee item")
                    }
                    _ => continue,
                };
                // Both stalls escalate to the TTP, so the TTP is honest
                // and the run is fair-offline.
                assert!(s.role_of(&s.ttp).is_none(), "seed {seed}: byzantine ttp");
                assert_eq!(item.variant, Variant::FairOffline, "seed {seed}");
                if *role == Role::StallingClient {
                    assert_eq!(&item.client, org, "seed {seed}");
                    assert!(s.role_of(&item.server).is_none(), "seed {seed}");
                } else {
                    assert_eq!(&item.server, org, "seed {seed}");
                    assert!(s.role_of(&item.client).is_none(), "seed {seed}");
                }
            }
            if let Some(slow) = &s.slow {
                // The slow peer is always honest and always fields a
                // fair-offline item it drives as client.
                assert!(s.role_of(slow).is_none(), "seed {seed}");
                assert!(
                    s.items
                        .iter()
                        .any(|i| i.variant == Variant::FairOffline && i.client == *slow),
                    "seed {seed}: slow peer has no fair item"
                );
            }
        }
        assert!(saw_client, "no stalling client in 400 seeds");
        assert!(saw_server, "no stalling server in 400 seeds");
        assert!((0..400u64).any(|x| Scenario::from_seed(x).slow.is_some()));
    }

    #[test]
    fn metropolis_is_a_pure_hundred_org_fleet_with_one_item_per_byzantine() {
        let s = Scenario::metropolis(7);
        assert_eq!(s, Scenario::metropolis(7));
        assert!(s.regular.len() >= 100);
        for (org, _) in &s.byzantine {
            let n = s.items.iter().filter(|i| i.involves(org, &s.ttp)).count();
            assert_eq!(n, 1, "{org} participates in {n} items");
        }
        // The stalling and dispute items run under bystander partitions.
        for item in &s.items {
            if let Some(Adversity::Partition(a, b)) = &item.adversity {
                assert!(!item.involves(a, &s.ttp));
                assert!(!item.involves(b, &s.ttp));
            }
        }
        let stalled_under_partition = s.items.iter().any(|i| {
            i.variant == Variant::FairOffline
                && s.role_of(&i.client) == Some(Role::StallingClient)
                && matches!(i.adversity, Some(Adversity::Partition(..)))
        });
        assert!(stalled_under_partition);
        // Run ids stay unique at fleet scale.
        let mut ids: Vec<_> = s.items.iter().map(|i| i.run_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), s.items.len());
    }

    #[test]
    fn defecting_servers_serve_fair_runs_under_an_honest_ttp() {
        let mut reachable = false;
        for seed in 0..400u64 {
            let s = Scenario::from_seed(seed);
            for (org, role) in &s.byzantine {
                if *role != Role::DefectingServer {
                    continue;
                }
                reachable = true;
                // The dispute escalates to the TTP, so the TTP is honest.
                assert!(s.role_of(&s.ttp).is_none(), "seed {seed}: byzantine ttp");
                // The defector is the *server* of a fair-offline run.
                let item = guarantee_item(&s, org).expect("guarantee item");
                assert_eq!(item.variant, Variant::FairOffline, "seed {seed}");
                assert_eq!(&item.server, org, "seed {seed}");
                assert!(s.role_of(&item.client).is_none(), "seed {seed}");
            }
        }
        assert!(reachable, "no defecting server in 400 seeds");
    }

    #[test]
    fn hierarchical_orgs_are_always_honest_and_every_combination_is_reachable() {
        for seed in 0..200u64 {
            let s = Scenario::from_seed(seed);
            if let Some(h) = &s.hierarchical {
                assert!(s.role_of(h).is_none(), "seed {seed}: {h} byzantine");
                assert_ne!(Some(h), s.exhausted.as_ref(), "seed {seed}");
                assert!(s.regular.contains(h), "seed {seed}");
            }
        }
        assert!((0..200u64).any(|x| Scenario::from_seed(x).hierarchical.is_some()));
        assert!((0..200u64).any(|x| Scenario::from_seed(x).hierarchical.is_none()));
        // The crash-at-rollover-boundary composition: the hierarchical
        // choice lands on o0 while o0 also carries the crash overlay.
        assert!((0..200u64).any(|x| {
            let s = Scenario::from_seed(x);
            s.hierarchical.as_ref() == Some(&s.regular[0])
                && s.items.iter().any(|i| {
                    matches!(&i.adversity, Some(Adversity::CrashRecover(o)) if *o == s.regular[0])
                })
        }));
        // The forged-rollover role is reachable in the seeded family.
        assert!((0..200u64).any(|x| {
            Scenario::from_seed(x)
                .byzantine
                .iter()
                .any(|(_, r)| *r == Role::ForgedRollover)
        }));
    }
}
