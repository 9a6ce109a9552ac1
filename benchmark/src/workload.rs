//! The four workloads, their seeded op streams, and the closed-loop
//! client that executes an op and checks what came back.

use std::time::Instant;

use nonrep_container::{ClientProxy, Invocation};
use nonrep_core::TrustDomain;
use nonrep_crypto::digest::{sha256, Digest};
use nonrep_types::codec::Encode;
use nonrep_types::ids::RunId;
use nonrep_types::value::Value;

use crate::stack::{Config, Role, World, METHOD, SERVICE};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    DirectHss,
    MixArbitrated,
    DirectWritethrough,
    DisputeAudit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DirectHss,
        Workload::MixArbitrated,
        Workload::DirectWritethrough,
        Workload::DisputeAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DirectHss => "direct_hss",
            Workload::MixArbitrated => "mix_arbitrated",
            Workload::DirectWritethrough => "direct_writethrough",
            Workload::DisputeAudit => "dispute_audit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn config(self) -> Config {
        match self {
            Workload::DirectHss | Workload::DisputeAudit => Config::HssDurable,
            Workload::MixArbitrated => Config::ArbDurable,
            Workload::DirectWritethrough => Config::ArbWritethrough,
        }
    }

    /// The invocations this workload issues. For `dispute_audit` they are
    /// the runs its set-up generates and its measured part disputes.
    pub fn mix(self) -> Mix {
        match self {
            Workload::DirectHss | Workload::DirectWritethrough => Mix::Direct,
            Workload::MixArbitrated => Mix::All,
            Workload::DisputeAudit => Mix::DirectAndFair,
        }
    }

    /// The organisations an untraced run builds.
    pub fn roles(self) -> &'static [Role] {
        match self {
            Workload::DirectHss | Workload::DirectWritethrough => &[Role::Client, Role::Server],
            Workload::MixArbitrated => &Role::ALL,
            Workload::DisputeAudit => &[Role::Client, Role::Server, Role::OfflineTtp],
        }
    }

    /// Set-up ops that let caches fill, the batch tuner settle and the
    /// first key subtree roll before timing starts.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::DirectHss => 300,
            Workload::MixArbitrated => 3000,
            Workload::DirectWritethrough => 150,
            Workload::DisputeAudit => 0,
        }
    }

    /// Measured ops per second of `--seconds` after which peak RSS is
    /// read. The logs keep every record resident, so RSS grows with the
    /// ops done; reading it at a fixed op count (about 40 % of what the
    /// reference host completes) keeps it comparable between a commit
    /// and a faster one. A run lasts until both this count and
    /// `--seconds` are reached.
    pub fn rss_mark_ops_per_second(self) -> f64 {
        match self {
            Workload::DirectHss => 600.0,
            Workload::MixArbitrated => 3000.0,
            Workload::DirectWritethrough => 250.0,
            Workload::DisputeAudit => 40.0,
        }
    }
}

/// Runs `dispute_audit` generates per set-up: 2000 direct, 400 fair.
pub const GENERATED_RUNS: u64 = 2400;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Direct invocations, 1 KiB.
    Direct,
    /// 40 % direct, 15 % each of voluntary, inline-TTP, fair-offline and
    /// sharing; payloads 60/30/10 from 64 B, 1 KiB, 16 KiB.
    All,
    /// Five direct to one fair-offline, 1 KiB.
    DirectAndFair,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum OpKind {
    Direct,
    Voluntary,
    InlineTtp,
    FairOffline,
    Sharing,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Direct,
        OpKind::Voluntary,
        OpKind::InlineTtp,
        OpKind::FairOffline,
        OpKind::Sharing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Direct => "direct",
            OpKind::Voluntary => "voluntary",
            OpKind::InlineTtp => "inline_ttp",
            OpKind::FairOffline => "fair_offline",
            OpKind::Sharing => "sharing",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub kind: OpKind,
    /// Payload bytes.
    pub size: usize,
    pub client: u32,
    /// Position in this client's stream.
    pub index: u64,
}

/// SplitMix64: small, seedable, and owned by the harness so the op
/// stream cannot shift when the stack's own RNG changes.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bias below 2^-32 for the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// One client's endless, seeded op sequence.
#[derive(Clone)]
pub struct OpStream {
    rng: SplitMix64,
    mix: Mix,
    client: u32,
    next: u64,
}

impl OpStream {
    pub fn new(seed: u64, mix: Mix, client: u32) -> Self {
        let mut seeder =
            SplitMix64::new(seed ^ (u64::from(client) + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        Self {
            rng: SplitMix64::new(seeder.next_u64()),
            mix,
            client,
            next: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let index = self.next;
        self.next += 1;
        let (kind, size) = match self.mix {
            Mix::Direct => (OpKind::Direct, 1024),
            Mix::DirectAndFair => {
                let kind = if index % 6 == 5 {
                    OpKind::FairOffline
                } else {
                    OpKind::Direct
                };
                (kind, 1024)
            }
            Mix::All => {
                let kind = match self.rng.below(100) {
                    0..=39 => OpKind::Direct,
                    40..=54 => OpKind::Voluntary,
                    55..=69 => OpKind::InlineTtp,
                    70..=84 => OpKind::FairOffline,
                    _ => OpKind::Sharing,
                };
                let size = match self.rng.below(10) {
                    0..=5 => 64,
                    6..=8 => 1024,
                    _ => 16 * 1024,
                };
                (kind, size)
            }
        };
        Some(Op {
            kind,
            size,
            client: self.client,
            index,
        })
    }
}

/// Shared objects are retired after this many updates: a replica's
/// version history is copied on every proposal, so an ever-growing one
/// would make sharing ops slow down over a run.
const UPDATES_PER_OBJECT: u64 = 64;

/// The argument of `op` under `seed`: its coordinates (so no two requests
/// of a run share a digest) and `op.size` bytes of payload.
pub fn op_args(seed: u64, op: &Op) -> Value {
    static FILLER: [u8; 16 * 1024] = [b'x'; 16 * 1024];
    let payload = std::str::from_utf8(&FILLER[..op.size]).expect("ASCII filler");
    Value::map([
        ("seed", Value::from(seed)),
        ("client", Value::from(u64::from(op.client))),
        ("index", Value::from(op.index)),
        ("payload", Value::from(payload)),
    ])
}

/// The digest the client's `NRO_req` token carries for `op`: that of the
/// serialised invocation. It is how a later dispute finds the op's run.
pub fn request_digest(seed: u64, op: &Op) -> Digest {
    let inv = Invocation::new(Role::Client.org(), SERVICE, METHOD, op_args(seed, op));
    sha256(&inv.encode_to_vec())
}

/// A closed-loop client: one thread's proxies into a [`World`].
pub struct Client<'w> {
    world: &'w World,
    seed: u64,
    proxies: Vec<(OpKind, ClientProxy)>,
}

impl<'w> Client<'w> {
    pub fn new(world: &'w World, seed: u64) -> Self {
        let client = &world.org(Role::Client).mw;
        let server = Role::Server.org();
        let mut domains = vec![
            (OpKind::Direct, TrustDomain::Direct),
            (OpKind::Voluntary, TrustDomain::Voluntary),
        ];
        if world.has(Role::InlineTtp) {
            domains.push((
                OpKind::InlineTtp,
                TrustDomain::InlineTtp {
                    first_hop: Role::InlineTtp.org(),
                },
            ));
        }
        if world.has(Role::OfflineTtp) {
            domains.push((
                OpKind::FairOffline,
                TrustDomain::FairOffline {
                    ttp: Role::OfflineTtp.org(),
                },
            ));
        }
        let proxies = domains
            .into_iter()
            .map(|(kind, domain)| (kind, client.nr_proxy_in(domain, &server, SERVICE)))
            .collect();
        Self {
            world,
            seed,
            proxies,
        }
    }

    fn sharing_state(&self, op: &Op) -> Vec<u8> {
        let mut state = Vec::with_capacity(op.size.max(24));
        state.extend_from_slice(&self.seed.to_le_bytes());
        state.extend_from_slice(&u64::from(op.client).to_le_bytes());
        state.extend_from_slice(&op.index.to_le_bytes());
        state.resize(op.size.max(24), b'x');
        state
    }

    /// Executes `op`, timing the call into the stack alone, and checks
    /// its output. Sharing ops return their run id; an invocation's run is
    /// found later through [`Client::request_digest`].
    ///
    /// # Errors
    ///
    /// The reason the op counts as failed: the stack returned an error,
    /// the echo differed from the input, or the group vetoed the update.
    pub fn execute(&self, op: &Op) -> (u64, Result<Option<RunId>, String>) {
        if op.kind == OpKind::Sharing {
            let object = format!("obj-{}-{}", op.client, op.index / UPDATES_PER_OBJECT);
            let state = self.sharing_state(op);
            let client = &self.world.org(Role::Client).mw;
            let t0 = Instant::now();
            let outcome = client.propose_update(&self.world.group, &object, state);
            let ns = t0.elapsed().as_nanos() as u64;
            let result = match outcome {
                Ok(o) if o.accepted => Ok(Some(o.run_id)),
                Ok(_) => Err(format!("{op:?}: update vetoed")),
                Err(e) => Err(format!("{op:?}: {e}")),
            };
            return (ns, result);
        }
        let Some((_, proxy)) = self.proxies.iter().find(|(kind, _)| *kind == op.kind) else {
            return (0, Err(format!("{op:?}: world has no organisation for it")));
        };
        let args = op_args(self.seed, op);
        let sent = args.clone();
        let t0 = Instant::now();
        let out = proxy.invoke(METHOD, sent);
        let ns = t0.elapsed().as_nanos() as u64;
        let result = match out {
            Ok(echo) if echo == args => Ok(None),
            Ok(_) => Err(format!("{op:?}: echo differs from input")),
            Err(e) => Err(format!("{op:?}: {e}")),
        };
        (ns, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_an_identical_op_sequence() {
        let a: Vec<Op> = OpStream::new(7, Mix::All, 0).take(5000).collect();
        let b: Vec<Op> = OpStream::new(7, Mix::All, 0).take(5000).collect();
        assert_eq!(a, b);
        // Another seed, or another client of the same seed, differs.
        let c: Vec<Op> = OpStream::new(8, Mix::All, 0).take(5000).collect();
        let d: Vec<Op> = OpStream::new(7, Mix::All, 1).take(5000).collect();
        assert_ne!(a, c);
        assert_ne!(
            a.iter().map(|o| o.kind).collect::<Vec<_>>(),
            d.iter().map(|o| o.kind).collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_mix_has_its_stated_shares() {
        let ops: Vec<Op> = OpStream::new(3, Mix::All, 0).take(100_000).collect();
        let share = |k: OpKind| ops.iter().filter(|o| o.kind == k).count() as f64 / 1e5;
        assert!((share(OpKind::Direct) - 0.40).abs() < 0.01);
        for k in [
            OpKind::Voluntary,
            OpKind::InlineTtp,
            OpKind::FairOffline,
            OpKind::Sharing,
        ] {
            assert!((share(k) - 0.15).abs() < 0.01, "{k:?}");
        }
        let size = |s: usize| ops.iter().filter(|o| o.size == s).count() as f64 / 1e5;
        assert!((size(64) - 0.6).abs() < 0.01);
        assert!((size(1024) - 0.3).abs() < 0.01);
        assert!((size(16 * 1024) - 0.1).abs() < 0.01);
    }

    #[test]
    fn generation_is_five_direct_to_one_fair() {
        let ops: Vec<Op> = OpStream::new(1, Mix::DirectAndFair, 0).take(600).collect();
        assert_eq!(
            ops.iter().filter(|o| o.kind == OpKind::FairOffline).count(),
            100
        );
        assert!(ops.iter().all(|o| o.size == 1024));
    }
}
