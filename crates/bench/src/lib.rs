//! Shared fixtures for the experiment benchmarks.
//!
//! Every bench builds "worlds" through these helpers so that setup is
//! uniform: organisations use the **arbitrated** signature scheme by
//! default (unbounded signing capacity — protocol benches run thousands of
//! exchanges; the *crypto cost* of the hash-based scheme is measured
//! separately and precisely in `e6_crypto`).

use std::collections::BTreeSet;
use std::sync::Arc;

use nonrep_container::component::FnComponent;
use nonrep_container::descriptor::{DeploymentDescriptor, NrConfig};
use nonrep_core::{OrgMiddleware, TrustDomain};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, Signature, SignatureScheme, VerifyingKey};
use nonrep_net::bus::LocalBus;
use nonrep_net::fault::FaultPlan;
use nonrep_net::latency::LatencyModel;
use nonrep_protocols::party::StaticKeyDirectory;
use nonrep_types::ids::{GroupId, MethodName, OrgId};
use nonrep_types::time::LogicalClock;
use nonrep_types::value::Value;

/// A bench world: shared bus plus per-organisation middleware.
pub struct World {
    /// The shared bus.
    pub bus: Arc<LocalBus>,
    /// Shared key directory.
    pub dir: Arc<StaticKeyDirectory>,
    /// Shared clock.
    pub clock: LogicalClock,
}

impl World {
    /// Creates a fault-free, zero-latency world.
    pub fn new() -> Self {
        Self::with_bus(LocalBus::new())
    }

    /// Creates a world over a configured bus.
    pub fn with_bus(bus: Arc<LocalBus>) -> Self {
        let clock = bus.clock();
        Self {
            bus,
            dir: Arc::new(StaticKeyDirectory::new()),
            clock,
        }
    }

    /// Spawns an organisation with the arbitrated (unbounded) scheme.
    pub fn org(&self, name: &str) -> Arc<OrgMiddleware> {
        self.org_in(name, TrustDomain::Direct)
    }

    /// Spawns an organisation with an explicit default trust domain.
    pub fn org_in(&self, name: &str, domain: TrustDomain) -> Arc<OrgMiddleware> {
        let mut builder =
            OrgMiddleware::builder(name, self.bus.clone(), self.dir.clone(), self.clock.clone())
                .scheme(SignatureScheme::Arbitrated)
                .domain(domain.clone());
        if let TrustDomain::FairOffline { ttp } = &domain {
            builder = builder.offline_ttp(ttp.clone());
        }
        builder.build()
    }
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

/// Deploys the standard echo service (`urn:svc` / `work`) on `mw`.
pub fn deploy_echo(mw: &OrgMiddleware) {
    mw.deploy(
        DeploymentDescriptor::new("urn:svc", [MethodName::new("work")])
            .with_non_repudiation(NrConfig::protocol("direct")),
        Arc::new(FnComponent::new().method("work", |args| Ok(args.clone()))),
    )
    .expect("deploy echo");
}

/// A payload of roughly `bytes` bytes.
pub fn payload(bytes: usize) -> Value {
    Value::map([("payload", Value::from("x".repeat(bytes)))])
}

/// Installs a sharing group of `names` on each middleware.
pub fn install_group(members: &[(&str, &Arc<OrgMiddleware>)], group: &GroupId) {
    let set: BTreeSet<OrgId> = members.iter().map(|(n, _)| OrgId::new(*n)).collect();
    for (_, mw) in members {
        mw.install_group(group.clone(), set.clone());
    }
}

/// Builds a lossy bus: `p` drop probability, bounded at `bound` consecutive
/// drops per link.
pub fn lossy_bus(p: f64, bound: u32, seed: u64) -> Arc<LocalBus> {
    LocalBus::with_config(FaultPlan::lossy(p, bound, seed), LatencyModel::Zero, seed)
}

/// An endless supply of signatures nobody has verified yet, so a bench
/// row that times `verify` keeps measuring a first sight — a W-OTS
/// recovery — rather than a hit in `nonrep_crypto::mss`'s verification
/// memo (which any loop over *one* signature would measure). Keys are
/// replaced as they run out; call it from the untimed setup phase.
pub struct FreshSignatures {
    scheme: SignatureScheme,
    seed: u64,
    keys: KeyPair,
}

impl FreshSignatures {
    /// A supply under keys of `scheme`, seeded from `seed` upward.
    pub fn new(scheme: SignatureScheme, seed: u64) -> Self {
        let keys = KeyPair::generate(scheme, &mut SecureRandom::from_seed(seed));
        Self { scheme, seed, keys }
    }

    /// Signs `message` with a leaf never used before.
    pub fn sign(&mut self, message: &[u8]) -> (VerifyingKey, Signature) {
        if self.keys.remaining() == Some(0) {
            *self = Self::new(self.scheme, self.seed + 1);
        }
        let sig = self.keys.sign(message).expect("key has leaves left");
        (self.keys.verifying_key(), sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_signatures_outlive_their_keys() {
        let mut fresh = FreshSignatures::new(SignatureScheme::Mss { height: 1 }, 7);
        let mut seen = Vec::new();
        for _ in 0..5 {
            let (vk, sig) = fresh.sign(b"m");
            assert!(vk.verify(b"m", &sig));
            assert!(!seen.contains(&sig));
            seen.push(sig);
        }
    }

    #[test]
    fn world_helpers_work() {
        let w = World::new();
        let a = w.org("a");
        let b = w.org("b");
        deploy_echo(&b);
        let out = a
            .nr_proxy(b.org(), "urn:svc")
            .invoke("work", payload(16))
            .unwrap();
        assert!(out.get("payload").is_some());
        let group = GroupId::new("g");
        install_group(&[("a", &a), ("b", &b)], &group);
        assert!(
            a.propose_update(&group, "o", b"s".to_vec())
                .unwrap()
                .accepted
        );
    }
}
