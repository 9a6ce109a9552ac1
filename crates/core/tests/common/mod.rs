//! Fixtures shared by the core integration tests.

use std::sync::Arc;

use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
use nonrep_protocols::CommitmentMode;
use nonrep_store::MemoryLog;
use nonrep_types::ids::OrgId;
use nonrep_types::time::LogicalClock;

/// A party on a fresh MSS key (height 8, seeded) and a memory log,
/// registered in `directory`, committing evidence in batches (the auto
/// seal policy with a 50 ms deadline on `clock`).
pub fn batched_party(
    org: &str,
    seed: u64,
    clock: &LogicalClock,
    directory: &Arc<StaticKeyDirectory>,
) -> Arc<Party> {
    let mut rng = SecureRandom::from_seed(seed);
    let keys = Arc::new(KeyPair::generate(
        SignatureScheme::Mss { height: 8 },
        &mut rng,
    ));
    directory.insert(OrgId::new(org), keys.verifying_key());
    Party::with_commitment(
        org,
        keys,
        Arc::new(clock.clone()),
        Arc::new(MemoryLog::new()),
        Arc::clone(directory) as Arc<dyn KeyDirectory>,
        rng,
        CommitmentMode::auto(50),
    )
}
