//! The sharded commitment plane.
//!
//! A single [`CommitmentScheduler`] serializes every append and every
//! seal of an organisation on one mutex — under tens of concurrent
//! appenders the lock convoy, not the disk, bounds throughput.
//! [`ShardedCommitmentPlane`] runs **one scheduler per shard** of a
//! [`ShardedEvidenceLog`]: appends route by [`RunId`] hash
//! ([`nonrep_store::shard_index`]), so sealing shard *i* (hashing its
//! pending range, signing its root) never blocks appends on shard *j*,
//! and two runs on different shards never contend at all. All shards
//! share the organisation's one [`KeyPair`] — evidence from every shard
//! verifies under the same key the directory resolves — and, under
//! `SyncPolicy::GroupCommit`, one
//! [`GroupCommitPool`](nonrep_store::GroupCommitPool), so concurrent
//! shards' epoch frames still coalesce into few device barriers.
//!
//! # Super-epochs
//!
//! Sharding must not lose the single global anchor that windowed
//! adjudication and anchor gossip rest on. [`ShardedCommitmentPlane::super_seal`]
//! restores it: it collects each shard's latest sealed
//! [`EpochCommitment`] into [`ShardAnchor`]s, seals them under one
//! signed merkle-of-merkles ([`SuperEpochCommitment`]), and appends the
//! result to the plane's meta shard. A super-epoch whose anchor set is
//! unchanged since the last one is skipped — idle shards cost no
//! signatures. Counterparties gossip and adjudicators verify
//! super-epochs exactly like a single log's epoch anchors (see
//! [`crate::gossip`] and `nonrep_core::Adjudicator`).

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use nonrep_crypto::sig::KeyPair;
use nonrep_store::record::EpochCommitment;
use nonrep_store::{
    latest_epoch, EvidenceLog, EvidenceRecord, RecordDraft, ShardAnchor, ShardedEvidenceLog,
    StoreError, SuperEpochCommitment,
};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::Clock;

use crate::scheduler::{CommitmentMode, CommitmentScheduler, TokenSpec};
use crate::tokens::NrToken;
use crate::ProtocolError;

/// Per-shard commitment scheduling over a [`ShardedEvidenceLog`], plus
/// the super-epoch meta anchor. See the [module docs](self).
pub struct ShardedCommitmentPlane {
    log: Arc<ShardedEvidenceLog>,
    /// One scheduler per data shard, index-aligned with the log's shards.
    schedulers: Vec<Arc<CommitmentScheduler>>,
    keys: Arc<KeyPair>,
    actor: OrgId,
    clock: Arc<dyn Clock>,
    /// The anchor set sealed by the last super-epoch, so an unchanged
    /// plane never spends a signature on a redundant super-seal. Resumes
    /// from the meta shard's newest super-epoch on (re)open.
    last_super: Mutex<Vec<ShardAnchor>>,
}

impl fmt::Debug for ShardedCommitmentPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedCommitmentPlane({}, {} shards)",
            self.actor,
            self.schedulers.len()
        )
    }
}

impl ShardedCommitmentPlane {
    /// Builds the plane: one [`CommitmentScheduler`] per data shard, all
    /// sharing `keys` and `mode`. Each scheduler resumes its seal
    /// watermark from its own shard (a recovered shard's orphaned tail is
    /// pending again and re-seals on the first trigger), and the
    /// super-seal guard resumes from the meta shard's newest super-epoch.
    pub fn new(
        log: Arc<ShardedEvidenceLog>,
        keys: Arc<KeyPair>,
        actor: OrgId,
        clock: Arc<dyn Clock>,
        mode: CommitmentMode,
    ) -> Self {
        let schedulers = log
            .shards()
            .iter()
            .map(|shard| {
                Arc::new(CommitmentScheduler::new(
                    Arc::clone(&keys),
                    Arc::clone(shard) as Arc<dyn EvidenceLog>,
                    actor.clone(),
                    Arc::clone(&clock),
                    mode,
                ))
            })
            .collect();
        // A stale super-epoch (one that vouches for records a crash took)
        // still counts as "last sealed": its anchors cannot re-arise from
        // the recovered shards, so the first real seal supersedes it.
        let last_super = log
            .latest_super_epoch()
            .map(|(_, commit)| commit.entries)
            .unwrap_or_default();
        Self {
            log,
            schedulers,
            keys,
            actor,
            clock,
            last_super: Mutex::new(last_super),
        }
    }

    /// The sharded log underneath.
    pub fn log(&self) -> &Arc<ShardedEvidenceLog> {
        &self.log
    }

    /// Number of data shards (the meta shard not included).
    pub fn shard_count(&self) -> u32 {
        self.log.shard_count()
    }

    /// The per-shard schedulers, index-aligned with the log's shards.
    /// Hand these to a [`crate::scheduler::DeadlineSealer`] so idle
    /// shards still seal on time.
    pub fn schedulers(&self) -> &[Arc<CommitmentScheduler>] {
        &self.schedulers
    }

    /// Which shard `run`'s evidence lands on.
    pub fn shard_for(&self, run: &RunId) -> u32 {
        self.log.shard_for(run)
    }

    /// The scheduler owning `run`'s shard.
    pub fn scheduler_for(&self, run: &RunId) -> &Arc<CommitmentScheduler> {
        &self.schedulers[self.shard_for(run) as usize]
    }

    /// The commitment mode in force (uniform across shards: the plane is
    /// constructed with one mode, and a scheduler's mode never changes).
    pub fn mode(&self) -> CommitmentMode {
        self.schedulers[0].mode()
    }

    /// Appends an evidence record on its run's shard (sealing that shard
    /// automatically per its scheduler's policy — other shards are never
    /// touched, let alone locked).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if persisting the record fails.
    pub fn record(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
        self.scheduler_for(&draft.run_id).record(draft)
    }

    /// Issues signed tokens for `specs`, routed through the scheduler of
    /// the first spec's run (issuance only uses the shared keys and
    /// clock; the route just keeps key batching decisions per shard).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Signing`] if the key is exhausted.
    pub fn issue(&self, specs: &[TokenSpec]) -> Result<Vec<NrToken>, ProtocolError> {
        match specs.first() {
            Some(first) => self.scheduler_for(&first.run_id).issue(specs),
            None => Ok(Vec::new()),
        }
    }

    /// Run-completion hook: forwards [`CommitmentScheduler::end_of_run`]
    /// to the one shard `run`'s records live on — other runs' epochs on
    /// other shards are not cut short, and no signature is spent there.
    ///
    /// # Errors
    ///
    /// None currently (mirrors the scheduler's contract).
    pub fn end_of_run(&self, run: &RunId) -> Result<(), StoreError> {
        self.scheduler_for(run).end_of_run()
    }

    /// Explicitly seals every shard's pending range. All shards are
    /// attempted even when one fails; the first error is returned after
    /// the sweep (a broken shard must not leave the others unsealed).
    ///
    /// # Errors
    ///
    /// The first per-shard [`StoreError`], after attempting all shards.
    pub fn seal_all(&self) -> Result<(), StoreError> {
        let mut first_err = None;
        for scheduler in &self.schedulers {
            if let Err(e) = scheduler.seal() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Cuts a super-epoch: collects each shard's latest sealed epoch as a
    /// [`ShardAnchor`], seals the set under one signature, and appends
    /// the [`SuperEpochCommitment`] to the meta shard. Returns `None` —
    /// and spends nothing — when no shard has sealed yet or when the
    /// anchor set is unchanged since the last super-epoch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if signing fails (key exhausted),
    /// [`StoreError`] if the meta append fails.
    pub fn super_seal(&self) -> Result<Option<Arc<EvidenceRecord>>, StoreError> {
        let anchors: Vec<ShardAnchor> = self
            .log
            .shards()
            .iter()
            .enumerate()
            .filter_map(|(i, shard)| {
                latest_epoch(shard).map(|(_, commit): (u64, EpochCommitment)| ShardAnchor {
                    shard: i as u32,
                    lo: commit.lo,
                    hi: commit.hi,
                    root: commit.root,
                })
            })
            .collect();
        if anchors.is_empty() {
            return Ok(None);
        }
        let mut last = self.last_super.lock();
        if *last == anchors {
            return Ok(None);
        }
        let root = SuperEpochCommitment::root_over_entries(&anchors);
        let digest = SuperEpochCommitment::signing_digest(anchors.len() as u32, &root);
        let signature = self
            .keys
            .sign_batch(std::slice::from_ref(&digest))
            .map_err(|e| StoreError::Unavailable(format!("super-epoch seal failed: {e}")))?
            .pop()
            .expect("one digest yields one signature");
        let commitment = SuperEpochCommitment {
            entries: anchors.clone(),
            root,
            signature,
        };
        let record = self
            .log
            .meta()
            .append(commitment.to_draft(self.actor.clone(), self.clock.now()))?;
        *last = anchors;
        Ok(Some(record))
    }

    /// Seals every shard, cuts a super-epoch over the result, and waits
    /// out the shared durability barrier: when this returns `Ok`, every
    /// shard's evidence *and* the covering super-epoch are on stable
    /// storage. Under group commit the per-shard epoch frames and the
    /// meta frame coalesce into (typically) one device barrier.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if a seal, the super-seal, or the barrier fails.
    pub fn flush_durable(&self) -> Result<(), StoreError> {
        self.seal_all()?;
        self.super_seal()?;
        self.log.flush_all()
    }

    /// Total records not yet covered by an epoch commitment, across all
    /// shards (monitoring; see [`CommitmentScheduler::unsealed_len`]).
    pub fn unsealed_len(&self) -> u64 {
        self.schedulers.iter().map(|s| s.unsealed_len()).sum()
    }

    /// `true` if any shard's scheduler is in the degraded-seal state.
    pub fn is_degraded(&self) -> bool {
        self.schedulers.iter().any(|s| s.is_degraded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_crypto::digest::sha256;
    use nonrep_crypto::rng::SecureRandom;
    use nonrep_crypto::sig::SignatureScheme;
    use nonrep_store::SyncPolicy;
    use nonrep_types::time::{LogicalClock, Timestamp};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nonrep-plane-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn keys(seed: u64) -> Arc<KeyPair> {
        Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 8 },
            &mut SecureRandom::from_seed(seed),
        ))
    }

    fn plane(dir: &std::path::Path, shards: u32, keys: &Arc<KeyPair>) -> ShardedCommitmentPlane {
        let log = Arc::new(ShardedEvidenceLog::open(dir, shards, SyncPolicy::GroupCommit).unwrap());
        ShardedCommitmentPlane::new(
            log,
            Arc::clone(keys),
            OrgId::new("org"),
            Arc::new(LogicalClock::new()),
            CommitmentMode::batched(4),
        )
    }

    fn draft(run: RunId, n: u64) -> RecordDraft {
        RecordDraft {
            run_id: run,
            kind: "NRO_req".into(),
            actor: OrgId::new("org"),
            at: Timestamp(n),
            content_digest: sha256(&n.to_le_bytes()),
            payload: vec![n as u8; 16],
        }
    }

    /// A run id landing on `shard` of a `shards`-wide plane.
    fn run_for_shard(shard: u32, shards: u32) -> RunId {
        (0u128..)
            .map(RunId::from_u128)
            .find(|r| nonrep_store::shard_index(r, shards) == shard)
            .unwrap()
    }

    #[test]
    fn records_route_and_shards_seal_independently() {
        let dir = temp_dir("route");
        let keys = keys(1);
        let p = plane(&dir, 4, &keys);
        let run0 = run_for_shard(0, 4);
        let run3 = run_for_shard(3, 4);
        // Fill shard 0's batch; shard 3 stays one short of sealing.
        for i in 0..4 {
            p.record(draft(run0, i)).unwrap();
        }
        for i in 0..3 {
            p.record(draft(run3, 10 + i)).unwrap();
        }
        let log = p.log();
        assert_eq!(log.shard(0).count_where(&|r| r.is_epoch_commit()), 1);
        assert_eq!(log.shard(3).count_where(&|r| r.is_epoch_commit()), 0);
        assert_eq!(log.shard(1).len(), 0);
        assert_eq!(p.unsealed_len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_end_seals_only_the_finished_runs_shard() {
        // Two open runs on different shards under a seal-on-run-end
        // policy: ending run A seals A's shard and leaves B's epoch open
        // — no signature spent there, no epoch chopped short.
        let dir = temp_dir("run-end");
        let keys = keys(6);
        let p = plane(&dir, 4, &keys);
        let run_a = run_for_shard(0, 4);
        let run_b = run_for_shard(3, 4);
        p.record(draft(run_a, 0)).unwrap();
        p.record(draft(run_b, 1)).unwrap();
        let leaves = keys.remaining().unwrap();
        p.end_of_run(&run_a).unwrap();
        let log = p.log();
        assert_eq!(log.shard(0).count_where(&|r| r.is_epoch_commit()), 1);
        assert_eq!(log.shard(3).len(), 1, "no epoch record on B's shard");
        assert_eq!(keys.remaining().unwrap(), leaves - 1, "one signature");
        assert_eq!(p.unsealed_len(), 1);
        p.end_of_run(&run_b).unwrap();
        assert_eq!(log.shard(3).count_where(&|r| r.is_epoch_commit()), 1);
        assert_eq!(p.unsealed_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn super_seal_anchors_all_sealed_shards_and_skips_when_unchanged() {
        let dir = temp_dir("super");
        let keys = keys(2);
        let p = plane(&dir, 4, &keys);
        for shard in [0u32, 2] {
            let run = run_for_shard(shard, 4);
            for i in 0..4 {
                p.record(draft(run, u64::from(shard) * 100 + i)).unwrap();
            }
        }
        let record = p.super_seal().unwrap().expect("two shards sealed");
        let commit = SuperEpochCommitment::from_record(&record).unwrap();
        assert_eq!(
            commit.entries.iter().map(|a| a.shard).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(commit.verify(&keys.verifying_key()));
        // Unchanged anchors: no new super-epoch, no signature spent.
        assert!(p.super_seal().unwrap().is_none());
        // A new epoch on shard 2 moves its anchor; the next super-seal
        // covers the new state.
        let run = run_for_shard(2, 4);
        for i in 0..4 {
            p.record(draft(run, 300 + i)).unwrap();
        }
        let record = p.super_seal().unwrap().expect("anchor set changed");
        let commit = SuperEpochCommitment::from_record(&record).unwrap();
        assert_eq!(commit.entries.len(), 2);
        assert_eq!(commit.anchor_for(2).unwrap().hi, 8);
        assert_eq!(p.log().meta().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn super_seal_with_nothing_sealed_is_a_noop() {
        let dir = temp_dir("noop");
        let keys = keys(3);
        let p = plane(&dir, 2, &keys);
        assert!(p.super_seal().unwrap().is_none());
        p.record(draft(run_for_shard(0, 2), 0)).unwrap();
        // One pending record, no epoch sealed yet: still nothing to anchor.
        assert!(p.super_seal().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_durable_lands_everything_and_reopen_resumes_super_guard() {
        let dir = temp_dir("flush");
        let keys = keys(4);
        {
            let p = plane(&dir, 2, &keys);
            for shard in 0..2 {
                let run = run_for_shard(shard, 2);
                for i in 0..3 {
                    p.record(draft(run, u64::from(shard) * 10 + i)).unwrap();
                }
            }
            // Batch size 4: nothing sealed yet; flush_durable seals the
            // tails, cuts the super-epoch, and waits the barrier out.
            p.flush_durable().unwrap();
            assert_eq!(p.unsealed_len(), 0);
            assert_eq!(p.log().meta().len(), 1);
        }
        // Reopen: the rebuilt plane resumes the super-seal guard from the
        // meta shard, so an unchanged plane does not re-anchor.
        let p = plane(&dir, 2, &keys);
        assert!(p.log().recovery().is_clean());
        assert!(p.super_seal().unwrap().is_none());
        // New evidence does move the anchor set again.
        let run = run_for_shard(1, 2);
        p.record(draft(run, 99)).unwrap();
        p.flush_durable().unwrap();
        assert_eq!(p.log().meta().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_shard_tail_reseals_and_next_super_epoch_supersedes() {
        // The protocols-layer half of the torn-shard story: after
        // recovery flags a stale super-epoch, the plane's schedulers
        // re-seal the orphaned tail and the next super-seal anchors the
        // re-sealed state.
        let dir = temp_dir("reseal");
        let keys = keys(5);
        let sealed_len;
        {
            let p = plane(&dir, 2, &keys);
            let run = run_for_shard(1, 2);
            for i in 0..4 {
                p.record(draft(run, i)).unwrap();
            }
            p.flush_durable().unwrap();
            sealed_len = p.log().shard(1).total_bytes();
            for i in 4..8 {
                p.record(draft(run, i)).unwrap();
            }
            p.flush_durable().unwrap();
        }
        // Tear shard 1 mid-way through the second batch.
        let shard_file = dir.join("shard-001.log");
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&shard_file)
            .unwrap();
        f.set_len(sealed_len + 10).unwrap();
        drop(f);
        let log =
            Arc::new(ShardedEvidenceLog::open_recover(&dir, 2, SyncPolicy::GroupCommit).unwrap());
        assert_eq!(log.recovery().stale_super_epochs.len(), 1);
        let p = ShardedCommitmentPlane::new(
            log,
            Arc::clone(&keys),
            OrgId::new("org"),
            Arc::new(LogicalClock::new()),
            CommitmentMode::batched(4),
        );
        // The schedulers resumed from the surviving epoch; nothing is
        // pending yet (the torn tail was dropped entirely), so new
        // evidence re-covers the lost range's sequence space.
        let run = run_for_shard(1, 2);
        for i in 0..4 {
            p.record(draft(run, 100 + i)).unwrap();
        }
        p.flush_durable().unwrap();
        let (_, newest) = p.log().latest_super_epoch().unwrap();
        let anchor = newest.anchor_for(1).unwrap();
        assert!(newest.verify(&keys.verifying_key()));
        // The re-sealed anchor stops at the recovered shard's real tail.
        assert_eq!(anchor.hi, p.log().shard(1).len() - 2);
        p.log().verify_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
