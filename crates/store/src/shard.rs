//! The sharded evidence plane: per-run log partitioning with a shared
//! group-commit pool and a super-epoch meta shard.
//!
//! One org's evidence stream used to be a single totally-ordered
//! [`FileLog`] — every append from every run serialized on one mutex,
//! one hash chain, one sync thread. A [`ShardedEvidenceLog`] partitions
//! records across N `FileLog` shards by [`RunId`] hash
//! ([`shard_index`]): each shard keeps its own dense sequence space,
//! chain head, and seal watermark, so appends (and epoch seals) from
//! unrelated runs never contend. All shards — plus a designated **meta
//! shard** — attach to one shared
//! [`GroupCommitPool`], so concurrent shards'
//! epoch frames still coalesce into few device barriers.
//!
//! What sharding must *not* lose is the single global anchor: the meta
//! shard periodically receives a
//! [`SuperEpochCommitment`] — a
//! merkle-of-merkles over every shard's latest epoch root under one
//! signature — which adjudication and anchor gossip consume exactly like
//! a single log's `EpochCommitment`s.
//!
//! # Recovery
//!
//! [`ShardedEvidenceLog::open_recover`] recovers each shard (and the
//! meta shard) independently, dropping torn tails as
//! [`FileLog::open_recover`] does. It then cross-checks the surviving
//! super-epochs against the recovered shard lengths: an anchor whose
//! range extends past its shard's recovered tail means the shard lost
//! records a super-epoch still vouches for. Such **stale** super-epochs
//! are flagged in the [`ShardedRecovery`] report — the orphaned shard
//! tail re-seals on the next epoch (the shard scheduler's watermark
//! resume), and the next super-epoch anchors the re-sealed state; the
//! stale one remains in the meta chain as evidence of the loss.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nonrep_types::ids::RunId;

use crate::group_commit::GroupCommitPool;
use crate::log::{EvidenceLog, FileLog, SyncPolicy};
use crate::record::{EpochCommitment, EvidenceRecord, RecordDraft, SuperEpochCommitment};
use crate::StoreError;

/// Upper bound on the deploy-time shard count (a few thousand open
/// files is where partitioning stops being the bottleneck anyway).
pub const MAX_EVIDENCE_SHARDS: u32 = 1024;

/// Stable shard routing: FNV-1a over the run id's bytes, reduced mod
/// `shards`. Deterministic across restarts and processes — a run's
/// records always land on (and are adjudicated from) the same shard.
///
/// # Panics
///
/// Panics if `shards` is 0 (shard counts are validated at open/deploy).
pub fn shard_index(run: &RunId, shards: u32) -> u32 {
    assert!(shards > 0, "shard count must be >= 1");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in run.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h % u64::from(shards)) as u32
}

/// One stale super-epoch anchor found during recovery: the super-epoch
/// at `meta_seq` vouches for shard records up to `covered_hi`, but the
/// recovered shard only holds `recovered_len` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleSuperEpoch {
    /// Meta-shard sequence number of the super-epoch record.
    pub meta_seq: u64,
    /// The shard whose anchored range outruns its recovered length.
    pub shard: u32,
    /// Last shard-local sequence the anchor covers (inclusive).
    pub covered_hi: u64,
    /// Records the shard actually holds after recovery.
    pub recovered_len: u64,
}

/// What [`ShardedEvidenceLog::open_recover`] found and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedRecovery {
    /// Torn-tail bytes dropped per shard (index = shard).
    pub shard_dropped: Vec<u64>,
    /// Torn-tail bytes dropped from the meta shard.
    pub meta_dropped: u64,
    /// Super-epochs whose anchors outrun a recovered shard — the global
    /// anchor vouches for records the crash destroyed. The orphaned
    /// shard tail re-seals on the next epoch; these stay flagged so an
    /// operator (or adjudicator) knows the covered window shrank.
    pub stale_super_epochs: Vec<StaleSuperEpoch>,
}

impl ShardedRecovery {
    /// `true` when recovery dropped nothing and every surviving
    /// super-epoch is fully covered by the recovered shards.
    pub fn is_clean(&self) -> bool {
        self.meta_dropped == 0
            && self.stale_super_epochs.is_empty()
            && self.shard_dropped.iter().all(|&b| b == 0)
    }
}

/// The sharded evidence plane's storage layer: N data shards plus a
/// meta shard, all in one directory, sharing one group-commit pool
/// under [`SyncPolicy::GroupCommit`]. See the [module docs](self).
///
/// This is deliberately *not* an [`EvidenceLog`]: sequence numbers and
/// chain heads are per shard, so the single-log trait contract does not
/// apply. Protocol code wraps each shard in its own scheduler; tests
/// and tools reach individual shards through [`ShardedEvidenceLog::shard`].
#[derive(Debug)]
pub struct ShardedEvidenceLog {
    // Field order is drop order: shard handles drop (flushing their
    // pending buffers into the pool) before the pool drains and joins.
    shards: Vec<Arc<FileLog>>,
    meta: Arc<FileLog>,
    pool: Option<Arc<GroupCommitPool>>,
    policy: SyncPolicy,
    dir: PathBuf,
    recovery: ShardedRecovery,
}

fn shard_file(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard:03}.log"))
}

fn meta_file(dir: &Path) -> PathBuf {
    dir.join("meta.log")
}

/// Validates a deploy-time shard count (also used by the container's
/// descriptor validation).
pub fn validate_shard_count(shards: u32) -> Result<(), String> {
    if shards == 0 {
        return Err("evidence shard count must be >= 1".into());
    }
    if shards > MAX_EVIDENCE_SHARDS {
        return Err(format!(
            "evidence shard count {shards} exceeds the maximum {MAX_EVIDENCE_SHARDS}"
        ));
    }
    Ok(())
}

impl ShardedEvidenceLog {
    /// Opens (or creates) a sharded plane of `shards` data shards in
    /// `dir` under `policy`. Under [`SyncPolicy::GroupCommit`] every
    /// shard and the meta shard attach to one shared pool.
    ///
    /// The shard count is part of the plane's on-disk identity: routing
    /// is `hash(run) % shards`, so reopening an existing directory with
    /// a different count would silently strand records on unreachable
    /// shards — it is rejected instead.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on an invalid or mismatched shard count,
    /// I/O failure, corruption, or a chain violation in any shard.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: u32,
        policy: SyncPolicy,
    ) -> Result<Self, StoreError> {
        Self::open_impl(dir.as_ref(), shards, policy, false)
    }

    /// [`ShardedEvidenceLog::open`] with per-shard crash recovery and
    /// stale-super-epoch detection (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// As [`ShardedEvidenceLog::open`]; mid-file corruption inside a
    /// shard's retained prefix still fails.
    pub fn open_recover(
        dir: impl AsRef<Path>,
        shards: u32,
        policy: SyncPolicy,
    ) -> Result<Self, StoreError> {
        Self::open_impl(dir.as_ref(), shards, policy, true)
    }

    fn open_impl(
        dir: &Path,
        shards: u32,
        policy: SyncPolicy,
        recover: bool,
    ) -> Result<Self, StoreError> {
        validate_shard_count(shards).map_err(StoreError::Corrupt)?;
        std::fs::create_dir_all(dir)?;
        // Reject a shard-count change on an existing plane: routing is
        // count-dependent, so this is corruption waiting to happen.
        let mut existing = 0u32;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shard-") && name.ends_with(".log") {
                existing += 1;
            }
        }
        if existing != 0 && existing != shards {
            return Err(StoreError::Corrupt(format!(
                "sharded plane at {} has {existing} shards, opened with {shards}: \
                 the shard count is fixed at first open",
                dir.display()
            )));
        }
        let pool = (policy == SyncPolicy::GroupCommit).then(GroupCommitPool::new);
        let open_one = |path: &Path| -> Result<FileLog, StoreError> {
            match (&pool, recover) {
                (Some(pool), false) => FileLog::open_in_pool(path, pool),
                (Some(pool), true) => FileLog::open_recover_in_pool(path, pool),
                (None, false) => FileLog::open_with(path, policy),
                (None, true) => FileLog::open_recover_with(path, policy),
            }
        };
        let mut shard_logs = Vec::with_capacity(shards as usize);
        for i in 0..shards {
            shard_logs.push(Arc::new(open_one(&shard_file(dir, i))?));
        }
        let meta = Arc::new(open_one(&meta_file(dir))?);
        let mut recovery = ShardedRecovery {
            shard_dropped: shard_logs
                .iter()
                .map(|s| s.recovery_dropped_bytes())
                .collect(),
            meta_dropped: meta.recovery_dropped_bytes(),
            stale_super_epochs: Vec::new(),
        };
        if recover {
            // Cross-check surviving super-epochs against recovered
            // shard lengths: an anchor past a shard's tail is stale.
            meta.for_each(&mut |record: &EvidenceRecord| {
                if let Some(commit) = SuperEpochCommitment::from_record(record) {
                    for entry in &commit.entries {
                        let len = shard_logs.get(entry.shard as usize).map_or(0, |s| s.len());
                        if entry.hi >= len {
                            recovery.stale_super_epochs.push(StaleSuperEpoch {
                                meta_seq: record.seq,
                                shard: entry.shard,
                                covered_hi: entry.hi,
                                recovered_len: len,
                            });
                        }
                    }
                }
            });
        }
        Ok(Self {
            shards: shard_logs,
            meta,
            pool,
            policy,
            dir: dir.to_path_buf(),
            recovery,
        })
    }

    /// Number of data shards (the meta shard not included).
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The directory holding the shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durability policy the plane was opened with.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The shared group-commit pool, when the plane runs under
    /// [`SyncPolicy::GroupCommit`].
    pub fn pool(&self) -> Option<&Arc<GroupCommitPool>> {
        self.pool.as_ref()
    }

    /// Data shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard(&self, i: u32) -> &Arc<FileLog> {
        &self.shards[i as usize]
    }

    /// All data shards, in index order.
    pub fn shards(&self) -> &[Arc<FileLog>] {
        &self.shards
    }

    /// The meta shard (super-epoch records live here).
    pub fn meta(&self) -> &Arc<FileLog> {
        &self.meta
    }

    /// The shard index `run` routes to.
    pub fn shard_for(&self, run: &RunId) -> u32 {
        shard_index(run, self.shard_count())
    }

    /// The shard log `run` routes to.
    pub fn log_for(&self, run: &RunId) -> &Arc<FileLog> {
        &self.shards[self.shard_for(run) as usize]
    }

    /// Routes `draft` to its run's shard and appends it there.
    ///
    /// # Errors
    ///
    /// As [`EvidenceLog::append`] on the target shard.
    pub fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
        self.log_for(&draft.run_id).append(draft)
    }

    /// Total records across all data shards (meta excluded).
    pub fn total_records(&self) -> u64 {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Flushes every shard and the meta shard. Submissions go out
    /// first (async) so they coalesce in the shared pool — ideally one
    /// device barrier for the whole plane — then every ticket is
    /// awaited.
    ///
    /// # Errors
    ///
    /// The first flush or barrier failure encountered.
    pub fn flush_all(&self) -> Result<(), StoreError> {
        let mut tickets = Vec::with_capacity(self.shards.len() + 1);
        for log in self.shards.iter().chain(std::iter::once(&self.meta)) {
            tickets.push(log.flush_async()?);
        }
        for ticket in tickets {
            ticket.wait_durable()?;
        }
        Ok(())
    }

    /// Verifies every shard chain and the meta chain.
    ///
    /// # Errors
    ///
    /// The first chain violation found, as [`EvidenceLog::verify`].
    pub fn verify_all(&self) -> Result<(), StoreError> {
        for log in self.shards.iter().chain(std::iter::once(&self.meta)) {
            log.verify().map_err(StoreError::Chain)?;
        }
        Ok(())
    }

    /// The newest super-epoch on the meta shard, with its meta-shard
    /// sequence number.
    pub fn latest_super_epoch(&self) -> Option<(u64, SuperEpochCommitment)> {
        latest_super_epoch(&self.meta)
    }

    /// What recovery dropped and flagged (all-zero when the plane was
    /// opened strictly).
    pub fn recovery(&self) -> &ShardedRecovery {
        &self.recovery
    }
}

/// Scans `meta` backward for the newest decodable super-epoch record.
pub fn latest_super_epoch(meta: &FileLog) -> Option<(u64, SuperEpochCommitment)> {
    let len = meta.len();
    let mut hi = len;
    const WINDOW: u64 = 32;
    while hi > 0 {
        let lo = hi.saturating_sub(WINDOW);
        let window = meta.snapshot_range(lo..hi);
        for record in window.iter().rev() {
            if let Some(commit) = SuperEpochCommitment::from_record(record) {
                return Some((record.seq, commit));
            }
        }
        hi = lo;
    }
    None
}

/// Scans a shard backward for the newest decodable epoch-commitment
/// record — the shard's current anchor candidate for a super-epoch.
/// Epochs seal every `batch_size` records, so the scan touches at most
/// one unsealed tail plus one window in steady state.
pub fn latest_epoch(shard: &FileLog) -> Option<(u64, EpochCommitment)> {
    let len = shard.len();
    let mut hi = len;
    const WINDOW: u64 = 32;
    while hi > 0 {
        let lo = hi.saturating_sub(WINDOW);
        let window = shard.snapshot_range(lo..hi);
        for record in window.iter().rev() {
            if let Some(commit) = EpochCommitment::from_record(record) {
                return Some((record.seq, commit));
            }
        }
        hi = lo;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EpochCommitment, ShardAnchor};
    use nonrep_crypto::digest::{sha256, Digest};
    use nonrep_crypto::rng::SecureRandom;
    use nonrep_crypto::sig::{KeyPair, SignatureScheme};
    use nonrep_types::ids::OrgId;
    use nonrep_types::time::Timestamp;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nonrep-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_keys() -> KeyPair {
        KeyPair::generate(
            SignatureScheme::Mss { height: 3 },
            &mut SecureRandom::from_seed(7),
        )
    }

    /// A run id routing to `shard` under `shards` (deterministic search).
    fn run_for_shard(shard: u32, shards: u32) -> RunId {
        (0u128..)
            .map(RunId::from_u128)
            .find(|r| shard_index(r, shards) == shard)
            .expect("searchable")
    }

    fn draft_for(run: RunId, n: u64) -> RecordDraft {
        RecordDraft {
            run_id: run,
            kind: format!("kind-{n}"),
            actor: OrgId::new("org"),
            at: Timestamp(n),
            content_digest: sha256(&n.to_le_bytes()),
            payload: vec![n as u8; 8],
        }
    }

    /// Seals a real epoch commitment over `[lo, len)` of `log` and
    /// appends it to the same shard.
    fn seal_shard(log: &FileLog, lo: u64, keys: &KeyPair) -> EpochCommitment {
        let hi = log.len() - 1;
        let records = log.snapshot_range(lo..hi + 1);
        let hashes: Vec<Digest> = records.iter().map(|r| r.record_hash()).collect();
        let root = EpochCommitment::root_over_hashes(&hashes);
        let signature = keys
            .sign_digest(&EpochCommitment::signing_digest(lo, hi, &root))
            .unwrap();
        let commit = EpochCommitment {
            lo,
            hi,
            root,
            signature,
        };
        log.append(commit.to_draft(OrgId::new("org"), Timestamp(99)))
            .unwrap();
        commit
    }

    fn super_seal(
        anchors: Vec<ShardAnchor>,
        keys: &KeyPair,
        meta: &FileLog,
    ) -> SuperEpochCommitment {
        let root = SuperEpochCommitment::root_over_entries(&anchors);
        let digest = SuperEpochCommitment::signing_digest(anchors.len() as u32, &root);
        let signature = keys.sign_batch(&[digest]).unwrap().pop().unwrap();
        let commit = SuperEpochCommitment {
            entries: anchors,
            root,
            signature,
        };
        meta.append(commit.to_draft(OrgId::new("org"), Timestamp(100)))
            .unwrap();
        commit
    }

    #[test]
    fn routing_is_stable_and_total() {
        for shards in [1u32, 4, 16] {
            for n in 0..64u128 {
                let run = RunId::from_u128(n);
                let a = shard_index(&run, shards);
                let b = shard_index(&run, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // All 16 shards are reachable (no degenerate hash).
        let hit: std::collections::BTreeSet<u32> = (0..256u128)
            .map(|n| shard_index(&RunId::from_u128(n), 16))
            .collect();
        assert_eq!(hit.len(), 16);
    }

    #[test]
    fn shard_count_validation() {
        assert!(validate_shard_count(0).is_err());
        assert!(validate_shard_count(1).is_ok());
        assert!(validate_shard_count(MAX_EVIDENCE_SHARDS).is_ok());
        assert!(validate_shard_count(MAX_EVIDENCE_SHARDS + 1).is_err());
    }

    #[test]
    fn records_route_to_stable_shards_and_persist() {
        let dir = temp_dir("route");
        {
            let plane = ShardedEvidenceLog::open(&dir, 4, SyncPolicy::GroupCommit).unwrap();
            for n in 0..32u64 {
                let run = RunId::from_u128(u128::from(n % 8));
                plane.append(draft_for(run, n)).unwrap();
            }
            assert_eq!(plane.total_records(), 32);
            plane.flush_all().unwrap();
            // Each run's records live wholly on its routed shard.
            for n in 0..8u128 {
                let run = RunId::from_u128(n);
                let routed = plane.shard_for(&run);
                for (i, shard) in plane.shards().iter().enumerate() {
                    let here = shard.by_run(&run).len();
                    if i as u32 == routed {
                        assert_eq!(here, 4, "run {n} records on its shard");
                    } else {
                        assert_eq!(here, 0, "run {n} leaked to shard {i}");
                    }
                }
            }
        }
        // Clean drop drained everything; strict reopen sees all records.
        let plane = ShardedEvidenceLog::open(&dir, 4, SyncPolicy::GroupCommit).unwrap();
        assert_eq!(plane.total_records(), 32);
        plane.verify_all().unwrap();
        assert!(plane.recovery().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_change_is_rejected() {
        let dir = temp_dir("count-change");
        {
            let _ = ShardedEvidenceLog::open(&dir, 4, SyncPolicy::WriteThrough).unwrap();
        }
        let err = ShardedEvidenceLog::open(&dir, 8, SyncPolicy::WriteThrough);
        assert!(err.is_err(), "shard count change must be rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn super_epoch_round_trips_through_meta_shard() {
        let dir = temp_dir("meta");
        let keys = test_keys();
        let plane = ShardedEvidenceLog::open(&dir, 2, SyncPolicy::GroupCommit).unwrap();
        let mut anchors = Vec::new();
        for shard in 0..2u32 {
            let run = run_for_shard(shard, 2);
            for n in 0..3u64 {
                plane.append(draft_for(run, n)).unwrap();
            }
            let commit = seal_shard(plane.shard(shard), 0, &keys);
            anchors.push(ShardAnchor {
                shard,
                lo: commit.lo,
                hi: commit.hi,
                root: commit.root,
            });
        }
        let commit = super_seal(anchors, &keys, plane.meta());
        plane.flush_all().unwrap();
        let (seq, found) = plane.latest_super_epoch().unwrap();
        assert_eq!(found, commit);
        assert_eq!(seq, 0);
        assert!(found.verify(&keys.verifying_key()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The satellite kill-point case: one shard's tail is torn away by a
    /// crash *after* a super-epoch already anchored it. Recovery must
    /// keep the other shards intact, report the dropped bytes, and flag
    /// the super-epoch as stale (its anchor outruns the recovered
    /// shard); the orphaned range then re-seals on the shard's own
    /// chain, which is the scheduler's watermark-resume job.
    #[test]
    fn torn_shard_tail_under_a_super_epoch_is_flagged_stale() {
        let dir = temp_dir("stale-super");
        let keys = test_keys();
        let torn_shard = 1u32;
        let (sealed_len, full_len);
        {
            let plane = ShardedEvidenceLog::open(&dir, 2, SyncPolicy::GroupCommit).unwrap();
            let mut anchors = Vec::new();
            for shard in 0..2u32 {
                let run = run_for_shard(shard, 2);
                for n in 0..2u64 {
                    plane.append(draft_for(run, n)).unwrap();
                }
                let commit = seal_shard(plane.shard(shard), 0, &keys);
                anchors.push(ShardAnchor {
                    shard,
                    lo: commit.lo,
                    hi: commit.hi,
                    root: commit.root,
                });
            }
            plane.flush_all().unwrap();
            sealed_len = std::fs::metadata(shard_file(&dir, torn_shard))
                .unwrap()
                .len();
            // More records on the torn shard, then a second epoch and a
            // super-epoch covering it — all durable.
            let run = run_for_shard(torn_shard, 2);
            for n in 10..13u64 {
                plane.append(draft_for(run, n)).unwrap();
            }
            let commit = seal_shard(plane.shard(torn_shard), 3, &keys);
            anchors[torn_shard as usize] = ShardAnchor {
                shard: torn_shard,
                lo: commit.lo,
                hi: commit.hi,
                root: commit.root,
            };
            super_seal(anchors, &keys, plane.meta());
            plane.flush_all().unwrap();
            full_len = std::fs::metadata(shard_file(&dir, torn_shard))
                .unwrap()
                .len();
            // Kill: no clean drop, no drain.
            std::mem::forget(plane);
        }
        // Tear the second epoch's batch off the shard, mid-record.
        let surgery = std::fs::OpenOptions::new()
            .write(true)
            .open(shard_file(&dir, torn_shard))
            .unwrap();
        assert!(full_len > sealed_len + 10);
        surgery.set_len(sealed_len + 10).unwrap();
        drop(surgery);

        let plane = ShardedEvidenceLog::open_recover(&dir, 2, SyncPolicy::GroupCommit).unwrap();
        let recovery = plane.recovery().clone();
        assert!(!recovery.is_clean());
        assert!(recovery.shard_dropped[torn_shard as usize] > 0);
        assert_eq!(recovery.shard_dropped[0], 0, "healthy shard untouched");
        assert_eq!(recovery.meta_dropped, 0, "meta shard intact");
        // The super-epoch that covered the torn tail is flagged stale.
        assert_eq!(recovery.stale_super_epochs.len(), 1);
        let stale = &recovery.stale_super_epochs[0];
        assert_eq!(stale.shard, torn_shard);
        assert_eq!(stale.covered_hi, 5, "second epoch covered seqs 3..=5");
        assert_eq!(
            stale.recovered_len, 3,
            "torn back to the first sealed batch"
        );
        // The healthy shard and meta chain verify; the torn shard's
        // retained prefix does too (recovery never masks tampering).
        plane.verify_all().unwrap();
        // The orphaned tail (records past the torn shard's last sealed
        // epoch) is re-sealable: the shard still ends on a valid chain
        // head and accepts new appends + a fresh epoch.
        let run = run_for_shard(torn_shard, 2);
        plane.append(draft_for(run, 20)).unwrap();
        let reseal = seal_shard(plane.shard(torn_shard), 3, &keys);
        assert!(reseal.hi >= reseal.lo);
        plane.flush_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_plane_works_without_group_commit() {
        // The plane is policy-generic: write-through shards fsync per
        // append with no shared pool.
        let dir = temp_dir("write-through");
        let plane = ShardedEvidenceLog::open(&dir, 3, SyncPolicy::WriteThrough).unwrap();
        assert!(plane.pool().is_none());
        for n in 0..9u64 {
            plane
                .append(draft_for(RunId::from_u128(u128::from(n)), n))
                .unwrap();
        }
        plane.flush_all().unwrap();
        assert_eq!(plane.total_records(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
