//! Content-addressed state store with named version histories.
//!
//! Evidence tokens carry *digests* of state, not the state itself (paper
//! §3.4/§3.5). The state store maps each digest back to the full
//! representation, and keeps an ordered version history per shared object
//! so that "a subsequent reconstruction of information state is a state
//! previously agreed by the organisations" (§3.4) can be checked.

use std::collections::{BTreeMap, HashMap};

use parking_lot::RwLock;

use nonrep_crypto::digest::{sha256, Digest};

/// Content-addressed store of state snapshots.
#[derive(Debug, Default)]
pub struct StateStore {
    blobs: RwLock<HashMap<Digest, Vec<u8>>>,
    /// Ordered by name, so [`StateStore::objects`] (and every snapshot
    /// built from it) comes out the same in every process.
    versions: RwLock<BTreeMap<String, Vec<Digest>>>,
}

impl StateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `state`, returning its digest. Idempotent.
    fn put(&self, state: &[u8]) -> Digest {
        let digest = sha256(state);
        self.blobs
            .write()
            .entry(digest)
            .or_insert_with(|| state.to_vec());
        digest
    }

    /// Retrieves the state for `digest`, if present.
    pub fn get(&self, digest: &Digest) -> Option<Vec<u8>> {
        self.blobs.read().get(digest).cloned()
    }

    /// `true` if the store holds state for `digest`.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.blobs.read().contains_key(digest)
    }

    /// Total stored bytes across all blobs.
    pub fn total_bytes(&self) -> u64 {
        self.blobs.read().values().map(|b| b.len() as u64).sum()
    }

    /// Stores `state` and appends its digest to `object`'s version history.
    /// Returns `(version, digest)`; versions are 0-based and dense.
    pub fn record_version(&self, object: &str, state: &[u8]) -> (u64, Digest) {
        let digest = self.put(state);
        let mut versions = self.versions.write();
        let history = versions.entry(object.to_owned()).or_default();
        history.push(digest);
        ((history.len() - 1) as u64, digest)
    }

    /// The latest `(version, digest)` of `object`, if any.
    pub fn latest(&self, object: &str) -> Option<(u64, Digest)> {
        let versions = self.versions.read();
        let history = versions.get(object)?;
        let last = history.last()?;
        Some(((history.len() - 1) as u64, *last))
    }

    /// Full version history of `object` (oldest first).
    pub fn history(&self, object: &str) -> Vec<Digest> {
        self.versions
            .read()
            .get(object)
            .cloned()
            .unwrap_or_default()
    }

    /// Names of all objects with a version history, sorted.
    pub fn objects(&self) -> Vec<String> {
        self.versions.read().keys().cloned().collect()
    }

    /// Installs a complete version history for `object` (replacing any
    /// existing one) and stores `latest_state` as the blob of the final
    /// digest. Used when a joining replica receives a state snapshot: the
    /// digests of earlier versions are installed for version arithmetic
    /// and reconstruction checks even though their blobs are elsewhere.
    pub fn install_history(&self, object: &str, history: Vec<Digest>, latest_state: Option<&[u8]>) {
        if let Some(state) = latest_state {
            let digest = self.put(state);
            debug_assert_eq!(
                Some(&digest),
                history.last(),
                "latest state must match history"
            );
        }
        self.versions.write().insert(object.to_owned(), history);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = StateStore::new();
        let d = store.put(b"state-1");
        assert_eq!(store.get(&d).unwrap(), b"state-1");
        assert!(store.contains(&d));
        assert!(!store.contains(&sha256(b"other")));
        assert_eq!(store.get(&sha256(b"other")), None);
    }

    #[test]
    fn objects_are_sorted_whatever_the_insertion_order() {
        let store = StateStore::new();
        for name in ["zeta", "alpha", "mid", "__group:ve"] {
            store.record_version(name, name.as_bytes());
        }
        assert_eq!(store.objects(), ["__group:ve", "alpha", "mid", "zeta"]);
    }

    #[test]
    fn put_is_idempotent() {
        let store = StateStore::new();
        let d1 = store.put(b"same");
        let d2 = store.put(b"same");
        assert_eq!(d1, d2);
        assert_eq!(store.total_bytes(), 4);
    }

    #[test]
    fn version_history_is_ordered() {
        let store = StateStore::new();
        let (v0, d0) = store.record_version("doc", b"draft");
        let (v1, d1) = store.record_version("doc", b"final");
        assert_eq!((v0, v1), (0, 1));
        assert_eq!(store.latest("doc"), Some((1, d1)));
        assert_eq!(store.history("doc"), vec![d0, d1]);
    }

    #[test]
    fn separate_objects_have_separate_histories() {
        let store = StateStore::new();
        store.record_version("a", b"1");
        store.record_version("b", b"2");
        assert_eq!(store.history("a").len(), 1);
        assert_eq!(store.history("b").len(), 1);
        assert_eq!(store.latest("c"), None);
        assert!(store.history("c").is_empty());
    }

    #[test]
    fn repeated_state_can_appear_at_multiple_versions() {
        let store = StateStore::new();
        store.record_version("doc", b"same");
        store.record_version("doc", b"other");
        store.record_version("doc", b"same");
        let history = store.history("doc");
        assert_eq!(history.len(), 3);
        assert_eq!(history[0], history[2]);
        assert_eq!(store.total_bytes(), 9); // content-addressed dedup
    }
}
