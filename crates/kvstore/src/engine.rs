//! The state store the ledger and peer program against: [`KvStore`] plus
//! the incremental Merkle state root from [`crate::merkle`], so
//! `state_root()` is O(1) regardless of backend.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use fabric_crypto::Digest;

use crate::backend::Backend;
use crate::merkle::{StateRoot, Transition};
use crate::store::{KvStore, Snapshot, StoreConfig, WriteBatch};
use crate::StoreError;

/// Storage-engine counters, all zero: the store does not cache, flush in
/// the background or stall writers. Kept so the system benchmark's
/// `kvstore.*` metrics still read it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageSnapshot {
    /// Block-cache hits.
    pub cache_hits: u64,
    /// Block-cache misses.
    pub cache_misses: u64,
    /// Memtable flushes completed.
    pub flushes: u64,
    /// Total time writers spent stalled, in microseconds.
    pub stall_us: u64,
}

/// Computes per-key transitions `(key, old, new)` for a batch, reading
/// pre-image values through `old_of` with a batch-local overlay so a key
/// written twice in one batch chains correctly.
fn batch_transitions(
    ops: &[(Vec<u8>, Option<Vec<u8>>)],
    mut old_of: impl FnMut(&[u8]) -> Option<Vec<u8>>,
) -> Vec<Transition> {
    let mut overlay: HashMap<&[u8], Option<Vec<u8>>> = HashMap::new();
    let mut out = Vec::with_capacity(ops.len());
    for (key, new) in ops {
        let old = match overlay.get(key.as_slice()) {
            Some(v) => v.clone(),
            None => old_of(key),
        };
        out.push((key.clone(), old, new.clone()));
        overlay.insert(key, new.clone());
    }
    out
}

/// A peer's world state: the MVCC [`KvStore`] over a [`Backend`], with an
/// incremental Merkle root kept in commit order. Cheaply shareable behind
/// `Arc` and safe for concurrent readers during writes.
pub struct StateStore {
    kv: KvStore,
    backend: Arc<dyn Backend>,
    /// Also serializes commits so root updates apply in commit order.
    merkle: Mutex<StateRoot>,
}

impl StateStore {
    /// Opens (and recovers) a store over `backend`.
    pub fn open(backend: Arc<dyn Backend>, sync_writes: bool) -> Result<Self, StoreError> {
        let kv = KvStore::open(StoreConfig {
            backend: backend.clone(),
            sync_writes,
        })?;
        let merkle = match StateRoot::load_if_current(backend.as_ref(), kv.last_seq())? {
            Some(tree) => tree,
            None => {
                let dump = kv.scan(b"", b"");
                StateRoot::from_entries(dump.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
            }
        };
        Ok(StateStore {
            kv,
            backend,
            merkle: Mutex::new(merkle),
        })
    }

    /// Commits a batch atomically, returning its sequence number.
    pub fn write(&self, batch: WriteBatch) -> Result<u64, StoreError> {
        if batch.is_empty() {
            return Ok(self.kv.last_seq());
        }
        let mut merkle = self.merkle.lock();
        let transitions = batch_transitions(batch.ops(), |key| self.kv.get(key));
        let seq = self.kv.write(batch)?;
        merkle.apply(&transitions);
        Ok(seq)
    }

    /// Convenience single-key put.
    pub fn put(
        &self,
        key: impl Into<Vec<u8>>,
        value: impl Into<Vec<u8>>,
    ) -> Result<u64, StoreError> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(batch)
    }

    /// Convenience single-key delete.
    pub fn delete(&self, key: impl Into<Vec<u8>>) -> Result<u64, StoreError> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(batch)
    }

    /// Reads the latest value of `key`.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.kv.get(key)
    }

    /// Scans `[start, end)` at the latest state (empty `end` = unbounded).
    pub fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.kv.scan(start, end)
    }

    /// Takes a consistent snapshot of the current state.
    pub fn snapshot(&self) -> Snapshot {
        self.kv.snapshot()
    }

    /// The sequence number of the last committed batch.
    pub fn last_seq(&self) -> u64 {
        self.kv.last_seq()
    }

    /// The incremental Merkle root of the live state — O(1).
    pub fn state_root(&self) -> Digest {
        self.merkle.lock().root()
    }

    /// Durably checkpoints so recovery does not replay the whole log.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.kv.checkpoint()?;
        // Stamp the root with the now-current seq; the merkle lock blocks
        // commits for the duration of this (small, fixed-size) write only.
        let merkle = self.merkle.lock();
        let seq = self.kv.last_seq();
        merkle.persist(self.backend.as_ref(), seq)
    }

    /// Reclaims versions no live snapshot can observe.
    pub fn compact(&self) {
        self.kv.compact();
    }

    /// Number of live (non-tombstone) keys.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// Returns `true` if no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::merkle::root_of_entries;

    fn store() -> StateStore {
        StateStore::open(Arc::new(MemBackend::new()), false).unwrap()
    }

    #[test]
    fn snapshots_see_their_version() {
        let store = store();
        store.put("a", "1").unwrap();
        store.put("b", "2").unwrap();
        let snap = store.snapshot();
        store.delete("a").unwrap();
        store.put("c", "3").unwrap();
        assert_eq!(store.get(b"a"), None);
        assert_eq!(snap.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(snap.scan(b"", b"").len(), 2);
        assert_eq!(store.scan(b"", b"").len(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.last_seq(), 4);
    }

    #[test]
    fn state_root_matches_oracle() {
        let store = store();
        store.put("x", "1").unwrap();
        store.put("y", "2").unwrap();
        store.delete("x").unwrap();
        let dump = store.scan(b"", b"");
        assert_eq!(store.state_root(), root_of_entries(&dump));
        let mut batch = WriteBatch::new();
        batch.put("z", "3").put("z", "4").delete("y");
        store.write(batch).unwrap();
        let dump = store.scan(b"", b"");
        assert_eq!(store.state_root(), root_of_entries(&dump));
    }

    #[test]
    fn batch_transitions_overlay_same_key() {
        let ops = vec![
            (b"k".to_vec(), Some(b"1".to_vec())),
            (b"k".to_vec(), Some(b"2".to_vec())),
            (b"k".to_vec(), None),
        ];
        let t = batch_transitions(&ops, |_| Some(b"0".to_vec()));
        assert_eq!(t[0].1.as_deref(), Some(b"0".as_slice()));
        assert_eq!(t[1].1.as_deref(), Some(b"1".as_slice()));
        assert_eq!(t[2].1.as_deref(), Some(b"2".as_slice()));
        assert_eq!(t[2].2, None);
    }

    #[test]
    fn root_persists_across_reopen() {
        let backend = Arc::new(MemBackend::new());
        let root = {
            let store = StateStore::open(backend.clone(), false).unwrap();
            store.put("k", "v").unwrap();
            store.checkpoint().unwrap();
            store.state_root()
        };
        let store = StateStore::open(backend, false).unwrap();
        assert_eq!(store.state_root(), root);
        assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
    }
}
