//! The pluggable storage-engine boundary: [`StateStore`] / [`StateSnapshot`]
//! traits, the engine selector [`EngineKind`], and the two engines (the
//! single-memtable baseline wrapping [`KvStore`], and a pure in-memory
//! store).
//!
//! Both engines maintain the incremental Merkle state root from
//! [`crate::merkle`], so `state_root()` is O(1) regardless of backend and
//! byte-identical across engines holding the same state — the equivalence
//! battery depends on that.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use fabric_crypto::Digest;

use crate::backend::Backend;
use crate::merkle::{StateRoot, Transition};
use crate::store::{KvStore, StoreConfig, WriteBatch};
use crate::StoreError;

/// A consistent read-only view of a store at a fixed sequence number.
pub trait StateSnapshot: Send + Sync {
    /// The sequence number this snapshot observes.
    fn seq(&self) -> u64;
    /// Reads `key` as of this snapshot.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Scans `[start, end)` as of this snapshot (empty `end` = unbounded).
    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;
}

/// The storage-engine contract the ledger and peer program against.
///
/// Implementations must be cheaply shareable behind `Arc` and safe for
/// concurrent readers during writes.
pub trait StateStore: Send + Sync {
    /// Short engine name for logs and bench labels.
    fn name(&self) -> &'static str;
    /// Commits a batch atomically, returning its sequence number.
    fn write(&self, batch: WriteBatch) -> Result<u64, StoreError>;
    /// Reads the latest value of `key`.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Scans `[start, end)` at the latest state (empty `end` = unbounded).
    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;
    /// Takes a consistent snapshot of the current state.
    fn snapshot(&self) -> Box<dyn StateSnapshot>;
    /// The sequence number of the last committed batch.
    fn last_seq(&self) -> u64;
    /// The incremental Merkle root of the live state — O(1).
    fn state_root(&self) -> Digest;
    /// Durably checkpoints so recovery does not replay the whole log.
    fn checkpoint(&self) -> Result<(), StoreError>;
    /// Reclaims versions no live snapshot can observe.
    fn compact(&self) -> Result<(), StoreError>;
    /// Number of live (non-tombstone) keys.
    fn len(&self) -> usize;
    /// Returns `true` if no live keys exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl dyn StateStore {
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
}

/// Storage-engine counters, all zero: neither engine caches, flushes in
/// the background or stalls writers. Kept so the system benchmark's
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

/// Which storage engine backs a store.
#[derive(Clone, Debug, Default)]
pub enum EngineKind {
    /// The original single-memtable MVCC store (equivalence baseline).
    #[default]
    Baseline,
    /// Pure in-memory store: no WAL, no checkpoint files — the paper's
    /// RAM-disk variant (Experiment 3) taken to its logical end.
    Memory,
}

/// Opens the configured engine over `backend`, recovering durable state.
pub fn open_state_store(
    backend: Arc<dyn Backend>,
    sync_writes: bool,
    engine: &EngineKind,
) -> Result<Arc<dyn StateStore>, StoreError> {
    Ok(match engine {
        EngineKind::Baseline => Arc::new(BaselineStore::open(backend, sync_writes)?),
        EngineKind::Memory => Arc::new(MemStore::new()),
    })
}

/// Computes per-key transitions `(key, old, new)` for a batch, reading
/// pre-image values through `old_of` with a batch-local overlay so a key
/// written twice in one batch chains correctly.
pub(crate) fn batch_transitions(
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

// ---------------------------------------------------------------------------
// Baseline engine: the original KvStore plus an incremental Merkle root.
// ---------------------------------------------------------------------------

/// [`KvStore`] behind the [`StateStore`] trait: the default engine.
pub struct BaselineStore {
    kv: KvStore,
    backend: Arc<dyn Backend>,
    /// Also serializes commits so root updates apply in commit order.
    merkle: Mutex<StateRoot>,
}

impl BaselineStore {
    /// Opens (and recovers) a baseline store over `backend`.
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
        Ok(BaselineStore {
            kv,
            backend,
            merkle: Mutex::new(merkle),
        })
    }

    /// The wrapped store (tests and migration paths).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }
}

impl StateStore for BaselineStore {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn write(&self, batch: WriteBatch) -> Result<u64, StoreError> {
        if batch.is_empty() {
            return Ok(self.kv.last_seq());
        }
        let mut merkle = self.merkle.lock();
        let transitions = batch_transitions(batch.ops(), |key| self.kv.get(key));
        let seq = self.kv.write(batch)?;
        merkle.apply(&transitions);
        Ok(seq)
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.kv.get(key)
    }

    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.kv.scan(start, end)
    }

    fn snapshot(&self) -> Box<dyn StateSnapshot> {
        Box::new(self.kv.snapshot())
    }

    fn last_seq(&self) -> u64 {
        self.kv.last_seq()
    }

    fn state_root(&self) -> Digest {
        self.merkle.lock().root()
    }

    fn checkpoint(&self) -> Result<(), StoreError> {
        self.kv.checkpoint()?;
        // Stamp the root with the now-current seq; the merkle lock blocks
        // commits for the duration of this (small, fixed-size) write only.
        let merkle = self.merkle.lock();
        let seq = self.kv.last_seq();
        merkle.persist(self.backend.as_ref(), seq)
    }

    fn compact(&self) -> Result<(), StoreError> {
        self.kv.compact();
        Ok(())
    }

    fn len(&self) -> usize {
        self.kv.len()
    }
}

impl StateSnapshot for crate::store::Snapshot {
    fn seq(&self) -> u64 {
        crate::store::Snapshot::seq(self)
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        crate::store::Snapshot::get(self, key)
    }
    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        crate::store::Snapshot::scan(self, start, end)
    }
}

// ---------------------------------------------------------------------------
// Pure in-memory engine.
// ---------------------------------------------------------------------------

/// One key's version chain: `(seq, value-or-tombstone)` ascending by seq.
type Chain = Vec<(u64, Option<Vec<u8>>)>;

struct MemState {
    map: BTreeMap<Vec<u8>, Chain>,
    seq: u64,
}

struct MemInner {
    state: RwLock<MemState>,
    snapshots: Mutex<BTreeMap<u64, usize>>,
    merkle: Mutex<StateRoot>,
}

/// Versioned in-memory store: same MVCC semantics as the baseline with no
/// durability. Checkpoint is a no-op.
pub struct MemStore {
    inner: Arc<MemInner>,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemStore {
            inner: Arc::new(MemInner {
                state: RwLock::new(MemState {
                    map: BTreeMap::new(),
                    seq: 0,
                }),
                snapshots: Mutex::new(BTreeMap::new()),
                merkle: Mutex::new(StateRoot::empty()),
            }),
        }
    }
}

fn resolve(chain: Option<&Chain>, at_seq: u64) -> Option<Vec<u8>> {
    chain?
        .iter()
        .rev()
        .find(|(s, _)| *s <= at_seq)
        .and_then(|(_, v)| v.clone())
}

fn mem_scan(state: &MemState, start: &[u8], end: &[u8], at_seq: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let upper: Bound<&[u8]> = if end.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Excluded(end)
    };
    state
        .map
        .range::<[u8], _>((Bound::Included(start), upper))
        .filter_map(|(key, chain)| resolve(Some(chain), at_seq).map(|v| (key.clone(), v)))
        .collect()
}

impl StateStore for MemStore {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn write(&self, batch: WriteBatch) -> Result<u64, StoreError> {
        if batch.is_empty() {
            return Ok(self.inner.state.read().seq);
        }
        let mut merkle = self.inner.merkle.lock();
        let mut state = self.inner.state.write();
        let seq = state.seq + 1;
        let transitions = batch_transitions(batch.ops(), |key| {
            resolve(state.map.get(key), u64::MAX)
        });
        for (key, _, new) in &transitions {
            state
                .map
                .entry(key.clone())
                .or_default()
                .push((seq, new.clone()));
        }
        state.seq = seq;
        drop(state);
        merkle.apply(&transitions);
        Ok(seq)
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        resolve(self.inner.state.read().map.get(key), u64::MAX)
    }

    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        mem_scan(&self.inner.state.read(), start, end, u64::MAX)
    }

    fn snapshot(&self) -> Box<dyn StateSnapshot> {
        let seq = self.inner.state.read().seq;
        *self.inner.snapshots.lock().entry(seq).or_insert(0) += 1;
        Box::new(MemSnapshot {
            inner: self.inner.clone(),
            seq,
        })
    }

    fn last_seq(&self) -> u64 {
        self.inner.state.read().seq
    }

    fn state_root(&self) -> Digest {
        self.inner.merkle.lock().root()
    }

    fn checkpoint(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn compact(&self) -> Result<(), StoreError> {
        let min_snapshot = self
            .inner
            .snapshots
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or(u64::MAX);
        let mut state = self.inner.state.write();
        let horizon = min_snapshot.min(state.seq);
        let mut dead = Vec::new();
        for (key, chain) in state.map.iter_mut() {
            let keep_from = chain
                .iter()
                .rposition(|(s, _)| *s <= horizon)
                .unwrap_or_default();
            if keep_from > 0 {
                chain.drain(..keep_from);
            }
            if chain.len() == 1 && chain[0].1.is_none() && chain[0].0 <= horizon {
                dead.push(key.clone());
            }
        }
        for key in dead {
            state.map.remove(&key);
        }
        Ok(())
    }

    fn len(&self) -> usize {
        let state = self.inner.state.read();
        state
            .map
            .values()
            .filter(|chain| resolve(Some(chain), u64::MAX).is_some())
            .count()
    }
}

struct MemSnapshot {
    inner: Arc<MemInner>,
    seq: u64,
}

impl StateSnapshot for MemSnapshot {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        resolve(self.inner.state.read().map.get(key), self.seq)
    }
    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        mem_scan(&self.inner.state.read(), start, end, self.seq)
    }
}

impl Drop for MemSnapshot {
    fn drop(&mut self) {
        let mut snaps = self.inner.snapshots.lock();
        if let Some(count) = snaps.get_mut(&self.seq) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::merkle::root_of_entries;

    fn engines() -> Vec<Arc<dyn StateStore>> {
        vec![
            Arc::new(BaselineStore::open(Arc::new(MemBackend::new()), false).unwrap()),
            Arc::new(MemStore::new()),
        ]
    }

    #[test]
    fn engines_agree_on_basics() {
        for store in engines() {
            store.put("a", "1").unwrap();
            store.put("b", "2").unwrap();
            let snap = store.snapshot();
            store.delete("a").unwrap();
            store.put("c", "3").unwrap();
            assert_eq!(store.get(b"a"), None, "{}", store.name());
            assert_eq!(snap.get(b"a"), Some(b"1".to_vec()), "{}", store.name());
            assert_eq!(snap.scan(b"", b"").len(), 2, "{}", store.name());
            assert_eq!(store.scan(b"", b"").len(), 2, "{}", store.name());
            assert_eq!(store.len(), 2, "{}", store.name());
            assert_eq!(store.last_seq(), 4, "{}", store.name());
        }
    }

    #[test]
    fn state_roots_match_across_engines_and_oracle() {
        let mut roots = Vec::new();
        for store in engines() {
            store.put("x", "1").unwrap();
            store.put("y", "2").unwrap();
            store.delete("x").unwrap();
            let dump = store.scan(b"", b"");
            assert_eq!(store.state_root(), root_of_entries(&dump), "{}", store.name());
            roots.push(store.state_root());
        }
        assert!(roots.windows(2).all(|w| w[0] == w[1]));
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
    fn baseline_persists_root_across_reopen() {
        let backend = Arc::new(MemBackend::new());
        let root = {
            let store = BaselineStore::open(backend.clone(), false).unwrap();
            (&store as &dyn StateStore).put("k", "v").unwrap();
            store.checkpoint().unwrap();
            store.state_root()
        };
        let store = BaselineStore::open(backend, false).unwrap();
        assert_eq!(store.state_root(), root);
        assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
    }
}
