//! The world state: an MVCC memtable with version chains, snapshots,
//! whole-state checkpoints, and the incremental Merkle state root of
//! [`crate::merkle`], so `state_root()` is O(1) regardless of backend.
//!
//! The store writes no log. A write applies in memory and touches no
//! storage; only [`StateStore::checkpoint`] writes, and
//! [`StateStore::open`] loads the last checkpoint. What a caller needs to
//! survive a crash past that checkpoint it must be able to replay itself:
//! the ledger replays the blocks past the state's savepoint, which its
//! block store appended and synced before the state write.
//!
//! A commit holds the Merkle lock (the writer lock) throughout, and the
//! state lock only while it applies the batch and reads each written
//! key's old value off its chain head; the tree update runs after the
//! state lock drops, so no reader waits on hashing or storage I/O.
//!
//! A chain holds only what a reader can still see: each write trims the
//! chains it touches down to the oldest live snapshot, and a key whose
//! chain is then a tombstone every reader sees leaves the map.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::Mutex;

use fabric_crypto::Digest;

use crate::backend::Backend;
use crate::log;
use crate::merkle::{StateRoot, Transition};
use crate::StoreError;

const CHECKPOINT_FILE: &str = "checkpoint.db";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

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

/// An atomic batch of puts and deletes.
#[derive(Default, Clone, Debug)]
pub struct WriteBatch {
    ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a put.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((key.into(), Some(value.into())));
        self
    }

    /// Adds a delete.
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((key.into(), None));
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn serialize(&self, seq: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 16);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for (key, value) in &self.ops {
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
            match value {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    out.extend_from_slice(v);
                }
                None => out.push(0),
            }
        }
        out
    }

    fn deserialize(payload: &[u8]) -> Result<(u64, WriteBatch), StoreError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            if *pos + n > payload.len() {
                return Err(StoreError::Corrupt);
            }
            let s = &payload[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut batch = WriteBatch::new();
        for _ in 0..count {
            let klen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let key = take(&mut pos, klen)?.to_vec();
            let tag = take(&mut pos, 1)?[0];
            match tag {
                1 => {
                    let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                    let value = take(&mut pos, vlen)?.to_vec();
                    batch.ops.push((key, Some(value)));
                }
                0 => batch.ops.push((key, None)),
                _ => return Err(StoreError::Corrupt),
            }
        }
        Ok((seq, batch))
    }
}

/// One key's version chain: `(seq, value-or-tombstone)` in ascending seq.
type Chain = Vec<(u64, Option<Vec<u8>>)>;

struct State {
    map: BTreeMap<Vec<u8>, Chain>,
    /// Sequence number of the last committed batch.
    seq: u64,
    /// Keys whose chains kept older versions for a live snapshot, each
    /// with the seq of the write that left it so, in ascending seq.
    deferred: VecDeque<(u64, Vec<u8>)>,
}

impl State {
    /// Applies `ops` at `seq`, then trims what no reader can see anymore.
    /// Returns each op's Merkle transition `(key, old, new)`, its old value
    /// read off the chain head before the op applies, so a key written
    /// twice in one batch chains through its first write.
    ///
    /// `horizon` is the oldest live snapshot's seq, or `seq` when none is
    /// live. Every chain the batch touches keeps its newest entry at or
    /// below the horizon plus every entry above it; a chain that keeps
    /// more than its head is queued and trimmed again by the first write
    /// whose horizon reaches this `seq`. A key left as one tombstone at
    /// or below the horizon leaves the map. Work is O(batch) plus the
    /// queued keys the horizon passes.
    fn apply(
        &mut self,
        ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
        seq: u64,
        horizon: u64,
    ) -> Vec<Transition> {
        let mut transitions = Vec::with_capacity(ops.len());
        for (key, value) in ops {
            match self.map.entry(key) {
                // An absent key already reads as deleted at every seq.
                Entry::Vacant(slot) => {
                    transitions.push((slot.key().clone(), None, value.clone()));
                    if value.is_some() {
                        slot.insert(vec![(seq, value)]);
                    }
                }
                Entry::Occupied(mut slot) => {
                    let old = slot.get().last().and_then(|(_, v)| v.clone());
                    transitions.push((slot.key().clone(), old, value.clone()));
                    slot.get_mut().push((seq, value));
                    if trim(slot.get_mut(), horizon) {
                        slot.remove();
                    } else if slot.get().len() > 1 {
                        self.deferred.push_back((seq, slot.key().clone()));
                    }
                }
            }
        }
        while self.deferred.front().is_some_and(|(at, _)| *at <= horizon) {
            let (_, key) = self.deferred.pop_front().expect("front checked");
            if let Entry::Occupied(mut slot) = self.map.entry(key) {
                if trim(slot.get_mut(), horizon) {
                    slot.remove();
                }
            }
        }
        transitions
    }
}

/// The seq new snapshots read at, and the live snapshots.
///
/// A write advances `seq` to its own seq in the same critical section in
/// which it reads its trim horizon, while it holds the state lock and
/// before it applies its batch. So a snapshot either registers before
/// that section, and the horizon keeps its versions, or after it, and it
/// reads at the write's own seq, whose reads wait on the state lock until
/// the batch is applied. Taking a snapshot never takes the state lock.
struct Registry {
    seq: u64,
    /// Live snapshot seqs with reference counts.
    live: BTreeMap<u64, usize>,
}

struct Inner {
    state: Mutex<State>,
    snapshots: Mutex<Registry>,
}

/// A peer's world state: durable, snapshotable and ordered, with an
/// incremental Merkle root kept in commit order. Shareable behind `Arc`
/// and safe for concurrent readers during writes.
pub struct StateStore {
    inner: Arc<Inner>,
    backend: Arc<dyn Backend>,
    /// Also serializes commits so root updates apply in commit order.
    merkle: Mutex<StateRoot>,
}

impl StateStore {
    /// Opens a store over `backend` at its last checkpoint, or empty if it
    /// has none. The Merkle tree loads from the bucket file if that file
    /// is stamped with the checkpoint's seq, and is rebuilt from the
    /// loaded state otherwise.
    pub fn open(backend: Arc<dyn Backend>) -> Result<Self, StoreError> {
        let mut state = State {
            map: BTreeMap::new(),
            seq: 0,
            deferred: VecDeque::new(),
        };

        if backend.exists(CHECKPOINT_FILE)? {
            let mut f = backend.open(CHECKPOINT_FILE)?;
            let (records, _) = log::read_all(f.as_mut())?;
            if records.is_empty() {
                return Err(StoreError::Corrupt);
            }
            // A checkpoint is a header record plus zero or more chunk
            // records, all stamped with the same seq, one version per key.
            for payload in &records {
                let (ck_seq, batch) = WriteBatch::deserialize(payload)?;
                state.seq = ck_seq;
                for (key, value) in batch.ops {
                    match value {
                        Some(value) => state.map.insert(key, vec![(ck_seq, Some(value))]),
                        None => state.map.remove(&key),
                    };
                }
            }
        }

        let merkle =
            match StateRoot::load_if_current(backend.as_ref(), state.seq)? {
                Some(tree) => tree,
                None => StateRoot::from_entries(state.map.iter().filter_map(|(key, chain)| {
                    Some((key.as_slice(), chain.last()?.1.as_deref()?))
                })),
            };
        let snapshots = Mutex::new(Registry {
            seq: state.seq,
            live: BTreeMap::new(),
        });
        Ok(StateStore {
            inner: Arc::new(Inner {
                state: Mutex::new(state),
                snapshots,
            }),
            backend,
            merkle: Mutex::new(merkle),
        })
    }

    /// Commits a batch atomically in memory, returning its sequence
    /// number. No storage is touched: the batch is durable once a later
    /// [`checkpoint`](Self::checkpoint) covers it.
    pub fn write(&self, batch: WriteBatch) -> Result<u64, StoreError> {
        if batch.is_empty() {
            return Ok(self.last_seq());
        }
        let mut merkle = self.merkle.lock();
        let (seq, transitions) = {
            let mut state = self.inner.state.lock();
            let seq = state.seq + 1;
            let horizon = {
                let mut registry = self.inner.snapshots.lock();
                registry.seq = seq;
                registry.live.keys().next().copied().unwrap_or(seq)
            };
            let transitions = state.apply(batch.ops, seq, horizon);
            state.seq = seq;
            (seq, transitions)
        };
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
        let state = self.inner.state.lock();
        resolve(state.map.get(key), u64::MAX)
    }

    /// The sequence number of the last committed batch.
    pub fn last_seq(&self) -> u64 {
        self.inner.state.lock().seq
    }

    /// The incremental Merkle root of the live state — O(1).
    pub fn state_root(&self) -> Digest {
        self.merkle.lock().root()
    }

    /// Takes a consistent snapshot of the current state.
    pub fn snapshot(&self) -> Snapshot {
        let mut registry = self.inner.snapshots.lock();
        let seq = registry.seq;
        *registry.live.entry(seq).or_insert(0) += 1;
        drop(registry);
        Snapshot {
            inner: self.inner.clone(),
            seq,
        }
    }

    /// Scans `[start, end)` at the latest state, returning key-value pairs
    /// in key order. An empty `end` means "to the end of the keyspace".
    pub fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        scan_at(&self.inner, start, end, u64::MAX)
    }

    /// Durably writes the state as of now as the checkpoint the next
    /// [`open`](Self::open) loads, then persists the Merkle buckets.
    ///
    /// The checkpoint serializes from an MVCC snapshot in bounded chunks,
    /// re-acquiring the state lock per chunk, so writers are never held
    /// out during checkpoint file I/O. It is written to a temp file,
    /// synced, and renamed over the previous one, so a crash at any point
    /// leaves either the old or the new checkpoint intact.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        // Keys examined per lock acquisition while streaming the state.
        const CHUNK_KEYS: usize = 512;
        let snap = self.snapshot();
        let ck_seq = snap.seq();

        self.backend.remove(CHECKPOINT_TMP)?;
        let mut tmp = self.backend.open(CHECKPOINT_TMP)?;
        // Header record: carries the checkpoint seq even for empty states.
        log::append_record(tmp.as_mut(), &WriteBatch::new().serialize(ck_seq))?;
        let mut cursor: Option<Vec<u8>> = Some(Vec::new());
        while let Some(from) = cursor.take() {
            let batch = {
                let state = self.inner.state.lock();
                let mut batch = WriteBatch::new();
                for (examined, (key, chain)) in state
                    .map
                    .range::<[u8], _>((Bound::Included(from.as_slice()), Bound::Unbounded))
                    .enumerate()
                {
                    if examined == CHUNK_KEYS {
                        cursor = Some(key.clone());
                        break;
                    }
                    if let Some(value) = resolve(Some(chain), ck_seq) {
                        batch.put(key.clone(), value);
                    }
                }
                batch
            };
            if !batch.is_empty() {
                log::append_record(tmp.as_mut(), &batch.serialize(ck_seq))?;
            }
        }
        tmp.sync()?;
        drop(tmp);
        self.backend.rename(CHECKPOINT_TMP, CHECKPOINT_FILE)?;
        // Stamp the root with the now-current seq; the merkle lock blocks
        // commits for the duration of this (small, fixed-size) write only.
        let merkle = self.merkle.lock();
        merkle.persist(self.backend.as_ref(), self.last_seq())
    }

    /// Number of live (non-tombstone) keys at the latest state.
    pub fn len(&self) -> usize {
        let state = self.inner.state.lock();
        state
            .map
            .values()
            .filter(|chain| resolve(Some(chain), u64::MAX).is_some())
            .count()
    }

    /// Returns `true` if no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An immutable view of the store at a fixed sequence number.
pub struct Snapshot {
    inner: Arc<Inner>,
    seq: u64,
}

impl Snapshot {
    /// The sequence number this snapshot observes.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Reads `key` as of this snapshot.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let state = self.inner.state.lock();
        resolve(state.map.get(key), self.seq)
    }

    /// Scans `[start, end)` as of this snapshot.
    pub fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        scan_at(&self.inner, start, end, self.seq)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut registry = self.inner.snapshots.lock();
        if let Some(count) = registry.live.get_mut(&self.seq) {
            *count -= 1;
            if *count == 0 {
                registry.live.remove(&self.seq);
            }
        }
    }
}

/// Drops the entries of `chain` no reader at or above `horizon` can see:
/// all but the newest entry at or below it. Returns `true` if what is left
/// is one tombstone at or below it, which every reader sees as absent.
fn trim(chain: &mut Chain, horizon: u64) -> bool {
    if let Some(keep_from) = chain.iter().rposition(|(s, _)| *s <= horizon) {
        chain.drain(..keep_from);
    }
    matches!(chain.as_slice(), [(s, None)] if *s <= horizon)
}

/// Resolves the visible value of a chain at `at_seq`.
fn resolve(chain: Option<&Chain>, at_seq: u64) -> Option<Vec<u8>> {
    let chain = chain?;
    chain
        .iter()
        .rev()
        .find(|(s, _)| *s <= at_seq)
        .and_then(|(_, v)| v.clone())
}

fn scan_at(inner: &Inner, start: &[u8], end: &[u8], at_seq: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let state = inner.state.lock();
    let upper: Bound<&[u8]> = if end.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Excluded(end)
    };
    state
        .map
        .range::<[u8], _>((Bound::Included(start), upper))
        .filter_map(|(key, chain)| resolve(Some(chain), at_seq).map(|value| (key.clone(), value)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::merkle::root_of_entries;

    fn mem_store() -> StateStore {
        StateStore::open(Arc::new(MemBackend::new())).unwrap()
    }

    #[test]
    fn put_get_delete() {
        let store = mem_store();
        store.put("a", "1").unwrap();
        assert_eq!(store.get(b"a"), Some(b"1".to_vec()));
        store.put("a", "2").unwrap();
        assert_eq!(store.get(b"a"), Some(b"2".to_vec()));
        store.delete("a").unwrap();
        assert_eq!(store.get(b"a"), None);
        assert_eq!(store.get(b"missing"), None);
    }

    #[test]
    fn batch_is_atomic_and_ordered() {
        let store = mem_store();
        let mut batch = WriteBatch::new();
        batch.put("k", "first").put("k", "second").delete("x");
        let seq = store.write(batch).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(store.get(b"k"), Some(b"second".to_vec()));
    }

    #[test]
    fn snapshot_isolation() {
        let store = mem_store();
        store.put("k", "old").unwrap();
        let snap = store.snapshot();
        store.put("k", "new").unwrap();
        store.put("fresh", "v").unwrap();
        assert_eq!(snap.get(b"k"), Some(b"old".to_vec()));
        assert_eq!(snap.get(b"fresh"), None);
        assert_eq!(store.get(b"k"), Some(b"new".to_vec()));
    }

    #[test]
    fn snapshot_sees_through_delete() {
        let store = mem_store();
        store.put("k", "v").unwrap();
        let snap = store.snapshot();
        store.delete("k").unwrap();
        assert_eq!(snap.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(store.get(b"k"), None);
    }

    #[test]
    fn scan_ranges() {
        let store = mem_store();
        for (k, v) in [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")] {
            store.put(k, v).unwrap();
        }
        store.delete("c").unwrap();
        let all = store.scan(b"", b"");
        assert_eq!(all.len(), 3);
        let mid = store.scan(b"b", b"d");
        assert_eq!(mid, vec![(b"b".to_vec(), b"2".to_vec())]);
        let from_b = store.scan(b"b", b"");
        assert_eq!(from_b.len(), 2);
    }

    #[test]
    fn scan_respects_snapshot() {
        let store = mem_store();
        store.put("a", "1").unwrap();
        let snap = store.snapshot();
        store.put("b", "2").unwrap();
        assert_eq!(snap.scan(b"", b"").len(), 1);
        assert_eq!(store.scan(b"", b"").len(), 2);
    }

    /// A backend that holds no files and fails any attempt to make one.
    struct NoStorage;

    impl Backend for NoStorage {
        fn open(&self, name: &str) -> Result<Box<dyn crate::BackendFile>, StoreError> {
            panic!("opened {name}")
        }
        fn exists(&self, _: &str) -> Result<bool, StoreError> {
            Ok(false)
        }
        fn remove(&self, name: &str) -> Result<(), StoreError> {
            panic!("removed {name}")
        }
        fn rename(&self, src: &str, _: &str) -> Result<(), StoreError> {
            panic!("renamed {src}")
        }
    }

    #[test]
    fn write_touches_no_storage() {
        let store = StateStore::open(Arc::new(NoStorage)).unwrap();
        for i in 0..100 {
            store.put(format!("k{i}"), "v").unwrap();
        }
        store.delete("k0").unwrap();
        let snap = store.snapshot();
        store.put("k1", "w").unwrap();
        assert_eq!(snap.get(b"k1"), Some(b"v".to_vec()));
        assert_eq!(store.len(), 99);
        assert_eq!(store.last_seq(), 102);
    }

    #[test]
    fn reopen_loads_the_last_checkpoint() {
        let backend = Arc::new(MemBackend::new());
        {
            let store = StateStore::open(backend.clone()).unwrap();
            store.put("persist", "me").unwrap();
            store.put("and", "me-too").unwrap();
            store.delete("and").unwrap();
            store.checkpoint().unwrap();
            // After the checkpoint: held in memory only.
            store.put("persist", "later").unwrap();
            store.put("c", "3").unwrap();
        }
        let store = StateStore::open(backend.clone()).unwrap();
        assert_eq!(store.get(b"persist"), Some(b"me".to_vec()));
        assert_eq!(store.get(b"and"), None);
        assert_eq!(store.get(b"c"), None);
        assert_eq!(store.last_seq(), 3);
        // Seqs resume from the checkpoint, and the next checkpoint
        // replaces it.
        assert_eq!(store.put("c", "4").unwrap(), 4);
        store.checkpoint().unwrap();
        let store = StateStore::open(backend.clone()).unwrap();
        assert_eq!(store.get(b"c"), Some(b"4".to_vec()));
        assert_eq!(store.last_seq(), 4);
    }

    #[test]
    fn torn_checkpoint_tmp_leaves_the_previous_checkpoint() {
        let backend = Arc::new(MemBackend::new());
        {
            let store = StateStore::open(backend.clone()).unwrap();
            store.put("good", "1").unwrap();
            store.checkpoint().unwrap();
        }
        // Simulate a crash while the next checkpoint streams: a torn temp
        // file that was never renamed.
        {
            let mut tmp = backend.open(CHECKPOINT_TMP).unwrap();
            tmp.append(&[0xff, 0x00, 0x00]).unwrap();
        }
        let store = StateStore::open(backend.clone()).unwrap();
        assert_eq!(store.get(b"good"), Some(b"1".to_vec()));
        // And the next checkpoint replaces the leftover temp file.
        store.put("new", "2").unwrap();
        store.checkpoint().unwrap();
        let store = StateStore::open(backend.clone()).unwrap();
        assert_eq!(store.get(b"new"), Some(b"2".to_vec()));
    }

    /// `(keys, versions)` held in the store's map.
    fn held(store: &StateStore) -> (usize, usize) {
        let state = store.inner.state.lock();
        let versions = state.map.values().map(Vec::len).sum();
        (state.map.len(), versions)
    }

    #[test]
    fn write_keeps_only_versions_a_snapshot_can_read() {
        let store = mem_store();
        store.put("k", "v1").unwrap();
        store.put("k", "v2").unwrap();
        assert_eq!(held(&store), (1, 1));
        let snap = store.snapshot();
        store.put("k", "v3").unwrap();
        store.put("k", "v4").unwrap();
        // The snapshot still sees v2; everything above it stays.
        assert_eq!(held(&store), (1, 3));
        assert_eq!(snap.get(b"k"), Some(b"v2".to_vec()));
        assert_eq!(store.get(b"k"), Some(b"v4".to_vec()));
        drop(snap);
        // The next write trims the queued chain, not only its own keys.
        store.put("other", "x").unwrap();
        assert_eq!(held(&store), (2, 2));
        assert_eq!(store.get(b"k"), Some(b"v4".to_vec()));
    }

    #[test]
    fn deleted_key_leaves_the_map_once_no_snapshot_sees_it() {
        let store = mem_store();
        store.put("k", "v").unwrap();
        store.delete("k").unwrap();
        assert_eq!(held(&store), (0, 0));
        store.delete("never-written").unwrap();
        assert_eq!(held(&store), (0, 0));

        store.put("k", "v").unwrap();
        let snap = store.snapshot();
        store.delete("k").unwrap();
        assert_eq!(held(&store), (1, 2));
        assert_eq!(snap.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(store.get(b"k"), None);
        drop(snap);
        store.put("other", "x").unwrap();
        assert_eq!(held(&store), (1, 1));
        assert_eq!(store.scan(b"", b"").len(), 1);
    }

    #[test]
    fn chain_held_by_a_snapshot_is_trimmed_after_it_drops() {
        let store = mem_store();
        store.put("k", "v0").unwrap();
        let old = store.snapshot();
        for i in 1..=5 {
            store.put("k", format!("v{i}")).unwrap();
            let _transient = store.snapshot();
        }
        assert_eq!(held(&store), (1, 6));
        let newer = store.snapshot();
        drop(old);
        store.put("k", "v6").unwrap();
        // `newer` (at v5) is now the horizon: v5 and v6 stay.
        assert_eq!(held(&store), (1, 2));
        assert_eq!(newer.get(b"k"), Some(b"v5".to_vec()));
        drop(newer);
        store.put("other", "x").unwrap();
        assert_eq!(held(&store), (2, 2));
    }

    /// 10 000 puts and deletes over 100 keys with no live snapshot.
    fn churn(store: &StateStore) -> BTreeMap<Vec<u8>, Vec<u8>> {
        let mut live = BTreeMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..10_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = format!("key-{:03}", x % 100).into_bytes();
            if x.is_multiple_of(3) {
                store.delete(key.clone()).unwrap();
                live.remove(&key);
            } else {
                let value = format!("value-{i}").into_bytes();
                store.put(key.clone(), value.clone()).unwrap();
                live.insert(key, value);
            }
        }
        live
    }

    #[test]
    fn versions_held_equal_live_keys_without_snapshots() {
        let backend = Arc::new(MemBackend::new());
        let live = {
            let store = StateStore::open(backend.clone()).unwrap();
            let live = churn(&store);
            assert!(!live.is_empty() && live.len() < 100);
            assert_eq!(held(&store), (live.len(), live.len()));
            let expect: Vec<_> = live.clone().into_iter().collect();
            assert_eq!(store.scan(b"", b""), expect);
            store.checkpoint().unwrap();
            live
        };
        // Loading the checkpoint trims as it goes: the same bound after a
        // reopen.
        let store = StateStore::open(backend.clone()).unwrap();
        assert_eq!(held(&store), (live.len(), live.len()));
        let expect: Vec<_> = live.into_iter().collect();
        assert_eq!(store.scan(b"", b""), expect);
        assert_eq!(store.last_seq(), 10_000);
    }

    #[test]
    fn len_counts_live_keys() {
        let store = mem_store();
        assert!(store.is_empty());
        store.put("a", "1").unwrap();
        store.put("b", "2").unwrap();
        store.delete("a").unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn empty_batch_is_noop() {
        let store = mem_store();
        let seq0 = store.last_seq();
        let seq1 = store.write(WriteBatch::new()).unwrap();
        assert_eq!(seq0, seq1);
    }

    #[test]
    fn file_backed_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("fabric-kvstore-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let store = StateStore::open(Arc::new(crate::FsBackend::new(&dir).unwrap())).unwrap();
            store.put("durable", "yes").unwrap();
            store.checkpoint().unwrap();
            store.put("post-ck", "memory only").unwrap();
        }
        {
            let store = StateStore::open(Arc::new(crate::FsBackend::new(&dir).unwrap())).unwrap();
            assert_eq!(store.get(b"durable"), Some(b"yes".to_vec()));
            assert_eq!(store.get(b"post-ck"), None);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_see_their_version() {
        let store = mem_store();
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
        let store = mem_store();
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
    fn transitions_chain_through_a_key_written_twice_in_a_batch() {
        let store = mem_store();
        store.put("k", "0").unwrap();
        let snap = store.snapshot();
        let ops = vec![
            (b"k".to_vec(), Some(b"1".to_vec())),
            (b"k".to_vec(), Some(b"2".to_vec())),
            (b"k".to_vec(), None),
            (b"fresh".to_vec(), Some(b"x".to_vec())),
        ];
        let t = store.inner.state.lock().apply(ops, 2, snap.seq());
        assert_eq!(t[0].1.as_deref(), Some(b"0".as_slice()));
        assert_eq!(t[1].1.as_deref(), Some(b"1".as_slice()));
        assert_eq!(t[2].1.as_deref(), Some(b"2".as_slice()));
        assert_eq!(t[2].2, None);
        assert_eq!(
            (t[3].1.as_deref(), t[3].2.as_deref()),
            (None, Some(b"x".as_slice()))
        );
    }

    #[test]
    fn root_persists_across_reopen() {
        let backend = Arc::new(MemBackend::new());
        let root = {
            let store = StateStore::open(backend.clone()).unwrap();
            store.put("k", "v").unwrap();
            store.checkpoint().unwrap();
            store.state_root()
        };
        let store = StateStore::open(backend).unwrap();
        assert_eq!(store.state_root(), root);
        assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
    }
}
