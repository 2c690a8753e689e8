//! The MVCC key-value store: memtable with version chains, WAL durability,
//! snapshots, checkpointing, and crash recovery.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{Backend, BackendFile};
use crate::log;
use crate::StoreError;

const WAL_FILE: &str = "wal.log";
const WAL_TMP: &str = "wal.tmp";
const CHECKPOINT_FILE: &str = "checkpoint.db";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// Configuration for opening a [`KvStore`].
pub struct StoreConfig {
    /// Byte storage (filesystem directory or in-memory).
    pub backend: Arc<dyn Backend>,
    /// Whether every committed batch is fsync'd before acknowledging.
    pub sync_writes: bool,
}

impl StoreConfig {
    /// In-memory store, convenient for tests and the RAM-disk experiment.
    pub fn in_memory() -> Self {
        StoreConfig {
            backend: Arc::new(crate::backend::MemBackend::new()),
            sync_writes: false,
        }
    }

    /// File-backed store rooted at `dir`.
    pub fn at_dir(dir: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        Ok(StoreConfig {
            backend: Arc::new(crate::backend::FsBackend::new(dir)?),
            sync_writes: true,
        })
    }
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

    /// The batch's operations in insertion order (`None` = delete).
    pub(crate) fn ops(&self) -> &[(Vec<u8>, Option<Vec<u8>>)] {
        &self.ops
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
    /// Sequence covered by the on-disk checkpoint.
    checkpoint_seq: u64,
}

struct Inner {
    state: Mutex<State>,
    wal: Mutex<Box<dyn BackendFile>>,
    backend: Arc<dyn Backend>,
    sync_writes: bool,
    /// Active snapshot sequence numbers with reference counts.
    snapshots: Mutex<BTreeMap<u64, usize>>,
}

/// A durable, snapshotable, ordered key-value store.
///
/// Cloning is cheap: clones share the same underlying store.
#[derive(Clone)]
pub struct KvStore {
    inner: Arc<Inner>,
}

impl KvStore {
    /// Opens a store, recovering state from the checkpoint and WAL.
    pub fn open(config: StoreConfig) -> Result<Self, StoreError> {
        let backend = config.backend;
        let mut map: BTreeMap<Vec<u8>, Chain> = BTreeMap::new();
        let mut seq = 0u64;
        let mut checkpoint_seq = 0u64;

        if backend.exists(CHECKPOINT_FILE)? {
            let mut f = backend.open(CHECKPOINT_FILE)?;
            let (records, _) = log::read_all(f.as_mut())?;
            if records.is_empty() {
                return Err(StoreError::Corrupt);
            }
            // A checkpoint is a header record plus zero or more chunk
            // records, all stamped with the same seq.
            for payload in &records {
                let (ck_seq, batch) = WriteBatch::deserialize(payload)?;
                checkpoint_seq = ck_seq;
                seq = ck_seq;
                for (key, value) in batch.ops {
                    map.insert(key, vec![(ck_seq, value)]);
                }
            }
        }

        let mut wal = backend.open(WAL_FILE)?;
        let (records, good_end) = log::read_all(wal.as_mut())?;
        // Drop a torn tail so subsequent appends are well-framed.
        if good_end < wal.len()? {
            wal.truncate(good_end)?;
        }
        for payload in records {
            let (batch_seq, batch) = WriteBatch::deserialize(&payload)?;
            if batch_seq <= checkpoint_seq {
                continue; // already folded into the checkpoint
            }
            for (key, value) in batch.ops {
                map.entry(key).or_default().push((batch_seq, value));
            }
            seq = seq.max(batch_seq);
        }

        Ok(KvStore {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    map,
                    seq,
                    checkpoint_seq,
                }),
                wal: Mutex::new(wal),
                backend,
                sync_writes: config.sync_writes,
                snapshots: Mutex::new(BTreeMap::new()),
            }),
        })
    }

    /// Commits a batch atomically, returning its sequence number.
    pub fn write(&self, batch: WriteBatch) -> Result<u64, StoreError> {
        if batch.is_empty() {
            return Ok(self.inner.state.lock().seq);
        }
        let mut state = self.inner.state.lock();
        let seq = state.seq + 1;
        let payload = batch.serialize(seq);
        {
            let mut wal = self.inner.wal.lock();
            log::append_record(wal.as_mut(), &payload)?;
            if self.inner.sync_writes {
                wal.sync()?;
            }
        }
        for (key, value) in batch.ops {
            state.map.entry(key).or_default().push((seq, value));
        }
        state.seq = seq;
        Ok(seq)
    }

    /// Convenience single-key put.
    pub fn put(&self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Result<u64, StoreError> {
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

    /// Takes a consistent snapshot of the current state.
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.inner.state.lock().seq;
        *self.inner.snapshots.lock().entry(seq).or_insert(0) += 1;
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

    /// Writes a checkpoint and drops the WAL records it covers.
    ///
    /// The checkpoint serializes from an MVCC snapshot in bounded chunks,
    /// re-acquiring the state lock per chunk, so writers are never held
    /// out during checkpoint file I/O. The WAL is rewritten (keeping only
    /// records newer than the checkpoint) via temp-file + rename, so a
    /// crash at any point leaves a recoverable pair of files. After a
    /// successful checkpoint, recovery no longer replays covered records.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        // Keys examined per lock acquisition while streaming the state.
        const CHUNK_KEYS: usize = 512;
        let snap = self.snapshot();
        let ck_seq = snap.seq();

        self.inner.backend.remove(CHECKPOINT_TMP)?;
        let mut tmp = self.inner.backend.open(CHECKPOINT_TMP)?;
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
        self.inner.backend.rename(CHECKPOINT_TMP, CHECKPOINT_FILE)?;
        drop(snap);

        // Shed covered WAL records. Writes committed while the checkpoint
        // streamed must survive, so the WAL is rewritten to a fresh file
        // and atomically swapped in; the lock is held only for that tail
        // rewrite, which is O(writes since the snapshot), not O(state).
        let mut state = self.inner.state.lock();
        let mut wal = self.inner.wal.lock();
        if state.seq == ck_seq {
            wal.truncate(0)?;
        } else {
            let (records, _) = log::read_all(wal.as_mut())?;
            self.inner.backend.remove(WAL_TMP)?;
            let mut fresh = self.inner.backend.open(WAL_TMP)?;
            for payload in &records {
                let (batch_seq, _) = WriteBatch::deserialize(payload)?;
                if batch_seq > ck_seq {
                    log::append_record(fresh.as_mut(), payload)?;
                }
            }
            if self.inner.sync_writes {
                fresh.sync()?;
            }
            drop(fresh);
            self.inner.backend.rename(WAL_TMP, WAL_FILE)?;
            *wal = self.inner.backend.open(WAL_FILE)?;
        }
        state.checkpoint_seq = ck_seq;
        Ok(())
    }

    /// Drops version-chain entries no snapshot can observe anymore.
    pub fn compact(&self) {
        let min_snapshot = self
            .inner
            .snapshots
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or(u64::MAX);
        let mut state = self.inner.state.lock();
        let horizon = min_snapshot.min(state.seq);
        let mut empty_keys = Vec::new();
        for (key, chain) in state.map.iter_mut() {
            // Keep the newest entry at-or-below the horizon plus everything
            // above it.
            let keep_from = chain
                .iter()
                .rposition(|(s, _)| *s <= horizon)
                .unwrap_or_default();
            if keep_from > 0 {
                chain.drain(..keep_from);
            }
            // A chain that is a single tombstone visible to everyone can go.
            if chain.len() == 1 && chain[0].1.is_none() && chain[0].0 <= horizon {
                empty_keys.push(key.clone());
            }
        }
        for key in empty_keys {
            state.map.remove(&key);
        }
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
        let mut snaps = self.inner.snapshots.lock();
        if let Some(count) = snaps.get_mut(&self.seq) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
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
        .filter_map(|(key, chain)| {
            resolve(Some(chain), at_seq).map(|value| (key.clone(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_store() -> KvStore {
        KvStore::open(StoreConfig::in_memory()).unwrap()
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

    #[test]
    fn recovery_from_wal() {
        let backend = Arc::new(crate::backend::MemBackend::new());
        {
            let store = KvStore::open(StoreConfig {
                backend: backend.clone(),
                sync_writes: false,
            })
            .unwrap();
            store.put("persist", "me").unwrap();
            store.put("and", "me-too").unwrap();
            store.delete("and").unwrap();
        }
        let store = KvStore::open(StoreConfig {
            backend,
            sync_writes: false,
        })
        .unwrap();
        assert_eq!(store.get(b"persist"), Some(b"me".to_vec()));
        assert_eq!(store.get(b"and"), None);
        assert_eq!(store.last_seq(), 3);
    }

    #[test]
    fn recovery_with_checkpoint() {
        let backend = Arc::new(crate::backend::MemBackend::new());
        {
            let store = KvStore::open(StoreConfig {
                backend: backend.clone(),
                sync_writes: false,
            })
            .unwrap();
            store.put("a", "1").unwrap();
            store.put("b", "2").unwrap();
            store.checkpoint().unwrap();
            store.put("c", "3").unwrap(); // after checkpoint, only in WAL
        }
        let store = KvStore::open(StoreConfig {
            backend,
            sync_writes: false,
        })
        .unwrap();
        assert_eq!(store.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(store.get(b"c"), Some(b"3".to_vec()));
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let backend = Arc::new(crate::backend::MemBackend::new());
        let store = KvStore::open(StoreConfig {
            backend: backend.clone(),
            sync_writes: false,
        })
        .unwrap();
        for i in 0..100 {
            store.put(format!("k{i}"), "v").unwrap();
        }
        let mut wal = backend.open("wal.log").unwrap();
        assert!(wal.len().unwrap() > 0);
        store.checkpoint().unwrap();
        assert_eq!(wal.len().unwrap(), 0);
    }

    #[test]
    fn torn_wal_tail_recovered() {
        let backend = Arc::new(crate::backend::MemBackend::new());
        {
            let store = KvStore::open(StoreConfig {
                backend: backend.clone(),
                sync_writes: false,
            })
            .unwrap();
            store.put("good", "1").unwrap();
        }
        // Simulate a crash mid-append.
        {
            let mut wal = backend.open("wal.log").unwrap();
            wal.append(&[0xff, 0x00, 0x00]).unwrap();
        }
        let store = KvStore::open(StoreConfig {
            backend,
            sync_writes: false,
        })
        .unwrap();
        assert_eq!(store.get(b"good"), Some(b"1".to_vec()));
        // And new writes still work after tail truncation.
        store.put("new", "2").unwrap();
        assert_eq!(store.get(b"new"), Some(b"2".to_vec()));
    }

    #[test]
    fn compact_preserves_visible_versions() {
        let store = mem_store();
        store.put("k", "v1").unwrap();
        let snap = store.snapshot();
        store.put("k", "v2").unwrap();
        store.put("k", "v3").unwrap();
        store.compact();
        // Snapshot still sees v1; latest still v3.
        assert_eq!(snap.get(b"k"), Some(b"v1".to_vec()));
        assert_eq!(store.get(b"k"), Some(b"v3".to_vec()));
        drop(snap);
        store.compact();
        assert_eq!(store.get(b"k"), Some(b"v3".to_vec()));
    }

    #[test]
    fn compact_removes_dead_tombstones() {
        let store = mem_store();
        store.put("k", "v").unwrap();
        store.delete("k").unwrap();
        store.compact();
        assert_eq!(store.len(), 0);
        // Internal map should be empty too (no chains left).
        assert_eq!(store.scan(b"", b"").len(), 0);
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
            let store = KvStore::open(StoreConfig::at_dir(&dir).unwrap()).unwrap();
            store.put("durable", "yes").unwrap();
            store.checkpoint().unwrap();
            store.put("post-ck", "also").unwrap();
        }
        {
            let store = KvStore::open(StoreConfig::at_dir(&dir).unwrap()).unwrap();
            assert_eq!(store.get(b"durable"), Some(b"yes".to_vec()));
            assert_eq!(store.get(b"post-ck"), Some(b"also".to_vec()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
