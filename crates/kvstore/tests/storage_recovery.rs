//! Kill-at-every-offset crash batteries for every on-disk structure the
//! state store writes.
//!
//! Model: a crash may lose any **suffix** of the write-ahead log, and may
//! leave the Merkle bucket file (pure acceleration) torn or stale in any
//! state. A checkpoint is synced and renamed before the WAL is truncated,
//! so it is durable by construction and its damage is outside the crash
//! model.
//!
//! Every battery drives the store through a scripted workload with an
//! oracle of the state after each committed batch, photographs the
//! "disk" with `MemBackend::deep_clone`, damages one file at every byte
//! offset, reopens, and checks that recovery lands **exactly** on a
//! committed prefix of the history (never a torn half-batch), that the
//! incremental Merkle root matches a full recomputation, and that the
//! store still accepts writes.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric_kvstore::merkle::root_of_entries;
use fabric_kvstore::{Backend, MemBackend, StateStore, WriteBatch};

type Batch = Vec<(Vec<u8>, Option<Vec<u8>>)>;
type OracleStates = Vec<BTreeMap<Vec<u8>, Vec<u8>>>;

/// Deterministic workload: returns the batches plus the
/// oracle state after each prefix (`states[k]` = state once batches
/// `1..=k` committed).
fn scripted_workload(batches: usize) -> (Vec<Batch>, OracleStates) {
    let mut rng: u64 = 0x5eed_cafe;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut states = vec![oracle.clone()];
    let mut all = Vec::new();
    for b in 0..batches {
        let mut ops: Batch = Vec::new();
        for _ in 0..(1 + next() % 3) {
            let key = format!("key-{:02}", next() % 16).into_bytes();
            if next() % 4 == 0 && !oracle.is_empty() {
                ops.push((key, None));
            } else {
                let value = format!("val-{b}-{}", next() % 100).into_bytes();
                ops.push((key, Some(value)));
            }
        }
        for (k, v) in &ops {
            match v {
                Some(v) => {
                    oracle.insert(k.clone(), v.clone());
                }
                None => {
                    oracle.remove(k);
                }
            }
        }
        states.push(oracle.clone());
        all.push(ops);
    }
    (all, states)
}

fn apply(store: &StateStore, ops: &Batch) {
    let mut batch = WriteBatch::new();
    for (k, v) in ops {
        match v {
            Some(v) => {
                batch.put(k.clone(), v.clone());
            }
            None => {
                batch.delete(k.clone());
            }
        }
    }
    store.write(batch).expect("workload write");
}

/// Every truncation point for a file of `total` bytes. Small files are
/// cut at literally every offset; for large ones (the Merkle bucket file
/// is ~128 KiB) every offset in the head and tail plus a dense stride
/// through the middle keeps the battery exhaustive where framing lives
/// without hours of reopens.
fn cut_points(total: u64) -> Vec<u64> {
    if total <= 2048 {
        return (0..=total).collect();
    }
    let mut cuts: Vec<u64> = (0..=256).chain(total - 256..=total).collect();
    let stride = (total / 512).max(1);
    let mut at = 257;
    while at < total - 256 {
        cuts.push(at);
        at += stride;
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Truncates `name` in a deep clone of `disk` to `len` bytes and reopens
/// the store on the damaged clone.
fn reopen_truncated(disk: &MemBackend, name: &str, len: u64) -> StateStore {
    let damaged = disk.deep_clone();
    damaged
        .open(name)
        .expect("damaged file opens")
        .truncate(len)
        .expect("truncate");
    StateStore::open(Arc::new(damaged), true).expect("recovery must succeed on a torn tail")
}

/// Asserts the recovered store sits exactly on a committed prefix of the
/// scripted history: its state equals the oracle at its own last_seq, and
/// its incremental root matches a full recomputation.
fn assert_committed_prefix(store: &StateStore, states: &OracleStates) -> u64 {
    let seq = store.last_seq();
    assert!(
        (seq as usize) < states.len(),
        "recovered seq {seq} beyond history"
    );
    let expect: Vec<(Vec<u8>, Vec<u8>)> = states[seq as usize]
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(
        store.scan(b"", b""),
        expect,
        "recovered state is not the committed prefix at seq {seq}"
    );
    assert_eq!(
        store.state_root(),
        root_of_entries(&expect),
        "incremental root diverged from full recompute at seq {seq}"
    );
    seq
}

/// The store must stay writable after any recovery.
fn assert_still_writable(store: &StateStore) {
    let seq = store.last_seq();
    let mut batch = WriteBatch::new();
    batch.put(b"post-crash".to_vec(), b"alive".to_vec());
    store.write(batch).expect("write after recovery");
    assert_eq!(store.last_seq(), seq + 1);
    assert_eq!(store.get(b"post-crash"), Some(b"alive".to_vec()));
}

#[test]
fn merkle_bucket_file_torn_at_every_offset() {
    let disk = MemBackend::new();
    let store = StateStore::open(Arc::new(disk.clone()), true).unwrap();
    let (batches, states) = scripted_workload(12);
    for ops in &batches {
        apply(&store, ops);
    }
    store.checkpoint().unwrap(); // persists merkle.buckets at last_seq
    drop(store);

    assert!(disk.exists("merkle.buckets").unwrap());
    let total = disk.open("merkle.buckets").unwrap().len().unwrap();
    for len in cut_points(total) {
        // Damaged or stale accumulator → silent full rebuild; the root
        // must still match a from-scratch recomputation.
        let store = reopen_truncated(&disk, "merkle.buckets", len);
        let seq = assert_committed_prefix(&store, &states);
        assert_eq!(seq as usize, batches.len());
        assert_still_writable(&store);
    }
}

#[test]
fn wal_torn_at_every_offset_after_chunked_checkpoint() {
    let disk = MemBackend::new();
    let store = StateStore::open(Arc::new(disk.clone()), true).unwrap();
    let (batches, states) = scripted_workload(16);
    let mid = 8;
    for ops in &batches[..mid] {
        apply(&store, ops);
    }
    store.checkpoint().unwrap(); // multi-record chunked checkpoint
    for ops in &batches[mid..] {
        apply(&store, ops);
    }
    drop(store);

    let total = disk.open("wal.log").unwrap().len().unwrap();
    assert!(total > 0, "post-checkpoint batches must sit in the WAL");
    for len in cut_points(total) {
        let store = reopen_truncated(&disk, "wal.log", len);
        let seq = assert_committed_prefix(&store, &states);
        // The checkpoint floor holds regardless of how much WAL is lost.
        assert!(
            seq as usize >= mid,
            "checkpointed batches lost: recovered seq {seq} < {mid}"
        );
        assert_still_writable(&store);
    }
}
