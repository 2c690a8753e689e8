//! Oracle-equivalence property: the state store must match a `BTreeMap`
//! oracle under random interleavings of puts, deletes, checkpoints, and
//! snapshots taken and dropped across writes (so writes trim version
//! chains both at once and deferred) — byte-for-byte scans, point reads,
//! sequence numbers, and incremental Merkle roots — and a reopen must land
//! exactly on the state of the last checkpoint (the store keeps no log; a
//! caller replays what came after it). A concurrency test pins snapshot
//! reads to their seq while a writer overwrites the key they read.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use fabric_kvstore::merkle::root_of_entries;
use fabric_kvstore::{MemBackend, Snapshot, StateStore, WriteBatch};
use proptest::prelude::*;

type Oracle = BTreeMap<Vec<u8>, Vec<u8>>;

fn key_of(k: u8) -> Vec<u8> {
    format!("key-{:02}", k % 24).into_bytes()
}

fn entries(oracle: &Oracle) -> Vec<(Vec<u8>, Vec<u8>)> {
    oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// Asserts a held snapshot still reads exactly its capture point.
fn check_held(snap: &Snapshot, frozen: &Oracle, at_seq: u64) -> Result<(), TestCaseError> {
    let expect = entries(frozen);
    prop_assert_eq!(snap.seq(), at_seq);
    prop_assert_eq!(&snap.scan(b"", b""), &expect, "snapshot scan diverged");
    if let Some((k, _)) = expect.first() {
        prop_assert_eq!(snap.get(k), frozen.get(k).cloned());
    }
    Ok(())
}

/// One generated step: a control code plus a batch of
/// `(key, kind, value-byte)` ops.
type Step = (u8, Vec<(u8, u8, u8)>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn store_matches_oracle_and_reopen(
        steps in prop::collection::vec(
            (0u8..7, prop::collection::vec((any::<u8>(), 0u8..4, any::<u8>()), 1..5)),
            1..32,
        )
    ) {
        let steps: Vec<Step> = steps;
        let base_disk = MemBackend::new();
        let store = StateStore::open(Arc::new(base_disk.clone())).unwrap();
        let mut oracle: Oracle = Oracle::new();
        // (snapshot, oracle state at capture, seq at capture)
        type Held = (Snapshot, Oracle, u64);
        let mut held: Vec<Held> = Vec::new();
        let mut seq = 0u64;
        // The oracle and seq as of the last checkpoint.
        let mut checkpointed: (Oracle, u64) = (Oracle::new(), 0);

        for (control, ops) in &steps {
            match control {
                0 => {
                    store.checkpoint().unwrap();
                    checkpointed = (oracle.clone(), seq);
                }
                1 if !held.is_empty() => {
                    let (snap, frozen, at_seq) = held.remove(0);
                    check_held(&snap, &frozen, at_seq)?;
                }
                2 => held.push((store.snapshot(), oracle.clone(), seq)),
                _ => {}
            }

            let mut batch = WriteBatch::new();
            for (k, kind, v) in ops {
                let key = key_of(*k);
                if *kind == 0 {
                    batch.delete(key.clone());
                    oracle.remove(&key);
                } else {
                    let value = format!("v-{v}-{kind}").into_bytes();
                    batch.put(key.clone(), value.clone());
                    oracle.insert(key, value);
                }
            }
            seq += 1;
            prop_assert_eq!(store.write(batch).unwrap(), seq, "seq");

            // Oracle equivalence after every committed batch.
            let expect = entries(&oracle);
            prop_assert_eq!(&store.scan(b"", b""), &expect, "scan diverged");
            prop_assert_eq!(store.last_seq(), seq, "seq diverged");
            prop_assert_eq!(store.len(), expect.len(), "len diverged");
            prop_assert_eq!(store.state_root(), root_of_entries(&expect), "root diverged");
            let (probe, _, _) = &ops[0];
            let key = key_of(*probe);
            prop_assert_eq!(store.get(&key), oracle.get(&key).cloned(), "get diverged");
        }

        // Held snapshots stay pinned to their capture point no matter how
        // many writes, checkpoints, and snapshot drops happened since.
        for (snap, frozen, at_seq) in &held {
            check_held(snap, frozen, *at_seq)?;
        }
        drop(held);
        drop(store);

        // The store must reopen to the byte-identical state of its last
        // checkpoint.
        let (at_checkpoint, checkpoint_seq) = checkpointed;
        let expect = entries(&at_checkpoint);
        let store = StateStore::open(Arc::new(base_disk)).unwrap();
        prop_assert_eq!(&store.scan(b"", b""), &expect, "reopen diverged");
        prop_assert_eq!(store.last_seq(), checkpoint_seq, "reopen seq");
        prop_assert_eq!(store.state_root(), root_of_entries(&expect), "reopen root");
    }
}

/// Readers take snapshots and read a hot key while a writer overwrites it
/// once per batch, so the value at seq `n` is `n`. A snapshot must read
/// the value as of its own seq even when a write lands between the moment
/// it picks that seq and the moment it is registered.
#[test]
fn snapshot_reads_hold_their_seq_under_concurrent_overwrites() {
    const WRITES: u64 = 20_000;
    const READERS: usize = 2;
    let store = Arc::new(StateStore::open(Arc::new(MemBackend::new())).unwrap());
    store.put("hot", 0u64.to_le_bytes()).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (store, done, start) = (store.clone(), done.clone(), start.clone());
            thread::spawn(move || {
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    let value = snap.get(b"hot").expect("hot key is never deleted");
                    let at = u64::from_le_bytes(value.try_into().unwrap());
                    assert_eq!(at + 1, snap.seq(), "snapshot read another seq's value");
                }
            })
        })
        .collect();
    start.wait();
    for n in 1..WRITES {
        store.put("hot", n.to_le_bytes()).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("a snapshot read another seq's value");
    }
    assert_eq!(store.last_seq(), WRITES);
}
