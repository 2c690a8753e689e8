//! Oracle-equivalence property: the state store must match a `BTreeMap`
//! oracle under random interleavings of puts, deletes, snapshots,
//! checkpoints, and compactions — byte-for-byte scans, point reads,
//! sequence numbers, and incremental Merkle roots — and must survive a
//! reopen back to exactly that state.

use std::collections::BTreeMap;
use std::sync::Arc;

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

/// One generated step: a maintenance control code plus a batch of
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
        let store = StateStore::open(Arc::new(base_disk.clone()), true).unwrap();
        let mut oracle: Oracle = Oracle::new();
        // (snapshot, oracle state at capture, seq at capture)
        type Held = (Snapshot, Oracle, u64);
        let mut held: Vec<Held> = Vec::new();
        let mut seq = 0u64;

        for (control, ops) in &steps {
            match control {
                0 => store.checkpoint().unwrap(),
                1 => store.compact(),
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
        // many writes, checkpoints, and compactions happened since.
        for (snap, frozen, at_seq) in &held {
            let expect = entries(frozen);
            prop_assert_eq!(snap.seq(), *at_seq);
            prop_assert_eq!(&snap.scan(b"", b""), &expect, "snapshot scan diverged");
            if let Some((k, _)) = expect.first() {
                prop_assert_eq!(snap.get(k), frozen.get(k).cloned());
            }
        }
        drop(held);
        drop(store);

        // The store must reopen to byte-identical state.
        let expect = entries(&oracle);
        let store = StateStore::open(Arc::new(base_disk), true).unwrap();
        prop_assert_eq!(&store.scan(b"", b""), &expect, "reopen diverged");
        prop_assert_eq!(store.last_seq(), seq, "reopen seq");
        prop_assert_eq!(store.state_root(), root_of_entries(&expect), "reopen root");
    }
}
