//! Backend-equivalence property: the baseline single-memtable store and
//! the pure in-memory store must be observationally identical under
//! random interleavings of puts, deletes, snapshots, checkpoints, and
//! compactions — byte-for-byte scans, point reads, sequence numbers, and
//! incremental Merkle roots — and the baseline must survive a reopen back
//! to exactly that state.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric_kvstore::merkle::root_of_entries;
use fabric_kvstore::{
    open_state_store, EngineKind, MemBackend, StateSnapshot, StateStore, WriteBatch,
};
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
    fn engines_are_observationally_equivalent(
        steps in prop::collection::vec(
            (0u8..7, prop::collection::vec((any::<u8>(), 0u8..4, any::<u8>()), 1..5)),
            1..32,
        )
    ) {
        let steps: Vec<Step> = steps;
        let base_disk = MemBackend::new();
        let engines: Vec<Arc<dyn StateStore>> = vec![
            open_state_store(Arc::new(base_disk.clone()), true, &EngineKind::Baseline).unwrap(),
            open_state_store(Arc::new(MemBackend::new()), true, &EngineKind::Memory).unwrap(),
        ];
        let mut oracle: Oracle = Oracle::new();
        // (per-engine snapshot, oracle state at capture, seq at capture)
        type Held = (Vec<Box<dyn StateSnapshot>>, Oracle, u64);
        let mut held: Vec<Held> = Vec::new();
        let mut seq = 0u64;

        for (control, ops) in &steps {
            match control {
                0 => {
                    for e in &engines {
                        e.checkpoint().unwrap();
                    }
                }
                1 => {
                    for e in &engines {
                        e.compact().unwrap();
                    }
                }
                2 => {
                    held.push((
                        engines.iter().map(|e| e.snapshot()).collect(),
                        oracle.clone(),
                        seq,
                    ));
                }
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
            for e in &engines {
                prop_assert_eq!(e.write(batch.clone()).unwrap(), seq, "{} seq", e.name());
            }

            // Observational equivalence after every committed batch.
            let expect = entries(&oracle);
            let root = root_of_entries(&expect);
            for e in &engines {
                prop_assert_eq!(&e.scan(b"", b""), &expect, "{} scan diverged", e.name());
                prop_assert_eq!(e.last_seq(), seq, "{} seq diverged", e.name());
                prop_assert_eq!(e.len(), expect.len(), "{} len diverged", e.name());
                prop_assert_eq!(e.state_root(), root, "{} root diverged", e.name());
                let (probe, _, _) = &ops[0];
                let key = key_of(*probe);
                prop_assert_eq!(
                    e.get(&key),
                    oracle.get(&key).cloned(),
                    "{} get diverged",
                    e.name()
                );
            }
        }

        // Held snapshots stay pinned to their capture point no matter how
        // many writes, checkpoints, and compactions happened since.
        for (snaps, frozen, at_seq) in &held {
            let expect = entries(frozen);
            for snap in snaps {
                prop_assert_eq!(snap.seq(), *at_seq);
                prop_assert_eq!(&snap.scan(b"", b""), &expect, "snapshot scan diverged");
                if let Some((k, _)) = expect.first() {
                    prop_assert_eq!(snap.get(k), frozen.get(k).cloned());
                }
            }
        }
        drop(held);
        drop(engines);

        // The durable engine must reopen to byte-identical state.
        let expect = entries(&oracle);
        let store = open_state_store(Arc::new(base_disk), true, &EngineKind::Baseline).unwrap();
        prop_assert_eq!(&store.scan(b"", b""), &expect, "baseline reopen diverged");
        prop_assert_eq!(store.last_seq(), seq, "baseline reopen seq");
        prop_assert_eq!(store.state_root(), root_of_entries(&expect), "baseline reopen root");
    }
}
