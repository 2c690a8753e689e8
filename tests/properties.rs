//! Property-based tests over core data structures and invariants.

use proptest::prelude::*;

use fabric::crypto::u256::U256;
use fabric::crypto::{merkle, SigningKey};
use fabric::kvstore::{StateStore, WriteBatch};
use fabric::policy::{PolicyExpr, Signer};
use fabric::primitives::ids::Version;
use fabric::primitives::rwset::{
    KeyRead, KeyWrite, NsReadWriteSet, RangeQueryInfo, TxReadWriteSet,
};
use fabric::primitives::wire::Wire;

fn arb_u256() -> impl Strategy<Value = U256> {
    prop::array::uniform4(any::<u64>()).prop_map(U256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn u256_add_sub_roundtrip(a in arb_u256(), b in arb_u256()) {
        let (sum, _) = a.adc(&b);
        let (back, _) = sum.sbb(&b);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn u256_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
        prop_assert_eq!(U256::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn u256_mul_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.mul_wide(&b), b.mul_wide(&a));
    }

    #[test]
    fn u256_shift_inverse(a in arb_u256()) {
        // (a >> 1) << 1 clears only the lowest bit.
        let shifted = a.shr1().shl1();
        let mut expected = a;
        expected.0[0] &= !1;
        prop_assert_eq!(shifted, expected);
    }

    #[test]
    fn field_mul_matches_wide_reduction(a in arb_u256(), b in arb_u256()) {
        // Montgomery multiply modulo the P-256 prime agrees with a naive
        // widening multiply followed by long reduction.
        let p = fabric::crypto::p256::fp();
        let a = a.reduce_once(&p.m);
        let b = b.reduce_once(&p.m);
        let am = p.to_mont(&a);
        let bm = p.to_mont(&b);
        let fast = p.from_mont(&p.mul(&am, &bm));
        // Naive: 512-bit product reduced by repeated shifting.
        let (lo, hi) = a.mul_wide(&b);
        let mut acc = U256::ZERO;
        // acc = hi * 2^256 mod p, by 256 doublings of hi mod p.
        let mut h = hi.reduce_once(&p.m);
        for _ in 0..256 {
            h = h.add_mod(&h, &p.m);
        }
        // h is now hi * 2^256 mod p; add lo mod p.
        acc = acc.add_mod(&h, &p.m);
        acc = acc.add_mod(&lo.reduce_once(&p.m), &p.m);
        prop_assert_eq!(fast, acc);
    }

    #[test]
    fn ecdsa_roundtrip_random_messages(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..256)) {
        let key = SigningKey::from_seed(&seed.to_le_bytes());
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig).is_ok());
        // A flipped message bit must not verify.
        let mut other = msg.clone();
        other.push(0x55);
        prop_assert!(key.verifying_key().verify(&other, &sig).is_err());
    }

    #[test]
    fn merkle_proofs_always_verify(leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..24), idx in any::<prop::sample::Index>()) {
        let i = idx.index(leaves.len());
        let root = merkle::root(&leaves);
        let proof = merkle::prove(&leaves, i).unwrap();
        prop_assert!(merkle::verify(&root, &leaves[i], &proof));
    }

    #[test]
    fn rwset_wire_roundtrip(
        ns in "[a-z]{1,8}",
        reads in prop::collection::vec(("[a-z0-9./]{1,16}", prop::option::of((any::<u64>(), any::<u32>()))), 0..8),
        writes in prop::collection::vec(("[a-z0-9./]{1,16}", prop::option::of(prop::collection::vec(any::<u8>(), 0..64))), 0..8),
    ) {
        let rwset = TxReadWriteSet::single(NsReadWriteSet {
            namespace: ns,
            reads: reads.into_iter().map(|(key, v)| KeyRead {
                key,
                version: v.map(|(b, t)| Version::new(b, t)),
            }).collect(),
            range_queries: vec![RangeQueryInfo {
                start_key: "a".into(),
                end_key: "z".into(),
                results_hash: [9u8; 32],
            }],
            writes: writes.into_iter().map(|(key, value)| KeyWrite { key, value }).collect(),
        });
        prop_assert_eq!(TxReadWriteSet::from_wire(&rwset.to_wire()).unwrap(), rwset);
    }

    #[test]
    fn policy_evaluation_is_monotone(extra in prop::collection::vec(0usize..5, 0..6)) {
        // Adding signers never turns a satisfied policy unsatisfied.
        let policy = PolicyExpr::parse("OutOf(2, A, B, C, AND(D, E))").unwrap();
        let base = vec![
            Signer { msp_id: "A".into(), role: "peer".into() },
            Signer { msp_id: "B".into(), role: "peer".into() },
        ];
        prop_assert!(policy.is_satisfied(&base).unwrap());
        let orgs = ["A", "B", "C", "D", "E"];
        let mut extended = base.clone();
        for idx in extra {
            extended.push(Signer { msp_id: orgs[idx].into(), role: "peer".into() });
        }
        prop_assert!(policy.is_satisfied(&extended).unwrap());
    }

    #[test]
    fn kvstore_matches_reference_model(
        ops in prop::collection::vec(
            (0u8..3, "[a-e]", prop::collection::vec(any::<u8>(), 0..8)),
            1..60
        )
    ) {
        // Random puts/deletes/batches against a BTreeMap reference model,
        // with a checkpoint and a mid-sequence reopen, which must land
        // exactly on the checkpointed state.
        let backend = std::sync::Arc::new(fabric::kvstore::MemBackend::new());
        let mut store = StateStore::open(backend.clone()).unwrap();
        let mut model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
        let half = ops.len() / 2;
        for (i, (op, key, value)) in ops.into_iter().enumerate() {
            let k = key.into_bytes();
            match op {
                0 => {
                    store.put(k.clone(), value.clone()).unwrap();
                    model.insert(k, value);
                }
                1 => {
                    store.delete(k.clone()).unwrap();
                    model.remove(&k);
                }
                _ => {
                    let mut batch = WriteBatch::new();
                    batch.put(k.clone(), value.clone());
                    batch.delete(b"zz".to_vec());
                    store.write(batch).unwrap();
                    model.insert(k, value);
                    model.remove(b"zz".as_slice());
                }
            }
            if i == half {
                // Simulated restart after a checkpoint.
                store.checkpoint().unwrap();
                drop(store);
                store = StateStore::open(backend.clone()).unwrap();
                let reopened: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
                    store.scan(b"", b"").into_iter().collect();
                prop_assert_eq!(&reopened, &model);
            }
        }
        let scanned: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
            store.scan(b"", b"").into_iter().collect();
        prop_assert_eq!(scanned, model);
    }

    #[test]
    fn block_cutter_deterministic_and_complete(sizes in prop::collection::vec(16usize..2048, 1..40)) {
        use fabric::ordering::testkit::{make_padded_envelope, TestNet};
        use fabric::ordering::BlockCutter;
        use fabric::primitives::config::{BatchConfig, ConsensusType};
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let client = net.client(0, "c");
        let envelopes: Vec<_> = sizes.iter().enumerate().map(|(i, s)| {
            let mut nonce = [0u8; 32];
            nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
            make_padded_envelope(&client, &net.channel, nonce, *s)
        }).collect();
        let config = BatchConfig {
            max_message_count: 5,
            absolute_max_bytes: 1 << 20,
            preferred_max_bytes: 4096,
            batch_timeout_ms: 1000,
        };
        let run = || {
            let mut cutter = BlockCutter::new(config, 1);
            let mut batches = Vec::new();
            for env in envelopes.clone() {
                batches.extend(cutter.ordered(env));
            }
            if let Some(rest) = cutter.flush() {
                batches.push(rest);
            }
            batches
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "deterministic across replicas");
        // Completeness: every envelope in exactly one batch, in order.
        let flattened: Vec<_> = a.into_iter().flatten().collect();
        prop_assert_eq!(flattened, envelopes);
    }
}
