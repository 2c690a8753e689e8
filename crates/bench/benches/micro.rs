//! Criterion microbenchmarks: the primitive operation costs underneath
//! the paper-level experiments (not in the paper; used for calibration
//! sanity and performance regression tracking).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fabric::crypto::{digest, SigningKey};
use fabric::kvstore::merkle::{StateRoot, Transition};
use fabric::kvstore::{KvStore, StoreConfig, WriteBatch};
use fabric::policy::{PolicyExpr, Signer};
use fabric::primitives::wire::Wire;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = vec![0xabu8; 1024];
    group.bench_function("sha256_1k", |b| b.iter(|| digest(black_box(&data))));

    let key = SigningKey::from_seed(b"bench");
    group.bench_function("ecdsa_sign", |b| {
        b.iter(|| key.sign(black_box(b"benchmark message")))
    });

    let sig = key.sign(b"benchmark message");
    group.bench_function("ecdsa_verify", |b| {
        b.iter(|| {
            key.verifying_key()
                .verify(black_box(b"benchmark message"), &sig)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let leaves: Vec<Vec<u8>> = (0..670).map(|i: u32| i.to_le_bytes().to_vec()).collect();
    c.bench_function("merkle_root_670", |b| {
        b.iter(|| fabric::crypto::merkle::root(black_box(&leaves)))
    });

    // One block's state commit: 100 transactions writing 3 keys each plus
    // the savepoint, the shape `Ptm::commit_block` hands the store.
    let transitions: Vec<Transition> = (0..301u32)
        .map(|i| (format!("key-{i}").into_bytes(), None, Some(vec![0u8; 64])))
        .collect();
    let mut tree = StateRoot::empty();
    c.bench_function("state_root_apply_301", |b| {
        b.iter(|| tree.apply(black_box(&transitions)))
    });
}

fn bench_kvstore(c: &mut Criterion) {
    let mut group = c.benchmark_group("kvstore");
    let store = KvStore::open(StoreConfig::in_memory()).unwrap();
    for i in 0..10_000u32 {
        store.put(i.to_le_bytes().to_vec(), vec![0u8; 64]).unwrap();
    }
    group.bench_function("get_hit", |b| {
        b.iter(|| store.get(black_box(&42u32.to_le_bytes())))
    });
    group.bench_function("batch_put_100", |b| {
        let mut n = 0u32;
        b.iter(|| {
            let mut batch = WriteBatch::new();
            for i in 0..100u32 {
                n = n.wrapping_add(1);
                batch.put((1_000_000 + n + i).to_le_bytes().to_vec(), vec![0u8; 64]);
            }
            store.write(batch).unwrap()
        })
    });
    group.bench_function("scan_100", |b| {
        b.iter(|| store.scan(black_box(&100u32.to_le_bytes()), &200u32.to_le_bytes()))
    });
    group.finish();
}

fn bench_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy");
    let text = "OutOf(3, Org1MSP, Org2MSP, Org3MSP, Org4MSP, Org5MSP)";
    group.bench_function("parse", |b| b.iter(|| PolicyExpr::parse(black_box(text))));
    let policy = PolicyExpr::parse(text).unwrap();
    let signers: Vec<Signer> = (1..=3)
        .map(|i| Signer {
            msp_id: format!("Org{i}MSP"),
            role: "peer".into(),
        })
        .collect();
    group.bench_function("evaluate_3_of_5", |b| {
        b.iter(|| policy.is_satisfied(black_box(&signers)).unwrap())
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    use fabric::primitives::ids::{ChaincodeId, ChannelId, SerializedIdentity, TxId};
    use fabric::primitives::rwset::{KeyWrite, NsReadWriteSet, TxReadWriteSet};
    use fabric::primitives::transaction::*;
    let creator = SerializedIdentity::new("Org1MSP", vec![0xaa; 400]);
    let tx = Transaction {
        channel: ChannelId::new("ch"),
        creator: creator.clone(),
        nonce: [7; 32],
        proposal_payload: ProposalPayload {
            chaincode: ChaincodeId::new("fabcoin", "1.0"),
            function: "spend".into(),
            args: vec![vec![0u8; 300]],
        },
        response_payload: ProposalResponsePayload {
            tx_id: TxId::derive(b"c", &[7; 32]),
            chaincode: ChaincodeId::new("fabcoin", "1.0"),
            rwset: TxReadWriteSet::single(NsReadWriteSet {
                namespace: "fabcoin".into(),
                reads: vec![],
                range_queries: vec![],
                writes: vec![KeyWrite {
                    key: "k".into(),
                    value: Some(vec![0u8; 100]),
                }],
            }),
            response: ChaincodeResponse::ok(vec![]),
        },
        endorsements: vec![Endorsement {
            endorser: creator,
            signature: vec![0x55; 64],
        }],
    };
    let bytes = tx.to_wire();
    let mut group = c.benchmark_group("wire");
    group.bench_function("encode_tx", |b| b.iter(|| black_box(&tx).to_wire()));
    group.bench_function("decode_tx", |b| {
        b.iter(|| Transaction::from_wire(black_box(&bytes)).unwrap())
    });
    group.finish();
}

fn bench_chaincode(c: &mut Criterion) {
    use fabric::chaincode::{ChaincodeRegistry, ChaincodeRuntime, Invocation, RuntimeConfig, Stub};
    use fabric::ledger::Ledger;
    use fabric::primitives::ids::{ChannelId, SerializedIdentity, TxId};
    use std::sync::Arc;
    use std::time::Duration;

    // A trivial KV put, so what is timed is the runtime's dispatch cost.
    let registry = Arc::new(ChaincodeRegistry::new());
    let put = |stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
        stub.put_state("k", b"v".to_vec());
        Ok(vec![])
    };
    registry.install("kv", Arc::new(put));
    let runtime =
        |exec_timeout| ChaincodeRuntime::new(registry.clone(), RuntimeConfig { exec_timeout });
    let inline = runtime(None);
    let guarded = runtime(Some(Duration::from_secs(2)));
    let ledger = Ledger::in_memory();
    let invocation = Invocation {
        function: "put".into(),
        args: vec![],
        creator: SerializedIdentity::new("Org1MSP", vec![1]),
        creator_msp: "Org1MSP".into(),
        creator_role: "client".into(),
        tx_id: TxId::derive(b"c", &[1; 32]),
        channel: ChannelId::new("ch"),
    };
    let call = |rt: &ChaincodeRuntime| rt.execute(&ledger, "kv", invocation.clone()).unwrap();

    let mut group = c.benchmark_group("chaincode");
    group.bench_function("inline_call", |b| b.iter(|| call(&inline)));
    group.bench_function("guarded_call", |b| b.iter(|| call(&guarded)));
    // Four concurrent callers, 250 guarded calls each: the time per
    // iteration covers 1000 calls.
    group.bench_function("guarded_call_4x250", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| (0..250).for_each(|_| drop(call(&guarded))));
                }
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_crypto, bench_merkle, bench_kvstore, bench_policy, bench_wire, bench_chaincode
}
criterion_main!(benches);
