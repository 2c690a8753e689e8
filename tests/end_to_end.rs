//! Cross-crate integration tests: the full execute-order-validate flow
//! through the public facade API.

use std::sync::Arc;

use fabric::chaincode::Stub;
use fabric::client::ClientError;
use fabric::kvstore::MemBackend;
use fabric::msp::Role;
use fabric::net::{kv_chaincode, Net, NetSpec, PeerSpec};
use fabric::peer::{Deliver, DeliverMux, Peer, PeerConfig, PipelineOptions};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::TxValidationCode;
use fabric::primitives::wire::Wire;
use fabric::statesync::{decode_entries, SnapshotConfig};

/// `orgs` on Solo, one KV-chaincode peer per org, blocks of `max_msgs`.
fn spec(orgs: &[&str], max_msgs: u32) -> NetSpec {
    NetSpec {
        batch: BatchConfig {
            max_message_count: max_msgs,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 200,
        },
        ..NetSpec::new(orgs)
    }
    .peer_per_org(2)
    .chaincode("kv", Arc::new(kv_chaincode))
}

#[test]
fn multi_org_flow_with_and_policy() {
    let mut world = Net::new(spec(&["Org1", "Org2"], 1));
    world.deploy("kv", "1.0", "AND(Org1MSP, Org2MSP)");
    let client = world.client(0, "c1", Role::Client);
    let endorsers: Vec<&Peer> = world.peers.iter().collect();
    let tx = client
        .invoke(
            &endorsers,
            &mut world.ordering,
            "kv",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
        )
        .expect("invoke");
    world.settle();
    for peer in &world.peers {
        assert_eq!(peer.get_state("kv", "k").unwrap(), Some(b"v".to_vec()));
        let (_, _, flag) = peer.get_transaction(&tx).unwrap().unwrap();
        assert_eq!(flag, TxValidationCode::Valid);
    }
}

#[test]
fn contention_invalidates_conflicting_increment() {
    // Two read-modify-write increments simulated against the same state:
    // one wins, the other gets an MVCC conflict — and the counter is 1,
    // not 2 (lost-update prevented).
    let mut world = Net::new(spec(&["Org1"], 2));
    world.deploy("kv", "1.0", "Org1MSP");
    let client = world.client(0, "c1", Role::Client);
    let peer0 = &world.peers[0];
    let p1 = client.create_proposal("kv", "incr", vec![b"counter".to_vec()]);
    let r1 = client.collect_endorsements(&p1, &[peer0]).unwrap();
    let p2 = client.create_proposal("kv", "incr", vec![b"counter".to_vec()]);
    let r2 = client.collect_endorsements(&p2, &[peer0]).unwrap();
    let e1 = client.assemble_transaction(&p1, &r1);
    let e2 = client.assemble_transaction(&p2, &r2);
    world.ordering.broadcast(e1).unwrap();
    world.ordering.broadcast(e2).unwrap();
    let flags = world.settle();
    let block_flags = &flags[0];
    assert_eq!(
        block_flags,
        &vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict]
    );
    let counter = world.peers[0].get_state("kv", "counter").unwrap().unwrap();
    assert_eq!(u64::from_le_bytes(counter[..8].try_into().unwrap()), 1);
}

#[test]
fn raft_ordering_end_to_end_with_identical_chains() {
    let mut world = Net::new(NetSpec {
        consensus: ConsensusType::Raft,
        osns: 3,
        ..spec(&["Org1", "Org2"], 1)
    });
    world.deploy("kv", "1.0", "OR(Org1MSP, Org2MSP)");
    let client = world.client(1, "c2", Role::Client);
    for i in 0..4u8 {
        {
            let endorsers: Vec<&Peer> = vec![&world.peers[1]];
            client
                .invoke(
                    &endorsers,
                    &mut world.ordering,
                    "kv",
                    "put",
                    vec![vec![b'k', i], vec![b'v', i]],
                )
                .expect("invoke");
        }
        world.settle();
    }
    let channel = world.channel.clone();
    world.ordering.assert_identical_chains(&channel);
    assert_eq!(world.peers[0].height(), world.peers[1].height());
    for i in 0..4u8 {
        let key = String::from_utf8(vec![b'k', i]).unwrap();
        assert_eq!(
            world.peers[0].get_state("kv", &key).unwrap(),
            Some(vec![b'v', i])
        );
    }
}

/// A put through one peer commits valid, on every OSN's identical chain.
fn single_org_put_end_to_end(spec: NetSpec) {
    let mut world = Net::new(spec);
    world.deploy("kv", "1.0", "Org1MSP");
    let client = world.client(0, "c1", Role::Client);
    let endorsers: Vec<&Peer> = vec![&world.peers[0]];
    let tx = client
        .invoke(
            &endorsers,
            &mut world.ordering,
            "kv",
            "put",
            vec![b"bft".to_vec(), b"works".to_vec()],
        )
        .expect("invoke");
    world.settle();
    let (_, _, flag) = world.peers[0].get_transaction(&tx).unwrap().unwrap();
    assert_eq!(flag, TxValidationCode::Valid);
    let channel = world.channel.clone();
    world.ordering.assert_identical_chains(&channel);
}

#[test]
fn solo_ordering_end_to_end() {
    single_org_put_end_to_end(spec(&["Org1"], 1));
}

#[test]
fn pbft_ordering_end_to_end() {
    single_org_put_end_to_end(NetSpec {
        consensus: ConsensusType::Pbft,
        osns: 4,
        ..spec(&["Org1"], 1)
    });
}

#[test]
fn endorsement_from_wrong_org_set_fails_policy() {
    let mut world = Net::new(spec(&["Org1", "Org2"], 1));
    world.deploy("kv", "1.0", "Org2MSP"); // only Org2 may vouch
    let client = world.client(0, "c1", Role::Client);
    // Endorsed only by Org1's peer.
    let p = client.create_proposal("kv", "put", vec![b"k".to_vec(), b"v".to_vec()]);
    let r = client.collect_endorsements(&p, &[&world.peers[0]]).unwrap();
    let e = client.assemble_transaction(&p, &r);
    world.ordering.broadcast(e).unwrap();
    let flags = world.settle();
    assert_eq!(flags[0], vec![TxValidationCode::EndorsementPolicyFailure]);
    assert_eq!(world.peers[0].get_state("kv", "k").unwrap(), None);
}

#[test]
fn non_deterministic_chaincode_hurts_only_itself() {
    // The paper's claim (Sec. 3.2): non-determinism is a liveness problem
    // for the offending transaction only — the client cannot gather
    // matching endorsements, and nothing reaches the ledger.
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut world = Net::new(spec(&["Org1", "Org2"], 1));
    world.deploy("kv", "1.0", "AND(Org1MSP, Org2MSP)");
    // Install a non-deterministic chaincode on both peers.
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nondet = |stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
        // Different value on every invocation — like a timestamp or map
        // iteration order in Go.
        let v = COUNTER.fetch_add(1, Ordering::SeqCst);
        stub.put_state("k", v.to_le_bytes().to_vec());
        Ok(vec![])
    };
    for peer in &world.peers {
        peer.install_chaincode("nondet", Arc::new(nondet));
    }
    world.deploy("nondet", "1", "AND(Org1MSP, Org2MSP)");

    let client = world.client(0, "c1", Role::Client);
    let height_before = world.peers[0].height();
    {
        let endorsers: Vec<&Peer> = world.peers.iter().collect();
        let result = client.invoke(&endorsers, &mut world.ordering, "nondet", "go", vec![]);
        assert!(
            matches!(result, Err(ClientError::DivergingResults)),
            "diverging rw-sets must be detected at endorsement collection"
        );
    }
    world.settle();
    // Other transactions still work fine (the chain is unaffected).
    assert_eq!(world.peers[0].height(), height_before);
    {
        let endorsers: Vec<&Peer> = world.peers.iter().collect();
        client
            .invoke(
                &endorsers,
                &mut world.ordering,
                "kv",
                "put",
                vec![b"after".to_vec(), b"fine".to_vec()],
            )
            .expect("deterministic chaincode unaffected");
    }
    world.settle();
    assert_eq!(
        world.peers[0].get_state("kv", "after").unwrap(),
        Some(b"fine".to_vec())
    );
}

#[test]
fn config_update_through_full_stack() {
    let mut world = Net::new(spec(&["Org1", "Org2"], 1));
    let admin1 = world.client(0, "a1", Role::Admin);
    let admin2 = world.client(1, "a2", Role::Admin);
    let mut new_config = world.peers[0].channel_config();
    new_config.sequence = 1;
    new_config.orderer.batch.max_message_count = 7;
    let bytes = new_config.to_wire();
    let update = fabric::primitives::config::ConfigUpdate {
        config: new_config,
        signatures: vec![
            fabric::primitives::config::ConfigSignature {
                signer: admin1.identity().serialized(),
                signature: admin1.identity().sign(&bytes).to_bytes().to_vec(),
            },
            fabric::primitives::config::ConfigSignature {
                signer: admin2.identity().serialized(),
                signature: admin2.identity().sign(&bytes).to_bytes().to_vec(),
            },
        ],
    };
    let content = fabric::primitives::transaction::EnvelopeContent::Config(update);
    let signature = admin1
        .identity()
        .sign(&fabric::primitives::transaction::Envelope::signing_bytes(
            &content,
        ))
        .to_bytes()
        .to_vec();
    world
        .ordering
        .broadcast(fabric::primitives::transaction::Envelope { content, signature })
        .expect("config ordered");
    world.settle();
    // Peers adopted the new config.
    for peer in &world.peers {
        assert_eq!(peer.channel_config().sequence, 1);
        assert_eq!(peer.channel_config().orderer.batch.max_message_count, 7);
    }
    // The orderer adopted it too (its cutter now cuts at 7 — verify via
    // channel state).
    let state = world.ordering.nodes()[0].channel(&world.channel).unwrap();
    assert_eq!(state.config().sequence, 1);
}

#[test]
fn peer_crash_recovery_via_persistent_backend() {
    let backend = Arc::new(MemBackend::new());
    let durable_peer = || PeerSpec {
        backend: Some(backend.clone()),
        config: PeerConfig::default(),
        ..PeerSpec::new(0, "p", 1)
    };
    let mut net = Net::new(NetSpec {
        peers: vec![durable_peer()],
        ..spec(&["Org1"], 1)
    });
    let admin = net.client(0, "a", Role::Admin);
    {
        net.deploy("kv", "1", "Org1MSP");
        let tx = admin
            .invoke(
                &[&net.peers[0]],
                &mut net.ordering,
                "kv",
                "put",
                vec![b"durable".to_vec(), b"yes".to_vec()],
            )
            .unwrap();
        net.settle();
        let peer = &net.peers[0];
        assert!(peer.get_transaction(&tx).unwrap().is_some());
        // Peer "crashes" here (dropped).
        drop(net.detach(0));
    }
    net.add_peer(durable_peer());
    let peer = &net.peers[0];
    assert_eq!(peer.height(), 3, "genesis + deploy + put");
    assert_eq!(
        peer.get_state("kv", "durable").unwrap(),
        Some(b"yes".to_vec())
    );
    // And it can keep committing new blocks.
    let tx = admin
        .invoke(
            &[&net.peers[0]],
            &mut net.ordering,
            "kv",
            "put",
            vec![b"post".to_vec(), b"crash".to_vec()],
        )
        .unwrap();
    net.settle();
    let (_, _, flag) = net.peers[0].get_transaction(&tx).unwrap().unwrap();
    assert_eq!(flag, TxValidationCode::Valid);
}

#[test]
fn key_history_agrees_across_peers_and_starts_at_a_snapshot_base() {
    let mut net = Net::new(spec(&["Org1", "Org2"], 1));
    net.deploy("kv", "1.0", "OR(Org1MSP, Org2MSP)");
    let client = net.client(0, "c1", Role::Client);
    let channel = net.channel.clone();
    let put = |net: &mut Net, value: u8| {
        let endorsers: Vec<&Peer> = net.peers.iter().collect();
        let tx = client
            .invoke(
                &endorsers,
                &mut net.ordering,
                "kv",
                "put",
                vec![b"hist".to_vec(), vec![value]],
            )
            .expect("invoke");
        net.settle();
        tx
    };
    let mut txs: Vec<_> = (0..3).map(|i| put(&mut net, i)).collect();

    // A third peer joins from peer 0's snapshot and commits the tail
    // through its own mux.
    let snapshot = net.peers[0]
        .state_snapshot(&SnapshotConfig::default())
        .unwrap();
    let base = snapshot.height();
    let entries = decode_entries(&snapshot.manifest.manifest, &snapshot.segments).unwrap();
    let joiner = net.join_from_snapshot(
        PeerSpec::new(0, "late.org1", 2),
        &snapshot.manifest,
        &entries,
    );
    let mux = DeliverMux::new(2);
    mux.attach(channel.clone(), &joiner, PipelineOptions::default())
        .unwrap();
    txs.extend((3..5).map(|i| put(&mut net, i)));
    let height = net.peers[0].height();
    for number in base..height {
        let block = net.ordering.deliver(&channel, number).unwrap();
        let verdict = mux.deliver(&channel, number, &block.to_wire()).unwrap();
        assert_eq!(verdict, Deliver::Submitted);
    }
    mux.wait_committed(&channel, height).unwrap();
    mux.close().unwrap();

    // Both full peers report every write, one block each, in chain order.
    let full = net.peers[0].get_key_history("kv", "hist").unwrap();
    assert_eq!(net.peers[1].get_key_history("kv", "hist").unwrap(), full);
    assert_eq!(full.iter().map(|e| e.tx_id).collect::<Vec<_>>(), txs);
    assert!(full
        .windows(2)
        .all(|w| w[0].version.block_num < w[1].version.block_num));
    assert!(full.iter().all(|e| !e.is_delete));
    // The joiner has only the writes at or above its base.
    let above: Vec<_> = full
        .iter()
        .filter(|e| e.version.block_num >= base)
        .cloned()
        .collect();
    assert_eq!(above.len(), 2);
    assert_eq!(joiner.get_key_history("kv", "hist").unwrap(), above);
    // Their state is the same bytes.
    let state = net.peers[0].ledger().state_entries();
    assert_eq!(net.peers[1].ledger().state_entries(), state);
    assert_eq!(joiner.ledger().state_entries(), state);
}
