//! Cross-crate integration tests: the full execute-order-validate flow
//! through the public facade API.

use std::sync::Arc;

use fabric::chaincode::{ChaincodeDefinition, Stub, LSCC_NAMESPACE};
use fabric::client::{Client, ClientError};
use fabric::kvstore::MemBackend;
use fabric::msp::Role;
use fabric::ordering::testkit::TestNet;
use fabric::ordering::OrderingCluster;
use fabric::peer::{Peer, PeerConfig};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::TxValidationCode;
use fabric::primitives::wire::Wire;

fn kv_chaincode(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
    match stub.function() {
        "put" => {
            let key = stub.arg_string(0)?;
            stub.put_state(&key, stub.args()[1].clone());
            Ok(vec![])
        }
        "get" => {
            let key = stub.arg_string(0)?;
            stub.get_state(&key)?.ok_or("missing".into())
        }
        "incr" => {
            // Read-modify-write: classic MVCC conflict generator.
            let key = stub.arg_string(0)?;
            let current = stub
                .get_state(&key)?
                .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0);
            stub.put_state(&key, (current + 1).to_le_bytes().to_vec());
            Ok(vec![])
        }
        other => Err(format!("unknown {other}")),
    }
}

struct World {
    net: TestNet,
    ordering: OrderingCluster,
    peers: Vec<Peer>,
}

impl World {
    fn new(orgs: &[&str], consensus: ConsensusType, osns: usize, max_msgs: u32) -> World {
        let net = TestNet::with_batch(
            orgs,
            consensus,
            osns,
            BatchConfig {
                max_message_count: max_msgs,
                absolute_max_bytes: 10 << 20,
                preferred_max_bytes: 2 << 20,
                batch_timeout_ms: 200,
            },
        );
        let ordering =
            OrderingCluster::new(consensus, net.orderers(osns), vec![net.genesis.clone()])
                .expect("ordering bootstraps");
        let genesis = ordering.deliver(&net.channel, 0).expect("genesis");
        let peers = (0..orgs.len())
            .map(|i| {
                let identity = fabric::msp::issue_identity(
                    &net.org_cas[i],
                    &format!("peer0.{i}"),
                    Role::Peer,
                    format!("w-peer-{i}").as_bytes(),
                );
                let peer = Peer::join(
                    identity,
                    &genesis,
                    Arc::new(MemBackend::new()),
                    PeerConfig {
                        vscc_parallelism: 2,
                        runtime: fabric::chaincode::RuntimeConfig { exec_timeout: None },
                        sync_writes: false,
                    },
                )
                .expect("peer joins");
                peer.install_chaincode("kv", Arc::new(kv_chaincode));
                peer
            })
            .collect();
        World {
            net,
            ordering,
            peers,
        }
    }

    fn client(&self, org: usize, name: &str, role: Role) -> Client {
        let identity = fabric::msp::issue_identity(
            &self.net.org_cas[org],
            name,
            role,
            format!("w-{org}-{name}").as_bytes(),
        );
        Client::new(identity, self.net.channel.clone())
    }

    fn deploy_kv(&mut self, policy: &str) {
        let admin = self.client(0, "admin", Role::Admin);
        let def = ChaincodeDefinition {
            name: "kv".into(),
            version: "1.0".into(),
            endorsement_policy: policy.into(),
        };
        let endorsers: Vec<&Peer> = self.peers.iter().collect();
        let proposal = admin.create_proposal(LSCC_NAMESPACE, "deploy", vec![def.to_wire()]);
        let responses = admin
            .collect_endorsements(&proposal, &endorsers)
            .expect("deploy endorsed");
        let envelope = admin.assemble_transaction(&proposal, &responses);
        self.ordering.broadcast(envelope).expect("deploy ordered");
        self.settle();
    }

    /// Ticks the orderer and commits everything available at every peer.
    fn settle(&mut self) -> Vec<Vec<TxValidationCode>> {
        let mut all_flags = Vec::new();
        for _ in 0..10 {
            self.ordering.tick();
            while let Some(block) = self
                .ordering
                .deliver(&self.net.channel, self.peers[0].height())
            {
                for (i, peer) in self.peers.iter().enumerate() {
                    let (flags, _) = peer.commit_block(&block).expect("commit");
                    if i == 0 {
                        all_flags.push(flags);
                    }
                }
            }
        }
        all_flags
    }
}

#[test]
fn multi_org_flow_with_and_policy() {
    let mut world = World::new(&["Org1", "Org2"], ConsensusType::Solo, 1, 1);
    world.deploy_kv("AND(Org1MSP, Org2MSP)");
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
    let mut world = World::new(&["Org1"], ConsensusType::Solo, 1, 2);
    world.deploy_kv("Org1MSP");
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
        &vec![
            TxValidationCode::Valid,
            TxValidationCode::MvccReadConflict
        ]
    );
    let counter = world.peers[0].get_state("kv", "counter").unwrap().unwrap();
    assert_eq!(u64::from_le_bytes(counter[..8].try_into().unwrap()), 1);
}

#[test]
fn raft_ordering_end_to_end_with_identical_chains() {
    let mut world = World::new(&["Org1", "Org2"], ConsensusType::Raft, 3, 1);
    world.deploy_kv("OR(Org1MSP, Org2MSP)");
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
    let channel = world.net.channel.clone();
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

#[test]
fn pbft_ordering_end_to_end() {
    let mut world = World::new(&["Org1"], ConsensusType::Pbft, 4, 1);
    world.deploy_kv("Org1MSP");
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
    let channel = world.net.channel.clone();
    world.ordering.assert_identical_chains(&channel);
}

#[test]
fn endorsement_from_wrong_org_set_fails_policy() {
    let mut world = World::new(&["Org1", "Org2"], ConsensusType::Solo, 1, 1);
    world.deploy_kv("Org2MSP"); // only Org2 may vouch
    let client = world.client(0, "c1", Role::Client);
    // Endorsed only by Org1's peer.
    let p = client.create_proposal("kv", "put", vec![b"k".to_vec(), b"v".to_vec()]);
    let r = client.collect_endorsements(&p, &[&world.peers[0]]).unwrap();
    let e = client.assemble_transaction(&p, &r);
    world.ordering.broadcast(e).unwrap();
    let flags = world.settle();
    assert_eq!(
        flags[0],
        vec![TxValidationCode::EndorsementPolicyFailure]
    );
    assert_eq!(world.peers[0].get_state("kv", "k").unwrap(), None);
}

#[test]
fn non_deterministic_chaincode_hurts_only_itself() {
    // The paper's claim (Sec. 3.2): non-determinism is a liveness problem
    // for the offending transaction only — the client cannot gather
    // matching endorsements, and nothing reaches the ledger.
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut world = World::new(&["Org1", "Org2"], ConsensusType::Solo, 1, 1);
    world.deploy_kv("AND(Org1MSP, Org2MSP)");
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
    let admin = world.client(0, "admin2", Role::Admin);
    let def = ChaincodeDefinition {
        name: "nondet".into(),
        version: "1".into(),
        endorsement_policy: "AND(Org1MSP, Org2MSP)".into(),
    };
    {
        let endorsers: Vec<&Peer> = world.peers.iter().collect();
        let proposal = admin.create_proposal(LSCC_NAMESPACE, "deploy", vec![def.to_wire()]);
        let responses = admin.collect_endorsements(&proposal, &endorsers).unwrap();
        let envelope = admin.assemble_transaction(&proposal, &responses);
        world.ordering.broadcast(envelope).unwrap();
    }
    world.settle();

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
    let mut world = World::new(&["Org1", "Org2"], ConsensusType::Solo, 1, 1);
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
    let state = world.ordering.nodes()[0]
        .channel(&world.net.channel)
        .unwrap();
    assert_eq!(state.config().sequence, 1);
}

#[test]
fn peer_crash_recovery_via_persistent_backend() {
    let net = TestNet::with_batch(
        &["Org1"],
        ConsensusType::Solo,
        1,
        BatchConfig {
            max_message_count: 1,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 200,
        },
    );
    let mut ordering =
        OrderingCluster::new(ConsensusType::Solo, net.orderers(1), vec![net.genesis.clone()])
            .expect("ordering");
    let genesis = ordering.deliver(&net.channel, 0).expect("genesis");
    let backend = Arc::new(MemBackend::new());
    let identity = fabric::msp::issue_identity(&net.org_cas[0], "p", Role::Peer, b"p-key");
    let admin = Client::new(
        fabric::msp::issue_identity(&net.org_cas[0], "a", Role::Admin, b"a-key"),
        net.channel.clone(),
    );
    {
        let peer = Peer::join(
            identity.clone(),
            &genesis,
            backend.clone(),
            PeerConfig::default(),
        )
        .unwrap();
        peer.install_chaincode("kv", Arc::new(kv_chaincode));
        let def = ChaincodeDefinition {
            name: "kv".into(),
            version: "1".into(),
            endorsement_policy: "Org1MSP".into(),
        };
        let proposal = admin.create_proposal(LSCC_NAMESPACE, "deploy", vec![def.to_wire()]);
        let responses = admin.collect_endorsements(&proposal, &[&peer]).unwrap();
        ordering
            .broadcast(admin.assemble_transaction(&proposal, &responses))
            .unwrap();
        while let Some(block) = ordering.deliver(&net.channel, peer.height()) {
            peer.commit_block(&block).unwrap();
        }
        let tx = admin
            .invoke(
                &[&peer],
                &mut ordering,
                "kv",
                "put",
                vec![b"durable".to_vec(), b"yes".to_vec()],
            )
            .unwrap();
        while let Some(block) = ordering.deliver(&net.channel, peer.height()) {
            peer.commit_block(&block).unwrap();
        }
        assert!(peer.get_transaction(&tx).unwrap().is_some());
        // Peer "crashes" here (dropped).
    }
    let peer = Peer::join(identity, &genesis, backend, PeerConfig::default()).unwrap();
    peer.install_chaincode("kv", Arc::new(kv_chaincode));
    assert_eq!(peer.height(), 3, "genesis + deploy + put");
    assert_eq!(
        peer.get_state("kv", "durable").unwrap(),
        Some(b"yes".to_vec())
    );
    // And it can keep committing new blocks.
    let tx = admin
        .invoke(
            &[&peer],
            &mut ordering,
            "kv",
            "put",
            vec![b"post".to_vec(), b"crash".to_vec()],
        )
        .unwrap();
    while let Some(block) = ordering.deliver(&net.channel, peer.height()) {
        peer.commit_block(&block).unwrap();
    }
    let (_, _, flag) = peer.get_transaction(&tx).unwrap().unwrap();
    assert_eq!(flag, TxValidationCode::Valid);
}
