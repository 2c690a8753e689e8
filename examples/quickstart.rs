//! Quickstart: stand up a minimal Fabric network, deploy a chaincode, and
//! drive a transaction through execute-order-validate.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use fabric::chaincode::{ChaincodeDefinition, Stub, LSCC_NAMESPACE};
use fabric::client::Client;
use fabric::kvstore::MemBackend;
use fabric::msp::Role;
use fabric::ordering::testkit::TestNet;
use fabric::ordering::OrderingCluster;
use fabric::peer::{DeliverMux, Peer, PeerConfig, PipelineOptions};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::wire::Wire;

/// A tiny key-value chaincode: `put(key, value)` and `get(key)`.
fn kv_chaincode(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
    match stub.function() {
        "put" => {
            let key = stub.arg_string(0)?;
            let value = stub.args()[1].clone();
            stub.put_state(&key, value);
            Ok(b"ok".to_vec())
        }
        "get" => {
            let key = stub.arg_string(0)?;
            stub.get_state(&key)?.ok_or(format!("{key} not set"))
        }
        other => Err(format!("unknown function {other}")),
    }
}

fn main() {
    // 1. A network fixture: one org with a CA, a Solo ordering service.
    let net = TestNet::with_batch(
        &["Org1"],
        ConsensusType::Solo,
        1,
        BatchConfig {
            max_message_count: 1, // cut a block per transaction (demo)
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 1000,
        },
    );
    let mut ordering = OrderingCluster::new(
        ConsensusType::Solo,
        net.orderers(1),
        vec![net.genesis.clone()],
    )
    .expect("bootstrap ordering");
    let genesis = ordering.deliver(&net.channel, 0).expect("genesis block");
    println!(
        "channel '{}' bootstrapped, genesis hash {}",
        net.channel,
        &fabric::crypto::hex(&genesis.hash())[..16]
    );

    // 2. A peer joins the channel and installs the chaincode binary.
    let peer_identity =
        fabric::msp::issue_identity(&net.org_cas[0], "peer0.org1", Role::Peer, b"peer0");
    let peer = Peer::join(
        peer_identity,
        &genesis,
        Arc::new(MemBackend::new()),
        PeerConfig::default(),
    )
    .expect("peer joins channel");
    peer.install_chaincode("kv", Arc::new(kv_chaincode));
    // The peer validates and commits delivered blocks through its deliver
    // mux: the pipelined committer, on a pool of VSCC workers.
    let mux = DeliverMux::new(PeerConfig::default().vscc_parallelism);
    mux.attach(net.channel.clone(), &peer, PipelineOptions::default())
        .expect("commit pipeline attaches");

    // 3. An admin deploys the chaincode definition through LSCC.
    let admin = fabric::msp::issue_identity(&net.org_cas[0], "admin", Role::Admin, b"admin");
    let admin_client = Client::new(admin, net.channel.clone());
    let definition = ChaincodeDefinition {
        name: "kv".into(),
        version: "1.0".into(),
        endorsement_policy: "Org1MSP.peer".into(),
    };
    let proposal =
        admin_client.create_proposal(LSCC_NAMESPACE, "deploy", vec![definition.to_wire()]);
    let responses = admin_client
        .collect_endorsements(&proposal, &[&peer])
        .expect("deploy endorsed");
    let envelope = admin_client.assemble_transaction(&proposal, &responses);
    ordering.broadcast(envelope).expect("deploy ordered");
    commit_available(&ordering, &net, &mux);
    println!(
        "chaincode 'kv' deployed with policy {:?}",
        definition.endorsement_policy
    );

    // 4. A client invokes put("hello", "world"): execute → order → validate.
    let client_identity =
        fabric::msp::issue_identity(&net.org_cas[0], "client1", Role::Client, b"client1");
    let client = Client::new(client_identity, net.channel.clone());
    let tx_id = client
        .invoke(
            &[&peer],
            &mut ordering,
            "kv",
            "put",
            vec![b"hello".to_vec(), b"world".to_vec()],
        )
        .expect("invoke succeeds");
    commit_available(&ordering, &net, &mux);
    let (_, _, flag) = peer
        .get_transaction(&tx_id)
        .expect("query ok")
        .expect("tx committed");
    println!(
        "transaction {} committed: {:?}",
        &tx_id.to_hex()[..16],
        flag
    );

    // 5. Query the state (simulation only, nothing ordered).
    let value = client
        .query(&peer, "kv", "get", vec![b"hello".to_vec()])
        .expect("query succeeds");
    println!("kv['hello'] = {:?}", String::from_utf8_lossy(&value));
    println!("ledger height: {} blocks", peer.height());
}

/// Delivers every block the orderer has cut that the peer hasn't seen to
/// its mux, and waits on each block's commit event.
fn commit_available(ordering: &OrderingCluster, net: &TestNet, mux: &DeliverMux) {
    let channel = &net.channel;
    let events = mux.events(channel).expect("channel attached");
    let mut next = mux.committed_height(channel);
    while let Some(block) = ordering.deliver(channel, next) {
        mux.deliver(channel, next, &block.to_wire())
            .expect("block routes");
        let event = events.recv().expect("block commits");
        for flag in event.validity {
            assert!(flag.is_valid(), "unexpected invalid tx: {flag:?}");
        }
        next += 1;
    }
}
