//! The ordering-service safety properties of paper Sec. 3.3, asserted over
//! real multi-OSN runs: agreement, hash-chain integrity, no skipping, no
//! creation — plus the explicit non-guarantee (duplicates are delivered).

use fabric::ordering::testkit::{make_envelope, TestNet};
use fabric::ordering::OrderingCluster;
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::transaction::Envelope;
use fabric::primitives::wire::Wire;

fn nonce(i: u64) -> [u8; 32] {
    let mut n = [0u8; 32];
    n[..8].copy_from_slice(&i.to_le_bytes());
    n
}

fn run_workload(
    consensus: ConsensusType,
    osns: usize,
    txs: u64,
) -> (TestNet, OrderingCluster, Vec<Envelope>) {
    let net = TestNet::with_batch(
        &["Org1"],
        consensus,
        osns,
        BatchConfig {
            max_message_count: 3,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 200,
        },
    );
    let mut cluster =
        OrderingCluster::new(consensus, net.orderers(osns), vec![net.genesis.clone()])
            .expect("bootstrap");
    let client = net.client(0, "c1");
    let mut sent = Vec::new();
    for i in 0..txs {
        let env = make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default());
        cluster.broadcast(env.clone()).expect("accepted");
        sent.push(env);
        cluster.tick();
    }
    for _ in 0..20 {
        cluster.tick();
    }
    (net, cluster, sent)
}

fn assert_safety_properties(
    net: &TestNet,
    cluster: &OrderingCluster,
    sent: &[Envelope],
    osns: usize,
) {
    // Validity (liveness): every broadcast envelope is eventually in a
    // delivered block.
    let height = cluster.height(&net.channel);
    let mut delivered: Vec<Envelope> = Vec::new();
    for seq in 1..height {
        let block = cluster.deliver(&net.channel, seq).expect("below height");
        delivered.extend(block.envelopes.clone());
    }
    for env in sent {
        assert!(
            delivered.contains(env),
            "broadcast envelope must eventually be delivered"
        );
    }
    // No creation: every delivered envelope was broadcast.
    for env in &delivered {
        assert!(sent.contains(env), "no-creation violated");
    }
    // Agreement + hash chain + no skipping across every OSN.
    for osn in 0..osns {
        let mut prev = cluster
            .deliver_from(osn, &net.channel, 0)
            .expect("genesis everywhere");
        for seq in 1..height {
            let block = cluster
                .deliver_from(osn, &net.channel, seq)
                .unwrap_or_else(|| panic!("no skipping: OSN {osn} is missing block {seq}"));
            assert!(block.follows(&prev), "hash chain broken at {seq}");
            assert!(block.verify_data_hash());
            // Agreement with OSN 0.
            let reference = cluster.deliver(&net.channel, seq).expect("reference");
            assert_eq!(block.header, reference.header, "agreement violated");
            prev = block;
        }
    }
}

#[test]
fn solo_safety_properties() {
    let (net, cluster, sent) = run_workload(ConsensusType::Solo, 1, 10);
    assert_safety_properties(&net, &cluster, &sent, 1);
}

#[test]
fn raft_safety_properties() {
    let (net, cluster, sent) = run_workload(ConsensusType::Raft, 3, 12);
    assert_safety_properties(&net, &cluster, &sent, 3);
}

#[test]
fn pbft_safety_properties() {
    let (net, cluster, sent) = run_workload(ConsensusType::Pbft, 4, 9);
    assert_safety_properties(&net, &cluster, &sent, 4);
}

#[test]
fn duplicates_are_delivered_not_filtered() {
    // Paper Sec. 3.3: "we do not require the ordering service to prevent
    // transaction duplication".
    let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
    let mut cluster = OrderingCluster::new(
        ConsensusType::Solo,
        net.orderers(1),
        vec![net.genesis.clone()],
    )
    .unwrap();
    let client = net.client(0, "c1");
    let env = make_envelope(&client, &net.channel, nonce(1), TxReadWriteSet::default());
    cluster.broadcast(env.clone()).unwrap();
    cluster.broadcast(env.clone()).unwrap();
    cluster.broadcast(env).unwrap();
    for _ in 0..20 {
        cluster.tick();
    }
    let mut count = 0;
    for seq in 1..cluster.height(&net.channel) {
        count += cluster.deliver(&net.channel, seq).unwrap().envelopes.len();
    }
    assert_eq!(count, 3, "all three (identical) submissions delivered");
}

#[test]
fn deliver_is_stable_and_repeatable() {
    // "always returns the same block once it is available" (Sec. 3.3).
    let (net, cluster, _) = run_workload(ConsensusType::Raft, 3, 6);
    let b1 = cluster.deliver(&net.channel, 1).unwrap();
    let b1_again = cluster.deliver(&net.channel, 1).unwrap();
    assert_eq!(b1.to_wire(), b1_again.to_wire());
    // Blocks beyond the height are simply not yet available.
    assert!(cluster.deliver(&net.channel, 10_000).is_none());
}

/// Every envelope delivered on `osn`'s chain, in order.
fn delivered_on(cluster: &OrderingCluster, net: &TestNet, osn: usize) -> Vec<Envelope> {
    let mut out = Vec::new();
    let height = cluster.nodes()[osn].height(&net.channel).unwrap_or(0);
    for seq in 1..height {
        out.extend(
            cluster
                .deliver_from(osn, &net.channel, seq)
                .expect("below height")
                .envelopes,
        );
    }
    out
}

#[test]
fn pbft_view_change_recovers_partially_replicated_batch() {
    // A faulty primary seals a batched pre-prepare that reaches only one
    // backup (no prepare quorum — the batch is *partially replicated*),
    // then fail-stops. The relayed requests arm view-change timers on
    // every backup; the timeout elects replica 1 as the view-1 primary,
    // which re-proposes the pending payloads. Delivery-time dedup keeps
    // every envelope exactly-once whether or not a prepared certificate
    // carried the original batch into the new view.
    const OSNS: usize = 4;
    let net = TestNet::with_batch(
        &["Org1"],
        ConsensusType::Pbft,
        OSNS,
        BatchConfig {
            max_message_count: 2,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 200,
        },
    );
    let mut cluster = OrderingCluster::new(
        ConsensusType::Pbft,
        net.orderers(OSNS),
        vec![net.genesis.clone()],
    )
    .expect("bootstrap");
    let client = net.client(0, "c1");
    let envs: Vec<Envelope> = (0..5)
        .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
        .collect();

    // Baseline: one block commits in view 0 under the original primary.
    let primary = cluster.nodes()[0].consensus_leader().expect("pbft primary");
    assert_eq!(primary, 0, "view 0 primary is replica 0");
    for env in &envs[..2] {
        cluster
            .broadcast_via(primary as usize, env.clone())
            .unwrap();
    }
    for _ in 0..3 {
        cluster.tick();
    }
    assert_eq!(cluster.height(&net.channel), 2, "genesis + one block");

    // Partial replication: the primary's outbound traffic reaches only
    // backup 1. A batch submitted via backup 3 is relayed to everyone
    // (arming view-change timers), sealed by the primary, and its
    // pre-prepare lands on a single backup — short of any quorum.
    cluster.set_fault(Box::new(move |from, to, _| from != primary || to == 1));
    for verdict in cluster.broadcast_batch_via(3, envs[2..].to_vec()) {
        verdict.unwrap();
    }
    for osn in 0..OSNS {
        assert_eq!(
            cluster.nodes()[osn].height(&net.channel).unwrap(),
            2,
            "partially replicated batch must not commit (OSN {osn})"
        );
    }
    cluster.crash(primary);
    cluster.clear_fault();

    // Request timers expire; the backups view-change to view 1 and the
    // new primary re-proposes everything still pending.
    for _ in 0..40 {
        cluster.tick();
    }
    let survivor = 1usize;
    assert_eq!(
        cluster.nodes()[survivor].consensus_leader(),
        Some(1),
        "replica 1 is the view-1 primary"
    );

    cluster.assert_identical_chains(&net.channel);
    for osn in 1..OSNS {
        let all = delivered_on(&cluster, &net, osn);
        for (i, env) in envs.iter().enumerate() {
            assert_eq!(
                all.iter().filter(|e| *e == env).count(),
                1,
                "envelope {i} delivered exactly once on OSN {osn}"
            );
        }
    }
}

#[test]
fn orderer_signatures_cover_every_block() {
    let (net, cluster, _) = run_workload(ConsensusType::Raft, 3, 6);
    let msp = fabric::msp::MspRegistry::from_channel_config(&net.genesis).unwrap();
    for seq in 1..cluster.height(&net.channel) {
        let block = cluster.deliver(&net.channel, seq).unwrap();
        let sig = block
            .metadata
            .signatures
            .first()
            .expect("every cut block is signed");
        msp.validate_and_verify(&sig.signer, &block.hash(), &sig.signature)
            .expect("orderer signature verifies");
    }
}
