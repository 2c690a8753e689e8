//! Fault-injection and dissemination integration tests: chaincode DoS
//! containment, gossip-based block delivery to non-endorsing peers, and
//! Byzantine orderer behaviour at the consensus layer.

use std::sync::Arc;
use std::time::Duration;

use fabric::chaincode::{RuntimeConfig, Stub};
use fabric::gossip::{GossipConfig, GossipNode, GossipOutput};
use fabric::msp::Role;
use fabric::net::{Net, NetSpec, PeerSpec};
use fabric::ordering::testkit::make_envelope;
use fabric::peer::{Deliver, DeliverMux, Peer, PeerConfig, PeerError, PipelineOptions};
use fabric::primitives::block::Block;
use fabric::primitives::config::BatchConfig;
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::wire::Wire;

/// One org on Solo; every transaction is cut into its own block.
fn one_tx_blocks() -> NetSpec {
    NetSpec {
        batch: BatchConfig {
            max_message_count: 1,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 1000,
        },
        ..NetSpec::new(&["Org1"])
    }
}

/// A peer with the default configuration (guarded chaincode, host-wide
/// VSCC pool).
fn default_peer(name: &str) -> PeerSpec {
    PeerSpec {
        config: PeerConfig::default(),
        ..PeerSpec::new(0, name, 1)
    }
}

#[test]
fn dos_chaincode_cannot_stall_the_peer() {
    // Paper Sec. 3.2: an endorser unilaterally aborts a runaway chaincode;
    // only that proposal's liveness suffers.
    let mut spec = PeerSpec::new(0, "p", 1);
    spec.config.runtime = RuntimeConfig {
        exec_timeout: Some(Duration::from_millis(150)),
    };
    let net = Net::new(NetSpec::new(&["Org1"]).peer(spec));
    let peer = &net.peers[0];
    peer.install_chaincode(
        "evil",
        Arc::new(|_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            loop {
                std::hint::spin_loop();
            }
        }),
    );
    peer.install_chaincode(
        "good",
        Arc::new(|stub: &mut Stub<'_>| {
            stub.put_state("k", b"v".to_vec());
            Ok(vec![])
        }),
    );
    let client = net.client(0, "c", Role::Client);
    // The evil proposal times out...
    let evil = client.create_proposal("evil", "spin", vec![]);
    let started = std::time::Instant::now();
    let result = peer.process_proposal(&evil);
    assert!(matches!(
        result,
        Err(PeerError::Chaincode(
            fabric::chaincode::ChaincodeError::Timeout
        ))
    ));
    assert!(started.elapsed() < Duration::from_secs(2));
    // ...and an honest proposal right after works fine.
    let good = client.create_proposal("good", "go", vec![]);
    peer.process_proposal(&good).expect("peer still serves");
}

#[test]
fn gossip_delivers_ordered_blocks_to_non_endorsing_peers() {
    // Wire the gossip overlay between a leader (pulling from the ordering
    // service) and followers; every follower commits the same chain.
    let mut net = Net::new(one_tx_blocks());
    let client = net.fixtures.client(0, "c1");
    for i in 0..5u64 {
        let mut nonce = [0u8; 32];
        nonce[..8].copy_from_slice(&i.to_le_bytes());
        net.ordering
            .broadcast(make_envelope(
                &client,
                &net.channel,
                nonce,
                TxReadWriteSet::default(),
            ))
            .unwrap();
    }

    // Three peers in one org; ids 1..=3; node 1 becomes leader.
    let bootstrap: Vec<(u64, String)> = (1..=3).map(|id| (id, "Org1MSP".to_string())).collect();
    let mut gossips: Vec<GossipNode> = (1..=3)
        .map(|id| {
            GossipNode::new(
                id,
                "Org1MSP",
                &bootstrap,
                vec![net.channel.clone()],
                GossipConfig::default(),
                7,
            )
        })
        .collect();
    let peers: Vec<Peer> = ["p0", "p1", "p2"]
        .iter()
        .map(|name| net.join(default_peer(name)))
        .collect();

    // Every peer's gossip intake feeds its deliver mux; blocks validate
    // and commit asynchronously while gossip keeps routing, and the mux
    // drops gossip's at-least-once redeliveries.
    let muxes: Vec<DeliverMux> = peers
        .iter()
        .map(|peer| {
            let mux = DeliverMux::new(1);
            mux.attach(net.channel.clone(), peer, PipelineOptions::default())
                .unwrap();
            mux
        })
        .collect();

    // Drive gossip: leaders pull from ordering, outputs route messages and
    // block deliveries.
    let mut pending: std::collections::VecDeque<(u64, u64, fabric::gossip::GossipMessage)> =
        Default::default();
    for _ in 0..30 {
        for (idx, gossip) in gossips.iter_mut().enumerate() {
            let node_id = gossip.id();
            let outputs = gossip.tick();
            for output in outputs {
                match output {
                    GossipOutput::PullFromOrderer { channel, next } => {
                        // Only the leader should be pulling.
                        assert_eq!(node_id, 1, "only the org leader pulls");
                        if let Some(block) = net.ordering.deliver(&channel, next) {
                            let more = gossip.on_block_from_orderer(
                                &channel,
                                block.header.number,
                                block.to_wire(),
                            );
                            for m in more {
                                route(node_id, m, &mut pending, &muxes[idx], gossip);
                            }
                        }
                    }
                    other => route(node_id, other, &mut pending, &muxes[idx], gossip),
                }
            }
        }
        while let Some((from, to, message)) = pending.pop_front() {
            let idx = (to - 1) as usize;
            let outputs = gossips[idx].step(from, message);
            for output in outputs {
                route(to, output, &mut pending, &muxes[idx], &mut gossips[idx]);
            }
        }
    }

    fn route(
        from: u64,
        output: GossipOutput,
        pending: &mut std::collections::VecDeque<(u64, u64, fabric::gossip::GossipMessage)>,
        mux: &DeliverMux,
        gossip: &mut GossipNode,
    ) {
        match output {
            GossipOutput::Send { to, message } => pending.push_back((from, to, message)),
            GossipOutput::DeliverBlock {
                channel,
                block_num,
                payload,
                from: provider,
            } => {
                let verdict = mux
                    .deliver_from_gossip(gossip, &channel, block_num, &payload, provider)
                    .expect("mux accepts gossip block");
                assert_ne!(verdict, Deliver::Saturated, "five blocks fit the window");
            }
            GossipOutput::PullFromOrderer { .. } => {}
            GossipOutput::DeliverStateSync { .. } => {}
            GossipOutput::SnapshotCatchup { .. } => {}
        }
    }

    // All peers converged to the full chain (5 tx blocks + genesis).
    for (i, mux) in muxes.into_iter().enumerate() {
        mux.wait_committed(&net.channel, 6)
            .expect("pipeline drains");
        let stats = mux.close().expect("pipeline closes clean");
        assert_eq!(
            stats[&net.channel].blocks, 5,
            "peer {i} committed the 5 tx blocks"
        );
    }
    for (i, peer) in peers.iter().enumerate() {
        assert_eq!(peer.height(), 6, "peer {i} converged via gossip");
    }
}

#[test]
fn mislabelled_gossip_payloads_quarantine_the_provider() {
    // A malicious relay feeds garbage through the deliver mux; the intake
    // verdict flows back into gossip reputation and quarantines it, while
    // an honest provider delivering real blocks is credited.
    let mut net = Net::new(one_tx_blocks());
    let peer = net.join(default_peer("p"));
    let mux = DeliverMux::new(1);
    mux.attach(net.channel.clone(), &peer, PipelineOptions::default())
        .unwrap();

    let mut gossip = GossipNode::new(
        1,
        "Org1MSP",
        &[(2, "Org1MSP".into()), (3, "Org1MSP".into())],
        vec![net.channel.clone()],
        GossipConfig::default(), // quarantine_threshold: 3
        7,
    );
    gossip.tick();
    for p in [2, 3] {
        gossip.step(
            p,
            fabric::gossip::GossipMessage::Membership { alive: vec![] },
        );
    }

    // Peer 2 relays undecodable payloads labelled as block 1.
    for i in 0..3u8 {
        let err = mux.deliver_from_gossip(&mut gossip, &net.channel, 1, &[i; 32], Some(2));
        assert!(matches!(err, Err(PeerError::BadBlock(_))));
    }
    assert!(gossip.is_quarantined(2), "three bad payloads quarantine");
    assert!(!gossip.alive_peers().contains(&2));
    // Its pushes are now dropped on ingress.
    let out = gossip.step(
        2,
        fabric::gossip::GossipMessage::BlockPush {
            channel: net.channel.clone(),
            block_num: 1,
            payload: vec![0; 8],
        },
    );
    assert!(out.is_empty());

    // An unattached channel is a local problem: nobody gets charged.
    let other = fabric::primitives::ids::ChannelId::new("unattached");
    assert!(mux
        .deliver_from_gossip(&mut gossip, &other, 1, &[0; 8], Some(3))
        .is_err());
    assert!(!gossip.is_quarantined(3));

    // Peer 3 relays the genuine block: accepted, reputation credited.
    let block1 = {
        let client = net.fixtures.client(0, "c1");
        net.ordering
            .broadcast(make_envelope(
                &client,
                &net.channel,
                [7u8; 32],
                TxReadWriteSet::default(),
            ))
            .unwrap();
        net.ordering.deliver(&net.channel, 1).unwrap()
    };
    mux.deliver_from_gossip(&mut gossip, &net.channel, 1, &block1.to_wire(), Some(3))
        .expect("genuine block accepted");
    assert!(!gossip.is_quarantined(3));
    mux.wait_committed(&net.channel, 2).unwrap();
    mux.close().unwrap();
}

#[test]
fn tampered_block_from_gossip_rejected_by_peer() {
    // A malicious gossip relay alters a block payload; the receiving peer
    // detects it via the data hash / orderer signature and refuses it.
    let mut net = Net::new(one_tx_blocks());
    let genesis = net.genesis.clone();
    let client = net.fixtures.client(0, "c1");
    net.ordering
        .broadcast(make_envelope(
            &client,
            &net.channel,
            [1u8; 32],
            TxReadWriteSet::default(),
        ))
        .unwrap();
    let block = net.ordering.deliver(&net.channel, 1).unwrap();
    // A caller-driven peer, committed through the sequential reference.
    let peer = net.join(default_peer("p"));

    // Tamper with the payload but keep the header: data-hash check fires.
    let mut tampered = block.clone();
    tampered.envelopes[0].signature = vec![0xff; 64];
    assert!(matches!(
        peer.commit_block(&tampered),
        Err(PeerError::BadBlock(_))
    ));

    // Recompute the data hash too (a full forgery): now the orderer
    // signature check fires instead.
    let mut forged = Block::new(1, genesis.hash(), tampered.envelopes.clone());
    forged.metadata.signatures = block.metadata.signatures.clone();
    assert!(matches!(
        peer.commit_block(&forged),
        Err(PeerError::Identity(_))
    ));

    // The genuine block still commits.
    peer.commit_block(&block).expect("authentic block accepted");

    // The same tampering fed through the deliver mux: its header still
    // decodes and matches, so the mux submits it; the admitter verifies
    // integrity before VSCC, the channel's pipeline stops with the error
    // (which the mux reports), and nothing reaches the ledger.
    let peer2 = net.join(default_peer("p2"));
    let mux = DeliverMux::new(1);
    mux.attach(net.channel.clone(), &peer2, PipelineOptions::default())
        .unwrap();
    let verdict = mux.deliver(&net.channel, 1, &tampered.to_wire());
    assert_eq!(verdict.expect("submission only queues"), Deliver::Submitted);
    assert!(matches!(mux.close(), Err(PeerError::BadBlock(_))));
    assert_eq!(peer2.height(), 1, "tampered block never committed");

    // A fresh mux on the same peer accepts the genuine block.
    let mux = DeliverMux::new(1);
    mux.attach(net.channel.clone(), &peer2, PipelineOptions::default())
        .unwrap();
    let verdict = mux.deliver(&net.channel, 1, &block.to_wire());
    assert_eq!(verdict.expect("genuine block accepted"), Deliver::Submitted);
    mux.wait_committed(&net.channel, 2).expect("commits");
    mux.close().expect("clean close");
    assert_eq!(peer2.height(), 2);
}

#[test]
fn byzantine_equivocation_does_not_split_ordering() {
    // Drive the PBFT consensus directly with an equivocating primary and
    // confirm the ordering layer cannot commit two different values for
    // one sequence number (quorum intersection).
    use fabric::pbft::{Output, PbftConfig, PbftMessage, PbftNode};
    let n = 4;
    let mut nodes: Vec<PbftNode> = (0..n as u64)
        .map(|id| PbftNode::new(id, n, PbftConfig::default()))
        .collect();
    let payload_a = b"value-A".to_vec();
    let payload_b = b"value-B".to_vec();
    let pp = |payload: &[u8]| PbftMessage::PrePrepare {
        view: 0,
        seq: 1,
        digest: fabric::crypto::digest(payload),
        payload: payload.to_vec(),
    };
    // Primary 0 equivocates: A to replicas 1-2, B to replica 3.
    let mut queue: Vec<(u64, u64, PbftMessage)> = vec![
        (0, 1, pp(&payload_a)),
        (0, 2, pp(&payload_a)),
        (0, 3, pp(&payload_b)),
    ];
    let mut delivered: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut guard = 0;
    while let Some((from, to, message)) = queue.pop() {
        guard += 1;
        assert!(guard < 10_000);
        for output in nodes[to as usize].step(from, message) {
            match output {
                Output::Send { to: next, message } => queue.push((to, next, message)),
                Output::Delivered { seq, data } => delivered.push((seq, data)),
            }
        }
    }
    let values: std::collections::HashSet<Vec<u8>> =
        delivered.into_iter().map(|(_, d)| d).collect();
    assert!(
        values.len() <= 1,
        "equivocation must never commit two values: {values:?}"
    );
}
