//! Multiple channels on one ordering service (paper Sec. 3.1): channels
//! partition state, each forms its own hash chain, and cross-channel
//! ordering is uncoordinated. The second half exercises the peer-side
//! counterpart — gossip deliver streams for several channels feeding one
//! `DeliverMux`, whose per-channel validation pipelines share one global
//! VSCC worker pool.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric::chaincode::Vscc;
use fabric::gossip::{GossipConfig, GossipNode, GossipOutput};
use fabric::kvstore::MemBackend;
use fabric::ledger::Ledger;
use fabric::msp::{MspRegistry, Role};
use fabric::ordering::testkit::{make_envelope, TestNet};
use fabric::ordering::{OrderingCluster, OrderingNode};
use fabric::peer::{Deliver, DeliverMux, Peer, PeerConfig, PeerError, PipelineOptions};
use fabric::primitives::block::Block;
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::{ChannelId, TxValidationCode};
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::transaction::{Envelope, Transaction};
use fabric::primitives::wire::Wire;

/// A VSCC with a fixed, deterministic cost per transaction, so fairness
/// and credit tests are not at the mercy of debug-build ECDSA timings.
struct SleepVscc(Duration);

impl Vscc for SleepVscc {
    fn validate(
        &self,
        _tx: &Transaction,
        _msp: &MspRegistry,
        _channel_orgs: &[String],
        _ledger: &Ledger,
    ) -> TxValidationCode {
        std::thread::sleep(self.0);
        TxValidationCode::Valid
    }
}

/// Builds `n_blocks` blocks of `txs_per_block` transactions chained onto
/// `genesis`. The same signed envelopes are reused across blocks — tx-id
/// dedup marks the repeats invalid at rw-check, which is irrelevant to
/// the scheduling/latency behaviour under test and keeps debug-build
/// ECDSA signing off the test's critical path.
fn sleepy_chain(
    net: &TestNet,
    genesis: &Block,
    channel: &ChannelId,
    n_blocks: u64,
    txs_per_block: u64,
    salt: u64,
) -> Vec<Block> {
    let client = net.client(0, "fair-client");
    let envelopes: Vec<Envelope> = (0..txs_per_block)
        .map(|i| {
            make_envelope(
                &client,
                channel,
                nonce(salt * 1009 + i),
                TxReadWriteSet::default(),
            )
        })
        .collect();
    let mut prev = genesis.hash();
    (0..n_blocks)
        .map(|b| {
            let block = Block::new(b + 1, prev, envelopes.clone());
            prev = block.hash();
            block
        })
        .collect()
}

fn nonce(i: u64) -> [u8; 32] {
    let mut n = [0u8; 32];
    n[..8].copy_from_slice(&i.to_le_bytes());
    n
}

#[test]
fn channels_are_isolated_chains() {
    // Two channels served by the same OSN cluster.
    let net = TestNet::with_batch(
        &["Org1"],
        ConsensusType::Solo,
        1,
        BatchConfig {
            max_message_count: 1,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 1000,
        },
    );
    let mut genesis_a = net.genesis.clone();
    genesis_a.channel = ChannelId::new("channel-a");
    let mut genesis_b = net.genesis.clone();
    genesis_b.channel = ChannelId::new("channel-b");
    let mut cluster = OrderingCluster::new(
        ConsensusType::Solo,
        net.orderers(1),
        vec![genesis_a, genesis_b],
    )
    .expect("two channels bootstrap");

    let client = net.client(0, "c1");
    let a = ChannelId::new("channel-a");
    let b = ChannelId::new("channel-b");
    // 3 txs on A, 1 tx on B.
    for i in 0..3 {
        cluster
            .broadcast(make_envelope(
                &client,
                &a,
                nonce(i),
                TxReadWriteSet::default(),
            ))
            .unwrap();
    }
    cluster
        .broadcast(make_envelope(
            &client,
            &b,
            nonce(100),
            TxReadWriteSet::default(),
        ))
        .unwrap();

    // Heights are independent.
    assert_eq!(cluster.height(&a), 4, "genesis + 3 blocks");
    assert_eq!(cluster.height(&b), 2, "genesis + 1 block");

    // Each channel forms its own hash chain from its own genesis.
    for channel in [&a, &b] {
        let mut prev = cluster.deliver(channel, 0).unwrap();
        for seq in 1..cluster.height(channel) {
            let block = cluster.deliver(channel, seq).unwrap();
            assert!(block.follows(&prev));
            // Every envelope targets this channel only.
            for env in &block.envelopes {
                assert_eq!(env.channel(), channel);
            }
            prev = block;
        }
    }
    // Chains are distinct.
    assert_ne!(
        cluster.deliver(&a, 0).unwrap().hash(),
        cluster.deliver(&b, 0).unwrap().hash()
    );
}

#[test]
fn envelope_for_one_channel_never_appears_on_another() {
    let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
    let mut genesis_a = net.genesis.clone();
    genesis_a.channel = ChannelId::new("channel-a");
    let mut genesis_b = net.genesis.clone();
    genesis_b.channel = ChannelId::new("channel-b");
    let mut cluster = OrderingCluster::new(
        ConsensusType::Solo,
        net.orderers(1),
        vec![genesis_a, genesis_b],
    )
    .unwrap();
    let client = net.client(0, "c1");
    let a = ChannelId::new("channel-a");
    let b = ChannelId::new("channel-b");
    let env = make_envelope(&client, &a, nonce(1), TxReadWriteSet::default());
    let tx_id = env.tx_id();
    cluster.broadcast(env).unwrap();
    for _ in 0..20 {
        cluster.tick();
    }
    let on_channel = |cluster: &OrderingCluster, ch: &ChannelId| -> bool {
        (0..cluster.height(ch)).any(|seq| {
            cluster
                .deliver(ch, seq)
                .unwrap()
                .envelopes
                .iter()
                .any(|e| e.tx_id() == tx_id)
        })
    };
    assert!(on_channel(&cluster, &a));
    assert!(!on_channel(&cluster, &b));
}

#[test]
fn per_channel_state_access() {
    // OrderingNode::channel exposes per-channel config and chain state.
    let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
    let mut genesis_a = net.genesis.clone();
    genesis_a.channel = ChannelId::new("channel-a");
    let cluster =
        OrderingCluster::new(ConsensusType::Solo, net.orderers(1), vec![genesis_a]).unwrap();
    let node: &OrderingNode = &cluster.nodes()[0];
    let state = node.channel(&ChannelId::new("channel-a")).unwrap();
    assert_eq!(state.config().sequence, 0);
    assert!(node.channel(&ChannelId::new("nope")).is_none());
}

/// One ordering service carrying two channels, one-envelope batches.
fn two_channel_ordering() -> (TestNet, ChannelId, ChannelId, OrderingCluster) {
    let net = TestNet::with_batch(
        &["Org1"],
        ConsensusType::Solo,
        1,
        BatchConfig {
            max_message_count: 1,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 1000,
        },
    );
    let chan_a = ChannelId::new("channel-a");
    let chan_b = ChannelId::new("channel-b");
    let mut genesis_a = net.genesis.clone();
    genesis_a.channel = chan_a.clone();
    let mut genesis_b = net.genesis.clone();
    genesis_b.channel = chan_b.clone();
    let ordering = OrderingCluster::new(
        ConsensusType::Solo,
        net.orderers(1),
        vec![genesis_a, genesis_b],
    )
    .unwrap();
    (net, chan_a, chan_b, ordering)
}

fn join_peer(net: &TestNet, genesis: &Block, name: &str) -> Peer {
    let identity = fabric::msp::issue_identity(
        &net.org_cas[0],
        name,
        Role::Peer,
        format!("mc-{name}").as_bytes(),
    );
    Peer::join(
        identity,
        genesis,
        Arc::new(MemBackend::new()),
        PeerConfig::default(),
    )
    .unwrap()
}

/// Broadcasts `count` distinct envelopes on each channel.
fn broadcast_on_both(
    ordering: &mut OrderingCluster,
    net: &TestNet,
    chan_a: &ChannelId,
    chan_b: &ChannelId,
    count: u64,
) {
    let client = net.client(0, "c1");
    for i in 0..count {
        for channel in [chan_a, chan_b] {
            let mut n = nonce(i);
            n[8] = channel.0.len() as u8;
            n[9] = channel.0.as_bytes()[channel.0.len() - 1];
            ordering
                .broadcast(make_envelope(
                    &client,
                    channel,
                    n,
                    TxReadWriteSet::default(),
                ))
                .unwrap();
        }
    }
}

#[test]
fn deliver_mux_dedups_rejects_gaps_and_garbage() {
    let (net, chan_a, chan_b, mut ordering) = two_channel_ordering();
    broadcast_on_both(&mut ordering, &net, &chan_a, &chan_b, 3);

    let genesis_a = ordering.deliver(&chan_a, 0).unwrap();
    let genesis_b = ordering.deliver(&chan_b, 0).unwrap();
    let peer_a = join_peer(&net, &genesis_a, "pa");
    let peer_b = join_peer(&net, &genesis_b, "pb");

    let mux = DeliverMux::new(2);
    mux.attach(chan_a.clone(), &peer_a, PipelineOptions::default())
        .expect("channel A attaches");
    mux.attach(chan_b.clone(), &peer_b, PipelineOptions::default())
        .expect("channel B attaches");
    assert!(
        mux.attach(chan_a.clone(), &peer_a, PipelineOptions::default())
            .is_err(),
        "double attach rejected"
    );

    // Deliver both channels' chains, each block twice (a gossip push and
    // a pull both surface it): the second copy is a dropped duplicate,
    // not an error and not a double commit.
    for number in 1..=3u64 {
        for channel in [&chan_a, &chan_b] {
            let payload = ordering.deliver(channel, number).unwrap().to_wire();
            assert_eq!(
                mux.deliver(channel, number, &payload).unwrap(),
                Deliver::Submitted
            );
            assert_eq!(
                mux.deliver(channel, number, &payload).unwrap(),
                Deliver::Duplicate,
                "redelivery dropped"
            );
        }
    }
    // A stale redelivery from far back is likewise dropped.
    let old = ordering.deliver(&chan_a, 1).unwrap().to_wire();
    assert_eq!(mux.deliver(&chan_a, 1, &old).unwrap(), Deliver::Duplicate);

    // Mislabelled numbers, undecodable payloads, and unknown channels are
    // hard errors; a delivery beyond the parking window is a polite
    // `Saturated` refusal (the provider backs off, not an error path).
    let future = ordering.deliver(&chan_a, 3).unwrap().to_wire();
    assert!(matches!(
        mux.deliver(&chan_a, 9, &future), // payload says block 3
        Err(PeerError::BadBlock(_))
    ));
    assert!(matches!(
        mux.deliver(&chan_a, 4, b"\xff\xfe not a block"),
        Err(PeerError::BadBlock(_))
    ));
    assert!(matches!(
        mux.deliver(&chan_a, 4, &future), // payload says block 3
        Err(PeerError::BadBlock(_))
    ));
    assert!(matches!(
        mux.deliver(&ChannelId::new("nope"), 1, &future),
        Err(PeerError::BadBlock(_))
    ));
    // next == 4, default park_window == 32: block 40 is out of range and
    // refused before the payload is even decoded.
    assert_eq!(
        mux.deliver(&chan_a, 40, &future).unwrap(),
        Deliver::Saturated
    );
    assert_eq!(mux.gauges(&chan_a).unwrap().saturated, 1);

    mux.wait_committed(&chan_a, 4).expect("channel A drains");
    mux.wait_committed(&chan_b, 4).expect("channel B drains");
    let stats = mux.close().expect("mux closes clean");
    assert_eq!(stats[&chan_a].blocks, 3, "channel A committed once each");
    assert_eq!(stats[&chan_b].blocks, 3, "channel B committed once each");
    assert_eq!(peer_a.height(), 4);
    assert_eq!(peer_b.height(), 4);
    assert_ne!(
        peer_a.ledger().last_hash(),
        peer_b.ledger().last_hash(),
        "channels hold distinct blockchains"
    );
}

#[test]
fn gossip_delivers_two_channels_through_one_mux() {
    // Two gossip nodes, each hosting both channels; node 1 leads and
    // pulls from ordering. Every `DeliverBlock` output — including
    // gossip's at-least-once redeliveries — is fed straight into the
    // node's DeliverMux, which owns dedup and ordering per channel.
    let (net, chan_a, chan_b, mut ordering) = two_channel_ordering();
    broadcast_on_both(&mut ordering, &net, &chan_a, &chan_b, 4);
    let genesis_a = ordering.deliver(&chan_a, 0).unwrap();
    let genesis_b = ordering.deliver(&chan_b, 0).unwrap();

    let bootstrap: Vec<(u64, String)> = (1..=2).map(|id| (id, "Org1MSP".to_string())).collect();
    let mut gossips: Vec<GossipNode> = (1..=2)
        .map(|id| {
            GossipNode::new(
                id,
                "Org1MSP",
                &bootstrap,
                vec![chan_a.clone(), chan_b.clone()],
                GossipConfig::default(),
                7,
            )
        })
        .collect();
    // One mux per gossip node; each mux holds both channels' peers on a
    // two-worker shared pool.
    let peers: Vec<(Peer, Peer)> = (0..2)
        .map(|i| {
            (
                join_peer(&net, &genesis_a, &format!("ga{i}")),
                join_peer(&net, &genesis_b, &format!("gb{i}")),
            )
        })
        .collect();
    let muxes: Vec<DeliverMux> = peers
        .iter()
        .map(|(pa, pb)| {
            let mux = DeliverMux::new(2);
            mux.attach(chan_a.clone(), pa, PipelineOptions::default())
                .unwrap();
            mux.attach(chan_b.clone(), pb, PipelineOptions::default())
                .unwrap();
            mux
        })
        .collect();

    type Pending = std::collections::VecDeque<(u64, u64, fabric::gossip::GossipMessage)>;
    let route = |output: GossipOutput,
                 from: u64,
                 idx: usize,
                 pending: &mut Pending,
                 gossip: &mut GossipNode| {
        match output {
            GossipOutput::Send { to, message } => pending.push_back((from, to, message)),
            GossipOutput::DeliverBlock {
                channel,
                block_num,
                payload,
                from: provider,
            } => {
                // The mux absorbs redeliveries (`Deliver::Duplicate`);
                // anything else must be an in-order submit or park. The
                // intake verdict flows back into gossip's reputation
                // scoring against the supplying peer.
                muxes[idx]
                    .deliver_from_gossip(gossip, &channel, block_num, &payload, provider)
                    .expect("gossip delivery is contiguous per channel");
            }
            GossipOutput::PullFromOrderer { .. } => {}
            GossipOutput::DeliverStateSync { .. } => {}
            GossipOutput::SnapshotCatchup { .. } => {}
        }
    };
    let mut pending: Pending = Default::default();
    for _ in 0..30 {
        for idx in 0..gossips.len() {
            // The driver loop feeds each channel's remaining deliver
            // credits to gossip before every tick, as a production
            // driver would — adverts then carry live headroom.
            for chan in [&chan_a, &chan_b] {
                if let Some(credits) = muxes[idx].credits(chan) {
                    gossips[idx].set_deliver_credits(chan, credits);
                }
            }
            let node_id = gossips[idx].id();
            for output in gossips[idx].tick() {
                if let GossipOutput::PullFromOrderer { channel, next } = output {
                    assert_eq!(node_id, 1, "only the org leader pulls");
                    if let Some(block) = ordering.deliver(&channel, next) {
                        let more = gossips[idx].on_block_from_orderer(
                            &channel,
                            block.header.number,
                            block.to_wire(),
                        );
                        for m in more {
                            route(m, node_id, idx, &mut pending, &mut gossips[idx]);
                        }
                    }
                } else {
                    route(output, node_id, idx, &mut pending, &mut gossips[idx]);
                }
            }
        }
        while let Some((from, to, message)) = pending.pop_front() {
            let idx = (to - 1) as usize;
            for output in gossips[idx].step(from, message) {
                route(output, to, idx, &mut pending, &mut gossips[idx]);
            }
        }
    }
    // Honest providers were never quarantined by the verdict loop.
    for gossip in &gossips {
        assert_eq!(gossip.stats().quarantines, 0);
    }

    // Both nodes converged on both channels: genesis + 4 tx blocks each.
    for (idx, mux) in muxes.iter().enumerate() {
        mux.wait_committed(&chan_a, 5)
            .unwrap_or_else(|_| panic!("node {idx} channel A drains"));
        mux.wait_committed(&chan_b, 5)
            .unwrap_or_else(|_| panic!("node {idx} channel B drains"));
    }
    for mux in muxes {
        let stats = mux.close().expect("mux closes clean");
        assert_eq!(stats[&chan_a].blocks, 4);
        assert_eq!(stats[&chan_b].blocks, 4);
    }
    for (pa, pb) in &peers {
        assert_eq!(pa.height(), 5);
        assert_eq!(pb.height(), 5);
    }
    assert_eq!(
        peers[0].0.ledger().last_hash(),
        peers[1].0.ledger().last_hash(),
        "channel A chains agree across nodes"
    );
    assert_eq!(
        peers[0].1.ledger().last_hash(),
        peers[1].1.ledger().last_hash(),
        "channel B chains agree across nodes"
    );
}

/// A block arriving more than one ahead of the next expected number is
/// parked (bounded by `park_window`) and re-admitted in order once the
/// gap backfills; beyond the window it is refused with `Saturated`, not
/// an error.
#[test]
fn deliver_mux_parks_gap_window_and_readmits_in_order() {
    let (net, chan_a, _chan_b, ordering) = two_channel_ordering();
    let genesis = ordering.deliver(&chan_a, 0).unwrap();
    let peer = join_peer(&net, &genesis, "gap-peer");
    let blocks = sleepy_chain(&net, &genesis, &chan_a, 5, 1, 7);
    let wire: Vec<Vec<u8>> = blocks.iter().map(Wire::to_wire).collect();

    let mux = DeliverMux::new(2);
    mux.attach(
        chan_a.clone(),
        &peer,
        PipelineOptions {
            park_window: 4,
            ..PipelineOptions::default()
        },
    )
    .unwrap();

    // next == 1, so the window is [1, 5): 3 parks, 5 is refused.
    assert_eq!(mux.deliver(&chan_a, 3, &wire[2]).unwrap(), Deliver::Parked);
    assert_eq!(
        mux.deliver(&chan_a, 5, &wire[4]).unwrap(),
        Deliver::Saturated
    );
    assert_eq!(mux.deliver(&chan_a, 2, &wire[1]).unwrap(), Deliver::Parked);
    assert_eq!(
        mux.deliver(&chan_a, 3, &wire[2]).unwrap(),
        Deliver::Duplicate,
        "gap-parked blocks dedup re-deliveries too"
    );
    assert_eq!(peer.height(), 1, "nothing submits while block 1 is missing");

    // The missing predecessor lands: 1, 2, 3 all submit in order at once.
    assert_eq!(
        mux.deliver(&chan_a, 1, &wire[0]).unwrap(),
        Deliver::Submitted
    );
    assert_eq!(
        mux.deliver(&chan_a, 4, &wire[3]).unwrap(),
        Deliver::Submitted
    );
    // The window has advanced past 5, so the refused block is welcome now.
    assert_eq!(
        mux.deliver(&chan_a, 5, &wire[4]).unwrap(),
        Deliver::Submitted
    );

    mux.wait_committed(&chan_a, 6).expect("channel drains");
    let gauges = mux.gauges(&chan_a).unwrap();
    assert_eq!(gauges.saturated, 1);
    assert_eq!(gauges.duplicates, 1);
    assert!(
        gauges.parked_peak >= 2,
        "3 and 2 were parked simultaneously"
    );
    let stats = mux.close().expect("mux closes clean");
    assert_eq!(
        stats[&chan_a].blocks, 5,
        "each block committed exactly once"
    );
    assert_eq!(peer.height(), 6);
}

/// A gossip re-delivery of a block that is parked awaiting credits (not
/// a gap — it is the next expected block, the window is just full) must
/// be dropped as a duplicate, not double-parked or double-submitted.
#[test]
fn deliver_mux_dedups_duplicate_of_credit_stalled_block() {
    let (net, chan_a, _chan_b, ordering) = two_channel_ordering();
    let genesis = ordering.deliver(&chan_a, 0).unwrap();
    let peer = join_peer(&net, &genesis, "stall-peer");
    // A deliberately slow VSCC keeps block 1 in flight long enough that
    // blocks 2 and 3 observably hit the exhausted credit window.
    peer.register_vscc("testcc", Arc::new(SleepVscc(Duration::from_millis(40))));
    let blocks = sleepy_chain(&net, &genesis, &chan_a, 3, 1, 11);
    let wire: Vec<Vec<u8>> = blocks.iter().map(Wire::to_wire).collect();

    let mux = DeliverMux::new(2);
    mux.attach(
        chan_a.clone(),
        &peer,
        PipelineOptions {
            deliver_credits: 1,
            ..PipelineOptions::default()
        },
    )
    .unwrap();

    assert_eq!(
        mux.deliver(&chan_a, 1, &wire[0]).unwrap(),
        Deliver::Submitted
    );
    assert_eq!(mux.credits(&chan_a), Some(0), "window of 1 is now full");
    assert_eq!(
        mux.deliver(&chan_a, 2, &wire[1]).unwrap(),
        Deliver::Parked,
        "next-expected block parks when credits are exhausted"
    );
    assert_eq!(
        mux.deliver(&chan_a, 2, &wire[1]).unwrap(),
        Deliver::Duplicate,
        "re-delivery of the credit-stalled block is dropped"
    );
    assert_eq!(mux.deliver(&chan_a, 3, &wire[2]).unwrap(), Deliver::Parked);

    // Commits return credits one at a time; wait_committed pumps the
    // parked successors through the window.
    mux.wait_committed(&chan_a, 4).expect("channel drains");
    let gauges = mux.gauges(&chan_a).unwrap();
    assert!(gauges.credit_stalls >= 1, "block 2 stalled on credits");
    assert_eq!(gauges.duplicates, 1);
    let stats = mux.close().expect("mux closes clean");
    assert_eq!(
        stats[&chan_a].blocks, 3,
        "each block committed exactly once"
    );
    assert_eq!(peer.height(), 4);
}

/// Gap-then-backfill racing a credit refresh: block 1 exhausts the only
/// credit, 3 and 4 park as a gap, and 2 arrives while block 1's commit
/// may or may not have returned the credit yet. Whichever way the race
/// goes, the parked run must drain strictly in order, one credit at a
/// time, with no block lost or committed twice.
#[test]
fn deliver_mux_gap_backfill_races_credit_refresh() {
    let (net, chan_a, _chan_b, ordering) = two_channel_ordering();
    let genesis = ordering.deliver(&chan_a, 0).unwrap();
    let peer = join_peer(&net, &genesis, "race-peer");
    peer.register_vscc("testcc", Arc::new(SleepVscc(Duration::from_millis(15))));
    let blocks = sleepy_chain(&net, &genesis, &chan_a, 4, 1, 13);
    let wire: Vec<Vec<u8>> = blocks.iter().map(Wire::to_wire).collect();

    let mux = DeliverMux::new(2);
    mux.attach(
        chan_a.clone(),
        &peer,
        PipelineOptions {
            deliver_credits: 1,
            park_window: 8,
        },
    )
    .unwrap();

    assert_eq!(
        mux.deliver(&chan_a, 1, &wire[0]).unwrap(),
        Deliver::Submitted
    );
    assert_eq!(mux.deliver(&chan_a, 3, &wire[2]).unwrap(), Deliver::Parked);
    assert_eq!(mux.deliver(&chan_a, 4, &wire[3]).unwrap(), Deliver::Parked);
    // Backfill the gap while block 1 races through its slow VSCC: if its
    // commit already refreshed the credit this submits immediately,
    // otherwise it parks at the head — both are correct.
    let backfill = mux.deliver(&chan_a, 2, &wire[1]).unwrap();
    assert!(
        matches!(backfill, Deliver::Submitted | Deliver::Parked),
        "backfill mid-refresh must park or submit, got {backfill:?}"
    );

    mux.wait_committed(&chan_a, 5).expect("channel drains");
    assert_eq!(
        mux.credits(&chan_a),
        Some(1),
        "window fully refreshed once everything committed"
    );
    let stats = mux.close().expect("mux closes clean");
    assert_eq!(
        stats[&chan_a].blocks, 4,
        "each block committed exactly once"
    );
    assert_eq!(peer.height(), 5);
}

/// Delivers `probes` one at a time on `channel` and measures each one's
/// deliver-to-commit latency, with a short breather between probes (the
/// sparse-channel traffic pattern).
fn probe_latencies(mux: &DeliverMux, channel: &ChannelId, probes: &[Block]) -> Vec<Duration> {
    let mut out = Vec::with_capacity(probes.len());
    for block in probes {
        let started = Instant::now();
        common::deliver(mux, channel, block).expect("probe delivers");
        mux.wait_committed(channel, block.header.number + 1)
            .expect("probe commits");
        out.push(started.elapsed());
        std::thread::sleep(Duration::from_millis(5));
    }
    out
}

/// Starvation regression (the ROADMAP fairness item): channel A dumps a
/// 256-block backlog into the shared VSCC pool while channel B trickles
/// sparse single blocks. Under the DRR scheduler, B's worst-case
/// submit-to-commit latency must stay within a fixed multiple of its
/// solo-run latency — a freshly woken channel is served within about one
/// in-flight transaction, regardless of how deep A's queue is.
///
/// Why this test exists: with the global FIFO task queue the pool had
/// before PR 4, B's first probe waited behind every chunk A had already
/// enqueued. The release-mode bench (`multi_channel_overlap.rs`,
/// starved-channel scenario: 10 ms probes beside a 128-block x 32-tx
/// backlog of 500 us chunks) measured sparse-probe p99 of 10.8 ms solo
/// and 18.2 ms under DRR contention, but 690 ms under FIFO (historical,
/// see EXPERIMENTS.md) — backlog-depth-proportional, not bounded by
/// anything the sparse channel does. The bound only means something if
/// A's backlog really is queued when B probes, so that is asserted too.
#[test]
fn drr_bounds_sparse_channel_latency_behind_sibling_backlog() {
    const VSCC_SLEEP: Duration = Duration::from_millis(1);
    const BACKLOG_BLOCKS: u64 = 256;
    const BACKLOG_TXS: u64 = 4;
    const PROBES: u64 = 6;

    let (net, chan_a, chan_b, ordering) = two_channel_ordering();
    let genesis_a = ordering.deliver(&chan_a, 0).unwrap();
    let genesis_b = ordering.deliver(&chan_b, 0).unwrap();
    let backlog = sleepy_chain(&net, &genesis_a, &chan_a, BACKLOG_BLOCKS, BACKLOG_TXS, 17);
    let probes = sleepy_chain(&net, &genesis_b, &chan_b, PROBES, 1, 19);
    let slow_vscc = || Arc::new(SleepVscc(VSCC_SLEEP));

    // Solo baseline: channel B alone on a two-worker mux.
    let solo_worst = {
        let mux = DeliverMux::new(2);
        let peer_b = join_peer(&net, &genesis_b, "solo-b");
        peer_b.register_vscc("testcc", slow_vscc());
        mux.attach(chan_b.clone(), &peer_b, PipelineOptions::default())
            .expect("channel B attaches");
        let latencies = probe_latencies(&mux, &chan_b, &probes);
        mux.close().expect("solo channel closes");
        latencies.into_iter().max().unwrap()
    };

    // Contended: same probes while A floods the shared pool (DRR).
    let contended_worst = {
        let mux = DeliverMux::new(2);
        let peer_a = join_peer(&net, &genesis_a, "busy-a");
        let peer_b = join_peer(&net, &genesis_b, "sparse-b");
        peer_a.register_vscc("testcc", slow_vscc());
        peer_b.register_vscc("testcc", slow_vscc());
        mux.attach(chan_a.clone(), &peer_a, PipelineOptions::default())
            .expect("channel A attaches");
        mux.attach(chan_b.clone(), &peer_b, PipelineOptions::default())
            .expect("channel B attaches");
        let latencies = std::thread::scope(|scope| {
            scope.spawn(|| {
                common::deliver_all(&mux, &chan_a, &backlog).expect("backlog delivers");
            });
            // Let the backlog pile up in A's queues first, and check it
            // did: blocks waiting in the intake plus blocks' worth of
            // tasks waiting in A's scheduler queue.
            std::thread::sleep(Duration::from_millis(50));
            let queues = mux.stats(&chan_a).expect("channel A attached").queues;
            let queued = queues.intake_peak + queues.vscc_tasks_peak / BACKLOG_TXS as usize;
            assert!(
                queued >= 8,
                "channel A's backlog never queued ({queues:?}): the probes measure nothing"
            );
            probe_latencies(&mux, &chan_b, &probes)
        });
        // Closing drains the rest of A's backlog.
        mux.close().expect("both channels close clean");
        latencies.into_iter().max().unwrap()
    };

    // Debug builds and loaded CI machines are noisy, so the bound is a
    // generous multiple plus an absolute floor — still far below what
    // waiting behind even a tenth of the backlog would cost.
    let bound = solo_worst * 8 + Duration::from_millis(250);
    assert!(
        contended_worst <= bound,
        "sparse channel starved under DRR: worst probe {contended_worst:?} \
         vs solo {solo_worst:?} (bound {bound:?})"
    );
}
