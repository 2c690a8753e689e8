//! Statesync catch-up under simulated network conditions: a lagging peer
//! discovers snapshot providers through gossip membership, fetches a
//! checkpointed state snapshot in parallel over the simnet — with one
//! provider dead and another serving a corrupted chunk — verifies and
//! installs it, replays only the tail blocks through the pipelined
//! committer, and ends byte-identical to a full-replay peer. Also covers
//! the graceful fallback to full block replay when no snapshot exists.

mod common;

use std::collections::HashMap;

use common::PipelineWorld;
use fabric::gossip::{GossipConfig, GossipMessage, GossipNode, GossipOutput, PeerId};
use fabric::msp::{Msp, MspRegistry};
use fabric::net::PeerSpec;
use fabric::peer::PipelineOptions;
use fabric::primitives::wire::Wire;
use fabric::simnet::{SimEvent, Simulator, MS};
use fabric::statesync::{
    Catchup, Checkpointer, ConsumerConfig, SignedManifest, SnapshotConfig, SnapshotStore,
    SyncMessage, SyncOutput,
};

/// A verified snapshot: its manifest and decoded state entries.
type Installed = (SignedManifest, Vec<(Vec<u8>, Vec<u8>)>);

/// Gossip peer ids 1..=3 are snapshot providers; 4 is the late joiner.
const PROVIDERS: [PeerId; 3] = [1, 2, 3];
const LATE: PeerId = 4;
const DEAD_PROVIDER: PeerId = 3;
const CORRUPT_PROVIDER: PeerId = 2;

fn sim_node(peer: PeerId) -> usize {
    (peer - 1) as usize
}

/// Driver-side payloads flowing through the simulator.
enum Msg {
    Net {
        from: PeerId,
        message: GossipMessage,
    },
    GossipTick,
    SyncTick,
}

fn make_world(tx_blocks: u8) -> PipelineWorld {
    let mut world = PipelineWorld::new();
    for i in 0..tx_blocks {
        let put = world.endorse("put", vec![format!("key{i}").into_bytes(), vec![i; 40]]);
        let incr = world.endorse("incr", vec![b"counter".to_vec()]);
        world.seal_block(vec![put, incr]);
    }
    world
}

fn channel_msps(world: &PipelineWorld) -> MspRegistry {
    let mut registry = MspRegistry::new();
    registry.add(Msp::new("Org1MSP", world.net.fixtures.org_cas[0].root_cert().clone()).unwrap());
    registry
}

fn gossip_nodes(world: &PipelineWorld) -> Vec<GossipNode> {
    let bootstrap: Vec<(PeerId, String)> =
        (1..=LATE).map(|id| (id, "Org1MSP".to_string())).collect();
    (1..=LATE)
        .map(|id| {
            GossipNode::new(
                id,
                "Org1MSP",
                &bootstrap,
                vec![world.net.channel.clone()],
                GossipConfig::default(),
                id ^ 0x5eed,
            )
        })
        .collect()
}

#[test]
fn lagging_peer_catches_up_via_snapshot_despite_faults() {
    let world = make_world(12);
    let full_height = world.builder.height();
    assert_eq!(full_height, 14, "genesis + deploy + 12 tx blocks");
    let channel = world.net.channel.clone();

    // Providers replay the whole chain, cutting a checkpoint every 5
    // blocks and advertising the latest through gossip membership.
    let mut gossips = gossip_nodes(&world);
    let mut stores: HashMap<PeerId, SnapshotStore> = HashMap::new();
    let snap_config = SnapshotConfig {
        chunk_bytes: 128,
        chunks_per_segment: 2,
        interval: 5,
        retain: 2,
    };
    for &id in &PROVIDERS {
        let peer = world.replica(&format!("provider{id}.org1"), 2);
        let mut checkpointer = Checkpointer::new(channel.clone(), snap_config.clone());
        let mut store = SnapshotStore::new(snap_config.retain);
        for block in &world.blocks {
            peer.commit_block(block).unwrap();
            if let Some(snapshot) = checkpointer
                .maybe_checkpoint(peer.ledger(), peer.identity())
                .unwrap()
            {
                store.insert(snapshot);
            }
        }
        let advertised = store.advertised_height(&channel);
        assert!(
            advertised > 0 && advertised < full_height,
            "partial snapshot"
        );
        gossips[sim_node(id)].advertise_snapshot(&channel, advertised);
        stores.insert(id, store);
    }

    // Phase A — discovery: drive gossip heartbeats through the simnet
    // until the late joiner has learned who can serve a snapshot.
    let mut sim: Simulator<Msg> = Simulator::new(LATE as usize);
    for round in 1..=20u64 {
        for node in 0..LATE as usize {
            sim.schedule(round * MS, node, Msg::GossipTick);
        }
    }
    while let Some((_, event)) = sim.next() {
        match event {
            SimEvent::Timer {
                node,
                msg: Msg::GossipTick,
            } => {
                let outputs = gossips[node].tick();
                route_gossip(&mut sim, (node + 1) as PeerId, outputs);
            }
            SimEvent::Message {
                to,
                msg: Msg::Net { from, message },
                ..
            } => {
                let outputs = gossips[to].step(from, message);
                route_gossip(&mut sim, (to + 1) as PeerId, outputs);
            }
            _ => {}
        }
    }
    let discovered = gossips[sim_node(LATE)].snapshot_providers(&channel);
    assert_eq!(
        discovered.len(),
        3,
        "all providers advertised: {discovered:?}"
    );

    // Provider 3 crashes after advertising; provider 2 will corrupt the
    // first segment response it serves. The consumer must route around
    // both.
    let provider_ids: Vec<PeerId> = discovered.iter().map(|&(id, _)| id).collect();
    let mut consumer = Catchup::new(
        channel.clone(),
        channel_msps(&world),
        &provider_ids,
        ConsumerConfig::default(),
    );

    // Phase B — transfer: the consumer's requests ride gossip StateSync
    // messages; providers answer from their snapshot stores.
    let mut installed: Option<Installed> = None;
    let mut signed_manifest: Option<SignedManifest> = None;
    let mut served: HashMap<PeerId, u32> = HashMap::new();
    let mut corruptions = 0u32;
    let outputs = consumer.start();
    route_sync(&mut sim, &channel, outputs);
    sim.schedule_in(MS, sim_node(LATE), Msg::SyncTick);
    let mut ticks = 0u32;
    while let Some((_, event)) = sim.next() {
        if installed.is_some() {
            break;
        }
        match event {
            SimEvent::Timer {
                msg: Msg::SyncTick, ..
            } => {
                if consumer.finished() {
                    continue;
                }
                ticks += 1;
                assert!(ticks < 10_000, "catch-up wedged");
                let outputs = consumer.tick();
                drive_late(
                    &mut sim,
                    &channel,
                    &mut signed_manifest,
                    &mut installed,
                    outputs,
                );
                sim.schedule_in(MS, sim_node(LATE), Msg::SyncTick);
            }
            SimEvent::Message {
                to,
                msg: Msg::Net { from, message },
                ..
            } => {
                let peer_id = (to + 1) as PeerId;
                if peer_id == DEAD_PROVIDER {
                    continue; // crashed: requests to it vanish
                }
                if peer_id == LATE {
                    for output in gossips[to].step(from, message) {
                        let GossipOutput::DeliverStateSync { from, payload, .. } = output else {
                            continue;
                        };
                        // Peek for the signed manifest (the driver keeps it
                        // for the later install); the consumer itself takes
                        // the raw payload and owns decode failures.
                        if let Ok(SyncMessage::ManifestResponse { manifest }) =
                            SyncMessage::from_wire(&payload)
                        {
                            signed_manifest = Some(manifest);
                        }
                        let outputs = consumer.step_wire(from, &payload);
                        drive_late(
                            &mut sim,
                            &channel,
                            &mut signed_manifest,
                            &mut installed,
                            outputs,
                        );
                    }
                } else {
                    for output in gossips[to].step(from, message) {
                        let GossipOutput::DeliverStateSync { from, payload, .. } = output else {
                            continue;
                        };
                        let Ok(request) = SyncMessage::from_wire(&payload) else {
                            continue; // providers ignore undecodable requests
                        };
                        let Some(mut reply) = stores[&peer_id].serve(&request) else {
                            continue;
                        };
                        if let SyncMessage::SegmentResponse { chunks, .. } = &mut reply {
                            *served.entry(peer_id).or_default() += 1;
                            // The corrupting provider flips a byte in its
                            // first served segment.
                            if peer_id == CORRUPT_PROVIDER && corruptions == 0 {
                                if let Some(byte) = chunks.first_mut().and_then(|c| c.first_mut()) {
                                    *byte ^= 0xff;
                                    corruptions += 1;
                                }
                            }
                        }
                        let payload = reply.to_wire();
                        let size = payload.len() as u64;
                        sim.send(
                            to,
                            sim_node(from),
                            size,
                            Msg::Net {
                                from: peer_id,
                                message: GossipMessage::StateSync {
                                    channel: channel.clone(),
                                    payload,
                                },
                            },
                        );
                    }
                }
            }
            _ => {}
        }
    }

    let (manifest, entries) = installed.expect("snapshot transfer completed");
    assert_eq!(corruptions, 1, "the corrupted segment was actually served");
    assert!(
        served.get(&CORRUPT_PROVIDER).copied().unwrap_or(0) >= 1
            && served.get(&1).copied().unwrap_or(0) >= 1,
        "segments fetched from multiple providers: {served:?}"
    );
    assert_eq!(
        served.get(&DEAD_PROVIDER),
        None,
        "dead provider served nothing"
    );

    // Phase C — install + tail replay through the pipelined committer.
    let snap_height = manifest.manifest.height;
    assert!(snap_height < full_height, "tail replay must be non-empty");
    let joiner =
        world
            .net
            .join_from_snapshot(PeerSpec::new(0, "late.org1", 2), &manifest, &entries);
    assert_eq!(
        joiner.height(),
        snap_height,
        "starts at the snapshot height"
    );

    let mux = common::mux_for(&joiner, 2, PipelineOptions::default());
    let tail = &world.blocks[(snap_height - 1) as usize..];
    assert_eq!(tail[0].header.number, snap_height);
    common::deliver_all(&mux, &channel, tail).unwrap();
    mux.wait_committed(&channel, full_height).unwrap();
    let stats = mux.close().unwrap().remove(&channel).unwrap();
    assert_eq!(
        stats.blocks,
        full_height - snap_height,
        "only the tail replayed"
    );

    // The joiner is indistinguishable from the full-replay peer.
    assert_eq!(joiner.height(), world.builder.height());
    assert_eq!(
        joiner.ledger().last_hash(),
        world.builder.ledger().last_hash()
    );
    assert_eq!(
        joiner.ledger().state_entries(),
        world.builder.ledger().state_entries(),
        "byte-identical kvstore contents"
    );
}

#[test]
fn catchup_falls_back_to_full_replay_without_snapshots() {
    let world = make_world(4);
    let channel = world.net.channel.clone();

    // Providers are alive but have no snapshots to serve.
    let stores: HashMap<PeerId, SnapshotStore> = PROVIDERS
        .iter()
        .map(|&id| (id, SnapshotStore::new(2)))
        .collect();
    let mut consumer = Catchup::new(
        channel.clone(),
        channel_msps(&world),
        &PROVIDERS,
        ConsumerConfig::default(),
    );

    let mut fallback = None;
    let mut queue: Vec<SyncOutput> = consumer.start();
    let mut guard = 0;
    while let Some(output) = queue.pop() {
        guard += 1;
        assert!(guard < 100, "fallback must be reached quickly");
        match output {
            SyncOutput::Send { to, message } => {
                if let Some(reply) = stores[&to].serve(&message) {
                    queue.extend(consumer.step(to, reply));
                }
            }
            SyncOutput::Fallback { reason } => fallback = Some(reason),
            SyncOutput::Install { .. } => panic!("nothing to install"),
        }
    }
    let reason = fallback.expect("consumer gave up on snapshot transfer");
    assert!(!reason.is_empty());

    // The driver falls back to ordinary full block replay from genesis.
    let replica = world.replica("fallback.org1", 2);
    let mux = common::mux_for(&replica, 2, PipelineOptions::default());
    common::deliver_all(&mux, &channel, &world.blocks).unwrap();
    mux.close().unwrap();
    assert_eq!(replica.height(), world.builder.height());
    assert_eq!(
        replica.ledger().state_entries(),
        world.builder.ledger().state_entries()
    );
}

#[test]
fn malformed_provider_responses_charge_the_provider_not_panic() {
    let world = make_world(2);
    let channel = world.net.channel.clone();
    let mut consumer = Catchup::new(
        channel,
        channel_msps(&world),
        &PROVIDERS,
        ConsumerConfig::default(),
    );

    // Every provider answers every request with bytes that are not a
    // SyncMessage at all. The consumer must charge each one, rotate
    // through the rest, write them all off, and fall back — without
    // panicking or wedging.
    let mut outputs = consumer.start();
    let mut fallback = None;
    let mut guard = 0;
    while fallback.is_none() {
        guard += 1;
        assert!(guard < 10_000, "consumer wedged on malformed responses");
        let mut next = Vec::new();
        for output in outputs.drain(..) {
            match output {
                SyncOutput::Send { to, .. } => {
                    next.extend(consumer.step_wire(to, b"\xff\xfe not a sync message"));
                }
                SyncOutput::Fallback { reason } => fallback = Some(reason),
                SyncOutput::Install { .. } => panic!("garbage must not install"),
            }
        }
        if fallback.is_none() && next.is_empty() {
            next.extend(consumer.tick());
        }
        outputs = next;
    }
    assert!(consumer.finished());
    assert!(fallback.unwrap().contains("provider"));
}

/// Routes gossip tick/step outputs into the simulator as control
/// messages; block deliveries and orderer pulls are irrelevant here.
fn route_gossip(sim: &mut Simulator<Msg>, from: PeerId, outputs: Vec<GossipOutput>) {
    for output in outputs {
        if let GossipOutput::Send { to, message } = output {
            sim.send_control(sim_node(from), sim_node(to), Msg::Net { from, message });
        }
    }
}

/// Handles the late joiner's consumer outputs: requests go out over
/// gossip StateSync, Install/Fallback terminate the transfer.
fn drive_late(
    sim: &mut Simulator<Msg>,
    channel: &fabric::primitives::ChannelId,
    signed_manifest: &mut Option<SignedManifest>,
    installed: &mut Option<Installed>,
    outputs: Vec<SyncOutput>,
) {
    for output in outputs {
        match output {
            SyncOutput::Send { to, message } => {
                route_sync_one(sim, channel, to, message);
            }
            SyncOutput::Install { manifest, entries } => {
                let signed = signed_manifest
                    .clone()
                    .expect("manifest phase preceded install");
                assert_eq!(signed.manifest, manifest);
                *installed = Some((signed, entries));
            }
            SyncOutput::Fallback { reason } => {
                panic!("unexpected fallback with live providers: {reason}")
            }
        }
    }
}

fn route_sync(
    sim: &mut Simulator<Msg>,
    channel: &fabric::primitives::ChannelId,
    outputs: Vec<SyncOutput>,
) {
    for output in outputs {
        if let SyncOutput::Send { to, message } = output {
            route_sync_one(sim, channel, to, message);
        }
    }
}

fn route_sync_one(
    sim: &mut Simulator<Msg>,
    channel: &fabric::primitives::ChannelId,
    to: PeerId,
    message: SyncMessage,
) {
    let payload = message.to_wire();
    let size = payload.len() as u64;
    sim.send(
        sim_node(LATE),
        sim_node(to),
        size,
        Msg::Net {
            from: LATE,
            message: GossipMessage::StateSync {
                channel: channel.clone(),
                payload,
            },
        },
    );
}
