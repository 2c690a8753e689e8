//! Thousand-peer churn battery for the hardened gossip layer.
//!
//! Runs a full overlay through the failure matrix on the discrete-event
//! simulator: a crash wave, late joiners, restarts with bumped
//! incarnations, a partition window that heals, and a silent permanent
//! departure wave — while the ordering service keeps cutting blocks the
//! whole time. Deep laggards (restarts and late joiners, whose deficits
//! exceed every peer's retention window) must flip to snapshot catch-up
//! on the throttled bulk lane; everyone else heals through pulls.
//!
//! The run is fully deterministic: one simulated clock, seeded RNGs, and
//! a declared churn schedule. Scale: 1000 peers in release, a reduced
//! overlay under the slow debug profile, `GOSSIP_CHURN_PEERS` overrides
//! both.

use fabric_gossip::{GossipConfig, GossipMessage, GossipNode, GossipOutput, PeerId};
use fabric_primitives::ids::ChannelId;
use fabric_simnet::churn::{ChurnEvent, ChurnRunner, ChurnSchedule};
use fabric_simnet::{SimEvent, Simulator, MS};

/// One gossip tick of simulated time.
const TICK: u64 = 50 * MS;
/// Ticks the battery runs for.
const END_TICK: u64 = 300;
/// The ordering service cuts one block every `BLOCK_EVERY` ticks...
const BLOCK_EVERY: u64 = 2;
/// ...up to this height.
const CHAIN_HEIGHT: u64 = 120;
/// Serialized block size.
const BLOCK_BYTES: usize = 1024;
/// Snapshot transfer size (rides the bulk lane).
const SNAP_BYTES: usize = 64 * 1024;
/// Number of orgs; ids `0..ORGS` are the bootstrap seeds, one per org,
/// each its org's lowest id and therefore its stable leader.
const ORGS: usize = 10;

/// Messages on the simulated wire.
#[derive(Clone, Debug)]
enum Wire {
    /// A gossip-layer message between peers.
    Gossip(GossipMessage),
    /// Snapshot request a laggard sends after a `SnapshotCatchup` flip.
    SnapRequest,
    /// Per-node gossip tick timer.
    Tick,
}

fn peer_count() -> usize {
    if let Ok(v) = std::env::var("GOSSIP_CHURN_PEERS") {
        return v.parse().expect("GOSSIP_CHURN_PEERS must be a number");
    }
    if cfg!(debug_assertions) {
        120
    } else {
        1000
    }
}

fn org_of(id: usize) -> String {
    format!("org{}", id % ORGS)
}

fn block_payload(block_num: u64) -> Vec<u8> {
    let mut payload = vec![0u8; BLOCK_BYTES];
    payload[..8].copy_from_slice(&block_num.to_le_bytes());
    payload
}

fn snap_payload(height: u64) -> Vec<u8> {
    let mut payload = vec![0u8; SNAP_BYTES];
    payload[..8].copy_from_slice(&height.to_le_bytes());
    payload
}

/// Chain height the ordering service has cut by simulated time `now`.
fn orderer_height(now: u64) -> u64 {
    (now / (BLOCK_EVERY * TICK)).min(CHAIN_HEIGHT)
}

struct Battery {
    sim: Simulator<Wire>,
    nodes: Vec<GossipNode>,
    runner: ChurnRunner,
    channel: ChannelId,
    n: usize,
    /// `SnapshotCatchup` flips emitted across the run.
    flips: u64,
    /// Snapshot installs completed (bulk transfer arrived).
    installs: u64,
    /// Snapshot requests a provider actually served.
    snap_serves: u64,
}

impl Battery {
    fn node_config() -> GossipConfig {
        GossipConfig {
            // Tight retention so deep laggards genuinely cannot pull
            // their way back and must flip to snapshot catch-up.
            retention_window: 16,
            // Silent members age out of the map within 80 ticks.
            member_gc_factor: 4,
            max_adverts: 16,
            ..GossipConfig::default()
        }
    }

    fn make_node(id: usize, incarnation: u64) -> GossipNode {
        let bootstrap: Vec<(PeerId, String)> =
            (0..ORGS).map(|s| (s as PeerId, org_of(s))).collect();
        GossipNode::new(
            id as PeerId,
            org_of(id),
            &bootstrap,
            vec![ChannelId::new("churn")],
            Self::node_config(),
            0xC0FFEE ^ id as u64,
        )
        .with_incarnation(incarnation)
    }

    fn new(n: usize) -> Battery {
        let mut schedule = ChurnSchedule::new(n);
        let crash: Vec<usize> = (n / 10..n / 5).collect();
        let joiners: Vec<usize> = (n - n / 20..n).collect();
        let leavers: Vec<usize> = (n - n / 10..n - n / 20).collect();
        for &j in &joiners {
            schedule.down_at_start(j);
        }
        // Crash wave spread over ten ticks, restarts spread the same way.
        let spacing = (10 * TICK) / crash.len().max(1) as u64;
        schedule.wave(40 * TICK, spacing, crash.iter().copied(), ChurnEvent::Crash);
        schedule.wave(
            100 * TICK,
            spacing,
            crash.iter().copied(),
            ChurnEvent::Restart,
        );
        // Late joiners trickle in over two ticks.
        let spacing = (2 * TICK) / joiners.len().max(1) as u64;
        schedule.wave(60 * TICK, spacing, joiners.iter().copied(), ChurnEvent::Join);
        // A clean half/half split that heals 16 ticks later — short
        // enough that the healed deficit is pull-recoverable.
        schedule.partition_window(
            140 * TICK,
            156 * TICK,
            (0..n).map(|id| usize::from(id >= n / 2)).collect(),
        );
        // Permanent, silent departures.
        let spacing = TICK / leavers.len().max(1) as u64;
        schedule.wave(
            180 * TICK,
            spacing,
            leavers.iter().copied(),
            ChurnEvent::Leave,
        );

        let mut sim = Simulator::new(n);
        for id in 0..n {
            // Stagger tick phases so the overlay doesn't beat in lockstep.
            sim.schedule((id as u64 % 50) * (TICK / 50), id, Wire::Tick);
        }
        Battery {
            sim,
            nodes: (0..n).map(|id| Self::make_node(id, 0)).collect(),
            runner: schedule.into_runner(),
            channel: ChannelId::new("churn"),
            n,
            flips: 0,
            installs: 0,
            snap_serves: 0,
        }
    }

    /// Whether `node` can reach the ordering service right now: during
    /// the partition only the seed half can.
    fn orderer_reachable(&self, node: usize) -> bool {
        !self.runner.partitioned() || node < self.n / 2
    }

    /// Applies a node's gossip outputs, feeding any induced outputs back
    /// through the worklist (e.g. a snapshot install delivering buffered
    /// blocks).
    fn process(&mut self, node: usize, outputs: Vec<GossipOutput>) {
        let mut work: Vec<(usize, GossipOutput)> =
            outputs.into_iter().map(|o| (node, o)).collect();
        while !work.is_empty() {
            let batch: Vec<(usize, GossipOutput)> = std::mem::take(&mut work);
            for (at, output) in batch {
                match output {
                    GossipOutput::Send { to, message } => {
                        let to = to as usize;
                        match &message {
                            GossipMessage::BlockPush { payload, .. }
                            | GossipMessage::StateSync { payload, .. } => {
                                let size = payload.len() as u64 + 64;
                                self.sim.send(at, to, size, Wire::Gossip(message));
                            }
                            // Control-plane traffic: latency only.
                            _ => {
                                self.sim.send_control(at, to, Wire::Gossip(message));
                            }
                        }
                    }
                    GossipOutput::DeliverBlock {
                        block_num,
                        payload,
                        from,
                        ..
                    } => {
                        assert_eq!(
                            payload,
                            block_payload(block_num),
                            "node {at} delivered a corrupted block {block_num}"
                        );
                        if let Some(provider) = from {
                            self.nodes[at].report_verdict(provider, true);
                        }
                        // Checkpoint every 10 blocks: become a snapshot
                        // provider at that height.
                        if block_num % 10 == 0 {
                            let channel = self.channel.clone();
                            self.nodes[at].advertise_snapshot(&channel, block_num);
                        }
                    }
                    GossipOutput::PullFromOrderer { next, .. } => {
                        if !self.orderer_reachable(at) {
                            continue;
                        }
                        let tip = orderer_height(self.sim.now());
                        let channel = self.channel.clone();
                        // Serve a small batch per leader pull.
                        for num in next..=tip.min(next.saturating_add(3)) {
                            let outs = self.nodes[at].on_block_from_orderer(
                                &channel,
                                num,
                                block_payload(num),
                            );
                            work.extend(outs.into_iter().map(|o| (at, o)));
                        }
                    }
                    GossipOutput::SnapshotCatchup { provider, .. } => {
                        self.flips += 1;
                        self.sim.send_control(at, provider as usize, Wire::SnapRequest);
                    }
                    GossipOutput::DeliverStateSync { payload, .. } => {
                        let height = u64::from_le_bytes(payload[..8].try_into().unwrap());
                        self.installs += 1;
                        let channel = self.channel.clone();
                        let outs = self.nodes[at].note_snapshot_installed(&channel, height);
                        work.extend(outs.into_iter().map(|o| (at, o)));
                    }
                }
            }
        }
    }

    fn run(&mut self) {
        let deadline = END_TICK * TICK;
        while let Some((now, event)) = self.sim.next() {
            if now > deadline {
                break;
            }
            for (_, change) in self.runner.advance_to(now) {
                if let ChurnEvent::Restart(id) = change {
                    // The node lost its volatile state; it rejoins with a
                    // bumped incarnation so the overlay trusts its young
                    // clock immediately (satellite bugfix: restarted
                    // peers used to be ignored until their heartbeat
                    // counter caught up).
                    let old = self.nodes[id].incarnation();
                    self.nodes[id] = Self::make_node(id, old + 1);
                }
            }
            match event {
                SimEvent::Timer { node, .. } => {
                    self.sim.schedule_in(TICK, node, Wire::Tick);
                    if !self.runner.is_up(node) {
                        continue;
                    }
                    let outs = self.nodes[node].tick();
                    self.process(node, outs);
                }
                SimEvent::Message { from, to, msg } => {
                    if !self.runner.connected(from, to) {
                        continue;
                    }
                    match msg {
                        Wire::Gossip(message) => {
                            let outs = self.nodes[to].step(from as PeerId, message);
                            self.process(to, outs);
                        }
                        Wire::SnapRequest => {
                            let channel = self.channel.clone();
                            // Serve the freshest checkpoint this provider
                            // holds (delivered height rounded down to the
                            // checkpoint interval).
                            let height =
                                self.nodes[to].delivered_height(&channel) / 10 * 10;
                            if height > 0 {
                                self.snap_serves += 1;
                                self.nodes[to].send_state_sync(
                                    from as PeerId,
                                    channel,
                                    snap_payload(height),
                                );
                            }
                        }
                        Wire::Tick => unreachable!("ticks are timers"),
                    }
                }
            }
        }
    }
}

#[test]
fn thousand_peer_overlay_survives_the_churn_matrix() {
    let n = peer_count();
    assert!(n >= 40, "battery needs at least 40 peers to exercise churn");
    let mut battery = Battery::new(n);
    battery.run();

    let channel = battery.channel.clone();
    let up: Vec<usize> = (0..n).filter(|&id| battery.runner.is_up(id)).collect();
    let expected_up = n - (n / 10 - n / 20); // everyone but the leavers
    assert_eq!(up.len(), expected_up);

    // Every live node — seeds, crash-restart survivors, late joiners,
    // both partition halves — converged to the full chain.
    let mut behind = 0usize;
    for &id in &up {
        if battery.nodes[id].delivered_height(&channel) != CHAIN_HEIGHT {
            behind += 1;
            eprintln!(
                "node {id} stuck at {}/{CHAIN_HEIGHT}",
                battery.nodes[id].delivered_height(&channel)
            );
        }
    }
    assert_eq!(behind, 0, "{behind}/{} live nodes failed to converge", up.len());

    // Deep laggards flipped to snapshot catch-up and were actually
    // served over the bulk lane.
    assert!(battery.flips > 0, "no laggard flipped to snapshot catch-up");
    assert!(battery.installs > 0, "no snapshot was installed");
    assert!(battery.snap_serves > 0, "no provider served a snapshot");

    let mut deduped = 0u64;
    let mut quarantines = 0u64;
    let mut pruned = 0u64;
    let mut bulk_sent = 0u64;
    for &id in &up {
        let stats = battery.nodes[id].stats();
        deduped += stats.deduped;
        quarantines += stats.quarantines;
        pruned += stats.blocks_pruned;
        bulk_sent += stats.bulk_sent;

        // Memory bounds (satellite bugfix: the block store and member
        // map used to grow without bound): far fewer payloads retained
        // than the chain holds, and no phantom membership.
        assert!(
            battery.nodes[id].stored_blocks(&channel) <= 64,
            "node {id} retains {} blocks",
            battery.nodes[id].stored_blocks(&channel)
        );
        assert!(battery.nodes[id].member_count() < n);
    }
    // Push redundancy was absorbed by the dedup cache, retention pruned
    // old payloads, the bulk lane carried the snapshots, and an honest
    // run quarantined nobody.
    assert!(deduped > 0, "dedup cache never fired");
    assert!(pruned > 0, "retention never pruned");
    assert!(bulk_sent > 0, "bulk lane never used");
    assert_eq!(quarantines, 0, "honest peers were quarantined");

    // The silent leavers aged out of a seed's membership map (member GC).
    let leavers = n / 10 - n / 20;
    assert!(
        battery.nodes[0].member_count() <= n - 1 - leavers,
        "seed still remembers {} members; leavers were never GCed",
        battery.nodes[0].member_count()
    );

    // Restarted nodes were re-admitted under their bumped incarnation.
    for id in n / 10..n / 5 {
        assert_eq!(battery.nodes[id].incarnation(), 1, "node {id} never restarted");
    }

    eprintln!(
        "churn battery: n={n} flips={} installs={} serves={} deduped={deduped} pruned={pruned} bulk_sent={bulk_sent}",
        battery.flips, battery.installs, battery.snap_serves
    );
}
