//! Gossip dissemination at internet scale: priority lanes vs flat.
//!
//! A steady overlay (orgs of 10, one leader each, every NIC capped at
//! 100 Mbps) disseminates a stream of blocks while a tenth of the peers
//! continuously draw bulk snapshot traffic from the org leaders — the
//! worst case for block propagation, because the leaders are both the
//! block injection points and the snapshot providers.
//!
//! Two dissemination modes are compared:
//!
//! * **priority** — the gossip layer's two-class scheme: blocks and
//!   membership ride the fast lane; bulk statesync drains through the
//!   budgeted bulk lane (`bulk_budget_per_tick`) behind them, and the
//!   bulk queue is bounded (drop-oldest beyond `bulk_queue_limit`).
//! * **flat** — no differentiation: the bulk lane budget and queue bound
//!   are unlimited, so every snapshot chunk goes straight to the NIC.
//!   Demand is ~2x NIC capacity, so the leaders' egress queues grow
//!   without bound and every block push behind them arrives late.
//!
//! Reported per (peers, mode): dissemination latency p50/p99 across all
//! `(block, node)` deliveries, converged node count, fast-path wire
//! bytes per delivered block, and bulk megabytes delivered vs dropped.
//!
//! `FABRIC_BENCH_SMOKE=1` shrinks to one small overlay for CI.
//! `FABRIC_BENCH_JSON=<path>` writes the results as JSON. All timing is
//! simulated; results are host-independent.

use fabric::gossip::{GossipConfig, GossipMessage, GossipNode, GossipOutput, PeerId};
use fabric::primitives::ids::ChannelId;
use fabric::simnet::{SimEvent, Simulator, MBPS, MS};
use fabric_bench::stats::{LatencyStats, Table};

/// One gossip tick of simulated time.
const TICK: u64 = 50 * MS;
/// The ordering service cuts one block every this many ticks.
const BLOCK_EVERY: u64 = 2;
/// Serialized block size.
const BLOCK_BYTES: usize = 4096;
/// One bulk snapshot chunk (rides the bulk lane).
const SNAP_BYTES: usize = 512 * 1024;
/// A sync client requests one chunk every this many ticks.
const SNAP_EVERY: u64 = 2;
/// Minimum number of sync clients (keeps per-provider bulk demand above
/// NIC capacity even on small smoke overlays).
const MIN_CLIENTS: usize = 50;
/// Every peer NIC: 100 Mbps (internet-scale links, not a data center).
const NIC_BPS: u64 = 100 * MBPS;
/// Orgs; ids `0..ORGS` are seeds/leaders/snapshot providers.
const ORGS: usize = 10;

#[derive(Clone, Debug)]
enum Wire {
    Gossip(GossipMessage),
    /// A sync client asking a provider for one snapshot chunk.
    SnapRequest,
    Tick,
}

fn org_of(id: usize) -> String {
    format!("org{}", id % ORGS)
}

fn block_payload(block_num: u64) -> Vec<u8> {
    let mut payload = vec![0u8; BLOCK_BYTES];
    payload[..8].copy_from_slice(&block_num.to_le_bytes());
    payload
}

/// Approximate wire size of a control message (sent latency-only, but
/// accounted in the byte totals).
fn control_size(message: &GossipMessage) -> u64 {
    match message {
        GossipMessage::Membership { alive } => 48 + 96 * alive.len() as u64,
        _ => 64,
    }
}

struct RunResult {
    samples_ms: Vec<f64>,
    delivered: u64,
    converged: usize,
    fast_bytes: u64,
    bulk_delivered: u64,
    bulk_dropped: u64,
}

struct Run {
    sim: Simulator<Wire>,
    nodes: Vec<GossipNode>,
    channel: ChannelId,
    chain_height: u64,
    /// Simulated time each block first entered the overlay (at a leader).
    injected: Vec<Option<u64>>,
    samples_ms: Vec<f64>,
    delivered: u64,
    fast_bytes: u64,
    bulk_delivered: u64,
}

impl Run {
    fn new(n: usize, chain_height: u64, flat: bool) -> Run {
        let config = GossipConfig {
            bulk_budget_per_tick: if flat { usize::MAX } else { 256 * 1024 },
            bulk_queue_limit: if flat { usize::MAX } else { 4 * 1024 * 1024 },
            max_adverts: 16,
            ..GossipConfig::default()
        };
        let bootstrap: Vec<(PeerId, String)> =
            (0..ORGS).map(|s| (s as PeerId, org_of(s))).collect();
        let mut sim = Simulator::new(n);
        for id in 0..n {
            sim.set_egress(id, NIC_BPS);
            sim.schedule((id as u64 % 50) * (TICK / 50), id, Wire::Tick);
        }
        Run {
            sim,
            nodes: (0..n)
                .map(|id| {
                    GossipNode::new(
                        id as PeerId,
                        org_of(id),
                        &bootstrap,
                        vec![ChannelId::new("bench")],
                        config.clone(),
                        0xBEEF ^ id as u64,
                    )
                })
                .collect(),
            channel: ChannelId::new("bench"),
            chain_height,
            injected: vec![None; chain_height as usize + 1],
            samples_ms: Vec::new(),
            delivered: 0,
            fast_bytes: 0,
            bulk_delivered: 0,
        }
    }

    fn process(&mut self, node: usize, outputs: Vec<GossipOutput>) {
        let mut work: Vec<(usize, GossipOutput)> = outputs.into_iter().map(|o| (node, o)).collect();
        while !work.is_empty() {
            let batch: Vec<(usize, GossipOutput)> = std::mem::take(&mut work);
            for (at, output) in batch {
                match output {
                    GossipOutput::Send { to, message } => match &message {
                        GossipMessage::BlockPush { payload, .. }
                        | GossipMessage::StateSync { payload, .. } => {
                            let bulk = matches!(&message, GossipMessage::StateSync { .. });
                            let size = payload.len() as u64 + 64;
                            if !bulk {
                                self.fast_bytes += size;
                            }
                            self.sim.send(at, to as usize, size, Wire::Gossip(message));
                        }
                        _ => {
                            self.fast_bytes += control_size(&message);
                            self.sim
                                .send_control(at, to as usize, Wire::Gossip(message));
                        }
                    },
                    GossipOutput::DeliverBlock {
                        block_num, from, ..
                    } => {
                        if let Some(provider) = from {
                            self.nodes[at].report_verdict(provider, true);
                        }
                        self.delivered += 1;
                        if let Some(Some(injected)) = self.injected.get(block_num as usize) {
                            let lat = self.sim.now().saturating_sub(*injected);
                            self.samples_ms.push(lat as f64 / MS as f64);
                        }
                    }
                    GossipOutput::PullFromOrderer { next, .. } => {
                        let tip = (self.sim.now() / (BLOCK_EVERY * TICK)).min(self.chain_height);
                        let channel = self.channel.clone();
                        for num in next..=tip.min(next.saturating_add(3)) {
                            self.injected[num as usize].get_or_insert(self.sim.now());
                            let outs = self.nodes[at].on_block_from_orderer(
                                &channel,
                                num,
                                block_payload(num),
                            );
                            work.extend(outs.into_iter().map(|o| (at, o)));
                        }
                    }
                    GossipOutput::DeliverStateSync { payload, .. } => {
                        self.bulk_delivered += payload.len() as u64;
                    }
                    // No node falls behind the snapshot-flip threshold in
                    // this steady-state load.
                    GossipOutput::SnapshotCatchup { .. } => {}
                }
            }
        }
    }

    fn run(mut self, end_tick: u64) -> RunResult {
        let n = self.nodes.len();
        // The last tenth of the overlay (at least MIN_CLIENTS) draws bulk
        // snapshot chunks from the leaders for the whole run.
        let first_client = n - (n / 10).max(MIN_CLIENTS).min(n - ORGS);
        let deadline = end_tick * TICK;
        while let Some((now, event)) = self.sim.next() {
            if now > deadline {
                break;
            }
            match event {
                SimEvent::Timer { node, .. } => {
                    self.sim.schedule_in(TICK, node, Wire::Tick);
                    let tick = now / TICK;
                    if tick >= 2
                        && (tick + node as u64).is_multiple_of(SNAP_EVERY)
                        && node >= first_client
                    {
                        let provider = node % ORGS;
                        self.sim.send_control(node, provider, Wire::SnapRequest);
                    }
                    let outs = self.nodes[node].tick();
                    self.process(node, outs);
                }
                SimEvent::Message { from, to, msg } => match msg {
                    Wire::Gossip(message) => {
                        let outs = self.nodes[to].step(from as PeerId, message);
                        self.process(to, outs);
                    }
                    Wire::SnapRequest => {
                        let channel = self.channel.clone();
                        self.nodes[to].send_state_sync(
                            from as PeerId,
                            channel,
                            vec![0u8; SNAP_BYTES],
                        );
                    }
                    Wire::Tick => unreachable!("ticks are timers"),
                },
            }
        }
        let channel = self.channel.clone();
        let converged = self
            .nodes
            .iter()
            .filter(|node| node.delivered_height(&channel) == self.chain_height)
            .count();
        let bulk_dropped = self.nodes.iter().map(|n| n.stats().bulk_dropped).sum();
        let quarantines: u64 = self.nodes.iter().map(|n| n.stats().quarantines).sum();
        assert_eq!(quarantines, 0, "honest run must not quarantine");
        RunResult {
            samples_ms: self.samples_ms,
            delivered: self.delivered,
            converged,
            fast_bytes: self.fast_bytes,
            bulk_delivered: self.bulk_delivered,
            bulk_dropped,
        }
    }
}

fn main() {
    let smoke = std::env::var("FABRIC_BENCH_SMOKE").is_ok();
    let (sizes, chain_height): (&[usize], u64) = if smoke {
        (&[120], 20)
    } else {
        (&[250, 1000], 60)
    };
    let end_tick = chain_height * BLOCK_EVERY + 40;

    println!(
        "gossip dissemination under bulk load: {} blocks of {} KiB, {} KiB snapshot \
         chunks every {} ticks to 10% of peers, {} Mbps NICs\n",
        chain_height,
        BLOCK_BYTES / 1024,
        SNAP_BYTES / 1024,
        SNAP_EVERY,
        NIC_BPS / MBPS,
    );

    let mut table = Table::new(&[
        "peers",
        "mode",
        "p50 ms",
        "p99 ms",
        "converged",
        "KB/block",
        "bulk MB",
        "dropped",
    ]);
    let mut json_points = Vec::new();
    for &n in sizes {
        let mut p99 = [0f64; 2];
        let mut converged_priority = 0;
        for (i, (mode, flat)) in [("priority", false), ("flat", true)].iter().enumerate() {
            let result = Run::new(n, chain_height, *flat).run(end_tick);
            if !*flat {
                converged_priority = result.converged;
            }
            let stats = LatencyStats::from_ms(&result.samples_ms);
            let p50 = {
                let mut s = result.samples_ms.clone();
                s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
                if s.is_empty() {
                    0.0
                } else {
                    s[s.len() / 2]
                }
            };
            p99[i] = stats.p99_ms;
            let kb_per_block = result.fast_bytes as f64 / 1024.0 / result.delivered.max(1) as f64;
            table.row(vec![
                n.to_string(),
                mode.to_string(),
                format!("{p50:.1}"),
                format!("{:.1}", stats.p99_ms),
                format!("{}/{n}", result.converged),
                format!("{kb_per_block:.1}"),
                format!("{:.1}", result.bulk_delivered as f64 / (1024.0 * 1024.0)),
                result.bulk_dropped.to_string(),
            ]);
            json_points.push(format!(
                "{{\"peers\":{n},\"mode\":\"{mode}\",\"p50_ms\":{p50:.2},\
                 \"p99_ms\":{:.2},\"avg_ms\":{:.2},\"delivered\":{},\"converged\":{},\
                 \"fast_kb_per_block\":{kb_per_block:.2},\"bulk_mb\":{:.2},\
                 \"bulk_dropped\":{}}}",
                stats.p99_ms,
                stats.avg_ms,
                result.delivered,
                result.converged,
                result.bulk_delivered as f64 / (1024.0 * 1024.0),
                result.bulk_dropped,
            ));
        }
        assert!(
            p99[0] < p99[1],
            "priority lanes must beat flat dissemination under bulk load \
             (priority p99 {:.1} ms vs flat p99 {:.1} ms at {n} peers)",
            p99[0],
            p99[1],
        );
        assert_eq!(
            converged_priority, n,
            "the priority run must fully converge despite the bulk load"
        );
    }

    table.print();
    println!("\nexpected: with flat dissemination the snapshot chunks (~2x NIC demand at");
    println!("the leaders) queue ahead of block pushes on the leader NICs, so tail");
    println!("latency explodes and stragglers miss convergence; the priority lanes cap");
    println!("bulk egress per tick and drop-oldest beyond the queue bound, keeping the");
    println!("fast path flat-latency at the cost of slower (but bounded) bulk transfer.");

    if let Ok(path) = std::env::var("FABRIC_BENCH_JSON") {
        let json = format!(
            "{{\"bench\":\"gossip_scale\",\"tick_ms\":{},\"blocks\":{chain_height},\
             \"block_bytes\":{BLOCK_BYTES},\"snap_chunk_bytes\":{SNAP_BYTES},\
             \"snap_every_ticks\":{SNAP_EVERY},\"nic_mbps\":{},\"orgs\":{ORGS},\
             \"points\":[{}]}}\n",
            TICK / MS,
            NIC_BPS / MBPS,
            json_points.join(",")
        );
        std::fs::write(&path, json).expect("write bench JSON");
        println!("\nwrote {path}");
    }
}
