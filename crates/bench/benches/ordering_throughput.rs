//! Ordering-service throughput over a simulated WAN: tps as a function of
//! replication mode (lockstep vs pipelined), client submit-batch size, and
//! cluster size, for both consensus backends.
//!
//! The ordering nodes are the *real* [`fabric::ordering::OrderingNode`]s —
//! signature verification, block cutting, orderer block signatures and all —
//! driven over the discrete-event simulator from the paper's WAN
//! experiments (Sec. 5.2). OSNs are spread round robin across three data
//! centers: intra-DC links run at 0.5 ms / 1 Gbps, inter-DC links at
//! 50 ms / 54 Mbps (the paper's worst single-TCP-connection path,
//! TK <-> OS). Clients co-locate with the leader; submission transit is
//! not modeled — the bench isolates the *replication* path.
//!
//! Expected shape: lockstep replication stalls one full cross-DC round
//! trip per consensus slot, so its throughput is bounded by
//! `slots_per_RTT * submit_batch`; pipelined replication keeps
//! `max_inflight` windows on the wire and is bounded by bandwidth
//! instead. Batched submission multiplies both (one slot carries many
//! envelopes), which is why the paper runs ordering on batches of
//! transactions rather than individual ones.
//!
//! `FABRIC_BENCH_SMOKE=1` shrinks the grid to one cluster size and batch
//! point for CI. `FABRIC_BENCH_JSON=<path>` additionally writes the
//! results as JSON. Simulated time is decoupled from host speed, so the
//! tps figures are stable across machines; only the calibration-free
//! network model moves them.

use fabric::msp::SigningIdentity;
use fabric::ordering::testkit::{make_envelope, TestNet};
use fabric::ordering::{ConsensusBackend, OrderingNode, OsnConfig, OsnMessage, OsnOutput};
use fabric::pbft::{PbftConfig, PbftMessage};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::transaction::Envelope;
use fabric::raft::{Message as RaftMessage, RaftConfig, ReplicationMode};
use fabric::simnet::{SimEvent, Simulator, GBPS, MBPS, MS};
use fabric_bench::stats::Table;

/// One OSN driver tick, in simulated milliseconds.
const TICK_MS: u64 = 100;
/// Intra-data-center link: 0.5 ms, 1 Gbps.
const INTRA_LAT: u64 = MS / 2;
/// Inter-data-center link: 50 ms at the paper's worst single-TCP path.
const INTER_LAT: u64 = 50 * MS;
const INTER_BW: u64 = 54 * MBPS;
/// Number of simulated data centers OSNs are spread across.
const DCS: usize = 3;

enum Ev {
    /// Advance one OSN's driver clock.
    Tick,
    /// Submit pre-built envelope batch `i` at the leader.
    Submit(usize),
    /// An OSN-to-OSN protocol message.
    Osn(OsnMessage),
}

/// Approximate wire size of an OSN message: payload bytes plus framing.
fn message_size(message: &OsnMessage) -> u64 {
    const HDR: u64 = 48;
    match message {
        OsnMessage::Raft(m) => {
            HDR + match m {
                RaftMessage::AppendEntries { entries, .. } => {
                    32 + entries
                        .iter()
                        .map(|e| 16 + e.data.len() as u64)
                        .sum::<u64>()
                }
                _ => 24,
            }
        }
        OsnMessage::Pbft(m) => {
            HDR + match m {
                PbftMessage::Request { payload } => payload.len() as u64,
                PbftMessage::PrePrepare { payload, .. } => 48 + payload.len() as u64,
                PbftMessage::Prepare { .. } | PbftMessage::Commit { .. } => 48,
                PbftMessage::ViewChange { prepared, .. } => prepared
                    .iter()
                    .map(|c| 56 + c.payload.len() as u64)
                    .sum::<u64>(),
                PbftMessage::NewView { pre_prepares, .. } => pre_prepares
                    .iter()
                    .map(|(_, p)| 8 + p.len() as u64)
                    .sum::<u64>(),
            }
        }
        OsnMessage::Forward(bytes) => HDR + bytes.len() as u64,
    }
}

struct RunResult {
    tps: f64,
    sim_secs: f64,
    blocks: u64,
    wire_mb: f64,
}

struct Driver {
    sim: Simulator<Ev>,
    delivered: Vec<usize>,
    blocks: Vec<u64>,
    wire_bytes: u64,
}

impl Driver {
    fn absorb(&mut self, from: usize, outputs: Vec<OsnOutput>) {
        for output in outputs {
            match output {
                OsnOutput::Send { to, message } => {
                    let size = message_size(&message);
                    self.wire_bytes += size;
                    self.sim.send(from, to as usize, size, Ev::Osn(message));
                }
                OsnOutput::BlockCut { block, .. } => {
                    self.delivered[from] += block.envelopes.len();
                    self.blocks[from] += 1;
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    net: &TestNet,
    batch: BatchConfig,
    consensus: ConsensusType,
    raft: RaftConfig,
    pbft: PbftConfig,
    n: usize,
    envelopes: &[Envelope],
    submit_batch: usize,
) -> RunResult {
    let mut genesis = net.genesis.clone();
    genesis.orderer.batch = batch;
    let identities: Vec<SigningIdentity> = net.orderers(n);
    let mut nodes: Vec<OrderingNode> = identities
        .into_iter()
        .enumerate()
        .map(|(i, identity)| {
            let backend = match consensus {
                ConsensusType::Solo => ConsensusBackend::Solo,
                ConsensusType::Raft => {
                    let peers: Vec<u64> =
                        (1..=n as u64).filter(|&p| p != i as u64 + 1).collect();
                    ConsensusBackend::Raft(fabric::raft::RaftNode::new(
                        i as u64 + 1,
                        peers,
                        raft,
                        0xfab,
                    ))
                }
                ConsensusType::Pbft => {
                    ConsensusBackend::Pbft(fabric::pbft::PbftNode::new(i as u64, n, pbft))
                }
            };
            OrderingNode::new(
                i as u64,
                identity,
                backend,
                OsnConfig::default(),
                vec![genesis.clone()],
            )
            .expect("OSN bootstraps")
        })
        .collect();

    let mut sim: Simulator<Ev> = Simulator::new(n);
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            if a % DCS == b % DCS {
                sim.set_link(a, b, INTRA_LAT, GBPS);
            } else {
                sim.set_link(a, b, INTER_LAT, INTER_BW);
            }
        }
    }
    for i in 0..n {
        sim.schedule_in(TICK_MS * MS, i, Ev::Tick);
    }

    let total = envelopes.len();
    let mut driver = Driver {
        sim,
        delivered: vec![0; n],
        blocks: vec![0; n],
        wire_bytes: 0,
    };
    let mut batches: Vec<Option<Vec<Envelope>>> = Vec::new();
    let mut leader: Option<usize> = None;
    let mut t_start = 0u64;
    let t_done;

    loop {
        let (now, event) = driver.sim.next().expect("ticks keep the queue alive");
        assert!(
            now < 3_600_000 * MS,
            "ordering bench did not converge within an hour of simulated time"
        );
        match event {
            SimEvent::Message {
                from,
                to,
                msg: Ev::Osn(message),
            } => {
                let outputs = nodes[to].step(from as u64, message);
                driver.absorb(to, outputs);
            }
            SimEvent::Timer { node, msg: Ev::Tick } => {
                let outputs = nodes[node].tick();
                driver.absorb(node, outputs);
                driver.sim.schedule_in(TICK_MS * MS, node, Ev::Tick);
            }
            SimEvent::Timer {
                node,
                msg: Ev::Submit(i),
            } => {
                let envs = batches[i].take().expect("each batch submits once");
                let (verdicts, outputs) = nodes[node].broadcast_batch(envs);
                for verdict in verdicts {
                    verdict.expect("pre-verified envelope accepted");
                }
                driver.absorb(node, outputs);
            }
            _ => unreachable!("tick/submit payloads only arrive as timers"),
        }
        // Once consensus has a leader, mount the client load next to it:
        // every `submit_batch` envelopes become one broadcast_batch call,
        // spaced 1 ms apart (offered load far above the service rate).
        if leader.is_none() {
            if let Some(l) = nodes
                .iter()
                .position(|node| node.consensus_leader() == Some(node.id()))
            {
                leader = Some(l);
                t_start = driver.sim.now();
                for (i, chunk) in envelopes.chunks(submit_batch.max(1)).enumerate() {
                    batches.push(Some(chunk.to_vec()));
                    driver.sim.schedule_in(1 + i as u64 * MS, l, Ev::Submit(i));
                }
            }
        }
        // Throughput is measured at the leader: the run ends when the
        // leader's chain holds every envelope (followers trail by one
        // commit-index propagation, identically in every configuration).
        if let Some(l) = leader {
            if driver.delivered[l] >= total {
                t_done = now;
                break;
            }
        }
    }

    let leader = leader.expect("a leader was elected");
    let sim_secs = (t_done - t_start) as f64 / 1e9;
    RunResult {
        tps: total as f64 / sim_secs,
        sim_secs,
        blocks: driver.blocks[leader],
        wire_mb: driver.wire_bytes as f64 / (1024.0 * 1024.0),
    }
}

fn nonce(i: u64) -> [u8; 32] {
    let mut n = [0u8; 32];
    n[..8].copy_from_slice(&i.to_le_bytes());
    n
}

fn main() {
    let smoke = std::env::var("FABRIC_BENCH_SMOKE").is_ok();
    let n_env: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 160 } else { 480 });
    let batch = BatchConfig {
        max_message_count: 40,
        absolute_max_bytes: 10 << 20,
        preferred_max_bytes: 2 << 20,
        batch_timeout_ms: 500,
    };
    let cluster_sizes: &[usize] = if smoke { &[3] } else { &[3, 5, 7] };
    let submit_batches: &[usize] = if smoke { &[16] } else { &[1, 16, 64] };

    println!("== Ordering throughput over a simulated WAN ==");
    println!(
        "   ({n_env} envelopes; OSNs round robin over {DCS} DCs; intra 0.5ms/1Gbps, \
         inter 50ms/54Mbps;"
    );
    println!(
        "   blocks cut at {} messages or {} ms; real OSNs, simulated clock)\n",
        batch.max_message_count, batch.batch_timeout_ms
    );

    let mut table = Table::new(&[
        "consensus",
        "osns",
        "replication",
        "submit batch",
        "tps",
        "sim s",
        "blocks",
        "wire MB",
    ]);
    let mut json_points = Vec::new();
    let mut record = |table: &mut Table,
                      consensus: &str,
                      n: usize,
                      mode: &str,
                      k: usize,
                      r: &RunResult| {
        table.row(vec![
            consensus.into(),
            format!("{n}"),
            mode.into(),
            format!("{k}"),
            format!("{:.0}", r.tps),
            format!("{:.2}", r.sim_secs),
            format!("{}", r.blocks),
            format!("{:.2}", r.wire_mb),
        ]);
        json_points.push(format!(
            "{{\"consensus\":\"{consensus}\",\"osns\":{n},\"mode\":\"{mode}\",\
             \"submit_batch\":{k},\"tps\":{:.1},\"sim_seconds\":{:.3},\"blocks\":{},\
             \"wire_mb\":{:.2}}}",
            r.tps, r.sim_secs, r.blocks, r.wire_mb
        ));
    };

    // Raft grid: cluster size x replication mode x submit batch.
    for &n in cluster_sizes {
        let net = TestNet::with_batch(&["Org1"], ConsensusType::Raft, n, batch);
        let client = net.client(0, "c1");
        let envelopes: Vec<Envelope> = (0..n_env as u64)
            .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
            .collect();
        for &k in submit_batches {
            let mut results = Vec::new();
            for (mode, mode_name) in [
                (ReplicationMode::Lockstep, "lockstep"),
                (ReplicationMode::Pipelined, "pipelined"),
            ] {
                // Cap entries per AppendEntries to a realistic WAN message
                // budget (identically in both modes): this is what makes
                // the serialization cost of lockstep visible — one bounded
                // message per cross-DC round trip versus a full window.
                let raft = RaftConfig {
                    mode,
                    max_batch: 4,
                    ..RaftConfig::default()
                };
                let r = run(
                    &net,
                    batch,
                    ConsensusType::Raft,
                    raft,
                    PbftConfig::default(),
                    n,
                    &envelopes,
                    k,
                );
                record(&mut table, "raft", n, mode_name, k, &r);
                results.push(r.tps);
            }
            assert!(
                results[1] > results[0],
                "pipelined ({:.0} tps) must beat lockstep ({:.0} tps) on the WAN \
                 (n={n}, submit_batch={k})",
                results[1],
                results[0]
            );
        }
    }

    // PBFT point: 4 replicas, conservative (one pre-prepare at a time,
    // one payload per batch) vs the batched, windowed default.
    {
        let n = 4;
        let net = TestNet::with_batch(&["Org1"], ConsensusType::Pbft, n, batch);
        let client = net.client(0, "c1");
        let envelopes: Vec<Envelope> = (0..n_env as u64)
            .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
            .collect();
        let k = if smoke { 16 } else { 64 };
        let conservative = PbftConfig {
            max_batch: 1,
            max_inflight: 1,
            ..PbftConfig::default()
        };
        let mut results = Vec::new();
        for (pbft, mode_name) in [(conservative, "lockstep"), (PbftConfig::default(), "pipelined")]
        {
            let r = run(
                &net,
                batch,
                ConsensusType::Pbft,
                RaftConfig::default(),
                pbft,
                n,
                &envelopes,
                k,
            );
            record(&mut table, "pbft", n, mode_name, k, &r);
            results.push(r.tps);
        }
        assert!(
            results[1] > results[0],
            "batched, windowed PBFT must beat one-at-a-time pre-prepares"
        );
    }

    table.print();
    println!("\nexpected: lockstep stalls one cross-DC round trip per consensus slot, so");
    println!("its tps tracks submit-batch size times slots-per-RTT; pipelined replication");
    println!("keeps the in-flight window full and is bandwidth-bound instead.");

    if let Ok(path) = std::env::var("FABRIC_BENCH_JSON") {
        let json = format!(
            "{{\"bench\":\"ordering_throughput\",\"n_envelopes\":{n_env},\
             \"topology\":{{\"dcs\":{DCS},\"intra_ms\":0.5,\"inter_ms\":50,\
             \"inter_mbps\":54}},\"block_cut\":{{\"max_messages\":{},\"timeout_ms\":{}}},\
             \"points\":[{}]}}\n",
            batch.max_message_count,
            batch.batch_timeout_ms,
            json_points.join(",")
        );
        std::fs::write(&path, json).expect("write bench JSON");
        println!("\nwrote {path}");
    }
}
