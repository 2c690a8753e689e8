//! The measured end-to-end pipeline: clients → endorser → ordering →
//! validation/commit, with per-stage timing (paper Sec. 5.2 methodology).
//!
//! The harness mirrors the paper's two-phase method: a mint phase creates
//! the coins, then the measured phase drives mint or spend transactions
//! through the full execute-order-validate flow at saturation (for
//! throughput) or paced (for latency staging), reporting the same stage
//! breakdown as the paper's Table 1.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric::kvstore::backend::Backend;
use fabric::net::{FabcoinNetwork, NetSpec, PeerSpec};
use fabric::ordering::OrderingCluster;
use fabric::peer::{Deliver, DeliverMux, PeerError, PipelineOptions, PipelineStats};
use fabric::primitives::block::Block;
use fabric::primitives::config::BatchConfig;
use fabric::primitives::ids::{ChannelId, TxId, TxValidationCode};
use fabric::primitives::transaction::{Envelope, SignedProposal};
use fabric::primitives::wire::Wire;

use crate::coins;
use crate::stats::LatencyStats;

/// Transaction kind for the measured phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// Coin-creating transactions.
    Mint,
    /// Single-input single-output spends (the paper's workload).
    Spend,
}

/// Peer storage backing.
#[derive(Clone, Debug)]
pub enum Storage {
    /// In-memory (the paper's RAM-disk variant).
    Mem,
    /// File-system directory with fsync (the paper's SSD variant).
    Fs(PathBuf),
}

/// Pipeline run configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Number of measured transactions.
    pub n_tx: usize,
    /// Measured transaction kind.
    pub kind: TxKind,
    /// Preferred block size in bytes (the Fig. 6 knob).
    pub preferred_block_bytes: u32,
    /// VSCC worker-pool width (the Fig. 7 knob).
    pub vscc_parallelism: usize,
    /// Ledger storage.
    pub storage: Storage,
    /// `Some(rate)` paces submission at `rate` tx/s (latency runs);
    /// `None` submits at saturation (throughput runs).
    pub paced_tps: Option<f64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            n_tx: 1000,
            kind: TxKind::Spend,
            preferred_block_bytes: 2 * 1024 * 1024,
            vscc_parallelism: 4,
            storage: Storage::Mem,
            paced_tps: None,
        }
    }
}

/// Results of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// End-to-end committed transactions per second.
    pub tps: f64,
    /// Validation-phase-only throughput (txs / summed validation time).
    pub validation_tps: f64,
    /// Average serialized transaction size in bytes.
    pub avg_tx_bytes: f64,
    /// Average transactions per cut block.
    pub txs_per_block: f64,
    /// Number of blocks committed.
    pub blocks: usize,
    /// Endorsement latency.
    pub endorse: LatencyStats,
    /// Ordering latency (broadcast → block cut & received).
    pub ordering: LatencyStats,
    /// VSCC stage latency per block.
    pub vscc: LatencyStats,
    /// Read-write check stage latency per block.
    pub rw_check: LatencyStats,
    /// Ledger stage latency per block.
    pub ledger: LatencyStats,
    /// Whole-validation latency per block.
    pub validation: LatencyStats,
    /// End-to-end latency per transaction.
    pub e2e: LatencyStats,
    /// Transactions that failed validation (should be 0).
    pub invalid: usize,
    /// Pipelined-committer stage histograms and queue gauges.
    pub pipeline: PipelineStats,
}

/// Runs the full pipeline measurement.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineResult {
    let batch = BatchConfig {
        max_message_count: 1_000_000,
        absolute_max_bytes: 64 * 1024 * 1024,
        preferred_max_bytes: cfg.preferred_block_bytes,
        batch_timeout_ms: 300,
    };
    let backend: Arc<dyn Backend> = match &cfg.storage {
        Storage::Mem => Arc::new(fabric::kvstore::MemBackend::new()),
        Storage::Fs(dir) => {
            std::fs::remove_dir_all(dir).ok();
            Arc::new(fabric::kvstore::FsBackend::new(dir).expect("bench dir"))
        }
    };
    let mut peer = PeerSpec::new(0, "peer0.org1", cfg.vscc_parallelism);
    peer.backend = Some(backend);
    peer.config.sync_writes = matches!(cfg.storage, Storage::Fs(_));
    let mut net = FabcoinNetwork::new(NetSpec { batch, ..NetSpec::new(&["Org1"]) }.peer(peer));

    // --- Phase 1: mint the coins the spend phase will consume; Phase 2:
    // pre-build the measured proposals.
    let proposals: Vec<SignedProposal> = match cfg.kind {
        TxKind::Spend => {
            let coins = coins::mint_coins(&mut net, cfg.n_tx);
            coins.iter().take(cfg.n_tx).map(|c| coins::self_spend(&net, c)).collect()
        }
        TxKind::Mint => (0..cfg.n_tx)
            .map(|_| net.mint_proposal(0, vec![net.coin_for(0, 10, "FBC")]))
            .collect(),
    };
    // Endorsement is timed, assembly is not.
    let mut endorse_samples: Vec<Duration> = Vec::with_capacity(cfg.n_tx);
    let mut envelopes: Vec<(TxId, Envelope)> = Vec::with_capacity(cfg.n_tx);
    let mut total_bytes = 0usize;
    let client = &net.clients[0];
    for proposal in &proposals {
        let start = Instant::now();
        let responses = client
            .collect_endorsements(proposal, &[&net.peers[0]])
            .expect("proposal endorses");
        endorse_samples.push(start.elapsed());
        let envelope = client.assemble_transaction(proposal, &responses);
        total_bytes += envelope.wire_size();
        envelopes.push((proposal.proposal.tx_id(), envelope));
    }
    // The measured peer leaves the network's one-block-at-a-time commits:
    // this run feeds its own mux every block the moment it is cut.
    let peer = net.detach(0);
    let net = &mut net.net;
    let channel = &net.channel;
    let mux = DeliverMux::new(cfg.vscc_parallelism);
    mux.attach(channel.clone(), &peer, PipelineOptions::default())
        .expect("measured peer attaches");

    // --- Phase 3: measured submission, committed through the pipelined
    // committer (block n+1's VSCC overlaps block n's rw-check/append). ---
    let n = envelopes.len();
    let mut send_ts: std::collections::HashMap<TxId, Instant> =
        std::collections::HashMap::with_capacity(n);
    let mut ordering_samples: Vec<Duration> = Vec::with_capacity(n);
    let mut e2e_samples: Vec<Duration> = Vec::with_capacity(n);
    let mut timings = Vec::new();
    let mut block_sizes = Vec::new();
    let mut invalid = 0usize;

    // Block number → tx ids, so commit events can be matched back to the
    // transactions' send timestamps.
    let mut block_txids: std::collections::HashMap<u64, Vec<TxId>> =
        std::collections::HashMap::new();
    let mut next_deliver = peer.height();

    let t0 = Instant::now();
    for (i, (txid, envelope)) in envelopes.into_iter().enumerate() {
        if let Some(rate) = cfg.paced_tps {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        send_ts.insert(txid, Instant::now());
        net.ordering.broadcast(envelope).expect("broadcast accepted");
        // Feed any block the orderer has cut into the pipeline.
        submit_ready(
            &net.ordering,
            channel,
            &mux,
            &mut next_deliver,
            &send_ts,
            &mut ordering_samples,
            &mut block_txids,
        );
        drain_events(
            &mux,
            channel,
            &send_ts,
            &mut block_txids,
            &mut e2e_samples,
            &mut timings,
            &mut block_sizes,
            &mut invalid,
        );
    }
    // Flush the tail: tick until the timeout cuts the last partial block.
    for _ in 0..10 {
        net.ordering.tick();
        submit_ready(
            &net.ordering,
            channel,
            &mux,
            &mut next_deliver,
            &send_ts,
            &mut ordering_samples,
            &mut block_txids,
        );
    }
    mux.wait_committed(channel, next_deliver)
        .expect("pipeline drains");
    drain_events(
        &mux,
        channel,
        &send_ts,
        &mut block_txids,
        &mut e2e_samples,
        &mut timings,
        &mut block_sizes,
        &mut invalid,
    );
    let elapsed = t0.elapsed();
    let pipeline_stats = mux
        .close()
        .expect("pipeline closes clean")
        .remove(channel)
        .expect("channel attached");

    let committed: usize = block_sizes.iter().sum();
    assert_eq!(committed, n, "all measured txs committed");
    let validation_total: Duration = timings
        .iter()
        .map(|t: &fabric::peer::ValidationTiming| t.total())
        .sum();
    PipelineResult {
        tps: n as f64 / elapsed.as_secs_f64(),
        validation_tps: n as f64 / validation_total.as_secs_f64().max(1e-9),
        avg_tx_bytes: total_bytes as f64 / n as f64,
        txs_per_block: n as f64 / block_sizes.len().max(1) as f64,
        blocks: block_sizes.len(),
        endorse: LatencyStats::from_durations(&endorse_samples),
        ordering: LatencyStats::from_durations(&ordering_samples),
        vscc: LatencyStats::from_durations(
            &timings.iter().map(|t| t.vscc).collect::<Vec<_>>(),
        ),
        rw_check: LatencyStats::from_durations(
            &timings.iter().map(|t| t.rw_check).collect::<Vec<_>>(),
        ),
        ledger: LatencyStats::from_durations(
            &timings.iter().map(|t| t.ledger).collect::<Vec<_>>(),
        ),
        validation: LatencyStats::from_durations(
            &timings.iter().map(|t| t.total()).collect::<Vec<_>>(),
        ),
        e2e: LatencyStats::from_durations(&e2e_samples),
        invalid,
        pipeline: pipeline_stats,
    }
}

/// Submits every block the orderer has cut but the pipeline has not seen,
/// recording ordering latency at delivery time.
fn submit_ready(
    ordering: &OrderingCluster,
    channel: &ChannelId,
    mux: &DeliverMux,
    next_deliver: &mut u64,
    send_ts: &std::collections::HashMap<TxId, Instant>,
    ordering_samples: &mut Vec<Duration>,
    block_txids: &mut std::collections::HashMap<u64, Vec<TxId>>,
) {
    while let Some(block) = ordering.deliver(channel, *next_deliver) {
        let received = Instant::now();
        let tx_ids: Vec<TxId> = block.envelopes.iter().map(|e| e.tx_id()).collect();
        for txid in &tx_ids {
            if let Some(sent) = send_ts.get(txid) {
                ordering_samples.push(received.duration_since(*sent));
            }
        }
        block_txids.insert(block.header.number, tx_ids);
        deliver(mux, channel, &block).expect("pipeline accepts block");
        *next_deliver += 1;
    }
}

/// Offers `block` to `mux` until it is taken. A `Saturated` refusal (the
/// parking window is full behind an exhausted credit window) waits for
/// one more commit to free room, then re-offers — what a backing-off
/// deliver client does. Returns the accepting verdict.
pub fn deliver(mux: &DeliverMux, channel: &ChannelId, block: &Block) -> Result<Deliver, PeerError> {
    let payload = block.to_wire();
    let number = block.header.number;
    loop {
        match mux.deliver(channel, number, &payload)? {
            Deliver::Saturated => mux.wait_committed(channel, mux.committed_height(channel) + 1)?,
            verdict => return Ok(verdict),
        }
    }
}

/// Drains commit events from the pipeline, matching transactions back to
/// their send timestamps for end-to-end latency.
#[allow(clippy::too_many_arguments)]
fn drain_events(
    mux: &DeliverMux,
    channel: &ChannelId,
    send_ts: &std::collections::HashMap<TxId, Instant>,
    block_txids: &mut std::collections::HashMap<u64, Vec<TxId>>,
    e2e_samples: &mut Vec<Duration>,
    timings: &mut Vec<fabric::peer::ValidationTiming>,
    block_sizes: &mut Vec<usize>,
    invalid: &mut usize,
) {
    let events = mux.events(channel).expect("channel attached");
    while let Ok(event) = events.try_recv() {
        let tx_ids = block_txids.remove(&event.block_num).unwrap_or_default();
        let mut measured_in_block = 0;
        for (txid, flag) in tx_ids.iter().zip(&event.validity) {
            if let Some(sent) = send_ts.get(txid) {
                e2e_samples.push(event.committed_at.duration_since(*sent));
                measured_in_block += 1;
                if *flag != TxValidationCode::Valid {
                    *invalid += 1;
                }
            }
        }
        if measured_in_block > 0 {
            timings.push(event.timing);
            block_sizes.push(measured_in_block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_spend_pipeline_runs() {
        let result = run_pipeline(&PipelineConfig {
            n_tx: 30,
            kind: TxKind::Spend,
            preferred_block_bytes: 16 * 1024,
            vscc_parallelism: 2,
            storage: Storage::Mem,
            paced_tps: None,
        });
        assert!(result.tps > 0.0);
        assert_eq!(result.invalid, 0);
        assert!(result.blocks >= 2, "16 kB blocks split 30 txs");
        assert!(result.avg_tx_bytes > 500.0);
    }

    #[test]
    fn small_mint_pipeline_runs() {
        let result = run_pipeline(&PipelineConfig {
            n_tx: 20,
            kind: TxKind::Mint,
            preferred_block_bytes: 1024 * 1024,
            vscc_parallelism: 2,
            storage: Storage::Mem,
            paced_tps: None,
        });
        assert!(result.tps > 0.0);
        assert_eq!(result.invalid, 0);
    }
}
