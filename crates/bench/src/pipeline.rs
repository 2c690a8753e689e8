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

use fabric::client::Client;
use fabric::fabcoin::{
    coin_key, CentralBank, CoinState, FabcoinChaincode, FabcoinVscc, Wallet, FABCOIN_NAMESPACE,
};
use fabric::kvstore::backend::Backend;
use fabric::msp::Role;
use fabric::ordering::testkit::TestNet;
use fabric::ordering::OrderingCluster;
use fabric::peer::{Peer, PeerConfig, PipelineHandle, PipelineOptions, PipelineStats};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::{TxId, TxValidationCode};
use fabric::primitives::transaction::Envelope;
use fabric::primitives::wire::Wire;

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
    let net = TestNet::with_batch(&["Org1"], ConsensusType::Solo, 1, batch);
    let mut ordering =
        OrderingCluster::new(ConsensusType::Solo, net.orderers(1), vec![net.genesis.clone()])
            .expect("valid genesis");
    let genesis = ordering.deliver(&net.channel, 0).expect("genesis");

    let bank = CentralBank::new(1, b"bench-cb");
    let backend: Arc<dyn Backend> = match &cfg.storage {
        Storage::Mem => Arc::new(fabric::kvstore::MemBackend::new()),
        Storage::Fs(dir) => {
            std::fs::remove_dir_all(dir).ok();
            Arc::new(fabric::kvstore::FsBackend::new(dir).expect("bench dir"))
        }
    };
    let identity = fabric::msp::issue_identity(
        &net.org_cas[0],
        "peer0.org1",
        Role::Peer,
        b"bench-peer",
    );
    let peer = Peer::join(
        identity,
        &genesis,
        backend,
        PeerConfig {
            vscc_parallelism: cfg.vscc_parallelism,
            runtime: fabric::chaincode::RuntimeConfig { exec_timeout: None },
            sync_writes: matches!(cfg.storage, Storage::Fs(_)),
        },
    )
    .expect("peer joins");
    peer.install_chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode));
    peer.register_vscc(
        FABCOIN_NAMESPACE,
        Arc::new(FabcoinVscc::new(bank.public_keys(), 1)),
    );

    let client_identity = fabric::msp::issue_identity(
        &net.org_cas[0],
        "client.org1",
        Role::Client,
        b"bench-client",
    );
    let client = Client::new(client_identity, net.channel.clone());
    let mut wallet = Wallet::new();
    let address = wallet.new_address(b"bench-wallet");

    let mut endorse_samples: Vec<Duration> = Vec::new();

    // --- Phase 1: mint the coins the spend phase will consume (or the
    // measured mints themselves). ---
    let spends_needed = if cfg.kind == TxKind::Spend { cfg.n_tx } else { 0 };
    if spends_needed > 0 {
        // Batch mints: 200 outputs per mint keeps this phase short.
        let mut minted = 0usize;
        while minted < spends_needed {
            let count = 200.min(spends_needed - minted);
            let outputs: Vec<CoinState> = (0..count)
                .map(|_| CoinState {
                    amount: 10,
                    owner: address.clone(),
                    label: "FBC".into(),
                })
                .collect();
            let nonce = client.next_nonce();
            let txid = TxId::derive(&client.identity().serialized().to_wire(), &nonce);
            let request = bank.create_mint(outputs.clone(), &txid, 1);
            let proposal = client.create_proposal_with_nonce(
                FABCOIN_NAMESPACE,
                "mint",
                vec![request.to_wire()],
                nonce,
            );
            let responses = client
                .collect_endorsements(&proposal, &[&peer])
                .expect("mint endorses");
            let envelope = client.assemble_transaction(&proposal, &responses);
            ordering.broadcast(envelope).expect("mint broadcasts");
            for (j, output) in outputs.iter().enumerate() {
                wallet.note_coin(&coin_key(&txid, j as u32), output);
            }
            minted += count;
        }
        flush_and_commit(&mut ordering, &net, &peer);
    }

    // --- Phase 2: pre-build the measured envelopes (endorsement timed).
    let mut envelopes: Vec<(TxId, Envelope)> = Vec::with_capacity(cfg.n_tx);
    let mut total_bytes = 0usize;
    match cfg.kind {
        TxKind::Spend => {
            let coins = wallet.coins("FBC");
            assert!(coins.len() >= cfg.n_tx, "not enough coins minted");
            for coin in coins.iter().take(cfg.n_tx) {
                let nonce = client.next_nonce();
                let txid = TxId::derive(&client.identity().serialized().to_wire(), &nonce);
                let request = wallet
                    .create_spend(
                        std::slice::from_ref(&coin.key),
                        vec![CoinState {
                            amount: coin.amount,
                            owner: address.clone(),
                            label: "FBC".into(),
                        }],
                        &txid,
                    )
                    .expect("wallet owns coin");
                let proposal = client.create_proposal_with_nonce(
                    FABCOIN_NAMESPACE,
                    "spend",
                    vec![request.to_wire()],
                    nonce,
                );
                let start = Instant::now();
                let responses = client
                    .collect_endorsements(&proposal, &[&peer])
                    .expect("spend endorses");
                endorse_samples.push(start.elapsed());
                let envelope = client.assemble_transaction(&proposal, &responses);
                total_bytes += envelope.wire_size();
                envelopes.push((txid, envelope));
            }
        }
        TxKind::Mint => {
            for _ in 0..cfg.n_tx {
                let nonce = client.next_nonce();
                let txid = TxId::derive(&client.identity().serialized().to_wire(), &nonce);
                let request = bank.create_mint(
                    vec![CoinState {
                        amount: 10,
                        owner: address.clone(),
                        label: "FBC".into(),
                    }],
                    &txid,
                    1,
                );
                let proposal = client.create_proposal_with_nonce(
                    FABCOIN_NAMESPACE,
                    "mint",
                    vec![request.to_wire()],
                    nonce,
                );
                let start = Instant::now();
                let responses = client
                    .collect_endorsements(&proposal, &[&peer])
                    .expect("mint endorses");
                endorse_samples.push(start.elapsed());
                let envelope = client.assemble_transaction(&proposal, &responses);
                total_bytes += envelope.wire_size();
                envelopes.push((txid, envelope));
            }
        }
    }

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

    let handle = peer.pipeline_with(PipelineOptions {
        vscc_workers: cfg.vscc_parallelism,
        intake_capacity: 64,
        ..PipelineOptions::default()
    });
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
        ordering.broadcast(envelope).expect("broadcast accepted");
        // Feed any block the orderer has cut into the pipeline.
        submit_ready(
            &ordering,
            &net,
            &handle,
            &mut next_deliver,
            &send_ts,
            &mut ordering_samples,
            &mut block_txids,
        );
        drain_events(
            &handle,
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
        ordering.tick();
        submit_ready(
            &ordering,
            &net,
            &handle,
            &mut next_deliver,
            &send_ts,
            &mut ordering_samples,
            &mut block_txids,
        );
    }
    handle
        .wait_committed(next_deliver)
        .expect("pipeline drains");
    drain_events(
        &handle,
        &send_ts,
        &mut block_txids,
        &mut e2e_samples,
        &mut timings,
        &mut block_sizes,
        &mut invalid,
    );
    let elapsed = t0.elapsed();
    let pipeline_stats = handle.close().expect("pipeline closes clean");

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
    net: &TestNet,
    handle: &PipelineHandle,
    next_deliver: &mut u64,
    send_ts: &std::collections::HashMap<TxId, Instant>,
    ordering_samples: &mut Vec<Duration>,
    block_txids: &mut std::collections::HashMap<u64, Vec<TxId>>,
) {
    while let Some(block) = ordering.deliver(&net.channel, *next_deliver) {
        let received = Instant::now();
        let tx_ids: Vec<TxId> = block.envelopes.iter().map(|e| e.tx_id()).collect();
        for txid in &tx_ids {
            if let Some(sent) = send_ts.get(txid) {
                ordering_samples.push(received.duration_since(*sent));
            }
        }
        block_txids.insert(block.header.number, tx_ids);
        handle.submit(block).expect("pipeline accepts block");
        *next_deliver += 1;
    }
}

/// Drains commit events from the pipeline, matching transactions back to
/// their send timestamps for end-to-end latency.
#[allow(clippy::too_many_arguments)]
fn drain_events(
    handle: &PipelineHandle,
    send_ts: &std::collections::HashMap<TxId, Instant>,
    block_txids: &mut std::collections::HashMap<u64, Vec<TxId>>,
    e2e_samples: &mut Vec<Duration>,
    timings: &mut Vec<fabric::peer::ValidationTiming>,
    block_sizes: &mut Vec<usize>,
    invalid: &mut usize,
) {
    while let Some(event) = handle.try_event() {
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

/// Commits all outstanding blocks without measuring (setup phases).
fn flush_and_commit(ordering: &mut OrderingCluster, net: &TestNet, peer: &Peer) {
    for _ in 0..10 {
        ordering.tick();
        loop {
            let next = peer.height();
            let Some(block) = ordering.deliver(&net.channel, next) else {
                break;
            };
            let (flags, _) = peer.commit_block(&block).expect("setup commit");
            assert!(
                flags.iter().all(|f| f.is_valid()),
                "setup transactions must validate"
            );
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
