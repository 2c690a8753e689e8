//! Multi-channel pipeline benchmark: per-channel validation pipelines
//! sharing one global VSCC worker pool (one [`fabric::peer::DeliverMux`]).
//!
//! Three scenarios:
//!
//! 1. **Pool sharing under a barrier-stalled channel.** Channel A commits
//!    a chain of lifecycle (LSCC-writing) blocks — every one a dependency
//!    barrier, so A's pipeline spends most of its life stalled waiting for
//!    its own in-flight work to drain. Channel B pushes key-disjoint
//!    Fabcoin spends through the same pool. Because a stalled admitter
//!    holds no pool workers, B's throughput next to A must stay within a
//!    few percent of B running alone.
//!
//! 2. **Key-level dependency stalls.** Fabcoin's custom VSCC reads
//!    committed coin state, so a block-level rule would serialize every
//!    block behind its predecessor (the PR 3 comparison row, now
//!    historical — see EXPERIMENTS.md). The key-level conflict index sees
//!    that the spends touch disjoint coins and lets them overlap — the
//!    pipelining win on exactly the workload the paper optimizes
//!    (Sec. 4.2, Fabcoin): zero dependency stalls.
//!
//! 3. **Starved channel under DRR task scheduling.** Channel A dumps a
//!    deep backlog of cheap VSCC tasks into the shared pool while
//!    channel B trickles sparse single-transaction blocks. Under a global
//!    FIFO task queue B's probes would wait behind A's entire standing
//!    queue (p99 grows with backlog depth — the PR 4 comparison row, now
//!    historical); under the DRR scheduler a freshly woken channel is
//!    served within about one transaction's VSCC, so B's p99 must stay
//!    within 2x of its solo run — measured with A's backlog verified to
//!    be queued.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric::chaincode::{Vscc, LSCC_NAMESPACE};
use fabric::ledger::Ledger;
use fabric::msp::MspRegistry;
use fabric::net::{FabcoinNetwork, Net, NetSpec, PeerSpec};
use fabric::ordering::testkit::make_envelope;
use fabric::peer::{DeliverMux, Peer, PeerConfig, PipelineOptions};
use fabric::primitives::block::Block;
use fabric::primitives::ids::{ChannelId, TxValidationCode};
use fabric::primitives::rwset::{KeyWrite, NsReadWriteSet, TxReadWriteSet};
use fabric::primitives::transaction::Transaction;
use fabric_bench::coins::spend_chain;
use fabric_bench::pipeline::deliver;
use fabric_bench::stats::Table;

/// Stands in for a lifecycle check with real latency, so the barrier
/// channel's transactions are not free.
struct SlowLifecycleVscc(Duration);

impl Vscc for SlowLifecycleVscc {
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

/// A Fabcoin network whose one peer builds the spend chains.
fn fabcoin_net() -> FabcoinNetwork {
    FabcoinNetwork::new(NetSpec::new(&["Org1"]).peer(PeerSpec::new(0, "builder.org1", 2)))
}

/// Builds `n_blocks` one-transaction blocks that each write into the
/// LSCC namespace: every one is a dependency barrier for its pipeline.
fn build_barrier_chain(net: &Net, n_blocks: usize) -> Vec<Block> {
    let client = net.fixtures.client(0, "barrier-client");
    let mut blocks = Vec::with_capacity(n_blocks);
    let mut prev = net.genesis.hash();
    for i in 0..n_blocks {
        let mut nonce = [0u8; 32];
        nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let rwset = TxReadWriteSet::single(NsReadWriteSet {
            namespace: LSCC_NAMESPACE.into(),
            reads: vec![],
            range_queries: vec![],
            writes: vec![KeyWrite {
                key: format!("bench-cc-{i}"),
                value: Some(vec![1]),
            }],
        });
        let envelope = make_envelope(&client, &net.channel, nonce, rwset);
        let block = Block::new((i + 1) as u64, prev, vec![envelope]);
        prev = block.hash();
        blocks.push(block);
    }
    blocks
}

/// Builds `n_blocks` blocks of `txs_per_block` plain "testcc"
/// transactions chained onto `genesis`, reusing one set of signed
/// envelopes across blocks: the committer never re-verifies envelope
/// signatures and duplicate tx-ids are simply invalidated at rw-check,
/// neither of which matters to the scheduling cost being measured.
fn build_sleep_chain(net: &Net, n_blocks: usize, txs_per_block: usize, salt: u64) -> Vec<Block> {
    let client = net.fixtures.client(0, "sleep-client");
    let envelopes: Vec<_> = (0..txs_per_block)
        .map(|i| {
            let mut nonce = [0u8; 32];
            nonce[..8].copy_from_slice(&(salt * 10_007 + i as u64).to_le_bytes());
            make_envelope(&client, &net.channel, nonce, TxReadWriteSet::default())
        })
        .collect();
    let mut prev = net.genesis.hash();
    (0..n_blocks)
        .map(|b| {
            let block = Block::new((b + 1) as u64, prev, envelopes.clone());
            prev = block.hash();
            block
        })
        .collect()
}

/// A default-configured peer whose "testcc" VSCC sleeps for a fixed
/// per-transaction cost: the barrier channel's and the starved-channel
/// scenario's unit of pool work.
fn sleep_peer(net: &Net, name: &str, vscc_sleep: Duration) -> Peer {
    let peer = net.join(PeerSpec {
        config: PeerConfig::default(),
        ..PeerSpec::new(0, name, 1)
    });
    peer.register_vscc("testcc", Arc::new(SlowLifecycleVscc(vscc_sleep)));
    peer
}

/// Delivers each probe alone on `channel` and measures its
/// deliver-to-commit latency, with a breather between probes (the
/// sparse-channel traffic pattern).
fn probe_latencies(mux: &DeliverMux, channel: &ChannelId, probes: &[Block]) -> Vec<Duration> {
    let mut out = Vec::with_capacity(probes.len());
    for block in probes {
        let started = Instant::now();
        deliver(mux, channel, block).expect("probe delivers");
        mux.wait_committed(channel, block.header.number + 1)
            .expect("probe commits");
        out.push(started.elapsed());
        std::thread::sleep(Duration::from_millis(5));
    }
    out
}

fn p99(latencies: &mut [Duration]) -> Duration {
    latencies.sort();
    let idx = (latencies.len() * 99).div_ceil(100).saturating_sub(1);
    latencies[idx]
}

/// Drains `measured` through `channel` of `mux`, returning transactions
/// per second.
fn drive(mux: &DeliverMux, channel: &ChannelId, measured: &[Block], total_txs: usize) -> f64 {
    let final_height = measured.last().unwrap().header.number + 1;
    let t0 = Instant::now();
    for block in measured {
        deliver(mux, channel, block).expect("pipeline accepts");
    }
    mux.wait_committed(channel, final_height)
        .expect("pipeline drains");
    total_txs as f64 / t0.elapsed().as_secs_f64()
}

/// A mux of `workers` VSCC workers with each `(channel, peer)` attached.
fn mux_of(workers: usize, channels: &[(&ChannelId, &Peer)]) -> DeliverMux {
    let mux = DeliverMux::new(workers);
    for (channel, peer) in channels {
        mux.attach((*channel).clone(), peer, PipelineOptions::default())
            .expect("channel attaches");
    }
    mux
}

fn main() {
    let smoke = std::env::var("FABRIC_BENCH_SMOKE").is_ok();
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 80 } else { 1_200 });
    let txs_per_block = if smoke { 20 } else { 100 };
    let n_blocks = (n_tx / txs_per_block).max(2);
    let workers = std::env::var("FABRIC_BENCH_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4)
        });
    let reps = if smoke { 1 } else { 3 };

    let mut net = fabcoin_net();
    let (setup, measured) = spend_chain(&mut net, n_blocks, txs_per_block);
    let total_txs: usize = measured.iter().map(|b| b.envelopes.len()).sum();
    let barrier_blocks = build_barrier_chain(&net, (n_blocks * 2).max(16));

    println!(
        "== multi-channel pipelines on a shared {workers}-worker VSCC pool \
         ({n_blocks} blocks x {txs_per_block} spends) =="
    );

    let (chan_a, chan_b) = (ChannelId::new("chan-a"), ChannelId::new("chan-b"));

    // Warm caches and allocator before anything is timed: the first trip
    // through the chain is consistently 10-20% colder than the rest.
    {
        let peer = net.join(PeerSpec::new(0, "warmup.org1", workers));
        for block in &setup {
            peer.commit_block(block).expect("setup commits");
        }
        let mux = mux_of(workers, &[(&chan_b, &peer)]);
        drive(&mux, &chan_b, &measured, total_txs);
        mux.close().expect("warmup closes");
    }

    // Scenario 1: channel B alone vs channel B next to barrier-stalled
    // channel A, both on one shared pool. Best of `reps` runs each.
    let run_alone = || {
        let peer_b = net.join(PeerSpec::new(0, "alone.org1", workers));
        for block in &setup {
            peer_b.commit_block(block).expect("setup commits");
        }
        let mux = mux_of(workers, &[(&chan_b, &peer_b)]);
        let tps = drive(&mux, &chan_b, &measured, total_txs);
        mux.close().expect("pipeline closes");
        tps
    };
    let run_concurrent = || {
        let peer_b = net.join(PeerSpec::new(0, "shared.org1", workers));
        for block in &setup {
            peer_b.commit_block(block).expect("setup commits");
        }
        // The barrier transactions cost real VSCC time, but the channel
        // spends most of its life stalled, holding no pool workers.
        let peer_a = sleep_peer(&net, "barrier.org1", Duration::from_micros(300));
        let mux = mux_of(workers, &[(&chan_a, &peer_a), (&chan_b, &peer_b)]);
        let mut tps = 0.0;
        std::thread::scope(|s| {
            s.spawn(|| {
                for block in &barrier_blocks {
                    if deliver(&mux, &chan_a, block).is_err() {
                        break;
                    }
                }
            });
            tps = drive(&mux, &chan_b, &measured, total_txs);
        });
        let b_stats = mux.stats(&chan_b).expect("channel B attached");
        assert_eq!(b_stats.blocks, measured.len() as u64);
        let a_stats = mux.stats(&chan_a).expect("channel A attached");
        // Channel A may still have barriers queued; discard the tail.
        mux.abort();
        (tps, a_stats.queues.dependency_stalls, a_stats.blocks)
    };
    // Interleave the two configurations so machine drift hits both alike.
    let mut alone_tps = 0.0f64;
    let mut concurrent = (0.0f64, 0usize, 0u64);
    for _ in 0..reps {
        alone_tps = alone_tps.max(run_alone());
        let run = run_concurrent();
        if run.0 > concurrent.0 {
            concurrent = run;
        }
    }
    let (concurrent_tps, a_stalls, a_committed) = concurrent;
    let degradation = 100.0 * (1.0 - concurrent_tps / alone_tps);
    let mut table = Table::new(&[
        "channel B workload",
        "tps",
        "vs alone",
        "barrier blocks beside it",
    ]);
    table.row(vec![
        "alone".into(),
        format!("{alone_tps:.0}"),
        "-".into(),
        "0".into(),
    ]);
    table.row(vec![
        "beside barrier channel".into(),
        format!("{concurrent_tps:.0}"),
        format!("{degradation:+.1}%"),
        format!("{a_committed} committed, {a_stalls} barrier stalls"),
    ]);
    table.print();
    if !smoke {
        assert!(
            degradation <= 10.0,
            "a barrier-stalled channel must not steal more than 10% of a \
             busy channel's throughput (got {degradation:.1}%)"
        );
    }

    // Scenario 2: key-level dependency stalls on the key-disjoint spend
    // workload (Fabcoin's VSCC reads committed state, so a block-level
    // rule would serialize every block). The peer persists durably
    // (FsBackend + synced appends), as a production committer would: the
    // fsync is the sequential stage the key-level rule hides behind the
    // next blocks' VSCC.
    let fine_per_block = if smoke { 5 } else { 10 };
    let fine_blocks = (n_tx / fine_per_block).max(4);
    let mut fine_net = fabcoin_net();
    let (fine_setup, fine_measured) = spend_chain(&mut fine_net, fine_blocks, fine_per_block);
    let fine_txs: usize = fine_measured.iter().map(|b| b.envelopes.len()).sum();
    let bench_dir = std::env::temp_dir().join(format!("fabric-mc-overlap-{}", std::process::id()));
    let mut run_seq = 0u32;
    let mut run_key_level = || {
        run_seq += 1;
        let dir = bench_dir.join(format!("run-{run_seq}"));
        let backend = Arc::new(
            fabric::kvstore::FsBackend::new(&dir).expect("bench scratch dir"),
        );
        let mut spec = PeerSpec::new(0, "mode.org1", workers);
        spec.backend = Some(backend);
        spec.config.sync_writes = true;
        let peer = fine_net.join(spec);
        for block in &fine_setup {
            peer.commit_block(block).expect("setup commits");
        }
        let mux = mux_of(workers, &[(&chan_b, &peer)]);
        let tps = drive(&mux, &chan_b, &fine_measured, fine_txs);
        let mut stats = mux.close().expect("pipeline closes");
        let stats = stats.remove(&chan_b).expect("channel attached");
        assert_eq!(stats.blocks, fine_measured.len() as u64);
        drop(peer);
        let _ = std::fs::remove_dir_all(&dir);
        (tps, stats.queues.dependency_stalls)
    };
    let mut best = (0.0f64, 0usize);
    for _ in 0..reps {
        let run = run_key_level();
        if run.0 > best.0 {
            best = run;
        }
    }
    let (tps, stalls) = best;
    let mut mode_table = Table::new(&["dependency mode", "tps", "dep stalls"]);
    mode_table.row(vec!["key-level".into(), format!("{tps:.0}"), format!("{stalls}")]);
    println!(
        "\n-- dependency stalls on {fine_blocks} blocks x {fine_per_block} \
         key-disjoint spends --"
    );
    mode_table.print();
    assert_eq!(stalls, 0, "disjoint coins must never stall the admitter");
    // Scenario 3: starved channel — sparse single-tx probes on channel B
    // beside a deep backlog of cheap transactions on channel A, under the
    // shared pool's DRR task scheduling. The probe's VSCC cost is kept
    // well above the backlog's per-tx cost so its latency is dominated by
    // pool service order (what the scheduler controls) rather than OS
    // thread-scheduling noise from the backlog's sequencer on small
    // hosts.
    let probe_vscc = Duration::from_millis(10);
    let backlog_vscc = Duration::from_micros(500);
    let (backlog_blocks, backlog_txs, probe_count) =
        if smoke { (24, 8, 6) } else { (128, 32, 20) };
    let backlog = build_sleep_chain(&net, backlog_blocks, backlog_txs, 31);
    let probes = build_sleep_chain(&net, probe_count, 1, 37);
    let starved_run = |with_backlog: bool| -> Duration {
        let peer_b = sleep_peer(&net, "sparse.org1", probe_vscc);
        let mux = mux_of(workers, &[(&chan_b, &peer_b)]);
        let mut latencies = if with_backlog {
            let peer_a = sleep_peer(&net, "flood.org1", backlog_vscc);
            mux.attach(chan_a.clone(), &peer_a, PipelineOptions::default())
                .expect("channel A attaches");
            let latencies = std::thread::scope(|s| {
                s.spawn(|| {
                    for block in &backlog {
                        if deliver(&mux, &chan_a, block).is_err() {
                            break;
                        }
                    }
                });
                // Let the backlog pile up in A's queues before probing,
                // and check it did (blocks in the intake plus blocks'
                // worth of tasks in A's scheduler queue) — otherwise
                // the probes measure an idle pool.
                std::thread::sleep(Duration::from_millis(30));
                let queues = mux.stats(&chan_a).expect("channel A attached").queues;
                let queued = queues.intake_peak + queues.vscc_tasks_peak / backlog_txs;
                assert!(
                    smoke || queued >= 8,
                    "channel A's backlog never queued ({queues:?})"
                );
                probe_latencies(&mux, &chan_b, &probes)
            });
            // The backlog's tail is irrelevant; drop it.
            mux.abort();
            latencies
        } else {
            let latencies = probe_latencies(&mux, &chan_b, &probes);
            mux.close().expect("sparse channel closes");
            latencies
        };
        p99(&mut latencies)
    };
    let mut solo_p99 = Duration::MAX;
    let mut drr_p99 = Duration::MAX;
    for _ in 0..reps {
        solo_p99 = solo_p99.min(starved_run(false));
        drr_p99 = drr_p99.min(starved_run(true));
    }
    let ms = |d: Duration| format!("{:.2} ms", d.as_secs_f64() * 1e3);
    println!(
        "\n-- starved channel: {probe_count} sparse probes beside a \
         {backlog_blocks}-block x {backlog_txs}-tx backlog --"
    );
    let mut starved_table = Table::new(&["sparse channel B", "p99 commit latency"]);
    starved_table.row(vec!["solo".into(), ms(solo_p99)]);
    starved_table.row(vec!["beside backlog, DRR".into(), ms(drr_p99)]);
    starved_table.print();
    if !smoke {
        assert!(
            drr_p99 <= solo_p99 * 2,
            "DRR must bound the sparse channel's p99 within 2x of solo \
             ({} vs {} solo)",
            ms(drr_p99),
            ms(solo_p99)
        );
    }

    println!(
        "\nexpected shape: channel B within 10% of alone despite the barrier \
         channel; zero dependency stalls on disjoint coins; sparse-channel \
         p99 within 2x of solo under DRR with the sibling's backlog queued."
    );
}
