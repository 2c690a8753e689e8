//! Micro-benchmark: sequential committer
//! ([`fabric::peer::Peer::commit_block`]) vs cross-block pipelined
//! committer ([`fabric::peer::DeliverMux`]) on a pre-built chain of
//! Fabcoin spend blocks.
//!
//! The sequential path validates one block at a time (VSCC → rw-check →
//! append); the pipeline overlaps block *n+1*'s VSCC with block *n*'s
//! rw-check and append. Every spend consumes a coin minted before the
//! measured window, so there are no cross-block VSCC read dependencies and
//! the overlap is maximal — this isolates the pipelining win itself.
//!
//! Expected shape: at 1 worker the two paths are within noise (VSCC is the
//! only stage with parallelism to exploit); at ≥4 workers the pipelined
//! committer wins because the sequential stages of block *n* no longer
//! idle the VSCC pool.
//!
//! The two paths alternate which runs first at each worker count, so a
//! warm-up or cache effect that favours the second run does not always
//! land on the same side of the `speedup` column.

use std::time::Instant;

use fabric::net::{FabcoinNetwork, NetSpec, PeerSpec};
use fabric::peer::{DeliverMux, PipelineOptions, PipelineStats};
use fabric::primitives::block::Block;
use fabric_bench::coins::spend_chain;
use fabric_bench::pipeline::deliver;
use fabric_bench::stats::Table;

fn main() {
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_200);
    let txs_per_block = 100;
    let n_blocks = (n_tx / txs_per_block).max(2);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!(
        "== pipelined vs sequential committer ({} blocks × {} spends) ==",
        n_blocks, txs_per_block
    );

    let mut net =
        FabcoinNetwork::new(NetSpec::new(&["Org1"]).peer(PeerSpec::new(0, "builder.org1", 2)));
    let (setup, measured) = spend_chain(&mut net, n_blocks, txs_per_block);
    let total_txs: usize = measured.iter().map(|b| b.envelopes.len()).sum();

    let mut workers: Vec<usize> = vec![1, 2, 4, host_cores];
    workers.sort_unstable();
    workers.dedup();
    workers.retain(|&w| w <= host_cores.max(4));

    let mut table = Table::new(&[
        "VSCC workers",
        "timed first",
        "sequential tps",
        "pipelined tps",
        "speedup",
        "dep stalls",
    ]);
    for (i, &w) in workers.iter().enumerate() {
        let sequential_first = i % 2 == 0;
        let first = if sequential_first {
            "sequential"
        } else {
            "pipelined"
        };
        let (seq_tps, (pipe_tps, stats)) = if sequential_first {
            let seq = sequential(&net, w, &setup, &measured, total_txs);
            (seq, pipelined(&net, w, &setup, &measured, total_txs))
        } else {
            let pipe = pipelined(&net, w, &setup, &measured, total_txs);
            (sequential(&net, w, &setup, &measured, total_txs), pipe)
        };

        table.row(vec![
            format!("{w}"),
            first.to_string(),
            format!("{seq_tps:.0}"),
            format!("{pipe_tps:.0}"),
            format!("{:.2}x", pipe_tps / seq_tps),
            format!("{}", stats.queues.dependency_stalls),
        ]);
    }
    table.print();
    println!("\nexpected shape: speedup > 1.0x at ≥4 workers (VSCC of block n+1");
    println!("overlaps the sequential rw-check + append of block n).");
}

/// Commits `measured` one block at a time through `Peer::commit_block` on a
/// fresh peer with `w` VSCC workers; returns its tps.
fn sequential(
    net: &FabcoinNetwork,
    w: usize,
    setup: &[Block],
    measured: &[Block],
    total_txs: usize,
) -> f64 {
    let peer = net.join(PeerSpec::new(0, "seq.org1", w));
    for block in setup {
        peer.commit_block(block).expect("setup commits");
    }
    let t0 = Instant::now();
    for block in measured {
        let (flags, _) = peer.commit_block(block).expect("commit");
        assert!(flags.iter().all(|f| f.is_valid()));
    }
    total_txs as f64 / t0.elapsed().as_secs_f64()
}

/// Commits `measured` through a mux of `w` VSCC workers on a fresh peer;
/// returns its tps and the channel's pipeline stats.
fn pipelined(
    net: &FabcoinNetwork,
    w: usize,
    setup: &[Block],
    measured: &[Block],
    total_txs: usize,
) -> (f64, PipelineStats) {
    let peer = net.join(PeerSpec::new(0, "pipe.org1", w));
    for block in setup {
        peer.commit_block(block).expect("setup commits");
    }
    let channel = peer.channel();
    let mux = DeliverMux::new(w);
    mux.attach(channel.clone(), &peer, PipelineOptions::default())
        .expect("pipeline attaches");
    let final_height = measured.last().unwrap().header.number + 1;
    let t0 = Instant::now();
    for block in measured {
        deliver(&mux, channel, block).expect("pipeline accepts");
    }
    mux.wait_committed(channel, final_height)
        .expect("pipeline drains");
    let tps = total_txs as f64 / t0.elapsed().as_secs_f64();
    let stats = mux
        .close()
        .expect("pipeline closes")
        .remove(channel)
        .expect("channel attached");
    assert_eq!(stats.blocks, measured.len() as u64);
    (tps, stats)
}
