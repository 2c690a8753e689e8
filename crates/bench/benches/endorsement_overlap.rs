//! Micro-benchmark: sequential endorser vs the sharded endorsement
//! pipeline ([`fabric::peer::Peer::endorse_pipeline`]) on a Fabcoin spend
//! workload.
//!
//! The paper's Sec. 3.2 argument is that endorsement is embarrassingly
//! parallel — simulation touches only a state snapshot and signing is a
//! pure function of the simulation result. The sequential path processes
//! one proposal end to end at a time; the pipeline overlaps client
//! authentication + simulation across a worker pool and drains the ECDSA
//! signing stage in batches. Every spend consumes a distinct pre-minted
//! coin, so all proposals simulate against one committed state and the
//! workloads are identical across paths.
//!
//! Expected shape: near-linear scaling while simulation (two ECDSA
//! verifies + chaincode execution per spend) dominates, flattening as the
//! single batching signer becomes the serial bottleneck (Amdahl).
//!
//! `FABRIC_BENCH_SMOKE=1` shrinks the run to a few hundred proposals and a
//! single worker point for CI. `FABRIC_BENCH_JSON=<path>` additionally
//! writes the results as JSON.

use std::time::Instant;

use fabric::net::{FabcoinNetwork, NetSpec, PeerSpec};
use fabric::peer::EndorseOptions;
use fabric::primitives::transaction::SignedProposal;
use fabric_bench::coins::{mint_coins, self_spend};
use fabric_bench::stats::Table;

fn main() {
    let smoke = std::env::var("FABRIC_BENCH_SMOKE").is_ok();
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 200 } else { 2000 });
    let sweep: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 8] };

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== Endorsement pipeline vs sequential endorser (Fabcoin spends) ==");
    println!(
        "   ({n_tx} single-coin spend proposals; inline chaincode execution; {cpus} host cpu(s))"
    );
    if cpus < 4 {
        println!("   NOTE: endorsement is CPU-bound; on a {cpus}-core host the worker sweep");
        println!("   measures overhead, not scaling — interpret speedups accordingly.");
    }
    println!();

    // One org, one endorsing peer. Setup mints one coin per spend and
    // commits it, so every spend simulates against the same state; the
    // spend proposals are built up front (proposal construction and
    // wallet signing are client-side work, outside the measured window).
    let mut net =
        FabcoinNetwork::new(NetSpec::new(&["Org1"]).peer(PeerSpec::new(0, "endorser.org1", 1)));
    let coins = mint_coins(&mut net, n_tx);
    let proposals: Vec<SignedProposal> = coins
        .iter()
        .take(n_tx)
        .map(|c| self_spend(&net, c))
        .collect();
    let peer = &net.peers[0];

    // Baseline: the sequential endorser, one proposal end to end at a time.
    let start = Instant::now();
    for sp in &proposals {
        peer.process_proposal(sp).expect("spend endorses");
    }
    let seq_elapsed = start.elapsed();
    let seq_tps = n_tx as f64 / seq_elapsed.as_secs_f64();

    let mut table = Table::new(&[
        "path",
        "workers",
        "endorse tps",
        "speedup",
        "sign batches",
        "max batch",
    ]);
    table.row(vec![
        "sequential".into(),
        "1".into(),
        format!("{seq_tps:.0}"),
        "1.00x".into(),
        "-".into(),
        "-".into(),
    ]);

    let mut json_points = Vec::new();
    for &workers in sweep {
        let pipeline = peer.endorse_pipeline(EndorseOptions {
            workers,
            // The bench submits the whole workload before draining any
            // tickets; size the intake to the burst.
            intake_capacity: n_tx,
            ..EndorseOptions::default()
        });
        let start = Instant::now();
        let tickets: Vec<_> = proposals
            .iter()
            .map(|sp| pipeline.submit(sp.clone()).expect("intake admits"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("spend endorses");
        }
        let elapsed = start.elapsed();
        let stats = pipeline.stats();
        pipeline.close();
        assert_eq!(stats.endorsed as usize, n_tx, "every proposal endorsed");
        let tps = n_tx as f64 / elapsed.as_secs_f64();
        let speedup = tps / seq_tps;
        table.row(vec![
            "pipeline".into(),
            format!("{workers}"),
            format!("{tps:.0}"),
            format!("{speedup:.2}x"),
            format!("{}", stats.sign_batches),
            format!("{}", stats.max_batch),
        ]);
        json_points.push(format!(
            "{{\"workers\":{workers},\"tps\":{tps:.1},\"speedup\":{speedup:.3},\
             \"sign_batches\":{},\"max_batch\":{}}}",
            stats.sign_batches, stats.max_batch
        ));
    }
    table.print();
    println!("\nexpected: throughput scales with workers while the two ECDSA verifies +");
    println!("simulation per spend dominate, flattening once the single batching signer");
    println!("is the remaining serial stage; sign batches shrink (batches grow) under load.");

    if let Ok(path) = std::env::var("FABRIC_BENCH_JSON") {
        let json = format!(
            "{{\"bench\":\"endorsement_overlap\",\"workload\":\"fabcoin-spend\",\
             \"host_cpus\":{cpus},\"n_tx\":{n_tx},\"sequential_tps\":{seq_tps:.1},\
             \"pipeline\":[{}]}}\n",
            json_points.join(",")
        );
        std::fs::write(&path, json).expect("write bench JSON");
        println!("\nwrote {path}");
    }
}
