//! Experiment 2 / **Fig. 7**: impact of peer CPU on end-to-end throughput,
//! validation throughput, and block validation latency (paper Sec. 5.2).
//!
//! The paper runs peers with 4/8/16/32 vCPUs and finds that VSCC
//! validation ("embarrassingly parallel") scales quasi-linearly while the
//! sequential read-write-check and ledger stages become dominant at higher
//! core counts. Here the knob is the committer's VSCC worker-pool width.
//! Because this host has a fixed core count, the harness reports both the
//! real measurement and a calibrated-model extrapolation (same service
//! times on an ideal machine with that many cores).

use fabric::simnet::{GBPS, MS};
use fabric_bench::calibrate::calibrate;
use fabric_bench::model::{simulate_wan, LinkSpec, ValidationModel, WanExperiment};
use fabric_bench::pipeline::{run_pipeline, PipelineConfig, Storage, TxKind};
use fabric_bench::stats::Table;

fn modeled_tps(vcpus: usize, vscc_ns: u64, seq_ns: u64, block_txs: usize) -> f64 {
    // One LAN peer with an unconstrained network: pure validation bound.
    let exp = WanExperiment {
        regions: vec!["DC".into()],
        links: vec![vec![LinkSpec {
            latency_ns: MS / 2,
            bandwidth_bps: 40 * GBPS,
        }]],
        osn_region: 0,
        osn_count: 1,
        osn_egress_bps: 40 * GBPS,
        peer_egress_bps: 40 * GBPS,
        peer_regions: vec![0],
        gossip_orgs: None,
        block_txs,
        block_bytes: 2 * 1024 * 1024,
        blocks: 40,
        validation: ValidationModel {
            vcpus,
            vscc_ns_per_tx: vscc_ns,
            seq_ns_per_tx: seq_ns,
        },
    };
    simulate_wan(&exp).avg_tps
}

fn main() {
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_500);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("== Fig. 7: peer vCPUs vs throughput and validation latency ==");
    println!("   paper (32 vCPU): >3560 tps spend, >3420 tps mint e2e;");
    println!("   VSCC scales quasi-linearly, sequential stages dominate at high core counts");
    println!("   (host has {host_cores} cores; modeled column extrapolates beyond that)\n");

    println!("calibrating host service times...");
    let cal = calibrate(600);
    println!(
        "  ECDSA verify {:.1} µs; per-spend VSCC {:.2} ms, sequential {:.3} ms\n",
        cal.verify_ns as f64 / 1e3,
        cal.vscc_ns_per_tx as f64 / 1e6,
        cal.seq_ns_per_tx as f64 / 1e6
    );

    for (kind, name, block_txs) in [
        (
            TxKind::Mint,
            "mint (Fig. 7a)",
            fabric_bench::PAPER_MINT_PER_2MB,
        ),
        (
            TxKind::Spend,
            "spend (Fig. 7b)",
            fabric_bench::PAPER_SPEND_PER_2MB,
        ),
    ] {
        println!("-- {name} --");
        let mut table = Table::new(&[
            "vCPUs",
            "e2e tps (meas)",
            "val tps (meas)",
            "block val ms (meas)",
            "val tps (model)",
        ]);
        for vcpus in [4usize, 8, 16, 32] {
            let result = run_pipeline(&PipelineConfig {
                n_tx,
                kind,
                preferred_block_bytes: 2 * 1024 * 1024,
                vscc_parallelism: vcpus,
                storage: Storage::Mem,
                paced_tps: None,
            });
            let model = modeled_tps(vcpus, cal.vscc_ns_per_tx, cal.seq_ns_per_tx, block_txs);
            table.row(vec![
                format!("{vcpus}"),
                format!("{:.0}", result.tps),
                format!("{:.0}", result.validation_tps),
                format!("{:.1}", result.validation.avg_ms),
                format!("{:.0}", model),
            ]);
        }
        table.print();
        println!();
    }
    println!("expected shape: validation throughput grows with vCPUs but sub-linearly at");
    println!("32 (sequential rw-check + ledger stages bound it), matching the paper.");
}
