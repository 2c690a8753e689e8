//! Experiment 6 / **Table 2**: 100 peers across five data centers, with
//! and without gossip (paper Sec. 5.2).
//!
//! Topology: ordering service and clients in Tokyo; 20 peers in each of
//! TK, HK, ML, SD, OS. The paper's own netperf single-TCP measurements to
//! TK parameterize the model: HK 240 Mbps, ML 98, SD 108, OS 54.
//!
//! Paper results (mint/spend tps): without gossip HK/ML/SD 1914/2048 and
//! OS 1389/1838; with gossip HK 2553/2762, ML 2558/2763, SD 2271/2409,
//! OS 1484/2013. Shape to reproduce: gossip helps every DC; OS stays
//! TCP-limited (54 Mbps single connection) with only a modest gain.

use fabric_bench::calibrate::calibrate;
use fabric_bench::model::{simulate_wan, ValidationModel};
use fabric_bench::stats::Table;
use fabric_bench::{table2_experiment, PAPER_MINT_PER_2MB, PAPER_SPEND_PER_2MB};

const PAPER_NO_GOSSIP: [(&str, u64, u64); 4] = [
    ("HK", 1914, 2048),
    ("ML", 1914, 2048),
    ("SD", 1914, 2048),
    ("OS", 1389, 1838),
];
const PAPER_GOSSIP: [(&str, u64, u64); 4] = [
    ("HK", 2553, 2762),
    ("ML", 2558, 2763),
    ("SD", 2271, 2409),
    ("OS", 1484, 2013),
];

fn main() {
    println!("== Table 2: 100 peers across 5 data centers (calibrated WAN model) ==\n");
    println!("calibrating host validation costs...");
    let cal = calibrate(600);
    let validation = ValidationModel {
        vcpus: 16,
        vscc_ns_per_tx: cal.vscc_ns_per_tx,
        seq_ns_per_tx: cal.seq_ns_per_tx,
    };
    let block_bytes: u64 = 2 * 1024 * 1024;
    // Paper transaction sizes govern bandwidth-per-tx (see fig8 harness).
    let spend_per_block = PAPER_SPEND_PER_2MB;
    let mint_per_block = PAPER_MINT_PER_2MB;
    println!(
        "  per-spend VSCC {:.2} ms, sequential {:.3} ms (paper tx sizes for bandwidth)\n",
        cal.vscc_ns_per_tx as f64 / 1e6,
        cal.seq_ns_per_tx as f64 / 1e6,
    );

    for (gossip, label, paper) in [
        (false, "without gossip", &PAPER_NO_GOSSIP),
        (
            true,
            "with gossip (2 orgs x 10 peers per DC)",
            &PAPER_GOSSIP,
        ),
    ] {
        println!("-- {label} --");
        let mint = simulate_wan(&table2_experiment(
            gossip,
            validation,
            mint_per_block,
            block_bytes,
        ));
        let spend = simulate_wan(&table2_experiment(
            gossip,
            validation,
            spend_per_block,
            block_bytes,
        ));
        let mut table = Table::new(&["DC", "paper mint/spend", "model mint/spend"]);
        for (dc, p_mint, p_spend) in paper.iter() {
            let m = mint.region_tps.get(*dc).copied().unwrap_or(0.0);
            let s = spend.region_tps.get(*dc).copied().unwrap_or(0.0);
            table.row(vec![
                dc.to_string(),
                format!("{p_mint} / {p_spend}"),
                format!("{m:.0} / {s:.0}"),
            ]);
        }
        table.print();
        println!();
    }
    println!("expected shape: gossip lifts HK/ML/SD; OS stays limited by its 54 Mbps");
    println!("single-TCP path to TK in both configurations — matching Table 2.");
}
