//! **Table 1**: latency staging — endorsement, ordering, VSCC, read-write
//! check, ledger, validation, end-to-end — for mint and spend transactions
//! at a near-saturated peer with 2 MB blocks (paper Sec. 5.2).
//!
//! The paper's numbers (ms, mint / spend): endorsement 5.6/7.5, ordering
//! 248/365, VSCC 31.0/35.3, rw-check 34.8/61.5, ledger 50.6/72.2,
//! validation 116/169, end-to-end 371/542. Absolute values here depend on
//! this host; the reproduced *shape* is: ordering dominates end-to-end,
//! sub-second tails, VSCC < rw+ledger at high parallelism.

use fabric_bench::pipeline::{run_pipeline, PipelineConfig, PipelineResult, Storage, TxKind};
use fabric_bench::stats::{LatencyStats, Table};

struct PaperRow {
    stage: &'static str,
    mint: [f64; 4],
    spend: [f64; 4],
}

const PAPER: [PaperRow; 7] = [
    PaperRow {
        stage: "(1) endorsement",
        mint: [5.6, 2.4, 15.0, 19.0],
        spend: [7.5, 4.2, 21.0, 26.0],
    },
    PaperRow {
        stage: "(2) ordering",
        mint: [248.0, 60.0, 484.0, 523.0],
        spend: [365.0, 92.0, 624.0, 636.0],
    },
    PaperRow {
        stage: "(3) VSCC val.",
        mint: [31.0, 10.2, 72.7, 113.0],
        spend: [35.3, 9.0, 57.0, 108.4],
    },
    PaperRow {
        stage: "(4) R/W check",
        mint: [34.8, 3.9, 47.0, 59.0],
        spend: [61.5, 9.3, 88.5, 93.3],
    },
    PaperRow {
        stage: "(5) ledger",
        mint: [50.6, 6.2, 70.1, 72.5],
        spend: [72.2, 8.8, 97.5, 105.0],
    },
    PaperRow {
        stage: "(6) validation",
        mint: [116.0, 12.8, 156.0, 199.0],
        spend: [169.0, 17.8, 216.0, 230.0],
    },
    PaperRow {
        stage: "(7) end-to-end",
        mint: [371.0, 63.0, 612.0, 646.0],
        spend: [542.0, 94.0, 805.0, 813.0],
    },
];

fn stats_of(result: &PipelineResult, idx: usize) -> LatencyStats {
    match idx {
        0 => result.endorse,
        1 => result.ordering,
        2 => result.vscc,
        3 => result.rw_check,
        4 => result.ledger,
        5 => result.validation,
        _ => result.e2e,
    }
}

fn fmt(s: &LatencyStats) -> String {
    format!(
        "{:.1} / {:.1} / {:.0} / {:.0}",
        s.avg_ms, s.stdev_ms, s.p99_ms, s.p999_ms
    )
}

fn main() {
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let vcpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("== Table 1: latency staging (ms: avg / st.dev / 99% / 99.9%) ==");
    println!("   2 MB blocks, near-saturation load, {vcpus} VSCC workers\n");

    // Find saturation, then pace at 90% like the paper's "just below
    // saturation" methodology.
    let run = |kind: TxKind| {
        let sat = run_pipeline(&PipelineConfig {
            n_tx: n_tx / 2,
            kind,
            preferred_block_bytes: 2 * 1024 * 1024,
            vscc_parallelism: vcpus,
            storage: Storage::Mem,
            paced_tps: None,
        });
        run_pipeline(&PipelineConfig {
            n_tx,
            kind,
            preferred_block_bytes: 2 * 1024 * 1024,
            vscc_parallelism: vcpus,
            storage: Storage::Mem,
            paced_tps: Some(sat.tps * 0.9),
        })
    };
    let mint = run(TxKind::Mint);
    let spend = run(TxKind::Spend);

    let mut table = Table::new(&[
        "stage",
        "paper mint",
        "measured mint",
        "paper spend",
        "measured spend",
    ]);
    for (idx, row) in PAPER.iter().enumerate() {
        let fmt_paper =
            |v: &[f64; 4]| format!("{:.1} / {:.1} / {:.0} / {:.0}", v[0], v[1], v[2], v[3]);
        table.row(vec![
            row.stage.to_string(),
            fmt_paper(&row.mint),
            fmt(&stats_of(&mint, idx)),
            fmt_paper(&row.spend),
            fmt(&stats_of(&spend, idx)),
        ]);
    }
    table.print();
    println!(
        "\nthroughput during the paced runs: mint {:.0} tps, spend {:.0} tps",
        mint.tps, spend.tps
    );

    // Pipelined-committer internals: per-stage histograms as observed by
    // the cross-block pipeline, plus its queue-depth gauges.
    println!("\n== pipelined committer stages (ms: avg / 99% / 99.9%) ==");
    let mut stages = Table::new(&["stage", "mint", "spend"]);
    let fmt_stage = |s: &fabric::peer::StageHistogram| {
        let sum = s.summary();
        format!(
            "{:.1} / {:.1} / {:.1}",
            sum.avg.as_secs_f64() * 1e3,
            sum.p99.as_secs_f64() * 1e3,
            sum.p999.as_secs_f64() * 1e3
        )
    };
    for (name, pick) in [
        ("VSCC (queued+run)", 0usize),
        ("R/W check", 1),
        ("ledger append", 2),
        ("total", 3),
    ] {
        let of = |r: &PipelineResult| match pick {
            0 => fmt_stage(&r.pipeline.vscc),
            1 => fmt_stage(&r.pipeline.rw_check),
            2 => fmt_stage(&r.pipeline.ledger),
            _ => fmt_stage(&r.pipeline.total),
        };
        stages.row(vec![name.to_string(), of(&mint), of(&spend)]);
    }
    stages.print();
    for (name, r) in [("mint", &mint), ("spend", &spend)] {
        let q = r.pipeline.queues;
        println!(
            "{name} queues: intake peak {}, vscc tasks peak {}, reorder peak {}, dependency stalls {}",
            q.intake_peak, q.vscc_tasks_peak, q.reorder_peak, q.dependency_stalls
        );
    }
    println!("\nexpected shape: ordering dominates e2e; all averages sub-second.");
}
