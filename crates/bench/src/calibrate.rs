//! Host calibration: measures the real CPU costs that parameterize the
//! WAN model (see `DESIGN.md`, "Calibration methodology").

use std::time::Instant;

use fabric::crypto::SigningKey;

use crate::pipeline::{run_pipeline, PipelineConfig, Storage, TxKind};

/// Measured per-operation costs on this host.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// One ECDSA P-256 verification, nanoseconds.
    pub verify_ns: u64,
    /// Parallelizable VSCC work per spend transaction, nanoseconds.
    pub vscc_ns_per_tx: u64,
    /// Sequential (rw-check + ledger) work per spend transaction, ns.
    pub seq_ns_per_tx: u64,
    /// Average serialized spend transaction size, bytes.
    pub spend_tx_bytes: u64,
    /// Average serialized mint transaction size, bytes.
    pub mint_tx_bytes: u64,
}

/// Measures ECDSA verification cost.
pub fn measure_verify_ns(iterations: u32) -> u64 {
    let key = SigningKey::from_seed(b"calibration");
    let sig = key.sign(b"calibration message");
    let start = Instant::now();
    for _ in 0..iterations {
        key.verifying_key()
            .verify(b"calibration message", &sig)
            .expect("valid signature");
    }
    (start.elapsed().as_nanos() / iterations.max(1) as u128) as u64
}

/// Runs the full calibration: a crypto microbench plus a small real
/// pipeline run with VSCC parallelism 1 to extract per-transaction stage
/// costs.
pub fn calibrate(sample_txs: usize) -> Calibration {
    let verify_ns = measure_verify_ns(200);
    let spend = run_pipeline(&PipelineConfig {
        n_tx: sample_txs,
        kind: TxKind::Spend,
        preferred_block_bytes: 512 * 1024,
        vscc_parallelism: 1,
        storage: Storage::Mem,
        paced_tps: None,
    });
    let mint = run_pipeline(&PipelineConfig {
        n_tx: (sample_txs / 4).max(50),
        kind: TxKind::Mint,
        preferred_block_bytes: 512 * 1024,
        vscc_parallelism: 1,
        storage: Storage::Mem,
        paced_tps: None,
    });
    let per_tx = |stage_avg_ms: f64, txs_per_block: f64| {
        ((stage_avg_ms * 1e6) / txs_per_block.max(1.0)) as u64
    };
    Calibration {
        verify_ns,
        vscc_ns_per_tx: per_tx(spend.vscc.avg_ms, spend.txs_per_block).max(1),
        seq_ns_per_tx: per_tx(
            spend.rw_check.avg_ms + spend.ledger.avg_ms,
            spend.txs_per_block,
        )
        .max(1),
        spend_tx_bytes: spend.avg_tx_bytes as u64,
        mint_tx_bytes: mint.avg_tx_bytes as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_cost_is_plausible() {
        let ns = measure_verify_ns(20);
        // Anywhere from 10 µs (optimized native) to 50 ms (debug) is
        // plausible; just check it's nonzero and finite.
        assert!(ns > 1_000, "verify measured at {ns} ns");
        assert!(ns < 500_000_000);
    }

    #[test]
    fn calibration_produces_positive_costs() {
        let cal = calibrate(60);
        assert!(cal.vscc_ns_per_tx > 0);
        assert!(cal.seq_ns_per_tx > 0);
        assert!(cal.spend_tx_bytes > 300);
        assert!(cal.mint_tx_bytes > 300);
    }
}
