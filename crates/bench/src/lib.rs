//! # fabric-bench
//!
//! The benchmark harness reproducing every table and figure of the paper's
//! evaluation (Sec. 5.2). Each `benches/*.rs` target is a standalone
//! binary (`harness = false`) that prints the paper's rows next to the
//! values measured (or simulated, for the WAN experiments) here; see
//! `EXPERIMENTS.md` for the index and for recorded paper-vs-measured
//! results.
//!
//! * [`coins`] — Fabcoin mint-then-spend setup for the committer and
//!   endorser benches.
//! * [`pipeline`] — the measured end-to-end execute-order-validate run
//!   (Fig. 6, Fig. 7, Table 1, Experiment 3).
//! * [`model`] — the calibrated discrete-event WAN model
//!   (Fig. 8, Table 2).
//! * [`calibrate`] — host calibration feeding the model.
//! * [`stats`] — latency statistics and table rendering.

pub mod calibrate;
pub mod coins;
pub mod model;
pub mod pipeline;
pub mod stats;

use fabric::simnet::{GBPS, MBPS, MS};
use model::{LinkSpec, ValidationModel, WanExperiment};

/// Paper constants: transactions per 2 MB block (Sec. 5.2: 473 mint /
/// 670 spend).
pub const PAPER_SPEND_PER_2MB: usize = 670;
/// Paper constant: mint transactions per 2 MB block.
pub const PAPER_MINT_PER_2MB: usize = 473;

/// The paper's netperf measurements to Tokyo (Table 2 first row), Mbps.
pub const PAPER_NETPERF_TO_TK: [(&str, u64); 4] =
    [("HK", 240), ("ML", 98), ("SD", 108), ("OS", 54)];

/// Builds the Fig. 8 experiment: `peers` peers in one or two data centers.
///
/// `two_dc`: orderer + endorsers in TK, the (non-endorsing) measured peers
/// in HK behind 240 Mbps single-TCP paths. `gossip`: peers grouped into
/// orgs of 10 with one leader each.
pub fn fig8_experiment(
    peers: usize,
    two_dc: bool,
    gossip: bool,
    validation: ValidationModel,
    block_txs: usize,
    block_bytes: u64,
) -> WanExperiment {
    let lan = LinkSpec {
        latency_ns: MS / 2,
        bandwidth_bps: 5 * GBPS, // the paper measured 5-6.5 Gbps in-DC
    };
    let wan = LinkSpec {
        latency_ns: 30 * MS,
        bandwidth_bps: 240 * MBPS, // the paper's TK<->HK netperf
    };
    let (regions, links, peer_region) = if two_dc {
        (
            vec!["TK".to_string(), "HK".to_string()],
            vec![vec![lan, wan], vec![wan, lan]],
            1,
        )
    } else {
        (vec!["HK".to_string()], vec![vec![lan]], 0)
    };
    let gossip_orgs = gossip.then(|| {
        (0..peers.div_ceil(10))
            .map(|o| (o * 10..((o + 1) * 10).min(peers)).collect())
            .collect()
    });
    WanExperiment {
        regions,
        links,
        osn_region: 0,
        osn_count: 3,
        // Aggregate WAN egress per OSN: the paper's inter-DC capacity is
        // bounded well below the 5-6.5 Gbps LAN figure; 2 Gbps reproduces
        // the observed saturation point (~90 peers at ~2 ktps).
        osn_egress_bps: if two_dc { 2 * GBPS } else { 5 * GBPS },
        peer_egress_bps: 5 * GBPS,
        peer_regions: vec![peer_region; peers],
        gossip_orgs,
        block_txs,
        block_bytes,
        blocks: 40,
        validation,
    }
}

/// Builds the Table 2 experiment: orderer in TK, 20 peers in each of five
/// data centers, with the paper's netperf single-TCP caps.
pub fn table2_experiment(
    gossip: bool,
    validation: ValidationModel,
    block_txs: usize,
    block_bytes: u64,
) -> WanExperiment {
    let region_names = ["TK", "HK", "ML", "SD", "OS"];
    let to_tk_mbps = [5_000u64, 240, 98, 108, 54]; // TK row uses LAN speed
    let n = region_names.len();
    let mut links = vec![
        vec![
            LinkSpec {
                latency_ns: 60 * MS,
                bandwidth_bps: 100 * MBPS,
            };
            n
        ];
        n
    ];
    #[allow(clippy::needless_range_loop)]
    for r in 0..n {
        // Within a region: LAN.
        links[r][r] = LinkSpec {
            latency_ns: MS / 2,
            bandwidth_bps: 5 * GBPS,
        };
        // To/from TK: the paper's netperf numbers.
        links[r][0] = LinkSpec {
            latency_ns: 40 * MS,
            bandwidth_bps: to_tk_mbps[r] * MBPS,
        };
        links[0][r] = links[r][0];
    }
    // 20 peers per region.
    let mut peer_regions = Vec::new();
    for r in 0..n {
        peer_regions.extend(std::iter::repeat_n(r, 20));
    }
    let gossip_orgs = gossip.then(|| {
        // 2 orgs of 10 peers per DC (the paper's layout).
        (0..10usize)
            .map(|o| (o * 10..(o + 1) * 10).collect())
            .collect()
    });
    WanExperiment {
        regions: region_names.iter().map(|s| s.to_string()).collect(),
        links,
        osn_region: 0,
        osn_count: 3,
        osn_egress_bps: 2 * GBPS,
        peer_egress_bps: 5 * GBPS,
        peer_regions,
        gossip_orgs,
        block_txs,
        block_bytes,
        blocks: 40,
        validation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_lan_experiment_shape() {
        let exp = fig8_experiment(
            20,
            false,
            false,
            ValidationModel {
                vcpus: 16,
                vscc_ns_per_tx: 300_000,
                seq_ns_per_tx: 60_000,
            },
            670,
            2 * 1024 * 1024,
        );
        assert_eq!(exp.peer_regions.len(), 20);
        assert!(exp.gossip_orgs.is_none());
    }

    #[test]
    fn table2_has_100_peers_in_5_regions() {
        let exp = table2_experiment(
            true,
            ValidationModel {
                vcpus: 16,
                vscc_ns_per_tx: 300_000,
                seq_ns_per_tx: 60_000,
            },
            670,
            2 * 1024 * 1024,
        );
        assert_eq!(exp.peer_regions.len(), 100);
        assert_eq!(exp.regions.len(), 5);
        assert_eq!(exp.gossip_orgs.as_ref().unwrap().len(), 10);
    }
}
