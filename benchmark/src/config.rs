//! Workload definitions, phase plan and the harness's non-default
//! configuration. Every value here that differs from a crate `Default`
//! is listed, with its reason, in `benchmark/README.md`; everything not
//! set here stays at the crate default so that flipping a default in a
//! later change shows up in the numbers.

use std::time::Duration;

use fabric::primitives::config::BatchConfig;

/// Virtual clients of the closed-loop (saturation) phase, each with one
/// transaction outstanding from proposal submit to commit event.
pub const CLIENTS: usize = 256;
/// Closed-loop read-only query clients (`kv-mixed` only).
pub const READERS: usize = 16;
/// Open-loop queries per open-loop write (`kv-mixed` paced phase). At
/// four the paced phase carried nearly three times the query load of
/// the saturation phase and ran two thirds busy, so that a slow spell of
/// the host moved its percentiles by a fifth.
pub const QUERY_RATE_FACTOR: f64 = 2.0;
/// Latency limit of the paced phase; a shed, failed or invalid
/// transaction counts as a miss.
pub const SLO_MS: f64 = 1000.0;
/// Wall-clock milliseconds per `OrderingCluster::tick`.
pub const MS_PER_TICK: u64 = 10;
/// Wall-clock milliseconds per `GossipNode::tick`.
pub const GOSSIP_TICK_MS: u64 = 100;
/// Uniform fee: the bounded mempool then sheds a newcomer instead of
/// evicting, so dispatch order stays strict admission order.
pub const FEE: u64 = 1;
/// Keys pre-loaded by `kv-mixed`.
pub const KV_KEYS: u64 = 25_000;
/// Bytes per pre-loaded value.
pub const KV_VALUE_LEN: usize = 512;
/// Keys read per `kv-mixed` write transaction.
pub const KV_READS: usize = 32;
/// Of the keys read, the coldest `KV_WRITES` are rewritten.
pub const KV_WRITES: usize = 4;
/// Proposals kept aside for the post-window `process_proposal` and
/// `broadcast_batch` probes (traced runs).
pub const PROBE_PROPOSALS: usize = 500;
/// Default run length when `--seconds` is absent.
pub const DEFAULT_SECONDS: u64 = 18;
/// Default seed of `run.sh`.
pub const DEFAULT_SEED: u64 = 20180423;

/// Blocks of 100 transactions. The time-to-cut stays at the crate's
/// one second: at every workload's rates a block fills several times
/// faster than that, so blocks are cut by count in both phases and the
/// timer only flushes the last partial block of a phase.
pub fn batch_config() -> BatchConfig {
    BatchConfig {
        max_message_count: 100,
        ..BatchConfig::default()
    }
}

/// The application a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Conflict-free single-input Fabcoin spends.
    Fabcoin,
    /// The benchmark-owned KV chaincode over pre-loaded keys.
    Kv,
}

/// One configuration of the harness.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub app: App,
    /// 3-OSN Raft, two peers on `FsBackend` with `sync_writes`, blocks
    /// reach the measured peer through gossip. Otherwise Solo, one peer,
    /// `MemBackend`.
    pub durable: bool,
    /// Open loop for the whole window (no closed-loop phase).
    pub open_loop_only: bool,
    /// Frozen open-loop rate, transactions per second.
    pub paced_rate: f64,
    /// Closed-loop throughput the proposal pool is provisioned for; the
    /// run is refused if the pool runs dry.
    pub provision_tps: f64,
    /// Closed-loop query throughput provisioned for (`kv-mixed`).
    pub provision_qps: f64,
    /// Non-default gateway mempool bound.
    pub mempool_capacity: Option<usize>,
}

/// The four workloads, in the order `run.sh` runs them.
///
/// `paced_rate` is half the median saturation `commit_tps` measured on
/// the seed commit, rounded to two significant figures; `overload` runs
/// at twice `spend`'s saturation rate (four times its paced rate).
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "spend",
        app: App::Fabcoin,
        durable: false,
        open_loop_only: false,
        paced_rate: 640.0,
        provision_tps: 1700.0,
        provision_qps: 0.0,
        mempool_capacity: None,
    },
    WorkloadSpec {
        name: "spend-durable",
        app: App::Fabcoin,
        durable: true,
        open_loop_only: false,
        paced_rate: 440.0,
        provision_tps: 1300.0,
        provision_qps: 0.0,
        mempool_capacity: None,
    },
    WorkloadSpec {
        name: "kv-mixed",
        app: App::Kv,
        durable: false,
        open_loop_only: false,
        paced_rate: 360.0,
        provision_tps: 1050.0,
        provision_qps: 800.0,
        mempool_capacity: None,
    },
    WorkloadSpec {
        name: "overload",
        app: App::Fabcoin,
        durable: false,
        open_loop_only: true,
        paced_rate: 2560.0,
        provision_tps: 0.0,
        provision_qps: 0.0,
        mempool_capacity: Some(512),
    },
];

pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How the measured seconds are spent.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Closed loop, discarded.
    pub warm: Duration,
    /// Closed loop, measured: `commit_tps`.
    pub sat: Duration,
    /// Closed loop with tracing switched off (traced runs only): the
    /// reference for `harness.trace_overhead_pct`.
    pub reference: Duration,
    /// Open loop at the frozen rate: latency percentiles.
    pub paced: Duration,
    pub trace: bool,
    /// Shrunk run for CI: same code paths, sample-count guards relaxed.
    pub smoke: bool,
}

impl Plan {
    /// Splits `seconds` into warm-up : saturation : paced = 1 : 4 : 4.
    /// `open_loop_only` workloads run open loop for all of it and discard
    /// the warm-up share.
    pub fn new(seconds: u64, trace: bool, smoke: bool) -> Plan {
        let total = Duration::from_secs(seconds.max(1));
        let warm = total / 9;
        let sat = total * 4 / 9;
        Plan {
            warm,
            sat,
            reference: if trace { sat / 2 } else { Duration::ZERO },
            paced: total - warm - sat,
            trace,
            smoke,
        }
    }

    pub fn closed_loop(&self) -> Duration {
        self.warm + self.sat + self.reference
    }

    /// How long an open loop keeps sending past its measured window: two
    /// blocks' worth of arrivals. Without it the window's last
    /// transactions would sit in a partial block until its time-to-cut
    /// expired, and that artefact would be the 99th percentile.
    pub fn cooldown(rate: f64) -> Duration {
        Duration::from_secs_f64(2.0 * f64::from(batch_config().max_message_count) / rate)
    }
}
