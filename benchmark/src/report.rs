//! Turns the window's raw stamps into the named metrics, the validity
//! guards and the waterfall.

use fabric::gossip::GossipStats;
use fabric::kvstore::StorageSnapshot;
use fabric::peer::{EndorseStats, PipelineStats};
use fabric::primitives::ids::TxValidationCode;

use crate::config::{batch_config, Plan, WorkloadSpec, SLO_MS};
use crate::driver::{ClientState, Verdict, WindowReport};
use crate::probes::Probes;
use crate::stats::{
    avg_inflight, mean, percentile, sorted, Boundaries, Summary, Waterfall, STAGES,
};

/// Lateness of the open-loop generator beyond which a run is refused,
/// at the 90th percentile: a generator that cannot keep its schedule is
/// late throughout, while one stall of the host is late for a few
/// percent of its submissions and shows in the reported 99th.
const GEN_LATE_LIMIT_MS: f64 = 20.0;
/// Fewest valid paced commits a 99th percentile is reported from: ten
/// samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 1000;
/// Share of saturation-phase blocks that may be cut by timeout.
const TIMEOUT_CUT_LIMIT: f64 = 0.05;

/// The leading per-layer metrics that every run measures, traced or
/// not: the two ratios and the two query metrics.
const ALWAYS_MEASURED: usize = 4;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<usize>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples: None,
    }
}

fn sampled(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        samples: Some(samples),
        ..metric(name, value, unit)
    }
}

/// What happened to one attempted write transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Valid,
    /// Committed with an MVCC or phantom-read conflict.
    Aborted,
    /// Answered `RetryAfter` by either gateway.
    Shed,
    /// Never sent: the client population's window was full.
    Dropped,
    /// Anything else: lost, failed endorsement, duplicate verdict,
    /// committed twice, or invalid for another reason. Never expected.
    Broken,
}

/// Measurements taken around the window rather than inside it.
pub struct Extras {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub probes: Option<Probes>,
    pub propose_us: f64,
    pub endorse: EndorseStats,
    /// The measured peer's commit pipeline, at `DeliverMux::close`.
    pub pipeline: PipelineStats,
    /// Storage counters of the measured peer: before and after.
    pub storage: (StorageSnapshot, StorageSnapshot),
    /// Bytes the measured peer's directory grew by (durable peers).
    pub ledger_bytes: u64,
    pub gossip: Vec<GossipStats>,
    /// `(hits, misses)` of speculative block signing, all OSNs.
    pub spec_signing: (u64, u64),
}

pub struct Analysis {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run must not be reported.
    pub refusals: Vec<String>,
    pub waterfall_paced: Waterfall,
    pub waterfall_sat: Waterfall,
    /// Mean per-transaction share of the commit stage, milliseconds:
    /// vscc, rw-check, ledger, and what is left (queueing).
    pub commit_split_ms: [f64; 4],
    pub outcomes: Vec<Option<Outcome>>,
}

impl Analysis {
    /// The per-layer metrics a run actually measured: all of them when
    /// traced, otherwise only those that need no layer timing or probe.
    pub fn measured_per_layer(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.per_layer[..ALWAYS_MEASURED]
        }
    }
}

fn within(ns: u64, window: (u64, u64)) -> bool {
    window.0 <= ns && ns < window.1
}

fn secs(window: (u64, u64)) -> f64 {
    window.1.saturating_sub(window.0) as f64 / 1e9
}

fn ms(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / 1e6
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn analyse(
    spec: &WorkloadSpec,
    plan: &Plan,
    window: &WindowReport,
    extras: &Extras,
) -> Analysis {
    let client = &window.client;
    let order = &window.order;
    let tl = client.timeline;
    let sat = (tl.sat_start_ns, tl.sat_end_ns);
    let reference = (tl.sat_end_ns, tl.reference_end_ns);
    let paced = (tl.paced_start_ns, tl.paced_end_ns);
    let measured = |due: u64| within(due, sat) || within(due, paced);

    let outcomes: Vec<Option<Outcome>> = client
        .txs
        .iter()
        .zip(&order.txs)
        .map(|(c, o)| {
            Some(match (c.state, o.verdict) {
                (ClientState::Unsent, _) => return None,
                (ClientState::Dropped, _) => Outcome::Dropped,
                (ClientState::FrontShed, _) | (ClientState::HandedOff, Verdict::Shed) => {
                    Outcome::Shed
                }
                (ClientState::HandedOff, Verdict::Admitted) if o.commits == 1 => match o.code {
                    Some(TxValidationCode::Valid) => Outcome::Valid,
                    Some(
                        TxValidationCode::MvccReadConflict | TxValidationCode::PhantomReadConflict,
                    ) => Outcome::Aborted,
                    _ => Outcome::Broken,
                },
                _ => Outcome::Broken,
            })
        })
        .collect();

    // --- end to end -----------------------------------------------------
    // Commits come a block at a time. Counting those inside a window and
    // dividing by its length would quantize the rate to one block per
    // window; so the rate is taken between commit events: what committed
    // after the window's first event, over the time to its last.
    let commit_rate = |w: (u64, u64)| {
        let events: Vec<(u64, f64)> = order
            .blocks
            .iter()
            .filter(|b| b.committed_ns != 0 && within(b.committed_ns, w))
            .map(|b| {
                let valid = b
                    .tx_indices
                    .iter()
                    .flatten()
                    .filter(|&&idx| outcomes[idx] == Some(Outcome::Valid))
                    .count();
                (b.committed_ns, valid as f64)
            })
            .collect();
        match (events.first(), events.last()) {
            (Some(first), Some(last)) if last.0 > first.0 => ratio(
                events[1..].iter().map(|e| e.1).sum(),
                (last.0 - first.0) as f64 / 1e9,
            ),
            _ => 0.0,
        }
    };
    let committed_valid_in = |w: (u64, u64)| {
        outcomes
            .iter()
            .zip(&order.txs)
            .filter(|(o, rec)| **o == Some(Outcome::Valid) && within(rec.committed_ns, w))
            .count()
    };
    let commit_tps = commit_rate(sat);
    let paced_latency: Vec<f64> = outcomes
        .iter()
        .zip(client.txs.iter().zip(&order.txs))
        .filter(|(o, (c, _))| **o == Some(Outcome::Valid) && within(c.due_ns, paced))
        .map(|(_, (c, o))| ms(c.due_ns, o.committed_ns))
        .collect();
    let paced_in_slo = paced_latency.iter().filter(|&&l| l <= SLO_MS).count() as f64;
    let latency = Summary::of(paced_latency);
    let end_to_end = vec![
        sampled("commit_tps", commit_tps, "tx/s", committed_valid_in(sat)),
        sampled("commit_p50_ms", latency.p50, "ms", latency.n),
        sampled("commit_p99_ms", latency.p99, "ms", latency.n),
        metric("setup_s", extras.setup_s, "s"),
        metric("peak_rss_mb", extras.peak_rss_mb, "MB"),
    ];

    // --- counts ---------------------------------------------------------
    let count = |pred: &dyn Fn(u64, Outcome) -> bool| {
        outcomes
            .iter()
            .zip(&client.txs)
            .filter(|(o, c)| o.is_some_and(|o| pred(c.due_ns, o)))
            .count() as f64
    };
    let attempted_txs = count(&|due, _| measured(due));
    let paced_attempts = count(&|due, _| within(due, paced));
    let not_valid = count(&|due, o| measured(due) && o != Outcome::Valid);
    let shed = count(&|due, o| measured(due) && o == Outcome::Shed);
    let dropped = count(&|due, o| measured(due) && o == Outcome::Dropped);
    let aborted = count(&|due, o| measured(due) && o == Outcome::Aborted);
    let committed =
        count(&|due, o| measured(due) && matches!(o, Outcome::Valid | Outcome::Aborted));
    let broken_txs = outcomes
        .iter()
        .flatten()
        .filter(|&&o| o == Outcome::Broken)
        .count();

    let queries_in = |w: (u64, u64)| {
        client
            .queries
            .iter()
            .filter(move |q| q.sent_ns != 0 && within(q.due_ns, w))
    };
    let query_tps = ratio(
        queries_in(sat)
            .filter(|q| q.ok && within(q.done_ns, sat))
            .count() as f64,
        secs(sat),
    );
    let query_latency = Summary::of(
        queries_in(paced)
            .filter(|q| q.ok)
            .map(|q| ms(q.due_ns, q.done_ns))
            .collect(),
    );
    let attempted_queries = queries_in(sat).count() + queries_in(paced).count();
    let broken_queries = client
        .queries
        .iter()
        .filter(|q| q.sent_ns != 0 && !q.ok)
        .count();

    // --- validity of the run --------------------------------------------
    let mut refusals = Vec::new();
    if let Some(why) = &order.stuck {
        refusals.push(format!("the pump gave up: {why}"));
    }
    if client.stuck {
        refusals.push("the closed loop's clients never all came back".into());
    }
    if let Some(pool) = client.pool_exhausted {
        refusals.push(format!(
            "the pre-signed {pool} pool ran dry: raise the workload's provisioned rate"
        ));
    }
    let lateness = sorted(
        client
            .txs
            .iter()
            .filter(|c| c.state != ClientState::Unsent && within(c.due_ns, paced))
            .map(|c| ms(c.due_ns, c.sent_ns))
            .chain(queries_in(paced).map(|q| ms(q.due_ns, q.sent_ns)))
            .collect(),
    );
    let late_p90 = percentile(&lateness, 90.0);
    if late_p90 > GEN_LATE_LIMIT_MS {
        refusals.push(format!(
            "the open-loop generator ran late: p90 {late_p90:.2} ms > {GEN_LATE_LIMIT_MS} ms"
        ));
    }
    // A growing backlog: more in flight over the last tenth of the paced
    // phase than twice the middle tenth's, beyond 50 ms of arrivals.
    let intervals: Vec<(u64, u64)> = outcomes
        .iter()
        .zip(client.txs.iter().zip(&order.txs))
        .filter(|(o, (c, _))| o.is_some() && within(c.due_ns, paced))
        .map(|(o, (c, rec))| match o {
            Some(Outcome::Valid | Outcome::Aborted) => (c.due_ns, rec.committed_ns),
            Some(Outcome::Shed | Outcome::Dropped) => (c.due_ns, c.sent_ns.max(c.due_ns)),
            _ => (c.due_ns, u64::MAX),
        })
        .collect();
    let span = paced.1 - paced.0;
    let at = |percent: u64| paced.0 + span * percent / 100;
    let inflight_mid = avg_inflight(&intervals, at(45), at(55));
    let inflight_end = avg_inflight(&intervals, at(90), at(100));
    if inflight_end > 2.0 * inflight_mid + 0.05 * spec.paced_rate {
        refusals.push(format!(
            "the paced phase ended with a growing backlog: {inflight_end:.1} in flight at the end, \
             {inflight_mid:.1} at the midpoint"
        ));
    }
    let sat_blocks: Vec<_> = order
        .blocks
        .iter()
        .filter(|b| within(b.visible_ns, sat))
        .collect();
    let timeout_cut = ratio(
        sat_blocks
            .iter()
            .filter(|b| b.txs < batch_config().max_message_count as usize)
            .count() as f64,
        sat_blocks.len() as f64,
    );
    if !spec.open_loop_only && timeout_cut > TIMEOUT_CUT_LIMIT {
        refusals.push(format!(
            "{:.0}% of the saturation phase's blocks were cut by timeout",
            timeout_cut * 100.0
        ));
    }
    if !plan.smoke && latency.n < MIN_LATENCY_SAMPLES {
        refusals.push(format!(
            "only {} paced latency samples; the 99th percentile needs {MIN_LATENCY_SAMPLES}",
            latency.n
        ));
    }
    // The pump must never be what limits throughput.
    let pump_rate = order.counters.pump_iterations as f64
        / (tl.paced_end_ns.max(tl.reference_end_ns) - tl.start_ns) as f64
        * 1e9;
    let drain_capacity = fabric::gateway::GatewayConfig::default().drain_max as f64 * pump_rate;
    if commit_tps >= drain_capacity / 2.0 {
        refusals.push(format!(
            "commit_tps {commit_tps:.0} is not below half the pump's drain capacity {drain_capacity:.0}"
        ));
    }

    // --- waterfall ------------------------------------------------------
    let boundaries_in = |w: (u64, u64)| -> Vec<Boundaries> {
        outcomes
            .iter()
            .zip(client.txs.iter().zip(&order.txs))
            .filter(|(o, (c, rec))| {
                **o == Some(Outcome::Valid)
                    && within(c.due_ns, w)
                    && c.assembled_ns != 0
                    && rec.arrived_ns != 0
            })
            .map(|(_, (c, o))| {
                [
                    c.due_ns,
                    c.endorsed_ns,
                    c.assembled_ns,
                    o.received_ns,
                    o.dispatched_ns,
                    o.ordered_ns,
                    o.arrived_ns,
                    o.committed_ns,
                ]
            })
            .collect()
    };
    let traced_paced = boundaries_in(paced);
    let waterfall_paced = Waterfall::of(&traced_paced);
    let waterfall_sat = Waterfall::of(&boundaries_in(sat));

    // Per-block validation timing, spread over the block's transactions.
    let traced_blocks: Vec<_> = order
        .blocks
        .iter()
        .filter(|b| {
            b.traced
                && b.committed_ns != 0
                && within(b.visible_ns, if spec.open_loop_only { paced } else { sat })
        })
        .collect();
    let block_txs: f64 = traced_blocks.iter().map(|b| b.txs as f64).sum();
    let per_tx_us = |pick: &dyn Fn(&fabric::peer::ValidationTiming) -> std::time::Duration| {
        ratio(
            traced_blocks
                .iter()
                .map(|b| pick(&b.timing).as_secs_f64() * 1e6)
                .sum(),
            block_txs,
        )
    };
    let paced_blocks: Vec<_> = order
        .blocks
        .iter()
        .filter(|b| b.traced && b.committed_ns != 0 && within(b.visible_ns, paced))
        .collect();
    let block_ms = |pick: &dyn Fn(&fabric::peer::ValidationTiming) -> std::time::Duration| {
        mean(
            &paced_blocks
                .iter()
                .map(|b| pick(&b.timing).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let (vscc_ms, rw_ms, ledger_ms) = (
        block_ms(&|t| t.vscc),
        block_ms(&|t| t.rw_check),
        block_ms(&|t| t.ledger),
    );
    let commit_split_ms = [
        vscc_ms,
        rw_ms,
        ledger_ms,
        waterfall_paced.stage_mean_ms[6] - vscc_ms - rw_ms - ledger_ms,
    ];

    // --- per layer ------------------------------------------------------
    let traced_txs = |w: (u64, u64)| {
        client
            .txs
            .iter()
            .zip(&order.txs)
            .filter(move |(c, _)| c.admitted_ns != 0 && within(c.due_ns, w))
    };
    let p50 = |values: Vec<f64>| {
        let n = values.len();
        (percentile(&sorted(values), 50.0), n)
    };
    let endorse = Summary::of(
        traced_txs(paced)
            .filter(|(c, _)| c.endorsed_ns != 0)
            .map(|(c, _)| ms(c.admitted_ns, c.endorsed_ns))
            .collect(),
    );
    let mempool_wait: Vec<f64> = traced_txs(paced)
        .filter(|(_, o)| o.dispatched_ns != 0)
        .map(|(_, o)| ms(o.admitted_ns, o.dispatched_ns))
        .collect();
    let (order_wait, order_wait_n) = p50(traced_txs(paced)
        .filter(|(_, o)| o.ordered_ns != 0)
        .map(|(_, o)| ms(o.dispatched_ns, o.ordered_ns))
        .collect());
    let (commit_wait, commit_wait_n) = p50(traced_txs(paced)
        .filter(|(_, o)| o.arrived_ns != 0 && o.committed_ns != 0)
        .map(|(_, o)| ms(o.arrived_ns, o.committed_ns))
        .collect());
    let handoff = mean(
        &traced_txs(paced)
            .filter(|(_, o)| o.received_ns != 0)
            .map(|(c, o)| ms(c.assembled_ns, o.received_ns))
            .collect::<Vec<_>>(),
    );
    let (gossip_hop, gossip_hop_n) = if spec.durable {
        p50(paced_blocks
            .iter()
            .map(|b| ms(b.gossip_in_ns, b.arrived_ns))
            .collect())
    } else {
        (0.0, 0)
    };
    let intervals_ms: Vec<f64> = sat_blocks
        .windows(2)
        .map(|pair| ms(pair[0].visible_ns, pair[1].visible_ns))
        .collect();
    let t = &order.timers;
    let c = &order.counters;
    let blocks = order.blocks.len().max(1) as f64;
    let traced_block_count = order.blocks.iter().filter(|b| b.traced).count().max(1) as f64;
    let reference_tps = commit_rate(reference);
    let (storage_before, storage_after) = extras.storage;
    let cache_hits = storage_after.cache_hits - storage_before.cache_hits;
    let cache_misses = storage_after.cache_misses - storage_before.cache_misses;
    let probes = extras.probes.unwrap_or_default();
    let queues = &extras.pipeline.queues;

    let mut per_layer = vec![
        sampled(
            "slo_miss_ratio",
            1.0 - ratio(paced_in_slo, paced_attempts),
            "ratio",
            paced_attempts as usize,
        ),
        sampled(
            "fail_ratio",
            ratio(not_valid, attempted_txs),
            "ratio",
            attempted_txs as usize,
        ),
        sampled("query_tps", query_tps, "1/s", queries_in(sat).count()),
        sampled("query_p99_ms", query_latency.p99, "ms", query_latency.n),
        metric("client.propose_us", extras.propose_us, "us"),
        sampled(
            "client.assemble_us",
            client.timers.assemble.us_per_call(),
            "us",
            client.timers.assemble.calls as usize,
        ),
        sampled(
            "gateway.front_submit_us",
            client.timers.front_submit.us_per_call(),
            "us",
            client.timers.front_submit.calls as usize,
        ),
        sampled(
            "gateway.submit_us",
            t.gateway_submit.us_per_call(),
            "us",
            t.gateway_submit.calls as usize,
        ),
        sampled(
            "gateway.mempool_wait_ms",
            mean(&mempool_wait),
            "ms",
            mempool_wait.len(),
        ),
        sampled(
            "gateway.drain_us_per_tx",
            t.drain.us_per_item(),
            "us",
            t.drain.items as usize,
        ),
        metric(
            "gateway.drain_stall_share",
            ratio(c.drain_stalls as f64, c.drain_calls as f64),
            "ratio",
        ),
        metric("gateway.mempool_peak", c.mempool_peak as f64, "count"),
        sampled(
            "gateway.shed_ratio",
            ratio(shed, attempted_txs),
            "ratio",
            attempted_txs as usize,
        ),
        sampled("peer.endorse_ms_p50", endorse.p50, "ms", endorse.n),
        sampled("peer.endorse_ms_p99", endorse.p99, "ms", endorse.n),
        metric("peer.process_proposal_us", probes.process_proposal_us, "us"),
        metric(
            "peer.endorse_sign_batch_mean",
            ratio(
                extras.endorse.endorsed as f64,
                extras.endorse.sign_batches as f64,
            ),
            "count",
        ),
        metric(
            "peer.endorse_rejected",
            (extras.endorse.rejected_saturated + extras.endorse.rejected_client) as f64,
            "count",
        ),
        metric(
            "ordering.broadcast_us_per_tx",
            probes.broadcast_us_per_tx,
            "us",
        ),
        sampled(
            "ordering.tick_us",
            t.tick.us_per_call(),
            "us",
            t.tick.calls as usize,
        ),
        metric(
            "ordering.busy_share",
            ratio(
                (t.drain.ns + t.tick.ns + t.deliver.ns) as f64,
                c.traced_wall_ns as f64,
            ),
            "ratio",
        ),
        sampled("ordering.order_wait_ms_p50", order_wait, "ms", order_wait_n),
        sampled(
            "ordering.txs_per_block",
            mean(&sat_blocks.iter().map(|b| b.txs as f64).collect::<Vec<_>>()),
            "count",
            sat_blocks.len(),
        ),
        sampled(
            "ordering.block_interval_ms",
            mean(&intervals_ms),
            "ms",
            intervals_ms.len(),
        ),
        metric(
            "ordering.spec_hit_ratio",
            ratio(
                extras.spec_signing.0 as f64,
                (extras.spec_signing.0 + extras.spec_signing.1) as f64,
            ),
            "ratio",
        ),
        sampled("gossip.hop_ms_p50", gossip_hop, "ms", gossip_hop_n),
        metric(
            "gossip.step_us_per_block",
            t.gossip.ns as f64 / 1e3 / traced_block_count,
            "us",
        ),
        metric(
            "gossip.msgs_per_block",
            c.gossip_msgs as f64 / blocks,
            "count",
        ),
        metric(
            "gossip.bytes_per_block",
            c.gossip_bytes as f64 / blocks,
            "B",
        ),
        metric(
            "gossip.deduped_per_block",
            extras
                .gossip
                .iter()
                .fold(0.0, |sum, g| sum + g.deduped as f64)
                / blocks,
            "count",
        ),
        sampled(
            "peer.deliver_us_per_block",
            t.mux_deliver.us_per_call(),
            "us",
            t.mux_deliver.calls as usize,
        ),
        sampled("peer.commit_wait_ms_p50", commit_wait, "ms", commit_wait_n),
        sampled(
            "peer.vscc_us_per_tx",
            per_tx_us(&|t| t.vscc),
            "us",
            block_txs as usize,
        ),
        sampled(
            "peer.rwcheck_us_per_tx",
            per_tx_us(&|t| t.rw_check),
            "us",
            block_txs as usize,
        ),
        sampled(
            "peer.ledger_us_per_tx",
            per_tx_us(&|t| t.ledger),
            "us",
            block_txs as usize,
        ),
        sampled(
            "peer.validation_ms_per_block",
            mean(
                &traced_blocks
                    .iter()
                    .map(|b| b.timing.total().as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
            "ms",
            traced_blocks.len(),
        ),
        metric(
            "peer.dependency_stalls",
            queues.dependency_stalls as f64,
            "count",
        ),
        metric("peer.intake_peak", queues.intake_peak as f64, "count"),
        metric(
            "peer.spec_rw_hit_ratio",
            ratio(
                queues.spec_hits as f64,
                (queues.spec_hits + queues.spec_misses) as f64,
            ),
            "ratio",
        ),
        metric(
            "peer.zero_credit_share",
            ratio(c.zero_credit_iterations as f64, c.pump_iterations as f64),
            "ratio",
        ),
        sampled(
            "peer.mvcc_abort_ratio",
            ratio(aborted, committed),
            "ratio",
            committed as usize,
        ),
        metric("kvstore.get_us", probes.get_us, "us"),
        metric(
            "kvstore.cache_hit_ratio",
            ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
            "ratio",
        ),
        metric(
            "kvstore.flushes",
            (storage_after.flushes - storage_before.flushes) as f64,
            "count",
        ),
        metric(
            "kvstore.write_stall_us",
            (storage_after.stall_us - storage_before.stall_us) as f64,
            "us",
        ),
        metric(
            "ledger.bytes_per_tx",
            ratio(extras.ledger_bytes as f64, extras.pipeline.txs as f64),
            "B",
        ),
        metric("crypto.sign_us", probes.sign_us, "us"),
        metric("crypto.verify_us", probes.verify_us, "us"),
        sampled(
            "harness.client_drop_ratio",
            ratio(dropped, attempted_txs),
            "ratio",
            attempted_txs as usize,
        ),
        sampled(
            "harness.gen_late_p99_ms",
            percentile(&lateness, 99.0),
            "ms",
            lateness.len(),
        ),
        metric("harness.handoff_ms", handoff, "ms"),
        sampled(
            "harness.waterfall_sum_ratio",
            waterfall_paced.sum_ratio(),
            "ratio",
            waterfall_paced.n,
        ),
        metric(
            "harness.trace_overhead_pct",
            100.0 * ratio(reference_tps - commit_tps, reference_tps),
            "%",
        ),
    ];
    for (stage, mean_ms) in STAGES.iter().zip(waterfall_paced.stage_mean_ms) {
        per_layer.push(sampled(
            &format!("waterfall.{stage}_ms"),
            mean_ms,
            "ms",
            waterfall_paced.n,
        ));
    }
    if plan.trace {
        let sum = waterfall_paced.sum_ratio();
        if !(0.95..=1.05).contains(&sum) {
            refusals.push(format!(
                "the waterfall's stages sum to {sum:.3} of the latency they partition"
            ));
        }
        // Under overload the hand-off queue is the gateway's real input
        // queue: the order thread is busy inside `broadcast_batch`.
        if !spec.open_loop_only && handoff > 0.05 * waterfall_paced.e2e_mean_ms {
            refusals.push(format!(
                "the client-to-order hand-off takes {handoff:.2} ms, over 5% of the mean latency"
            ));
        }
    }

    Analysis {
        end_to_end,
        per_layer,
        attempted: attempted_txs as u64 + attempted_queries as u64,
        failed: (broken_txs + broken_queries) as u64,
        refusals,
        waterfall_paced,
        waterfall_sat,
        commit_split_ms,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{
        ClientReport, ClientTimers, OrderCounters, OrderReport, OrderTimers, Timeline,
    };

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let spec = include_str!("../../BENCHMARK.json");
        let from = spec
            .find(&format!("\"{section}\""))
            .expect("section exists");
        let body = &spec[from..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    fn empty_window() -> WindowReport {
        WindowReport {
            client: ClientReport {
                txs: Vec::new(),
                queries: Vec::new(),
                timeline: Timeline {
                    paced_end_ns: 1,
                    ..Timeline::default()
                },
                timers: ClientTimers::default(),
                pool_exhausted: None,
                stuck: false,
            },
            order: OrderReport {
                txs: Vec::new(),
                blocks: Vec::new(),
                timers: OrderTimers::default(),
                counters: OrderCounters::default(),
                stuck: None,
            },
        }
    }

    fn no_extras() -> Extras {
        Extras {
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            probes: None,
            propose_us: 0.0,
            endorse: Default::default(),
            pipeline: Default::default(),
            storage: Default::default(),
            ledger_bytes: 0,
            gossip: Vec::new(),
            spec_signing: (0, 0),
        }
    }

    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_declares() {
        let extras = no_extras();
        let spec = crate::config::WORKLOADS[0];
        let plan = Plan::new(18, true, false);
        let analysis = analyse(&spec, &plan, &empty_window(), &extras);
        let names = |metrics: &[Metric]| metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&analysis.end_to_end), declared("end_to_end"));
        assert_eq!(names(&analysis.per_layer), declared("per_layer"));
        let workloads: Vec<String> = crate::config::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, declared("workloads"));
    }

    #[test]
    fn an_empty_window_is_refused_not_reported() {
        let extras = no_extras();
        let analysis = analyse(
            &crate::config::WORKLOADS[0],
            &Plan::new(18, false, false),
            &empty_window(),
            &extras,
        );
        assert!(analysis
            .refusals
            .iter()
            .any(|r| r.contains("latency samples")));
    }
}
