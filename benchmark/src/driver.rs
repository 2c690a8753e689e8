//! The measured window: three harness threads on the wall clock.
//!
//! `T_submit` keeps the schedule: it replays the pre-signed proposals
//! through the endorse front, in a closed loop whenever a virtual client
//! is idle and in an open loop at each due time. `T_client` redeems the
//! tickets, assembles envelopes and hands them over a channel. `T_order`
//! (the calling thread, because `OrderingCluster` is not `Send`) admits
//! them to the gateway, drains the mempool into the ordering service,
//! ticks it at real-time cadence, moves cut blocks through gossip and the
//! deliver mux, feeds deliver credits back to the gateway and collects
//! commit events. It never sleeps while work is queued, so neither
//! `drain_max` nor the tick cadence sets the ceiling.
//!
//! All three stamp layer boundaries from outside, around calls into the
//! crates' public functions; with tracing off only the due time and the
//! commit time of a transaction are kept.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};

use fabric::client::Client;
use fabric::gateway::{Admit, FrontConfig, FrontSubmit, Gateway, GatewayConfig, GatewayFront};
use fabric::gossip::{GossipMessage, GossipOutput};
use fabric::peer::{CommitEvent, Deliver, EndorsePipeline, EndorseTicket, ValidationTiming};
use fabric::primitives::ids::{ChannelId, TxValidationCode};
use fabric::primitives::transaction::{Envelope, EnvelopeContent};
use fabric::primitives::wire::Wire;

use crate::config::{
    Plan, WorkloadSpec, CLIENTS, FEE, GOSSIP_TICK_MS, MS_PER_TICK, QUERY_RATE_FACTOR, READERS,
};
use crate::deploy::Deployment;
use crate::inputs::{tx_index, Inputs};
use crate::kv::parse_value;
use crate::stats::due_ns;

/// How long either thread waits for the other side to drain before the
/// run is declared stuck.
const SETTLE_LIMIT: Duration = Duration::from_secs(20);
/// Longest idle wait of the pump loop.
const IDLE_WAIT: Duration = Duration::from_micros(200);
/// Proposals the open-loop client population lets wait for endorsement
/// before it gives up on new ones: the endorsement pool's own intake
/// bound. Finished endorsements wait here for the redeeming thread, so
/// without a bound an overloaded run queues them without limit.
const CLIENT_WINDOW: usize = 1024;

/// Accumulated wall time and call count of one instrumented call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timer {
    pub ns: u64,
    pub calls: u64,
    /// Items processed, where a call handles several.
    pub items: u64,
}

impl Timer {
    fn add(&mut self, since: Instant, items: u64) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.items += items;
    }

    pub fn us_per_call(&self) -> f64 {
        self.ns as f64 / 1e3 / self.calls.max(1) as f64
    }

    pub fn us_per_item(&self) -> f64 {
        self.ns as f64 / 1e3 / self.items.max(1) as f64
    }
}

/// Times `$call` into `$timer` when `$on`; evaluates to the call's value.
macro_rules! timed {
    ($on:expr, $timer:expr, $call:expr) => {{
        if $on {
            let started = Instant::now();
            let value = $call;
            $timer.add(started, 1);
            value
        } else {
            $call
        }
    }};
}

/// What became of a write transaction on the client side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClientState {
    #[default]
    Unsent,
    /// Due while `CLIENT_WINDOW` proposals already awaited endorsement:
    /// the client population gave up on it without sending.
    Dropped,
    InEndorsement,
    /// The endorse front answered `RetryAfter`.
    FrontShed,
    /// The front called it a duplicate or the endorsement failed.
    EndorseFailed,
    HandedOff,
}

/// Client-side stamps of one write transaction, nanoseconds since the
/// run epoch. Only `due_ns` and `sent_ns` are kept with tracing off.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientRec {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub admitted_ns: u64,
    pub endorsed_ns: u64,
    pub assembled_ns: u64,
    pub state: ClientState,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct QueryRec {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

/// Phase boundaries as the submitter saw them, nanoseconds since the
/// epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timeline {
    /// First submit.
    pub start_ns: u64,
    pub sat_start_ns: u64,
    pub sat_end_ns: u64,
    /// End of the untraced closed-loop reference (traced runs).
    pub reference_end_ns: u64,
    pub paced_start_ns: u64,
    pub paced_end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ClientTimers {
    pub front_submit: Timer,
    pub assemble: Timer,
}

pub struct ClientReport {
    pub txs: Vec<ClientRec>,
    pub queries: Vec<QueryRec>,
    pub timeline: Timeline,
    pub timers: ClientTimers,
    /// Set to the pool's name if a phase wanted more proposals than were
    /// pre-signed.
    pub pool_exhausted: Option<&'static str>,
    /// Set if the closed loop's clients never all came back.
    pub stuck: bool,
}

enum Ticket {
    Tx(usize, EndorseTicket),
    Query(usize, EndorseTicket),
}

/// A virtual client is idle again.
enum Freed {
    /// `n` write transactions got their verdict.
    Writers(usize),
    Reader,
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The submitting half of the client: keeps the schedule. It never waits
/// for an endorsement, because `EndorseTicket::wait` blocks and a blocked
/// open-loop generator runs late; tickets go to the redeeming half.
struct Submitter<'a> {
    pipeline: &'a EndorsePipeline,
    inputs: &'a Inputs,
    epoch: Instant,
    trace: bool,
    tracing: &'a AtomicBool,
    front: GatewayFront,
    tickets: Sender<Ticket>,
    freed: Receiver<Freed>,
    /// Endorsements redeemed so far, published by the redeemer.
    redeemed: &'a AtomicUsize,
    /// Tickets handed to the redeemer so far.
    ticketed: usize,
    next_tx: usize,
    next_query: usize,
    /// Idle virtual clients; only a closed loop reuses them.
    free_writers: usize,
    free_readers: usize,
    txs: Vec<ClientRec>,
    queries: Vec<QueryRec>,
    front_submit: Timer,
    pool_exhausted: Option<&'static str>,
    stuck: bool,
}

/// What the submitter hands back when it is done.
struct Submitted {
    txs: Vec<ClientRec>,
    queries: Vec<QueryRec>,
    timeline: Timeline,
    front_submit: Timer,
    pool_exhausted: Option<&'static str>,
    stuck: bool,
}

impl Submitter<'_> {
    fn now_ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    fn submit_tx(&mut self, due_ns: u64, window: Option<usize>) {
        let idx = self.next_tx;
        if idx >= self.inputs.replayable() {
            self.pool_exhausted = Some("transaction");
            return;
        }
        self.next_tx += 1;
        let tracing = self.tracing.load(Ordering::Relaxed);
        let sent_ns = self.now_ns();
        self.txs[idx].due_ns = due_ns;
        self.txs[idx].sent_ns = sent_ns;
        if window.is_some_and(|w| self.ticketed - self.redeemed.load(Ordering::Relaxed) >= w) {
            self.txs[idx].state = ClientState::Dropped;
            return;
        }
        let verdict = timed!(
            tracing,
            self.front_submit,
            self.front.submit(
                self.pipeline,
                self.inputs.txs[idx].clone(),
                sent_ns / 1_000_000
            )
        );
        let rec = &mut self.txs[idx];
        if tracing {
            rec.admitted_ns = ns_since(self.epoch);
        }
        match verdict {
            FrontSubmit::Admitted(ticket) => {
                rec.state = ClientState::InEndorsement;
                self.ticketed += 1;
                let _ = self.tickets.send(Ticket::Tx(idx, ticket));
            }
            FrontSubmit::RetryAfter { .. } => {
                rec.state = ClientState::FrontShed;
                self.free_writers += 1;
            }
            FrontSubmit::Duplicate => {
                rec.state = ClientState::EndorseFailed;
                self.free_writers += 1;
            }
        }
    }

    fn submit_query(&mut self, due_ns: u64) {
        let idx = self.next_query;
        if idx >= self.inputs.queries.len() {
            self.pool_exhausted = Some("query");
            return;
        }
        self.next_query += 1;
        let sent_ns = self.now_ns();
        let verdict = self.front.submit(
            self.pipeline,
            self.inputs.queries[idx].clone(),
            sent_ns / 1_000_000,
        );
        let rec = &mut self.queries[idx];
        rec.due_ns = due_ns;
        rec.sent_ns = sent_ns;
        match verdict {
            FrontSubmit::Admitted(ticket) => {
                self.ticketed += 1;
                let _ = self.tickets.send(Ticket::Query(idx, ticket));
            }
            // A refused query is answered now, and not with a value.
            _ => {
                rec.done_ns = ns_since(self.epoch);
                self.free_readers += 1;
            }
        }
    }

    fn note_freed(&mut self, freed: Freed) {
        match freed {
            Freed::Writers(n) => self.free_writers += n,
            Freed::Reader => self.free_readers += 1,
        }
    }

    /// Closed loop until `end_ns`: every idle client submits at once.
    fn closed_loop(&mut self, end_ns: u64, tracing_off_at: Option<u64>) {
        loop {
            let now = self.now_ns();
            if now >= end_ns || self.pool_exhausted.is_some() {
                return;
            }
            if tracing_off_at.is_some_and(|at| now >= at) {
                self.tracing.store(false, Ordering::Relaxed);
            }
            // A client the front sheds is idle again, but waits for the
            // next turn of this loop rather than spinning on the front.
            for _ in 0..std::mem::take(&mut self.free_writers) {
                let due = self.now_ns();
                self.submit_tx(due, None);
            }
            for _ in 0..std::mem::take(&mut self.free_readers) {
                let due = self.now_ns();
                self.submit_query(due);
            }
            // Every client waits for its verdict.
            let wait = Duration::from_nanos(end_ns.saturating_sub(self.now_ns()));
            if let Ok(freed) = self.freed.recv_timeout(wait) {
                self.note_freed(freed);
                while let Ok(freed) = self.freed.try_recv() {
                    self.note_freed(freed);
                }
            }
        }
    }

    /// Waits until every virtual client has its verdict.
    fn drain_closed_loop(&mut self, readers: usize) {
        let deadline = Instant::now() + SETTLE_LIMIT;
        while self.free_writers < CLIENTS || self.free_readers < readers {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.freed.recv_timeout(left) {
                Ok(freed) => self.note_freed(freed),
                Err(_) => {
                    self.stuck = true;
                    return;
                }
            }
        }
    }

    /// Open loop from `start_ns`: operation `i` is due at
    /// `start + i / rate`, whatever happened to the ones before it. It
    /// runs a cool-down past `window`, whose operations are not measured.
    fn open_loop(
        &mut self,
        start_ns: u64,
        window: Duration,
        rate: f64,
        query_rate: f64,
        tracing_off_at: Option<u64>,
    ) {
        let duration = window + Plan::cooldown(rate);
        let txs = (rate * duration.as_secs_f64()) as u64;
        let queries = (query_rate * duration.as_secs_f64()) as u64;
        let (mut i, mut j) = (0u64, 0u64);
        while self.pool_exhausted.is_none() {
            let now = self.now_ns();
            if tracing_off_at.is_some_and(|at| now >= at) {
                self.tracing.store(false, Ordering::Relaxed);
            }
            while i < txs && start_ns + due_ns(i, rate) <= now {
                self.submit_tx(start_ns + due_ns(i, rate), Some(CLIENT_WINDOW));
                i += 1;
            }
            while j < queries && start_ns + due_ns(j, query_rate) <= now {
                self.submit_query(start_ns + due_ns(j, query_rate));
                j += 1;
            }
            let next_due = [
                (i < txs).then(|| start_ns + due_ns(i, rate)),
                (j < queries).then(|| start_ns + due_ns(j, query_rate)),
            ]
            .into_iter()
            .flatten()
            .min();
            match next_due {
                Some(due) => std::thread::sleep(Duration::from_nanos(due.saturating_sub(now))),
                None => return,
            }
        }
    }

    fn run(mut self, spec: &WorkloadSpec, plan: &Plan) -> Submitted {
        let start = self.now_ns();
        let ns = |d: Duration| d.as_nanos() as u64;
        let mut timeline = Timeline {
            start_ns: start,
            sat_start_ns: start + ns(plan.warm),
            ..Timeline::default()
        };
        if spec.open_loop_only {
            // One open-loop window; the warm-up share of it is discarded.
            // A traced run switches tracing off for the last third, the
            // reference for the tracing overhead.
            let window = plan.warm + plan.sat + plan.paced;
            let traced = if self.trace {
                (window - plan.warm) * 2 / 3
            } else {
                window - plan.warm
            };
            timeline.sat_end_ns = timeline.sat_start_ns + ns(traced);
            timeline.reference_end_ns = start + ns(window);
            timeline.paced_start_ns = timeline.sat_start_ns;
            timeline.paced_end_ns = timeline.sat_end_ns;
            let tracing_off_at = self.trace.then_some(timeline.sat_end_ns);
            self.open_loop(start, window, spec.paced_rate, 0.0, tracing_off_at);
        } else {
            timeline.sat_end_ns = timeline.sat_start_ns + ns(plan.sat);
            timeline.reference_end_ns = timeline.sat_end_ns + ns(plan.reference);
            let readers = if self.inputs.queries.is_empty() {
                0
            } else {
                READERS
            };
            self.free_writers = CLIENTS;
            self.free_readers = readers;
            self.closed_loop(
                timeline.reference_end_ns,
                self.trace.then_some(timeline.sat_end_ns),
            );
            if self.pool_exhausted.is_none() {
                self.drain_closed_loop(readers);
            }
            self.tracing.store(self.trace, Ordering::Relaxed);
            timeline.paced_start_ns = self.now_ns();
            timeline.paced_end_ns = timeline.paced_start_ns + ns(plan.paced);
            if self.pool_exhausted.is_none() && !self.stuck {
                let query_rate = if readers == 0 {
                    0.0
                } else {
                    QUERY_RATE_FACTOR * spec.paced_rate
                };
                self.open_loop(
                    timeline.paced_start_ns,
                    plan.paced,
                    spec.paced_rate,
                    query_rate,
                    None,
                );
            }
        }
        Submitted {
            txs: self.txs,
            queries: self.queries,
            timeline,
            front_submit: self.front_submit,
            pool_exhausted: self.pool_exhausted,
            stuck: self.stuck,
        }
    }
}

/// The redeeming half of the client: waits for each endorsement in
/// submission order, assembles the envelope and hands it to the order
/// thread.
struct Redeemer<'a> {
    client: &'a Client,
    inputs: &'a Inputs,
    epoch: Instant,
    tracing: &'a AtomicBool,
    tickets: Receiver<Ticket>,
    redeemed: &'a AtomicUsize,
    to_order: Sender<(usize, Envelope)>,
    freed: Sender<Freed>,
    txs: Vec<ClientRec>,
    queries: Vec<QueryRec>,
    assemble: Timer,
}

impl Redeemer<'_> {
    fn run(mut self) -> (Vec<ClientRec>, Vec<QueryRec>, Timer) {
        while let Ok(ticket) = self.tickets.recv() {
            let tracing = self.tracing.load(Ordering::Relaxed);
            match ticket {
                Ticket::Tx(idx, ticket) => {
                    let response = ticket.wait();
                    self.redeemed.fetch_add(1, Ordering::Relaxed);
                    let rec = &mut self.txs[idx];
                    if tracing {
                        rec.endorsed_ns = ns_since(self.epoch);
                    }
                    let Ok(response) = response else {
                        rec.state = ClientState::EndorseFailed;
                        let _ = self.freed.send(Freed::Writers(1));
                        continue;
                    };
                    let envelope = timed!(
                        tracing,
                        self.assemble,
                        self.client.assemble_transaction(
                            &self.inputs.txs[idx],
                            std::slice::from_ref(&response)
                        )
                    );
                    if tracing {
                        rec.assembled_ns = ns_since(self.epoch);
                    }
                    rec.state = ClientState::HandedOff;
                    // The order thread outlives this one; a send cannot fail.
                    let _ = self.to_order.send((idx, envelope));
                }
                Ticket::Query(idx, ticket) => {
                    let response = ticket.wait();
                    self.redeemed.fetch_add(1, Ordering::Relaxed);
                    let rec = &mut self.queries[idx];
                    rec.done_ns = ns_since(self.epoch);
                    rec.ok =
                        response.is_ok_and(|r| parse_value(&r.payload.response.payload).is_some());
                    let _ = self.freed.send(Freed::Reader);
                }
            }
        }
        (self.txs, self.queries, self.assemble)
    }
}

/// What the gateway said to a handed-over envelope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Verdict {
    #[default]
    NotSeen,
    Admitted,
    /// `RetryAfter`: shed at the ordering-side gateway.
    Shed,
    Duplicate,
}

/// Order-side stamps of one write transaction. Only `committed_ns`,
/// `verdict`, `code` and `commits` are kept with tracing off.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrderRec {
    pub received_ns: u64,
    pub admitted_ns: u64,
    pub dispatched_ns: u64,
    /// Block visible through `OrderingCluster::deliver`.
    pub ordered_ns: u64,
    /// Block accepted by the measured peer's deliver mux.
    pub arrived_ns: u64,
    pub committed_ns: u64,
    pub verdict: Verdict,
    pub code: Option<TxValidationCode>,
    /// Commit events that carried this transaction; must end at one.
    pub commits: u8,
}

#[derive(Clone, Debug, Default)]
pub struct BlockRec {
    pub number: u64,
    pub txs: usize,
    pub visible_ns: u64,
    /// Handed to the leader's gossip (`spend-durable`).
    pub gossip_in_ns: u64,
    /// Accepted by the measured peer's deliver mux.
    pub arrived_ns: u64,
    pub committed_ns: u64,
    pub timing: ValidationTiming,
    /// Harness transaction index per envelope.
    pub tx_indices: Vec<Option<usize>>,
    pub traced: bool,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct OrderTimers {
    pub gateway_submit: Timer,
    /// `Gateway::drain_into`; items = transactions dispatched.
    pub drain: Timer,
    pub tick: Timer,
    /// `OrderingCluster::deliver` calls that returned a block.
    pub deliver: Timer,
    /// `DeliverMux::deliver` / `deliver_from_gossip`.
    pub mux_deliver: Timer,
    /// `GossipNode::on_block_from_orderer`, `step` and `tick`.
    pub gossip: Timer,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct OrderCounters {
    pub pump_iterations: u64,
    pub zero_credit_iterations: u64,
    pub drain_calls: u64,
    pub drain_stalls: u64,
    pub mempool_peak: usize,
    pub gossip_msgs: u64,
    pub gossip_bytes: u64,
    /// Wall time of the pump loop while tracing was on.
    pub traced_wall_ns: u64,
}

pub struct OrderReport {
    pub txs: Vec<OrderRec>,
    pub blocks: Vec<BlockRec>,
    pub timers: OrderTimers,
    pub counters: OrderCounters,
    /// Why the pump gave up, if it did.
    pub stuck: Option<String>,
}

/// Approximate wire size of a gossip message (gossip messages are passed
/// in process and have no encoding of their own).
fn gossip_bytes(message: &GossipMessage) -> usize {
    match message {
        GossipMessage::BlockPush {
            channel, payload, ..
        }
        | GossipMessage::StateSync { channel, payload } => {
            channel.as_str().len() + 8 + payload.len()
        }
        GossipMessage::PullRequest { channel, .. } => channel.as_str().len() + 8,
        GossipMessage::Membership { alive } => alive
            .iter()
            .map(|a| {
                let per_channel = |list: &[(fabric::primitives::ids::ChannelId, u64)]| {
                    list.iter()
                        .map(|(c, _)| c.as_str().len() + 8)
                        .sum::<usize>()
                };
                32 + a.org.len()
                    + per_channel(&a.delivered)
                    + per_channel(&a.snapshots)
                    + per_channel(&a.credits)
            })
            .sum(),
    }
}

struct OrderSide<'a> {
    dep: &'a mut Deployment,
    channel: ChannelId,
    gateway: Gateway,
    epoch: Instant,
    tracing: &'a AtomicBool,
    from_client: Receiver<(usize, Envelope)>,
    freed: Sender<Freed>,
    /// Admitted and not yet dispatched, in admission (= dispatch) order.
    queued: VecDeque<usize>,
    first_block: u64,
    /// Admitted transactions without a commit event yet.
    unresolved: usize,
    report: OrderReport,
}

impl OrderSide<'_> {
    fn now_ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    fn admit(&mut self, idx: usize, envelope: Envelope, tracing: bool) {
        let received_ns = self.now_ns();
        let verdict = timed!(
            tracing,
            self.report.timers.gateway_submit,
            self.gateway.submit(envelope, FEE, received_ns / 1_000_000)
        );
        let rec = &mut self.report.txs[idx];
        if tracing {
            rec.received_ns = received_ns;
            rec.admitted_ns = ns_since(self.epoch);
        }
        rec.verdict = match verdict {
            Admit::Admitted => {
                self.queued.push_back(idx);
                self.unresolved += 1;
                Verdict::Admitted
            }
            Admit::RetryAfter { .. } => Verdict::Shed,
            Admit::Duplicate => Verdict::Duplicate,
        };
        if rec.verdict != Verdict::Admitted {
            let _ = self.freed.send(Freed::Writers(1));
        }
    }

    fn drain(&mut self, tracing: bool) -> bool {
        if self.gateway.mempool_len() == 0 {
            return false;
        }
        let started = Instant::now();
        let drained = self.gateway.drain_into(&mut self.dep.ordering);
        let taken = drained.dispatched + drained.rejected;
        if tracing {
            self.report
                .timers
                .drain
                .add(started, drained.dispatched as u64);
        }
        self.report.counters.drain_calls += 1;
        self.report.counters.drain_stalls += u64::from(drained.stalled);
        if drained.rejected > 0 {
            self.report.stuck = Some(format!(
                "the ordering service rejected {} envelopes",
                drained.rejected
            ));
        }
        let now = self.now_ns();
        // Strict FIFO: the batch is the front of the admission queue.
        for _ in 0..taken {
            let idx = self
                .queued
                .pop_front()
                .expect("dispatched entries were queued");
            if tracing {
                self.report.txs[idx].dispatched_ns = now;
            }
        }
        taken > 0
    }

    /// Routes gossip outputs of node `from` (index into `dep.nodes`):
    /// messages to the other node, block deliveries into the node's mux.
    fn route_gossip(&mut self, from: usize, outputs: Vec<GossipOutput>, tracing: bool) {
        let mut pending: VecDeque<(usize, GossipOutput)> =
            outputs.into_iter().map(|o| (from, o)).collect();
        let measured = self.dep.nodes.len() - 1;
        while let Some((at, output)) = pending.pop_front() {
            match output {
                GossipOutput::Send { to, message } => {
                    self.report.counters.gossip_msgs += 1;
                    self.report.counters.gossip_bytes += gossip_bytes(&message) as u64;
                    let target = to as usize - 1;
                    let Some(gossip) = self
                        .dep
                        .nodes
                        .get_mut(target)
                        .and_then(|n| n.gossip.as_mut())
                    else {
                        continue;
                    };
                    let more = timed!(
                        tracing,
                        self.report.timers.gossip,
                        gossip.step(at as u64 + 1, message)
                    );
                    pending.extend(more.into_iter().map(|o| (target, o)));
                }
                GossipOutput::DeliverBlock {
                    channel,
                    block_num,
                    payload,
                    from,
                } => {
                    let (mux, gossip) = self.dep.nodes[at].mux_and_gossip();
                    let verdict = timed!(
                        tracing && at == measured,
                        self.report.timers.mux_deliver,
                        mux.deliver_from_gossip(gossip, &channel, block_num, &payload, from)
                    );
                    match verdict {
                        Ok(Deliver::Saturated) | Err(_) => {
                            self.report.stuck =
                                Some(format!("peer {at} refused gossiped block {block_num}"));
                        }
                        Ok(_) if at == measured => {
                            let now = self.now_ns();
                            self.block_arrived(block_num, now);
                        }
                        Ok(_) => {}
                    }
                }
                // Blocks are handed to the leader as soon as they are cut.
                GossipOutput::PullFromOrderer { .. }
                | GossipOutput::DeliverStateSync { .. }
                | GossipOutput::SnapshotCatchup { .. } => {}
            }
        }
    }

    fn block_arrived(&mut self, number: u64, now: u64) {
        let Some(block) = self
            .report
            .blocks
            .get_mut((number - self.first_block) as usize)
        else {
            return;
        };
        block.arrived_ns = now;
        if block.traced {
            for idx in block.tx_indices.iter().flatten() {
                self.report.txs[*idx].arrived_ns = now;
            }
        }
    }

    /// Takes every newly cut block from the ordering service and moves
    /// it towards the peers. Returns whether a block moved.
    fn deliver_blocks(&mut self, tracing: bool) -> bool {
        let mut moved = false;
        loop {
            let started = Instant::now();
            let channel = &self.channel;
            let Some(block) = self.dep.ordering.deliver(channel, self.dep.next_block) else {
                return moved;
            };
            if tracing {
                self.report.timers.deliver.add(started, 1);
            }
            let number = block.header.number;
            let visible_ns = self.now_ns();
            let tx_indices: Vec<Option<usize>> = block
                .envelopes
                .iter()
                .map(|e| match &e.content {
                    EnvelopeContent::Transaction(tx) => tx_index(tx),
                    EnvelopeContent::Config(_) => None,
                })
                .collect();
            let payload = block.to_wire();
            let durable = self.dep.spec.durable;
            if !durable {
                // A saturated mux keeps the block at the orderer: retry.
                let node = &self.dep.nodes[0];
                let verdict = timed!(
                    tracing,
                    self.report.timers.mux_deliver,
                    node.mux().deliver(channel, number, &payload)
                );
                match verdict {
                    Ok(Deliver::Saturated) => return moved,
                    Ok(_) => {}
                    Err(e) => {
                        self.report.stuck =
                            Some(format!("deliver mux refused block {number}: {e}"));
                        return moved;
                    }
                }
            }
            self.dep.next_block += 1;
            if tracing {
                for idx in tx_indices.iter().flatten() {
                    self.report.txs[*idx].ordered_ns = visible_ns;
                }
            }
            self.report.blocks.push(BlockRec {
                number,
                txs: block.envelopes.len(),
                visible_ns,
                gossip_in_ns: visible_ns,
                tx_indices,
                traced: tracing,
                ..BlockRec::default()
            });
            if durable {
                let gossip = self.dep.nodes[0].gossip.as_mut().expect("leader gossips");
                let outputs = timed!(
                    tracing,
                    self.report.timers.gossip,
                    gossip.on_block_from_orderer(channel, number, payload)
                );
                self.route_gossip(0, outputs, tracing);
            } else {
                // No dissemination hop: the block is at the peer as soon
                // as it is cut, and the gossip stage is empty.
                self.block_arrived(number, visible_ns);
            }
            moved = true;
        }
    }

    /// Pumps parked blocks and reports the scarcest peer's deliver
    /// credits back to the gateway.
    fn feed_back_credits(&mut self) {
        let mut credits = u64::MAX;
        for node in &self.dep.nodes {
            let _ = node.mux().pump(&self.channel);
            credits = credits.min(node.mux().credits(&self.channel).unwrap_or(0));
        }
        self.gateway.report_downstream(credits);
        self.report.counters.zero_credit_iterations += u64::from(credits == 0);
    }

    fn collect_commits(
        &mut self,
        events: &Receiver<CommitEvent>,
        other_events: &[Receiver<CommitEvent>],
    ) -> bool {
        let mut any = false;
        for events in other_events {
            while events.try_recv().is_ok() {}
        }
        while let Ok(event) = events.try_recv() {
            any = true;
            let committed_ns = event
                .committed_at
                .saturating_duration_since(self.epoch)
                .as_nanos() as u64;
            let Some(block) = event
                .block_num
                .checked_sub(self.first_block)
                .and_then(|i| self.report.blocks.get_mut(i as usize))
            else {
                continue;
            };
            block.committed_ns = committed_ns;
            block.timing = event.timing;
            let mut freed = 0;
            for (idx, code) in block.tx_indices.iter().zip(&event.validity) {
                let Some(idx) = idx else { continue };
                let rec = &mut self.report.txs[*idx];
                rec.committed_ns = committed_ns;
                rec.code = Some(*code);
                rec.commits = rec.commits.saturating_add(1);
                freed += 1;
            }
            self.unresolved = self.unresolved.saturating_sub(freed);
            let _ = self.freed.send(Freed::Writers(freed));
        }
        any
    }

    fn run(mut self) -> OrderReport {
        let events = self
            .dep
            .measured()
            .mux()
            .events(&self.channel)
            .expect("measured peer attached");
        let other_events: Vec<_> = self.dep.nodes[..self.dep.nodes.len() - 1]
            .iter()
            .map(|n| n.mux().events(&self.channel).expect("peer attached"))
            .collect();
        let tick = Duration::from_millis(MS_PER_TICK);
        let gossip_tick = Duration::from_millis(GOSSIP_TICK_MS);
        let mut next_tick = self.epoch + tick;
        let mut next_gossip_tick = self.epoch + gossip_tick;
        let mut client_done = false;
        let mut settle_deadline = None;
        loop {
            let tracing = self.tracing.load(Ordering::Relaxed);
            let iteration_started = Instant::now();
            let mut progressed = false;

            loop {
                match self.from_client.try_recv() {
                    Ok((idx, envelope)) => {
                        self.admit(idx, envelope, tracing);
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        client_done = true;
                        break;
                    }
                }
            }
            self.report.counters.mempool_peak = self
                .report
                .counters
                .mempool_peak
                .max(self.gateway.mempool_len());
            progressed |= self.drain(tracing);

            // Real-time cadence: one tick per MS_PER_TICK of wall clock,
            // catching up if the loop fell behind.
            while Instant::now() >= next_tick {
                timed!(tracing, self.report.timers.tick, self.dep.ordering.tick());
                next_tick += tick;
            }
            if self.dep.spec.durable {
                while Instant::now() >= next_gossip_tick {
                    for at in 0..self.dep.nodes.len() {
                        let (mux, gossip) = self.dep.nodes[at].mux_and_gossip();
                        gossip.set_deliver_credits(
                            &self.channel,
                            mux.credits(&self.channel).unwrap_or(0),
                        );
                        let outputs = timed!(tracing, self.report.timers.gossip, gossip.tick());
                        self.route_gossip(at, outputs, tracing);
                    }
                    next_gossip_tick += gossip_tick;
                }
            }

            progressed |= self.deliver_blocks(tracing);
            self.feed_back_credits();
            progressed |= self.collect_commits(&events, &other_events);

            self.report.counters.pump_iterations += 1;
            if self.report.stuck.is_some() {
                break;
            }
            if client_done {
                if self.gateway.mempool_len() == 0 && self.unresolved == 0 {
                    break;
                }
                let deadline =
                    *settle_deadline.get_or_insert_with(|| Instant::now() + SETTLE_LIMIT);
                if Instant::now() > deadline {
                    self.report.stuck = Some(format!(
                        "{} admitted transactions never committed",
                        self.unresolved
                    ));
                    break;
                }
            }
            if !progressed && !client_done {
                // Nothing queued anywhere: wait for an envelope, but not
                // past the next tick and never long, since commit events
                // arrive on their own channel.
                let wait = next_tick
                    .saturating_duration_since(Instant::now())
                    .min(IDLE_WAIT);
                match self.from_client.recv_timeout(wait) {
                    Ok((idx, envelope)) => self.admit(idx, envelope, tracing),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => client_done = true,
                }
            } else if !progressed {
                std::thread::sleep(IDLE_WAIT);
            }
            if tracing {
                self.report.counters.traced_wall_ns +=
                    iteration_started.elapsed().as_nanos() as u64;
            }
        }
        self.report
    }
}

/// Everything the measured window produced.
pub struct WindowReport {
    pub client: ClientReport,
    pub order: OrderReport,
}

/// Runs the measured window on the attached deployment. Returns the
/// endorsement pipeline too, for its counters and an orderly close.
pub fn run_window(
    dep: &mut Deployment,
    inputs: &Inputs,
    plan: &Plan,
) -> (WindowReport, EndorsePipeline) {
    let spec = dep.spec;
    let pipeline = dep.nodes[0]
        .peer
        .endorse_pipeline(fabric::peer::EndorseOptions::default());
    let gateway = Gateway::new(GatewayConfig {
        mempool_capacity: spec
            .mempool_capacity
            .unwrap_or(GatewayConfig::default().mempool_capacity),
        ..GatewayConfig::default()
    });
    let tracing = AtomicBool::new(plan.trace);
    let (to_order, from_client) = channel::unbounded();
    let (freed_tx, freed_rx) = channel::unbounded();
    let epoch = Instant::now();
    let first_block = dep.next_block;
    let client = Client::new(dep.client.identity().clone(), dep.channel.clone());

    let order_side = OrderSide {
        channel: dep.channel.clone(),
        dep,
        gateway,
        epoch,
        tracing: &tracing,
        from_client,
        freed: freed_tx.clone(),
        queued: VecDeque::new(),
        first_block,
        unresolved: 0,
        report: OrderReport {
            txs: vec![OrderRec::default(); inputs.txs.len()],
            blocks: Vec::new(),
            timers: OrderTimers::default(),
            counters: OrderCounters::default(),
            stuck: None,
        },
    };
    let blank_txs = vec![ClientRec::default(); inputs.txs.len()];
    let blank_queries = vec![QueryRec::default(); inputs.queries.len()];
    let redeemed = AtomicUsize::new(0);
    let (tickets_tx, tickets_rx) = channel::unbounded();
    let submitter = Submitter {
        pipeline: &pipeline,
        inputs,
        epoch,
        trace: plan.trace,
        tracing: &tracing,
        front: GatewayFront::new(FrontConfig::default()),
        tickets: tickets_tx,
        freed: freed_rx,
        redeemed: &redeemed,
        ticketed: 0,
        next_tx: 0,
        next_query: 0,
        free_writers: 0,
        free_readers: 0,
        txs: blank_txs.clone(),
        queries: blank_queries.clone(),
        front_submit: Timer::default(),
        pool_exhausted: None,
        stuck: false,
    };
    let redeemer = Redeemer {
        client: &client,
        inputs,
        epoch,
        tracing: &tracing,
        tickets: tickets_rx,
        redeemed: &redeemed,
        to_order,
        freed: freed_tx,
        txs: blank_txs,
        queries: blank_queries,
        assemble: Timer::default(),
    };
    let spawn = |name: &str| std::thread::Builder::new().name(name.into());
    let (client_report, order_report) = std::thread::scope(|scope| {
        let t_submit = spawn("T_submit")
            .spawn_scoped(scope, || submitter.run(&spec, plan))
            .expect("spawn T_submit");
        let t_client = spawn("T_client")
            .spawn_scoped(scope, || redeemer.run())
            .expect("spawn T_client");
        let order_report = order_side.run();
        let submitted = t_submit.join().expect("T_submit panicked");
        let (redeemed_txs, redeemed_queries, assemble) =
            t_client.join().expect("T_client panicked");
        // Each half stamped its own fields of a record.
        let txs = submitted
            .txs
            .into_iter()
            .zip(redeemed_txs)
            .map(|(s, r)| ClientRec {
                endorsed_ns: r.endorsed_ns,
                assembled_ns: r.assembled_ns,
                state: if r.state == ClientState::Unsent {
                    s.state
                } else {
                    r.state
                },
                ..s
            })
            .collect();
        let queries = submitted
            .queries
            .into_iter()
            .zip(redeemed_queries)
            .map(|(s, r)| QueryRec {
                done_ns: s.done_ns.max(r.done_ns),
                ok: r.ok,
                ..s
            })
            .collect();
        let client_report = ClientReport {
            txs,
            queries,
            timeline: submitted.timeline,
            timers: ClientTimers {
                front_submit: submitted.front_submit,
                assemble,
            },
            pool_exhausted: submitted.pool_exhausted,
            stuck: submitted.stuck,
        };
        (client_report, order_report)
    });
    (
        WindowReport {
            client: client_report,
            order: order_report,
        },
        pipeline,
    )
}
