//! # fabric-simnet
//!
//! A discrete-event network simulator used to reproduce the paper's
//! cluster/WAN experiments (Sec. 5.2, Fig. 8 and Table 2) on a single
//! machine.
//!
//! The paper's scalability results are governed by two resources:
//!
//! * **network**: each inter-data-center path has a latency and a
//!   single-TCP-connection bandwidth cap (the paper reports its own
//!   netperf numbers, which the benchmark harness feeds in verbatim), and
//!   each node has a finite NIC egress rate shared by its transfers —
//!   saturated OSN uplinks are exactly what bends the 2DC curves in
//!   Fig. 8;
//! * **CPU**: block validation is a parallel stage (VSCC) followed by
//!   sequential stages (rw-check, ledger), modeled by [`CpuServer`] and
//!   [`SequentialResource`] with service times *measured on this host* by
//!   the calibration step.
//!
//! ## Transfer model
//!
//! Sending `size` bytes from `a` to `b` at time `t`:
//!
//! 1. the message queues on `a`'s egress NIC (FIFO): it occupies the NIC
//!    for `size / egress_rate(a)` once the NIC is free;
//! 2. it then travels at `min(path_bandwidth(a,b), egress_rate(a))` and
//!    arrives one propagation latency later.
//!
//! This captures both saturation regimes the paper observes: an OSN
//! serving many peers is limited by its egress rate, and a distant peer is
//! limited by its single-connection path bandwidth, whichever binds first.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

pub mod churn;

/// Identifier of a simulated node.
pub type SimNodeId = usize;

/// One nanosecond-resolution simulated clock value.
pub type SimTime = u64;

/// Events surfaced to the driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimEvent<M> {
    /// A message arrived at `to`.
    Message {
        /// Sender.
        from: SimNodeId,
        /// Receiver.
        to: SimNodeId,
        /// Payload.
        msg: M,
    },
    /// A timer scheduled by the driver fired at `node`.
    Timer {
        /// The node the timer belongs to.
        node: SimNodeId,
        /// Driver-defined payload.
        msg: M,
    },
}

#[derive(Clone, Copy)]
struct Link {
    latency_ns: u64,
    bandwidth_bps: u64,
}

struct NodeState {
    egress_bps: u64,
    egress_free_at: SimTime,
}

/// The discrete-event simulator.
pub struct Simulator<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    payloads: Vec<Option<SimEvent<M>>>,
    nodes: Vec<NodeState>,
    /// Dense link matrix (n × n).
    links: Vec<Link>,
    /// Per-connection pacing: a (from, to) stream sustains at most the
    /// path bandwidth (models a single TCP connection, paper Sec. 5.2).
    conn_free_at: HashMap<(SimNodeId, SimNodeId), SimTime>,
}

/// 1 Gbps in bits/second.
pub const GBPS: u64 = 1_000_000_000;
/// 1 Mbps in bits/second.
pub const MBPS: u64 = 1_000_000;
/// One millisecond in simulated nanoseconds.
pub const MS: u64 = 1_000_000;

impl<M> Simulator<M> {
    /// Creates a simulator with `n` nodes, defaulting every link to 1 Gbps
    /// and 100 µs latency and every NIC to 1 Gbps.
    pub fn new(n: usize) -> Self {
        Simulator {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            nodes: (0..n)
                .map(|_| NodeState {
                    egress_bps: GBPS,
                    egress_free_at: 0,
                })
                .collect(),
            links: vec![
                Link {
                    latency_ns: 100_000,
                    bandwidth_bps: GBPS,
                };
                n * n
            ],
            conn_free_at: HashMap::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the simulator has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current simulated time (ns).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets a node's NIC egress rate.
    pub fn set_egress(&mut self, node: SimNodeId, bps: u64) {
        self.nodes[node].egress_bps = bps.max(1);
    }

    /// Sets the directed link `from -> to`.
    pub fn set_link(&mut self, from: SimNodeId, to: SimNodeId, latency_ns: u64, bps: u64) {
        let n = self.nodes.len();
        self.links[from * n + to] = Link {
            latency_ns,
            bandwidth_bps: bps.max(1),
        };
    }

    fn push(&mut self, at: SimTime, event: SimEvent<M>) {
        let idx = self.payloads.len();
        self.payloads.push(Some(event));
        self.queue.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Sends `size_bytes` from `from` to `to`, delivering `msg` when the
    /// transfer completes under the egress + path model. Returns the
    /// scheduled arrival time.
    ///
    /// Three constraints compose: (1) the sender's NIC serializes all its
    /// outgoing transfers FIFO at the egress rate; (2) the `(from, to)`
    /// stream is paced at the path bandwidth, so back-to-back sends to the
    /// same receiver sustain at most the single-connection rate; (3) one
    /// propagation latency is added.
    pub fn send(&mut self, from: SimNodeId, to: SimNodeId, size_bytes: u64, msg: M) -> SimTime {
        let n = self.nodes.len();
        let link = self.links[from * n + to];
        let node = &mut self.nodes[from];
        let egress_start = node.egress_free_at.max(self.now);
        let serialization = size_bytes.saturating_mul(8_000_000_000) / node.egress_bps;
        node.egress_free_at = egress_start + serialization;
        let path_bps = link.bandwidth_bps.min(node.egress_bps);
        let path_time = size_bytes.saturating_mul(8_000_000_000) / path_bps;
        let conn_free = self.conn_free_at.get(&(from, to)).copied().unwrap_or(0);
        let transfer_start = egress_start.max(conn_free);
        let transfer_end = transfer_start + path_time;
        self.conn_free_at.insert((from, to), transfer_end);
        let arrival = transfer_end + link.latency_ns;
        self.push(arrival, SimEvent::Message { from, to, msg });
        arrival
    }

    /// Sends instantly (control messages whose size is negligible): only
    /// the path latency applies, no bandwidth consumption.
    pub fn send_control(&mut self, from: SimNodeId, to: SimNodeId, msg: M) -> SimTime {
        let n = self.nodes.len();
        let link = self.links[from * n + to];
        let arrival = self.now + link.latency_ns;
        self.push(arrival, SimEvent::Message { from, to, msg });
        arrival
    }

    /// Schedules a timer at absolute time `at` (clamped to now).
    pub fn schedule(&mut self, at: SimTime, node: SimNodeId, msg: M) {
        self.push(at.max(self.now), SimEvent::Timer { node, msg });
    }

    /// Schedules a timer `delay` nanoseconds from now.
    pub fn schedule_in(&mut self, delay: u64, node: SimNodeId, msg: M) {
        self.push(self.now + delay, SimEvent::Timer { node, msg });
    }

    /// Pops the next event, advancing the clock. `None` when idle.
    /// Not an `Iterator`: callers need `&mut self` access between polls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, SimEvent<M>)> {
        let Reverse((at, _, idx)) = self.queue.pop()?;
        self.now = at;
        let event = self.payloads[idx].take().expect("event consumed once");
        Some((at, event))
    }
}

/// A pool of identical CPU cores serving independent work items — models
/// the parallel VSCC stage of peer validation.
pub struct CpuServer {
    free_at: Vec<SimTime>,
}

impl CpuServer {
    /// Creates a server with `cores` parallel cores.
    pub fn new(cores: usize) -> Self {
        CpuServer {
            free_at: vec![0; cores.max(1)],
        }
    }

    /// Schedules `work_ns` of CPU work arriving at `now`; returns its
    /// completion time (earliest-free-core assignment).
    pub fn run(&mut self, now: SimTime, work_ns: u64) -> SimTime {
        let core = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one core");
        let start = self.free_at[core].max(now);
        let done = start + work_ns;
        self.free_at[core] = done;
        done
    }

    /// Schedules a parallelizable batch of `items` work items of
    /// `per_item_ns` each, returning when the last finishes.
    pub fn run_parallel(&mut self, now: SimTime, items: usize, per_item_ns: u64) -> SimTime {
        let mut last = now;
        for _ in 0..items {
            last = last.max(self.run(now, per_item_ns));
        }
        last
    }
}

/// A strictly sequential resource (the rw-check and ledger stages, or a
/// disk) — work items queue FIFO.
pub struct SequentialResource {
    free_at: SimTime,
}

impl Default for SequentialResource {
    fn default() -> Self {
        Self::new()
    }
}

impl SequentialResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        SequentialResource { free_at: 0 }
    }

    /// Schedules `work_ns` arriving at `now`; returns completion time.
    pub fn run(&mut self, now: SimTime, work_ns: u64) -> SimTime {
        let start = self.free_at.max(now);
        self.free_at = start + work_ns;
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_for_control() {
        let mut sim: Simulator<u32> = Simulator::new(2);
        sim.set_link(0, 1, 5 * MS, GBPS);
        let arrival = sim.send_control(0, 1, 42);
        assert_eq!(arrival, 5 * MS);
        let (at, event) = sim.next().unwrap();
        assert_eq!(at, 5 * MS);
        assert_eq!(
            event,
            SimEvent::Message {
                from: 0,
                to: 1,
                msg: 42
            }
        );
    }

    #[test]
    fn bandwidth_delays_large_messages() {
        let mut sim: Simulator<()> = Simulator::new(2);
        sim.set_link(0, 1, 0, 8 * MBPS); // 1 MB/s
        sim.set_egress(0, GBPS);
        // 1 MB at 8 Mbps = 1 second.
        let arrival = sim.send(0, 1, 1_000_000, ());
        assert_eq!(arrival, 1_000_000_000);
    }

    #[test]
    fn egress_serializes_transfers() {
        let mut sim: Simulator<u8> = Simulator::new(3);
        // Node 0's NIC: 8 Mbps. Two 1 MB messages to different receivers.
        sim.set_egress(0, 8 * MBPS);
        sim.set_link(0, 1, 0, GBPS);
        sim.set_link(0, 2, 0, GBPS);
        let a1 = sim.send(0, 1, 1_000_000, 1);
        let a2 = sim.send(0, 2, 1_000_000, 2);
        // First leaves the NIC after 1 s; second queues behind it.
        assert_eq!(a1, 1_000_000_000);
        assert_eq!(a2, 2_000_000_000);
    }

    #[test]
    fn path_cap_binds_below_egress() {
        let mut sim: Simulator<()> = Simulator::new(2);
        sim.set_egress(0, GBPS);
        sim.set_link(0, 1, 0, 54 * MBPS); // the paper's OS->TK single TCP
        let arrival = sim.send(0, 1, 1_000_000, ());
        // 8 Mbit / 54 Mbps ≈ 148 ms.
        let expected = 1_000_000u64 * 8_000_000_000 / (54 * MBPS);
        assert_eq!(arrival, expected);
        // Back-to-back sends on the same connection pace at the path rate.
        let second = sim.send(0, 1, 1_000_000, ());
        assert_eq!(second, 2 * expected, "single-TCP pacing");
        // But a different receiver is not delayed by that slow stream.
        let mut sim2: Simulator<()> = Simulator::new(3);
        sim2.set_egress(0, GBPS);
        sim2.set_link(0, 1, 0, 54 * MBPS);
        sim2.set_link(0, 2, 0, GBPS);
        sim2.send(0, 1, 1_000_000, ());
        let other = sim2.send(0, 2, 1_000_000, ());
        assert!(other < expected, "fast stream unaffected by slow one");
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut sim: Simulator<u32> = Simulator::new(1);
        sim.schedule(30, 0, 3);
        sim.schedule(10, 0, 1);
        sim.schedule(20, 0, 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.next())
            .map(|(_, e)| match e {
                SimEvent::Timer { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut sim: Simulator<u32> = Simulator::new(1);
        sim.schedule(10, 0, 1);
        sim.schedule(10, 0, 2);
        let (_, first) = sim.next().unwrap();
        assert_eq!(first, SimEvent::Timer { node: 0, msg: 1 });
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim: Simulator<()> = Simulator::new(2);
        sim.send(0, 1, 1000, ());
        sim.schedule(5, 0, ());
        let mut last = 0;
        while let Some((at, _)) = sim.next() {
            assert!(at >= last);
            last = at;
        }
        assert_eq!(sim.now(), last);
    }

    #[test]
    fn cpu_server_parallelism() {
        let mut cpu = CpuServer::new(4);
        // 8 items of 10 on 4 cores: two waves, done at 20.
        let done = cpu.run_parallel(0, 8, 10);
        assert_eq!(done, 20);
        // 4 more arriving at 20 finish at 30.
        let done = cpu.run_parallel(20, 4, 10);
        assert_eq!(done, 30);
    }

    #[test]
    fn cpu_server_single_core_serializes() {
        let mut cpu = CpuServer::new(1);
        assert_eq!(cpu.run(0, 10), 10);
        assert_eq!(cpu.run(0, 10), 20);
        assert_eq!(cpu.run(100, 10), 110);
    }

    #[test]
    fn sequential_resource_queues() {
        let mut disk = SequentialResource::new();
        assert_eq!(disk.run(0, 5), 5);
        assert_eq!(disk.run(2, 5), 10);
        assert_eq!(disk.run(50, 5), 55);
    }
}
