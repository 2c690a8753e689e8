//! A deterministic in-memory cluster driver for testing and simulation.
//!
//! Messages are queued per destination and delivered when the harness is
//! stepped; a fault hook can drop or delay messages to model partitions,
//! loss, and crashes, all reproducibly from a seed.

use std::collections::VecDeque;

use crate::message::{Message, NodeId, Output};
use crate::node::{ProposeError, RaftConfig, RaftNode, Role};

#[cfg(test)]
use crate::node::ReplicationMode;

/// A queued message in flight.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Payload.
    pub message: Message,
}

/// Fault-injection decision for one message.
pub enum Fate {
    /// Deliver normally.
    Deliver,
    /// Silently drop.
    Drop,
}

/// A deterministic cluster of Raft nodes with an in-memory network.
pub struct Cluster {
    /// The nodes, indexed by position (node ids are `1..=n`).
    pub nodes: Vec<RaftNode>,
    network: VecDeque<InFlight>,
    /// Committed entries observed per node, for agreement checks.
    pub committed: Vec<Vec<(u64, Vec<u8>)>>,
    /// Fault hook consulted for every delivery.
    fault: Box<dyn FnMut(&InFlight) -> Fate>,
}

impl Cluster {
    /// Creates a cluster of `n` nodes (ids `1..=n`).
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_fault(n, seed, Box::new(|_| Fate::Deliver))
    }

    /// Creates a cluster with a fault-injection hook.
    pub fn with_fault(n: usize, seed: u64, fault: Box<dyn FnMut(&InFlight) -> Fate>) -> Self {
        Self::with_config_and_fault(n, seed, RaftConfig::default(), fault)
    }

    /// Creates a cluster with an explicit node config (replication mode,
    /// window sizes, timeouts) and a fault-injection hook.
    pub fn with_config_and_fault(
        n: usize,
        seed: u64,
        config: RaftConfig,
        fault: Box<dyn FnMut(&InFlight) -> Fate>,
    ) -> Self {
        let ids: Vec<NodeId> = (1..=n as u64).collect();
        let nodes = ids
            .iter()
            .map(|&id| {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
                RaftNode::new(id, peers, config, seed)
            })
            .collect();
        Cluster {
            nodes,
            network: VecDeque::new(),
            committed: vec![Vec::new(); n],
            fault,
        }
    }

    fn node_index(&self, id: NodeId) -> usize {
        id as usize - 1
    }

    fn absorb(&mut self, from: NodeId, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Send { to, message } => self.network.push_back(InFlight {
                    from,
                    to,
                    message,
                }),
                Output::Committed { index, data } => {
                    let idx = self.node_index(from);
                    self.committed[idx].push((index, data));
                }
                Output::BecameLeader | Output::SteppedDown => {}
            }
        }
    }

    /// Ticks every node once and delivers all queued messages to quiescence.
    pub fn tick(&mut self) {
        for i in 0..self.nodes.len() {
            let id = self.nodes[i].id();
            let outputs = self.nodes[i].tick();
            self.absorb(id, outputs);
        }
        self.drain();
    }

    /// Delivers queued messages until the network is empty.
    pub fn drain(&mut self) {
        let mut budget = 100_000;
        while let Some(inflight) = self.network.pop_front() {
            budget -= 1;
            assert!(budget > 0, "network did not quiesce");
            match (self.fault)(&inflight) {
                Fate::Drop => continue,
                Fate::Deliver => {
                    let idx = self.node_index(inflight.to);
                    let outputs = self.nodes[idx].step(inflight.from, inflight.message);
                    let id = inflight.to;
                    self.absorb(id, outputs);
                }
            }
        }
    }

    /// Runs ticks until a leader exists (panics after `max_ticks`).
    pub fn elect_leader(&mut self, max_ticks: usize) -> NodeId {
        for _ in 0..max_ticks {
            self.tick();
            if let Some(leader) = self.leader() {
                return leader;
            }
        }
        panic!("no leader elected within {max_ticks} ticks");
    }

    /// The current leader, if exactly one node believes it leads.
    pub fn leader(&self) -> Option<NodeId> {
        let leaders: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.role() == Role::Leader)
            .map(|n| n.id())
            .collect();
        // With partitions there can transiently be two "leaders" in
        // different terms; report the one with the highest term.
        leaders
            .into_iter()
            .max_by_key(|&id| self.nodes[self.node_index(id)].term())
    }

    /// Proposes via the current leader.
    pub fn propose(&mut self, data: Vec<u8>) -> Result<u64, ProposeError> {
        let leader = self.leader().ok_or(ProposeError::NotLeader(None))?;
        let idx = self.node_index(leader);
        let (index, outputs) = self.nodes[idx].propose(data)?;
        self.absorb(leader, outputs);
        self.drain();
        Ok(index)
    }

    /// Asserts the core safety property: all nodes' committed sequences are
    /// prefixes of one another (agreement).
    pub fn assert_agreement(&self) {
        let longest = self
            .committed
            .iter()
            .max_by_key(|c| c.len())
            .expect("at least one node");
        for (node, committed) in self.committed.iter().enumerate() {
            for (i, entry) in committed.iter().enumerate() {
                assert_eq!(
                    entry, &longest[i],
                    "node {} disagrees at commit position {}",
                    node + 1,
                    i
                );
            }
        }
    }

    /// At most one leader per term across the whole cluster history can't be
    /// checked retroactively here; this checks the instantaneous version:
    /// no two nodes lead in the same term right now.
    pub fn assert_single_leader_per_term(&self) {
        let mut seen = std::collections::HashMap::new();
        for node in &self.nodes {
            if node.role() == Role::Leader {
                if let Some(prev) = seen.insert(node.term(), node.id()) {
                    panic!(
                        "two leaders in term {}: {} and {}",
                        node.term(),
                        prev,
                        node.id()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn elects_a_leader() {
        let mut cluster = Cluster::new(3, 42);
        let leader = cluster.elect_leader(200);
        assert!((1..=3).contains(&leader));
        cluster.assert_single_leader_per_term();
    }

    #[test]
    fn single_node_cluster_self_elects_and_commits() {
        let mut cluster = Cluster::new(1, 1);
        cluster.elect_leader(100);
        cluster.propose(b"solo".to_vec()).unwrap();
        assert_eq!(cluster.committed[0], vec![(1, b"solo".to_vec())]);
    }

    #[test]
    fn replicates_and_commits() {
        let mut cluster = Cluster::new(5, 7);
        cluster.elect_leader(200);
        for i in 0..10u8 {
            cluster.propose(vec![i]).unwrap();
        }
        // A couple more ticks to flush commit notifications to followers.
        for _ in 0..10 {
            cluster.tick();
        }
        for committed in &cluster.committed {
            assert_eq!(committed.len(), 10);
        }
        cluster.assert_agreement();
    }

    #[test]
    fn commits_in_order() {
        let mut cluster = Cluster::new(3, 9);
        cluster.elect_leader(200);
        for i in 0..20u8 {
            cluster.propose(vec![i]).unwrap();
        }
        for _ in 0..10 {
            cluster.tick();
        }
        for committed in &cluster.committed {
            let indices: Vec<u64> = committed.iter().map(|(i, _)| *i).collect();
            let expected: Vec<u64> = (1..=20).collect();
            assert_eq!(indices, expected);
        }
    }

    #[test]
    fn survives_message_loss() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut cluster = Cluster::with_fault(
            3,
            13,
            Box::new(move |_| {
                if rng.gen_bool(0.2) {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            }),
        );
        cluster.elect_leader(2000);
        let mut proposed = 0;
        while proposed < 10 {
            if cluster.propose(vec![proposed]).is_ok() {
                proposed += 1;
            }
            cluster.tick();
        }
        for _ in 0..300 {
            cluster.tick();
        }
        cluster.assert_agreement();
        // With 20% loss the cluster still commits everything eventually.
        assert!(cluster.committed.iter().any(|c| c.len() == 10));
    }

    #[test]
    fn leader_failover() {
        let mut cluster = Cluster::new(3, 21);
        let first = cluster.elect_leader(200);
        cluster.propose(b"before".to_vec()).unwrap();
        for _ in 0..5 {
            cluster.tick();
        }
        // Partition the leader away: drop everything to/from it.
        let dead = first;
        cluster.fault = Box::new(move |m| {
            if m.from == dead || m.to == dead {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        });
        // A new leader emerges among the remaining nodes.
        let mut new_leader = None;
        for _ in 0..500 {
            cluster.tick();
            if let Some(l) = cluster.leader() {
                if l != dead
                    && cluster.nodes[(l - 1) as usize].term()
                        > cluster.nodes[(dead - 1) as usize].term()
                {
                    new_leader = Some(l);
                    break;
                }
            }
        }
        let new_leader = new_leader.expect("failover leader");
        // Proposals via the new leader commit on the healthy majority.
        let idx = (new_leader - 1) as usize;
        let (_, outputs) = cluster.nodes[idx].propose(b"after".to_vec()).unwrap();
        cluster.absorb(new_leader, outputs);
        cluster.drain();
        for _ in 0..50 {
            cluster.tick();
        }
        cluster.assert_agreement();
        let healthy: Vec<_> = (0..3).filter(|&i| i != (dead - 1) as usize).collect();
        for &i in &healthy {
            assert!(
                cluster.committed[i]
                    .iter()
                    .any(|(_, d)| d == b"after"),
                "healthy node {} missing post-failover commit",
                i + 1
            );
        }
    }

    #[test]
    fn old_leader_rejoins_and_converges() {
        let mut cluster = Cluster::new(3, 33);
        let first = cluster.elect_leader(200);
        cluster.propose(b"a".to_vec()).unwrap();
        let dead = first;
        cluster.fault = Box::new(move |m| {
            if m.from == dead || m.to == dead {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        });
        for _ in 0..500 {
            cluster.tick();
            if cluster.leader().map(|l| l != dead).unwrap_or(false) {
                break;
            }
        }
        cluster.propose(b"b".to_vec()).ok();
        // Heal the partition.
        cluster.fault = Box::new(|_| Fate::Deliver);
        for _ in 0..100 {
            cluster.tick();
        }
        cluster.assert_agreement();
        cluster.assert_single_leader_per_term();
        // Everyone eventually commits both entries.
        for committed in &cluster.committed {
            let data: Vec<&[u8]> = committed.iter().map(|(_, d)| d.as_slice()).collect();
            assert!(data.contains(&b"a".as_slice()));
            assert!(data.contains(&b"b".as_slice()));
        }
    }

    #[test]
    fn not_leader_rejected() {
        let mut cluster = Cluster::new(3, 5);
        let leader = cluster.elect_leader(200);
        let follower = (1..=3).find(|&i| i != leader).unwrap();
        let idx = (follower - 1) as usize;
        match cluster.nodes[idx].propose(b"x".to_vec()) {
            Err(ProposeError::NotLeader(hint)) => {
                assert_eq!(hint, Some(leader));
            }
            other => panic!("expected NotLeader, got {other:?}"),
        }
    }

    #[test]
    fn compaction_bounds_log_and_replication_continues() {
        let mut cluster = Cluster::new(3, 55);
        let leader = cluster.elect_leader(200);
        for i in 0..10u8 {
            cluster.propose(vec![i]).unwrap();
        }
        for _ in 0..10 {
            cluster.tick();
        }
        // Every follower matched all 10 entries; the leader may compact
        // everything it applied.
        let idx = (leader - 1) as usize;
        assert_eq!(cluster.nodes[idx].compact(10), 10);
        assert_eq!(cluster.nodes[idx].log_offset(), 10);
        assert_eq!(cluster.nodes[idx].retained_len(), 0);
        assert_eq!(cluster.nodes[idx].log_len(), 10, "total length unchanged");
        assert!(cluster.nodes[idx].entry(5).is_none(), "compacted entry gone");

        // Followers compact independently, clamped to the floor the leader
        // advertised: every peer matched all 10 entries, so the floor is 10.
        for i in 0..3usize {
            if i != idx {
                assert_eq!(cluster.nodes[i].compaction_floor(), 10);
                assert_eq!(cluster.nodes[i].compact(u64::MAX), 10);
            }
        }

        // Replication continues seamlessly past the compaction point.
        for i in 10..15u8 {
            cluster.propose(vec![i]).unwrap();
        }
        for _ in 0..10 {
            cluster.tick();
        }
        cluster.assert_agreement();
        for committed in &cluster.committed {
            assert_eq!(committed.len(), 15);
        }
        assert!(cluster.nodes[idx].entry(12).is_some());
    }

    #[test]
    fn leader_compaction_clamps_to_slowest_follower() {
        let mut cluster = Cluster::new(3, 66);
        let leader = cluster.elect_leader(200);
        cluster.propose(b"seed".to_vec()).unwrap();
        for _ in 0..5 {
            cluster.tick();
        }
        // Partition one follower; the other still forms a majority.
        let straggler = (1..=3).find(|&i| i != leader).unwrap();
        cluster.fault = Box::new(move |m| {
            if m.from == straggler || m.to == straggler {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        });
        for i in 0..8u8 {
            cluster.propose(vec![i]).unwrap();
            cluster.tick();
        }
        let idx = (leader - 1) as usize;
        let committed = cluster.nodes[idx].commit_index();
        assert!(committed >= 9, "majority still commits");
        // The straggler only matched the first entry, so compaction is
        // clamped there — the entries it still needs stay in the log.
        let offset = cluster.nodes[idx].compact(committed);
        assert!(
            offset <= 1,
            "compaction must not discard entries the straggler needs (offset {offset})"
        );
        // Heal; the straggler catches up entirely from the retained log.
        cluster.fault = Box::new(|_| Fate::Deliver);
        for _ in 0..100 {
            cluster.tick();
        }
        cluster.assert_agreement();
        let s_idx = (straggler - 1) as usize;
        assert_eq!(cluster.committed[s_idx].len(), 9);
    }

    /// Regression: a follower used to compact up to whatever it had
    /// applied. Elected later, it could no longer repair a peer lagging
    /// behind its compaction point: `next_index` clamped to the boundary
    /// and the consistency check never passed, stranding the peer.
    #[test]
    fn follower_compaction_never_strands_a_peer_after_failover() {
        fn isolate(node: NodeId) -> Box<dyn FnMut(&InFlight) -> Fate> {
            Box::new(move |m| {
                if m.from == node || m.to == node {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            })
        }
        let mut cluster = Cluster::new(3, 66);
        let leader = cluster.elect_leader(200);
        cluster.propose(b"seed".to_vec()).unwrap();
        for _ in 0..5 {
            cluster.tick();
        }
        let mut followers = (1..=3).filter(|&i| i != leader);
        let straggler = followers.next().unwrap();
        let survivor = followers.next().unwrap();
        cluster.fault = isolate(straggler);
        for i in 0..8u8 {
            cluster.propose(vec![i]).unwrap();
            cluster.tick();
        }
        for _ in 0..5 {
            cluster.tick();
        }
        let s_idx = (survivor - 1) as usize;
        assert_eq!(cluster.nodes[s_idx].commit_index(), 9, "survivor applied all");
        let offset = cluster.nodes[s_idx].compact(u64::MAX);

        // The leader goes silent; the straggler heals and must be repaired
        // by the survivor, the only node that can now win an election.
        cluster.fault = isolate(leader);
        for _ in 0..400 {
            cluster.tick();
        }
        cluster.assert_agreement();
        let st_idx = (straggler - 1) as usize;
        assert_eq!(
            cluster.committed[st_idx].len(),
            9,
            "straggler stranded behind the survivor's compaction point {offset}"
        );
        assert!(offset <= 1, "survivor compacted past the floor: {offset}");
    }

    #[test]
    fn follower_catches_up_from_compacted_leader_boundary() {
        // Compact on the leader right at the matched frontier, then keep
        // proposing: appends reference the boundary term (snapshot_term)
        // and must stay consistent.
        let mut cluster = Cluster::new(3, 91);
        cluster.elect_leader(200);
        for i in 0..4u8 {
            cluster.propose(vec![i]).unwrap();
        }
        for _ in 0..10 {
            cluster.tick();
        }
        for node in &mut cluster.nodes {
            node.compact(u64::MAX);
        }
        for i in 4..8u8 {
            cluster.propose(vec![i]).unwrap();
        }
        for _ in 0..10 {
            cluster.tick();
        }
        cluster.assert_agreement();
        for committed in &cluster.committed {
            assert_eq!(committed.len(), 8);
        }
    }

    fn run_mixed_schedule(mode: ReplicationMode, seed: u64) -> Vec<Vec<(u64, Vec<u8>)>> {
        let config = RaftConfig {
            mode,
            max_batch: 4,
            max_inflight: 3,
            ..RaftConfig::default()
        };
        let mut cluster =
            Cluster::with_config_and_fault(3, seed, config, Box::new(|_| Fate::Deliver));
        cluster.elect_leader(200);
        for i in 0..30u8 {
            cluster.propose(vec![i]).unwrap();
            if i % 3 == 0 {
                cluster.tick();
            }
        }
        for _ in 0..20 {
            cluster.tick();
        }
        cluster.committed
    }

    #[test]
    fn pipelined_commit_stream_matches_lockstep_oracle() {
        for seed in [11u64, 42, 97] {
            let lockstep = run_mixed_schedule(ReplicationMode::Lockstep, seed);
            let pipelined = run_mixed_schedule(ReplicationMode::Pipelined, seed);
            assert_eq!(lockstep, pipelined, "seed {seed}: commit streams diverge");
            assert!(
                lockstep.iter().all(|c| c.len() == 30),
                "seed {seed}: oracle did not commit everything"
            );
        }
    }

    #[test]
    fn pipelined_window_bounds_unacked_appends() {
        // Blackhole every message from one follower back to the cluster:
        // the leader never sees its acks, so after `max_inflight` batched
        // appends the window is full and the leader must stop sending it
        // entries (probes stay empty). Stall retransmission is disabled
        // via a huge `retransmit_beats`.
        let config = RaftConfig {
            max_batch: 1,
            max_inflight: 4,
            retransmit_beats: u64::MAX,
            ..RaftConfig::default()
        };
        let mut cluster =
            Cluster::with_config_and_fault(3, 7, config, Box::new(|_| Fate::Deliver));
        let leader = cluster.elect_leader(200);
        let mute = (1..=3u64).find(|&i| i != leader).unwrap();
        let sent = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let counter = sent.clone();
        cluster.fault = Box::new(move |m| {
            if m.from == mute {
                return Fate::Drop;
            }
            if m.to == mute {
                if let Message::AppendEntries { entries, .. } = &m.message {
                    if !entries.is_empty() {
                        counter.set(counter.get() + 1);
                    }
                }
            }
            Fate::Deliver
        });
        for i in 0..50u8 {
            cluster.propose(vec![i]).unwrap();
            cluster.tick();
        }
        assert_eq!(
            sent.get(),
            4,
            "leader must stop at max_inflight unacked appends"
        );
        // The healthy majority still commits everything.
        let leader_idx = (leader - 1) as usize;
        assert_eq!(cluster.committed[leader_idx].len(), 50);
    }

    #[test]
    fn pipelined_gap_retransmit_heals_dropped_batches() {
        // Drop a contiguous run of entry-carrying appends to one follower
        // (probes and everything else still flow), creating a log gap.
        // The follower's conflict hints on the probes must drive go-back-N
        // retransmission until it converges — without any heal step.
        let config = RaftConfig {
            max_batch: 2,
            max_inflight: 4,
            ..RaftConfig::default()
        };
        let mut cluster =
            Cluster::with_config_and_fault(3, 19, config, Box::new(|_| Fate::Deliver));
        let leader = cluster.elect_leader(200);
        let victim = (1..=3u64).find(|&i| i != leader).unwrap();
        let dropped = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let counter = dropped.clone();
        cluster.fault = Box::new(move |m| {
            if m.to == victim && counter.get() < 6 {
                if let Message::AppendEntries { entries, .. } = &m.message {
                    if !entries.is_empty() {
                        counter.set(counter.get() + 1);
                        return Fate::Drop;
                    }
                }
            }
            Fate::Deliver
        });
        for i in 0..20u8 {
            cluster.propose(vec![i]).unwrap();
            cluster.tick();
        }
        assert_eq!(dropped.get(), 6, "fault hook dropped the expected batches");
        for _ in 0..30 {
            cluster.tick();
        }
        cluster.assert_agreement();
        let victim_idx = (victim - 1) as usize;
        assert_eq!(
            cluster.committed[victim_idx].len(),
            20,
            "victim recovered every dropped batch via retransmission"
        );
    }

    #[test]
    fn lockstep_survives_message_loss() {
        // Keep the oracle path itself covered under loss.
        let mut rng = StdRng::seed_from_u64(31);
        let config = RaftConfig {
            mode: ReplicationMode::Lockstep,
            ..RaftConfig::default()
        };
        let mut cluster = Cluster::with_config_and_fault(
            3,
            31,
            config,
            Box::new(move |_| {
                if rng.gen_bool(0.2) {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            }),
        );
        cluster.elect_leader(2000);
        let mut proposed = 0;
        while proposed < 10 {
            if cluster.propose(vec![proposed]).is_ok() {
                proposed += 1;
            }
            cluster.tick();
        }
        for _ in 0..300 {
            cluster.tick();
        }
        cluster.assert_agreement();
        assert!(cluster.committed.iter().any(|c| c.len() == 10));
    }

    #[test]
    fn agreement_under_random_partitions() {
        // Randomized stress: alternate partitions and healing, keep
        // proposing, assert agreement at every step.
        let mut driver_rng = StdRng::seed_from_u64(77);
        for trial in 0..5 {
            let seed = driver_rng.gen::<u64>();
            let mut cluster = Cluster::new(5, seed);
            let mut victim: Option<NodeId> = None;
            let mut phase_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            for round in 0..60 {
                if round % 15 == 0 {
                    // New random partition victim (or heal).
                    victim = if phase_rng.gen_bool(0.5) {
                        Some(phase_rng.gen_range(1..=5))
                    } else {
                        None
                    };
                    let v = victim;
                    cluster.fault = Box::new(move |m| match v {
                        Some(dead) if m.from == dead || m.to == dead => Fate::Drop,
                        _ => Fate::Deliver,
                    });
                }
                cluster.tick();
                if cluster.leader().map(|l| Some(l) != victim).unwrap_or(false) {
                    let _ = cluster.propose(vec![round as u8]);
                }
                cluster.assert_agreement();
            }
            // Heal and converge.
            cluster.fault = Box::new(|_| Fate::Deliver);
            for _ in 0..200 {
                cluster.tick();
            }
            cluster.assert_agreement();
            assert!(
                !cluster.committed.iter().all(|c| c.is_empty()),
                "trial {trial}: nothing committed at all"
            );
        }
    }
}
