//! An in-memory multi-OSN ordering service driver.
//!
//! [`OrderingCluster`] wires several [`OrderingNode`]s together over an
//! in-memory network and exposes the two-call interface of the paper
//! (Sec. 3.3): `broadcast(tx)` and `deliver(seq)`. It also cross-checks
//! that every OSN cuts byte-identical blocks — the determinism property the
//! whole design rests on.
//!
//! For the ordering fault battery the cluster supports node crashes
//! ([`OrderingCluster::crash`]) and a message-level fault hook
//! ([`OrderingCluster::set_fault`]) that can drop or observe any OSN-to-OSN
//! message — enough to express leader crashes mid-pipeline, partitions
//! that heal, and message loss.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use fabric_msp::SigningIdentity;
use fabric_primitives::block::Block;
use fabric_primitives::config::{ChannelConfig, ConsensusType};
use fabric_primitives::transaction::Envelope;
use fabric_primitives::ChannelId;

use crate::node::{ConsensusBackend, OrderingNode, OsnConfig, OsnMessage, OsnOutput};
use crate::verify::VerifyPool;
use crate::OrderError;

/// Decides the fate of one in-flight message: `(from, to, message)` →
/// deliver (`true`) or drop (`false`).
pub type FaultHook = Box<dyn FnMut(u64, u64, &OsnMessage) -> bool + Send>;

/// Construction knobs for [`OrderingCluster::new_with`].
pub struct ClusterOptions {
    /// The consensus backend type.
    pub consensus: ConsensusType,
    /// Raft tuning (replication mode, window, timeouts).
    pub raft: fabric_raft::RaftConfig,
    /// PBFT tuning (batch size, in-flight window, timeouts).
    pub pbft: fabric_pbft::PbftConfig,
    /// OSN driver timing.
    pub osn: OsnConfig,
    /// Verification pool worker count; `0` keeps verification inline.
    pub verify_workers: usize,
}

impl ClusterOptions {
    /// Default options for a backend type.
    pub fn new(consensus: ConsensusType) -> Self {
        ClusterOptions {
            consensus,
            raft: fabric_raft::RaftConfig::default(),
            pbft: fabric_pbft::PbftConfig::default(),
            osn: OsnConfig::default(),
            verify_workers: 0,
        }
    }
}

/// A deterministic in-memory ordering service (any backend).
pub struct OrderingCluster {
    nodes: Vec<OrderingNode>,
    network: VecDeque<(u64, u64, OsnMessage)>,
    /// Round-robin entry point for broadcasts.
    next_entry: usize,
    /// Crashed nodes: their timers stop and all their traffic is dropped.
    down: HashSet<u64>,
    /// Optional message-fate hook.
    fault: Option<FaultHook>,
    /// Keeps the shared verification pool alive.
    _verify_pool: Option<Arc<VerifyPool>>,
}

// A cluster can be handed to a thread of its own; this fails to compile
// if any field stops being `Send`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<OrderingCluster>();
};

impl OrderingCluster {
    /// Builds a cluster of `n` OSNs with the given consensus type, serving
    /// the given channels. `identities` supplies one orderer identity per
    /// node. For Raft/PBFT the consensus is bootstrapped (leader elected)
    /// before returning.
    pub fn new(
        consensus: ConsensusType,
        identities: Vec<SigningIdentity>,
        genesis_configs: Vec<ChannelConfig>,
    ) -> Result<Self, OrderError> {
        Self::new_with(ClusterOptions::new(consensus), identities, genesis_configs)
    }

    /// Builds a cluster with explicit tuning (see [`ClusterOptions`]).
    pub fn new_with(
        options: ClusterOptions,
        identities: Vec<SigningIdentity>,
        genesis_configs: Vec<ChannelConfig>,
    ) -> Result<Self, OrderError> {
        let n = identities.len();
        assert!(n >= 1);
        let verify_pool = if options.verify_workers > 0 {
            Some(Arc::new(VerifyPool::new(options.verify_workers)))
        } else {
            None
        };
        let mut nodes = Vec::with_capacity(n);
        for (i, identity) in identities.into_iter().enumerate() {
            let backend = match options.consensus {
                ConsensusType::Solo => {
                    assert_eq!(n, 1, "Solo runs on exactly one OSN");
                    ConsensusBackend::Solo
                }
                ConsensusType::Raft => {
                    let ids: Vec<u64> = (1..=n as u64).collect();
                    let peers: Vec<u64> =
                        ids.iter().copied().filter(|&p| p != i as u64 + 1).collect();
                    ConsensusBackend::Raft(fabric_raft::RaftNode::new(
                        i as u64 + 1,
                        peers,
                        options.raft,
                        0xfab,
                    ))
                }
                ConsensusType::Pbft => ConsensusBackend::Pbft(fabric_pbft::PbftNode::new(
                    i as u64,
                    n,
                    options.pbft,
                )),
            };
            let mut node = OrderingNode::new(
                i as u64,
                identity,
                backend,
                options.osn,
                genesis_configs.clone(),
            )?;
            if let Some(pool) = &verify_pool {
                node.set_verify_pool(pool.clone());
            }
            nodes.push(node);
        }
        let mut cluster = OrderingCluster {
            nodes,
            network: VecDeque::new(),
            next_entry: 0,
            down: HashSet::new(),
            fault: None,
            _verify_pool: verify_pool,
        };
        if options.consensus == ConsensusType::Raft {
            // Elect a leader before accepting traffic.
            for _ in 0..500 {
                cluster.tick();
                if cluster
                    .nodes
                    .iter()
                    .any(|node| node.consensus_leader() == Some(node.id()))
                {
                    break;
                }
            }
        }
        Ok(cluster)
    }

    /// Installs a message-fate hook (drop/observe OSN-to-OSN traffic).
    pub fn set_fault(&mut self, hook: FaultHook) {
        self.fault = Some(hook);
    }

    /// Removes the fault hook (heals a partition it expressed).
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Crashes an OSN: its timers stop and every message to or from it is
    /// dropped. The crash is permanent (fail-stop).
    pub fn crash(&mut self, osn: u64) {
        self.down.insert(osn);
    }

    /// Whether `osn` has been crashed.
    pub fn is_down(&self, osn: u64) -> bool {
        self.down.contains(&osn)
    }

    fn absorb(&mut self, from: u64, outputs: Vec<OsnOutput>) {
        for output in outputs {
            // Cut blocks stay at their OSN, which serves them via `deliver`.
            if let OsnOutput::Send { to, message } = output {
                self.network.push_back((from, to, message));
            }
        }
    }

    /// Delivers all in-flight OSN messages.
    pub fn drain(&mut self) {
        let mut budget = 500_000;
        while let Some((from, to, message)) = self.network.pop_front() {
            budget -= 1;
            assert!(budget > 0, "OSN network did not quiesce");
            if self.down.contains(&from) || self.down.contains(&to) {
                continue;
            }
            if let Some(hook) = &mut self.fault {
                if !hook(from, to, &message) {
                    continue;
                }
            }
            let outputs = self.nodes[to as usize].step(from, message);
            self.absorb(to, outputs);
        }
    }

    /// Advances every live OSN's clock one tick and drains the network.
    pub fn tick(&mut self) {
        for i in 0..self.nodes.len() {
            if self.down.contains(&(i as u64)) {
                continue;
            }
            let outputs = self.nodes[i].tick();
            self.absorb(i as u64, outputs);
        }
        self.drain();
    }

    /// Broadcasts an envelope via the next live OSN (round robin), as
    /// clients connecting to arbitrary OSNs would.
    pub fn broadcast(&mut self, envelope: Envelope) -> Result<(), OrderError> {
        let entry = self.next_live_entry();
        self.broadcast_via(entry, envelope)
    }

    /// Broadcasts an envelope via a specific OSN.
    pub fn broadcast_via(&mut self, osn: usize, envelope: Envelope) -> Result<(), OrderError> {
        let outputs = self.nodes[osn].broadcast(envelope)?;
        self.absorb(osn as u64, outputs);
        self.drain();
        Ok(())
    }

    /// Broadcasts a batch of envelopes via the next live OSN in one
    /// intake round (pre-ordering verification + one consensus slot);
    /// returns one verdict per envelope, in order.
    pub fn broadcast_batch(
        &mut self,
        envelopes: Vec<Envelope>,
    ) -> Vec<Result<(), OrderError>> {
        let entry = self.next_live_entry();
        self.broadcast_batch_via(entry, envelopes)
    }

    /// Like [`OrderingCluster::broadcast_batch`] via a specific OSN.
    pub fn broadcast_batch_via(
        &mut self,
        osn: usize,
        envelopes: Vec<Envelope>,
    ) -> Vec<Result<(), OrderError>> {
        let (verdicts, outputs) = self.nodes[osn].broadcast_batch(envelopes);
        self.absorb(osn as u64, outputs);
        self.drain();
        verdicts
    }

    /// The first live OSN at or after `preferred` (wrapping), or `None`
    /// when every node is down. Lets a caller keep a sticky entry point
    /// and fail over deterministically without the round-robin state.
    pub fn live_entry(&self, preferred: usize) -> Option<usize> {
        let n = self.nodes.len();
        (0..n)
            .map(|i| (preferred + i) % n)
            .find(|&i| !self.down.contains(&(i as u64)))
    }

    fn next_live_entry(&mut self) -> usize {
        for _ in 0..self.nodes.len() {
            let entry = self.next_entry % self.nodes.len();
            self.next_entry += 1;
            if !self.down.contains(&(entry as u64)) {
                return entry;
            }
        }
        panic!("all OSNs are down");
    }

    /// Serves `deliver(seq)` from the given OSN.
    pub fn deliver_from(&self, osn: usize, channel: &ChannelId, seq: u64) -> Option<Block> {
        self.nodes[osn].deliver(channel, seq)
    }

    /// Serves `deliver(seq)` from OSN 0.
    pub fn deliver(&self, channel: &ChannelId, seq: u64) -> Option<Block> {
        self.deliver_from(0, channel, seq)
    }

    /// Chain height at OSN 0.
    pub fn height(&self, channel: &ChannelId) -> u64 {
        self.nodes[0].height(channel).unwrap_or(0)
    }

    /// Access to the nodes (assertions, fault injection in tests).
    pub fn nodes(&self) -> &[OrderingNode] {
        &self.nodes
    }

    /// Asserts every *live* OSN cut an identical block sequence per channel
    /// (prefix-wise, since some OSNs may lag).
    pub fn assert_identical_chains(&self, channel: &ChannelId) {
        let live: Vec<&OrderingNode> = self
            .nodes
            .iter()
            .filter(|n| !self.down.contains(&n.id()))
            .collect();
        let min_height = live
            .iter()
            .map(|n| n.height(channel).unwrap_or(0))
            .min()
            .expect("at least one live node");
        let reference = live.first().expect("at least one live node");
        for seq in 0..min_height {
            let expected = reference.deliver(channel, seq).expect("below min height");
            for node in &live[1..] {
                let block = node.deliver(channel, seq).expect("below min height");
                assert_eq!(
                    block.header, expected.header,
                    "OSN {} cut a different block {}",
                    node.id(),
                    seq
                );
                assert_eq!(block.envelopes, expected.envelopes);
            }
        }
    }
}

impl OrderingNode {
    /// The node this OSN believes is the consensus leader/primary, if any.
    pub fn consensus_leader(&self) -> Option<u64> {
        match self.backend_ref() {
            ConsensusBackend::Solo => Some(self.id()),
            ConsensusBackend::Raft(raft) => raft.leader_hint().map(|id| id - 1),
            ConsensusBackend::Pbft(pbft) => Some(pbft.primary()),
        }
    }
}
