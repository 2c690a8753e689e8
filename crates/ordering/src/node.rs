//! An ordering-service node (OSN).
//!
//! The OSN is the proxy between clients/peers and the consensus backend
//! (paper Sec. 4.2): it validates `broadcast` calls against channel access
//! policies, injects envelopes into the atomic broadcast, batches the
//! totally-ordered stream into blocks with the deterministic cutter, signs
//! the blocks, and serves them through `deliver`.
//!
//! The consensus backend is pluggable — the paper's headline modularity
//! claim: [`ConsensusBackend::Solo`] (centralized, development),
//! [`ConsensusBackend::Raft`] (CFT cluster, the Kafka substitute), or
//! [`ConsensusBackend::Pbft`] (BFT, the BFT-SMaRt substitute). All three
//! order the same [`OrderedItem`] stream; switching is a config change.
//!
//! # The intake path
//!
//! There is one: [`OrderingNode::broadcast_batch`] checks each envelope
//! inline against its channel's access policies and submits the
//! survivors, in submission order, as **one** consensus slot (an
//! [`OrderedItem::Batch`] when there are several), amortizing Raft/PBFT
//! per-message overhead.
//! Delivery unpacks the batch into consecutive leaf items, so the ordered
//! stream (and hence every cut block) is byte-identical to submitting the
//! envelopes one at a time; [`OrderingNode::broadcast`] is the batch of
//! one. Each block is signed when it is cut.

use std::collections::{HashMap, VecDeque};

use fabric_msp::SigningIdentity;
use fabric_primitives::block::Block;
use fabric_primitives::config::ChannelConfig;
use fabric_primitives::transaction::{Envelope, EnvelopeContent};
use fabric_primitives::wire::Wire;
use fabric_primitives::ChannelId;

use crate::channel::ChannelState;
use crate::item::OrderedItem;
use crate::OrderError;

/// Messages exchanged between OSNs.
#[derive(Clone, Debug)]
pub enum OsnMessage {
    /// A Raft protocol message.
    Raft(fabric_raft::Message),
    /// A PBFT protocol message.
    Pbft(fabric_pbft::PbftMessage),
    /// An item forwarded to the consensus leader for proposal.
    Forward(Vec<u8>),
}

/// Events an OSN driver must act on.
#[derive(Clone, Debug)]
pub enum OsnOutput {
    /// Send `message` to OSN `to`.
    Send {
        /// Destination OSN index.
        to: u64,
        /// The message.
        message: OsnMessage,
    },
    /// A block was cut on `channel`; deliver it to subscribed peers.
    BlockCut {
        /// The channel.
        channel: ChannelId,
        /// The freshly cut, signed block.
        block: Block,
    },
}

/// The pluggable consensus backend.
// One instance per OSN; the size skew between backends is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum ConsensusBackend {
    /// Single-node FIFO (development/testing, like Fabric's Solo).
    Solo,
    /// Raft replicated log.
    Raft(fabric_raft::RaftNode),
    /// PBFT atomic broadcast.
    Pbft(fabric_pbft::PbftNode),
}

/// Timing configuration for the OSN driver loop.
#[derive(Clone, Copy, Debug)]
pub struct OsnConfig {
    /// Milliseconds represented by one `tick()` (converts the channel's
    /// `batch_timeout_ms` into ticks).
    pub ms_per_tick: u64,
}

impl Default for OsnConfig {
    fn default() -> Self {
        OsnConfig { ms_per_tick: 100 }
    }
}

/// One ordering-service node.
pub struct OrderingNode {
    id: u64,
    identity: SigningIdentity,
    config: OsnConfig,
    backend: ConsensusBackend,
    channels: HashMap<ChannelId, ChannelState>,
    /// Items waiting for a known consensus leader.
    parked: VecDeque<Vec<u8>>,
}

impl OrderingNode {
    /// Creates an OSN with the given consensus backend and the genesis
    /// configuration of each channel it serves.
    pub fn new(
        id: u64,
        identity: SigningIdentity,
        backend: ConsensusBackend,
        config: OsnConfig,
        genesis_configs: Vec<ChannelConfig>,
    ) -> Result<Self, OrderError> {
        let mut channels = HashMap::new();
        for genesis in genesis_configs {
            let state = ChannelState::from_genesis(genesis)?;
            channels.insert(state.channel.clone(), state);
        }
        Ok(OrderingNode {
            id,
            identity,
            config,
            backend,
            channels,
            parked: VecDeque::new(),
        })
    }

    /// This OSN's index.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Always `(0, 0)`: blocks are signed when cut, nothing speculatively.
    /// Kept only because the system benchmark still reports
    /// `ordering.spec_hit_ratio` from it; it goes when that metric does.
    pub fn spec_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Read access to the consensus backend.
    pub(crate) fn backend_ref(&self) -> &ConsensusBackend {
        &self.backend
    }

    /// Read access to a channel's state.
    pub fn channel(&self, channel: &ChannelId) -> Option<&ChannelState> {
        self.channels.get(channel)
    }

    /// Serves `deliver(seq)` (paper Sec. 3.3): returns block `seq` once cut.
    pub fn deliver(&self, channel: &ChannelId, seq: u64) -> Option<Block> {
        self.channels.get(channel)?.deliver(seq)
    }

    /// Current height of a channel at this OSN.
    pub fn height(&self, channel: &ChannelId) -> Option<u64> {
        self.channels.get(channel).map(|c| c.height())
    }

    /// Handles a client `broadcast(tx)` call: a
    /// [`OrderingNode::broadcast_batch`] of one.
    pub fn broadcast(&mut self, envelope: Envelope) -> Result<Vec<OsnOutput>, OrderError> {
        let (mut verdicts, out) = self.broadcast_batch(vec![envelope]);
        verdicts
            .pop()
            .expect("one verdict per envelope")
            .map(|()| out)
    }

    /// Handles a batched `broadcast`: checks every envelope against its
    /// channel's access policies, then submits the survivors — in
    /// submission order — as **one** consensus slot.
    ///
    /// Returns one verdict per input envelope (same order) plus the
    /// outputs of the submission. Invalid envelopes are rejected here and
    /// never reach consensus; the valid ones keep their relative order.
    #[allow(clippy::type_complexity)]
    pub fn broadcast_batch(
        &mut self,
        envelopes: Vec<Envelope>,
    ) -> (Vec<Result<(), OrderError>>, Vec<OsnOutput>) {
        let mut items = Vec::new();
        let verdicts = envelopes
            .into_iter()
            .map(|envelope| {
                let channel = envelope.channel().clone();
                self.channels
                    .get(&channel)
                    .ok_or_else(|| OrderError::UnknownChannel(channel.clone()))?
                    .check_broadcast(&envelope)?;
                items.push(OrderedItem::Tx { channel, envelope });
                Ok(())
            })
            .collect();
        let mut out = match items.len() {
            0 => Vec::new(),
            1 => self.submit(items.pop().expect("one item").to_wire()),
            _ => self.submit(OrderedItem::Batch { items }.to_wire()),
        };
        self.drain_immediate_ttc(&mut out);
        (verdicts, out)
    }

    /// Injects an encoded item into the consensus backend.
    fn submit(&mut self, bytes: Vec<u8>) -> Vec<OsnOutput> {
        match &mut self.backend {
            // Single trusted node: the submission order is the total order.
            ConsensusBackend::Solo => self.process_delivered(bytes),
            ConsensusBackend::Raft(raft) => match raft.propose(bytes.clone()) {
                Ok((_, outputs)) => self.absorb_raft(outputs),
                Err(fabric_raft::ProposeError::NotLeader(Some(leader))) => {
                    vec![OsnOutput::Send {
                        to: leader - 1, // raft ids are 1-based OSN index + 1
                        message: OsnMessage::Forward(bytes),
                    }]
                }
                Err(fabric_raft::ProposeError::NotLeader(None)) => {
                    // No leader yet: park until one emerges.
                    self.parked.push_back(bytes);
                    Vec::new()
                }
            },
            ConsensusBackend::Pbft(pbft) => {
                let outputs = pbft.on_request(bytes);
                self.absorb_pbft(outputs)
            }
        }
    }

    /// Handles an OSN-to-OSN message.
    pub fn step(&mut self, from: u64, message: OsnMessage) -> Vec<OsnOutput> {
        let mut out = match message {
            OsnMessage::Raft(msg) => {
                if let ConsensusBackend::Raft(raft) = &mut self.backend {
                    let outputs = raft.step(from + 1, msg);
                    self.absorb_raft(outputs)
                } else {
                    Vec::new()
                }
            }
            OsnMessage::Pbft(msg) => {
                if let ConsensusBackend::Pbft(pbft) = &mut self.backend {
                    let outputs = pbft.step(from, msg);
                    self.absorb_pbft(outputs)
                } else {
                    Vec::new()
                }
            }
            OsnMessage::Forward(bytes) => self.submit(bytes),
        };
        self.drain_immediate_ttc(&mut out);
        out
    }

    /// Advances timers: consensus heartbeats/elections plus the per-channel
    /// batch timeout (time-to-cut protocol). A Raft backend also compacts
    /// its log here, behind the leader's floor (see
    /// [`fabric_raft::RaftNode::compact`]).
    pub fn tick(&mut self) -> Vec<OsnOutput> {
        let mut out = match &mut self.backend {
            ConsensusBackend::Solo => Vec::new(),
            ConsensusBackend::Raft(raft) => {
                // Applied entries already live on as blocks (or in the
                // cutter's pending batch): keep only what is in flight.
                raft.compact(u64::MAX);
                let outputs = raft.tick();
                self.absorb_raft(outputs)
            }
            ConsensusBackend::Pbft(pbft) => {
                let outputs = pbft.tick();
                self.absorb_pbft(outputs)
            }
        };
        // Retry parked submissions once a leader is known.
        if !self.parked.is_empty() {
            let parked: Vec<Vec<u8>> = self.parked.drain(..).collect();
            for bytes in parked {
                out.extend(self.submit(bytes));
            }
        }
        // Batch timers: if a partial batch has waited past the timeout and
        // we have not yet asked for this block to be cut, broadcast a
        // time-to-cut through consensus (paper Sec. 4.2). `div_ceil` so the
        // timer never fires *early*: a 250 ms timeout at 100 ms/tick waits
        // 3 ticks, not 2.
        let mut ttc_items = Vec::new();
        let ms = self.config.ms_per_tick.max(1);
        for (channel_id, channel) in self.channels.iter_mut() {
            if channel.cutter.has_pending() {
                channel.pending_ticks += 1;
                let timeout_ticks = channel
                    .config()
                    .orderer
                    .batch
                    .batch_timeout_ms
                    .div_ceil(ms)
                    .max(1);
                let next = channel.cutter.next_block();
                if channel.pending_ticks >= timeout_ticks && channel.ttc_sent < next {
                    channel.ttc_sent = next;
                    ttc_items.push(
                        OrderedItem::TimeToCut {
                            channel: channel_id.clone(),
                            block: next,
                        }
                        .to_wire(),
                    );
                }
            } else {
                channel.pending_ticks = 0;
            }
        }
        for item in ttc_items {
            out.extend(self.submit(item));
        }
        self.drain_immediate_ttc(&mut out);
        out
    }

    /// Sub-tick batch timeouts: a `batch_timeout_ms` smaller than one tick
    /// used to quantize *up* to a full tick, stalling small batches for
    /// `ms_per_tick - timeout` extra milliseconds. Such timeouts cannot be
    /// expressed by the tick counter at all, so they fire as soon as a
    /// partial batch exists: every public entry point drains them after
    /// its main work. Monotonic `ttc_sent` bounds the loop.
    fn drain_immediate_ttc(&mut self, out: &mut Vec<OsnOutput>) {
        loop {
            let ms = self.config.ms_per_tick;
            let mut ttc_items = Vec::new();
            for (channel_id, channel) in self.channels.iter_mut() {
                if !channel.cutter.has_pending() {
                    continue;
                }
                if channel.config().orderer.batch.batch_timeout_ms >= ms {
                    continue;
                }
                let next = channel.cutter.next_block();
                if channel.ttc_sent < next {
                    channel.ttc_sent = next;
                    ttc_items.push(
                        OrderedItem::TimeToCut {
                            channel: channel_id.clone(),
                            block: next,
                        }
                        .to_wire(),
                    );
                }
            }
            if ttc_items.is_empty() {
                return;
            }
            for item in ttc_items {
                out.extend(self.submit(item));
            }
        }
    }

    fn absorb_raft(&mut self, outputs: Vec<fabric_raft::Output>) -> Vec<OsnOutput> {
        let mut out = Vec::new();
        for output in outputs {
            match output {
                fabric_raft::Output::Send { to, message } => out.push(OsnOutput::Send {
                    to: to - 1,
                    message: OsnMessage::Raft(message),
                }),
                fabric_raft::Output::Committed { data, .. } => {
                    out.extend(self.process_delivered(data));
                }
                fabric_raft::Output::BecameLeader | fabric_raft::Output::SteppedDown => {}
            }
        }
        out
    }

    fn absorb_pbft(&mut self, outputs: Vec<fabric_pbft::Output>) -> Vec<OsnOutput> {
        let mut out = Vec::new();
        for output in outputs {
            match output {
                fabric_pbft::Output::Send { to, message } => out.push(OsnOutput::Send {
                    to,
                    message: OsnMessage::Pbft(message),
                }),
                fabric_pbft::Output::Delivered { data, .. } => {
                    if !data.is_empty() {
                        out.extend(self.process_delivered(data));
                    }
                }
            }
        }
        out
    }

    /// Processes one totally-ordered consensus slot: a leaf item, or a
    /// batch unpacked into consecutive leaf items. Deterministic across
    /// OSNs by construction.
    fn process_delivered(&mut self, bytes: Vec<u8>) -> Vec<OsnOutput> {
        let item = match OrderedItem::from_wire(&bytes) {
            Ok(item) => item,
            Err(_) => return Vec::new(), // corrupt item: skip deterministically
        };
        match item {
            OrderedItem::Batch { items } => {
                let mut out = Vec::new();
                for leaf in items {
                    out.extend(self.process_item(leaf));
                }
                out
            }
            leaf => self.process_item(leaf),
        }
    }

    /// Processes one totally-ordered leaf item: batching, config handling,
    /// block cutting.
    fn process_item(&mut self, item: OrderedItem) -> Vec<OsnOutput> {
        let mut out = Vec::new();
        let channel_id = item.channel().clone();
        let Some(channel) = self.channels.get_mut(&channel_id) else {
            return Vec::new();
        };
        let identity = &self.identity;
        match item {
            OrderedItem::Tx { envelope, .. } => {
                if envelope.is_config() {
                    // Re-validate against the current config (it may have
                    // changed since broadcast); drop if stale.
                    let update = match &envelope.content {
                        EnvelopeContent::Config(u) => u.clone(),
                        EnvelopeContent::Transaction(_) => unreachable!("is_config checked"),
                    };
                    if channel.check_config_update(&update).is_err() {
                        return Vec::new();
                    }
                    // Config blocks stand alone: flush the pending batch.
                    if let Some(batch) = channel.cutter.flush() {
                        let block = channel.cut_block(batch, identity);
                        out.push(OsnOutput::BlockCut {
                            channel: channel_id.clone(),
                            block,
                        });
                    }
                    let block = channel.cut_block(vec![envelope], identity);
                    channel.cutter.note_external_block();
                    channel
                        .apply_config(update.config)
                        .expect("config validated above");
                    channel.pending_ticks = 0;
                    out.push(OsnOutput::BlockCut {
                        channel: channel_id,
                        block,
                    });
                } else {
                    for batch in channel.cutter.ordered(envelope) {
                        let block = channel.cut_block(batch, identity);
                        out.push(OsnOutput::BlockCut {
                            channel: channel_id.clone(),
                            block,
                        });
                    }
                    if !channel.cutter.has_pending() {
                        channel.pending_ticks = 0;
                    }
                }
            }
            OrderedItem::TimeToCut { block, .. } => {
                if let Some(batch) = channel.cutter.time_to_cut(block) {
                    let cut = channel.cut_block(batch, identity);
                    channel.pending_ticks = 0;
                    out.push(OsnOutput::BlockCut {
                        channel: channel_id,
                        block: cut,
                    });
                }
            }
            OrderedItem::Batch { .. } => {} // unpacked by process_delivered
        }
        out
    }
}
