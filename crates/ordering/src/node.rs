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
//! # The pipelined intake path
//!
//! Three mechanisms overlap the stages that a naive OSN would serialize:
//!
//! * **Pre-ordering verification** — [`OrderingNode::broadcast_batch`]
//!   checks submitter signatures on a [`crate::verify::VerifyPool`]
//!   worker pool (when one is attached), so ECDSA verification of batch
//!   *n+1* runs while consensus replicates batch *n*.
//! * **Batched consensus slots** — the surviving envelopes of a batch
//!   ride one [`OrderedItem::Batch`] through a single consensus slot,
//!   amortizing Raft/PBFT per-message overhead. Delivery unpacks the
//!   batch into consecutive leaf items, so the ordered stream (and hence
//!   every cut block) is byte-identical to submitting the envelopes one
//!   at a time.
//! * **Speculative block signing** — the Raft leader / PBFT primary knows
//!   the future ordered stream it proposes, so it pre-computes block
//!   header hashes and their ECDSA signatures while replication is still
//!   in flight. Header hashes cover only (number, previous hash, data
//!   hash) — never signatures — and our ECDSA is RFC 6979 deterministic,
//!   so a cache hit yields byte-for-byte the signature that would have
//!   been produced at cut time; a miss (reordering by TTC interleaving,
//!   view change, config block) just falls back to signing on the spot.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use fabric_crypto::Digest;
use fabric_msp::SigningIdentity;
use fabric_primitives::block::{Block, BlockSignature};
use fabric_primitives::config::ChannelConfig;
use fabric_primitives::transaction::{Envelope, EnvelopeContent};
use fabric_primitives::wire::Wire;
use fabric_primitives::ChannelId;

use crate::channel::ChannelState;
use crate::cutter::BlockCutter;
use crate::item::OrderedItem;
use crate::verify::VerifyPool;
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

/// A leader-side shadow of one channel's cutting state, used to predict
/// the header hashes of blocks that consensus has not yet delivered.
struct SpecShadow {
    /// The number the next predicted block will carry.
    number: u64,
    /// Hash of the previous (predicted) block header.
    last_hash: Digest,
    /// A clone of the channel's cutter, advanced speculatively.
    cutter: BlockCutter,
}

/// The speculative block-signing cache (leader/primary only).
///
/// Predictions are *hints*: a cut consults the cache by the real header
/// hash, so a stale shadow can never corrupt a block — it only costs the
/// miss. Any miss clears that channel's shadow; the next leader-side
/// submission re-seeds it from the channel's real state.
#[derive(Default)]
struct SpecSigner {
    shadows: HashMap<ChannelId, SpecShadow>,
    /// Header hash → this node's signature over it.
    cache: HashMap<Digest, Vec<u8>>,
    hits: u64,
    misses: u64,
}

/// Bound on cached speculative signatures (stale entries from TTC races
/// or view changes are evicted wholesale rather than tracked precisely).
const SPEC_CACHE_MAX: usize = 256;

impl SpecSigner {
    /// Speculatively runs `envelope` through `channel`'s shadow cutter and
    /// pre-signs any blocks it would cut.
    fn speculate(
        &mut self,
        identity: &SigningIdentity,
        channel_id: &ChannelId,
        channel: &ChannelState,
        envelope: &Envelope,
    ) {
        if self.cache.len() >= SPEC_CACHE_MAX {
            self.cache.clear();
        }
        let shadow = self
            .shadows
            .entry(channel_id.clone())
            .or_insert_with(|| SpecShadow {
                number: channel.height(),
                last_hash: channel.last_hash(),
                cutter: channel.cutter.clone(),
            });
        for batch in shadow.cutter.ordered(envelope.clone()) {
            let block = Block::new(shadow.number, shadow.last_hash, batch);
            let header_hash = block.hash();
            self.cache.insert(
                header_hash,
                identity.sign(&header_hash).to_bytes().to_vec(),
            );
            shadow.number += 1;
            shadow.last_hash = header_hash;
        }
    }

    /// Produces this node's signature over `header_hash`, consuming a
    /// cached speculative signature when the prediction was right.
    fn signed(
        &mut self,
        identity: &SigningIdentity,
        channel_id: &ChannelId,
        header_hash: &Digest,
    ) -> BlockSignature {
        let signature = match self.cache.remove(header_hash) {
            Some(sig) => {
                self.hits += 1;
                sig
            }
            None => {
                self.misses += 1;
                // Prediction diverged (TTC cut, config block, lost
                // leadership): drop the shadow so it re-seeds.
                self.shadows.remove(channel_id);
                identity.sign(header_hash).to_bytes().to_vec()
            }
        };
        BlockSignature {
            signer: identity.serialized(),
            signature,
        }
    }

    /// Forgets a channel's shadow (config change, leadership loss).
    fn invalidate(&mut self, channel_id: &ChannelId) {
        self.shadows.remove(channel_id);
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
    /// Optional pre-ordering verification worker pool (shared).
    verify_pool: Option<Arc<VerifyPool>>,
    /// Leader-side speculative signing cache.
    spec: SpecSigner,
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
            verify_pool: None,
            spec: SpecSigner::default(),
        })
    }

    /// This OSN's index.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a shared verification pool; `broadcast_batch` offloads
    /// signature checks onto it. Without a pool, verification is inline.
    pub fn set_verify_pool(&mut self, pool: Arc<VerifyPool>) {
        self.verify_pool = Some(pool);
    }

    /// `(hits, misses)` of the speculative block-signing cache.
    pub fn spec_stats(&self) -> (u64, u64) {
        (self.spec.hits, self.spec.misses)
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

    /// Handles a client `broadcast(tx)` call: validate, then inject into
    /// the atomic broadcast.
    pub fn broadcast(&mut self, envelope: Envelope) -> Result<Vec<OsnOutput>, OrderError> {
        let channel = self
            .channels
            .get(envelope.channel())
            .ok_or_else(|| OrderError::UnknownChannel(envelope.channel().clone()))?;
        channel.check_broadcast(&envelope)?;
        let item = OrderedItem::Tx {
            channel: envelope.channel().clone(),
            envelope,
        };
        let mut out = self.submit(item.to_wire())?;
        self.drain_immediate_ttc(&mut out);
        Ok(out)
    }

    /// Handles a batched `broadcast`: verifies every envelope (on the
    /// attached [`VerifyPool`] when present), then submits the survivors —
    /// in submission order — as **one** consensus slot.
    ///
    /// Returns one verdict per input envelope (same order) plus the
    /// outputs of the submission. Invalid envelopes are rejected here and
    /// never reach consensus; the valid ones keep their relative order.
    #[allow(clippy::type_complexity)]
    pub fn broadcast_batch(
        &mut self,
        envelopes: Vec<Envelope>,
    ) -> (Vec<Result<(), OrderError>>, Vec<OsnOutput>) {
        let n = envelopes.len();
        let mut verdicts: Vec<Option<Result<(), OrderError>>> = (0..n).map(|_| None).collect();
        // Pair each envelope with its channel's access snapshot; unknown
        // channels are rejected immediately.
        let mut jobs: Vec<(usize, Arc<crate::channel::ChannelAccess>, Envelope)> = Vec::new();
        for (slot, envelope) in envelopes.into_iter().enumerate() {
            match self.channels.get(envelope.channel()) {
                Some(channel) => jobs.push((slot, channel.access.clone(), envelope)),
                None => {
                    verdicts[slot] =
                        Some(Err(OrderError::UnknownChannel(envelope.channel().clone())))
                }
            }
        }
        // Verify — on the pool when attached, inline otherwise.
        let mut survivors: Vec<(usize, Envelope)> = Vec::new();
        match &self.verify_pool {
            Some(pool) => {
                let slots: Vec<usize> = jobs.iter().map(|(s, _, _)| *s).collect();
                let batch: Vec<_> = jobs
                    .into_iter()
                    .map(|(_, access, envelope)| (access, envelope))
                    .collect();
                for (slot, (envelope, verdict)) in
                    slots.into_iter().zip(pool.verify_batch(batch))
                {
                    match verdict {
                        Ok(()) => survivors.push((slot, envelope)),
                        Err(e) => verdicts[slot] = Some(Err(e)),
                    }
                }
            }
            None => {
                for (slot, access, envelope) in jobs {
                    match access.check_broadcast(&envelope) {
                        Ok(()) => survivors.push((slot, envelope)),
                        Err(e) => verdicts[slot] = Some(Err(e)),
                    }
                }
            }
        }
        survivors.sort_by_key(|(slot, _)| *slot);
        // Submit survivors as one consensus slot.
        let mut out = Vec::new();
        if !survivors.is_empty() {
            let items: Vec<OrderedItem> = survivors
                .iter()
                .map(|(_, envelope)| OrderedItem::Tx {
                    channel: envelope.channel().clone(),
                    envelope: envelope.clone(),
                })
                .collect();
            let wire = if items.len() == 1 {
                items.into_iter().next().expect("one item").to_wire()
            } else {
                OrderedItem::Batch { items }.to_wire()
            };
            match self.submit(wire) {
                Ok(mut o) => {
                    out.append(&mut o);
                    for (slot, _) in &survivors {
                        verdicts[*slot] = Some(Ok(()));
                    }
                }
                Err(e) => {
                    // Submission failed wholesale; the first survivor
                    // carries the error, the rest report denied intake.
                    let mut first = Some(e);
                    for (slot, _) in &survivors {
                        verdicts[*slot] = Some(match first.take() {
                            Some(e) => Err(e),
                            None => Err(OrderError::AccessDenied),
                        });
                    }
                }
            }
        }
        self.drain_immediate_ttc(&mut out);
        (
            verdicts
                .into_iter()
                .map(|v| v.expect("every slot decided"))
                .collect(),
            out,
        )
    }

    /// Injects an encoded item into the consensus backend.
    fn submit(&mut self, bytes: Vec<u8>) -> Result<Vec<OsnOutput>, OrderError> {
        match &mut self.backend {
            ConsensusBackend::Solo => {
                // Single trusted node: the submission order is the total
                // order.
                Ok(self.process_delivered(bytes))
            }
            ConsensusBackend::Raft(raft) => match raft.propose(bytes.clone()) {
                Ok((_, outputs)) => {
                    self.speculate_bytes(&bytes);
                    Ok(self.absorb_raft(outputs))
                }
                Err(fabric_raft::ProposeError::NotLeader(Some(leader))) => {
                    Ok(vec![OsnOutput::Send {
                        to: leader - 1, // raft ids are 1-based OSN index + 1
                        message: OsnMessage::Forward(bytes),
                    }])
                }
                Err(fabric_raft::ProposeError::NotLeader(None)) => {
                    // No leader yet: park until one emerges.
                    self.parked.push_back(bytes);
                    Ok(Vec::new())
                }
            },
            ConsensusBackend::Pbft(pbft) => {
                let primary = pbft.is_primary();
                let outputs = pbft.on_request(bytes.clone());
                if primary {
                    self.speculate_bytes(&bytes);
                }
                Ok(self.absorb_pbft(outputs))
            }
        }
    }

    /// Leader-side speculation: pre-sign the block headers this item will
    /// produce once committed. Only plain transactions advance the shadow;
    /// TTCs and configs invalidate it (their cuts depend on delivery-time
    /// interleaving this node cannot predict).
    fn speculate_bytes(&mut self, bytes: &[u8]) {
        let Ok(item) = OrderedItem::from_wire(bytes) else {
            return;
        };
        let leaves: Vec<OrderedItem> = match item {
            OrderedItem::Batch { items } => items,
            leaf => vec![leaf],
        };
        for leaf in leaves {
            match leaf {
                OrderedItem::Tx { channel, envelope } if !envelope.is_config() => {
                    if let Some(state) = self.channels.get(&channel) {
                        self.spec
                            .speculate(&self.identity, &channel, state, &envelope);
                    }
                }
                OrderedItem::Tx { channel, .. } | OrderedItem::TimeToCut { channel, .. } => {
                    self.spec.invalidate(&channel);
                }
                OrderedItem::Batch { .. } => {} // never nested
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
            OsnMessage::Forward(bytes) => self.submit(bytes).unwrap_or_default(),
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
                if let Ok(mut o) = self.submit(bytes) {
                    out.append(&mut o);
                }
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
            if let Ok(mut o) = self.submit(item) {
                out.append(&mut o);
            }
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
                if let Ok(mut o) = self.submit(item) {
                    out.append(&mut o);
                }
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
                fabric_raft::Output::BecameLeader => {}
                fabric_raft::Output::SteppedDown => {
                    // Our speculated stream may never commit.
                    self.spec.shadows.clear();
                    self.spec.cache.clear();
                }
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
        let spec = &mut self.spec;
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
                        let block = channel
                            .cut_block_with(batch, |h| spec.signed(identity, &channel_id, h));
                        out.push(OsnOutput::BlockCut {
                            channel: channel_id.clone(),
                            block,
                        });
                    }
                    let block = channel
                        .cut_block_with(vec![envelope], |h| spec.signed(identity, &channel_id, h));
                    channel.cutter.note_external_block();
                    channel
                        .apply_config(update.config)
                        .expect("config validated above");
                    channel.pending_ticks = 0;
                    spec.invalidate(&channel_id);
                    out.push(OsnOutput::BlockCut {
                        channel: channel_id,
                        block,
                    });
                } else {
                    for batch in channel.cutter.ordered(envelope) {
                        let block = channel
                            .cut_block_with(batch, |h| spec.signed(identity, &channel_id, h));
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
                    let cut =
                        channel.cut_block_with(batch, |h| spec.signed(identity, &channel_id, h));
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
