//! Multi-channel deliver intake: routes the gossip/deliver block stream
//! of many channels into per-channel validation pipelines that share one
//! global VSCC worker pool.
//!
//! The gossip layer emits `DeliverBlock { channel, block_num, payload }`
//! outputs — re-delivered at-least-once (a pull and a push may both
//! surface the same block) and, across providers, not necessarily in
//! order. [`DeliverMux`] owns that boundary: it decodes the payload,
//! drops duplicates, parks a bounded window of out-of-order arrivals for
//! in-order re-admission, and feeds each channel's [`PipelineHandle`] in
//! strict order, exactly as the paper's one-blockchain-per-channel model
//! prescribes (Sec. 3.1).
//!
//! # Credit-based backpressure
//!
//! Each channel holds a *credit window*: at most `deliver_credits` blocks
//! may be in flight (submitted to the pipeline but not yet committed).
//! When the window is exhausted the mux *parks* further deliveries
//! instead of blocking the deliver thread on the pipeline's bounded
//! intake — a saturated channel therefore never stalls deliveries for
//! its siblings, and [`DeliverMux::credits`] exposes the remaining
//! headroom so the gossip layer can advertise it on the membership path
//! (providers prefer channels with credits; see `fabric-gossip`).
//! Credits are self-refreshing: headroom is recomputed from the
//! pipeline's committed height, so every commit implicitly returns one
//! credit and a [`DeliverMux::pump`] (or the next delivery) submits the
//! parked successor.

use std::collections::{BTreeMap, HashMap};

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use fabric_gossip::{GossipNode, PeerId as GossipPeerId};
use fabric_primitives::block::Block;
use fabric_primitives::ids::ChannelId;
use fabric_primitives::wire::Wire;

use crate::pipeline::{CommitEvent, PipelineManager, PipelineOptions, PipelineStats};
use crate::{Peer, PeerError, PipelineHandle};

/// What [`DeliverMux::deliver`] did with one delivered block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deliver {
    /// Submitted to the channel's pipeline (possibly along with parked
    /// successors it unblocked).
    Submitted,
    /// Parked: either out of order (a gap below it is still missing) or
    /// credit-stalled (the channel's in-flight window is full). It will
    /// be submitted in order by a later delivery, [`DeliverMux::pump`],
    /// or [`DeliverMux::wait_committed`].
    Parked,
    /// Already submitted, committed, or parked — gossip re-delivery.
    Duplicate,
    /// Refused: the block is beyond the channel's parking window
    /// (`next + park_window`). The provider should back off and re-offer
    /// once the channel advertises credits again.
    Saturated,
}

/// Per-channel intake counters (fairness/backpressure observability).
#[derive(Clone, Copy, Debug, Default)]
pub struct MuxGauges {
    /// Deliveries of the next-expected block that had to park because the
    /// credit window was exhausted.
    pub credit_stalls: u64,
    /// Deepest the parking buffer ever got.
    pub parked_peak: usize,
    /// Re-deliveries dropped (below `next`, or already parked).
    pub duplicates: u64,
    /// Deliveries refused beyond the parking window.
    pub saturated: u64,
}

struct MuxEntry {
    handle: PipelineHandle,
    /// Next block number this channel's pipeline expects.
    next: u64,
    /// Credit window: max blocks in flight (submitted − committed).
    window: u64,
    /// Parking window: how far above `next` deliveries are held.
    park: u64,
    /// Out-of-order and credit-stalled blocks awaiting in-order submit,
    /// keyed by block number; bounded by `park`.
    parked: BTreeMap<u64, Block>,
    gauges: MuxGauges,
}

impl MuxEntry {
    /// Remaining credits: how many more blocks may be submitted before
    /// the in-flight window is full.
    fn credits(&self) -> u64 {
        let inflight = self.next.saturating_sub(self.handle.committed_height());
        self.window.saturating_sub(inflight)
    }

    /// Submits parked blocks in order while credits last. Returns how
    /// many were submitted.
    fn pump(&mut self) -> Result<usize, PeerError> {
        let mut submitted = 0;
        while self.credits() > 0 {
            let Some(block) = self.parked.remove(&self.next) else {
                break;
            };
            self.handle.submit(block)?;
            self.next += 1;
            submitted += 1;
        }
        Ok(submitted)
    }
}

/// Per-channel pipelines behind one shared VSCC worker pool, keyed by
/// channel id, fed from serialized deliver/gossip payloads.
pub struct DeliverMux {
    pool: PipelineManager,
    channels: Mutex<HashMap<ChannelId, MuxEntry>>,
}

impl DeliverMux {
    /// Creates a mux whose channels share a pool of `vscc_workers`
    /// persistent workers under the pool's cross-channel scheduler
    /// (weighted DRR).
    pub fn new(vscc_workers: usize) -> Self {
        DeliverMux {
            pool: PipelineManager::new(vscc_workers),
            channels: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches `peer` (one channel's ledger) under `channel`. The
    /// pipeline resumes at the peer's current height, so re-delivered
    /// older blocks are dropped rather than re-submitted.
    ///
    /// `opts.deliver_credits` is clamped to `1..=intake_capacity` — a
    /// submit under credits must never block the deliver thread on a
    /// full pipeline intake (it holds the mux lock, shared by every
    /// channel).
    pub fn attach(
        &self,
        channel: ChannelId,
        peer: &Peer,
        opts: PipelineOptions,
    ) -> Result<(), PeerError> {
        let mut channels = self.channels.lock();
        if channels.contains_key(&channel) {
            return Err(PeerError::BadBlock(format!(
                "channel {channel:?} already attached"
            )));
        }
        let next = peer.height();
        let handle = peer.pipeline_shared(&self.pool, opts);
        channels.insert(
            channel,
            MuxEntry {
                handle,
                next,
                window: opts.deliver_credits.clamp(1, opts.intake_capacity.max(1)) as u64,
                park: opts.park_window.max(1) as u64,
                parked: BTreeMap::new(),
                gauges: MuxGauges::default(),
            },
        );
        Ok(())
    }

    /// Routes one delivered block; never blocks on a saturated pipeline.
    ///
    /// Errors are reserved for malformed input (unknown channel,
    /// undecodable payload, payload/number mismatch) and stopped
    /// pipelines; flow-control outcomes are the [`Deliver`] variants.
    pub fn deliver(
        &self,
        channel: &ChannelId,
        block_num: u64,
        payload: &[u8],
    ) -> Result<Deliver, PeerError> {
        let mut channels = self.channels.lock();
        let entry = channels
            .get_mut(channel)
            .ok_or_else(|| PeerError::BadBlock(format!("channel {channel:?} not attached")))?;
        if block_num < entry.next || entry.parked.contains_key(&block_num) {
            entry.gauges.duplicates += 1;
            return Ok(Deliver::Duplicate);
        }
        if block_num >= entry.next + entry.park {
            entry.gauges.saturated += 1;
            return Ok(Deliver::Saturated);
        }
        let block = Block::from_wire(payload)
            .map_err(|err| PeerError::BadBlock(format!("undecodable delivered block: {err:?}")))?;
        if block.header.number != block_num {
            return Err(PeerError::BadBlock(format!(
                "delivered payload is block {}, labelled {block_num}",
                block.header.number
            )));
        }
        if block_num == entry.next && entry.credits() == 0 {
            entry.gauges.credit_stalls += 1;
        }
        entry.parked.insert(block_num, block);
        entry.gauges.parked_peak = entry.gauges.parked_peak.max(entry.parked.len());
        entry.pump()?;
        Ok(if block_num < entry.next {
            Deliver::Submitted
        } else {
            Deliver::Parked
        })
    }

    /// Routes a gossip `DeliverBlock` output and reports the intake
    /// verdict back to the gossip node, closing its reputation loop:
    /// an undecodable payload or a payload/number mismatch charges the
    /// supplying peer (`GossipNode::report_verdict(from, false)` — enough
    /// repeats quarantine it), while an accepted block credits it.
    ///
    /// Only *provider-attributable* failures are scored: an unattached
    /// channel is this node's own configuration problem and charges no
    /// one. Deeper verification failures (tampered content caught by the
    /// async pipeline's integrity/VSCC stages) surface later; drivers
    /// report those directly with `report_verdict` when the pipeline
    /// errors.
    pub fn deliver_from_gossip(
        &self,
        gossip: &mut GossipNode,
        channel: &ChannelId,
        block_num: u64,
        payload: &[u8],
        from: Option<GossipPeerId>,
    ) -> Result<Deliver, PeerError> {
        if !self.channels.lock().contains_key(channel) {
            return Err(PeerError::BadBlock(format!(
                "channel {channel:?} not attached"
            )));
        }
        let result = self.deliver(channel, block_num, payload);
        if let Some(peer) = from {
            gossip.report_verdict(peer, result.is_ok());
        }
        result
    }

    /// Re-checks one channel's credits and submits any parked blocks they
    /// now cover (commits since the last delivery return credits).
    /// Returns how many blocks were submitted.
    pub fn pump(&self, channel: &ChannelId) -> Result<usize, PeerError> {
        let mut channels = self.channels.lock();
        let entry = channels
            .get_mut(channel)
            .ok_or_else(|| PeerError::BadBlock(format!("channel {channel:?} not attached")))?;
        entry.pump()
    }

    /// One channel's remaining deliver credits (`None` if not attached):
    /// how many more blocks it can absorb right now. Zero means
    /// saturated — gossip advertises this so providers prefer channels
    /// with headroom.
    pub fn credits(&self, channel: &ChannelId) -> Option<u64> {
        self.channels.lock().get(channel).map(MuxEntry::credits)
    }

    /// One channel's intake counters (`None` if not attached).
    pub fn gauges(&self, channel: &ChannelId) -> Option<MuxGauges> {
        self.channels.lock().get(channel).map(|entry| entry.gauges)
    }

    /// A clonable receiver of one channel's commit events.
    pub fn events(&self, channel: &ChannelId) -> Option<Receiver<CommitEvent>> {
        self.channels
            .lock()
            .get(channel)
            .map(|entry| entry.handle.events())
    }

    /// One channel's committed height (0 if not attached).
    pub fn committed_height(&self, channel: &ChannelId) -> u64 {
        self.channels
            .lock()
            .get(channel)
            .map_or(0, |entry| entry.handle.committed_height())
    }

    /// Blocks until `channel` has committed up to `height`, pumping
    /// credit-stalled parked blocks as commits free the window.
    pub fn wait_committed(&self, channel: &ChannelId, height: u64) -> Result<(), PeerError> {
        // Don't hold the map lock while waiting: poll through a
        // short-lived borrow, pumping on each pass so parked blocks the
        // wait depends on keep flowing.
        loop {
            {
                let mut channels = self.channels.lock();
                let entry = channels.get_mut(channel).ok_or_else(|| {
                    PeerError::BadBlock(format!("channel {channel:?} not attached"))
                })?;
                entry.pump()?;
                if entry.handle.committed_height() >= height {
                    return Ok(());
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Closes every channel pipeline (graceful drain) and then the shared
    /// pool, returning per-channel statistics or the first error.
    ///
    /// Credit-stalled parked blocks are drained through the window first;
    /// gap-parked blocks (their predecessor never arrived) are dropped —
    /// they re-arrive through gossip after a restart.
    pub fn close(self) -> Result<HashMap<ChannelId, PipelineStats>, PeerError> {
        let channels = self.channels.into_inner();
        let mut stats = HashMap::with_capacity(channels.len());
        let mut first_err = None;
        for (channel, mut entry) in channels {
            // Drain the contiguous parked prefix, waiting for commits to
            // return credits; a pipeline error aborts the drain.
            let drained = loop {
                match entry.pump() {
                    Ok(_) => {}
                    Err(err) => break Err(err),
                }
                if !entry.parked.contains_key(&entry.next) {
                    break Ok(());
                }
                // One more credit frees once the pipeline commits past
                // `next − window`.
                let need = (entry.next + 1).saturating_sub(entry.window);
                if let Err(err) = entry.handle.wait_committed(need) {
                    break Err(err);
                }
            };
            match drained.and_then(|()| entry.handle.close()) {
                Ok(channel_stats) => {
                    stats.insert(channel, channel_stats);
                }
                Err(err) => {
                    if first_err.is_none() {
                        first_err = Some(err);
                    }
                }
            }
        }
        self.pool.close();
        match first_err {
            Some(err) => Err(err),
            None => Ok(stats),
        }
    }
}
