//! # fabric-gossip
//!
//! The peer-to-peer gossip layer (paper Sec. 4.3): epidemic dissemination
//! of ordered blocks from the ordering service to every peer, an
//! eventually-consistent membership view built from periodic heartbeats,
//! and per-organization leader election so that only one peer per org
//! pulls blocks from the ordering service and seeds its org.
//!
//! Fabric gossip uses two phases — **push** (forward a freshly learned
//! block to a random fanout of neighbours) and **pull** (periodically probe
//! a random peer for blocks we are missing) — because the combination is
//! what disseminates with high probability at near-optimal bandwidth
//! [Demers et al.; Karp et al.], and pull doubles as state transfer for
//! peers that reconnect after a crash or partition.
//!
//! # Priority lanes
//!
//! Dissemination is split into two classes (after Frey et al.,
//! "Differentiated Consistency for Worldwide Gossips"): blocks, pulls and
//! membership/credit adverts ride the **fast lane** and are emitted
//! immediately, while bulk `StateSync` payloads (snapshot segments) ride a
//! **throttled lane** — an egress queue drained by [`GossipNode::tick`]
//! under a per-tick byte budget — so a peer serving catch-up traffic can
//! never starve block delivery. Use [`GossipNode::send_state_sync`] to
//! enqueue on the bulk lane.
//!
//! # Hostile-scale hardening
//!
//! Ingress is defended in depth, in this order: **quarantine** (peers
//! whose payloads repeatedly failed driver verification are ignored until
//! parole — see [`GossipNode::report_verdict`]), **token-bucket rate
//! limits** (per-peer, lazily refilled per tick), and an **LRU dedup
//! cache** over block pushes (duplicate floods cost one hash lookup, not
//! a store probe). Memory is bounded: the block store retains a sliding
//! window below the delivered watermark, members silent for
//! `member_gc_factor × member_timeout` ticks are garbage-collected, and
//! membership heartbeats carry a bounded random subset of the view.
//! Laggards whose block deficit exceeds `catchup_threshold` are flipped
//! to snapshot catch-up ([`GossipOutput::SnapshotCatchup`]) instead of
//! replaying history block by block.
//!
//! Like the consensus crates, [`GossipNode`] is a deterministic state
//! machine: drivers feed ticks and messages, and act on the returned
//! [`GossipOutput`]s. Block payloads are opaque bytes here; signature
//! verification happens at the peer layer, which can authenticate blocks
//! independently because they are signed by the ordering service — the
//! peer layer reports the verdict back so gossip can score the provider.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use fabric_primitives::flow::{DedupWindow, TokenBucket};
use fabric_primitives::ChannelId;

/// Identifier of a peer in the gossip overlay.
pub type PeerId = u64;

/// Gossip tuning parameters.
#[derive(Clone, Debug)]
pub struct GossipConfig {
    /// Number of random neighbours a new block is pushed to.
    pub fanout: usize,
    /// Ticks between pull probes.
    pub pull_interval: u64,
    /// Ticks between membership heartbeats.
    pub membership_interval: u64,
    /// Ticks after which a silent member is considered offline.
    pub member_timeout: u64,
    /// Maximum blocks returned by one pull response.
    pub max_pull_batch: usize,
    /// Whether push dissemination is enabled (disabled in some paper
    /// experiments where peers connect to the orderer directly).
    pub push_enabled: bool,
    /// Maximum peer adverts carried in one membership heartbeat (self
    /// plus a random alive subset). Bounds heartbeat size at thousand-
    /// peer scale; the view still spreads transitively.
    pub max_adverts: usize,
    /// Byte budget the throttled bulk lane may emit per tick. At least
    /// one queued payload is sent per tick regardless, so oversized
    /// segments still make progress.
    pub bulk_budget_per_tick: usize,
    /// Byte cap on the queued bulk lane; beyond it the oldest queued
    /// payloads are dropped (statesync retries re-request them).
    pub bulk_queue_limit: usize,
    /// Token-bucket burst: messages a peer may send back-to-back before
    /// refill matters.
    pub rate_limit_burst: u64,
    /// Tokens refilled per tick of silence (lazy refill).
    pub rate_limit_refill: u64,
    /// Entries in the block-push dedup LRU (0 disables dedup).
    pub dedup_capacity: usize,
    /// Failed verification verdicts (net of successes) that quarantine a
    /// peer.
    pub quarantine_threshold: u32,
    /// Ticks a quarantined peer is ignored before parole.
    pub quarantine_ticks: u64,
    /// Delivered blocks retained below the watermark for serving pulls;
    /// older payloads are pruned (laggards past the window flip to
    /// snapshot catch-up).
    pub retention_window: u64,
    /// Members silent for this multiple of `member_timeout` are removed
    /// from the membership map entirely.
    pub member_gc_factor: u64,
    /// Block deficit (best known alive height minus own) beyond which a
    /// lagging node asks its driver to snapshot-catch-up instead of
    /// pulling history (matches the snapshot-vs-replay crossover measured
    /// in benches/catchup.rs).
    pub catchup_threshold: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            fanout: 7, // the paper's WAN experiments use fanout 7
            pull_interval: 4,
            membership_interval: 2,
            member_timeout: 20,
            max_pull_batch: 16,
            push_enabled: true,
            max_adverts: 32,
            bulk_budget_per_tick: 256 * 1024,
            bulk_queue_limit: 4 * 1024 * 1024,
            rate_limit_burst: 64,
            rate_limit_refill: 16,
            dedup_capacity: 8192,
            quarantine_threshold: 3,
            quarantine_ticks: 200,
            retention_window: 128,
            member_gc_factor: 8,
            catchup_threshold: 8,
        }
    }
}

/// One peer's entry in a membership heartbeat: identity plus what the
/// peer is known to hold, so receivers can steer pushes, pulls, and
/// snapshot transfers without extra round trips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerAdvert {
    /// The peer being described.
    pub peer: PeerId,
    /// The peer's organization.
    pub org: String,
    /// Restart counter: freshness is the lexicographic pair
    /// `(incarnation, heartbeat)`, so a rejoining peer whose tick clock
    /// restarted at zero still beats its own pre-crash adverts.
    pub incarnation: u64,
    /// Monotonic heartbeat counter within one incarnation (freshness).
    pub heartbeat: u64,
    /// Ticks since the advertiser itself last heard from this peer
    /// (zero in a self-advert). Receivers discount the liveness lease
    /// they grant by this age: second-hand news about a peer that the
    /// advertiser has not heard from in a while must not make the peer
    /// look freshly alive, or a departed member's final heartbeat would
    /// echo from node to node — each first sighting granting a full
    /// lease — and keep a zombie entry alive long after the real peer
    /// left.
    pub age: u64,
    /// Highest contiguously delivered block per channel.
    pub delivered: Vec<(ChannelId, u64)>,
    /// Height of the latest state snapshot the peer can serve, per
    /// channel (provider advertisement for catch-up).
    pub snapshots: Vec<(ChannelId, u64)>,
    /// Remaining deliver credits per channel — how many more blocks the
    /// peer's validation intake can absorb right now (see the peer
    /// layer's `DeliverMux`). Zero marks a saturated channel: providers
    /// skip pushing its blocks there and let pull/backfill resume once
    /// credits reappear. Channels absent from the list are assumed to
    /// have headroom (older peers don't advertise credits).
    pub credits: Vec<(ChannelId, u64)>,
}

/// Gossip protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipMessage {
    /// A block payload pushed eagerly.
    BlockPush {
        /// Channel the block belongs to.
        channel: ChannelId,
        /// Block sequence number.
        block_num: u64,
        /// Serialized block.
        payload: Vec<u8>,
    },
    /// A pull probe: "send me blocks above `have`".
    PullRequest {
        /// Channel to probe.
        channel: ChannelId,
        /// Highest contiguous block the requester holds.
        have: u64,
    },
    /// Membership heartbeat: the sender's view of alive peers.
    Membership {
        /// Advertisements for the sender and a bounded subset of the
        /// alive peers it knows.
        alive: Vec<PeerAdvert>,
    },
    /// An opaque state-transfer payload (a `fabric-statesync`
    /// `SyncMessage`); gossip only routes it. Outbound, these ride the
    /// throttled bulk lane ([`GossipNode::send_state_sync`]).
    StateSync {
        /// Channel being synchronized.
        channel: ChannelId,
        /// Serialized `SyncMessage`.
        payload: Vec<u8>,
    },
}

/// Events a gossip driver must act on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipOutput {
    /// Send `message` to `to`.
    Send {
        /// Destination peer.
        to: PeerId,
        /// The message.
        message: GossipMessage,
    },
    /// A block is ready for the peer to validate and commit, in order.
    DeliverBlock {
        /// Channel.
        channel: ChannelId,
        /// Block number.
        block_num: u64,
        /// Serialized block.
        payload: Vec<u8>,
        /// Peer the payload was first received from (`None` if this node
        /// pulled it from the ordering service itself). The driver
        /// reports the verification verdict against this peer via
        /// [`GossipNode::report_verdict`].
        from: Option<PeerId>,
    },
    /// This node is its org's leader and should pull the next blocks from
    /// the ordering service (the driver owns the orderer connection).
    PullFromOrderer {
        /// Channel to pull.
        channel: ChannelId,
        /// Next block number needed.
        next: u64,
    },
    /// A state-transfer payload arrived; the driver hands it to its
    /// statesync component (snapshot store or catch-up consumer).
    DeliverStateSync {
        /// Peer the payload came from.
        from: PeerId,
        /// Channel being synchronized.
        channel: ChannelId,
        /// Serialized `SyncMessage`.
        payload: Vec<u8>,
    },
    /// This node has fallen more than `catchup_threshold` blocks behind
    /// the overlay and a snapshot provider is available: the driver
    /// should start a statesync catch-up from `provider` instead of
    /// replaying history, then call
    /// [`GossipNode::note_snapshot_installed`].
    SnapshotCatchup {
        /// Channel that is behind.
        channel: ChannelId,
        /// Best known provider (freshest snapshot, lowest id tie-break).
        provider: PeerId,
        /// Snapshot height the provider advertises.
        height: u64,
    },
}

/// Ingress/egress hardening counters (observability and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Messages dropped because the sender's token bucket was empty.
    pub rate_limited: u64,
    /// Block pushes dropped by the dedup LRU.
    pub deduped: u64,
    /// Messages dropped because the sender is quarantined.
    pub quarantine_drops: u64,
    /// Times a peer entered quarantine.
    pub quarantines: u64,
    /// Bulk payloads accepted onto the throttled lane.
    pub bulk_queued: u64,
    /// Bulk payloads emitted by ticks.
    pub bulk_sent: u64,
    /// Bulk payloads dropped (oldest-first) because the lane overflowed.
    pub bulk_dropped: u64,
    /// Members removed by silence GC.
    pub members_gc: u64,
    /// Block payloads pruned by retention GC.
    pub blocks_pruned: u64,
}

/// Reputation standing of a member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Standing {
    /// Normal participation.
    Healthy,
    /// Ignored until the given tick, after which the peer is paroled
    /// with half its mismatch score (one more strike re-quarantines
    /// quickly).
    Quarantined { until: u64 },
}

struct Member {
    org: String,
    incarnation: u64,
    heartbeat: u64,
    last_heard: u64,
    /// Highest block the peer is known to have delivered, per channel —
    /// learned from pull probes, pushes it sends, and membership adverts.
    delivered: HashMap<ChannelId, u64>,
    /// Snapshot heights the peer advertises as a provider, per channel.
    snapshots: HashMap<ChannelId, u64>,
    /// Deliver credits the peer last advertised, per channel. Unlike the
    /// heights this is *not* monotone, so it is only overwritten by a
    /// fresher heartbeat.
    credits: HashMap<ChannelId, u64>,
    /// Ingress rate limiter for messages from this peer: whole tokens,
    /// refilled per tick, one per message.
    bucket: TokenBucket,
    /// Net failed-verification score (driver verdicts).
    mismatches: u32,
    standing: Standing,
}

impl Member {
    fn new(org: String, burst: u64) -> Self {
        Member {
            org,
            incarnation: 0,
            heartbeat: 0,
            last_heard: 0,
            delivered: HashMap::new(),
            snapshots: HashMap::new(),
            credits: HashMap::new(),
            bucket: TokenBucket::full(burst, 0),
            mismatches: 0,
            standing: Standing::Healthy,
        }
    }

    /// Raises the known delivered height (heights only move forward).
    fn observe_delivered(&mut self, channel: &ChannelId, height: u64) {
        let entry = self.delivered.entry(channel.clone()).or_insert(0);
        *entry = (*entry).max(height);
    }

    /// Lexicographic advert freshness within the incarnation ordering.
    fn freshness(&self) -> (u64, u64) {
        (self.incarnation, self.heartbeat)
    }

    /// Lazy parole: a quarantine that has expired reverts to healthy
    /// with half the mismatch score.
    fn refresh_standing(&mut self, now: u64, threshold: u32) {
        if let Standing::Quarantined { until } = self.standing {
            if now >= until {
                self.standing = Standing::Healthy;
                self.mismatches = threshold / 2;
            }
        }
    }

    fn quarantined(&self, now: u64) -> bool {
        matches!(self.standing, Standing::Quarantined { until } if now < until)
    }

    /// The peer restarted under a (possibly new) org: non-monotone and
    /// incarnation-scoped state is reset.
    fn restart(&mut self, org: String, incarnation: u64) {
        self.org = org;
        self.incarnation = incarnation;
        self.heartbeat = 0;
        self.delivered.clear();
        self.snapshots.clear();
        self.credits.clear();
    }
}

struct StoredBlock {
    payload: Vec<u8>,
    /// Peer the payload first arrived from (`None` = orderer).
    from: Option<PeerId>,
}

/// One peer's gossip component.
pub struct GossipNode {
    id: PeerId,
    org: String,
    config: GossipConfig,
    rng: StdRng,
    now: u64,
    /// This node's own restart counter (drivers persist it and bump on
    /// restart via [`GossipNode::with_incarnation`]).
    incarnation: u64,
    /// Sorted so iteration (and thus candidate order in `sample_peers`)
    /// is deterministic without a per-call sort.
    members: BTreeMap<PeerId, Member>,
    /// Rate-limit buckets for senders not (yet) in the membership view.
    /// Coarsely bounded: when the map outgrows its cap it is reset
    /// wholesale — strangers get no durable per-id state.
    stranger_buckets: HashMap<PeerId, TokenBucket>,
    /// Per-channel store of received block payloads (retention-pruned).
    store: HashMap<ChannelId, BTreeMap<u64, StoredBlock>>,
    /// Highest block delivered contiguously per channel.
    delivered: HashMap<ChannelId, u64>,
    /// Snapshot heights this node itself can serve, per channel.
    my_snapshots: HashMap<ChannelId, u64>,
    /// Deliver credits this node's own intake currently has, per channel
    /// (driver-fed from `DeliverMux::credits`). Absent = unbounded.
    my_credits: HashMap<ChannelId, u64>,
    channels: Vec<ChannelId>,
    /// Dedup window over block pushes; `None` when
    /// [`GossipConfig::dedup_capacity`] is 0 (dedup off).
    dedup: Option<DedupWindow<u64>>,
    /// Throttled egress lane for bulk statesync payloads.
    bulk_queue: VecDeque<(PeerId, ChannelId, Vec<u8>)>,
    bulk_queued_bytes: usize,
    /// Per-channel tick before which no new SnapshotCatchup is emitted.
    catchup_backoff: HashMap<ChannelId, u64>,
    stats: GossipStats,
}

impl GossipNode {
    /// Creates a gossip node. `bootstrap` seeds the membership view with
    /// `(peer, org)` pairs (the channel configuration provides these in a
    /// real deployment). `channels` lists the channels to track; the
    /// delivered watermark starts at 0 (the genesis block is obtained
    /// out-of-band when joining a channel).
    pub fn new(
        id: PeerId,
        org: impl Into<String>,
        bootstrap: &[(PeerId, String)],
        channels: Vec<ChannelId>,
        config: GossipConfig,
        seed: u64,
    ) -> Self {
        let org = org.into();
        let mut members = BTreeMap::new();
        for (peer, peer_org) in bootstrap {
            if *peer != id {
                members.insert(
                    *peer,
                    Member::new(peer_org.clone(), config.rate_limit_burst),
                );
            }
        }
        let dedup = (config.dedup_capacity > 0).then(|| DedupWindow::new(config.dedup_capacity));
        GossipNode {
            id,
            org,
            rng: StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x5851_f42d_4c95_7f2d)),
            now: 0,
            incarnation: 0,
            members,
            stranger_buckets: HashMap::new(),
            store: HashMap::new(),
            delivered: HashMap::new(),
            my_snapshots: HashMap::new(),
            my_credits: HashMap::new(),
            channels,
            dedup,
            bulk_queue: VecDeque::new(),
            bulk_queued_bytes: 0,
            catchup_backoff: HashMap::new(),
            stats: GossipStats::default(),
            config,
        }
    }

    /// Sets this node's incarnation number. Drivers persist the counter
    /// across restarts and bump it when rejoining, so the overlay
    /// recognizes the rejoin immediately instead of waiting for the
    /// restarted tick clock to outrun pre-crash heartbeats.
    pub fn with_incarnation(mut self, incarnation: u64) -> Self {
        self.incarnation = incarnation;
        self
    }

    /// This node's incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Hardening counters.
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    /// Queued bulk-lane payloads and bytes.
    pub fn bulk_backlog(&self) -> (usize, usize) {
        (self.bulk_queue.len(), self.bulk_queued_bytes)
    }

    /// Updates this node's advertised deliver credits for `channel` (the
    /// driver reads them off its `DeliverMux` after each deliver/commit
    /// batch). Zero throttles the node's own pull traffic for the channel
    /// — pull probes and leader orderer-pulls are suppressed until
    /// credits return — and, once heartbeated out, steers providers'
    /// pushes elsewhere.
    pub fn set_deliver_credits(&mut self, channel: &ChannelId, credits: u64) {
        self.my_credits.insert(channel.clone(), credits);
    }

    /// The deliver credits `peer` last advertised for `channel` (`None`
    /// if unknown, which providers treat as headroom).
    pub fn peer_credits(&self, peer: PeerId, channel: &ChannelId) -> Option<u64> {
        self.members.get(&peer)?.credits.get(channel).copied()
    }

    /// Advertises this node as a snapshot provider for `channel` at
    /// `height`; carried in subsequent membership heartbeats. Call after
    /// each checkpoint.
    pub fn advertise_snapshot(&mut self, channel: &ChannelId, height: u64) {
        let entry = self.my_snapshots.entry(channel.clone()).or_insert(0);
        *entry = (*entry).max(height);
    }

    /// Alive, non-quarantined peers advertising a snapshot for `channel`,
    /// as `(peer, snapshot height)` sorted by height descending (freshest
    /// snapshot first, peer id as tie-break for determinism).
    pub fn snapshot_providers(&self, channel: &ChannelId) -> Vec<(PeerId, u64)> {
        let mut providers: Vec<(PeerId, u64)> = self
            .members
            .iter()
            .filter(|(_, m)| {
                self.now.saturating_sub(m.last_heard) < self.config.member_timeout
                    && !m.quarantined(self.now)
            })
            .filter_map(|(&id, m)| {
                m.snapshots
                    .get(channel)
                    .filter(|&&h| h > 0)
                    .map(|&h| (id, h))
            })
            .collect();
        providers.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        providers
    }

    /// This node's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Highest contiguously delivered block on `channel`.
    pub fn delivered_height(&self, channel: &ChannelId) -> u64 {
        self.delivered.get(channel).copied().unwrap_or(0)
    }

    /// Currently alive, non-quarantined peers (heard from within the
    /// timeout).
    pub fn alive_peers(&self) -> Vec<PeerId> {
        self.members
            .iter()
            .filter(|(_, m)| {
                self.now.saturating_sub(m.last_heard) < self.config.member_timeout
                    && !m.quarantined(self.now)
            })
            .map(|(&id, _)| id)
            .collect()
    }

    /// Number of peers currently in the membership map (alive or not);
    /// bounded by silence GC.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Block payloads currently retained on `channel`.
    pub fn stored_blocks(&self, channel: &ChannelId) -> usize {
        self.store.get(channel).map_or(0, BTreeMap::len)
    }

    /// Whether `peer` is currently quarantined by reputation scoring.
    pub fn is_quarantined(&self, peer: PeerId) -> bool {
        self.members
            .get(&peer)
            .is_some_and(|m| m.quarantined(self.now))
    }

    /// Records the driver's verification verdict for a payload received
    /// from `peer` (the `from` of a [`GossipOutput::DeliverBlock`], or
    /// the statesync consumer's chunk-verification outcome). Repeated
    /// failures quarantine the peer: its messages are dropped on ingress
    /// and it is excluded from sampling, leadership, and provider
    /// selection until parole.
    pub fn report_verdict(&mut self, peer: PeerId, ok: bool) {
        let threshold = self.config.quarantine_threshold;
        let until = self.now + self.config.quarantine_ticks;
        let Some(member) = self.members.get_mut(&peer) else {
            return;
        };
        member.refresh_standing(self.now, threshold);
        if ok {
            member.mismatches = member.mismatches.saturating_sub(1);
            return;
        }
        member.mismatches = member.mismatches.saturating_add(1);
        if member.mismatches >= threshold && !member.quarantined(self.now) {
            member.standing = Standing::Quarantined { until };
            self.stats.quarantines += 1;
        }
    }

    /// Whether this node is currently its org's leader: the alive org
    /// member with the smallest id (deterministic election over the
    /// membership view; leader failure is healed by membership expiry).
    pub fn is_org_leader(&self) -> bool {
        // The map is id-sorted, so scan only ids below our own and stop
        // at the first alive org-mate — for a healthy org this exits
        // within a handful of entries (this runs every tick on every
        // node; a full alive-set materialization here dominated
        // thousand-peer runs).
        !self.members.range(..self.id).any(|(_, m)| {
            self.now.saturating_sub(m.last_heard) < self.config.member_timeout
                && !m.quarantined(self.now)
                && m.org == self.org
        })
    }

    /// Ingests a block this node obtained directly from the ordering
    /// service (leaders call this).
    pub fn on_block_from_orderer(
        &mut self,
        channel: &ChannelId,
        block_num: u64,
        payload: Vec<u8>,
    ) -> Vec<GossipOutput> {
        let mut out = Vec::new();
        self.ingest_block(channel, block_num, payload, None, &mut out);
        out
    }

    /// Enqueues an outbound state-transfer payload on the throttled bulk
    /// lane; [`GossipNode::tick`] drains the lane under
    /// `bulk_budget_per_tick`. If the lane overflows
    /// `bulk_queue_limit` bytes, the *oldest* queued payloads are dropped
    /// — the statesync protocol re-requests anything lost.
    pub fn send_state_sync(&mut self, to: PeerId, channel: ChannelId, payload: Vec<u8>) {
        let size = payload.len();
        while self.bulk_queued_bytes + size > self.config.bulk_queue_limit {
            let Some((_, _, dropped)) = self.bulk_queue.pop_front() else {
                break; // single oversized payload: queue it alone
            };
            self.bulk_queued_bytes -= dropped.len();
            self.stats.bulk_dropped += 1;
        }
        self.bulk_queued_bytes += size;
        self.bulk_queue.push_back((to, channel, payload));
        self.stats.bulk_queued += 1;
    }

    /// The driver installed a snapshot at `height` on `channel` (after a
    /// [`GossipOutput::SnapshotCatchup`]): jump the delivered watermark,
    /// drop obsolete stored payloads, and deliver any buffered blocks
    /// that are now contiguous.
    pub fn note_snapshot_installed(
        &mut self,
        channel: &ChannelId,
        height: u64,
    ) -> Vec<GossipOutput> {
        let mut out = Vec::new();
        if height <= self.delivered_height(channel) {
            return out;
        }
        self.delivered.insert(channel.clone(), height);
        if let Some(store) = self.store.get_mut(channel) {
            *store = store.split_off(&(height + 1));
        }
        self.deliver_contiguous(channel, &mut out);
        self.catchup_backoff.remove(channel);
        out
    }

    /// Handles a gossip message from `from`.
    ///
    /// Ingress guards run in order: quarantine, liveness bookkeeping,
    /// token-bucket rate limit, dedup (block pushes only), then the
    /// protocol itself.
    pub fn step(&mut self, from: PeerId, message: GossipMessage) -> Vec<GossipOutput> {
        let mut out = Vec::new();
        let threshold = self.config.quarantine_threshold;
        let (burst, refill) = (self.config.rate_limit_burst, self.config.rate_limit_refill);
        let bucket = if let Some(m) = self.members.get_mut(&from) {
            m.refresh_standing(self.now, threshold);
            if m.quarantined(self.now) {
                self.stats.quarantine_drops += 1;
                return out;
            }
            // Any direct message is a liveness signal.
            m.last_heard = self.now;
            &mut m.bucket
        } else {
            // Unknown sender: a shared, coarsely bounded bucket map. A
            // many-id flood gets no durable state — the map is reset
            // wholesale at its cap.
            if self.stranger_buckets.len() > 1024 {
                self.stranger_buckets.clear();
            }
            self.stranger_buckets
                .entry(from)
                .or_insert_with(|| TokenBucket::full(burst, 0))
        };
        bucket.refill(self.now, refill, burst);
        if !bucket.try_take(1) {
            self.stats.rate_limited += 1;
            return out;
        }
        match message {
            GossipMessage::BlockPush {
                channel,
                block_num,
                payload,
            } => {
                let key = push_key(&channel, block_num, &payload);
                if self.dedup.as_mut().is_some_and(|seen| !seen.insert(key)) {
                    self.stats.deduped += 1;
                    return out;
                }
                // The sender evidently holds this block; don't push it back.
                if let Some(m) = self.members.get_mut(&from) {
                    m.observe_delivered(&channel, block_num);
                }
                self.ingest_block(&channel, block_num, payload, Some(from), &mut out);
            }
            GossipMessage::PullRequest { channel, have } => {
                // `have` is the requester's own delivered watermark.
                if let Some(m) = self.members.get_mut(&from) {
                    m.observe_delivered(&channel, have);
                }
                // Serve only the *contiguous* run above `have`: with a
                // retention-pruned store a gap means the requester is
                // better served by snapshot catch-up, and blocks beyond a
                // gap would sit undeliverable in its reorder buffer.
                // `saturating_add` defuses the hostile `have: u64::MAX`
                // probe that used to overflow `have + 1` in debug builds.
                let mut next = have.saturating_add(1);
                if let Some(store) = self.store.get(&channel) {
                    for (served, (&num, stored)) in store.range(next..).enumerate() {
                        if num != next || served >= self.config.max_pull_batch {
                            break;
                        }
                        out.push(GossipOutput::Send {
                            to: from,
                            message: GossipMessage::BlockPush {
                                channel: channel.clone(),
                                block_num: num,
                                payload: stored.payload.clone(),
                            },
                        });
                        next = next.saturating_add(1);
                    }
                }
            }
            GossipMessage::Membership { alive } => {
                for advert in alive {
                    self.absorb_advert(advert);
                }
            }
            GossipMessage::StateSync { channel, payload } => {
                out.push(GossipOutput::DeliverStateSync {
                    from,
                    channel,
                    payload,
                });
            }
        }
        out
    }

    fn absorb_advert(&mut self, advert: PeerAdvert) {
        if advert.peer == self.id {
            return;
        }
        let burst = self.config.rate_limit_burst;
        let entry = self
            .members
            .entry(advert.peer)
            .or_insert_with(|| Member::new(advert.org.clone(), burst));
        let fresh = (advert.incarnation, advert.heartbeat);
        if advert.incarnation > entry.incarnation {
            // The peer restarted: recognize it immediately and drop
            // incarnation-scoped state (its credits/snapshots are stale,
            // and it may have re-registered under a new org).
            entry.restart(advert.org.clone(), advert.incarnation);
        }
        if fresh > entry.freshness() {
            entry.heartbeat = advert.heartbeat;
            // Age-discounted lease: the peer is only as fresh to us as it
            // was to the advertiser (never rolling our own lease back).
            entry.last_heard = entry.last_heard.max(self.now.saturating_sub(advert.age));
            // A fresher heartbeat is authoritative for the peer's org —
            // re-registration under a new org must not leave a stale org
            // corrupting leader election.
            entry.org = advert.org;
            // Credits go up *and down*; only a fresher heartbeat may
            // overwrite them.
            for (channel, credits) in advert.credits {
                entry.credits.insert(channel, credits);
            }
        }
        if advert.incarnation == entry.incarnation {
            // Heights are monotone within an incarnation; merge
            // regardless of heartbeat freshness.
            for (channel, height) in advert.delivered {
                entry.observe_delivered(&channel, height);
            }
            for (channel, height) in advert.snapshots {
                let slot = entry.snapshots.entry(channel).or_insert(0);
                *slot = (*slot).max(height);
            }
        }
    }

    /// Advances the clock: membership heartbeats, pull probes, catch-up
    /// flips, (for org leaders) orderer pulls, periodic GC, and finally
    /// the throttled bulk lane.
    pub fn tick(&mut self) -> Vec<GossipOutput> {
        self.now += 1;
        let mut out = Vec::new();
        if self.now.is_multiple_of(self.config.member_timeout.max(1)) {
            self.collect_garbage();
        }
        // Membership dissemination: self plus a bounded random subset of
        // the alive view (the full view would be O(members) bytes per
        // heartbeat — unusable at thousand-peer scale).
        if self.now.is_multiple_of(self.config.membership_interval) {
            let mut view = vec![PeerAdvert {
                peer: self.id,
                org: self.org.clone(),
                incarnation: self.incarnation,
                heartbeat: self.now,
                age: 0,
                delivered: self
                    .delivered
                    .iter()
                    .map(|(c, &h)| (c.clone(), h))
                    .collect(),
                snapshots: self
                    .my_snapshots
                    .iter()
                    .map(|(c, &h)| (c.clone(), h))
                    .collect(),
                credits: self
                    .my_credits
                    .iter()
                    .map(|(c, &n)| (c.clone(), n))
                    .collect(),
            }];
            let advertised = self.random_alive(self.config.max_adverts.saturating_sub(1), None);
            for peer in advertised {
                let member = &self.members[&peer];
                view.push(PeerAdvert {
                    peer,
                    org: member.org.clone(),
                    incarnation: member.incarnation,
                    heartbeat: member.heartbeat,
                    age: self.now.saturating_sub(member.last_heard),
                    delivered: member
                        .delivered
                        .iter()
                        .map(|(c, &h)| (c.clone(), h))
                        .collect(),
                    snapshots: member
                        .snapshots
                        .iter()
                        .map(|(c, &h)| (c.clone(), h))
                        .collect(),
                    credits: member
                        .credits
                        .iter()
                        .map(|(c, &n)| (c.clone(), n))
                        .collect(),
                });
            }
            for target in self.random_alive(self.config.fanout, None) {
                out.push(GossipOutput::Send {
                    to: target,
                    message: GossipMessage::Membership {
                        alive: view.clone(),
                    },
                });
            }
        }
        // Pull probes: prefer peers that can actually fill our gap —
        // known to be ahead of `have`, or of unknown height. Probing a
        // peer known to be at or behind our watermark cannot help.
        if self.now.is_multiple_of(self.config.pull_interval) {
            let channels = self.channels.clone();
            for channel in channels {
                // A saturated channel (zero deliver credits) must not
                // invite more blocks it cannot absorb.
                if self.my_credits.get(&channel) == Some(&0) {
                    continue;
                }
                let have = self.delivered_height(&channel);
                let useful = self.sample_peers(1, |_, m| {
                    m.delivered.get(&channel).is_none_or(|&h| h > have)
                });
                if let Some(target) = useful.first().copied() {
                    out.push(GossipOutput::Send {
                        to: target,
                        message: GossipMessage::PullRequest {
                            channel: channel.clone(),
                            have,
                        },
                    });
                }
            }
        }
        // Catch-up flip: a node that has fallen far behind the overlay
        // stops grinding through pulls and asks the driver for a snapshot
        // transfer (backoff so one deficit emits one request per window).
        // Checked on the pull cadence — the decision is only actionable
        // when pulls run, and the deficit scan is O(members).
        let channels = self.channels.clone();
        if self.now.is_multiple_of(self.config.pull_interval) {
            for channel in &channels {
                let own = self.delivered_height(channel);
                let best_known = self
                    .members
                    .values()
                    .filter(|m| {
                        self.now.saturating_sub(m.last_heard) < self.config.member_timeout
                            && !m.quarantined(self.now)
                    })
                    .filter_map(|m| m.delivered.get(channel).copied())
                    .max()
                    .unwrap_or(0);
                if best_known.saturating_sub(own) <= self.config.catchup_threshold {
                    continue;
                }
                if self.catchup_backoff.get(channel).copied().unwrap_or(0) > self.now {
                    continue;
                }
                if let Some(&(provider, height)) = self
                    .snapshot_providers(channel)
                    .iter()
                    .find(|&&(_, h)| h > own)
                {
                    self.catchup_backoff
                        .insert(channel.clone(), self.now + self.config.member_timeout);
                    out.push(GossipOutput::SnapshotCatchup {
                        channel: channel.clone(),
                        provider,
                        height,
                    });
                }
            }
        }
        // Leader duty: ask the driver to pull from the ordering service —
        // except on channels whose own intake is saturated (backpressure
        // reaches all the way to the ordering service).
        if self.is_org_leader() {
            for channel in channels {
                if self.my_credits.get(&channel) == Some(&0) {
                    continue;
                }
                let next = self.delivered_height(&channel) + 1;
                out.push(GossipOutput::PullFromOrderer { channel, next });
            }
        }
        // Bulk lane last: fast-path outputs above are never delayed by
        // catch-up traffic. At least one payload per tick, then as many
        // as the byte budget covers.
        let mut spent = 0usize;
        while let Some(front) = self.bulk_queue.front() {
            let size = front.2.len();
            if spent > 0 && spent + size > self.config.bulk_budget_per_tick {
                break;
            }
            spent += size;
            let (to, channel, payload) = self.bulk_queue.pop_front().expect("front checked");
            self.bulk_queued_bytes -= payload.len();
            self.stats.bulk_sent += 1;
            out.push(GossipOutput::Send {
                to,
                message: GossipMessage::StateSync { channel, payload },
            });
        }
        out
    }

    /// Periodic memory bounds: drop members silent past the GC horizon
    /// and prune block payloads below the retention floor.
    fn collect_garbage(&mut self) {
        let horizon = self
            .config
            .member_gc_factor
            .saturating_mul(self.config.member_timeout);
        let now = self.now;
        let before = self.members.len();
        self.members
            .retain(|_, m| now.saturating_sub(m.last_heard) < horizon);
        self.stats.members_gc += (before - self.members.len()) as u64;

        let channels = self.channels.clone();
        for channel in &channels {
            let floor = self.retention_floor(channel);
            if let Some(store) = self.store.get_mut(channel) {
                let keep = store.split_off(&(floor + 1));
                self.stats.blocks_pruned += store.len() as u64;
                *store = keep;
            }
        }
    }

    /// Highest block number that may be pruned on `channel`: everything
    /// at or below it is retained by nobody's need. The floor is the
    /// delivered watermark minus the retention window — raised to the
    /// minimum alive peer height when every alive peer is already past
    /// the window (then the window serves no one). Blocks *above* the
    /// watermark (the out-of-order buffer) are never pruned.
    fn retention_floor(&self, channel: &ChannelId) -> u64 {
        let own = self.delivered_height(channel);
        let hard = own.saturating_sub(self.config.retention_window);
        let mut min_alive = u64::MAX;
        let mut any_alive = false;
        for m in self.members.values() {
            if self.now.saturating_sub(m.last_heard) < self.config.member_timeout
                && !m.quarantined(self.now)
            {
                any_alive = true;
                min_alive = min_alive.min(m.delivered.get(channel).copied().unwrap_or(0));
            }
        }
        let soft = if any_alive { min_alive.min(own) } else { own };
        hard.max(soft)
    }

    /// Stores a block if new, delivers contiguous blocks, and pushes to a
    /// random fanout (excluding the peer we got it from).
    fn ingest_block(
        &mut self,
        channel: &ChannelId,
        block_num: u64,
        payload: Vec<u8>,
        from: Option<PeerId>,
        out: &mut Vec<GossipOutput>,
    ) {
        let delivered_height = self.delivered_height(channel);
        let store = self.store.entry(channel.clone()).or_default();
        if store.contains_key(&block_num) || block_num <= delivered_height {
            return; // already known
        }
        store.insert(
            block_num,
            StoredBlock {
                payload: payload.clone(),
                from,
            },
        );
        self.deliver_contiguous(channel, out);
        // Push phase: skip the sender and any peer already known to hold
        // the block (its observed height reaches `block_num`) — pushing
        // there is guaranteed-wasted bandwidth. Sampling first and
        // filtering after would also bias the fanout: slots spent on
        // excluded peers would be lost instead of going to peers that
        // still need the block. Peers advertising zero deliver credits
        // for the channel are skipped too: their intake is saturated and
        // would refuse or park the block, so the fanout slot serves a
        // peer with headroom instead (they catch up by pull once their
        // credits return).
        if self.config.push_enabled {
            let targets = self.sample_peers(self.config.fanout, |id, m| {
                Some(id) != from
                    && m.delivered.get(channel).is_none_or(|&h| h < block_num)
                    && m.credits.get(channel).is_none_or(|&c| c > 0)
            });
            for target in targets {
                out.push(GossipOutput::Send {
                    to: target,
                    message: GossipMessage::BlockPush {
                        channel: channel.clone(),
                        block_num,
                        payload: payload.clone(),
                    },
                });
            }
        }
    }

    /// Emits `DeliverBlock`s for the contiguous run above the watermark.
    fn deliver_contiguous(&mut self, channel: &ChannelId, out: &mut Vec<GossipOutput>) {
        let mut delivered = self.delivered.get(channel).copied().unwrap_or(0);
        let Some(store) = self.store.get(channel) else {
            return;
        };
        while let Some(stored) = store.get(&(delivered + 1)) {
            delivered += 1;
            out.push(GossipOutput::DeliverBlock {
                channel: channel.clone(),
                block_num: delivered,
                payload: stored.payload.clone(),
                from: stored.from,
            });
        }
        self.delivered.insert(channel.clone(), delivered);
    }

    fn random_alive(&mut self, count: usize, exclude: Option<PeerId>) -> Vec<PeerId> {
        self.sample_peers(count, |id, _| Some(id) != exclude)
    }

    /// Uniform random sample of up to `count` alive, non-quarantined
    /// peers satisfying `keep`; the filter runs before sampling so every
    /// returned slot is a useful target.
    fn sample_peers(
        &mut self,
        count: usize,
        keep: impl Fn(PeerId, &Member) -> bool,
    ) -> Vec<PeerId> {
        let now = self.now;
        let timeout = self.config.member_timeout;
        let mut alive: Vec<PeerId> = self
            .members
            .iter()
            .filter(|(&id, m)| {
                now.saturating_sub(m.last_heard) < timeout && !m.quarantined(now) && keep(id, m)
            })
            .map(|(&id, _)| id)
            .collect();
        // BTreeMap iteration is already sorted, so the candidate order is
        // deterministic; a partial shuffle then picks `count` of them in
        // O(count) instead of shuffling the whole (possibly 1000-peer)
        // alive set.
        let picked = count.min(alive.len());
        alive.partial_shuffle(&mut self.rng, picked);
        alive.truncate(picked);
        alive
    }
}

/// Dedup key for a block push: channel, number, and payload hash, so a
/// re-push of the same block is recognized while a conflicting payload
/// for the same number still reaches verification (and dings the
/// forger's reputation).
fn push_key(channel: &ChannelId, block_num: u64, payload: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    channel.hash(&mut hasher);
    block_num.hash(&mut hasher);
    payload.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn channel() -> ChannelId {
        ChannelId::new("ch")
    }

    /// In-memory overlay of gossip nodes with optional per-peer isolation.
    struct Overlay {
        nodes: Vec<GossipNode>,
        network: VecDeque<(PeerId, PeerId, GossipMessage)>,
        delivered: Vec<Vec<u64>>,
        isolated: Vec<PeerId>,
        /// Collected PullFromOrderer requests per node.
        orderer_pulls: Vec<Vec<u64>>,
        /// Collected SnapshotCatchup outputs per node.
        catchups: Vec<Vec<(PeerId, u64)>>,
    }

    impl Overlay {
        /// `orgs[i]` is the org of node `i`; ids are 1-based.
        fn new(orgs: &[&str], config: GossipConfig) -> Self {
            let bootstrap: Vec<(PeerId, String)> = orgs
                .iter()
                .enumerate()
                .map(|(i, org)| (i as u64 + 1, org.to_string()))
                .collect();
            let nodes = bootstrap
                .iter()
                .map(|(id, org)| {
                    GossipNode::new(
                        *id,
                        org.clone(),
                        &bootstrap,
                        vec![channel()],
                        config.clone(),
                        99,
                    )
                })
                .collect();
            Overlay {
                delivered: vec![Vec::new(); orgs.len()],
                orderer_pulls: vec![Vec::new(); orgs.len()],
                catchups: vec![Vec::new(); orgs.len()],
                nodes,
                network: VecDeque::new(),
                isolated: Vec::new(),
            }
        }

        fn absorb(&mut self, from: PeerId, outputs: Vec<GossipOutput>) {
            for output in outputs {
                match output {
                    GossipOutput::Send { to, message } => {
                        self.network.push_back((from, to, message));
                    }
                    GossipOutput::DeliverBlock { block_num, .. } => {
                        self.delivered[from as usize - 1].push(block_num);
                    }
                    GossipOutput::PullFromOrderer { next, .. } => {
                        self.orderer_pulls[from as usize - 1].push(next);
                    }
                    GossipOutput::SnapshotCatchup {
                        provider, height, ..
                    } => {
                        self.catchups[from as usize - 1].push((provider, height));
                    }
                    GossipOutput::DeliverStateSync { .. } => {}
                }
            }
        }

        fn drain(&mut self) {
            let mut budget = 500_000;
            while let Some((from, to, msg)) = self.network.pop_front() {
                budget -= 1;
                assert!(budget > 0, "gossip network did not quiesce");
                if self.isolated.contains(&from) || self.isolated.contains(&to) {
                    continue;
                }
                let outputs = self.nodes[to as usize - 1].step(from, msg);
                self.absorb(to, outputs);
            }
        }

        fn tick(&mut self) {
            for i in 0..self.nodes.len() {
                if self.isolated.contains(&(i as u64 + 1)) {
                    continue;
                }
                let outputs = self.nodes[i].tick();
                self.absorb(i as u64 + 1, outputs);
            }
            self.drain();
        }

        fn inject_block(&mut self, node: usize, num: u64) {
            let payload = vec![num as u8; 64];
            let outputs = self.nodes[node].on_block_from_orderer(&channel(), num, payload);
            self.absorb(node as u64 + 1, outputs);
            self.drain();
        }
    }

    #[test]
    fn push_disseminates_to_all() {
        let mut overlay = Overlay::new(&["A", "A", "A", "A", "A", "A"], GossipConfig::default());
        // Warm the membership view.
        for _ in 0..3 {
            overlay.tick();
        }
        overlay.inject_block(0, 1);
        overlay.inject_block(0, 2);
        for _ in 0..3 {
            overlay.tick();
        }
        for (i, d) in overlay.delivered.iter().enumerate() {
            assert_eq!(d, &vec![1, 2], "peer {} delivered in order", i + 1);
        }
    }

    #[test]
    fn out_of_order_arrival_buffers() {
        let config = GossipConfig {
            push_enabled: false, // isolate the buffering logic
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[], vec![channel()], config, 1);
        let out = node.on_block_from_orderer(&channel(), 2, vec![2]);
        assert!(out
            .iter()
            .all(|o| !matches!(o, GossipOutput::DeliverBlock { .. })));
        let out = node.on_block_from_orderer(&channel(), 1, vec![1]);
        let delivered: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                GossipOutput::DeliverBlock { block_num, .. } => Some(*block_num),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2]);
        assert_eq!(node.delivered_height(&channel()), 2);
    }

    #[test]
    fn duplicate_blocks_not_repushed() {
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into()), (3, "A".into())],
            vec![channel()],
            GossipConfig::default(),
            1,
        );
        let out1 = node.on_block_from_orderer(&channel(), 1, vec![1]);
        let pushes1 = out1
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    GossipOutput::Send {
                        message: GossipMessage::BlockPush { .. },
                        ..
                    }
                )
            })
            .count();
        assert!(pushes1 > 0);
        let out2 = node.on_block_from_orderer(&channel(), 1, vec![1]);
        assert!(out2.is_empty(), "duplicate ingestion is a no-op");
    }

    #[test]
    fn pull_repairs_isolated_peer() {
        let config = GossipConfig {
            pull_interval: 2,
            ..GossipConfig::default()
        };
        let mut overlay = Overlay::new(&["A", "A", "A", "A"], config);
        for _ in 0..3 {
            overlay.tick();
        }
        // Peer 4 misses the pushes.
        overlay.isolated = vec![4];
        overlay.inject_block(0, 1);
        overlay.inject_block(0, 2);
        assert!(overlay.delivered[3].is_empty());
        // Reconnect; pull probes must repair the gap.
        overlay.isolated = vec![];
        for _ in 0..10 {
            overlay.tick();
        }
        assert_eq!(overlay.delivered[3], vec![1, 2]);
    }

    #[test]
    fn one_leader_per_org() {
        let mut overlay = Overlay::new(&["A", "A", "B", "B"], GossipConfig::default());
        for _ in 0..5 {
            overlay.tick();
        }
        let leaders: Vec<bool> = overlay.nodes.iter().map(|n| n.is_org_leader()).collect();
        // Lowest id per org leads: node 1 (org A) and node 3 (org B).
        assert_eq!(leaders, vec![true, false, true, false]);
        // Leaders emit orderer pulls; followers don't.
        assert!(!overlay.orderer_pulls[0].is_empty());
        assert!(overlay.orderer_pulls[1].is_empty());
        assert!(!overlay.orderer_pulls[2].is_empty());
        assert!(overlay.orderer_pulls[3].is_empty());
    }

    #[test]
    fn leader_failover_within_org() {
        let config = GossipConfig {
            member_timeout: 6,
            membership_interval: 2,
            ..GossipConfig::default()
        };
        let mut overlay = Overlay::new(&["A", "A", "A"], config);
        for _ in 0..5 {
            overlay.tick();
        }
        assert!(overlay.nodes[0].is_org_leader());
        assert!(!overlay.nodes[1].is_org_leader());
        // Node 1 goes dark; after the timeout node 2 takes over.
        overlay.isolated = vec![1];
        for _ in 0..10 {
            overlay.tick();
        }
        assert!(overlay.nodes[1].is_org_leader(), "node 2 took over org A");
        // Node 1 heals and reclaims leadership (lowest id).
        overlay.isolated = vec![];
        for _ in 0..10 {
            overlay.tick();
        }
        assert!(overlay.nodes[0].is_org_leader());
        assert!(!overlay.nodes[1].is_org_leader());
    }

    #[test]
    fn membership_spreads_transitively() {
        // Node 3 only knows node 2; it must learn about node 1 via gossip.
        let config = GossipConfig {
            membership_interval: 1,
            ..GossipConfig::default()
        };
        let full: Vec<(PeerId, String)> = vec![(1, "A".into()), (2, "A".into()), (3, "A".into())];
        let partial: Vec<(PeerId, String)> = vec![(2, "A".into())];
        let mut overlay = Overlay::new(&["A", "A", "A"], config.clone());
        overlay.nodes[0] = GossipNode::new(1, "A", &full, vec![channel()], config.clone(), 1);
        overlay.nodes[1] = GossipNode::new(2, "A", &full, vec![channel()], config.clone(), 2);
        overlay.nodes[2] = GossipNode::new(3, "A", &partial, vec![channel()], config, 3);
        for _ in 0..10 {
            overlay.tick();
        }
        assert!(
            overlay.nodes[2].alive_peers().contains(&1),
            "node 3 learned about node 1 transitively"
        );
    }

    #[test]
    fn pull_respects_batch_limit() {
        let config = GossipConfig {
            max_pull_batch: 3,
            push_enabled: false,
            ..GossipConfig::default()
        };
        let mut holder = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        for num in 1..=10 {
            holder.on_block_from_orderer(&channel(), num, vec![num as u8]);
        }
        let out = holder.step(
            2,
            GossipMessage::PullRequest {
                channel: channel(),
                have: 0,
            },
        );
        let pushes = out
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    GossipOutput::Send {
                        message: GossipMessage::BlockPush { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pushes, 3);
    }

    #[test]
    fn push_skips_peers_known_to_hold_the_block() {
        let config = GossipConfig {
            fanout: 10,
            ..GossipConfig::default()
        };
        let bootstrap: Vec<(PeerId, String)> = (2..=5).map(|id| (id, "A".to_string())).collect();
        let mut node = GossipNode::new(1, "A", &bootstrap, vec![channel()], config, 1);
        node.tick(); // liveness baseline so everyone samples as alive
        for peer in 2..=5 {
            node.step(peer, GossipMessage::Membership { alive: vec![] });
        }
        // Peers 2 and 3 are known to have delivered block 1 already
        // (learned from their pull probes).
        for peer in [2, 3] {
            node.step(
                peer,
                GossipMessage::PullRequest {
                    channel: channel(),
                    have: 1,
                },
            );
        }
        let out = node.on_block_from_orderer(&channel(), 1, vec![1]);
        let targets: Vec<PeerId> = out
            .iter()
            .filter_map(|o| match o {
                GossipOutput::Send {
                    to,
                    message: GossipMessage::BlockPush { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert!(!targets.contains(&2) && !targets.contains(&3));
        // The fanout slots go to peers that still need the block.
        assert_eq!(
            {
                let mut t = targets.clone();
                t.sort_unstable();
                t
            },
            vec![4, 5]
        );
        // Block 2 is news to everyone: peers 2 and 3 are eligible again.
        let out = node.on_block_from_orderer(&channel(), 2, vec![2]);
        let targets: Vec<PeerId> = out
            .iter()
            .filter_map(|o| match o {
                GossipOutput::Send {
                    to,
                    message: GossipMessage::BlockPush { block_num: 2, .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets.len(), 4);
    }

    #[test]
    fn snapshot_adverts_reach_the_overlay() {
        let mut overlay = Overlay::new(&["A", "A", "A"], GossipConfig::default());
        for _ in 0..3 {
            overlay.tick();
        }
        assert!(overlay.nodes[1].snapshot_providers(&channel()).is_empty());
        overlay.nodes[0].advertise_snapshot(&channel(), 16);
        for _ in 0..4 {
            overlay.tick();
        }
        for node in &overlay.nodes[1..] {
            assert_eq!(node.snapshot_providers(&channel()), vec![(1, 16)]);
        }
        // A fresher snapshot elsewhere sorts first.
        overlay.nodes[2].advertise_snapshot(&channel(), 24);
        for _ in 0..4 {
            overlay.tick();
        }
        assert_eq!(
            overlay.nodes[1].snapshot_providers(&channel()),
            vec![(3, 24), (1, 16)]
        );
    }

    #[test]
    fn zero_credit_channel_suppresses_own_pull_traffic() {
        let config = GossipConfig {
            pull_interval: 1,
            membership_interval: 1000, // isolate pull/orderer traffic
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        node.tick();
        node.step(2, GossipMessage::Membership { alive: vec![] });
        assert!(node.is_org_leader());

        node.set_deliver_credits(&channel(), 0);
        for _ in 0..5 {
            for output in node.tick() {
                assert!(
                    !matches!(
                        output,
                        GossipOutput::Send {
                            message: GossipMessage::PullRequest { .. },
                            ..
                        } | GossipOutput::PullFromOrderer { .. }
                    ),
                    "saturated channel invited more blocks: {output:?}"
                );
            }
        }

        // Credits return: pull probes and leader orderer-pulls resume.
        node.set_deliver_credits(&channel(), 8);
        let (mut pulls, mut orderer) = (0, 0);
        for _ in 0..5 {
            for output in node.tick() {
                match output {
                    GossipOutput::Send {
                        message: GossipMessage::PullRequest { .. },
                        ..
                    } => pulls += 1,
                    GossipOutput::PullFromOrderer { .. } => orderer += 1,
                    _ => {}
                }
            }
        }
        assert!(pulls > 0 && orderer > 0);
    }

    #[test]
    fn push_skips_peers_advertising_zero_credits() {
        let config = GossipConfig {
            fanout: 10,
            ..GossipConfig::default()
        };
        let bootstrap: Vec<(PeerId, String)> = (2..=4).map(|id| (id, "A".to_string())).collect();
        let mut node = GossipNode::new(1, "A", &bootstrap, vec![channel()], config, 1);
        node.tick();
        for peer in 2..=4 {
            node.step(peer, GossipMessage::Membership { alive: vec![] });
        }
        let advert = |heartbeat, credits| PeerAdvert {
            peer: 2,
            org: "A".into(),
            incarnation: 0,
            heartbeat,
            age: 0,
            delivered: vec![],
            snapshots: vec![],
            credits: vec![(channel(), credits)],
        };
        // Peer 2 heartbeats a saturated intake for the channel.
        node.step(
            3,
            GossipMessage::Membership {
                alive: vec![advert(5, 0)],
            },
        );
        assert_eq!(node.peer_credits(2, &channel()), Some(0));
        // A *stale* heartbeat claiming headroom must not win: credits are
        // non-monotone, freshness decides.
        node.step(
            3,
            GossipMessage::Membership {
                alive: vec![advert(4, 9)],
            },
        );
        assert_eq!(node.peer_credits(2, &channel()), Some(0));

        let push_targets = |out: &[GossipOutput]| -> Vec<PeerId> {
            let mut t: Vec<PeerId> = out
                .iter()
                .filter_map(|o| match o {
                    GossipOutput::Send {
                        to,
                        message: GossipMessage::BlockPush { .. },
                    } => Some(*to),
                    _ => None,
                })
                .collect();
            t.sort_unstable();
            t
        };
        let out = node.on_block_from_orderer(&channel(), 1, vec![1]);
        assert_eq!(
            push_targets(&out),
            vec![3, 4],
            "fanout slots went to peers with headroom"
        );
        // A fresher heartbeat restores peer 2's credits; pushes resume.
        node.step(
            3,
            GossipMessage::Membership {
                alive: vec![advert(6, 4)],
            },
        );
        let out = node.on_block_from_orderer(&channel(), 2, vec![2]);
        assert_eq!(push_targets(&out), vec![2, 3, 4]);
    }

    #[test]
    fn state_sync_payloads_are_routed_to_the_driver() {
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into())],
            vec![channel()],
            GossipConfig::default(),
            1,
        );
        let out = node.step(
            2,
            GossipMessage::StateSync {
                channel: channel(),
                payload: vec![0xab; 16],
            },
        );
        assert_eq!(
            out,
            vec![GossipOutput::DeliverStateSync {
                from: 2,
                channel: channel(),
                payload: vec![0xab; 16],
            }]
        );
    }

    #[test]
    fn pull_probes_avoid_peers_known_to_be_behind() {
        let config = GossipConfig {
            pull_interval: 1,
            membership_interval: 1000, // isolate pull traffic
            ..GossipConfig::default()
        };
        let bootstrap: Vec<(PeerId, String)> = (2..=4).map(|id| (id, "A".to_string())).collect();
        let mut node = GossipNode::new(1, "A", &bootstrap, vec![channel()], config, 1);
        node.tick();
        for peer in 2..=4 {
            node.step(peer, GossipMessage::Membership { alive: vec![] });
        }
        // We are at height 5. Peers 2 and 3 are known to be at 2 — a pull
        // probe to them cannot help. Peer 4's height is unknown.
        for _ in 0..5 {
            let n = node.delivered_height(&channel()) + 1;
            node.on_block_from_orderer(&channel(), n, vec![n as u8]);
        }
        for peer in [2, 3] {
            node.step(
                peer,
                GossipMessage::PullRequest {
                    channel: channel(),
                    have: 2,
                },
            );
        }
        for _ in 0..20 {
            for output in node.tick() {
                if let GossipOutput::Send {
                    to,
                    message: GossipMessage::PullRequest { .. },
                } = output
                {
                    assert_eq!(to, 4, "pull probe went to a peer known to be behind");
                }
            }
        }
    }

    #[test]
    fn convergence_at_scale_with_fanout() {
        // 30 peers, one seed; fanout-7 push + pull converge quickly.
        let orgs: Vec<&str> = (0..30).map(|_| "A").collect();
        let mut overlay = Overlay::new(&orgs, GossipConfig::default());
        for _ in 0..4 {
            overlay.tick();
        }
        for num in 1..=5 {
            overlay.inject_block(0, num);
        }
        for _ in 0..12 {
            overlay.tick();
        }
        for (i, d) in overlay.delivered.iter().enumerate() {
            assert_eq!(d.len(), 5, "peer {} got all blocks", i + 1);
        }
    }

    // ------------------------------------------------------------------
    // Bugfix regressions
    // ------------------------------------------------------------------

    #[test]
    fn restarted_peer_recognized_immediately_via_incarnation() {
        // Node 2 runs long enough that its heartbeat counter is large,
        // crashes, and rejoins with a fresh clock but a bumped
        // incarnation. Without incarnations its post-restart adverts
        // (heartbeat 1, 2, ...) lose to its own pre-crash heartbeat and
        // the overlay ignores it until the clock catches up.
        let config = GossipConfig {
            membership_interval: 1,
            member_timeout: 10,
            ..GossipConfig::default()
        };
        let bootstrap: Vec<(PeerId, String)> = vec![(1, "A".into()), (2, "A".into())];
        let mut observer = GossipNode::new(1, "A", &bootstrap, vec![channel()], config.clone(), 1);
        // Observer's clock runs far ahead; peer 2 heartbeats at 500.
        for _ in 0..600 {
            observer.tick();
        }
        let old_advert = PeerAdvert {
            peer: 2,
            org: "A".into(),
            incarnation: 0,
            heartbeat: 500,
            age: 0,
            delivered: vec![(channel(), 40)],
            snapshots: vec![],
            credits: vec![(channel(), 0)],
        };
        observer.step(
            2,
            GossipMessage::Membership {
                alive: vec![old_advert],
            },
        );
        assert_eq!(observer.peer_credits(2, &channel()), Some(0));

        // Peer 2 restarts: incarnation 1, heartbeat restarts at 3.
        let restarted =
            GossipNode::new(2, "A", &bootstrap, vec![channel()], config, 2).with_incarnation(1);
        assert_eq!(restarted.incarnation(), 1);
        let new_advert = PeerAdvert {
            peer: 2,
            org: "A".into(),
            incarnation: 1,
            heartbeat: 3,
            age: 0,
            delivered: vec![],
            snapshots: vec![],
            credits: vec![(channel(), 7)],
        };
        observer.step(
            2,
            GossipMessage::Membership {
                alive: vec![new_advert],
            },
        );
        // (incarnation 1, heartbeat 3) beats (0, 500): the restart is
        // recognized immediately and incarnation-scoped state was reset.
        assert_eq!(observer.peer_credits(2, &channel()), Some(7));
        assert!(observer.alive_peers().contains(&2));
    }

    #[test]
    fn crash_restart_overlay_heals_without_waiting_out_the_old_heartbeat() {
        let config = GossipConfig {
            membership_interval: 1,
            member_timeout: 8,
            ..GossipConfig::default()
        };
        let mut overlay = Overlay::new(&["A", "A", "A"], config.clone());
        // Long steady state: heartbeats grow large.
        for _ in 0..60 {
            overlay.tick();
        }
        // Node 3 crashes and stays dark past the timeout.
        overlay.isolated = vec![3];
        for _ in 0..12 {
            overlay.tick();
        }
        assert!(!overlay.nodes[0].alive_peers().contains(&3));
        // Restart with a fresh clock but bumped incarnation.
        let bootstrap: Vec<(PeerId, String)> =
            vec![(1, "A".into()), (2, "A".into()), (3, "A".into())];
        overlay.nodes[2] =
            GossipNode::new(3, "A", &bootstrap, vec![channel()], config, 7).with_incarnation(1);
        overlay.isolated = vec![];
        for _ in 0..4 {
            overlay.tick();
        }
        assert!(
            overlay.nodes[0].alive_peers().contains(&3),
            "restarted peer rejoined without waiting out its old heartbeat"
        );
    }

    #[test]
    fn hostile_pull_request_at_u64_max_is_harmless() {
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into())],
            vec![channel()],
            GossipConfig::default(),
            1,
        );
        for num in 1..=4 {
            node.on_block_from_orderer(&channel(), num, vec![num as u8]);
        }
        // Used to overflow `have + 1` in debug builds.
        let out = node.step(
            2,
            GossipMessage::PullRequest {
                channel: channel(),
                have: u64::MAX,
            },
        );
        assert!(
            out.iter().all(|o| !matches!(
                o,
                GossipOutput::Send {
                    message: GossipMessage::BlockPush { .. },
                    ..
                }
            )),
            "nothing exists above u64::MAX"
        );
        // Near-MAX values behave too.
        let out = node.step(
            2,
            GossipMessage::PullRequest {
                channel: channel(),
                have: u64::MAX - 1,
            },
        );
        drop(out);
    }

    #[test]
    fn block_store_is_retention_bounded() {
        let config = GossipConfig {
            retention_window: 16,
            member_timeout: 4, // GC cadence
            push_enabled: false,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[], vec![channel()], config, 1);
        for num in 1..=500 {
            node.on_block_from_orderer(&channel(), num, vec![0; 32]);
            if num % 10 == 0 {
                node.tick();
            }
        }
        for _ in 0..8 {
            node.tick();
        }
        assert_eq!(node.delivered_height(&channel()), 500);
        assert!(
            node.stored_blocks(&channel()) <= 16,
            "store kept {} blocks, window is 16",
            node.stored_blocks(&channel())
        );
        assert!(node.stats().blocks_pruned > 0);
    }

    #[test]
    fn retention_keeps_blocks_a_live_laggard_still_needs() {
        let config = GossipConfig {
            retention_window: 64,
            member_timeout: 4,
            push_enabled: false,
            membership_interval: 1000,
            pull_interval: 1000,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        // Peer 2 is alive and known to be at height 10.
        node.tick();
        node.step(
            2,
            GossipMessage::PullRequest {
                channel: channel(),
                have: 10,
            },
        );
        for num in 1..=40 {
            node.on_block_from_orderer(&channel(), num, vec![0; 16]);
        }
        for _ in 0..4 {
            node.tick();
            // Keep peer 2 alive (still at height 10).
            node.step(2, GossipMessage::Membership { alive: vec![] });
        }
        // Everything above the laggard's height must still be servable.
        let out = node.step(
            2,
            GossipMessage::PullRequest {
                channel: channel(),
                have: 10,
            },
        );
        let first_served = out.iter().find_map(|o| match o {
            GossipOutput::Send {
                message: GossipMessage::BlockPush { block_num, .. },
                ..
            } => Some(*block_num),
            _ => None,
        });
        assert_eq!(first_served, Some(11), "laggard's next block was pruned");
    }

    #[test]
    fn silent_members_are_garbage_collected() {
        let config = GossipConfig {
            member_timeout: 4,
            member_gc_factor: 3,
            membership_interval: 1000,
            pull_interval: 1000,
            ..GossipConfig::default()
        };
        let bootstrap: Vec<(PeerId, String)> = (2..=20).map(|id| (id, "A".to_string())).collect();
        let mut node = GossipNode::new(1, "A", &bootstrap, vec![channel()], config, 1);
        assert_eq!(node.member_count(), 19);
        // Peer 2 keeps talking; the rest stay silent forever.
        for _ in 0..20 {
            node.tick();
            node.step(2, GossipMessage::Membership { alive: vec![] });
        }
        assert_eq!(node.member_count(), 1, "silent members were GCed");
        assert!(node.alive_peers().contains(&2));
        assert_eq!(node.stats().members_gc, 18);
    }

    #[test]
    fn fresher_heartbeat_updates_member_org() {
        let config = GossipConfig::default();
        let mut node = GossipNode::new(
            1,
            "B",
            &[(2, "A".into()), (3, "B".into())],
            vec![channel()],
            config,
            1,
        );
        node.tick();
        // Peer 3 (org B, id 3 > 1) exists; node 1 leads org B.
        node.step(3, GossipMessage::Membership { alive: vec![] });
        assert!(node.is_org_leader());
        // Peer 2 re-registers under org B with a fresher heartbeat —
        // *without* an incarnation bump (same process, new org config).
        node.step(
            3,
            GossipMessage::Membership {
                alive: vec![PeerAdvert {
                    peer: 2,
                    org: "B".into(),
                    incarnation: 0,
                    heartbeat: 5,
                    age: 0,
                    delivered: vec![],
                    snapshots: vec![],
                    credits: vec![],
                }],
            },
        );
        // Leader election now sees peer 2 in org B: id 1 no longer lowest?
        // It still is (1 < 2), but the org view must reflect B for peer 2.
        assert!(node.is_org_leader());
        // The reverse case corrupts election without the fix: observer is
        // id 3's twin. Build a node with id 5 in org B that previously
        // believed peer 2 was in org A.
        let mut high = GossipNode::new(
            5,
            "B",
            &[(2, "A".into())],
            vec![channel()],
            GossipConfig::default(),
            1,
        );
        high.tick();
        high.step(2, GossipMessage::Membership { alive: vec![] });
        assert!(high.is_org_leader(), "org A peer 2 does not contest org B");
        high.step(
            2,
            GossipMessage::Membership {
                alive: vec![PeerAdvert {
                    peer: 2,
                    org: "B".into(),
                    incarnation: 0,
                    heartbeat: 9,
                    age: 0,
                    delivered: vec![],
                    snapshots: vec![],
                    credits: vec![],
                }],
            },
        );
        assert!(
            !high.is_org_leader(),
            "peer 2's org B re-registration must be visible to election"
        );
    }

    // ------------------------------------------------------------------
    // Adversarial-input coverage
    // ------------------------------------------------------------------

    #[test]
    fn duplicate_flood_is_absorbed_by_the_dedup_lru() {
        let config = GossipConfig {
            rate_limit_burst: 10_000, // isolate dedup from rate limiting
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into()), (3, "A".into())],
            vec![channel()],
            config,
            1,
        );
        node.tick();
        for p in [2, 3] {
            node.step(p, GossipMessage::Membership { alive: vec![] });
        }
        let push = GossipMessage::BlockPush {
            channel: channel(),
            block_num: 1,
            payload: vec![0xaa; 64],
        };
        let out = node.step(2, push.clone());
        assert!(out
            .iter()
            .any(|o| matches!(o, GossipOutput::DeliverBlock { .. })));
        // 500 replays of the same push: every one is dropped at the
        // dedup cache without touching the store or re-pushing.
        for _ in 0..500 {
            let out = node.step(2, push.clone());
            assert!(out.is_empty());
        }
        assert_eq!(node.stats().deduped, 500);
        // A *different* payload for the same number is NOT deduped — it
        // must reach verification so the forger can be scored.
        let forged = GossipMessage::BlockPush {
            channel: channel(),
            block_num: 1,
            payload: vec![0xbb; 64],
        };
        let before = node.stats().deduped;
        node.step(3, forged);
        assert_eq!(node.stats().deduped, before);
    }

    #[test]
    fn rate_limit_bucket_exhausts_and_refills() {
        let config = GossipConfig {
            rate_limit_burst: 5,
            rate_limit_refill: 2,
            dedup_capacity: 0, // isolate rate limiting from dedup
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        node.tick();
        // 5 tokens: messages 6..10 are dropped.
        for i in 0..10u64 {
            node.step(
                2,
                GossipMessage::PullRequest {
                    channel: channel(),
                    have: i,
                },
            );
        }
        assert_eq!(node.stats().rate_limited, 5);
        // The member's observed height only advanced while tokens lasted
        // (message 5 carried have=4).
        // One tick refills 2 tokens; the third message is dropped again.
        node.tick();
        for i in 0..3u64 {
            node.step(
                2,
                GossipMessage::PullRequest {
                    channel: channel(),
                    have: 20 + i,
                },
            );
        }
        assert_eq!(node.stats().rate_limited, 6);
    }

    #[test]
    fn unknown_sender_flood_is_rate_limited_too() {
        let config = GossipConfig {
            rate_limit_burst: 3,
            rate_limit_refill: 1,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[], vec![channel()], config, 1);
        node.tick();
        for _ in 0..10 {
            node.step(
                999, // never bootstrapped, never advertised
                GossipMessage::StateSync {
                    channel: channel(),
                    payload: vec![0; 8],
                },
            );
        }
        assert_eq!(node.stats().rate_limited, 7);
    }

    #[test]
    fn repeated_mismatches_quarantine_and_parole_restores() {
        let config = GossipConfig {
            quarantine_threshold: 3,
            quarantine_ticks: 10,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into()), (3, "A".into())],
            vec![channel()],
            config,
            1,
        );
        node.tick();
        for p in [2, 3] {
            node.step(p, GossipMessage::Membership { alive: vec![] });
        }
        // Peer 2's payloads keep failing verification.
        node.report_verdict(2, false);
        node.report_verdict(2, false);
        assert!(!node.is_quarantined(2));
        node.report_verdict(2, false);
        assert!(node.is_quarantined(2));
        assert_eq!(node.stats().quarantines, 1);
        // Quarantined: ingress dropped, excluded from sampling/providers.
        let out = node.step(
            2,
            GossipMessage::BlockPush {
                channel: channel(),
                block_num: 1,
                payload: vec![1; 8],
            },
        );
        assert!(out.is_empty());
        assert_eq!(node.stats().quarantine_drops, 1);
        assert!(!node.alive_peers().contains(&2));
        assert!(node.alive_peers().contains(&3));
        // Parole after the quarantine window: the peer participates
        // again...
        for _ in 0..11 {
            node.tick();
        }
        assert!(!node.is_quarantined(2));
        node.step(2, GossipMessage::Membership { alive: vec![] });
        assert!(node.alive_peers().contains(&2));
        // ...but on thin ice: the halved score re-quarantines after
        // threshold/2 + 1 = 2 strikes, not 3.
        node.report_verdict(2, false);
        node.report_verdict(2, false);
        assert!(node.is_quarantined(2));
        assert_eq!(node.stats().quarantines, 2);
    }

    #[test]
    fn good_verdicts_repair_reputation() {
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into())],
            vec![channel()],
            GossipConfig::default(), // threshold 3
            1,
        );
        node.step(2, GossipMessage::Membership { alive: vec![] });
        node.report_verdict(2, false);
        node.report_verdict(2, false);
        node.report_verdict(2, true); // score back to 1
        node.report_verdict(2, false); // 2 < 3
        assert!(!node.is_quarantined(2));
        node.report_verdict(2, false);
        assert!(node.is_quarantined(2));
    }

    #[test]
    fn forged_phantom_adverts_age_out_of_the_member_map() {
        let config = GossipConfig {
            member_timeout: 4,
            member_gc_factor: 2,
            membership_interval: 1000,
            pull_interval: 1000,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        node.tick();
        // Peer 2 forges adverts for 200 phantom peers.
        let phantoms: Vec<PeerAdvert> = (1000..1200)
            .map(|id| PeerAdvert {
                peer: id,
                org: "A".into(),
                incarnation: 0,
                heartbeat: 1,
                age: 0,
                delivered: vec![],
                snapshots: vec![],
                credits: vec![],
            })
            .collect();
        node.step(2, GossipMessage::Membership { alive: phantoms });
        assert_eq!(node.member_count(), 201);
        // The phantoms never speak; GC reclaims them, the real peer stays.
        for _ in 0..12 {
            node.tick();
            node.step(2, GossipMessage::Membership { alive: vec![] });
        }
        assert_eq!(node.member_count(), 1);
        assert!(node.alive_peers().contains(&2));
    }

    // ------------------------------------------------------------------
    // Priority lanes and catch-up flip
    // ------------------------------------------------------------------

    #[test]
    fn bulk_lane_respects_per_tick_budget_and_never_blocks_fast_path() {
        let config = GossipConfig {
            bulk_budget_per_tick: 100,
            membership_interval: 1,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        node.tick();
        node.step(2, GossipMessage::Membership { alive: vec![] });
        // Queue 6 payloads of 60 bytes: budget 100 → one full + one
        // started? No: 1 fits (60), the 2nd would exceed → 1 per tick
        // after the first (which always sends at least one).
        for _ in 0..6 {
            node.send_state_sync(2, channel(), vec![0; 60]);
        }
        assert_eq!(node.bulk_backlog(), (6, 360));
        let mut ticks = 0;
        while node.bulk_backlog().0 > 0 {
            ticks += 1;
            assert!(ticks < 20, "bulk lane never drained");
            let out = node.tick();
            let bulk_sends = out
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        GossipOutput::Send {
                            message: GossipMessage::StateSync { .. },
                            ..
                        }
                    )
                })
                .count();
            assert!(bulk_sends <= 1, "60+60 > 100: at most one per tick");
            // Fast-path membership traffic is emitted before bulk sends.
            let first_bulk = out.iter().position(|o| {
                matches!(
                    o,
                    GossipOutput::Send {
                        message: GossipMessage::StateSync { .. },
                        ..
                    }
                )
            });
            let last_fast = out.iter().rposition(|o| {
                matches!(
                    o,
                    GossipOutput::Send {
                        message: GossipMessage::Membership { .. },
                        ..
                    }
                )
            });
            if let (Some(b), Some(f)) = (first_bulk, last_fast) {
                assert!(f < b, "bulk sends must come after fast-path sends");
            }
        }
        assert_eq!(ticks, 6);
        assert_eq!(node.stats().bulk_sent, 6);
    }

    #[test]
    fn oversized_bulk_payload_still_makes_progress() {
        let config = GossipConfig {
            bulk_budget_per_tick: 100,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        node.send_state_sync(2, channel(), vec![0; 5000]); // 50x the budget
        let out = node.tick();
        assert!(
            out.iter().any(|o| matches!(
                o,
                GossipOutput::Send {
                    message: GossipMessage::StateSync { .. },
                    ..
                }
            )),
            "at least one bulk payload per tick, even oversized"
        );
        assert_eq!(node.bulk_backlog(), (0, 0));
    }

    #[test]
    fn bulk_lane_overflow_drops_oldest() {
        let config = GossipConfig {
            bulk_queue_limit: 250,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        for i in 0..5u8 {
            node.send_state_sync(2, channel(), vec![i; 100]);
        }
        // Only 2 payloads (200 bytes) fit under the 250-byte cap.
        let (queued, bytes) = node.bulk_backlog();
        assert_eq!((queued, bytes), (2, 200));
        assert_eq!(node.stats().bulk_dropped, 3);
        // The survivors are the *newest* payloads.
        let mut out = Vec::new();
        while node.bulk_backlog().0 > 0 {
            out.extend(node.tick());
        }
        let tags: Vec<u8> = out
            .iter()
            .filter_map(|o| match o {
                GossipOutput::Send {
                    message: GossipMessage::StateSync { payload, .. },
                    ..
                } => Some(payload[0]),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![3, 4]);
    }

    #[test]
    fn deep_deficit_flips_to_snapshot_catchup() {
        let config = GossipConfig {
            catchup_threshold: 8,
            membership_interval: 1000,
            // The flip check runs on the pull cadence (it replaces
            // pulling); probe every tick so each tick is a flip chance.
            pull_interval: 1,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into()), (3, "A".into())],
            vec![channel()],
            config,
            1,
        );
        node.tick();
        for p in [2, 3] {
            node.step(p, GossipMessage::Membership { alive: vec![] });
        }
        // Peer 2 advertises height 100 and a snapshot at 96.
        node.step(
            3,
            GossipMessage::Membership {
                alive: vec![PeerAdvert {
                    peer: 2,
                    org: "A".into(),
                    incarnation: 0,
                    heartbeat: 50,
                    age: 0,
                    delivered: vec![(channel(), 100)],
                    snapshots: vec![(channel(), 96)],
                    credits: vec![],
                }],
            },
        );
        let out = node.tick();
        let catchups: Vec<(PeerId, u64)> = out
            .iter()
            .filter_map(|o| match o {
                GossipOutput::SnapshotCatchup {
                    provider, height, ..
                } => Some((*provider, *height)),
                _ => None,
            })
            .collect();
        assert_eq!(catchups, vec![(2, 96)]);
        // Backed off: the next tick does not re-emit.
        let out = node.tick();
        assert!(out
            .iter()
            .all(|o| !matches!(o, GossipOutput::SnapshotCatchup { .. })));
        // Driver installs the snapshot: watermark jumps, backoff clears.
        let deliveries = node.note_snapshot_installed(&channel(), 96);
        assert!(deliveries.is_empty());
        assert_eq!(node.delivered_height(&channel()), 96);
        // Deficit is now 4 < 8: no more catch-up requests.
        let out = node.tick();
        assert!(out
            .iter()
            .all(|o| !matches!(o, GossipOutput::SnapshotCatchup { .. })));
    }

    #[test]
    fn snapshot_install_releases_buffered_blocks() {
        let config = GossipConfig {
            push_enabled: false,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(1, "A", &[(2, "A".into())], vec![channel()], config, 1);
        node.tick();
        // Blocks 97..=99 arrive while the node is at 0 — buffered.
        for num in 97..=99 {
            let out = node.step(
                2,
                GossipMessage::BlockPush {
                    channel: channel(),
                    block_num: num,
                    payload: vec![num as u8],
                },
            );
            assert!(out
                .iter()
                .all(|o| !matches!(o, GossipOutput::DeliverBlock { .. })));
        }
        let out = node.note_snapshot_installed(&channel(), 96);
        let delivered: Vec<(u64, Option<PeerId>)> = out
            .iter()
            .filter_map(|o| match o {
                GossipOutput::DeliverBlock {
                    block_num, from, ..
                } => Some((*block_num, *from)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![(97, Some(2)), (98, Some(2)), (99, Some(2))]);
        assert_eq!(node.delivered_height(&channel()), 99);
    }

    #[test]
    fn delivered_blocks_carry_their_provider_for_verdicts() {
        let mut node = GossipNode::new(
            1,
            "A",
            &[(2, "A".into())],
            vec![channel()],
            GossipConfig::default(),
            1,
        );
        node.tick();
        let out = node.step(
            2,
            GossipMessage::BlockPush {
                channel: channel(),
                block_num: 1,
                payload: vec![1],
            },
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, GossipOutput::DeliverBlock { from: Some(2), .. })));
        // Orderer-sourced blocks have no provider to score.
        let out = node.on_block_from_orderer(&channel(), 2, vec![2]);
        assert!(out
            .iter()
            .any(|o| matches!(o, GossipOutput::DeliverBlock { from: None, .. })));
    }

    #[test]
    fn membership_heartbeats_are_bounded() {
        let config = GossipConfig {
            max_adverts: 8,
            membership_interval: 1,
            ..GossipConfig::default()
        };
        let bootstrap: Vec<(PeerId, String)> = (2..=100).map(|id| (id, "A".to_string())).collect();
        let mut node = GossipNode::new(1, "A", &bootstrap, vec![channel()], config, 1);
        node.tick();
        for p in 2..=100 {
            node.step(p, GossipMessage::Membership { alive: vec![] });
        }
        let out = node.tick();
        for o in out {
            if let GossipOutput::Send {
                message: GossipMessage::Membership { alive },
                ..
            } = o
            {
                assert!(
                    alive.len() <= 8,
                    "heartbeat carried {} adverts",
                    alive.len()
                );
                assert_eq!(alive[0].peer, 1, "self advert always included first");
            }
        }
    }
}
