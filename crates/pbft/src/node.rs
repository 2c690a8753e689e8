//! The PBFT replica state machine.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use fabric_crypto::Digest;

use crate::ReplicaId;

/// Timing configuration, in driver-defined ticks.
#[derive(Clone, Copy, Debug)]
pub struct PbftConfig {
    /// Ticks a replica waits for a forwarded request to be delivered before
    /// suspecting the primary and starting a view change.
    pub request_timeout: u64,
    /// Maximum client payloads sealed into one pre-prepare batch.
    pub max_batch: usize,
    /// Maximum undelivered sequence numbers the primary keeps in flight;
    /// further requests queue until delivery frees a slot.
    pub max_inflight: u64,
}

impl Default for PbftConfig {
    fn default() -> Self {
        PbftConfig {
            request_timeout: 10,
            max_batch: 64,
            max_inflight: 8,
        }
    }
}

/// First byte of a batched pre-prepare payload. Client payloads are opaque
/// but the batch frame is distinguished by this marker; `encode_batch`
/// always frames (even single payloads), so committed non-empty payloads
/// are frames unless they predate batching (handled as a legacy single).
const BATCH_MAGIC: u8 = 0xB5;

/// Frames `payloads` into one batch: marker, count, then length-prefixed
/// payloads.
pub fn encode_batch(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = vec![BATCH_MAGIC];
    buf.extend((payloads.len() as u32).to_le_bytes());
    for p in payloads {
        buf.extend((p.len() as u32).to_le_bytes());
        buf.extend(p.iter());
    }
    buf
}

/// Inverse of [`encode_batch`]; `None` if `frame` is not a well-formed
/// batch (wrong marker, truncated, or trailing bytes).
pub fn decode_batch(frame: &[u8]) -> Option<Vec<Vec<u8>>> {
    if frame.first() != Some(&BATCH_MAGIC) {
        return None;
    }
    let mut at = 1usize;
    let count = u32::from_le_bytes(frame.get(at..at + 4)?.try_into().ok()?) as usize;
    at += 4;
    let mut payloads = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = u32::from_le_bytes(frame.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        payloads.push(frame.get(at..at + len)?.to_vec());
        at += len;
    }
    if at != frame.len() {
        return None;
    }
    Some(payloads)
}

/// A prepared certificate carried in view-change messages: evidence that a
/// value reached the prepare quorum for a sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedCert {
    /// Sequence number.
    pub seq: u64,
    /// View in which it prepared.
    pub view: u64,
    /// Digest of the payload.
    pub digest: Digest,
    /// The payload itself.
    pub payload: Vec<u8>,
}

/// PBFT protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbftMessage {
    /// A client request forwarded to the primary.
    Request {
        /// Opaque request payload.
        payload: Vec<u8>,
    },
    /// Primary assigns a sequence number to a request.
    PrePrepare {
        /// Current view.
        view: u64,
        /// Assigned sequence number.
        seq: u64,
        /// SHA-256 of the payload.
        digest: Digest,
        /// The request payload.
        payload: Vec<u8>,
    },
    /// A replica acknowledges the pre-prepare.
    Prepare {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Payload digest.
        digest: Digest,
    },
    /// A replica has collected a prepare quorum.
    Commit {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Payload digest.
        digest: Digest,
    },
    /// A replica votes to move to `new_view`.
    ViewChange {
        /// The view being proposed.
        new_view: u64,
        /// This replica's prepared certificates.
        prepared: Vec<PreparedCert>,
    },
    /// The new primary installs `new_view`.
    NewView {
        /// The view being installed.
        new_view: u64,
        /// Re-proposals for every in-flight sequence number (empty payload
        /// = no-op filler).
        pre_prepares: Vec<(u64, Vec<u8>)>,
    },
}

/// Events the driver must act on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Send `message` to replica `to`.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        message: PbftMessage,
    },
    /// Sequence `seq` is committed; deliver `data` (empty = no-op filler,
    /// skip it).
    Delivered {
        /// Committed sequence number.
        seq: u64,
        /// Payload.
        data: Vec<u8>,
    },
}

/// Errors from [`PbftNode::propose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposeError {
    /// Only the primary assigns sequence numbers; the hint is the current
    /// primary's id.
    NotPrimary(ReplicaId),
}

#[derive(Default)]
struct Slot {
    /// The pre-prepared value accepted in the current view.
    accepted: Option<(Digest, Vec<u8>)>,
    /// View in which `accepted` was set.
    accepted_view: u64,
    /// Prepare votes per digest.
    prepares: HashMap<Digest, HashSet<ReplicaId>>,
    /// Commit votes per digest.
    commits: HashMap<Digest, HashSet<ReplicaId>>,
    /// Set once the commit quorum is reached.
    committed: Option<Vec<u8>>,
    /// Whether our own prepare/commit were already broadcast.
    sent_prepare: bool,
    sent_commit: bool,
}

/// A pending (forwarded) request with its timeout.
struct Pending {
    digest: Digest,
    payload: Vec<u8>,
    ticks_left: u64,
}

/// One PBFT replica.
pub struct PbftNode {
    id: ReplicaId,
    n: usize,
    f: usize,
    config: PbftConfig,
    view: u64,
    /// Next sequence number this node assigns when primary.
    next_seq: u64,
    log: BTreeMap<u64, Slot>,
    last_delivered: u64,
    pending: Vec<Pending>,
    /// View-change votes: new_view -> voter -> certificates.
    vc_votes: HashMap<u64, HashMap<ReplicaId, Vec<PreparedCert>>>,
    /// Highest view this node has voted to change to.
    vc_voted: u64,
    /// Digests of already-delivered payloads (duplicate suppression). For
    /// batched slots this holds the *sub-payload* digests, which is what
    /// makes delivery exactly-once across view changes (a payload can sit
    /// both in a carried-over certificate batch and in a re-proposed one).
    delivered_digests: HashSet<Digest>,
    /// Primary-only intake queue of raw client payloads awaiting a batch.
    queue: VecDeque<Vec<u8>>,
    /// Digests of queued payloads (intake dedup).
    queued_digests: HashSet<Digest>,
    /// Re-entrancy guard: delivery inside a `pump`-driven accept chain
    /// must not pump recursively.
    pumping: bool,
    /// Batches sealed by this node as primary (stats).
    sealed_batches: u64,
    /// Client payloads sealed into those batches (stats).
    sealed_payloads: u64,
}

impl PbftNode {
    /// Creates replica `id` in a cluster of `n` replicas.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 4` (PBFT needs `n = 3f + 1` with `f >= 1`) —
    /// except `n = 1`, allowed for degenerate test setups.
    pub fn new(id: ReplicaId, n: usize, config: PbftConfig) -> Self {
        assert!(n == 1 || n >= 4, "PBFT needs n >= 4 (n = 3f + 1)");
        PbftNode {
            id,
            n,
            f: (n - 1) / 3,
            config,
            view: 0,
            next_seq: 1,
            log: BTreeMap::new(),
            last_delivered: 0,
            pending: Vec::new(),
            vc_votes: HashMap::new(),
            vc_voted: 0,
            delivered_digests: HashSet::new(),
            queue: VecDeque::new(),
            queued_digests: HashSet::new(),
            pumping: false,
            sealed_batches: 0,
            sealed_payloads: 0,
        }
    }

    /// `(sealed_batches, sealed_payloads)` counters for this node's time
    /// as primary.
    pub fn batch_stats(&self) -> (u64, u64) {
        (self.sealed_batches, self.sealed_payloads)
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Id of the current view's primary.
    pub fn primary(&self) -> ReplicaId {
        self.view % self.n as u64
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    /// Quorum size (`2f + 1`).
    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    fn broadcast(&self, message: PbftMessage, out: &mut Vec<Output>) {
        for peer in 0..self.n as u64 {
            if peer != self.id {
                out.push(Output::Send {
                    to: peer,
                    message: message.clone(),
                });
            }
        }
    }

    /// Entry point for client requests arriving at this replica. The
    /// primary sequences them directly; backups relay the request to *all*
    /// replicas (so every correct replica arms its view-change timer, the
    /// PBFT liveness mechanism) and wait.
    pub fn on_request(&mut self, payload: Vec<u8>) -> Vec<Output> {
        let mut out = Vec::new();
        if self.is_primary() {
            self.enqueue(payload);
            self.pump(&mut out);
            return out;
        }
        self.broadcast(
            PbftMessage::Request {
                payload: payload.clone(),
            },
            &mut out,
        );
        self.arm_pending(payload);
        out
    }

    /// Arms the view-change timer for a request this backup is waiting on.
    fn arm_pending(&mut self, payload: Vec<u8>) {
        let digest = fabric_crypto::digest(&payload);
        if self.delivered_digests.contains(&digest)
            || self.pending.iter().any(|p| p.digest == digest)
        {
            return;
        }
        self.pending.push(Pending {
            digest,
            payload,
            ticks_left: self.config.request_timeout,
        });
    }

    /// Sequences a request; primary only. The payload joins the intake
    /// queue and ships in the next sealed batch (immediately if a
    /// sequence-number slot is free).
    pub fn propose(&mut self, payload: Vec<u8>) -> Result<Vec<Output>, ProposeError> {
        if !self.is_primary() {
            return Err(ProposeError::NotPrimary(self.primary()));
        }
        let mut out = Vec::new();
        self.enqueue(payload);
        self.pump(&mut out);
        Ok(out)
    }

    /// Adds a raw client payload to the primary's intake queue unless it
    /// was already delivered or is already queued.
    fn enqueue(&mut self, payload: Vec<u8>) {
        let digest = fabric_crypto::digest(&payload);
        if self.delivered_digests.contains(&digest) || !self.queued_digests.insert(digest) {
            return;
        }
        self.queue.push_back(payload);
    }

    /// Seals queued payloads into batched pre-prepares while undelivered
    /// sequence numbers stay under `max_inflight` — this is what overlaps
    /// agreement on consecutive batches instead of running them one at a
    /// time.
    fn pump(&mut self, out: &mut Vec<Output>) {
        if !self.is_primary() || self.pumping {
            return;
        }
        self.pumping = true;
        while !self.queue.is_empty() {
            let inflight = (self.next_seq - 1).saturating_sub(self.last_delivered);
            if inflight >= self.config.max_inflight {
                break;
            }
            let take = self.queue.len().min(self.config.max_batch.max(1));
            let batch: Vec<Vec<u8>> = self.queue.drain(..take).collect();
            for p in &batch {
                self.queued_digests.remove(&fabric_crypto::digest(p));
            }
            self.sealed_batches += 1;
            self.sealed_payloads += batch.len() as u64;
            let frame = encode_batch(&batch);
            let digest = fabric_crypto::digest(&frame);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.broadcast(
                PbftMessage::PrePrepare {
                    view: self.view,
                    seq,
                    digest,
                    payload: frame.clone(),
                },
                out,
            );
            self.accept_preprepare(seq, digest, frame, out);
        }
        self.pumping = false;
    }

    /// Advances timers; may initiate a view change.
    pub fn tick(&mut self) -> Vec<Output> {
        let mut out = Vec::new();
        // Catch-all: seal anything still queued if delivery freed slots.
        self.pump(&mut out);
        let mut expired = false;
        for p in &mut self.pending {
            if p.ticks_left > 0 {
                p.ticks_left -= 1;
                if p.ticks_left == 0 {
                    expired = true;
                }
            }
        }
        if expired {
            let target = (self.view.max(self.vc_voted)) + 1;
            self.start_view_change(target, &mut out);
            // Re-arm so a stalled view change escalates further.
            for p in &mut self.pending {
                if p.ticks_left == 0 {
                    p.ticks_left = self.config.request_timeout;
                }
            }
        }
        out
    }

    fn start_view_change(&mut self, new_view: u64, out: &mut Vec<Output>) {
        if new_view <= self.vc_voted {
            return;
        }
        self.vc_voted = new_view;
        let prepared = self.prepared_certs();
        self.vc_votes
            .entry(new_view)
            .or_default()
            .insert(self.id, prepared.clone());
        self.broadcast(PbftMessage::ViewChange { new_view, prepared }, out);
        self.maybe_install_view(new_view, out);
    }

    /// All sequence numbers with a local prepare quorum, as certificates.
    fn prepared_certs(&self) -> Vec<PreparedCert> {
        let mut certs = Vec::new();
        for (&seq, slot) in &self.log {
            if let Some((digest, payload)) = &slot.accepted {
                let votes = slot.prepares.get(digest).map(|s| s.len()).unwrap_or(0);
                if votes >= self.quorum() || slot.committed.is_some() {
                    certs.push(PreparedCert {
                        seq,
                        view: slot.accepted_view,
                        digest: *digest,
                        payload: payload.clone(),
                    });
                }
            }
        }
        certs
    }

    /// Handles a protocol message from `from`.
    pub fn step(&mut self, from: ReplicaId, message: PbftMessage) -> Vec<Output> {
        let mut out = Vec::new();
        match message {
            PbftMessage::Request { payload } => {
                let digest = fabric_crypto::digest(&payload);
                if self.delivered_digests.contains(&digest) {
                    // Already ordered; duplicates are filtered downstream
                    // (Fabric's validation handles duplicate transactions).
                } else if self.is_primary() {
                    self.enqueue(payload);
                    self.pump(&mut out);
                } else {
                    // Arm the timer so this replica also suspects a faulty
                    // primary that never orders the request.
                    self.arm_pending(payload);
                }
            }
            PbftMessage::PrePrepare {
                view,
                seq,
                digest,
                payload,
            } => {
                if view == self.view && from == self.primary() {
                    self.accept_preprepare(seq, digest, payload, &mut out);
                }
            }
            PbftMessage::Prepare { view, seq, digest } => {
                if view == self.view {
                    self.record_prepare(seq, digest, from, &mut out);
                }
            }
            PbftMessage::Commit { view, seq, digest } => {
                if view == self.view {
                    self.record_commit(seq, digest, from, &mut out);
                }
            }
            PbftMessage::ViewChange { new_view, prepared } => {
                if new_view > self.view {
                    self.vc_votes
                        .entry(new_view)
                        .or_default()
                        .insert(from, prepared);
                    let votes = self.vc_votes[&new_view].len();
                    // Liveness amplification: join once f + 1 replicas vote.
                    if votes > self.f && self.vc_voted < new_view {
                        self.start_view_change(new_view, &mut out);
                    }
                    self.maybe_install_view(new_view, &mut out);
                }
            }
            PbftMessage::NewView {
                new_view,
                pre_prepares,
            } => {
                if new_view >= self.view && from == new_view % self.n as u64 {
                    self.adopt_view(new_view, &mut out);
                    for (seq, payload) in pre_prepares {
                        let digest = fabric_crypto::digest(&payload);
                        self.accept_preprepare(seq, digest, payload, &mut out);
                    }
                }
            }
        }
        out
    }

    fn maybe_install_view(&mut self, new_view: u64, out: &mut Vec<Output>) {
        if new_view % self.n as u64 != self.id || new_view <= self.view {
            return;
        }
        let votes = match self.vc_votes.get(&new_view) {
            Some(v) => v,
            None => return,
        };
        if votes.len() < self.quorum() {
            return;
        }
        // Merge prepared certificates, choosing the highest-view value per
        // sequence number.
        let mut chosen: BTreeMap<u64, PreparedCert> = BTreeMap::new();
        for certs in votes.values() {
            for cert in certs {
                let replace = chosen
                    .get(&cert.seq)
                    .map(|existing| cert.view > existing.view)
                    .unwrap_or(true);
                if replace {
                    chosen.insert(cert.seq, cert.clone());
                }
            }
        }
        let max_seq = chosen.keys().next_back().copied().unwrap_or(0);
        // Fill gaps with no-ops so delivery can progress past them.
        let mut pre_prepares = Vec::new();
        for seq in 1..=max_seq {
            let payload = chosen
                .get(&seq)
                .map(|c| c.payload.clone())
                .unwrap_or_default();
            pre_prepares.push((seq, payload));
        }
        self.adopt_view(new_view, out);
        self.next_seq = max_seq + 1;
        self.broadcast(
            PbftMessage::NewView {
                new_view,
                pre_prepares: pre_prepares.clone(),
            },
            out,
        );
        for (seq, payload) in pre_prepares {
            let digest = fabric_crypto::digest(&payload);
            self.accept_preprepare(seq, digest, payload, out);
        }
        // Re-propose pending requests in the new view, batched like any
        // other intake. A payload may now sit both in a carried-over
        // certificate batch above and in one of these fresh batches;
        // delivery-time sub-payload dedup keeps it exactly-once.
        let pending: Vec<Vec<u8>> = self.pending.iter().map(|p| p.payload.clone()).collect();
        for payload in pending {
            self.enqueue(payload);
        }
        self.pump(out);
    }

    fn adopt_view(&mut self, new_view: u64, out: &mut Vec<Output>) {
        self.view = new_view;
        self.vc_voted = self.vc_voted.max(new_view);
        // A demoted primary relays its unsequenced intake like a backup
        // (Request broadcast + view-change timer) so the payloads reach
        // the new primary instead of silently dying in the queue.
        if !self.is_primary() {
            self.queued_digests.clear();
            let queued: Vec<Vec<u8>> = self.queue.drain(..).collect();
            for payload in queued {
                self.broadcast(
                    PbftMessage::Request {
                        payload: payload.clone(),
                    },
                    out,
                );
                self.arm_pending(payload);
            }
        }
        // Reset per-view progress on undelivered slots: votes from older
        // views don't count in the new one.
        for slot in self.log.values_mut() {
            if slot.committed.is_none() {
                slot.accepted = None;
                slot.prepares.clear();
                slot.commits.clear();
                slot.sent_prepare = false;
                slot.sent_commit = false;
            }
        }
        // Forward pending requests to the new primary if we're a backup.
        // (Done lazily: `maybe_install_view` re-proposes at the primary.)
    }

    fn accept_preprepare(
        &mut self,
        seq: u64,
        digest: Digest,
        payload: Vec<u8>,
        out: &mut Vec<Output>,
    ) {
        if seq <= self.last_delivered {
            return;
        }
        if fabric_crypto::digest(&payload) != digest {
            return; // malformed
        }
        let slot = self.log.entry(seq).or_default();
        if slot.committed.is_some() {
            return;
        }
        if let Some((accepted_digest, _)) = &slot.accepted {
            if *accepted_digest != digest {
                // Conflicting proposal for the same slot in the same view:
                // ignore it (a correct primary never does this).
                return;
            }
        } else {
            slot.accepted = Some((digest, payload));
            slot.accepted_view = self.view;
        }
        if !slot.sent_prepare {
            slot.sent_prepare = true;
            let view = self.view;
            self.broadcast(PbftMessage::Prepare { view, seq, digest }, out);
            self.record_prepare(seq, digest, self.id, out);
        }
    }

    fn record_prepare(&mut self, seq: u64, digest: Digest, from: ReplicaId, out: &mut Vec<Output>) {
        if seq <= self.last_delivered {
            return;
        }
        let quorum = self.quorum();
        let id = self.id;
        let view = self.view;
        let slot = self.log.entry(seq).or_default();
        slot.prepares.entry(digest).or_default().insert(from);
        let have_value = matches!(&slot.accepted, Some((d, _)) if *d == digest);
        let votes = slot.prepares.get(&digest).map(|s| s.len()).unwrap_or(0);
        if have_value && votes >= quorum && !slot.sent_commit {
            slot.sent_commit = true;
            self.broadcast(PbftMessage::Commit { view, seq, digest }, out);
            self.record_commit(seq, digest, id, out);
        }
    }

    fn record_commit(&mut self, seq: u64, digest: Digest, from: ReplicaId, out: &mut Vec<Output>) {
        if seq <= self.last_delivered {
            return;
        }
        let quorum = self.quorum();
        let slot = self.log.entry(seq).or_default();
        slot.commits.entry(digest).or_default().insert(from);
        let votes = slot.commits.get(&digest).map(|s| s.len()).unwrap_or(0);
        let have_value = matches!(&slot.accepted, Some((d, _)) if *d == digest);
        if have_value && votes >= quorum && slot.committed.is_none() {
            let payload = slot
                .accepted
                .as_ref()
                .map(|(_, p)| p.clone())
                .expect("have_value checked");
            slot.committed = Some(payload);
            self.deliver_ready(out);
        }
    }

    fn deliver_ready(&mut self, out: &mut Vec<Output>) {
        loop {
            let next = self.last_delivered + 1;
            let payload = match self.log.get(&next).and_then(|s| s.committed.clone()) {
                Some(p) => p,
                None => break,
            };
            self.last_delivered = next;
            if payload.is_empty() {
                // View-change no-op filler: emit as-is (drivers skip it).
                out.push(Output::Delivered {
                    seq: next,
                    data: payload,
                });
                continue;
            }
            // A batched slot delivers each client payload separately (all
            // under the slot's sequence number). Sub-payload digests are
            // the dedup unit: a payload carried both in a view-change
            // certificate batch and in a re-proposed batch delivers once.
            let subs = match decode_batch(&payload) {
                Some(subs) => subs,
                None => vec![payload],
            };
            for sub in subs {
                if sub.is_empty() {
                    continue;
                }
                let digest = fabric_crypto::digest(&sub);
                if !self.delivered_digests.insert(digest) {
                    continue;
                }
                // Clear any pending request satisfied by this delivery.
                self.pending.retain(|p| p.digest != digest);
                out.push(Output::Delivered {
                    seq: next,
                    data: sub,
                });
            }
        }
        // Delivery frees in-flight sequence slots; seal anything queued.
        self.pump(out);
    }
}
