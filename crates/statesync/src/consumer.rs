//! The catch-up consumer: a deterministic state machine that downloads and
//! verifies a snapshot from multiple providers.
//!
//! The consumer fetches the manifest from one provider, then fans segment
//! requests out across *all* known providers in parallel. Every segment is
//! verified against the manifest's Merkle root before it is accepted, so a
//! malicious or corrupt provider can waste bandwidth but never poison the
//! installed state. Failures (timeouts, corrupt data, `NoSnapshot`) are
//! charged to the responsible provider with exponential backoff; a
//! provider that keeps failing is written off, and when every provider is
//! written off the consumer emits [`SyncOutput::Fallback`] so the driver
//! can fall back to full block replay.
//!
//! Like the gossip and raft crates, the consumer performs no I/O: the
//! driver feeds incoming messages via [`Catchup::step`] and clock ticks
//! via [`Catchup::tick`], and executes the returned [`SyncOutput`]s.

use std::collections::HashMap;

use fabric_crypto::Digest;
use fabric_msp::MspRegistry;
use fabric_primitives::ids::ChannelId;
use fabric_primitives::wire::Wire;

use crate::manifest::{Manifest, SyncMessage};

/// Identifier of a snapshot provider — the gossip peer id.
pub type ProviderId = u64;

/// Tuning knobs for the catch-up consumer.
#[derive(Clone, Debug)]
pub struct ConsumerConfig {
    /// Ticks to wait for a response before charging a timeout.
    pub request_timeout: u64,
    /// Cap on a provider's exponential backoff, in ticks.
    pub max_backoff: u64,
    /// Failures before a provider is written off entirely.
    pub max_provider_failures: u32,
    /// Concurrent segment requests allowed per provider.
    pub max_inflight_per_provider: usize,
}

impl Default for ConsumerConfig {
    fn default() -> Self {
        ConsumerConfig {
            request_timeout: 8,
            max_backoff: 64,
            max_provider_failures: 4,
            max_inflight_per_provider: 2,
        }
    }
}

/// Actions the driver must carry out for the consumer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncOutput {
    /// Send a state-transfer message to a provider (over gossip).
    Send {
        /// The provider to contact.
        to: ProviderId,
        /// The request to deliver.
        message: SyncMessage,
    },
    /// Every chunk verified: install the snapshot. The driver passes
    /// `manifest.height/block_hash/last_config` and `entries` to
    /// `Ledger::install_snapshot`, then replays blocks `>= height`
    /// through the ordinary committer pipeline.
    Install {
        /// The verified manifest.
        manifest: Manifest,
        /// The decoded kvstore entries.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// No provider can supply a snapshot; fall back to full block replay.
    Fallback {
        /// Why snapshot transfer was abandoned.
        reason: String,
    },
}

#[derive(Debug)]
struct Provider {
    failures: u32,
    backoff_until: u64,
    inflight: usize,
    dead: bool,
}

impl Provider {
    fn available(&self, now: u64, max_inflight: usize) -> bool {
        !self.dead && self.backoff_until <= now && self.inflight < max_inflight
    }
}

#[derive(Debug)]
enum SlotState {
    Pending,
    Inflight { provider: ProviderId, deadline: u64 },
    Done(Vec<Vec<u8>>),
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    /// Last provider that failed this slot; avoided on the next attempt
    /// so a re-fetch goes to a *different* peer when one exists.
    last_failed: Option<ProviderId>,
}

enum Phase {
    /// Waiting for a manifest from `from`.
    Manifest { from: ProviderId, deadline: u64 },
    /// Downloading segments of the identified snapshot.
    Fetching {
        manifest: Manifest,
        digest: Digest,
        slots: Vec<Slot>,
    },
    /// Terminal: installed or fallen back.
    Finished,
}

/// The catch-up consumer state machine.
pub struct Catchup {
    channel: ChannelId,
    msps: MspRegistry,
    config: ConsumerConfig,
    providers: HashMap<ProviderId, Provider>,
    /// Stable provider iteration order (HashMap order is not deterministic).
    order: Vec<ProviderId>,
    phase: Phase,
    now: u64,
}

impl Catchup {
    /// Creates a consumer over the given snapshot providers.
    ///
    /// `msps` must be the channel's MSP federation (built from the channel
    /// configuration) — it decides which manifest signers are trusted.
    pub fn new(
        channel: ChannelId,
        msps: MspRegistry,
        providers: &[ProviderId],
        config: ConsumerConfig,
    ) -> Self {
        let mut order: Vec<ProviderId> = providers.to_vec();
        order.sort_unstable();
        order.dedup();
        let providers = order
            .iter()
            .map(|&id| {
                (
                    id,
                    Provider {
                        failures: 0,
                        backoff_until: 0,
                        inflight: 0,
                        dead: false,
                    },
                )
            })
            .collect();
        Catchup {
            channel,
            msps,
            config,
            providers,
            order,
            phase: Phase::Finished, // replaced by start()
            now: 0,
        }
    }

    /// Begins the transfer: requests the manifest from the first live
    /// provider. Returns the initial outputs (a `Send`, or `Fallback` if
    /// no providers were given).
    pub fn start(&mut self) -> Vec<SyncOutput> {
        self.request_manifest()
    }

    /// True once the consumer has emitted `Install` or `Fallback`.
    pub fn finished(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    /// Handles a serialized state-transfer message from `from`, as it
    /// arrives off the wire. A payload that does not decode is treated
    /// like any other bad response: it counts against that provider's
    /// failure cap and the affected requests are re-dispatched — a
    /// malformed provider must never panic or wedge the transfer.
    pub fn step_wire(&mut self, from: ProviderId, payload: &[u8]) -> Vec<SyncOutput> {
        if !self.providers.contains_key(&from) {
            return Vec::new(); // unknown sender: ignore
        }
        match SyncMessage::from_wire(payload) {
            Ok(message) => self.step(from, message),
            Err(_) => self.on_malformed(from),
        }
    }

    /// Handles a state-transfer message from `from`.
    pub fn step(&mut self, from: ProviderId, message: SyncMessage) -> Vec<SyncOutput> {
        if !self.providers.contains_key(&from) {
            return Vec::new(); // unknown sender: ignore
        }
        match message {
            SyncMessage::ManifestResponse { manifest } => self.on_manifest(from, manifest),
            SyncMessage::NoSnapshot { channel } => {
                if channel != self.channel {
                    return Vec::new();
                }
                self.on_no_snapshot(from)
            }
            SyncMessage::SegmentResponse {
                manifest,
                segment,
                chunks,
            } => self.on_segment(from, manifest, segment, chunks),
            // Requests are served by SnapshotStore, not the consumer.
            SyncMessage::ManifestRequest { .. } | SyncMessage::SegmentRequest { .. } => Vec::new(),
        }
    }

    /// Advances the clock one tick: expires timed-out requests and
    /// re-dispatches work to providers coming off backoff.
    pub fn tick(&mut self) -> Vec<SyncOutput> {
        self.now += 1;
        let now = self.now;
        match &mut self.phase {
            Phase::Manifest { from, deadline } if *deadline <= now => {
                let from = *from;
                self.charge_failure(from);
                self.request_manifest()
            }
            Phase::Fetching { slots, .. } => {
                let mut timed_out = Vec::new();
                for (index, slot) in slots.iter_mut().enumerate() {
                    if let SlotState::Inflight { provider, deadline } = slot.state {
                        if deadline <= now {
                            slot.state = SlotState::Pending;
                            slot.last_failed = Some(provider);
                            timed_out.push((index, provider));
                        }
                    }
                }
                for &(_, provider) in &timed_out {
                    if let Some(p) = self.providers.get_mut(&provider) {
                        p.inflight = p.inflight.saturating_sub(1);
                    }
                    self.charge_failure(provider);
                }
                self.dispatch()
            }
            _ => Vec::new(),
        }
    }

    /// Requests the manifest from the next usable provider, or gives up.
    fn request_manifest(&mut self) -> Vec<SyncOutput> {
        let candidate = self
            .order
            .iter()
            .copied()
            .find(|id| self.providers[id].available(self.now, usize::MAX));
        match candidate {
            Some(to) => {
                self.phase = Phase::Manifest {
                    from: to,
                    deadline: self.now + self.config.request_timeout,
                };
                vec![SyncOutput::Send {
                    to,
                    message: SyncMessage::ManifestRequest {
                        channel: self.channel.clone(),
                    },
                }]
            }
            None if self.all_dead() => self.fallback("no snapshot provider reachable"),
            // Everyone is backing off; retry on a later tick.
            None => Vec::new(),
        }
    }

    fn on_manifest(&mut self, from: ProviderId, signed: crate::SignedManifest) -> Vec<SyncOutput> {
        if !matches!(self.phase, Phase::Manifest { from: f, .. } if f == from) {
            return Vec::new(); // unsolicited or stale
        }
        if signed.verify(&self.channel, &self.msps).is_err() {
            self.charge_failure(from);
            return self.request_manifest();
        }
        let manifest = signed.manifest;
        let digest = manifest.digest();
        let slots = manifest
            .segments
            .iter()
            .map(|_| Slot {
                state: SlotState::Pending,
                last_failed: None,
            })
            .collect::<Vec<_>>();
        self.phase = Phase::Fetching {
            manifest,
            digest,
            slots,
        };
        self.dispatch()
    }

    /// An undecodable payload from `from`: charge the provider, and put
    /// whatever it was supposed to be answering back in play.
    fn on_malformed(&mut self, from: ProviderId) -> Vec<SyncOutput> {
        self.charge_failure(from);
        if matches!(self.phase, Phase::Manifest { from: f, .. } if f == from) {
            return self.request_manifest();
        }
        if let Phase::Fetching { slots, .. } = &mut self.phase {
            // The provider's in-flight segments are suspect: requeue them
            // now (preferring a different peer) instead of waiting out
            // their timeouts.
            let mut requeued = 0;
            for slot in slots.iter_mut() {
                if matches!(slot.state, SlotState::Inflight { provider, .. } if provider == from) {
                    slot.state = SlotState::Pending;
                    slot.last_failed = Some(from);
                    requeued += 1;
                }
            }
            if requeued > 0 {
                if let Some(p) = self.providers.get_mut(&from) {
                    p.inflight = p.inflight.saturating_sub(requeued);
                }
            }
            return self.dispatch();
        }
        Vec::new()
    }

    fn on_no_snapshot(&mut self, from: ProviderId) -> Vec<SyncOutput> {
        if !matches!(self.phase, Phase::Manifest { from: f, .. } if f == from) {
            return Vec::new();
        }
        // A provider without a snapshot is useless for this transfer:
        // write it off outright rather than retrying it.
        if let Some(p) = self.providers.get_mut(&from) {
            p.dead = true;
        }
        self.request_manifest()
    }

    fn on_segment(
        &mut self,
        from: ProviderId,
        digest: Digest,
        segment: u32,
        chunks: Vec<Vec<u8>>,
    ) -> Vec<SyncOutput> {
        let Phase::Fetching {
            manifest,
            digest: want,
            slots,
        } = &mut self.phase
        else {
            return Vec::new();
        };
        if digest != *want {
            return Vec::new(); // stale response for an older transfer
        }
        let Some(slot) = slots.get_mut(segment as usize) else {
            return Vec::new();
        };
        // Only account a response we actually asked this provider for.
        if !matches!(slot.state, SlotState::Inflight { provider, .. } if provider == from) {
            return Vec::new();
        }
        if let Some(p) = self.providers.get_mut(&from) {
            p.inflight = p.inflight.saturating_sub(1);
        }
        let info = &manifest.segments[segment as usize];
        if info.verify(&chunks) {
            slot.state = SlotState::Done(chunks);
            self.try_finish_or_dispatch()
        } else {
            // Corrupt or missing data: charge the provider and re-fetch
            // the segment, preferring a different peer.
            slot.state = SlotState::Pending;
            slot.last_failed = Some(from);
            self.charge_failure(from);
            self.dispatch()
        }
    }

    /// Installs if every segment is done, otherwise keeps dispatching.
    fn try_finish_or_dispatch(&mut self) -> Vec<SyncOutput> {
        let Phase::Fetching { slots, .. } = &self.phase else {
            return Vec::new();
        };
        if !slots.iter().all(|s| matches!(s.state, SlotState::Done(_))) {
            return self.dispatch();
        }
        let Phase::Fetching {
            manifest, slots, ..
        } = std::mem::replace(&mut self.phase, Phase::Finished)
        else {
            return Vec::new();
        };
        let segments: Vec<Vec<Vec<u8>>> = slots
            .into_iter()
            .filter_map(|slot| match slot.state {
                SlotState::Done(chunks) => Some(chunks),
                _ => None,
            })
            .collect();
        match crate::snapshot::decode_entries(&manifest, &segments) {
            Ok(entries) => vec![SyncOutput::Install { manifest, entries }],
            // Every chunk matched its Merkle root yet the stream does not
            // decode: the manifest itself was built over garbage. Nothing
            // to re-fetch — replay blocks instead.
            Err(e) => vec![SyncOutput::Fallback {
                reason: format!("verified snapshot failed to decode: {e}"),
            }],
        }
    }

    /// Assigns pending segments to available providers, spreading load
    /// round-robin and skipping each slot's last failed provider when any
    /// alternative exists.
    fn dispatch(&mut self) -> Vec<SyncOutput> {
        let now = self.now;
        let max_inflight = self.config.max_inflight_per_provider;
        let deadline = now + self.config.request_timeout;
        let Phase::Fetching { digest, slots, .. } = &mut self.phase else {
            return Vec::new();
        };
        let digest = *digest;
        let mut outputs = Vec::new();
        let mut progress = true;
        while progress {
            progress = false;
            for (index, slot) in slots.iter_mut().enumerate() {
                if !matches!(slot.state, SlotState::Pending) {
                    continue;
                }
                // Least-loaded available provider, preferring any peer
                // other than the one that just failed this slot; fall
                // back to it only if it is the only one left.
                let mut preferred: Option<(usize, ProviderId)> = None;
                let mut any: Option<(usize, ProviderId)> = None;
                for &id in &self.order {
                    let p = &self.providers[&id];
                    if !p.available(now, max_inflight) {
                        continue;
                    }
                    if any.is_none_or(|(load, _)| p.inflight < load) {
                        any = Some((p.inflight, id));
                    }
                    if Some(id) != slot.last_failed
                        && preferred.is_none_or(|(load, _)| p.inflight < load)
                    {
                        preferred = Some((p.inflight, id));
                    }
                }
                let Some((_, provider)) = preferred.or(any) else {
                    continue;
                };
                let Some(p) = self.providers.get_mut(&provider) else {
                    continue; // provider set never shrinks, but never panic
                };
                p.inflight += 1;
                slot.state = SlotState::Inflight { provider, deadline };
                outputs.push(SyncOutput::Send {
                    to: provider,
                    message: SyncMessage::SegmentRequest {
                        manifest: digest,
                        segment: index as u32,
                    },
                });
                progress = true;
            }
        }
        if outputs.is_empty()
            && slots
                .iter()
                .any(|s| matches!(s.state, SlotState::Pending | SlotState::Inflight { .. }))
            && self.all_dead()
        {
            return self.fallback("all snapshot providers failed");
        }
        outputs
    }

    /// Records a failure for `provider`: exponential backoff, and a
    /// write-off once the failure budget is spent.
    fn charge_failure(&mut self, provider: ProviderId) {
        let max_failures = self.config.max_provider_failures;
        let max_backoff = self.config.max_backoff;
        let now = self.now;
        let Some(p) = self.providers.get_mut(&provider) else {
            return;
        };
        p.failures += 1;
        if p.failures >= max_failures {
            p.dead = true;
            return;
        }
        let backoff = (1u64 << p.failures.min(16)).min(max_backoff);
        p.backoff_until = now + backoff;
    }

    fn all_dead(&self) -> bool {
        self.providers.values().all(|p| p.dead)
    }

    fn fallback(&mut self, reason: &str) -> Vec<SyncOutput> {
        self.phase = Phase::Finished;
        vec![SyncOutput::Fallback {
            reason: reason.to_string(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A malformed (undecodable) provider payload must count against that
    /// provider's failure cap and eventually write it off — never panic.
    #[test]
    fn malformed_payload_counts_against_failure_cap() {
        let mut consumer = Catchup::new(
            ChannelId::new("ch"),
            MspRegistry::new(),
            &[7],
            ConsumerConfig {
                request_timeout: 2,
                max_backoff: 2,
                max_provider_failures: 2,
                max_inflight_per_provider: 1,
            },
        );
        let outputs = consumer.start();
        assert!(matches!(outputs[0], SyncOutput::Send { to: 7, .. }));

        // First garbage response: charged and backed off, transfer alive.
        assert!(consumer.step_wire(7, b"\xffgarbage").is_empty());
        assert!(!consumer.finished());

        // Keep answering every retry with garbage: the lone provider
        // exhausts its failure budget and the consumer falls back.
        let mut saw_fallback = false;
        'drive: for _ in 0..32 {
            for output in consumer.tick() {
                match output {
                    SyncOutput::Send { to, .. } => {
                        for retry in consumer.step_wire(to, b"\xffgarbage") {
                            if matches!(retry, SyncOutput::Fallback { .. }) {
                                saw_fallback = true;
                            }
                        }
                    }
                    SyncOutput::Fallback { .. } => saw_fallback = true,
                    SyncOutput::Install { .. } => unreachable!("nothing was served"),
                }
            }
            if saw_fallback {
                break 'drive;
            }
        }
        assert!(saw_fallback, "provider never written off");
        assert!(consumer.finished());
    }

    /// Garbage from a peer the consumer never heard of is ignored.
    #[test]
    fn malformed_payload_from_unknown_sender_ignored() {
        let mut consumer = Catchup::new(
            ChannelId::new("ch"),
            MspRegistry::new(),
            &[7],
            ConsumerConfig::default(),
        );
        let _ = consumer.start();
        assert!(consumer.step_wire(99, b"\xffgarbage").is_empty());
        assert!(!consumer.finished());
    }
}
