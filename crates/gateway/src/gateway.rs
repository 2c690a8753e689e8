//! The ordering-side gateway: admission → bounded mempool → batched
//! drain into the ordering service, with backpressure propagated to
//! submitters as explicit `RetryAfter` verdicts.

use fabric_ordering::OrderingCluster;
use fabric_primitives::ids::TxId;
use fabric_primitives::transaction::{Envelope, EnvelopeContent};

use crate::admission::{Admission, Gate};
use crate::mempool::{Mempool, PoolEntry};

/// Gateway construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Per-client admission rate (transactions per second); `0` disables
    /// rate limiting.
    pub client_rate_per_sec: u64,
    /// Token-bucket burst (whole tokens).
    pub client_burst: u64,
    /// Transaction ids remembered by the dedup LRU.
    pub dedup_capacity: usize,
    /// Mempool bound; beyond it admission evicts by fee/age or sheds.
    pub mempool_capacity: usize,
    /// Largest batch one [`Gateway::drain_into`] hands to
    /// `broadcast_batch`.
    pub drain_max: usize,
    /// Mempool fill (percent of capacity) beyond which admission sheds
    /// with [`ShedReason::Overloaded`] while the downstream commit path
    /// reports zero credits — the end-to-end backpressure trip point.
    pub shed_watermark_pct: u32,
    /// Base retry hint for overload and fee rejections (scaled up with
    /// mempool fill).
    pub retry_after_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            client_rate_per_sec: 0,
            client_burst: 32,
            dedup_capacity: 4096,
            mempool_capacity: 4096,
            drain_max: 256,
            shed_watermark_pct: 50,
            retry_after_ms: 20,
        }
    }
}

/// Why a submission was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The client's token bucket is empty.
    RateLimited,
    /// The mempool is full and the fee does not beat the eviction
    /// victim's.
    FeeTooLow,
    /// The commit path reports no credits and the mempool is past the
    /// shed watermark (end-to-end backpressure).
    Overloaded,
}

/// Admission verdict for one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Queued; it will be dispatched in admission order.
    Admitted,
    /// Already seen (queued, dispatched, or recently admitted) — dropped
    /// before any signature verification.
    Duplicate,
    /// Shed; the client should retry after `after_ms` milliseconds.
    RetryAfter { reason: ShedReason, after_ms: u64 },
}

/// Gateway counters (batteries assert on these instead of sleeping).
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayStats {
    /// Submissions received.
    pub submitted: u64,
    /// Submissions admitted into the mempool.
    pub admitted: u64,
    /// Duplicates dropped by the LRU window.
    pub duplicates: u64,
    /// Submissions shed by per-client rate limiting.
    pub rate_limited: u64,
    /// Submissions shed by the backpressure watermark.
    pub overload_shed: u64,
    /// Submissions shed because their fee did not beat the victim's.
    pub fee_rejected: u64,
    /// Queued transactions evicted to admit a higher-fee newcomer.
    pub evicted: u64,
    /// Total `RetryAfter` verdicts issued.
    pub retry_after_issued: u64,
    /// Transactions handed to the ordering service and accepted.
    pub dispatched: u64,
    /// Drain batches broadcast.
    pub drain_batches: u64,
    /// Drains that stood down (no credits, or no live orderer).
    pub drain_stalls: u64,
    /// Drains that switched away from a dead preferred orderer.
    pub failovers: u64,
    /// Transactions the ordering service rejected (permanent verdicts;
    /// the gateway drops them rather than retrying forever).
    pub broadcast_rejected: u64,
}

/// What one [`Gateway::drain_into`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainReport {
    /// Transactions accepted by the ordering service.
    pub dispatched: usize,
    /// Transactions the ordering service rejected permanently.
    pub rejected: usize,
    /// The drain stood down: zero downstream credits or no live OSN.
    /// Queued transactions were kept, not lost.
    pub stalled: bool,
    /// The OSN the batch went through, if any.
    pub osn: Option<usize>,
}

/// The ordering-side gateway. See the crate docs for the admission state
/// machine; all timing comes from the caller's `now_ms`.
pub struct Gateway {
    config: GatewayConfig,
    admission: Admission,
    pool: Mempool,
    /// Last downstream credit report; `None` means no report yet (treated
    /// as headroom — backpressure engages only on an explicit zero).
    credits: Option<u64>,
    /// Sticky ordering entry point; drains fail over off it when down.
    preferred_osn: usize,
    stats: GatewayStats,
}

impl Gateway {
    /// Builds a gateway.
    pub fn new(config: GatewayConfig) -> Self {
        Gateway {
            admission: Admission::new(
                config.client_rate_per_sec,
                config.client_burst,
                config.dedup_capacity,
            ),
            pool: Mempool::new(config.mempool_capacity),
            credits: None,
            preferred_osn: 0,
            stats: GatewayStats::default(),
            config,
        }
    }

    /// The construction knobs.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Per-client rate-limit buckets currently held (a bounded gauge:
    /// buckets that refilled to their burst are pruned).
    pub fn tracked_clients(&self) -> usize {
        self.admission.tracked_clients()
    }

    /// Queued (admitted, undispatched) transaction count.
    pub fn mempool_len(&self) -> usize {
        self.pool.len()
    }

    /// Queued transaction ids in dispatch order.
    pub fn mempool_tx_ids(&self) -> Vec<TxId> {
        self.pool.tx_ids()
    }

    /// Reports the commit path's remaining deliver credits
    /// (`DeliverMux::credits`). Zero pauses draining; combined with a
    /// mempool past the watermark it also sheds new admissions — the
    /// whole backpressure chain from committer to submitter.
    pub fn report_downstream(&mut self, credits: u64) {
        self.credits = Some(credits);
    }

    /// Overrides the sticky ordering entry point.
    pub fn set_preferred_osn(&mut self, osn: usize) {
        self.preferred_osn = osn;
    }

    /// The client key a submission is rate-limited under: the creator
    /// certificate for transactions, a fixed key for config updates.
    fn client_key(envelope: &Envelope) -> Vec<u8> {
        match &envelope.content {
            EnvelopeContent::Transaction(tx) => tx.creator.cert_bytes.clone(),
            EnvelopeContent::Config(_) => b"#config".to_vec(),
        }
    }

    /// Retry hint for overload/fee sheds: the base grows with mempool
    /// fill, so a fuller pool pushes retries further out.
    fn overload_hint(&self) -> u64 {
        let base = self.config.retry_after_ms.max(1);
        base + base * self.pool.len() as u64 / self.pool.capacity() as u64
    }

    /// Admission: dedup → rate limit → backpressure watermark → mempool
    /// bound (fee/age eviction) → queue. The checks run cheapest-first,
    /// and nothing is verified cryptographically here — rejected work
    /// costs one hash lookup.
    pub fn submit(&mut self, envelope: Envelope, fee: u64, now_ms: u64) -> Admit {
        self.stats.submitted += 1;
        let tx_id = envelope.tx_id();
        let client = Self::client_key(&envelope);
        match self.admission.check(&tx_id, &client, now_ms) {
            Gate::Duplicate => {
                self.stats.duplicates += 1;
                return Admit::Duplicate;
            }
            Gate::Limited { after_ms } => {
                self.stats.rate_limited += 1;
                self.stats.retry_after_issued += 1;
                return Admit::RetryAfter { reason: ShedReason::RateLimited, after_ms };
            }
            Gate::Pass => {}
        }
        // End-to-end backpressure: committers report zero credits and the
        // mempool is past the watermark — shed at the edge.
        if self.credits == Some(0)
            && self.pool.len() * 100 >= self.pool.capacity() * self.config.shed_watermark_pct as usize
        {
            self.stats.overload_shed += 1;
            self.stats.retry_after_issued += 1;
            return Admit::RetryAfter {
                reason: ShedReason::Overloaded,
                after_ms: self.overload_hint(),
            };
        }
        if self.pool.is_full() {
            // Overflow: the newcomer must strictly beat the victim
            // (lowest fee, oldest among equals) or be shed itself.
            let victim_fee = self.pool.victim_fee().expect("full pool has a victim");
            if fee <= victim_fee {
                self.stats.fee_rejected += 1;
                self.stats.retry_after_issued += 1;
                return Admit::RetryAfter {
                    reason: ShedReason::FeeTooLow,
                    after_ms: self.overload_hint(),
                };
            }
            let victim = self.pool.evict_victim().expect("full pool has a victim");
            // Hand the dedup slot back: the evicted transaction may be
            // legitimately resubmitted (it was never dispatched).
            self.admission.dedup.remove(&victim.tx_id);
            self.stats.evicted += 1;
        }
        self.admission.commit(tx_id, &client, now_ms);
        self.pool.push(PoolEntry { envelope, tx_id, fee });
        self.stats.admitted += 1;
        Admit::Admitted
    }

    /// Drains up to `drain_max` queued transactions into the ordering
    /// service as one `broadcast_batch`, in strict admission order.
    ///
    /// Entries leave the mempool only after a live OSN is resolved: if
    /// the preferred OSN is down the drain fails over to the next live
    /// one, and if none is live (or the commit path reports zero
    /// credits) everything stays queued, nothing lost. Per-envelope
    /// rejections from the ordering service are permanent verdicts
    /// (identity, size, access) and are dropped with a counter rather
    /// than retried forever.
    pub fn drain_into(&mut self, ordering: &mut OrderingCluster) -> DrainReport {
        let mut report = DrainReport::default();
        if self.pool.is_empty() {
            return report;
        }
        if self.credits == Some(0) {
            self.stats.drain_stalls += 1;
            report.stalled = true;
            return report;
        }
        let Some(entry_osn) = ordering.live_entry(self.preferred_osn) else {
            self.stats.drain_stalls += 1;
            report.stalled = true;
            return report;
        };
        if entry_osn != self.preferred_osn {
            self.stats.failovers += 1;
            self.preferred_osn = entry_osn;
        }
        let batch = self.pool.take_front(self.config.drain_max);
        let envelopes: Vec<Envelope> = batch.into_iter().map(|e| e.envelope).collect();
        let verdicts = ordering.broadcast_batch_via(entry_osn, envelopes);
        self.stats.drain_batches += 1;
        report.osn = Some(entry_osn);
        for verdict in verdicts {
            match verdict {
                Ok(()) => {
                    self.stats.dispatched += 1;
                    report.dispatched += 1;
                }
                Err(_) => {
                    self.stats.broadcast_rejected += 1;
                    report.rejected += 1;
                    // The id stays in the dedup window: resubmitting the
                    // same bytes would only be rejected again.
                }
            }
        }
        report
    }

    /// Drains repeatedly until the mempool is empty or a drain stalls.
    /// Returns the total dispatched.
    pub fn drain_all(&mut self, ordering: &mut OrderingCluster) -> usize {
        let mut dispatched = 0;
        while !self.pool.is_empty() {
            let report = self.drain_into(ordering);
            dispatched += report.dispatched;
            if report.stalled {
                break;
            }
        }
        dispatched
    }
}
