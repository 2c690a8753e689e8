//! Cross-block pipelined committer (paper Sec. 5.2's "validation
//! pipelining" direction), generalised to many channels. This is the
//! production commit path: [`crate::DeliverMux`] owns the shared VSCC
//! pool and one [`PipelineHandle`] per attached channel, and it is the
//! only way to start one. [`crate::Peer::commit_block`] is the
//! sequential reference these pipelines are tested against.
//!
//! The sequential committer processes one block at a time: VSCC →
//! rw-check → ledger append, then the next block. Since VSCC is by far the
//! dominant stage (endorsement-policy ECDSA verification) and the other
//! two are strictly sequential, the peer's cores idle during every
//! rw-check and ledger write. This module overlaps blocks across stages
//! *and* channels — channels are the paper's unit of parallelism
//! (Sec. 3.1), so one peer may run a pipeline per channel, all feeding a
//! single shared worker pool:
//!
//! ```text
//!  channel A ──▶ admitter A ──┐  tasks   ┌───────────────┐   ┌─▶ sequencer A ─▶ events
//!                              ├────────▶│ shared VSCC    │───┤
//!  channel B ──▶ admitter B ──┘ (per tx) │ worker pool    │   └─▶ sequencer B ─▶ events
//!                                        └───────────────┘
//! ```
//!
//! * Each channel's **admitter** accepts delivered blocks in strict
//!   order, verifies block integrity, and decides when block *n+1*'s VSCC
//!   may start while block *n* is still in rw-check/append (see the
//!   ordering invariants below). It dispatches one pool task per
//!   transaction of each admitted block.
//! * The **VSCC worker pool** ([`vscc_pool`]) is persistent and
//!   global: workers pull transactions from *any* admitted block of *any*
//!   attached channel, so a slow or barrier-stalled channel never idles
//!   the cores serving the others. Which channel's transaction a freed
//!   worker picks is decided by the pool's round-robin [`Scheduler`]:
//!   each channel keeps its own task queue and is served up to
//!   `DRR_QUANTUM` transactions per turn, so a channel behind a sibling's
//!   256-block backlog is served within one round instead of behind the
//!   whole backlog.
//! * Each channel's **sequencer** restores strict block order with a
//!   reorder buffer and runs the stages that must stay sequential, once
//!   per block at its turn: MVCC rw-check, metadata flags, ledger append
//!   (savepoint), and config view updates.
//!
//! # Ordering invariants
//!
//! Commit order, MVCC version semantics, and savepoint recovery are
//! byte-identical to the sequential path because, per channel:
//!
//! 1. Blocks commit strictly in block-number order (reorder buffer), and
//!    the rw-check for block *n* runs at its turn, after block *n − 1*'s
//!    append — against exactly the state the sequential path would see.
//! 2. VSCC for block *n* may overlap earlier blocks only when its reads
//!    cannot observe their effects:
//!    * **Config blocks** and blocks writing the LSCC namespace are full
//!      barriers (the default VSCC reads chaincode definitions from LSCC,
//!      and config commits swap the channel view).
//!    * For chaincodes with a **custom VSCC** (which may read committed
//!      state, e.g. Fabcoin's input coins), the admitter consults the
//!      channel's *conflict index* — a multiset of every key an in-flight
//!      block still intends to write. The block stalls only while a key
//!      in its declared read set (or inside one of its range queries) is
//!      in-flight, and it is released as soon as the conflicting *keys*
//!      retire — when their transaction turns VSCC-invalid, or when its
//!      writes land in the ledger append — rather than waiting for the
//!      whole predecessor block. Custom VSCCs must only read keys
//!      declared in the transaction's rw-set — Fabcoin complies (spent
//!      coins appear as read-and-deleted keys).
//! 3. The savepoint advances only inside the ordered ledger append, so a
//!    crash with blocks still queued in the pipeline recovers exactly as
//!    if those blocks had never been delivered.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use fabric_chaincode::LSCC_NAMESPACE;
use fabric_ledger::Ledger;
use fabric_primitives::block::Block;
use fabric_primitives::flow::{Pool, Scheduler};
use fabric_primitives::ids::TxValidationCode;
use fabric_primitives::transaction::EnvelopeContent;

use crate::committer::{Committer, ValidationTiming};
use crate::PeerError;

/// Per-channel pipeline knobs, given to [`crate::DeliverMux::attach`]
/// (the mux's pool width is fixed by [`crate::DeliverMux::new`]).
#[derive(Clone, Copy, Debug)]
pub struct PipelineOptions {
    /// Deliver credit window ([`crate::DeliverMux`]): how many blocks may
    /// be in flight (submitted but not committed) before the mux parks
    /// further deliveries and reports zero credits to gossip. Clamped to
    /// ≥ 1. The pipeline's intake queue is bounded by the same window, so
    /// a submit under credits never finds it full.
    pub deliver_credits: usize,
    /// How many blocks ahead of the channel head the mux parks
    /// out-of-order deliveries for in-order re-admission (gossip pushes
    /// racing pulls); beyond the window a delivery is refused as
    /// saturated. Clamped to ≥ 1.
    pub park_window: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            deliver_credits: 32,
            park_window: 32,
        }
    }
}

/// One committed block, emitted by the pipeline in strict block order.
#[derive(Clone, Debug)]
pub struct CommitEvent {
    /// The committed block's number.
    pub block_num: u64,
    /// Per-transaction validity mask (same as the sequential path).
    pub validity: Vec<TxValidationCode>,
    /// Per-stage wall-clock durations for this block.
    pub timing: ValidationTiming,
    /// When the ledger append completed (for end-to-end latency).
    pub committed_at: Instant,
}

/// Reservoir size bounding a [`StageHistogram`]'s memory; count, mean,
/// and max stay exact, percentiles are estimated over the reservoir.
const HISTOGRAM_RESERVOIR: usize = 4096;

/// Latency samples for one pipeline stage (Table 1 columns).
///
/// Memory-bounded: exact count/mean/max plus a fixed-size uniform sample
/// (Vitter's algorithm R) for the percentile estimates, so a long-running
/// peer does not grow a sample per block per stage forever.
#[derive(Clone, Debug)]
pub struct StageHistogram {
    count: u64,
    sum_us: u64,
    max_us: u64,
    samples_us: Vec<u64>,
    rng: u64,
}

impl Default for StageHistogram {
    fn default() -> Self {
        StageHistogram {
            count: 0,
            sum_us: 0,
            max_us: 0,
            samples_us: Vec::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl StageHistogram {
    fn record(&mut self, d: Duration) {
        let us = d.as_micros() as u64;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
        if self.samples_us.len() < HISTOGRAM_RESERVOIR {
            self.samples_us.push(us);
        } else {
            // Algorithm R keeps each of the `count` samples in the
            // reservoir with equal probability `RESERVOIR / count`.
            let slot = self.next_rand() % self.count;
            if (slot as usize) < HISTOGRAM_RESERVOIR {
                self.samples_us[slot as usize] = us;
            }
        }
    }

    /// Deterministic xorshift64* — statistics must not perturb test
    /// reproducibility with OS entropy.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Number of recorded samples (exact, not the reservoir size).
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Mean latency (exact over all recorded samples).
    pub fn avg(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_us / self.count)
    }

    /// Latency at percentile `p` (0.0–100.0), nearest-rank over the
    /// retained reservoir.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.samples_us.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Duration::from_micros(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// The avg/p99/p99.9 summary the Table 1 harness prints.
    pub fn summary(&self) -> StageSummary {
        StageSummary {
            count: self.count(),
            avg: self.avg(),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: Duration::from_micros(self.max_us),
        }
    }
}

/// Condensed per-stage latency statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSummary {
    /// Number of blocks measured.
    pub count: usize,
    /// Mean latency.
    pub avg: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Worst observed.
    pub max: Duration,
}

/// Peak queue depths observed while the pipeline ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueGauges {
    /// Intake queue (delivered blocks waiting for admission).
    pub intake_peak: usize,
    /// This channel's task queue (one task per transaction) in the pool's
    /// cross-channel scheduler (deepest it ever got right after a
    /// dispatch).
    pub vscc_tasks_peak: usize,
    /// Sequencer reorder buffer (VSCC-done blocks awaiting their turn).
    pub reorder_peak: usize,
    /// Blocks the admitter stalled on a read/write or barrier dependency.
    pub dependency_stalls: usize,
    /// Always 0: the sequencer runs each rw-check once, at the block's
    /// turn, and never speculates. Kept only because the system
    /// benchmark still reports `peer.spec_rw_hit_ratio` from it.
    pub spec_hits: usize,
    /// Always 0, like [`QueueGauges::spec_hits`].
    pub spec_misses: usize,
}

/// Aggregate statistics for one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Blocks committed.
    pub blocks: u64,
    /// Transactions committed (valid or not).
    pub txs: u64,
    /// Stage 1 (parallel VSCC) latency per block.
    pub vscc: StageHistogram,
    /// Stage 2 (sequential rw-check) latency per block.
    pub rw_check: StageHistogram,
    /// Stage 3 (ledger append) latency per block.
    pub ledger: StageHistogram,
    /// Whole-validation latency per block.
    pub total: StageHistogram,
    /// Peak queue depths.
    pub queues: QueueGauges,
}

/// The channel's in-flight write footprint, as the admitter's stall rules
/// see it: every key some dispatched-but-unretired transaction intends to
/// write, as a multiset (several in-flight txs may write one key).
#[derive(Default)]
struct ConflictState {
    keys: HashMap<(String, String), u32>,
    /// Dispatched blocks not yet fully committed.
    inflight_blocks: usize,
    /// In-flight blocks that are full barriers (config / LSCC writers).
    barriers: usize,
}

/// State shared by one channel's pipeline threads and its handle.
struct Shared {
    committer: Committer,
    ledger: Arc<Ledger>,
    /// Ledger height committed by the pipeline (blocks `0..watermark`).
    watermark: Mutex<u64>,
    watermark_cv: Condvar,
    /// Set on error or abort; no further blocks will commit.
    stopped: AtomicBool,
    error: Mutex<Option<PeerError>>,
    stats: Mutex<PipelineStats>,
    /// Conflict index of in-flight written keys (key-level stalls).
    conflicts: Mutex<ConflictState>,
    conflicts_cv: Condvar,
}

impl Shared {
    fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Records the first error and halts the pipeline.
    fn fail(&self, err: PeerError) {
        {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.halt();
    }

    fn halt(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        {
            let _height = self.watermark.lock();
        }
        self.watermark_cv.notify_all();
        {
            let _conflicts = self.conflicts.lock();
        }
        self.conflicts_cv.notify_all();
    }

    fn advance(&self, height: u64) {
        *self.watermark.lock() = height;
        self.watermark_cv.notify_all();
    }

    /// Enters a dispatched block into the conflict index.
    fn register_block(&self, barrier: bool, tx_writes: &[Vec<(String, String)>]) {
        let mut conflicts = self.conflicts.lock();
        conflicts.inflight_blocks += 1;
        if barrier {
            conflicts.barriers += 1;
        }
        for key in tx_writes.iter().flatten() {
            *conflicts.keys.entry(key.clone()).or_insert(0) += 1;
        }
    }

    /// Retires in-flight written keys (a tx turned VSCC-invalid, or its
    /// writes landed in the ledger) and wakes key-stalled admitters.
    fn release_keys(&self, keys: &[(String, String)]) {
        if keys.is_empty() {
            return;
        }
        {
            let mut conflicts = self.conflicts.lock();
            for key in keys {
                if let Some(count) = conflicts.keys.get_mut(key) {
                    *count -= 1;
                    if *count == 0 {
                        conflicts.keys.remove(key);
                    }
                }
            }
        }
        self.conflicts_cv.notify_all();
    }

    /// Retires a fully committed block from the conflict index.
    fn finish_block(&self, barrier: bool) {
        {
            let mut conflicts = self.conflicts.lock();
            conflicts.inflight_blocks -= 1;
            if barrier {
                conflicts.barriers -= 1;
            }
        }
        self.conflicts_cv.notify_all();
    }
}

/// Per-block VSCC work unit shared by the pool's transaction tasks.
/// Carries its channel context (`shared`, `done`) so pool workers can
/// serve any attached channel.
struct VsccJob {
    shared: Arc<Shared>,
    done: Sender<CompletedVscc>,
    block: Arc<Block>,
    flags: Mutex<Vec<TxValidationCode>>,
    /// Per-envelope `(namespace, key)` write sets, indexed like
    /// `block.envelopes` (empty for non-transaction envelopes) — the
    /// conflict-index entries this block is responsible for retiring.
    tx_writes: Vec<Vec<(String, String)>>,
    /// Whether this block was registered as a barrier.
    barrier: bool,
    /// Transaction tasks not yet finished; the last finisher forwards the
    /// job.
    remaining: AtomicUsize,
    dispatched: Instant,
}

/// One envelope of a block, for a pool worker.
pub(crate) struct VsccTask {
    job: Arc<VsccJob>,
    index: usize,
}

/// A block whose VSCC stage finished (possibly out of order).
struct CompletedVscc {
    job: Arc<VsccJob>,
    vscc: Duration,
}

/// Read/write footprint of a block, as the admitter's stall rules see it.
struct BlockProfile {
    /// This block must not overlap anything (config / LSCC writer).
    barrier: bool,
    /// Per-envelope write sets (see [`VsccJob::tx_writes`]).
    tx_writes: Vec<Vec<(String, String)>>,
    /// Keys read by transactions validated by a state-reading custom VSCC.
    custom_reads: HashSet<(String, String)>,
    /// `(namespace, start, end)` ranges read by custom-VSCC transactions.
    custom_ranges: Vec<(String, String, String)>,
}

impl BlockProfile {
    fn analyze(block: &Block, committer: &Committer) -> Self {
        let mut profile = BlockProfile {
            barrier: block.is_config_block(),
            tx_writes: Vec::with_capacity(block.envelopes.len()),
            custom_reads: HashSet::new(),
            custom_ranges: Vec::new(),
        };
        for envelope in &block.envelopes {
            let EnvelopeContent::Transaction(tx) = &envelope.content else {
                profile.barrier = true;
                profile.tx_writes.push(Vec::new());
                continue;
            };
            let custom = committer.has_custom_vscc(&tx.response_payload.chaincode.name);
            let mut writes = Vec::new();
            for ns in &tx.response_payload.rwset.ns_rwsets {
                if ns.namespace == LSCC_NAMESPACE && !ns.writes.is_empty() {
                    profile.barrier = true;
                }
                for write in &ns.writes {
                    writes.push((ns.namespace.clone(), write.key.clone()));
                }
                if custom {
                    for read in &ns.reads {
                        profile
                            .custom_reads
                            .insert((ns.namespace.clone(), read.key.clone()));
                    }
                    for query in &ns.range_queries {
                        profile.custom_ranges.push((
                            ns.namespace.clone(),
                            query.start_key.clone(),
                            query.end_key.clone(),
                        ));
                    }
                }
            }
            profile.tx_writes.push(writes);
        }
        profile
    }

    /// Would this block's custom-VSCC reads observe any in-flight key?
    fn conflicts_with(&self, inflight: &HashMap<(String, String), u32>) -> bool {
        if self
            .custom_reads
            .iter()
            .any(|key| inflight.contains_key(key))
        {
            return true;
        }
        if self.custom_ranges.is_empty() {
            return false;
        }
        inflight.keys().any(|(ns, key)| {
            self.custom_ranges.iter().any(|(qns, start, end)| {
                qns == ns
                    && key.as_str() >= start.as_str()
                    && (end.is_empty() || key.as_str() < end.as_str())
            })
        })
    }
}

/// The global persistent VSCC worker pool a [`crate::DeliverMux`] owns:
/// `width` workers (at least one) shared by every attached channel.
///
/// Freed workers pick their next transaction through the pool's
/// cross-channel round-robin [`Scheduler`], so one channel's backlog
/// cannot monopolize the pool. Close (or drop) the pool only after
/// closing every attached [`PipelineHandle`]: closing first abandons the
/// channels' queued transactions mid-block.
pub(crate) fn vscc_pool(width: usize) -> Pool<VsccTask> {
    Pool::new("vscc-worker", width.max(1), validate_tx, finish_tx)
}

impl PipelineHandle {
    /// Starts one channel's pipeline over `ledger`, attached to `pool`:
    /// only the admitter and sequencer threads are spawned here, VSCC
    /// tasks go to the pool. While it runs, no other code path may
    /// commit to the same ledger.
    pub(crate) fn start(
        pool: &Pool<VsccTask>,
        committer: &Committer,
        ledger: Arc<Ledger>,
        opts: PipelineOptions,
    ) -> PipelineHandle {
        let start_height = ledger.height();
        let shared = Arc::new(Shared {
            committer: committer.clone(),
            ledger,
            watermark: Mutex::new(start_height),
            watermark_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            error: Mutex::new(None),
            stats: Mutex::new(PipelineStats::default()),
            conflicts: Mutex::new(ConflictState::default()),
            conflicts_cv: Condvar::new(),
        });

        let (intake_tx, intake_rx) = bounded::<Block>(opts.deliver_credits.max(1));
        let sched = pool.scheduler().clone();
        let slot = sched.register();
        let (done_tx, done_rx) = unbounded::<CompletedVscc>();
        let (event_tx, event_rx) = unbounded::<CommitEvent>();

        let mut threads = Vec::with_capacity(2);
        {
            let shared = shared.clone();
            let sched = sched.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("commit-admitter".into())
                    .spawn(move || {
                        admitter(&shared, &intake_rx, (&sched, slot), &done_tx, start_height)
                    })
                    .expect("spawn admitter"),
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("commit-sequencer".into())
                    .spawn(move || sequencer(&shared, &done_rx, &event_tx, start_height))
                    .expect("spawn sequencer"),
            );
        }

        PipelineHandle {
            shared,
            intake: Some(intake_tx),
            events: event_rx,
            threads,
            sched: Some((sched, slot)),
        }
    }
}

/// Pool job, first half: validate one transaction of any admitted block
/// of any channel, in the order the pool's scheduler hands them out.
fn validate_tx(task: &VsccTask) {
    let job = &task.job;
    let shared = &job.shared;
    if !shared.is_stopped() {
        let envelope = &job.block.envelopes[task.index];
        let flag = shared.committer.validate_envelope(&shared.ledger, envelope);
        job.flags.lock()[task.index] = flag;
    }
}

/// Pool job, second half: account for the finished transaction, whether
/// it validated or panicked.
fn finish_tx(task: VsccTask, outcome: std::thread::Result<()>) {
    let job = &task.job;
    let shared = &job.shared;
    if outcome.is_err() {
        // The sequential committer would propagate a panicking (custom)
        // VSCC to its caller. Here the caller waits on the watermark, so
        // stop the channel with an error instead of leaving it waiting
        // for a block that will never commit.
        shared.fail(PeerError::BadBlock(format!(
            "VSCC panicked validating block {}",
            job.block.header.number
        )));
    }
    // The last task to finish retires invalid txs' in-flight keys —
    // their writes will never land, so key-stalled readers may go —
    // and forwards the block to its channel's sequencer.
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        if !shared.is_stopped() {
            let freed: Vec<(String, String)> = {
                let flags = job.flags.lock();
                flags
                    .iter()
                    .enumerate()
                    .filter(|(_, flag)| **flag != TxValidationCode::Valid)
                    .flat_map(|(i, _)| job.tx_writes[i].iter().cloned())
                    .collect()
            };
            shared.release_keys(&freed);
        }
        let vscc = job.dispatched.elapsed();
        let _ = job.done.send(CompletedVscc {
            job: task.job.clone(),
            vscc,
        });
    }
}

/// Admission thread: order check, dependency stalls, per-tx dispatch.
/// `(sched, slot)` is the channel's registered queue in the shared
/// pool's cross-channel scheduler.
fn admitter(
    shared: &Arc<Shared>,
    intake: &Receiver<Block>,
    (sched, slot): (&Scheduler<VsccTask>, u64),
    done: &Sender<CompletedVscc>,
    mut next_expected: u64,
) {
    'accept: while let Ok(block) = intake.recv() {
        if shared.is_stopped() {
            return;
        }
        if block.header.number != next_expected {
            shared.fail(PeerError::BadBlock(format!(
                "pipeline expected block {next_expected}, got {}",
                block.header.number
            )));
            return;
        }
        next_expected += 1;

        let profile = BlockProfile::analyze(&block, &shared.committer);

        // Stall until no in-flight (dispatched, unretired) write can be
        // observed by this block's VSCC reads: consult the conflict index
        // and resume as soon as the conflicting keys retire.
        {
            let mut stalled = false;
            let mut conflicts = shared.conflicts.lock();
            loop {
                if shared.is_stopped() {
                    return;
                }
                let conflict = conflicts.barriers > 0
                    || (profile.barrier && conflicts.inflight_blocks > 0)
                    || profile.conflicts_with(&conflicts.keys);
                if !conflict {
                    break;
                }
                stalled = true;
                conflicts = shared
                    .conflicts_cv
                    .wait(conflicts)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            if stalled {
                shared.stats.lock().queues.dependency_stalls += 1;
            }
        }

        // Integrity + orderer signature, against a view that is now stable
        // (config blocks are barriers, so no view swap can be in flight).
        if let Err(err) = shared.committer.verify_block(&block) {
            shared.fail(err);
            return;
        }

        let n = block.envelopes.len();
        shared.register_block(profile.barrier, &profile.tx_writes);
        let job = Arc::new(VsccJob {
            shared: shared.clone(),
            done: done.clone(),
            block: Arc::new(block),
            flags: Mutex::new(vec![TxValidationCode::NotValidated; n]),
            tx_writes: profile.tx_writes,
            barrier: profile.barrier,
            remaining: AtomicUsize::new(n),
            dispatched: Instant::now(),
        });
        let mut queue_depth = 0;
        if n == 0 {
            if done
                .send(CompletedVscc {
                    job,
                    vscc: Duration::ZERO,
                })
                .is_err()
            {
                break 'accept;
            }
        } else {
            for index in 0..n {
                let task = VsccTask {
                    job: job.clone(),
                    index,
                };
                match sched.submit(slot, task) {
                    Some(depth) => queue_depth = queue_depth.max(depth),
                    None => break 'accept,
                }
            }
        }

        let mut stats = shared.stats.lock();
        stats.queues.intake_peak = stats.queues.intake_peak.max(intake.len());
        stats.queues.vscc_tasks_peak = stats.queues.vscc_tasks_peak.max(queue_depth);
    }
    // Dropping this channel's done sender lets the sequencer drain what
    // was dispatched once the pool works through the channel's queued
    // tasks; the pool itself stays up for the other channels. The
    // scheduler slot is deregistered by the handle after the drain.
}

/// Sequencer: restore block order, run rw-check + ledger append, emit.
fn sequencer(
    shared: &Shared,
    done: &Receiver<CompletedVscc>,
    events: &Sender<CommitEvent>,
    mut next_commit: u64,
) {
    let mut reorder: BTreeMap<u64, CompletedVscc> = BTreeMap::new();
    while let Ok(completed) = done.recv() {
        if shared.is_stopped() {
            return;
        }
        reorder.insert(completed.job.block.header.number, completed);
        {
            let mut stats = shared.stats.lock();
            stats.queues.reorder_peak = stats.queues.reorder_peak.max(reorder.len());
        }
        while let Some(completed) = reorder.remove(&next_commit) {
            match commit_in_order(shared, &completed) {
                Ok(event) => {
                    next_commit += 1;
                    // Queue the event before advancing the watermark, so a
                    // thread woken by `wait_committed` always finds the
                    // events of every committed block already buffered.
                    let _ = events.send(event);
                    shared.advance(next_commit);
                }
                Err(err) => {
                    shared.fail(err);
                    return;
                }
            }
        }
    }
}

/// The strictly sequential tail of validation for one block: the rw-check
/// runs here, at the block's turn, against the state every earlier block
/// left behind.
fn commit_in_order(shared: &Shared, completed: &CompletedVscc) -> Result<CommitEvent, PeerError> {
    let block = &completed.job.block;
    let vscc_flags = std::mem::take(&mut *completed.job.flags.lock());
    let mut timing = ValidationTiming {
        vscc: completed.vscc,
        ..Default::default()
    };

    let start = Instant::now();
    let mut flags = vscc_flags.clone();
    shared
        .ledger
        .mvcc_validate(block, &mut flags)
        .map_err(PeerError::Ledger)?;
    timing.rw_check = start.elapsed();

    let start = Instant::now();
    let mut committed = (**block).clone();
    committed.metadata.validation = flags.clone();
    shared
        .ledger
        .commit(&committed)
        .map_err(PeerError::Ledger)?;
    timing.ledger = start.elapsed();

    shared.committer.apply_config(&committed, &flags)?;

    // Retire this block from the conflict index: VSCC-valid txs' keys
    // now (the append landed; the pool already retired the invalid
    // ones), then the block itself — after the view swap, so a woken
    // reader observes both the new state and the new view.
    let landed: Vec<(String, String)> = vscc_flags
        .iter()
        .enumerate()
        .filter(|(_, flag)| **flag == TxValidationCode::Valid)
        .flat_map(|(i, _)| completed.job.tx_writes[i].iter().cloned())
        .collect();
    shared.release_keys(&landed);
    shared.finish_block(completed.job.barrier);

    {
        let mut stats = shared.stats.lock();
        stats.blocks += 1;
        stats.txs += flags.len() as u64;
        stats.vscc.record(timing.vscc);
        stats.rw_check.record(timing.rw_check);
        stats.ledger.record(timing.ledger);
        stats.total.record(timing.total());
    }

    Ok(CommitEvent {
        block_num: block.header.number,
        validity: flags,
        timing,
        committed_at: Instant::now(),
    })
}

/// Handle to one channel's running pipelined committer, owned by a
/// [`crate::DeliverMux`].
///
/// Dropping the handle closes the intake and waits for every submitted
/// block to commit (graceful drain); [`PipelineHandle::abort`] simulates
/// a crash with blocks still queued.
pub(crate) struct PipelineHandle {
    shared: Arc<Shared>,
    intake: Option<Sender<Block>>,
    events: Receiver<CommitEvent>,
    threads: Vec<JoinHandle<()>>,
    /// This channel's slot in the pool's cross-channel scheduler, held so
    /// close/abort can deregister it (dropping any queued tasks).
    sched: Option<(Arc<Scheduler<VsccTask>>, u64)>,
}

impl PipelineHandle {
    /// Feeds the next delivered block. Blocks for backpressure when the
    /// intake queue is full; errors if the pipeline has stopped.
    pub fn submit(&self, block: Block) -> Result<(), PeerError> {
        if self.shared.is_stopped() {
            return Err(self.take_error());
        }
        let intake = self.intake.as_ref().expect("intake open until close");
        match intake.send(block) {
            Ok(()) => Ok(()),
            Err(_) => Err(self.take_error()),
        }
    }

    /// A clonable receiver of commit events (strict block order). Keep one
    /// to drain events that arrive after [`PipelineHandle::close`].
    pub fn events(&self) -> Receiver<CommitEvent> {
        self.events.clone()
    }

    /// Ledger height the pipeline has committed up to.
    pub fn committed_height(&self) -> u64 {
        *self.shared.watermark.lock()
    }

    /// Blocks until the committed height reaches `height` (or the
    /// pipeline stops with an error).
    pub fn wait_committed(&self, height: u64) -> Result<(), PeerError> {
        let mut committed = self.shared.watermark.lock();
        while *committed < height {
            if self.shared.is_stopped() {
                drop(committed);
                return Err(self.take_error());
            }
            committed = self
                .shared
                .watermark_cv
                .wait(committed)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        Ok(())
    }

    /// Snapshot of the running statistics.
    pub fn stats(&self) -> PipelineStats {
        self.shared.stats.lock().clone()
    }

    /// Closes the intake, drains every submitted block, and returns the
    /// final statistics (or the first error). The shared pool stays up
    /// for the other channels.
    pub fn close(mut self) -> Result<PipelineStats, PeerError> {
        self.drain();
        if let Some(err) = self.shared.error.lock().take() {
            return Err(err);
        }
        Ok(self.shared.stats.lock().clone())
    }

    /// The graceful stop shared by `close` and `Drop`.
    fn drain(&mut self) {
        drop(self.intake.take());
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // The sequencer only exits once every dispatched task completed,
        // so the channel's scheduler queue is empty here.
        if let Some((sched, slot)) = self.sched.take() {
            sched.deregister(slot);
        }
    }

    /// Hard stop: abandons queued and in-flight blocks without committing
    /// them (crash simulation). The ledger is left at the last fully
    /// committed block — exactly what savepoint recovery expects.
    pub fn abort(mut self) {
        self.shared.halt();
        drop(self.intake.take());
        // Deregister before joining: dropping the channel's queued tasks
        // releases their done senders, so the sequencer's recv unblocks
        // even if no worker ever picks them up.
        if let Some((sched, slot)) = self.sched.take() {
            sched.deregister(slot);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Whether the pipeline has stopped (error or abort): its committed
    /// height will not move again.
    pub fn is_stopped(&self) -> bool {
        self.shared.is_stopped()
    }

    /// The error that stopped the pipeline (handed out once).
    pub fn take_error(&self) -> PeerError {
        self.shared
            .error
            .lock()
            .take()
            .unwrap_or_else(|| PeerError::BadBlock("committer pipeline stopped".into()))
    }
}

impl Drop for PipelineHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests as fx;
    use crate::{Deliver, DeliverMux, Peer, PeerError};

    use fabric_chaincode::Vscc;
    use fabric_msp::{MspRegistry, Role};
    use fabric_primitives::ids::ChannelId;
    use fabric_primitives::transaction::{Envelope, Transaction};
    use fabric_primitives::wire::Wire;

    /// A mux of `workers` VSCC workers with `peer` attached under the
    /// peer's own channel id.
    fn mux_for(peer: &Peer, workers: usize, opts: PipelineOptions) -> DeliverMux {
        let mux = DeliverMux::new(workers);
        mux.attach(peer.channel().clone(), peer, opts).unwrap();
        mux
    }

    /// Delivers `blocks` in order; a block refused as saturated is
    /// re-offered once a commit frees room.
    fn deliver_all(mux: &DeliverMux, channel: &ChannelId, blocks: &[Block]) {
        for block in blocks {
            let payload = block.to_wire();
            let number = block.header.number;
            while mux.deliver(channel, number, &payload).unwrap() == Deliver::Saturated {
                mux.wait_committed(channel, mux.committed_height(channel) + 1)
                    .unwrap();
            }
        }
    }

    /// Closes a one-channel mux, returning that channel's statistics.
    fn close_one(mux: DeliverMux, channel: &ChannelId) -> Result<PipelineStats, PeerError> {
        mux.close().map(|mut stats| stats.remove(channel).unwrap())
    }

    /// Builds `n_blocks` blocks of `txs_per_block` signed kvcc puts on
    /// disjoint keys, committed progressively on `builder` so every
    /// simulation sees fresh state. Returns them with the deploy block
    /// first.
    fn build_put_chain(
        fixture: &fx::Fixture,
        builder: &Peer,
        admin: &fabric_msp::SigningIdentity,
        client: &fabric_msp::SigningIdentity,
        n_blocks: u8,
        txs_per_block: u8,
    ) -> Vec<Block> {
        let deploy = fx::deploy_kvcc(fixture, &[builder], "Org1MSP", admin);
        let mut blocks = vec![fx::next_block(builder, vec![deploy])];
        builder.commit_block(&blocks[0]).unwrap();
        for b in 0..n_blocks {
            let envelopes: Vec<Envelope> = (0..txs_per_block)
                .map(|i| {
                    let sp = fx::signed_proposal(
                        client,
                        &fixture.channel,
                        "kvcc",
                        "put",
                        vec![format!("b{b}k{i}").into_bytes(), vec![b, i]],
                        [b.wrapping_mul(31).wrapping_add(i).wrapping_add(1); 32],
                    );
                    let response = builder.process_proposal(&sp).unwrap();
                    fx::assemble(client, &sp, &[response])
                })
                .collect();
            let block = fx::next_block(builder, envelopes);
            builder.commit_block(&block).unwrap();
            blocks.push(block);
        }
        blocks
    }

    #[test]
    fn empty_pipeline_closes_clean() {
        let fixture = fx::fixture();
        let peer = fx::make_peer(&fixture, &fixture.ca1, "peer0.org1");
        let mux = mux_for(&peer, 2, PipelineOptions::default());
        let stats = close_one(mux, peer.channel()).unwrap();
        assert_eq!(stats.blocks, 0);
        assert_eq!(stats.txs, 0);
    }

    #[test]
    fn stage_histogram_bounded_and_exact() {
        let mut histogram = StageHistogram::default();
        let n = (3 * HISTOGRAM_RESERVOIR) as u64;
        for i in 0..n {
            histogram.record(Duration::from_micros(i));
        }
        // The reservoir is bounded, but count/mean/max stay exact.
        assert!(histogram.samples_us.len() <= HISTOGRAM_RESERVOIR);
        assert_eq!(histogram.count(), n as usize);
        assert_eq!(
            histogram.avg(),
            Duration::from_micros((n * (n - 1) / 2) / n)
        );
        let summary = histogram.summary();
        assert_eq!(summary.count, n as usize);
        assert_eq!(summary.max, Duration::from_micros(n - 1));
        // Percentiles are estimates over a uniform sample: p99 of a
        // uniform 0..n ramp must land in the top quarter of the range.
        assert!(histogram.percentile(99.0) >= Duration::from_micros(3 * n / 4));
        assert!(histogram.percentile(99.0) <= Duration::from_micros(n - 1));
    }

    #[test]
    fn pipeline_matches_sequential_masks_and_state() {
        let fixture = fx::fixture();
        let builder = fx::make_peer(&fixture, &fixture.ca1, "builder.org1");
        let admin = fabric_msp::issue_identity(&fixture.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fixture.ca1, "client1", Role::Client, b"c1");
        let blocks = build_put_chain(&fixture, &builder, &admin, &client, 4, 6);

        // Sequential reference.
        let sequential = fx::make_peer(&fixture, &fixture.ca1, "seq.org1");
        let mut expected_masks = Vec::new();
        for block in &blocks {
            let (flags, _) = sequential.commit_block(block).unwrap();
            expected_masks.push(flags);
        }

        // Pipelined peer: the deploy block is an LSCC barrier, the rest
        // overlap freely.
        let pipelined = fx::make_peer(&fixture, &fixture.ca1, "pipe.org1");
        let channel = pipelined.channel();
        let mux = mux_for(
            &pipelined,
            4,
            PipelineOptions {
                deliver_credits: 2,
                ..PipelineOptions::default()
            },
        );
        let events = mux.events(channel).unwrap();
        deliver_all(&mux, channel, &blocks);
        mux.wait_committed(channel, blocks.len() as u64 + 1)
            .unwrap();
        let stats = close_one(mux, channel).unwrap();

        assert_eq!(stats.blocks, blocks.len() as u64);
        assert_eq!(pipelined.height(), sequential.height());
        let mut got_masks = Vec::new();
        let mut last_num = 0;
        while let Ok(event) = events.try_recv() {
            assert_eq!(event.block_num, last_num + 1, "events in block order");
            last_num = event.block_num;
            got_masks.push(event.validity);
        }
        assert_eq!(got_masks, expected_masks);
        // Persisted flags and state are byte-identical.
        for number in 0..sequential.height() {
            assert_eq!(
                pipelined
                    .get_block(number)
                    .unwrap()
                    .unwrap()
                    .metadata
                    .validation,
                sequential
                    .get_block(number)
                    .unwrap()
                    .unwrap()
                    .metadata
                    .validation
            );
        }
        assert_eq!(
            pipelined.ledger().last_hash(),
            sequential.ledger().last_hash()
        );
        assert_eq!(
            pipelined.scan_state("kvcc", "", "").unwrap(),
            sequential.scan_state("kvcc", "", "").unwrap()
        );
        assert!(stats.vscc.count() == blocks.len());
        assert!(stats.total.avg() >= stats.rw_check.avg());
    }

    #[test]
    fn shared_pool_serves_two_channels() {
        let fixture = fx::fixture();
        let builder = fx::make_peer(&fixture, &fixture.ca1, "builder.org1");
        let admin = fabric_msp::issue_identity(&fixture.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fixture.ca1, "client1", Role::Client, b"c1");
        let blocks = build_put_chain(&fixture, &builder, &admin, &client, 3, 4);

        // Two independent ledgers ("channels") fed through ONE pool.
        let mux = DeliverMux::new(2);
        let peer_a = fx::make_peer(&fixture, &fixture.ca1, "chan-a.org1");
        let peer_b = fx::make_peer(&fixture, &fixture.ca1, "chan-b.org1");
        let (chan_a, chan_b) = (ChannelId::new("chan-a"), ChannelId::new("chan-b"));
        mux.attach(chan_a.clone(), &peer_a, PipelineOptions::default())
            .unwrap();
        mux.attach(chan_b.clone(), &peer_b, PipelineOptions::default())
            .unwrap();
        deliver_all(&mux, &chan_a, &blocks);
        deliver_all(&mux, &chan_b, &blocks);
        let final_height = blocks.len() as u64 + 1;
        mux.wait_committed(&chan_a, final_height).unwrap();
        mux.wait_committed(&chan_b, final_height).unwrap();
        let stats = mux.close().unwrap();

        assert_eq!(stats[&chan_a].blocks, blocks.len() as u64);
        assert_eq!(stats[&chan_b].blocks, blocks.len() as u64);
        let sequential = fx::make_peer(&fixture, &fixture.ca1, "seq.org1");
        for block in &blocks {
            sequential.commit_block(block).unwrap();
        }
        for peer in [&peer_a, &peer_b] {
            assert_eq!(peer.height(), sequential.height());
            assert_eq!(peer.ledger().last_hash(), sequential.ledger().last_hash());
            assert_eq!(
                peer.scan_state("kvcc", "", "").unwrap(),
                sequential.scan_state("kvcc", "", "").unwrap()
            );
        }
    }

    /// The admitter's own order check, below the mux (which parks an
    /// out-of-order delivery instead of submitting it).
    #[test]
    fn out_of_order_submission_fails_pipeline() {
        let fixture = fx::fixture();
        let builder = fx::make_peer(&fixture, &fixture.ca1, "builder.org1");
        let admin = fabric_msp::issue_identity(&fixture.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fixture.ca1, "client1", Role::Client, b"c1");
        let blocks = build_put_chain(&fixture, &builder, &admin, &client, 2, 2);

        let peer = fx::make_peer(&fixture, &fixture.ca1, "pipe.org1");
        let pool = vscc_pool(2);
        let handle = PipelineHandle::start(
            &pool,
            &peer.committer,
            peer.ledger.clone(),
            PipelineOptions::default(),
        );
        handle.submit(blocks[1].clone()).unwrap(); // expects block 1, gets 2
        assert!(matches!(handle.close(), Err(PeerError::BadBlock(_))));
        assert_eq!(peer.height(), 1, "nothing committed past genesis");
    }

    /// Custom VSCC that reads the committed value of one key: valid only
    /// if the value matches what the preceding block must have written.
    /// Transactions not reading the key sleep instead, widening the race
    /// window a missing dependency stall would expose.
    struct ReadExpectVscc {
        key: String,
        expect: Vec<u8>,
    }

    impl Vscc for ReadExpectVscc {
        fn validate(
            &self,
            tx: &Transaction,
            _msp: &MspRegistry,
            _channel_orgs: &[String],
            ledger: &fabric_ledger::Ledger,
        ) -> TxValidationCode {
            let reads_key = tx
                .response_payload
                .rwset
                .ns_rwsets
                .iter()
                .any(|ns| ns.reads.iter().any(|r| r.key == self.key));
            if !reads_key {
                std::thread::sleep(Duration::from_millis(20));
                return TxValidationCode::Valid;
            }
            match ledger.get_state("kvcc", &self.key) {
                Ok(Some(value)) if value == self.expect => TxValidationCode::Valid,
                _ => TxValidationCode::EndorsementPolicyFailure,
            }
        }
    }

    #[test]
    fn custom_vscc_read_waits_for_writer_block() {
        let fixture = fx::fixture();
        let builder = fx::make_peer(&fixture, &fixture.ca1, "builder.org1");
        let admin = fabric_msp::issue_identity(&fixture.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fixture.ca1, "client1", Role::Client, b"c1");

        let deploy = fx::deploy_kvcc(&fixture, &[&builder], "Org1MSP", &admin);
        let deploy_block = fx::next_block(&builder, vec![deploy]);
        builder.commit_block(&deploy_block).unwrap();
        // Block 2 writes dep=v1 (slow VSCC on the pipelined peer).
        let sp = fx::signed_proposal(
            &client,
            &fixture.channel,
            "kvcc",
            "put",
            vec![b"dep".to_vec(), b"v1".to_vec()],
            [0x51; 32],
        );
        let response = builder.process_proposal(&sp).unwrap();
        let writer_block = fx::next_block(&builder, vec![fx::assemble(&client, &sp, &[response])]);
        builder.commit_block(&writer_block).unwrap();
        // Block 3 reads dep (its rw-set declares the read), so its VSCC
        // must observe v1 — the post-commit value of block 2.
        let sp = fx::signed_proposal(
            &client,
            &fixture.channel,
            "kvcc",
            "get",
            vec![b"dep".to_vec()],
            [0x52; 32],
        );
        let response = builder.process_proposal(&sp).unwrap();
        let reader_block = fx::next_block(&builder, vec![fx::assemble(&client, &sp, &[response])]);
        builder.commit_block(&reader_block).unwrap();

        let pipelined = fx::make_peer(&fixture, &fixture.ca1, "pipe.org1");
        pipelined.register_vscc(
            "kvcc",
            Arc::new(ReadExpectVscc {
                key: "dep".into(),
                expect: b"v1".to_vec(),
            }),
        );
        let channel = pipelined.channel();
        let mux = mux_for(
            &pipelined,
            4,
            PipelineOptions {
                deliver_credits: 8,
                ..PipelineOptions::default()
            },
        );
        let events = mux.events(channel).unwrap();
        deliver_all(&mux, channel, &[deploy_block, writer_block, reader_block]);
        mux.wait_committed(channel, 4).unwrap();
        let stats = close_one(mux, channel).unwrap();
        let masks: Vec<Vec<TxValidationCode>> =
            std::iter::from_fn(|| events.try_recv().ok().map(|e| e.validity)).collect();
        assert_eq!(
            masks,
            vec![
                vec![TxValidationCode::Valid],
                vec![TxValidationCode::Valid],
                vec![TxValidationCode::Valid],
            ],
            "reader block's VSCC must see the writer block's committed value"
        );
        assert!(
            stats.queues.dependency_stalls >= 1,
            "the reader block must have stalled on the writer"
        );
    }

    /// Custom VSCC with a fixed per-transaction cost, independent of
    /// machine speed.
    struct SleepVscc(Duration);

    impl Vscc for SleepVscc {
        fn validate(
            &self,
            _tx: &Transaction,
            _msp: &MspRegistry,
            _channel_orgs: &[String],
            _ledger: &fabric_ledger::Ledger,
        ) -> TxValidationCode {
            std::thread::sleep(self.0);
            TxValidationCode::Valid
        }
    }

    /// Key-disjoint reader/writer blocks: the writer block puts key `a`
    /// while the reader block's custom VSCC declares a read of key `b`.
    /// Key-level stalls let them overlap.
    #[test]
    fn key_level_stalls_skip_disjoint_keys() {
        let fixture = fx::fixture();
        let builder = fx::make_peer(&fixture, &fixture.ca1, "builder.org1");
        let admin = fabric_msp::issue_identity(&fixture.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fixture.ca1, "client1", Role::Client, b"c1");

        let deploy = fx::deploy_kvcc(&fixture, &[&builder], "Org1MSP", &admin);
        let deploy_block = fx::next_block(&builder, vec![deploy]);
        builder.commit_block(&deploy_block).unwrap();
        // Block 2 seeds key `b` so the reader can endorse a `get` on it.
        let sp = fx::signed_proposal(
            &client,
            &fixture.channel,
            "kvcc",
            "put",
            vec![b"b".to_vec(), b"seed".to_vec()],
            [0x61; 32],
        );
        let response = builder.process_proposal(&sp).unwrap();
        let seed_block = fx::next_block(&builder, vec![fx::assemble(&client, &sp, &[response])]);
        builder.commit_block(&seed_block).unwrap();
        // Block 3 writes key `a`; block 4 reads key `b` — disjoint.
        let sp = fx::signed_proposal(
            &client,
            &fixture.channel,
            "kvcc",
            "put",
            vec![b"a".to_vec(), b"w".to_vec()],
            [0x62; 32],
        );
        let response = builder.process_proposal(&sp).unwrap();
        let writer_block = fx::next_block(&builder, vec![fx::assemble(&client, &sp, &[response])]);
        builder.commit_block(&writer_block).unwrap();
        let sp = fx::signed_proposal(
            &client,
            &fixture.channel,
            "kvcc",
            "get",
            vec![b"b".to_vec()],
            [0x63; 32],
        );
        let response = builder.process_proposal(&sp).unwrap();
        let reader_block = fx::next_block(&builder, vec![fx::assemble(&client, &sp, &[response])]);
        builder.commit_block(&reader_block).unwrap();

        let pipelined = fx::make_peer(&fixture, &fixture.ca1, "pipe.org1");
        // A slow custom VSCC keeps the writer block in flight while the
        // reader block reaches the admitter's stall rule.
        pipelined.register_vscc("kvcc", Arc::new(SleepVscc(Duration::from_millis(50))));
        let channel = pipelined.channel();
        let mux = mux_for(&pipelined, 2, PipelineOptions::default());
        // Retire the barrier (deploy) and seed blocks before the race so
        // only writer-vs-reader can register a dependency stall.
        deliver_all(&mux, channel, &[deploy_block]);
        mux.wait_committed(channel, 2).unwrap();
        deliver_all(&mux, channel, &[seed_block]);
        mux.wait_committed(channel, 3).unwrap();
        deliver_all(&mux, channel, &[writer_block, reader_block]);
        mux.wait_committed(channel, 5).unwrap();
        let stats = close_one(mux, channel).unwrap();
        assert_eq!(
            pipelined.get_state("kvcc", "a").unwrap(),
            Some(b"w".to_vec())
        );
        assert_eq!(
            stats.queues.dependency_stalls, 0,
            "disjoint keys must not stall the reader behind the in-flight writer"
        );
    }

    /// Blocks parked in the reorder buffer behind a slow block commit
    /// exactly as [`Peer::commit_block`] would. The slow block's first tx
    /// runs a 100 ms custom VSCC (`slowcc`); its second rewrites kvcc key
    /// `hot`. The two kvcc blocks after it (default VSCC, so the admitter
    /// never stalls them) finish VSCC first and park. The last of them
    /// carries a read of `hot` endorsed before the slow block: only an
    /// rw-check run at the block's turn sees that read as stale.
    #[test]
    fn parked_blocks_match_sequential() {
        let fixture = fx::fixture();
        let builder = fx::make_peer(&fixture, &fixture.ca1, "builder.org1");
        builder.install_chaincode("slowcc", Arc::new(fx::kv_chaincode));
        let admin = fabric_msp::issue_identity(&fixture.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fixture.ca1, "client1", Role::Client, b"c1");
        let endorse = |chaincode: &str, function: &str, args: &[&str], nonce: u8| {
            let args = args.iter().map(|arg| arg.as_bytes().to_vec()).collect();
            let sp = fx::signed_proposal(
                &client,
                &fixture.channel,
                chaincode,
                function,
                args,
                [nonce; 32],
            );
            let response = builder.process_proposal(&sp).unwrap();
            fx::assemble(&client, &sp, &[response])
        };
        let append = |blocks: &mut Vec<Block>, envelopes: Vec<Envelope>| {
            let block = fx::next_block(&builder, envelopes);
            builder.commit_block(&block).unwrap();
            blocks.push(block);
        };

        let mut blocks = Vec::new();
        append(
            &mut blocks,
            vec![fx::deploy_kvcc(&fixture, &[&builder], "Org1MSP", &admin)],
        );
        append(
            &mut blocks,
            vec![endorse("kvcc", "put", &["hot", "v0"], 0x71)],
        );
        let stale_read = endorse("kvcc", "get", &["hot"], 0x72);
        append(
            &mut blocks,
            vec![
                endorse("slowcc", "put", &["slow", "v"], 0x73),
                endorse("kvcc", "put", &["hot", "v1"], 0x74),
            ],
        );
        append(
            &mut blocks,
            vec![endorse("kvcc", "put", &["fast4", "v"], 0x75)],
        );
        append(
            &mut blocks,
            vec![endorse("kvcc", "put", &["fast5", "v"], 0x76), stale_read],
        );

        let slow_vscc = || Arc::new(SleepVscc(Duration::from_millis(100)));
        let pipelined = fx::make_peer(&fixture, &fixture.ca1, "pipe.org1");
        pipelined.register_vscc("slowcc", slow_vscc());
        let channel = pipelined.channel();
        let mux = mux_for(&pipelined, 2, PipelineOptions::default());
        let events = mux.events(channel).unwrap();
        deliver_all(&mux, channel, &blocks);
        mux.wait_committed(channel, blocks.len() as u64 + 1)
            .unwrap();
        let stats = close_one(mux, channel).unwrap();
        assert!(
            stats.queues.reorder_peak >= 2,
            "blocks 4 and 5 must park behind the slow block, got {:?}",
            stats.queues
        );

        let sequential = fx::make_peer(&fixture, &fixture.ca1, "seq.org1");
        sequential.register_vscc("slowcc", slow_vscc());
        let expected: Vec<Vec<TxValidationCode>> = blocks
            .iter()
            .map(|block| sequential.commit_block(block).unwrap().0)
            .collect();
        let got: Vec<Vec<TxValidationCode>> =
            std::iter::from_fn(|| events.try_recv().ok().map(|e| e.validity)).collect();
        assert_eq!(got, expected);
        assert_eq!(
            got.last().unwrap(),
            &vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict],
            "the parked read of `hot` must see the slow block's write"
        );
        for number in 0..sequential.height() {
            assert_eq!(
                pipelined
                    .get_block(number)
                    .unwrap()
                    .unwrap()
                    .metadata
                    .validation,
                sequential
                    .get_block(number)
                    .unwrap()
                    .unwrap()
                    .metadata
                    .validation
            );
        }
        assert_eq!(
            pipelined.ledger().last_hash(),
            sequential.ledger().last_hash()
        );
        assert_eq!(
            pipelined.scan_state("kvcc", "", "").unwrap(),
            sequential.scan_state("kvcc", "", "").unwrap()
        );
    }

    #[test]
    fn abort_preserves_committed_prefix() {
        let fixture = fx::fixture();
        let builder = fx::make_peer(&fixture, &fixture.ca1, "builder.org1");
        let admin = fabric_msp::issue_identity(&fixture.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fixture.ca1, "client1", Role::Client, b"c1");
        let blocks = build_put_chain(&fixture, &builder, &admin, &client, 5, 2);

        let peer = fx::make_peer(&fixture, &fixture.ca1, "pipe.org1");
        let channel = peer.channel();
        let mux = mux_for(&peer, 2, PipelineOptions::default());
        deliver_all(&mux, channel, &blocks);
        mux.wait_committed(channel, 3).unwrap();
        mux.abort();
        let height = peer.height();
        assert!(height >= 3, "waited-for prefix must be committed");
        // The ledger tip is consistent: savepoint == last block.
        assert_eq!(peer.ledger().ptm().savepoint(), Some(height - 1));
    }
}
