//! Pre-ordering signature verification (the tentpole's intake stage).
//!
//! `broadcast` validation — ECDSA verification of the submitter's
//! signature plus the writer-policy check — is the CPU-heavy part of the
//! ordering service's front end, and it is embarrassingly parallel: each
//! envelope verifies against an immutable [`ChannelAccess`] snapshot and
//! no envelope's verdict depends on another's. The [`VerifyPool`] runs
//! those checks on a fixed set of worker threads *before* consensus sees
//! the payload, so signature verification overlaps with Raft/PBFT
//! replication of earlier batches instead of serializing ahead of it
//! (paper Sec. 4.2 places validation at the OSN boundary for exactly this
//! reason: the consensus cluster never wastes ordering work on envelopes
//! that would be discarded).
//!
//! The pool is deliberately *order-preserving at the batch level*:
//! [`VerifyPool::verify_batch`] scatters a batch across the workers and
//! gathers verdicts back into submission-slot order, so the caller can
//! submit survivors to consensus in exactly the order the client sent
//! them. This mirrors the batching signer of the endorsement pipeline
//! (PR 5): parallel inside, deterministic outside.

use std::sync::Arc;

use crossbeam::channel::{self, Sender};

use fabric_primitives::flow::Pool;
use fabric_primitives::transaction::Envelope;

use crate::channel::ChannelAccess;
use crate::OrderError;

/// What a worker reports for one slot. The outer `Err` carries the panic
/// payload of a check that unwound (see [`VerifyPool::verify_batch`]).
type Verdict = std::thread::Result<Result<(), OrderError>>;

/// One verification request: check `envelope` against `access`, report
/// under `slot`.
struct Job {
    access: Arc<ChannelAccess>,
    envelope: Envelope,
    slot: usize,
    reply: Sender<(usize, Envelope, Verdict)>,
}

/// A pool of persistent verification workers shared by every OSN in a
/// process (cloning the `Arc` it usually lives behind is cheap). The
/// threads and their queue are a [`Pool`]; this type adds only the
/// slot-ordered scatter/gather. Dropping it drains and joins the workers.
pub struct VerifyPool {
    pool: Pool<Job>,
    /// The pool's single queue: batches are served in submission order.
    queue: u64,
}

impl VerifyPool {
    /// Spawns a pool with `workers` threads; `0` uses the host's available
    /// parallelism.
    pub fn new(workers: usize) -> Self {
        let pool = Pool::new(
            "osn-verify",
            workers,
            |job: &Job| job.access.check_broadcast(&job.envelope),
            |job: Job, verdict| {
                // A dropped receiver means the caller gave up; nothing
                // useful to do with the verdict.
                let _ = job.reply.send((job.slot, job.envelope, verdict));
            },
        );
        let queue = pool.scheduler().register(1);
        VerifyPool { pool, queue }
    }

    /// Verifies a batch of `(access, envelope)` pairs in parallel,
    /// returning `(envelope, verdict)` in the submission order given.
    ///
    /// A check that panics on a worker is re-raised here, on the calling
    /// thread — exactly what the inline (pool-less) path would have done —
    /// while the worker itself survives for the next batch.
    pub fn verify_batch(
        &self,
        jobs: Vec<(Arc<ChannelAccess>, Envelope)>,
    ) -> Vec<(Envelope, Result<(), OrderError>)> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let (reply_tx, reply_rx) = channel::bounded(n);
        for (slot, (access, envelope)) in jobs.into_iter().enumerate() {
            let job = Job {
                access,
                envelope,
                slot,
                reply: reply_tx.clone(),
            };
            let queued = self.pool.scheduler().submit(self.queue, 1, job);
            assert!(queued.is_some(), "verify pool open");
        }
        drop(reply_tx);
        let mut out: Vec<Option<(Envelope, Result<(), OrderError>)>> =
            (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (slot, envelope, verdict) = reply_rx.recv().expect("worker reply");
            let verdict = verdict.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            out[slot] = Some((envelope, verdict));
        }
        out.into_iter()
            .map(|x| x.expect("every slot filled"))
            .collect()
    }
}
