//! The sharded, pipelined endorsement path (paper Sec. 3.2's execute
//! phase, parallelized).
//!
//! Endorsement is embarrassingly parallel: each proposal is authenticated,
//! simulated against its own stable snapshot, and signed — no proposal
//! ever observes another's effects (simulation results are not
//! persisted). The sequential [`crate::Endorser`] leaves that parallelism
//! on the table; this module exploits it in three stages:
//!
//! ```text
//!            submit() ──▶ per-chaincode DRR queues            batching signer
//!                              │                                   │
//!  clients ──▶ intake bound ──▶├──▶ simulation worker ─┐           │
//!  (per-client cap)            ├──▶ simulation worker ─┼─▶ sign ──▶├─▶ tickets
//!                              └──▶ simulation worker ─┘   queue   │
//! ```
//!
//! * **Intake** — a bounded admission count; a full pipeline rejects new
//!   proposals with [`EndorseReject::Saturated`] rather than queuing
//!   without limit (the deliver-side backpressure lesson applied to the
//!   endorsement side). A per-client in-flight cap
//!   ([`EndorseOptions::client_max_inflight`]) keeps one chatty client
//!   from monopolizing the intake.
//! * **Scheduling** — proposals queue per *chaincode* and the simulation
//!   workers drain them under the same round-robin
//!   [`Scheduler`] that arbitrates the validation pipeline's channels: a
//!   burst against one chaincode cannot starve proposals for another.
//! * **Simulation workers** — each runs [`Endorser::simulate`]
//!   (authenticate + execute against a fresh snapshot); same-chaincode
//!   proposals simulate concurrently. A simulation that panics (inline
//!   execution, `exec_timeout: None`, has no runtime-level containment)
//!   fails its own ticket with `ChaincodeError::Aborted`; the worker
//!   carries on.
//! * **Batching signer** — successful simulations are endorsed by
//!   [`fabric_chaincode::batch_escc`], which drains whatever has
//!   accumulated (up to `SIGN_BATCH_MAX` = 32 payloads) and signs the
//!   batch with one amortized modular inversion. ECDSA nonces are RFC 6979
//!   deterministic, so the batch signature over a payload is byte-for-byte
//!   the signature [`crate::Endorser::process_proposal`] would have
//!   produced — the pipeline is *observably identical* to the sequential
//!   endorser, proposal for proposal (the equivalence battery holds it to
//!   that).
//!
//! Error handling mirrors the sequential path exactly: authentication,
//! execution, and chaincode-rejection failures surface through the ticket
//! as the same [`PeerError`] variants `process_proposal` returns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel;
use parking_lot::Mutex;

use fabric_chaincode::batch_escc;
use fabric_ledger::Ledger;
use fabric_primitives::flow::Pool;
use fabric_primitives::transaction::{ProposalResponse, ProposalResponsePayload, SignedProposal};

use crate::endorser::Endorser;
use crate::PeerError;

/// Largest payload batch the signer stage signs in one drain.
const SIGN_BATCH_MAX: usize = 32;

/// Endorsement-pipeline construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct EndorseOptions {
    /// Simulation worker count; `0` uses the host's parallelism.
    pub workers: usize,
    /// Bound on proposals admitted but not yet delivered; beyond it,
    /// [`EndorsePipeline::submit`] rejects with
    /// [`EndorseReject::Saturated`].
    pub intake_capacity: usize,
    /// Per-client in-flight cap (keyed by creator certificate); `0`
    /// disables the cap.
    pub client_max_inflight: usize,
}

impl Default for EndorseOptions {
    fn default() -> Self {
        EndorseOptions {
            workers: 0,
            intake_capacity: 1024,
            client_max_inflight: 0,
        }
    }
}

/// Why [`EndorsePipeline::submit`] refused a proposal; the proposal is
/// handed back so the caller can retry after backing off.
#[derive(Debug)]
pub enum EndorseReject {
    /// The intake bound is full.
    Saturated(Box<SignedProposal>),
    /// The submitting client already has `client_max_inflight` proposals
    /// in the pipeline.
    ClientSaturated(Box<SignedProposal>),
    /// The pipeline has been closed.
    Closed(Box<SignedProposal>),
}

impl EndorseReject {
    /// Recovers the rejected proposal.
    pub fn into_proposal(self) -> SignedProposal {
        match self {
            EndorseReject::Saturated(p)
            | EndorseReject::ClientSaturated(p)
            | EndorseReject::Closed(p) => *p,
        }
    }
}

/// Counters for observing the pipeline (tests and benches).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndorseStats {
    /// Proposals endorsed successfully.
    pub endorsed: u64,
    /// Proposals that failed (authentication, execution, or chaincode
    /// rejection).
    pub failed: u64,
    /// Signing drains performed.
    pub sign_batches: u64,
    /// The largest single signing drain.
    pub max_batch: u64,
    /// Proposals refused because the intake bound was full.
    pub rejected_saturated: u64,
    /// Proposals refused because the client was over its in-flight cap.
    pub rejected_client: u64,
}

/// A pending endorsement: redeem with [`EndorseTicket::wait`].
pub struct EndorseTicket {
    rx: channel::Receiver<Result<ProposalResponse, PeerError>>,
}

impl EndorseTicket {
    /// Blocks until the proposal's endorsement (or failure) is ready.
    pub fn wait(self) -> Result<ProposalResponse, PeerError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(PeerError::Chaincode(
                fabric_chaincode::ChaincodeError::Aborted("endorsement pipeline shut down".into()),
            ))
        })
    }
}

/// One admitted proposal on its way to a simulation worker.
struct SimTask {
    signed: SignedProposal,
    ticket_tx: channel::Sender<Result<ProposalResponse, PeerError>>,
    client_key: Option<Vec<u8>>,
}

/// One successful simulation on its way to the signer stage.
struct SignJob {
    payload: ProposalResponsePayload,
    ticket_tx: channel::Sender<Result<ProposalResponse, PeerError>>,
    client_key: Option<Vec<u8>>,
}

/// State shared by the submit path, the workers, and the signer.
struct Shared {
    /// Chaincode name → scheduler slot (lazily registered).
    slots: Mutex<HashMap<String, u64>>,
    /// Proposals admitted and not yet delivered (intake gauge).
    pending: AtomicUsize,
    /// Per-client in-flight counts, keyed by creator certificate bytes.
    inflight: Mutex<HashMap<Vec<u8>, usize>>,
    endorsed: AtomicU64,
    failed: AtomicU64,
    sign_batches: AtomicU64,
    max_batch: AtomicU64,
    rejected_saturated: AtomicU64,
    rejected_client: AtomicU64,
}

impl Shared {
    fn release_client(&self, key: &Option<Vec<u8>>) {
        if let Some(key) = key {
            let mut inflight = self.inflight.lock();
            if let Some(count) = inflight.get_mut(key) {
                *count -= 1;
                if *count == 0 {
                    inflight.remove(key);
                }
            }
        }
    }
}

/// A running endorsement pipeline over one peer's endorser.
///
/// Obtained from [`crate::Peer::endorse_pipeline`]. Proposals go in
/// through [`EndorsePipeline::submit`] (non-blocking admission) or
/// [`EndorsePipeline::endorse`] (submit + wait); [`EndorsePipeline::close`]
/// drains and joins every stage.
pub struct EndorsePipeline {
    shared: Arc<Shared>,
    opts: EndorseOptions,
    /// The simulation workers, draining the per-chaincode DRR queues.
    /// Their job closure owns the only senders to the signer stage, so
    /// closing the pool is also what lets the signer drain and exit.
    pool: Pool<SimTask>,
    signer: Option<JoinHandle<()>>,
}

impl EndorsePipeline {
    pub(crate) fn start(
        endorser: Arc<Endorser>,
        ledger: Arc<Ledger>,
        opts: EndorseOptions,
    ) -> Self {
        let shared = Arc::new(Shared {
            slots: Mutex::new(HashMap::new()),
            pending: AtomicUsize::new(0),
            inflight: Mutex::new(HashMap::new()),
            endorsed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            sign_batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            rejected_saturated: AtomicU64::new(0),
            rejected_client: AtomicU64::new(0),
        });
        let (sign_tx, sign_rx) = channel::unbounded::<SignJob>();
        let identity = endorser.identity().clone();
        let pool = {
            let (intake, shared) = (shared.clone(), shared.clone());
            Pool::new(
                "endorse-sim",
                opts.workers,
                move |task: &SimTask| {
                    intake.pending.fetch_sub(1, Ordering::SeqCst);
                    endorser.simulate(&ledger, &task.signed)
                },
                move |task: SimTask, simulated| {
                    let aborted = |_| {
                        Err(PeerError::Chaincode(
                            fabric_chaincode::ChaincodeError::Aborted("simulation panicked".into()),
                        ))
                    };
                    match simulated.unwrap_or_else(aborted) {
                        Ok(payload) => {
                            // Delivery (and the client-cap release)
                            // happen in the signer stage.
                            let _ = sign_tx.send(SignJob {
                                payload,
                                ticket_tx: task.ticket_tx,
                                client_key: task.client_key,
                            });
                        }
                        Err(err) => {
                            shared.failed.fetch_add(1, Ordering::SeqCst);
                            shared.release_client(&task.client_key);
                            let _ = task.ticket_tx.send(Err(err));
                        }
                    }
                },
            )
        };
        let signer = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("endorse-sign".into())
                .spawn(move || {
                    while let Ok(first) = sign_rx.recv() {
                        // Adaptive batching: take whatever has accumulated
                        // while the previous drain was signing. Under light
                        // load batches are small (low latency); under heavy
                        // load they grow toward `SIGN_BATCH_MAX` (amortized
                        // signing).
                        let mut batch = vec![first];
                        while batch.len() < SIGN_BATCH_MAX {
                            match sign_rx.try_recv() {
                                Ok(job) => batch.push(job),
                                Err(_) => break,
                            }
                        }
                        let payloads: Vec<&ProposalResponsePayload> =
                            batch.iter().map(|job| &job.payload).collect();
                        let endorsements = batch_escc(&identity, &payloads);
                        shared.sign_batches.fetch_add(1, Ordering::SeqCst);
                        shared
                            .max_batch
                            .fetch_max(batch.len() as u64, Ordering::SeqCst);
                        shared
                            .endorsed
                            .fetch_add(batch.len() as u64, Ordering::SeqCst);
                        for (job, endorsement) in batch.into_iter().zip(endorsements) {
                            shared.release_client(&job.client_key);
                            let _ = job.ticket_tx.send(Ok(ProposalResponse {
                                payload: job.payload,
                                endorsement,
                            }));
                        }
                    }
                })
                .expect("spawn endorsement signer")
        };
        EndorsePipeline {
            shared,
            opts,
            pool,
            signer: Some(signer),
        }
    }

    /// Admits a proposal, returning a ticket for its eventual endorsement,
    /// or rejects it (intake full, client over its cap, pipeline closed)
    /// handing the proposal back.
    pub fn submit(&self, signed: SignedProposal) -> Result<EndorseTicket, EndorseReject> {
        // Intake bound (CAS loop so concurrent submitters cannot overshoot).
        let mut pending = self.shared.pending.load(Ordering::SeqCst);
        loop {
            if pending >= self.opts.intake_capacity {
                self.shared
                    .rejected_saturated
                    .fetch_add(1, Ordering::SeqCst);
                return Err(EndorseReject::Saturated(Box::new(signed)));
            }
            match self.shared.pending.compare_exchange(
                pending,
                pending + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(now) => pending = now,
            }
        }
        // Per-client cap, keyed by the creator certificate.
        let client_key = if self.opts.client_max_inflight > 0 {
            let key = signed.proposal.creator.cert_bytes.clone();
            let mut inflight = self.shared.inflight.lock();
            let count = inflight.entry(key.clone()).or_insert(0);
            if *count >= self.opts.client_max_inflight {
                drop(inflight);
                self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                self.shared.rejected_client.fetch_add(1, Ordering::SeqCst);
                return Err(EndorseReject::ClientSaturated(Box::new(signed)));
            }
            *count += 1;
            Some(key)
        } else {
            None
        };
        let slot = {
            let mut slots = self.shared.slots.lock();
            match slots.get(&signed.proposal.payload.chaincode.name) {
                Some(slot) => *slot,
                None => {
                    let slot = self.pool.scheduler().register();
                    slots.insert(signed.proposal.payload.chaincode.name.clone(), slot);
                    slot
                }
            }
        };
        let (ticket_tx, ticket_rx) = channel::bounded(1);
        let task = SimTask {
            signed,
            ticket_tx,
            client_key,
        };
        match self.pool.scheduler().submit(slot, task) {
            Some(_) => Ok(EndorseTicket { rx: ticket_rx }),
            None => {
                // `close`/`drop` need exclusive access to the pipeline, so
                // the scheduler cannot close while a `&self` submit runs.
                unreachable!("scheduler closed under a live pipeline handle")
            }
        }
    }

    /// Submits and waits: the drop-in equivalent of
    /// [`crate::Peer::process_proposal`], raising the same errors.
    pub fn endorse(&self, signed: SignedProposal) -> Result<ProposalResponse, PeerError> {
        match self.submit(signed) {
            Ok(ticket) => ticket.wait(),
            Err(_reject) => Err(PeerError::Chaincode(
                fabric_chaincode::ChaincodeError::Aborted("endorsement pipeline saturated".into()),
            )),
        }
    }

    /// Current pipeline counters.
    pub fn stats(&self) -> EndorseStats {
        EndorseStats {
            endorsed: self.shared.endorsed.load(Ordering::SeqCst),
            failed: self.shared.failed.load(Ordering::SeqCst),
            sign_batches: self.shared.sign_batches.load(Ordering::SeqCst),
            max_batch: self.shared.max_batch.load(Ordering::SeqCst),
            rejected_saturated: self.shared.rejected_saturated.load(Ordering::SeqCst),
            rejected_client: self.shared.rejected_client.load(Ordering::SeqCst),
        }
    }

    /// Proposals admitted but not yet picked up by a worker.
    pub fn backlog(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }

    /// The configured intake bound (admission fronts scale retry hints
    /// off `backlog / intake_capacity`).
    pub fn intake_capacity(&self) -> usize {
        self.opts.intake_capacity
    }

    /// Drains queued proposals, then stops and joins every stage. Tickets
    /// for admitted proposals are all answered before this returns.
    pub fn close(self) {}
}

impl Drop for EndorsePipeline {
    fn drop(&mut self) {
        // Joining the workers drops their job closure and with it the
        // last sign-queue sender: the signer drains the queue and exits.
        self.pool.close();
        if let Some(signer) = self.signer.take() {
            let _ = signer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{fixture, make_peer, signed_proposal};
    use fabric_msp::Role;

    #[test]
    fn pipeline_matches_sequential_endorser() {
        let fx = fixture();
        let peer = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let pipeline = peer.endorse_pipeline(EndorseOptions {
            workers: 4,
            ..EndorseOptions::default()
        });
        for i in 0..10u8 {
            let sp = signed_proposal(
                &client,
                &fx.channel,
                "kvcc",
                "put",
                vec![vec![b'k', i], vec![b'v', i]],
                [i; 32],
            );
            let sequential = peer.process_proposal(&sp).unwrap();
            let piped = pipeline.endorse(sp).unwrap();
            assert_eq!(piped.payload, sequential.payload);
            assert_eq!(
                piped.endorsement.signature, sequential.endorsement.signature,
                "deterministic signatures must make the paths byte-identical"
            );
        }
        pipeline.close();
    }

    #[test]
    fn pipeline_surfaces_same_errors() {
        let fx = fixture();
        let peer = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let pipeline = peer.endorse_pipeline(EndorseOptions::default());
        // Tampered signature → Identity, like the sequential path.
        let mut sp = signed_proposal(
            &client,
            &fx.channel,
            "kvcc",
            "get",
            vec![b"k".to_vec()],
            [1; 32],
        );
        sp.signature[3] ^= 1;
        assert!(matches!(pipeline.endorse(sp), Err(PeerError::Identity(_))));
        // Unknown chaincode → Chaincode(NotInstalled).
        let sp = signed_proposal(&client, &fx.channel, "ghost", "go", vec![], [2; 32]);
        assert!(matches!(pipeline.endorse(sp), Err(PeerError::Chaincode(_))));
        // Business rejection → ChaincodeRejected.
        let sp = signed_proposal(&client, &fx.channel, "kvcc", "nope", vec![], [3; 32]);
        assert!(matches!(
            pipeline.endorse(sp),
            Err(PeerError::ChaincodeRejected(_))
        ));
        let stats = pipeline.stats();
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.endorsed, 0);
        pipeline.close();
    }

    #[test]
    fn client_inflight_cap_rejects_excess() {
        let fx = fixture();
        let peer = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let other = fabric_msp::issue_identity(&fx.ca1, "client2", Role::Client, b"c2");
        // A chaincode that blocks until released, to hold proposals in
        // flight deterministically.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let g = gate.clone();
        peer.install_chaincode(
            "gated",
            Arc::new(
                move |_: &mut fabric_chaincode::Stub<'_>| -> Result<Vec<u8>, String> {
                    while !g.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Ok(vec![])
                },
            ),
        );
        let pipeline = peer.endorse_pipeline(EndorseOptions {
            workers: 2,
            client_max_inflight: 2,
            ..EndorseOptions::default()
        });
        let t1 = pipeline
            .submit(signed_proposal(
                &client,
                &fx.channel,
                "gated",
                "go",
                vec![],
                [1; 32],
            ))
            .expect("first in-flight");
        let t2 = pipeline
            .submit(signed_proposal(
                &client,
                &fx.channel,
                "gated",
                "go",
                vec![],
                [2; 32],
            ))
            .expect("second in-flight");
        // Third from the same client: over the cap.
        let rejected = pipeline.submit(signed_proposal(
            &client,
            &fx.channel,
            "gated",
            "go",
            vec![],
            [3; 32],
        ));
        assert!(matches!(rejected, Err(EndorseReject::ClientSaturated(_))));
        // A different client is not affected by the first one's cap.
        let t3 = pipeline
            .submit(signed_proposal(
                &other,
                &fx.channel,
                "gated",
                "go",
                vec![],
                [4; 32],
            ))
            .expect("other client admitted");
        gate.store(true, Ordering::SeqCst);
        t1.wait().unwrap();
        t2.wait().unwrap();
        t3.wait().unwrap();
        // Cap released after delivery: the client can submit again.
        assert!(pipeline
            .submit(signed_proposal(
                &client,
                &fx.channel,
                "gated",
                "go",
                vec![],
                [5; 32]
            ))
            .is_ok());
        pipeline.close();
    }

    #[test]
    fn intake_bound_rejects_when_full() {
        let fx = fixture();
        let peer = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let g = gate.clone();
        peer.install_chaincode(
            "gated",
            Arc::new(
                move |_: &mut fabric_chaincode::Stub<'_>| -> Result<Vec<u8>, String> {
                    while !g.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Ok(vec![])
                },
            ),
        );
        let pipeline = peer.endorse_pipeline(EndorseOptions {
            workers: 1,
            intake_capacity: 3,
            ..EndorseOptions::default()
        });
        let mut tickets = Vec::new();
        let mut saturated = false;
        // The single worker picks up at most one task (decrementing the
        // gauge once); pushing well past the bound must hit Saturated.
        for i in 0..8u8 {
            match pipeline.submit(signed_proposal(
                &client,
                &fx.channel,
                "gated",
                "go",
                vec![],
                [i + 10; 32],
            )) {
                Ok(t) => tickets.push(t),
                Err(EndorseReject::Saturated(_)) => {
                    saturated = true;
                    break;
                }
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
        assert!(saturated, "intake bound never engaged");
        gate.store(true, Ordering::SeqCst);
        for t in tickets {
            t.wait().unwrap();
        }
        pipeline.close();
    }

    #[test]
    fn close_answers_all_admitted_tickets() {
        let fx = fixture();
        let peer = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let pipeline = peer.endorse_pipeline(EndorseOptions {
            workers: 2,
            ..EndorseOptions::default()
        });
        let tickets: Vec<EndorseTicket> = (0..32u8)
            .map(|i| {
                pipeline
                    .submit(signed_proposal(
                        &client,
                        &fx.channel,
                        "kvcc",
                        "put",
                        vec![vec![b'k', i], vec![b'v', i]],
                        [i; 32],
                    ))
                    .unwrap()
            })
            .collect();
        pipeline.close();
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn signer_batches_under_load() {
        let fx = fixture();
        let peer = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let pipeline = peer.endorse_pipeline(EndorseOptions {
            workers: 4,
            ..EndorseOptions::default()
        });
        let tickets: Vec<EndorseTicket> = (0..64u8)
            .map(|i| {
                pipeline
                    .submit(signed_proposal(
                        &client,
                        &fx.channel,
                        "kvcc",
                        "put",
                        vec![vec![b'k', i], vec![b'v', i]],
                        [i; 32],
                    ))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = pipeline.stats();
        assert_eq!(stats.endorsed, 64);
        // 64 proposals through 4 workers racing one signer: at least one
        // drain must have coalesced multiple payloads (the amortization
        // the batch ESCC exists for).
        assert!(
            stats.sign_batches < 64 || stats.max_batch > 1,
            "signer never batched: {stats:?}"
        );
        pipeline.close();
    }
}
