//! Ordering equivalence battery: the pipelined, batched ordering path
//! must produce **byte-identical** block streams to the pre-pipelining
//! baseline.
//!
//! Two properties, each against randomized workloads:
//!
//! 1. **Replication-mode equivalence** — the same intake schedule fed to
//!    a [`ReplicationMode::Pipelined`] Raft cluster (random in-flight
//!    window) and a [`ReplicationMode::Lockstep`] oracle yields the same
//!    chain, block for block, byte for byte (headers, envelopes, *and*
//!    orderer signatures — RFC 6979 determinism end to end).
//! 2. **Intake-batching equivalence** — submitting `k` envelopes through
//!    one `broadcast_batch` consensus slot yields the same verdicts and
//!    the same chain as `k` individual `broadcast` calls, whenever no
//!    sub-tick timer can fire mid-batch (batch timeouts of at least one
//!    driver tick).
//!
//! Workloads randomize the block-cutting knobs (message-count cap, batch
//! timeout — including sub-tick timeouts in property 1), the Raft
//! in-flight window, submission batch sizes, and the interleaving of
//! submissions with driver ticks. About one envelope in seven carries a
//! forged signature: intake must reject exactly those, whichever entry
//! point they arrive through.

use std::sync::OnceLock;

use fabric::ordering::testkit::{make_envelope, TestNet};
use fabric::ordering::{ClusterOptions, OrderingCluster};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::transaction::Envelope;
use fabric::primitives::wire::Wire;
use fabric::raft::ReplicationMode;
use proptest::prelude::*;

const OSNS: usize = 3;

/// One step of a generated intake schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit the next `n` envelopes as one `broadcast_batch` call.
    Batch(usize),
    /// Submit the next envelope via plain `broadcast`.
    Single,
    /// Advance every OSN's clock `n` ticks.
    Tick(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 1usize..6).prop_map(|(sel, n)| match sel {
        0 | 1 => Op::Batch(n),
        2 => Op::Single,
        _ => Op::Tick(1 + n % 3),
    })
}

/// Envelope signing is the slow part; the pool is built once. Envelope
/// validity depends only on the (deterministic) org CAs, not on the batch
/// parameters a case picks, so every case can share it. The orderer
/// identities are issued exactly once too: the CA stamps monotonically
/// increasing serial numbers into certificates, and the equivalence
/// properties compare block bytes *including* the signer's certificate.
struct Pool {
    net: TestNet,
    orderers: Vec<fabric::msp::SigningIdentity>,
    envelopes: Vec<Envelope>,
}

/// Which pool envelopes carry a flipped signature byte.
fn is_forged(index: usize) -> bool {
    index % 7 == 5
}

fn envelope_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let net = TestNet::new(&["Org1"], ConsensusType::Raft, OSNS);
        let orderers = net.orderers(OSNS);
        let client = net.client(0, "c1");
        let envelopes = (0..48u64)
            .map(|i| {
                let mut nonce = [0u8; 32];
                nonce[..8].copy_from_slice(&i.to_le_bytes());
                let mut envelope =
                    make_envelope(&client, &net.channel, nonce, TxReadWriteSet::default());
                if is_forged(i as usize) {
                    envelope.signature[9] ^= 0x01;
                }
                envelope
            })
            .collect();
        Pool {
            net,
            orderers,
            envelopes,
        }
    })
}

fn raft_cluster(
    batch: BatchConfig,
    mode: ReplicationMode,
    max_inflight: usize,
) -> OrderingCluster {
    let pool = envelope_pool();
    let mut genesis = pool.net.genesis.clone();
    genesis.orderer.batch = batch;
    let mut options = ClusterOptions::new(ConsensusType::Raft);
    options.raft.mode = mode;
    options.raft.max_inflight = max_inflight;
    OrderingCluster::new_with(options, pool.orderers.clone(), vec![genesis]).expect("bootstrap")
}

/// Runs `ops` against `cluster`, always drawing envelopes from the shared
/// pool in the same order. `split_batches` submits `Op::Batch` groups as
/// individual `broadcast` calls instead (the unbatched oracle).
///
/// Returns the intake verdict of each drawn envelope, in pool order
/// (`Err` carries the rejection's message), after asserting that exactly
/// the forged ones were rejected.
fn run_schedule(
    cluster: &mut OrderingCluster,
    ops: &[Op],
    split_batches: bool,
) -> Vec<Result<(), String>> {
    let pool = &envelope_pool().envelopes;
    let mut verdicts = Vec::new();
    for op in ops {
        // The envelopes drawn so far are exactly those with a verdict.
        let drawn = verdicts.len();
        match op {
            Op::Batch(n) => {
                let envs: Vec<Envelope> = pool.iter().skip(drawn).take(*n).cloned().collect();
                if split_batches {
                    for env in envs {
                        verdicts.push(cluster.broadcast(env));
                    }
                } else if !envs.is_empty() {
                    verdicts.extend(cluster.broadcast_batch(envs));
                }
            }
            Op::Single => {
                if let Some(env) = pool.get(drawn) {
                    verdicts.push(cluster.broadcast(env.clone()));
                }
            }
            Op::Tick(n) => {
                for _ in 0..*n {
                    cluster.tick();
                }
            }
        }
    }
    // Quiescence: flush stragglers (timeout path) and let consensus settle.
    for _ in 0..30 {
        cluster.tick();
    }
    let verdicts: Vec<Result<(), String>> = verdicts
        .into_iter()
        .map(|verdict| verdict.map_err(|e| e.to_string()))
        .collect();
    for (i, verdict) in verdicts.iter().enumerate() {
        assert_eq!(verdict.is_err(), is_forged(i), "envelope {i}: {verdict:?}");
    }
    verdicts
}

/// The full byte stream of OSN 0's chain (headers, envelopes, metadata —
/// including orderer signatures).
fn chain_bytes(cluster: &OrderingCluster) -> Vec<Vec<u8>> {
    let channel = &envelope_pool().net.channel;
    (0..cluster.height(channel))
        .map(|seq| cluster.deliver(channel, seq).expect("below height").to_wire())
        .collect()
}

fn batch_config(max_count: u32, timeout_ms: u64) -> BatchConfig {
    BatchConfig {
        max_message_count: max_count,
        absolute_max_bytes: 10 << 20,
        preferred_max_bytes: 2 << 20,
        batch_timeout_ms: timeout_ms,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: pipelined replication (any window) is byte-equivalent
    /// to the lockstep oracle under the same intake schedule.
    #[test]
    fn pipelined_raft_equals_lockstep_oracle(
        ops in prop::collection::vec(op_strategy(), 1..14),
        max_count in 1u32..6,
        timeout_sel in 0usize..4,
        max_inflight in 2usize..9,
    ) {
        // Sub-tick (50), tick-aligned (200), off-tick (350), lazy (1000).
        let timeout_ms = [50u64, 200, 350, 1000][timeout_sel];
        let batch = batch_config(max_count, timeout_ms);

        let mut pipelined = raft_cluster(batch, ReplicationMode::Pipelined, max_inflight);
        let mut lockstep = raft_cluster(batch, ReplicationMode::Lockstep, 1);
        run_schedule(&mut pipelined, &ops, false);
        run_schedule(&mut lockstep, &ops, false);

        let channel = &envelope_pool().net.channel;
        pipelined.assert_identical_chains(channel);
        lockstep.assert_identical_chains(channel);
        let a = chain_bytes(&pipelined);
        let b = chain_bytes(&lockstep);
        prop_assert_eq!(a.len(), b.len(), "same height after quiescence");
        prop_assert_eq!(a, b, "byte-identical block streams");
    }

    /// Property 2: one batched consensus slot is equivalent to individual
    /// submissions (tick-aligned timeouts, so no timer fires mid-batch).
    #[test]
    fn batched_intake_equals_individual_broadcasts(
        ops in prop::collection::vec(op_strategy(), 1..14),
        max_count in 1u32..6,
        timeout_sel in 0usize..3,
    ) {
        let timeout_ms = [200u64, 400, 1000][timeout_sel];
        let batch = batch_config(max_count, timeout_ms);

        let mut batched = raft_cluster(batch, ReplicationMode::Pipelined, 8);
        let mut unbatched = raft_cluster(batch, ReplicationMode::Pipelined, 8);
        let batched_verdicts = run_schedule(&mut batched, &ops, false);
        let unbatched_verdicts = run_schedule(&mut unbatched, &ops, true);
        prop_assert_eq!(batched_verdicts, unbatched_verdicts, "same verdict per envelope");

        let a = chain_bytes(&batched);
        let b = chain_bytes(&unbatched);
        prop_assert_eq!(a.len(), b.len(), "same height after quiescence");
        prop_assert_eq!(a, b, "batching is invisible in the ordered stream");
    }
}
