//! Gateway equivalence battery: when no admission limit trips, the
//! gateway must be **observationally invisible** — a random transaction
//! stream admitted through the gateway mempool and drained into the
//! ordering service yields a ledger byte-identical to the same stream
//! broadcast directly.
//!
//! The property exercises the full mempool path (FIFO queue, fee index,
//! batched `broadcast_batch` drains) under randomized fees, drain points,
//! and tick interleavings. It holds because dispatch order is strictly
//! admission order (fees matter only on overflow, and the pool never
//! overflows here) and because PR 8 proved one batched consensus slot
//! equivalent to individual broadcasts for tick-aligned batch timeouts.
//!
//! A deterministic companion test checks that duplicate submissions are
//! absorbed by the dedup window without disturbing the ordered stream.

use std::sync::OnceLock;

use fabric::gateway::{Admit, Gateway, GatewayConfig};
use fabric::ordering::testkit::{make_envelope, TestNet};
use fabric::ordering::OrderingCluster;
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::transaction::Envelope;
use fabric::primitives::wire::Wire;
use proptest::prelude::*;

const OSNS: usize = 3;
const POOL_SIZE: usize = 48;

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit the next `n` envelopes (gateway: `submit`; oracle: queue).
    Submit(usize),
    /// Drain everything queued so far into ordering.
    Drain,
    /// Advance every OSN's clock `n` ticks.
    Tick(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 1usize..6).prop_map(|(sel, n)| match sel {
        0 | 1 => Op::Submit(n),
        2 => Op::Drain,
        _ => Op::Tick(1 + n % 3),
    })
}

/// Envelope signing is the slow part; built once, shared by every case
/// (envelope validity depends only on the deterministic org CAs). Four
/// clients interleave so per-client admission state is exercised too.
struct Pool {
    net: TestNet,
    orderers: Vec<fabric::msp::SigningIdentity>,
    envelopes: Vec<Envelope>,
}

fn envelope_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let net = TestNet::new(&["Org1"], ConsensusType::Raft, OSNS);
        let orderers = net.orderers(OSNS);
        let clients: Vec<_> = (0..4).map(|i| net.client(0, &format!("c{i}"))).collect();
        let envelopes = (0..POOL_SIZE as u64)
            .map(|i| {
                let mut nonce = [0u8; 32];
                nonce[..8].copy_from_slice(&i.to_le_bytes());
                make_envelope(
                    &clients[(i % 4) as usize],
                    &net.channel,
                    nonce,
                    TxReadWriteSet::default(),
                )
            })
            .collect();
        Pool {
            net,
            orderers,
            envelopes,
        }
    })
}

fn cluster(batch: BatchConfig) -> OrderingCluster {
    let pool = envelope_pool();
    let mut genesis = pool.net.genesis.clone();
    genesis.orderer.batch = batch;
    OrderingCluster::new(ConsensusType::Raft, pool.orderers.clone(), vec![genesis])
        .expect("bootstrap")
}

/// A gateway that cannot trip a limit on this workload: unlimited rate,
/// mempool larger than the pool, no downstream credit reports.
fn permissive_gateway() -> Gateway {
    Gateway::new(GatewayConfig {
        client_rate_per_sec: 0,
        mempool_capacity: POOL_SIZE * 2,
        dedup_capacity: POOL_SIZE * 2,
        ..GatewayConfig::default()
    })
}

fn chain_bytes(cluster: &OrderingCluster) -> Vec<Vec<u8>> {
    let channel = &envelope_pool().net.channel;
    (0..cluster.height(channel))
        .map(|seq| {
            cluster
                .deliver(channel, seq)
                .expect("below height")
                .to_wire()
        })
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

    /// The headline property: gateway-mediated submission is
    /// byte-equivalent to direct broadcast when no limit trips.
    #[test]
    fn gateway_stream_equals_direct_broadcast(
        ops in prop::collection::vec(op_strategy(), 1..14),
        fees in prop::collection::vec(1u64..100, POOL_SIZE),
        max_count in 1u32..6,
        timeout_sel in 0usize..3,
    ) {
        // Tick-aligned timeouts: no sub-tick timer can fire mid-batch, the
        // precondition PR 8 established for batch/single equivalence.
        let timeout_ms = [200u64, 400, 1000][timeout_sel];
        let batch = batch_config(max_count, timeout_ms);
        let pool = &envelope_pool().envelopes;

        let mut gated = cluster(batch);
        let mut direct = cluster(batch);
        let mut gateway = permissive_gateway();
        let mut queue: Vec<Envelope> = Vec::new();
        let mut next = 0usize;
        let mut now_ms = 0u64;

        for op in &ops {
            match op {
                Op::Submit(n) => {
                    for env in pool.iter().skip(next).take(*n) {
                        let fee = fees[next % fees.len()];
                        let verdict = gateway.submit(env.clone(), fee, now_ms);
                        prop_assert_eq!(verdict, Admit::Admitted, "no limit may trip");
                        queue.push(env.clone());
                        next += 1;
                    }
                }
                Op::Drain => {
                    gateway.drain_all(&mut gated);
                    for env in queue.drain(..) {
                        direct.broadcast(env).expect("accepted");
                    }
                }
                Op::Tick(n) => {
                    for _ in 0..*n {
                        gated.tick();
                        direct.tick();
                        now_ms += 200;
                    }
                }
            }
        }
        // Final drain + quiescence.
        gateway.drain_all(&mut gated);
        for env in queue.drain(..) {
            direct.broadcast(env).expect("accepted");
        }
        for _ in 0..30 {
            gated.tick();
            direct.tick();
        }

        let channel = &envelope_pool().net.channel;
        gated.assert_identical_chains(channel);
        direct.assert_identical_chains(channel);
        let a = chain_bytes(&gated);
        let b = chain_bytes(&direct);
        prop_assert_eq!(a.len(), b.len(), "same height after quiescence");
        prop_assert_eq!(a, b, "gateway is invisible in the ordered stream");

        let stats = gateway.stats();
        prop_assert_eq!(stats.dispatched, next as u64, "everything dispatched");
        prop_assert_eq!(stats.duplicates + stats.rate_limited + stats.overload_shed
            + stats.fee_rejected + stats.evicted, 0, "no limit tripped");
    }
}

/// Duplicates are absorbed by the dedup window: flooding the same
/// envelopes produces the same chain as submitting each once.
#[test]
fn duplicate_flood_is_invisible() {
    let batch = batch_config(4, 400);
    let pool = &envelope_pool().envelopes;
    let mut gated = cluster(batch);
    let mut direct = cluster(batch);
    let mut gateway = permissive_gateway();

    for (i, env) in pool.iter().take(12).enumerate() {
        assert_eq!(gateway.submit(env.clone(), 10, i as u64), Admit::Admitted);
        // Flood: every envelope resubmitted several times, pre- and
        // post-admission of its successors.
        for _ in 0..5 {
            assert_eq!(gateway.submit(env.clone(), 10, i as u64), Admit::Duplicate);
        }
        direct.broadcast(env.clone()).expect("accepted");
    }
    gateway.drain_all(&mut gated);
    // Dispatched ids stay in the window: the flood keeps bouncing.
    for env in pool.iter().take(12) {
        assert_eq!(gateway.submit(env.clone(), 10, 99), Admit::Duplicate);
    }
    for _ in 0..30 {
        gated.tick();
        direct.tick();
    }
    assert_eq!(chain_bytes(&gated), chain_bytes(&direct));
    assert_eq!(gateway.stats().duplicates, 12 * 6);
    assert_eq!(gateway.stats().dispatched, 12);
}
