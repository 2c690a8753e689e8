//! Gateway fault battery: the admission layer under hostile and degraded
//! conditions. Every assertion reads gateway/pipeline counters or ledger
//! contents — no sleeps, no wall clock.
//!
//! * A duplicate flood starves nobody: the dedup window absorbs it in
//!   front of the mempool (ordering side) and in front of signature
//!   verification (endorse side).
//! * Overflow eviction is strictly fee-then-age, equal-fee newcomers are
//!   shed, and an evicted transaction gets its dedup slot back.
//! * A client that ignores `RetryAfter` hints is rate-limited in its own
//!   bucket while an honoring client progresses unharmed; the SDK's
//!   backoff loop converges once downstream recovers.
//! * Crashing the gateway's preferred orderer mid-drain fails over
//!   without losing or duplicating a single admitted transaction.

mod common;

use std::sync::OnceLock;

use common::PipelineWorld;
use fabric::client::{Client, GatewayOutcome, RetryPolicy};
use fabric::gateway::{
    Admit, FrontConfig, FrontSubmit, Gateway, GatewayConfig, GatewayFront, ShedReason, SimClock,
};
use fabric::ordering::testkit::{make_envelope, TestNet};
use fabric::ordering::OrderingCluster;
use fabric::peer::EndorseOptions;
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::TxId;
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::transaction::{Envelope, EnvelopeContent};

const OSNS: usize = 3;

/// Signed envelopes are the expensive part; one shared pool. Three
/// clients: a generic one, plus an honorer/ignorer pair for the
/// rate-limit isolation test (buckets key on the creator certificate).
struct Pool {
    net: TestNet,
    orderers: Vec<fabric::msp::SigningIdentity>,
    generic: Vec<Envelope>,
    honorer: Vec<Envelope>,
    ignorer: Vec<Envelope>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let net = TestNet::new(&["Org1"], ConsensusType::Raft, OSNS);
        let orderers = net.orderers(OSNS);
        let make = |name: &str, n: u64, salt: u8| {
            let client = net.client(0, name);
            (0..n)
                .map(|i| {
                    let mut nonce = [salt; 32];
                    nonce[..8].copy_from_slice(&i.to_le_bytes());
                    make_envelope(&client, &net.channel, nonce, TxReadWriteSet::default())
                })
                .collect::<Vec<_>>()
        };
        Pool {
            generic: make("gen", 64, 1),
            honorer: make("hon", 24, 2),
            // Rate-limit rejections do not consume envelopes, so the
            // ignorer only needs as many as it can get admitted.
            ignorer: make("ign", 32, 3),
            net,
            orderers,
        }
    })
}

fn raft_cluster(max_count: u32) -> OrderingCluster {
    let p = pool();
    let mut genesis = p.net.genesis.clone();
    genesis.orderer.batch = BatchConfig {
        max_message_count: max_count,
        absolute_max_bytes: 10 << 20,
        preferred_max_bytes: 2 << 20,
        batch_timeout_ms: 400,
    };
    OrderingCluster::new(ConsensusType::Raft, p.orderers.clone(), vec![genesis]).expect("bootstrap")
}

/// Every transaction id in `osn`'s chain, in order.
fn chain_tx_ids(cluster: &OrderingCluster, osn: usize) -> Vec<TxId> {
    let channel = &pool().net.channel;
    let mut ids = Vec::new();
    let mut seq = 0;
    while let Some(block) = cluster.deliver_from(osn, channel, seq) {
        for env in &block.envelopes {
            if let EnvelopeContent::Transaction(_) = &env.content {
                ids.push(env.tx_id());
            }
        }
        seq += 1;
    }
    ids
}

/// A duplicate flood is absorbed by the dedup window and starves nobody:
/// every distinct victim transaction is admitted and ordered while the
/// flood bounces off one LRU entry.
#[test]
fn duplicate_flood_starves_nobody() {
    let p = pool();
    let mut cluster = raft_cluster(8);
    let mut gateway = Gateway::new(GatewayConfig {
        mempool_capacity: 32,
        dedup_capacity: 64,
        ..GatewayConfig::default()
    });
    let flooded = &p.generic[0];
    assert_eq!(gateway.submit(flooded.clone(), 1, 0), Admit::Admitted);
    let victims = &p.generic[1..21];
    for (i, victim) in victims.iter().enumerate() {
        // 15 flood copies between every victim submission.
        for _ in 0..15 {
            assert_eq!(
                gateway.submit(flooded.clone(), 1, i as u64),
                Admit::Duplicate
            );
        }
        assert_eq!(
            gateway.submit(victim.clone(), 1, i as u64),
            Admit::Admitted,
            "victim {i} must not be starved by the flood"
        );
    }
    gateway.drain_all(&mut cluster);
    for _ in 0..40 {
        cluster.tick();
    }
    let stats = gateway.stats();
    assert_eq!(stats.duplicates, 20 * 15);
    assert_eq!(stats.dispatched, 21);
    let ids = chain_tx_ids(&cluster, 0);
    assert_eq!(ids.len(), 21, "flooded tx once, every victim once");
    for victim in victims {
        assert!(ids.contains(&victim.tx_id()), "victim ordered");
    }
}

/// The endorse-side front drops flooded duplicates before any signature
/// verification: the pipeline sees exactly one copy, and tampered flood
/// copies never even reach the authenticator.
#[test]
fn front_dedup_drops_flood_before_verification() {
    let world = PipelineWorld::new();
    let pipeline = world.builder.endorse_pipeline(EndorseOptions::default());
    let mut front = GatewayFront::new(FrontConfig::default());
    let signed = world
        .client
        .create_proposal("kv", "put", vec![b"k".to_vec(), b"v".to_vec()]);
    let FrontSubmit::Admitted(ticket) = front.submit(&pipeline, signed.clone(), 0) else {
        panic!("first copy admitted");
    };
    ticket.wait().expect("endorses");
    // Flood: 49 copies, half with tampered signatures. Dedup keys on the
    // transaction id, so none of them reach the verifier.
    for i in 0..49u8 {
        let mut copy = signed.clone();
        if i % 2 == 0 {
            copy.signature[4] ^= 0x20;
        }
        assert!(matches!(
            front.submit(&pipeline, copy, i as u64),
            FrontSubmit::Duplicate
        ));
    }
    let fstats = front.stats();
    assert_eq!(fstats.duplicates, 49);
    assert_eq!(fstats.admitted, 1);
    let pstats = pipeline.stats();
    assert_eq!(pstats.endorsed, 1, "pipeline simulated exactly one copy");
    assert_eq!(
        pstats.failed, 0,
        "tampered floods never reached verification"
    );
    assert_eq!(pstats.rejected_saturated + pstats.rejected_client, 0);
    pipeline.close();
}

/// Overflow eviction: victim is (lowest fee, oldest among equals), an
/// equal-fee newcomer is shed, dispatch order stays admission order, and
/// an evicted transaction can be legitimately resubmitted.
#[test]
fn overflow_evicts_by_fee_then_age() {
    let p = pool();
    let e = &p.generic[21..33]; // fresh ids, untouched by other tests
    let mut gateway = Gateway::new(GatewayConfig {
        mempool_capacity: 6,
        ..GatewayConfig::default()
    });
    let fees = [30u64, 10, 20, 10, 40, 50];
    for (env, fee) in e.iter().zip(fees) {
        assert_eq!(gateway.submit(env.clone(), fee, 0), Admit::Admitted);
    }
    // Equal fee does not displace: the newcomer is shed.
    assert_eq!(
        gateway.submit(e[6].clone(), 10, 1),
        Admit::RetryAfter {
            reason: ShedReason::FeeTooLow,
            after_ms: gateway.config().retry_after_ms * 2
        }
    );
    // Strictly higher: evicts e[1] (the OLDEST fee-10 entry).
    assert_eq!(gateway.submit(e[7].clone(), 15, 2), Admit::Admitted);
    let ids = gateway.mempool_tx_ids();
    assert!(!ids.contains(&e[1].tx_id()), "oldest fee-10 evicted first");
    assert!(ids.contains(&e[3].tx_id()), "younger fee-10 survives");
    // Next eviction takes the remaining fee-10.
    assert_eq!(gateway.submit(e[8].clone(), 15, 3), Admit::Admitted);
    assert!(!gateway.mempool_tx_ids().contains(&e[3].tx_id()));
    // Equal to the new floor (15): shed.
    assert!(matches!(
        gateway.submit(e[9].clone(), 15, 4),
        Admit::RetryAfter {
            reason: ShedReason::FeeTooLow,
            ..
        }
    ));
    // 16 beats the floor: evicts e[7], the OLDER of the two 15s.
    assert_eq!(gateway.submit(e[10].clone(), 16, 5), Admit::Admitted);
    let ids = gateway.mempool_tx_ids();
    assert!(!ids.contains(&e[7].tx_id()));
    assert!(ids.contains(&e[8].tx_id()));
    // The evicted e[1] was never dispatched: its dedup slot is free, so a
    // legitimate resubmission (now at a competitive fee) is admitted.
    assert_eq!(gateway.submit(e[1].clone(), 99, 6), Admit::Admitted);
    // Queue order is still strictly admission order.
    let expect: Vec<TxId> = [0usize, 2, 4, 5, 10, 1]
        .iter()
        .map(|&i| e[i].tx_id())
        .collect();
    assert_eq!(gateway.mempool_tx_ids(), expect);
    let stats = gateway.stats();
    assert_eq!(stats.evicted, 4);
    assert_eq!(stats.fee_rejected, 2);
    assert_eq!(stats.admitted, 10);
}

/// Per-client buckets isolate abuse: a client hammering every
/// millisecond regardless of `RetryAfter` piles up rejections in its own
/// bucket, while a client that waits exactly the hinted time is never
/// rejected — and both make the same forward progress.
///
/// The bucket map is keyed by *unverified* creator bytes, so the same
/// second is replayed beside a flood of envelopes that each claim a
/// distinct forged creator: buckets that refilled to their burst carry no
/// information and are pruned, so the map stays bounded — and neither
/// client can tell, every verdict and `after_ms` hint is unchanged.
#[test]
fn retry_after_ignorer_limited_honorer_progresses() {
    let p = pool();
    let run = |forged_per_ms: u64| {
        let mut gateway = Gateway::new(GatewayConfig {
            client_rate_per_sec: 10,
            client_burst: 2,
            mempool_capacity: 1 << 15,
            ..GatewayConfig::default()
        });
        let mut hon_next = 0usize; // next honorer envelope
        let mut ign_next = 0usize;
        let mut hon_allowed_at = 0u64;
        let mut hon_hints = Vec::new();
        let (mut hon_admitted, mut hon_rejected) = (0u64, 0u64);
        let (mut ign_admitted, mut ign_rejected) = (0u64, 0u64);
        let mut tracked_peak = 0;
        for now in 0..1000u64 {
            for i in 0..forged_per_ms {
                let mut forged = p.generic[0].clone();
                if let EnvelopeContent::Transaction(tx) = &mut forged.content {
                    tx.creator.cert_bytes = (now * forged_per_ms + i).to_le_bytes().to_vec();
                }
                // Nothing is verified at admission: each forgery gets in
                // and spends a token from a brand-new bucket.
                assert_eq!(gateway.submit(forged, 1, now), Admit::Admitted);
            }
            // The ignorer hammers every millisecond.
            match gateway.submit(p.ignorer[ign_next].clone(), 1, now) {
                Admit::Admitted => {
                    ign_next += 1;
                    ign_admitted += 1;
                }
                Admit::RetryAfter { reason, .. } => {
                    assert_eq!(reason, ShedReason::RateLimited);
                    ign_rejected += 1;
                }
                Admit::Duplicate => unreachable!("fresh envelope"),
            }
            // The honorer submits only when the last hint allows it.
            if now >= hon_allowed_at {
                match gateway.submit(p.honorer[hon_next].clone(), 1, now) {
                    Admit::Admitted => {
                        hon_next += 1;
                        hon_admitted += 1;
                    }
                    Admit::RetryAfter { after_ms, .. } => {
                        hon_allowed_at = now + after_ms;
                        hon_hints.push((now, after_ms));
                        hon_rejected += 1;
                    }
                    Admit::Duplicate => unreachable!("fresh envelope"),
                }
            }
            tracked_peak = gateway.tracked_clients().max(tracked_peak);
        }
        assert_eq!(gateway.stats().rate_limited, hon_rejected + ign_rejected);
        let counts = [hon_admitted, hon_rejected, ign_admitted, ign_rejected];
        (counts, hon_hints, tracked_peak)
    };
    let (counts, hon_hints, _) = run(0);
    let [hon_admitted, hon_rejected, ign_admitted, ign_rejected] = counts;
    // Honoring the hint costs one probe per wait (the verdict IS the
    // hint) but the honorer is never worse off than the abuser: both
    // drain the same token stream.
    assert_eq!(
        hon_admitted, ign_admitted,
        "honorer starves nothing, gains everything"
    );
    assert!(
        hon_admitted >= 8,
        "tokens kept flowing (got {hon_admitted})"
    );
    assert!(
        hon_rejected <= hon_admitted + 1,
        "honorer pays at most one probe per admission ({hon_rejected} rejects)"
    );
    assert!(
        ign_rejected > 800,
        "the ignorer burned {ign_rejected} rejected submissions"
    );
    // A forged bucket is full again 100 ms after its one admission, so at
    // most ~1000 of the 10 000 are worth remembering at any time; the map
    // overshoots that only up to its prune trigger.
    let (flood_counts, flood_hints, tracked_peak) = run(10);
    assert!(
        tracked_peak <= 4096,
        "bucket map grew to {tracked_peak} under the flood"
    );
    assert_eq!(
        (flood_counts, flood_hints),
        (counts, hon_hints),
        "pruning is invisible"
    );
}

/// The SDK backoff loop converges: a submission shed under zero-credit
/// backpressure is retried with jittered exponential backoff and admitted
/// once the pump restores downstream credits.
#[test]
fn client_backoff_converges_after_recovery() {
    let p = pool();
    let identity = fabric::msp::issue_identity(
        &p.net.org_cas[0],
        "sdk-client",
        fabric::msp::Role::Client,
        b"sdk",
    );
    let client = Client::new(identity, p.net.channel.clone());
    let mut gateway = Gateway::new(GatewayConfig {
        mempool_capacity: 4,
        shed_watermark_pct: 50,
        ..GatewayConfig::default()
    });
    let mut clock = SimClock::new();
    // Fill to the watermark and report the commit path wedged.
    assert_eq!(gateway.submit(p.generic[40].clone(), 1, 0), Admit::Admitted);
    assert_eq!(gateway.submit(p.generic[41].clone(), 1, 0), Admit::Admitted);
    gateway.report_downstream(0);

    let mut pumps = 0u32;
    let outcome = client
        .submit_via_gateway(
            &mut gateway,
            &mut clock,
            p.generic[42].clone(),
            1,
            RetryPolicy::default(),
            |gw, _now| {
                // The pump "commits a block": credits return.
                pumps += 1;
                gw.report_downstream(4);
            },
        )
        .expect("converges once credits return");
    assert_eq!(
        outcome,
        GatewayOutcome::Admitted {
            attempts: 2,
            waited_ms: clock.now_ms()
        }
    );
    assert!(pumps >= 1);
    assert!(clock.now_ms() > 0, "backoff actually waited");
    let stats = gateway.stats();
    assert_eq!(stats.overload_shed, 1);
    assert_eq!(stats.retry_after_issued, 1);

    // Without recovery the loop gives up with the overload error.
    gateway.report_downstream(0);
    let err = client
        .submit_via_gateway(
            &mut gateway,
            &mut clock,
            p.generic[43].clone(),
            1,
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            |_gw, _now| {},
        )
        .expect_err("stays overloaded");
    let msg = err.to_string();
    assert!(
        msg.contains("3 attempts"),
        "surfaced the attempt count: {msg}"
    );
}

/// Crashing the gateway's preferred OSN mid-drain: the drain fails over
/// to the next live orderer and every admitted transaction is ordered
/// exactly once — nothing lost, nothing duplicated.
#[test]
fn dead_orderer_failover_loses_nothing() {
    let p = pool();
    let mut cluster = raft_cluster(8);
    // Let Raft elect a leader, then park the gateway on a follower.
    for _ in 0..10 {
        cluster.tick();
    }
    let leader = cluster.nodes()[0]
        .consensus_leader()
        .expect("leader elected") as usize;
    let follower = (leader + 1) % OSNS;
    let mut gateway = Gateway::new(GatewayConfig {
        drain_max: 16,
        mempool_capacity: 64,
        ..GatewayConfig::default()
    });
    gateway.set_preferred_osn(follower);

    let admitted = &p.generic[0..40];
    for (i, env) in admitted.iter().enumerate() {
        assert_eq!(gateway.submit(env.clone(), 1, i as u64), Admit::Admitted);
    }
    // First drain goes through the preferred follower…
    let report = gateway.drain_into(&mut cluster);
    assert_eq!(report.dispatched, 16);
    assert_eq!(report.osn, Some(follower));
    // …which then crashes with 24 transactions still queued.
    cluster.crash(follower as u64);
    let drained = gateway.drain_all(&mut cluster);
    assert_eq!(drained, 24, "remaining queue drained after failover");
    let stats = gateway.stats();
    assert_eq!(stats.dispatched, 40);
    assert!(stats.failovers >= 1, "failover counted");
    assert_eq!(stats.broadcast_rejected, 0);
    for _ in 0..60 {
        cluster.tick();
    }
    let live = (0..OSNS).find(|&i| !cluster.is_down(i as u64)).unwrap();
    let ids = chain_tx_ids(&cluster, live);
    let expected: Vec<TxId> = admitted.iter().map(|e| e.tx_id()).collect();
    assert_eq!(ids.len(), 40, "every admitted tx ordered exactly once");
    for id in &expected {
        assert_eq!(ids.iter().filter(|i| *i == id).count(), 1);
    }
}
