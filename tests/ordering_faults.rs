//! Ordering fault battery: the pipelined ordering service under crashes,
//! partitions, forged submissions, and reconfiguration.
//!
//! Five scenarios, all on pipelined Raft clusters:
//!
//! 1. **Leader crash mid-pipeline** — the leader accepts proposals whose
//!    replication traffic is lost, then fail-stops. Survivors elect a new
//!    leader; retried submissions commit; no committed block is lost and
//!    survivors agree byte for byte.
//! 2. **Follower partition + heal** — a partitioned follower misses whole
//!    pipelined windows; after the partition heals, probe-triggered
//!    go-back-N retransmission catches it up to an identical chain.
//! 3. **Forged signatures interleaved with valid traffic** — invalid
//!    envelopes are rejected at intake, never reach consensus, and never
//!    perturb the ordering of the survivors.
//! 4. **Config envelope flushing a partial batch** — a reconfiguration
//!    arriving while a partial batch is pending (and batched submissions
//!    are in flight) flushes the batch, lands alone in its own block, and
//!    applies on every OSN.
//! 5. **Compaction behind a partition, then failover** — every OSN
//!    compacts its Raft log each tick while a follower is partitioned;
//!    the leader crashes and the partition heals. The remaining follower
//!    must not have compacted what the healed one still needs: it wins
//!    the election and repairs it to an identical chain.

use fabric::ordering::testkit::{make_envelope, TestNet};
use fabric::ordering::OrderingCluster;
use fabric::primitives::config::{BatchConfig, ConfigSignature, ConsensusType};
use fabric::primitives::rwset::TxReadWriteSet;
use fabric::primitives::transaction::{Envelope, EnvelopeContent};
use fabric::primitives::wire::Wire;

const OSNS: usize = 3;

fn nonce(i: u64) -> [u8; 32] {
    let mut n = [0u8; 32];
    n[..8].copy_from_slice(&i.to_le_bytes());
    n
}

fn batch(max_count: u32, timeout_ms: u64) -> BatchConfig {
    BatchConfig {
        max_message_count: max_count,
        absolute_max_bytes: 10 << 20,
        preferred_max_bytes: 2 << 20,
        batch_timeout_ms: timeout_ms,
    }
}

fn raft_cluster(net: &TestNet) -> OrderingCluster {
    OrderingCluster::new(
        ConsensusType::Raft,
        net.orderers(OSNS),
        vec![net.genesis.clone()],
    )
    .expect("bootstrap")
}

fn current_leader(cluster: &OrderingCluster) -> u64 {
    cluster
        .nodes()
        .iter()
        .find(|n| !cluster.is_down(n.id()) && n.consensus_leader() == Some(n.id()))
        .expect("a live leader exists")
        .id()
}

/// Every envelope delivered on `osn`'s chain, in order.
fn delivered(cluster: &OrderingCluster, net: &TestNet, osn: usize) -> Vec<Envelope> {
    let mut out = Vec::new();
    let height = cluster.nodes()[osn].height(&net.channel).unwrap_or(0);
    for seq in 1..height {
        out.extend(
            cluster
                .deliver_from(osn, &net.channel, seq)
                .expect("below height")
                .envelopes,
        );
    }
    out
}

#[test]
fn leader_crash_mid_pipeline_loses_nothing_committed() {
    let net = TestNet::with_batch(&["Org1"], ConsensusType::Raft, OSNS, batch(2, 10_000));
    let mut cluster = raft_cluster(&net);
    let client = net.client(0, "c1");
    let envs: Vec<Envelope> = (0..8)
        .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
        .collect();

    // Four committed envelopes (two blocks). A couple of ticks let the
    // commit index propagate to the followers via heartbeats.
    for env in &envs[..4] {
        cluster.broadcast(env.clone()).unwrap();
    }
    for _ in 0..3 {
        cluster.tick();
    }
    let committed_height = cluster.height(&net.channel);
    assert_eq!(committed_height, 3, "genesis + two blocks");

    // The leader accepts two more proposals whose replication traffic is
    // lost mid-pipeline, then crashes.
    let leader = current_leader(&cluster);
    cluster.set_fault(Box::new(move |from, _, _| from != leader));
    cluster
        .broadcast_via(leader as usize, envs[4].clone())
        .unwrap();
    cluster
        .broadcast_via(leader as usize, envs[5].clone())
        .unwrap();
    cluster.crash(leader);
    cluster.clear_fault();

    // Survivors elect a new leader.
    for _ in 0..100 {
        cluster.tick();
    }
    let new_leader = current_leader(&cluster);
    assert_ne!(new_leader, leader, "a survivor took over");

    // Clients retry the lost envelopes plus fresh traffic.
    for env in &envs[4..8] {
        cluster.broadcast(env.clone()).unwrap();
    }
    for _ in 0..30 {
        cluster.tick();
    }

    cluster.assert_identical_chains(&net.channel);
    let survivor = cluster
        .nodes()
        .iter()
        .find(|n| !cluster.is_down(n.id()))
        .unwrap()
        .id() as usize;
    let all = delivered(&cluster, &net, survivor);
    for (i, env) in envs.iter().enumerate() {
        assert_eq!(
            all.iter().filter(|e| *e == env).count(),
            1,
            "envelope {i} delivered exactly once"
        );
    }
    // The pre-crash committed prefix survived verbatim.
    for seq in 1..committed_height {
        assert!(
            cluster.deliver_from(survivor, &net.channel, seq).is_some(),
            "committed block {seq} survived the leader crash"
        );
    }
}

#[test]
fn partitioned_follower_heals_via_gap_retransmit() {
    let net = TestNet::with_batch(&["Org1"], ConsensusType::Raft, OSNS, batch(2, 10_000));
    let mut cluster = raft_cluster(&net);
    let client = net.client(0, "c1");
    let leader = current_leader(&cluster);
    // Partition a follower entirely.
    let victim = (0..OSNS as u64).find(|&i| i != leader).unwrap();
    cluster.set_fault(Box::new(move |from, to, _| from != victim && to != victim));

    // A majority keeps committing whole pipelined windows the victim
    // never sees. Submit via the leader (round robin would stall on the
    // victim's entry turn).
    let envs: Vec<Envelope> = (0..10)
        .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
        .collect();
    for chunk in envs.chunks(5) {
        for verdict in cluster.broadcast_batch_via(leader as usize, chunk.to_vec()) {
            verdict.unwrap();
        }
        cluster.tick();
    }
    let leader_height = cluster.nodes()[leader as usize]
        .height(&net.channel)
        .unwrap();
    let victim_height = cluster.nodes()[victim as usize]
        .height(&net.channel)
        .unwrap();
    assert_eq!(leader_height, 6, "majority committed five blocks");
    assert_eq!(victim_height, 1, "victim saw nothing past genesis");

    // Heal: the leader's probes detect the gap; go-back-N retransmission
    // catches the victim up without any new proposals.
    cluster.clear_fault();
    for _ in 0..50 {
        cluster.tick();
    }
    let victim_height = cluster.nodes()[victim as usize]
        .height(&net.channel)
        .unwrap();
    assert_eq!(victim_height, leader_height, "victim caught up");
    cluster.assert_identical_chains(&net.channel);
    assert_eq!(delivered(&cluster, &net, victim as usize), envs);
}

#[test]
fn forged_envelopes_never_reach_consensus_or_reorder_survivors() {
    let net = TestNet::with_batch(&["Org1"], ConsensusType::Raft, OSNS, batch(3, 10_000));
    // The forged envelopes must be rejected by the intake check, not by
    // delivery.
    let mut cluster = raft_cluster(&net);
    let client = net.client(0, "c1");
    let valid: Vec<Envelope> = (0..6)
        .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
        .collect();
    let forged: Vec<Envelope> = valid
        .iter()
        .map(|env| {
            let mut bad = env.clone();
            bad.signature[7] ^= 0x55;
            bad
        })
        .collect();

    // Interleave valid and forged envelopes in one batched intake round.
    let mixed: Vec<Envelope> = valid
        .iter()
        .zip(&forged)
        .flat_map(|(v, f)| [v.clone(), f.clone()])
        .collect();
    let verdicts = cluster.broadcast_batch(mixed);
    for (i, verdict) in verdicts.iter().enumerate() {
        if i % 2 == 0 {
            assert!(verdict.is_ok(), "valid envelope {i} accepted");
        } else {
            assert!(verdict.is_err(), "forged envelope {i} rejected");
        }
    }
    for _ in 0..30 {
        cluster.tick();
    }
    cluster.assert_identical_chains(&net.channel);
    for osn in 0..OSNS {
        let all = delivered(&cluster, &net, osn);
        assert_eq!(
            all, valid,
            "survivors in order, forgeries absent (OSN {osn})"
        );
    }
}

#[test]
fn config_envelope_flushes_partial_batch_under_pipelining() {
    let net = TestNet::with_batch(
        &["Org1", "Org2"],
        ConsensusType::Raft,
        OSNS,
        batch(100, 10_000),
    );
    let mut cluster = raft_cluster(&net);
    let client = net.client(0, "c1");
    let envs: Vec<Envelope> = (0..3)
        .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
        .collect();
    // A partial batch rides one pipelined consensus slot; nothing cuts
    // (count cap 100, lazy timeout).
    for verdict in cluster.broadcast_batch(envs.clone()) {
        verdict.unwrap();
    }
    assert_eq!(cluster.height(&net.channel), 1, "batch still pending");

    // Reconfigure: cut after 2 messages. MAJORITY(admins) over three orgs
    // (Org1, Org2, OrdererMSP) needs two admin signatures.
    let mut new_config = net.genesis.clone();
    new_config.sequence = 1;
    new_config.orderer.batch.max_message_count = 2;
    let config_bytes = new_config.to_wire();
    let admin1 = net.admin(0, "a1");
    let admin2 = net.admin(1, "a2");
    let update = fabric::primitives::config::ConfigUpdate {
        config: new_config,
        signatures: vec![
            ConfigSignature {
                signer: admin1.serialized(),
                signature: admin1.sign(&config_bytes).to_bytes().to_vec(),
            },
            ConfigSignature {
                signer: admin2.serialized(),
                signature: admin2.sign(&config_bytes).to_bytes().to_vec(),
            },
        ],
    };
    let content = EnvelopeContent::Config(update);
    let signature = admin1
        .sign(&Envelope::signing_bytes(&content))
        .to_bytes()
        .to_vec();
    cluster.broadcast(Envelope { content, signature }).unwrap();
    for _ in 0..20 {
        cluster.tick();
    }

    // Block 1: the flushed partial batch. Block 2: the config, alone.
    cluster.assert_identical_chains(&net.channel);
    let flushed = cluster.deliver(&net.channel, 1).expect("flushed batch");
    assert_eq!(flushed.envelopes, envs);
    let config_block = cluster.deliver(&net.channel, 2).expect("config block");
    assert!(config_block.is_config_block());
    assert_eq!(config_block.envelopes.len(), 1);

    // The new batching (cut at 2) is live on every OSN.
    for i in 0..2 {
        cluster
            .broadcast(make_envelope(
                &client,
                &net.channel,
                nonce(100 + i),
                TxReadWriteSet::default(),
            ))
            .unwrap();
    }
    for _ in 0..3 {
        cluster.tick();
    }
    assert_eq!(
        cluster.height(&net.channel),
        4,
        "new message-count cap live"
    );
    assert_eq!(
        cluster
            .deliver(&net.channel, 3)
            .unwrap()
            .metadata
            .last_config,
        2
    );
    cluster.assert_identical_chains(&net.channel);
}

#[test]
fn compacted_survivor_repairs_healed_follower_after_leader_crash() {
    let net = TestNet::with_batch(&["Org1"], ConsensusType::Raft, OSNS, batch(2, 10_000));
    let mut cluster = raft_cluster(&net);
    let client = net.client(0, "c1");
    let leader = current_leader(&cluster);
    let victim = (0..OSNS as u64).find(|&i| i != leader).unwrap();
    let survivor = (0..OSNS as u64)
        .find(|&i| i != leader && i != victim)
        .unwrap();
    cluster.set_fault(Box::new(move |from, to, _| from != victim && to != victim));

    // Leader and survivor order six blocks; every tick compacts each
    // OSN's Raft log as far as the leader's floor allows.
    let envs: Vec<Envelope> = (0..12)
        .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
        .collect();
    for chunk in envs.chunks(2) {
        for verdict in cluster.broadcast_batch_via(leader as usize, chunk.to_vec()) {
            verdict.unwrap();
        }
        cluster.tick();
    }
    for _ in 0..5 {
        cluster.tick();
    }
    let height = |cluster: &OrderingCluster, osn: u64| {
        cluster.nodes()[osn as usize].height(&net.channel).unwrap()
    };
    assert_eq!(height(&cluster, survivor), 7, "survivor holds six blocks");
    assert_eq!(
        height(&cluster, victim),
        1,
        "victim saw nothing past genesis"
    );

    // The leader crashes and the partition heals: only the survivor can
    // win an election, and it must repair the victim from its own log.
    cluster.crash(leader);
    cluster.clear_fault();
    for _ in 0..200 {
        cluster.tick();
    }
    assert_eq!(current_leader(&cluster), survivor);
    assert_eq!(height(&cluster, victim), height(&cluster, survivor));
    assert_eq!(height(&cluster, victim), 7, "victim caught up");
    cluster.assert_identical_chains(&net.channel);
    assert_eq!(delivered(&cluster, &net, victim as usize), envs);
}
