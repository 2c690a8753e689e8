//! # fabric-ordering
//!
//! The ordering service (paper Sec. 3.3, 4.2): stateless atomic broadcast
//! of transaction envelopes, deterministic batching into hash-chained
//! signed blocks, channel configuration and reconfiguration, and access
//! control — with **pluggable consensus** (Solo / Raft / PBFT), the paper's
//! headline modularity property.
//!
//! The service guarantees, per channel (Sec. 3.3): *agreement*, *hash-chain
//! integrity*, *no skipping*, *no creation*, and (per backend) *validity*.
//! It deliberately does **not** filter duplicate transactions — peers catch
//! those in the read-write check — and never executes or validates
//! transaction semantics: it is entirely unaware of application state.

pub mod channel;
pub mod cluster;
pub mod cutter;
pub mod item;
pub mod node;
pub mod testkit;
pub mod verify;

pub use channel::{ChannelAccess, ChannelState};
pub use cluster::{ClusterOptions, OrderingCluster};
pub use cutter::BlockCutter;
pub use item::OrderedItem;
pub use node::{ConsensusBackend, OrderingNode, OsnConfig, OsnMessage, OsnOutput};
pub use verify::VerifyPool;

use fabric_primitives::ChannelId;

/// Errors returned by ordering-service operations.
#[derive(Debug)]
pub enum OrderError {
    /// The envelope targeted a channel this OSN does not serve.
    UnknownChannel(ChannelId),
    /// Identity validation failed (unknown MSP, bad cert, bad signature).
    Identity(fabric_msp::CertError),
    /// The submitter does not satisfy the channel's writer/admin policy.
    AccessDenied,
    /// The envelope exceeds the configured absolute maximum size.
    TooLarge {
        /// Serialized envelope size.
        size: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A configuration (genesis or update) was malformed.
    BadConfig(String),
}

impl core::fmt::Display for OrderError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OrderError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
            OrderError::Identity(e) => write!(f, "identity rejected: {e}"),
            OrderError::AccessDenied => write!(f, "access denied by channel policy"),
            OrderError::TooLarge { size, max } => {
                write!(f, "envelope of {size} bytes exceeds maximum {max}")
            }
            OrderError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for OrderError {}

#[cfg(test)]
mod tests {
    use super::testkit::{make_envelope, make_padded_envelope, TestNet};
    use super::*;
    use fabric_primitives::config::{BatchConfig, ConfigSignature, ConsensusType};
    use fabric_primitives::rwset::TxReadWriteSet;
    use fabric_primitives::transaction::{Envelope, EnvelopeContent};
    use fabric_primitives::wire::Wire;

    fn nonce(i: u64) -> [u8; 32] {
        let mut n = [0u8; 32];
        n[..8].copy_from_slice(&i.to_le_bytes());
        n
    }

    /// A config update envelope moving the channel to `max_message_count`,
    /// signed by two admins (MAJORITY over Org1, Org2, OrdererMSP).
    fn batch_count_update(net: &TestNet, max_message_count: u32) -> Envelope {
        let mut new_config = net.genesis.clone();
        new_config.sequence = 1;
        new_config.orderer.batch.max_message_count = max_message_count;
        let config_bytes = new_config.to_wire();
        let admin1 = net.admin(0, "a1");
        let admin2 = net.admin(1, "a2");
        let update = fabric_primitives::config::ConfigUpdate {
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
        Envelope { content, signature }
    }

    fn solo_cluster(net: &TestNet) -> OrderingCluster {
        OrderingCluster::new(
            ConsensusType::Solo,
            net.orderers(1),
            vec![net.genesis.clone()],
        )
        .unwrap()
    }

    #[test]
    fn solo_orders_and_cuts_by_count() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 3,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        assert_eq!(cluster.height(&net.channel), 1, "genesis only");
        for i in 0..6 {
            cluster
                .broadcast(make_envelope(
                    &client,
                    &net.channel,
                    nonce(i),
                    TxReadWriteSet::default(),
                ))
                .unwrap();
        }
        // 6 txs at 3 per block = 2 blocks after genesis.
        assert_eq!(cluster.height(&net.channel), 3);
        let b1 = cluster.deliver(&net.channel, 1).unwrap();
        assert_eq!(b1.envelopes.len(), 3);
        assert!(b1.verify_data_hash());
        let b2 = cluster.deliver(&net.channel, 2).unwrap();
        assert!(b2.follows(&b1));
    }

    #[test]
    fn genesis_block_contains_config() {
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let cluster = solo_cluster(&net);
        let genesis = cluster.deliver(&net.channel, 0).unwrap();
        assert!(genesis.is_config_block());
        assert_eq!(genesis.header.number, 0);
        assert_eq!(genesis.header.previous_hash, [0u8; 32]);
    }

    #[test]
    fn timeout_cuts_partial_batch() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 100,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 300, // = 3 ticks at 100 ms/tick
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        cluster
            .broadcast(make_envelope(
                &client,
                &net.channel,
                nonce(1),
                TxReadWriteSet::default(),
            ))
            .unwrap();
        assert_eq!(cluster.height(&net.channel), 1, "still pending");
        for _ in 0..5 {
            cluster.tick();
        }
        assert_eq!(cluster.height(&net.channel), 2, "TTC cut the batch");
        assert_eq!(cluster.deliver(&net.channel, 1).unwrap().envelopes.len(), 1);
    }

    #[test]
    fn size_based_cut() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 1000,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 4096,
                batch_timeout_ms: 1_000_000,
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        // ~1.5 kB each: the 3rd tx pushes past 4 kB and cuts a block.
        for i in 0..3 {
            cluster
                .broadcast(make_padded_envelope(&client, &net.channel, nonce(i), 1500))
                .unwrap();
        }
        assert_eq!(cluster.height(&net.channel), 2);
    }

    #[test]
    fn oversized_envelope_rejected() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 10,
                absolute_max_bytes: 2048,
                preferred_max_bytes: 1024,
                batch_timeout_ms: 1000,
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        let huge = make_padded_envelope(&client, &net.channel, nonce(1), 10_000);
        assert!(matches!(
            cluster.broadcast(huge),
            Err(OrderError::TooLarge { .. })
        ));
    }

    #[test]
    fn foreign_client_rejected() {
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let mut cluster = solo_cluster(&net);
        // A client from an org that is not a channel member.
        let rogue_ca =
            fabric_msp::CertificateAuthority::new("ca.rogue", "RogueMSP", b"rogue-seed");
        let rogue = fabric_msp::issue_identity(&rogue_ca, "evil", fabric_msp::Role::Client, b"ek");
        let env = make_envelope(&rogue, &net.channel, nonce(1), TxReadWriteSet::default());
        assert!(matches!(
            cluster.broadcast(env),
            Err(OrderError::Identity(_))
        ));
    }

    #[test]
    fn tampered_signature_rejected() {
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        let mut env = make_envelope(&client, &net.channel, nonce(1), TxReadWriteSet::default());
        env.signature[10] ^= 0xff;
        assert!(matches!(
            cluster.broadcast(env),
            Err(OrderError::Identity(_))
        ));
    }

    #[test]
    fn unknown_channel_rejected() {
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        let env = make_envelope(
            &client,
            &fabric_primitives::ChannelId::new("ghost"),
            nonce(1),
            TxReadWriteSet::default(),
        );
        assert!(matches!(
            cluster.broadcast(env),
            Err(OrderError::UnknownChannel(_))
        ));
    }

    #[test]
    fn raft_cluster_cuts_identical_blocks() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Raft,
            3,
            BatchConfig {
                max_message_count: 2,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut cluster = OrderingCluster::new(
            ConsensusType::Raft,
            net.orderers(3),
            vec![net.genesis.clone()],
        )
        .unwrap();
        let client = net.client(0, "c1");
        for i in 0..8 {
            cluster
                .broadcast(make_envelope(
                    &client,
                    &net.channel,
                    nonce(i),
                    TxReadWriteSet::default(),
                ))
                .unwrap();
            cluster.tick();
        }
        for _ in 0..20 {
            cluster.tick();
        }
        assert_eq!(cluster.height(&net.channel), 5, "genesis + 4 blocks of 2");
        cluster.assert_identical_chains(&net.channel);
        // Every block is signed by an orderer.
        let b = cluster.deliver(&net.channel, 1).unwrap();
        assert!(!b.metadata.signatures.is_empty());
    }

    #[test]
    fn pbft_cluster_cuts_identical_blocks() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Pbft,
            4,
            BatchConfig {
                max_message_count: 2,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut cluster = OrderingCluster::new(
            ConsensusType::Pbft,
            net.orderers(4),
            vec![net.genesis.clone()],
        )
        .unwrap();
        let client = net.client(0, "c1");
        for i in 0..6 {
            cluster
                .broadcast(make_envelope(
                    &client,
                    &net.channel,
                    nonce(i),
                    TxReadWriteSet::default(),
                ))
                .unwrap();
        }
        for _ in 0..10 {
            cluster.tick();
        }
        assert_eq!(cluster.height(&net.channel), 4, "genesis + 3 blocks of 2");
        cluster.assert_identical_chains(&net.channel);
    }

    #[test]
    fn config_update_reconfigures_batching() {
        let net = TestNet::with_batch(
            &["Org1", "Org2"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 4,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");

        // New config: cut after 2 messages.
        cluster.broadcast(batch_count_update(&net, 2)).unwrap();

        // Config block was cut (block 1).
        assert_eq!(cluster.height(&net.channel), 2);
        let config_block = cluster.deliver(&net.channel, 1).unwrap();
        assert!(config_block.is_config_block());

        // Batching now cuts after 2 transactions.
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
        assert_eq!(cluster.height(&net.channel), 3);
        // last_config metadata points at the config block.
        let b2 = cluster.deliver(&net.channel, 2).unwrap();
        assert_eq!(b2.metadata.last_config, 1);
    }

    #[test]
    fn config_update_without_quorum_rejected() {
        let net = TestNet::new(&["Org1", "Org2"], ConsensusType::Solo, 1);
        let mut cluster = solo_cluster(&net);
        let mut new_config = net.genesis.clone();
        new_config.sequence = 1;
        let config_bytes = new_config.to_wire();
        let admin1 = net.admin(0, "a1");
        let update = fabric_primitives::config::ConfigUpdate {
            config: new_config,
            signatures: vec![ConfigSignature {
                signer: admin1.serialized(),
                signature: admin1.sign(&config_bytes).to_bytes().to_vec(),
            }],
        };
        let content = EnvelopeContent::Config(update);
        let signature = admin1
            .sign(&Envelope::signing_bytes(&content))
            .to_bytes()
            .to_vec();
        assert!(matches!(
            cluster.broadcast(Envelope { content, signature }),
            Err(OrderError::AccessDenied)
        ));
    }

    #[test]
    fn config_update_with_wrong_sequence_rejected() {
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let mut cluster = solo_cluster(&net);
        let mut new_config = net.genesis.clone();
        new_config.sequence = 5;
        let config_bytes = new_config.to_wire();
        let admin1 = net.admin(0, "a1");
        let update = fabric_primitives::config::ConfigUpdate {
            config: new_config,
            signatures: vec![ConfigSignature {
                signer: admin1.serialized(),
                signature: admin1.sign(&config_bytes).to_bytes().to_vec(),
            }],
        };
        let content = EnvelopeContent::Config(update);
        let signature = admin1
            .sign(&Envelope::signing_bytes(&content))
            .to_bytes()
            .to_vec();
        assert!(matches!(
            cluster.broadcast(Envelope { content, signature }),
            Err(OrderError::BadConfig(_))
        ));
    }

    #[test]
    fn duplicate_transactions_are_not_filtered() {
        // Paper Sec. 3.3: the ordering service does not deduplicate;
        // peers filter duplicates during validation.
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 2,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        let env = make_envelope(&client, &net.channel, nonce(1), TxReadWriteSet::default());
        cluster.broadcast(env.clone()).unwrap();
        cluster.broadcast(env.clone()).unwrap();
        let block = cluster.deliver(&net.channel, 1).unwrap();
        assert_eq!(block.envelopes.len(), 2);
        assert_eq!(block.envelopes[0], block.envelopes[1]);
    }

    #[test]
    fn orderer_block_signature_verifies() {
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        let mut batch_net = net.genesis.clone();
        batch_net.orderer.batch.max_message_count = 1;
        // (Batch config in TestNet::new defaults to 500; use timeout path.)
        cluster
            .broadcast(make_envelope(
                &client,
                &net.channel,
                nonce(1),
                TxReadWriteSet::default(),
            ))
            .unwrap();
        for _ in 0..20 {
            cluster.tick();
        }
        let block = cluster.deliver(&net.channel, 1).expect("block cut by timeout");
        let sig = &block.metadata.signatures[0];
        // Verify against the orderer MSP.
        let msp = fabric_msp::MspRegistry::from_channel_config(&net.genesis).unwrap();
        msp.validate_and_verify(&sig.signer, &block.hash(), &sig.signature)
            .unwrap();
    }

    /// Regression: a `batch_timeout_ms` smaller than one driver tick used
    /// to quantize *up* to a whole tick, so a lone transaction sat pending
    /// until the next tick. Sub-tick timeouts now fire on the submission
    /// path itself — the block is cut with zero `tick()` calls.
    #[test]
    fn sub_tick_timeout_cuts_without_a_tick() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 100,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10, // < 100 ms/tick
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        cluster
            .broadcast(make_envelope(
                &client,
                &net.channel,
                nonce(1),
                TxReadWriteSet::default(),
            ))
            .unwrap();
        assert_eq!(
            cluster.height(&net.channel),
            2,
            "sub-tick timeout cut the batch immediately"
        );
    }

    /// Regression for the other side of the quantization fix: a timeout
    /// between tick multiples must round *up* (`div_ceil`), never fire a
    /// tick early. 250 ms at 100 ms/tick waits 3 ticks, not 2.
    #[test]
    fn batch_timeout_never_fires_a_tick_early() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 100,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 250,
            },
        );
        let mut cluster = solo_cluster(&net);
        let client = net.client(0, "c1");
        cluster
            .broadcast(make_envelope(
                &client,
                &net.channel,
                nonce(1),
                TxReadWriteSet::default(),
            ))
            .unwrap();
        cluster.tick();
        cluster.tick();
        assert_eq!(cluster.height(&net.channel), 1, "2 ticks = 200 ms < 250 ms");
        cluster.tick();
        assert_eq!(cluster.height(&net.channel), 2, "3 ticks = 300 ms >= 250 ms");
    }

    #[test]
    fn broadcast_batch_rejects_bad_signatures_and_keeps_order() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 3,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut options = ClusterOptions::new(ConsensusType::Solo);
        options.verify_workers = 2;
        let mut cluster =
            OrderingCluster::new_with(options, net.orderers(1), vec![net.genesis.clone()])
                .unwrap();
        let client = net.client(0, "c1");
        let envs: Vec<_> = (0..4)
            .map(|i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default()))
            .collect();
        let mut forged = envs[2].clone();
        forged.signature[5] ^= 0xff;
        let verdicts = cluster.broadcast_batch(vec![
            envs[0].clone(),
            envs[1].clone(),
            forged,
            envs[3].clone(),
        ]);
        assert!(verdicts[0].is_ok() && verdicts[1].is_ok() && verdicts[3].is_ok());
        assert!(
            matches!(verdicts[2], Err(OrderError::Identity(_))),
            "forged signature rejected before ordering"
        );
        // The three survivors filled one block, in submission order.
        let block = cluster.deliver(&net.channel, 1).expect("batch cut");
        assert_eq!(block.envelopes, vec![envs[0].clone(), envs[1].clone(), envs[3].clone()]);
    }

    #[test]
    fn channel_state_delivers_its_cut_blocks_byte_for_byte() {
        let net = TestNet::with_batch(
            &["Org1", "Org2"],
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 2,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut node = OrderingNode::new(
            0,
            net.orderers(1).remove(0),
            ConsensusBackend::Solo,
            OsnConfig::default(),
            vec![net.genesis.clone()],
        )
        .unwrap();
        let client = net.client(0, "c1");
        let tx = |i| make_envelope(&client, &net.channel, nonce(i), TxReadWriteSet::default());
        // Block 1: two txs. Block 2: the pending third, flushed by the
        // config. Block 3: the config. Block 4: one tx under the new cap.
        let mut cut = Vec::new();
        for envelope in [tx(1), tx(2), tx(3), batch_count_update(&net, 1), tx(4)] {
            for output in node.broadcast(envelope).unwrap() {
                if let OsnOutput::BlockCut { block, .. } = output {
                    cut.push(block);
                }
            }
        }
        assert_eq!(cut.len(), 4);
        assert!(cut[2].is_config_block());
        let state = node.channel(&net.channel).unwrap();
        assert_eq!(state.height(), 5);
        for block in &cut {
            let delivered = state.deliver(block.header.number).expect("retained");
            assert_eq!(delivered.to_wire(), block.to_wire());
        }
        assert_eq!(cut[3].metadata.last_config, 3);
        assert_eq!(state.last_hash(), cut[3].hash());
        assert!(state.deliver(5).is_none());
    }

    #[test]
    fn raft_logs_stay_bounded_while_ordering() {
        // Entries a healthy Raft OSN may hold: those not yet applied or
        // not yet under the leader's floor, a few heartbeats' worth.
        const RETAINED_MAX: u64 = 4;
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Raft,
            3,
            BatchConfig {
                max_message_count: 2,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut cluster = OrderingCluster::new(
            ConsensusType::Raft,
            net.orderers(3),
            vec![net.genesis.clone()],
        )
        .unwrap();
        let client = net.client(0, "c1");
        let batches = 50;
        for round in 0..batches {
            let batch = (0..2)
                .map(|i| {
                    make_envelope(
                        &client,
                        &net.channel,
                        nonce(2 * round + i),
                        TxReadWriteSet::default(),
                    )
                })
                .collect();
            for verdict in cluster.broadcast_batch(batch) {
                verdict.unwrap();
            }
            cluster.tick();
            for node in cluster.nodes() {
                let ConsensusBackend::Raft(raft) = node.backend_ref() else {
                    unreachable!("Raft cluster");
                };
                assert!(
                    raft.retained_len() <= RETAINED_MAX,
                    "OSN {} retains {} log entries after batch {round}",
                    node.id(),
                    raft.retained_len()
                );
            }
        }
        for _ in 0..5 {
            cluster.tick();
        }
        assert_eq!(cluster.height(&net.channel), 1 + batches);
        cluster.assert_identical_chains(&net.channel);
    }

    #[test]
    fn speculative_signing_hits_on_raft_leader() {
        let net = TestNet::with_batch(
            &["Org1"],
            ConsensusType::Raft,
            3,
            BatchConfig {
                max_message_count: 2,
                absolute_max_bytes: 1 << 20,
                preferred_max_bytes: 1 << 20,
                batch_timeout_ms: 10_000,
            },
        );
        let mut cluster = OrderingCluster::new(
            ConsensusType::Raft,
            net.orderers(3),
            vec![net.genesis.clone()],
        )
        .unwrap();
        let client = net.client(0, "c1");
        for i in 0..8 {
            cluster
                .broadcast(make_envelope(
                    &client,
                    &net.channel,
                    nonce(i),
                    TxReadWriteSet::default(),
                ))
                .unwrap();
            cluster.tick();
        }
        for _ in 0..20 {
            cluster.tick();
        }
        cluster.assert_identical_chains(&net.channel);
        assert!(cluster.height(&net.channel) >= 5, "4 blocks cut");
        let (hits, _) = cluster
            .nodes()
            .iter()
            .map(|n| n.spec_stats())
            .fold((0, 0), |(h, m), (nh, nm)| (h + nh, m + nm));
        assert!(hits >= 3, "leader pre-signed most blocks, got {hits} hits");
    }
}
