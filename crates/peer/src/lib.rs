//! # fabric-peer
//!
//! The peer node (paper Fig. 5): the **endorser** (execution phase,
//! Sec. 3.2), the **committer** (three-stage validation phase, Sec. 3.4),
//! the peer's channel-configuration view, and the QSCC/CSCC-style query
//! surface. Peers maintain the ledger; they never talk to each other about
//! application state except through ordered blocks.

mod committer;
mod endorse_pipeline;
mod endorser;
mod intake;
mod peer;
mod pipeline;
mod view;

pub use committer::ValidationTiming;
pub use endorse_pipeline::{
    EndorseOptions, EndorsePipeline, EndorseReject, EndorseStats, EndorseTicket,
};
pub use intake::{Deliver, DeliverMux, MuxGauges};
pub use peer::{Peer, PeerConfig};
pub use pipeline::{
    CommitEvent, PipelineOptions, PipelineStats, QueueGauges, StageHistogram, StageSummary,
};

/// Errors surfaced by peer operations.
#[derive(Debug)]
pub enum PeerError {
    /// Identity/signature validation failed.
    Identity(fabric_msp::CertError),
    /// Chaincode execution plumbing failed (timeout, not installed, …).
    Chaincode(fabric_chaincode::ChaincodeError),
    /// The chaincode rejected the proposal (business error).
    ChaincodeRejected(String),
    /// Ledger failure.
    Ledger(fabric_ledger::LedgerError),
    /// A received block failed integrity or sequencing checks.
    BadBlock(String),
    /// Snapshot production or install failed.
    Snapshot(fabric_statesync::SyncError),
}

impl core::fmt::Display for PeerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PeerError::Identity(e) => write!(f, "identity rejected: {e}"),
            PeerError::Chaincode(e) => write!(f, "chaincode execution failed: {e}"),
            PeerError::ChaincodeRejected(msg) => write!(f, "chaincode rejected proposal: {msg}"),
            PeerError::Ledger(e) => write!(f, "ledger error: {e}"),
            PeerError::BadBlock(msg) => write!(f, "bad block: {msg}"),
            PeerError::Snapshot(e) => write!(f, "state snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for PeerError {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    use fabric_chaincode::{ChaincodeDefinition, Stub, LSCC_NAMESPACE};
    use fabric_kvstore::MemBackend;
    use fabric_msp::{CertificateAuthority, Role, SigningIdentity};
    use fabric_primitives::block::Block;
    use fabric_primitives::config::{
        BatchConfig, ChannelConfig, ConfigUpdate, ConsensusType, OrdererConfig, OrgConfig,
    };
    use fabric_primitives::ids::{ChaincodeId, ChannelId, TxValidationCode};
    use fabric_primitives::transaction::{
        Envelope, EnvelopeContent, Proposal, ProposalPayload, SignedProposal, Transaction,
    };
    use fabric_primitives::wire::Wire;

    /// Test fixture: two orgs, a genesis block, and a peer per org.
    pub(crate) struct Fixture {
        pub(crate) ca1: CertificateAuthority,
        pub(crate) ca2: CertificateAuthority,
        pub(crate) genesis: Block,
        pub(crate) channel: ChannelId,
    }

    pub(crate) fn fixture() -> Fixture {
        let ca1 = CertificateAuthority::new("ca.org1", "Org1MSP", b"f-s1");
        let ca2 = CertificateAuthority::new("ca.org2", "Org2MSP", b"f-s2");
        let channel = ChannelId::new("ch");
        let config = ChannelConfig {
            channel: channel.clone(),
            sequence: 0,
            orgs: vec![
                OrgConfig {
                    msp_id: "Org1MSP".into(),
                    root_cert: ca1.root_cert().to_wire(),
                },
                OrgConfig {
                    msp_id: "Org2MSP".into(),
                    root_cert: ca2.root_cert().to_wire(),
                },
            ],
            orderer: OrdererConfig {
                consensus: ConsensusType::Solo,
                addresses: vec!["osn0".into()],
                batch: BatchConfig::default(),
            },
            admin_policy: "MAJORITY(admins)".into(),
            writer_policy: "ANY(members)".into(),
            reader_policy: "ANY(members)".into(),
        };
        let genesis_env = Envelope {
            content: EnvelopeContent::Config(ConfigUpdate {
                config,
                signatures: vec![],
            }),
            signature: vec![],
        };
        Fixture {
            ca1,
            ca2,
            genesis: Block::new(0, [0u8; 32], vec![genesis_env]),
            channel,
        }
    }

    pub(crate) fn make_peer(fx: &Fixture, ca: &CertificateAuthority, name: &str) -> Peer {
        let identity = fabric_msp::issue_identity(ca, name, Role::Peer, name.as_bytes());
        let peer = Peer::join(
            identity,
            &fx.genesis,
            Arc::new(MemBackend::new()),
            PeerConfig {
                vscc_parallelism: 2,
                runtime: fabric_chaincode::RuntimeConfig { exec_timeout: None },
                sync_writes: false,
            },
        )
        .unwrap();
        peer.install_chaincode("kvcc", Arc::new(kv_chaincode));
        peer
    }

    /// A tiny KV chaincode: put(key, value) / get(key) / del(key).
    pub(crate) fn kv_chaincode(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
        match stub.function() {
            "put" => {
                let key = stub.arg_string(0)?;
                let value = stub.args()[1].clone();
                stub.put_state(&key, value);
                Ok(vec![])
            }
            "get" => {
                let key = stub.arg_string(0)?;
                stub.get_state(&key)?
                    .ok_or_else(|| format!("{key} not found"))
            }
            "del" => {
                let key = stub.arg_string(0)?;
                stub.del_state(&key);
                Ok(vec![])
            }
            other => Err(format!("unknown function {other}")),
        }
    }

    pub(crate) fn signed_proposal(
        client: &SigningIdentity,
        channel: &ChannelId,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        nonce: [u8; 32],
    ) -> SignedProposal {
        let proposal = Proposal {
            channel: channel.clone(),
            creator: client.serialized(),
            nonce,
            payload: ProposalPayload {
                chaincode: ChaincodeId::new(chaincode, "1.0"),
                function: function.into(),
                args,
            },
        };
        let signature = client.sign(&proposal.to_wire()).to_bytes().to_vec();
        SignedProposal {
            proposal,
            signature,
        }
    }

    /// Assembles a transaction envelope from proposal + responses.
    pub(crate) fn assemble(
        client: &SigningIdentity,
        signed: &SignedProposal,
        responses: &[fabric_primitives::transaction::ProposalResponse],
    ) -> Envelope {
        let tx = Transaction {
            channel: signed.proposal.channel.clone(),
            creator: signed.proposal.creator.clone(),
            nonce: signed.proposal.nonce,
            proposal_payload: signed.proposal.payload.clone(),
            response_payload: responses[0].payload.clone(),
            endorsements: responses.iter().map(|r| r.endorsement.clone()).collect(),
        };
        let content = EnvelopeContent::Transaction(tx);
        let signature = client
            .sign(&Envelope::signing_bytes(&content))
            .to_bytes()
            .to_vec();
        Envelope { content, signature }
    }

    /// Deploys `kvcc` with the given endorsement policy via LSCC.
    pub(crate) fn deploy_kvcc(
        fx: &Fixture,
        peers: &[&Peer],
        policy: &str,
        admin: &SigningIdentity,
    ) -> Envelope {
        let def = ChaincodeDefinition {
            name: "kvcc".into(),
            version: "1.0".into(),
            endorsement_policy: policy.into(),
        };
        let sp = signed_proposal(
            admin,
            &fx.channel,
            LSCC_NAMESPACE,
            "deploy",
            vec![def.to_wire()],
            [0xda; 32],
        );
        let responses: Vec<_> = peers
            .iter()
            .map(|p| p.process_proposal(&sp).unwrap())
            .collect();
        assemble(admin, &sp, &responses)
    }

    pub(crate) fn next_block(peer: &Peer, envelopes: Vec<Envelope>) -> Block {
        let prev = peer.get_block(peer.height() - 1).unwrap().unwrap().hash();
        Block::new(peer.height(), prev, envelopes)
    }

    #[test]
    fn full_endorse_order_validate_flow() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let peer2 = make_peer(&fx, &fx.ca2, "peer0.org2");
        let admin = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");

        // Deploy kvcc requiring both orgs to endorse.
        let deploy = deploy_kvcc(&fx, &[&peer1, &peer2], "AND(Org1MSP, Org2MSP)", &admin);
        let block1 = next_block(&peer1, vec![deploy]);
        let (flags, _) = peer1.commit_block(&block1).unwrap();
        assert_eq!(flags, vec![TxValidationCode::Valid]);
        peer2.commit_block(&block1).unwrap();

        // Invoke: put k=v, endorsed by both peers.
        let sp = signed_proposal(
            &client,
            &fx.channel,
            "kvcc",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            [1; 32],
        );
        let r1 = peer1.process_proposal(&sp).unwrap();
        let r2 = peer2.process_proposal(&sp).unwrap();
        // Identical results across endorsers (paper Sec. 3.2).
        assert_eq!(r1.payload, r2.payload);
        let env = assemble(&client, &sp, &[r1, r2]);
        let block2 = next_block(&peer1, vec![env]);
        let (flags, timing) = peer1.commit_block(&block2).unwrap();
        assert_eq!(flags, vec![TxValidationCode::Valid]);
        assert!(timing.total().as_nanos() > 0);
        peer2.commit_block(&block2).unwrap();

        // State visible on both peers.
        assert_eq!(peer1.get_state("kvcc", "k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(peer2.get_state("kvcc", "k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn under_endorsed_transaction_invalidated() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let peer2 = make_peer(&fx, &fx.ca2, "peer0.org2");
        let admin = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");

        let deploy = deploy_kvcc(&fx, &[&peer1, &peer2], "AND(Org1MSP, Org2MSP)", &admin);
        let block1 = next_block(&peer1, vec![deploy]);
        peer1.commit_block(&block1).unwrap();

        // Only one endorsement, but the policy demands both orgs.
        let sp = signed_proposal(
            &client,
            &fx.channel,
            "kvcc",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            [2; 32],
        );
        let r1 = peer1.process_proposal(&sp).unwrap();
        let env = assemble(&client, &sp, &[r1]);
        let block2 = next_block(&peer1, vec![env]);
        let (flags, _) = peer1.commit_block(&block2).unwrap();
        assert_eq!(flags, vec![TxValidationCode::EndorsementPolicyFailure]);
        // Its writes were disregarded...
        assert_eq!(peer1.get_state("kvcc", "k").unwrap(), None);
        // ...but the tx is on the ledger for audit.
        let tx_id = sp.proposal.tx_id();
        let (_, _, flag) = peer1.get_transaction(&tx_id).unwrap().unwrap();
        assert_eq!(flag, TxValidationCode::EndorsementPolicyFailure);
    }

    #[test]
    fn undeployed_chaincode_transaction_invalid() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        // Endorse against the chaincode binary without an LSCC definition.
        let sp = signed_proposal(
            &client,
            &fx.channel,
            "kvcc",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            [3; 32],
        );
        let r1 = peer1.process_proposal(&sp).unwrap();
        let env = assemble(&client, &sp, &[r1]);
        let block = next_block(&peer1, vec![env]);
        let (flags, _) = peer1.commit_block(&block).unwrap();
        assert_eq!(flags, vec![TxValidationCode::BadPayload]);
    }

    #[test]
    fn unknown_client_cannot_endorse() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let rogue_ca = CertificateAuthority::new("ca.rogue", "RogueMSP", b"rogue");
        let rogue = fabric_msp::issue_identity(&rogue_ca, "evil", Role::Client, b"e");
        let sp = signed_proposal(
            &rogue,
            &fx.channel,
            "kvcc",
            "get",
            vec![b"k".to_vec()],
            [4; 32],
        );
        assert!(matches!(
            peer1.process_proposal(&sp),
            Err(PeerError::Identity(_))
        ));
    }

    #[test]
    fn tampered_proposal_signature_rejected() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let mut sp = signed_proposal(
            &client,
            &fx.channel,
            "kvcc",
            "get",
            vec![b"k".to_vec()],
            [5; 32],
        );
        sp.signature[3] ^= 1;
        assert!(matches!(
            peer1.process_proposal(&sp),
            Err(PeerError::Identity(_))
        ));
    }

    #[test]
    fn block_with_bad_data_hash_rejected() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let mut block = next_block(&peer1, vec![]);
        block.header.data_hash = [7u8; 32];
        assert!(matches!(
            peer1.commit_block(&block),
            Err(PeerError::BadBlock(_))
        ));
    }

    #[test]
    fn out_of_sequence_block_rejected() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let block = Block::new(5, [0u8; 32], vec![]);
        assert!(matches!(
            peer1.commit_block(&block),
            Err(PeerError::BadBlock(_))
        ));
    }

    #[test]
    fn config_block_updates_channel_view() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let admin1 = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let admin2 = fabric_msp::issue_identity(&fx.ca2, "admin2", Role::Admin, b"a2");
        let mut new_config = peer1.channel_config();
        new_config.sequence = 1;
        new_config.orderer.batch.max_message_count = 42;
        let bytes = new_config.to_wire();
        let update = ConfigUpdate {
            config: new_config,
            signatures: vec![
                fabric_primitives::config::ConfigSignature {
                    signer: admin1.serialized(),
                    signature: admin1.sign(&bytes).to_bytes().to_vec(),
                },
                fabric_primitives::config::ConfigSignature {
                    signer: admin2.serialized(),
                    signature: admin2.sign(&bytes).to_bytes().to_vec(),
                },
            ],
        };
        let env = Envelope {
            content: EnvelopeContent::Config(update),
            signature: vec![],
        };
        let block = next_block(&peer1, vec![env]);
        let (flags, _) = peer1.commit_block(&block).unwrap();
        assert_eq!(flags, vec![TxValidationCode::Valid]);
        assert_eq!(peer1.channel_config().sequence, 1);
        assert_eq!(peer1.channel_config().orderer.batch.max_message_count, 42);
    }

    #[test]
    fn config_block_without_admin_quorum_invalid() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let admin1 = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let mut new_config = peer1.channel_config();
        new_config.sequence = 1;
        let bytes = new_config.to_wire();
        let update = ConfigUpdate {
            config: new_config,
            signatures: vec![fabric_primitives::config::ConfigSignature {
                signer: admin1.serialized(),
                signature: admin1.sign(&bytes).to_bytes().to_vec(),
            }],
        };
        let env = Envelope {
            content: EnvelopeContent::Config(update),
            signature: vec![],
        };
        let block = next_block(&peer1, vec![env]);
        let (flags, _) = peer1.commit_block(&block).unwrap();
        assert_eq!(flags, vec![TxValidationCode::InvalidConfig]);
        assert_eq!(peer1.channel_config().sequence, 0, "view unchanged");
    }

    #[test]
    fn crash_recovery_preserves_state() {
        let fx = fixture();
        let backend = Arc::new(MemBackend::new());
        let identity = fabric_msp::issue_identity(&fx.ca1, "peer0.org1", Role::Peer, b"peer0.org1");
        let admin = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let tx_id;
        {
            let peer = Peer::join(
                identity.clone(),
                &fx.genesis,
                backend.clone(),
                PeerConfig {
                    vscc_parallelism: 1,
                    runtime: fabric_chaincode::RuntimeConfig { exec_timeout: None },
                    sync_writes: false,
                },
            )
            .unwrap();
            peer.install_chaincode("kvcc", Arc::new(kv_chaincode));
            let deploy = deploy_kvcc(&fx, &[&peer], "Org1MSP", &admin);
            let b1 = next_block(&peer, vec![deploy]);
            peer.commit_block(&b1).unwrap();
            let sp = signed_proposal(
                &client,
                &fx.channel,
                "kvcc",
                "put",
                vec![b"persist".to_vec(), b"yes".to_vec()],
                [9; 32],
            );
            tx_id = sp.proposal.tx_id();
            let r = peer.process_proposal(&sp).unwrap();
            let env = assemble(&client, &sp, &[r]);
            let b2 = next_block(&peer, vec![env]);
            peer.commit_block(&b2).unwrap();
        }
        // "Restart" the peer on the same backend.
        let peer = Peer::join(identity, &fx.genesis, backend, PeerConfig::default()).unwrap();
        assert_eq!(peer.height(), 3);
        assert_eq!(
            peer.get_state("kvcc", "persist").unwrap(),
            Some(b"yes".to_vec())
        );
        let (_, _, flag) = peer.get_transaction(&tx_id).unwrap().unwrap();
        assert_eq!(flag, TxValidationCode::Valid);
    }

    #[test]
    fn snapshot_join_matches_replayed_peer() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let admin = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");

        let deploy = deploy_kvcc(&fx, &[&peer1], "Org1MSP", &admin);
        let b1 = next_block(&peer1, vec![deploy]);
        peer1.commit_block(&b1).unwrap();
        let mut blocks = vec![b1];
        for i in 0..4u8 {
            let sp = signed_proposal(
                &client,
                &fx.channel,
                "kvcc",
                "put",
                vec![vec![b'k', i], vec![b'v', i]],
                [i + 20; 32],
            );
            let r = peer1.process_proposal(&sp).unwrap();
            let block = next_block(&peer1, vec![assemble(&client, &sp, &[r])]);
            peer1.commit_block(&block).unwrap();
            blocks.push(block);
        }
        assert_eq!(peer1.height(), 6);

        // Snapshot at height 4, then two more blocks exist above it.
        let snap_height = 4;
        let snapshot = {
            let fresh = make_peer(&fx, &fx.ca1, "peer1.org1");
            for b in &blocks[..(snap_height - 1) as usize] {
                fresh.commit_block(b).unwrap();
            }
            assert_eq!(fresh.height(), snap_height);
            fresh
                .state_snapshot(&fabric_statesync::SnapshotConfig::default())
                .unwrap()
        };
        let entries =
            fabric_statesync::decode_entries(&snapshot.manifest.manifest, &snapshot.segments)
                .unwrap();

        // Join a new peer from the snapshot and replay only the tail.
        let joiner = Peer::join_from_snapshot(
            fabric_msp::issue_identity(&fx.ca1, "peer2.org1", Role::Peer, b"peer2.org1"),
            &fx.genesis,
            &snapshot.manifest,
            &entries,
            Arc::new(MemBackend::new()),
            PeerConfig {
                vscc_parallelism: 1,
                runtime: fabric_chaincode::RuntimeConfig { exec_timeout: None },
                sync_writes: false,
            },
        )
        .unwrap();
        joiner.install_chaincode("kvcc", Arc::new(kv_chaincode));
        assert_eq!(joiner.height(), snap_height);
        for b in &blocks[(snap_height - 1) as usize..] {
            joiner.commit_block(b).unwrap();
        }
        assert_eq!(joiner.height(), peer1.height());
        assert_eq!(joiner.ledger().last_hash(), peer1.ledger().last_hash());
        for i in 0..4u8 {
            let key = String::from_utf8(vec![b'k', i]).unwrap();
            assert_eq!(
                joiner.get_state("kvcc", &key).unwrap(),
                peer1.get_state("kvcc", &key).unwrap()
            );
        }
        // Byte-identical world state (incl. version metadata).
        assert_eq!(
            joiner.ledger().state_entries(),
            peer1.ledger().state_entries()
        );
    }

    #[test]
    fn snapshot_from_rogue_signer_rejected_on_join() {
        let fx = fixture();
        let peer1 = make_peer(&fx, &fx.ca1, "peer0.org1");
        let admin = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let deploy = deploy_kvcc(&fx, &[&peer1], "Org1MSP", &admin);
        let b1 = next_block(&peer1, vec![deploy]);
        peer1.commit_block(&b1).unwrap();
        let snapshot = peer1
            .state_snapshot(&fabric_statesync::SnapshotConfig::default())
            .unwrap();
        let entries =
            fabric_statesync::decode_entries(&snapshot.manifest.manifest, &snapshot.segments)
                .unwrap();
        // Re-sign the manifest under a CA outside the channel federation.
        let rogue_ca = CertificateAuthority::new("ca.rogue", "RogueMSP", b"rogue");
        let rogue = fabric_msp::issue_identity(&rogue_ca, "evil", Role::Peer, b"e");
        let forged =
            fabric_statesync::SignedManifest::sign(snapshot.manifest.manifest.clone(), &rogue);
        let result = Peer::join_from_snapshot(
            fabric_msp::issue_identity(&fx.ca1, "peer3.org1", Role::Peer, b"peer3.org1"),
            &fx.genesis,
            &forged,
            &entries,
            Arc::new(MemBackend::new()),
            PeerConfig::default(),
        );
        assert!(matches!(result, Err(PeerError::Snapshot(_))));
    }

    #[test]
    fn vscc_parallelism_agrees_with_sequential() {
        let fx = fixture();
        let peer_par = make_peer(&fx, &fx.ca1, "peer-par");
        let peer_seq = {
            let identity = fabric_msp::issue_identity(&fx.ca1, "peer-seq", Role::Peer, b"peer-seq");
            let p = Peer::join(
                identity,
                &fx.genesis,
                Arc::new(MemBackend::new()),
                PeerConfig {
                    vscc_parallelism: 1,
                    runtime: fabric_chaincode::RuntimeConfig { exec_timeout: None },
                    sync_writes: false,
                },
            )
            .unwrap();
            p.install_chaincode("kvcc", Arc::new(kv_chaincode));
            p
        };
        let admin = fabric_msp::issue_identity(&fx.ca1, "admin1", Role::Admin, b"a1");
        let client = fabric_msp::issue_identity(&fx.ca1, "client1", Role::Client, b"c1");
        let deploy = deploy_kvcc(&fx, &[&peer_par], "Org1MSP", &admin);
        let b1 = next_block(&peer_par, vec![deploy]);
        peer_par.commit_block(&b1).unwrap();
        peer_seq.commit_block(&b1).unwrap();

        // A mixed block: several valid txs and one with no endorsement.
        let mut envelopes = Vec::new();
        for i in 0..5u8 {
            let sp = signed_proposal(
                &client,
                &fx.channel,
                "kvcc",
                "put",
                vec![vec![b'k', i], vec![b'v', i]],
                [i + 10; 32],
            );
            let r = peer_par.process_proposal(&sp).unwrap();
            let mut env = assemble(&client, &sp, &[r]);
            if i == 3 {
                // Strip endorsements from one tx and re-sign.
                if let EnvelopeContent::Transaction(tx) = &mut env.content {
                    tx.endorsements.clear();
                }
                let content = env.content.clone();
                env.signature = client
                    .sign(&Envelope::signing_bytes(&content))
                    .to_bytes()
                    .to_vec();
            }
            envelopes.push(env);
        }
        let height = peer_par.height();
        let prev = peer_par.get_block(height - 1).unwrap().unwrap().hash();
        let block = Block::new(height, prev, envelopes);
        let (flags_par, _) = peer_par.commit_block(&block).unwrap();
        let (flags_seq, _) = peer_seq.commit_block(&block).unwrap();
        assert_eq!(flags_par, flags_seq);
        assert_eq!(flags_par[3], TxValidationCode::EndorsementPolicyFailure);
        assert_eq!(flags_par.iter().filter(|f| f.is_valid()).count(), 4);
    }
}
