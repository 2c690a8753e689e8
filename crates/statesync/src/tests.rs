//! Tests for snapshot production, manifests, and the catch-up consumer.

use std::collections::{HashMap, HashSet};

use fabric_ledger::Ledger;
use fabric_msp::{issue_identity, CertificateAuthority, Msp, MspRegistry, Role, SigningIdentity};
use fabric_primitives::block::Block;
use fabric_primitives::ids::{ChaincodeId, ChannelId, SerializedIdentity, TxId, TxValidationCode};
use fabric_primitives::rwset::TxReadWriteSet;
use fabric_primitives::transaction::{
    ChaincodeResponse, Envelope, EnvelopeContent, ProposalPayload, ProposalResponsePayload,
    Transaction,
};
use fabric_primitives::wire::Wire;

use crate::consumer::{Catchup, ConsumerConfig, ProviderId, SyncOutput};
use crate::manifest::{SignedManifest, SyncMessage};
use crate::snapshot::{
    build_snapshot, decode_entries, Checkpointer, SnapshotConfig, SnapshotStore,
};
use crate::SyncError;

// ---------------------------------------------------------------- fixtures

fn channel() -> ChannelId {
    ChannelId::new("ch")
}

fn msp_setup() -> (CertificateAuthority, SigningIdentity) {
    let ca = CertificateAuthority::new("ca.org1", "Org1MSP", b"ca-seed");
    let signer = issue_identity(&ca, "peer0.org1", Role::Peer, b"peer0-key");
    (ca, signer)
}

fn registry(ca: &CertificateAuthority) -> MspRegistry {
    let mut reg = MspRegistry::new();
    reg.add(Msp::new("Org1MSP", ca.root_cert().clone()).unwrap());
    reg
}

fn envelope_with_rwset(seed: u8, rwset: TxReadWriteSet) -> Envelope {
    let creator = SerializedIdentity::new("Org1MSP", vec![seed; 8]);
    let tx = Transaction {
        channel: channel(),
        creator: creator.clone(),
        nonce: [seed; 32],
        proposal_payload: ProposalPayload {
            chaincode: ChaincodeId::new("cc", "1"),
            function: "f".into(),
            args: vec![],
        },
        response_payload: ProposalResponsePayload {
            tx_id: TxId::derive(&creator.to_wire(), &[seed; 32]),
            chaincode: ChaincodeId::new("cc", "1"),
            rwset,
            response: ChaincodeResponse::ok(vec![]),
        },
        endorsements: vec![],
    };
    Envelope {
        content: EnvelopeContent::Transaction(tx),
        signature: vec![],
    }
}

/// Commits one block writing `writes` key/value pairs.
fn commit_writes(ledger: &Ledger, seed: u8, writes: &[(&str, Vec<u8>)]) {
    let mut sim = ledger.simulator();
    for (k, v) in writes {
        sim.put_state("cc", k, v.clone());
    }
    let env = envelope_with_rwset(seed, sim.into_rwset());
    let mut block = Block::new(ledger.height(), ledger.last_hash(), vec![env]);
    let mut flags = vec![TxValidationCode::Valid; 1];
    ledger.mvcc_validate(&block, &mut flags).unwrap();
    block.metadata.validation = flags;
    ledger.commit(&block).unwrap();
}

/// A ledger with `blocks` committed blocks of multi-kilobyte state.
fn populated_ledger(blocks: u8) -> Ledger {
    let ledger = Ledger::in_memory();
    for b in 0..blocks {
        let writes: Vec<(String, Vec<u8>)> = (0..8u8)
            .map(|i| (format!("key-{b}-{i}"), vec![b ^ i; 200]))
            .collect();
        let borrowed: Vec<(&str, Vec<u8>)> = writes
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        commit_writes(&ledger, b, &borrowed);
    }
    ledger
}

fn small_config() -> SnapshotConfig {
    SnapshotConfig {
        chunk_bytes: 256,
        chunks_per_segment: 3,
        interval: 4,
        retain: 2,
    }
}

// ------------------------------------------------------------- wire + trust

#[test]
fn sync_message_wire_roundtrip() {
    let (_, signer) = msp_setup();
    let ledger = populated_ledger(3);
    let snapshot = build_snapshot(&ledger, &channel(), &signer, &small_config()).unwrap();
    let digest = snapshot.manifest.manifest.digest();

    let messages = vec![
        SyncMessage::ManifestRequest { channel: channel() },
        SyncMessage::ManifestResponse {
            manifest: snapshot.manifest.clone(),
        },
        SyncMessage::NoSnapshot { channel: channel() },
        SyncMessage::SegmentRequest {
            manifest: digest,
            segment: 2,
        },
        SyncMessage::SegmentResponse {
            manifest: digest,
            segment: 2,
            chunks: snapshot.segments[0].clone(),
        },
    ];
    for msg in messages {
        assert_eq!(SyncMessage::from_wire(&msg.to_wire()).unwrap(), msg);
    }
    assert!(SyncMessage::from_wire(&[9u8]).is_err());
}

#[test]
fn manifest_verifies_and_rejects_tampering() {
    let (ca, signer) = msp_setup();
    let ledger = populated_ledger(2);
    let snapshot = build_snapshot(&ledger, &channel(), &signer, &small_config()).unwrap();
    let reg = registry(&ca);

    snapshot.manifest.verify(&channel(), &reg).unwrap();

    // Tampering with any bound field invalidates the signature.
    let mut tampered = snapshot.manifest.clone();
    tampered.manifest.height += 1;
    assert!(matches!(
        tampered.verify(&channel(), &reg),
        Err(SyncError::Untrusted(_))
    ));

    // A manifest for another channel is refused before signature checks.
    assert!(matches!(
        snapshot.manifest.verify(&ChannelId::new("other"), &reg),
        Err(SyncError::Untrusted(_))
    ));

    // A signer from an organization outside the channel MSPs is refused.
    let rogue_ca = CertificateAuthority::new("ca.rogue", "RogueMSP", b"rogue-seed");
    let rogue = issue_identity(&rogue_ca, "peer0.rogue", Role::Peer, b"rogue-key");
    let resigned = SignedManifest::sign(snapshot.manifest.manifest.clone(), &rogue);
    assert!(matches!(
        resigned.verify(&channel(), &reg),
        Err(SyncError::Untrusted(_))
    ));
}

#[test]
fn snapshot_roundtrip_reproduces_entries() {
    let (_, signer) = msp_setup();
    let ledger = populated_ledger(4);
    let snapshot = build_snapshot(&ledger, &channel(), &signer, &small_config()).unwrap();
    let manifest = &snapshot.manifest.manifest;

    assert_eq!(manifest.height, 4);
    assert_eq!(manifest.block_hash, ledger.last_hash());
    assert!(manifest.segments.len() > 1, "state should span segments");
    for (info, chunks) in manifest.segments.iter().zip(&snapshot.segments) {
        assert!(info.verify(chunks));
    }

    let entries = decode_entries(manifest, &snapshot.segments).unwrap();
    assert_eq!(entries, ledger.state_entries());

    // A flipped byte in any chunk breaks that segment's Merkle root.
    let mut corrupt = snapshot.segments.clone();
    corrupt[1][0][0] ^= 0xff;
    assert!(!manifest.segments[1].verify(&corrupt[1]));
}

#[test]
fn empty_ledger_cannot_snapshot() {
    let (_, signer) = msp_setup();
    let ledger = Ledger::in_memory();
    assert_eq!(
        build_snapshot(&ledger, &channel(), &signer, &small_config()).unwrap_err(),
        SyncError::EmptyLedger
    );
}

#[test]
fn checkpointer_follows_interval() {
    let (_, signer) = msp_setup();
    let ledger = Ledger::in_memory();
    let mut cp = Checkpointer::new(channel(), small_config()); // interval 4
    for b in 0..9u8 {
        commit_writes(&ledger, b, &[("k", vec![b; 32])]);
        let produced = cp.maybe_checkpoint(&ledger, &signer).unwrap();
        match ledger.height() {
            4 | 8 => {
                let snap = produced.expect("checkpoint at interval boundary");
                assert_eq!(snap.height(), ledger.height());
                assert_eq!(cp.last_height(), ledger.height());
            }
            _ => assert!(produced.is_none()),
        }
    }
}

#[test]
fn snapshot_store_serves_and_retains() {
    let (_, signer) = msp_setup();
    let ledger = Ledger::in_memory();
    let mut store = SnapshotStore::new(2);
    assert_eq!(store.advertised_height(&channel()), 0);

    let mut heights = Vec::new();
    for b in 0..3u8 {
        commit_writes(&ledger, b, &[("k", vec![b; 64])]);
        let snap = build_snapshot(&ledger, &channel(), &signer, &small_config()).unwrap();
        heights.push(snap.height());
        store.insert(snap);
    }
    // Retention keeps only the newest two.
    assert_eq!(store.advertised_height(&channel()), heights[2]);

    let served = store
        .serve(&SyncMessage::ManifestRequest { channel: channel() })
        .unwrap();
    let SyncMessage::ManifestResponse { manifest } = served else {
        panic!("expected manifest, got {served:?}");
    };
    assert_eq!(manifest.manifest.height, heights[2]);

    // Evicted snapshot: unknown digest yields an empty segment response.
    let served = store
        .serve(&SyncMessage::SegmentRequest {
            manifest: [0u8; 32],
            segment: 0,
        })
        .unwrap();
    assert!(matches!(
        served,
        SyncMessage::SegmentResponse { ref chunks, .. } if chunks.is_empty()
    ));

    // Unknown channel: explicit NoSnapshot.
    let served = store
        .serve(&SyncMessage::ManifestRequest {
            channel: ChannelId::new("other"),
        })
        .unwrap();
    assert!(matches!(served, SyncMessage::NoSnapshot { .. }));
}

// ------------------------------------------------------------ consumer

/// A simulated provider network: each provider serves from its own
/// [`SnapshotStore`], may be dead (drops requests), or corrupt (flips a
/// byte in every segment it serves).
struct TestNet {
    stores: HashMap<ProviderId, SnapshotStore>,
    dead: HashSet<ProviderId>,
    corrupt: HashSet<ProviderId>,
    /// Requests answered per provider (for load-spread assertions).
    served: HashMap<ProviderId, usize>,
}

impl TestNet {
    fn new(providers: &[ProviderId], snapshot: &crate::Snapshot) -> Self {
        let mut stores = HashMap::new();
        for &id in providers {
            let mut store = SnapshotStore::new(2);
            store.insert(snapshot.clone());
            stores.insert(id, store);
        }
        TestNet {
            stores,
            dead: HashSet::new(),
            corrupt: HashSet::new(),
            served: HashMap::new(),
        }
    }

    /// Runs the consumer against the network until it finishes or
    /// `max_ticks` elapse; returns the terminal output.
    fn run(&mut self, consumer: &mut Catchup, max_ticks: u64) -> SyncOutput {
        let mut queue: Vec<SyncOutput> = consumer.start();
        for _ in 0..max_ticks {
            while let Some(output) = queue.pop() {
                match output {
                    SyncOutput::Send { to, message } => {
                        if self.dead.contains(&to) {
                            continue;
                        }
                        let Some(mut reply) = self.stores[&to].serve(&message) else {
                            continue;
                        };
                        *self.served.entry(to).or_default() += 1;
                        if self.corrupt.contains(&to) {
                            if let SyncMessage::SegmentResponse { chunks, .. } = &mut reply {
                                if let Some(first) = chunks.first_mut().and_then(|c| c.first_mut())
                                {
                                    *first ^= 0xff;
                                }
                            }
                        }
                        queue.extend(consumer.step(to, reply));
                    }
                    terminal => return terminal,
                }
            }
            queue.extend(consumer.tick());
        }
        panic!("consumer did not finish within {max_ticks} ticks");
    }
}

fn consumer_fixture(
    providers: &[ProviderId],
) -> (crate::Snapshot, crate::StateEntries, Catchup, TestNet) {
    let (ca, signer) = msp_setup();
    let ledger = populated_ledger(4);
    let snapshot = build_snapshot(&ledger, &channel(), &signer, &small_config()).unwrap();
    let net = TestNet::new(providers, &snapshot);
    let consumer = Catchup::new(
        channel(),
        registry(&ca),
        providers,
        ConsumerConfig::default(),
    );
    (snapshot, ledger.state_entries(), consumer, net)
}

#[test]
fn catchup_fetches_from_multiple_providers() {
    let providers = [1, 2, 3];
    let (snapshot, expected, mut consumer, mut net) = consumer_fixture(&providers);
    let outcome = net.run(&mut consumer, 100);
    let SyncOutput::Install { manifest, entries } = outcome else {
        panic!("expected install, got {outcome:?}");
    };
    assert_eq!(manifest, snapshot.manifest.manifest);
    assert_eq!(entries, expected);
    assert!(consumer.finished());
    // Segment load actually spread beyond a single provider.
    assert!(
        net.served.len() > 1,
        "expected parallel fetch, served: {:?}",
        net.served
    );
}

#[test]
fn catchup_refetches_corrupt_segment_from_other_peer() {
    let providers = [1, 2];
    let (_, expected, mut consumer, mut net) = consumer_fixture(&providers);
    net.corrupt.insert(1); // provider 1 flips a byte in every segment
    let outcome = net.run(&mut consumer, 200);
    let SyncOutput::Install { entries, .. } = outcome else {
        panic!("expected install despite corruption, got {outcome:?}");
    };
    assert_eq!(entries, expected);
    // The corrupt provider was tried and charged, not trusted.
    assert!(net.served.contains_key(&2));
}

#[test]
fn catchup_survives_dead_provider() {
    let providers = [1, 2];
    let (_, expected, mut consumer, mut net) = consumer_fixture(&providers);
    net.dead.insert(1); // drops every request, including the manifest one
    let outcome = net.run(&mut consumer, 500);
    let SyncOutput::Install { entries, .. } = outcome else {
        panic!("expected install despite dead provider, got {outcome:?}");
    };
    assert_eq!(entries, expected);
    assert!(!net.served.contains_key(&1));
}

#[test]
fn catchup_falls_back_when_no_provider_reachable() {
    let providers = [1, 2];
    let (_, _, mut consumer, mut net) = consumer_fixture(&providers);
    net.dead.insert(1);
    net.dead.insert(2);
    let outcome = net.run(&mut consumer, 2000);
    assert!(
        matches!(outcome, SyncOutput::Fallback { .. }),
        "expected fallback, got {outcome:?}"
    );
    assert!(consumer.finished());
}

#[test]
fn catchup_skips_provider_without_snapshot() {
    let providers = [1, 2];
    let (_, expected, mut consumer, mut net) = consumer_fixture(&providers);
    // Provider 1 has no snapshot for the channel: replace its store.
    net.stores.insert(1, SnapshotStore::new(2));
    let outcome = net.run(&mut consumer, 200);
    let SyncOutput::Install { entries, .. } = outcome else {
        panic!("expected install from provider 2, got {outcome:?}");
    };
    assert_eq!(entries, expected);
}

#[test]
fn catchup_with_no_providers_falls_back_immediately() {
    let (ca, _) = msp_setup();
    let mut consumer = Catchup::new(channel(), registry(&ca), &[], ConsumerConfig::default());
    let outputs = consumer.start();
    assert!(matches!(outputs.as_slice(), [SyncOutput::Fallback { .. }]));
}

#[test]
fn installed_snapshot_matches_source_ledger() {
    let providers = [1, 2, 3];
    let (_, _, mut consumer, mut net) = consumer_fixture(&providers);
    let outcome = net.run(&mut consumer, 100);
    let SyncOutput::Install { manifest, entries } = outcome else {
        panic!("expected install, got {outcome:?}");
    };
    let target = Ledger::in_memory();
    target
        .install_snapshot(
            manifest.height,
            manifest.block_hash,
            manifest.last_config,
            &entries,
        )
        .unwrap();
    assert_eq!(target.height(), manifest.height);
    assert_eq!(target.last_hash(), manifest.block_hash);
    assert_eq!(target.state_entries(), entries);
    // The installed state's incremental Merkle root lands exactly on the
    // root the manifest bound — O(1) on both sides, no entry rehash.
    assert_eq!(target.state_root(), manifest.state_root);
}

#[test]
fn manifest_state_root_binds_installed_state() {
    let (_, signer) = msp_setup();
    let source = populated_ledger(3);
    let snapshot = build_snapshot(&source, &channel(), &signer, &small_config()).unwrap();
    let m = &snapshot.manifest.manifest;
    assert_eq!(m.state_root, source.state_root());

    let entries = decode_entries(m, &snapshot.segments).unwrap();
    let target = Ledger::in_memory();
    target
        .install_snapshot(m.height, m.block_hash, m.last_config, &entries)
        .unwrap();
    assert_eq!(target.state_root(), m.state_root);

    // Tampering with any installed entry moves the root off the manifest.
    let mut tampered = entries.clone();
    tampered[0].1.push(0xFF);
    let other = Ledger::in_memory();
    other
        .install_snapshot(m.height, m.block_hash, m.last_config, &tampered)
        .unwrap();
    assert_ne!(other.state_root(), m.state_root);
}

#[test]
fn checkpointer_skips_byte_identical_state() {
    let (_, signer) = msp_setup();
    let ledger = populated_ledger(2);
    let mut config = small_config();
    config.interval = 0; // continuous mode: every call passes the gate
    let mut cp = Checkpointer::new(channel(), config);
    assert!(cp.maybe_checkpoint(&ledger, &signer).unwrap().is_some());
    // Nothing committed since: the O(1) incremental root is unchanged, so
    // the checkpointer skips cutting a byte-identical snapshot.
    assert!(cp.maybe_checkpoint(&ledger, &signer).unwrap().is_none());
    // A commit moves the root and checkpointing resumes.
    commit_writes(&ledger, 9, &[("k", vec![9; 8])]);
    assert!(cp.maybe_checkpoint(&ledger, &signer).unwrap().is_some());
}
