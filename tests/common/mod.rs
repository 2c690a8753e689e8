//! Shared fixture for the pipelined-committer integration tests: a
//! single-org network, a KV chaincode with read-modify-write and
//! range-query (phantom-prone) operations, and a block builder that can
//! produce valid, tampered, under-endorsed, and stale (cross-block MVCC
//! conflicting) transactions.

// Each integration-test binary compiles this module separately and uses a
// different subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use fabric::chaincode::{ChaincodeDefinition, Stub, LSCC_NAMESPACE};
use fabric::client::Client;
use fabric::kvstore::backend::Backend;
use fabric::kvstore::MemBackend;
use fabric::msp::Role;
use fabric::ordering::testkit::TestNet;
use fabric::ordering::OrderingCluster;
use fabric::peer::{Peer, PeerConfig};
use fabric::primitives::block::Block;
use fabric::primitives::config::ConsensusType;
use fabric::primitives::transaction::{Envelope, EnvelopeContent};
use fabric::primitives::wire::Wire;

/// KV chaincode with conflict-generating operations:
/// * `put(key, value)` — blind write;
/// * `get(key)` — read only;
/// * `incr(key)` — read-modify-write (MVCC conflict generator);
/// * `scanput(prefix, dest)` — range query over `[prefix, prefix~)` whose
///   result count is written to `dest` (phantom-read generator).
pub fn kv_chaincode(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
    match stub.function() {
        "put" => {
            let key = stub.arg_string(0)?;
            stub.put_state(&key, stub.args()[1].clone());
            Ok(vec![])
        }
        "get" => {
            let key = stub.arg_string(0)?;
            stub.get_state(&key)?.ok_or("missing".into())
        }
        "incr" => {
            let key = stub.arg_string(0)?;
            // A `put` may have left a short value under the same key.
            let current = stub
                .get_state(&key)?
                .and_then(|v| v.get(..8).map(|b| u64::from_le_bytes(b.try_into().unwrap())))
                .unwrap_or(0);
            stub.put_state(&key, (current + 1).to_le_bytes().to_vec());
            Ok(vec![])
        }
        "multiget" => {
            // Reads every argument as a key and concatenates the values:
            // a multi-key read in one simulation (snapshot-consistency
            // probe for the endorsement tests).
            let mut out = Vec::new();
            for arg in stub.args().to_vec() {
                let key = String::from_utf8(arg).map_err(|e| e.to_string())?;
                out.extend(stub.get_state(&key)?.unwrap_or_default());
            }
            Ok(out)
        }
        "scanput" => {
            let prefix = stub.arg_string(0)?;
            let dest = stub.arg_string(1)?;
            let end = format!("{prefix}~");
            let hits = stub.get_state_range(&prefix, &end)?;
            stub.put_state(&dest, (hits.len() as u64).to_le_bytes().to_vec());
            Ok(vec![])
        }
        other => Err(format!("unknown {other}")),
    }
}

/// A single-org world whose builder peer endorses and (sequentially)
/// commits blocks as they are built, so later endorsements simulate
/// against up-to-date state.
pub struct PipelineWorld {
    pub net: TestNet,
    pub genesis: Block,
    pub builder: Peer,
    pub client: Client,
    /// Every block built so far, deploy block included, in order.
    pub blocks: Vec<Block>,
}

impl PipelineWorld {
    pub fn new() -> Self {
        let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
        let ordering =
            OrderingCluster::new(ConsensusType::Solo, net.orderers(1), vec![net.genesis.clone()])
                .expect("ordering bootstraps");
        let genesis = ordering.deliver(&net.channel, 0).expect("genesis block");
        let builder = make_peer(&net, &genesis, "builder.org1", 2, Arc::new(MemBackend::new()));
        let client_identity = fabric::msp::issue_identity(
            &net.org_cas[0],
            "client.org1",
            Role::Client,
            b"pw-client",
        );
        let client = Client::new(client_identity, net.channel.clone());

        let mut world = PipelineWorld {
            net,
            genesis,
            builder,
            client,
            blocks: Vec::new(),
        };
        // Block 1: deploy the KV chaincode, any-Org1 endorsement policy.
        let admin = fabric::msp::issue_identity(
            &world.net.org_cas[0],
            "admin.org1",
            Role::Admin,
            b"pw-admin",
        );
        let admin_client = Client::new(admin, world.net.channel.clone());
        let def = ChaincodeDefinition {
            name: "kv".into(),
            version: "1.0".into(),
            endorsement_policy: "Org1MSP".into(),
        };
        let proposal =
            admin_client.create_proposal(LSCC_NAMESPACE, "deploy", vec![def.to_wire()]);
        let responses = admin_client
            .collect_endorsements(&proposal, &[&world.builder])
            .expect("deploy endorses");
        let deploy = admin_client.assemble_transaction(&proposal, &responses);
        world.seal_block(vec![deploy]);
        world
    }

    /// Endorses one KV invocation against the builder's current state.
    pub fn endorse(&self, function: &str, args: Vec<Vec<u8>>) -> Envelope {
        let proposal = self.client.create_proposal("kv", function, args);
        let responses = self
            .client
            .collect_endorsements(&proposal, &[&self.builder])
            .expect("endorsement succeeds");
        self.client.assemble_transaction(&proposal, &responses)
    }

    /// Flips a signature byte: the committer must flag `BadSignature`.
    pub fn tamper_signature(&self, mut envelope: Envelope) -> Envelope {
        if let Some(byte) = envelope.signature.get_mut(0) {
            *byte ^= 0x40;
        }
        envelope
    }

    /// Strips all endorsements and re-signs: `EndorsementPolicyFailure`.
    pub fn strip_endorsements(&self, mut envelope: Envelope) -> Envelope {
        if let EnvelopeContent::Transaction(tx) = &mut envelope.content {
            tx.endorsements.clear();
        }
        envelope.signature = self
            .client
            .identity()
            .sign(&Envelope::signing_bytes(&envelope.content))
            .to_bytes()
            .to_vec();
        envelope
    }

    /// Seals the next block with the given envelopes and commits it on the
    /// builder (so subsequent endorsements see its effects).
    pub fn seal_block(&mut self, envelopes: Vec<Envelope>) -> &Block {
        let number = self.builder.height();
        let prev = if number == 1 {
            self.genesis.hash()
        } else {
            self.blocks.last().expect("previous block").hash()
        };
        let block = Block::new(number, prev, envelopes);
        self.builder
            .commit_block(&block)
            .expect("builder commits its own block");
        self.blocks.push(block);
        self.blocks.last().unwrap()
    }

    /// A fresh replica peer joined from genesis with the KV chaincode
    /// installed, on its own in-memory backend.
    pub fn replica(&self, name: &str, vscc_parallelism: usize) -> Peer {
        make_peer(
            &self.net,
            &self.genesis,
            name,
            vscc_parallelism,
            Arc::new(MemBackend::new()),
        )
    }

    /// Like [`PipelineWorld::replica`] on an explicit backend (crash and
    /// recovery tests reopen the same backend).
    pub fn replica_on(
        &self,
        name: &str,
        vscc_parallelism: usize,
        backend: Arc<dyn Backend>,
    ) -> Peer {
        make_peer(&self.net, &self.genesis, name, vscc_parallelism, backend)
    }
}

pub fn make_peer(
    net: &TestNet,
    genesis: &Block,
    name: &str,
    vscc_parallelism: usize,
    backend: Arc<dyn Backend>,
) -> Peer {
    let identity =
        fabric::msp::issue_identity(&net.org_cas[0], name, Role::Peer, name.as_bytes());
    let peer = Peer::join(
        identity,
        genesis,
        backend,
        PeerConfig {
            vscc_parallelism,
            runtime: fabric::chaincode::RuntimeConfig { exec_timeout: None },
            sync_writes: false,
        },
    )
    .expect("peer joins channel");
    peer.install_chaincode("kv", Arc::new(kv_chaincode));
    peer
}
