//! Shared fixture for the pipelined-committer integration tests: a
//! single-org network running `fabric::net::kv_chaincode` (read-modify-
//! write and range-query operations), a block builder that can
//! produce valid, tampered, under-endorsed, and stale (cross-block MVCC
//! conflicting) transactions, and the one way these tests feed blocks
//! to a `DeliverMux`.

// Each integration-test binary compiles this module separately and uses a
// different subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use fabric::client::Client;
use fabric::kvstore::backend::Backend;
use fabric::msp::Role;
use fabric::net::{Net, NetSpec, PeerSpec};
use fabric::peer::{Deliver, DeliverMux, Peer, PeerError, PipelineOptions};
use fabric::primitives::block::Block;
use fabric::primitives::ids::ChannelId;
use fabric::primitives::transaction::{Envelope, EnvelopeContent};
use fabric::primitives::wire::Wire;

pub use fabric::net::kv_chaincode;

/// A mux of `workers` VSCC workers with `peer` attached under the peer's
/// own channel id.
pub fn mux_for(peer: &Peer, workers: usize, opts: PipelineOptions) -> DeliverMux {
    let mux = DeliverMux::new(workers);
    mux.attach(peer.channel().clone(), peer, opts)
        .expect("channel attaches");
    mux
}

/// Offers `block` to `mux` until it is taken. A `Saturated` refusal
/// (the parking window is full behind an exhausted credit window) waits
/// for one more commit to free room, then re-offers — what a backing-off
/// deliver client does. Returns the accepting verdict.
pub fn deliver(mux: &DeliverMux, channel: &ChannelId, block: &Block) -> Result<Deliver, PeerError> {
    let payload = block.to_wire();
    let number = block.header.number;
    loop {
        match mux.deliver(channel, number, &payload)? {
            Deliver::Saturated => mux.wait_committed(channel, mux.committed_height(channel) + 1)?,
            verdict => return Ok(verdict),
        }
    }
}

/// [`deliver`] for each of `blocks`, in order.
pub fn deliver_all(
    mux: &DeliverMux,
    channel: &ChannelId,
    blocks: &[Block],
) -> Result<(), PeerError> {
    for block in blocks {
        deliver(mux, channel, block)?;
    }
    Ok(())
}

/// A single-org world whose builder peer endorses and (sequentially)
/// commits blocks as they are built, so later endorsements simulate
/// against up-to-date state.
pub struct PipelineWorld {
    /// The network (no peers of its own: the builder is detached).
    pub net: Net,
    pub builder: Peer,
    pub client: Client,
    /// Every block built so far, deploy block included, in order.
    pub blocks: Vec<Block>,
}

impl PipelineWorld {
    pub fn new() -> Self {
        let mut net = Net::new(
            NetSpec::new(&["Org1"])
                .peer(PeerSpec::new(0, "builder.org1", 2))
                .chaincode("kv", Arc::new(kv_chaincode)),
        );
        // Block 1: deploy the KV chaincode, any-Org1 endorsement policy.
        let deploy = net.deploy_tx("kv", "1.0", "Org1MSP");
        let mut world = PipelineWorld {
            builder: net.detach(0),
            client: net.client(0, "client.org1", Role::Client),
            net,
            blocks: Vec::new(),
        };
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
            self.net.genesis.hash()
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
        self.net.join(PeerSpec::new(0, name, vscc_parallelism))
    }

    /// Like [`PipelineWorld::replica`] on an explicit backend (crash and
    /// recovery tests reopen the same backend).
    pub fn replica_on(
        &self,
        name: &str,
        vscc_parallelism: usize,
        backend: Arc<dyn Backend>,
    ) -> Peer {
        self.net.join(PeerSpec {
            backend: Some(backend),
            ..PeerSpec::new(0, name, vscc_parallelism)
        })
    }
}
