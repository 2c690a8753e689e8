//! The peer node: ledger + endorser + committer wired together (paper
//! Fig. 5).
//!
//! A peer joins a channel from its genesis block, optionally endorses
//! proposals (if it is an endorsing peer for some chaincode), validates
//! and commits every delivered block, and serves the query functions that
//! Fabric exposes through the CSCC/QSCC system chaincodes (channel config
//! and ledger queries).

use std::sync::Arc;

use parking_lot::RwLock;

use fabric_chaincode::{
    Chaincode, ChaincodeRegistry, ChaincodeRuntime, Lscc, RuntimeConfig, Vscc, LSCC_NAMESPACE,
};
use fabric_kvstore::backend::Backend;
use fabric_ledger::Ledger;
use fabric_msp::SigningIdentity;
use fabric_primitives::block::Block;
use fabric_primitives::ids::{TxId, TxValidationCode};
use fabric_primitives::transaction::{EnvelopeContent, ProposalResponse, SignedProposal};
use fabric_primitives::ChannelId;

use crate::committer::{Committer, ValidationTiming};
use crate::endorse_pipeline::{EndorseOptions, EndorsePipeline};
use crate::endorser::Endorser;
use crate::view::ChannelView;
use crate::PeerError;

/// Peer construction options.
pub struct PeerConfig {
    /// VSCC worker-pool width (the Fig. 7 "vCPUs" knob).
    pub vscc_parallelism: usize,
    /// Chaincode execution policy.
    pub runtime: RuntimeConfig,
    /// Whether ledger writes are fsync'd (SSD vs RAM-disk experiments).
    /// The state store and block store share the backend passed to
    /// [`Peer::join`]: a [`fabric_kvstore::MemBackend`] keeps the whole
    /// ledger in RAM.
    pub sync_writes: bool,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            vscc_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            runtime: RuntimeConfig::default(),
            sync_writes: false,
        }
    }
}

/// A Fabric peer.
pub struct Peer {
    identity: SigningIdentity,
    channel: ChannelId,
    pub(crate) ledger: Arc<Ledger>,
    view: Arc<RwLock<ChannelView>>,
    endorser: Arc<Endorser>,
    pub(crate) committer: Committer,
    runtime: Arc<ChaincodeRuntime>,
}

impl Peer {
    /// Creates a peer and joins it to the channel whose genesis block is
    /// given (the genesis block carries the initial configuration).
    pub fn join(
        identity: SigningIdentity,
        genesis: &Block,
        backend: Arc<dyn Backend>,
        config: PeerConfig,
    ) -> Result<Self, PeerError> {
        let peer = Self::open(identity, genesis, backend, config, |_, _| Ok(()))?;
        // Commit the genesis block if this is a fresh ledger (recovery may
        // already have it).
        if peer.ledger.height() == 0 {
            let mut genesis = genesis.clone();
            genesis.metadata.validation = vec![TxValidationCode::Valid];
            peer.ledger.commit(&genesis).map_err(PeerError::Ledger)?;
        }
        Ok(peer)
    }

    /// Creates a peer directly from a verified state snapshot, skipping
    /// block-by-block replay (statesync catch-up).
    ///
    /// The genesis block provides the channel configuration and, through
    /// it, the MSP federation that `manifest` is verified against. The
    /// `entries` must be the Merkle-verified snapshot contents (the
    /// statesync consumer only emits `Install` after verifying every
    /// chunk). Blocks above the snapshot height then flow through the
    /// ordinary commit paths; the first one must chain onto the
    /// manifest's block hash or the ledger rejects it.
    pub fn join_from_snapshot(
        identity: SigningIdentity,
        genesis: &Block,
        manifest: &fabric_statesync::SignedManifest,
        entries: &[(Vec<u8>, Vec<u8>)],
        backend: Arc<dyn Backend>,
        config: PeerConfig,
    ) -> Result<Self, PeerError> {
        let peer = Self::open(identity, genesis, backend, config, |channel, view| {
            manifest.verify(channel, &view.msp).map_err(PeerError::Snapshot)
        })?;
        if peer.ledger.height() == 0 {
            let m = &manifest.manifest;
            peer.ledger
                .install_snapshot(m.height, m.block_hash, m.last_config, entries)
                .map_err(PeerError::Ledger)?;
            // The store's incremental Merkle root must land exactly on the
            // root the manifest signer committed to — a byte-level check of
            // the installed state without rehashing the entry stream.
            if peer.ledger.state_root() != m.state_root {
                return Err(PeerError::Snapshot(fabric_statesync::SyncError::Corrupt(
                    "installed state root does not match the signed manifest".into(),
                )));
            }
        }
        Ok(peer)
    }

    /// The steps both constructors share: read the channel config out of
    /// the genesis block, build the channel view and chaincode runtime, and
    /// open the ledger. `admit` sees the fresh view before the ledger is
    /// opened and may refuse the join.
    fn open(
        identity: SigningIdentity,
        genesis: &Block,
        backend: Arc<dyn Backend>,
        config: PeerConfig,
        admit: impl FnOnce(&ChannelId, &ChannelView) -> Result<(), PeerError>,
    ) -> Result<Self, PeerError> {
        if !genesis.is_config_block() || genesis.header.number != 0 {
            return Err(PeerError::BadBlock("not a genesis config block".into()));
        }
        let channel_config = match &genesis.envelopes[0].content {
            EnvelopeContent::Config(update) => update.config.clone(),
            EnvelopeContent::Transaction(_) => {
                return Err(PeerError::BadBlock("genesis holds no config".into()))
            }
        };
        let channel = channel_config.channel.clone();
        let view = ChannelView::new(channel_config)?;
        admit(&channel, &view)?;
        let view = Arc::new(RwLock::new(view));

        let registry = Arc::new(ChaincodeRegistry::new());
        registry.install(LSCC_NAMESPACE, Arc::new(Lscc));
        let runtime = Arc::new(ChaincodeRuntime::new(registry, config.runtime));

        let ledger =
            Arc::new(Ledger::open(backend, config.sync_writes).map_err(PeerError::Ledger)?);
        Ok(Peer {
            endorser: Arc::new(Endorser::new(identity.clone(), runtime.clone(), view.clone())),
            committer: Committer::new(view.clone(), config.vscc_parallelism),
            identity,
            channel,
            ledger,
            view,
            runtime,
        })
    }

    /// Produces a signed snapshot of the current state for catch-up
    /// serving (checkpoint production).
    pub fn state_snapshot(
        &self,
        config: &fabric_statesync::SnapshotConfig,
    ) -> Result<fabric_statesync::Snapshot, PeerError> {
        fabric_statesync::build_snapshot(&self.ledger, &self.channel, &self.identity, config)
            .map_err(PeerError::Snapshot)
    }

    /// This peer's identity.
    pub fn identity(&self) -> &SigningIdentity {
        &self.identity
    }

    /// The channel this peer serves.
    pub fn channel(&self) -> &ChannelId {
        &self.channel
    }

    /// Installs a chaincode binary on this peer (endorsing peers only need
    /// the chaincodes they endorse, Fig. 3).
    pub fn install_chaincode(&self, name: impl Into<String>, chaincode: Arc<dyn Chaincode>) {
        self.runtime.registry().install(name, chaincode);
    }

    /// Registers a custom VSCC for a chaincode (static configuration).
    pub fn register_vscc(&self, chaincode: impl Into<String>, vscc: Arc<dyn Vscc>) {
        self.committer.register_vscc(chaincode, vscc);
    }

    /// Endorses a signed proposal (execution phase).
    pub fn process_proposal(
        &self,
        proposal: &SignedProposal,
    ) -> Result<ProposalResponse, PeerError> {
        self.endorser.process_proposal(&self.ledger, proposal)
    }

    /// Starts the sharded, pipelined endorsement path over this peer's
    /// endorser: bounded intake, per-chaincode fair scheduling across a
    /// pool of simulation workers, and a batching ESCC signer. The
    /// responses it produces are byte-identical to
    /// [`Peer::process_proposal`]'s (deterministic signatures), just
    /// faster under load.
    pub fn endorse_pipeline(&self, opts: EndorseOptions) -> EndorsePipeline {
        EndorsePipeline::start(self.endorser.clone(), self.ledger.clone(), opts)
    }

    /// Validates and commits a delivered block (validation phase), after
    /// verifying its integrity and orderer signature. On a committed
    /// config block, the peer's channel view is updated.
    ///
    /// This is the sequential reference: one block at a time, nothing
    /// overlapped. Production commits go through a [`crate::DeliverMux`]
    /// (the pipelined committer), which must give the same masks and
    /// state; the equivalence and recovery tests compare the two. Never
    /// call it on a peer attached to a mux.
    pub fn commit_block(
        &self,
        block: &Block,
    ) -> Result<(Vec<TxValidationCode>, ValidationTiming), PeerError> {
        if block.header.number != self.ledger.height() {
            return Err(PeerError::BadBlock(format!(
                "expected block {}, got {}",
                self.ledger.height(),
                block.header.number
            )));
        }
        self.committer.verify_block(block)?;
        let (flags, timing) = self.committer.validate_and_commit(&self.ledger, block)?;
        self.committer.apply_config(block, &flags)?;
        Ok((flags, timing))
    }

    /// Current ledger height.
    pub fn height(&self) -> u64 {
        self.ledger.height()
    }

    /// QSCC-style query: block by number.
    pub fn get_block(&self, number: u64) -> Result<Option<Block>, PeerError> {
        self.ledger.get_block(number).map_err(PeerError::Ledger)
    }

    /// QSCC-style query: the block containing a transaction, with its
    /// validity flag.
    pub fn get_transaction(
        &self,
        tx_id: &TxId,
    ) -> Result<Option<(Block, u32, TxValidationCode)>, PeerError> {
        let Some(location) = self.ledger.tx_location(tx_id) else {
            return Ok(None);
        };
        let block = self
            .ledger
            .get_block(location.block_num)
            .map_err(PeerError::Ledger)?
            .expect("indexed block exists");
        let flag = block
            .metadata
            .validation
            .get(location.tx_index as usize)
            .copied()
            .unwrap_or(TxValidationCode::NotValidated);
        Ok(Some((block, location.tx_index, flag)))
    }

    /// State query (world state, latest committed value).
    pub fn get_state(&self, namespace: &str, key: &str) -> Result<Option<Vec<u8>>, PeerError> {
        self.ledger.get_state(namespace, key).map_err(PeerError::Ledger)
    }

    /// State range query over the latest committed state.
    pub fn scan_state(
        &self,
        namespace: &str,
        start: &str,
        end: &str,
    ) -> Result<Vec<(String, Vec<u8>)>, PeerError> {
        self.ledger
            .scan_state(namespace, start, end)
            .map_err(PeerError::Ledger)
    }

    /// QSCC-style query: the write history of a state key.
    pub fn get_key_history(
        &self,
        namespace: &str,
        key: &str,
    ) -> Result<Vec<fabric_ledger::HistoryEntry>, PeerError> {
        self.ledger
            .key_history(namespace, key)
            .map_err(PeerError::Ledger)
    }

    /// CSCC-style query: the current channel configuration.
    pub fn channel_config(&self) -> fabric_primitives::config::ChannelConfig {
        self.view.read().config.clone()
    }

    /// The ledger (for audit tooling and benches).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The chaincode runtime (execution-thread observability for the
    /// fault-injection tests).
    pub fn chaincode_runtime(&self) -> &Arc<ChaincodeRuntime> {
        &self.runtime
    }
}
