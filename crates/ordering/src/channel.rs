//! Per-channel state kept by every ordering-service node (paper Sec. 4.2):
//! the current configuration (with its MSP registry and access policies),
//! the deterministic block cutter, and the chain of cut blocks retained to
//! answer `deliver` calls — one wire encoding per height, decoded on
//! demand.
//!
//! The validation-relevant slice of the state — configuration, MSPs, and
//! the three access policies — is factored into an immutable
//! [`ChannelAccess`] snapshot behind an `Arc`, so the pre-ordering
//! signature-verification pool (see `verify`) can check envelopes on
//! worker threads without holding up the consensus path. A config update
//! swaps in a fresh snapshot; in-flight verifications against the old
//! snapshot mirror real Fabric, where broadcast validation races
//! reconfiguration and the delivered config transaction is re-validated
//! in ordered position anyway.

use std::sync::Arc;

use fabric_crypto::Digest;
use fabric_msp::{MspRegistry, SigningIdentity};
use fabric_policy::{PolicyExpr, Signer};
use fabric_primitives::block::{Block, BlockSignature};
use fabric_primitives::config::{ChannelConfig, ConfigUpdate};
use fabric_primitives::transaction::{Envelope, EnvelopeContent};
use fabric_primitives::wire::Wire;
use fabric_primitives::ChannelId;

use crate::cutter::BlockCutter;
use crate::OrderError;

/// An immutable snapshot of everything needed to validate envelopes and
/// deliver requests against one channel: the configuration plus the MSP
/// registry and parsed policies derived from it. Shared (`Arc`) with the
/// verification worker pool.
pub struct ChannelAccess {
    /// The configuration this snapshot was built from.
    pub config: ChannelConfig,
    /// MSP federation built from `config.orgs`.
    pub msp: MspRegistry,
    writer_policy: PolicyExpr,
    admin_policy: PolicyExpr,
    reader_policy: PolicyExpr,
}

impl ChannelAccess {
    /// Builds a snapshot from a configuration, parsing its policies and
    /// constructing the MSP registry.
    pub fn from_config(config: ChannelConfig) -> Result<Self, OrderError> {
        let msp = MspRegistry::from_channel_config(&config).map_err(OrderError::Identity)?;
        let writer_policy = PolicyExpr::parse(&config.writer_policy)
            .map_err(|e| OrderError::BadConfig(format!("writer policy: {e}")))?;
        let admin_policy = PolicyExpr::parse(&config.admin_policy)
            .map_err(|e| OrderError::BadConfig(format!("admin policy: {e}")))?;
        let reader_policy = PolicyExpr::parse(&config.reader_policy)
            .map_err(|e| OrderError::BadConfig(format!("reader policy: {e}")))?;
        Ok(ChannelAccess {
            config,
            msp,
            writer_policy,
            admin_policy,
            reader_policy,
        })
    }

    fn signer_of(&self, identity: &fabric_msp::ValidatedIdentity) -> Signer {
        Signer {
            msp_id: identity.msp_id().to_string(),
            role: identity.role().as_str().to_string(),
        }
    }

    fn org_ids(&self) -> Vec<String> {
        self.config.orgs.iter().map(|o| o.msp_id.clone()).collect()
    }

    /// Validates an envelope at `broadcast` time: signature authenticity,
    /// size bound, and the channel's writer (or admin, for config) policy —
    /// the access-control role of the ordering service (paper Sec. 3.3).
    pub fn check_broadcast(&self, envelope: &Envelope) -> Result<(), OrderError> {
        let size = envelope.wire_size();
        if size > self.config.orderer.batch.absolute_max_bytes as usize {
            return Err(OrderError::TooLarge {
                size,
                max: self.config.orderer.batch.absolute_max_bytes as usize,
            });
        }
        match &envelope.content {
            EnvelopeContent::Transaction(tx) => {
                let signing_bytes = Envelope::signing_bytes(&envelope.content);
                let identity = self
                    .msp
                    .validate_and_verify(&tx.creator, &signing_bytes, &envelope.signature)
                    .map_err(OrderError::Identity)?;
                let satisfied = self
                    .writer_policy
                    .evaluate(&self.org_ids(), &[self.signer_of(&identity)])
                    .map_err(|e| OrderError::BadConfig(e.to_string()))?;
                if !satisfied {
                    return Err(OrderError::AccessDenied);
                }
                Ok(())
            }
            EnvelopeContent::Config(update) => self.check_config_update(update),
        }
    }

    /// Validates a configuration update against the *current* configuration
    /// (paper Sec. 4.6): next sequence number and admin-policy signatures
    /// over the new config bytes.
    pub fn check_config_update(&self, update: &ConfigUpdate) -> Result<(), OrderError> {
        if update.config.channel != self.config.channel {
            return Err(OrderError::BadConfig("config targets another channel".into()));
        }
        if update.config.sequence != self.config.sequence + 1 {
            return Err(OrderError::BadConfig(format!(
                "config sequence {} != current {} + 1",
                update.config.sequence, self.config.sequence
            )));
        }
        let config_bytes = update.config.to_wire();
        let mut signers = Vec::new();
        for sig in &update.signatures {
            let identity = self
                .msp
                .validate_and_verify(&sig.signer, &config_bytes, &sig.signature)
                .map_err(OrderError::Identity)?;
            signers.push(self.signer_of(&identity));
        }
        let satisfied = self
            .admin_policy
            .evaluate(&self.org_ids(), &signers)
            .map_err(|e| OrderError::BadConfig(e.to_string()))?;
        if !satisfied {
            return Err(OrderError::AccessDenied);
        }
        // The new config must itself be well-formed.
        MspRegistry::from_channel_config(&update.config).map_err(OrderError::Identity)?;
        PolicyExpr::parse(&update.config.writer_policy)
            .map_err(|e| OrderError::BadConfig(format!("writer policy: {e}")))?;
        PolicyExpr::parse(&update.config.admin_policy)
            .map_err(|e| OrderError::BadConfig(format!("admin policy: {e}")))?;
        PolicyExpr::parse(&update.config.reader_policy)
            .map_err(|e| OrderError::BadConfig(format!("reader policy: {e}")))?;
        Ok(())
    }

    /// Checks whether `identity` may receive blocks (`deliver` access).
    pub fn check_deliver(
        &self,
        identity: &fabric_primitives::SerializedIdentity,
        challenge: &[u8],
        signature: &[u8],
    ) -> Result<(), OrderError> {
        let validated = self
            .msp
            .validate_and_verify(identity, challenge, signature)
            .map_err(OrderError::Identity)?;
        let satisfied = self
            .reader_policy
            .evaluate(&self.org_ids(), &[self.signer_of(&validated)])
            .map_err(|e| OrderError::BadConfig(e.to_string()))?;
        if satisfied {
            Ok(())
        } else {
            Err(OrderError::AccessDenied)
        }
    }
}

/// One channel's state at an OSN.
pub struct ChannelState {
    /// The channel id.
    pub channel: ChannelId,
    /// The current validation snapshot (config + MSPs + policies),
    /// shareable with verification worker threads.
    pub access: Arc<ChannelAccess>,
    /// The block cutter.
    pub cutter: BlockCutter,
    /// Every block cut so far, as its wire encoding (the form peers and
    /// gossip consume): the OSN's block ledger behind `deliver` (paper
    /// Sec. 4.2), kept in memory for the life of the node. This is the
    /// one copy of each ordered transaction an OSN holds; the consensus
    /// log compacts behind it.
    blocks: Vec<Vec<u8>>,
    /// Header hash of the last cut block.
    last_hash: Digest,
    /// Ticks since the current pending batch started (drives TTC).
    pub pending_ticks: u64,
    /// Highest block number this node already sent a time-to-cut for.
    pub ttc_sent: u64,
    /// Number of the most recent config block.
    pub last_config: u64,
}

impl ChannelState {
    /// Bootstraps a channel from its genesis configuration, producing the
    /// genesis block (number 0) containing the config.
    pub fn from_genesis(config: ChannelConfig) -> Result<Self, OrderError> {
        if config.sequence != 0 {
            return Err(OrderError::BadConfig("genesis sequence must be 0".into()));
        }
        let genesis_envelope = Envelope {
            content: EnvelopeContent::Config(ConfigUpdate {
                config: config.clone(),
                signatures: vec![],
            }),
            signature: vec![],
        };
        let genesis = Block::new(0, [0u8; 32], vec![genesis_envelope]);
        let last_hash = genesis.hash();
        let cutter = BlockCutter::new(config.orderer.batch, 1);
        let channel = config.channel.clone();
        let access = Arc::new(ChannelAccess::from_config(config)?);
        Ok(ChannelState {
            channel,
            access,
            cutter,
            blocks: vec![genesis.to_wire()],
            last_hash,
            pending_ticks: 0,
            ttc_sent: 0,
            last_config: 0,
        })
    }

    /// The current configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.access.config
    }

    /// The header hash of the last cut block.
    pub fn last_hash(&self) -> Digest {
        self.last_hash
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Serves a `deliver(seq)` call, decoding the retained encoding.
    pub fn deliver(&self, seq: u64) -> Option<Block> {
        let bytes = self.blocks.get(seq as usize)?;
        Some(Block::from_wire(bytes).expect("an OSN decodes its own blocks"))
    }

    /// See [`ChannelAccess::check_broadcast`].
    pub fn check_broadcast(&self, envelope: &Envelope) -> Result<(), OrderError> {
        self.access.check_broadcast(envelope)
    }

    /// See [`ChannelAccess::check_config_update`].
    pub fn check_config_update(&self, update: &ConfigUpdate) -> Result<(), OrderError> {
        self.access.check_config_update(update)
    }

    /// See [`ChannelAccess::check_deliver`].
    pub fn check_deliver(
        &self,
        identity: &fabric_primitives::SerializedIdentity,
        challenge: &[u8],
        signature: &[u8],
    ) -> Result<(), OrderError> {
        self.access.check_deliver(identity, challenge, signature)
    }

    /// Applies a validated config update delivered through consensus:
    /// swaps in a fresh access snapshot and updates batch parameters.
    pub fn apply_config(&mut self, config: ChannelConfig) -> Result<(), OrderError> {
        let batch = config.orderer.batch;
        self.access = Arc::new(ChannelAccess::from_config(config)?);
        self.cutter.set_config(batch);
        Ok(())
    }

    /// Builds, signs, and appends the next block from `envelopes`.
    pub fn cut_block(&mut self, envelopes: Vec<Envelope>, signer: &SigningIdentity) -> Block {
        self.cut_block_with(envelopes, |header_hash| BlockSignature {
            signer: signer.serialized(),
            signature: signer.sign(header_hash).to_bytes().to_vec(),
        })
    }

    /// Builds the next block from `envelopes` and signs its header hash via
    /// `sign` — the hook the speculative-signing cache uses to supply a
    /// pre-computed signature (the header hash covers only number, previous
    /// hash, and data hash, so it is known before consensus finishes).
    pub fn cut_block_with(
        &mut self,
        envelopes: Vec<Envelope>,
        sign: impl FnOnce(&Digest) -> BlockSignature,
    ) -> Block {
        let number = self.height();
        let mut block = Block::new(number, self.last_hash, envelopes);
        block.metadata.last_config = self.last_config;
        let header_hash = block.hash();
        block.metadata.signatures.push(sign(&header_hash));
        if block.is_config_block() {
            self.last_config = number;
        }
        self.blocks.push(block.to_wire());
        self.last_hash = header_hash;
        block
    }
}
