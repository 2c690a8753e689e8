//! Channel configuration (paper Sec. 4.6).
//!
//! Each channel's configuration — member organizations with their MSP root
//! certificates, ordering-service nodes and batching parameters, and the
//! access/administration policies — lives in special *configuration blocks*.
//! A channel is bootstrapped from a *genesis block* holding the initial
//! [`ChannelConfig`], and updated by [`ConfigUpdate`] transactions whose
//! signatures are checked against the *current* configuration's admin
//! policy, both by orderers and by peers.

use crate::ids::{ChannelId, SerializedIdentity};
use crate::wire::{Decoder, Encoder, Wire, WireError};

/// Block-cutting parameters for the ordering service (paper Sec. 4.2).
///
/// A block is cut as soon as it holds `max_message_count` transactions, or
/// would exceed `preferred_max_bytes`, or `batch_timeout_ms` elapsed since
/// the first transaction of the block arrived (via time-to-cut).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum number of transactions in a block.
    pub max_message_count: u32,
    /// Hard upper bound on serialized block bytes; single transactions
    /// larger than this are rejected at broadcast.
    pub absolute_max_bytes: u32,
    /// Soft target for block size in bytes; a block is cut when the next
    /// transaction would push it past this.
    pub preferred_max_bytes: u32,
    /// Time-to-cut: maximum milliseconds between a block's first
    /// transaction and the block being cut.
    pub batch_timeout_ms: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        // Paper Sec. 5.2 experiment 1 settles on 2 MB preferred block size.
        BatchConfig {
            max_message_count: 500,
            absolute_max_bytes: 10 * 1024 * 1024,
            preferred_max_bytes: 2 * 1024 * 1024,
            batch_timeout_ms: 1_000,
        }
    }
}

impl Wire for BatchConfig {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.max_message_count);
        enc.put_u32(self.absolute_max_bytes);
        enc.put_u32(self.preferred_max_bytes);
        enc.put_u64(self.batch_timeout_ms);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(BatchConfig {
            max_message_count: dec.get_u32()?,
            absolute_max_bytes: dec.get_u32()?,
            preferred_max_bytes: dec.get_u32()?,
            batch_timeout_ms: dec.get_u64()?,
        })
    }
}

/// Which consensus implementation the ordering service runs (paper Sec. 4.2
/// lists Solo, Kafka, and a BFT-SMaRt proof of concept; here: Solo, Raft as
/// the CFT cluster, and PBFT as the BFT option).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsensusType {
    /// Centralized single-node orderer for development and testing.
    Solo,
    /// Crash-fault-tolerant replicated log (stands in for Kafka/ZooKeeper).
    Raft,
    /// Byzantine-fault-tolerant atomic broadcast (stands in for BFT-SMaRt).
    Pbft,
}

impl Wire for ConsensusType {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            ConsensusType::Solo => 0,
            ConsensusType::Raft => 1,
            ConsensusType::Pbft => 2,
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.get_u8()? {
            0 => ConsensusType::Solo,
            1 => ConsensusType::Raft,
            2 => ConsensusType::Pbft,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// Configuration of one member organization: its MSP id and the root
/// certificate against which member certificates chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrgConfig {
    /// The organization's MSP identifier.
    pub msp_id: String,
    /// Serialized root CA certificate (see `fabric-msp`).
    pub root_cert: Vec<u8>,
}

impl Wire for OrgConfig {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(&self.msp_id);
        enc.put_bytes(&self.root_cert);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(OrgConfig {
            msp_id: dec.get_string()?,
            root_cert: dec.get_bytes()?,
        })
    }
}

/// Ordering-service section of the channel configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrdererConfig {
    /// Consensus implementation to use.
    pub consensus: ConsensusType,
    /// Logical addresses (node names) of the ordering-service nodes.
    pub addresses: Vec<String>,
    /// Block-cutting parameters.
    pub batch: BatchConfig,
}

impl Wire for OrdererConfig {
    fn encode(&self, enc: &mut Encoder) {
        self.consensus.encode(enc);
        enc.put_seq(&self.addresses, |e, a| e.put_string(a));
        self.batch.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(OrdererConfig {
            consensus: ConsensusType::decode(dec)?,
            addresses: dec.get_seq(|d| d.get_string())?,
            batch: BatchConfig::decode(dec)?,
        })
    }
}

/// The full configuration of one channel.
///
/// `sequence` increases by one with every configuration update; peers and
/// orderers reject updates whose sequence is not exactly `current + 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelConfig {
    /// The channel this configuration governs.
    pub channel: ChannelId,
    /// Monotonic configuration sequence number (0 = genesis).
    pub sequence: u64,
    /// Member organizations.
    pub orgs: Vec<OrgConfig>,
    /// Ordering-service configuration.
    pub orderer: OrdererConfig,
    /// Policy expression gating configuration updates
    /// (e.g. `"MAJORITY(admins)"`, parsed by `fabric-policy`).
    pub admin_policy: String,
    /// Policy expression gating `broadcast` access.
    pub writer_policy: String,
    /// Policy expression gating `deliver` access.
    pub reader_policy: String,
}

impl ChannelConfig {
    /// Returns the org config for `msp_id`, if that org is a member.
    pub fn org(&self, msp_id: &str) -> Option<&OrgConfig> {
        self.orgs.iter().find(|o| o.msp_id == msp_id)
    }

    /// Lists all member MSP ids.
    pub fn msp_ids(&self) -> Vec<&str> {
        self.orgs.iter().map(|o| o.msp_id.as_str()).collect()
    }
}

impl Wire for ChannelConfig {
    fn encode(&self, enc: &mut Encoder) {
        self.channel.encode(enc);
        enc.put_u64(self.sequence);
        enc.put_seq(&self.orgs, |e, o| o.encode(e));
        self.orderer.encode(enc);
        enc.put_string(&self.admin_policy);
        enc.put_string(&self.writer_policy);
        enc.put_string(&self.reader_policy);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ChannelConfig {
            channel: ChannelId::decode(dec)?,
            sequence: dec.get_u64()?,
            orgs: dec.get_seq(OrgConfig::decode)?,
            orderer: OrdererConfig::decode(dec)?,
            admin_policy: dec.get_string()?,
            writer_policy: dec.get_string()?,
            reader_policy: dec.get_string()?,
        })
    }
}

/// An admin's signature over a proposed configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigSignature {
    /// The signing admin identity.
    pub signer: SerializedIdentity,
    /// Signature over the new `ChannelConfig` encoding.
    pub signature: Vec<u8>,
}

impl Wire for ConfigSignature {
    fn encode(&self, enc: &mut Encoder) {
        self.signer.encode(enc);
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ConfigSignature {
            signer: SerializedIdentity::decode(dec)?,
            signature: dec.get_bytes()?,
        })
    }
}

/// A channel configuration update transaction (paper Sec. 4.6): the proposed
/// new configuration plus admin signatures evaluated against the *current*
/// configuration's admin policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigUpdate {
    /// The proposed new configuration (sequence must be current + 1).
    pub config: ChannelConfig,
    /// Admin signatures over `config.to_wire()`.
    pub signatures: Vec<ConfigSignature>,
}

impl Wire for ConfigUpdate {
    fn encode(&self, enc: &mut Encoder) {
        self.config.encode(enc);
        enc.put_seq(&self.signatures, |e, s| s.encode(e));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ConfigUpdate {
            config: ChannelConfig::decode(dec)?,
            signatures: dec.get_seq(ConfigSignature::decode)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample_config() -> ChannelConfig {
        ChannelConfig {
            channel: ChannelId::new("ch1"),
            sequence: 0,
            orgs: vec![
                OrgConfig {
                    msp_id: "Org1MSP".into(),
                    root_cert: vec![1; 65],
                },
                OrgConfig {
                    msp_id: "Org2MSP".into(),
                    root_cert: vec![2; 65],
                },
            ],
            orderer: OrdererConfig {
                consensus: ConsensusType::Raft,
                addresses: vec!["osn0".into(), "osn1".into(), "osn2".into()],
                batch: BatchConfig::default(),
            },
            admin_policy: "MAJORITY(admins)".into(),
            writer_policy: "OR(Org1MSP, Org2MSP)".into(),
            reader_policy: "OR(Org1MSP, Org2MSP)".into(),
        }
    }

    #[test]
    fn config_round_trip() {
        let cfg = sample_config();
        assert_eq!(ChannelConfig::from_wire(&cfg.to_wire()).unwrap(), cfg);
    }

    #[test]
    fn org_lookup() {
        let cfg = sample_config();
        assert!(cfg.org("Org1MSP").is_some());
        assert!(cfg.org("NoSuchOrg").is_none());
        assert_eq!(cfg.msp_ids(), vec!["Org1MSP", "Org2MSP"]);
    }

    #[test]
    fn batch_defaults_match_paper() {
        let b = BatchConfig::default();
        assert_eq!(b.preferred_max_bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn consensus_type_round_trip() {
        for c in [
            ConsensusType::Solo,
            ConsensusType::Raft,
            ConsensusType::Pbft,
        ] {
            assert_eq!(ConsensusType::from_wire(&c.to_wire()).unwrap(), c);
        }
        assert!(ConsensusType::from_wire(&[7]).is_err());
    }

    #[test]
    fn config_update_round_trip() {
        let upd = ConfigUpdate {
            config: sample_config(),
            signatures: vec![ConfigSignature {
                signer: SerializedIdentity::new("Org1MSP", vec![3; 64]),
                signature: vec![4; 64],
            }],
        };
        assert_eq!(ConfigUpdate::from_wire(&upd.to_wire()).unwrap(), upd);
    }
}
