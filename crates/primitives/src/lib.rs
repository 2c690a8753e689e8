//! # fabric-primitives
//!
//! Core data types of the `fabric-rs` workspace: identifiers, read-write
//! sets, proposals, endorsements, transactions, blocks, channel
//! configuration, and the deterministic binary wire codec they all share.
//!
//! These types mirror the message structures of the paper's transaction flow
//! (Sec. 3.2–3.4) and configuration system (Sec. 4.6). Those modules are
//! pure data: protocol behaviour lives in the `msp`, `ordering`, `peer`,
//! and `gossip` crates. The one exception is [`flow`], the std-only
//! flow-control kit (DRR scheduler, worker pool, token bucket, dedup
//! window) those crates all build their queues and ingress guards from —
//! it lives here because every one of them already depends on this crate.

pub mod block;
pub mod config;
pub mod flow;
pub mod ids;
pub mod rwset;
pub mod transaction;
pub mod wire;

pub use block::{Block, BlockHeader, BlockMetadata, BlockSignature};
pub use config::{
    BatchConfig, ChannelConfig, ConfigSignature, ConfigUpdate, ConsensusType, OrdererConfig,
    OrgConfig,
};
pub use ids::{ChaincodeId, ChannelId, SerializedIdentity, TxId, TxValidationCode, Version};
pub use rwset::{KeyRead, KeyWrite, NsReadWriteSet, RangeQueryInfo, TxReadWriteSet};
pub use transaction::{
    ChaincodeResponse, Endorsement, Envelope, EnvelopeContent, Proposal, ProposalPayload,
    ProposalResponse, ProposalResponsePayload, SignedProposal, Transaction,
};
pub use wire::{Decoder, Encoder, Wire, WireError};
