//! Proposals, endorsements, transactions, and envelopes — the messages of
//! the execute-order-validate flow (paper Sec. 3.2–3.4).
//!
//! The lifecycle is:
//!
//! 1. A client builds a [`Proposal`] (chaincode operation + nonce) and signs
//!    it, producing a [`SignedProposal`] sent to endorsing peers.
//! 2. Each endorser simulates the proposal and returns a
//!    [`ProposalResponse`]: the simulation's [`ProposalResponsePayload`]
//!    (tx id, rw-set, chaincode response) plus its [`Endorsement`]
//!    signature over that payload.
//! 3. The client checks that all payloads are byte-identical, assembles a
//!    [`Transaction`], wraps it in a signed [`Envelope`], and broadcasts it
//!    to the ordering service.

use crate::config::ConfigUpdate;
use crate::ids::{ChaincodeId, ChannelId, SerializedIdentity, TxId};
use crate::rwset::TxReadWriteSet;
use crate::wire::{Decoder, Encoder, Wire, WireError};

/// The chaincode invocation carried by a proposal: which chaincode, which
/// function, and its arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProposalPayload {
    /// Target chaincode.
    pub chaincode: ChaincodeId,
    /// Function name within the chaincode.
    pub function: String,
    /// Raw arguments, interpreted by the chaincode.
    pub args: Vec<Vec<u8>>,
}

impl Wire for ProposalPayload {
    fn encode(&self, enc: &mut Encoder) {
        self.chaincode.encode(enc);
        enc.put_string(&self.function);
        enc.put_seq(&self.args, |e, a| e.put_bytes(a));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ProposalPayload {
            chaincode: ChaincodeId::decode(dec)?,
            function: dec.get_string()?,
            args: dec.get_seq(|d| d.get_bytes())?,
        })
    }
}

/// A transaction proposal: identity of the submitting client, the payload,
/// a single-use nonce, and the channel (paper Sec. 3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// The channel this proposal targets.
    pub channel: ChannelId,
    /// The submitting client's identity.
    pub creator: SerializedIdentity,
    /// Single-use nonce (counter or random value).
    pub nonce: [u8; 32],
    /// The chaincode operation to simulate.
    pub payload: ProposalPayload,
}

impl Proposal {
    /// Derives the transaction identifier from creator and nonce.
    pub fn tx_id(&self) -> TxId {
        TxId::derive(&self.creator.to_wire(), &self.nonce)
    }
}

impl Wire for Proposal {
    fn encode(&self, enc: &mut Encoder) {
        self.channel.encode(enc);
        self.creator.encode(enc);
        enc.put_raw(&self.nonce);
        self.payload.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Proposal {
            channel: ChannelId::decode(dec)?,
            creator: SerializedIdentity::decode(dec)?,
            nonce: dec.get_array32()?,
            payload: ProposalPayload::decode(dec)?,
        })
    }
}

/// A proposal together with the client's signature over its encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedProposal {
    /// The proposal.
    pub proposal: Proposal,
    /// Client signature over `proposal.to_wire()`.
    pub signature: Vec<u8>,
}

impl Wire for SignedProposal {
    fn encode(&self, enc: &mut Encoder) {
        self.proposal.encode(enc);
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SignedProposal {
            proposal: Proposal::decode(dec)?,
            signature: dec.get_bytes()?,
        })
    }
}

/// The result a chaincode returns from simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaincodeResponse {
    /// Status code; `200` means success (HTTP-inspired, as in Fabric).
    pub status: u32,
    /// Human-readable message (used for errors).
    pub message: String,
    /// Application-defined response payload.
    pub payload: Vec<u8>,
}

impl ChaincodeResponse {
    /// Status code signalling success.
    pub const OK: u32 = 200;
    /// Status code signalling a chaincode-level error.
    pub const ERROR: u32 = 500;

    /// Creates a success response with a payload.
    pub fn ok(payload: Vec<u8>) -> Self {
        ChaincodeResponse {
            status: Self::OK,
            message: String::new(),
            payload,
        }
    }

    /// Creates an error response with a message.
    pub fn error(message: impl Into<String>) -> Self {
        ChaincodeResponse {
            status: Self::ERROR,
            message: message.into(),
            payload: Vec::new(),
        }
    }

    /// Returns `true` if the status is `OK`.
    pub fn is_ok(&self) -> bool {
        self.status == Self::OK
    }
}

impl Wire for ChaincodeResponse {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.status);
        enc.put_string(&self.message);
        enc.put_bytes(&self.payload);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ChaincodeResponse {
            status: dec.get_u32()?,
            message: dec.get_string()?,
            payload: dec.get_bytes()?,
        })
    }
}

/// What an endorser signs: the simulation result that will be ordered and
/// validated. All endorsers of a transaction must produce byte-identical
/// payloads (paper Sec. 3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProposalResponsePayload {
    /// The transaction id this simulation belongs to.
    pub tx_id: TxId,
    /// The chaincode invoked.
    pub chaincode: ChaincodeId,
    /// The read-write set produced by simulation.
    pub rwset: TxReadWriteSet,
    /// The chaincode's response value.
    pub response: ChaincodeResponse,
}

impl Wire for ProposalResponsePayload {
    fn encode(&self, enc: &mut Encoder) {
        self.tx_id.encode(enc);
        self.chaincode.encode(enc);
        self.rwset.encode(enc);
        self.response.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ProposalResponsePayload {
            tx_id: TxId::decode(dec)?,
            chaincode: ChaincodeId::decode(dec)?,
            rwset: TxReadWriteSet::decode(dec)?,
            response: ChaincodeResponse::decode(dec)?,
        })
    }
}

/// An endorser's signature over a [`ProposalResponsePayload`].
///
/// The signed message is `payload.to_wire() || endorser.to_wire()`, binding
/// the endorsement to the endorser's identity (as Fabric's ESCC does).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing peer's identity.
    pub endorser: SerializedIdentity,
    /// Signature bytes.
    pub signature: Vec<u8>,
}

impl Endorsement {
    /// Builds the exact byte string an endorser signs.
    pub fn signing_bytes(
        payload: &ProposalResponsePayload,
        endorser: &SerializedIdentity,
    ) -> Vec<u8> {
        let mut bytes = payload.to_wire();
        bytes.extend_from_slice(&endorser.to_wire());
        bytes
    }
}

impl Wire for Endorsement {
    fn encode(&self, enc: &mut Encoder) {
        self.endorser.encode(enc);
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Endorsement {
            endorser: SerializedIdentity::decode(dec)?,
            signature: dec.get_bytes()?,
        })
    }
}

/// An endorser's reply to a signed proposal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProposalResponse {
    /// The simulation result payload.
    pub payload: ProposalResponsePayload,
    /// The endorser's signature over it.
    pub endorsement: Endorsement,
}

impl Wire for ProposalResponse {
    fn encode(&self, enc: &mut Encoder) {
        self.payload.encode(enc);
        self.endorsement.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ProposalResponse {
            payload: ProposalResponsePayload::decode(dec)?,
            endorsement: Endorsement::decode(dec)?,
        })
    }
}

/// An endorsed transaction ready for ordering: the original operation, the
/// agreed simulation result, and the collected endorsements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// The channel this transaction belongs to.
    pub channel: ChannelId,
    /// The submitting client.
    pub creator: SerializedIdentity,
    /// The proposal nonce (tx id is derived from creator + nonce).
    pub nonce: [u8; 32],
    /// The chaincode operation that was executed.
    pub proposal_payload: ProposalPayload,
    /// The endorsed simulation result (identical across endorsers).
    pub response_payload: ProposalResponsePayload,
    /// Endorsements satisfying the chaincode's endorsement policy.
    pub endorsements: Vec<Endorsement>,
}

impl Transaction {
    /// The transaction id (derived, must match `response_payload.tx_id`).
    pub fn tx_id(&self) -> TxId {
        TxId::derive(&self.creator.to_wire(), &self.nonce)
    }
}

impl Wire for Transaction {
    fn encode(&self, enc: &mut Encoder) {
        self.channel.encode(enc);
        self.creator.encode(enc);
        enc.put_raw(&self.nonce);
        self.proposal_payload.encode(enc);
        self.response_payload.encode(enc);
        enc.put_seq(&self.endorsements, |e, x| x.encode(e));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Transaction {
            channel: ChannelId::decode(dec)?,
            creator: SerializedIdentity::decode(dec)?,
            nonce: dec.get_array32()?,
            proposal_payload: ProposalPayload::decode(dec)?,
            response_payload: ProposalResponsePayload::decode(dec)?,
            endorsements: dec.get_seq(Endorsement::decode)?,
        })
    }
}

/// The content of an envelope submitted to the ordering service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeContent {
    /// A normal endorsed application transaction.
    Transaction(Transaction),
    /// A channel configuration update (paper Sec. 4.6).
    Config(ConfigUpdate),
}

/// The unit submitted to `broadcast` and carried in blocks: content plus the
/// submitter's signature over the encoded content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Transaction or configuration update.
    pub content: EnvelopeContent,
    /// Submitter signature over `content` encoding.
    pub signature: Vec<u8>,
}

impl Envelope {
    /// The channel this envelope targets.
    pub fn channel(&self) -> &ChannelId {
        match &self.content {
            EnvelopeContent::Transaction(tx) => &tx.channel,
            EnvelopeContent::Config(cfg) => &cfg.config.channel,
        }
    }

    /// The transaction id, if this is an application transaction. Config
    /// envelopes derive an id from their content hash.
    pub fn tx_id(&self) -> TxId {
        match &self.content {
            EnvelopeContent::Transaction(tx) => tx.tx_id(),
            EnvelopeContent::Config(cfg) => TxId(fabric_crypto::digest(&cfg.config.to_wire())),
        }
    }

    /// Returns `true` for configuration envelopes.
    pub fn is_config(&self) -> bool {
        matches!(self.content, EnvelopeContent::Config(_))
    }

    /// Builds the byte string the submitter signs.
    pub fn signing_bytes(content: &EnvelopeContent) -> Vec<u8> {
        let mut enc = Encoder::new();
        match content {
            EnvelopeContent::Transaction(tx) => {
                enc.put_u8(0);
                tx.encode(&mut enc);
            }
            EnvelopeContent::Config(cfg) => {
                enc.put_u8(1);
                cfg.encode(&mut enc);
            }
        }
        enc.finish()
    }
}

impl Wire for Envelope {
    fn encode(&self, enc: &mut Encoder) {
        match &self.content {
            EnvelopeContent::Transaction(tx) => {
                enc.put_u8(0);
                tx.encode(enc);
            }
            EnvelopeContent::Config(cfg) => {
                enc.put_u8(1);
                cfg.encode(enc);
            }
        }
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let content = match dec.get_u8()? {
            0 => EnvelopeContent::Transaction(Transaction::decode(dec)?),
            1 => EnvelopeContent::Config(ConfigUpdate::decode(dec)?),
            t => return Err(WireError::BadTag(t)),
        };
        Ok(Envelope {
            content,
            signature: dec.get_bytes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::{KeyWrite, NsReadWriteSet};

    fn sample_payload() -> ProposalPayload {
        ProposalPayload {
            chaincode: ChaincodeId::new("fabcoin", "1.0"),
            function: "spend".into(),
            args: vec![b"in".to_vec(), b"out".to_vec()],
        }
    }

    fn sample_proposal() -> Proposal {
        Proposal {
            channel: ChannelId::new("ch1"),
            creator: SerializedIdentity::new("Org1MSP", vec![0xaa; 64]),
            nonce: [3u8; 32],
            payload: sample_payload(),
        }
    }

    fn sample_response_payload() -> ProposalResponsePayload {
        ProposalResponsePayload {
            tx_id: sample_proposal().tx_id(),
            chaincode: ChaincodeId::new("fabcoin", "1.0"),
            rwset: TxReadWriteSet::single(NsReadWriteSet {
                namespace: "fabcoin".into(),
                reads: vec![],
                range_queries: vec![],
                writes: vec![KeyWrite {
                    key: "k".into(),
                    value: Some(vec![1]),
                }],
            }),
            response: ChaincodeResponse::ok(vec![9]),
        }
    }

    fn sample_transaction() -> Transaction {
        let p = sample_proposal();
        Transaction {
            channel: p.channel.clone(),
            creator: p.creator.clone(),
            nonce: p.nonce,
            proposal_payload: p.payload,
            response_payload: sample_response_payload(),
            endorsements: vec![Endorsement {
                endorser: SerializedIdentity::new("Org2MSP", vec![0xbb; 64]),
                signature: vec![0xcc; 64],
            }],
        }
    }

    #[test]
    fn proposal_round_trip() {
        let p = sample_proposal();
        assert_eq!(Proposal::from_wire(&p.to_wire()).unwrap(), p);
    }

    #[test]
    fn proposal_txid_stable() {
        assert_eq!(sample_proposal().tx_id(), sample_proposal().tx_id());
        let mut p = sample_proposal();
        p.nonce = [4u8; 32];
        assert_ne!(p.tx_id(), sample_proposal().tx_id());
    }

    #[test]
    fn signed_proposal_round_trip() {
        let sp = SignedProposal {
            proposal: sample_proposal(),
            signature: vec![1; 64],
        };
        assert_eq!(SignedProposal::from_wire(&sp.to_wire()).unwrap(), sp);
    }

    #[test]
    fn chaincode_response_helpers() {
        assert!(ChaincodeResponse::ok(vec![]).is_ok());
        assert!(!ChaincodeResponse::error("boom").is_ok());
        assert_eq!(ChaincodeResponse::error("boom").message, "boom");
    }

    #[test]
    fn response_payload_round_trip() {
        let rp = sample_response_payload();
        assert_eq!(
            ProposalResponsePayload::from_wire(&rp.to_wire()).unwrap(),
            rp
        );
    }

    #[test]
    fn endorsement_signing_bytes_bind_identity() {
        let payload = sample_response_payload();
        let e1 = SerializedIdentity::new("Org1MSP", vec![1]);
        let e2 = SerializedIdentity::new("Org2MSP", vec![1]);
        assert_ne!(
            Endorsement::signing_bytes(&payload, &e1),
            Endorsement::signing_bytes(&payload, &e2)
        );
    }

    #[test]
    fn transaction_round_trip() {
        let tx = sample_transaction();
        assert_eq!(Transaction::from_wire(&tx.to_wire()).unwrap(), tx);
    }

    #[test]
    fn transaction_txid_matches_payload() {
        let tx = sample_transaction();
        assert_eq!(tx.tx_id(), tx.response_payload.tx_id);
    }

    #[test]
    fn envelope_round_trip() {
        let env = Envelope {
            content: EnvelopeContent::Transaction(sample_transaction()),
            signature: vec![5; 64],
        };
        assert_eq!(Envelope::from_wire(&env.to_wire()).unwrap(), env);
        assert!(!env.is_config());
        assert_eq!(env.channel().as_str(), "ch1");
    }

    #[test]
    fn envelope_bad_tag_rejected() {
        assert!(matches!(
            Envelope::from_wire(&[9, 0, 0, 0, 0]),
            Err(WireError::BadTag(9))
        ));
    }

    #[test]
    fn envelope_truncation_rejected() {
        let env = Envelope {
            content: EnvelopeContent::Transaction(sample_transaction()),
            signature: vec![5; 64],
        };
        let bytes = env.to_wire();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Envelope::from_wire(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
