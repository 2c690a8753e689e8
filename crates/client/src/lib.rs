//! # fabric-client
//!
//! The client SDK (paper Sec. 3.2): building signed proposals, collecting
//! endorsements (and checking that all endorsers produced byte-identical
//! results), assembling transactions, and driving the full
//! execute-order-validate round trip against in-process peers and ordering
//! clusters.

use parking_lot::Mutex;

use fabric_gateway::{Admit, Gateway, SimClock};
use fabric_msp::SigningIdentity;
use fabric_ordering::OrderingCluster;
use fabric_peer::Peer;
use fabric_primitives::ids::{ChaincodeId, ChannelId, TxId};
use fabric_primitives::transaction::{
    Envelope, EnvelopeContent, Proposal, ProposalPayload, ProposalResponse, SignedProposal,
    Transaction,
};
use fabric_primitives::wire::Wire;

/// Errors surfaced by client operations.
#[derive(Debug)]
pub enum ClientError {
    /// Not enough endorsements could be gathered; carries per-peer errors.
    EndorsementFailed(Vec<String>),
    /// Endorsers returned diverging simulation results (paper Sec. 3.2:
    /// the standard policy requires identical readset/writeset).
    DivergingResults,
    /// The ordering service rejected the broadcast.
    BroadcastRejected(String),
    /// The gateway kept shedding the submission until the retry budget
    /// ran out.
    GatewayOverloaded {
        /// Attempts made before giving up.
        attempts: u32,
        /// The gateway's last `RetryAfter` hint, in milliseconds.
        last_retry_ms: u64,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::EndorsementFailed(errors) => {
                write!(f, "endorsement failed: {}", errors.join("; "))
            }
            ClientError::DivergingResults => {
                write!(f, "endorsers produced diverging simulation results")
            }
            ClientError::BroadcastRejected(msg) => write!(f, "broadcast rejected: {msg}"),
            ClientError::GatewayOverloaded {
                attempts,
                last_retry_ms,
            } => write!(
                f,
                "gateway overloaded after {attempts} attempts (last retry-after {last_retry_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// How [`Client::submit_via_gateway`] reacts to `RetryAfter` verdicts:
/// exponential backoff on the gateway's hint, plus deterministic jitter
/// so a herd of clients shed at the same instant does not return in
/// lockstep.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts before giving up with [`ClientError::GatewayOverloaded`].
    pub max_attempts: u32,
    /// Jitter span as a percentage of the backed-off delay (`50` adds up
    /// to +50%).
    pub jitter_pct: u64,
    /// Seed for the deterministic jitter (mixed with the transaction id
    /// and attempt number, so two clients or two transactions never share
    /// a jitter sequence).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            jitter_pct: 50,
            seed: 0,
        }
    }
}

/// What [`Client::submit_via_gateway`] accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatewayOutcome {
    /// Admitted into the gateway mempool.
    Admitted {
        /// Submission attempts made (1 = first try).
        attempts: u32,
        /// Total simulated milliseconds spent backing off.
        waited_ms: u64,
    },
    /// The gateway already has (or had) this transaction.
    AlreadySubmitted,
}

/// splitmix64 — the standard 64-bit finalizer; one step is enough to
/// decorrelate `seed ^ tx ^ attempt` into uniform jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A Fabric client bound to one identity and one channel.
pub struct Client {
    identity: SigningIdentity,
    channel: ChannelId,
    nonce_counter: Mutex<u64>,
}

impl Client {
    /// Creates a client.
    pub fn new(identity: SigningIdentity, channel: ChannelId) -> Self {
        Client {
            identity,
            channel,
            nonce_counter: Mutex::new(0),
        }
    }

    /// The client's identity.
    pub fn identity(&self) -> &SigningIdentity {
        &self.identity
    }

    /// Produces the next single-use nonce (paper Sec. 3.2: "a nonce to be
    /// used only once by each client, such as a counter").
    pub fn next_nonce(&self) -> [u8; 32] {
        let mut counter = self.nonce_counter.lock();
        *counter += 1;
        let mut h = fabric_crypto::sha256::Sha256::new();
        h.update(&self.identity.serialized().to_wire());
        h.update(&counter.to_le_bytes());
        h.finalize()
    }

    /// Builds and signs a proposal for `chaincode.function(args)`.
    pub fn create_proposal(
        &self,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> SignedProposal {
        self.create_proposal_with_nonce(chaincode, function, args, self.next_nonce())
    }

    /// Like [`Client::create_proposal`] with an explicit nonce — used when
    /// the arguments must bind to the transaction id (derived from the
    /// nonce), as Fabcoin's signed requests do.
    pub fn create_proposal_with_nonce(
        &self,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        nonce: [u8; 32],
    ) -> SignedProposal {
        let proposal = Proposal {
            channel: self.channel.clone(),
            creator: self.identity.serialized(),
            nonce,
            payload: ProposalPayload {
                chaincode: ChaincodeId::new(chaincode, "1.0"),
                function: function.into(),
                args,
            },
        };
        let signature = self.identity.sign(&proposal.to_wire()).to_bytes().to_vec();
        SignedProposal {
            proposal,
            signature,
        }
    }

    /// Sends the proposal to each endorser and collects their responses.
    ///
    /// Fails if any endorser errors, or if the responses are not
    /// byte-identical (the standard endorsement policy requires identical
    /// rw-sets; under key contention this is where a client gets stuck,
    /// exactly as the paper discusses).
    pub fn collect_endorsements(
        &self,
        proposal: &SignedProposal,
        endorsers: &[&Peer],
    ) -> Result<Vec<ProposalResponse>, ClientError> {
        let mut responses = Vec::with_capacity(endorsers.len());
        let mut errors = Vec::new();
        for peer in endorsers {
            match peer.process_proposal(proposal) {
                Ok(response) => responses.push(response),
                Err(e) => errors.push(e.to_string()),
            }
        }
        if !errors.is_empty() {
            return Err(ClientError::EndorsementFailed(errors));
        }
        let reference = responses[0].payload.to_wire();
        if responses.iter().any(|r| r.payload.to_wire() != reference) {
            return Err(ClientError::DivergingResults);
        }
        Ok(responses)
    }

    /// Assembles a signed transaction envelope from a proposal and its
    /// endorsements.
    pub fn assemble_transaction(
        &self,
        proposal: &SignedProposal,
        responses: &[ProposalResponse],
    ) -> Envelope {
        let tx = Transaction {
            channel: proposal.proposal.channel.clone(),
            creator: proposal.proposal.creator.clone(),
            nonce: proposal.proposal.nonce,
            proposal_payload: proposal.proposal.payload.clone(),
            response_payload: responses[0].payload.clone(),
            endorsements: responses.iter().map(|r| r.endorsement.clone()).collect(),
        };
        let content = EnvelopeContent::Transaction(tx);
        let signature = self
            .identity
            .sign(&Envelope::signing_bytes(&content))
            .to_bytes()
            .to_vec();
        Envelope { content, signature }
    }

    /// Full invocation round trip: endorse at `endorsers`, assemble, and
    /// broadcast to the ordering cluster. Returns the transaction id
    /// (commitment happens when peers receive the cut block).
    pub fn invoke(
        &self,
        endorsers: &[&Peer],
        ordering: &mut OrderingCluster,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> Result<TxId, ClientError> {
        let proposal = self.create_proposal(chaincode, function, args);
        let responses = self.collect_endorsements(&proposal, endorsers)?;
        let tx_id = proposal.proposal.tx_id();
        let envelope = self.assemble_transaction(&proposal, &responses);
        ordering
            .broadcast(envelope)
            .map_err(|e| ClientError::BroadcastRejected(e.to_string()))?;
        Ok(tx_id)
    }

    /// Submits an assembled envelope through a [`Gateway`], honoring
    /// `RetryAfter` verdicts with jittered exponential backoff on the
    /// simulated clock.
    ///
    /// Between attempts the caller-supplied `pump` runs so the system can
    /// make progress (drain the mempool, commit blocks, report credits
    /// back) — without it an overloaded gateway would never clear and
    /// every retry would be futile. The backoff is fully deterministic:
    /// delay = hint × 2^min(attempt−1, 3) plus jitter derived from
    /// `policy.seed`, the transaction id, and the attempt number.
    pub fn submit_via_gateway<F>(
        &self,
        gateway: &mut Gateway,
        clock: &mut SimClock,
        envelope: Envelope,
        fee: u64,
        policy: RetryPolicy,
        mut pump: F,
    ) -> Result<GatewayOutcome, ClientError>
    where
        F: FnMut(&mut Gateway, u64),
    {
        let tx_id = envelope.tx_id();
        let tx_word = u64::from_le_bytes(tx_id.0[..8].try_into().expect("32-byte tx id"));
        let mut waited_ms = 0u64;
        let mut last_retry_ms = 0u64;
        for attempt in 1..=policy.max_attempts.max(1) {
            match gateway.submit(envelope.clone(), fee, clock.now_ms()) {
                Admit::Admitted => {
                    return Ok(GatewayOutcome::Admitted {
                        attempts: attempt,
                        waited_ms,
                    });
                }
                Admit::Duplicate => return Ok(GatewayOutcome::AlreadySubmitted),
                Admit::RetryAfter { after_ms, .. } => {
                    last_retry_ms = after_ms;
                    if attempt == policy.max_attempts.max(1) {
                        // No attempt left to back off for.
                        break;
                    }
                    let backoff = after_ms << (attempt - 1).min(3);
                    let span = backoff * policy.jitter_pct / 100;
                    let jitter = if span == 0 {
                        0
                    } else {
                        splitmix64(policy.seed ^ tx_word ^ attempt as u64) % (span + 1)
                    };
                    let delay = backoff + jitter;
                    clock.advance(delay);
                    waited_ms += delay;
                    pump(gateway, clock.now_ms());
                }
            }
        }
        Err(ClientError::GatewayOverloaded {
            attempts: policy.max_attempts.max(1),
            last_retry_ms,
        })
    }

    /// Read-only query: simulate at one peer and return the chaincode's
    /// response payload without submitting anything for ordering.
    pub fn query(
        &self,
        peer: &Peer,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> Result<Vec<u8>, ClientError> {
        let proposal = self.create_proposal(chaincode, function, args);
        let responses = self.collect_endorsements(&proposal, &[peer])?;
        Ok(responses[0].payload.response.payload.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonces_are_unique() {
        let ca = fabric_msp::CertificateAuthority::new("ca", "OrgMSP", b"s");
        let identity = fabric_msp::issue_identity(&ca, "c", fabric_msp::Role::Client, b"k");
        let client = Client::new(identity, ChannelId::new("ch"));
        let n1 = client.next_nonce();
        let n2 = client.next_nonce();
        assert_ne!(n1, n2);
    }

    #[test]
    fn proposal_signature_valid() {
        let ca = fabric_msp::CertificateAuthority::new("ca", "OrgMSP", b"s");
        let identity = fabric_msp::issue_identity(&ca, "c", fabric_msp::Role::Client, b"k");
        let client = Client::new(identity.clone(), ChannelId::new("ch"));
        let sp = client.create_proposal("cc", "f", vec![b"a".to_vec()]);
        let mut msp = fabric_msp::MspRegistry::new();
        msp.add(fabric_msp::Msp::new("OrgMSP", ca.root_cert().clone()).unwrap());
        msp.validate_and_verify(&sp.proposal.creator, &sp.proposal.to_wire(), &sp.signature)
            .unwrap();
    }
}
