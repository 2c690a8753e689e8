//! The endorser: the execution phase of execute-order-validate (paper
//! Sec. 3.2).
//!
//! An endorsing peer receives a signed proposal, authenticates the client,
//! *simulates* the chaincode against a stable snapshot of its local state
//! (no coordination with other peers, no persistence of results), and
//! signs the resulting read-write set + response — the endorsement. Two
//! endorsers simulating against different states may produce different
//! rw-sets; the client detects that when collecting endorsements, and the
//! version checks at validation time catch whatever slips through.

use std::sync::Arc;

use parking_lot::RwLock;

use fabric_chaincode::{default_escc, ChaincodeRuntime, Invocation};
use fabric_ledger::Ledger;
use fabric_msp::SigningIdentity;
use fabric_primitives::transaction::{ProposalResponse, ProposalResponsePayload, SignedProposal};
use fabric_primitives::wire::Wire;

use crate::view::ChannelView;
use crate::PeerError;

/// The endorsement component of a peer.
pub struct Endorser {
    identity: SigningIdentity,
    runtime: Arc<ChaincodeRuntime>,
    view: Arc<RwLock<ChannelView>>,
}

impl Endorser {
    /// Creates an endorser signing with `identity`.
    pub fn new(
        identity: SigningIdentity,
        runtime: Arc<ChaincodeRuntime>,
        view: Arc<RwLock<ChannelView>>,
    ) -> Self {
        Endorser {
            identity,
            runtime,
            view,
        }
    }

    /// The signing identity endorsements are issued under (the pipeline's
    /// signer stage batches over it).
    pub(crate) fn identity(&self) -> &SigningIdentity {
        &self.identity
    }

    /// The execute phase without the signature: authenticate the client,
    /// simulate the chaincode against a snapshot, and assemble the
    /// response payload. Results are NOT persisted (the ledger only
    /// changes in the validation phase).
    ///
    /// This is the parallelizable part of endorsement — the
    /// [`crate::EndorsePipeline`] runs it on its simulation workers and
    /// defers the ESCC signature to a batching signer stage.
    pub fn simulate(
        &self,
        ledger: &Ledger,
        signed: &SignedProposal,
    ) -> Result<ProposalResponsePayload, PeerError> {
        let proposal = &signed.proposal;
        // Authenticate the client and its signature over the proposal.
        let validated = {
            let view = self.view.read();
            view.msp
                .validate_and_verify(&proposal.creator, &proposal.to_wire(), &signed.signature)
                .map_err(PeerError::Identity)?
        };
        let tx_id = proposal.tx_id();
        let invocation = Invocation {
            function: proposal.payload.function.clone(),
            args: proposal.payload.args.clone(),
            creator: proposal.creator.clone(),
            creator_msp: validated.msp_id().to_string(),
            creator_role: validated.role().as_str().to_string(),
            tx_id,
            channel: proposal.channel.clone(),
        };
        let result = self
            .runtime
            .execute(ledger, &proposal.payload.chaincode.name, invocation)
            .map_err(PeerError::Chaincode)?;
        if !result.response.is_ok() {
            return Err(PeerError::ChaincodeRejected(result.response.message));
        }
        Ok(ProposalResponsePayload {
            tx_id,
            chaincode: proposal.payload.chaincode.clone(),
            rwset: result.rwset,
            response: result.response,
        })
    }

    /// Processes a signed proposal: authenticate, simulate, endorse.
    pub fn process_proposal(
        &self,
        ledger: &Ledger,
        signed: &SignedProposal,
    ) -> Result<ProposalResponse, PeerError> {
        let payload = self.simulate(ledger, signed)?;
        // Default ESCC: sign the payload bound to our identity.
        let endorsement = default_escc(&self.identity, &payload);
        Ok(ProposalResponse {
            payload,
            endorsement,
        })
    }
}
