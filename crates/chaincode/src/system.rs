//! Endorsement and validation system chaincodes (ESCC / VSCC, paper
//! Sec. 4.6).
//!
//! * The **ESCC** takes a proposal's simulation results and produces an
//!   endorsement: for the default ESCC, a signature by the peer's local
//!   signing identity over the response payload bound to the endorser
//!   identity.
//! * The **VSCC** takes a transaction and decides whether it is valid:
//!   the default VSCC verifies each endorsement signature and evaluates
//!   the chaincode's endorsement policy over the set of valid endorsers.
//!   Custom VSCCs (e.g. Fabcoin's, paper Sec. 5.1) plug in through the
//!   [`Vscc`] trait.

use fabric_msp::{MspRegistry, SigningIdentity};
use fabric_policy::{PolicyExpr, Signer};
use fabric_primitives::ids::TxValidationCode;
use fabric_primitives::transaction::{Endorsement, ProposalResponsePayload, Transaction};

/// The default ESCC: sign the response payload, binding in the endorser
/// identity (paper: "this endorsement is simply a signature by the peer's
/// local signing identity").
pub fn default_escc(identity: &SigningIdentity, payload: &ProposalResponsePayload) -> Endorsement {
    let endorser = identity.serialized();
    let message = Endorsement::signing_bytes(payload, &endorser);
    Endorsement {
        signature: identity.sign(&message).to_bytes().to_vec(),
        endorser,
    }
}

/// Batched default ESCC: endorses many response payloads in one signing
/// drain, amortizing the modular inversion across the batch
/// ([`fabric_msp::SigningIdentity::sign_batch`]). Endorsements are
/// byte-identical to calling [`default_escc`] per payload — the
/// endorsement pipeline's signer stage relies on this for its equivalence
/// guarantee.
pub fn batch_escc(
    identity: &SigningIdentity,
    payloads: &[&ProposalResponsePayload],
) -> Vec<Endorsement> {
    let endorser = identity.serialized();
    let messages: Vec<Vec<u8>> = payloads
        .iter()
        .map(|payload| Endorsement::signing_bytes(payload, &endorser))
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    identity
        .sign_batch(&refs)
        .into_iter()
        .map(|signature| Endorsement {
            signature: signature.to_bytes().to_vec(),
            endorser: endorser.clone(),
        })
        .collect()
}

/// A pluggable validation system chaincode.
///
/// Implementations must be **deterministic**: every peer evaluates the
/// VSCC on the same transaction and must reach the same verdict.
pub trait Vscc: Send + Sync {
    /// Validates one transaction, returning `Valid` or the failure code.
    ///
    /// `ledger` provides read access to the *current committed state* —
    /// custom VSCCs such as Fabcoin's look up input values there (paper
    /// Sec. 5.1); the default VSCC ignores it.
    fn validate(
        &self,
        tx: &Transaction,
        msp: &MspRegistry,
        channel_orgs: &[String],
        ledger: &fabric_ledger::Ledger,
    ) -> TxValidationCode;
}

/// The default VSCC: endorsement-signature verification plus monotone
/// endorsement-policy evaluation.
pub struct DefaultVscc {
    policy: PolicyExpr,
}

impl DefaultVscc {
    /// Creates a VSCC enforcing the given policy expression.
    pub fn new(policy: PolicyExpr) -> Self {
        DefaultVscc { policy }
    }

    /// Parses the policy from its textual form.
    pub fn from_text(policy: &str) -> Result<Self, fabric_policy::PolicyError> {
        Ok(Self::new(PolicyExpr::parse(policy)?))
    }
}

impl Vscc for DefaultVscc {
    fn validate(
        &self,
        tx: &Transaction,
        msp: &MspRegistry,
        channel_orgs: &[String],
        _ledger: &fabric_ledger::Ledger,
    ) -> TxValidationCode {
        // Collect the endorsers whose signatures verify; endorsements that
        // fail verification invalidate the transaction outright (they
        // indicate tampering, not mere policy shortfall).
        let mut signers = Vec::with_capacity(tx.endorsements.len());
        for endorsement in &tx.endorsements {
            let message = Endorsement::signing_bytes(&tx.response_payload, &endorsement.endorser);
            match msp.validate_and_verify(&endorsement.endorser, &message, &endorsement.signature) {
                Ok(identity) => signers.push(Signer {
                    msp_id: identity.msp_id().to_string(),
                    role: identity.role().as_str().to_string(),
                }),
                Err(_) => return TxValidationCode::BadSignature,
            }
        }
        match self.policy.evaluate(channel_orgs, &signers) {
            Ok(true) => TxValidationCode::Valid,
            Ok(false) => TxValidationCode::EndorsementPolicyFailure,
            Err(_) => TxValidationCode::EndorsementPolicyFailure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_msp::{CertificateAuthority, Msp, Role};
    use fabric_primitives::ids::{ChaincodeId, ChannelId, SerializedIdentity, TxId};
    use fabric_primitives::rwset::TxReadWriteSet;
    use fabric_primitives::transaction::{ChaincodeResponse, ProposalPayload};

    struct Net {
        msp: MspRegistry,
        orgs: Vec<String>,
        peer1: SigningIdentity,
        peer2: SigningIdentity,
    }

    fn ledger() -> fabric_ledger::Ledger {
        fabric_ledger::Ledger::in_memory()
    }

    fn setup() -> Net {
        let ca1 = CertificateAuthority::new("ca.org1", "Org1MSP", b"s1");
        let ca2 = CertificateAuthority::new("ca.org2", "Org2MSP", b"s2");
        let mut msp = MspRegistry::new();
        msp.add(Msp::new("Org1MSP", ca1.root_cert().clone()).unwrap());
        msp.add(Msp::new("Org2MSP", ca2.root_cert().clone()).unwrap());
        Net {
            msp,
            orgs: vec!["Org1MSP".into(), "Org2MSP".into()],
            peer1: fabric_msp::issue_identity(&ca1, "peer0.org1", Role::Peer, b"p1"),
            peer2: fabric_msp::issue_identity(&ca2, "peer0.org2", Role::Peer, b"p2"),
        }
    }

    fn payload() -> ProposalResponsePayload {
        ProposalResponsePayload {
            tx_id: TxId::derive(b"client", &[1; 32]),
            chaincode: ChaincodeId::new("cc", "1"),
            rwset: TxReadWriteSet::default(),
            response: ChaincodeResponse::ok(vec![]),
        }
    }

    fn transaction(endorsements: Vec<Endorsement>) -> Transaction {
        Transaction {
            channel: ChannelId::new("ch"),
            creator: SerializedIdentity::new("Org1MSP", vec![1]),
            nonce: [1; 32],
            proposal_payload: ProposalPayload {
                chaincode: ChaincodeId::new("cc", "1"),
                function: "f".into(),
                args: vec![],
            },
            response_payload: payload(),
            endorsements,
        }
    }

    #[test]
    fn escc_endorsement_verifies() {
        let net = setup();
        let endorsement = default_escc(&net.peer1, &payload());
        let message = Endorsement::signing_bytes(&payload(), &endorsement.endorser);
        net.msp
            .validate_and_verify(&endorsement.endorser, &message, &endorsement.signature)
            .unwrap();
    }

    #[test]
    fn batch_escc_matches_sequential_escc() {
        let net = setup();
        let mut payloads = Vec::new();
        for i in 0..5u8 {
            let mut p = payload();
            p.response.payload = vec![i; 8];
            payloads.push(p);
        }
        let refs: Vec<&ProposalResponsePayload> = payloads.iter().collect();
        let batched = batch_escc(&net.peer1, &refs);
        assert_eq!(batched.len(), payloads.len());
        for (p, e) in payloads.iter().zip(&batched) {
            let sequential = default_escc(&net.peer1, p);
            assert_eq!(e.signature, sequential.signature);
            assert_eq!(e.endorser, sequential.endorser);
        }
    }

    #[test]
    fn single_org_policy_satisfied() {
        let net = setup();
        let vscc = DefaultVscc::from_text("Org1MSP.peer").unwrap();
        let tx = transaction(vec![default_escc(&net.peer1, &payload())]);
        assert_eq!(
            vscc.validate(&tx, &net.msp, &net.orgs, &ledger()),
            TxValidationCode::Valid
        );
    }

    #[test]
    fn and_policy_needs_both_orgs() {
        let net = setup();
        let vscc = DefaultVscc::from_text("AND(Org1MSP, Org2MSP)").unwrap();
        let one = transaction(vec![default_escc(&net.peer1, &payload())]);
        assert_eq!(
            vscc.validate(&one, &net.msp, &net.orgs, &ledger()),
            TxValidationCode::EndorsementPolicyFailure
        );
        let both = transaction(vec![
            default_escc(&net.peer1, &payload()),
            default_escc(&net.peer2, &payload()),
        ]);
        assert_eq!(
            vscc.validate(&both, &net.msp, &net.orgs, &ledger()),
            TxValidationCode::Valid
        );
    }

    #[test]
    fn tampered_endorsement_rejected() {
        let net = setup();
        let vscc = DefaultVscc::from_text("Org1MSP").unwrap();
        let mut endorsement = default_escc(&net.peer1, &payload());
        endorsement.signature[7] ^= 0x01;
        let tx = transaction(vec![endorsement]);
        assert_eq!(
            vscc.validate(&tx, &net.msp, &net.orgs, &ledger()),
            TxValidationCode::BadSignature
        );
    }

    #[test]
    fn endorsement_over_different_payload_rejected() {
        let net = setup();
        let vscc = DefaultVscc::from_text("Org1MSP").unwrap();
        // Endorsement signed over a payload that differs from the one in
        // the transaction (e.g. diverging simulation).
        let mut other = payload();
        other.response.payload = vec![9, 9, 9];
        let endorsement = default_escc(&net.peer1, &other);
        let tx = transaction(vec![endorsement]);
        assert_eq!(
            vscc.validate(&tx, &net.msp, &net.orgs, &ledger()),
            TxValidationCode::BadSignature
        );
    }

    #[test]
    fn no_endorsements_fails_policy() {
        let net = setup();
        let vscc = DefaultVscc::from_text("Org1MSP").unwrap();
        let tx = transaction(vec![]);
        assert_eq!(
            vscc.validate(&tx, &net.msp, &net.orgs, &ledger()),
            TxValidationCode::EndorsementPolicyFailure
        );
    }

    #[test]
    fn meta_policy_any_member() {
        let net = setup();
        let vscc = DefaultVscc::from_text("ANY(members)").unwrap();
        let tx = transaction(vec![default_escc(&net.peer2, &payload())]);
        assert_eq!(
            vscc.validate(&tx, &net.msp, &net.orgs, &ledger()),
            TxValidationCode::Valid
        );
    }
}
