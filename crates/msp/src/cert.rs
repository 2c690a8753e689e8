//! Compact certificates: the workspace's X.509 substitute.
//!
//! Fabric identities are X.509 certificates issued by per-organization CAs.
//! This module defines a minimal certificate with the fields the system
//! actually consumes — subject, organization (MSP id), role, public key,
//! issuer, serial, validity — signed by the issuing CA with the same ECDSA
//! scheme used everywhere else. Certificates chain at most once: a
//! self-signed root CA certificate signs end-entity certificates.

use fabric_crypto::{SigningKey, VerifyingKey};
use fabric_primitives::wire::{Decoder, Encoder, Wire, WireError};

/// The role a certificate grants its holder within its organization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// An application client that may submit proposals and transactions.
    Client,
    /// A peer that endorses and validates transactions.
    Peer,
    /// An ordering-service node.
    Orderer,
    /// An organization administrator (may sign config updates).
    Admin,
    /// A certificate authority (root certificates only).
    Authority,
}

impl Role {
    /// Stable string name (used by the policy language, e.g.
    /// `Org1MSP.admin`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::Peer => "peer",
            Role::Orderer => "orderer",
            Role::Admin => "admin",
            Role::Authority => "authority",
        }
    }
}

impl Wire for Role {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            Role::Client => 0,
            Role::Peer => 1,
            Role::Orderer => 2,
            Role::Admin => 3,
            Role::Authority => 4,
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.get_u8()? {
            0 => Role::Client,
            1 => Role::Peer,
            2 => Role::Orderer,
            3 => Role::Admin,
            4 => Role::Authority,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// A certificate binding a subject name, organization, role, and public key,
/// signed by the issuing CA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Subject common name (e.g. `peer0.org1.example.com`).
    pub subject: String,
    /// The MSP (organization) this identity belongs to.
    pub msp_id: String,
    /// Granted role.
    pub role: Role,
    /// SEC1-encoded P-256 public key (65 bytes uncompressed).
    pub public_key: Vec<u8>,
    /// Issuing CA's name.
    pub issuer: String,
    /// Serial number, unique per issuer (used for revocation).
    pub serial: u64,
    /// CA signature over the to-be-signed encoding.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Builds the exact bytes the CA signs (everything except the
    /// signature itself).
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_string(&self.subject);
        enc.put_string(&self.msp_id);
        self.role.encode(&mut enc);
        enc.put_bytes(&self.public_key);
        enc.put_string(&self.issuer);
        enc.put_u64(self.serial);
        enc.finish()
    }

    /// Parses the embedded public key.
    pub fn verifying_key(&self) -> Result<VerifyingKey, CertError> {
        VerifyingKey::from_sec1(&self.public_key).map_err(|_| CertError::BadPublicKey)
    }

    /// Verifies this certificate's signature under the issuer key.
    pub fn verify_issued_by(&self, issuer_key: &VerifyingKey) -> Result<(), CertError> {
        let sig = fabric_crypto::Signature::from_bytes(&self.signature)
            .map_err(|_| CertError::BadSignature)?;
        issuer_key
            .verify(&self.tbs_bytes(), &sig)
            .map_err(|_| CertError::BadSignature)
    }

    /// Verifies a self-signed (root) certificate.
    pub fn verify_self_signed(&self) -> Result<(), CertError> {
        if self.role != Role::Authority {
            return Err(CertError::NotAnAuthority);
        }
        let key = self.verifying_key()?;
        self.verify_issued_by(&key)
    }

    /// Signs a to-be-signed certificate with `key`, filling in `signature`.
    pub fn sign_with(mut self, key: &SigningKey) -> Certificate {
        self.signature = key.sign(&self.tbs_bytes()).to_bytes().to_vec();
        self
    }
}

impl Wire for Certificate {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(&self.subject);
        enc.put_string(&self.msp_id);
        self.role.encode(enc);
        enc.put_bytes(&self.public_key);
        enc.put_string(&self.issuer);
        enc.put_u64(self.serial);
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Certificate {
            subject: dec.get_string()?,
            msp_id: dec.get_string()?,
            role: Role::decode(dec)?,
            public_key: dec.get_bytes()?,
            issuer: dec.get_string()?,
            serial: dec.get_u64()?,
            signature: dec.get_bytes()?,
        })
    }
}

/// Certificate validation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertError {
    /// The embedded public key did not parse.
    BadPublicKey,
    /// The issuer signature was malformed or did not verify.
    BadSignature,
    /// A root operation was attempted on a non-authority certificate.
    NotAnAuthority,
    /// The certificate bytes did not decode.
    Malformed,
    /// The certificate's serial is on the revocation list.
    Revoked,
    /// The certificate's MSP is not known to the verifier.
    UnknownMsp,
    /// The certificate's org does not match the claimed MSP id.
    MspMismatch,
}

impl core::fmt::Display for CertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CertError::BadPublicKey => write!(f, "embedded public key invalid"),
            CertError::BadSignature => write!(f, "issuer signature invalid"),
            CertError::NotAnAuthority => write!(f, "certificate is not a CA root"),
            CertError::Malformed => write!(f, "certificate bytes malformed"),
            CertError::Revoked => write!(f, "certificate revoked"),
            CertError::UnknownMsp => write!(f, "unknown MSP"),
            CertError::MspMismatch => write!(f, "certificate org does not match MSP id"),
        }
    }
}

impl std::error::Error for CertError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca_key() -> SigningKey {
        SigningKey::from_seed(b"test-ca")
    }

    fn subject_key() -> SigningKey {
        SigningKey::from_seed(b"test-subject")
    }

    fn make_cert() -> Certificate {
        Certificate {
            subject: "peer0.org1".into(),
            msp_id: "Org1MSP".into(),
            role: Role::Peer,
            public_key: subject_key().verifying_key().to_sec1().to_vec(),
            issuer: "ca.org1".into(),
            serial: 7,
            signature: vec![],
        }
        .sign_with(&ca_key())
    }

    #[test]
    fn round_trip() {
        let cert = make_cert();
        assert_eq!(Certificate::from_wire(&cert.to_wire()).unwrap(), cert);
    }

    #[test]
    fn verifies_under_issuer() {
        let cert = make_cert();
        cert.verify_issued_by(ca_key().verifying_key()).unwrap();
    }

    #[test]
    fn rejects_wrong_issuer() {
        let cert = make_cert();
        let other = SigningKey::from_seed(b"other-ca");
        assert_eq!(
            cert.verify_issued_by(other.verifying_key()),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn tamper_detected() {
        let mut cert = make_cert();
        cert.subject = "peer0.evil".into();
        assert!(cert.verify_issued_by(ca_key().verifying_key()).is_err());

        let mut cert2 = make_cert();
        cert2.role = Role::Admin;
        assert!(cert2.verify_issued_by(ca_key().verifying_key()).is_err());

        let mut cert3 = make_cert();
        cert3.serial = 8;
        assert!(cert3.verify_issued_by(ca_key().verifying_key()).is_err());
    }

    #[test]
    fn self_signed_root() {
        let key = ca_key();
        let root = Certificate {
            subject: "ca.org1".into(),
            msp_id: "Org1MSP".into(),
            role: Role::Authority,
            public_key: key.verifying_key().to_sec1().to_vec(),
            issuer: "ca.org1".into(),
            serial: 0,
            signature: vec![],
        }
        .sign_with(&key);
        root.verify_self_signed().unwrap();
    }

    #[test]
    fn non_authority_rejected_as_root() {
        let cert = make_cert();
        assert_eq!(cert.verify_self_signed(), Err(CertError::NotAnAuthority));
    }

    #[test]
    fn role_round_trip() {
        for r in [
            Role::Client,
            Role::Peer,
            Role::Orderer,
            Role::Admin,
            Role::Authority,
        ] {
            assert_eq!(Role::from_wire(&r.to_wire()).unwrap(), r);
        }
        assert!(Role::from_wire(&[9]).is_err());
    }
}
