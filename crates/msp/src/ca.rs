//! A certificate authority, standing in for Fabric-CA (paper Sec. 4.1).
//!
//! Each organization runs one CA. The CA holds a signing key, publishes a
//! self-signed root certificate, and issues end-entity certificates for
//! clients, peers, orderers, and admins of its organization. Serial numbers
//! are unique per CA and drive the revocation list maintained by
//! [`crate::msp::Msp`].

use parking_lot::Mutex;

use fabric_crypto::{SigningKey, VerifyingKey};

use crate::cert::{Certificate, Role};

/// A certificate authority for one organization.
pub struct CertificateAuthority {
    name: String,
    msp_id: String,
    key: SigningKey,
    root: Certificate,
    next_serial: Mutex<u64>,
}

impl CertificateAuthority {
    /// Creates a CA with a key derived deterministically from `seed`
    /// (deterministic setups make whole-network tests reproducible).
    pub fn new(name: impl Into<String>, msp_id: impl Into<String>, seed: &[u8]) -> Self {
        let name = name.into();
        let msp_id = msp_id.into();
        let key = SigningKey::from_seed(seed);
        let root = Certificate {
            subject: name.clone(),
            msp_id: msp_id.clone(),
            role: Role::Authority,
            public_key: key.verifying_key().to_sec1().to_vec(),
            issuer: name.clone(),
            serial: 0,
            signature: vec![],
        }
        .sign_with(&key);
        CertificateAuthority {
            name,
            msp_id,
            key,
            root,
            next_serial: Mutex::new(1),
        }
    }

    /// The CA's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The organization this CA issues for.
    pub fn msp_id(&self) -> &str {
        &self.msp_id
    }

    /// The self-signed root certificate distributed in the channel config.
    pub fn root_cert(&self) -> &Certificate {
        &self.root
    }

    /// The CA's public key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        self.key.verifying_key()
    }

    /// Issues a certificate for `public_key` with the given subject and
    /// role, consuming the next serial number.
    pub fn issue(
        &self,
        subject: impl Into<String>,
        role: Role,
        public_key: &VerifyingKey,
    ) -> Certificate {
        let serial = {
            let mut s = self.next_serial.lock();
            let v = *s;
            *s += 1;
            v
        };
        Certificate {
            subject: subject.into(),
            msp_id: self.msp_id.clone(),
            role,
            public_key: public_key.to_sec1().to_vec(),
            issuer: self.name.clone(),
            serial,
            signature: vec![],
        }
        .sign_with(&self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_self_signed() {
        let ca = CertificateAuthority::new("ca.org1", "Org1MSP", b"seed1");
        ca.root_cert().verify_self_signed().unwrap();
        assert_eq!(ca.msp_id(), "Org1MSP");
        assert_eq!(ca.name(), "ca.org1");
    }

    #[test]
    fn issued_certs_chain_to_root() {
        let ca = CertificateAuthority::new("ca.org1", "Org1MSP", b"seed1");
        let subject = SigningKey::from_seed(b"peer-key");
        let cert = ca.issue("peer0.org1", Role::Peer, subject.verifying_key());
        cert.verify_issued_by(ca.verifying_key()).unwrap();
        assert_eq!(cert.msp_id, "Org1MSP");
        assert_eq!(cert.role, Role::Peer);
    }

    #[test]
    fn serials_increase() {
        let ca = CertificateAuthority::new("ca.org1", "Org1MSP", b"seed1");
        let k = SigningKey::from_seed(b"k");
        let c1 = ca.issue("a", Role::Client, k.verifying_key());
        let c2 = ca.issue("b", Role::Client, k.verifying_key());
        assert!(c2.serial > c1.serial);
        assert_ne!(c1.serial, 0, "serial 0 is reserved for the root");
    }

    #[test]
    fn deterministic_seeding() {
        let ca1 = CertificateAuthority::new("ca", "M", b"same-seed");
        let ca2 = CertificateAuthority::new("ca", "M", b"same-seed");
        assert_eq!(ca1.root_cert(), ca2.root_cert());
    }

    #[test]
    fn cross_ca_rejection() {
        let ca1 = CertificateAuthority::new("ca.org1", "Org1MSP", b"s1");
        let ca2 = CertificateAuthority::new("ca.org2", "Org2MSP", b"s2");
        let k = SigningKey::from_seed(b"k");
        let cert = ca1.issue("x", Role::Client, k.verifying_key());
        assert!(cert.verify_issued_by(ca2.verifying_key()).is_err());
    }
}
