//! The membership service provider and its federation (paper Sec. 4.1).
//!
//! An [`Msp`] validates identities of *one* organization: it holds the
//! org's root certificate and a revocation list, and checks that presented
//! certificates chain to the root. An [`MspRegistry`] federates the MSPs of
//! all organizations on a channel ("each organization issues identities to
//! its own members and every peer recognizes members of all organizations").

use std::collections::{BTreeMap, HashSet};

use parking_lot::RwLock;

use fabric_crypto::VerifyingKey;
use fabric_primitives::config::ChannelConfig;
use fabric_primitives::ids::SerializedIdentity;
use fabric_primitives::wire::Wire;

use crate::cert::{CertError, Certificate, Role};
use crate::identity::ValidatedIdentity;

/// Membership validation for a single organization.
pub struct Msp {
    msp_id: String,
    root: Certificate,
    root_key: VerifyingKey,
    revoked: RwLock<HashSet<u64>>,
    /// Digests of certificates whose chain has already been verified.
    ///
    /// Certificate-chain verification is an ECDSA operation per identity
    /// per message; production Fabric caches validated identities for the
    /// same reason. Revocation is still checked on every validation, so
    /// caching only skips the (immutable) signature chain.
    verified: RwLock<HashSet<fabric_crypto::Digest>>,
}

impl Msp {
    /// Creates an MSP from an organization's root certificate.
    ///
    /// The root must be a valid self-signed authority certificate whose
    /// `msp_id` matches.
    pub fn new(msp_id: impl Into<String>, root: Certificate) -> Result<Self, CertError> {
        let msp_id = msp_id.into();
        root.verify_self_signed()?;
        if root.msp_id != msp_id {
            return Err(CertError::MspMismatch);
        }
        let root_key = root.verifying_key()?;
        Ok(Msp {
            msp_id,
            root,
            root_key,
            revoked: RwLock::new(HashSet::new()),
            verified: RwLock::new(HashSet::new()),
        })
    }

    /// The organization this MSP validates.
    pub fn msp_id(&self) -> &str {
        &self.msp_id
    }

    /// The root certificate.
    pub fn root_cert(&self) -> &Certificate {
        &self.root
    }

    /// Adds a serial number to the revocation list.
    pub fn revoke(&self, serial: u64) {
        self.revoked.write().insert(serial);
    }

    /// Checks whether a serial is revoked.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked.read().contains(&serial)
    }

    /// Validates a certificate of this organization: correct org, chained
    /// to the root, not revoked, and not itself an authority certificate.
    pub fn validate_cert(&self, cert: &Certificate) -> Result<ValidatedIdentity, CertError> {
        if cert.msp_id != self.msp_id {
            return Err(CertError::MspMismatch);
        }
        if cert.role == Role::Authority {
            // End entities must not present CA certificates.
            return Err(CertError::NotAnAuthority);
        }
        let digest = fabric_crypto::digest(&cert.to_wire());
        if !self.verified.read().contains(&digest) {
            cert.verify_issued_by(&self.root_key)?;
            self.verified.write().insert(digest);
        }
        if self.is_revoked(cert.serial) {
            return Err(CertError::Revoked);
        }
        let key = cert.verifying_key()?;
        Ok(ValidatedIdentity {
            cert: cert.clone(),
            key,
        })
    }
}

/// Federation of the MSPs of every organization on a channel.
///
/// Built from the channel configuration's org list; rebuild it when a
/// configuration update changes membership.
#[derive(Default)]
pub struct MspRegistry {
    msps: BTreeMap<String, Msp>,
}

impl MspRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a registry from a channel configuration, parsing each org's
    /// root certificate.
    pub fn from_channel_config(config: &ChannelConfig) -> Result<Self, CertError> {
        let mut reg = MspRegistry::new();
        for org in &config.orgs {
            let root = Certificate::from_wire(&org.root_cert).map_err(|_| CertError::Malformed)?;
            reg.add(Msp::new(org.msp_id.clone(), root)?);
        }
        Ok(reg)
    }

    /// Adds (or replaces) an organization's MSP.
    pub fn add(&mut self, msp: Msp) {
        self.msps.insert(msp.msp_id().to_string(), msp);
    }

    /// Looks up an MSP by id.
    pub fn get(&self, msp_id: &str) -> Option<&Msp> {
        self.msps.get(msp_id)
    }

    /// Lists the registered MSP ids.
    pub fn msp_ids(&self) -> Vec<&str> {
        self.msps.keys().map(|s| s.as_str()).collect()
    }

    /// Validates a serialized identity against its claimed organization.
    ///
    /// This is the single entry point used by peers and orderers to
    /// authenticate remote parties.
    pub fn validate(&self, identity: &SerializedIdentity) -> Result<ValidatedIdentity, CertError> {
        let msp = self
            .msps
            .get(&identity.msp_id)
            .ok_or(CertError::UnknownMsp)?;
        let cert =
            Certificate::from_wire(&identity.cert_bytes).map_err(|_| CertError::Malformed)?;
        msp.validate_cert(&cert)
    }

    /// Validates an identity and verifies a signature it made.
    pub fn validate_and_verify(
        &self,
        identity: &SerializedIdentity,
        message: &[u8],
        signature: &[u8],
    ) -> Result<ValidatedIdentity, CertError> {
        let validated = self.validate(identity)?;
        validated.verify(message, signature)?;
        Ok(validated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::identity::SigningIdentity;
    use fabric_crypto::SigningKey;

    fn setup() -> (CertificateAuthority, MspRegistry) {
        let ca = CertificateAuthority::new("ca.org1", "Org1MSP", b"org1-seed");
        let mut reg = MspRegistry::new();
        reg.add(Msp::new("Org1MSP", ca.root_cert().clone()).unwrap());
        (ca, reg)
    }

    fn client(ca: &CertificateAuthority, seed: &[u8]) -> SigningIdentity {
        let key = SigningKey::from_seed(seed);
        let cert = ca.issue("client", Role::Client, key.verifying_key());
        SigningIdentity::new(cert, key).unwrap()
    }

    #[test]
    fn validates_member() {
        let (ca, reg) = setup();
        let id = client(&ca, b"c1");
        let v = reg.validate(&id.serialized()).unwrap();
        assert_eq!(v.msp_id(), "Org1MSP");
        assert_eq!(v.role(), Role::Client);
    }

    #[test]
    fn unknown_msp_rejected() {
        let (ca, reg) = setup();
        let id = client(&ca, b"c1");
        let mut ser = id.serialized();
        ser.msp_id = "GhostMSP".into();
        assert_eq!(reg.validate(&ser).err(), Some(CertError::UnknownMsp));
    }

    #[test]
    fn foreign_org_certificate_rejected() {
        let (_, reg) = setup();
        // Identity issued by a different org's CA but claiming Org1MSP.
        let ca2 = CertificateAuthority::new("ca.org2", "Org1MSP", b"org2-seed");
        let id = client(&ca2, b"c2");
        // Root key differs, so the chain check fails.
        assert_eq!(
            reg.validate(&id.serialized()).err(),
            Some(CertError::BadSignature)
        );
    }

    #[test]
    fn revocation() {
        let (ca, reg) = setup();
        let id = client(&ca, b"c1");
        let serial = id.cert().serial;
        reg.get("Org1MSP").unwrap().revoke(serial);
        assert_eq!(
            reg.validate(&id.serialized()).err(),
            Some(CertError::Revoked)
        );
    }

    #[test]
    fn authority_certificate_rejected_as_end_entity() {
        let (ca, reg) = setup();
        let ser = SerializedIdentity::new("Org1MSP", ca.root_cert().to_wire());
        assert_eq!(reg.validate(&ser).err(), Some(CertError::NotAnAuthority));
    }

    #[test]
    fn malformed_cert_bytes_rejected() {
        let (_, reg) = setup();
        let ser = SerializedIdentity::new("Org1MSP", vec![1, 2, 3]);
        assert_eq!(reg.validate(&ser).err(), Some(CertError::Malformed));
    }

    #[test]
    fn validate_and_verify_signature() {
        let (ca, reg) = setup();
        let id = client(&ca, b"c1");
        let sig = id.sign(b"msg").to_bytes();
        reg.validate_and_verify(&id.serialized(), b"msg", &sig)
            .unwrap();
        assert!(reg
            .validate_and_verify(&id.serialized(), b"other", &sig)
            .is_err());
    }

    #[test]
    fn federation_of_two_orgs() {
        let ca1 = CertificateAuthority::new("ca.org1", "Org1MSP", b"s1");
        let ca2 = CertificateAuthority::new("ca.org2", "Org2MSP", b"s2");
        let mut reg = MspRegistry::new();
        reg.add(Msp::new("Org1MSP", ca1.root_cert().clone()).unwrap());
        reg.add(Msp::new("Org2MSP", ca2.root_cert().clone()).unwrap());
        assert_eq!(reg.msp_ids(), vec!["Org1MSP", "Org2MSP"]);

        let id1 = client(&ca1, b"c1");
        let key2 = SigningKey::from_seed(b"c2");
        let cert2 = ca2.issue("peer0", Role::Peer, key2.verifying_key());
        let id2 = SigningIdentity::new(cert2, key2).unwrap();
        assert!(reg.validate(&id1.serialized()).is_ok());
        assert!(reg.validate(&id2.serialized()).is_ok());
    }

    #[test]
    fn registry_from_channel_config() {
        use fabric_primitives::config::{BatchConfig, ConsensusType, OrdererConfig, OrgConfig};
        use fabric_primitives::ids::ChannelId;

        let ca = CertificateAuthority::new("ca.org1", "Org1MSP", b"s1");
        let config = ChannelConfig {
            channel: ChannelId::new("ch"),
            sequence: 0,
            orgs: vec![OrgConfig {
                msp_id: "Org1MSP".into(),
                root_cert: ca.root_cert().to_wire(),
            }],
            orderer: OrdererConfig {
                consensus: ConsensusType::Solo,
                addresses: vec!["osn0".into()],
                batch: BatchConfig::default(),
            },
            admin_policy: "ANY(admins)".into(),
            writer_policy: "ANY(members)".into(),
            reader_policy: "ANY(members)".into(),
        };
        let reg = MspRegistry::from_channel_config(&config).unwrap();
        let id = client(&ca, b"c9");
        assert!(reg.validate(&id.serialized()).is_ok());
    }

    #[test]
    fn cached_validation_still_checks_revocation() {
        // The chain-verification cache must not bypass revocation.
        let (ca, reg) = setup();
        let id = client(&ca, b"c1");
        reg.validate(&id.serialized()).unwrap(); // populates the cache
        reg.get("Org1MSP").unwrap().revoke(id.cert().serial);
        assert_eq!(
            reg.validate(&id.serialized()).err(),
            Some(CertError::Revoked)
        );
    }

    #[test]
    fn cache_does_not_admit_tampered_certs() {
        let (ca, reg) = setup();
        let id = client(&ca, b"c1");
        reg.validate(&id.serialized()).unwrap();
        // Tampered bytes hash differently, so the cache misses and the
        // chain check runs (and fails).
        let mut cert = id.cert().clone();
        cert.subject = "mallory".into();
        let ser = SerializedIdentity::new("Org1MSP", cert.to_wire());
        assert_eq!(reg.validate(&ser).err(), Some(CertError::BadSignature));
    }

    #[test]
    fn msp_rejects_mismatched_root() {
        let ca = CertificateAuthority::new("ca.org1", "Org1MSP", b"s1");
        assert_eq!(
            Msp::new("OtherMSP", ca.root_cert().clone()).err(),
            Some(CertError::MspMismatch)
        );
    }
}
