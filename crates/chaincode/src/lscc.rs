//! The lifecycle system chaincode (LSCC): deploying and upgrading
//! chaincode definitions (paper Sec. 4.6).
//!
//! A chaincode *definition* — name, version, and the endorsement policy
//! the default VSCC will enforce — is itself committed through a
//! transaction, so every peer agrees on it: LSCC stores definitions in its
//! own state namespace, and the committer consults that namespace when
//! validating transactions.

use fabric_primitives::wire::{Decoder, Encoder, Wire, WireError};

use crate::api::{Chaincode, Stub};

/// The LSCC state namespace.
pub const LSCC_NAMESPACE: &str = "lscc";

/// A deployed chaincode's definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaincodeDefinition {
    /// Chaincode name (unique per channel).
    pub name: String,
    /// Version string.
    pub version: String,
    /// Endorsement policy text (parsed by `fabric-policy`); enforced by the
    /// default VSCC. Cannot be modified by non-admins (paper Sec. 3.1).
    pub endorsement_policy: String,
}

impl Wire for ChaincodeDefinition {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(&self.name);
        enc.put_string(&self.version);
        enc.put_string(&self.endorsement_policy);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ChaincodeDefinition {
            name: dec.get_string()?,
            version: dec.get_string()?,
            endorsement_policy: dec.get_string()?,
        })
    }
}

/// The lifecycle system chaincode.
///
/// Functions:
/// * `deploy(definition)` — admin-only; fails if the name exists.
/// * `upgrade(definition)` — admin-only; fails unless the name exists.
/// * `get(name)` — returns the serialized definition.
pub struct Lscc;

impl Chaincode for Lscc {
    fn invoke(&self, stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
        match stub.function() {
            "deploy" | "upgrade" => {
                if stub.creator_role() != "admin" {
                    return Err("chaincode lifecycle requires an admin identity".into());
                }
                let raw = stub
                    .args()
                    .first()
                    .ok_or("missing definition argument")?
                    .clone();
                let definition = ChaincodeDefinition::from_wire(&raw)
                    .map_err(|e| format!("bad definition: {e}"))?;
                // Endorsement policies are static libraries parameterized by
                // the chaincode (Sec. 3.1); reject unparseable ones here so
                // a broken policy can never be committed.
                fabric_policy::PolicyExpr::parse(&definition.endorsement_policy)
                    .map_err(|e| format!("bad endorsement policy: {e}"))?;
                let existing = stub.get_state(&definition.name)?;
                match (stub.function(), existing.is_some()) {
                    ("deploy", true) => {
                        return Err(format!("chaincode {} already deployed", definition.name))
                    }
                    ("upgrade", false) => {
                        return Err(format!("chaincode {} not deployed", definition.name))
                    }
                    _ => {}
                }
                stub.put_state(&definition.name, raw);
                Ok(definition.name.into_bytes())
            }
            "get" => {
                let name = stub.arg_string(0)?;
                stub.get_state(&name)?
                    .ok_or_else(|| format!("chaincode {name} not deployed"))
            }
            other => Err(format!("unknown LSCC function {other}")),
        }
    }
}

/// Reads a committed chaincode definition from a ledger (committer-side).
pub fn get_definition(
    ledger: &fabric_ledger::Ledger,
    name: &str,
) -> Result<Option<ChaincodeDefinition>, String> {
    match ledger
        .get_state(LSCC_NAMESPACE, name)
        .map_err(|e| e.to_string())?
    {
        Some(raw) => Ok(Some(
            ChaincodeDefinition::from_wire(&raw).map_err(|e| e.to_string())?,
        )),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ChaincodeRegistry, ChaincodeRuntime, RuntimeConfig};
    use crate::Invocation;
    use fabric_ledger::Ledger;
    use fabric_primitives::ids::{ChannelId, SerializedIdentity, TxId};
    use std::sync::Arc;

    fn runtime() -> (ChaincodeRuntime, Ledger) {
        let registry = Arc::new(ChaincodeRegistry::new());
        registry.install(LSCC_NAMESPACE, Arc::new(Lscc));
        (
            ChaincodeRuntime::new(registry, RuntimeConfig { exec_timeout: None }),
            Ledger::in_memory(),
        )
    }

    fn invocation(role: &str, function: &str, args: Vec<Vec<u8>>) -> Invocation {
        Invocation {
            function: function.into(),
            args,
            creator: SerializedIdentity::new("Org1MSP", vec![1]),
            creator_msp: "Org1MSP".into(),
            creator_role: role.into(),
            tx_id: TxId::derive(b"c", &[1; 32]),
            channel: ChannelId::new("ch"),
        }
    }

    fn definition() -> ChaincodeDefinition {
        ChaincodeDefinition {
            name: "fabcoin".into(),
            version: "1.0".into(),
            endorsement_policy: "OR(Org1MSP, Org2MSP)".into(),
        }
    }

    #[test]
    fn deploy_requires_admin() {
        let (runtime, ledger) = runtime();
        let result = runtime
            .execute(
                &ledger,
                LSCC_NAMESPACE,
                invocation("client", "deploy", vec![definition().to_wire()]),
            )
            .unwrap();
        assert!(!result.response.is_ok());
        assert!(result.response.message.contains("admin"));
    }

    #[test]
    fn deploy_writes_definition() {
        let (runtime, ledger) = runtime();
        let result = runtime
            .execute(
                &ledger,
                LSCC_NAMESPACE,
                invocation("admin", "deploy", vec![definition().to_wire()]),
            )
            .unwrap();
        assert!(result.response.is_ok(), "{}", result.response.message);
        assert_eq!(result.rwset.ns_rwsets[0].namespace, LSCC_NAMESPACE);
        assert_eq!(result.rwset.write_count(), 1);
    }

    #[test]
    fn bad_policy_rejected_at_deploy() {
        let (runtime, ledger) = runtime();
        let mut def = definition();
        def.endorsement_policy = "OutOf(9, A)".into();
        let result = runtime
            .execute(
                &ledger,
                LSCC_NAMESPACE,
                invocation("admin", "deploy", vec![def.to_wire()]),
            )
            .unwrap();
        assert!(!result.response.is_ok());
    }

    #[test]
    fn upgrade_requires_existing() {
        let (runtime, ledger) = runtime();
        let result = runtime
            .execute(
                &ledger,
                LSCC_NAMESPACE,
                invocation("admin", "upgrade", vec![definition().to_wire()]),
            )
            .unwrap();
        assert!(!result.response.is_ok());
        assert!(result.response.message.contains("not deployed"));
    }

    #[test]
    fn definition_round_trip() {
        let def = definition();
        assert_eq!(ChaincodeDefinition::from_wire(&def.to_wire()).unwrap(), def);
    }

    #[test]
    fn unknown_function_rejected() {
        let (runtime, ledger) = runtime();
        let result = runtime
            .execute(
                &ledger,
                LSCC_NAMESPACE,
                invocation("admin", "bogus", vec![]),
            )
            .unwrap();
        assert!(!result.response.is_ok());
    }
}
