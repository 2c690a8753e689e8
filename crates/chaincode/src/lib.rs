//! # fabric-chaincode
//!
//! Chaincode — Fabric's smart contracts (paper Sec. 3.2, 4.5, 4.6):
//!
//! * [`api`] — the [`Chaincode`] trait and the [`Stub`] through which all
//!   ledger state access flows (chaincode never touches the ledger
//!   directly).
//! * [`runtime`] — installation registry and isolated execution with
//!   deadline-based aborts (the Docker-container substitute; the DoS
//!   defence of Sec. 3.2).
//! * [`lscc`] — the lifecycle system chaincode: committing chaincode
//!   definitions (name, version, endorsement policy) through transactions.
//! * [`system`] — the default ESCC (endorsement signing) and VSCC
//!   (endorsement-policy validation), plus the [`Vscc`] plug-in trait that
//!   custom validation logic such as Fabcoin's implements.

pub mod api;
pub mod lscc;
pub mod runtime;
pub mod system;

pub use api::{Chaincode, Invocation, Stub, MAX_CALL_DEPTH};
pub use lscc::{get_definition, ChaincodeDefinition, Lscc, LSCC_NAMESPACE};
pub use runtime::{ChaincodeRegistry, ChaincodeRuntime, ExecutionResult, RuntimeConfig};
pub use system::{batch_escc, default_escc, DefaultVscc, Vscc};

/// Errors from chaincode execution plumbing (distinct from chaincode-level
/// business errors, which become error responses).
#[derive(Debug)]
pub enum ChaincodeError {
    /// No chaincode installed under that name.
    NotInstalled(String),
    /// Execution exceeded the configured deadline (DoS defence).
    Timeout,
    /// Execution aborted (panic or spawn failure).
    Aborted(String),
    /// Ledger access failed.
    Ledger(String),
}

impl core::fmt::Display for ChaincodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChaincodeError::NotInstalled(name) => write!(f, "chaincode {name} not installed"),
            ChaincodeError::Timeout => write!(f, "chaincode execution timed out"),
            ChaincodeError::Aborted(msg) => write!(f, "chaincode aborted: {msg}"),
            ChaincodeError::Ledger(msg) => write!(f, "ledger error: {msg}"),
        }
    }
}

impl std::error::Error for ChaincodeError {}
