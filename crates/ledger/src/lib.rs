//! # fabric-ledger
//!
//! The peer's ledger component (paper Sec. 4.4): an append-only
//! [`blockstore::BlockStore`] persisting the hash-chained blocks, and the
//! peer transaction manager [`ptm::Ptm`] maintaining the latest state in a
//! versioned key-value store. [`ledger::Ledger`] combines the two with the
//! savepoint-based crash recovery protocol the paper describes.
//!
//! The state database sits on `fabric-kvstore` (the LevelDB substitute) and
//! can be file-backed or in-memory — the latter reproduces the paper's
//! RAM-disk variant (Experiment 3).

pub mod blockstore;
pub mod ledger;
pub mod ptm;

pub use blockstore::{BlockStore, TxLocation};
pub use ledger::{HistoryEntry, Ledger};
pub use ptm::{Ptm, TxSimulator};

/// Errors produced by ledger operations.
#[derive(Debug)]
pub enum LedgerError {
    /// Underlying storage failed.
    Store(fabric_kvstore::StoreError),
    /// Persisted bytes failed to decode.
    Corrupt,
    /// A block arrived with the wrong sequence number.
    OutOfOrder {
        /// The expected next block number (current height).
        expected: u64,
        /// The number the block actually carried.
        got: u64,
    },
    /// A block's previous-hash did not match the chain tip.
    HashChainBroken(u64),
    /// `commit` was called on a block without validation metadata.
    MissingValidationFlags,
    /// A state-snapshot install or block-store rebase was rejected.
    Snapshot(String),
}

impl From<fabric_kvstore::StoreError> for LedgerError {
    fn from(e: fabric_kvstore::StoreError) -> Self {
        LedgerError::Store(e)
    }
}

impl core::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LedgerError::Store(e) => write!(f, "store error: {e}"),
            LedgerError::Corrupt => write!(f, "corrupt ledger data"),
            LedgerError::OutOfOrder { expected, got } => {
                write!(f, "block out of order: expected {expected}, got {got}")
            }
            LedgerError::HashChainBroken(n) => write!(f, "hash chain broken at block {n}"),
            LedgerError::MissingValidationFlags => {
                write!(f, "block committed without validation flags")
            }
            LedgerError::Snapshot(msg) => write!(f, "snapshot install rejected: {msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}
