//! # fabric-kvstore
//!
//! The world state underneath the peer transaction manager (paper
//! Sec. 4.4), and the workspace's substitute for LevelDB/CouchDB: one
//! type, [`StateStore`], durable, ordered and snapshotable, with an
//! incremental Merkle state root.
//!
//! Design: an in-memory B-tree memtable holding *version chains* per key
//! (lightweight MVCC so endorsement simulation gets a stable snapshot while
//! commits proceed; each write trims the chains it touches to what a live
//! snapshot can still read), whole-state checkpoints, the store's only
//! writes to storage, and the bucketed hash tree of [`merkle`], updated
//! per batch from the old values each write reads off its chain heads.
//! The store keeps no log of its own: the peer's block store is the
//! ledger's one log, and the ledger replays the blocks past the
//! checkpoint's savepoint on open. Storage is abstracted behind
//! [`backend::Backend`] with filesystem and in-memory implementations;
//! running over [`MemBackend`] is the paper's RAM-disk variant in
//! Experiment 3.
//!
//! ## Crash safety
//!
//! Every record on storage is framed with a CRC-32 ([`log`]). A checkpoint
//! is written to a temp file, synced, and atomically renamed over the
//! previous one, so a crash at any point leaves either the old or the new
//! checkpoint intact. The Merkle bucket file is pure acceleration: a torn
//! or stale one is ignored and the tree rebuilt from the state.

pub mod backend;
pub mod log;
pub mod merkle;
mod store;

pub use backend::{Backend, BackendFile, FsBackend, MemBackend};
pub use store::{Snapshot, StateStore, StorageSnapshot, WriteBatch};

/// Errors produced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Stored bytes failed integrity or framing checks.
    Corrupt,
}

impl StoreError {
    pub(crate) fn io(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt => write!(f, "corrupt store data"),
        }
    }
}

impl std::error::Error for StoreError {}
