//! # fabric-kvstore
//!
//! A durable, ordered, snapshotable key-value store — the workspace's
//! substitute for LevelDB/CouchDB underneath the peer transaction manager
//! (paper Sec. 4.4).
//!
//! Design: an in-memory B-tree memtable holding *version chains* per key
//! (lightweight MVCC so endorsement simulation gets a stable snapshot while
//! commits proceed), a CRC-framed write-ahead log for durability, and
//! whole-state checkpoints that truncate the log. Storage is abstracted
//! behind [`backend::Backend`] with filesystem and in-memory
//! implementations (the latter doubles as the paper's RAM-disk variant in
//! Experiment 3).
//!
//! [`StateStore`] is the one store a peer's world state lives in: the
//! durable store above plus the incremental Merkle state root of
//! [`merkle`]. Running it over [`MemBackend`] is the in-memory variant.
//!
//! ## Crash safety
//!
//! Every committed batch is framed with a CRC-32; recovery replays intact
//! records and truncates a torn tail. A checkpoint is written to a temp
//! file and atomically renamed before the WAL is truncated, so a crash at
//! any point leaves either the old or the new checkpoint intact.

pub mod backend;
mod engine;
pub mod log;
pub mod merkle;
mod store;

pub use backend::{Backend, BackendFile, FsBackend, MemBackend};
pub use engine::{StateStore, StorageSnapshot};
pub use store::{KvStore, Snapshot, StoreConfig, WriteBatch};

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
