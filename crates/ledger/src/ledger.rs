//! The combined ledger: block store + PTM with crash recovery.
//!
//! Commit protocol (paper Sec. 4.4): the block — with its validation flags
//! already recorded in the metadata — is first appended to the block store
//! and flushed; then the PTM applies the state changes of valid
//! transactions together with the `savepoint` in one atomic batch, in
//! memory. The block store is the ledger's only log: the state store
//! writes nothing per commit, and reopens at its last checkpoint. On
//! open, the blocks between that checkpoint's savepoint and the block
//! store height are replayed, which rebuilds exactly the state the
//! crashed peer held. A state whose savepoint is past the chain's height
//! cannot come from a crash (blocks are flushed before the state moves),
//! so open reports it as corrupt instead of building on it.
//!
//! Key history (Fabric's `GetHistoryForKey`) is derived from the block
//! store, not kept in the state database: every block records its
//! transactions' writesets and validation flags, so a history query walks
//! the retained blocks.

use std::sync::Arc;

use fabric_kvstore::backend::Backend;
use fabric_kvstore::{MemBackend, StateStore, WriteBatch};
use fabric_primitives::block::Block;
use fabric_primitives::ids::{TxId, TxValidationCode, Version};
use fabric_primitives::transaction::EnvelopeContent;

use crate::blockstore::{BlockStore, TxLocation};
use crate::ptm::{Ptm, TxSimulator};
use crate::LedgerError;

/// One entry in a key's write history (Fabric's `GetHistoryForKey`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryEntry {
    /// The writing transaction's coordinates.
    pub version: Version,
    /// The writing transaction's id.
    pub tx_id: TxId,
    /// Whether the write was a deletion.
    pub is_delete: bool,
}

/// A peer's local ledger: the blockchain and the latest state.
pub struct Ledger {
    blocks: BlockStore,
    ptm: Ptm,
}

impl Ledger {
    /// Opens (or creates) a ledger on `backend`, replaying any blocks
    /// whose state changes were lost in a crash.
    pub fn open(backend: Arc<dyn Backend>, sync_writes: bool) -> Result<Self, LedgerError> {
        let blocks = BlockStore::open(backend.clone(), sync_writes)?;
        let store = StateStore::open(backend)?;
        let ledger = Ledger {
            blocks,
            ptm: Ptm::new(Arc::new(store)),
        };
        ledger.recover()?;
        Ok(ledger)
    }

    /// Opens an in-memory ledger (tests, RAM-disk experiments).
    pub fn in_memory() -> Self {
        Self::open(Arc::new(MemBackend::new()), false).expect("in-memory open cannot fail")
    }

    /// Replays state commits for blocks past the savepoint.
    ///
    /// The state must sit inside the chain: its savepoint below the block
    /// store height, and (on a rebased store) at or above `base - 1`, the
    /// snapshot's own savepoint, since no block below `base` is held to
    /// replay. Anything else is [`LedgerError::Corrupt`].
    fn recover(&self) -> Result<(), LedgerError> {
        let height = self.blocks.height();
        let start = match self.ptm.savepoint() {
            Some(sp) => sp + 1,
            None => 0,
        };
        if start > height || start < self.blocks.base() {
            return Err(LedgerError::Corrupt);
        }
        for number in start..height {
            let block = self
                .blocks
                .get_block(number)?
                .expect("block below height exists");
            // The validation flags were persisted in the block metadata
            // before the block was appended.
            self.ptm.commit_block(&block, &block.metadata.validation)?;
        }
        Ok(())
    }

    /// Appends a validated block (metadata flags filled in) and commits its
    /// state changes.
    ///
    /// Commits are strictly ordered: with concurrent validation (the
    /// peer's pipelined committer) only the in-order sequencer may reach
    /// this point, and an out-of-order block is rejected before anything
    /// is written.
    pub fn commit(&self, block: &Block) -> Result<(), LedgerError> {
        let expected = self.blocks.height();
        if block.header.number != expected {
            return Err(LedgerError::OutOfOrder {
                expected,
                got: block.header.number,
            });
        }
        if block.metadata.validation.len() != block.envelopes.len() {
            return Err(LedgerError::MissingValidationFlags);
        }
        self.blocks.append(block)?;
        self.ptm.commit_block(block, &block.metadata.validation)?;
        // The savepoint must track the append exactly, or crash recovery
        // would replay from the wrong block.
        debug_assert_eq!(
            self.ptm.savepoint(),
            Some(block.header.number),
            "savepoint out of step with block store"
        );
        Ok(())
    }

    /// Runs the MVCC stage of validation for `block`, downgrading `flags`
    /// entries on conflicts (see [`Ptm::mvcc_validate`]).
    pub fn mvcc_validate(
        &self,
        block: &Block,
        flags: &mut [TxValidationCode],
    ) -> Result<(), LedgerError> {
        self.ptm
            .mvcc_validate(block, flags, &|tx_id| self.blocks.contains_tx(tx_id))
    }

    /// Starts a chaincode simulation against the latest state snapshot.
    pub fn simulator(&self) -> TxSimulator {
        self.ptm.simulator()
    }

    /// Chain height.
    pub fn height(&self) -> u64 {
        self.blocks.height()
    }

    /// Hash of the last block header.
    pub fn last_hash(&self) -> fabric_crypto::Digest {
        self.blocks.last_hash()
    }

    /// Reads a block by number.
    pub fn get_block(&self, number: u64) -> Result<Option<Block>, LedgerError> {
        self.blocks.get_block(number)
    }

    /// Looks up where a transaction was committed.
    pub fn tx_location(&self, tx_id: &TxId) -> Option<TxLocation> {
        self.blocks.tx_location(tx_id)
    }

    /// Returns `true` if the transaction id is already on the ledger.
    pub fn contains_tx(&self, tx_id: &TxId) -> bool {
        self.blocks.contains_tx(tx_id)
    }

    /// Number of the most recent configuration block.
    pub fn last_config(&self) -> u64 {
        self.blocks.last_config()
    }

    /// Reads the latest committed value of a state key.
    pub fn get_state(&self, ns: &str, key: &str) -> Result<Option<Vec<u8>>, LedgerError> {
        Ok(self.ptm.get_state(ns, key)?.map(|(_, v)| v))
    }

    /// Reads the latest `(version, value)` of a state key.
    pub fn get_state_versioned(
        &self,
        ns: &str,
        key: &str,
    ) -> Result<Option<(fabric_primitives::ids::Version, Vec<u8>)>, LedgerError> {
        self.ptm.get_state(ns, key)
    }

    /// Range-scans the latest state of a namespace.
    pub fn scan_state(
        &self,
        ns: &str,
        start: &str,
        end: &str,
    ) -> Result<Vec<(String, Vec<u8>)>, LedgerError> {
        Ok(self
            .ptm
            .scan(ns, start, end)?
            .into_iter()
            .map(|(k, _, v)| (k, v))
            .collect())
    }

    /// Chronological write history of a state key: one entry per write by
    /// a valid transaction, in chain order.
    ///
    /// Read from the retained blocks, so a query costs O(blocks held). A
    /// ledger installed from a snapshot has no history below its base.
    pub fn key_history(&self, ns: &str, key: &str) -> Result<Vec<HistoryEntry>, LedgerError> {
        let mut entries = Vec::new();
        for number in self.blocks.base()..self.blocks.height() {
            let block = self.blocks.get_block(number)?.ok_or(LedgerError::Corrupt)?;
            let flags = &block.metadata.validation;
            for (i, (env, flag)) in block.envelopes.iter().zip(flags).enumerate() {
                let EnvelopeContent::Transaction(tx) = &env.content else {
                    continue;
                };
                if *flag != TxValidationCode::Valid {
                    continue;
                }
                for ns_rw in &tx.response_payload.rwset.ns_rwsets {
                    if ns_rw.namespace != ns {
                        continue;
                    }
                    for write in ns_rw.writes.iter().filter(|w| w.key == key) {
                        entries.push(HistoryEntry {
                            version: Version::new(number, i as u32),
                            tx_id: tx.tx_id(),
                            is_delete: write.is_delete(),
                        });
                    }
                }
            }
        }
        Ok(entries)
    }

    /// A point-in-time dump of the *entire* state database — world state
    /// and the savepoint — as raw `(key, value)` pairs in key order. This
    /// is the payload a state snapshot carries: installing exactly these
    /// pairs reproduces the kvstore byte-for-byte.
    pub fn state_entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.ptm.store().snapshot().scan(b"", b"")
    }

    /// Installs a verified state snapshot into an **empty** ledger: the
    /// state database is atomically replaced by `entries` (one write
    /// batch), checkpointed, and only then the block store is rebased so
    /// the chain resumes at `height`. The checkpoint comes first because
    /// no block below `height` will ever be held to replay the state from.
    /// A crash between the two leaves a state ahead of an empty chain,
    /// which [`Ledger::open`] reports as corrupt.
    ///
    /// `height` is the number of blocks the snapshot covers (its savepoint
    /// must be `height - 1`), `block_hash` the hash of block `height - 1`,
    /// and `last_config` the number of the latest config block — all three
    /// bound by the snapshot manifest the caller verified. After install,
    /// the ledger accepts block `height` next; earlier blocks are pruned.
    pub fn install_snapshot(
        &self,
        height: u64,
        block_hash: fabric_crypto::Digest,
        last_config: u64,
        entries: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), LedgerError> {
        if self.blocks.height() != 0 || self.blocks.base() != 0 {
            return Err(LedgerError::Snapshot(format!(
                "ledger not empty (height {})",
                self.blocks.height()
            )));
        }
        if height == 0 {
            return Err(LedgerError::Snapshot("snapshot covers no blocks".into()));
        }
        // The snapshot's own savepoint key must agree with the manifest
        // height, or recovery arithmetic would diverge from the chain.
        // Checked before anything is written, so a rejected install
        // leaves the ledger empty.
        let savepoint = Ptm::savepoint_of(entries);
        if savepoint != Some(height - 1) {
            return Err(LedgerError::Snapshot(format!(
                "snapshot savepoint {savepoint:?} does not match height {height}"
            )));
        }
        let mut batch = WriteBatch::new();
        let incoming: std::collections::HashSet<&[u8]> =
            entries.iter().map(|(k, _)| k.as_slice()).collect();
        for (key, _) in self.ptm.store().snapshot().scan(b"", b"") {
            if !incoming.contains(key.as_slice()) {
                batch.delete(key);
            }
        }
        for (key, value) in entries {
            batch.put(key.clone(), value.clone());
        }
        self.ptm.store().write(batch)?;
        self.ptm.store().checkpoint()?;
        self.blocks.rebase(height, block_hash, last_config)
    }

    /// The incremental Merkle root over the whole state database — O(1),
    /// maintained by the state store on every commit. Two ledgers with
    /// byte-identical state report the same root regardless of backend.
    pub fn state_root(&self) -> fabric_crypto::Digest {
        self.ptm.store().state_root()
    }

    /// Durably checkpoints the state database (snapshot-consistent; it
    /// does not block commits for the duration), so the next open replays
    /// only the blocks committed after it.
    pub fn checkpoint_state(&self) -> Result<(), LedgerError> {
        Ok(self.ptm.store().checkpoint()?)
    }

    /// Storage-engine counters: always zero, since the state store keeps
    /// none (see [`fabric_kvstore::StorageSnapshot`]).
    pub fn storage_stats(&self) -> fabric_kvstore::StorageSnapshot {
        fabric_kvstore::StorageSnapshot::default()
    }

    /// Direct access to the PTM (used by the peer's committer).
    pub fn ptm(&self) -> &Ptm {
        &self.ptm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::Duration;

    use fabric_kvstore::{BackendFile, StoreError};
    use fabric_primitives::ids::{ChaincodeId, ChannelId, SerializedIdentity, Version};
    use fabric_primitives::rwset::TxReadWriteSet;
    use fabric_primitives::transaction::{
        ChaincodeResponse, Envelope, EnvelopeContent, ProposalPayload, ProposalResponsePayload,
        Transaction,
    };
    use fabric_primitives::wire::Wire;

    /// Builds an envelope carrying an explicit rwset.
    fn envelope_with_rwset(seed: u8, rwset: TxReadWriteSet) -> Envelope {
        let creator = SerializedIdentity::new("Org1MSP", vec![seed; 8]);
        let tx = Transaction {
            channel: ChannelId::new("ch"),
            creator: creator.clone(),
            nonce: [seed; 32],
            proposal_payload: ProposalPayload {
                chaincode: ChaincodeId::new("cc", "1"),
                function: "f".into(),
                args: vec![],
            },
            response_payload: ProposalResponsePayload {
                tx_id: TxId::derive(&creator.to_wire(), &[seed; 32]),
                chaincode: ChaincodeId::new("cc", "1"),
                rwset,
                response: ChaincodeResponse::ok(vec![]),
            },
            endorsements: vec![],
        };
        Envelope {
            content: EnvelopeContent::Transaction(tx),
            signature: vec![],
        }
    }

    /// Simulates `f` on the ledger and wraps the result in an envelope.
    fn simulate(ledger: &Ledger, seed: u8, f: impl FnOnce(&mut TxSimulator)) -> Envelope {
        let mut sim = ledger.simulator();
        f(&mut sim);
        envelope_with_rwset(seed, sim.into_rwset())
    }

    /// Commits envelopes as the next block, marking all transactions with
    /// the outcome of VSCC = Valid, running MVCC validation first.
    fn commit_block(ledger: &Ledger, envelopes: Vec<Envelope>) -> Vec<TxValidationCode> {
        let mut block = Block::new(ledger.height(), ledger.last_hash(), envelopes);
        let mut flags = vec![TxValidationCode::Valid; block.envelopes.len()];
        ledger.mvcc_validate(&block, &mut flags).unwrap();
        block.metadata.validation = flags.clone();
        ledger.commit(&block).unwrap();
        flags
    }

    #[test]
    fn simulate_and_commit_roundtrip() {
        let ledger = Ledger::in_memory();
        let env = simulate(&ledger, 1, |sim| {
            sim.put_state("cc", "k1", b"v1".to_vec());
            sim.put_state("cc", "k2", b"v2".to_vec());
        });
        let flags = commit_block(&ledger, vec![env]);
        assert_eq!(flags, vec![TxValidationCode::Valid]);
        assert_eq!(ledger.get_state("cc", "k1").unwrap(), Some(b"v1".to_vec()));
        let (ver, _) = ledger.get_state_versioned("cc", "k2").unwrap().unwrap();
        assert_eq!(ver, Version::new(0, 0));
    }

    #[test]
    fn mvcc_conflict_detected() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v0".to_vec())
            })],
        );
        // Two transactions both read k's current version and write it.
        let e1 = simulate(&ledger, 2, |sim| {
            sim.get_state("cc", "k").unwrap();
            sim.put_state("cc", "k", b"v1".to_vec());
        });
        let e2 = simulate(&ledger, 3, |sim| {
            sim.get_state("cc", "k").unwrap();
            sim.put_state("cc", "k", b"v2".to_vec());
        });
        let flags = commit_block(&ledger, vec![e1, e2]);
        assert_eq!(
            flags,
            vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict]
        );
        // First writer wins.
        assert_eq!(ledger.get_state("cc", "k").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn stale_read_across_blocks_detected() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v0".to_vec())
            })],
        );
        // Simulate BEFORE the conflicting update commits.
        let stale = simulate(&ledger, 2, |sim| {
            sim.get_state("cc", "k").unwrap();
            sim.put_state("cc", "k", b"stale".to_vec());
        });
        commit_block(
            &ledger,
            vec![simulate(&ledger, 3, |sim| {
                sim.get_state("cc", "k").unwrap();
                sim.put_state("cc", "k", b"fresh".to_vec());
            })],
        );
        let flags = commit_block(&ledger, vec![stale]);
        assert_eq!(flags, vec![TxValidationCode::MvccReadConflict]);
        assert_eq!(
            ledger.get_state("cc", "k").unwrap(),
            Some(b"fresh".to_vec())
        );
    }

    #[test]
    fn read_of_missing_key_validates_against_absence() {
        let ledger = Ledger::in_memory();
        // Reads a missing key; still valid because it's still missing.
        let e = simulate(&ledger, 1, |sim| {
            assert_eq!(sim.get_state("cc", "ghost").unwrap(), None);
            sim.put_state("cc", "out", b"v".to_vec());
        });
        let flags = commit_block(&ledger, vec![e]);
        assert_eq!(flags, vec![TxValidationCode::Valid]);
        // Now a tx that read the key as missing, committed after it appears.
        let stale = simulate(&ledger, 2, |sim| {
            assert_eq!(sim.get_state("cc", "newkey").unwrap(), None);
            sim.put_state("cc", "out2", b"v".to_vec());
        });
        commit_block(
            &ledger,
            vec![simulate(&ledger, 3, |sim| {
                sim.put_state("cc", "newkey", b"appeared".to_vec())
            })],
        );
        let flags = commit_block(&ledger, vec![stale]);
        assert_eq!(flags, vec![TxValidationCode::MvccReadConflict]);
    }

    #[test]
    fn delete_then_read_conflict() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v".to_vec())
            })],
        );
        let reader = simulate(&ledger, 2, |sim| {
            sim.get_state("cc", "k").unwrap();
            sim.put_state("cc", "out", b"x".to_vec());
        });
        commit_block(
            &ledger,
            vec![simulate(&ledger, 3, |sim| sim.del_state("cc", "k"))],
        );
        let flags = commit_block(&ledger, vec![reader]);
        assert_eq!(flags, vec![TxValidationCode::MvccReadConflict]);
        assert_eq!(ledger.get_state("cc", "k").unwrap(), None);
    }

    #[test]
    fn intra_block_write_then_read_conflict() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v".to_vec())
            })],
        );
        // Both simulated against the same state; tx0 writes k, tx1 reads k.
        let writer = simulate(&ledger, 2, |sim| {
            sim.put_state("cc", "k", b"new".to_vec());
        });
        let reader = simulate(&ledger, 3, |sim| {
            sim.get_state("cc", "k").unwrap();
            sim.put_state("cc", "other", b"x".to_vec());
        });
        let flags = commit_block(&ledger, vec![writer, reader]);
        assert_eq!(
            flags,
            vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict]
        );
    }

    #[test]
    fn duplicate_txid_rejected() {
        let ledger = Ledger::in_memory();
        let env = simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()));
        commit_block(&ledger, vec![env.clone()]);
        let flags = commit_block(&ledger, vec![env]);
        assert_eq!(flags, vec![TxValidationCode::DuplicateTxId]);
    }

    #[test]
    fn duplicate_txid_within_block_rejected() {
        let ledger = Ledger::in_memory();
        let env = simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()));
        let flags = commit_block(&ledger, vec![env.clone(), env]);
        assert_eq!(
            flags,
            vec![TxValidationCode::Valid, TxValidationCode::DuplicateTxId]
        );
    }

    #[test]
    fn phantom_read_detected() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "a", b"1".to_vec());
                sim.put_state("cc", "c", b"3".to_vec());
            })],
        );
        // Range query over [a, z); then another tx inserts "b" inside the
        // range before this commits.
        let ranged = simulate(&ledger, 2, |sim| {
            let res = sim.get_state_range("cc", "a", "z").unwrap();
            assert_eq!(res.len(), 2);
            sim.put_state("cc", "out", b"x".to_vec());
        });
        commit_block(
            &ledger,
            vec![simulate(&ledger, 3, |sim| {
                sim.put_state("cc", "b", b"2".to_vec())
            })],
        );
        let flags = commit_block(&ledger, vec![ranged]);
        assert_eq!(flags, vec![TxValidationCode::PhantomReadConflict]);
    }

    #[test]
    fn range_query_stable_when_untouched() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "a", b"1".to_vec())
            })],
        );
        let ranged = simulate(&ledger, 2, |sim| {
            sim.get_state_range("cc", "a", "z").unwrap();
            sim.put_state("cc", "out", b"x".to_vec());
        });
        // Unrelated write outside the queried namespace range semantics.
        commit_block(
            &ledger,
            vec![simulate(&ledger, 3, |sim| {
                sim.put_state("other-ns", "b", b"2".to_vec())
            })],
        );
        let flags = commit_block(&ledger, vec![ranged]);
        assert_eq!(flags, vec![TxValidationCode::Valid]);
    }

    #[test]
    fn phantom_by_intra_block_write() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "a", b"1".to_vec())
            })],
        );
        let inserter = simulate(&ledger, 2, |sim| {
            sim.put_state("cc", "b", b"2".to_vec());
        });
        let ranged = simulate(&ledger, 3, |sim| {
            sim.get_state_range("cc", "a", "z").unwrap();
            sim.put_state("cc", "out", b"x".to_vec());
        });
        let flags = commit_block(&ledger, vec![inserter, ranged]);
        assert_eq!(
            flags,
            vec![
                TxValidationCode::Valid,
                TxValidationCode::PhantomReadConflict
            ]
        );
    }

    #[test]
    fn simulator_does_not_read_own_writes() {
        // Fabric semantics: GetState after PutState in the same simulation
        // returns the committed value, not the pending write.
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"old".to_vec())
            })],
        );
        let mut sim = ledger.simulator();
        sim.put_state("cc", "k", b"new".to_vec());
        assert_eq!(sim.get_state("cc", "k").unwrap(), Some(b"old".to_vec()));
    }

    #[test]
    fn namespaces_are_isolated() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("ns-a", "k", b"a".to_vec());
                sim.put_state("ns-b", "k", b"b".to_vec());
            })],
        );
        assert_eq!(ledger.get_state("ns-a", "k").unwrap(), Some(b"a".to_vec()));
        assert_eq!(ledger.get_state("ns-b", "k").unwrap(), Some(b"b".to_vec()));
        assert_eq!(ledger.get_state("ns-c", "k").unwrap(), None);
        // Scans don't leak across namespaces.
        assert_eq!(ledger.scan_state("ns-a", "", "").unwrap().len(), 1);
    }

    #[test]
    fn invalid_tx_state_not_applied() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v0".to_vec())
            })],
        );
        let e1 = simulate(&ledger, 2, |sim| {
            sim.get_state("cc", "k").unwrap();
            sim.put_state("cc", "k", b"v1".to_vec());
            sim.put_state("cc", "loser-key", b"should-not-exist".to_vec());
        });
        let e2 = simulate(&ledger, 3, |sim| {
            sim.get_state("cc", "k").unwrap();
            sim.put_state("cc", "k", b"v2".to_vec());
            sim.put_state("cc", "loser2", b"nope".to_vec());
        });
        commit_block(&ledger, vec![e2, e1]);
        // e1 lost the conflict: none of its writes are visible.
        assert_eq!(ledger.get_state("cc", "loser-key").unwrap(), None);
        assert_eq!(ledger.get_state("cc", "k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn ledger_keeps_invalid_transactions() {
        // Paper Sec. 3.4: the ledger contains all transactions, including
        // invalid ones, for audit.
        let ledger = Ledger::in_memory();
        let env = simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()));
        commit_block(&ledger, vec![env.clone()]);
        let flags = commit_block(&ledger, vec![env.clone()]);
        assert_eq!(flags, vec![TxValidationCode::DuplicateTxId]);
        let audit_block = ledger.get_block(1).unwrap().unwrap();
        assert_eq!(audit_block.envelopes.len(), 1);
        assert_eq!(
            audit_block.metadata.validation,
            vec![TxValidationCode::DuplicateTxId]
        );
    }

    #[test]
    fn crash_recovery_replays_missing_state() {
        let backend = Arc::new(MemBackend::new());
        let block = {
            let ledger = Ledger::open(backend.clone(), false).unwrap();
            let env = simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()));
            let mut block = Block::new(0, ledger.last_hash(), vec![env]);
            block.metadata.validation = vec![TxValidationCode::Valid];
            block
        };
        // Simulate a crash between block append and state commit: append
        // the block to the block store directly, skipping the PTM.
        {
            let store = BlockStore::open(backend.clone(), false).unwrap();
            store.append(&block).unwrap();
        }
        // Reopen: recovery must replay block 0 into the state.
        let ledger = Ledger::open(backend, false).unwrap();
        assert_eq!(ledger.height(), 1);
        assert_eq!(ledger.get_state("cc", "k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(ledger.ptm().savepoint(), Some(0));
    }

    #[test]
    fn out_of_order_commit_rejected_before_any_write() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v".to_vec())
            })],
        );
        let env = simulate(&ledger, 2, |sim| sim.put_state("cc", "j", b"w".to_vec()));
        let mut skipped = Block::new(5, ledger.last_hash(), vec![env]);
        skipped.metadata.validation = vec![TxValidationCode::Valid];
        assert!(matches!(
            ledger.commit(&skipped),
            Err(LedgerError::OutOfOrder {
                expected: 1,
                got: 5
            })
        ));
        // Nothing was appended or applied.
        assert_eq!(ledger.height(), 1);
        assert_eq!(ledger.get_state("cc", "j").unwrap(), None);
        assert_eq!(ledger.ptm().savepoint(), Some(0));
    }

    #[test]
    fn commit_requires_validation_flags() {
        let ledger = Ledger::in_memory();
        let env = simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()));
        let block = Block::new(0, ledger.last_hash(), vec![env]);
        assert!(matches!(
            ledger.commit(&block),
            Err(LedgerError::MissingValidationFlags)
        ));
    }

    #[test]
    fn key_history_tracks_writes_and_deletes() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v1".to_vec())
            })],
        );
        commit_block(
            &ledger,
            vec![simulate(&ledger, 2, |sim| {
                sim.put_state("cc", "k", b"v2".to_vec())
            })],
        );
        commit_block(
            &ledger,
            vec![simulate(&ledger, 3, |sim| sim.del_state("cc", "k"))],
        );
        let history = ledger.key_history("cc", "k").unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(history[0].version, Version::new(0, 0));
        assert_eq!(history[1].version, Version::new(1, 0));
        assert!(!history[1].is_delete);
        assert!(history[2].is_delete);
        // Chronological order and distinct tx ids.
        assert!(history[0].version < history[1].version);
        assert_ne!(history[0].tx_id, history[1].tx_id);
        // Untouched keys have no history.
        assert!(ledger.key_history("cc", "other").unwrap().is_empty());
    }

    #[test]
    fn invalid_tx_leaves_no_history() {
        let ledger = Ledger::in_memory();
        let env = simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()));
        commit_block(&ledger, vec![env.clone()]);
        // Duplicate is invalid; must not append history.
        commit_block(&ledger, vec![env]);
        assert_eq!(ledger.key_history("cc", "k").unwrap().len(), 1);
    }

    /// A config envelope, as the orderer cuts into its own block.
    fn config_envelope() -> Envelope {
        use fabric_primitives::config::{
            BatchConfig, ChannelConfig, ConfigUpdate, ConsensusType, OrdererConfig,
        };
        Envelope {
            content: EnvelopeContent::Config(ConfigUpdate {
                config: ChannelConfig {
                    channel: ChannelId::new("ch"),
                    sequence: 1,
                    orgs: vec![],
                    orderer: OrdererConfig {
                        consensus: ConsensusType::Solo,
                        addresses: vec![],
                        batch: BatchConfig::default(),
                    },
                    admin_policy: String::new(),
                    writer_policy: String::new(),
                    reader_policy: String::new(),
                },
                signatures: vec![],
            }),
            signature: vec![],
        }
    }

    #[test]
    fn key_history_orders_writes_within_a_block_and_skips_config_blocks() {
        let ledger = Ledger::in_memory();
        // Two blind writes of k in one block: both valid, in tx order.
        let first = simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"a".to_vec()));
        let second = simulate(&ledger, 2, |sim| sim.put_state("cc", "k", b"b".to_vec()));
        let flags = commit_block(&ledger, vec![first, second]);
        assert_eq!(flags, vec![TxValidationCode::Valid; 2]);
        let config_block = ledger.height();
        commit_block(&ledger, vec![config_envelope()]);
        assert_eq!(ledger.last_config(), config_block);
        commit_block(
            &ledger,
            vec![simulate(&ledger, 3, |sim| sim.del_state("cc", "k"))],
        );

        let history = ledger.key_history("cc", "k").unwrap();
        let versions: Vec<Version> = history.iter().map(|e| e.version).collect();
        assert_eq!(
            versions,
            vec![Version::new(0, 0), Version::new(0, 1), Version::new(2, 0)]
        );
        assert_ne!(history[0].tx_id, history[1].tx_id);
        assert_eq!(
            history.iter().map(|e| e.is_delete).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        // The namespace is part of the key.
        assert!(ledger.key_history("other", "k").unwrap().is_empty());
    }

    #[test]
    fn key_history_survives_reopen() {
        let backend = Arc::new(MemBackend::new());
        let (histories, entries) = {
            let ledger = Ledger::open(backend.clone(), false).unwrap();
            for i in 0..5u8 {
                commit_block(
                    &ledger,
                    vec![simulate(&ledger, i + 1, |sim| {
                        sim.put_state("cc", "k", vec![i]);
                        sim.put_state("cc", &format!("j{i}"), vec![i]);
                    })],
                );
                if i == 2 {
                    ledger.checkpoint_state().unwrap();
                }
            }
            let histories: Vec<_> = ["k", "j0", "j4", "absent"]
                .iter()
                .map(|key| ledger.key_history("cc", key).unwrap())
                .collect();
            (histories, ledger.state_entries())
        };
        assert_eq!(histories[0].len(), 5);
        // The reopen replays the two blocks past the checkpoint; the
        // histories, read from the blocks, are unchanged by it.
        let reopened = Ledger::open(backend, false).unwrap();
        for (key, history) in ["k", "j0", "j4", "absent"].iter().zip(&histories) {
            assert_eq!(&reopened.key_history("cc", key).unwrap(), history);
        }
        assert_eq!(reopened.state_entries(), entries);
    }

    /// Commits `blocks` one-key blocks on a fresh ledger over `backend`,
    /// checkpointing after block `checkpoint_at`; returns the blocks.
    fn chain_with_checkpoint(
        backend: &Arc<MemBackend>,
        blocks: u8,
        checkpoint_at: u8,
    ) -> Vec<Block> {
        let ledger = Ledger::open(backend.clone(), false).unwrap();
        for i in 0..blocks {
            commit_block(
                &ledger,
                vec![simulate(&ledger, i + 1, |sim| {
                    sim.put_state("cc", &format!("k{i}"), vec![i])
                })],
            );
            if i == checkpoint_at {
                ledger.checkpoint_state().unwrap();
            }
        }
        (0..u64::from(blocks))
            .map(|n| ledger.get_block(n).unwrap().unwrap())
            .collect()
    }

    #[test]
    fn state_ahead_of_its_chain_is_corrupt() {
        let backend = Arc::new(MemBackend::new());
        let blocks = chain_with_checkpoint(&backend, 4, 2);
        // Cut blocks.dat inside block 2: the checkpoint (savepoint 2)
        // is now ahead of a chain of height 2.
        let block_bytes = |n: usize| 8 + blocks[n].to_wire().len() as u64;
        let cut = block_bytes(0) + block_bytes(1) + 5;
        let ahead = backend.deep_clone();
        ahead.open("blocks.dat").unwrap().truncate(cut).unwrap();
        assert!(matches!(
            Ledger::open(Arc::new(ahead), false),
            Err(LedgerError::Corrupt)
        ));
        // An empty block store under a non-empty state, likewise.
        let emptied = backend.deep_clone();
        emptied.open("blocks.dat").unwrap().truncate(0).unwrap();
        assert!(matches!(
            Ledger::open(Arc::new(emptied), false),
            Err(LedgerError::Corrupt)
        ));
        // Cut inside block 3, past the checkpoint: a committed prefix.
        let cut = cut - 5 + block_bytes(2) + 5;
        let behind = backend.deep_clone();
        behind.open("blocks.dat").unwrap().truncate(cut).unwrap();
        let ledger = Ledger::open(Arc::new(behind), false).unwrap();
        assert_eq!(ledger.height(), 3);
        assert_eq!(ledger.ptm().savepoint(), Some(2));
        assert_eq!(ledger.get_state("cc", "k3").unwrap(), None);
    }

    enum Event {
        Parked,
        Committed,
    }

    /// Shared by a [`ParkingBackend`] and its files: once armed, every
    /// `sync` reports [`Event::Parked`] and waits on the barrier until the
    /// test releases it.
    struct Park {
        armed: AtomicBool,
        events: mpsc::Sender<Event>,
        barrier: Barrier,
    }

    struct ParkingBackend {
        inner: MemBackend,
        park: Arc<Park>,
    }

    struct ParkingFile {
        inner: Box<dyn BackendFile>,
        park: Arc<Park>,
    }

    impl Backend for ParkingBackend {
        fn open(&self, name: &str) -> Result<Box<dyn BackendFile>, StoreError> {
            Ok(Box::new(ParkingFile {
                inner: self.inner.open(name)?,
                park: self.park.clone(),
            }))
        }
        fn exists(&self, name: &str) -> Result<bool, StoreError> {
            self.inner.exists(name)
        }
        fn remove(&self, name: &str) -> Result<(), StoreError> {
            self.inner.remove(name)
        }
        fn rename(&self, src: &str, dst: &str) -> Result<(), StoreError> {
            self.inner.rename(src, dst)
        }
    }

    impl BackendFile for ParkingFile {
        fn append(&mut self, data: &[u8]) -> Result<u64, StoreError> {
            self.inner.append(data)
        }
        fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
            self.inner.read_at(offset, len)
        }
        fn read_at_shared(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
            self.inner.read_at_shared(offset, len)
        }
        fn len(&mut self) -> Result<u64, StoreError> {
            self.inner.len()
        }
        fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
            self.inner.truncate(len)
        }
        fn sync(&mut self) -> Result<(), StoreError> {
            if self.park.armed.load(Ordering::SeqCst) {
                self.park.events.send(Event::Parked).unwrap();
                self.park.barrier.wait();
            }
            self.inner.sync()
        }
    }

    /// Runs `read` on its own thread and waits at most five seconds for it,
    /// so a read blocked behind storage I/O fails the test instead of
    /// hanging it.
    fn completes<T: Send + 'static>(
        read: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, mpsc::RecvTimeoutError> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(read()));
        rx.recv_timeout(Duration::from_secs(5))
    }

    #[test]
    fn reads_complete_while_a_commit_waits_on_storage() {
        let (events, parked) = mpsc::channel();
        let park = Arc::new(Park {
            armed: AtomicBool::new(false),
            events: events.clone(),
            barrier: Barrier::new(2),
        });
        let backend = Arc::new(ParkingBackend {
            inner: MemBackend::new(),
            park: park.clone(),
        });
        let ledger = Arc::new(Ledger::open(backend, true).unwrap());
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                sim.put_state("cc", "k", b"v0".to_vec())
            })],
        );
        let root_before = ledger.state_root();
        let tip_before = (ledger.height(), ledger.last_hash());
        let tx0 = ledger.get_block(0).unwrap().unwrap().envelopes[0].tx_id();
        let env = simulate(&ledger, 2, |sim| sim.put_state("cc", "k", b"v1".to_vec()));
        let mut block = Block::new(ledger.height(), ledger.last_hash(), vec![env]);
        block.metadata.validation = vec![TxValidationCode::Valid];

        park.armed.store(true, Ordering::SeqCst);
        let committer = {
            let ledger = ledger.clone();
            thread::spawn(move || {
                ledger.commit(&block).unwrap();
                events.send(Event::Committed).unwrap();
            })
        };
        let mut parks = 0;
        loop {
            let event = parked
                .recv_timeout(Duration::from_secs(10))
                .expect("the commit neither parked nor finished");
            if let Event::Committed = event {
                break;
            }
            parks += 1;
            let reads = (
                completes({
                    let ledger = ledger.clone();
                    move || ledger.get_state("cc", "k").unwrap()
                }),
                completes({
                    let ledger = ledger.clone();
                    move || ledger.simulator().get_state("cc", "k").unwrap()
                }),
                completes({
                    let ledger = ledger.clone();
                    move || ledger.state_root()
                }),
                completes({
                    let ledger = ledger.clone();
                    move || (ledger.height(), ledger.last_hash())
                }),
                completes({
                    let ledger = ledger.clone();
                    move || ledger.contains_tx(&tx0)
                }),
                completes({
                    let ledger = ledger.clone();
                    move || ledger.get_block(0).unwrap()
                }),
            );
            // Release the sync before judging, so a failure unwinds
            // instead of leaving the committer parked.
            park.barrier.wait();
            let (get, simulated, root, tip, seen, block0) = reads;
            let get = get.expect("get_state waited on a sync");
            let simulated = simulated.expect("a simulator read waited on a sync");
            let root = root.expect("state_root waited on a sync");
            let tip = tip.expect("height or last_hash waited on a sync");
            let seen = seen.expect("contains_tx waited on a sync");
            let block0 = block0.expect("get_block waited on a sync");
            // Parked before the state moved: every read sees block 0's.
            assert_eq!(get, Some(b"v0".to_vec()));
            assert_eq!(simulated, Some(b"v0".to_vec()));
            assert_eq!(root, root_before);
            assert_eq!(tip, tip_before);
            assert!(seen);
            assert_eq!(block0.map(|b| b.header.number), Some(0));
        }
        committer.join().unwrap();
        assert!(parks >= 1, "the block store syncs the append");
        assert_eq!(ledger.get_state("cc", "k").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn state_holds_live_keys_not_history() {
        let backend = Arc::new(MemBackend::new());
        let ledger = Ledger::open(backend.clone(), false).unwrap();
        // 200 blocks overwrite the same 10 keys; the last deletes k3.
        for round in 0..200u8 {
            let env = simulate(&ledger, round, |sim| {
                for k in 0..10 {
                    if round == 199 && k == 3 {
                        sim.del_state("cc", &format!("k{k}"));
                    } else {
                        sim.put_state("cc", &format!("k{k}"), vec![round]);
                    }
                }
            });
            assert_eq!(
                commit_block(&ledger, vec![env]),
                vec![TxValidationCode::Valid]
            );
        }
        let mut expected: Vec<Vec<u8>> = (0..10)
            .filter(|&k| k != 3)
            .map(|k| format!("s/cc\0k{k}").into_bytes())
            .collect();
        expected.push(b"m/savepoint".to_vec());
        expected.sort();
        let keys = |l: &Ledger| -> Vec<Vec<u8>> {
            l.state_entries().into_iter().map(|(k, _)| k).collect()
        };
        assert_eq!(keys(&ledger), expected);
        assert_eq!(ledger.key_history("cc", "k3").unwrap().len(), 200);
        drop(ledger);
        let reopened = Ledger::open(backend, false).unwrap();
        assert_eq!(keys(&reopened), expected);
    }

    #[test]
    fn snapshot_install_reproduces_state_and_resumes_chain() {
        // Build a source ledger with a few blocks of state.
        let source = Ledger::in_memory();
        for i in 0..4u8 {
            commit_block(
                &source,
                vec![simulate(&source, i + 1, |sim| {
                    sim.put_state("cc", &format!("k{i}"), vec![i]);
                })],
            );
        }
        let height = source.height();
        let tip = source.last_hash();
        let entries = source.state_entries();

        // Install into a fresh ledger; kvstore must be byte-identical.
        let backend = Arc::new(MemBackend::new());
        let target = Ledger::open(backend.clone(), false).unwrap();
        target
            .install_snapshot(height, tip, source.last_config(), &entries)
            .unwrap();
        assert_eq!(target.height(), height);
        assert_eq!(target.ptm().savepoint(), Some(height - 1));
        assert_eq!(target.state_entries(), entries, "byte-identical kvstore");
        assert_eq!(target.get_state("cc", "k2").unwrap(), Some(vec![2u8]));
        // History lives in the blocks, and the target joined above k0's
        // write: it has none of it.
        assert_eq!(source.key_history("cc", "k0").unwrap().len(), 1);
        assert!(target.key_history("cc", "k0").unwrap().is_empty());

        // The chain resumes where the snapshot left off.
        let env = simulate(&source, 9, |sim| sim.put_state("cc", "post", b"1".to_vec()));
        let mut block = Block::new(height, tip, vec![env]);
        block.metadata.validation = vec![TxValidationCode::Valid];
        source.commit(&block).unwrap();
        target.commit(&block).unwrap();
        assert_eq!(target.height(), source.height());
        assert_eq!(target.last_hash(), source.last_hash());
        assert_eq!(target.state_entries(), source.state_entries());
        // A write above the base is in both ledgers' history.
        let post = source.key_history("cc", "post").unwrap();
        assert_eq!(post.len(), 1);
        assert_eq!(post[0].version, Version::new(height, 0));
        assert_eq!(target.key_history("cc", "post").unwrap(), post);

        // Reopen survives: recovery must not try to replay pruned blocks.
        drop(target);
        let reopened = Ledger::open(backend, false).unwrap();
        assert_eq!(reopened.height(), source.height());
        assert_eq!(reopened.state_entries(), source.state_entries());
    }

    #[test]
    fn snapshot_install_survives_reopen() {
        let source = Ledger::in_memory();
        for i in 0..4u8 {
            commit_block(
                &source,
                vec![simulate(&source, i + 1, |sim| {
                    sim.put_state("cc", &format!("k{i}"), vec![i]);
                })],
            );
        }
        let backend = Arc::new(MemBackend::new());
        let target = Ledger::open(backend.clone(), false).unwrap();
        target
            .install_snapshot(
                source.height(),
                source.last_hash(),
                source.last_config(),
                &source.state_entries(),
            )
            .unwrap();
        let view = |l: &Ledger| (l.height(), l.last_hash(), l.state_entries(), l.state_root());
        let installed = view(&target);
        drop(target);

        // Right after the install: no block to replay, the checkpoint is
        // the whole state.
        let target = Ledger::open(backend.clone(), false).unwrap();
        assert_eq!(view(&target), installed);
        assert_eq!(view(&target), view(&source));

        // Three more blocks, then a reopen that replays them over it.
        for i in 4..7u8 {
            let env = simulate(&source, i + 1, |sim| {
                sim.put_state("cc", &format!("k{i}"), vec![i]);
                sim.del_state("cc", "k0");
            });
            let mut block = Block::new(source.height(), source.last_hash(), vec![env]);
            block.metadata.validation = vec![TxValidationCode::Valid];
            source.commit(&block).unwrap();
            target.commit(&block).unwrap();
        }
        let before = view(&target);
        assert_eq!(before, view(&source));
        drop(target);
        let target = Ledger::open(backend, false).unwrap();
        assert_eq!(view(&target), before);
        assert_eq!(target.get_state("cc", "k0").unwrap(), None);
    }

    #[test]
    fn snapshot_install_rejected_on_nonempty_or_mismatched() {
        let source = Ledger::in_memory();
        commit_block(
            &source,
            vec![simulate(&source, 1, |sim| {
                sim.put_state("cc", "k", b"v".to_vec())
            })],
        );
        let entries = source.state_entries();

        // Non-empty target.
        let busy = Ledger::in_memory();
        commit_block(
            &busy,
            vec![simulate(&busy, 2, |sim| {
                sim.put_state("cc", "x", b"y".to_vec())
            })],
        );
        assert!(matches!(
            busy.install_snapshot(1, source.last_hash(), 0, &entries),
            Err(LedgerError::Snapshot(_))
        ));

        // Height that disagrees with the snapshot's own savepoint: nothing
        // is written, and block 0 commits as on a fresh ledger.
        let target = Ledger::in_memory();
        assert!(matches!(
            target.install_snapshot(7, source.last_hash(), 0, &entries),
            Err(LedgerError::Snapshot(_))
        ));
        assert_eq!(target.state_entries(), vec![]);
        assert_eq!(target.ptm().savepoint(), None);
        let fresh = Ledger::in_memory();
        for ledger in [&target, &fresh] {
            commit_block(
                ledger,
                vec![simulate(ledger, 3, |sim| {
                    sim.put_state("cc", "other", b"w".to_vec())
                })],
            );
        }
        assert_eq!(target.state_entries(), fresh.state_entries());
        assert_eq!(target.state_root(), fresh.state_root());
    }

    #[test]
    fn scan_state_range_bounds() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| {
                for k in ["a", "b", "c", "d"] {
                    sim.put_state("cc", k, k.as_bytes().to_vec());
                }
            })],
        );
        assert_eq!(ledger.scan_state("cc", "b", "d").unwrap().len(), 2);
        assert_eq!(ledger.scan_state("cc", "", "").unwrap().len(), 4);
        assert_eq!(ledger.scan_state("cc", "c", "").unwrap().len(), 2);
    }
}
