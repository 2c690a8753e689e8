//! The combined ledger: block store + PTM with crash recovery.
//!
//! Commit protocol (paper Sec. 4.4): the block — with its validation flags
//! already recorded in the metadata — is first appended to the block store
//! and flushed; then the PTM applies the state changes of valid
//! transactions together with the `savepoint` in one atomic batch. On open,
//! any gap between the block store height and the savepoint is replayed,
//! which is safe because state commits are idempotent.

use std::sync::Arc;

use fabric_kvstore::backend::Backend;
use fabric_kvstore::{MemBackend, StateStore, WriteBatch};
use fabric_primitives::block::Block;
use fabric_primitives::ids::{TxId, TxValidationCode};

use crate::blockstore::{BlockStore, TxLocation};
use crate::ptm::{Ptm, TxSimulator};
use crate::LedgerError;

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
        let store = StateStore::open(backend, sync_writes)?;
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
    fn recover(&self) -> Result<(), LedgerError> {
        let height = self.blocks.height();
        if height == 0 {
            return Ok(());
        }
        let start = match self.ptm.savepoint() {
            Some(sp) => sp + 1,
            None => 0,
        };
        // A rebased store holds no blocks below `base`; their state came
        // from the snapshot (whose savepoint is `base - 1`), so replay can
        // never be asked to start below it on an intact ledger.
        let start = start.max(self.blocks.base());
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

    /// Chronological write history of a state key (valid txs only).
    pub fn key_history(
        &self,
        ns: &str,
        key: &str,
    ) -> Result<Vec<crate::ptm::HistoryEntry>, LedgerError> {
        self.ptm.history(ns, key)
    }

    /// A point-in-time dump of the *entire* state database — world state,
    /// history index, and the savepoint — as raw `(key, value)` pairs in
    /// key order. This is the payload a state snapshot carries: installing
    /// exactly these pairs reproduces the kvstore byte-for-byte.
    pub fn state_entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.ptm.store().snapshot().scan(b"", b"")
    }

    /// Installs a verified state snapshot into an **empty** ledger: the
    /// state database is atomically replaced by `entries` (one write
    /// batch, so a crash leaves either the old or the new state), and the
    /// block store is rebased so the chain resumes at `height`.
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
        // The snapshot's own savepoint key must agree with the manifest
        // height, or recovery arithmetic would diverge from the chain.
        if self.ptm.savepoint() != Some(height - 1) {
            return Err(LedgerError::Snapshot(format!(
                "snapshot savepoint {:?} does not match height {height}",
                self.ptm.savepoint()
            )));
        }
        self.blocks.rebase(height, block_hash, last_config)
    }

    /// The incremental Merkle root over the whole state database — O(1),
    /// maintained by the state store on every commit. Two ledgers with
    /// byte-identical state report the same root regardless of backend.
    pub fn state_root(&self) -> fabric_crypto::Digest {
        self.ptm.store().state_root()
    }

    /// Durably checkpoints the state database (snapshot-consistent; it
    /// does not block commits for the duration).
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

    /// Direct access to the block store.
    pub fn block_store(&self) -> &BlockStore {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v0".to_vec()))],
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v0".to_vec()))],
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
        assert_eq!(ledger.get_state("cc", "k").unwrap(), Some(b"fresh".to_vec()));
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()))],
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()))],
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
            vec![simulate(&ledger, 3, |sim| sim.put_state("cc", "b", b"2".to_vec()))],
        );
        let flags = commit_block(&ledger, vec![ranged]);
        assert_eq!(flags, vec![TxValidationCode::PhantomReadConflict]);
    }

    #[test]
    fn range_query_stable_when_untouched() {
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "a", b"1".to_vec()))],
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "a", b"1".to_vec()))],
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
            vec![TxValidationCode::Valid, TxValidationCode::PhantomReadConflict]
        );
    }

    #[test]
    fn simulator_does_not_read_own_writes() {
        // Fabric semantics: GetState after PutState in the same simulation
        // returns the committed value, not the pending write.
        let ledger = Ledger::in_memory();
        commit_block(
            &ledger,
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"old".to_vec()))],
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v0".to_vec()))],
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()))],
        );
        let env = simulate(&ledger, 2, |sim| sim.put_state("cc", "j", b"w".to_vec()));
        let mut skipped = Block::new(5, ledger.last_hash(), vec![env]);
        skipped.metadata.validation = vec![TxValidationCode::Valid];
        assert!(matches!(
            ledger.commit(&skipped),
            Err(LedgerError::OutOfOrder { expected: 1, got: 5 })
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
            vec![simulate(&ledger, 1, |sim| sim.put_state("cc", "k", b"v1".to_vec()))],
        );
        commit_block(
            &ledger,
            vec![simulate(&ledger, 2, |sim| sim.put_state("cc", "k", b"v2".to_vec()))],
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
        // History came along with the snapshot.
        assert_eq!(target.key_history("cc", "k0").unwrap().len(), 1);

        // The chain resumes where the snapshot left off.
        let env = simulate(&source, 9, |sim| sim.put_state("cc", "post", b"1".to_vec()));
        let mut block = Block::new(height, tip, vec![env]);
        block.metadata.validation = vec![TxValidationCode::Valid];
        source.commit(&block).unwrap();
        target.commit(&block).unwrap();
        assert_eq!(target.height(), source.height());
        assert_eq!(target.last_hash(), source.last_hash());
        assert_eq!(target.state_entries(), source.state_entries());

        // Reopen survives: recovery must not try to replay pruned blocks.
        drop(target);
        let reopened = Ledger::open(backend, false).unwrap();
        assert_eq!(reopened.height(), source.height());
        assert_eq!(reopened.state_entries(), source.state_entries());
    }

    #[test]
    fn snapshot_install_rejected_on_nonempty_or_mismatched() {
        let source = Ledger::in_memory();
        commit_block(
            &source,
            vec![simulate(&source, 1, |sim| sim.put_state("cc", "k", b"v".to_vec()))],
        );
        let entries = source.state_entries();

        // Non-empty target.
        let busy = Ledger::in_memory();
        commit_block(
            &busy,
            vec![simulate(&busy, 2, |sim| sim.put_state("cc", "x", b"y".to_vec()))],
        );
        assert!(matches!(
            busy.install_snapshot(1, source.last_hash(), 0, &entries),
            Err(LedgerError::Snapshot(_))
        ));

        // Height that disagrees with the snapshot's own savepoint.
        let target = Ledger::in_memory();
        assert!(matches!(
            target.install_snapshot(7, source.last_hash(), 0, &entries),
            Err(LedgerError::Snapshot(_))
        ));
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
