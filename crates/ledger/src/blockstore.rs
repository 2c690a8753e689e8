//! The append-only block store (paper Sec. 4.4).
//!
//! Blocks are immutable and arrive in a definite order, so the store is a
//! single append-only file of CRC-framed records plus in-memory indices for
//! random access by block number and by transaction id. The indices are
//! rebuilt by scanning the file on open; a torn tail (crash mid-append) is
//! truncated.
//!
//! A store normally begins at block 0 (the genesis config block). A peer
//! that joins a channel from a state snapshot instead **rebases** the
//! store: a small CRC-framed base record (`blocks.base`) pins the height
//! the snapshot covers, the hash of the last pruned block, and the number
//! of the most recent config block, and the chain then continues from
//! there — blocks `0..base` are not stored.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use fabric_crypto::Digest;
use fabric_kvstore::backend::{Backend, BackendFile};
use fabric_kvstore::log;
use fabric_primitives::block::Block;
use fabric_primitives::ids::TxId;
use fabric_primitives::wire::{Decoder, Encoder, Wire};

use crate::LedgerError;

const BLOCKS_FILE: &str = "blocks.dat";
const BASE_FILE: &str = "blocks.base";

/// Location of a transaction: block number and index within the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxLocation {
    /// The containing block's number.
    pub block_num: u64,
    /// The transaction's index within the block.
    pub tx_index: u32,
}

struct Index {
    /// Number of pruned blocks below the first stored one (0 unless the
    /// store was rebased onto a state snapshot).
    base: u64,
    /// Byte offset and length of each block record, by `number - base`.
    blocks: Vec<(u64, usize)>,
    /// Transaction id → location (retained blocks only).
    txs: HashMap<TxId, TxLocation>,
    /// Hash of the last appended block's header (for a freshly rebased
    /// store: the hash recorded in the base record).
    last_hash: Digest,
    /// Number of the most recent config block (0 = genesis).
    last_config: u64,
}

/// Persistent, indexed storage of the block chain.
pub struct BlockStore {
    file: Mutex<Box<dyn BackendFile>>,
    /// Dedicated read handle: block fetches use positioned shared reads and
    /// never contend with appends on the writer lock.
    reader: Box<dyn BackendFile>,
    base_file: Mutex<Box<dyn BackendFile>>,
    index: RwLock<Index>,
    sync_writes: bool,
}

fn encode_base(base: u64, hash: &Digest, last_config: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(base);
    enc.put_raw(hash);
    enc.put_u64(last_config);
    enc.finish()
}

fn decode_base(payload: &[u8]) -> Result<(u64, Digest, u64), LedgerError> {
    let mut dec = Decoder::new(payload);
    let parse = |dec: &mut Decoder<'_>| {
        let base = dec.get_u64()?;
        let hash = dec.get_array32()?;
        let last_config = dec.get_u64()?;
        dec.expect_end()?;
        Ok::<_, fabric_primitives::wire::WireError>((base, hash, last_config))
    };
    parse(&mut dec).map_err(|_| LedgerError::Corrupt)
}

impl BlockStore {
    /// Opens a block store, scanning existing blocks to rebuild indices.
    pub fn open(backend: Arc<dyn Backend>, sync_writes: bool) -> Result<Self, LedgerError> {
        let mut base_file = backend.open(BASE_FILE)?;
        let (base_records, base_good) = log::read_all(base_file.as_mut())?;
        if base_good < base_file.len()? {
            base_file.truncate(base_good)?;
        }
        let (base, base_hash, base_config) = match base_records.last() {
            Some(payload) => decode_base(payload)?,
            None => (0, [0u8; 32], 0),
        };
        let mut file = backend.open(BLOCKS_FILE)?;
        let (records, good_end) = log::read_all(file.as_mut())?;
        if good_end < file.len()? {
            file.truncate(good_end)?;
        }
        let mut index = Index {
            base,
            blocks: Vec::with_capacity(records.len()),
            txs: HashMap::new(),
            last_hash: base_hash,
            last_config: base_config,
        };
        let mut offset = 0u64;
        for (i, payload) in records.iter().enumerate() {
            let block = Block::from_wire(payload).map_err(|_| LedgerError::Corrupt)?;
            if block.header.number != base + i as u64 {
                return Err(LedgerError::Corrupt);
            }
            Self::index_block(&mut index, &block, offset, payload.len());
            offset += 8 + payload.len() as u64;
        }
        let reader = backend.open(BLOCKS_FILE)?;
        Ok(BlockStore {
            file: Mutex::new(file),
            reader,
            base_file: Mutex::new(base_file),
            index: RwLock::new(index),
            sync_writes,
        })
    }

    /// Rebases an **empty** store so the chain starts at `base` instead of
    /// 0: blocks `0..base` are declared pruned, the next append must carry
    /// number `base` and chain onto `base_hash` (the hash of block
    /// `base - 1`, as bound by a verified snapshot manifest). Part of the
    /// snapshot-install protocol — see `Ledger::install_snapshot`.
    pub fn rebase(
        &self,
        base: u64,
        base_hash: Digest,
        last_config: u64,
    ) -> Result<(), LedgerError> {
        let mut base_file = self.base_file.lock();
        let mut index = self.index.write();
        if index.base != 0 || !index.blocks.is_empty() {
            return Err(LedgerError::Snapshot(format!(
                "rebase requires an empty block store (base {}, {} blocks held)",
                index.base,
                index.blocks.len()
            )));
        }
        if base == 0 {
            return Err(LedgerError::Snapshot("rebase to height 0".into()));
        }
        log::append_record(
            base_file.as_mut(),
            &encode_base(base, &base_hash, last_config),
        )?;
        if self.sync_writes {
            base_file.sync()?;
        }
        index.base = base;
        index.last_hash = base_hash;
        index.last_config = last_config;
        Ok(())
    }

    /// Number of pruned blocks below the first stored one (0 unless the
    /// store was rebased onto a snapshot).
    pub fn base(&self) -> u64 {
        self.index.read().base
    }

    fn index_block(index: &mut Index, block: &Block, offset: u64, len: usize) {
        for (i, env) in block.envelopes.iter().enumerate() {
            index.txs.insert(
                env.tx_id(),
                TxLocation {
                    block_num: block.header.number,
                    tx_index: i as u32,
                },
            );
        }
        if block.is_config_block() {
            index.last_config = block.header.number;
        }
        index.last_hash = block.hash();
        index.blocks.push((offset, len));
    }

    /// Appends the next block.
    ///
    /// The block's number must equal the current height and its
    /// previous-hash must match the last appended block (the "no skipping" /
    /// "hash chain integrity" properties are enforced at the storage
    /// boundary too).
    pub fn append(&self, block: &Block) -> Result<(), LedgerError> {
        let payload = block.to_wire();
        let mut file = self.file.lock();
        let mut index = self.index.write();
        let height = index.base + index.blocks.len() as u64;
        if block.header.number != height {
            return Err(LedgerError::OutOfOrder {
                expected: height,
                got: block.header.number,
            });
        }
        if height > 0 && block.header.previous_hash != index.last_hash {
            return Err(LedgerError::HashChainBroken(block.header.number));
        }
        let offset = log::append_record(file.as_mut(), &payload)?;
        if self.sync_writes {
            file.sync()?;
        }
        Self::index_block(&mut index, block, offset, payload.len());
        Ok(())
    }

    /// Current chain height (pruned base + number of blocks stored).
    pub fn height(&self) -> u64 {
        let index = self.index.read();
        index.base + index.blocks.len() as u64
    }

    /// Hash of the most recently appended block header (zeroes if empty).
    pub fn last_hash(&self) -> Digest {
        self.index.read().last_hash
    }

    /// Number of the most recent configuration block.
    pub fn last_config(&self) -> u64 {
        self.index.read().last_config
    }

    /// Reads block `number`, or `None` past the current height or below
    /// the rebased base (pruned blocks are gone).
    pub fn get_block(&self, number: u64) -> Result<Option<Block>, LedgerError> {
        let (offset, len) = {
            let index = self.index.read();
            let Some(slot) = number.checked_sub(index.base) else {
                return Ok(None);
            };
            match index.blocks.get(slot as usize) {
                Some(&loc) => loc,
                None => return Ok(None),
            }
        };
        let payload = self.reader.read_at_shared(offset + 8, len)?;
        let block = Block::from_wire(&payload).map_err(|_| LedgerError::Corrupt)?;
        Ok(Some(block))
    }

    /// Looks up the location of a transaction by id.
    pub fn tx_location(&self, tx_id: &TxId) -> Option<TxLocation> {
        self.index.read().txs.get(tx_id).copied()
    }

    /// Returns `true` if a transaction id has already been committed.
    pub fn contains_tx(&self, tx_id: &TxId) -> bool {
        self.index.read().txs.contains_key(tx_id)
    }

    /// Reads the block containing `tx_id`, if any.
    pub fn get_block_by_tx(&self, tx_id: &TxId) -> Result<Option<Block>, LedgerError> {
        match self.tx_location(tx_id) {
            Some(loc) => self.get_block(loc.block_num),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_kvstore::MemBackend;
    use fabric_primitives::block::Block;
    use fabric_primitives::ids::{ChaincodeId, ChannelId, SerializedIdentity};
    use fabric_primitives::rwset::TxReadWriteSet;
    use fabric_primitives::transaction::{
        ChaincodeResponse, Envelope, EnvelopeContent, ProposalPayload, ProposalResponsePayload,
        Transaction,
    };

    fn envelope(n: u8) -> Envelope {
        let creator = SerializedIdentity::new("Org1MSP", vec![n; 16]);
        let tx = Transaction {
            channel: ChannelId::new("ch"),
            creator: creator.clone(),
            nonce: [n; 32],
            proposal_payload: ProposalPayload {
                chaincode: ChaincodeId::new("cc", "1"),
                function: "f".into(),
                args: vec![],
            },
            response_payload: ProposalResponsePayload {
                tx_id: TxId::derive(&creator.to_wire(), &[n; 32]),
                chaincode: ChaincodeId::new("cc", "1"),
                rwset: TxReadWriteSet::default(),
                response: ChaincodeResponse::ok(vec![]),
            },
            endorsements: vec![],
        };
        Envelope {
            content: EnvelopeContent::Transaction(tx),
            signature: vec![],
        }
    }

    fn chain_of(n: u64) -> (Arc<MemBackend>, BlockStore, Vec<Block>) {
        let backend = Arc::new(MemBackend::new());
        let store = BlockStore::open(backend.clone(), false).unwrap();
        let mut blocks = Vec::new();
        let mut prev = [0u8; 32];
        for i in 0..n {
            let block = Block::new(i, prev, vec![envelope(i as u8), envelope(i as u8 + 100)]);
            prev = block.hash();
            store.append(&block).unwrap();
            blocks.push(block);
        }
        (backend, store, blocks)
    }

    #[test]
    fn append_and_read() {
        let (_, store, blocks) = chain_of(5);
        assert_eq!(store.height(), 5);
        for (i, expected) in blocks.iter().enumerate() {
            assert_eq!(&store.get_block(i as u64).unwrap().unwrap(), expected);
        }
        assert!(store.get_block(5).unwrap().is_none());
    }

    #[test]
    fn out_of_order_rejected() {
        let (_, store, _) = chain_of(2);
        let bad = Block::new(5, store.last_hash(), vec![]);
        assert!(matches!(
            store.append(&bad),
            Err(LedgerError::OutOfOrder {
                expected: 2,
                got: 5
            })
        ));
    }

    #[test]
    fn broken_hash_chain_rejected() {
        let (_, store, _) = chain_of(2);
        let bad = Block::new(2, [9u8; 32], vec![]);
        assert!(matches!(
            store.append(&bad),
            Err(LedgerError::HashChainBroken(2))
        ));
    }

    #[test]
    fn tx_index() {
        let (_, store, blocks) = chain_of(3);
        let tx_id = blocks[1].envelopes[1].tx_id();
        let loc = store.tx_location(&tx_id).unwrap();
        assert_eq!(loc.block_num, 1);
        assert_eq!(loc.tx_index, 1);
        assert!(store.contains_tx(&tx_id));
        let block = store.get_block_by_tx(&tx_id).unwrap().unwrap();
        assert_eq!(block.header.number, 1);
        assert!(!store.contains_tx(&envelope(250).tx_id()));
    }

    #[test]
    fn reopen_rebuilds_index() {
        let (backend, store, blocks) = chain_of(4);
        let last = store.last_hash();
        drop(store);
        let store = BlockStore::open(backend, false).unwrap();
        assert_eq!(store.height(), 4);
        assert_eq!(store.last_hash(), last);
        let tx_id = blocks[3].envelopes[0].tx_id();
        assert_eq!(store.tx_location(&tx_id).unwrap().block_num, 3);
        // Chain can be extended after reopen.
        let next = Block::new(4, last, vec![envelope(42)]);
        store.append(&next).unwrap();
        assert_eq!(store.height(), 5);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let (backend, store, _) = chain_of(2);
        drop(store);
        {
            let mut f = backend.open("blocks.dat").unwrap();
            f.append(&[1, 2, 3]).unwrap(); // garbage tail
        }
        let store = BlockStore::open(backend, false).unwrap();
        assert_eq!(store.height(), 2);
        let next = Block::new(2, store.last_hash(), vec![envelope(9)]);
        store.append(&next).unwrap();
        assert_eq!(store.height(), 3);
    }

    #[test]
    fn empty_store() {
        let backend = Arc::new(MemBackend::new());
        let store = BlockStore::open(backend, false).unwrap();
        assert_eq!(store.height(), 0);
        assert_eq!(store.last_hash(), [0u8; 32]);
        assert!(store.get_block(0).unwrap().is_none());
    }

    #[test]
    fn rebase_starts_chain_mid_stream() {
        let backend = Arc::new(MemBackend::new());
        let store = BlockStore::open(backend.clone(), false).unwrap();
        let snapshot_tip = [7u8; 32]; // hash of pruned block 4
        store.rebase(5, snapshot_tip, 3).unwrap();
        assert_eq!(store.height(), 5);
        assert_eq!(store.base(), 5);
        assert_eq!(store.last_config(), 3);
        assert!(store.get_block(0).unwrap().is_none(), "pruned");
        assert!(store.get_block(4).unwrap().is_none(), "pruned");

        // The next append must be block 5 chaining onto the base hash.
        let wrong = Block::new(5, [9u8; 32], vec![envelope(1)]);
        assert!(matches!(
            store.append(&wrong),
            Err(LedgerError::HashChainBroken(5))
        ));
        let early = Block::new(0, [0u8; 32], vec![envelope(1)]);
        assert!(matches!(
            store.append(&early),
            Err(LedgerError::OutOfOrder {
                expected: 5,
                got: 0
            })
        ));
        let b5 = Block::new(5, snapshot_tip, vec![envelope(1)]);
        store.append(&b5).unwrap();
        let b6 = Block::new(6, b5.hash(), vec![envelope(2)]);
        store.append(&b6).unwrap();
        assert_eq!(store.height(), 7);
        assert_eq!(store.get_block(6).unwrap().unwrap(), b6);
        let loc = store.tx_location(&b6.envelopes[0].tx_id()).unwrap();
        assert_eq!(loc.block_num, 6);

        // The base survives reopen.
        drop(store);
        let store = BlockStore::open(backend, false).unwrap();
        assert_eq!(store.base(), 5);
        assert_eq!(store.height(), 7);
        assert_eq!(store.get_block(5).unwrap().unwrap(), b5);
        assert!(store.get_block(2).unwrap().is_none());
        let b7 = Block::new(7, store.last_hash(), vec![envelope(3)]);
        store.append(&b7).unwrap();
    }

    #[test]
    fn rebase_rejected_on_nonempty_store() {
        let (_, store, _) = chain_of(2);
        assert!(matches!(
            store.rebase(5, [1u8; 32], 0),
            Err(LedgerError::Snapshot(_))
        ));
        let backend = Arc::new(MemBackend::new());
        let empty = BlockStore::open(backend, false).unwrap();
        empty.rebase(3, [1u8; 32], 0).unwrap();
        assert!(
            matches!(empty.rebase(4, [1u8; 32], 0), Err(LedgerError::Snapshot(_))),
            "double rebase rejected"
        );
    }
}
