//! Kill-at-every-offset crash battery for the ledger's one log, the block
//! store.
//!
//! Model: the state store writes nothing per commit; it reopens at its
//! last checkpoint, and the ledger replays the blocks past that
//! checkpoint's savepoint. A crash may lose any **suffix** of
//! `blocks.dat` that was not yet synced, and may leave the Merkle bucket
//! file (pure acceleration) torn or stale. Blocks are synced before the
//! state moves and a checkpoint is synced and renamed before it counts,
//! so a `blocks.dat` cut below the checkpoint's savepoint is not a crash
//! but damage: the state is then ahead of its chain, and open must say
//! so instead of building new blocks on it.
//!
//! The battery commits a scripted chain with an oracle of the state after
//! each block and a checkpoint part-way, photographs the "disk" with
//! `MemBackend::deep_clone`, damages one file at every byte offset,
//! reopens, and checks that the ledger lands **exactly** on a committed
//! prefix of the chain, that its state equals the oracle's at that height,
//! that its incremental Merkle root matches a full recomputation, and
//! that it accepts the next block.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric_crypto::Digest;
use fabric_kvstore::merkle::root_of_entries;
use fabric_kvstore::{Backend, MemBackend};
use fabric_ledger::{Ledger, LedgerError};
use fabric_primitives::block::Block;
use fabric_primitives::ids::{ChaincodeId, ChannelId, SerializedIdentity, TxId, TxValidationCode};
use fabric_primitives::transaction::{
    ChaincodeResponse, Envelope, EnvelopeContent, ProposalPayload, ProposalResponsePayload,
    Transaction,
};
use fabric_primitives::wire::Wire;

const NS: &str = "cc";
const BLOCKS: usize = 10;
/// The checkpoint is taken once blocks `0..=CHECKPOINT_AT` are committed.
const CHECKPOINT_AT: usize = 4;

type Oracle = BTreeMap<String, Vec<u8>>;

/// A blind-write transaction built by simulating `ops` on `ledger`.
fn envelope(ledger: &Ledger, seed: u64, ops: &[(String, Option<Vec<u8>>)]) -> Envelope {
    let mut sim = ledger.simulator();
    for (key, value) in ops {
        match value {
            Some(v) => sim.put_state(NS, key, v.clone()),
            None => sim.del_state(NS, key),
        }
    }
    let creator = SerializedIdentity::new("Org1MSP", seed.to_le_bytes().to_vec());
    let mut nonce = [0u8; 32];
    nonce[..8].copy_from_slice(&seed.to_le_bytes());
    let tx = Transaction {
        channel: ChannelId::new("ch"),
        creator: creator.clone(),
        nonce,
        proposal_payload: ProposalPayload {
            chaincode: ChaincodeId::new(NS, "1"),
            function: "f".into(),
            args: vec![],
        },
        response_payload: ProposalResponsePayload {
            tx_id: TxId::derive(&creator.to_wire(), &nonce),
            chaincode: ChaincodeId::new(NS, "1"),
            rwset: sim.into_rwset(),
            response: ChaincodeResponse::ok(vec![]),
        },
        endorsements: vec![],
    };
    Envelope {
        content: EnvelopeContent::Transaction(tx),
        signature: vec![],
    }
}

/// Validates and commits `envelopes` as the next block.
fn commit(ledger: &Ledger, envelopes: Vec<Envelope>) -> Block {
    let mut block = Block::new(ledger.height(), ledger.last_hash(), envelopes);
    let mut flags = vec![TxValidationCode::Valid; block.envelopes.len()];
    ledger.mvcc_validate(&block, &mut flags).expect("mvcc");
    block.metadata.validation = flags;
    ledger.commit(&block).expect("commit");
    block
}

/// What the battery reopens against.
struct Chain {
    disk: MemBackend,
    /// `states[h]` = the oracle once blocks `0..h` are committed.
    states: Vec<Oracle>,
    /// `roots[h]` = the root of a full recomputation over the whole state
    /// database (savepoint included) once blocks `0..h` are committed.
    roots: Vec<Digest>,
    /// Byte offset in `blocks.dat` at which block `n` ends.
    block_ends: Vec<u64>,
}

/// Commits the scripted chain: 1-2 transactions per block, each putting
/// or deleting 1-3 of 16 keys, with a checkpoint after `CHECKPOINT_AT`.
fn scripted_chain() -> Chain {
    let disk = MemBackend::new();
    let ledger = Ledger::open(Arc::new(disk.clone()), true).unwrap();
    let mut rng: u64 = 0x1ed6_e55e;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut oracle = Oracle::new();
    let mut states = vec![oracle.clone()];
    let mut roots = vec![root_of_entries(&ledger.state_entries())];
    let mut block_ends = Vec::new();
    let mut end = 0u64;
    let mut seed = 0u64;
    for b in 0..BLOCKS {
        let mut envelopes = Vec::new();
        for _ in 0..(1 + next() % 2) {
            let mut ops = Vec::new();
            for _ in 0..(1 + next() % 3) {
                let key = format!("key-{:02}", next() % 16);
                let value = (next() % 4 != 0).then(|| format!("val-{b}-{}", next() % 100));
                ops.push((key, value.map(String::into_bytes)));
            }
            seed += 1;
            envelopes.push(envelope(&ledger, seed, &ops));
            // Blind writes never conflict: every transaction is valid and
            // applies in block order.
            for (key, value) in ops {
                match value {
                    Some(v) => oracle.insert(key, v),
                    None => oracle.remove(&key),
                };
            }
        }
        let block = commit(&ledger, envelopes);
        states.push(oracle.clone());
        roots.push(root_of_entries(&ledger.state_entries()));
        end += 8 + block.to_wire().len() as u64;
        block_ends.push(end);
        if b == CHECKPOINT_AT {
            ledger.checkpoint_state().unwrap();
        }
    }
    assert_eq!(
        disk.open("blocks.dat").unwrap().len().unwrap(),
        end,
        "block ends account for the whole file"
    );
    Chain {
        disk,
        states,
        roots,
        block_ends,
    }
}

/// Every truncation point for a file of `total` bytes: every offset of a
/// small file; for a large one (the Merkle bucket file is ~128 KiB) every
/// offset in its head and tail plus a dense stride through the middle.
fn cut_points(total: u64) -> Vec<u64> {
    if total <= 2048 {
        return (0..=total).collect();
    }
    let mut cuts: Vec<u64> = (0..=256).chain(total - 256..=total).collect();
    let stride = (total / 512).max(1);
    let mut at = 257;
    while at < total - 256 {
        cuts.push(at);
        at += stride;
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// A deep clone of `disk` with `name` truncated to `len` bytes.
fn truncated(disk: &MemBackend, name: &str, len: u64) -> MemBackend {
    let damaged = disk.deep_clone();
    damaged.open(name).unwrap().truncate(len).unwrap();
    damaged
}

/// Asserts `ledger` sits exactly on the committed prefix of height
/// `height`, then commits one more block on it.
fn assert_committed_prefix(ledger: &Ledger, chain: &Chain, height: usize) {
    assert_eq!(ledger.height(), height as u64, "recovered height");
    assert_eq!(
        ledger.ptm().savepoint(),
        height.checked_sub(1).map(|h| h as u64),
        "savepoint at the chain's tip"
    );
    let expect: Vec<(String, Vec<u8>)> = chain.states[height]
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(
        ledger.scan_state(NS, "", "").unwrap(),
        expect,
        "recovered state is not the oracle's at height {height}"
    );
    assert_eq!(
        ledger.state_root(),
        chain.roots[height],
        "incremental root diverged from full recompute at height {height}"
    );
    let next = envelope(
        ledger,
        1 << 32,
        &[("post-crash".into(), Some(b"alive".to_vec()))],
    );
    commit(ledger, vec![next]);
    assert_eq!(ledger.height(), height as u64 + 1);
    assert_eq!(
        ledger.get_state(NS, "post-crash").unwrap(),
        Some(b"alive".to_vec())
    );
}

/// Reopens `disk` with `blocks.dat` cut to `len` bytes and checks the
/// outcome; returns whether the cut fell under the checkpoint.
fn reopen_cut_chain(chain: &Chain, disk: &MemBackend, len: u64) -> bool {
    let height = chain.block_ends.iter().filter(|&&end| end <= len).count();
    let reopened = Ledger::open(Arc::new(truncated(disk, "blocks.dat", len)), true);
    if height <= CHECKPOINT_AT {
        // The checkpoint's savepoint is past the surviving chain.
        assert!(
            matches!(reopened, Err(LedgerError::Corrupt)),
            "cut at {len} (height {height}) under the checkpoint must be corrupt"
        );
        return true;
    }
    let ledger = reopened.unwrap_or_else(|e| panic!("cut at {len}: {e}"));
    assert_committed_prefix(&ledger, chain, height);
    false
}

#[test]
fn block_file_torn_at_every_offset() {
    let chain = scripted_chain();
    let total = *chain.block_ends.last().unwrap();
    // Every offset, with the Merkle bucket file torn too, so each reopen
    // rebuilds the tree from the checkpoint and replays onto it.
    let buckets = chain.disk.open("merkle.buckets").unwrap().len().unwrap();
    let torn_buckets = truncated(&chain.disk, "merkle.buckets", buckets / 2);
    let under: usize = (0..=total)
        .map(|len| usize::from(reopen_cut_chain(&chain, &torn_buckets, len)))
        .sum();
    assert!(under > 0 && under as u64 <= total, "cuts on both sides");
    // With the bucket file intact (loaded, then updated by the replay):
    // every block boundary and the bytes around it, and a stride between.
    let mut cuts: Vec<u64> = chain
        .block_ends
        .iter()
        .flat_map(|&end| end.saturating_sub(2)..=(end + 2).min(total))
        .chain((0..total).step_by(61))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    for len in cuts {
        reopen_cut_chain(&chain, &chain.disk, len);
    }
}

#[test]
fn merkle_bucket_file_torn_at_every_offset() {
    let chain = scripted_chain();
    let total = chain.disk.open("merkle.buckets").unwrap().len().unwrap();
    assert!(total > 0, "the checkpoint persisted the buckets");
    // A torn bucket file, over an intact chain and over one cut inside
    // the block after the checkpoint's tip.
    let mid_block = chain.block_ends[CHECKPOINT_AT + 1] - 3;
    for (blocks_len, height) in [
        (*chain.block_ends.last().unwrap(), BLOCKS),
        (mid_block, CHECKPOINT_AT + 1),
    ] {
        let cut_chain = truncated(&chain.disk, "blocks.dat", blocks_len);
        for len in cut_points(total) {
            let damaged = truncated(&cut_chain, "merkle.buckets", len);
            let ledger = Ledger::open(Arc::new(damaged), true)
                .unwrap_or_else(|e| panic!("merkle cut at {len}: {e}"));
            assert_committed_prefix(&ledger, &chain, height);
        }
    }
}

#[test]
fn merkle_bucket_file_bit_flips_and_stale_copies_are_rebuilt() {
    let chain = scripted_chain();
    let mut file = chain.disk.open("merkle.buckets").unwrap();
    let total = file.len().unwrap();
    let bytes = file.read_at(0, total as usize).unwrap();
    for at in (0..total).step_by(997) {
        let damaged = chain.disk.deep_clone();
        let mut flipped = bytes.clone();
        flipped[at as usize] ^= 0x40;
        damaged.remove("merkle.buckets").unwrap();
        damaged
            .open("merkle.buckets")
            .unwrap()
            .append(&flipped)
            .unwrap();
        let ledger = Ledger::open(Arc::new(damaged), true).unwrap();
        assert_committed_prefix(&ledger, &chain, BLOCKS);
    }
    // A crash between a later checkpoint and its bucket write leaves the
    // older bucket file, stamped with an older seq, beside it.
    let later = chain.disk.deep_clone();
    {
        let ledger = Ledger::open(Arc::new(later.clone()), true).unwrap();
        assert_eq!(ledger.height(), BLOCKS as u64);
        ledger.ptm().store().checkpoint().unwrap();
    }
    later.remove("merkle.buckets").unwrap();
    later
        .open("merkle.buckets")
        .unwrap()
        .append(&bytes)
        .unwrap();
    let ledger = Ledger::open(Arc::new(later), true).unwrap();
    assert_committed_prefix(&ledger, &chain, BLOCKS);
}
