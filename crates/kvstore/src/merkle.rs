//! Incrementally-maintained Merkle state root over a bucketed hash tree.
//!
//! Every live `(key, value)` pair hashes to one of [`BUCKETS`] buckets by
//! key hash. A bucket's digest is the 256-bit wrapping **sum** of its
//! entry hashes (a multiset/AdHash-style accumulator), so adding or
//! removing one entry is O(1) and never needs the bucket's other members.
//! Leaves are `H(bucket_index || accumulator)` and a binary Merkle tree
//! folds them to a single root.
//!
//! A committed batch therefore updates the root in O(delta · log BUCKETS):
//! per written key, subtract the hash of the old entry (if any) and add
//! the hash of the new one; then rehash every node on the touched leaves'
//! paths, each once per batch however many keys share it. The result is
//! byte-identical to recomputing the tree from a full state dump —
//! `tests` and the storage equivalence battery hold the two equal — which
//! is what lets `statesync`'s checkpointer stamp snapshots with a state
//! root without rehashing millions of keys.
//!
//! The accumulator array persists as the CRC-framed `merkle.buckets` file
//! (a seq header plus the raw bucket sums). On reopen the file is used
//! only when its seq matches the recovered store seq; otherwise the tree
//! is rebuilt from a state scan, so a torn or stale file can never yield
//! a wrong root.

use fabric_crypto::sha256::{digest2, Sha256};
use fabric_crypto::Digest;

use crate::backend::Backend;
use crate::log;
use crate::StoreError;

/// Number of leaf buckets. Must be a power of two; fixed so every engine
/// produces the same root for the same state.
pub const BUCKETS: usize = 4096;

/// On-disk name of the persisted accumulator array.
pub const MERKLE_FILE: &str = "merkle.buckets";
const MERKLE_TMP: &str = "merkle.tmp";

/// One key's transition within a committed batch: `(key, old value, new
/// value)`, `None` = absent.
pub type Transition = (Vec<u8>, Option<Vec<u8>>, Option<Vec<u8>>);

/// Maps a key to its bucket (FNV-1a, folded into the bucket mask).
pub fn bucket_of(key: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (BUCKETS - 1)
}

/// Hash of one live entry as it enters the bucket accumulator.
fn entry_hash(key: &[u8], value: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&(key.len() as u32).to_le_bytes());
    h.update(key);
    h.update(&(value.len() as u32).to_le_bytes());
    h.update(value);
    h.finalize()
}

/// Hash of one bucket's leaf: `H(bucket index || accumulator)`.
fn leaf_hash(bucket: usize, acc: &[u8; 32]) -> Digest {
    digest2(&(bucket as u32).to_le_bytes(), acc)
}

fn acc_add(acc: &mut [u8; 32], h: &Digest) {
    let mut carry = 0u16;
    for i in 0..32 {
        let sum = u16::from(acc[i]) + u16::from(h[i]) + carry;
        acc[i] = sum as u8;
        carry = sum >> 8;
    }
}

fn acc_sub(acc: &mut [u8; 32], h: &Digest) {
    let mut borrow = 0i16;
    for i in 0..32 {
        let diff = i16::from(acc[i]) - i16::from(h[i]) - borrow;
        acc[i] = diff as u8;
        borrow = i16::from(diff < 0);
    }
}

/// The bucketed hash tree: accumulators plus every node above them.
pub struct StateRoot {
    /// Per-bucket entry-hash sums.
    acc: Vec<[u8; 32]>,
    /// The tree in heap order: `nodes[1]` is the root, the children of
    /// `nodes[i]` are `nodes[2i]` and `nodes[2i + 1]`, and the leaf of
    /// bucket `b` is `nodes[BUCKETS + b]` (`nodes[0]` is unused).
    nodes: Vec<Digest>,
}

impl Default for StateRoot {
    fn default() -> Self {
        Self::empty()
    }
}

impl StateRoot {
    /// The tree of an empty state.
    pub fn empty() -> Self {
        Self::from_acc(vec![[0u8; 32]; BUCKETS])
    }

    /// Builds the tree from a full dump of live `(key, value)` pairs.
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> Self {
        let mut acc = vec![[0u8; 32]; BUCKETS];
        for (key, value) in entries {
            acc_add(&mut acc[bucket_of(key)], &entry_hash(key, value));
        }
        Self::from_acc(acc)
    }

    /// Hashes every node over the bucket accumulators `acc`.
    fn from_acc(acc: Vec<[u8; 32]>) -> Self {
        let mut nodes = vec![[0u8; 32]; 2 * BUCKETS];
        for (bucket, a) in acc.iter().enumerate() {
            nodes[BUCKETS + bucket] = leaf_hash(bucket, a);
        }
        for i in (1..BUCKETS).rev() {
            nodes[i] = digest2(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        StateRoot { acc, nodes }
    }

    /// Applies one committed batch's key transitions, then rehashes each
    /// touched node once: a node on the path of many written keys is
    /// hashed once per batch, not once per key.
    ///
    /// The caller supplies the pre-image values: the store's write path
    /// already resolves them for MVCC, so the update stays O(1) per key.
    pub fn apply(&mut self, transitions: &[Transition]) {
        let mut dirty = Vec::with_capacity(transitions.len());
        for (key, old, new) in transitions {
            if old == new {
                continue;
            }
            let bucket = bucket_of(key);
            if let Some(v) = old {
                acc_sub(&mut self.acc[bucket], &entry_hash(key, v));
            }
            if let Some(v) = new {
                acc_add(&mut self.acc[bucket], &entry_hash(key, v));
            }
            dirty.push(BUCKETS + bucket);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for &i in &dirty {
            self.nodes[i] = leaf_hash(i - BUCKETS, &self.acc[i - BUCKETS]);
        }
        // All dirty nodes sit at one depth, so halving keeps them sorted
        // and `dedup` merges siblings into their shared parent.
        while dirty.first().is_some_and(|&i| i > 1) {
            for i in &mut dirty {
                *i /= 2;
            }
            dirty.dedup();
            for &i in &dirty {
                self.nodes[i] = digest2(&self.nodes[2 * i], &self.nodes[2 * i + 1]);
            }
        }
    }

    /// The current state root.
    pub fn root(&self) -> Digest {
        self.nodes[1]
    }

    /// Serializes `seq` plus the accumulator array into one payload.
    fn encode(&self, seq: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + BUCKETS * 32);
        out.extend_from_slice(&seq.to_le_bytes());
        for a in &self.acc {
            out.extend_from_slice(a);
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<(u64, StateRoot), StoreError> {
        if payload.len() != 8 + BUCKETS * 32 {
            return Err(StoreError::Corrupt);
        }
        let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let mut acc = vec![[0u8; 32]; BUCKETS];
        for (i, a) in acc.iter_mut().enumerate() {
            a.copy_from_slice(&payload[8 + i * 32..8 + (i + 1) * 32]);
        }
        Ok((seq, StateRoot::from_acc(acc)))
    }

    /// Durably writes the accumulators, stamped with the store seq they
    /// describe, via temp-file + rename so a crash leaves the old file.
    pub fn persist(&self, backend: &dyn Backend, seq: u64) -> Result<(), StoreError> {
        backend.remove(MERKLE_TMP)?;
        let mut tmp = backend.open(MERKLE_TMP)?;
        log::append_record(tmp.as_mut(), &self.encode(seq))?;
        tmp.sync()?;
        backend.rename(MERKLE_TMP, MERKLE_FILE)
    }

    /// Loads a persisted tree **only** if its stamp matches `expect_seq`;
    /// any mismatch, torn record, or missing file yields `None` and the
    /// caller rebuilds from state.
    pub fn load_if_current(
        backend: &dyn Backend,
        expect_seq: u64,
    ) -> Result<Option<StateRoot>, StoreError> {
        if !backend.exists(MERKLE_FILE)? {
            return Ok(None);
        }
        let mut f = backend.open(MERKLE_FILE)?;
        let (records, _) = log::read_all(f.as_mut())?;
        let Some(payload) = records.first() else {
            return Ok(None);
        };
        match StateRoot::decode(payload) {
            Ok((seq, tree)) if seq == expect_seq => Ok(Some(tree)),
            _ => Ok(None),
        }
    }
}

/// Convenience: the root of a full state dump (test oracle).
pub fn root_of_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Digest {
    StateRoot::from_entries(entries.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))).root()
}

/// Root of the empty state.
pub fn empty_root() -> Digest {
    StateRoot::empty().root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn step(key: &[u8], old: Option<&[u8]>, new: Option<&[u8]>) -> Transition {
        (
            key.to_vec(),
            old.map(<[u8]>::to_vec),
            new.map(<[u8]>::to_vec),
        )
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let mut tree = StateRoot::empty();
        let mut state: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
        let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = vec![
            (b"a".to_vec(), Some(b"1".to_vec())),
            (b"b".to_vec(), Some(b"2".to_vec())),
            (b"a".to_vec(), Some(b"3".to_vec())),
            (b"c".to_vec(), Some(b"4".to_vec())),
            (b"b".to_vec(), None),
            (b"d".to_vec(), Some(b"5".to_vec())),
            (b"a".to_vec(), None),
        ];
        let mut history = Vec::new();
        for (key, value) in ops {
            let old = state.get(&key).cloned();
            match &value {
                Some(v) => {
                    state.insert(key.clone(), v.clone());
                }
                None => {
                    state.remove(&key);
                }
            }
            let transition = (key, old, value);
            tree.apply(std::slice::from_ref(&transition));
            history.push(transition);
            let dump: Vec<(Vec<u8>, Vec<u8>)> =
                state.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(tree.root(), root_of_entries(&dump));
        }
        assert_ne!(tree.root(), empty_root());
        // The same history as one batch: keys written twice chain their
        // pre-images, and shared path nodes are rehashed once.
        let mut batched = StateRoot::empty();
        batched.apply(&history);
        assert_eq!(batched.root(), tree.root());
    }

    #[test]
    fn large_batch_matches_full_recompute() {
        // Enough keys that many share leaves and every upper node is dirty.
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..3000u32)
            .map(|i| (format!("key-{i}").into_bytes(), i.to_le_bytes().to_vec()))
            .collect();
        let mut tree = StateRoot::empty();
        let batch: Vec<Transition> = entries
            .iter()
            .map(|(k, v)| step(k, None, Some(v)))
            .collect();
        tree.apply(&batch);
        assert_eq!(tree.root(), root_of_entries(&entries));
    }

    #[test]
    fn order_independent() {
        let a = StateRoot::from_entries([(b"x".as_slice(), b"1".as_slice()), (b"y", b"2")]);
        let b = StateRoot::from_entries([(b"y".as_slice(), b"2".as_slice()), (b"x", b"1")]);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn value_and_key_sensitive() {
        let base = StateRoot::from_entries([(b"k".as_slice(), b"v".as_slice())]).root();
        assert_ne!(
            base,
            StateRoot::from_entries([(b"k".as_slice(), b"w".as_slice())]).root()
        );
        assert_ne!(
            base,
            StateRoot::from_entries([(b"j".as_slice(), b"v".as_slice())]).root()
        );
        // Length prefixes: ("ab","c") != ("a","bc").
        assert_ne!(
            StateRoot::from_entries([(b"ab".as_slice(), b"c".as_slice())]).root(),
            StateRoot::from_entries([(b"a".as_slice(), b"bc".as_slice())]).root()
        );
    }

    #[test]
    fn add_then_remove_restores_root() {
        let mut tree = StateRoot::from_entries([(b"k".as_slice(), b"v".as_slice())]);
        let before = tree.root();
        tree.apply(&[step(b"tmp", None, Some(b"x"))]);
        assert_ne!(tree.root(), before);
        tree.apply(&[step(b"tmp", Some(b"x"), None)]);
        assert_eq!(tree.root(), before);
    }

    #[test]
    fn noop_transition_keeps_root() {
        let mut tree = StateRoot::from_entries([(b"k".as_slice(), b"v".as_slice())]);
        let before = tree.root();
        tree.apply(&[step(b"k", Some(b"v"), Some(b"v"))]);
        assert_eq!(tree.root(), before);
    }

    #[test]
    fn persist_and_load_round_trip() {
        let backend = MemBackend::new();
        let mut tree = StateRoot::empty();
        tree.apply(&[step(b"k", None, Some(b"v"))]);
        tree.persist(&backend, 7).unwrap();
        let loaded = StateRoot::load_if_current(&backend, 7).unwrap().unwrap();
        assert_eq!(loaded.root(), tree.root());
        // Wrong seq: refuse.
        assert!(StateRoot::load_if_current(&backend, 8).unwrap().is_none());
        // Torn file: refuse, never corrupt.
        let mut f = backend.open(MERKLE_FILE).unwrap();
        let len = f.len().unwrap();
        f.truncate(len / 2).unwrap();
        assert!(StateRoot::load_if_current(&backend, 7).unwrap().is_none());
    }
}
