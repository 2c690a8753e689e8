//! The peer transaction manager (PTM): versioned state, simulation, and
//! read-write conflict validation (paper Sec. 4.4).
//!
//! The PTM keeps the latest state in a versioned key-value store: one tuple
//! `(key, val, ver)` per entry, where `ver` is the `(block, tx)` coordinate
//! of the writing transaction — unique and monotonically increasing.
//!
//! * During **simulation** it serves a stable snapshot and records readset
//!   (key + observed version, plus hashed range-query results) and writeset.
//! * During **validation** it replays only the version checks sequentially,
//!   treating the writes of preceding valid transactions in the same block
//!   as committed; mismatches mark the transaction invalid
//!   (one-copy serializability).
//! * During **commit** it applies the writesets of valid transactions and
//!   persists the savepoint in the same atomic batch.
//!
//! The store holds state, not history: a key's write history is read from
//! the block store (`Ledger::key_history`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use fabric_kvstore::{Snapshot, StateStore, WriteBatch};
use fabric_primitives::block::Block;
use fabric_primitives::ids::{TxId, TxValidationCode, Version};
use fabric_primitives::rwset::{KeyRead, KeyWrite, NsReadWriteSet, RangeQueryInfo, TxReadWriteSet};
use fabric_primitives::transaction::EnvelopeContent;

use crate::LedgerError;

const SAVEPOINT_KEY: &[u8] = b"m/savepoint";
const STATE_PREFIX: &[u8] = b"s/";

fn state_key(ns: &str, key: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + ns.len() + 1 + key.len());
    out.extend_from_slice(STATE_PREFIX);
    out.extend_from_slice(ns.as_bytes());
    out.push(0);
    out.extend_from_slice(key.as_bytes());
    out
}

fn decode_savepoint(raw: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(raw.get(..8)?.try_into().ok()?))
}

fn encode_value(version: Version, value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + value.len());
    out.extend_from_slice(&version.block_num.to_le_bytes());
    out.extend_from_slice(&version.tx_num.to_le_bytes());
    out.extend_from_slice(value);
    out
}

fn decode_value(raw: &[u8]) -> Result<(Version, Vec<u8>), LedgerError> {
    if raw.len() < 12 {
        return Err(LedgerError::Corrupt);
    }
    let block_num = u64::from_le_bytes(raw[0..8].try_into().expect("8 bytes"));
    let tx_num = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes"));
    Ok((Version::new(block_num, tx_num), raw[12..].to_vec()))
}

/// The peer transaction manager over the [`StateStore`].
#[derive(Clone)]
pub struct Ptm {
    store: Arc<StateStore>,
}

impl Ptm {
    /// Wraps a state store as the versioned state database.
    pub fn new(store: Arc<StateStore>) -> Self {
        Ptm { store }
    }

    /// The largest block number whose writes are fully applied, or `None`
    /// if no block has been committed yet.
    pub fn savepoint(&self) -> Option<u64> {
        decode_savepoint(&self.store.get(SAVEPOINT_KEY)?)
    }

    /// The savepoint a raw state dump (`Ledger::state_entries`) carries,
    /// read without writing the dump anywhere.
    pub(crate) fn savepoint_of(entries: &[(Vec<u8>, Vec<u8>)]) -> Option<u64> {
        let (_, raw) = entries.iter().find(|(key, _)| key == SAVEPOINT_KEY)?;
        decode_savepoint(raw)
    }

    /// Reads the latest committed `(version, value)` of a key.
    pub fn get_state(
        &self,
        ns: &str,
        key: &str,
    ) -> Result<Option<(Version, Vec<u8>)>, LedgerError> {
        match self.store.get(&state_key(ns, key)) {
            Some(raw) => Ok(Some(decode_value(&raw)?)),
            None => Ok(None),
        }
    }

    /// Scans `[start, end)` within a namespace at the latest state,
    /// returning `(key, version, value)` triples in key order. An empty
    /// `end` scans to the end of the namespace.
    pub fn scan(
        &self,
        ns: &str,
        start: &str,
        end: &str,
    ) -> Result<Vec<(String, Version, Vec<u8>)>, LedgerError> {
        let lo = state_key(ns, start);
        let hi = if end.is_empty() {
            // End of this namespace: prefix with 0x01 after the separator.
            let mut k = Vec::with_capacity(2 + ns.len() + 1);
            k.extend_from_slice(STATE_PREFIX);
            k.extend_from_slice(ns.as_bytes());
            k.push(1);
            k
        } else {
            state_key(ns, end)
        };
        let prefix_len = STATE_PREFIX.len() + ns.len() + 1;
        self.store
            .scan(&lo, &hi)
            .into_iter()
            .map(|(k, raw)| {
                let key = String::from_utf8(k[prefix_len..].to_vec())
                    .map_err(|_| LedgerError::Corrupt)?;
                let (version, value) = decode_value(&raw)?;
                Ok((key, version, value))
            })
            .collect()
    }

    /// Starts a simulation against a stable snapshot of the latest state.
    pub fn simulator(&self) -> TxSimulator {
        TxSimulator {
            snap: self.store.snapshot(),
            namespaces: BTreeMap::new(),
        }
    }

    /// Runs the sequential read-write conflict check over a block
    /// (validation stage 2, paper Sec. 3.4).
    ///
    /// `flags` carries the per-transaction outcome of the VSCC stage;
    /// transactions currently `Valid` may be downgraded to
    /// `MvccReadConflict`, `PhantomReadConflict`, or `DuplicateTxId`.
    /// `already_committed` reports whether a transaction id exists in the
    /// ledger (the block store's tx index).
    pub fn mvcc_validate(
        &self,
        block: &Block,
        flags: &mut [TxValidationCode],
        already_committed: &dyn Fn(&TxId) -> bool,
    ) -> Result<(), LedgerError> {
        assert_eq!(flags.len(), block.envelopes.len());
        // Versions written by preceding valid transactions in this block:
        // state-key -> Some(version) for writes, None for deletes.
        let mut overlay: HashMap<Vec<u8>, Option<Version>> = HashMap::new();
        let mut seen_txids: HashSet<TxId> = HashSet::new();

        for (i, env) in block.envelopes.iter().enumerate() {
            if flags[i] != TxValidationCode::Valid {
                continue;
            }
            let tx = match &env.content {
                EnvelopeContent::Transaction(tx) => tx,
                // Config envelopes are validated by the peer's config logic,
                // not by MVCC.
                EnvelopeContent::Config(_) => continue,
            };
            let tx_id = tx.tx_id();
            if already_committed(&tx_id) || !seen_txids.insert(tx_id) {
                flags[i] = TxValidationCode::DuplicateTxId;
                continue;
            }
            let mut ok = true;
            'check: for ns_rw in &tx.response_payload.rwset.ns_rwsets {
                for read in &ns_rw.reads {
                    let skey = state_key(&ns_rw.namespace, &read.key);
                    let current = match overlay.get(&skey) {
                        Some(v) => *v,
                        None => self
                            .get_state(&ns_rw.namespace, &read.key)?
                            .map(|(ver, _)| ver),
                    };
                    if current != read.version {
                        flags[i] = TxValidationCode::MvccReadConflict;
                        ok = false;
                        break 'check;
                    }
                }
                for rq in &ns_rw.range_queries {
                    let rehash = self.range_query_hash(&ns_rw.namespace, rq, &overlay)?;
                    if rehash != rq.results_hash {
                        flags[i] = TxValidationCode::PhantomReadConflict;
                        ok = false;
                        break 'check;
                    }
                }
            }
            if !ok {
                continue;
            }
            // Record this transaction's writes in the overlay.
            let version = Version::new(block.header.number, i as u32);
            for ns_rw in &tx.response_payload.rwset.ns_rwsets {
                for write in &ns_rw.writes {
                    let skey = state_key(&ns_rw.namespace, &write.key);
                    overlay.insert(
                        skey,
                        if write.is_delete() {
                            None
                        } else {
                            Some(version)
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Re-executes a recorded range query against current state + overlay
    /// and hashes the results, for phantom-read detection.
    fn range_query_hash(
        &self,
        ns: &str,
        rq: &RangeQueryInfo,
        overlay: &HashMap<Vec<u8>, Option<Version>>,
    ) -> Result<fabric_crypto::Digest, LedgerError> {
        let mut merged: BTreeMap<String, Version> = self
            .scan(ns, &rq.start_key, &rq.end_key)?
            .into_iter()
            .map(|(k, v, _)| (k, v))
            .collect();
        // Apply overlay entries that fall inside the queried range.
        for (skey, ver) in overlay {
            let prefix = state_key(ns, "");
            if !skey.starts_with(&prefix) {
                continue;
            }
            let key = match String::from_utf8(skey[prefix.len()..].to_vec()) {
                Ok(k) => k,
                Err(_) => continue,
            };
            let in_range = key.as_str() >= rq.start_key.as_str()
                && (rq.end_key.is_empty() || key.as_str() < rq.end_key.as_str());
            if !in_range {
                continue;
            }
            match ver {
                Some(v) => {
                    merged.insert(key, *v);
                }
                None => {
                    merged.remove(&key);
                }
            }
        }
        Ok(RangeQueryInfo::hash_results(
            merged.iter().map(|(k, v)| (k.as_str(), *v)),
        ))
    }

    /// Applies the writesets of all valid transactions in `block` and
    /// advances the savepoint, atomically (validation stage 3).
    ///
    /// Re-committing an already-committed block is harmless: versions are
    /// deterministic, so the operation is idempotent — exactly what crash
    /// recovery needs.
    pub fn commit_block(
        &self,
        block: &Block,
        flags: &[TxValidationCode],
    ) -> Result<(), LedgerError> {
        assert_eq!(flags.len(), block.envelopes.len());
        let mut batch = WriteBatch::new();
        for (i, env) in block.envelopes.iter().enumerate() {
            if flags[i] != TxValidationCode::Valid {
                continue;
            }
            let tx = match &env.content {
                EnvelopeContent::Transaction(tx) => tx,
                EnvelopeContent::Config(_) => continue,
            };
            let version = Version::new(block.header.number, i as u32);
            for ns_rw in &tx.response_payload.rwset.ns_rwsets {
                for write in &ns_rw.writes {
                    let skey = state_key(&ns_rw.namespace, &write.key);
                    match &write.value {
                        Some(value) => {
                            batch.put(skey, encode_value(version, value));
                        }
                        None => {
                            batch.delete(skey);
                        }
                    }
                }
            }
        }
        batch.put(
            SAVEPOINT_KEY.to_vec(),
            block.header.number.to_le_bytes().to_vec(),
        );
        self.store.write(batch)?;
        Ok(())
    }

    /// Access to the underlying store (checkpointing, stats).
    pub fn store(&self) -> &Arc<StateStore> {
        &self.store
    }
}

/// A transaction simulator: executes chaincode state accesses against a
/// stable snapshot while building the read-write set (paper Sec. 3.2).
///
/// Note the Fabric semantics faithfully reproduced here: `get_state` reads
/// the *committed snapshot*, never the simulator's own pending writes — a
/// transaction that writes a key and reads it back within the same
/// simulation observes the pre-transaction value.
pub struct TxSimulator {
    snap: Snapshot,
    namespaces: BTreeMap<String, NsBuilder>,
}

#[derive(Default)]
struct NsBuilder {
    reads: Vec<KeyRead>,
    read_keys: HashSet<String>,
    range_queries: Vec<RangeQueryInfo>,
    writes: BTreeMap<String, Option<Vec<u8>>>,
}

impl TxSimulator {
    /// Reads a key, recording it (with its observed version) in the readset.
    pub fn get_state(&mut self, ns: &str, key: &str) -> Result<Option<Vec<u8>>, LedgerError> {
        let entry = match self.snap.get(&state_key(ns, key)) {
            Some(raw) => Some(decode_value(&raw)?),
            None => None,
        };
        let builder = self.namespaces.entry(ns.to_string()).or_default();
        if builder.read_keys.insert(key.to_string()) {
            builder.reads.push(KeyRead {
                key: key.to_string(),
                version: entry.as_ref().map(|(v, _)| *v),
            });
        }
        Ok(entry.map(|(_, value)| value))
    }

    /// Stages a write of `key` to `value`.
    pub fn put_state(&mut self, ns: &str, key: &str, value: impl Into<Vec<u8>>) {
        self.namespaces
            .entry(ns.to_string())
            .or_default()
            .writes
            .insert(key.to_string(), Some(value.into()));
    }

    /// Stages a deletion of `key`.
    pub fn del_state(&mut self, ns: &str, key: &str) {
        self.namespaces
            .entry(ns.to_string())
            .or_default()
            .writes
            .insert(key.to_string(), None);
    }

    /// Executes a range query `[start, end)` over the snapshot, recording
    /// the hashed `(key, version)` results for phantom detection.
    pub fn get_state_range(
        &mut self,
        ns: &str,
        start: &str,
        end: &str,
    ) -> Result<Vec<(String, Vec<u8>)>, LedgerError> {
        let lo = state_key(ns, start);
        let hi = if end.is_empty() {
            let mut k = state_key(ns, "");
            *k.last_mut().expect("separator present") = 1;
            k
        } else {
            state_key(ns, end)
        };
        let prefix_len = STATE_PREFIX.len() + ns.len() + 1;
        let mut results = Vec::new();
        let mut versions = Vec::new();
        for (k, raw) in self.snap.scan(&lo, &hi) {
            let key =
                String::from_utf8(k[prefix_len..].to_vec()).map_err(|_| LedgerError::Corrupt)?;
            let (version, value) = decode_value(&raw)?;
            versions.push((key.clone(), version));
            results.push((key, value));
        }
        let hash = RangeQueryInfo::hash_results(versions.iter().map(|(k, v)| (k.as_str(), *v)));
        self.namespaces
            .entry(ns.to_string())
            .or_default()
            .range_queries
            .push(RangeQueryInfo {
                start_key: start.to_string(),
                end_key: end.to_string(),
                results_hash: hash,
            });
        Ok(results)
    }

    /// Finishes the simulation, producing a deterministic read-write set:
    /// namespaces and writes are key-ordered, reads in first-access order.
    pub fn into_rwset(self) -> TxReadWriteSet {
        let ns_rwsets = self
            .namespaces
            .into_iter()
            .map(|(namespace, builder)| NsReadWriteSet {
                namespace,
                reads: builder.reads,
                range_queries: builder.range_queries,
                writes: builder
                    .writes
                    .into_iter()
                    .map(|(key, value)| KeyWrite { key, value })
                    .collect(),
            })
            .collect();
        TxReadWriteSet { ns_rwsets }
    }
}
