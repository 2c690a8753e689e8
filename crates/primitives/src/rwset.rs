//! Read-write sets: the output of transaction simulation (paper Sec. 3.2).
//!
//! During the execution phase an endorser simulates a proposal against its
//! local state snapshot and records:
//!
//! * a **readset** — every key read together with the version it had, plus a
//!   hash of the results of every range query (for phantom-read detection,
//!   Sec. 4.4); and
//! * a **writeset** — every key written with its new value, or marked
//!   deleted.
//!
//! Fabric orders *transaction outputs* (these rw-sets), not inputs; the
//! validation phase replays only the version checks, never the chaincode.

use fabric_crypto::sha256::Sha256;
use fabric_crypto::Digest;

use crate::ids::Version;
use crate::wire::{Decoder, Encoder, Wire, WireError};

/// A single read recorded during simulation: key plus the version observed
/// (`None` if the key did not exist).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyRead {
    /// The key that was read.
    pub key: String,
    /// The version observed, or `None` for a missing key.
    pub version: Option<Version>,
}

impl Wire for KeyRead {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(&self.key);
        enc.put_option(&self.version, |e, v| v.encode(e));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(KeyRead {
            key: dec.get_string()?,
            version: dec.get_option(Version::decode)?,
        })
    }
}

/// A single write recorded during simulation: a new value or a deletion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyWrite {
    /// The key being written.
    pub key: String,
    /// The new value, or `None` to delete the key.
    pub value: Option<Vec<u8>>,
}

impl KeyWrite {
    /// Returns `true` if this write deletes the key.
    pub fn is_delete(&self) -> bool {
        self.value.is_none()
    }
}

impl Wire for KeyWrite {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(&self.key);
        enc.put_option(&self.value, |e, v| e.put_bytes(v));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(KeyWrite {
            key: dec.get_string()?,
            value: dec.get_option(|d| d.get_bytes())?,
        })
    }
}

/// A recorded range query: the half-open key range scanned and a hash of the
/// `(key, version)` pairs it returned.
///
/// At validation time the peer re-executes the query against the current
/// state and compares hashes, detecting phantom reads (Sec. 4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeQueryInfo {
    /// Inclusive start of the scanned range.
    pub start_key: String,
    /// Exclusive end of the scanned range (empty = unbounded).
    pub end_key: String,
    /// SHA-256 over the serialized `(key, version)` result pairs.
    pub results_hash: Digest,
}

impl RangeQueryInfo {
    /// Hashes a sequence of `(key, version)` results the way simulation and
    /// validation both must.
    pub fn hash_results<'a>(results: impl Iterator<Item = (&'a str, Version)>) -> Digest {
        let mut h = Sha256::new();
        for (key, version) in results {
            h.update(&(key.len() as u32).to_le_bytes());
            h.update(key.as_bytes());
            h.update(&version.block_num.to_le_bytes());
            h.update(&version.tx_num.to_le_bytes());
        }
        h.finalize()
    }
}

impl Wire for RangeQueryInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(&self.start_key);
        enc.put_string(&self.end_key);
        enc.put_raw(&self.results_hash);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(RangeQueryInfo {
            start_key: dec.get_string()?,
            end_key: dec.get_string()?,
            results_hash: dec.get_array32()?,
        })
    }
}

/// The rw-set of one transaction against one chaincode namespace.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct NsReadWriteSet {
    /// The chaincode namespace these accesses belong to.
    pub namespace: String,
    /// Keys read with their observed versions.
    pub reads: Vec<KeyRead>,
    /// Range queries performed, with result hashes.
    pub range_queries: Vec<RangeQueryInfo>,
    /// Keys written or deleted.
    pub writes: Vec<KeyWrite>,
}

impl Wire for NsReadWriteSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(&self.namespace);
        enc.put_seq(&self.reads, |e, r| r.encode(e));
        enc.put_seq(&self.range_queries, |e, q| q.encode(e));
        enc.put_seq(&self.writes, |e, w| w.encode(e));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(NsReadWriteSet {
            namespace: dec.get_string()?,
            reads: dec.get_seq(KeyRead::decode)?,
            range_queries: dec.get_seq(RangeQueryInfo::decode)?,
            writes: dec.get_seq(KeyWrite::decode)?,
        })
    }
}

/// The complete rw-set of a transaction, spanning one or more chaincode
/// namespaces (chaincode-to-chaincode calls write in multiple namespaces).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TxReadWriteSet {
    /// Per-namespace rw-sets, in the order the namespaces were touched.
    pub ns_rwsets: Vec<NsReadWriteSet>,
}

impl TxReadWriteSet {
    /// Creates a rw-set with a single namespace.
    pub fn single(ns: NsReadWriteSet) -> Self {
        TxReadWriteSet {
            ns_rwsets: vec![ns],
        }
    }

    /// Total number of reads across namespaces.
    pub fn read_count(&self) -> usize {
        self.ns_rwsets.iter().map(|ns| ns.reads.len()).sum()
    }

    /// Total number of writes across namespaces.
    pub fn write_count(&self) -> usize {
        self.ns_rwsets.iter().map(|ns| ns.writes.len()).sum()
    }
}

impl Wire for TxReadWriteSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.ns_rwsets, |e, ns| ns.encode(e));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(TxReadWriteSet {
            ns_rwsets: dec.get_seq(NsReadWriteSet::decode)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TxReadWriteSet {
        TxReadWriteSet::single(NsReadWriteSet {
            namespace: "fabcoin".into(),
            reads: vec![
                KeyRead {
                    key: "coin.1".into(),
                    version: Some(Version::new(4, 2)),
                },
                KeyRead {
                    key: "coin.2".into(),
                    version: None,
                },
            ],
            range_queries: vec![RangeQueryInfo {
                start_key: "a".into(),
                end_key: "z".into(),
                results_hash: [7u8; 32],
            }],
            writes: vec![
                KeyWrite {
                    key: "coin.1".into(),
                    value: None,
                },
                KeyWrite {
                    key: "coin.3".into(),
                    value: Some(vec![1, 2, 3]),
                },
            ],
        })
    }

    #[test]
    fn round_trip() {
        let rw = sample();
        assert_eq!(TxReadWriteSet::from_wire(&rw.to_wire()).unwrap(), rw);
    }

    #[test]
    fn counts() {
        let rw = sample();
        assert_eq!(rw.read_count(), 2);
        assert_eq!(rw.write_count(), 2);
    }

    #[test]
    fn delete_flag() {
        let rw = sample();
        assert!(rw.ns_rwsets[0].writes[0].is_delete());
        assert!(!rw.ns_rwsets[0].writes[1].is_delete());
    }

    #[test]
    fn identical_rwsets_encode_identically() {
        // Endorsement comparison relies on deterministic encoding.
        assert_eq!(sample().to_wire(), sample().to_wire());
    }

    #[test]
    fn range_query_hash_sensitive_to_results() {
        let h1 = RangeQueryInfo::hash_results(
            [("a", Version::new(1, 0)), ("b", Version::new(1, 1))]
                .iter()
                .map(|(k, v)| (*k, *v)),
        );
        let h2 = RangeQueryInfo::hash_results(
            [("a", Version::new(1, 0)), ("b", Version::new(2, 1))]
                .iter()
                .map(|(k, v)| (*k, *v)),
        );
        let h3 =
            RangeQueryInfo::hash_results([("a", Version::new(1, 0))].iter().map(|(k, v)| (*k, *v)));
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn range_query_hash_unambiguous_concatenation() {
        // ("ab", v) + ("c", v) must not hash like ("a", v) + ("bc", v).
        let v = Version::new(1, 0);
        let h1 = RangeQueryInfo::hash_results([("ab", v), ("c", v)].iter().map(|(k, x)| (*k, *x)));
        let h2 = RangeQueryInfo::hash_results([("a", v), ("bc", v)].iter().map(|(k, x)| (*k, *x)));
        assert_ne!(h1, h2);
    }

    #[test]
    fn empty_rwset() {
        let rw = TxReadWriteSet::default();
        assert_eq!(TxReadWriteSet::from_wire(&rw.to_wire()).unwrap(), rw);
        assert_eq!(rw.read_count(), 0);
    }
}
