//! Snapshot production: cutting the state into content-addressed chunks.
//!
//! A snapshot is a full dump of the versioned kvstore (state and savepoint
//! keys alike — installing it reproduces the store byte for byte)
//! serialized into one deterministic stream, split into fixed-size
//! chunks, and grouped into Merkle-rooted segments. Key history is not in
//! it: history is read from blocks, and a peer joined from a snapshot has
//! none below the snapshot's height. The segment roots live in the signed
//! [`Manifest`], so every chunk can be verified in isolation against a
//! document the consumer already trusts.

use std::collections::VecDeque;

use fabric_ledger::Ledger;
use fabric_msp::SigningIdentity;
use fabric_primitives::ids::ChannelId;
use fabric_primitives::wire::{Decoder, Encoder};

use crate::manifest::{Manifest, SegmentInfo, SignedManifest, SyncMessage};
use crate::SyncError;

/// Tuning knobs for snapshot production.
#[derive(Clone, Debug)]
pub struct SnapshotConfig {
    /// Chunk size in bytes (the final chunk may be shorter).
    pub chunk_bytes: usize,
    /// Chunks per Merkle segment; a segment is the unit of fetch and
    /// re-fetch.
    pub chunks_per_segment: usize,
    /// Produce a checkpoint every this many committed blocks.
    pub interval: u64,
    /// How many recent snapshots a [`SnapshotStore`] keeps.
    pub retain: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            chunk_bytes: 4096,
            chunks_per_segment: 8,
            interval: 8,
            retain: 2,
        }
    }
}

/// A complete snapshot: the signed manifest plus the segment data
/// (`segments[i][j]` is chunk `j` of segment `i`).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Signed manifest binding chain position and segment roots.
    pub manifest: SignedManifest,
    /// Segment chunk data, in stream order.
    pub segments: Vec<Vec<Vec<u8>>>,
}

impl Snapshot {
    /// Chain height the snapshot covers.
    pub fn height(&self) -> u64 {
        self.manifest.manifest.height
    }
}

/// Raw kvstore contents: `(composite key, value)` pairs in store order.
pub type StateEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Serializes the full kvstore contents into one deterministic stream.
fn encode_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_seq(entries, |e, (k, v)| {
        e.put_bytes(k);
        e.put_bytes(v);
    });
    enc.finish()
}

/// Reassembles and decodes verified segment data back into kvstore
/// entries, checking the byte stream against the manifest's accounting.
pub fn decode_entries(
    manifest: &Manifest,
    segments: &[Vec<Vec<u8>>],
) -> Result<StateEntries, SyncError> {
    if segments.len() != manifest.segments.len() {
        return Err(SyncError::Corrupt(format!(
            "expected {} segments, got {}",
            manifest.segments.len(),
            segments.len()
        )));
    }
    let mut stream = Vec::with_capacity(manifest.total_bytes() as usize);
    for segment in segments {
        for chunk in segment {
            stream.extend_from_slice(chunk);
        }
    }
    let mut dec = Decoder::new(&stream);
    let entries = dec
        .get_seq(|d| Ok((d.get_bytes()?, d.get_bytes()?)))
        .map_err(|e| SyncError::Corrupt(format!("entry stream: {e}")))?;
    dec.expect_end()
        .map_err(|e| SyncError::Corrupt(format!("entry stream: {e}")))?;
    Ok(entries)
}

/// Walks the ledger's current state and produces a signed snapshot at the
/// ledger's present height.
///
/// The signer must be a channel member recognized by the channel MSPs, or
/// consumers will reject the manifest.
pub fn build_snapshot(
    ledger: &Ledger,
    channel: &ChannelId,
    signer: &SigningIdentity,
    config: &SnapshotConfig,
) -> Result<Snapshot, SyncError> {
    let height = ledger.height();
    if height == 0 {
        return Err(SyncError::EmptyLedger);
    }
    let stream = encode_entries(&ledger.state_entries());
    let chunk_bytes = config.chunk_bytes.max(1);
    let chunks: Vec<Vec<u8>> = stream.chunks(chunk_bytes).map(<[u8]>::to_vec).collect();

    let per_segment = config.chunks_per_segment.max(1);
    let mut segments = Vec::new();
    let mut infos = Vec::new();
    for group in chunks.chunks(per_segment) {
        infos.push(SegmentInfo {
            root: fabric_crypto::merkle::root(group),
            chunks: group.len() as u32,
            bytes: group.iter().map(|c| c.len() as u64).sum(),
        });
        segments.push(group.to_vec());
    }

    let manifest = Manifest {
        channel: channel.clone(),
        height,
        block_hash: ledger.last_hash(),
        last_config: ledger.last_config(),
        state_root: ledger.state_root(),
        chunk_bytes: chunk_bytes as u32,
        segments: infos,
    };
    Ok(Snapshot {
        manifest: SignedManifest::sign(manifest, signer),
        segments,
    })
}

/// Periodic checkpoint producer: tracks the last checkpointed height and
/// cuts a new snapshot every [`SnapshotConfig::interval`] blocks.
pub struct Checkpointer {
    config: SnapshotConfig,
    channel: ChannelId,
    last_height: u64,
    /// State root of the last produced snapshot, from the engine's
    /// incrementally-maintained Merkle tree (O(1) to read).
    last_root: Option<fabric_crypto::Digest>,
}

impl Checkpointer {
    /// Creates a checkpointer that has not yet produced a snapshot.
    pub fn new(channel: ChannelId, config: SnapshotConfig) -> Self {
        Checkpointer {
            config,
            channel,
            last_height: 0,
            last_root: None,
        }
    }

    /// Height of the last produced checkpoint (0 if none yet).
    pub fn last_height(&self) -> u64 {
        self.last_height
    }

    /// Cuts a snapshot if the ledger has advanced a full interval since
    /// the last checkpoint; call after each commit.
    pub fn maybe_checkpoint(
        &mut self,
        ledger: &Ledger,
        signer: &SigningIdentity,
    ) -> Result<Option<Snapshot>, SyncError> {
        let height = ledger.height();
        if height < self.last_height + self.config.interval {
            return Ok(None);
        }
        // The engine maintains the state root incrementally, so this is an
        // O(1) read — no scan, no rehash. If the state has not changed
        // since the last checkpoint (empty or all-invalid blocks), skip
        // cutting a byte-identical snapshot and just restart the interval.
        let root = ledger.state_root();
        if self.last_root == Some(root) {
            self.last_height = height;
            return Ok(None);
        }
        let snapshot = build_snapshot(ledger, &self.channel, signer, &self.config)?;
        self.last_height = height;
        self.last_root = Some(root);
        Ok(Some(snapshot))
    }
}

/// Holds a peer's recent snapshots and answers state-transfer requests.
#[derive(Default)]
pub struct SnapshotStore {
    retain: usize,
    snapshots: VecDeque<Snapshot>,
}

impl SnapshotStore {
    /// Creates a store retaining at most `retain` snapshots.
    pub fn new(retain: usize) -> Self {
        SnapshotStore {
            retain: retain.max(1),
            snapshots: VecDeque::new(),
        }
    }

    /// Adds a snapshot, evicting the oldest beyond the retention limit.
    pub fn insert(&mut self, snapshot: Snapshot) {
        self.snapshots.push_back(snapshot);
        while self.snapshots.len() > self.retain {
            self.snapshots.pop_front();
        }
    }

    /// The most recent snapshot for `channel`, if any.
    pub fn latest(&self, channel: &ChannelId) -> Option<&Snapshot> {
        self.snapshots
            .iter()
            .rev()
            .find(|s| &s.manifest.manifest.channel == channel)
    }

    /// Height of the latest snapshot for `channel` (0 if none) — what a
    /// provider advertises to the membership layer.
    pub fn advertised_height(&self, channel: &ChannelId) -> u64 {
        self.latest(channel).map_or(0, Snapshot::height)
    }

    /// Answers a state-transfer request, or `None` for non-request
    /// messages. Unknown manifests and segment indexes yield an empty
    /// `SegmentResponse`, which consumers treat as a fetch failure.
    pub fn serve(&self, message: &SyncMessage) -> Option<SyncMessage> {
        match message {
            SyncMessage::ManifestRequest { channel } => Some(match self.latest(channel) {
                Some(snapshot) => SyncMessage::ManifestResponse {
                    manifest: snapshot.manifest.clone(),
                },
                None => SyncMessage::NoSnapshot {
                    channel: channel.clone(),
                },
            }),
            SyncMessage::SegmentRequest { manifest, segment } => {
                let chunks = self
                    .snapshots
                    .iter()
                    .find(|s| &s.manifest.manifest.digest() == manifest)
                    .and_then(|s| s.segments.get(*segment as usize))
                    .cloned()
                    .unwrap_or_default();
                Some(SyncMessage::SegmentResponse {
                    manifest: *manifest,
                    segment: *segment,
                    chunks,
                })
            }
            _ => None,
        }
    }
}
