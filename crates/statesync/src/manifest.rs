//! Snapshot manifests and the state-transfer wire protocol.
//!
//! A [`Manifest`] is the root of trust for a snapshot: it binds the
//! channel, the chain position (`height`, `block_hash`, `last_config`) and
//! the Merkle root of every state segment into one signed document. A peer
//! that trusts a manifest can verify arbitrary snapshot bytes chunk by
//! chunk without trusting the peers that served them.

use fabric_crypto::{merkle, Digest};
use fabric_msp::{MspRegistry, SigningIdentity};
use fabric_primitives::ids::{ChannelId, SerializedIdentity};
use fabric_primitives::wire::{Decoder, Encoder, Wire, WireError};

use crate::SyncError;

/// Summary of one Merkle-rooted segment of snapshot data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Merkle root over the segment's chunks (chunk bytes are the leaves).
    pub root: Digest,
    /// Number of chunks in the segment.
    pub chunks: u32,
    /// Total payload bytes across the segment's chunks.
    pub bytes: u64,
}

impl SegmentInfo {
    /// Checks a fetched segment against this summary: chunk count, byte
    /// total, and the Merkle root must all match.
    pub fn verify(&self, chunks: &[Vec<u8>]) -> bool {
        chunks.len() as u32 == self.chunks
            && chunks.iter().map(|c| c.len() as u64).sum::<u64>() == self.bytes
            && merkle::root(chunks) == self.root
    }
}

impl Wire for SegmentInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.root);
        enc.put_u32(self.chunks);
        enc.put_u64(self.bytes);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SegmentInfo {
            root: dec.get_array32()?,
            chunks: dec.get_u32()?,
            bytes: dec.get_u64()?,
        })
    }
}

/// The unsigned body of a snapshot manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Channel the snapshot belongs to.
    pub channel: ChannelId,
    /// Chain height covered: blocks `0..height` are folded into the state.
    pub height: u64,
    /// Hash of block `height - 1`, the chain anchor — the first block a
    /// restored peer appends must carry this as its previous-hash.
    pub block_hash: Digest,
    /// Number of the latest configuration block at snapshot time.
    pub last_config: u64,
    /// Incremental Merkle root of the state database at snapshot time, as
    /// maintained by the storage engine. A consumer verifies its installed
    /// state against this without rehashing the entry stream.
    pub state_root: Digest,
    /// Chunk size (bytes) the snapshot was cut with; only the final chunk
    /// may be shorter.
    pub chunk_bytes: u32,
    /// Per-segment Merkle summaries, in stream order.
    pub segments: Vec<SegmentInfo>,
}

impl Manifest {
    /// Content digest of the manifest; identifies the snapshot in segment
    /// requests and responses.
    pub fn digest(&self) -> Digest {
        fabric_crypto::digest(&self.to_wire())
    }

    /// Total snapshot payload size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }
}

impl Wire for Manifest {
    fn encode(&self, enc: &mut Encoder) {
        self.channel.encode(enc);
        enc.put_u64(self.height);
        enc.put_raw(&self.block_hash);
        enc.put_u64(self.last_config);
        enc.put_raw(&self.state_root);
        enc.put_u32(self.chunk_bytes);
        enc.put_seq(&self.segments, |e, s| s.encode(e));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Manifest {
            channel: ChannelId::decode(dec)?,
            height: dec.get_u64()?,
            block_hash: dec.get_array32()?,
            last_config: dec.get_u64()?,
            state_root: dec.get_array32()?,
            chunk_bytes: dec.get_u32()?,
            segments: dec.get_seq(SegmentInfo::decode)?,
        })
    }
}

/// A manifest plus the identity and signature vouching for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedManifest {
    /// The manifest body the signature covers.
    pub manifest: Manifest,
    /// Serialized identity of the signing channel member.
    pub signer: SerializedIdentity,
    /// Signature (64-byte `r || s`) over the encoded manifest.
    pub signature: Vec<u8>,
}

impl SignedManifest {
    /// Signs `manifest` with a channel member's identity.
    pub fn sign(manifest: Manifest, identity: &SigningIdentity) -> SignedManifest {
        let signature = identity.sign(&manifest.to_wire()).to_bytes().to_vec();
        SignedManifest {
            manifest,
            signer: identity.serialized(),
            signature,
        }
    }

    /// Verifies the signature under the channel's MSP federation and that
    /// the manifest names the expected channel.
    pub fn verify(&self, channel: &ChannelId, msps: &MspRegistry) -> Result<(), SyncError> {
        if &self.manifest.channel != channel {
            return Err(SyncError::Untrusted(format!(
                "manifest is for channel {}, expected {}",
                self.manifest.channel, channel
            )));
        }
        if self.manifest.height == 0 {
            return Err(SyncError::Corrupt("manifest covers zero blocks".into()));
        }
        msps.validate_and_verify(&self.signer, &self.manifest.to_wire(), &self.signature)
            .map_err(|e| SyncError::Untrusted(format!("manifest signer rejected: {e}")))?;
        Ok(())
    }
}

impl Wire for SignedManifest {
    fn encode(&self, enc: &mut Encoder) {
        self.manifest.encode(enc);
        self.signer.encode(enc);
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SignedManifest {
            manifest: Manifest::decode(dec)?,
            signer: SerializedIdentity::decode(dec)?,
            signature: dec.get_bytes()?,
        })
    }
}

/// The state-transfer protocol, carried as opaque payloads inside the
/// gossip layer's `StateSync` message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncMessage {
    /// Ask a provider for its latest snapshot manifest on `channel`.
    ManifestRequest {
        /// Channel being synchronized.
        channel: ChannelId,
    },
    /// A provider's signed manifest.
    ManifestResponse {
        /// The manifest, signed by the provider's channel identity.
        manifest: SignedManifest,
    },
    /// The provider holds no snapshot for the channel.
    NoSnapshot {
        /// Channel that was asked about.
        channel: ChannelId,
    },
    /// Ask for one segment of the snapshot identified by manifest digest.
    SegmentRequest {
        /// Digest of the manifest the segment belongs to.
        manifest: Digest,
        /// Zero-based segment index.
        segment: u32,
    },
    /// One segment's chunks. `chunks` is empty if the provider no longer
    /// holds the snapshot (treated as a fetch failure by the consumer).
    SegmentResponse {
        /// Digest of the manifest the segment belongs to.
        manifest: Digest,
        /// Zero-based segment index.
        segment: u32,
        /// The segment's chunks in order.
        chunks: Vec<Vec<u8>>,
    },
}

impl Wire for SyncMessage {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SyncMessage::ManifestRequest { channel } => {
                enc.put_u8(0);
                channel.encode(enc);
            }
            SyncMessage::ManifestResponse { manifest } => {
                enc.put_u8(1);
                manifest.encode(enc);
            }
            SyncMessage::NoSnapshot { channel } => {
                enc.put_u8(2);
                channel.encode(enc);
            }
            SyncMessage::SegmentRequest { manifest, segment } => {
                enc.put_u8(3);
                enc.put_raw(manifest);
                enc.put_u32(*segment);
            }
            SyncMessage::SegmentResponse {
                manifest,
                segment,
                chunks,
            } => {
                enc.put_u8(4);
                enc.put_raw(manifest);
                enc.put_u32(*segment);
                enc.put_seq(chunks, |e, c| e.put_bytes(c));
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.get_u8()? {
            0 => SyncMessage::ManifestRequest {
                channel: ChannelId::decode(dec)?,
            },
            1 => SyncMessage::ManifestResponse {
                manifest: SignedManifest::decode(dec)?,
            },
            2 => SyncMessage::NoSnapshot {
                channel: ChannelId::decode(dec)?,
            },
            3 => SyncMessage::SegmentRequest {
                manifest: dec.get_array32()?,
                segment: dec.get_u32()?,
            },
            4 => SyncMessage::SegmentResponse {
                manifest: dec.get_array32()?,
                segment: dec.get_u32()?,
                chunks: dec.get_seq(|d| d.get_bytes())?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}
