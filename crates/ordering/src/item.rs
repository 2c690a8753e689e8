//! Items carried by the atomic-broadcast stream.
//!
//! The consensus layer (Solo queue, Raft log, PBFT sequence) totally orders
//! opaque byte strings; the ordering service tags each with its channel and
//! kind. Besides transactions, the stream carries the *time-to-cut* markers
//! of the paper's deterministic batching protocol (Sec. 4.2): when an OSN's
//! batch timer fires it broadcasts a TTC for the block number it intends to
//! cut, and every OSN cuts that block on the *first* TTC it delivers.

use fabric_primitives::transaction::Envelope;
use fabric_primitives::wire::{Decoder, Encoder, Wire, WireError};
use fabric_primitives::ChannelId;

/// One totally-ordered item.
// Envelope dominates the size; boxing it would ripple through every
// construction site for a value that lives briefly on the submit path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderedItem {
    /// A transaction (or config) envelope for a channel.
    Tx {
        /// Target channel.
        channel: ChannelId,
        /// The envelope.
        envelope: Envelope,
    },
    /// A time-to-cut marker for `block` on `channel`.
    TimeToCut {
        /// Target channel.
        channel: ChannelId,
        /// The block number the sender intends to cut.
        block: u64,
    },
    /// Several leaf items riding one consensus slot (the batched intake
    /// path): delivered as if each item had been ordered consecutively.
    /// Batches never nest — the decoder rejects a batch inside a batch.
    Batch {
        /// The leaf items, in submission order.
        items: Vec<OrderedItem>,
    },
}

impl OrderedItem {
    /// The channel this item belongs to. For a batch, the first leaf's
    /// channel (batches may span channels; drivers dispatch per leaf).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch (the decoder never produces one).
    pub fn channel(&self) -> &ChannelId {
        match self {
            OrderedItem::Tx { channel, .. } | OrderedItem::TimeToCut { channel, .. } => channel,
            OrderedItem::Batch { items } => {
                items.first().expect("batches are never empty").channel()
            }
        }
    }

    /// Decodes a non-batch item (the recursion-free base case).
    fn decode_leaf(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = dec.get_u8()?;
        OrderedItem::decode_leaf_body(tag, dec)
    }

    /// Decodes a leaf item whose tag byte has already been consumed.
    fn decode_leaf_body(tag: u8, dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            0 => OrderedItem::Tx {
                channel: ChannelId::decode(dec)?,
                envelope: Envelope::decode(dec)?,
            },
            1 => OrderedItem::TimeToCut {
                channel: ChannelId::decode(dec)?,
                block: dec.get_u64()?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for OrderedItem {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            OrderedItem::Tx { channel, envelope } => {
                enc.put_u8(0);
                channel.encode(enc);
                envelope.encode(enc);
            }
            OrderedItem::TimeToCut { channel, block } => {
                enc.put_u8(1);
                channel.encode(enc);
                enc.put_u64(*block);
            }
            OrderedItem::Batch { items } => {
                enc.put_u8(2);
                enc.put_seq(items, |e, item| item.encode(e));
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        // A batch decodes its members through `decode_leaf` only, so
        // adversarial input cannot nest batches and overflow the stack
        // (this stream is fuzzed — see `tests/fuzz_decode.rs`).
        let tag = dec.get_u8()?;
        if tag == 2 {
            let items = dec.get_seq(OrderedItem::decode_leaf)?;
            if items.is_empty() {
                return Err(WireError::BadTag(2));
            }
            return Ok(OrderedItem::Batch { items });
        }
        OrderedItem::decode_leaf_body(tag, dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttc_round_trip() {
        let item = OrderedItem::TimeToCut {
            channel: ChannelId::new("ch"),
            block: 7,
        };
        assert_eq!(OrderedItem::from_wire(&item.to_wire()).unwrap(), item);
        assert_eq!(item.channel().as_str(), "ch");
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(OrderedItem::from_wire(&[9]).is_err());
    }

    #[test]
    fn batch_round_trip() {
        let batch = OrderedItem::Batch {
            items: vec![
                OrderedItem::TimeToCut {
                    channel: ChannelId::new("a"),
                    block: 1,
                },
                OrderedItem::TimeToCut {
                    channel: ChannelId::new("b"),
                    block: 2,
                },
            ],
        };
        assert_eq!(OrderedItem::from_wire(&batch.to_wire()).unwrap(), batch);
        assert_eq!(batch.channel().as_str(), "a");
    }

    #[test]
    fn nested_and_empty_batches_rejected() {
        let inner = OrderedItem::Batch {
            items: vec![OrderedItem::TimeToCut {
                channel: ChannelId::new("a"),
                block: 1,
            }],
        };
        // Hand-craft a batch containing a batch: tag 2, count 1, inner.
        let mut nested = vec![2u8, 1, 0, 0, 0];
        nested.extend_from_slice(&inner.to_wire());
        assert!(OrderedItem::from_wire(&nested).is_err());
        // Empty batch: tag 2, count 0.
        assert!(OrderedItem::from_wire(&[2, 0, 0, 0, 0]).is_err());
    }
}
