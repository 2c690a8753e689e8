//! Stage-equivalence harness for the cross-block pipelined committer:
//! arbitrary block sequences — valid, tampered, under-endorsed, stale
//! (cross-block MVCC conflicting), and phantom-prone transactions — must
//! produce byte-identical validity masks and final state whether committed
//! through `Peer::commit_block` (the sequential reference) or a
//! `DeliverMux` (the pipelined committer every peer runs).

mod common;

use common::PipelineWorld;
use fabric::peer::{Deliver, DeliverMux, Peer, PipelineOptions};
use fabric::primitives::block::Block;
use fabric::primitives::ids::{ChannelId, TxValidationCode, Version};
use fabric::primitives::transaction::Envelope;
use fabric::primitives::wire::Wire;
use proptest::prelude::*;

/// Commits `blocks` sequentially, returning the per-block validity masks.
fn commit_sequential(peer: &Peer, blocks: &[Block]) -> Vec<Vec<TxValidationCode>> {
    blocks
        .iter()
        .map(|block| peer.commit_block(block).expect("sequential commit").0)
        .collect()
}

/// Commits `blocks` through a mux of `workers` VSCC workers, returning
/// the per-block masks in commit (block) order.
fn commit_pipelined(peer: &Peer, blocks: &[Block], workers: usize) -> Vec<Vec<TxValidationCode>> {
    let channel = peer.channel();
    let opts = PipelineOptions {
        intake_capacity: 4,
        ..PipelineOptions::default()
    };
    let mux = common::mux_for(peer, workers, opts);
    let events = mux.events(channel).expect("channel events");
    common::deliver_all(&mux, channel, blocks).expect("pipeline accepts blocks");
    let final_height = blocks.last().expect("blocks nonempty").header.number + 1;
    mux.wait_committed(channel, final_height)
        .expect("pipeline drains");
    mux.close().expect("pipeline closes clean");
    let mut masks = Vec::with_capacity(blocks.len());
    let mut expected_num = blocks[0].header.number;
    while let Ok(event) = events.try_recv() {
        assert_eq!(event.block_num, expected_num, "events in block order");
        expected_num += 1;
        masks.push(event.validity);
    }
    masks
}

/// Asserts the two peers hold identical ledgers: height, tip hash,
/// persisted validity metadata, and world state.
fn assert_ledgers_equal(a: &Peer, b: &Peer) {
    assert_eq!(a.height(), b.height(), "heights diverge");
    assert_eq!(
        a.ledger().last_hash(),
        b.ledger().last_hash(),
        "chain tips diverge"
    );
    for number in 0..a.height() {
        assert_eq!(
            a.get_block(number).unwrap().unwrap().metadata.validation,
            b.get_block(number).unwrap().unwrap().metadata.validation,
            "persisted flags diverge at block {number}"
        );
    }
    assert_eq!(
        a.scan_state("kv", "", "").unwrap(),
        b.scan_state("kv", "", "").unwrap(),
        "world state diverges"
    );
}

/// Builds the shared op-stream block mix: valid puts/incrs/scanputs,
/// tampered and under-endorsed envelopes, and deferred (cross-block
/// stale) read-bearing transactions, sealed every three ops.
fn build_op_blocks(world: &mut PipelineWorld, ops: &[(u8, u8, u8)]) {
    // Envelopes endorsed against an older state, included one block
    // later than the ops that follow them — cross-block staleness.
    let mut deferred: Vec<Envelope> = Vec::new();
    let mut current: Vec<Envelope> = Vec::new();
    for (i, &(op, key, defer)) in ops.iter().enumerate() {
        let key_name = format!("k{}", key % 3);
        let envelope = match op % 6 {
            0 => world.endorse("put", vec![key_name.into_bytes(), vec![op, key, defer]]),
            1 => world.endorse("incr", vec![key_name.into_bytes()]),
            2 => world.endorse(
                "scanput",
                vec![b"k".to_vec(), format!("out{}", key % 2).into_bytes()],
            ),
            3 => {
                let env = world.endorse("put", vec![key_name.into_bytes(), vec![op]]);
                world.tamper_signature(env)
            }
            4 => {
                let env = world.endorse("put", vec![key_name.into_bytes(), vec![op]]);
                world.strip_endorsements(env)
            }
            _ => world.endorse("incr", vec![key_name.into_bytes()]),
        };
        // Read-bearing ops may be deferred a block: their read
        // versions go stale if an intervening op writes the same key.
        if defer % 2 == 1 && matches!(op % 6, 1 | 2 | 5) {
            deferred.push(envelope);
        } else {
            current.push(envelope);
        }
        // Seal a block every three ops (and at the end).
        if (i + 1) % 3 == 0 || i + 1 == ops.len() {
            if !current.is_empty() {
                world.seal_block(current.split_off(0));
            }
            if !deferred.is_empty() {
                world.seal_block(deferred.split_off(0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core equivalence property: for arbitrary op streams, the
    /// pipelined committer's masks and final state are byte-identical to
    /// the sequential committer's, on one VSCC worker and on several.
    #[test]
    fn pipelined_committer_equivalent_to_sequential(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 6..36),
    ) {
        let mut world = PipelineWorld::new();
        build_op_blocks(&mut world, &ops);

        let sequential = world.replica("seq.org1", 2);
        let masks_seq = commit_sequential(&sequential, &world.blocks);
        for workers in [1, 3] {
            let pipelined = world.replica(&format!("pipe{workers}.org1"), 2);
            let masks_pipe = commit_pipelined(&pipelined, &world.blocks, workers);
            prop_assert_eq!(&masks_seq, &masks_pipe, "{} workers", workers);
            assert_ledgers_equal(&sequential, &pipelined);
        }
    }

    /// Shared-pool equivalence: two channels (independent replica
    /// ledgers) attached to one mux with default credit windows share its
    /// three VSCC workers, their in-order deliveries raced under a
    /// proptest-chosen interleaving. Each channel's event stream, masks
    /// and final state must match the sequential reference.
    #[test]
    fn multi_channel_shared_pool_equivalent_to_sequential(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 6..24),
        interleave in prop::collection::vec(any::<u8>(), 48),
    ) {
        let mut world = PipelineWorld::new();
        build_op_blocks(&mut world, &ops);

        let sequential = world.replica("seq.org1", 2);
        let masks_seq = commit_sequential(&sequential, &world.blocks);

        let mux = DeliverMux::new(3);
        let chans = [ChannelId::new("chan-a"), ChannelId::new("chan-b")];
        let peers = [world.replica("chan-a.org1", 2), world.replica("chan-b.org1", 2)];
        let opts = PipelineOptions {
            intake_capacity: 4,
            ..PipelineOptions::default()
        };
        for channel in 0..2 {
            mux.attach(chans[channel].clone(), &peers[channel], opts)
                .expect("channel attaches");
        }
        let events = [
            mux.events(&chans[0]).expect("channel A events"),
            mux.events(&chans[1]).expect("channel B events"),
        ];
        let mut next = [0usize; 2];
        // Race the two channels' in-order deliveries in the chosen order.
        for &choice in &interleave {
            let channel = (choice % 2) as usize;
            if next[channel] < world.blocks.len() {
                common::deliver(&mux, &chans[channel], &world.blocks[next[channel]])
                    .expect("mux accepts block");
                next[channel] += 1;
            }
        }
        let final_height = world.blocks.last().expect("blocks nonempty").header.number + 1;
        for channel in 0..2 {
            common::deliver_all(&mux, &chans[channel], &world.blocks[next[channel]..])
                .expect("mux accepts blocks");
            mux.wait_committed(&chans[channel], final_height).expect("channel drains");
        }
        mux.close().expect("mux closes clean");

        for (channel, events) in events.into_iter().enumerate() {
            let mut masks = Vec::with_capacity(world.blocks.len());
            let mut expected_num = world.blocks[0].header.number;
            while let Ok(event) = events.try_recv() {
                prop_assert_eq!(event.block_num, expected_num, "events in block order");
                expected_num += 1;
                masks.push(event.validity);
            }
            prop_assert_eq!(&masks, &masks_seq, "channel {} masks diverge", channel);
            assert_ledgers_equal(&sequential, &peers[channel]);
        }
    }

    /// Multi-channel equivalence: two channels (independent replica
    /// ledgers) share one mux and its VSCC pool, their deliveries raced
    /// under a proptest-chosen cross-channel interleaving and credit
    /// windows. Tiny windows (1..=3) against a small parking
    /// buffer force genuine credit-exhaustion stalls and `Saturated`
    /// refusals mid-stream; whatever the scheduler and backpressure do,
    /// each channel's masks and final state must stay byte-identical to
    /// the sequential reference.
    #[test]
    fn mux_equivalent_under_random_weights_and_credits(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 6..24),
        interleave in prop::collection::vec(any::<u8>(), 64),
        credits in prop::array::uniform2(1usize..=3),
    ) {
        let mut world = PipelineWorld::new();
        build_op_blocks(&mut world, &ops);

        let sequential = world.replica("seq.org1", 2);
        let masks_seq = commit_sequential(&sequential, &world.blocks);

        let mux = DeliverMux::new(3);
        let chans = [ChannelId::new("chan-a"), ChannelId::new("chan-b")];
        let peers = [world.replica("chan-a.org1", 2), world.replica("chan-b.org1", 2)];
        for channel in 0..2 {
            mux.attach(chans[channel].clone(), &peers[channel], PipelineOptions {
                intake_capacity: 4,
                deliver_credits: credits[channel],
                park_window: 4,
            }).expect("channel attaches");
        }
        let events = [
            mux.events(&chans[0]).expect("channel A events"),
            mux.events(&chans[1]).expect("channel B events"),
        ];

        let wire: Vec<Vec<u8>> = world.blocks.iter().map(Wire::to_wire).collect();
        let mut next = [0usize; 2];
        // Race the channels' in-order deliveries; a `Saturated` refusal
        // (parking buffer full behind an exhausted credit window) leaves
        // the cursor in place — the block is re-offered later, exactly
        // like a backing-off gossip provider.
        let offer = |channel: usize, next: &mut [usize; 2]| -> Result<(), TestCaseError> {
            if next[channel] >= wire.len() {
                return Ok(());
            }
            let number = world.blocks[next[channel]].header.number;
            match mux.deliver(&chans[channel], number, &wire[next[channel]])
                .expect("in-order delivery never errors")
            {
                Deliver::Submitted | Deliver::Parked => next[channel] += 1,
                Deliver::Saturated => {
                    mux.pump(&chans[channel]).expect("pump after refusal");
                }
                Deliver::Duplicate => prop_assert!(false, "first delivery misread as duplicate"),
            }
            Ok(())
        };
        for &choice in &interleave {
            offer((choice % 2) as usize, &mut next)?;
        }
        // Drain the stragglers, waiting out credit stalls.
        let final_height = world.blocks.last().expect("blocks nonempty").header.number + 1;
        for channel in 0..2 {
            common::deliver_all(&mux, &chans[channel], &world.blocks[next[channel]..])
                .expect("in-order delivery never errors");
            mux.wait_committed(&chans[channel], final_height).expect("channel drains");
        }
        let stats = mux.close().expect("mux closes clean");

        for (channel, events) in events.into_iter().enumerate() {
            prop_assert_eq!(
                stats[&chans[channel]].blocks as usize,
                world.blocks.len(),
                "every block committed exactly once"
            );
            let mut masks = Vec::with_capacity(world.blocks.len());
            let mut expected_num = world.blocks[0].header.number;
            while let Ok(event) = events.try_recv() {
                prop_assert_eq!(event.block_num, expected_num, "events in block order");
                expected_num += 1;
                masks.push(event.validity);
            }
            prop_assert_eq!(&masks, &masks_seq, "channel {} masks diverge", channel);
            assert_ledgers_equal(&sequential, &peers[channel]);
        }
    }
}

/// Deterministic cross-block MVCC check: a transaction in block *n+1*
/// endorsed *after* block *n* committed reads the key at its post-commit
/// version, and the pipeline (which overlaps the two blocks) must agree.
#[test]
fn cross_block_read_validates_against_post_commit_version() {
    let mut world = PipelineWorld::new();
    // Block 2: first increment, writes ctr = 1.
    let e1 = world.endorse("incr", vec![b"ctr".to_vec()]);
    world.seal_block(vec![e1]);
    // Block 3: endorsed after block 2 committed on the builder, so its
    // read of ctr carries block 2's version.
    let e2 = world.endorse("incr", vec![b"ctr".to_vec()]);
    world.seal_block(vec![e2]);

    let replica = world.replica("pipe.org1", 2);
    let masks = commit_pipelined(&replica, &world.blocks, 2);
    assert_eq!(
        masks,
        vec![
            vec![TxValidationCode::Valid],
            vec![TxValidationCode::Valid],
            vec![TxValidationCode::Valid],
        ]
    );
    assert_eq!(
        replica.get_state("kv", "ctr").unwrap(),
        Some(2u64.to_le_bytes().to_vec()),
        "both increments applied"
    );
    // The committed version of ctr is block 3's write.
    let (version, _) = replica
        .ledger()
        .get_state_versioned("kv", "ctr")
        .unwrap()
        .expect("ctr exists");
    assert_eq!(version, Version::new(3, 0));
}

/// Deterministic stale-read check: two increments endorsed against the
/// same state but committed in different blocks — the second must be
/// invalidated with `MvccReadConflict`, exactly as in the sequential path.
#[test]
fn stale_cross_block_read_invalidated() {
    let mut world = PipelineWorld::new();
    let e1 = world.endorse("incr", vec![b"ctr".to_vec()]);
    let e2 = world.endorse("incr", vec![b"ctr".to_vec()]); // same read version
    world.seal_block(vec![e1]);
    world.seal_block(vec![e2]); // stale by the time it commits

    let sequential = world.replica("seq.org1", 2);
    let pipelined = world.replica("pipe.org1", 2);
    let masks_seq = commit_sequential(&sequential, &world.blocks);
    let masks_pipe = commit_pipelined(&pipelined, &world.blocks, 2);
    assert_eq!(masks_seq, masks_pipe);
    assert_eq!(
        masks_pipe,
        vec![
            vec![TxValidationCode::Valid],
            vec![TxValidationCode::Valid],
            vec![TxValidationCode::MvccReadConflict],
        ]
    );
    assert_eq!(
        pipelined.get_state("kv", "ctr").unwrap(),
        Some(1u64.to_le_bytes().to_vec()),
        "lost update prevented"
    );
    assert_ledgers_equal(&sequential, &pipelined);
}

/// Deterministic phantom check: a range scan endorsed before a key enters
/// its range is a phantom read once a later block commits first.
#[test]
fn phantom_range_read_invalidated_across_blocks() {
    let mut world = PipelineWorld::new();
    let scan = world.endorse("scanput", vec![b"k".to_vec(), b"out".to_vec()]);
    let put = world.endorse("put", vec![b"k5".to_vec(), b"v".to_vec()]);
    world.seal_block(vec![put]); // k5 enters the scanned range first
    world.seal_block(vec![scan]); // the scan's result hash is now stale

    let sequential = world.replica("seq.org1", 2);
    let pipelined = world.replica("pipe.org1", 2);
    let masks_seq = commit_sequential(&sequential, &world.blocks);
    let masks_pipe = commit_pipelined(&pipelined, &world.blocks, 2);
    assert_eq!(masks_seq, masks_pipe);
    assert_eq!(
        masks_pipe[2],
        vec![TxValidationCode::PhantomReadConflict],
        "range result changed under the scan"
    );
    assert_eq!(
        pipelined.get_state("kv", "out").unwrap(),
        None,
        "phantom scan's write disregarded"
    );
    assert_ledgers_equal(&sequential, &pipelined);
}
