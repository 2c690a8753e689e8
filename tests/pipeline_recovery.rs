//! Crash-recovery tests for the pipelined committer (`DeliverMux`):
//! killing the peer with blocks still queued in the pipeline must leave a
//! ledger that recovers from its savepoint to exactly the last fully
//! committed block, after which re-delivering the remaining blocks
//! converges with a peer that never crashed.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{deliver, deliver_all, mux_for, PipelineWorld};
use fabric::chaincode::Vscc;
use fabric::kvstore::backend::Backend;
use fabric::kvstore::MemBackend;
use fabric::ledger::{BlockStore, Ledger};
use fabric::msp::MspRegistry;
use fabric::peer::{DeliverMux, Peer, PipelineOptions};
use fabric::primitives::block::Block;
use fabric::primitives::ids::{ChannelId, TxValidationCode};
use fabric::primitives::transaction::Transaction;

/// A VSCC that validates like the default "always valid for honestly
/// endorsed txs" path but sleeps first, so submitted blocks pile up in
/// the pipeline before the crash.
struct SlowVscc;

impl Vscc for SlowVscc {
    fn validate(
        &self,
        _tx: &Transaction,
        _msp: &MspRegistry,
        _channel_orgs: &[String],
        _ledger: &fabric::ledger::Ledger,
    ) -> TxValidationCode {
        std::thread::sleep(Duration::from_millis(15));
        TxValidationCode::Valid
    }
}

/// A two-block intake: the mux clamps its credit window to it, so most
/// delivered blocks are still queued when a test crashes or closes.
fn small_intake() -> PipelineOptions {
    PipelineOptions {
        intake_capacity: 2,
        ..PipelineOptions::default()
    }
}

/// Re-delivers `blocks` to a restarted peer as a restarted peer takes
/// them: through a fresh mux attached at the recovered height.
fn redeliver(peer: &Peer, blocks: &[Block]) {
    let mux = mux_for(peer, 2, PipelineOptions::default());
    deliver_all(&mux, peer.channel(), blocks).expect("redelivered tail accepted");
    mux.close().expect("redelivered tail commits");
}

#[test]
fn abort_with_queued_blocks_recovers_from_savepoint() {
    let mut world = PipelineWorld::new();
    // Six blocks of disjoint-key puts (no dependency stalls, all valid).
    for b in 0..6u8 {
        let envelopes = (0..3)
            .map(|i| world.endorse("put", vec![format!("b{b}x{i}").into_bytes(), vec![b, i]]))
            .collect();
        world.seal_block(envelopes);
    }
    let total_blocks = world.blocks.len(); // deploy + 6

    // The victim runs the pipeline on a backend that survives the crash.
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let victim = world.replica_on("victim.org1", 2, backend.clone());
    victim.register_vscc("kv", Arc::new(SlowVscc));
    let channel = victim.channel();
    let mux = mux_for(&victim, 2, small_intake());
    deliver_all(&mux, channel, &world.blocks).expect("pipeline accepts");
    // Crash while later blocks are still queued: wait for a mid-chain
    // watermark, then abort without draining.
    mux.wait_committed(channel, 3).expect("prefix commits");
    mux.abort();
    let crash_height = victim.height();
    assert!(
        crash_height >= 3,
        "the waited-for prefix must have committed"
    );
    assert!(
        crash_height <= total_blocks as u64 + 1,
        "cannot commit more than was submitted"
    );
    drop(victim);

    // "Restart": reopen the same backend. Recovery replays from the
    // savepoint; the ledger resumes at the last fully committed block.
    let reopened = world.replica_on("victim.org1", 2, backend.clone());
    assert_eq!(reopened.height(), crash_height, "no block lost or invented");
    assert_eq!(
        reopened.ledger().ptm().savepoint(),
        Some(crash_height - 1),
        "savepoint matches the last committed block"
    );

    // Re-deliver the tail exactly where the crash left off, then compare
    // against a reference peer that never crashed.
    let reference = world.replica("reference.org1", 2);
    for block in &world.blocks {
        reference.commit_block(block).expect("reference commits");
    }
    redeliver(&reopened, &world.blocks[(crash_height as usize - 1)..]);
    assert_eq!(reopened.height(), reference.height());
    assert_eq!(
        reopened.ledger().last_hash(),
        reference.ledger().last_hash()
    );
    assert_eq!(
        reopened.scan_state("kv", "", "").unwrap(),
        reference.scan_state("kv", "", "").unwrap(),
        "post-recovery state equals the never-crashed reference"
    );
}

#[test]
fn close_with_queued_blocks_drains_then_restarts_from_savepoint() {
    // `close()` is the graceful counterpart of `abort()`: every block
    // already delivered must drain through validation and commit before
    // the call returns — drain, not drop.
    let mut world = PipelineWorld::new();
    for b in 0..5u8 {
        let envelopes = (0..2)
            .map(|i| world.endorse("put", vec![format!("c{b}x{i}").into_bytes(), vec![b, i]]))
            .collect();
        world.seal_block(envelopes);
    }
    let total_blocks = world.blocks.len() as u64; // deploy + 5

    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let peer = world.replica_on("drainer.org1", 2, backend.clone());
    peer.register_vscc("kv", Arc::new(SlowVscc));
    let channel = peer.channel();
    let mux = mux_for(&peer, 2, small_intake());
    deliver_all(&mux, channel, &world.blocks).expect("pipeline accepts");
    // Close immediately, without waiting for the watermark: the queued
    // tail must still commit.
    let stats = mux
        .close()
        .expect("close drains clean")
        .remove(channel)
        .unwrap();
    assert_eq!(stats.blocks, total_blocks, "every queued block committed");
    assert_eq!(
        peer.height(),
        total_blocks + 1,
        "close() drained the queue rather than dropping it"
    );
    drop(peer);

    // Restart from the same backend: the savepoint agrees with the fully
    // drained chain, and state matches a never-pipelined reference.
    let reopened = world.replica_on("drainer.org1", 2, backend.clone());
    assert_eq!(reopened.height(), total_blocks + 1);
    assert_eq!(reopened.ledger().ptm().savepoint(), Some(total_blocks));
    let reference = world.replica("reference.org1", 2);
    for block in &world.blocks {
        reference.commit_block(block).expect("reference commits");
    }
    assert_eq!(
        reopened.ledger().last_hash(),
        reference.ledger().last_hash()
    );
    assert_eq!(
        reopened.scan_state("kv", "", "").unwrap(),
        reference.scan_state("kv", "", "").unwrap(),
        "drained state equals the sequential reference"
    );
}

#[test]
fn multi_channel_abort_isolates_channels_and_recovers_from_savepoint() {
    // Two channels share one mux and its VSCC pool. The victim's VSCC is
    // slow; the survivor's backlog must still drain to completion beside
    // it. Aborting the mux (a peer crash) then leaves each channel at its
    // own savepoint: the survivor's chain is whole, and the victim
    // restarts cleanly from wherever its pipeline stopped.
    let mut world = PipelineWorld::new();
    for b in 0..6u8 {
        let envelopes = (0..3)
            .map(|i| world.endorse("put", vec![format!("m{b}x{i}").into_bytes(), vec![b, i]]))
            .collect();
        world.seal_block(envelopes);
    }
    let total_blocks = world.blocks.len() as u64; // deploy + 6

    let mux = DeliverMux::new(2);
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let victim = world.replica_on("victim.org1", 2, backend.clone());
    victim.register_vscc("kv", Arc::new(SlowVscc));
    let survivor = world.replica("survivor.org1", 2);
    let (victim_chan, survivor_chan) = (ChannelId::new("victim"), ChannelId::new("survivor"));
    mux.attach(victim_chan.clone(), &victim, small_intake())
        .expect("victim attaches");
    mux.attach(survivor_chan.clone(), &survivor, small_intake())
        .expect("survivor attaches");
    for block in &world.blocks {
        deliver(&mux, &victim_chan, block).expect("victim accepts");
        deliver(&mux, &survivor_chan, block).expect("survivor accepts");
    }
    mux.wait_committed(&victim_chan, 3)
        .expect("victim prefix commits");
    // The surviving channel drains to completion on the shared pool.
    mux.wait_committed(&survivor_chan, total_blocks + 1)
        .expect("survivor unaffected by the victim's slow backlog");
    mux.abort();
    let crash_height = victim.height();
    assert!(
        crash_height >= 3,
        "the waited-for prefix must have committed"
    );
    drop(victim);

    let reference = world.replica("reference.org1", 2);
    for block in &world.blocks {
        reference.commit_block(block).expect("reference commits");
    }
    assert_eq!(survivor.height(), reference.height());
    assert_eq!(
        survivor.ledger().last_hash(),
        reference.ledger().last_hash()
    );

    // The aborted channel restarts from its savepoint and converges once
    // the tail is re-delivered.
    let reopened = world.replica_on("victim.org1", 2, backend.clone());
    assert_eq!(reopened.height(), crash_height, "no block lost or invented");
    assert_eq!(
        reopened.ledger().ptm().savepoint(),
        Some(crash_height - 1),
        "savepoint matches the last committed block"
    );
    redeliver(&reopened, &world.blocks[(crash_height as usize - 1)..]);
    assert_eq!(reopened.height(), reference.height());
    assert_eq!(
        reopened.ledger().last_hash(),
        reference.ledger().last_hash()
    );
    assert_eq!(
        reopened.scan_state("kv", "", "").unwrap(),
        reference.scan_state("kv", "", "").unwrap(),
        "post-recovery state equals the never-crashed reference"
    );
}

/// Dropping a mux without `close` is a graceful stop: every delivered
/// block drains through validation and commits before the VSCC pool
/// shuts down, rather than being abandoned in the pool's queue.
#[test]
fn dropping_the_mux_drains_delivered_blocks() {
    let mut world = PipelineWorld::new();
    for b in 0..6u8 {
        let envelopes = (0..2)
            .map(|i| world.endorse("put", vec![format!("d{b}x{i}").into_bytes(), vec![b, i]]))
            .collect();
        world.seal_block(envelopes);
    }
    let final_height = world.blocks.len() as u64 + 1; // genesis + deploy + 6

    let peer = world.replica("dropper.org1", 2);
    peer.register_vscc("kv", Arc::new(SlowVscc));
    let channel = peer.channel();
    let mux = mux_for(&peer, 2, PipelineOptions::default());
    deliver_all(&mux, channel, &world.blocks).expect("pipeline accepts");
    drop(mux);
    assert_eq!(peer.height(), final_height, "dropping the mux drained it");
}

#[test]
fn torn_block_file_append_truncated_and_redelivered() {
    // A crash mid-append can leave half a block record at the tail of
    // `blocks.dat` (before the PTM saw anything). Reopening must discard
    // the torn tail, resume from the last intact block, and accept the
    // re-delivered block as if the torn write never happened.
    let mut world = PipelineWorld::new();
    for b in 0..2u8 {
        let e = world.endorse("put", vec![format!("t{b}").into_bytes(), vec![b; 24]]);
        world.seal_block(vec![e]);
    }

    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    {
        let peer = world.replica_on("victim.org1", 2, backend.clone());
        for block in &world.blocks[..2] {
            peer.commit_block(block).expect("prefix commits");
        }
    }
    // Record the intact file length, then append block 3's record and cut
    // it in half — the crash window inside the block-store append.
    let intact_len = backend.open("blocks.dat").unwrap().len().unwrap();
    {
        let store = BlockStore::open(backend.clone(), false).expect("store opens");
        let mut torn = world.blocks[2].clone();
        torn.metadata.validation = vec![TxValidationCode::Valid];
        store.append(&torn).expect("append starts");
    }
    {
        let mut file = backend.open("blocks.dat").unwrap();
        let full_len = file.len().unwrap();
        assert!(full_len > intact_len, "the record reached the file");
        file.truncate(intact_len + (full_len - intact_len) / 2)
            .unwrap();
    }

    // Reopen: the half record is truncated away, the chain ends at the
    // last intact block, and the savepoint agrees.
    let reopened = world.replica_on("victim.org1", 2, backend.clone());
    assert_eq!(reopened.height(), 3, "torn tail discarded");
    assert_eq!(reopened.ledger().ptm().savepoint(), Some(2));
    assert_eq!(
        reopened.get_state("kv", "t1").unwrap(),
        None,
        "the torn block's writes never surfaced"
    );

    // Re-delivering the block commits it cleanly; state converges with a
    // never-crashed reference.
    redeliver(&reopened, &world.blocks[2..]);
    let reference = world.replica("reference.org1", 2);
    for block in &world.blocks {
        reference.commit_block(block).expect("reference commits");
    }
    assert_eq!(reopened.height(), reference.height());
    assert_eq!(
        reopened.ledger().last_hash(),
        reference.ledger().last_hash()
    );
    assert_eq!(
        reopened.ledger().state_entries(),
        reference.ledger().state_entries(),
        "byte-identical kvstore after torn-write recovery"
    );
}

#[test]
fn torn_commit_replayed_from_savepoint_on_reopen() {
    // Simulate the torn window inside Ledger::commit: the block reached
    // the block store but the state-update (and savepoint) did not.
    let mut world = PipelineWorld::new();
    let e = world.endorse("put", vec![b"torn".to_vec(), b"yes".to_vec()]);
    world.seal_block(vec![e]);

    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    {
        let peer = world.replica_on("victim.org1", 2, backend.clone());
        peer.commit_block(&world.blocks[0]).expect("deploy commits");
        drop(peer);
    }
    {
        // Append block 2 to the block store only — no PTM update, no
        // savepoint advance: a crash between the committer's two writes.
        let store = BlockStore::open(backend.clone(), false).expect("store opens");
        let mut torn = world.blocks[1].clone();
        torn.metadata.validation = vec![TxValidationCode::Valid];
        store.append(&torn).expect("block store append");
    }
    // Reopen: recovery must replay the torn block from the savepoint.
    let ledger = Ledger::open(backend.clone(), false).expect("ledger recovers");
    assert_eq!(ledger.height(), 3, "torn block still on the chain");
    assert_eq!(ledger.ptm().savepoint(), Some(2), "savepoint caught up");
    assert_eq!(
        ledger.get_state("kv", "torn").unwrap(),
        Some(b"yes".to_vec()),
        "torn block's writes applied during recovery"
    );

    // The recovered ledger matches a clean sequential reference.
    let reference = world.replica("reference.org1", 2);
    for block in &world.blocks {
        reference.commit_block(block).expect("reference commits");
    }
    assert_eq!(ledger.last_hash(), reference.ledger().last_hash());
    assert_eq!(
        ledger.scan_state("kv", "", "").unwrap(),
        reference.scan_state("kv", "", "").unwrap()
    );
}

/// A custom VSCC that panics on every transaction it is handed.
struct PanickingVscc;

impl Vscc for PanickingVscc {
    fn validate(
        &self,
        _tx: &Transaction,
        _msp: &MspRegistry,
        _channel_orgs: &[String],
        _ledger: &fabric::ledger::Ledger,
    ) -> TxValidationCode {
        panic!("hostile VSCC");
    }
}

/// One panic policy for pooled work: a VSCC that panics on a pool worker
/// fails its own channel with an error — `wait_committed` returns it
/// instead of waiting forever on a block whose task count can never
/// reach zero — and the worker survives to serve the other channels of
/// the mux's shared pool.
#[test]
fn panicking_vscc_fails_its_channel_and_spares_the_pool() {
    let mut world = PipelineWorld::new();
    for key in ["k1", "k2"] {
        let envelope = world.endorse("put", vec![key.as_bytes().to_vec(), b"v".to_vec()]);
        world.seal_block(vec![envelope]);
    }
    let final_height = world.blocks.len() as u64 + 1; // deploy (LSCC), k1, k2
                                                      // A single worker: if the panic killed it, nothing below would return.
    let mux = Arc::new(DeliverMux::new(1));
    let victim = world.replica("victim.org1", 1);
    victim.register_vscc("kv", Arc::new(PanickingVscc));
    let victim_chan = ChannelId::new("victim");
    mux.attach(victim_chan.clone(), &victim, PipelineOptions::default())
        .expect("victim attaches");
    // Whoever touches the stopped pipeline first is handed its error. The
    // wait runs on its own thread so that a wait which never returns
    // fails this test instead of hanging the suite.
    let refused = deliver_all(&mux, &victim_chan, &world.blocks).err();
    let (tx, rx) = mpsc::channel();
    let waiter = {
        let (mux, chan) = (mux.clone(), victim_chan.clone());
        std::thread::spawn(move || {
            let _ = tx.send(mux.wait_committed(&chan, final_height));
        })
    };
    let waited = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("wait_committed returns once the channel's pipeline has stopped");
    waiter.join().unwrap();
    let err = refused
        .or_else(|| waited.err())
        .expect("the channel stops with an error")
        .to_string();
    assert!(
        err.contains("VSCC panicked validating block 2"),
        "got: {err}"
    );
    assert_eq!(
        victim.height(),
        2,
        "the deploy block commits, the poisoned one never does"
    );

    let sibling = world.replica("sibling.org1", 1);
    let sibling_chan = ChannelId::new("sibling");
    mux.attach(sibling_chan.clone(), &sibling, PipelineOptions::default())
        .expect("sibling attaches");
    deliver_all(&mux, &sibling_chan, &world.blocks).expect("sibling accepts");
    mux.wait_committed(&sibling_chan, final_height)
        .expect("sibling drains");
    assert_eq!(
        mux.stats(&sibling_chan).expect("sibling attached").blocks,
        3
    );
    let mux = Arc::into_inner(mux).expect("the waiter is gone");
    let _ = mux.close();
    assert_eq!(sibling.height(), final_height);
}
