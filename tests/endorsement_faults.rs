//! Fault-injection battery for the endorsement pipeline: hostile or
//! wedged chaincode must cost only its own proposal (the paper's Sec. 3.2
//! DoS argument), never the pipeline, the pool, or another proposal's
//! response — and every simulation must read from exactly one state
//! snapshot even while commits land concurrently.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::PipelineWorld;
use fabric::chaincode::{RuntimeConfig, Stub};
use fabric::client::Client;
use fabric::msp::Role;
use fabric::net::PeerSpec;
use fabric::peer::{EndorseOptions, Peer, PeerError};
use fabric::primitives::block::Block;
use fabric::primitives::transaction::Envelope;

/// Simulation workers of every endorsement pipeline in this battery.
const WORKERS: usize = 2;

/// A peer joined to the world's channel with a deadline-guarded runtime
/// (the configuration under attack in this battery).
fn faulty_peer(world: &PipelineWorld, name: &str, timeout: Duration) -> Peer {
    let mut spec = PeerSpec::new(0, name, 1);
    spec.config.runtime = RuntimeConfig { exec_timeout: Some(timeout) };
    world.net.join(spec)
}

fn client(world: &PipelineWorld, name: &str) -> Client {
    world.net.client(0, name, Role::Client)
}

#[test]
fn panicking_chaincode_does_not_poison_pipeline() {
    let world = PipelineWorld::new();
    // Two containment layers, one outcome. The guarded runtime catches the
    // panic itself. Inline execution (`exec_timeout: None`) has no
    // runtime-level containment: the panic unwinds into the simulation
    // worker, where the endorsement pool must contain it — with a single
    // worker, each healthy proposal after a panic proves it survived.
    // `(peer, simulation workers, runtime threads expected afterwards)`:
    let cases = [
        (faulty_peer(&world, "panic-peer", Duration::from_secs(2)), WORKERS, 1),
        (world.replica("inline-panic-peer", 1), 1, 0),
    ];
    for (peer, workers, runtime_threads) in cases {
        peer.install_chaincode(
            "boom",
            Arc::new(|_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
                panic!("hostile chaincode");
            }),
        );
        let cl = client(&world, "panic-client");
        // The client cap makes a leaked in-flight slot visible: a panic
        // that skipped the release would reject the next proposal.
        let pipeline = peer.endorse_pipeline(EndorseOptions {
            workers,
            client_max_inflight: 1,
            ..EndorseOptions::default()
        });
        // Alternate panicking and healthy proposals: every panic is
        // contained, every healthy proposal still endorses.
        for i in 0..20u8 {
            let mut nonce = [0xB0u8; 32];
            nonce[0] = i;
            if i % 2 == 0 {
                let sp = cl.create_proposal_with_nonce("boom", "go", vec![], nonce);
                assert!(
                    matches!(pipeline.endorse(sp), Err(PeerError::Chaincode(_))),
                    "panic must abort only its own proposal"
                );
            } else {
                let sp = cl.create_proposal_with_nonce(
                    "kv",
                    "put",
                    vec![vec![b'p', i], vec![i]],
                    nonce,
                );
                pipeline.endorse(sp).expect("healthy proposal endorses");
            }
        }
        let stats = pipeline.stats();
        assert_eq!(stats.endorsed, 10);
        assert_eq!(stats.failed, 10);
        pipeline.close();
        // Panics are contained in place (catch_unwind), not survived by
        // a fresh thread: one-at-a-time proposals keep reusing one thread.
        assert_eq!(peer.chaincode_runtime().execution_threads(), runtime_threads);
    }
}

#[test]
fn timed_out_chaincode_recovers_worker_capacity() {
    let world = PipelineWorld::new();
    let peer = faulty_peer(&world, "stall-peer", Duration::from_millis(40));
    peer.install_chaincode(
        "stall",
        Arc::new(|_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            std::thread::sleep(Duration::from_millis(150));
            Ok(vec![])
        }),
    );
    let cl = client(&world, "stall-client");
    let pipeline = peer.endorse_pipeline(EndorseOptions {
        workers: WORKERS,
        ..EndorseOptions::default()
    });
    // Wedge the runtime repeatedly; the healthy proposal that follows each
    // stall borrows another thread and is served promptly.
    const ROUNDS: u8 = 5;
    for round in 0..ROUNDS {
        let mut nonce = [0xC0u8; 32];
        nonce[0] = round;
        let sp = cl.create_proposal_with_nonce("stall", "go", vec![], nonce);
        assert!(matches!(
            pipeline.endorse(sp),
            Err(PeerError::Chaincode(_))
        ));
        nonce[1] = 1;
        let sp = cl.create_proposal_with_nonce(
            "kv",
            "put",
            vec![vec![b'q', round], vec![round]],
            nonce,
        );
        pipeline.endorse(sp).expect("execution capacity recovered");
    }
    pipeline.close();
    // Each round leaves at most one straggler, and its healthy proposal
    // borrows at most one more thread.
    let threads = peer.chaincode_runtime().execution_threads();
    assert!(threads <= ROUNDS as usize + 1, "{threads} threads after {ROUNDS} stalls");
}

#[test]
fn repeated_timeouts_do_not_leak_threads() {
    // Pipeline-level slice of the satellite regression (the 1000-iteration
    // version lives in the runtime's unit tests): a burst of timeouts
    // through the full endorsement path leaves the thread count bounded.
    const DEADLINE_MS: u64 = 5;
    const SLEEP_MS: u64 = 12;
    let world = PipelineWorld::new();
    let peer = faulty_peer(&world, "leak-peer", Duration::from_millis(DEADLINE_MS));
    // Each proposal passes its start time; the chaincode records the
    // longest any simulation held its thread, in microseconds.
    let epoch = std::time::Instant::now();
    let held_us = Arc::new(AtomicU64::new(0));
    let cc_held = held_us.clone();
    peer.install_chaincode(
        "laggard",
        Arc::new(move |stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            std::thread::sleep(Duration::from_millis(SLEEP_MS));
            let start = u64::from_le_bytes(stub.args()[0][..].try_into().unwrap());
            cc_held.fetch_max(epoch.elapsed().as_micros() as u64 - start, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    let cl = client(&world, "leak-client");
    let pipeline = peer.endorse_pipeline(EndorseOptions {
        workers: WORKERS,
        ..EndorseOptions::default()
    });
    let mut timeouts = 0;
    for i in 0..200u32 {
        let mut nonce = [0xD0u8; 32];
        nonce[..4].copy_from_slice(&i.to_le_bytes());
        let start = (epoch.elapsed().as_micros() as u64).to_le_bytes().to_vec();
        let sp = cl.create_proposal_with_nonce("laggard", "go", vec![start], nonce);
        if pipeline.endorse(sp).is_err() {
            timeouts += 1;
        }
    }
    assert!(timeouts >= 150, "expected mostly timeouts, got {timeouts}");
    pipeline.close();
    // The runtime's `consecutive_timeouts_do_not_accumulate_threads` bound;
    // a leak would instead grow with the 200 proposals.
    let held_us = held_us.load(Ordering::SeqCst);
    let bound = (held_us.div_ceil(DEADLINE_MS * 1000) + 2) as usize;
    let alive = peer.chaincode_runtime().execution_threads();
    assert!(
        alive <= bound,
        "thread leak: {alive} execution threads alive after 200 timeouts (held {held_us} us)"
    );
}

#[test]
fn late_result_cannot_cross_into_another_response() {
    // A timed-out invocation's (eventual) result must never surface as
    // some other proposal's response. "sometimes" stalls past the deadline
    // and returns a poison payload; quick kv puts run interleaved on the
    // same runtime. Every delivered response must carry its own proposal's
    // tx_id and never the poison bytes.
    let world = PipelineWorld::new();
    let peer = faulty_peer(&world, "iso-peer", Duration::from_millis(30));
    let armed = Arc::new(AtomicBool::new(true));
    let armed_cc = armed.clone();
    peer.install_chaincode(
        "sometimes",
        Arc::new(move |stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            if armed_cc.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(80));
            }
            stub.put_state("poison", b"late".to_vec());
            Ok(b"POISON".to_vec())
        }),
    );
    let cl = client(&world, "iso-client");
    let pipeline = peer.endorse_pipeline(EndorseOptions {
        workers: WORKERS,
        ..EndorseOptions::default()
    });
    for i in 0..30u8 {
        let mut nonce = [0xE0u8; 32];
        nonce[0] = i;
        if i % 3 == 0 {
            let sp = cl.create_proposal_with_nonce("sometimes", "go", vec![], nonce);
            let expected_tx = sp.proposal.tx_id();
            match pipeline.endorse(sp) {
                Err(_) => {}
                Ok(response) => {
                    // Raced the deadline and won: legal, but it must be
                    // exactly this proposal's result.
                    assert_eq!(response.payload.tx_id, expected_tx);
                }
            }
        } else {
            let sp = cl.create_proposal_with_nonce(
                "kv",
                "put",
                vec![vec![b'k', i], vec![i]],
                nonce,
            );
            let expected_tx = sp.proposal.tx_id();
            let response = pipeline.endorse(sp).expect("quick put endorses");
            assert_eq!(
                response.payload.tx_id, expected_tx,
                "response belongs to a different proposal"
            );
            assert_ne!(
                response.payload.response.payload, b"POISON",
                "late result leaked into another proposal's response"
            );
            assert!(
                response
                    .payload
                    .rwset
                    .ns_rwsets
                    .iter()
                    .all(|ns| ns.writes.iter().all(|w| w.key != "poison")),
                "late rw-set leaked into another proposal's response"
            );
        }
    }
    armed.store(false, Ordering::SeqCst);
    pipeline.close();
}

#[test]
fn simulations_read_from_a_single_snapshot_under_concurrent_commits() {
    // Satellite 4: while the committer lands blocks, every concurrent
    // endorsement must simulate against exactly ONE state snapshot — all
    // of a proposal's reads carry versions from the same committed height
    // (no torn reads across a commit boundary).
    const KEYS: usize = 8;
    const BLOCKS: usize = 12;
    let mut world = PipelineWorld::new();
    // Seed block: every key written once, so reads always find versions.
    let seed: Vec<Envelope> = (0..KEYS)
        .map(|k| world.endorse("put", vec![format!("snap{k}").into_bytes(), vec![0u8]]))
        .collect();
    world.seal_block(seed);

    // The reader touches every key in one simulation (kv `multiget`): a
    // torn snapshot would show as reads with mixed block numbers in one
    // rw-set.
    let read_args: Vec<Vec<u8>> = (0..KEYS)
        .map(|k| format!("snap{k}").into_bytes())
        .collect();

    // Pre-build the writer's blocks: blind writes have empty read sets, so
    // endorsing them all NOW (against the seed state) keeps them valid
    // whenever they commit. Hash-chain them without committing yet.
    let mut pending_blocks: Vec<Block> = Vec::new();
    let mut prev = world.blocks.last().unwrap().hash();
    for (number, marker) in (world.builder.height()..).zip(1..=BLOCKS as u8) {
        let envelopes: Vec<Envelope> = (0..KEYS)
            .map(|k| {
                world.endorse(
                    "put",
                    vec![format!("snap{k}").into_bytes(), vec![marker]],
                )
            })
            .collect();
        let block = Block::new(number, prev, envelopes);
        prev = block.hash();
        pending_blocks.push(block);
    }

    let pipeline = world.builder.endorse_pipeline(EndorseOptions {
        workers: 4,
        ..EndorseOptions::default()
    });
    let cl = client(&world, "snap-client");
    let done = Arc::new(AtomicBool::new(false));

    // Writer: commit the pre-built blocks with small gaps, so snapshots
    // are taken before, between, and after commits.
    std::thread::scope(|scope| {
        let builder = &world.builder;
        let done_writer = done.clone();
        scope.spawn(move || {
            for block in &pending_blocks {
                builder.commit_block(block).expect("pre-built block commits");
                std::thread::sleep(Duration::from_millis(3));
            }
            done_writer.store(true, Ordering::SeqCst);
        });

        // Readers: endorse readall proposals as fast as they complete.
        let mut observed_heights = std::collections::BTreeSet::new();
        let mut round = 0u32;
        while !done.load(Ordering::SeqCst) || round < 20 {
            let mut nonce = [0xAAu8; 32];
            nonce[..4].copy_from_slice(&round.to_le_bytes());
            round += 1;
            let sp =
                cl.create_proposal_with_nonce("kv", "multiget", read_args.clone(), nonce);
            let response = pipeline.endorse(sp).expect("multiget endorses");
            let mut block_nums = std::collections::BTreeSet::new();
            let mut reads = 0;
            for ns in &response.payload.rwset.ns_rwsets {
                for read in &ns.reads {
                    if let Some(version) = &read.version {
                        block_nums.insert(version.block_num);
                        reads += 1;
                    }
                }
            }
            assert_eq!(reads, KEYS, "multiget reads every key with a version");
            assert_eq!(
                block_nums.len(),
                1,
                "torn snapshot: one rw-set read versions from blocks {block_nums:?}"
            );
            // The response values must also be uniform: all keys carry the
            // same marker when read from one snapshot.
            let values = &response.payload.response.payload;
            assert_eq!(values.len(), KEYS);
            assert!(
                values.iter().all(|v| v == &values[0]),
                "mixed markers in one snapshot: {values:?}"
            );
            observed_heights.insert(*block_nums.iter().next().unwrap());
        }
        // The run was genuinely concurrent: snapshots from several
        // different committed heights were observed.
        assert!(
            observed_heights.len() >= 3,
            "writer never advanced under the readers: {observed_heights:?}"
        );
    });
    pipeline.close();
}
