//! Catch-up benchmark: state snapshot transfer vs full block replay for
//! a peer joining (or rejoining) a channel late.
//!
//! Full replay costs grow with chain length — every historical block is
//! re-validated and re-applied — while snapshot catch-up costs grow with
//! *state size* plus the short tail of blocks above the checkpoint. The
//! table sweeps chain length at a fixed write profile and reports both
//! paths, the snapshot's wire size, and where the crossover lands.
//!
//! `FABRIC_BENCH_SMOKE=1` shrinks the sweep to a few-second sanity run
//! (used by ci.sh).

use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric::msp::Role;
use fabric::net::{kv_chaincode, Net, NetSpec, PeerSpec};
use fabric::peer::Peer;
use fabric::primitives::block::Block;
use fabric::statesync::{build_snapshot, decode_entries, Snapshot, SnapshotConfig};
use fabric_bench::stats::Table;

const TXS_PER_BLOCK: usize = 10;
const VALUE_BYTES: usize = 100;
/// Blocks above the checkpoint the joiner still replays.
const TAIL_BLOCKS: usize = 2;

/// A KV peer of the bench's one org.
fn kv_peer(name: &str) -> PeerSpec {
    PeerSpec::new(0, name, 2)
}

/// Builds deploy + `n_blocks` put blocks (disjoint keys) on the network's
/// builder peer, taken out of the network to commit each block
/// sequentially as it is sealed, and returns the blocks in delivery
/// order.
fn build_chain(net: &mut Net, n_blocks: usize) -> Vec<Block> {
    let client = net.client(0, "client", Role::Client);
    let deploy = net.deploy_tx("kv", "1.0", "Org1MSP");
    let builder = net.detach(0);
    let mut blocks = vec![Block::new(1, net.genesis.hash(), vec![deploy])];
    builder.commit_block(&blocks[0]).expect("deploy commits");
    for b in 0..n_blocks {
        let envelopes = (0..TXS_PER_BLOCK)
            .map(|i| {
                let proposal = client.create_proposal(
                    "kv",
                    "put",
                    vec![
                        format!("b{b:05}k{i:03}").into_bytes(),
                        vec![(b % 251) as u8; VALUE_BYTES],
                    ],
                );
                let responses = client
                    .collect_endorsements(&proposal, &[&builder])
                    .expect("put endorses");
                client.assemble_transaction(&proposal, &responses)
            })
            .collect();
        let block = Block::new(builder.height(), blocks.last().unwrap().hash(), envelopes);
        builder.commit_block(&block).expect("put block commits");
        blocks.push(block);
    }
    blocks
}

/// The consumer-side cost of snapshot catch-up: verify every chunk
/// against the manifest, decode, install, replay the tail.
fn snapshot_catchup(net: &Net, snapshot: &Snapshot, blocks: &[Block]) -> (Duration, Peer) {
    let t0 = Instant::now();
    let manifest = &snapshot.manifest.manifest;
    for (info, chunks) in manifest.segments.iter().zip(&snapshot.segments) {
        assert!(info.verify(chunks), "segment verifies");
    }
    let entries = decode_entries(manifest, &snapshot.segments).expect("snapshot decodes");
    let peer = net.join_from_snapshot(kv_peer("snap-join.org1"), &snapshot.manifest, &entries);
    for block in blocks {
        if block.header.number >= manifest.height {
            peer.commit_block(block).expect("tail replays");
        }
    }
    (t0.elapsed(), peer)
}

fn main() {
    let smoke = std::env::var("FABRIC_BENCH_SMOKE").is_ok();
    let chain_lengths: &[usize] = if smoke {
        &[8, 16]
    } else {
        &[8, 16, 32, 64, 128]
    };

    println!(
        "== snapshot catch-up vs full replay ({} txs/block, {}-block tail) ==",
        TXS_PER_BLOCK, TAIL_BLOCKS
    );

    let mut table = Table::new(&[
        "chain blocks",
        "state keys",
        "replay ms",
        "snapshot ms",
        "snapshot KiB",
        "speedup",
    ]);
    let mut crossover: Option<usize> = None;
    for &n_blocks in chain_lengths {
        let mut net = Net::new(
            NetSpec::new(&["Org1"])
                .peer(kv_peer("builder.org1"))
                .chaincode("kv", Arc::new(kv_chaincode)),
        );
        let blocks = build_chain(&mut net, n_blocks);
        let full_height = blocks.last().unwrap().header.number + 1;

        // Source peer replays everything and checkpoints near the tip.
        let source = net.join(kv_peer("source.org1"));
        for block in &blocks {
            source.commit_block(block).expect("source commits");
        }
        let snap_height = full_height - TAIL_BLOCKS as u64;
        let snapshot = {
            let provider = net.join(kv_peer("provider.org1"));
            for block in &blocks[..(snap_height - 1) as usize] {
                provider.commit_block(block).expect("provider commits");
            }
            build_snapshot(
                provider.ledger(),
                &net.channel,
                provider.identity(),
                &SnapshotConfig::default(),
            )
            .expect("snapshot builds")
        };
        let snapshot_bytes = snapshot.manifest.manifest.total_bytes();

        // Path A: full block replay from genesis.
        let replay_peer = net.join(kv_peer("replay.org1"));
        let t0 = Instant::now();
        for block in &blocks {
            replay_peer.commit_block(block).expect("replay commits");
        }
        let replay = t0.elapsed();

        // Path B: verified snapshot install + tail replay.
        let (snap_time, snap_peer) = snapshot_catchup(&net, &snapshot, &blocks);

        // Both paths end at the same chain tip and state.
        assert_eq!(snap_peer.height(), replay_peer.height());
        assert_eq!(
            snap_peer.ledger().last_hash(),
            replay_peer.ledger().last_hash()
        );
        assert_eq!(
            snap_peer.ledger().state_entries(),
            replay_peer.ledger().state_entries()
        );

        let speedup = replay.as_secs_f64() / snap_time.as_secs_f64();
        if speedup > 1.0 && crossover.is_none() {
            crossover = Some(n_blocks);
        }
        table.row(vec![
            format!("{n_blocks}"),
            format!("{}", n_blocks * TXS_PER_BLOCK),
            format!("{:.1}", replay.as_secs_f64() * 1e3),
            format!("{:.1}", snap_time.as_secs_f64() * 1e3),
            format!("{:.1}", snapshot_bytes as f64 / 1024.0),
            format!("{speedup:.2}x"),
        ]);
    }
    table.print();
    match crossover {
        Some(n) => println!(
            "\ncrossover: snapshot catch-up beats full replay from ~{n} blocks \
             (replay cost grows with chain length, snapshot cost with state size)"
        ),
        None => println!(
            "\nno crossover in this sweep: replay stayed cheaper (short chains \
             amortize nothing — expected only for tiny chains)"
        ),
    }
}
