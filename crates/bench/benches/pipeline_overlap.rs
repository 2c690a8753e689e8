//! Micro-benchmark: sequential committer vs cross-block pipelined
//! committer ([`fabric::peer::Peer::pipeline`]) on a pre-built chain of
//! Fabcoin spend blocks.
//!
//! The sequential path validates one block at a time (VSCC → rw-check →
//! append); the pipeline overlaps block *n+1*'s VSCC with block *n*'s
//! rw-check and append. Every spend consumes a coin minted before the
//! measured window, so there are no cross-block VSCC read dependencies and
//! the overlap is maximal — this isolates the pipelining win itself.
//!
//! Expected shape: at 1 worker the two paths are within noise (VSCC is the
//! only stage with parallelism to exploit); at ≥4 workers the pipelined
//! committer wins because the sequential stages of block *n* no longer
//! idle the VSCC pool.

use std::sync::Arc;
use std::time::Instant;

use fabric::client::Client;
use fabric::fabcoin::{
    coin_key, CentralBank, CoinState, FabcoinChaincode, FabcoinVscc, Wallet, FABCOIN_NAMESPACE,
};
use fabric::kvstore::MemBackend;
use fabric::msp::Role;
use fabric::ordering::testkit::TestNet;
use fabric::ordering::OrderingCluster;
use fabric::peer::{Peer, PeerConfig, PipelineOptions};
use fabric::primitives::block::Block;
use fabric::primitives::config::ConsensusType;
use fabric::primitives::ids::TxId;
use fabric::primitives::wire::Wire;
use fabric_bench::stats::Table;

fn make_peer(
    net: &TestNet,
    genesis: &Block,
    bank: &CentralBank,
    name: &str,
    vscc_parallelism: usize,
) -> Peer {
    let identity =
        fabric::msp::issue_identity(&net.org_cas[0], name, Role::Peer, name.as_bytes());
    let peer = Peer::join(
        identity,
        genesis,
        Arc::new(MemBackend::new()),
        PeerConfig {
            vscc_parallelism,
            runtime: fabric::chaincode::RuntimeConfig { exec_timeout: None },
            sync_writes: false,
        },
    )
    .expect("peer joins");
    peer.install_chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode));
    peer.register_vscc(
        FABCOIN_NAMESPACE,
        Arc::new(FabcoinVscc::new(bank.public_keys(), 1)),
    );
    peer
}

/// Builds the measured chain once: mint blocks (setup) followed by
/// `n_blocks` blocks of `txs_per_block` single-coin spends.
fn build_chain(
    net: &TestNet,
    genesis: &Block,
    bank: &CentralBank,
    n_blocks: usize,
    txs_per_block: usize,
) -> (Vec<Block>, Vec<Block>) {
    let builder = make_peer(net, genesis, bank, "builder.org1", 2);
    let client_identity = fabric::msp::issue_identity(
        &net.org_cas[0],
        "client.org1",
        Role::Client,
        b"overlap-client",
    );
    let client = Client::new(client_identity, net.channel.clone());
    let mut wallet = Wallet::new();
    let address = wallet.new_address(b"overlap-wallet");

    // Setup: mint every coin the spends will consume, 200 per mint tx.
    let n_tx = n_blocks * txs_per_block;
    let mut mint_envelopes = Vec::new();
    let mut minted = 0usize;
    while minted < n_tx {
        let count = 200.min(n_tx - minted);
        let outputs: Vec<CoinState> = (0..count)
            .map(|_| CoinState {
                amount: 10,
                owner: address.clone(),
                label: "FBC".into(),
            })
            .collect();
        let nonce = client.next_nonce();
        let txid = TxId::derive(&client.identity().serialized().to_wire(), &nonce);
        let request = bank.create_mint(outputs.clone(), &txid, 1);
        let proposal = client.create_proposal_with_nonce(
            FABCOIN_NAMESPACE,
            "mint",
            vec![request.to_wire()],
            nonce,
        );
        let responses = client
            .collect_endorsements(&proposal, &[&builder])
            .expect("mint endorses");
        mint_envelopes.push(client.assemble_transaction(&proposal, &responses));
        for (j, output) in outputs.iter().enumerate() {
            wallet.note_coin(&coin_key(&txid, j as u32), output);
        }
        minted += count;
    }
    let mint_block = Block::new(1, genesis.hash(), mint_envelopes);
    builder
        .commit_block(&mint_block)
        .expect("mint block commits");
    let setup = vec![mint_block];

    // Measured blocks: each spend consumes a distinct minted coin, so the
    // endorsements need only the post-mint state.
    let coins = wallet.coins("FBC");
    assert!(coins.len() >= n_tx, "not enough coins minted");
    let mut measured = Vec::with_capacity(n_blocks);
    let mut prev = setup[0].hash();
    let first_number = builder.height();
    for (next_number, chunk) in
        (first_number..).zip(coins.chunks(txs_per_block).take(n_blocks))
    {
        let envelopes = chunk
            .iter()
            .map(|coin| {
                let nonce = client.next_nonce();
                let txid =
                    TxId::derive(&client.identity().serialized().to_wire(), &nonce);
                let request = wallet
                    .create_spend(
                        std::slice::from_ref(&coin.key),
                        vec![CoinState {
                            amount: coin.amount,
                            owner: address.clone(),
                            label: "FBC".into(),
                        }],
                        &txid,
                    )
                    .expect("wallet owns coin");
                let proposal = client.create_proposal_with_nonce(
                    FABCOIN_NAMESPACE,
                    "spend",
                    vec![request.to_wire()],
                    nonce,
                );
                let responses = client
                    .collect_endorsements(&proposal, &[&builder])
                    .expect("spend endorses");
                client.assemble_transaction(&proposal, &responses)
            })
            .collect();
        let block = Block::new(next_number, prev, envelopes);
        prev = block.hash();
        measured.push(block);
    }
    (setup, measured)
}

fn main() {
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_200);
    let txs_per_block = 100;
    let n_blocks = (n_tx / txs_per_block).max(2);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("== pipelined vs sequential committer ({} blocks × {} spends) ==", n_blocks, txs_per_block);

    let net = TestNet::new(&["Org1"], ConsensusType::Solo, 1);
    let ordering =
        OrderingCluster::new(ConsensusType::Solo, net.orderers(1), vec![net.genesis.clone()])
            .expect("valid genesis");
    let genesis = ordering.deliver(&net.channel, 0).expect("genesis");
    let bank = CentralBank::new(1, b"overlap-cb");
    let (setup, measured) = build_chain(&net, &genesis, &bank, n_blocks, txs_per_block);
    let total_txs: usize = measured.iter().map(|b| b.envelopes.len()).sum();

    let mut workers: Vec<usize> = vec![1, 2, 4, host_cores];
    workers.sort_unstable();
    workers.dedup();
    workers.retain(|&w| w <= host_cores.max(4));

    let mut table = Table::new(&[
        "VSCC workers",
        "sequential tps",
        "pipelined tps",
        "speedup",
        "dep stalls",
    ]);
    for &w in &workers {
        // Sequential: one block at a time through Peer::commit_block.
        let seq_peer = make_peer(&net, &genesis, &bank, "seq.org1", w);
        for block in &setup {
            seq_peer.commit_block(block).expect("setup commits");
        }
        let t0 = Instant::now();
        for block in &measured {
            let (flags, _) = seq_peer.commit_block(block).expect("commit");
            assert!(flags.iter().all(|f| f.is_valid()));
        }
        let seq_tps = total_txs as f64 / t0.elapsed().as_secs_f64();

        // Pipelined: same blocks through the cross-block pipeline.
        let pipe_peer = make_peer(&net, &genesis, &bank, "pipe.org1", w);
        for block in &setup {
            pipe_peer.commit_block(block).expect("setup commits");
        }
        let handle = pipe_peer.pipeline_with(PipelineOptions {
            vscc_workers: w,
            intake_capacity: 64,
            ..PipelineOptions::default()
        });
        let final_height = measured.last().unwrap().header.number + 1;
        let t0 = Instant::now();
        for block in &measured {
            handle.submit(block.clone()).expect("pipeline accepts");
        }
        handle.wait_committed(final_height).expect("pipeline drains");
        let pipe_tps = total_txs as f64 / t0.elapsed().as_secs_f64();
        let stats = handle.close().expect("pipeline closes");
        assert_eq!(stats.blocks, measured.len() as u64);

        table.row(vec![
            format!("{w}"),
            format!("{seq_tps:.0}"),
            format!("{pipe_tps:.0}"),
            format!("{:.2}x", pipe_tps / seq_tps),
            format!("{}", stats.queues.dependency_stalls),
        ]);
    }
    table.print();
    println!("\nexpected shape: speedup > 1.0x at ≥4 workers (VSCC of block n+1");
    println!("overlaps the sequential rw-check + append of block n).");
}
