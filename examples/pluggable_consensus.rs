//! Pluggable consensus (the paper's headline modularity claim, Sec. 4.2):
//! run the identical Fabcoin workload over Solo, Raft (CFT), and PBFT
//! (BFT) ordering services by changing one configuration value.
//!
//! Run with: `cargo run --release --example pluggable_consensus`

use fabric::net::{FabcoinNetwork, NetSpec};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::TxValidationCode;

fn run(consensus: ConsensusType, osn_count: usize) -> (u64, usize) {
    let spec = NetSpec {
        consensus,
        osns: osn_count,
        batch: BatchConfig {
            max_message_count: 2,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 500,
        },
        ..NetSpec::new(&["Org1", "Org2"])
    };
    let mut net = FabcoinNetwork::new(spec.peer_per_org(2));

    // Mint two coins, spend both.
    let c1 = net.coin_for(0, 10, "FBC");
    let c2 = net.coin_for(0, 20, "FBC");
    net.mint(0, vec![c1]).expect("mint 1");
    net.mint(0, vec![c2]).expect("mint 2");
    for _ in 0..10 {
        net.tick();
    }
    net.pump();
    let coins = net.wallets[0].coins("FBC");
    let mut spend_flags = Vec::new();
    for coin in coins {
        let out = net.coin_for(1, coin.amount, "FBC");
        let tx = net
            .spend(0, std::slice::from_ref(&coin.key), vec![out])
            .expect("spend");
        for _ in 0..10 {
            net.tick();
        }
        net.pump();
        spend_flags.push(net.tx_flag(&tx).expect("committed"));
    }
    assert!(spend_flags.iter().all(|f| *f == TxValidationCode::Valid));

    // All OSNs cut identical chains regardless of backend.
    let channel = net.net.channel.clone();
    net.ordering.assert_identical_chains(&channel);

    (
        net.wallets[1].balance("FBC"),
        net.peers[0].height() as usize,
    )
}

fn main() {
    println!("running the identical Fabcoin workload over three consensus backends:\n");
    for (consensus, osns, model) in [
        (ConsensusType::Solo, 1, "centralized (dev/test)"),
        (ConsensusType::Raft, 3, "crash fault-tolerant, f=1 of 3"),
        (ConsensusType::Pbft, 4, "Byzantine fault-tolerant, f=1 of 4"),
    ] {
        let (balance, height) = run(consensus, osns);
        println!(
            "{consensus:?} ({osns} OSN{}, {model}): receiver balance = {balance} FBC, chain height = {height}",
            if osns == 1 { "" } else { "s" }
        );
        assert_eq!(balance, 30);
    }
    println!("\nsame application, same ledgers, three trust models — consensus is modular.");
}
