//! End-to-end UTXO conservation: under a randomized mint/spend/attack
//! workload, the total on-ledger value per currency label always equals
//! the total validly minted value, wallets agree with the world state,
//! and every invalid transaction is on the ledger with its failure code.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fabric::fabcoin::{CoinState, FABCOIN_NAMESPACE};
use fabric::net::{FabcoinNetwork, NetSpec};
use fabric::primitives::config::BatchConfig;
use fabric::primitives::ids::TxValidationCode;
use fabric::primitives::wire::Wire;

/// Sums all unspent coin values for `label` directly from the world state.
fn on_ledger_supply(net: &FabcoinNetwork, label: &str) -> u64 {
    net.peers[0]
        .scan_state(FABCOIN_NAMESPACE, "", "")
        .unwrap()
        .into_iter()
        .map(|(_, raw)| CoinState::from_wire(&raw).unwrap())
        .filter(|c| c.label == label)
        .map(|c| c.amount)
        .sum()
}

#[test]
fn randomized_workload_conserves_value() {
    let mut rng = StdRng::seed_from_u64(0xfab_c01);
    let spec = NetSpec {
        batch: BatchConfig {
            max_message_count: 1,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 10_000,
        },
        ..NetSpec::new(&["Org1", "Org2"])
    };
    let mut net = FabcoinNetwork::new(spec.peer_per_org(2));

    let mut minted_total: u64 = 0;
    let mut valid_txs = 0usize;
    let mut invalid_txs = 0usize;
    let mut submitted = Vec::new();

    for round in 0..40 {
        let op = rng.gen_range(0..10);
        let org = rng.gen_range(0..2);
        match op {
            // Mint (40%): new value enters circulation.
            0..=3 => {
                let amount = rng.gen_range(1..100u64);
                let coin = net.coin_for(org, amount, "FBC");
                let tx = net.mint(org, vec![coin]).expect("mint accepted");
                minted_total += amount;
                submitted.push(tx);
            }
            // Spend (40%): move a random coin to a random owner, possibly
            // splitting it.
            4..=7 => {
                let coins = net.wallets[org].coins("FBC");
                if coins.is_empty() {
                    continue;
                }
                let coin = &coins[rng.gen_range(0..coins.len())];
                let to = rng.gen_range(0..2);
                let outputs = if coin.amount > 1 && rng.gen_bool(0.5) {
                    let split = rng.gen_range(1..coin.amount);
                    vec![
                        net.coin_for(to, split, "FBC"),
                        net.coin_for(org, coin.amount - split, "FBC"),
                    ]
                } else {
                    vec![net.coin_for(to, coin.amount, "FBC")]
                };
                let tx = net
                    .spend(org, std::slice::from_ref(&coin.key), outputs)
                    .expect("spend endorsed");
                submitted.push(tx);
            }
            // Attack (20%): a deliberate double spend of one coin, both
            // endorsed before either commits.
            _ => {
                let coins = net.wallets[org].coins("FBC");
                if coins.is_empty() {
                    continue;
                }
                let coin = &coins[rng.gen_range(0..coins.len())];
                let honest = vec![net.coin_for(1 - org, coin.amount, "FBC")];
                let tx1 = net
                    .spend(org, std::slice::from_ref(&coin.key), honest)
                    .expect("first spend endorsed");
                let sneaky = vec![net.coin_for(org, coin.amount, "FBC")];
                let tx2 = net
                    .spend(org, std::slice::from_ref(&coin.key), sneaky)
                    .expect("second spend endorsed");
                submitted.push(tx1);
                submitted.push(tx2);
            }
        }
        net.pump();

        // Invariant after every round: conservation of value.
        let supply = on_ledger_supply(&net, "FBC");
        assert_eq!(
            supply, minted_total,
            "round {round}: on-ledger supply diverged from minted total"
        );
        let wallet_sum: u64 = net.wallets.iter().map(|w| w.balance("FBC")).sum();
        assert_eq!(
            wallet_sum, minted_total,
            "round {round}: wallets diverged from supply"
        );
    }

    // Audit every submitted transaction: it must be on the ledger with a
    // definite verdict, and verdicts must be one of the expected codes.
    for tx in &submitted {
        let flag = net.tx_flag(tx).expect("every submission is on the ledger");
        match flag {
            TxValidationCode::Valid => valid_txs += 1,
            TxValidationCode::MvccReadConflict | TxValidationCode::EndorsementPolicyFailure => {
                invalid_txs += 1
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    assert!(valid_txs > 0, "some transactions committed");
    assert!(invalid_txs > 0, "the double-spend attacks were punished");

    // Both peers converged to identical chains and verdicts.
    assert_eq!(net.peers[0].height(), net.peers[1].height());
    for seq in 0..net.peers[0].height() {
        let a = net.peers[0].get_block(seq).unwrap().unwrap();
        let b = net.peers[1].get_block(seq).unwrap().unwrap();
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.metadata.validation, b.metadata.validation);
    }
}
