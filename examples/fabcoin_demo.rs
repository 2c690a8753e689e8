//! Fabcoin demo (paper Sec. 5.1): an authority-minted UTXO currency with
//! a custom validation system chaincode.
//!
//! Shows the full lifecycle: the central bank mints coins, wallets spend
//! them, and a double-spend attempt is caught — not by Fabcoin's own
//! validation logic, but by Fabric's standard read-write version check,
//! the layering the paper highlights.
//!
//! Run with: `cargo run --release --example fabcoin_demo`

use fabric::net::{FabcoinNetwork, NetSpec};
use fabric::primitives::config::BatchConfig;
use fabric::primitives::ids::TxValidationCode;

fn main() {
    // Two orgs (Alice's and Bob's), a Solo orderer, blocks of up to 2 txs.
    let spec = NetSpec {
        batch: BatchConfig {
            max_message_count: 2,
            absolute_max_bytes: 10 << 20,
            preferred_max_bytes: 2 << 20,
            batch_timeout_ms: 1000,
        },
        ..NetSpec::new(&["Org1", "Org2"])
    };
    let mut net = FabcoinNetwork::new(spec.peer_per_org(2));
    let alice = 0;
    let bob = 1;

    // The central bank mints 100 FBC to Alice (plus a 1 FBC dust coin so
    // the two-tx block fills).
    let coin = net.coin_for(alice, 100, "FBC");
    let mint_tx = net.mint(alice, vec![coin]).expect("mint accepted");
    let dust = net.coin_for(alice, 1, "FBC");
    net.mint(alice, vec![dust]).expect("mint accepted");
    net.pump();
    println!(
        "mint {}: {:?}; Alice balance = {} FBC",
        &mint_tx.to_hex()[..12],
        net.tx_flag(&mint_tx).unwrap(),
        net.wallets[alice].balance("FBC")
    );

    // Alice pays Bob 60, keeping 40 as change.
    let coin_key = net.wallets[alice]
        .coins("FBC")
        .iter()
        .find(|c| c.amount == 100)
        .unwrap()
        .key
        .clone();
    let to_bob = net.coin_for(bob, 60, "FBC");
    let change = net.coin_for(alice, 40, "FBC");
    let spend_tx = net
        .spend(alice, &[coin_key], vec![to_bob, change])
        .expect("spend accepted");
    // Fill the block with a second small spend so it cuts.
    let dust_key = net.wallets[alice]
        .coins("FBC")
        .iter()
        .find(|c| c.amount == 1)
        .unwrap()
        .key
        .clone();
    let dust_out = net.coin_for(alice, 1, "FBC");
    net.spend(alice, &[dust_key], vec![dust_out]).expect("spend accepted");
    net.pump();
    println!(
        "spend {}: {:?}; Alice = {} FBC, Bob = {} FBC",
        &spend_tx.to_hex()[..12],
        net.tx_flag(&spend_tx).unwrap(),
        net.wallets[alice].balance("FBC"),
        net.wallets[bob].balance("FBC")
    );

    // Double-spend attempt: Alice signs two conflicting spends of her
    // 40 FBC change before either commits. Both pass Fabcoin's VSCC; the
    // PTM's version check invalidates the one ordered second.
    let change_key = net.wallets[alice]
        .coins("FBC")
        .iter()
        .find(|c| c.amount == 40)
        .unwrap()
        .key
        .clone();
    let honest = net.coin_for(bob, 40, "FBC");
    let tx_honest = net
        .spend(alice, std::slice::from_ref(&change_key), vec![honest])
        .expect("first spend accepted");
    let sneaky = net.coin_for(alice, 40, "FBC");
    let tx_sneaky = net
        .spend(alice, &[change_key], vec![sneaky])
        .expect("second spend accepted by endorser (conflict undetected yet)");
    net.pump();
    println!(
        "double spend: honest {:?} vs sneaky {:?}  <- caught by the rw version check",
        net.tx_flag(&tx_honest).unwrap(),
        net.tx_flag(&tx_sneaky).unwrap()
    );
    assert_eq!(net.tx_flag(&tx_honest), Some(TxValidationCode::Valid));
    assert_eq!(
        net.tx_flag(&tx_sneaky),
        Some(TxValidationCode::MvccReadConflict)
    );

    println!(
        "final balances: Alice = {} FBC, Bob = {} FBC; ledger height = {}",
        net.wallets[alice].balance("FBC"),
        net.wallets[bob].balance("FBC"),
        net.peers[0].height()
    );
    // The invalid transaction is still on the ledger, for audit.
    let (_, _, flag) = net.peers[0]
        .get_transaction(&tx_sneaky)
        .unwrap()
        .expect("audit trail exists");
    println!("audit: the failed double-spend is recorded on-chain as {flag:?}");
}
