//! Fabcoin end to end on an in-process network (paper Sec. 5.1): mint and
//! spend round trips, double spends caught by the version check or the
//! custom VSCC, forged and under-signed mints, label mixing, and peer
//! convergence.

use fabric::fabcoin::{CentralBank, FABCOIN_NAMESPACE};
use fabric::net::{FabcoinNetwork, NetSpec};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::TxValidationCode;

fn single_block_batch() -> BatchConfig {
    BatchConfig {
        max_message_count: 1,
        absolute_max_bytes: 10 * 1024 * 1024,
        preferred_max_bytes: 2 * 1024 * 1024,
        batch_timeout_ms: 10_000,
    }
}

/// Two orgs (one peer, client and wallet each) on Solo.
fn spec(batch: BatchConfig) -> NetSpec {
    NetSpec {
        batch,
        ..NetSpec::new(&["Org1", "Org2"])
    }
    .peer_per_org(2)
}

fn network() -> FabcoinNetwork {
    FabcoinNetwork::new(spec(single_block_batch()))
}

#[test]
fn mint_then_spend_end_to_end() {
    let mut net = network();
    let out = net.coin_for(0, 100, "FBC");
    let mint_tx = net.mint(0, vec![out]).unwrap();
    net.pump();
    assert_eq!(net.tx_flag(&mint_tx), Some(TxValidationCode::Valid));
    assert_eq!(net.wallets[0].balance("FBC"), 100);

    // Spend 100 -> 60 to org1's wallet + 40 back to org0.
    let coins = net.wallets[0].coins("FBC");
    let inputs: Vec<String> = coins.iter().map(|c| c.key.clone()).collect();
    let to_other = net.coin_for(1, 60, "FBC");
    let change = net.coin_for(0, 40, "FBC");
    let spend_tx = net.spend(0, &inputs, vec![to_other, change]).unwrap();
    net.pump();
    assert_eq!(net.tx_flag(&spend_tx), Some(TxValidationCode::Valid));
    assert_eq!(net.wallets[0].balance("FBC"), 40);
    assert_eq!(net.wallets[1].balance("FBC"), 60);

    // The spent coin state is gone from the world state.
    let spent_key = &inputs[0];
    assert_eq!(
        net.peers[0]
            .get_state(FABCOIN_NAMESPACE, spent_key)
            .unwrap(),
        None
    );
}

#[test]
fn double_spend_caught_by_version_check() {
    // The paper's key layering demo: both spends pass the Fabcoin VSCC
    // (the coin still exists when the block's validation starts), and
    // the PTM's read-write check kills whichever is ordered second.
    // Both spends must land in the SAME block for this path.
    let mut net = FabcoinNetwork::new(spec(BatchConfig {
        max_message_count: 2,
        absolute_max_bytes: 10 * 1024 * 1024,
        preferred_max_bytes: 2 * 1024 * 1024,
        batch_timeout_ms: 10_000,
    }));
    // Two mints fill block 1 exactly.
    let c1 = net.coin_for(0, 50, "FBC");
    net.mint(0, vec![c1]).unwrap();
    let c2 = net.coin_for(0, 7, "FBC");
    net.mint(0, vec![c2]).unwrap();
    net.pump();
    let coins = net.wallets[0].coins("FBC");
    let target = coins.iter().find(|c| c.amount == 50).unwrap();
    let inputs = vec![target.key.clone()];

    // Two conflicting spends of the same coin, cut into one block.
    let pay_1 = net.coin_for(1, 50, "FBC");
    let tx_a = net.spend(0, &inputs, vec![pay_1]).unwrap();
    let pay_self = net.coin_for(0, 50, "FBC");
    let tx_b = net.spend(0, &inputs, vec![pay_self]).unwrap();
    net.pump();

    assert_eq!(net.tx_flag(&tx_a), Some(TxValidationCode::Valid));
    assert_eq!(
        net.tx_flag(&tx_b),
        Some(TxValidationCode::MvccReadConflict),
        "second spend of the same coin must fail the version check"
    );
    assert_eq!(net.wallets[1].balance("FBC"), 50);
}

#[test]
fn cross_block_double_spend_caught_by_vscc() {
    // When the conflicting spend arrives after the first has committed,
    // the Fabcoin VSCC itself rejects it: the input coin state no
    // longer exists on the ledger.
    let mut net = network();
    let out = net.coin_for(0, 50, "FBC");
    net.mint(0, vec![out]).unwrap();
    net.pump();
    let inputs: Vec<String> = net.wallets[0]
        .coins("FBC")
        .iter()
        .map(|c| c.key.clone())
        .collect();
    // Build BOTH spends against the same pre-spend state (endorse
    // before either commits), then commit them in separate blocks.
    let pay_1 = net.coin_for(1, 50, "FBC");
    let tx_a = net.spend(0, &inputs, vec![pay_1]).unwrap();
    let pay_self = net.coin_for(0, 50, "FBC");
    let tx_b = net.spend(0, &inputs, vec![pay_self]).unwrap();
    net.pump();
    assert_eq!(net.tx_flag(&tx_a), Some(TxValidationCode::Valid));
    assert_eq!(
        net.tx_flag(&tx_b),
        Some(TxValidationCode::EndorsementPolicyFailure),
        "input gone from the ledger: custom VSCC rejects"
    );
}

#[test]
fn forged_mint_rejected() {
    // A mint signed by a key that is not the central bank.
    let mut net = network();
    let nonce = net.clients[0].next_nonce();
    let txid = fabric::primitives::ids::TxId::derive(
        &fabric::primitives::wire::Wire::to_wire(&net.clients[0].identity().serialized()),
        &nonce,
    );
    let rogue_bank = CentralBank::new(1, b"rogue-bank");
    let out = net.coin_for(0, 1_000_000, "FBC");
    let request = rogue_bank.create_mint(vec![out], &txid, 1);
    let proposal = net.clients[0].create_proposal_with_nonce(
        FABCOIN_NAMESPACE,
        "mint",
        vec![fabric::primitives::wire::Wire::to_wire(&request)],
        nonce,
    );
    let responses = net.clients[0]
        .collect_endorsements(&proposal, &[&net.peers[0]])
        .unwrap();
    let envelope = net.clients[0].assemble_transaction(&proposal, &responses);
    net.ordering.broadcast(envelope).unwrap();
    net.pump();
    assert_eq!(
        net.tx_flag(&txid),
        Some(TxValidationCode::EndorsementPolicyFailure),
        "forged mint must fail the Fabcoin VSCC"
    );
    assert_eq!(net.wallets[0].balance("FBC"), 0);
}

#[test]
fn value_creation_in_spend_rejected_at_endorsement() {
    // Outputs exceeding inputs are rejected by the chaincode during
    // simulation (and would also fail the VSCC).
    let mut net = network();
    let out = net.coin_for(0, 10, "FBC");
    net.mint(0, vec![out]).unwrap();
    net.pump();
    let inputs: Vec<String> = net.wallets[0]
        .coins("FBC")
        .iter()
        .map(|c| c.key.clone())
        .collect();
    let too_much = net.coin_for(0, 11, "FBC");
    let result = net.spend(0, &inputs, vec![too_much]);
    assert!(result.is_err(), "endorsement must fail");
}

#[test]
fn label_mixing_rejected() {
    let mut net = network();
    let usd = net.coin_for(0, 10, "USD");
    net.mint(0, vec![usd]).unwrap();
    net.pump();
    let inputs: Vec<String> = net.wallets[0]
        .coins("USD")
        .iter()
        .map(|c| c.key.clone())
        .collect();
    let eur = net.coin_for(0, 10, "EUR");
    assert!(net.spend(0, &inputs, vec![eur]).is_err());
}

#[test]
fn multi_coin_spend_merges_value() {
    let mut net = network();
    let a = net.coin_for(0, 30, "FBC");
    let b = net.coin_for(0, 20, "FBC");
    net.mint(0, vec![a, b]).unwrap();
    net.pump();
    assert_eq!(net.wallets[0].balance("FBC"), 50);
    let inputs: Vec<String> = net.wallets[0]
        .coins("FBC")
        .iter()
        .map(|c| c.key.clone())
        .collect();
    assert_eq!(inputs.len(), 2);
    let merged = net.coin_for(1, 50, "FBC");
    let tx = net.spend(0, &inputs, vec![merged]).unwrap();
    net.pump();
    assert_eq!(net.tx_flag(&tx), Some(TxValidationCode::Valid));
    assert_eq!(net.wallets[0].balance("FBC"), 0);
    assert_eq!(net.wallets[1].balance("FBC"), 50);
}

#[test]
fn spending_others_coin_fails() {
    // Org 1 tries to spend org 0's coin: its wallet doesn't own it.
    let mut net = network();
    let out = net.coin_for(0, 10, "FBC");
    net.mint(0, vec![out]).unwrap();
    net.pump();
    let inputs: Vec<String> = net.wallets[0]
        .coins("FBC")
        .iter()
        .map(|c| c.key.clone())
        .collect();
    let steal = net.coin_for(1, 10, "FBC");
    assert!(net.spend(1, &inputs, vec![steal]).is_err());
}

#[test]
fn cb_threshold_enforced() {
    // 3 CB keys, threshold 2: a mint with only 1 signature must fail
    // validation.
    let mut net = FabcoinNetwork::with_bank(spec(single_block_batch()), 3, 2);
    let nonce = net.clients[0].next_nonce();
    let txid = fabric::primitives::ids::TxId::derive(
        &fabric::primitives::wire::Wire::to_wire(&net.clients[0].identity().serialized()),
        &nonce,
    );
    let out = net.coin_for(0, 10, "FBC");
    // Only one signature.
    let request = net.bank.create_mint(vec![out], &txid, 1);
    let proposal = net.clients[0].create_proposal_with_nonce(
        FABCOIN_NAMESPACE,
        "mint",
        vec![fabric::primitives::wire::Wire::to_wire(&request)],
        nonce,
    );
    let responses = net.clients[0]
        .collect_endorsements(&proposal, &[&net.peers[0]])
        .unwrap();
    let envelope = net.clients[0].assemble_transaction(&proposal, &responses);
    net.ordering.broadcast(envelope).unwrap();
    net.pump();
    assert_eq!(
        net.tx_flag(&txid),
        Some(TxValidationCode::EndorsementPolicyFailure)
    );

    // With all signatures (threshold met) it validates.
    let good = net.coin_for(0, 10, "FBC");
    let tx = net.mint(0, vec![good]).unwrap();
    net.pump();
    assert_eq!(net.tx_flag(&tx), Some(TxValidationCode::Valid));
}

#[test]
fn balance_query_via_chaincode() {
    let mut net = network();
    let out = net.coin_for(0, 77, "FBC");
    net.mint(0, vec![out]).unwrap();
    net.pump();
    let owner = net.address(0);
    let result = net.clients[0]
        .query(
            &net.peers[0],
            FABCOIN_NAMESPACE,
            "balance",
            vec![owner, b"FBC".to_vec()],
        )
        .unwrap();
    assert_eq!(u64::from_le_bytes(result[..8].try_into().unwrap()), 77);
}

#[test]
fn raft_backed_fabcoin() {
    let mut net = FabcoinNetwork::new(NetSpec {
        consensus: ConsensusType::Raft,
        osns: 3,
        ..spec(single_block_batch())
    });
    let out = net.coin_for(0, 5, "FBC");
    let tx = net.mint(0, vec![out]).unwrap();
    for _ in 0..10 {
        net.tick();
    }
    net.pump();
    assert_eq!(net.tx_flag(&tx), Some(TxValidationCode::Valid));
    let channel = net.net.channel.clone();
    net.ordering.assert_identical_chains(&channel);
}

#[test]
fn all_peers_converge() {
    let mut net = network();
    let out = net.coin_for(0, 9, "FBC");
    net.mint(0, vec![out]).unwrap();
    net.pump();
    assert_eq!(net.peers[0].height(), net.peers[1].height());
    let b0 = net.peers[0].get_block(1).unwrap().unwrap();
    let b1 = net.peers[1].get_block(1).unwrap().unwrap();
    assert_eq!(b0.metadata.validation, b1.metadata.validation);
}
