//! Fabcoin setup shared by the committer and endorser benches: mint a
//! coin per measured spend, then build key-disjoint single-coin spends
//! against the post-mint state, so no spend depends on another.

use fabric::fabcoin::OwnedCoin;
use fabric::net::FabcoinNetwork;
use fabric::primitives::block::Block;
use fabric::primitives::transaction::SignedProposal;

/// Mint outputs per mint transaction (keeps the setup phase short).
const MINT_OUTPUTS: usize = 200;

/// Mints `n` 10-unit coins to org 0's wallet through ordering and
/// settles, returning the wallet's coins (at least `n`).
pub fn mint_coins(net: &mut FabcoinNetwork, n: usize) -> Vec<OwnedCoin> {
    for first in (0..n).step_by(MINT_OUTPUTS) {
        let outputs = (first..n.min(first + MINT_OUTPUTS))
            .map(|_| net.coin_for(0, 10, "FBC"))
            .collect();
        net.mint(0, outputs).expect("mint broadcasts");
    }
    net.settle();
    let coins = net.wallets[0].coins("FBC");
    assert!(coins.len() >= n, "not enough coins minted");
    coins
}

/// A spend of `owned` back to org 0's wallet, proposed by org 0's client.
pub fn self_spend(net: &FabcoinNetwork, owned: &OwnedCoin) -> SignedProposal {
    let output = net.coin_for(0, owned.amount, "FBC");
    net.spend_proposal(0, std::slice::from_ref(&owned.key), vec![output])
        .expect("wallet owns coin")
}

/// Mints a coin per spend, then returns the setup blocks peer 0
/// committed and `n_blocks` sealed blocks of `txs_per_block` spends that
/// peer 0 endorsed but nobody committed.
pub fn spend_chain(
    net: &mut FabcoinNetwork,
    n_blocks: usize,
    txs_per_block: usize,
) -> (Vec<Block>, Vec<Block>) {
    let coins = mint_coins(net, n_blocks * txs_per_block);
    let builder = &net.peers[0];
    let setup: Vec<Block> = (1..builder.height())
        .map(|n| {
            builder
                .get_block(n)
                .expect("ledger readable")
                .expect("block committed")
        })
        .collect();
    let mut prev = setup.last().expect("a mint block").hash();
    let mut measured = Vec::with_capacity(n_blocks);
    for (number, chunk) in (builder.height()..).zip(coins.chunks(txs_per_block).take(n_blocks)) {
        let envelopes = chunk
            .iter()
            .map(|owned| {
                let proposal = self_spend(net, owned);
                net.endorse(0, &proposal).expect("spend endorses")
            })
            .collect();
        let block = Block::new(number, prev, envelopes);
        prev = block.hash();
        measured.push(block);
    }
    (setup, measured)
}
