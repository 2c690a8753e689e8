//! Fabcoin on a [`Net`]: the central bank, one client and one wallet per
//! org, and `mint` / `spend` round trips whose committed effects
//! [`FabcoinNetwork::pump`] applies to the wallets.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use fabric_client::{Client, ClientError};
use fabric_fabcoin::{
    CentralBank, CoinState, FabcoinChaincode, FabcoinRequest, FabcoinVscc, Wallet,
    FABCOIN_NAMESPACE,
};
use fabric_msp::Role;
use fabric_primitives::ids::{TxId, TxValidationCode};
use fabric_primitives::transaction::{Envelope, SignedProposal};
use fabric_primitives::wire::Wire;

use super::{Net, NetSpec};

/// A Fabcoin deployment; derefs to its [`Net`].
pub struct FabcoinNetwork {
    /// The network: `peers[i]` endorses for org `i`'s client.
    pub net: Net,
    /// One client per org.
    pub clients: Vec<Client>,
    /// One wallet per org.
    pub wallets: Vec<Wallet>,
    /// The central bank.
    pub bank: CentralBank,
    /// Org `i`'s wallet address (its wallet's only key).
    addresses: Vec<Vec<u8>>,
}

impl Deref for FabcoinNetwork {
    type Target = Net;
    fn deref(&self) -> &Net {
        &self.net
    }
}

impl DerefMut for FabcoinNetwork {
    fn deref_mut(&mut self) -> &mut Net {
        &mut self.net
    }
}

impl FabcoinNetwork {
    /// [`FabcoinNetwork::with_bank`] with a one-key bank.
    pub fn new(spec: NetSpec) -> Self {
        Self::with_bank(spec, 1, 1)
    }

    /// Stands `spec` up with the Fabcoin chaincode and a VSCC requiring
    /// `cb_threshold` of the bank's `cb_keys` signatures on a mint, plus
    /// one client and one wallet per org.
    pub fn with_bank(spec: NetSpec, cb_keys: usize, cb_threshold: usize) -> Self {
        let bank = CentralBank::new(cb_keys, b"fabcoin-cb");
        let spec = spec
            .chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode))
            .vscc(
                FABCOIN_NAMESPACE,
                Arc::new(FabcoinVscc::new(bank.public_keys(), cb_threshold)),
            );
        let orgs = spec.orgs.len();
        let net = Net::new(spec);
        let clients = (0..orgs)
            .map(|i| net.client(i, &format!("client.org{}", i + 1), Role::Client))
            .collect();
        let mut wallets: Vec<Wallet> = (0..orgs).map(|_| Wallet::new()).collect();
        let addresses = wallets
            .iter_mut()
            .enumerate()
            .map(|(i, wallet)| wallet.new_address(format!("wallet-{i}").as_bytes()))
            .collect();
        FabcoinNetwork {
            net,
            clients,
            wallets,
            bank,
            addresses,
        }
    }

    /// The wallet address of org `org`'s wallet (its only key).
    pub fn address(&self, org: usize) -> Vec<u8> {
        self.addresses[org].clone()
    }

    /// Submits a mint of `outputs` through org `org`'s client. Returns the
    /// tx id (commitment happens at the next [`FabcoinNetwork::pump`]).
    pub fn mint(&mut self, org: usize, outputs: Vec<CoinState>) -> Result<TxId, ClientError> {
        let proposal = self.mint_proposal(org, outputs);
        self.submit(org, &proposal)
    }

    /// Submits a spend from org `org`'s wallet.
    pub fn spend(
        &mut self,
        org: usize,
        inputs: &[String],
        outputs: Vec<CoinState>,
    ) -> Result<TxId, ClientError> {
        let proposal = self
            .spend_proposal(org, inputs, outputs)
            .map_err(|e| ClientError::EndorsementFailed(vec![e]))?;
        self.submit(org, &proposal)
    }

    /// A mint of `outputs` signed by every bank key, proposed by org
    /// `org`'s client.
    pub fn mint_proposal(&self, org: usize, outputs: Vec<CoinState>) -> SignedProposal {
        let keys = self.bank.public_keys().len();
        self.proposal(org, "mint", |txid| {
            Ok(self.bank.create_mint(outputs, txid, keys))
        })
        .expect("the bank signs any mint")
    }

    /// A spend of `inputs` from org `org`'s wallet, proposed by its
    /// client; fails if the wallet does not own an input.
    pub fn spend_proposal(
        &self,
        org: usize,
        inputs: &[String],
        outputs: Vec<CoinState>,
    ) -> Result<SignedProposal, String> {
        self.proposal(org, "spend", |txid| {
            self.wallets[org].create_spend(inputs, outputs, txid)
        })
    }

    fn proposal(
        &self,
        org: usize,
        function: &str,
        request: impl FnOnce(&TxId) -> Result<FabcoinRequest, String>,
    ) -> Result<SignedProposal, String> {
        let client = &self.clients[org];
        let nonce = client.next_nonce();
        let txid = TxId::derive(&client.identity().serialized().to_wire(), &nonce);
        let request = request(&txid)?;
        Ok(client.create_proposal_with_nonce(
            FABCOIN_NAMESPACE,
            function,
            vec![request.to_wire()],
            nonce,
        ))
    }

    /// Endorses `proposal` at org `org`'s peer (the Fabcoin VSCC checks
    /// wallet signatures, not endorsement counts) and assembles the
    /// transaction.
    pub fn endorse(&self, org: usize, proposal: &SignedProposal) -> Result<Envelope, ClientError> {
        let client = &self.clients[org];
        let responses = client.collect_endorsements(proposal, &[&self.net.peers[org]])?;
        Ok(client.assemble_transaction(proposal, &responses))
    }

    fn submit(&mut self, org: usize, proposal: &SignedProposal) -> Result<TxId, ClientError> {
        let envelope = self.endorse(org, proposal)?;
        self.net
            .ordering
            .broadcast(envelope)
            .map_err(|e| ClientError::BroadcastRejected(e.to_string()))?;
        Ok(proposal.proposal.tx_id())
    }

    /// Advances ordering timers (needed for timeout-based block cuts).
    pub fn tick(&mut self) {
        self.net.ordering.tick();
    }

    /// Commits every cut block on all peers without ticking, applying
    /// each block's valid Fabcoin transactions to every wallet. Returns
    /// the number of blocks committed.
    pub fn pump(&mut self) -> usize {
        let mut committed = 0;
        while let Some((block, flags)) = self.net.commit_next() {
            for wallet in &mut self.wallets {
                wallet.apply_committed(&block, &flags);
            }
            committed += 1;
        }
        committed
    }

    /// Ten rounds of tick and [`FabcoinNetwork::pump`], so batch
    /// timeouts cut partial blocks and the wallets see them.
    pub fn settle(&mut self) {
        for _ in 0..10 {
            self.tick();
            self.pump();
        }
    }

    /// Convenience: a coin state owned by org `org`'s wallet.
    pub fn coin_for(&self, org: usize, amount: u64, label: &str) -> CoinState {
        CoinState {
            amount,
            owner: self.address(org),
            label: label.to_string(),
        }
    }

    /// The validity flag a transaction got at peer 0, if committed.
    pub fn tx_flag(&self, txid: &TxId) -> Option<TxValidationCode> {
        self.net.peers[0]
            .get_transaction(txid)
            .ok()
            .flatten()
            .map(|(_, _, flag)| flag)
    }
}
