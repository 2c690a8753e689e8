//! Client wallets and central banks (paper Sec. 5.1).
//!
//! A [`Wallet`] locally stores cryptographic keys that allow the client to
//! spend coins, tracks the unspent coin states owned by those keys, and
//! signs spend requests. A [`CentralBank`] holds the authority keys whose
//! signatures authorize mint transactions.

use std::collections::HashMap;

use fabric_crypto::SigningKey;
use fabric_primitives::block::Block;
use fabric_primitives::ids::{TxId, TxValidationCode};
use fabric_primitives::transaction::EnvelopeContent;
use fabric_primitives::wire::Wire;

use crate::types::{coin_key, CoinState, FabcoinRequest, FABCOIN_NAMESPACE};

/// An unspent coin tracked by a wallet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedCoin {
    /// The coin's KVS key (`txid.j`).
    pub key: String,
    /// Amount.
    pub amount: u64,
    /// Currency label.
    pub label: String,
    /// The owner public key (one of the wallet's addresses).
    pub owner: Vec<u8>,
}

/// A client wallet: keys plus the coins they own.
#[derive(Default)]
pub struct Wallet {
    /// Keys by SEC1 public-key bytes.
    keys: HashMap<Vec<u8>, SigningKey>,
    /// Unspent coins by KVS key.
    coins: HashMap<String, OwnedCoin>,
}

impl Wallet {
    /// Creates an empty wallet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates a new address (deterministic from `seed`), returning its
    /// SEC1 public key.
    pub fn new_address(&mut self, seed: &[u8]) -> Vec<u8> {
        let key = SigningKey::from_seed(seed);
        let public = key.verifying_key().to_sec1().to_vec();
        self.keys.insert(public.clone(), key);
        public
    }

    /// Records a coin observed on the ledger if one of our keys owns it.
    pub fn note_coin(&mut self, key: &str, state: &CoinState) {
        if self.keys.contains_key(&state.owner) {
            self.coins.insert(
                key.to_string(),
                OwnedCoin {
                    key: key.to_string(),
                    amount: state.amount,
                    label: state.label.clone(),
                    owner: state.owner.clone(),
                },
            );
        }
    }

    /// Forgets a coin once its spend has committed.
    pub fn note_spent(&mut self, key: &str) {
        self.coins.remove(key);
    }

    /// Applies a committed block: every valid Fabcoin transaction's
    /// inputs are spent and its outputs noted (kept if this wallet owns
    /// them). Returns every such output as `(coin key, state)`, in block
    /// order.
    pub fn apply_committed(
        &mut self,
        block: &Block,
        flags: &[TxValidationCode],
    ) -> Vec<(String, CoinState)> {
        let mut outputs = Vec::new();
        for (env, flag) in block.envelopes.iter().zip(flags) {
            if !flag.is_valid() {
                continue;
            }
            let EnvelopeContent::Transaction(tx) = &env.content else {
                continue;
            };
            if tx.response_payload.chaincode.name != FABCOIN_NAMESPACE {
                continue;
            }
            let Some(Ok(request)) = tx
                .proposal_payload
                .args
                .first()
                .map(|raw| FabcoinRequest::from_wire(raw))
            else {
                continue;
            };
            for input in &request.inputs {
                self.note_spent(input);
            }
            let txid = tx.tx_id();
            for (j, output) in request.outputs.into_iter().enumerate() {
                let key = coin_key(&txid, j as u32);
                self.note_coin(&key, &output);
                outputs.push((key, output));
            }
        }
        outputs
    }

    /// Total unspent value held for `label`.
    pub fn balance(&self, label: &str) -> u64 {
        self.coins
            .values()
            .filter(|c| c.label == label)
            .map(|c| c.amount)
            .sum()
    }

    /// The unspent coins for `label`, in deterministic (key) order.
    pub fn coins(&self, label: &str) -> Vec<OwnedCoin> {
        let mut coins: Vec<OwnedCoin> = self
            .coins
            .values()
            .filter(|c| c.label == label)
            .cloned()
            .collect();
        coins.sort_by(|a, b| a.key.cmp(&b.key));
        coins
    }

    /// Builds and signs a spend request consuming `inputs` (keys of coins
    /// this wallet owns) and creating `outputs`, bound to `txid`.
    pub fn create_spend(
        &self,
        inputs: &[String],
        outputs: Vec<CoinState>,
        txid: &TxId,
    ) -> Result<FabcoinRequest, String> {
        let mut request = FabcoinRequest {
            inputs: inputs.to_vec(),
            outputs,
            sigs: Vec::with_capacity(inputs.len()),
        };
        let message = request.signing_bytes(txid);
        for input in inputs {
            let coin = self
                .coins
                .get(input)
                .ok_or_else(|| format!("wallet does not own coin {input}"))?;
            let key = self
                .keys
                .get(&coin.owner)
                .ok_or_else(|| format!("missing key for coin {input}"))?;
            request.sigs.push(key.sign(&message).to_bytes().to_vec());
        }
        Ok(request)
    }
}

/// The central-bank authority for minting.
pub struct CentralBank {
    keys: Vec<SigningKey>,
}

impl CentralBank {
    /// Creates a bank with `n` keys derived from `seed`.
    pub fn new(n: usize, seed: &[u8]) -> Self {
        let keys = (0..n)
            .map(|i| {
                let mut s = seed.to_vec();
                s.extend_from_slice(&(i as u32).to_le_bytes());
                SigningKey::from_seed(&s)
            })
            .collect();
        CentralBank { keys }
    }

    /// The banks' SEC1 public keys (configured into the Fabcoin VSCC).
    pub fn public_keys(&self) -> Vec<Vec<u8>> {
        self.keys
            .iter()
            .map(|k| k.verifying_key().to_sec1().to_vec())
            .collect()
    }

    /// Builds a mint request creating `outputs`, signed by the first
    /// `signers` bank keys, bound to `txid`.
    pub fn create_mint(
        &self,
        outputs: Vec<CoinState>,
        txid: &TxId,
        signers: usize,
    ) -> FabcoinRequest {
        let mut request = FabcoinRequest {
            inputs: Vec::new(),
            outputs,
            sigs: Vec::with_capacity(signers),
        };
        let message = request.signing_bytes(txid);
        for key in self.keys.iter().take(signers) {
            request.sigs.push(key.sign(&message).to_bytes().to_vec());
        }
        request
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin(owner: &[u8], amount: u64) -> CoinState {
        CoinState {
            amount,
            owner: owner.to_vec(),
            label: "FBC".into(),
        }
    }

    #[test]
    fn tracks_owned_coins_only() {
        let mut wallet = Wallet::new();
        let mine = wallet.new_address(b"w1");
        let theirs = SigningKey::from_seed(b"other")
            .verifying_key()
            .to_sec1()
            .to_vec();
        wallet.note_coin("t1.0", &coin(&mine, 10));
        wallet.note_coin("t1.1", &coin(&theirs, 20));
        assert_eq!(wallet.balance("FBC"), 10);
        assert_eq!(wallet.coins("FBC").len(), 1);
        assert_eq!(wallet.balance("USD"), 0);
    }

    #[test]
    fn spend_signature_verifies() {
        let mut wallet = Wallet::new();
        let addr = wallet.new_address(b"w1");
        wallet.note_coin("t1.0", &coin(&addr, 10));
        let txid = TxId::derive(b"c", &[7; 32]);
        let request = wallet
            .create_spend(&["t1.0".into()], vec![coin(&addr, 10)], &txid)
            .unwrap();
        assert_eq!(request.sigs.len(), 1);
        let key = fabric_crypto::VerifyingKey::from_sec1(&addr).unwrap();
        let sig = fabric_crypto::Signature::from_bytes(&request.sigs[0]).unwrap();
        key.verify(&request.signing_bytes(&txid), &sig).unwrap();
    }

    #[test]
    fn cannot_spend_unknown_coin() {
        let wallet = Wallet::new();
        let txid = TxId::derive(b"c", &[7; 32]);
        assert!(wallet
            .create_spend(&["ghost.0".into()], vec![], &txid)
            .is_err());
    }

    #[test]
    fn note_spent_updates_balance() {
        let mut wallet = Wallet::new();
        let addr = wallet.new_address(b"w1");
        wallet.note_coin("t1.0", &coin(&addr, 10));
        wallet.note_spent("t1.0");
        assert_eq!(wallet.balance("FBC"), 0);
    }

    #[test]
    fn central_bank_threshold_signatures() {
        let bank = CentralBank::new(3, b"cb");
        assert_eq!(bank.public_keys().len(), 3);
        let txid = TxId::derive(b"c", &[1; 32]);
        let request = bank.create_mint(vec![coin(&[4u8; 65], 100)], &txid, 2);
        assert_eq!(request.sigs.len(), 2);
        assert!(request.is_mint());
        // Each signature verifies under a distinct bank key.
        let message = request.signing_bytes(&txid);
        for (i, sig_bytes) in request.sigs.iter().enumerate() {
            let key = fabric_crypto::VerifyingKey::from_sec1(&bank.public_keys()[i]).unwrap();
            let sig = fabric_crypto::Signature::from_bytes(sig_bytes).unwrap();
            key.verify(&message, &sig).unwrap();
        }
    }
}
