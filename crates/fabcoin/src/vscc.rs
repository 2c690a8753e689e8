//! The custom Fabcoin VSCC (paper Sec. 5.1).
//!
//! Every peer validates Fabcoin transactions with this logic instead of
//! the default endorsement-policy VSCC — the paper's demonstration that
//! the validation phase is programmable. It verifies:
//!
//! * **mint**: enough central-bank signatures over the request (threshold
//!   configurable), outputs created under the matching transaction id,
//!   positive amounts;
//! * **spend**: a valid owner signature for every input coin (current
//!   values retrieved from the ledger), each input read-and-deleted in the
//!   rw-set, value conservation, matching labels, outputs under the
//!   matching transaction id.
//!
//! Double spends are deliberately *not* checked here: two spends of the
//! same coin both pass the VSCC, and the standard read-write version check
//! in the PTM invalidates whichever is ordered second.

use fabric_chaincode::Vscc;
use fabric_crypto::{Signature, VerifyingKey};
use fabric_ledger::Ledger;
use fabric_msp::MspRegistry;
use fabric_primitives::ids::TxValidationCode;
use fabric_primitives::transaction::Transaction;
use fabric_primitives::wire::Wire;

use crate::types::{coin_key, CoinState, FabcoinRequest, FABCOIN_NAMESPACE};

/// The Fabcoin validation system chaincode.
pub struct FabcoinVscc {
    /// SEC1-encoded central-bank public keys.
    cb_keys: Vec<Vec<u8>>,
    /// How many distinct CB signatures a mint needs.
    cb_threshold: usize,
}

impl FabcoinVscc {
    /// Creates the VSCC with the central-bank key set and mint threshold
    /// ("Fabcoin may be configured to use multiple CBs or specify a
    /// threshold number of signatures", paper Sec. 5.1).
    pub fn new(cb_keys: Vec<Vec<u8>>, cb_threshold: usize) -> Self {
        assert!(cb_threshold >= 1 && cb_threshold <= cb_keys.len());
        FabcoinVscc {
            cb_keys,
            cb_threshold,
        }
    }

    fn validate_inner(&self, tx: &Transaction, ledger: &Ledger) -> Result<(), TxValidationCode> {
        const INVALID: TxValidationCode = TxValidationCode::EndorsementPolicyFailure;
        let raw = tx
            .proposal_payload
            .args
            .first()
            .ok_or(TxValidationCode::BadPayload)?;
        let request = FabcoinRequest::from_wire(raw).map_err(|_| TxValidationCode::BadPayload)?;
        let txid = tx.tx_id();
        let message = request.signing_bytes(&txid);

        // Locate this transaction's writes in the Fabcoin namespace.
        let ns = tx
            .response_payload
            .rwset
            .ns_rwsets
            .iter()
            .find(|ns| ns.namespace == FABCOIN_NAMESPACE)
            .ok_or(TxValidationCode::BadPayload)?;

        // Outputs must be created under the matching transaction id, with
        // positive amounts, and be exactly the non-delete writes.
        if request.outputs.is_empty() || request.outputs.iter().any(|o| o.amount == 0) {
            return Err(INVALID);
        }
        for (j, output) in request.outputs.iter().enumerate() {
            let key = coin_key(&txid, j as u32);
            let write = ns.writes.iter().find(|w| w.key == key).ok_or(INVALID)?;
            match &write.value {
                Some(value) if *value == output.to_wire() => {}
                _ => return Err(INVALID),
            }
        }

        if request.is_mint() {
            // Threshold of distinct CB signatures.
            let mut used = vec![false; self.cb_keys.len()];
            let mut valid = 0usize;
            for sig_bytes in &request.sigs {
                let Ok(sig) = Signature::from_bytes(sig_bytes) else {
                    continue;
                };
                for (i, key_bytes) in self.cb_keys.iter().enumerate() {
                    if used[i] {
                        continue;
                    }
                    if let Ok(key) = VerifyingKey::from_sec1(key_bytes) {
                        if key.verify(&message, &sig).is_ok() {
                            used[i] = true;
                            valid += 1;
                            break;
                        }
                    }
                }
            }
            if valid < self.cb_threshold {
                return Err(INVALID);
            }
            return Ok(());
        }

        // Spend: every input must be read (version recorded) AND deleted.
        let mut input_sum: u64 = 0;
        let mut input_label: Option<String> = None;
        if request.sigs.len() != request.inputs.len() {
            return Err(INVALID);
        }
        for (input, sig_bytes) in request.inputs.iter().zip(&request.sigs) {
            let read = ns.reads.iter().find(|r| &r.key == input).ok_or(INVALID)?;
            if read.version.is_none() {
                return Err(INVALID); // read as missing: cannot spend
            }
            let deleted = ns.writes.iter().any(|w| &w.key == input && w.is_delete());
            if !deleted {
                return Err(INVALID);
            }
            // Retrieve the input coin's current value from the ledger.
            let raw = ledger
                .get_state(FABCOIN_NAMESPACE, input)
                .map_err(|_| INVALID)?
                .ok_or(INVALID)?;
            let coin = CoinState::from_wire(&raw).map_err(|_| INVALID)?;
            // Owner signature over the request bound to this txid.
            let owner_key = VerifyingKey::from_sec1(&coin.owner).map_err(|_| INVALID)?;
            let sig = Signature::from_bytes(sig_bytes).map_err(|_| INVALID)?;
            owner_key.verify(&message, &sig).map_err(|_| INVALID)?;
            input_sum = input_sum.checked_add(coin.amount).ok_or(INVALID)?;
            match &input_label {
                Some(label) if label != &coin.label => return Err(INVALID),
                None => input_label = Some(coin.label.clone()),
                _ => {}
            }
        }
        // Value conservation and label match.
        let output_sum: u64 = request
            .outputs
            .iter()
            .try_fold(0u64, |acc, o| acc.checked_add(o.amount))
            .ok_or(INVALID)?;
        if output_sum > input_sum {
            return Err(INVALID);
        }
        if let Some(label) = input_label {
            if request.outputs.iter().any(|o| o.label != label) {
                return Err(INVALID);
            }
        }
        Ok(())
    }
}

impl Vscc for FabcoinVscc {
    fn validate(
        &self,
        tx: &Transaction,
        _msp: &MspRegistry,
        _channel_orgs: &[String],
        ledger: &Ledger,
    ) -> TxValidationCode {
        match self.validate_inner(tx, ledger) {
            Ok(()) => TxValidationCode::Valid,
            Err(code) => code,
        }
    }
}
