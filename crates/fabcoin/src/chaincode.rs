//! The Fabcoin chaincode (paper Sec. 5.1).
//!
//! Simulation of a spend: `GetState(in)` for every input (recording it and
//! its version in the readset), `DelState(in)` (marking it spent), then
//! `PutState(txid.j, out)` for every output. Mint only creates outputs.
//!
//! The chaincode also runs the semantic checks of the Fabcoin VSCC
//! *without* cryptographic signature verification — not required for
//! safety (the real VSCC validates post-ordering), but it lets correct
//! peers filter malformed transactions before endorsing them, exactly as
//! the paper describes.

use fabric_chaincode::{Chaincode, Stub};
use fabric_primitives::wire::Wire;

use crate::types::{coin_key, CoinState, FabcoinRequest};

/// The Fabcoin chaincode.
pub struct FabcoinChaincode;

impl Chaincode for FabcoinChaincode {
    fn invoke(&self, stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
        match stub.function() {
            "mint" | "spend" => {
                let raw = stub.args().first().ok_or("missing request argument")?;
                let request =
                    FabcoinRequest::from_wire(raw).map_err(|e| format!("bad request: {e}"))?;
                if stub.function() == "mint" && !request.is_mint() {
                    return Err("mint request must not have inputs".into());
                }
                if stub.function() == "spend" && request.is_mint() {
                    return Err("spend request must have inputs".into());
                }
                execute_request(stub, &request)
            }
            "balance" => {
                // Read-only helper: total unspent value owned by a public
                // key (args[0] = SEC1 key, args[1] = label).
                let owner = stub.args().first().ok_or("missing owner argument")?.clone();
                let label = stub.arg_string(1)?;
                let mut total: u64 = 0;
                for (_, raw) in stub.get_state_range("", "")? {
                    let coin = CoinState::from_wire(&raw).map_err(|e| format!("bad coin: {e}"))?;
                    if coin.owner == owner && coin.label == label {
                        total += coin.amount;
                    }
                }
                Ok(total.to_le_bytes().to_vec())
            }
            other => Err(format!("unknown Fabcoin function {other}")),
        }
    }
}

/// Common simulation for mint and spend.
fn execute_request(stub: &mut Stub<'_>, request: &FabcoinRequest) -> Result<Vec<u8>, String> {
    // Semantic pre-checks (signatures are NOT verified here; the custom
    // VSCC does that after ordering).
    if request.outputs.is_empty() {
        return Err("no outputs".into());
    }
    if request.outputs.iter().any(|o| o.amount == 0) {
        return Err("output amounts must be positive".into());
    }
    let mut input_sum: u64 = 0;
    let mut input_label: Option<String> = None;
    for input in &request.inputs {
        let raw = stub
            .get_state(input)?
            .ok_or_else(|| format!("input coin {input} does not exist"))?;
        let coin = CoinState::from_wire(&raw).map_err(|e| format!("bad coin state: {e}"))?;
        input_sum = input_sum
            .checked_add(coin.amount)
            .ok_or("input amount overflow")?;
        if let Some(label) = &input_label {
            if label != &coin.label {
                return Err("mixed input labels".into());
            }
        } else {
            input_label = Some(coin.label.clone());
        }
        // Destroy the input coin state ("spent").
        stub.del_state(input);
    }
    if !request.is_mint() {
        let output_sum: u64 = request
            .outputs
            .iter()
            .try_fold(0u64, |acc, o| acc.checked_add(o.amount))
            .ok_or("output amount overflow")?;
        if output_sum > input_sum {
            return Err(format!(
                "outputs ({output_sum}) exceed inputs ({input_sum})"
            ));
        }
        if let Some(label) = &input_label {
            if request.outputs.iter().any(|o| &o.label != label) {
                return Err("output label does not match inputs".into());
            }
        }
    }
    // Create the output coin states under this transaction's id.
    let txid = stub.tx_id();
    for (j, output) in request.outputs.iter().enumerate() {
        stub.put_state(&coin_key(&txid, j as u32), output.to_wire());
    }
    Ok(txid.0.to_vec())
}
