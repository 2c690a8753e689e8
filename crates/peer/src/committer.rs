//! The committer: the validation phase of execute-order-validate (paper
//! Sec. 3.4).
//!
//! A delivered block passes through three sequential stages:
//!
//! 1. **VSCC** — endorsement-policy evaluation, *in parallel across the
//!    transactions of the block* ("embarrassingly parallel", Sec. 5.2);
//!    the worker-pool width is the experiment knob behind Fig. 7.
//! 2. **Read-write check** — sequential MVCC version validation against
//!    the current state plus preceding in-block writes (one-copy
//!    serializability, incl. phantom detection for range queries).
//! 3. **Ledger update** — append the block (with the validity mask in its
//!    metadata) to the block store and apply the writesets of valid
//!    transactions; the savepoint makes this crash-recoverable.
//!
//! The committer reports per-stage wall-clock durations, which the
//! benchmark harness uses to regenerate Table 1 and Fig. 7.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use fabric_chaincode::{DefaultVscc, Vscc, LSCC_NAMESPACE};
use fabric_ledger::Ledger;
use fabric_primitives::block::Block;
use fabric_primitives::ids::TxValidationCode;
use fabric_primitives::transaction::{Envelope, EnvelopeContent};
use fabric_primitives::wire::Wire;

use crate::view::ChannelView;
use crate::PeerError;

/// Endorsement policy enforced for lifecycle (LSCC) transactions: any
/// member peer may endorse; the admin check happens inside the LSCC
/// chaincode during simulation.
const LSCC_POLICY: &str = "ANY(members)";

/// Per-stage validation latencies (Table 1 / Fig. 7 staging).
#[derive(Clone, Copy, Debug, Default)]
pub struct ValidationTiming {
    /// Stage 1: parallel VSCC evaluation.
    pub vscc: Duration,
    /// Stage 2: sequential read-write conflict check.
    pub rw_check: Duration,
    /// Stage 3: ledger append + state update.
    pub ledger: Duration,
}

impl ValidationTiming {
    /// Total validation time (sum of the three stages).
    pub fn total(&self) -> Duration {
        self.vscc + self.rw_check + self.ledger
    }
}

/// The validation/commit component of a peer.
///
/// Cloning is cheap and shares the channel view and VSCC registry — the
/// cross-block pipeline (see [`crate::pipeline`]) hands clones to its
/// worker threads.
#[derive(Clone)]
pub struct Committer {
    view: Arc<RwLock<ChannelView>>,
    /// Custom VSCCs by chaincode name (e.g. Fabcoin's, paper Sec. 5.1).
    custom_vsccs: Arc<RwLock<HashMap<String, Arc<dyn Vscc>>>>,
    /// VSCC worker-pool width (the "vCPUs" knob of Fig. 7).
    vscc_parallelism: usize,
}

impl Committer {
    /// Creates a committer with the given VSCC parallelism.
    pub fn new(view: Arc<RwLock<ChannelView>>, vscc_parallelism: usize) -> Self {
        Committer {
            view,
            custom_vsccs: Arc::new(RwLock::new(HashMap::new())),
            vscc_parallelism: vscc_parallelism.max(1),
        }
    }

    /// Registers a custom VSCC for a chaincode (statically configured, as
    /// the paper requires — untrusted applications cannot change it).
    pub fn register_vscc(&self, chaincode: impl Into<String>, vscc: Arc<dyn Vscc>) {
        self.custom_vsccs.write().insert(chaincode.into(), vscc);
    }

    /// Whether a custom VSCC is registered for the chaincode — such VSCCs
    /// may read committed state, which the pipeline must order around.
    pub(crate) fn has_custom_vscc(&self, chaincode: &str) -> bool {
        self.custom_vsccs.read().contains_key(chaincode)
    }

    /// Verifies the block's integrity before validation: payload
    /// commitment and (when present) an ordering-service signature.
    pub fn verify_block(&self, block: &Block) -> Result<(), PeerError> {
        if !block.verify_data_hash() {
            return Err(PeerError::BadBlock("data hash mismatch".into()));
        }
        let view = self.view.read();
        if let Some(sig) = block.metadata.signatures.first() {
            view.msp
                .validate_and_verify(&sig.signer, &block.hash(), &sig.signature)
                .map_err(PeerError::Identity)?;
        }
        Ok(())
    }

    /// Applies a committed block to the channel view: a valid config
    /// block replaces it. Both commit paths (sequential and pipelined)
    /// call this right after the ledger append.
    pub(crate) fn apply_config(
        &self,
        block: &Block,
        flags: &[TxValidationCode],
    ) -> Result<(), PeerError> {
        if block.is_config_block() && flags.first() == Some(&TxValidationCode::Valid) {
            if let EnvelopeContent::Config(update) = &block.envelopes[0].content {
                *self.view.write() = ChannelView::new(update.config.clone())?;
            }
        }
        Ok(())
    }

    /// Runs the full validation pipeline and commits the block.
    ///
    /// Returns the per-transaction validity mask and per-stage timings.
    pub fn validate_and_commit(
        &self,
        ledger: &Ledger,
        block: &Block,
    ) -> Result<(Vec<TxValidationCode>, ValidationTiming), PeerError> {
        let mut timing = ValidationTiming::default();

        // Stage 1: VSCC, parallel across transactions.
        let start = Instant::now();
        let mut flags = self.vscc_stage(ledger, block);
        timing.vscc = start.elapsed();

        // Stage 2: sequential read-write conflict check.
        let start = Instant::now();
        ledger
            .mvcc_validate(block, &mut flags)
            .map_err(PeerError::Ledger)?;
        timing.rw_check = start.elapsed();

        // Stage 3: ledger update (block + state + savepoint).
        let start = Instant::now();
        let mut committed = block.clone();
        committed.metadata.validation = flags.clone();
        ledger.commit(&committed).map_err(PeerError::Ledger)?;
        timing.ledger = start.elapsed();

        Ok((flags, timing))
    }

    /// Stage 1: evaluate each transaction's endorsements in parallel.
    fn vscc_stage(&self, ledger: &Ledger, block: &Block) -> Vec<TxValidationCode> {
        let n = block.envelopes.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.vscc_parallelism.min(n);
        if workers <= 1 {
            return block
                .envelopes
                .iter()
                .map(|env| self.validate_envelope(ledger, env))
                .collect();
        }
        let mut flags = vec![TxValidationCode::NotValidated; n];
        let chunk = n.div_ceil(workers);
        crossbeam::thread::scope(|scope| {
            for (envs, out) in block
                .envelopes
                .chunks(chunk)
                .zip(flags.chunks_mut(chunk))
            {
                scope.spawn(move |_| {
                    for (env, flag) in envs.iter().zip(out.iter_mut()) {
                        *flag = self.validate_envelope(ledger, env);
                    }
                });
            }
        })
        .expect("vscc worker panicked");
        flags
    }

    /// Validates one envelope: creator signature, then the chaincode's
    /// VSCC (custom or default-with-committed-policy).
    pub(crate) fn validate_envelope(&self, ledger: &Ledger, envelope: &Envelope) -> TxValidationCode {
        let view = self.view.read();
        match &envelope.content {
            EnvelopeContent::Config(update) => {
                // Peers re-validate config updates against their current
                // config (paper Sec. 4.6).
                if update.config.sequence != view.config.sequence + 1 {
                    return TxValidationCode::InvalidConfig;
                }
                let config_bytes = update.config.to_wire();
                let mut signers = Vec::new();
                for sig in &update.signatures {
                    match view
                        .msp
                        .validate_and_verify(&sig.signer, &config_bytes, &sig.signature)
                    {
                        Ok(identity) => signers.push(fabric_policy::Signer {
                            msp_id: identity.msp_id().to_string(),
                            role: identity.role().as_str().to_string(),
                        }),
                        Err(_) => return TxValidationCode::BadSignature,
                    }
                }
                let admin_policy = match fabric_policy::PolicyExpr::parse(
                    &view.config.admin_policy,
                ) {
                    Ok(p) => p,
                    Err(_) => return TxValidationCode::InvalidConfig,
                };
                match admin_policy.evaluate(&view.orgs, &signers) {
                    Ok(true) => TxValidationCode::Valid,
                    _ => TxValidationCode::InvalidConfig,
                }
            }
            EnvelopeContent::Transaction(tx) => {
                // Creator signature over the envelope content.
                let signing_bytes = Envelope::signing_bytes(&envelope.content);
                if view
                    .msp
                    .validate_and_verify(&tx.creator, &signing_bytes, &envelope.signature)
                    .is_err()
                {
                    return TxValidationCode::BadSignature;
                }
                // The derived tx id must match the endorsed payload.
                if tx.tx_id() != tx.response_payload.tx_id {
                    return TxValidationCode::BadPayload;
                }
                let cc_name = &tx.response_payload.chaincode.name;
                // Custom VSCC takes precedence (static configuration).
                if let Some(vscc) = self.custom_vsccs.read().get(cc_name) {
                    return vscc.validate(tx, &view.msp, &view.orgs, ledger);
                }
                // Default VSCC with the policy committed via LSCC.
                let policy_text = if cc_name == LSCC_NAMESPACE {
                    LSCC_POLICY.to_string()
                } else {
                    match fabric_chaincode::get_definition(ledger, cc_name) {
                        Ok(Some(def)) => def.endorsement_policy,
                        // Invoking an undeployed chaincode is invalid.
                        Ok(None) => return TxValidationCode::BadPayload,
                        Err(_) => return TxValidationCode::BadPayload,
                    }
                };
                match DefaultVscc::from_text(&policy_text) {
                    Ok(vscc) => vscc.validate(tx, &view.msp, &view.orgs, ledger),
                    Err(_) => TxValidationCode::EndorsementPolicyFailure,
                }
            }
        }
    }
}
