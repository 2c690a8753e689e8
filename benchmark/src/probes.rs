//! Post-window probes (traced runs): short sequential loops on the
//! loaded deployment that give a layer's service time without queueing.
//! They run after the timed window and touch none of its numbers.

use std::hint::black_box;
use std::time::Instant;

use fabric::crypto::SigningKey;
use fabric::fabcoin::FABCOIN_NAMESPACE;
use fabric::primitives::transaction::Envelope;

use crate::config::{batch_config, App};
use crate::deploy::{new_ordering, Deployment};
use crate::inputs::Inputs;
use crate::kv::KV_NAMESPACE;

const CRYPTO_ROUNDS: usize = 2000;

#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub process_proposal_us: f64,
    pub broadcast_us_per_tx: f64,
    pub get_us: f64,
    pub sign_us: f64,
    pub verify_us: f64,
}

fn us_each(started: Instant, n: usize) -> f64 {
    started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

pub fn run(dep: &Deployment, inputs: &Inputs) -> Probes {
    let peer = &dep.nodes[0].peer;
    let spare = &inputs.txs[inputs.replayable()..];

    // Endorsement service time: one proposal at a time, no queue.
    let started = Instant::now();
    let responses: Vec<_> = spare
        .iter()
        .map(|p| peer.process_proposal(p).expect("probe proposal endorses"))
        .collect();
    let process_proposal_us = us_each(started, spare.len());

    // Ordering intake on a scratch cluster of the workload's kind.
    let envelopes: Vec<Envelope> = spare
        .iter()
        .zip(&responses)
        .map(|(p, r)| dep.client.assemble_transaction(p, std::slice::from_ref(r)))
        .collect();
    let mut scratch = new_ordering(&dep.net, dep.spec.durable);
    let batch = batch_config().max_message_count as usize;
    let started = Instant::now();
    for chunk in envelopes.chunks(batch) {
        let verdicts = scratch.broadcast_batch(chunk.to_vec());
        assert!(
            verdicts.iter().all(Result::is_ok),
            "probe broadcast rejected"
        );
    }
    let broadcast_us_per_tx = us_each(started, envelopes.len());

    let namespace = match dep.spec.app {
        App::Fabcoin => FABCOIN_NAMESPACE,
        App::Kv => KV_NAMESPACE,
    };
    let started = Instant::now();
    for key in &inputs.probe_keys {
        black_box(peer.get_state(namespace, key).expect("state read"));
    }
    let get_us = us_each(started, inputs.probe_keys.len());

    let key = SigningKey::from_seed(b"benchmark-crypto-probe");
    let verifying = key.verifying_key();
    let message = [0x5au8; 512];
    let started = Instant::now();
    let signatures: Vec<_> = (0..CRYPTO_ROUNDS)
        .map(|_| key.sign(black_box(&message)))
        .collect();
    let sign_us = us_each(started, CRYPTO_ROUNDS);
    let started = Instant::now();
    for signature in &signatures {
        verifying
            .verify(black_box(&message), signature)
            .expect("probe signature verifies");
    }
    let verify_us = us_each(started, CRYPTO_ROUNDS);

    Probes {
        process_proposal_us,
        broadcast_us_per_tx,
        get_us,
        sign_us,
        verify_us,
    }
}
