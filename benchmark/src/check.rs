//! Output checks, run on the settled deployment after every window. Any
//! violation makes the run exit non-zero without a result.

use std::collections::HashMap;

use fabric::fabcoin::{CoinState, FABCOIN_NAMESPACE};
use fabric::peer::Peer;
use fabric::primitives::wire::Wire;

use crate::config::App;
use crate::deploy::Deployment;
use crate::driver::{ClientState, Verdict, WindowReport};
use crate::inputs::Inputs;
use crate::kv::{key_name, parse_value, KV_NAMESPACE};
use crate::report::Outcome;

/// Untouched keys sampled by the `kv-mixed` counter check.
const UNTOUCHED_SAMPLE: u32 = 1000;

fn coin_value_on(peer: &Peer) -> u64 {
    peer.scan_state(FABCOIN_NAMESPACE, "", "")
        .expect("state scan")
        .iter()
        .filter_map(|(_, raw)| CoinState::from_wire(raw).ok())
        .map(|coin| coin.amount)
        .sum()
}

pub fn output_checks(
    dep: &Deployment,
    inputs: &Inputs,
    window: &WindowReport,
    outcomes: &[Option<Outcome>],
) -> Vec<String> {
    let mut violations = Vec::new();
    let measured = &dep.measured().peer;

    // Every admitted transaction committed exactly once, none lost, and
    // nothing the gateways refused reached the ledger.
    for (idx, (c, o)) in window.client.txs.iter().zip(&window.order.txs).enumerate() {
        if c.state == ClientState::Unsent {
            continue;
        }
        let admitted = o.verdict == Verdict::Admitted;
        let on_ledger = measured
            .ledger()
            .contains_tx(&inputs.txs[idx].proposal.tx_id());
        if admitted && (o.commits != 1 || !on_ledger) {
            violations.push(format!(
                "transaction {idx} was admitted and committed {} times (on the ledger: {on_ledger})",
                o.commits
            ));
        }
        if !admitted && (o.commits != 0 || on_ledger) {
            violations.push(format!(
                "transaction {idx} was never admitted, yet it committed"
            ));
        }
        if violations.len() > 20 {
            violations.push("further exactly-once violations omitted".into());
            break;
        }
    }

    match dep.spec.app {
        App::Fabcoin => {
            for (i, node) in dep.nodes.iter().enumerate() {
                let value = coin_value_on(&node.peer);
                if value != inputs.minted {
                    violations.push(format!(
                        "peer {i} holds Fabcoin value {value}, minted {}",
                        inputs.minted
                    ));
                }
            }
            let invalid = outcomes
                .iter()
                .flatten()
                .filter(|&&o| matches!(o, Outcome::Aborted | Outcome::Broken))
                .count();
            if invalid > 0 {
                violations.push(format!(
                    "{invalid} conflict-free Fabcoin spends were lost or committed invalid"
                ));
            }
        }
        App::Kv => {
            // A valid rewrite read the current counter, so each adds one.
            let mut expected: HashMap<u32, u64> = HashMap::new();
            for (idx, outcome) in outcomes.iter().enumerate() {
                if *outcome == Some(Outcome::Valid) {
                    for id in inputs.kv_writes[idx] {
                        *expected.entry(id).or_insert(0) += 1;
                    }
                }
            }
            let untouched = (0..UNTOUCHED_SAMPLE).filter(|id| !expected.contains_key(id));
            let checked: Vec<(u32, u64)> = expected
                .iter()
                .map(|(&id, &n)| (id, n))
                .chain(untouched.map(|id| (id, 0)))
                .collect();
            for (id, rewrites) in checked {
                let stored = measured
                    .get_state(KV_NAMESPACE, &key_name(id))
                    .expect("state read")
                    .and_then(|raw| parse_value(&raw));
                if stored != Some((rewrites, id)) {
                    violations.push(format!(
                        "key {id} holds {stored:?} after {rewrites} valid rewrites"
                    ));
                    if violations.len() > 20 {
                        break;
                    }
                }
            }
        }
    }

    if dep.spec.durable {
        let reference = &dep.nodes[0].peer;
        for (i, node) in dep.nodes.iter().enumerate().skip(1) {
            let same = node.peer.height() == reference.height()
                && node.peer.ledger().last_hash() == reference.ledger().last_hash()
                && node.peer.ledger().state_root() == reference.ledger().state_root();
            if !same {
                violations.push(format!(
                    "peer {i} disagrees with peer 0 on height, last block hash or state root"
                ));
            }
        }
        // Panics, and so fails the run, if two OSNs cut different chains.
        dep.ordering.assert_identical_chains(&dep.channel);
    }
    violations
}
