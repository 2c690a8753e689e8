//! Ablation: cost of the endorsement-policy fan-out.
//!
//! Not a paper figure — an ablation of the execute-order-validate design
//! choice the paper motivates in Sec. 2/3: endorsement policies buy
//! application-level trust at the price of one simulation + one signature
//! per endorser at execution time and one signature verification per
//! endorsement at validation time. This harness measures both sides as the
//! policy widens from 1-of-1 to 4-of-4, using the default VSCC (not
//! Fabcoin's custom one, which ignores endorsement counts).

use std::sync::Arc;

use fabric::msp::Role;
use fabric::net::{kv_chaincode, Net, NetSpec};
use fabric::peer::{DeliverMux, Peer, PipelineOptions};
use fabric::primitives::config::BatchConfig;
use fabric::primitives::wire::Wire;
use fabric_bench::pipeline::deliver;
use fabric_bench::stats::Table;

fn main() {
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    println!("== Ablation: endorsement fan-out (1..4 orgs, AND policy) ==");
    println!("   ({n_tx} txs per point; default VSCC verifies one signature per endorsement)\n");

    let mut table = Table::new(&["endorsers", "endorse ms/tx", "commit tps", "tx bytes"]);
    for orgs in 1..=4usize {
        let org_names: Vec<String> = (1..=orgs).map(|i| format!("Org{i}")).collect();
        let org_refs: Vec<&str> = org_names.iter().map(|s| s.as_str()).collect();
        let mut net = Net::new(
            NetSpec {
                batch: BatchConfig {
                    max_message_count: 100,
                    absolute_max_bytes: 16 << 20,
                    preferred_max_bytes: 8 << 20,
                    batch_timeout_ms: 300,
                },
                ..NetSpec::new(&org_refs)
            }
            .peer_per_org(1)
            .chaincode("kv", Arc::new(kv_chaincode)),
        );
        let policy = format!(
            "AND({})",
            org_names
                .iter()
                .map(|o| format!("{o}MSP"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        net.deploy("kv", "1", &policy);

        // Endorse + submit n_tx puts.
        let client = net.client(0, "c", Role::Client);
        let endorsers: Vec<&Peer> = net.peers.iter().collect();
        let mut endorse_total = std::time::Duration::ZERO;
        let mut tx_bytes = 0usize;
        let mut envelopes = Vec::with_capacity(n_tx);
        for i in 0..n_tx {
            let proposal = client.create_proposal(
                "kv",
                "put",
                vec![format!("k{i}").into_bytes(), vec![0u8; 64]],
            );
            let start = std::time::Instant::now();
            let responses = client.collect_endorsements(&proposal, &endorsers).unwrap();
            endorse_total += start.elapsed();
            let env = client.assemble_transaction(&proposal, &responses);
            tx_bytes += env.wire_size();
            envelopes.push(env);
        }
        // Commit (validation at peer 0, through its own one-worker mux)
        // under the clock.
        let peer = net.detach(0);
        let channel = net.channel.clone();
        let mux = DeliverMux::new(1);
        mux.attach(channel.clone(), &peer, PipelineOptions::default())
            .unwrap();
        let mut next = peer.height();
        let start = std::time::Instant::now();
        for env in envelopes {
            net.ordering.broadcast(env).unwrap();
            while let Some(block) = net.ordering.deliver(&channel, next) {
                deliver(&mux, &channel, &block).unwrap();
                next += 1;
            }
        }
        for _ in 0..5 {
            net.ordering.tick();
        }
        while let Some(block) = net.ordering.deliver(&channel, next) {
            deliver(&mux, &channel, &block).unwrap();
            next += 1;
        }
        mux.wait_committed(&channel, next).unwrap();
        let elapsed = start.elapsed();
        table.row(vec![
            format!("{orgs}"),
            format!("{:.2}", endorse_total.as_secs_f64() * 1e3 / n_tx as f64),
            format!("{:.0}", n_tx as f64 / elapsed.as_secs_f64()),
            format!("{:.0}", tx_bytes as f64 / n_tx as f64),
        ]);
    }
    table.print();
    println!("\nexpected: endorsement latency grows linearly with fan-out (one simulation +");
    println!("signature per endorser); commit throughput decreases as the default VSCC");
    println!("verifies one more endorsement signature per added org; tx size grows by one");
    println!("endorsement (certificate + signature) per org.");
}
