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

use fabric::chaincode::{ChaincodeDefinition, Stub, LSCC_NAMESPACE};
use fabric::client::Client;
use fabric::kvstore::MemBackend;
use fabric::msp::Role;
use fabric::ordering::testkit::TestNet;
use fabric::ordering::OrderingCluster;
use fabric::peer::{Peer, PeerConfig};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::wire::Wire;
use fabric_bench::stats::Table;

fn kv_put(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
    let key = stub.arg_string(0)?;
    stub.put_state(&key, stub.args()[1].clone());
    Ok(vec![])
}

fn main() {
    let n_tx: usize = std::env::var("FABRIC_BENCH_TXS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    println!("== Ablation: endorsement fan-out (1..4 orgs, AND policy) ==");
    println!("   ({n_tx} txs per point; default VSCC verifies one signature per endorsement)\n");

    let mut table = Table::new(&[
        "endorsers",
        "endorse ms/tx",
        "commit tps",
        "tx bytes",
    ]);
    for orgs in 1..=4usize {
        let org_names: Vec<String> = (1..=orgs).map(|i| format!("Org{i}")).collect();
        let org_refs: Vec<&str> = org_names.iter().map(|s| s.as_str()).collect();
        let net = TestNet::with_batch(
            &org_refs,
            ConsensusType::Solo,
            1,
            BatchConfig {
                max_message_count: 100,
                absolute_max_bytes: 16 << 20,
                preferred_max_bytes: 8 << 20,
                batch_timeout_ms: 300,
            },
        );
        let mut ordering = OrderingCluster::new(
            ConsensusType::Solo,
            net.orderers(1),
            vec![net.genesis.clone()],
        )
        .expect("ordering");
        let genesis = ordering.deliver(&net.channel, 0).expect("genesis");
        let peers: Vec<Peer> = (0..orgs)
            .map(|i| {
                let identity = fabric::msp::issue_identity(
                    &net.org_cas[i],
                    &format!("p{i}"),
                    Role::Peer,
                    format!("ab-p{i}").as_bytes(),
                );
                let peer = Peer::join(
                    identity,
                    &genesis,
                    Arc::new(MemBackend::new()),
                    PeerConfig {
                        vscc_parallelism: 1,
                        runtime: fabric::chaincode::RuntimeConfig { exec_timeout: None },
                        sync_writes: false,
                    },
                )
                .expect("join");
                peer.install_chaincode("kv", Arc::new(kv_put));
                peer
            })
            .collect();
        let endorsers: Vec<&Peer> = peers.iter().collect();
        let policy = format!(
            "AND({})",
            org_names
                .iter()
                .map(|o| format!("{o}MSP"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let admin = Client::new(
            fabric::msp::issue_identity(&net.org_cas[0], "a", Role::Admin, b"ab-admin"),
            net.channel.clone(),
        );
        let def = ChaincodeDefinition {
            name: "kv".into(),
            version: "1".into(),
            endorsement_policy: policy,
        };
        let proposal = admin.create_proposal(LSCC_NAMESPACE, "deploy", vec![def.to_wire()]);
        let responses = admin.collect_endorsements(&proposal, &endorsers).unwrap();
        ordering
            .broadcast(admin.assemble_transaction(&proposal, &responses))
            .unwrap();
        for _ in 0..5 {
            ordering.tick();
        }
        while let Some(block) = ordering.deliver(&net.channel, peers[0].height()) {
            for p in &peers {
                p.commit_block(&block).unwrap();
            }
        }

        // Endorse + submit n_tx puts.
        let client = Client::new(
            fabric::msp::issue_identity(&net.org_cas[0], "c", Role::Client, b"ab-client"),
            net.channel.clone(),
        );
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
        // Commit (validation at peer 0) under the clock.
        let start = std::time::Instant::now();
        for env in envelopes {
            ordering.broadcast(env).unwrap();
            while let Some(block) = ordering.deliver(&net.channel, peers[0].height()) {
                peers[0].commit_block(&block).unwrap();
            }
        }
        for _ in 0..5 {
            ordering.tick();
        }
        while let Some(block) = ordering.deliver(&net.channel, peers[0].height()) {
            peers[0].commit_block(&block).unwrap();
        }
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
