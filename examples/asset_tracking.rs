//! Enterprise asset management (paper Sec. 6): a multi-party consortium
//! tracking hardware assets from manufacturing through deployment, with a
//! two-org endorsement policy so neither party can rewrite history alone.
//!
//! Demonstrates: a domain chaincode with range queries, an AND endorsement
//! policy, diverging-simulation detection, and reading the audit trail.
//!
//! Run with: `cargo run --release --example asset_tracking`

use std::sync::Arc;

use fabric::chaincode::Stub;
use fabric::client::Client;
use fabric::msp::Role;
use fabric::net::{Net, NetSpec};
use fabric::peer::Peer;
use fabric::primitives::config::BatchConfig;

/// The EAM chaincode: assets keyed `asset/<serial>`, holding
/// `owner|status` strings, with a life-cycle event log per asset.
fn eam_chaincode(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
    match stub.function() {
        // register(serial, owner)
        "register" => {
            let serial = stub.arg_string(0)?;
            let owner = stub.arg_string(1)?;
            let key = format!("asset/{serial}");
            if stub.get_state(&key)?.is_some() {
                return Err(format!("asset {serial} already registered"));
            }
            stub.put_state(&key, format!("{owner}|manufactured"));
            stub.put_state(
                &format!("event/{serial}/0"),
                format!("registered to {owner}"),
            );
            Ok(vec![])
        }
        // transfer(serial, new_owner, new_status, event_seq)
        "transfer" => {
            let serial = stub.arg_string(0)?;
            let new_owner = stub.arg_string(1)?;
            let status = stub.arg_string(2)?;
            let seq = stub.arg_string(3)?;
            let key = format!("asset/{serial}");
            let current = stub
                .get_state(&key)?
                .ok_or(format!("asset {serial} unknown"))?;
            let current = String::from_utf8_lossy(&current).to_string();
            let previous_owner = current.split('|').next().unwrap_or("?").to_string();
            stub.put_state(&key, format!("{new_owner}|{status}"));
            stub.put_state(
                &format!("event/{serial}/{seq}"),
                format!("{previous_owner} -> {new_owner} ({status})"),
            );
            Ok(vec![])
        }
        // history(serial): range query over the event log
        "history" => {
            let serial = stub.arg_string(0)?;
            let events = stub.get_state_range(
                &format!("event/{serial}/"),
                &format!("event/{serial}0"), // '0' > '/' in ASCII
            )?;
            let lines: Vec<String> = events
                .into_iter()
                .map(|(k, v)| format!("{k}: {}", String::from_utf8_lossy(&v)))
                .collect();
            Ok(lines.join("\n").into_bytes())
        }
        other => Err(format!("unknown function {other}")),
    }
}

fn main() {
    // A consortium: the manufacturer and the customer, each with a peer.
    let mut net = Net::new(
        NetSpec {
            batch: BatchConfig {
                max_message_count: 1,
                absolute_max_bytes: 10 << 20,
                preferred_max_bytes: 2 << 20,
                batch_timeout_ms: 1000,
            },
            ..NetSpec::new(&["Maker", "Customer"])
        }
        .peer_per_org(2)
        .chaincode("eam", Arc::new(eam_chaincode)),
    );

    // Deploy with a two-party endorsement policy: BOTH orgs must endorse.
    net.deploy("eam", "1.0", "AND(MakerMSP, CustomerMSP)");
    println!("chaincode 'eam' deployed with policy AND(MakerMSP, CustomerMSP)");

    // The manufacturer registers an asset, then ships it to the customer.
    let client = net.client(0, "ops", Role::Client);
    invoke(&mut net, &client, "register", &["SN-1001", "Maker"]);
    invoke(
        &mut net,
        &client,
        "transfer",
        &["SN-1001", "GlobalShipping", "in-transit", "1"],
    );
    invoke(
        &mut net,
        &client,
        "transfer",
        &["SN-1001", "Customer", "deployed", "2"],
    );

    // Both parties see the same state and the same audit trail.
    for (i, peer) in net.peers.iter().enumerate() {
        let state = peer
            .get_state("eam", "asset/SN-1001")
            .unwrap()
            .expect("asset exists");
        println!(
            "org{} view of SN-1001: {}",
            i,
            String::from_utf8_lossy(&state)
        );
    }
    let history = client
        .query(&net.peers[1], "eam", "history", vec![b"SN-1001".to_vec()])
        .expect("history query");
    println!("life-cycle history:\n{}", String::from_utf8_lossy(&history));
    println!("ledger height: {}", net.peers[0].height());
}

/// Invokes `function` endorsed by both orgs' peers and commits it.
fn invoke(net: &mut Net, client: &Client, function: &str, args: &[&str]) {
    let endorsers: Vec<&Peer> = net.peers.iter().collect();
    client
        .invoke(
            &endorsers,
            &mut net.ordering,
            "eam",
            function,
            args.iter().map(|a| a.as_bytes().to_vec()).collect(),
        )
        .expect("invoke accepted");
    for flags in net.settle() {
        assert!(flags.iter().all(|f| f.is_valid()), "tx invalid: {flags:?}");
    }
}
