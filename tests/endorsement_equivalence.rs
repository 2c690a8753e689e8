//! Equivalence battery: the pipelined endorsement path must be
//! *observably identical* to the sequential endorser (paper Sec. 3.2 —
//! endorsement is a pure function of the proposal and the peer's current
//! state, however it is scheduled).
//!
//! Property: over randomized workloads mixing chaincodes, clients,
//! argument shapes, invalid signatures, and rejecting chaincodes, the
//! pooled endorser and the sequential endorser produce
//!
//! 1. byte-identical [`ProposalResponsePayload`]s per proposal,
//! 2. byte-identical ESCC signatures (RFC 6979 determinism end to end),
//! 3. endorsements that verify against the channel MSP, and
//! 4. failures that map to the same [`PeerError`] variant.

mod common;

use std::sync::OnceLock;

use common::PipelineWorld;
use fabric::client::Client;
use fabric::msp::{Msp, MspRegistry, Role};
use fabric::peer::{EndorseOptions, EndorsePipeline, Peer, PeerError};
use fabric::primitives::transaction::{Endorsement, SignedProposal};
use fabric::primitives::wire::Wire;
use proptest::prelude::*;

/// One generated submission against the endorsers.
#[derive(Debug, Clone)]
enum Op {
    /// kv.put(key, value) — blind write.
    Put(String, Vec<u8>),
    /// kv.get(key) — read (hits seeded state for `s*` keys, else rejects).
    Get(String),
    /// kv.incr(key) — read-modify-write.
    Incr(String),
    /// kv.scanput(prefix, dest) — range query + write.
    Scan(String, String),
    /// kv.<unknown function> — chaincode-level rejection.
    RejectFn,
    /// An uninstalled chaincode name — plumbing error.
    Ghost,
    /// A valid proposal whose client signature is corrupted.
    Tampered,
}

struct EqWorld {
    /// The world's builder peer (the ordering service stays behind: it
    /// is not `Sync`, and nothing here orders).
    builder: Peer,
    clients: Vec<Client>,
    msp: MspRegistry,
}

/// One world for every case: nothing commits during the property runs, so
/// the ledger state every simulation sees is fixed.
fn eq_world() -> &'static EqWorld {
    static WORLD: OnceLock<EqWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut world = PipelineWorld::new();
        // Seed committed state so reads, increments, and scans hit data.
        let seed: Vec<_> = (0..5u8)
            .map(|i| world.endorse("put", vec![format!("s{i}").into_bytes(), vec![i; 4]]))
            .collect();
        world.seal_block(seed);
        let clients = (0..3)
            .map(|i| {
                let id = fabric::msp::issue_identity(
                    &world.net.fixtures.org_cas[0],
                    &format!("eq-client{i}"),
                    Role::Client,
                    format!("eq-c{i}").as_bytes(),
                );
                Client::new(id, world.net.channel.clone())
            })
            .collect();
        let msp = {
            let mut m = MspRegistry::new();
            m.add(Msp::new("Org1MSP", world.net.fixtures.org_cas[0].root_cert().clone()).unwrap());
            m
        };
        EqWorld {
            builder: world.builder,
            clients,
            msp,
        }
    })
}

/// Collapses a [`PeerError`] to its variant, the unit the equivalence
/// guarantee is stated over (messages may legitimately differ in
/// incidental detail; the variant must not).
fn error_kind(err: &PeerError) -> &'static str {
    match err {
        PeerError::Identity(_) => "identity",
        PeerError::Chaincode(_) => "chaincode",
        PeerError::ChaincodeRejected(_) => "chaincode-rejected",
        PeerError::Ledger(_) => "ledger",
        PeerError::BadBlock(_) => "bad-block",
        PeerError::Snapshot(_) => "snapshot",
    }
}

fn build_proposal(eq: &EqWorld, client_idx: usize, op: &Op, nonce: [u8; 32]) -> SignedProposal {
    let client = &eq.clients[client_idx % eq.clients.len()];
    match op {
        Op::Put(key, value) => client.create_proposal_with_nonce(
            "kv",
            "put",
            vec![key.clone().into_bytes(), value.clone()],
            nonce,
        ),
        Op::Get(key) => {
            client.create_proposal_with_nonce("kv", "get", vec![key.clone().into_bytes()], nonce)
        }
        Op::Incr(key) => {
            client.create_proposal_with_nonce("kv", "incr", vec![key.clone().into_bytes()], nonce)
        }
        Op::Scan(prefix, dest) => client.create_proposal_with_nonce(
            "kv",
            "scanput",
            vec![prefix.clone().into_bytes(), dest.clone().into_bytes()],
            nonce,
        ),
        Op::RejectFn => client.create_proposal_with_nonce("kv", "no-such-fn", vec![], nonce),
        Op::Ghost => client.create_proposal_with_nonce("ghost", "go", vec![], nonce),
        Op::Tampered => {
            let mut sp =
                client.create_proposal_with_nonce("kv", "get", vec![b"s0".to_vec()], nonce);
            sp.signature[5] ^= 0x20;
            sp
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..7,
        "[a-d]{1,3}",
        prop::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(sel, key, value)| match sel {
            0 => Op::Put(key, value),
            // `s[0-4]` keys exist; generated `[a-d]` keys do not — `get`
            // exercises both the hit and the reject ("missing") paths.
            1 => Op::Get(if value.len() % 2 == 0 {
                format!("s{}", value.len() % 5)
            } else {
                key
            }),
            2 => Op::Incr(key),
            3 => Op::Scan("s".into(), key),
            4 => Op::RejectFn,
            5 => Op::Ghost,
            _ => Op::Tampered,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_endorser_equals_sequential(
        ops in prop::collection::vec((op_strategy(), 0usize..3), 1..16),
        workers in 1usize..5,
    ) {
        let eq = eq_world();
        let pipeline: EndorsePipeline = eq.builder.endorse_pipeline(EndorseOptions {
            workers,
            ..EndorseOptions::default()
        });
        // Build each proposal once; the SAME signed bytes go to both paths.
        let proposals: Vec<SignedProposal> = ops
            .iter()
            .enumerate()
            .map(|(i, (op, client_idx))| {
                let mut nonce = [0u8; 32];
                nonce[0] = i as u8;
                nonce[1] = *client_idx as u8;
                nonce[2..10].copy_from_slice(&(ops.len() as u64).to_le_bytes());
                build_proposal(eq, *client_idx, op, nonce)
            })
            .collect();
        let sequential: Vec<Result<_, _>> = proposals
            .iter()
            .map(|sp| eq.builder.process_proposal(sp))
            .collect();
        // Submit everything before waiting: proposals are genuinely in
        // flight together on the pool.
        let tickets: Vec<_> = proposals
            .iter()
            .map(|sp| pipeline.submit(sp.clone()).expect("intake admits"))
            .collect();
        let pooled: Vec<Result<_, _>> = tickets.into_iter().map(|t| t.wait()).collect();

        for (i, (seq, pool)) in sequential.iter().zip(&pooled).enumerate() {
            match (seq, pool) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(
                        s.payload.to_wire(),
                        p.payload.to_wire(),
                        "payload diverged on op {}: {:?}",
                        i,
                        ops[i]
                    );
                    prop_assert_eq!(
                        &s.endorsement.signature,
                        &p.endorsement.signature,
                        "signature diverged on op {}: {:?}",
                        i,
                        ops[i]
                    );
                    prop_assert_eq!(&s.endorsement.endorser, &p.endorsement.endorser);
                    // The endorsement must verify against the channel MSP.
                    let message =
                        Endorsement::signing_bytes(&p.payload, &p.endorsement.endorser);
                    prop_assert!(
                        eq.msp
                            .validate_and_verify(
                                &p.endorsement.endorser,
                                &message,
                                &p.endorsement.signature,
                            )
                            .is_ok(),
                        "pipeline endorsement failed MSP verification on op {}",
                        i
                    );
                }
                (Err(s), Err(p)) => {
                    prop_assert_eq!(
                        error_kind(s),
                        error_kind(p),
                        "error variant diverged on op {}: {:?} — {} vs {}",
                        i,
                        ops[i],
                        s,
                        p
                    );
                }
                (s, p) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome diverged on op {i}: {:?} — sequential {:?} vs pooled {:?}",
                        ops[i],
                        s.as_ref().map(|r| &r.payload),
                        p.as_ref().map(|r| &r.payload),
                    )));
                }
            }
        }
        pipeline.close();
    }
}

/// The multiset view: the same workload submitted twice — once
/// sequentially, once through a wide pool — yields the same multiset of
/// response payload bytes, independent of completion order.
#[test]
fn payload_multiset_identical_across_schedules() {
    let eq = eq_world();
    let pipeline = eq.builder.endorse_pipeline(EndorseOptions {
        workers: 8,
        ..EndorseOptions::default()
    });
    let proposals: Vec<SignedProposal> = (0..48u8)
        .map(|i| {
            let client = &eq.clients[(i % 3) as usize];
            let mut nonce = [0xE0u8; 32];
            nonce[0] = i;
            match i % 4 {
                0 => client.create_proposal_with_nonce(
                    "kv",
                    "put",
                    vec![vec![b'm', i], vec![i; 3]],
                    nonce,
                ),
                1 => client.create_proposal_with_nonce(
                    "kv",
                    "get",
                    vec![format!("s{}", i % 5).into_bytes()],
                    nonce,
                ),
                2 => client.create_proposal_with_nonce(
                    "kv",
                    "incr",
                    vec![format!("s{}", i % 5).into_bytes()],
                    nonce,
                ),
                _ => client.create_proposal_with_nonce(
                    "kv",
                    "scanput",
                    vec![b"s".to_vec(), vec![b'd', i]],
                    nonce,
                ),
            }
        })
        .collect();
    let mut sequential: Vec<Vec<u8>> = proposals
        .iter()
        .map(|sp| {
            eq.builder
                .process_proposal(sp)
                .expect("valid workload")
                .payload
                .to_wire()
        })
        .collect();
    let tickets: Vec<_> = proposals
        .iter()
        .map(|sp| pipeline.submit(sp.clone()).expect("admitted"))
        .collect();
    let mut pooled: Vec<Vec<u8>> = tickets
        .into_iter()
        .map(|t| t.wait().expect("valid workload").payload.to_wire())
        .collect();
    sequential.sort();
    pooled.sort();
    assert_eq!(sequential, pooled, "payload multisets diverged");
    pipeline.close();
}
