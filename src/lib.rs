//! # fabric
//!
//! A from-scratch Rust reproduction of **Hyperledger Fabric: A Distributed
//! Operating System for Permissioned Blockchains** (Androulaki et al.,
//! EuroSys 2018) — the execute-order-validate architecture, modular
//! consensus, membership services, gossip dissemination, the versioned
//! ledger, chaincode execution with endorsement policies, and the paper's
//! evaluation application (Fabcoin).
//!
//! This crate is the facade: it re-exports the public API of every
//! workspace crate under stable module names. See `README.md` for a
//! quickstart and `DESIGN.md` for the architecture map.
//!
//! ## Crate map
//!
//! | module | crate | paper section |
//! |---|---|---|
//! | [`crypto`] | `fabric-crypto` | Sec. 5.2 (256-bit ECDSA, SHA-256) |
//! | [`primitives`] | `fabric-primitives` | Sec. 3.2–3.4 message structures |
//! | [`msp`] | `fabric-msp` | Sec. 4.1 membership service |
//! | [`policy`] | `fabric-policy` | Sec. 3.1/3.4 endorsement policies |
//! | [`kvstore`] | `fabric-kvstore` | Sec. 4.4 (LevelDB substitute) |
//! | [`ledger`] | `fabric-ledger` | Sec. 4.4 block store + PTM |
//! | [`raft`] | `fabric-raft` | Sec. 4.2 (Kafka/CFT substitute) |
//! | [`pbft`] | `fabric-pbft` | Sec. 4.2 (BFT-SMaRt substitute) |
//! | [`ordering`] | `fabric-ordering` | Sec. 3.3, 4.2 ordering service |
//! | [`gossip`] | `fabric-gossip` | Sec. 4.3 |
//! | [`statesync`] | `fabric-statesync` | Sec. 4.3 state transfer, 4.2 log compaction anchor |
//! | [`chaincode`] | `fabric-chaincode` | Sec. 4.5, 4.6 |
//! | [`peer`] | `fabric-peer` | Sec. 3.2, 3.4 endorser + committer |
//! | [`gateway`] | `fabric-gateway` | Sec. 3.2 front door: admission, mempool, backpressure |
//! | [`client`] | `fabric-client` | Sec. 3.2 client SDK |
//! | [`fabcoin`] | `fabric-fabcoin` | Sec. 5.1 |
//! | [`simnet`] | `fabric-simnet` | Sec. 5.2 WAN experiments |
//!
//! [`net`] is this crate's own: one [`net::NetSpec`] stands up an
//! in-process network (orgs, any ordering backend, peers joined from
//! genesis) for tests, examples and benches.

pub use fabric_chaincode as chaincode;
pub use fabric_client as client;
pub use fabric_crypto as crypto;
pub use fabric_fabcoin as fabcoin;
pub use fabric_gateway as gateway;
pub use fabric_gossip as gossip;
pub use fabric_kvstore as kvstore;
pub use fabric_ledger as ledger;
pub use fabric_msp as msp;
pub use fabric_ordering as ordering;
pub use fabric_pbft as pbft;
pub use fabric_peer as peer;
pub use fabric_policy as policy;
pub use fabric_primitives as primitives;
pub use fabric_raft as raft;
pub use fabric_simnet as simnet;
pub use fabric_statesync as statesync;

pub mod net;
