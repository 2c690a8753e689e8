//! # fabric-fabcoin
//!
//! Fabcoin (paper Sec. 5.1): the Bitcoin-inspired, authority-minted UTXO
//! cryptocurrency the paper uses to evaluate Fabric — and to demonstrate a
//! *custom validation phase*: Fabcoin installs its own VSCC that verifies
//! wallet signatures and value conservation, while double spends are
//! caught by Fabric's standard read-write version check in the PTM.
//!
//! * [`types`] — coin states, the `txid.j` key scheme, signed requests.
//! * [`wallet`] — client wallets and the central bank.
//! * [`chaincode`] — the Fabcoin chaincode (simulation side).
//! * [`vscc`] — the custom validation system chaincode.
//! * [`zipfian`] — the zipfian account chooser of the Fabcoin workloads.
//!
//! A whole in-process Fabcoin deployment (peers, ordering, clients,
//! wallets) is `fabric::net::FabcoinNetwork` in the root crate.

pub mod chaincode;
pub mod types;
pub mod vscc;
pub mod wallet;
pub mod zipfian;

pub use chaincode::FabcoinChaincode;
pub use types::{coin_key, CoinState, FabcoinRequest, FABCOIN_NAMESPACE};
pub use vscc::FabcoinVscc;
pub use wallet::{CentralBank, OwnedCoin, Wallet};
pub use zipfian::Zipfian;
