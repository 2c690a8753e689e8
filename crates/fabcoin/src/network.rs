//! An in-process Fabcoin deployment: peers + ordering + clients + wallets
//! wired together.
//!
//! This is the driver used by the integration tests, the examples, and the
//! benchmark harness that regenerates the paper's evaluation (Sec. 5.2):
//! it stands up one endorsing peer per organization (plus optional extra
//! peers), an ordering cluster with the chosen consensus backend, a client
//! per org, and the central bank, then provides `mint` / `spend` round
//! trips and a `pump` step that delivers cut blocks to every peer.

use fabric_client::Client;
use fabric_msp::Role;
use fabric_ordering::testkit::TestNet;
use fabric_ordering::OrderingCluster;
use fabric_peer::{Peer, PeerConfig, ValidationTiming};
use fabric_primitives::block::Block;
use fabric_primitives::config::{BatchConfig, ConsensusType};
use fabric_primitives::ids::{TxId, TxValidationCode};
use fabric_primitives::transaction::EnvelopeContent;
use fabric_primitives::wire::Wire;
use std::sync::Arc;

use crate::chaincode::FabcoinChaincode;
use crate::types::{coin_key, CoinState, FabcoinRequest, FABCOIN_NAMESPACE};
use crate::vscc::FabcoinVscc;
use crate::wallet::{CentralBank, Wallet};

/// Configuration for a Fabcoin network.
pub struct FabcoinNetworkConfig {
    /// Number of organizations (one endorsing peer and one client each).
    pub orgs: usize,
    /// Consensus backend for the ordering service.
    pub consensus: ConsensusType,
    /// Number of ordering-service nodes.
    pub osn_count: usize,
    /// Block-cutting parameters.
    pub batch: BatchConfig,
    /// Central-bank keys and mint threshold.
    pub cb_keys: usize,
    /// Signatures required on a mint.
    pub cb_threshold: usize,
    /// VSCC parallelism at each peer.
    pub vscc_parallelism: usize,
}

impl Default for FabcoinNetworkConfig {
    fn default() -> Self {
        FabcoinNetworkConfig {
            orgs: 2,
            consensus: ConsensusType::Solo,
            osn_count: 1,
            batch: BatchConfig {
                max_message_count: 4,
                absolute_max_bytes: 10 * 1024 * 1024,
                preferred_max_bytes: 2 * 1024 * 1024,
                batch_timeout_ms: 200,
            },
            cb_keys: 1,
            cb_threshold: 1,
            vscc_parallelism: 2,
        }
    }
}

/// A complete in-process Fabcoin deployment.
pub struct FabcoinNetwork {
    /// Test-network fixtures (CAs, genesis).
    pub net: TestNet,
    /// One endorsing peer per org.
    pub peers: Vec<Peer>,
    /// The ordering cluster.
    pub ordering: OrderingCluster,
    /// One client per org.
    pub clients: Vec<Client>,
    /// One wallet per org.
    pub wallets: Vec<Wallet>,
    /// The central bank.
    pub bank: CentralBank,
    /// Per-stage validation timings collected from peer 0 during pumping.
    pub timings: Vec<ValidationTiming>,
}

impl FabcoinNetwork {
    /// Stands up the network.
    pub fn new(config: FabcoinNetworkConfig) -> Self {
        let org_names: Vec<String> = (1..=config.orgs).map(|i| format!("Org{i}")).collect();
        let org_refs: Vec<&str> = org_names.iter().map(|s| s.as_str()).collect();
        let net = TestNet::with_batch(&org_refs, config.consensus, config.osn_count, config.batch);
        let ordering = OrderingCluster::new(
            config.consensus,
            net.orderers(config.osn_count),
            vec![net.genesis.clone()],
        )
        .expect("genesis config is valid");
        let genesis = ordering
            .deliver(&net.channel, 0)
            .expect("genesis block exists");

        let bank = CentralBank::new(config.cb_keys, b"fabcoin-cb");
        let mut peers = Vec::with_capacity(config.orgs);
        for (i, _) in org_names.iter().enumerate() {
            let identity = fabric_msp::issue_identity(
                &net.org_cas[i],
                &format!("peer0.org{}", i + 1),
                Role::Peer,
                format!("fabcoin-peer-{i}").as_bytes(),
            );
            let peer = Peer::join(
                identity,
                &genesis,
                Arc::new(fabric_kvstore::MemBackend::new()),
                PeerConfig {
                    vscc_parallelism: config.vscc_parallelism,
                    runtime: fabric_chaincode::RuntimeConfig { exec_timeout: None },
                    sync_writes: false,
                },
            )
            .expect("peer joins channel");
            peer.install_chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode));
            peer.register_vscc(
                FABCOIN_NAMESPACE,
                Arc::new(FabcoinVscc::new(bank.public_keys(), config.cb_threshold)),
            );
            peers.push(peer);
        }
        let mut clients = Vec::with_capacity(config.orgs);
        let mut wallets = Vec::with_capacity(config.orgs);
        for i in 0..config.orgs {
            let identity = fabric_msp::issue_identity(
                &net.org_cas[i],
                &format!("client.org{}", i + 1),
                Role::Client,
                format!("fabcoin-client-{i}").as_bytes(),
            );
            clients.push(Client::new(identity, net.channel.clone()));
            let mut wallet = Wallet::new();
            wallet.new_address(format!("wallet-{i}").as_bytes());
            wallets.push(wallet);
        }
        FabcoinNetwork {
            net,
            peers,
            ordering,
            clients,
            wallets,
            bank,
            timings: Vec::new(),
        }
    }

    /// The wallet address of org `i`'s wallet (its only key).
    pub fn address(&mut self, org: usize) -> Vec<u8> {
        // Addresses are deterministic; re-deriving returns the same key.
        self.wallets[org].new_address(format!("wallet-{org}").as_bytes())
    }

    /// Submits a mint of `outputs` to org `org`'s client. Returns the tx id
    /// (commitment happens at the next [`FabcoinNetwork::pump`]).
    pub fn mint(
        &mut self,
        org: usize,
        outputs: Vec<CoinState>,
    ) -> Result<TxId, fabric_client::ClientError> {
        let client = &self.clients[org];
        let nonce = client.next_nonce();
        let txid = TxId::derive(&client.identity().serialized().to_wire(), &nonce);
        let request = self.bank.create_mint(outputs, &txid, self.bank.public_keys().len());
        self.submit(org, "mint", request, nonce)
    }

    /// Submits a spend from org `org`'s wallet.
    pub fn spend(
        &mut self,
        org: usize,
        inputs: &[String],
        outputs: Vec<CoinState>,
    ) -> Result<TxId, fabric_client::ClientError> {
        let client = &self.clients[org];
        let nonce = client.next_nonce();
        let txid = TxId::derive(&client.identity().serialized().to_wire(), &nonce);
        let request = self.wallets[org]
            .create_spend(inputs, outputs, &txid)
            .map_err(|e| fabric_client::ClientError::EndorsementFailed(vec![e]))?;
        self.submit(org, "spend", request, nonce)
    }

    fn submit(
        &mut self,
        org: usize,
        function: &str,
        request: FabcoinRequest,
        nonce: [u8; 32],
    ) -> Result<TxId, fabric_client::ClientError> {
        let client = &self.clients[org];
        let proposal = client.create_proposal_with_nonce(
            FABCOIN_NAMESPACE,
            function,
            vec![request.to_wire()],
            nonce,
        );
        let txid = proposal.proposal.tx_id();
        // Endorse at this org's peer (the Fabcoin VSCC checks wallet
        // signatures, not endorsement counts).
        let endorser = &self.peers[org];
        let responses = client.collect_endorsements(&proposal, &[endorser])?;
        let envelope = client.assemble_transaction(&proposal, &responses);
        self.ordering
            .broadcast(envelope)
            .map_err(|e| fabric_client::ClientError::BroadcastRejected(e.to_string()))?;
        Ok(txid)
    }

    /// Advances ordering timers (needed for timeout-based block cuts).
    pub fn tick(&mut self) {
        self.ordering.tick();
    }

    /// Delivers every cut-but-uncommitted block to all peers, updating
    /// wallets from the committed valid transactions. Returns the number
    /// of blocks committed.
    pub fn pump(&mut self) -> usize {
        let mut committed = 0;
        loop {
            let next = self.peers[0].height();
            let Some(block) = self.ordering.deliver(&self.net.channel, next) else {
                break;
            };
            let mut first_flags = None;
            for (i, peer) in self.peers.iter().enumerate() {
                let (flags, timing) = peer.commit_block(&block).expect("commit succeeds");
                if i == 0 {
                    self.timings.push(timing);
                    first_flags = Some(flags);
                }
            }
            if let Some(flags) = first_flags {
                self.update_wallets(&block, &flags);
            }
            committed += 1;
        }
        committed
    }

    /// Applies the effects of a committed block to every wallet.
    fn update_wallets(&mut self, block: &Block, flags: &[TxValidationCode]) {
        for (env, flag) in block.envelopes.iter().zip(flags) {
            if !flag.is_valid() {
                continue;
            }
            let EnvelopeContent::Transaction(tx) = &env.content else {
                continue;
            };
            if tx.response_payload.chaincode.name != FABCOIN_NAMESPACE {
                continue;
            }
            let Some(raw) = tx.proposal_payload.args.first() else {
                continue;
            };
            let Ok(request) = FabcoinRequest::from_wire(raw) else {
                continue;
            };
            let txid = tx.tx_id();
            for wallet in &mut self.wallets {
                for input in &request.inputs {
                    wallet.note_spent(input);
                }
                for (j, output) in request.outputs.iter().enumerate() {
                    wallet.note_coin(&coin_key(&txid, j as u32), output);
                }
            }
        }
    }

    /// Convenience: a coin state owned by org `org`'s wallet.
    pub fn coin_for(&mut self, org: usize, amount: u64, label: &str) -> CoinState {
        CoinState {
            amount,
            owner: self.address(org),
            label: label.to_string(),
        }
    }

    /// The validity flag a transaction got at peer 0, if committed.
    pub fn tx_flag(&self, txid: &TxId) -> Option<TxValidationCode> {
        self.peers[0]
            .get_transaction(txid)
            .ok()
            .flatten()
            .map(|(_, _, flag)| flag)
    }
}
