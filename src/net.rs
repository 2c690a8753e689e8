//! In-process test networks: one [`NetSpec`] stands up the orgs, the
//! ordering service (any [`ConsensusType`], any OSN count), and peers
//! joined from the genesis block with the chosen chaincodes and VSCCs
//! installed (paper Sec. 4: a deployment is its orgs, a pluggable
//! ordering service, and peers that join from genesis).
//!
//! [`Net`] then offers what tests, examples and benches do with such a
//! network: issue clients, join extra replicas, deploy a chaincode
//! through LSCC, and commit whatever the ordering service has cut on
//! every peer. Each of its peers commits through its own
//! [`DeliverMux`] — the pipelined committer a production peer runs — so
//! everything built on a `Net` exercises that path. [`FabcoinNetwork`]
//! is the Fabcoin layer on top (bank, wallets, mint and spend).

use std::sync::Arc;

use fabric_chaincode::{Chaincode, ChaincodeDefinition, RuntimeConfig, Stub, Vscc, LSCC_NAMESPACE};
use fabric_client::Client;
use fabric_kvstore::{Backend, MemBackend};
use fabric_msp::{Role, SigningIdentity};
use fabric_ordering::testkit::TestNet;
use fabric_ordering::OrderingCluster;
use fabric_peer::{Deliver, DeliverMux, Peer, PeerConfig, PipelineOptions};
use fabric_primitives::block::Block;
use fabric_primitives::config::{BatchConfig, ConsensusType};
use fabric_primitives::ids::{ChannelId, TxValidationCode};
use fabric_primitives::transaction::Envelope;
use fabric_primitives::wire::Wire;
use fabric_statesync::SignedManifest;

mod fabcoin;

pub use fabcoin::FabcoinNetwork;

/// One peer to join: its org, its name (which also seeds its key), its
/// storage, and its configuration.
pub struct PeerSpec {
    /// Index into [`NetSpec::orgs`].
    pub org: usize,
    /// Identity name; also the key seed, so rejoining under the same name
    /// yields the same identity.
    pub name: String,
    /// Ledger storage; `None` is a fresh [`MemBackend`].
    pub backend: Option<Arc<dyn Backend>>,
    /// Peer options.
    pub config: PeerConfig,
}

impl PeerSpec {
    /// A peer of org `org` on a fresh in-memory backend that runs
    /// chaincode inline (no deadline) and does not fsync.
    pub fn new(org: usize, name: &str, vscc_parallelism: usize) -> PeerSpec {
        PeerSpec {
            org,
            name: name.to_string(),
            backend: None,
            config: PeerConfig {
                vscc_parallelism,
                runtime: RuntimeConfig { exec_timeout: None },
                sync_writes: false,
            },
        }
    }
}

/// Everything a [`Net`] is built from.
pub struct NetSpec {
    /// Application org names; org `i`'s MSP id is `"{name}MSP"`.
    pub orgs: Vec<String>,
    /// Ordering backend.
    pub consensus: ConsensusType,
    /// Ordering-service nodes.
    pub osns: usize,
    /// Block-cutting parameters.
    pub batch: BatchConfig,
    /// Peers joined at construction, in order.
    pub peers: Vec<PeerSpec>,
    /// Chaincodes installed on every peer (by name).
    pub chaincodes: Vec<(String, Arc<dyn Chaincode>)>,
    /// Custom VSCCs registered on every peer (by chaincode name).
    pub vsccs: Vec<(String, Arc<dyn Vscc>)>,
}

impl NetSpec {
    /// `orgs` on Solo with one OSN and the default batch, with no peers
    /// and nothing installed.
    pub fn new(orgs: &[&str]) -> NetSpec {
        NetSpec {
            orgs: orgs.iter().map(|o| o.to_string()).collect(),
            consensus: ConsensusType::Solo,
            osns: 1,
            batch: BatchConfig::default(),
            peers: Vec::new(),
            chaincodes: Vec::new(),
            vsccs: Vec::new(),
        }
    }

    /// Adds a peer.
    pub fn peer(mut self, peer: PeerSpec) -> NetSpec {
        self.peers.push(peer);
        self
    }

    /// Adds one [`PeerSpec::new`] peer per org, named `peer0.org{i+1}`.
    pub fn peer_per_org(mut self, vscc_parallelism: usize) -> NetSpec {
        for org in 0..self.orgs.len() {
            let name = format!("peer0.org{}", org + 1);
            self.peers.push(PeerSpec::new(org, &name, vscc_parallelism));
        }
        self
    }

    /// Installs `chaincode` as `name` on every peer.
    pub fn chaincode(mut self, name: &str, chaincode: Arc<dyn Chaincode>) -> NetSpec {
        self.chaincodes.push((name.to_string(), chaincode));
        self
    }

    /// Registers `vscc` for chaincode `name` on every peer.
    pub fn vscc(mut self, name: &str, vscc: Arc<dyn Vscc>) -> NetSpec {
        self.vsccs.push((name.to_string(), vscc));
        self
    }
}

/// A running in-process network: fixtures, ordering service, peers.
pub struct Net {
    /// CAs and the channel's genesis configuration.
    pub fixtures: TestNet,
    /// The channel every peer joined.
    pub channel: ChannelId,
    /// The channel's genesis block, as the ordering service delivers it.
    pub genesis: Block,
    /// The ordering service.
    pub ordering: OrderingCluster,
    /// The spec's peers, in spec order, then any [`Net::add_peer`] added.
    /// Change the list only through [`Net::add_peer`] and
    /// [`Net::detach`], which keep `muxes` in step.
    pub peers: Vec<Peer>,
    /// `muxes[i]` commits for `peers[i]`: one channel, a pool of the
    /// peer's `vscc_parallelism` workers.
    muxes: Vec<DeliverMux>,
    chaincodes: Vec<(String, Arc<dyn Chaincode>)>,
    vsccs: Vec<(String, Arc<dyn Vscc>)>,
}

impl Net {
    /// Stands the network up: fixtures, ordering service, genesis, and
    /// every spec peer joined with the spec's chaincodes and VSCCs.
    pub fn new(spec: NetSpec) -> Net {
        let orgs: Vec<&str> = spec.orgs.iter().map(String::as_str).collect();
        let fixtures = TestNet::with_batch(&orgs, spec.consensus, spec.osns, spec.batch);
        let ordering = OrderingCluster::new(
            spec.consensus,
            fixtures.orderers(spec.osns),
            vec![fixtures.genesis.clone()],
        )
        .expect("genesis config is valid");
        let genesis = ordering
            .deliver(&fixtures.channel, 0)
            .expect("genesis block exists");
        let mut net = Net {
            channel: fixtures.channel.clone(),
            fixtures,
            genesis,
            ordering,
            peers: Vec::new(),
            muxes: Vec::new(),
            chaincodes: spec.chaincodes,
            vsccs: spec.vsccs,
        };
        for peer in spec.peers {
            net.add_peer(peer);
        }
        net
    }

    /// Joins one more peer like the spec's: it is added to `peers` and
    /// commits through its own [`DeliverMux`], attached at the peer's
    /// current height (a peer reopened on a used backend resumes there).
    pub fn add_peer(&mut self, spec: PeerSpec) {
        let mux = DeliverMux::new(spec.config.vscc_parallelism);
        let peer = self.join(spec);
        mux.attach(self.channel.clone(), &peer, PipelineOptions::default())
            .expect("fresh mux attaches");
        self.peers.push(peer);
        self.muxes.push(mux);
    }

    /// Takes `peers[i]` out of the network: its mux drains and closes,
    /// and the peer is handed back caller-driven, like one from
    /// [`Net::join`].
    pub fn detach(&mut self, i: usize) -> Peer {
        self.muxes
            .remove(i)
            .close()
            .expect("detached peer's mux closes clean");
        self.peers.remove(i)
    }

    /// Joins one more peer from genesis, with the spec's chaincodes and
    /// VSCCs installed. The caller owns it and drives its commits; it is
    /// not added to `peers`.
    pub fn join(&self, spec: PeerSpec) -> Peer {
        let (identity, backend) = self.identity_and_backend(&spec);
        let peer =
            Peer::join(identity, &self.genesis, backend, spec.config).expect("peer joins channel");
        self.install(peer)
    }

    /// Like [`Net::join`], but the peer starts from a verified state
    /// snapshot (`entries` under `manifest`) instead of replaying blocks.
    pub fn join_from_snapshot(
        &self,
        spec: PeerSpec,
        manifest: &SignedManifest,
        entries: &[(Vec<u8>, Vec<u8>)],
    ) -> Peer {
        let (identity, backend) = self.identity_and_backend(&spec);
        let peer = Peer::join_from_snapshot(
            identity,
            &self.genesis,
            manifest,
            entries,
            backend,
            spec.config,
        )
        .expect("snapshot installs");
        self.install(peer)
    }

    fn identity_and_backend(&self, spec: &PeerSpec) -> (SigningIdentity, Arc<dyn Backend>) {
        let identity = fabric_msp::issue_identity(
            &self.fixtures.org_cas[spec.org],
            &spec.name,
            Role::Peer,
            spec.name.as_bytes(),
        );
        let backend = spec
            .backend
            .clone()
            .unwrap_or_else(|| Arc::new(MemBackend::new()));
        (identity, backend)
    }

    fn install(&self, peer: Peer) -> Peer {
        for (name, chaincode) in &self.chaincodes {
            peer.install_chaincode(name.clone(), chaincode.clone());
        }
        for (name, vscc) in &self.vsccs {
            peer.register_vscc(name.clone(), vscc.clone());
        }
        peer
    }

    /// A client of org `org` with the given role.
    pub fn client(&self, org: usize, name: &str, role: Role) -> Client {
        let identity = fabric_msp::issue_identity(
            &self.fixtures.org_cas[org],
            name,
            role,
            format!("{org}-{name}").as_bytes(),
        );
        Client::new(identity, self.channel.clone())
    }

    /// An LSCC deploy of `name`, proposed by org 0's admin and endorsed by
    /// every peer, ready to order.
    pub fn deploy_tx(&self, name: &str, version: &str, policy: &str) -> Envelope {
        let admin = self.client(0, "admin", Role::Admin);
        let definition = ChaincodeDefinition {
            name: name.into(),
            version: version.into(),
            endorsement_policy: policy.into(),
        };
        let endorsers: Vec<&Peer> = self.peers.iter().collect();
        let proposal = admin.create_proposal(LSCC_NAMESPACE, "deploy", vec![definition.to_wire()]);
        let responses = admin
            .collect_endorsements(&proposal, &endorsers)
            .expect("deploy endorses");
        admin.assemble_transaction(&proposal, &responses)
    }

    /// Orders [`Net::deploy_tx`] and settles.
    pub fn deploy(&mut self, name: &str, version: &str, policy: &str) {
        let envelope = self.deploy_tx(name, version, policy);
        self.ordering.broadcast(envelope).expect("deploy ordered");
        self.settle();
    }

    /// Commits the next block the ordering service has cut: delivers it
    /// to every peer's mux, waits until each has committed it, and
    /// returns it with peer 0's flags.
    pub fn commit_next(&self) -> Option<(Block, Vec<TxValidationCode>)> {
        // The ledger height moves before the commit event is sent, so it
        // is current once the previous call has seen that event.
        let number = self.peers.first()?.height();
        let block = self.ordering.deliver(&self.channel, number)?;
        let payload = block.to_wire();
        for mux in &self.muxes {
            // One block in flight at a time: never parked, never refused.
            let verdict = mux.deliver(&self.channel, number, &payload);
            assert_eq!(verdict.expect("block routes"), Deliver::Submitted);
        }
        let mut flags = None;
        for mux in &self.muxes {
            let events = mux.events(&self.channel).expect("channel attached");
            let Ok(event) = events.recv() else {
                let err = mux.wait_committed(&self.channel, number + 1).err();
                panic!("block {number} fails to commit: {err:?}");
            };
            flags.get_or_insert(event.validity);
        }
        Some((block, flags.expect("at least one peer")))
    }

    /// Ten rounds of: tick the orderers (so batch timeouts cut partial
    /// blocks), then commit everything cut, each block waited for on its
    /// commit event. Returns peer 0's flags per committed block.
    pub fn settle(&mut self) -> Vec<Vec<TxValidationCode>> {
        let mut flags = Vec::new();
        for _ in 0..10 {
            self.ordering.tick();
            while let Some((_, block_flags)) = self.commit_next() {
                flags.push(block_flags);
            }
        }
        flags
    }
}

/// KV chaincode with conflict-generating operations:
/// * `put(key, value)` — blind write;
/// * `get(key)` — read only;
/// * `incr(key)` — read-modify-write (MVCC conflict generator);
/// * `multiget(keys…)` — several reads in one simulation;
/// * `scanput(prefix, dest)` — range query over `[prefix, prefix~)` whose
///   result count is written to `dest` (phantom-read generator).
pub fn kv_chaincode(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
    match stub.function() {
        "put" => {
            let key = stub.arg_string(0)?;
            stub.put_state(&key, stub.args()[1].clone());
            Ok(vec![])
        }
        "get" => {
            let key = stub.arg_string(0)?;
            stub.get_state(&key)?.ok_or("missing".into())
        }
        "incr" => {
            let key = stub.arg_string(0)?;
            // A `put` may have left a short value under the same key.
            let current = stub
                .get_state(&key)?
                .and_then(|v| {
                    v.get(..8)
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                })
                .unwrap_or(0);
            stub.put_state(&key, (current + 1).to_le_bytes().to_vec());
            Ok(vec![])
        }
        "multiget" => {
            // Reads every argument as a key and concatenates the values:
            // a multi-key read in one simulation (snapshot-consistency
            // probe for the endorsement tests).
            let mut out = Vec::new();
            for arg in stub.args().to_vec() {
                let key = String::from_utf8(arg).map_err(|e| e.to_string())?;
                out.extend(stub.get_state(&key)?.unwrap_or_default());
            }
            Ok(out)
        }
        "scanput" => {
            let prefix = stub.arg_string(0)?;
            let dest = stub.arg_string(1)?;
            let end = format!("{prefix}~");
            let hits = stub.get_state_range(&prefix, &end)?;
            stub.put_state(&dest, (hits.len() as u64).to_le_bytes().to_vec());
            Ok(vec![])
        }
        other => Err(format!("unknown {other}")),
    }
}
