//! Stands one workload's deployment up: ordering cluster, peers, gossip
//! and the client identities. Set-up blocks (chaincode deployment, mints,
//! pre-load) are committed directly; the measured window runs through
//! the deliver mux attached afterwards.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fabric::chaincode::{ChaincodeDefinition, RuntimeConfig, LSCC_NAMESPACE};
use fabric::client::Client;
use fabric::fabcoin::{CentralBank, FabcoinChaincode, FabcoinVscc, FABCOIN_NAMESPACE};
use fabric::gossip::{GossipConfig, GossipNode};
use fabric::kvstore::backend::{Backend, FsBackend};
use fabric::kvstore::MemBackend;
use fabric::msp::Role;
use fabric::ordering::testkit::TestNet;
use fabric::ordering::{ClusterOptions, OrderingCluster, OsnConfig};
use fabric::peer::{DeliverMux, Peer, PeerConfig, PipelineOptions, PipelineStats};
use fabric::primitives::config::ConsensusType;
use fabric::primitives::ids::ChannelId;
use fabric::primitives::transaction::{Envelope, SignedProposal};
use fabric::primitives::wire::Wire;

use crate::config::{batch_config, App, WorkloadSpec, MS_PER_TICK};
use crate::kv::{kv_chaincode, KV_NAMESPACE};

/// One peer with its commit-side intake and (on `spend-durable`) its
/// gossip component.
pub struct Node {
    pub peer: Peer,
    /// `None` once closed for its statistics.
    mux: Option<DeliverMux>,
    pub gossip: Option<GossipNode>,
    /// The `FsBackend` directory, if durable.
    pub dir: Option<PathBuf>,
}

impl Node {
    pub fn mux(&self) -> &DeliverMux {
        self.mux.as_ref().expect("deliver mux still open")
    }

    /// The mux together with the gossip component feeding it.
    pub fn mux_and_gossip(&mut self) -> (&DeliverMux, &mut GossipNode) {
        (
            self.mux.as_ref().expect("deliver mux still open"),
            self.gossip.as_mut().expect("durable peers gossip"),
        )
    }

    /// Waits for every delivered block to commit, then closes the commit
    /// pipeline and returns its statistics.
    pub fn close_mux(&mut self, channel: &ChannelId, height: u64) -> PipelineStats {
        let mux = self.mux.take().expect("deliver mux closed once");
        mux.wait_committed(channel, height)
            .expect("commit pipeline alive");
        mux.close()
            .expect("commit pipeline closes clean")
            .remove(channel)
            .expect("channel was attached")
    }
}

pub struct Deployment {
    pub spec: WorkloadSpec,
    pub net: TestNet,
    pub channel: ChannelId,
    pub ordering: OrderingCluster,
    /// `nodes[0]` endorses; the last node is the measured one (on
    /// `spend-durable` the gossip-fed follower).
    pub nodes: Vec<Node>,
    pub client: Client,
    pub bank: CentralBank,
    /// Next block number to take from the ordering service.
    pub next_block: u64,
}

/// The ordering service of a workload: 3-OSN Raft when durable, Solo
/// otherwise. Also builds the scratch cluster of the broadcast probe.
pub fn new_ordering(net: &TestNet, durable: bool) -> OrderingCluster {
    let (consensus, osns) = consensus_of(durable);
    OrderingCluster::new_with(
        ClusterOptions {
            osn: OsnConfig {
                ms_per_tick: MS_PER_TICK,
            },
            ..ClusterOptions::new(consensus)
        },
        net.orderers(osns),
        vec![net.genesis.clone()],
    )
    .expect("genesis configuration is valid")
}

fn consensus_of(durable: bool) -> (ConsensusType, usize) {
    if durable {
        (ConsensusType::Raft, 3)
    } else {
        (ConsensusType::Solo, 1)
    }
}

impl Deployment {
    /// `scratch` is where durable peers keep their files; it must be
    /// inside the checkout.
    pub fn stand_up(spec: WorkloadSpec, seed: u64, scratch: &Path) -> Deployment {
        let (consensus, osns) = consensus_of(spec.durable);
        let net = TestNet::with_batch(&["Org1"], consensus, osns, batch_config());
        let ordering = new_ordering(&net, spec.durable);
        let channel = net.channel.clone();
        let genesis = ordering.deliver(&channel, 0).expect("genesis block");
        let bank = CentralBank::new(1, format!("bench-bank-{seed}").as_bytes());

        let peers = if spec.durable { 2 } else { 1 };
        let nodes = (0..peers)
            .map(|i| {
                let dir = spec.durable.then(|| scratch.join(format!("peer{i}")));
                let backend: Arc<dyn Backend> = match &dir {
                    Some(dir) => Arc::new(FsBackend::new(dir).expect("peer directory")),
                    None => Arc::new(MemBackend::new()),
                };
                let peer = Peer::join(
                    net.peer(0, &format!("peer{i}.org1")),
                    &genesis,
                    backend,
                    PeerConfig {
                        // Chaincodes are trusted: run them inline, so the
                        // endorsement pool's own workers parallelize.
                        runtime: RuntimeConfig {
                            exec_timeout: None,
                            ..RuntimeConfig::default()
                        },
                        sync_writes: spec.durable,
                        ..PeerConfig::default()
                    },
                )
                .expect("peer joins the channel");
                match spec.app {
                    App::Fabcoin => {
                        peer.install_chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode));
                        peer.register_vscc(
                            FABCOIN_NAMESPACE,
                            Arc::new(FabcoinVscc::new(bank.public_keys(), 1)),
                        );
                    }
                    App::Kv => peer.install_chaincode(KV_NAMESPACE, Arc::new(kv_chaincode)),
                }
                let gossip = spec.durable.then(|| {
                    let bootstrap: Vec<(u64, String)> = (1..=peers as u64)
                        .map(|id| (id, "Org1MSP".to_string()))
                        .collect();
                    GossipNode::new(
                        i as u64 + 1,
                        "Org1MSP",
                        &bootstrap,
                        vec![channel.clone()],
                        GossipConfig::default(),
                        seed,
                    )
                });
                Node {
                    peer,
                    mux: Some(DeliverMux::new(PeerConfig::default().vscc_parallelism)),
                    gossip,
                    dir,
                }
            })
            .collect();

        let client_identity = fabric::msp::issue_identity(
            &net.org_cas[0],
            "client.org1",
            Role::Client,
            format!("bench-client-{seed}").as_bytes(),
        );
        let mut deployment = Deployment {
            spec,
            client: Client::new(client_identity, channel.clone()),
            net,
            channel,
            ordering,
            nodes,
            bank,
            next_block: 1,
        };
        if spec.app == App::Kv {
            deployment.deploy_kv();
        }
        deployment
    }

    /// Deploys the KV chaincode through LSCC, any-Org1 endorsement.
    fn deploy_kv(&mut self) {
        let admin = Client::new(self.net.admin(0, "admin.org1"), self.channel.clone());
        let definition = ChaincodeDefinition {
            name: KV_NAMESPACE.into(),
            version: "1.0".into(),
            endorsement_policy: "Org1MSP".into(),
        };
        let proposal = admin.create_proposal(LSCC_NAMESPACE, "deploy", vec![definition.to_wire()]);
        let envelope = self.endorse_directly(&admin, &proposal);
        self.commit_setup(vec![envelope]);
    }

    /// Endorses at the endorsing peer without the pipeline (set-up only).
    pub fn endorse_directly(&self, client: &Client, proposal: &SignedProposal) -> Envelope {
        let response = self.nodes[0]
            .peer
            .process_proposal(proposal)
            .expect("set-up proposal endorses");
        client.assemble_transaction(proposal, &[response])
    }

    /// Orders set-up envelopes and commits the resulting blocks on every
    /// peer, sequentially and outside the measured path.
    pub fn commit_setup(&mut self, envelopes: Vec<Envelope>) {
        for envelope in envelopes {
            self.ordering.broadcast(envelope).expect("set-up broadcast");
            self.commit_cut_blocks();
        }
        // Flush the last partial block: its time-to-cut must expire.
        let mut quiet = 0;
        while quiet < 2 * batch_config().batch_timeout_ms / MS_PER_TICK {
            self.ordering.tick();
            quiet = if self.commit_cut_blocks() {
                0
            } else {
                quiet + 1
            };
        }
    }

    fn commit_cut_blocks(&mut self) -> bool {
        let mut any = false;
        while let Some(block) = self.ordering.deliver(&self.channel, self.next_block) {
            for node in &self.nodes {
                let (flags, _) = node
                    .peer
                    .commit_block(&block)
                    .expect("set-up block commits");
                assert!(
                    flags.iter().all(|f| f.is_valid()),
                    "set-up transaction invalid"
                );
            }
            self.next_block += 1;
            any = true;
        }
        any
    }

    /// Attaches every peer's commit pipeline at its current height and
    /// tells gossip that the set-up blocks are already held.
    pub fn attach(&mut self) {
        for node in &mut self.nodes {
            node.mux()
                .attach(self.channel.clone(), &node.peer, PipelineOptions::default())
                .expect("attach commit pipeline");
            if let Some(gossip) = &mut node.gossip {
                let outputs = gossip.note_snapshot_installed(&self.channel, self.next_block - 1);
                assert!(outputs.is_empty(), "nothing buffered before the window");
            }
        }
    }

    /// The peer whose commit events are measured.
    pub fn measured(&self) -> &Node {
        self.nodes.last().expect("at least one peer")
    }
}
