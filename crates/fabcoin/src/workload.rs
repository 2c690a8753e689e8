//! A closed-loop Fabcoin workload driving the full gateway path:
//! client → [`GatewayFront`] → endorsement pipeline → [`Gateway`] mempool
//! → ordering → deliver-mux commit, with deliver credits reported back to
//! the gateway so backpressure reaches the submitters.
//!
//! The account space is large (the standing bench runs a million
//! accounts) but addresses are derived lazily and only a funded subset
//! holds coins at the start; a zipfian (YCSB theta 0.99) picks hot
//! accounts, so the working set concentrates exactly the way the paper's
//! Fabcoin evaluation assumes. Coins are reserved while a spend is in
//! flight and returned on invalidation, so the closed loop never
//! manufactures its own MVCC conflicts — committed value is conserved and
//! [`GatewayWorkload::total_on_ledger`] proves it against the state DB.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use fabric_client::{Client, GatewayOutcome, RetryPolicy};
use fabric_gateway::{FrontConfig, FrontSubmit, Gateway, GatewayConfig, GatewayFront, SimClock};
use fabric_msp::Role;
use fabric_ordering::testkit::TestNet;
use fabric_ordering::OrderingCluster;
use fabric_peer::{
    CommitEvent, Deliver, DeliverMux, EndorseOptions, EndorsePipeline, Peer, PeerConfig,
    PipelineOptions,
};
use fabric_primitives::config::{BatchConfig, ConsensusType};
use fabric_primitives::ids::{ChannelId, TxId};
use fabric_primitives::transaction::EnvelopeContent;
use fabric_primitives::wire::Wire;

use crate::chaincode::FabcoinChaincode;
use crate::types::{coin_key, CoinState, FabcoinRequest, FABCOIN_NAMESPACE};
use crate::vscc::FabcoinVscc;
use crate::wallet::{CentralBank, Wallet};

/// YCSB-style zipfian generator over `0..items` with theta 0.99.
/// Rank 0 is the hottest item.
pub struct Zipfian {
    items: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow: f64,
}

impl Zipfian {
    /// Precomputes the distribution over `items` ranks.
    pub fn new(items: u64) -> Zipfian {
        let items = items.max(2);
        let theta = 0.99f64;
        let zetan: f64 = (1..=items).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            items,
            alpha,
            zetan,
            eta,
            half_pow: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Draws a rank from `u`, a uniform sample in `[0, 1)`.
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.half_pow {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64 * spread) as u64).min(self.items - 1)
    }
}

/// Workload construction knobs.
pub struct WorkloadConfig {
    /// Total account (address) space; the zipfian draws from it.
    pub accounts: u64,
    /// Accounts pre-funded with one coin each (the initial UTXO set).
    pub funded: u64,
    /// Denomination of every coin.
    pub coin_amount: u64,
    /// Mint outputs packed per mint transaction during setup.
    pub mint_batch: usize,
    /// Ordering backend.
    pub consensus: ConsensusType,
    /// Ordering-service nodes.
    pub osn_count: usize,
    /// Block-cutting parameters.
    pub batch: BatchConfig,
    /// Ordering-side gateway knobs.
    pub gateway: GatewayConfig,
    /// Endorse-side gateway knobs.
    pub front: FrontConfig,
    /// Endorsement pipeline knobs.
    pub endorse: EndorseOptions,
    /// Commit-side deliver credits (the backpressure window).
    pub deliver_credits: usize,
    /// Commit-side park window for out-of-order deliveries.
    pub park_window: usize,
    /// Client retry policy for gateway submissions.
    pub retry: RetryPolicy,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            accounts: 10_000,
            funded: 256,
            coin_amount: 100,
            mint_batch: 64,
            consensus: ConsensusType::Solo,
            osn_count: 1,
            batch: BatchConfig {
                max_message_count: 16,
                absolute_max_bytes: 32 * 1024 * 1024,
                preferred_max_bytes: 8 * 1024 * 1024,
                batch_timeout_ms: 100,
            },
            gateway: GatewayConfig::default(),
            front: FrontConfig::default(),
            endorse: EndorseOptions {
                workers: 2,
                ..EndorseOptions::default()
            },
            deliver_credits: 8,
            park_window: 32,
            retry: RetryPolicy::default(),
        }
    }
}

/// Outcome of one closed-loop transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferOutcome {
    /// Admitted into the gateway mempool (commitment pending).
    Submitted,
    /// The endorse-side front kept shedding it.
    ShedEndorse,
    /// The ordering-side gateway kept shedding it.
    ShedOrder,
    /// No funded account had a spendable coin (everything in flight).
    NoCoin,
}

/// A spend whose commit event has not been processed yet.
struct Pending {
    from: u64,
    coin: String,
    amount: u64,
    fee: u64,
    submitted_ms: u64,
}

/// Workload-level counters and samples.
#[derive(Clone, Debug, Default)]
pub struct WorkloadStats {
    /// Transfers committed valid.
    pub committed: u64,
    /// Transfers committed invalid (their coin went back in play).
    pub invalidated: u64,
    /// Transfers shed at the endorse front.
    pub shed_endorse: u64,
    /// Transfers shed at the ordering gateway.
    pub shed_order: u64,
    /// Transfer attempts that found no spendable coin.
    pub no_coin: u64,
    /// Balance queries served.
    pub queries: u64,
    /// Submit→commit latency (simulated ms) per committed transfer.
    pub latencies_ms: Vec<u64>,
    /// Fee of each committed transfer.
    pub committed_fees: Vec<u64>,
}

/// The closed-loop Fabcoin deployment behind both gateways.
pub struct GatewayWorkload {
    /// Test-network fixtures (CAs, genesis, channel).
    pub net: TestNet,
    /// The endorsing/committing peer.
    pub peer: Peer,
    /// Its endorsement pipeline.
    pub endorse: EndorsePipeline,
    /// The endorse-side gateway.
    pub front: GatewayFront,
    /// The ordering-side gateway.
    pub gateway: Gateway,
    /// The ordering cluster.
    pub ordering: OrderingCluster,
    /// The commit-side deliver mux (reports credits to the gateway).
    pub mux: DeliverMux,
    /// The simulated clock every component shares.
    pub clock: SimClock,
    events: crossbeam::channel::Receiver<CommitEvent>,
    client: Client,
    bank: CentralBank,
    wallet: Wallet,
    zipf: Zipfian,
    retry: RetryPolicy,
    /// Account → derived address (lazily populated).
    addresses: HashMap<u64, Vec<u8>>,
    /// Address → account (for crediting committed outputs).
    account_of: HashMap<Vec<u8>, u64>,
    /// Account → spendable (not in-flight) coins, deterministic order.
    available: BTreeMap<u64, Vec<(String, u64)>>,
    /// In-flight spends by transaction id.
    inflight: HashMap<TxId, Pending>,
    /// Next ordered block to hand to the mux.
    delivered_next: u64,
    accounts: u64,
    coin_label: String,
    stats: WorkloadStats,
}

impl GatewayWorkload {
    /// Stands the deployment up and funds the initial accounts (the mint
    /// prefix is deterministic, so two workloads built from the same
    /// config replay identical setup blocks).
    pub fn new(config: WorkloadConfig) -> Self {
        let net = TestNet::with_batch(
            &["Org1"],
            config.consensus,
            config.osn_count,
            config.batch,
        );
        let ordering = OrderingCluster::new(
            config.consensus,
            net.orderers(config.osn_count),
            vec![net.genesis.clone()],
        )
        .expect("genesis config is valid");
        let genesis = ordering.deliver(&net.channel, 0).expect("genesis exists");
        let bank = CentralBank::new(1, b"gateway-workload-cb");
        let identity = fabric_msp::issue_identity(
            &net.org_cas[0],
            "peer0.org1",
            Role::Peer,
            b"gateway-workload-peer",
        );
        let peer = Peer::join(
            identity,
            &genesis,
            Arc::new(fabric_kvstore::MemBackend::new()),
            PeerConfig {
                runtime: fabric_chaincode::RuntimeConfig { exec_timeout: None },
                sync_writes: false,
                ..Default::default()
            },
        )
        .expect("peer joins channel");
        peer.install_chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode));
        peer.register_vscc(
            FABCOIN_NAMESPACE,
            Arc::new(FabcoinVscc::new(bank.public_keys(), 1)),
        );
        let endorse = peer.endorse_pipeline(config.endorse);
        let mux = DeliverMux::new(2);
        mux.attach(
            net.channel.clone(),
            &peer,
            PipelineOptions {
                deliver_credits: config.deliver_credits,
                park_window: config.park_window,
                ..Default::default()
            },
        )
        .expect("attach commit pipeline");
        let events = mux.events(&net.channel).expect("channel attached");
        let client_identity = fabric_msp::issue_identity(
            &net.org_cas[0],
            "client.org1",
            Role::Client,
            b"gateway-workload-client",
        );
        let client = Client::new(client_identity, net.channel.clone());
        let delivered_next = peer.height();
        let mut workload = GatewayWorkload {
            front: GatewayFront::new(config.front),
            gateway: Gateway::new(config.gateway),
            clock: SimClock::new(),
            events,
            client,
            bank,
            wallet: Wallet::new(),
            zipf: Zipfian::new(config.accounts),
            retry: config.retry,
            addresses: HashMap::new(),
            account_of: HashMap::new(),
            available: BTreeMap::new(),
            inflight: HashMap::new(),
            delivered_next,
            accounts: config.accounts,
            coin_label: "FBC".to_string(),
            stats: WorkloadStats::default(),
            net,
            peer,
            endorse,
            ordering,
            mux,
        };
        workload.fund(config.funded, config.coin_amount, config.mint_batch);
        workload
    }

    /// The address of `account`, derived on first use.
    pub fn address(&mut self, account: u64) -> Vec<u8> {
        if let Some(addr) = self.addresses.get(&account) {
            return addr.clone();
        }
        let addr = self
            .wallet
            .new_address(format!("acct-{account}").as_bytes());
        self.addresses.insert(account, addr.clone());
        self.account_of.insert(addr.clone(), account);
        addr
    }

    /// Mints one coin per funded account, `mint_batch` outputs per
    /// transaction, and settles so every coin is committed and spendable.
    fn fund(&mut self, funded: u64, coin_amount: u64, mint_batch: usize) {
        let mint_batch = mint_batch.max(1);
        let mut account = 0u64;
        while account < funded {
            let batch_end = (account + mint_batch as u64).min(funded);
            let outputs: Vec<CoinState> = (account..batch_end)
                .map(|a| CoinState {
                    amount: coin_amount,
                    owner: self.address(a),
                    label: self.coin_label.clone(),
                })
                .collect();
            let nonce = self.client.next_nonce();
            let txid = TxId::derive(&self.client.identity().serialized().to_wire(), &nonce);
            let request = self.bank.create_mint(outputs, &txid, 1);
            let proposal = self.client.create_proposal_with_nonce(
                FABCOIN_NAMESPACE,
                "mint",
                vec![request.to_wire()],
                nonce,
            );
            // Setup path: endorse and broadcast directly (the measured
            // region is the transfer phase, not funding).
            let responses = self
                .client
                .collect_endorsements(&proposal, &[&self.peer])
                .expect("mint endorses");
            let envelope = self.client.assemble_transaction(&proposal, &responses);
            self.ordering.broadcast(envelope).expect("mint broadcasts");
            account = batch_end;
        }
        self.settle(10_000);
    }

    /// One zipfian-chosen closed-loop transfer: pick a hot sender with a
    /// spendable coin, a zipfian receiver anywhere in the account space,
    /// endorse through the front, and submit through the gateway (honoring
    /// `RetryAfter` with the client's backoff policy).
    pub fn transfer(&mut self, u_from: f64, u_to: f64, fee: u64) -> TransferOutcome {
        // Sender: a few zipfian draws, then the first account with a
        // spendable coin (deterministic BTreeMap order).
        let mut from = None;
        for spread in 0..8u64 {
            let candidate = (self.zipf.rank(u_from) + spread * 37) % self.accounts;
            if self.available.get(&candidate).is_some_and(|c| !c.is_empty()) {
                from = Some(candidate);
                break;
            }
        }
        let Some(from) = from.or_else(|| {
            self.available
                .iter()
                .find(|(_, coins)| !coins.is_empty())
                .map(|(&a, _)| a)
        }) else {
            self.stats.no_coin += 1;
            return TransferOutcome::NoCoin;
        };
        let to = self.zipf.rank(u_to);
        let to_addr = self.address(to);
        let (coin, amount) = self
            .available
            .get_mut(&from)
            .and_then(|coins| coins.pop())
            .expect("sender chosen with a coin");
        let nonce = self.client.next_nonce();
        let txid = TxId::derive(&self.client.identity().serialized().to_wire(), &nonce);
        let request = self
            .wallet
            .create_spend(
                std::slice::from_ref(&coin),
                vec![CoinState {
                    amount,
                    owner: to_addr,
                    label: self.coin_label.clone(),
                }],
                &txid,
            )
            .expect("wallet owns the reserved coin");
        let signed = self.client.create_proposal_with_nonce(
            FABCOIN_NAMESPACE,
            "spend",
            vec![request.to_wire()],
            nonce,
        );

        // Endorse through the front, honoring its retry hints (bounded).
        let mut attempt = signed.clone();
        let mut response = None;
        for _ in 0..self.retry.max_attempts.max(1) {
            match self.front.submit(&self.endorse, attempt, self.clock.now_ms()) {
                FrontSubmit::Admitted(ticket) => {
                    response = ticket.wait().ok();
                    break;
                }
                FrontSubmit::Duplicate => break,
                FrontSubmit::RetryAfter { after_ms, proposal: p, .. } => {
                    self.clock.advance(after_ms);
                    self.pump();
                    attempt = *p;
                }
            }
        }
        let Some(response) = response else {
            self.available.get_mut(&from).expect("entry exists").push((coin, amount));
            self.stats.shed_endorse += 1;
            return TransferOutcome::ShedEndorse;
        };
        let envelope = self
            .client
            .assemble_transaction(&signed, std::slice::from_ref(&response));

        // Submit through the ordering-side gateway with jittered backoff;
        // the pump keeps the rest of the system moving between attempts.
        let Self {
            ref client,
            ref mut gateway,
            ref mut clock,
            ref mut ordering,
            ref mut mux,
            ref mut delivered_next,
            ref net,
            ref retry,
            ..
        } = *self;
        let result = client.submit_via_gateway(
            gateway,
            clock,
            envelope,
            fee,
            *retry,
            |gw, _now| {
                Self::pump_inner(gw, ordering, mux, delivered_next, &net.channel);
            },
        );
        match result {
            Ok(GatewayOutcome::Admitted { .. }) | Ok(GatewayOutcome::AlreadySubmitted) => {
                self.inflight.insert(
                    txid,
                    Pending {
                        from,
                        coin,
                        amount,
                        fee,
                        submitted_ms: self.clock.now_ms(),
                    },
                );
                TransferOutcome::Submitted
            }
            Err(_) => {
                self.available.get_mut(&from).expect("entry exists").push((coin, amount));
                self.stats.shed_order += 1;
                TransferOutcome::ShedOrder
            }
        }
    }

    /// A read-only balance query through the endorse front (no ordering).
    pub fn query_balance(&mut self, u: f64) -> Option<u64> {
        let account = self.zipf.rank(u);
        let addr = self.address(account);
        let proposal = self.client.create_proposal(
            FABCOIN_NAMESPACE,
            "balance",
            vec![addr, self.coin_label.clone().into_bytes()],
        );
        let mut proposal = proposal;
        for _ in 0..4 {
            match self.front.submit(&self.endorse, proposal, self.clock.now_ms()) {
                FrontSubmit::Admitted(ticket) => {
                    let response = ticket.wait().ok()?;
                    self.stats.queries += 1;
                    let raw = &response.payload.response.payload;
                    return Some(u64::from_le_bytes(raw[..8].try_into().ok()?));
                }
                FrontSubmit::Duplicate => return None,
                FrontSubmit::RetryAfter { after_ms, proposal: p, .. } => {
                    self.clock.advance(after_ms);
                    self.pump();
                    proposal = *p;
                }
            }
        }
        None
    }

    /// Drains the gateway into ordering, ticks the orderers, delivers cut
    /// blocks into the mux, and reports remaining credits back to the
    /// gateway — one turn of the end-to-end loop.
    pub fn pump(&mut self) {
        let Self {
            ref mut gateway,
            ref mut ordering,
            ref mut mux,
            ref mut delivered_next,
            ref net,
            ..
        } = *self;
        Self::pump_inner(gateway, ordering, mux, delivered_next, &net.channel);
    }

    fn pump_inner(
        gateway: &mut Gateway,
        ordering: &mut OrderingCluster,
        mux: &mut DeliverMux,
        delivered_next: &mut u64,
        channel: &ChannelId,
    ) {
        gateway.drain_into(ordering);
        ordering.tick();
        while let Some(block) = ordering.deliver(channel, *delivered_next) {
            let payload = block.to_wire();
            match mux
                .deliver(channel, *delivered_next, &payload)
                .expect("well-formed delivery")
            {
                Deliver::Saturated => break,
                _ => *delivered_next += 1,
            }
        }
        let _ = mux.pump(channel);
        if let Some(credits) = mux.credits(channel) {
            gateway.report_downstream(credits);
        }
    }

    /// Processes every commit event that has arrived: updates wallets and
    /// spendable coins, releases in-flight reservations, and records
    /// latency/fee samples for committed transfers.
    pub fn collect_events(&mut self) {
        while let Ok(event) = self.events.try_recv() {
            let block = self
                .peer
                .get_block(event.block_num)
                .ok()
                .flatten()
                .expect("committed block readable");
            for (env, flag) in block.envelopes.iter().zip(&event.validity) {
                let EnvelopeContent::Transaction(tx) = &env.content else {
                    continue;
                };
                if tx.response_payload.chaincode.name != FABCOIN_NAMESPACE {
                    continue;
                }
                let txid = tx.tx_id();
                let pending = self.inflight.remove(&txid);
                if !flag.is_valid() {
                    if let Some(p) = pending {
                        // The coin was never spent: back in play.
                        self.available.entry(p.from).or_default().push((p.coin, p.amount));
                        self.stats.invalidated += 1;
                    }
                    continue;
                }
                let Some(raw) = tx.proposal_payload.args.first() else {
                    continue;
                };
                let Ok(request) = FabcoinRequest::from_wire(raw) else {
                    continue;
                };
                for input in &request.inputs {
                    self.wallet.note_spent(input);
                }
                for (j, output) in request.outputs.iter().enumerate() {
                    let key = coin_key(&txid, j as u32);
                    self.wallet.note_coin(&key, output);
                    if let Some(&account) = self.account_of.get(&output.owner) {
                        self.available
                            .entry(account)
                            .or_default()
                            .push((key, output.amount));
                    }
                }
                if let Some(p) = pending {
                    self.stats.committed += 1;
                    self.stats
                        .latencies_ms
                        .push(self.clock.now_ms().saturating_sub(p.submitted_ms));
                    self.stats.committed_fees.push(p.fee);
                }
            }
        }
    }

    /// Pumps and collects until the gateway mempool and the in-flight set
    /// are both empty (or `max_rounds` elapse). Returns whether it fully
    /// settled.
    pub fn settle(&mut self, max_rounds: u32) -> bool {
        for _ in 0..max_rounds {
            self.clock.advance(10);
            self.pump();
            // Let the commit pipeline catch up with everything delivered.
            if self.delivered_next > 0 {
                let _ = self.mux.wait_committed(&self.net.channel, self.delivered_next);
                self.pump();
            }
            self.collect_events();
            if self.gateway.mempool_len() == 0 && self.inflight.is_empty() {
                return true;
            }
        }
        false
    }

    /// Total committed coin value in the state DB — the conservation
    /// check: mint total in, transfers only move it.
    pub fn total_on_ledger(&self) -> u64 {
        self.peer
            .scan_state(FABCOIN_NAMESPACE, "", "")
            .expect("state scan")
            .iter()
            .filter_map(|(_, raw)| CoinState::from_wire(raw).ok())
            .filter(|c| c.label == self.coin_label)
            .map(|c| c.amount)
            .sum()
    }

    /// Total value the wallet believes it holds (all addresses).
    pub fn wallet_total(&self) -> u64 {
        self.wallet.balance(&self.coin_label)
    }

    /// Workload counters and samples.
    pub fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// Spends still awaiting their commit event.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Shuts the endorsement pipeline and commit mux down cleanly.
    pub fn shutdown(self) {
        self.endorse.close();
        let _ = self.mux.close();
    }
}
