//! End-to-end gateway smoke test: the closed-loop Fabcoin workload runs
//! client → endorse front → endorsement pipeline → ordering gateway →
//! ordering → deliver-mux commit, with deliver credits feeding back into
//! admission, over Solo and over three-node Raft.
//!
//! The scale knob is `GATEWAY_E2E_ACCOUNTS` (account-space size; default
//! 10 000 keeps this a smoke test —
//! `GATEWAY_E2E_ACCOUNTS=1000000 cargo test --test gateway_e2e --release`).
//!
//! The headline assertion is **coin conservation**: after the mix settles,
//! the state database holds exactly the minted value — transfers moved
//! coins, the gateway path neither lost nor duplicated any, and every
//! in-flight reservation resolved.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use fabric::client::{Client, GatewayOutcome, RetryPolicy};
use fabric::fabcoin::{
    CentralBank, CoinState, FabcoinChaincode, FabcoinVscc, Wallet, Zipfian, FABCOIN_NAMESPACE,
};
use fabric::gateway::{FrontConfig, FrontSubmit, Gateway, GatewayConfig, GatewayFront, SimClock};
use fabric::msp::Role;
use fabric::net::{Net, NetSpec, PeerSpec};
use fabric::ordering::OrderingCluster;
use fabric::peer::{
    CommitEvent, Deliver, DeliverMux, EndorseOptions, EndorsePipeline, Peer, PeerConfig,
    PipelineOptions,
};
use fabric::primitives::config::{BatchConfig, ConsensusType};
use fabric::primitives::ids::{ChannelId, TxId};
use fabric::primitives::wire::Wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mint outputs packed per mint transaction during funding.
const MINT_BATCH: u64 = 64;

/// Outcome of one closed-loop transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TransferOutcome {
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
    submitted_ms: u64,
}

/// Workload-level counters and samples.
#[derive(Clone, Debug, Default)]
struct WorkloadStats {
    /// Transfers committed valid.
    committed: u64,
    /// Transfers committed invalid (their coin went back in play).
    invalidated: u64,
    /// Balance queries served.
    queries: u64,
    /// Submit→commit latency (simulated ms) per committed transfer.
    latencies_ms: Vec<u64>,
}

/// A closed-loop Fabcoin deployment behind both gateways. The account
/// space is large but addresses are derived lazily and only a funded
/// prefix holds coins at the start; a zipfian picks hot accounts. Coins
/// are reserved while a spend is in flight and returned on invalidation,
/// so the loop never manufactures its own MVCC conflicts.
struct GatewayWorkload {
    /// The network: one peer, its ordering service.
    net: Net,
    /// The one peer, driven by this workload's own mux.
    peer: Peer,
    /// The peer's endorsement pipeline.
    endorse: EndorsePipeline,
    /// The endorse-side gateway.
    front: GatewayFront,
    /// The ordering-side gateway.
    gateway: Gateway,
    /// The commit-side deliver mux (reports credits to the gateway).
    mux: DeliverMux,
    /// The simulated clock every component shares.
    clock: SimClock,
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
    stats: WorkloadStats,
}

impl GatewayWorkload {
    /// Stands one peer up on `spec`'s ordering service and funds the
    /// first `funded` of `accounts` accounts with one `coin_amount` coin
    /// each.
    fn new(spec: NetSpec, accounts: u64, funded: u64, coin_amount: u64) -> Self {
        let bank = CentralBank::new(1, b"gateway-workload-cb");
        let net = Net::new(
            spec.chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode))
                .vscc(
                    FABCOIN_NAMESPACE,
                    Arc::new(FabcoinVscc::new(bank.public_keys(), 1)),
                ),
        );
        let peer = net.join(PeerSpec::new(
            0,
            "peer0.org1",
            PeerConfig::default().vscc_parallelism,
        ));
        let endorse = peer.endorse_pipeline(EndorseOptions {
            workers: 2,
            ..EndorseOptions::default()
        });
        let mux = DeliverMux::new(2);
        mux.attach(
            net.channel.clone(),
            &peer,
            PipelineOptions {
                deliver_credits: 8,
                park_window: 32,
            },
        )
        .expect("attach commit pipeline");
        let mut workload = GatewayWorkload {
            events: mux.events(&net.channel).expect("channel attached"),
            client: net.client(0, "client.org1", Role::Client),
            delivered_next: peer.height(),
            front: GatewayFront::new(FrontConfig::default()),
            gateway: Gateway::new(GatewayConfig::default()),
            clock: SimClock::new(),
            bank,
            wallet: Wallet::new(),
            zipf: Zipfian::new(accounts),
            retry: RetryPolicy::default(),
            addresses: HashMap::new(),
            account_of: HashMap::new(),
            available: BTreeMap::new(),
            inflight: HashMap::new(),
            accounts,
            stats: WorkloadStats::default(),
            net,
            peer,
            endorse,
            mux,
        };
        workload.fund(funded, coin_amount);
        workload
    }

    /// The address of `account`, derived on first use.
    fn address(&mut self, account: u64) -> Vec<u8> {
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

    /// Mints one coin per funded account, [`MINT_BATCH`] outputs per
    /// transaction, endorsed and broadcast directly (funding is setup,
    /// not the loop under test), and settles until every coin is
    /// spendable.
    fn fund(&mut self, funded: u64, coin_amount: u64) {
        for first in (0..funded).step_by(MINT_BATCH as usize) {
            let outputs: Vec<CoinState> = (first..(first + MINT_BATCH).min(funded))
                .map(|a| CoinState {
                    amount: coin_amount,
                    owner: self.address(a),
                    label: "FBC".into(),
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
            let responses = self
                .client
                .collect_endorsements(&proposal, &[&self.peer])
                .expect("mint endorses");
            let envelope = self.client.assemble_transaction(&proposal, &responses);
            self.net
                .ordering
                .broadcast(envelope)
                .expect("mint broadcasts");
        }
        // Nothing is in flight, so one settle round may end before the
        // mints commit (a Raft cluster first elects a leader).
        for _ in 0..10_000 {
            if self.wallet_total() == funded * coin_amount {
                break;
            }
            self.settle(1);
        }
    }

    /// One zipfian-chosen closed-loop transfer: pick a hot sender with a
    /// spendable coin, a zipfian receiver anywhere in the account space,
    /// endorse through the front, and submit through the gateway (honoring
    /// `RetryAfter` with the client's backoff policy).
    fn transfer(&mut self, u_from: f64, u_to: f64, fee: u64) -> TransferOutcome {
        // Sender: a few zipfian draws, then the first account with a
        // spendable coin (deterministic BTreeMap order).
        let mut from = None;
        for spread in 0..8u64 {
            let candidate = (self.zipf.rank(u_from) + spread * 37) % self.accounts;
            if self
                .available
                .get(&candidate)
                .is_some_and(|c| !c.is_empty())
            {
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
                    label: "FBC".into(),
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
            match self
                .front
                .submit(&self.endorse, attempt, self.clock.now_ms())
            {
                FrontSubmit::Admitted(ticket) => {
                    response = ticket.wait().ok();
                    break;
                }
                FrontSubmit::Duplicate => break,
                FrontSubmit::RetryAfter {
                    after_ms,
                    proposal: p,
                    ..
                } => {
                    self.clock.advance(after_ms);
                    self.pump();
                    attempt = *p;
                }
            }
        }
        let Some(response) = response else {
            self.available
                .get_mut(&from)
                .expect("entry exists")
                .push((coin, amount));
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
            ref mut net,
            ref mut mux,
            ref mut delivered_next,
            ref retry,
            ..
        } = *self;
        let result =
            client.submit_via_gateway(gateway, clock, envelope, fee, *retry, |gw, _now| {
                pump_inner(gw, &mut net.ordering, mux, delivered_next, &net.channel);
            });
        match result {
            Ok(GatewayOutcome::Admitted { .. }) | Ok(GatewayOutcome::AlreadySubmitted) => {
                self.inflight.insert(
                    txid,
                    Pending {
                        from,
                        coin,
                        amount,
                        submitted_ms: self.clock.now_ms(),
                    },
                );
                TransferOutcome::Submitted
            }
            Err(_) => {
                self.available
                    .get_mut(&from)
                    .expect("entry exists")
                    .push((coin, amount));
                TransferOutcome::ShedOrder
            }
        }
    }

    /// A read-only balance query through the endorse front (no ordering).
    fn query_balance(&mut self, u: f64) -> Option<u64> {
        let account = self.zipf.rank(u);
        let addr = self.address(account);
        let mut proposal =
            self.client
                .create_proposal(FABCOIN_NAMESPACE, "balance", vec![addr, b"FBC".to_vec()]);
        for _ in 0..4 {
            match self
                .front
                .submit(&self.endorse, proposal, self.clock.now_ms())
            {
                FrontSubmit::Admitted(ticket) => {
                    let response = ticket.wait().ok()?;
                    self.stats.queries += 1;
                    let raw = &response.payload.response.payload;
                    return Some(u64::from_le_bytes(raw[..8].try_into().ok()?));
                }
                FrontSubmit::Duplicate => return None,
                FrontSubmit::RetryAfter {
                    after_ms,
                    proposal: p,
                    ..
                } => {
                    self.clock.advance(after_ms);
                    self.pump();
                    proposal = *p;
                }
            }
        }
        None
    }

    /// One turn of the end-to-end loop (see [`pump_inner`]).
    fn pump(&mut self) {
        let net = &mut self.net;
        pump_inner(
            &mut self.gateway,
            &mut net.ordering,
            &mut self.mux,
            &mut self.delivered_next,
            &net.channel,
        );
    }

    /// Processes every commit event that has arrived: updates the wallet
    /// and spendable coins, releases in-flight reservations, and records
    /// latency samples for committed transfers.
    fn collect_events(&mut self) {
        while let Ok(event) = self.events.try_recv() {
            let block = self
                .peer
                .get_block(event.block_num)
                .ok()
                .flatten()
                .expect("committed block readable");
            for (key, output) in self.wallet.apply_committed(&block, &event.validity) {
                if let Some(&account) = self.account_of.get(&output.owner) {
                    self.available
                        .entry(account)
                        .or_default()
                        .push((key, output.amount));
                }
            }
            for (env, flag) in block.envelopes.iter().zip(&event.validity) {
                let Some(p) = self.inflight.remove(&env.tx_id()) else {
                    continue;
                };
                if flag.is_valid() {
                    self.stats.committed += 1;
                    self.stats
                        .latencies_ms
                        .push(self.clock.now_ms().saturating_sub(p.submitted_ms));
                } else {
                    // The coin was never spent: back in play.
                    self.available
                        .entry(p.from)
                        .or_default()
                        .push((p.coin, p.amount));
                    self.stats.invalidated += 1;
                }
            }
        }
    }

    /// Pumps and collects until the gateway mempool and the in-flight set
    /// are both empty (or `max_rounds` elapse). Returns whether it fully
    /// settled.
    fn settle(&mut self, max_rounds: u32) -> bool {
        for _ in 0..max_rounds {
            self.clock.advance(10);
            self.pump();
            // Let the commit pipeline catch up with everything delivered.
            if self.delivered_next > 0 {
                let _ = self
                    .mux
                    .wait_committed(&self.net.channel, self.delivered_next);
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
    fn total_on_ledger(&self) -> u64 {
        self.peer
            .scan_state(FABCOIN_NAMESPACE, "", "")
            .expect("state scan")
            .iter()
            .filter_map(|(_, raw)| CoinState::from_wire(raw).ok())
            .filter(|c| c.label == "FBC")
            .map(|c| c.amount)
            .sum()
    }

    /// Total value the wallet believes it holds (all addresses).
    fn wallet_total(&self) -> u64 {
        self.wallet.balance("FBC")
    }

    /// Workload counters and samples.
    fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// Spends still awaiting their commit event.
    fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Shuts the endorsement pipeline and commit mux down cleanly.
    fn shutdown(self) {
        self.endorse.close();
        let _ = self.mux.close();
    }
}

/// Drains the gateway into ordering, ticks the orderers, delivers cut
/// blocks into the mux, and reports remaining credits back to the
/// gateway.
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

fn account_space() -> u64 {
    std::env::var("GATEWAY_E2E_ACCOUNTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

#[test]
fn closed_loop_mix_conserves_coins() {
    for (consensus, osns) in [(ConsensusType::Solo, 1), (ConsensusType::Raft, 3)] {
        closed_loop_mix_conserves_coins_on(NetSpec {
            consensus,
            osns,
            ..NetSpec::new(&["Org1"])
        });
    }
}

fn closed_loop_mix_conserves_coins_on(spec: NetSpec) {
    let funded = 64u64;
    let coin_amount = 100u64;
    let spec = NetSpec {
        batch: BatchConfig {
            max_message_count: 16,
            absolute_max_bytes: 32 * 1024 * 1024,
            preferred_max_bytes: 8 * 1024 * 1024,
            batch_timeout_ms: 100,
        },
        ..spec
    };
    let mut workload = GatewayWorkload::new(spec, account_space(), funded, coin_amount);
    let minted = funded * coin_amount;
    assert_eq!(workload.total_on_ledger(), minted, "funding committed");

    // Transfer-heavy mix with a sprinkle of balance queries, zipfian on
    // both ends, random fees.
    let mut rng = StdRng::seed_from_u64(0xfab_c01);
    let mut submitted = 0u64;
    for i in 0..240 {
        if i % 8 == 7 {
            // Queries go through the endorse front but not ordering.
            let _ = workload.query_balance(rng.gen::<f64>());
        } else {
            let fee = rng.gen_range(1u64..100);
            match workload.transfer(rng.gen::<f64>(), rng.gen::<f64>(), fee) {
                TransferOutcome::Submitted => submitted += 1,
                // Sheds hand the coin back; NoCoin means everything is in
                // flight. Both are legitimate under backpressure.
                TransferOutcome::ShedEndorse
                | TransferOutcome::ShedOrder
                | TransferOutcome::NoCoin => {}
            }
        }
        workload.clock.advance(5);
        workload.pump();
        if i % 16 == 0 {
            workload.collect_events();
        }
    }
    assert!(
        workload.settle(10_000),
        "mempool and in-flight set drain completely"
    );

    // Conservation: the mint total is all there is, wherever it moved.
    assert_eq!(
        workload.total_on_ledger(),
        minted,
        "no value lost or minted"
    );
    assert_eq!(workload.wallet_total(), minted, "wallet view agrees");
    assert_eq!(workload.inflight_len(), 0);
    assert_eq!(workload.gateway.mempool_len(), 0);

    let stats = workload.stats().clone();
    assert!(submitted > 0, "the mix actually submitted transfers");
    assert_eq!(
        stats.committed + stats.invalidated,
        submitted,
        "every admitted transfer resolved to a commit verdict"
    );
    assert!(
        stats.committed >= submitted / 2,
        "the closed loop commits most transfers ({}/{submitted})",
        stats.committed
    );
    assert_eq!(stats.latencies_ms.len(), stats.committed as usize);

    // The gateway counters agree with the workload's view.
    let gstats = workload.gateway.stats();
    assert_eq!(gstats.dispatched, gstats.admitted, "everything drained");
    assert_eq!(gstats.broadcast_rejected, 0);
    let fstats = workload.front.stats();
    assert!(fstats.admitted >= submitted + stats.queries);
    workload.shutdown();
}
