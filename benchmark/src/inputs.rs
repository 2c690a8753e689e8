//! Seeded input generation: minted coins or pre-loaded keys committed to
//! the deployment, and the pre-signed proposal streams the measured
//! window replays. The same seed gives the same bytes; the program under
//! test only ever sees these generated inputs.

use std::time::{Duration, Instant};

use fabric::client::Client;
use fabric::crypto::sha256::Sha256;
use fabric::fabcoin::{coin_key, CoinState, Wallet, Zipfian, FABCOIN_NAMESPACE};
use fabric::primitives::ids::TxId;
use fabric::primitives::transaction::{SignedProposal, Transaction};
use fabric::primitives::wire::Wire;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::config::{
    App, Plan, WorkloadSpec, CLIENTS, KV_KEYS, KV_READS, KV_WRITES, PROBE_PROPOSALS,
    QUERY_RATE_FACTOR, READERS,
};
use crate::deploy::Deployment;
use crate::kv::{key_id, key_name, KV_NAMESPACE};

const COIN_LABEL: &str = "FBC";
const COIN_AMOUNT: u64 = 100;
const ADDRESSES: usize = 16;
const MINT_BATCH: usize = 64;
const LOAD_BATCH: u32 = 1000;

/// Tags the harness's own transactions inside the nonce.
const NONCE_TX: u8 = 0xb1;

pub struct Inputs {
    /// Write proposals in replay order; the last `probe_txs` are never
    /// submitted and serve the post-window probes.
    pub txs: Vec<SignedProposal>,
    pub probe_txs: usize,
    /// Read-only query proposals (`kv-mixed`).
    pub queries: Vec<SignedProposal>,
    /// Key ids each write transaction rewrites (`kv-mixed`).
    pub kv_writes: Vec<[u32; KV_WRITES]>,
    /// Hex SHA-256 over every generated proposal, in order.
    pub stream_hash: String,
    /// Coin value minted (Fabcoin workloads).
    pub minted: u64,
    /// Mean `Client::create_proposal_with_nonce` time, microseconds.
    pub propose_us: f64,
    /// Keys for the state-read probe.
    pub probe_keys: Vec<String>,
}

impl Inputs {
    /// Proposals the measured window may replay.
    pub fn replayable(&self) -> usize {
        self.txs.len() - self.probe_txs
    }
}

/// How many write proposals and queries a run needs.
pub fn pool_sizes(spec: &WorkloadSpec, plan: &Plan) -> (usize, usize) {
    let cooldown = Plan::cooldown(spec.paced_rate);
    let open_loop_ops =
        |rate: f64, window: Duration| (rate * (window + cooldown).as_secs_f64()) as usize + 1;
    let paced = open_loop_ops(spec.paced_rate, plan.paced);
    if spec.open_loop_only {
        return (
            open_loop_ops(spec.paced_rate, plan.warm + plan.sat + plan.paced),
            0,
        );
    }
    let closed_s = plan.closed_loop().as_secs_f64();
    let txs = (spec.provision_tps * closed_s) as usize + CLIENTS + paced;
    let queries = if spec.provision_qps > 0.0 {
        (spec.provision_qps * closed_s) as usize
            + READERS
            + open_loop_ops(QUERY_RATE_FACTOR * spec.paced_rate, plan.paced)
    } else {
        0
    };
    (txs, queries)
}

/// The index a harness transaction carries in its nonce.
pub fn tx_index(tx: &Transaction) -> Option<usize> {
    (tx.nonce[4] == NONCE_TX)
        .then(|| u32::from_le_bytes(tx.nonce[..4].try_into().unwrap()) as usize)
}

fn nonce(rng: &mut StdRng, tag: u8, index: usize) -> [u8; 32] {
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    nonce[..4].copy_from_slice(&(index as u32).to_le_bytes());
    nonce[4] = tag;
    nonce
}

/// Runs `build(i)` for `0..n` on two threads; results in index order.
fn build_on_two_threads<T: Send>(n: usize, build: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let half = n / 2;
    let mut built: Vec<T> = std::thread::scope(|scope| {
        let upper = scope.spawn(|| (half..n).map(&build).collect::<Vec<T>>());
        let mut lower: Vec<T> = (0..half).map(&build).collect();
        lower.extend(upper.join().expect("signing thread"));
        lower
    });
    built.shrink_to_fit();
    built
}

/// Signs `chaincode.function(args)` for every `(args, nonce)`, timing
/// the calls: `(proposals, mean microseconds per call)`.
fn sign_proposals(
    client: &Client,
    chaincode: &str,
    function: &str,
    count: usize,
    args_of: impl Fn(usize) -> (Vec<Vec<u8>>, [u8; 32]) + Sync,
) -> (Vec<SignedProposal>, f64) {
    let timed = build_on_two_threads(count, |i| {
        let (args, nonce) = args_of(i);
        let started = Instant::now();
        let proposal = client.create_proposal_with_nonce(chaincode, function, args, nonce);
        (proposal, started.elapsed())
    });
    let total: f64 = timed.iter().map(|(_, t)| t.as_secs_f64()).sum();
    (
        timed.into_iter().map(|(p, _)| p).collect(),
        total * 1e6 / count.max(1) as f64,
    )
}

/// Draws zipfian ranks until they name `KV_READS` distinct keys of a
/// `keys`-sized key space. The coldest `KV_WRITES` come last, so those
/// are the keys rewritten: rewriting the hottest keys instead would abort
/// nearly every transaction of a block.
pub fn draw_keys(zipf: &Zipfian, rng: &mut StdRng, keys: u64) -> Vec<u32> {
    let mut drawn: Vec<(u64, u32)> = Vec::with_capacity(KV_READS);
    while drawn.len() < KV_READS {
        let rank = zipf.rank(rng.gen::<f64>());
        let id = (u64::from(key_id(rank)) % keys) as u32;
        if drawn.iter().all(|&(_, seen)| seen != id) {
            drawn.push((rank, id));
        }
    }
    drawn.sort_unstable();
    drawn.into_iter().map(|(_, id)| id).collect()
}

/// Hex SHA-256 over the proposals' wire bytes, in order.
pub fn stream_hash<'a>(proposals: impl Iterator<Item = &'a SignedProposal>) -> String {
    let mut hasher = Sha256::new();
    for proposal in proposals {
        hasher.update(&proposal.to_wire());
    }
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Generates a workload's inputs from `seed` and commits the state they
/// presuppose (mints, pre-load) to the deployment.
pub fn generate(dep: &mut Deployment, plan: &Plan, seed: u64) -> Inputs {
    let (replayed, queries) = pool_sizes(&dep.spec, plan);
    let probe_txs = if plan.trace { PROBE_PROPOSALS } else { 0 };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_fab0_c0de_0001);
    let mut inputs = match dep.spec.app {
        App::Fabcoin => fabcoin_inputs(dep, &mut rng, seed, replayed + probe_txs),
        App::Kv => kv_inputs(dep, plan, &mut rng, replayed + probe_txs, queries),
    };
    inputs.probe_txs = probe_txs;
    inputs.stream_hash = stream_hash(inputs.txs.iter().chain(&inputs.queries));
    inputs
}

fn fabcoin_inputs(dep: &mut Deployment, rng: &mut StdRng, seed: u64, count: usize) -> Inputs {
    let mut wallet = Wallet::new();
    let addresses: Vec<Vec<u8>> = (0..ADDRESSES)
        .map(|a| wallet.new_address(format!("bench-address-{seed}-{a}").as_bytes()))
        .collect();
    let creator = dep.client.identity().serialized().to_wire();

    // One coin per spend, minted MINT_BATCH outputs per transaction.
    let mut coins: Vec<String> = Vec::with_capacity(count);
    let mut mints = Vec::new();
    while coins.len() < count {
        let batch = MINT_BATCH.min(count - coins.len());
        let outputs: Vec<CoinState> = (coins.len()..coins.len() + batch)
            .map(|i| CoinState {
                amount: COIN_AMOUNT,
                owner: addresses[i % ADDRESSES].clone(),
                label: COIN_LABEL.into(),
            })
            .collect();
        let nonce = nonce(rng, 0, mints.len());
        let txid = TxId::derive(&creator, &nonce);
        for (j, output) in outputs.iter().enumerate() {
            let key = coin_key(&txid, j as u32);
            wallet.note_coin(&key, output);
            coins.push(key);
        }
        let request = dep.bank.create_mint(outputs, &txid, 1);
        let proposal = dep.client.create_proposal_with_nonce(
            FABCOIN_NAMESPACE,
            "mint",
            vec![request.to_wire()],
            nonce,
        );
        mints.push(dep.endorse_directly(&dep.client, &proposal));
    }
    dep.commit_setup(mints);

    // Conflict-free spends: coin i moves, whole, to the next address.
    let nonces: Vec<[u8; 32]> = (0..count).map(|i| nonce(rng, NONCE_TX, i)).collect();
    let (txs, propose_us) = sign_proposals(&dep.client, FABCOIN_NAMESPACE, "spend", count, |i| {
        let txid = TxId::derive(&creator, &nonces[i]);
        let output = CoinState {
            amount: COIN_AMOUNT,
            owner: addresses[(i + 1) % ADDRESSES].clone(),
            label: COIN_LABEL.into(),
        };
        let request = wallet
            .create_spend(std::slice::from_ref(&coins[i]), vec![output], &txid)
            .expect("the wallet owns every minted coin");
        (vec![request.to_wire()], nonces[i])
    });
    let probe_keys = zipf_sample(rng, coins.len() as u64, |rank| coins[rank as usize].clone());
    Inputs {
        txs,
        probe_txs: 0,
        queries: Vec::new(),
        kv_writes: Vec::new(),
        stream_hash: String::new(),
        minted: count as u64 * COIN_AMOUNT,
        propose_us,
        probe_keys,
    }
}

/// 10 000 zipfian picks among `items` names, for the state-read probe.
fn zipf_sample(rng: &mut StdRng, items: u64, name: impl Fn(u64) -> String) -> Vec<String> {
    let zipf = Zipfian::new(items);
    (0..10_000)
        .map(|_| name(zipf.rank(rng.gen::<f64>())))
        .collect()
}

fn kv_inputs(
    dep: &mut Deployment,
    plan: &Plan,
    rng: &mut StdRng,
    count: usize,
    queries: usize,
) -> Inputs {
    let keys = if plan.smoke { KV_KEYS / 10 } else { KV_KEYS };
    // Pre-load through ordinary transactions, LOAD_BATCH keys each.
    let loads = (0..keys as u32)
        .step_by(LOAD_BATCH as usize)
        .map(|first| {
            let batch = LOAD_BATCH.min(keys as u32 - first);
            let proposal = dep.client.create_proposal(
                KV_NAMESPACE,
                "load",
                vec![
                    first.to_string().into_bytes(),
                    batch.to_string().into_bytes(),
                ],
            );
            dep.endorse_directly(&dep.client, &proposal)
        })
        .collect();
    dep.commit_setup(loads);

    let zipf = Zipfian::new(keys);
    let key_of = |rank: u64| key_name((u64::from(key_id(rank)) % keys) as u32);
    let mut kv_writes = Vec::with_capacity(count);
    let tx_args: Vec<(Vec<Vec<u8>>, [u8; 32])> = (0..count)
        .map(|i| {
            let ids = draw_keys(&zipf, rng, keys);
            kv_writes.push(
                ids[KV_READS - KV_WRITES..]
                    .try_into()
                    .expect("KV_WRITES ids"),
            );
            let mut args = vec![KV_WRITES.to_string().into_bytes()];
            args.extend(ids.iter().map(|&id| key_name(id).into_bytes()));
            (args, nonce(rng, NONCE_TX, i))
        })
        .collect();
    let query_args: Vec<(Vec<Vec<u8>>, [u8; 32])> = (0..queries)
        .map(|i| {
            (
                vec![key_of(zipf.rank(rng.gen::<f64>())).into_bytes()],
                nonce(rng, 0, i),
            )
        })
        .collect();

    let (txs, propose_us) = sign_proposals(&dep.client, KV_NAMESPACE, "rw", count, |i| {
        tx_args[i].clone()
    });
    let (queries, _) = sign_proposals(&dep.client, KV_NAMESPACE, "get", queries, |i| {
        query_args[i].clone()
    });
    let probe_keys = zipf_sample(rng, keys, key_of);
    Inputs {
        txs,
        probe_txs: 0,
        queries,
        kv_writes,
        stream_hash: String::new(),
        minted: 0,
        propose_us,
        probe_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::msp::{CertificateAuthority, Role};
    use fabric::primitives::ids::ChannelId;

    #[test]
    fn zipfian_draws_repeat_per_seed() {
        let zipf = Zipfian::new(KV_KEYS);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| draw_keys(&zipf, &mut rng, KV_KEYS))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        for keys in draw(7) {
            assert_eq!(keys.len(), KV_READS);
            let mut distinct = keys.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                KV_READS,
                "keys of one transaction are distinct"
            );
        }
    }

    #[test]
    fn hot_ranks_dominate_the_reads_and_stay_out_of_the_writes() {
        let zipf = Zipfian::new(KV_KEYS);
        let mut rng = StdRng::seed_from_u64(1);
        let hottest = key_id(0);
        let (mut read, mut written) = (0, 0);
        for _ in 0..200 {
            let keys = draw_keys(&zipf, &mut rng, KV_KEYS);
            read += usize::from(keys.contains(&hottest));
            written += usize::from(keys[KV_READS - KV_WRITES..].contains(&hottest));
        }
        assert!(
            read > 150,
            "rank 0 is read by most transactions ({read}/200)"
        );
        assert_eq!(written, 0, "rank 0 is never among the coldest four");
    }

    #[test]
    fn proposal_stream_hash_follows_the_seed() {
        let ca = CertificateAuthority::new("ca", "OrgMSP", b"s");
        let identity = fabric::msp::issue_identity(&ca, "c", Role::Client, b"k");
        let client = Client::new(identity, ChannelId::new("ch"));
        let stream = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let proposals: Vec<SignedProposal> = (0..8)
                .map(|i| {
                    let nonce = nonce(&mut rng, NONCE_TX, i);
                    client.create_proposal_with_nonce("cc", "f", vec![vec![i as u8]], nonce)
                })
                .collect();
            stream_hash(proposals.iter())
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
        assert_eq!(stream(3).len(), 64);
    }

    #[test]
    fn nonces_carry_the_transaction_index() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = nonce(&mut rng, NONCE_TX, 70_000);
        assert_eq!(u32::from_le_bytes(n[..4].try_into().unwrap()), 70_000);
        assert_eq!(n[4], NONCE_TX);
        assert_ne!(nonce(&mut rng, 0, 1)[4], NONCE_TX);
    }
}
