//! State-store scale bench at 1M+ keys.
//!
//! Loads `FABRIC_BENCH_KEYS` keys (default 1,000,000) into the state store
//! on a RAM-disk backend, then measures:
//!
//!   * bulk-load throughput and the post-load checkpoint latency,
//!   * concurrent point-read throughput under a zipfian (theta 0.99,
//!     YCSB-style) and a uniform key distribution,
//!   * a read-heavy mixed phase (95% get / 5% put, zipfian) interleaved
//!     with periodic checkpoints, each of which rewrites the store's
//!     entire state,
//!   * a write-heavy phase (50% get / 50% put, zipfian).
//!
//! `FABRIC_BENCH_SMOKE=1` shrinks everything to a few-second sanity run.
//! `FABRIC_BENCH_JSON=<path>` additionally writes the results as JSON
//! (committed as `BENCH_storage.json`).

use std::sync::Arc;
use std::time::Instant;

use fabric::kvstore::{MemBackend, StateStore, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// YCSB-style zipfian generator over `0..items` with theta 0.99.
struct Zipfian {
    items: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow: f64,
}

impl Zipfian {
    fn new(items: u64) -> Zipfian {
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

    fn next(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
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

fn key_of(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn value_of(i: u64, round: u64) -> Vec<u8> {
    let mut v = format!("value-{i}-{round}-").into_bytes();
    v.resize(96, b'x');
    v
}

struct PhaseResult {
    ops: u64,
    secs: f64,
}

impl PhaseResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// Runs `threads` workers against `store`, each performing `ops_each`
/// operations with `write_pct` percent single-key puts (rest are gets).
fn run_phase(
    store: &StateStore,
    threads: usize,
    ops_each: u64,
    write_pct: u64,
    zipf: Option<&Arc<Zipfian>>,
    keys: u64,
    seed: u64,
) -> PhaseResult {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let zipf = zipf.map(Arc::clone);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37));
                for op in 0..ops_each {
                    let i = match &zipf {
                        Some(z) => z.next(&mut rng),
                        None => rng.gen_range(0..keys),
                    };
                    if write_pct > 0 && rng.gen_range(0..100u64) < write_pct {
                        let mut batch = WriteBatch::new();
                        batch.put(key_of(i), value_of(i, op));
                        store.write(batch).expect("bench write");
                    } else {
                        std::hint::black_box(store.get(&key_of(i)));
                    }
                }
            });
        }
    });
    PhaseResult {
        ops: threads as u64 * ops_each,
        secs: start.elapsed().as_secs_f64(),
    }
}

struct Report {
    load_tps: f64,
    load_checkpoint_ms: f64,
    read_zipf: f64,
    read_uniform: f64,
    mixed_zipf: f64,
    mixed_checkpoint_ms: f64,
    write_heavy: f64,
}

fn run(
    keys: u64,
    read_ops: u64,
    mixed_ops: u64,
    write_ops: u64,
    threads: usize,
    zipf: &Arc<Zipfian>,
) -> Report {
    let store = StateStore::open(Arc::new(MemBackend::new())).expect("open");

    // Bulk load in batches of 1024.
    let start = Instant::now();
    let mut i = 0u64;
    while i < keys {
        let mut batch = WriteBatch::new();
        let end = (i + 1024).min(keys);
        for k in i..end {
            batch.put(key_of(k), value_of(k, 0));
        }
        store.write(batch).expect("load write");
        i = end;
    }
    let load_tps = keys as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    store.checkpoint().expect("post-load checkpoint");
    let load_checkpoint_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Untimed warmup: fault the hot paths in before any timed read phase.
    run_phase(&store, threads, read_ops / 5, 0, Some(zipf), keys, 7);
    run_phase(&store, threads, read_ops / 5, 0, None, keys, 9);

    let read_zipf = run_phase(&store, threads, read_ops, 0, Some(zipf), keys, 11);
    let read_uniform = run_phase(&store, threads, read_ops, 0, None, keys, 13);

    // Read-heavy mixed phase in 4 rounds with a checkpoint between each:
    // wall clock includes the checkpoints, so the store pays for its
    // full-state rewrites right where the paper's VSCC-style read-hot
    // workload hurts most.
    let mut ck_ms = 0.0;
    let rounds = 4u64;
    let start = Instant::now();
    let mut mixed_ops_done = 0u64;
    for round in 0..rounds {
        let r = run_phase(
            &store,
            threads,
            mixed_ops / rounds,
            5,
            Some(zipf),
            keys,
            17 + round,
        );
        mixed_ops_done += r.ops;
        let ck = Instant::now();
        store.checkpoint().expect("periodic checkpoint");
        ck_ms += ck.elapsed().as_secs_f64() * 1000.0;
    }
    let mixed_secs = start.elapsed().as_secs_f64();
    let mixed_zipf = mixed_ops_done as f64 / mixed_secs;

    let write_heavy = run_phase(&store, threads, write_ops, 50, Some(zipf), keys, 29);

    Report {
        load_tps,
        load_checkpoint_ms,
        read_zipf: read_zipf.ops_per_sec(),
        read_uniform: read_uniform.ops_per_sec(),
        mixed_zipf,
        mixed_checkpoint_ms: ck_ms,
        write_heavy: write_heavy.ops_per_sec(),
    }
}

fn main() {
    let smoke = std::env::var("FABRIC_BENCH_SMOKE").is_ok();
    let keys: u64 = std::env::var("FABRIC_BENCH_KEYS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 20_000 } else { 1_000_000 });
    let threads: usize = std::env::var("FABRIC_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(4)
        });
    let read_ops: u64 = if smoke { 5_000 } else { 150_000 };
    let mixed_ops: u64 = if smoke { 4_000 } else { 100_000 };
    let write_ops: u64 = if smoke { 2_000 } else { 50_000 };

    println!("== state store at scale: {keys} keys, {threads} reader threads ==");
    println!("   zipfian theta 0.99 (YCSB); values 96 B; RAM-disk backend\n");

    let zipf = Arc::new(Zipfian::new(keys));
    let r = run(keys, read_ops, mixed_ops, write_ops, threads, &zipf);
    println!(
        "load {:>9.0} tps | ck {:>7.1} ms | read zipf {:>9.0} op/s | uniform {:>9.0} op/s | mixed 95/5 {:>9.0} op/s (cks {:>7.1} ms) | write 50/50 {:>9.0} op/s",
        r.load_tps,
        r.load_checkpoint_ms,
        r.read_zipf,
        r.read_uniform,
        r.mixed_zipf,
        r.mixed_checkpoint_ms,
        r.write_heavy,
    );

    if let Ok(path) = std::env::var("FABRIC_BENCH_JSON") {
        let row = format!(
            r#"{{"engine":"state_store","load_tps":{:.0},"load_checkpoint_ms":{:.1},"read_zipf_ops":{:.0},"read_uniform_ops":{:.0},"mixed_95_5_ops":{:.0},"mixed_checkpoint_ms":{:.1},"write_50_50_ops":{:.0}}}"#,
            r.load_tps,
            r.load_checkpoint_ms,
            r.read_zipf,
            r.read_uniform,
            r.mixed_zipf,
            r.mixed_checkpoint_ms,
            r.write_heavy,
        );
        let json = format!(
            r#"{{"bench":"storage_scale","keys":{keys},"value_bytes":96,"threads":{threads},"zipf_theta":0.99,"engines":[{row}]}}"#
        );
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
