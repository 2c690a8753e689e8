//! Sharded LSM state store: N memtable shards keyed by key hash, each
//! with its own WAL stripe, background flush to sorted segment files,
//! tiered compaction with snapshot-aware tombstone GC, and a sharded
//! block cache.
//!
//! ## Crash-safety model (PandaGen commit-log discipline)
//!
//! Every on-disk structure is either an append-only CRC-framed log (WAL
//! stripes, per-shard manifests) or an immutable file committed by
//! write-temp → sync → rename → manifest-record (segments, the Merkle
//! accumulator file). Recovery trusts only manifests and live WAL
//! stripes; anything else on disk is an orphan and is deleted.
//!
//! A batch touching several shards appends one *fragment* per shard,
//! each carrying the commit seq and the full list of touched shards. On
//! recovery a seq is committed iff every declared shard either still has
//! its fragment in a live stripe or has already flushed past that seq
//! (`Flush` manifest records carry the flushed high-water mark, and WAL
//! generations retire only after their whole memtable is in a segment).
//! Committed seqs are applied in order up to the first incomplete one;
//! everything after the cut is truncated from the stripes, exactly the
//! torn-tail rule the single-WAL store already enforces, generalized to
//! multiple stripes.

pub(crate) mod cache;
pub(crate) mod segment;

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use fabric_crypto::Digest;

use crate::backend::{Backend, BackendFile};
use crate::engine::{batch_transitions, StateSnapshot, StateStore};
use crate::log;
use crate::merkle::StateRoot;
use crate::stats::{StorageSnapshot, StorageStats};
use crate::store::WriteBatch;
use crate::StoreError;

use cache::BlockCache;
use segment::{SegEntry, Segment, Versioned};

const META_FILE: &str = "lsm-meta.log";

fn wal_name(shard: usize, gen: u64) -> String {
    format!("lsm-wal-{shard}-{gen}.log")
}

fn manifest_name(shard: usize) -> String {
    format!("lsm-manifest-{shard}.log")
}

/// Tuning knobs for the sharded LSM engine.
#[derive(Clone, Debug)]
pub struct LsmOptions {
    /// Memtable shards (rounded up to a power of two, pinned on disk).
    pub shards: usize,
    /// Active-memtable size that triggers rotation to an immutable.
    pub memtable_bytes: usize,
    /// Segment count per shard that triggers a full-fold compaction.
    pub compact_trigger: usize,
    /// Immutable memtables per shard before writers stall.
    pub max_immutables: usize,
    /// Total block-cache budget in bytes.
    pub cache_bytes: usize,
    /// Block-cache shards.
    pub cache_shards: usize,
    /// Target segment block size in bytes.
    pub block_bytes: usize,
    /// Run flush/compaction on a background thread (`false` = inline
    /// after each write, which is deterministic for tests).
    pub background: bool,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            shards: 8,
            memtable_bytes: 4 << 20,
            compact_trigger: 4,
            max_immutables: 3,
            cache_bytes: 32 << 20,
            cache_shards: 8,
            block_bytes: 4096,
            background: true,
        }
    }
}

impl LsmOptions {
    /// Tiny limits that force rotation/flush/compaction after a handful
    /// of writes — inline (deterministic) mode for tests.
    pub fn small() -> Self {
        LsmOptions {
            shards: 4,
            memtable_bytes: 512,
            compact_trigger: 3,
            max_immutables: 2,
            cache_bytes: 64 << 10,
            cache_shards: 2,
            block_bytes: 64,
            background: false,
        }
    }

    fn normalized(&self) -> LsmOptions {
        let mut o = self.clone();
        o.shards = o.shards.max(1).next_power_of_two();
        o.memtable_bytes = o.memtable_bytes.max(256);
        o.compact_trigger = o.compact_trigger.max(2);
        o.max_immutables = o.max_immutables.max(1);
        o.block_bytes = o.block_bytes.max(64);
        o
    }
}

/// One key's version chain: `(seq, value-or-tombstone)` ascending by seq.
type Chain = Vec<(u64, Option<Vec<u8>>)>;

fn chain_find(chain: Option<&Chain>, at_seq: u64) -> Option<(u64, Option<Vec<u8>>)> {
    chain?
        .iter()
        .rev()
        .find(|(s, _)| *s <= at_seq)
        .cloned()
}

struct Memtable {
    map: BTreeMap<Vec<u8>, Chain>,
    bytes: usize,
    /// WAL generations whose records live in this memtable (several after
    /// recovery merges surviving stripes); retired together at flush.
    gens: Vec<u64>,
    max_seq: u64,
}

impl Memtable {
    fn new(gens: Vec<u64>) -> Self {
        Memtable {
            map: BTreeMap::new(),
            bytes: 0,
            gens,
            max_seq: 0,
        }
    }

    fn insert(&mut self, key: Vec<u8>, seq: u64, value: Option<Vec<u8>>) {
        self.bytes += key.len() + value.as_ref().map_or(0, Vec::len) + 48;
        self.max_seq = self.max_seq.max(seq);
        let chain = self.map.entry(key).or_default();
        match chain.last_mut() {
            // Same batch re-wrote the key: collapse so seqs stay unique.
            Some((s, v)) if *s == seq => *v = value,
            _ => chain.push((seq, value)),
        }
    }
}

struct WalHandle {
    gen: u64,
    file: Box<dyn BackendFile>,
}

struct ShardState {
    active: Memtable,
    /// Oldest at the front; flushed front-first to keep segment order.
    immutables: VecDeque<Arc<Memtable>>,
    /// Oldest..newest. Size-tiered compaction folds a suffix run of
    /// similar-sized segments (the whole list when forced); flush
    /// appends. Behind an `Arc` so the read path snapshots the list
    /// with a refcount bump instead of cloning the vector.
    segments: Arc<Vec<Arc<Segment>>>,
}

struct Shard {
    state: RwLock<ShardState>,
    wal: Mutex<WalHandle>,
    manifest: Mutex<Box<dyn BackendFile>>,
    next_seg_id: AtomicU64,
}

struct WorkState {
    pending: bool,
    shutdown: bool,
}

// ---------------------------------------------------------------------------
// Manifest and WAL-fragment wire formats (all CRC-framed via `log`).
// ---------------------------------------------------------------------------

enum ManifestRec {
    /// A new WAL generation began for this shard.
    NewWal { gen: u64 },
    /// A memtable flushed into segment `id`; `retired` generations are
    /// fully covered by it (recorded atomically so a crash can't retire
    /// a WAL without its segment, or vice versa).
    Flush {
        id: u64,
        max_seq: u64,
        retired: Vec<u64>,
    },
    /// Segments `removed` were folded into `added`.
    Compact {
        added: u64,
        max_seq: u64,
        removed: Vec<u64>,
    },
}

impl ManifestRec {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ManifestRec::NewWal { gen } => {
                out.push(1);
                out.extend_from_slice(&gen.to_le_bytes());
            }
            ManifestRec::Flush {
                id,
                max_seq,
                retired,
            } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&max_seq.to_le_bytes());
                out.extend_from_slice(&(retired.len() as u32).to_le_bytes());
                for g in retired {
                    out.extend_from_slice(&g.to_le_bytes());
                }
            }
            ManifestRec::Compact {
                added,
                max_seq,
                removed,
            } => {
                out.push(3);
                out.extend_from_slice(&added.to_le_bytes());
                out.extend_from_slice(&max_seq.to_le_bytes());
                out.extend_from_slice(&(removed.len() as u32).to_le_bytes());
                for id in removed {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<ManifestRec, StoreError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            if *pos + n > payload.len() {
                return Err(StoreError::Corrupt);
            }
            let s = &payload[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let u64_at = |pos: &mut usize| -> Result<u64, StoreError> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
        };
        let tag = take(&mut pos, 1)?[0];
        let rec = match tag {
            1 => ManifestRec::NewWal {
                gen: u64_at(&mut pos)?,
            },
            2 => {
                let id = u64_at(&mut pos)?;
                let max_seq = u64_at(&mut pos)?;
                let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
                let mut retired = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    retired.push(u64_at(&mut pos)?);
                }
                ManifestRec::Flush {
                    id,
                    max_seq,
                    retired,
                }
            }
            3 => {
                let added = u64_at(&mut pos)?;
                let max_seq = u64_at(&mut pos)?;
                let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
                let mut removed = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    removed.push(u64_at(&mut pos)?);
                }
                ManifestRec::Compact {
                    added,
                    max_seq,
                    removed,
                }
            }
            _ => return Err(StoreError::Corrupt),
        };
        if pos != payload.len() {
            return Err(StoreError::Corrupt);
        }
        Ok(rec)
    }
}

fn encode_fragment(seq: u64, declared: &[u32], ops: &[(Vec<u8>, Option<Vec<u8>>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(declared.len() as u32).to_le_bytes());
    for s in declared {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for (key, value) in ops {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        match value {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
    out
}

type FragmentOps = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// A merge map of best-so-far versions keyed by key.
type MergeMap = BTreeMap<Vec<u8>, Versioned>;

/// Resolved live key/value pairs, as returned by scans.
type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

fn decode_fragment(payload: &[u8]) -> Result<(u64, Vec<u32>, FragmentOps), StoreError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        if *pos + n > payload.len() {
            return Err(StoreError::Corrupt);
        }
        let s = &payload[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    let n_decl = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    let mut declared = Vec::with_capacity(n_decl as usize);
    for _ in 0..n_decl {
        declared.push(u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()));
    }
    let n_ops = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    let mut ops = Vec::with_capacity(n_ops as usize);
    for _ in 0..n_ops {
        let klen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let key = take(&mut pos, klen)?.to_vec();
        let value = match take(&mut pos, 1)?[0] {
            1 => {
                let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                Some(take(&mut pos, vlen)?.to_vec())
            }
            0 => None,
            _ => return Err(StoreError::Corrupt),
        };
        ops.push((key, value));
    }
    if pos != payload.len() {
        return Err(StoreError::Corrupt);
    }
    Ok((seq, declared, ops))
}

enum LsmFile {
    Tmp,
    Wal(usize, u64),
    Seg(usize, u64),
}

fn parse_lsm_name(name: &str) -> Option<LsmFile> {
    if !name.starts_with("lsm-") {
        return None;
    }
    if name.ends_with(".tmp") {
        return Some(LsmFile::Tmp);
    }
    if let Some(rest) = name
        .strip_prefix("lsm-wal-")
        .and_then(|r| r.strip_suffix(".log"))
    {
        let (s, g) = rest.split_once('-')?;
        return Some(LsmFile::Wal(s.parse().ok()?, g.parse().ok()?));
    }
    if let Some(rest) = name.strip_prefix("lsm-seg-") {
        let rest = rest
            .strip_suffix(".dat")
            .or_else(|| rest.strip_suffix(".idx"))?;
        let (s, id) = rest.split_once('-')?;
        return Some(LsmFile::Seg(s.parse().ok()?, id.parse().ok()?));
    }
    None
}

/// The shard count is pinned on first open: key→shard placement is a
/// durable property of the directory, not a tuning knob.
fn read_or_init_shards(backend: &dyn Backend, shards: usize) -> Result<usize, StoreError> {
    if backend.exists(META_FILE)? {
        let mut f = backend.open(META_FILE)?;
        let (records, _) = log::read_all(f.as_mut())?;
        if let Some(p) = records.first() {
            if p.len() == 4 {
                let n = u32::from_le_bytes(p[..4].try_into().unwrap()) as usize;
                if n > 0 {
                    return Ok(n);
                }
            }
        }
    }
    let tmp = segment::tmp_name(META_FILE);
    backend.remove(&tmp)?;
    let mut f = backend.open(&tmp)?;
    log::append_record(f.as_mut(), &(shards as u32).to_le_bytes())?;
    f.sync()?;
    drop(f);
    backend.rename(&tmp, META_FILE)?;
    Ok(shards)
}

// ---------------------------------------------------------------------------
// Recovery bookkeeping.
// ---------------------------------------------------------------------------

struct ShardRecovery {
    live_gens: BTreeSet<u64>,
    /// `(id, max_seq)` oldest..newest after folding compactions.
    segs: Vec<(u64, u64)>,
    /// Highest seq durably captured in this shard's segments.
    flushed_seq: u64,
    next_seg_id: u64,
    next_gen: u64,
}

fn read_manifest(backend: &dyn Backend, shard: usize) -> Result<ShardRecovery, StoreError> {
    let mut f = backend.open(&manifest_name(shard))?;
    let (records, good_end) = log::read_all(f.as_mut())?;
    if good_end < f.len()? {
        f.truncate(good_end)?;
    }
    let mut rec = ShardRecovery {
        live_gens: BTreeSet::new(),
        segs: Vec::new(),
        flushed_seq: 0,
        next_seg_id: 1,
        next_gen: 1,
    };
    for payload in &records {
        match ManifestRec::decode(payload)? {
            ManifestRec::NewWal { gen } => {
                rec.live_gens.insert(gen);
                rec.next_gen = rec.next_gen.max(gen + 1);
            }
            ManifestRec::Flush {
                id,
                max_seq,
                retired,
            } => {
                for g in &retired {
                    rec.live_gens.remove(g);
                    rec.next_gen = rec.next_gen.max(g + 1);
                }
                rec.segs.push((id, max_seq));
                rec.flushed_seq = rec.flushed_seq.max(max_seq);
                rec.next_seg_id = rec.next_seg_id.max(id + 1);
            }
            ManifestRec::Compact {
                added,
                max_seq,
                removed,
            } => {
                let gone: HashSet<u64> = removed.iter().copied().collect();
                let pos = rec
                    .segs
                    .iter()
                    .position(|(id, _)| gone.contains(id))
                    .unwrap_or(0);
                rec.segs.retain(|(id, _)| !gone.contains(id));
                let pos = pos.min(rec.segs.len());
                rec.segs.insert(pos, (added, max_seq));
                rec.flushed_seq = rec.flushed_seq.max(max_seq);
                rec.next_seg_id = rec.next_seg_id.max(added + 1);
                for id in &removed {
                    rec.next_seg_id = rec.next_seg_id.max(id + 1);
                }
            }
        }
    }
    Ok(rec)
}

struct Fragment {
    shard: usize,
    declared: Vec<u32>,
    ops: FragmentOps,
}

struct StripeInfo {
    shard: usize,
    gen: u64,
    /// `(seq, end offset)` per intact record, append order.
    recs: Vec<(u64, u64)>,
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

struct LsmInner {
    backend: Arc<dyn Backend>,
    opts: LsmOptions,
    sync_writes: bool,
    shards: Vec<Shard>,
    /// Serializes commits (seq assignment + WAL + memtable + merkle).
    commit: Mutex<()>,
    seq: AtomicU64,
    merkle: Mutex<StateRoot>,
    snapshots: Mutex<BTreeMap<u64, usize>>,
    cache: BlockCache,
    stats: StorageStats,
    uid_counter: AtomicU64,
    /// Serializes flush/compaction so exactly one drainer runs at a time.
    maintenance: Mutex<()>,
    work: StdMutex<WorkState>,
    work_cv: Condvar,
    /// First background I/O failure; surfaces on subsequent writes.
    poison: Mutex<Option<String>>,
}

/// The sharded LSM engine behind [`StateStore`].
///
/// Trait-level `get`/`scan` swallow backend I/O errors (returning absent
/// data) after recording them; the next `write`/`flush`/`checkpoint`
/// reports the failure. The fallible paths used by commits (`get_at`)
/// propagate errors directly.
pub struct LsmStore {
    inner: Arc<LsmInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl LsmStore {
    /// Opens (and crash-recovers) an LSM store over `backend`.
    pub fn open(
        backend: Arc<dyn Backend>,
        sync_writes: bool,
        options: &LsmOptions,
    ) -> Result<LsmStore, StoreError> {
        let mut opts = options.normalized();
        opts.shards = read_or_init_shards(backend.as_ref(), opts.shards)?;
        let nshards = opts.shards;
        let stats = StorageStats::new();
        let cache = BlockCache::new(opts.cache_bytes, opts.cache_shards, stats.clone());
        let uid_counter = AtomicU64::new(1);

        let mut recoveries = Vec::with_capacity(nshards);
        for s in 0..nshards {
            recoveries.push(read_manifest(backend.as_ref(), s)?);
        }

        // Anything not referenced by a manifest is an orphan from a crash
        // between file creation and its commit record.
        for name in backend.list()? {
            let doomed = match parse_lsm_name(&name) {
                Some(LsmFile::Tmp) => true,
                Some(LsmFile::Wal(s, g)) => {
                    s < nshards && !recoveries[s].live_gens.contains(&g)
                }
                Some(LsmFile::Seg(s, id)) => {
                    s < nshards && !recoveries[s].segs.iter().any(|(i, _)| *i == id)
                }
                None => false,
            };
            if doomed {
                backend.remove(&name)?;
            }
        }

        // Open segments and read surviving WAL stripes.
        let mut segments_by_shard: Vec<Vec<Arc<Segment>>> = Vec::with_capacity(nshards);
        let mut frags: BTreeMap<u64, Vec<Fragment>> = BTreeMap::new();
        let mut stripes: Vec<StripeInfo> = Vec::new();
        for (s, rec) in recoveries.iter().enumerate() {
            let mut segments = Vec::with_capacity(rec.segs.len());
            for (id, _) in &rec.segs {
                segments.push(Arc::new(Segment::open(
                    backend.as_ref(),
                    s,
                    *id,
                    uid_counter.fetch_add(1, Ordering::Relaxed),
                )?));
            }
            segments_by_shard.push(segments);
            for &gen in &rec.live_gens {
                let mut f = backend.open(&wal_name(s, gen))?;
                let (records, good_end) = log::read_all(f.as_mut())?;
                if good_end < f.len()? {
                    f.truncate(good_end)?;
                }
                let mut recs = Vec::with_capacity(records.len());
                let mut off = 0u64;
                for payload in &records {
                    let end = off + 8 + payload.len() as u64;
                    let (fseq, declared, ops) = decode_fragment(payload)?;
                    frags.entry(fseq).or_default().push(Fragment {
                        shard: s,
                        declared,
                        ops,
                    });
                    recs.push((fseq, end));
                    off = end;
                }
                stripes.push(StripeInfo { shard: s, gen, recs });
            }
        }

        // Commit rule: a seq is durable iff every declared shard has its
        // fragment or flushed past it; apply the contiguous committed
        // prefix and discard (truncate) everything after the first hole.
        let base = recoveries.iter().map(|r| r.flushed_seq).max().unwrap_or(0);
        let mut cut = u64::MAX;
        let mut expected = base + 1;
        for (&fseq, fs) in &frags {
            if fseq > base && fseq != expected {
                cut = fseq;
                break;
            }
            let complete = fs[0].declared.iter().all(|&t| {
                let t = t as usize;
                t < nshards
                    && (fs.iter().any(|f| f.shard == t) || fseq <= recoveries[t].flushed_seq)
            });
            if !complete {
                cut = fseq;
                break;
            }
            if fseq > base {
                expected += 1;
            }
        }
        for stripe in &stripes {
            let keep = stripe
                .recs
                .iter()
                .filter(|(q, _)| *q < cut)
                .map(|(_, e)| *e)
                .max()
                .unwrap_or(0);
            let total = stripe.recs.last().map(|(_, e)| *e).unwrap_or(0);
            if keep < total {
                let mut f = backend.open(&wal_name(stripe.shard, stripe.gen))?;
                f.truncate(keep)?;
            }
        }

        // Build shards; the active memtable adopts every surviving live
        // generation (they all retire together at its flush).
        let mut shards = Vec::with_capacity(nshards);
        for (s, rec) in recoveries.iter().enumerate() {
            let mut manifest = backend.open(&manifest_name(s))?;
            let (active_gens, wal_gen) = if rec.live_gens.is_empty() {
                let gen = rec.next_gen;
                log::append_record(
                    manifest.as_mut(),
                    &ManifestRec::NewWal { gen }.encode(),
                )?;
                manifest.sync()?;
                (vec![gen], gen)
            } else {
                let gens: Vec<u64> = rec.live_gens.iter().copied().collect();
                let newest = *gens.last().expect("non-empty");
                (gens, newest)
            };
            let wal_file = backend.open(&wal_name(s, wal_gen))?;
            shards.push(Shard {
                state: RwLock::new(ShardState {
                    active: Memtable::new(active_gens),
                    immutables: VecDeque::new(),
                    segments: Arc::new(std::mem::take(&mut segments_by_shard[s])),
                }),
                wal: Mutex::new(WalHandle {
                    gen: wal_gen,
                    file: wal_file,
                }),
                manifest: Mutex::new(manifest),
                next_seg_id: AtomicU64::new(rec.next_seg_id),
            });
        }

        // Apply the committed prefix.
        let mut last = base;
        for (&fseq, fs) in &frags {
            if fseq >= cut {
                break;
            }
            for f in fs {
                if fseq > recoveries[f.shard].flushed_seq {
                    let mut st = shards[f.shard].state.write();
                    for (k, v) in &f.ops {
                        st.active.insert(k.clone(), fseq, v.clone());
                    }
                }
            }
            last = last.max(fseq);
        }

        let inner = Arc::new(LsmInner {
            backend,
            opts: opts.clone(),
            sync_writes,
            shards,
            commit: Mutex::new(()),
            seq: AtomicU64::new(last),
            merkle: Mutex::new(StateRoot::empty()),
            snapshots: Mutex::new(BTreeMap::new()),
            cache,
            stats,
            uid_counter,
            maintenance: Mutex::new(()),
            work: StdMutex::new(WorkState {
                pending: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            poison: Mutex::new(None),
        });

        // State root: reuse the persisted accumulators when their stamp
        // matches the recovered seq; otherwise rebuild from a full scan.
        let tree = match StateRoot::load_if_current(inner.backend.as_ref(), last)? {
            Some(tree) => tree,
            None => {
                let dump = inner.scan_at(b"", b"", u64::MAX)?;
                StateRoot::from_entries(dump.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
            }
        };
        *inner.merkle.lock() = tree;

        let worker = if opts.background {
            let w = inner.clone();
            Some(std::thread::spawn(move || worker_loop(&w)))
        } else {
            None
        };
        Ok(LsmStore { inner, worker })
    }
}

fn worker_loop(inner: &Arc<LsmInner>) {
    loop {
        {
            let mut ws = inner.work.lock().expect("work lock");
            while !ws.pending && !ws.shutdown {
                ws = inner.work_cv.wait(ws).expect("work wait");
            }
            if ws.shutdown {
                return;
            }
            ws.pending = false;
        }
        if let Err(e) = inner.drain() {
            inner.poison.lock().get_or_insert_with(|| format!("{e}"));
        }
        inner.work_cv.notify_all();
    }
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        if let Some(handle) = self.worker.take() {
            if let Ok(mut ws) = self.inner.work.lock() {
                ws.shutdown = true;
            }
            self.inner.work_cv.notify_all();
            handle.join().ok();
        }
    }
}

fn collect_map(
    map: &BTreeMap<Vec<u8>, Chain>,
    start: &[u8],
    end: &[u8],
    at_seq: u64,
    best: &mut MergeMap,
) {
    let upper: std::ops::Bound<&[u8]> = if end.is_empty() {
        std::ops::Bound::Unbounded
    } else {
        std::ops::Bound::Excluded(end)
    };
    for (k, chain) in map.range::<[u8], _>((std::ops::Bound::Included(start), upper)) {
        if let Some((s, v)) = chain_find(Some(chain), at_seq) {
            match best.get_mut(k) {
                Some(slot) if slot.0 >= s => {}
                Some(slot) => *slot = (s, v),
                None => {
                    best.insert(k.clone(), (s, v));
                }
            }
        }
    }
}

impl LsmInner {
    fn shard_of(&self, key: &[u8]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // High bits: decorrelated from the Merkle bucket hash (low bits).
        ((h >> 32) as usize) & (self.shards.len() - 1)
    }

    fn check_poison(&self) -> Result<(), StoreError> {
        match &*self.poison.lock() {
            Some(msg) => Err(StoreError::Io(std::io::Error::other(format!(
                "storage background failure: {msg}"
            )))),
            None => Ok(()),
        }
    }

    fn get_at(&self, key: &[u8], at_seq: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let shard = &self.shards[self.shard_of(key)];
        let segs: Arc<Vec<Arc<Segment>>> = {
            let st = shard.state.read();
            if let Some((_, v)) = chain_find(st.active.map.get(key), at_seq) {
                return Ok(v);
            }
            for imm in st.immutables.iter().rev() {
                if let Some((_, v)) = chain_find(imm.map.get(key), at_seq) {
                    return Ok(v);
                }
            }
            Arc::clone(&st.segments)
        };
        // Newest segment first: per key, newer segments hold strictly
        // newer versions, so the first hit is definitive.
        for seg in segs.iter().rev() {
            if let Some((_, v)) = seg.lookup(key, at_seq, Some((&self.cache, &self.stats)))? {
                return Ok(v);
            }
        }
        Ok(None)
    }

    fn scan_at(
        &self,
        start: &[u8],
        end: &[u8],
        at_seq: u64,
    ) -> Result<KvPairs, StoreError> {
        let mut best: MergeMap = BTreeMap::new();
        for shard in &self.shards {
            let segs: Arc<Vec<Arc<Segment>>> = {
                let st = shard.state.read();
                collect_map(&st.active.map, start, end, at_seq, &mut best);
                for imm in &st.immutables {
                    collect_map(&imm.map, start, end, at_seq, &mut best);
                }
                Arc::clone(&st.segments)
            };
            for seg in segs.iter() {
                seg.scan_into(
                    start,
                    end,
                    at_seq,
                    &mut best,
                    Some((&self.cache, &self.stats)),
                )?;
            }
        }
        Ok(best
            .into_iter()
            .filter_map(|(k, (_, v))| v.map(|v| (k, v)))
            .collect())
    }

    /// Rotates `shard`'s active memtable into the immutable queue and
    /// starts a fresh WAL generation. Caller holds the commit lock.
    fn rotate_shard(&self, s: usize) -> Result<(), StoreError> {
        let shard = &self.shards[s];
        let mut st = shard.state.write();
        if st.active.map.is_empty() {
            return Ok(());
        }
        let mut wal = shard.wal.lock();
        let next_gen = wal.gen + 1;
        {
            let mut mf = shard.manifest.lock();
            log::append_record(mf.as_mut(), &ManifestRec::NewWal { gen: next_gen }.encode())?;
            mf.sync()?;
        }
        let file = self.backend.open(&wal_name(s, next_gen))?;
        *wal = WalHandle {
            gen: next_gen,
            file,
        };
        drop(wal);
        let imm = std::mem::replace(&mut st.active, Memtable::new(vec![next_gen]));
        st.immutables.push_back(Arc::new(imm));
        Ok(())
    }

    /// Flushes the oldest immutable memtable of `shard`, if any.
    fn flush_shard_once(&self, s: usize) -> Result<bool, StoreError> {
        let shard = &self.shards[s];
        let Some(imm) = shard.state.read().immutables.front().cloned() else {
            return Ok(false);
        };
        let t0 = Instant::now();
        let id = shard.next_seg_id.fetch_add(1, Ordering::Relaxed);
        let mut entries: Vec<SegEntry> = Vec::new();
        for (k, chain) in &imm.map {
            for (sq, v) in chain {
                entries.push((k.clone(), *sq, v.clone()));
            }
        }
        let meta =
            segment::write_segment(self.backend.as_ref(), s, id, self.opts.block_bytes, &entries)?;
        debug_assert_eq!(meta.max_seq, imm.max_seq);
        debug_assert_eq!(meta.entries as usize, entries.len());
        {
            let mut mf = shard.manifest.lock();
            log::append_record(
                mf.as_mut(),
                &ManifestRec::Flush {
                    id,
                    max_seq: meta.max_seq,
                    retired: imm.gens.clone(),
                }
                .encode(),
            )?;
            mf.sync()?;
        }
        let seg = Segment::open(
            self.backend.as_ref(),
            s,
            id,
            self.uid_counter.fetch_add(1, Ordering::Relaxed),
        )?;
        {
            let mut st = shard.state.write();
            st.immutables.pop_front();
            Arc::make_mut(&mut st.segments).push(Arc::new(seg));
        }
        for gen in &imm.gens {
            self.backend.remove(&wal_name(s, *gen))?;
        }
        self.stats.flushed(meta.bytes, t0.elapsed());
        self.work_cv.notify_all();
        Ok(true)
    }

    /// Size-tiered compaction: folds a suffix run of `shard`'s newest,
    /// similar-sized segments into one, dropping versions no snapshot can
    /// observe. When the run reaches back to the shard's oldest segment
    /// (always under `force`), dead tombstones are garbage-collected too —
    /// a partial fold must keep them, because older segments may still
    /// hold live versions of the same key.
    fn compact_shard(&self, s: usize, force: bool) -> Result<bool, StoreError> {
        let shard = &self.shards[s];
        let segs: Arc<Vec<Arc<Segment>>> = Arc::clone(&shard.state.read().segments);
        let threshold = if force { 2 } else { self.opts.compact_trigger };
        if segs.len() < threshold {
            return Ok(false);
        }
        // Walk newest-first, extending the run while the next (older)
        // segment is no more than 4x the bytes accumulated so far. Small
        // deltas merge geometrically without rewriting the shard's base.
        let start = if force {
            0
        } else {
            let mut start = segs.len() - 1;
            let mut acc = segs[start].bytes;
            while start > 0 && segs[start - 1].bytes <= acc.saturating_mul(4) {
                start -= 1;
                acc += segs[start].bytes;
            }
            // Fold at least the newest two: `has_work` keys off the
            // segment count alone, so declining would spin the worker.
            start.min(segs.len() - 2)
        };
        let full = start == 0;
        let inputs = &segs[start..];
        let t0 = Instant::now();
        let horizon = {
            let snaps = self.snapshots.lock();
            snaps.keys().next().copied().unwrap_or(u64::MAX)
        }
        .min(self.seq.load(Ordering::Acquire));

        let mut merged: BTreeMap<Vec<u8>, Chain> = BTreeMap::new();
        for seg in inputs {
            for (k, sq, v) in seg.iter_all()? {
                merged.entry(k).or_default().push((sq, v));
            }
        }
        let mut dropped = 0u64;
        let mut entries: Vec<SegEntry> = Vec::new();
        for (k, mut chain) in merged {
            let keep_from = chain
                .iter()
                .rposition(|(sq, _)| *sq <= horizon)
                .unwrap_or_default();
            dropped += keep_from as u64;
            chain.drain(..keep_from);
            if full && chain.len() == 1 && chain[0].1.is_none() && chain[0].0 <= horizon {
                dropped += 1;
                continue;
            }
            for (sq, v) in chain {
                entries.push((k.clone(), sq, v));
            }
        }

        let id = shard.next_seg_id.fetch_add(1, Ordering::Relaxed);
        let meta =
            segment::write_segment(self.backend.as_ref(), s, id, self.opts.block_bytes, &entries)?;
        // The high-water mark must not regress even if the newest version
        // was a GC'd tombstone.
        let max_seq = inputs.iter().map(|g| g.max_seq).max().unwrap_or(0);
        {
            let mut mf = shard.manifest.lock();
            log::append_record(
                mf.as_mut(),
                &ManifestRec::Compact {
                    added: id,
                    max_seq,
                    removed: inputs.iter().map(|g| g.id).collect(),
                }
                .encode(),
            )?;
            mf.sync()?;
        }
        let seg = Segment::open(
            self.backend.as_ref(),
            s,
            id,
            self.uid_counter.fetch_add(1, Ordering::Relaxed),
        )?;
        {
            // `inputs` still sits at `start..` in the live list: only the
            // single drainer (under the maintenance lock) mutates
            // segments, so nothing was appended or folded since the
            // snapshot above.
            let mut st = shard.state.write();
            Arc::make_mut(&mut st.segments).splice(start..start + inputs.len(), [Arc::new(seg)]);
        }
        for old in inputs {
            self.backend.remove(&segment::data_name(s, old.id))?;
            self.backend.remove(&segment::index_name(s, old.id))?;
        }
        self.stats.compacted(meta.bytes, dropped, t0.elapsed());
        Ok(true)
    }

    /// Runs flush and compaction until no work remains. Safe to call from
    /// any thread; the maintenance lock admits one drainer at a time.
    fn drain(&self) -> Result<(), StoreError> {
        let _m = self.maintenance.lock();
        loop {
            let mut did = false;
            for s in 0..self.shards.len() {
                while self.flush_shard_once(s)? {
                    did = true;
                }
                if self.compact_shard(s, false)? {
                    did = true;
                }
            }
            if !did {
                return Ok(());
            }
        }
    }

    fn has_work(&self) -> bool {
        self.shards.iter().any(|s| {
            let st = s.state.read();
            !st.immutables.is_empty() || st.segments.len() >= self.opts.compact_trigger
        })
    }

    fn signal(&self) {
        if let Ok(mut ws) = self.work.lock() {
            ws.pending = true;
        }
        self.work_cv.notify_all();
    }

    /// Backpressure: blocks while any written shard has more immutables
    /// than allowed, crediting the wait to the stall counters.
    fn stall_if_needed(&self, ids: &[usize]) -> Result<(), StoreError> {
        let over = |ids: &[usize]| {
            ids.iter()
                .any(|&s| self.shards[s].state.read().immutables.len() > self.opts.max_immutables)
        };
        if !over(ids) {
            return Ok(());
        }
        let t0 = Instant::now();
        while over(ids) {
            self.check_poison()?;
            self.signal();
            if let Ok(ws) = self.work.lock() {
                let _ = self.work_cv.wait_timeout(ws, Duration::from_millis(5));
            }
        }
        self.stats.stalled(t0.elapsed());
        Ok(())
    }
}

impl StateStore for LsmStore {
    fn name(&self) -> &'static str {
        "lsm"
    }

    fn write(&self, batch: WriteBatch) -> Result<u64, StoreError> {
        let inner = &self.inner;
        inner.check_poison()?;
        if batch.is_empty() {
            return Ok(inner.seq.load(Ordering::Acquire));
        }
        let ops = batch.into_ops();
        let commit = inner.commit.lock();
        let seq = inner.seq.load(Ordering::Acquire) + 1;

        // Merkle pre-images resolve through the normal read path (cache
        // and segments included) before anything mutates.
        let mut read_err: Option<StoreError> = None;
        let transitions = batch_transitions(&ops, |k| match inner.get_at(k, u64::MAX) {
            Ok(v) => v,
            Err(e) => {
                read_err.get_or_insert(e);
                None
            }
        });
        if let Some(e) = read_err {
            return Err(e);
        }

        let mut per_shard: BTreeMap<usize, FragmentOps> = BTreeMap::new();
        for (k, v) in ops {
            let s = inner.shard_of(&k);
            per_shard.entry(s).or_default().push((k, v));
        }
        let declared: Vec<u32> = per_shard.keys().map(|&s| s as u32).collect();

        for (&s, sops) in &per_shard {
            let frag = encode_fragment(seq, &declared, sops);
            let mut wal = inner.shards[s].wal.lock();
            log::append_record(wal.file.as_mut(), &frag)?;
            if inner.sync_writes {
                wal.file.sync()?;
            }
        }
        for (&s, sops) in &per_shard {
            let mut st = inner.shards[s].state.write();
            for (k, v) in sops {
                st.active.insert(k.clone(), seq, v.clone());
            }
        }
        inner.merkle.lock().apply(&transitions);
        inner.seq.store(seq, Ordering::Release);

        for &s in per_shard.keys() {
            let full = inner.shards[s].state.read().active.bytes >= inner.opts.memtable_bytes;
            if full {
                inner.rotate_shard(s)?;
            }
        }
        drop(commit);

        if inner.opts.background {
            if inner.has_work() {
                inner.signal();
            }
            let ids: Vec<usize> = per_shard.keys().copied().collect();
            inner.stall_if_needed(&ids)?;
        } else {
            inner.drain()?;
        }
        Ok(seq)
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        match self.inner.get_at(key, u64::MAX) {
            Ok(v) => v,
            Err(e) => {
                self.inner
                    .poison
                    .lock()
                    .get_or_insert_with(|| format!("{e}"));
                None
            }
        }
    }

    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self.inner.scan_at(start, end, u64::MAX) {
            Ok(v) => v,
            Err(e) => {
                self.inner
                    .poison
                    .lock()
                    .get_or_insert_with(|| format!("{e}"));
                Vec::new()
            }
        }
    }

    fn snapshot(&self) -> Box<dyn StateSnapshot> {
        let mut snaps = self.inner.snapshots.lock();
        let seq = self.inner.seq.load(Ordering::Acquire);
        *snaps.entry(seq).or_insert(0) += 1;
        drop(snaps);
        Box::new(LsmSnapshot {
            inner: self.inner.clone(),
            seq,
        })
    }

    fn last_seq(&self) -> u64 {
        self.inner.seq.load(Ordering::Acquire)
    }

    fn state_root(&self) -> Digest {
        self.inner.merkle.lock().root()
    }

    /// Checkpoint without blocking commits: rotate every non-empty
    /// memtable (brief commit-lock hold, no I/O beyond a manifest append),
    /// flush from the immutables while writers keep committing into fresh
    /// memtables, then stamp and persist the Merkle accumulators.
    fn checkpoint(&self) -> Result<(), StoreError> {
        let inner = &self.inner;
        inner.check_poison()?;
        {
            let _commit = inner.commit.lock();
            for s in 0..inner.shards.len() {
                let dirty = !inner.shards[s].state.read().active.map.is_empty();
                if dirty {
                    inner.rotate_shard(s)?;
                }
            }
        }
        inner.drain()?;
        let _commit = inner.commit.lock();
        let seq = inner.seq.load(Ordering::Acquire);
        inner.merkle.lock().persist(inner.backend.as_ref(), seq)
    }

    fn compact(&self) -> Result<(), StoreError> {
        let inner = &self.inner;
        inner.check_poison()?;
        inner.drain()?;
        let _m = inner.maintenance.lock();
        for s in 0..inner.shards.len() {
            inner.compact_shard(s, true)?;
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.inner.check_poison()?;
        self.inner.drain()
    }

    fn stats(&self) -> StorageSnapshot {
        self.inner.stats.snapshot()
    }

    fn len(&self) -> usize {
        self.scan(b"", b"").len()
    }
}

struct LsmSnapshot {
    inner: Arc<LsmInner>,
    seq: u64,
}

impl StateSnapshot for LsmSnapshot {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get_at(key, self.seq).unwrap_or(None)
    }
    fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner
            .scan_at(start, end, self.seq)
            .unwrap_or_default()
    }
}

impl Drop for LsmSnapshot {
    fn drop(&mut self) {
        let mut snaps = self.inner.snapshots.lock();
        if let Some(count) = snaps.get_mut(&self.seq) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::merkle::root_of_entries;

    fn small_store(backend: Arc<MemBackend>) -> LsmStore {
        LsmStore::open(backend, false, &LsmOptions::small()).unwrap()
    }

    fn put(store: &LsmStore, k: impl Into<Vec<u8>>, v: impl Into<Vec<u8>>) {
        let mut b = WriteBatch::new();
        b.put(k, v);
        store.write(b).unwrap();
    }

    fn del(store: &LsmStore, k: impl Into<Vec<u8>>) {
        let mut b = WriteBatch::new();
        b.delete(k);
        store.write(b).unwrap();
    }

    #[test]
    fn put_get_delete_across_flushes() {
        let store = small_store(Arc::new(MemBackend::new()));
        for i in 0..100 {
            put(&store, format!("key-{i:03}"), format!("val-{i}"));
        }
        del(&store, "key-050");
        // Small limits guarantee data went through segments.
        assert!(store.stats().flushes > 0);
        assert_eq!(store.get(b"key-000"), Some(b"val-0".to_vec()));
        assert_eq!(store.get(b"key-099"), Some(b"val-99".to_vec()));
        assert_eq!(store.get(b"key-050"), None);
        assert_eq!(store.scan(b"", b"").len(), 99);
        assert_eq!(store.len(), 99);
    }

    #[test]
    fn snapshot_isolation_across_layers() {
        let store = small_store(Arc::new(MemBackend::new()));
        for i in 0..40 {
            put(&store, format!("k{i:02}"), "old");
        }
        let snap = store.snapshot();
        for i in 0..40 {
            put(&store, format!("k{i:02}"), "new");
        }
        del(&store, "k00");
        assert_eq!(snap.get(b"k00"), Some(b"old".to_vec()));
        assert_eq!(snap.get(b"k39"), Some(b"old".to_vec()));
        assert_eq!(store.get(b"k00"), None);
        assert_eq!(store.get(b"k39"), Some(b"new".to_vec()));
        assert_eq!(snap.scan(b"", b"").len(), 40);
        assert_eq!(store.scan(b"", b"").len(), 39);
    }

    #[test]
    fn recovery_replays_wal_and_segments() {
        let backend = Arc::new(MemBackend::new());
        {
            let store = small_store(backend.clone());
            for i in 0..60 {
                put(&store, format!("r{i:02}"), format!("v{i}"));
            }
            del(&store, "r10");
        }
        let store = small_store(backend);
        assert_eq!(store.get(b"r00"), Some(b"v0".to_vec()));
        assert_eq!(store.get(b"r59"), Some(b"v59".to_vec()));
        assert_eq!(store.get(b"r10"), None);
        assert_eq!(store.last_seq(), 61);
        assert_eq!(store.scan(b"", b"").len(), 59);
    }

    #[test]
    fn compaction_drops_dead_versions_and_tombstones() {
        let store = small_store(Arc::new(MemBackend::new()));
        for round in 0..6 {
            for i in 0..30 {
                put(&store, format!("c{i:02}"), format!("round-{round}"));
            }
        }
        for i in 0..30 {
            del(&store, format!("c{i:02}"));
        }
        store.compact().unwrap();
        let stats = store.stats();
        assert!(stats.compactions > 0);
        assert!(stats.dropped_versions > 0);
        assert_eq!(store.scan(b"", b"").len(), 0);
    }

    #[test]
    fn compaction_respects_live_snapshots() {
        let store = small_store(Arc::new(MemBackend::new()));
        for i in 0..30 {
            put(&store, format!("s{i:02}"), "v1");
        }
        store.flush().unwrap();
        let snap = store.snapshot();
        for i in 0..30 {
            put(&store, format!("s{i:02}"), "v2");
        }
        store.compact().unwrap();
        assert_eq!(snap.get(b"s00"), Some(b"v1".to_vec()));
        assert_eq!(store.get(b"s00"), Some(b"v2".to_vec()));
        drop(snap);
    }

    #[test]
    fn merkle_root_matches_oracle_continuously() {
        let store = small_store(Arc::new(MemBackend::new()));
        for i in 0..50 {
            put(&store, format!("m{i:02}"), format!("v{i}"));
            if i % 3 == 0 {
                del(&store, format!("m{:02}", i / 2));
            }
            let dump = store.scan(b"", b"");
            assert_eq!(store.state_root(), root_of_entries(&dump), "step {i}");
        }
    }

    #[test]
    fn checkpoint_then_reopen_reuses_root_and_state() {
        let backend = Arc::new(MemBackend::new());
        let root = {
            let store = small_store(backend.clone());
            for i in 0..40 {
                put(&store, format!("p{i:02}"), "x");
            }
            store.checkpoint().unwrap();
            store.state_root()
        };
        let store = small_store(backend);
        assert_eq!(store.state_root(), root);
        assert_eq!(store.scan(b"", b"").len(), 40);
    }

    #[test]
    fn multi_shard_batch_is_atomic() {
        let backend = Arc::new(MemBackend::new());
        {
            let store = small_store(backend.clone());
            let mut batch = WriteBatch::new();
            for i in 0..32 {
                batch.put(format!("atomic-{i}"), "v");
            }
            store.write(batch).unwrap();
        }
        let store = small_store(backend);
        assert_eq!(store.scan(b"", b"").len(), 32);
        assert_eq!(store.last_seq(), 1);
    }

    #[test]
    fn cache_serves_repeated_reads() {
        let store = small_store(Arc::new(MemBackend::new()));
        for i in 0..60 {
            put(&store, format!("h{i:02}"), format!("v{i}"));
        }
        store.flush().unwrap();
        for _ in 0..5 {
            for i in 0..60 {
                store.get(format!("h{i:02}").as_bytes());
            }
        }
        let stats = store.stats();
        assert!(stats.cache_hits > 0, "{stats:?}");
        assert!(stats.cache_hit_rate() > 0.5, "{stats:?}");
    }

    #[test]
    fn shard_count_is_pinned_on_disk() {
        let backend = Arc::new(MemBackend::new());
        {
            let store = small_store(backend.clone());
            for i in 0..40 {
                put(&store, format!("pin{i:02}"), "v");
            }
        }
        // Reopen asking for a different shard count: the pinned count wins.
        let mut opts = LsmOptions::small();
        opts.shards = 16;
        let store = LsmStore::open(backend, false, &opts).unwrap();
        assert_eq!(store.inner.shards.len(), 4);
        assert_eq!(store.scan(b"", b"").len(), 40);
    }

    #[test]
    fn torn_wal_tail_truncated_on_reopen() {
        let backend = Arc::new(MemBackend::new());
        {
            let store = small_store(backend.clone());
            put(&store, "good", "1");
        }
        // Corrupt: append garbage to every live stripe.
        for name in backend.list().unwrap() {
            if name.starts_with("lsm-wal-") {
                let mut f = backend.open(&name).unwrap();
                if f.len().unwrap() > 0 {
                    f.append(&[0xde, 0xad, 0xbe]).unwrap();
                }
            }
        }
        let store = small_store(backend);
        assert_eq!(store.get(b"good"), Some(b"1".to_vec()));
        put(&store, "after", "2");
        assert_eq!(store.get(b"after"), Some(b"2".to_vec()));
    }

    #[test]
    fn background_mode_round_trip() {
        let backend = Arc::new(MemBackend::new());
        let mut opts = LsmOptions::small();
        opts.background = true;
        {
            let store = LsmStore::open(backend.clone(), false, &opts).unwrap();
            for i in 0..200 {
                let mut b = WriteBatch::new();
                b.put(format!("bg{i:03}"), vec![7u8; 64]);
                store.write(b).unwrap();
            }
            store.flush().unwrap();
            assert_eq!(store.scan(b"", b"").len(), 200);
        }
        let store = LsmStore::open(backend, false, &opts).unwrap();
        assert_eq!(store.scan(b"", b"").len(), 200);
    }

    #[test]
    fn manifest_name_parsing() {
        assert!(matches!(parse_lsm_name("lsm-wal-3-12.log"), Some(LsmFile::Wal(3, 12))));
        assert!(matches!(parse_lsm_name("lsm-seg-0-7.dat"), Some(LsmFile::Seg(0, 7))));
        assert!(matches!(parse_lsm_name("lsm-seg-0-7.idx"), Some(LsmFile::Seg(0, 7))));
        assert!(matches!(parse_lsm_name("lsm-seg-0-7.dat.tmp"), Some(LsmFile::Tmp)));
        assert!(parse_lsm_name("lsm-manifest-0.log").is_none());
        assert!(parse_lsm_name("wal.log").is_none());
        assert!(parse_lsm_name("lsm-meta.log").is_none());
    }
}
