//! Flow control shared by every stage: the four small, orthogonal pieces
//! each ingress and each worker pool in the workspace is built from.
//!
//! * [`Scheduler`] — per-queue round robin over work items (the
//!   validation pipeline's channels, the endorsement pipeline's
//!   chaincodes).
//! * [`Pool`] — named threads draining a [`Scheduler`], with the one
//!   panic policy for pooled work.
//! * [`TokenBucket`] — integer, lazily refilled rate limiter (gossip
//!   senders per tick, gateway clients per millisecond).
//! * [`DedupWindow`] — bounded recently-seen set (gossip block pushes,
//!   gateway transaction ids).
//!
//! Validation is "embarrassingly parallel" work handed to a pool (paper
//! Sec. 3.4/5.2) and every boundary rate-limits and deduplicates what it
//! lets in (Sec. 4.3); this module is the one place those ideas are
//! written. Std-only: no clock is read here — callers pass `now`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Items (transactions, for both current users) a queue is served per
/// round-robin turn.
pub const DRR_QUANTUM: u64 = 32;

/// One queue's items, plus how many more it may serve this turn.
struct SchedQueue<T> {
    tasks: VecDeque<T>,
    turn_left: u64,
}

struct SchedState<T> {
    queues: HashMap<u64, SchedQueue<T>>,
    /// Slots with queued work, in round-robin order (head = being served).
    active: VecDeque<u64>,
    next_slot: u64,
    closed: bool,
}

/// A blocking multi-queue work scheduler: one queue per registered slot,
/// served round robin, up to [`DRR_QUANTUM`] items per turn. A queue
/// waking from idle re-enters at the *head* of the round with a full
/// turn, so sparse traffic starts as soon as a worker frees — its latency
/// is bounded by one in-flight item plus its own work, not by a sibling's
/// backlog.
pub struct Scheduler<T> {
    state: Mutex<SchedState<T>>,
    cv: Condvar,
}

impl<T> Default for Scheduler<T> {
    /// An open scheduler with no queues.
    fn default() -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                queues: HashMap::new(),
                active: VecDeque::new(),
                next_slot: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }
}

impl<T> Scheduler<T> {
    /// No caller code runs under this lock and every critical section
    /// leaves the queues consistent at each step, so a poisoned lock (a
    /// thread died while merely holding it) is still safe to use.
    fn lock(&self) -> MutexGuard<'_, SchedState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers an empty queue, returning its slot.
    pub fn register(&self) -> u64 {
        let mut state = self.lock();
        let slot = state.next_slot;
        state.next_slot += 1;
        state.queues.insert(
            slot,
            SchedQueue {
                tasks: VecDeque::new(),
                turn_left: 0,
            },
        );
        slot
    }

    /// Removes a queue, dropping any still-queued items. Only legal once
    /// the queue's producer has stopped (a graceful close drains the
    /// queue first; an abort abandons the items on purpose).
    pub fn deregister(&self, slot: u64) {
        let mut state = self.lock();
        state.queues.remove(&slot);
        state.active.retain(|s| *s != slot);
    }

    /// Queues one item for `slot`, returning the queue depth after the
    /// push (a per-queue gauge), or `None` if the scheduler is closed or
    /// the slot deregistered.
    pub fn submit(&self, slot: u64, item: T) -> Option<usize> {
        let mut state = self.lock();
        if state.closed {
            return None;
        }
        let queue = state.queues.get_mut(&slot)?;
        let was_empty = queue.tasks.is_empty();
        queue.tasks.push_back(item);
        let depth = queue.tasks.len();
        if was_empty {
            // Waking from idle: grant a full turn and enter at the head
            // of the round, so sparse traffic is served ahead of a
            // sibling's standing backlog.
            queue.turn_left = DRR_QUANTUM;
            state.active.push_front(slot);
        }
        self.cv.notify_one();
        Some(depth)
    }

    /// Blocks until an item is schedulable (or the scheduler is closed
    /// *and* drained, returning `None`). Workers call this in a loop.
    pub fn next(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = Self::dequeue(&mut state) {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn dequeue(state: &mut SchedState<T>) -> Option<T> {
        // Terminates: a queue rotated to the back gets a full turn, so
        // the next front queue can always serve.
        loop {
            let slot = *state.active.front()?;
            let queue = state.queues.get_mut(&slot).expect("active slot registered");
            if queue.turn_left > 0 {
                queue.turn_left -= 1;
                let item = queue.tasks.pop_front().expect("active queue non-empty");
                if queue.tasks.is_empty() {
                    state.active.pop_front();
                }
                return Some(item);
            }
            queue.turn_left = DRR_QUANTUM;
            state.active.rotate_left(1);
        }
    }

    /// Stops accepting new items and wakes every worker; queued items are
    /// still served until drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

/// A fixed set of named worker threads draining one [`Scheduler`].
///
/// Each item is processed in two steps: `run(&item)` does the work, then
/// `done(item, outcome)` consumes the item together with what `run`
/// returned. `run` executes under `catch_unwind`, so a panicking job
/// costs neither the worker nor the item: `done` still receives the item
/// (with `Err(panic payload)`) and answers whoever is waiting on it.
/// This is the one panic policy for pooled work: where a sequential path
/// would propagate the panic to its caller, a pooled job's `done` turns
/// it into that job's own failure (or re-raises it on the thread that
/// waits for the result) — never into a lost worker or a silent hang.
pub struct Pool<T> {
    sched: Arc<Scheduler<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawns `width` workers named `{name}-{i}`; `0` uses the host's
    /// available parallelism.
    pub fn new<R: 'static>(
        name: &str,
        width: usize,
        run: impl Fn(&T) -> R + Send + Sync + 'static,
        done: impl Fn(T, std::thread::Result<R>) + Send + Sync + 'static,
    ) -> Self {
        let width = match width {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            n => n,
        };
        let sched = Arc::new(Scheduler::default());
        let job = Arc::new((run, done));
        let workers = (0..width)
            .map(|i| {
                let sched = sched.clone();
                let job = job.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        let (run, done) = &*job;
                        while let Some(item) = sched.next() {
                            let outcome = catch_unwind(AssertUnwindSafe(|| run(&item)));
                            done(item, outcome);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { sched, workers }
    }
}

impl<T> Pool<T> {
    /// The scheduler feeding this pool: register a queue, then submit.
    pub fn scheduler(&self) -> &Arc<Scheduler<T>> {
        &self.sched
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Refuses new items, lets the workers drain every queued one, then
    /// joins them (and with them the `run`/`done` closures and whatever
    /// those own). Idempotent; `Drop` calls it.
    pub fn close(&mut self) {
        self.sched.close();
        for worker in self.workers.drain(..) {
            // A worker only dies if `done` itself panicked; that panic
            // was already reported on its thread.
            let _ = worker.join();
        }
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Integer token bucket, lazily refilled: tokens accrue at `rate` per
/// elapsed time unit up to `burst`, computed only when the bucket is
/// touched — no floats, no clock, no drift. The unit of time and of a
/// token are the caller's: gossip counts whole tokens per tick (every
/// message costs 1), the gateway counts milli-tokens per millisecond (a
/// rate of `r`/s refills exactly `r` milli-tokens per ms; a request
/// costs 1000), which is what makes its retry hint exact.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    tokens: u64,
    last: u64,
}

impl TokenBucket {
    /// A bucket holding `burst` tokens as of `now`.
    pub fn full(burst: u64, now: u64) -> Self {
        TokenBucket {
            tokens: burst,
            last: now,
        }
    }

    /// Credits `rate` tokens per time unit elapsed since the last refill,
    /// capped at `burst`. Time never runs backwards: a stale `now` is a
    /// no-op.
    pub fn refill(&mut self, now: u64, rate: u64, burst: u64) {
        if now > self.last {
            let accrued = (now - self.last).saturating_mul(rate);
            self.tokens = self.tokens.saturating_add(accrued).min(burst);
            self.last = now;
        }
    }

    /// Takes `cost` tokens if the bucket holds them.
    pub fn try_take(&mut self, cost: u64) -> bool {
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Tokens still missing before `cost` can be taken (0 = take now).
    /// At refill rate `r` the wait is `deficit.div_ceil(r)` time units;
    /// a bucket with `deficit(burst) == 0` is full and indistinguishable
    /// from a fresh one.
    pub fn deficit(&self, cost: u64) -> u64 {
        cost.saturating_sub(self.tokens)
    }
}

/// A bounded window of recently seen keys with least-recently-seen
/// eviction.
///
/// Hits refresh recency, so a key being actively flooded stays in the
/// window for as long as the flood lasts — exactly the case a dedup
/// window exists for.
pub struct DedupWindow<K> {
    capacity: usize,
    stamp: u64,
    by_key: HashMap<K, u64>,
    by_stamp: BTreeMap<u64, K>,
}

impl<K: Hash + Eq + Clone> DedupWindow<K> {
    /// A window remembering at most `capacity` keys (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        DedupWindow {
            capacity: capacity.max(1),
            stamp: 0,
            by_key: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    /// Whether `key` is in the window; a hit refreshes its recency.
    pub fn check(&mut self, key: &K) -> bool {
        let Some(stamp) = self.by_key.get_mut(key) else {
            return false;
        };
        self.stamp += 1;
        let key = self
            .by_stamp
            .remove(&*stamp)
            .expect("stamp indexes its key");
        *stamp = self.stamp;
        self.by_stamp.insert(self.stamp, key);
        true
    }

    /// Records `key`, evicting the least-recently-seen key past capacity.
    /// Returns `false` if it was already in the window (a duplicate; its
    /// recency is refreshed).
    pub fn insert(&mut self, key: K) -> bool {
        if self.check(&key) {
            return false;
        }
        self.stamp += 1;
        self.by_key.insert(key.clone(), self.stamp);
        self.by_stamp.insert(self.stamp, key);
        if self.by_key.len() > self.capacity {
            if let Some((_, victim)) = self.by_stamp.pop_first() {
                self.by_key.remove(&victim);
            }
        }
        true
    }

    /// Forgets `key` (the gateway hands a mempool-evicted transaction its
    /// slot back so it can be legitimately resubmitted).
    pub fn remove(&mut self, key: &K) {
        if let Some(stamp) = self.by_key.remove(key) {
            self.by_stamp.remove(&stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drr_serves_waking_channel_ahead_of_standing_backlog() {
        let sched: Scheduler<u32> = Scheduler::default();
        let busy = sched.register();
        for i in 0..100 {
            sched.submit(busy, i).unwrap();
        }
        assert_eq!(sched.next(), Some(0));
        assert_eq!(sched.next(), Some(1));
        // A channel waking from idle enters at the head of the round with
        // a fresh turn: its item is served next, not behind the other 98
        // queued items.
        let sparse = sched.register();
        sched.submit(sparse, 1000).unwrap();
        assert_eq!(sched.next(), Some(1000));
        assert_eq!(sched.next(), Some(2), "backlog resumes after the visit");
    }

    #[test]
    fn drr_alternates_busy_queues_in_turns_of_a_quantum() {
        let sched: Scheduler<u64> = Scheduler::default();
        let a = sched.register();
        let b = sched.register();
        for i in 0..2 * DRR_QUANTUM {
            sched.submit(a, i).unwrap();
            sched.submit(b, 1000 + i).unwrap();
        }
        let served: Vec<u64> = (0..4 * DRR_QUANTUM)
            .map(|_| sched.next().unwrap())
            .collect();
        // `b` woke last, so it entered at the head of the round.
        let q = DRR_QUANTUM;
        let expected: Vec<u64> = (1000..1000 + q)
            .chain(0..q)
            .chain(1000 + q..1000 + 2 * q)
            .chain(q..2 * q)
            .collect();
        assert_eq!(served, expected);
    }

    #[test]
    fn scheduler_close_drains_queued_then_ends() {
        let sched: Scheduler<u32> = Scheduler::default();
        let slot = sched.register();
        sched.submit(slot, 7).unwrap();
        sched.close();
        assert_eq!(sched.submit(slot, 8), None, "closed for new work");
        assert_eq!(sched.next(), Some(7), "queued work still drains");
        assert_eq!(sched.next(), None);
    }

    #[test]
    fn scheduler_deregister_drops_queue_and_refuses_submits() {
        let sched: Scheduler<u32> = Scheduler::default();
        let gone = sched.register();
        let live = sched.register();
        assert_eq!(sched.submit(gone, 1), Some(1), "depth gauge");
        assert_eq!(sched.submit(gone, 2), Some(2));
        sched.deregister(gone);
        assert_eq!(sched.submit(gone, 3), None);
        sched.submit(live, 42).unwrap();
        assert_eq!(sched.next(), Some(42), "dropped queue never surfaces");
    }

    #[test]
    fn pool_close_drains_every_item_once_and_survives_panics() {
        // `done` must see each item exactly once, with what `run`
        // returned — or `None` for the four whose `run` panicked.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let mut pool: Pool<usize> = Pool::new(
            "flow-test",
            3,
            |i: &usize| {
                assert!(*i % 50 != 7, "job {i} panics");
                *i * 2
            },
            move |i, outcome| sink.lock().unwrap().push((i, outcome.ok())),
        );
        assert_eq!(pool.width(), 3);
        let slots = [pool.scheduler().register(), pool.scheduler().register()];
        for i in 0..200 {
            pool.scheduler().submit(slots[i % 2], i).unwrap();
        }
        // Close with work still queued: it drains first, then joins.
        pool.close();
        let mut seen = std::mem::take(&mut *seen.lock().unwrap());
        seen.sort();
        let expected: Vec<_> = (0..200)
            .map(|i| (i, (i % 50 != 7).then_some(i * 2)))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(
            pool.scheduler().submit(slots[0], 0),
            None,
            "closed for new work"
        );
    }

    #[test]
    fn token_bucket_serves_both_call_conventions() {
        // Gossip: whole tokens per tick, burst 64, refill 16 per tick.
        let mut sender = TokenBucket::full(64, 0);
        assert_eq!(
            (0..100).filter(|_| sender.try_take(1)).count(),
            64,
            "the burst, then dry"
        );
        sender.refill(1, 16, 64);
        assert_eq!((0..100).filter(|_| sender.try_take(1)).count(), 16);
        sender.refill(100, 16, 64);
        assert_eq!(sender.deficit(64), 0, "refill caps at the burst");

        // Gateway: milli-tokens per ms, 10 requests/s, burst 2.
        const TOKEN: u64 = 1000;
        let (rate, burst) = (10, 2 * TOKEN);
        let mut client = TokenBucket::full(burst, 0);
        assert!(client.try_take(TOKEN) && client.try_take(TOKEN));
        assert!(!client.try_take(TOKEN), "burst spent");
        // The exact wait for the next whole token falls out of the deficit.
        assert_eq!(client.deficit(TOKEN).div_ceil(rate), 100);
        client.refill(99, rate, burst);
        assert!(!client.try_take(TOKEN), "one ms early");
        client.refill(100, rate, burst);
        assert!(client.try_take(TOKEN), "waiting exactly the hint succeeds");
        client.refill(50, rate, burst);
        assert_eq!(
            client.deficit(TOKEN),
            TOKEN,
            "a stale clock credits nothing"
        );
    }

    #[test]
    fn dedup_lru_evicts_least_recent() {
        let mut window = DedupWindow::new(2);
        assert!(window.insert(1));
        assert!(window.insert(2));
        assert!(!window.insert(2), "duplicate reported");
        assert!(window.check(&1), "hit refreshes 1");
        window.insert(3); // evicts 2, the least recently seen
        assert!(window.check(&1));
        assert!(!window.check(&2));
        assert!(window.check(&3));
    }

    #[test]
    fn dedup_remove_reopens_slot() {
        let mut window = DedupWindow::new(4);
        window.insert(1);
        window.remove(&1);
        assert!(!window.check(&1));
    }
}
