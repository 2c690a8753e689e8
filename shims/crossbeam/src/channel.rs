//! Multi-producer multi-consumer channels in the shape of
//! `crossbeam::channel`: cloneable senders *and* receivers, optional
//! capacity bounds, and timeout receives. Built on a `Mutex<VecDeque>`
//! plus two condvars; throughput is adequate for the block-granular
//! pipelines this workspace runs through it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when all receivers are gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty.
    Empty,
    /// Channel empty and all senders dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Deadline passed with the channel still empty.
    Timeout,
    /// Channel empty and all senders dropped.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// `None` = unbounded.
    capacity: Option<usize>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half of a channel. Cloning adds a producer.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half of a channel. Cloning adds a consumer.
pub struct Receiver<T>(Arc<Shared<T>>);

/// Creates an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded MPMC channel with capacity `cap` (a zero capacity is
/// rounded up to one; this shim has no rendezvous mode).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            capacity,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(shared.clone()), Receiver(shared))
}

impl<T> Sender<T> {
    /// Sends a value, blocking while a bounded channel is full. Fails when
    /// every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.0.state.lock().unwrap();
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            let full = state.capacity.is_some_and(|cap| state.queue.len() >= cap);
            if !full {
                state.queue.push_back(value);
                drop(state);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            state = self.0.not_full.wait(state).unwrap();
        }
    }

    /// Number of messages currently queued (a gauge, racy by nature).
    pub fn len(&self) -> usize {
        self.0.state.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receives a value, blocking until one is available. Fails when the
    /// channel is empty and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.state.lock().unwrap();
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.0.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.0.not_empty.wait(state).unwrap();
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.state.lock().unwrap();
        if let Some(value) = state.queue.pop_front() {
            drop(state);
            self.0.not_full.notify_one();
            return Ok(value);
        }
        if state.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Receives with a deadline of `timeout` from now.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.0.state.lock().unwrap();
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.0.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .0
                .not_empty
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = guard;
        }
    }

    /// Number of messages currently queued (a gauge, racy by nature).
    pub fn len(&self) -> usize {
        self.0.state.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the channel into an iterator that ends once the channel is
    /// empty and disconnected.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self)
    }
}

/// Blocking iterator over received values; see [`Receiver::iter`].
pub struct Iter<'a, T>(&'a Receiver<T>);

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().unwrap().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().unwrap().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap();
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpmc_roundtrip() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap() + rx2.recv().unwrap(), 3);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        t.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn timeout_and_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn multi_producer_consumer_sums() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for j in 0..100u64 {
                        tx.send(i * 100 + j).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, (0..400u64).map(|i| (i / 100) * 100 + i % 100).sum());
    }
}
