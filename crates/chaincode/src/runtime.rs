//! The chaincode runtime: registration, isolated execution, and the
//! deadline-based abort that is Fabric's DoS defence (paper Sec. 3.2).
//!
//! In Fabric every user chaincode runs in its own Docker container and
//! talks to the peer over gRPC; the peer can kill a container that runs
//! too long. Here each chaincode is a Rust object; the architectural
//! property preserved is the *interface* — all state access flows through
//! the stub, and the endorser can unilaterally abandon an execution that
//! exceeds its local deadline without endangering consistency
//! (non-determinism and runaway loops only ever cost the transaction's
//! own liveness).
//!
//! An invocation runs one of two ways, set by
//! [`RuntimeConfig::exec_timeout`]:
//!
//! * **Inline** (`None`) — on the caller's thread, with no watchdog.
//! * **Guarded** (`Some(deadline)`) — on an execution thread borrowed from
//!   the runtime's idle stack (spawned when none is parked). The caller
//!   waits on a per-call result channel until the deadline, then returns
//!   [`ChaincodeError::Timeout`] and walks away; the thread finishes the
//!   abandoned invocation, drops its late result, and parks again — or
//!   retires, if another thread is already parked. Calls
//!   never queue behind one another, so a wedged chaincode delays nothing
//!   but its own transaction, and invocations of the same chaincode run
//!   concurrently, each against its own state snapshot.
//!
//! The runtime keeps as many threads as its peak number of concurrent
//! guarded calls whose callers waited for them: a burst of overrunning
//! calls falls back to one thread once the stragglers return. Dropping
//! the runtime ends every parked thread. A panicking
//! chaincode is contained with `catch_unwind`: it costs its own
//! transaction, not the thread.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crossbeam::channel;
use parking_lot::{Mutex, RwLock};

use fabric_ledger::{Ledger, TxSimulator};
use fabric_primitives::rwset::TxReadWriteSet;
use fabric_primitives::ChaincodeResponse;

use crate::api::{Chaincode, Invocation, Stub};
use crate::ChaincodeError;

/// The outcome of simulating one invocation.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// The chaincode's response (status + payload).
    pub response: ChaincodeResponse,
    /// The recorded read-write set.
    pub rwset: TxReadWriteSet,
}

/// Installed chaincodes, by name.
#[derive(Default)]
pub struct ChaincodeRegistry {
    chaincodes: RwLock<HashMap<String, Arc<dyn Chaincode>>>,
}

impl ChaincodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a chaincode under `name`.
    pub fn install(&self, name: impl Into<String>, chaincode: Arc<dyn Chaincode>) {
        self.chaincodes.write().insert(name.into(), chaincode);
    }

    /// Looks up an installed chaincode.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Chaincode>> {
        self.chaincodes.read().get(name).cloned()
    }
}

/// Execution policy for the runtime.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Wall-clock budget per invocation. `None` runs inline on the caller
    /// thread without a watchdog (fastest; used by benchmarks where
    /// chaincodes are trusted — and by the endorsement pipeline, whose own
    /// workers then parallelize execution). `Some` runs each invocation on
    /// a borrowed execution thread and gives up on it at the deadline.
    pub exec_timeout: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            exec_timeout: Some(Duration::from_secs(2)),
        }
    }
}

type Outcome = Result<ExecutionResult, ChaincodeError>;

/// One guarded invocation handed to an execution thread.
struct Call {
    run: Box<dyn FnOnce() -> Outcome + Send>,
    /// Per-call, so a late result can never reach another call's caller.
    reply: channel::Sender<Outcome>,
    /// Set by the caller when it stops waiting at the deadline. It
    /// publishes no other data, so `Relaxed` suffices.
    abandoned: Arc<AtomicBool>,
    /// The executing thread's only inbox sender, parked again after `run`.
    home: channel::Sender<Call>,
}

/// The execution threads' shared state; the threads hold it weakly.
struct Threads {
    /// Parked threads, one inbox sender each.
    idle: Mutex<Vec<channel::Sender<Call>>>,
    /// Threads spawned, minus stragglers retired.
    alive: AtomicUsize,
}

/// The chaincode execution runtime.
pub struct ChaincodeRuntime {
    registry: Arc<ChaincodeRegistry>,
    config: RuntimeConfig,
    /// The only strong reference: dropping the runtime drops every parked
    /// thread's sender, which ends the thread.
    threads: Arc<Threads>,
}

impl ChaincodeRuntime {
    /// Creates a runtime over a registry.
    pub fn new(registry: Arc<ChaincodeRegistry>, config: RuntimeConfig) -> Self {
        ChaincodeRuntime {
            registry,
            config,
            threads: Arc::new(Threads {
                idle: Mutex::new(Vec::new()),
                alive: AtomicUsize::new(0),
            }),
        }
    }

    /// The registry (for installs).
    pub fn registry(&self) -> &Arc<ChaincodeRegistry> {
        &self.registry
    }

    /// Simulates `invocation` against a fresh snapshot of `ledger`.
    ///
    /// A chaincode error becomes an error [`ChaincodeResponse`] (the rw-set
    /// is discarded); exceeding the deadline or panicking aborts the
    /// execution with [`ChaincodeError`].
    pub fn execute(
        &self,
        ledger: &Ledger,
        chaincode: &str,
        invocation: Invocation,
    ) -> Result<ExecutionResult, ChaincodeError> {
        let code = self
            .registry
            .get(chaincode)
            .ok_or_else(|| ChaincodeError::NotInstalled(chaincode.to_string()))?;
        let simulator = ledger.simulator();
        match self.config.exec_timeout {
            None => run_invocation(code, chaincode, simulator, invocation, &self.registry),
            Some(timeout) => {
                let (registry, ns) = (self.registry.clone(), chaincode.to_string());
                let run = move || run_invocation(code, &ns, simulator, invocation, &registry);
                self.run_guarded(Box::new(run), timeout)
            }
        }
    }

    /// Execution threads alive: running a call, parked, or finishing a
    /// call whose caller already timed out. Such a straggler retires when
    /// it returns if another thread is parked, and the count goes down.
    pub fn execution_threads(&self) -> usize {
        self.threads.alive.load(Ordering::Relaxed)
    }

    /// Runs `run` on a parked (or fresh) execution thread and waits for it
    /// until `timeout`.
    fn run_guarded(&self, run: Box<dyn FnOnce() -> Outcome + Send>, timeout: Duration) -> Outcome {
        // Unlock first: a thread parking before its reply must not wait out a spawn.
        let parked = self.threads.idle.lock().pop();
        let home = parked.unwrap_or_else(|| self.spawn_thread());
        let (reply, result) = channel::bounded(1);
        let abandoned = Arc::new(AtomicBool::new(false));
        // A failed send drops `reply`, which reads as `Disconnected` below.
        let _ = home.clone().send(Call {
            run,
            reply,
            abandoned: abandoned.clone(),
            home,
        });
        match result.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            // The thread runs on; it parks or retires once the invocation
            // returns.
            Err(channel::RecvTimeoutError::Timeout) => {
                abandoned.store(true, Ordering::Relaxed);
                Err(ChaincodeError::Timeout)
            }
            Err(channel::RecvTimeoutError::Disconnected) => {
                Err(ChaincodeError::Aborted("chaincode thread lost".into()))
            }
        }
    }

    fn spawn_thread(&self) -> channel::Sender<Call> {
        let (home, calls) = channel::bounded(1);
        let threads = Arc::downgrade(&self.threads);
        // Detached: a thread wedged in a runaway chaincode can never be
        // joined, and `catch_unwind` leaves it no panic to hide.
        std::thread::Builder::new()
            .name("chaincode-exec".into())
            .spawn(move || serve(&threads, &calls))
            .expect("spawn chaincode execution thread");
        self.threads.alive.fetch_add(1, Ordering::Relaxed);
        home
    }
}

/// An execution thread: runs each call it receives, parks, replies.
/// Returns when a call it ran was abandoned and another thread is
/// parked, or once its sender is gone after the runtime is dropped.
fn serve(threads: &Weak<Threads>, calls: &channel::Receiver<Call>) {
    while let Ok(Call {
        run,
        reply,
        abandoned,
        home,
    }) = calls.recv()
    {
        let outcome = catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|_| Err(ChaincodeError::Aborted("chaincode panicked".into())));
        // Park *before* replying, so a caller holding a result always
        // finds this thread idle. If the runtime is gone, `home` drops
        // here instead and the next `recv` ends the loop.
        if let Some(threads) = threads.upgrade() {
            let mut idle = threads.idle.lock();
            if abandoned.load(Ordering::Relaxed) && !idle.is_empty() {
                // Nobody waits for this result and a sibling already
                // covers the next call: retire instead of parking.
                threads.alive.fetch_sub(1, Ordering::Relaxed);
                return;
            }
            idle.push(home);
        }
        // Fails inertly when the caller timed out and dropped its end.
        let _ = reply.send(outcome);
    }
}

fn run_invocation(
    code: Arc<dyn Chaincode>,
    namespace: &str,
    mut simulator: TxSimulator,
    invocation: Invocation,
    registry: &ChaincodeRegistry,
) -> Result<ExecutionResult, ChaincodeError> {
    let mut stub = Stub {
        namespace: namespace.to_string(),
        simulator: &mut simulator,
        invocation: &invocation,
        registry,
        depth: 0,
    };
    match code.invoke(&mut stub) {
        Ok(payload) => Ok(ExecutionResult {
            response: ChaincodeResponse::ok(payload),
            rwset: simulator.into_rwset(),
        }),
        Err(message) => Ok(ExecutionResult {
            response: ChaincodeResponse::error(message),
            rwset: TxReadWriteSet::default(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_primitives::ids::{ChannelId, SerializedIdentity, TxId};
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    fn invocation(function: &str, args: Vec<Vec<u8>>) -> Invocation {
        Invocation {
            function: function.into(),
            args,
            creator: SerializedIdentity::new("Org1MSP", vec![1]),
            creator_msp: "Org1MSP".into(),
            creator_role: "client".into(),
            tx_id: TxId::derive(b"c", &[1; 32]),
            channel: ChannelId::new("ch"),
        }
    }

    fn runtime_with(
        name: &str,
        cc: Arc<dyn Chaincode>,
        timeout: Option<Duration>,
    ) -> (Arc<ChaincodeRuntime>, Arc<Ledger>) {
        let registry = Arc::new(ChaincodeRegistry::new());
        registry.install(name, cc);
        let runtime = ChaincodeRuntime::new(
            registry,
            RuntimeConfig {
                exec_timeout: timeout,
            },
        );
        (Arc::new(runtime), Arc::new(Ledger::in_memory()))
    }

    /// Starts `n` concurrent calls of `chaincode`'s "go" function.
    fn spawn_calls(
        runtime: &Arc<ChaincodeRuntime>,
        ledger: &Arc<Ledger>,
        chaincode: &'static str,
        n: usize,
    ) -> Vec<std::thread::JoinHandle<Outcome>> {
        (0..n)
            .map(|_| {
                let (rt, lg) = (runtime.clone(), ledger.clone());
                std::thread::spawn(move || rt.execute(&lg, chaincode, invocation("go", vec![])))
            })
            .collect()
    }

    #[test]
    fn executes_and_records_rwset() {
        let cc = Arc::new(|stub: &mut Stub<'_>| {
            stub.put_state("greeting", b"hello".to_vec());
            let missing = stub.get_state("nothing")?;
            assert!(missing.is_none());
            Ok(b"done".to_vec())
        });
        let (runtime, ledger) = runtime_with("demo", cc, None);
        let result = runtime
            .execute(&ledger, "demo", invocation("go", vec![]))
            .unwrap();
        assert!(result.response.is_ok());
        assert_eq!(result.response.payload, b"done");
        assert_eq!(result.rwset.write_count(), 1);
        assert_eq!(result.rwset.read_count(), 1);
        assert_eq!(result.rwset.ns_rwsets[0].namespace, "demo");
    }

    #[test]
    fn chaincode_error_becomes_error_response() {
        let cc =
            Arc::new(|_: &mut Stub<'_>| Err::<Vec<u8>, _>("business rule violated".to_string()));
        let (runtime, ledger) = runtime_with("demo", cc, None);
        let result = runtime
            .execute(&ledger, "demo", invocation("go", vec![]))
            .unwrap();
        assert!(!result.response.is_ok());
        assert_eq!(result.response.message, "business rule violated");
        assert_eq!(result.rwset.write_count(), 0, "failed tx writes nothing");
    }

    #[test]
    fn missing_chaincode_rejected() {
        let (runtime, ledger) = runtime_with("demo", Arc::new(|_: &mut Stub<'_>| Ok(vec![])), None);
        assert!(matches!(
            runtime.execute(&ledger, "ghost", invocation("go", vec![])),
            Err(ChaincodeError::NotInstalled(_))
        ));
    }

    #[test]
    fn infinite_loop_aborted_by_deadline() {
        // The paper's DoS scenario: a malicious chaincode loops forever.
        // The endorser aborts unilaterally; only this tx's liveness suffers.
        let cc = Arc::new(|_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            loop {
                std::hint::spin_loop();
            }
        });
        let (runtime, ledger) = runtime_with("evil", cc, Some(Duration::from_millis(100)));
        let started = std::time::Instant::now();
        let result = runtime.execute(&ledger, "evil", invocation("spin", vec![]));
        assert!(matches!(result, Err(ChaincodeError::Timeout)));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn panicking_chaincode_aborted() {
        let cc = Arc::new(|_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            panic!("chaincode bug");
        });
        let (runtime, ledger) = runtime_with("buggy", cc, Some(Duration::from_secs(1)));
        assert!(matches!(
            runtime.execute(&ledger, "buggy", invocation("go", vec![])),
            Err(ChaincodeError::Aborted(_))
        ));
    }

    #[test]
    fn cross_chaincode_invocation() {
        let callee = Arc::new(|stub: &mut Stub<'_>| {
            stub.put_state("callee-key", b"from-callee".to_vec());
            Ok(b"callee-result".to_vec())
        });
        let caller = Arc::new(|stub: &mut Stub<'_>| {
            stub.put_state("caller-key", b"from-caller".to_vec());
            let result = stub.invoke_chaincode("callee", "run", vec![])?;
            Ok(result)
        });
        let (runtime, ledger) = runtime_with("caller", caller, None);
        runtime.registry().install("callee", callee);
        let result = runtime
            .execute(&ledger, "caller", invocation("go", vec![]))
            .unwrap();
        assert_eq!(result.response.payload, b"callee-result");
        // Writes landed in both namespaces.
        let namespaces: Vec<&str> = result
            .rwset
            .ns_rwsets
            .iter()
            .map(|ns| ns.namespace.as_str())
            .collect();
        assert!(namespaces.contains(&"caller"));
        assert!(namespaces.contains(&"callee"));
    }

    #[test]
    fn call_depth_limited() {
        let recursive =
            Arc::new(|stub: &mut Stub<'_>| stub.invoke_chaincode("recursive", "go", vec![]));
        let (runtime, ledger) = runtime_with("recursive", recursive, None);
        let result = runtime
            .execute(&ledger, "recursive", invocation("go", vec![]))
            .unwrap();
        assert!(!result.response.is_ok());
        assert!(result.response.message.contains("depth"));
    }

    #[test]
    fn guarded_calls_of_one_chaincode_run_concurrently() {
        // Four invocations of ONE chaincode that all block on a shared
        // barrier: they can only finish if the runtime runs them in
        // parallel. Queued behind one another they would time out.
        let barrier = Arc::new(Barrier::new(4));
        let cc = Arc::new(move |_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            barrier.wait();
            Ok(b"joined".to_vec())
        });
        let (runtime, ledger) =
            runtime_with("rendezvous", cc, RuntimeConfig::default().exec_timeout);
        for caller in spawn_calls(&runtime, &ledger, "rendezvous", 4) {
            assert_eq!(caller.join().unwrap().unwrap().response.payload, b"joined");
        }
    }

    #[test]
    fn panicking_chaincode_does_not_poison_its_thread() {
        // After a panic the same thread must keep serving invocations.
        let cc = Arc::new(|stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            if stub.function() == "boom" {
                panic!("chaincode bug");
            }
            Ok(b"fine".to_vec())
        });
        let (runtime, ledger) = runtime_with("flaky", cc, Some(Duration::from_secs(2)));
        for _ in 0..8 {
            assert!(matches!(
                runtime.execute(&ledger, "flaky", invocation("boom", vec![])),
                Err(ChaincodeError::Aborted(_))
            ));
        }
        let ok = runtime
            .execute(&ledger, "flaky", invocation("ok", vec![]))
            .unwrap();
        assert_eq!(ok.response.payload, b"fine");
        // Panics are contained in place, not survived by a fresh thread.
        assert_eq!(runtime.execution_threads(), 1);
    }

    /// Polls until the runtime has `want` execution threads or 5 s pass,
    /// returning the last count seen.
    fn settle_threads(runtime: &ChaincodeRuntime, want: usize) -> usize {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while runtime.execution_threads() != want && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        runtime.execution_threads()
    }

    #[test]
    fn overrun_thread_retires_once_its_call_returns_beside_a_parked_one() {
        let cc = Arc::new(|stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            if stub.function() == "stall" {
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(b"ok".to_vec())
        });
        let (runtime, ledger) = runtime_with("sleepy", cc, Some(Duration::from_millis(50)));
        let stall = || {
            assert!(matches!(
                runtime.execute(&ledger, "sleepy", invocation("stall", vec![])),
                Err(ChaincodeError::Timeout)
            ));
        };
        let quick = || {
            let ok = runtime
                .execute(&ledger, "sleepy", invocation("quick", vec![]))
                .unwrap();
            assert_eq!(ok.response.payload, b"ok");
        };
        // Alone, the straggler parks once its call returns and serves the
        // next call.
        stall();
        std::thread::sleep(Duration::from_millis(600));
        quick();
        assert_eq!(runtime.execution_threads(), 1);
        // A second thread serves immediately while the straggler sleeps.
        stall();
        quick();
        assert_eq!(runtime.execution_threads(), 2);
        // The second thread is parked, so the straggler retires on return.
        assert_eq!(
            settle_threads(&runtime, 1),
            1,
            "straggler parked beside an idle thread"
        );
        quick();
        assert_eq!(runtime.execution_threads(), 1);
    }

    #[test]
    fn burst_of_overruns_falls_back_to_one_thread() {
        const BURST: usize = 6;
        // Every "stall" call holds its thread until all BURST have
        // arrived, so the burst needs BURST threads, then overruns.
        let gate = Barrier::new(BURST);
        let cc = Arc::new(move |stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            if stub.function() == "go" {
                gate.wait();
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(vec![])
        });
        let (runtime, ledger) = runtime_with("bursty", cc, Some(Duration::from_millis(20)));
        for caller in spawn_calls(&runtime, &ledger, "bursty", BURST) {
            assert!(matches!(
                caller.join().unwrap(),
                Err(ChaincodeError::Timeout)
            ));
        }
        assert_eq!(runtime.execution_threads(), BURST);
        // The first straggler to return parks; every later one retires.
        assert_eq!(
            settle_threads(&runtime, 1),
            1,
            "stragglers kept their threads"
        );
        for _ in 0..50 {
            runtime
                .execute(&ledger, "bursty", invocation("pass", vec![]))
                .unwrap();
        }
        assert_eq!(runtime.execution_threads(), 1);
    }

    #[test]
    fn sequential_guarded_calls_reuse_one_thread() {
        // A thread parks before it replies, so the next call always finds
        // it idle: a thread per call would show here as 500.
        let cc = Arc::new(|_: &mut Stub<'_>| Ok(vec![]));
        let (runtime, ledger) = runtime_with("noop", cc, Some(Duration::from_secs(2)));
        for _ in 0..500 {
            runtime
                .execute(&ledger, "noop", invocation("go", vec![]))
                .unwrap();
        }
        assert_eq!(runtime.execution_threads(), 1);
    }

    #[test]
    fn threads_follow_peak_concurrency_not_call_count() {
        const WEDGED: usize = 6;
        // The "go" calls wait at a gate until all of them and the test
        // thread have arrived; other calls pass straight through.
        let gate = Arc::new(Barrier::new(WEDGED + 1));
        let cc_gate = gate.clone();
        let cc = Arc::new(move |stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            if stub.function() == "go" {
                cc_gate.wait();
            }
            Ok(vec![])
        });
        // No caller times out, so every thread parks rather than retires.
        let (runtime, ledger) = runtime_with("gated", cc, Some(Duration::from_secs(10)));
        let callers = spawn_calls(&runtime, &ledger, "gated", WEDGED);
        gate.wait();
        assert_eq!(runtime.execution_threads(), WEDGED);
        for caller in callers {
            caller.join().unwrap().unwrap();
        }
        for _ in 0..200 {
            runtime
                .execute(&ledger, "gated", invocation("pass", vec![]))
                .unwrap();
        }
        assert_eq!(runtime.execution_threads(), WEDGED);
    }

    #[test]
    fn consecutive_timeouts_do_not_accumulate_threads() {
        // Regression for a runtime that spawned a fresh thread per
        // invocation and leaked it on timeout: a client hammering a slow
        // chaincode grew the process's thread count without bound.
        const DEADLINE_MS: u64 = 1;
        const SLEEP_MS: u64 = 4;
        // Each call passes its start time; the chaincode records the longest
        // any call has held its thread (SLEEP_MS plus however late a loaded
        // host wakes it), in microseconds.
        let epoch = std::time::Instant::now();
        let held_us = Arc::new(AtomicU64::new(0));
        let cc_held = held_us.clone();
        let cc = Arc::new(move |stub: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            std::thread::sleep(Duration::from_millis(SLEEP_MS));
            let start = u64::from_le_bytes(stub.args()[0][..].try_into().unwrap());
            cc_held.fetch_max(epoch.elapsed().as_micros() as u64 - start, Ordering::SeqCst);
            Ok(vec![])
        });
        let (runtime, ledger) =
            runtime_with("laggard", cc, Some(Duration::from_millis(DEADLINE_MS)));
        let mut timeouts = 0;
        for _ in 0..1000 {
            let start = (epoch.elapsed().as_micros() as u64).to_le_bytes().to_vec();
            if matches!(
                runtime.execute(&ledger, "laggard", invocation("go", vec![start])),
                Err(ChaincodeError::Timeout)
            ) {
                timeouts += 1;
            }
        }
        assert!(timeouts >= 900, "expected mostly timeouts, got {timeouts}");
        // Calls start at least DEADLINE_MS apart, so one borrowing a thread
        // finds at most ceil(held / DEADLINE_MS) + 1 earlier calls holding
        // theirs (the 1 covers parking after the chaincode returns), and
        // needs one more. A leak would instead grow with the 1000 calls.
        let held_us = held_us.load(Ordering::SeqCst);
        let bound = (held_us.div_ceil(DEADLINE_MS * 1000) + 2) as usize;
        let alive = runtime.execution_threads();
        assert!(
            alive <= bound,
            "thread leak: {alive} threads alive after 1000 timeouts (held {held_us} us)"
        );
    }

    #[test]
    fn wedged_chaincode_does_not_delay_another() {
        let cc_slow = Arc::new(|_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            std::thread::sleep(Duration::from_millis(200));
            Ok(vec![])
        });
        let (runtime, ledger) =
            runtime_with("slow", cc_slow, RuntimeConfig::default().exec_timeout);
        runtime
            .registry()
            .install("fast", Arc::new(|_: &mut Stub<'_>| Ok(b"fast".to_vec())));
        let slow = spawn_calls(&runtime, &ledger, "slow", 1).pop().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let started = std::time::Instant::now();
        let result = runtime
            .execute(&ledger, "fast", invocation("go", vec![]))
            .unwrap();
        assert_eq!(result.response.payload, b"fast");
        assert!(
            started.elapsed() < Duration::from_millis(150),
            "fast chaincode was serialized behind the slow one"
        );
        slow.join().unwrap().unwrap();
    }

    #[test]
    fn dropping_the_runtime_ends_parked_threads() {
        // Each execution thread keeps a clone of `alive` in a thread-local,
        // released only when the thread exits.
        thread_local!(static ALIVE: std::cell::OnceCell<Arc<()>> = const { std::cell::OnceCell::new() });
        let alive = Arc::new(());
        let cc_alive = alive.clone();
        let barrier = Barrier::new(3);
        let cc = Arc::new(move |_: &mut Stub<'_>| -> Result<Vec<u8>, String> {
            ALIVE.with(|a| {
                a.get_or_init(|| cc_alive.clone());
            });
            barrier.wait();
            Ok(vec![])
        });
        let (runtime, ledger) = runtime_with("probe", cc, Some(Duration::from_secs(5)));
        for caller in spawn_calls(&runtime, &ledger, "probe", 3) {
            caller.join().unwrap().unwrap();
        }
        // `alive`, the chaincode's clone, and one per parked thread.
        assert_eq!(Arc::strong_count(&alive), 5);
        drop(runtime);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&alive) > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "parked threads outlived the runtime"
        );
    }

    #[test]
    fn stub_exposes_invocation_context() {
        let cc = Arc::new(|stub: &mut Stub<'_>| {
            assert_eq!(stub.function(), "fn-name");
            assert_eq!(stub.arg_string(0)?, "arg0");
            assert!(stub.arg_string(5).is_err());
            assert_eq!(stub.creator_msp(), "Org1MSP");
            assert_eq!(stub.creator_role(), "client");
            assert_eq!(stub.channel().as_str(), "ch");
            Ok(vec![])
        });
        let (runtime, ledger) = runtime_with("ctx", cc, None);
        let result = runtime
            .execute(
                &ledger,
                "ctx",
                invocation("fn-name", vec![b"arg0".to_vec()]),
            )
            .unwrap();
        assert!(result.response.is_ok(), "{}", result.response.message);
    }
}
