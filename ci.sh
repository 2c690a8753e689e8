#!/usr/bin/env bash
# CI gate for the fabric reproduction.
#
#  1. Tier-1 (ROADMAP.md): release build + full quiet test suite.
#  2. The primitives crate passes clippy with -D warnings and its unit
#     tests pass on their own: its `flow` module carries the threads and
#     locks (DRR scheduler, worker pool) every pooled stage runs on.
#  3. The peer crate (committer + multi-channel pipeline: one VSCC pool
#     task per transaction, one rw-check per block at its turn) passes
#     clippy with -D warnings and its unit tests pass on their own,
#     including the parked-block test that pins the rw-check's timing.
#  4. The kvstore, ledger, statesync and chaincode crates pass clippy
#     with -D warnings (kvstore carries the state store; ledger the PTM
#     over it; chaincode the deadline-guarded execution runtime), every
#     package of the workspace (all member crates, the shims and the root
#     package; `benchmark/` is its own workspace) is rustfmt-clean
#     (`cargo fmt --all --check`), and the chaincode crate's unit
#     tests (thread reuse, straggler retirement, shutdown) pass on their
#     own; gate 15 skips that crate.
#  5. The endorsement battery (equivalence proptests + fault injection)
#     re-runs on its own so a tier-1 wobble can't mask it.
#  6. The storage battery re-runs on its own: kill-at-every-offset crash
#     recovery of the ledger's one log, the block store (a ledger reopened
#     on a torn `blocks.dat` lands on a committed prefix, or reports a
#     state ahead of its chain as corrupt), of the state store's Merkle
#     bucket file, and a proptest of the state store against a BTreeMap
#     oracle and a reopen at its last checkpoint.
#  7. The commit-pipeline battery re-runs under --release: multi-channel
#     (cross-channel fairness, deliver credits, gap parking), pipeline
#     equivalence (proptests: pipelined masks, state and chain bytes
#     equal the sequential committer's) and pipeline recovery (crash /
#     abort mid-pipeline, savepoint restart). The starvation regression
#     measures real latencies, and release timing is what its bound is
#     calibrated against.
#  8. The ordering battery (equivalence proptests, fault injection,
#     safety properties incl. the PBFT view-change partial-batch case)
#     re-runs under --release: the proptests sign/verify hundreds of
#     envelopes per case and release timing is what keeps them honest.
#  9. The ordering, raft, and pbft crates pass clippy with -D warnings
#     (these carry the pipelined replication windows, batched
#     pre-prepares, and the one inline-checked intake path).
# 10. The gossip churn battery (1000 peers under --release, 120 in
#     debug) re-runs under --release: crash/restart waves with
#     incarnations, late joins, a partition window, leaves with member
#     GC, and snapshot-catch-up flips — release timing is what the
#     1000-peer run is calibrated against.
# 11. The gossip and simnet crates pass clippy with -D warnings (these
#     carry the two-lane scheduler, rate-limit/reputation state machine,
#     and the churn orchestration this gate guards).
# 12. The snapshot catch-up, multi-channel overlap, endorsement overlap,
#     state-store scale, ordering throughput, and
#     gossip scale benches complete a smoke sweep (~30 s) — catches
#     bit-rot in the snapshot wire path, the shared-pool pipeline
#     manager (zero dependency stalls on key-disjoint spends), the
#     starved-channel DRR scenario, the endorse-pipeline
#     submit/sign path, and the simnet ordering driver (which also
#     asserts pipelined beats lockstep) that unit tests alone might
#     miss; the gossip smoke also asserts priority-lane p99 beats flat
#     under bulk statesync load.
# 13. The gateway battery (equivalence proptest, fault injection, closed-
#     loop e2e conservation over Solo and Raft) re-runs under --release
#     and the gateway crate passes clippy with -D warnings. Overload
#     behaviour is the system benchmark's `overload` workload (gate 14).
# 14. The system benchmark (BENCHMARK.json, `benchmark/`) builds against
#     the current API with its lock file unchanged (`--locked`), passes
#     its own unit tests, and completes its smoke run: all four workloads
#     through the full client -> gateway -> endorse -> order -> gossip ->
#     commit path, a few seconds each, output checks on. A crate change
#     that breaks `benchmark/` or would rewrite its lock file fails here.
# 15. Every member crate's own tests pass: tier-1 `cargo test` runs only
#     the root `fabric` package, so without this gate the crypto NIST /
#     RFC 6979 vectors, the SHA-extension cross-check, and the raft and
#     ordering unit tests would run in no gate at all. fabric-chaincode
#     is excluded because gate 4 already runs its tests.
# 16. The root crate (the `fabric::net` test-network builder, every
#     integration test and example), the fabcoin crate and the bench
#     crate pass clippy with -D warnings across all targets.
# 17. The client, crypto, msp and policy crates pass clippy with
#     -D warnings across all targets, so every member crate is under a
#     lint gate.
#
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== fabric-primitives: clippy gate (-D warnings) + unit tests =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/primitives/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-primitives --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/primitives/src -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-primitives
fi
cargo test -q -p fabric-primitives

echo "== fabric-peer: clippy gate (-D warnings) + unit tests =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/peer/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-peer --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/peer/src -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-peer
fi
cargo test -q -p fabric-peer

echo "== fabric-kvstore / fabric-ledger: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/kvstore/src crates/ledger/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-kvstore -p fabric-ledger --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/kvstore/src crates/ledger/src -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-kvstore -p fabric-ledger
fi
echo "== workspace: rustfmt gate =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping format gate"
fi

echo "== fabric-statesync: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/statesync/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-statesync --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint gate"
fi

echo "== fabric-chaincode: clippy gate (-D warnings) + unit tests =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/chaincode/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-chaincode --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint gate"
fi
cargo test -q -p fabric-chaincode

echo "== endorsement battery: equivalence + fault injection =="
cargo test -q --test endorsement_equivalence --test endorsement_faults

echo "== storage battery: ledger + Merkle crash recovery + oracle equivalence =="
cargo test -q -p fabric-ledger --test ledger_recovery
cargo test -q -p fabric-kvstore --test storage_recovery --test storage_equivalence

echo "== commit-pipeline battery under --release: multi-channel + equivalence + recovery =="
cargo test -q --release --test multi_channel --test pipeline_equivalence --test pipeline_recovery

echo "== ordering battery under --release: equivalence + faults + properties =="
cargo test -q --release --test ordering_equivalence --test ordering_faults --test ordering_properties

echo "== fabric-ordering / fabric-raft / fabric-pbft: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/ordering/src crates/raft/src crates/pbft/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-ordering -p fabric-raft -p fabric-pbft --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/ordering/src crates/raft/src crates/pbft/src -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-ordering -p fabric-raft -p fabric-pbft
fi

echo "== gossip churn battery under --release (1000 peers) =="
cargo test -q --release --test gossip_churn

echo "== fabric-gossip / fabric-simnet: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/gossip/src crates/simnet/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-gossip -p fabric-simnet --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/gossip/src crates/simnet/src -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-gossip -p fabric-simnet
fi

echo "== catch-up bench: smoke run (FABRIC_BENCH_SMOKE=1) =="
FABRIC_BENCH_SMOKE=1 cargo bench -q --bench catchup -p fabric-bench

echo "== multi-channel overlap bench: smoke run (FABRIC_BENCH_SMOKE=1) =="
FABRIC_BENCH_SMOKE=1 cargo bench -q --bench multi_channel_overlap -p fabric-bench

echo "== endorsement overlap bench: smoke run (FABRIC_BENCH_SMOKE=1) =="
FABRIC_BENCH_SMOKE=1 cargo bench -q --bench endorsement_overlap -p fabric-bench

echo "== storage scale bench: smoke run (FABRIC_BENCH_SMOKE=1) =="
FABRIC_BENCH_SMOKE=1 cargo bench -q --bench storage_scale -p fabric-bench

echo "== ordering throughput bench: smoke run (FABRIC_BENCH_SMOKE=1) =="
FABRIC_BENCH_SMOKE=1 cargo bench -q --bench ordering_throughput -p fabric-bench

echo "== gossip scale bench: smoke run (FABRIC_BENCH_SMOKE=1) =="
FABRIC_BENCH_SMOKE=1 cargo bench -q --bench gossip_scale -p fabric-bench

echo "== gateway battery under --release: equivalence + faults + e2e =="
cargo test -q --release --test gateway_equivalence --test gateway_faults --test gateway_e2e

echo "== fabric-gateway: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/gateway/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-gateway --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/gateway/src -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-gateway
fi

echo "== fabric / fabric-fabcoin / fabric-bench: clippy gate (-D warnings, all targets) =="
if cargo clippy --version >/dev/null 2>&1; then
    find src tests examples crates/fabcoin/src crates/bench -name '*.rs' -exec touch {} +
    cargo clippy -p fabric -p fabric-fabcoin -p fabric-bench --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find src tests examples crates/fabcoin/src crates/bench -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric -p fabric-fabcoin -p fabric-bench --all-targets
fi

echo "== fabric-client / fabric-crypto / fabric-msp / fabric-policy: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/client crates/crypto crates/msp crates/policy -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-client -p fabric-crypto -p fabric-msp -p fabric-policy --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/client crates/crypto crates/msp crates/policy -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-client -p fabric-crypto -p fabric-msp -p fabric-policy --all-targets
fi

echo "== system benchmark: locked release build + unit tests =="
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== system benchmark: smoke run (benchmark/run.sh --smoke) =="
bash benchmark/run.sh --smoke

echo "== member crates: unit + integration tests (--workspace --exclude fabric, fabric-chaincode) =="
cargo test -q --workspace --exclude fabric --exclude fabric-chaincode

echo "== ci.sh: all gates passed =="
