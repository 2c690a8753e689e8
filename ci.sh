#!/usr/bin/env bash
# CI gate for the fabric reproduction.
#
#  1. Tier-1 (ROADMAP.md): release build + full quiet test suite.
#  2. The primitives crate passes clippy with -D warnings and its unit
#     tests pass on their own: its `flow` module carries the threads and
#     locks (DRR scheduler, worker pool) every pooled stage runs on.
#  3. The peer crate (committer + multi-channel pipeline) passes clippy
#     with -D warnings and its unit tests pass on their own.
#  4. The kvstore, statesync and chaincode crates pass clippy with
#     -D warnings (kvstore carries the storage engines, chaincode the
#     pooled execution runtime).
#  5. The endorsement battery (equivalence proptests + fault injection)
#     re-runs on its own so a tier-1 wobble can't mask it.
#  6. The storage battery (kill-at-every-offset crash recovery +
#     three-engine equivalence proptest) re-runs on its own.
#  7. The multi-channel test battery (cross-channel fairness, deliver
#     credits, gap parking) re-runs under --release: the starvation
#     regression measures real latencies, and release timing is what the
#     acceptance bound is calibrated against.
#  8. The ordering battery (equivalence proptests, fault injection,
#     safety properties incl. the PBFT view-change partial-batch case)
#     re-runs under --release: the proptests sign/verify hundreds of
#     envelopes per case and release timing is what keeps them honest.
#  9. The ordering, raft, and pbft crates pass clippy with -D warnings
#     (these carry the pipelined replication windows, batched
#     pre-prepares, and the verify pool's scatter/gather).
# 10. The gossip churn battery (1000 peers under --release, 120 in
#     debug) re-runs under --release: crash/restart waves with
#     incarnations, late joins, a partition window, leaves with member
#     GC, and snapshot-catch-up flips — release timing is what the
#     1000-peer run is calibrated against.
# 11. The gossip and simnet crates pass clippy with -D warnings (these
#     carry the two-lane scheduler, rate-limit/reputation state machine,
#     and the churn orchestration this gate guards).
# 12. The snapshot catch-up, multi-channel overlap, endorsement overlap,
#     storage scale, ordering throughput, and gossip scale benches
#     complete a smoke sweep (~30 s) — catches bit-rot in the snapshot
#     wire path, the shared-pool pipeline manager, the starved-channel
#     DRR scenario, the endorse-pipeline submit/sign path, and the simnet
#     ordering driver (which also asserts pipelined beats lockstep) that
#     unit tests alone might miss; the gossip smoke also asserts
#     priority-lane p99 beats flat under bulk statesync load.
# 13. The gateway battery (equivalence proptest, fault injection, closed-
#     loop e2e conservation) re-runs under --release, the gateway crate
#     passes clippy with -D warnings, and the gateway e2e bench smoke
#     asserts the 2x-overload bars (throughput within 10% of the
#     ceiling, bounded p99, baseline degradation).
# 14. The system benchmark (BENCHMARK.json, `benchmark/`) builds against
#     the current API with its lock file unchanged (`--locked`), passes
#     its own unit tests, and completes its smoke run: all four workloads
#     through the full client -> gateway -> endorse -> order -> gossip ->
#     commit path, a few seconds each, output checks on. A crate change
#     that breaks `benchmark/` or would rewrite its lock file fails here.
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

echo "== fabric-kvstore: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/kvstore/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-kvstore --all-targets -- -D warnings
else
    echo "clippy not installed; falling back to rustc warning gate"
    find crates/kvstore/src -name '*.rs' -exec touch {} +
    RUSTFLAGS="-Dwarnings" cargo build -p fabric-kvstore
fi

echo "== fabric-statesync: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/statesync/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-statesync --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint gate"
fi

echo "== fabric-chaincode: clippy gate (-D warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    find crates/chaincode/src -name '*.rs' -exec touch {} +
    cargo clippy -p fabric-chaincode --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint gate"
fi

echo "== endorsement battery: equivalence + fault injection =="
cargo test -q --test endorsement_equivalence --test endorsement_faults

echo "== storage battery: crash recovery + engine equivalence =="
cargo test -q -p fabric-kvstore --test storage_recovery --test storage_equivalence

echo "== multi-channel test battery under --release =="
cargo test -q --release --test multi_channel

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

echo "== gateway e2e bench: smoke run (FABRIC_BENCH_SMOKE=1) =="
FABRIC_BENCH_SMOKE=1 cargo bench -q --bench gateway_e2e -p fabric-bench

echo "== system benchmark: locked release build + unit tests =="
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== system benchmark: smoke run (benchmark/run.sh --smoke) =="
bash benchmark/run.sh --smoke

echo "== ci.sh: all gates passed =="
