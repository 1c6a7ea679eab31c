#!/usr/bin/env bash
# Tier-1 verification: pin-discipline lint, configure, build, full test
# suite, then the randomized storage stress harness under ASan+UBSan.
# Usage: tools/check.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# --- Pin-discipline lint: outside src/storage/ (and the tests, which
# exercise the raw API on purpose), pages are pinned only through
# PageGuard/NewPageGuard — a raw FetchPage/NewPage/Unpin call site is a
# review error even when it happens to be balanced.
raw_pins=$(grep -rnE '(->|\.)(FetchPage|NewPage|Unpin)\(' \
    src bench examples tools --include='*.cc' --include='*.h' \
    | grep -v '^src/storage/' || true)
if [[ -n "${raw_pins}" ]]; then
  echo "error: raw buffer-pin calls outside src/storage/ (use PageGuard):"
  echo "${raw_pins}"
  exit 1
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# --- Sanitized stress sweep: every algorithm x replacement policy on 50
# randomized (graph, tiny pool, query) configurations, differentially
# checked against the reference closure with the buffer-pool audits armed
# (Debug keeps the TCDB_DCHECK phase-boundary audits on).
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DTCDB_SANITIZE=address,undefined
cmake --build "$SAN_DIR" -j "$(nproc)" --target tcdb_cli
"$SAN_DIR"/tools/tcdb_cli stress --seeds 50 --base-seed 1

# --- Sanitized bit-matrix kernel differential: the scalar / uint64 /
# AVX2 backends compared bit-for-bit on every graph shape, under
# ASan+UBSan so a tail-word overrun or misaligned vector load is an
# error, not a silent wrong bit. Runs the full differential twice — once
# with the AVX2 path eligible (the default build above) and once in a
# uint64-only tree (-DTCDB_AVX2=OFF) so the portable path is exercised
# even on AVX2 hardware.
cmake --build "$SAN_DIR" -j "$(nproc)" --target bit_matrix_test
"$SAN_DIR"/tests/bit_matrix_test
NOAVX_DIR="${BUILD_DIR}-asan-noavx2"
cmake -B "$NOAVX_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DTCDB_SANITIZE=address,undefined -DTCDB_AVX2=OFF
cmake --build "$NOAVX_DIR" -j "$(nproc)" --target bit_matrix_test
"$NOAVX_DIR"/tests/bit_matrix_test

# --- Sanitized mutation differential: 50 randomized mixed
# insert/delete/query traces through the full dynamic stack
# (MutationLog -> DynamicReachService -> IndexRebuilder), every answer
# checked against a reference closure at that epoch AND at every epoch
# boundary (validate-every defaults to 1). Runs twice — incremental
# tier on (the default) and forced off — over bit-identical traces; the
# printed answer digests must match, proving the tier changes only which
# stage (and how much CPU) answers, never what is answered.
on_out=$("$SAN_DIR"/tools/tcdb_cli mutate-stress --seeds 50 --base-seed 1)
echo "${on_out}"
off_out=$("$SAN_DIR"/tools/tcdb_cli mutate-stress --seeds 50 --base-seed 1 \
    --no-incremental)
echo "${off_out}"
on_digest=$(grep '^answer digest' <<<"${on_out}")
off_digest=$(grep '^answer digest' <<<"${off_out}")
if [[ -z "${on_digest}" || "${on_digest}" != "${off_digest}" ]]; then
  echo "error: incremental tier changed answers" \
       "(on: '${on_digest}', off: '${off_digest}')"
  exit 1
fi

# --- Sanitized crash differential: 50 randomized kill-and-recover runs
# through the durable stack (WAL + checkpoints on a fault-injecting
# filesystem) — every recovered state differentially checked against the
# reference graph at the crash point, with torn-write repair exercised.
"$SAN_DIR"/tools/tcdb_cli crash-stress --seeds 50 --base-seed 1

# --- Sanitized failover differential: 50 randomized primary-kill runs
# through the replication stack (WAL shipping to live followers, some
# attached mid-trace, primary on a fault-injecting filesystem) — after
# every kill a follower is promoted and checked arc-for-arc and
# reachability-for-reachability against the reference graph, then serves
# a post-failover write trace of its own.
"$SAN_DIR"/tools/tcdb_cli failover-stress --seeds 50 --base-seed 1

# --- Sanitized scale smoke: a 10^5-node ChainIndex build plus sampled
# differential against the exact BFS cones (--check), once on a pure DAG
# family and once through the SCC-condensation front, so an index-side
# overflow or uninitialized frontier row at real scale trips the
# sanitizers rather than a lucky assertion.
"$SAN_DIR"/tools/tcdb_cli scale-bench --family layered --n 100000 \
    --width 64 --degree 4 --queries 50000 --seed 1 --check 4
"$SAN_DIR"/tools/tcdb_cli scale-bench --family scale-free --n 100000 \
    --locality 64 --degree 4 --cyclic 500 --queries 50000 --seed 1 \
    --check 4

# --- Sanitized observation-battery differential: the battery's full
# label bank (extra topological orders, levels, negative cuts,
# traffic-trained pivots) verified sound against the BFS reference
# closure across the generator and scale families, plus the CLI's
# workload-bench --check smoke, which serves an adversarial mined mix on
# battery-off and battery-on cores and requires bit-identical answers
# that match a DFS reference — all under ASan+UBSan so an off-by-one in
# a cut bit-set or pivot cone is a crash, not a wrong "no".
cmake --build "$SAN_DIR" -j "$(nproc)" --target oreach_battery_test
"$SAN_DIR"/tests/oreach_battery_test
"$SAN_DIR"/tools/tcdb_cli workload-bench gen:800,5,160,3 \
    --workload adversarial --queries 5000 --seed 1 --check 800
"$SAN_DIR"/tools/tcdb_cli workload-bench gen:600,4,120,9 \
    --workload mixed --queries 5000 --seed 2 --check 600

# --- Sanitized batch differential: an adversarial mined stream on an
# n=5000 battery core, served per pair and in batches of 16 and 64
# through a bare ReachService and a 2-shard ReachServer, all equal to a
# BFS reference. The residue runs an unbounded PrunedMultiBfs per source
# group, so a scratch-slot or frontier overrun there is a crash here.
cmake --build "$SAN_DIR" -j "$(nproc)" --target reach_batch_test
"$SAN_DIR"/tests/reach_batch_test

# --- Concurrency tier under ThreadSanitizer: the multi-threaded
# ReachServer tests, the epoch-swap-under-load tests, the
# checkpoint-under-rebuild persistence test, the follower-catchup
# replication tests, the chain-backend ReachServer differential
# (concurrent clients over a kChain core, scale_backend_test), the
# battery-core sharded-serving tests (oreach_server_test — the battery is
# shared read-only by every shard, so a missing happens-before is a TSan
# report here), and the CLI smokes that drive worker/rebuilder/apply
# threads rerun in a separate TSan tree — TSan cannot share a build with
# ASan, hence the third directory.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=Debug -DTCDB_TSAN=ON
cmake --build "$TSAN_DIR" -j "$(nproc)" \
    --target reach_server_test snapshot_swap_test incremental_swap_test \
    persist_serving_test replica_test scale_backend_test \
    oreach_server_test tcdb_cli
ctest --test-dir "$TSAN_DIR" --output-on-failure -L concurrency
