#!/usr/bin/env bash
# Tier-1 CI: plain build + full ctest, bench smokes (data-plane fan-out,
# the control-plane dispatch + MT producer curve, and the sharded scale-out
# throughput floor), a chaos property sweep
# under fresh random seeds, then sanitizer passes: one configurable pass over
# the control-plane/core suites (the indexed dispatch / batched ack hot path,
# its re-entrant callback surface, and the lock-free report/read paths' MT
# suite) plus ASan, TSan, and UBSan passes over the fault-handling suites
# (recovery_test + chaos_test + failover_test — the crash-restart / RESUME
# machinery, the primary-failover election/fencing path and the sharded
# campaigns) and the real-time suites (net_test + integration_test +
# common_test — the epoll event loop, TCP framing under hostile bytes,
# handler teardown). The TSan and UBSan legs additionally run core_mt_test
# unconditionally, and the TSan leg obs_test. A short perfbench tcp_small
# run closes the plain pass as a correctness smoke.
#
# Usage: scripts/ci.sh [extra cmake args...]
# Env:   STAB_CI_SANITIZER=address|thread|undefined  (default: address)
#        STAB_CI_SKIP_SANITIZER=1                    skip all sanitized passes
#        STAB_CI_CHAOS_SEEDS=N                       random seeds (default: 8)
#        STAB_CI_FAILOVER_SEEDS=N                    random seeds (default: 3)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SAN="${STAB_CI_SANITIZER:-address}"

echo "==> docs link check"
"$ROOT/scripts/check_docs_links.sh"

echo "==> metric-name docs check"
# Every complete-literal counter/gauge/histogram name registered in src/
# must appear in docs/OBSERVABILITY.md's catalog.
"$ROOT/scripts/check_metrics_docs.sh"

echo "==> tier-1: configure + build (build/)"
cmake -B "$ROOT/build" -S "$ROOT" "$@"
cmake --build "$ROOT/build" -j

echo "==> tier-1: ctest"
ctest --test-dir "$ROOT/build" --output-on-failure

echo "==> data-plane hot path bench (smoke)"
# Runs in build/ so the smoke JSON does not clobber the committed full-mode
# BENCH_data_hotpath.json at the repo root.
(cd "$ROOT/build" && bench/bench_data_hotpath --smoke)

echo "==> control-plane hot path bench (smoke: dispatch + MT producer curve)"
# Same convention: the committed BENCH_control_mt.json at the repo root is
# full-mode only; the smoke pass exercises the digest-equality assertions
# (indexed-vs-legacy dispatch, report cells vs the locked report path)
# without enforcing timing floors.
(cd "$ROOT/build" && bench/bench_control_hotpath --smoke)

echo "==> shard scale-out bench (smoke: 1 vs 2 shards, >=1.5x floor)"
# The committed BENCH_shard_scaling.json at the repo root is full-mode only
# (1/2/4/8 shards, >=3x floor at 4); the smoke pass runs the same end-to-end
# coalesced-path workload at 1 and 2 shards and exits nonzero below 1.5x.
(cd "$ROOT/build" && bench/bench_shard_scaling --smoke)

echo "==> stability propagation bench (smoke: 16-node fleet, >=5x bytes floor)"
# The committed BENCH_stability_propagation.json at the repo root is
# full-mode only (64 nodes, >=10x floor); the smoke pass runs the same
# immediate/deferred/deferred+agg comparison on a 4x4 fleet and exits
# nonzero below 5x bytes reduction or above the p99 frontier-lag bound.
(cd "$ROOT/build" && bench/bench_stability_propagation --smoke)

echo "==> metrics endpoint smoke (live TCP cluster + 2 scrapes mid-traffic)"
# Stand up the 3-node loopback demo with a kernel-assigned port, scrape the
# Prometheus view twice while traffic is flowing (asserting well-formed
# exposition and monotone counters between scrapes), then require the demo
# itself to exit 0 — i.e. the scraped cluster still reached "everywhere"
# stability.
EXPORT_LOG="$(mktemp)"
# Randomized cluster base port below Linux's ephemeral range (32768-60999),
# so no node's outgoing connection can hold a port a later node listens on
# (the scrape port itself is always kernel-assigned and read back from
# METRICS_PORT).
BASE_PORT=$(( 20000 + RANDOM % 12000 ))
"$ROOT/build/examples/metrics_export" "$BASE_PORT" 6 >"$EXPORT_LOG" 2>&1 &
EXPORT_PID=$!
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/^METRICS_PORT=//p' "$EXPORT_LOG" | head -n1)"
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "==> metrics_export never printed METRICS_PORT"
  cat "$EXPORT_LOG"; kill "$EXPORT_PID" 2>/dev/null || true
  rm -f "$EXPORT_LOG"; exit 1
fi
SCRAPE1="$("$ROOT/build/tools/stab_metrics_scrape" --retries 20 "$PORT")"
sleep 1
SCRAPE2="$("$ROOT/build/tools/stab_metrics_scrape" --retries 20 "$PORT")"
"$ROOT/build/tools/stab_metrics_scrape" --retries 20 --jsonl "$PORT" \
  | grep -q '"type":"windowed_histogram"' \
  || { echo "==> JSONL scrape missing windowed histograms"; exit 1; }
for S in "$SCRAPE1" "$SCRAPE2"; do
  grep -q '^# TYPE stab_' <<<"$S" \
    || { echo "==> scrape is not Prometheus exposition"; exit 1; }
  grep -q '^stab_node0_core_messages_sent ' <<<"$S" \
    || { echo "==> scrape missing node counters"; exit 1; }
done
SENT1="$(sed -n 's/^stab_node0_core_messages_sent \([0-9]*\)$/\1/p' <<<"$SCRAPE1")"
SENT2="$(sed -n 's/^stab_node0_core_messages_sent \([0-9]*\)$/\1/p' <<<"$SCRAPE2")"
if (( SENT2 < SENT1 )) || (( SENT2 == 0 )); then
  echo "==> counters not monotone across scrapes ($SENT1 -> $SENT2)"; exit 1
fi
if ! wait "$EXPORT_PID"; then
  echo "==> metrics_export exited nonzero (cluster failed to stabilize)"
  cat "$EXPORT_LOG"; rm -f "$EXPORT_LOG"; exit 1
fi
rm -f "$EXPORT_LOG"
echo "    scraped mid-traffic: messages_sent $SENT1 -> $SENT2, demo exit 0"

echo "==> perfbench tcp_small smoke (correctness only)"
# The end-to-end benchmark's real-TCP workload, judged on its exit code: it
# exits nonzero when any write is lost, duplicated, reordered, corrupted or
# not stable by its deadline. Its figures are not compared here.
BENCH_OUT="$(mktemp -d)"
python3 "$ROOT/perfbench/run.py" --workload tcp_small --seed "$RANDOM" \
  --seconds 4 --trace 0 --out "$BENCH_OUT" >/dev/null
rm -rf "$BENCH_OUT"

# Compiled-out flavor: the obs macros must vanish cleanly — build the core
# with -DSTAB_OBS=OFF and run the suites that pin the disabled contract
# (obs_disabled_test) and the widest consumer of registry-backed stats
# (core_test, whose stats assertions are flavor-gated).
echo "==> STAB_OBS=OFF flavor: configure + build (build-noobs/)"
cmake -B "$ROOT/build-noobs" -S "$ROOT" -DSTAB_OBS=OFF "$@"
cmake --build "$ROOT/build-noobs" -j --target obs_disabled_test core_test
echo "==> STAB_OBS=OFF flavor: obs_disabled_test + core_test"
"$ROOT/build-noobs/tests/obs_disabled_test"
"$ROOT/build-noobs/tests/core_test"

NUM_SEEDS="${STAB_CI_CHAOS_SEEDS:-8}"
SEEDS=""
for ((i = 0; i < NUM_SEEDS; ++i)); do
  SEEDS+="${SEEDS:+,}$(( (RANDOM * 32768 + RANDOM) * 32768 + RANDOM + 1 ))"
done
echo "==> chaos property sweep: STAB_CHAOS_SEEDS=$SEEDS"
CHAOS_LOG="$(mktemp)"
if ! STAB_CHAOS_SEEDS="$SEEDS" "$ROOT/build/tests/chaos_test" \
    --gtest_filter='ChaosProperty.*' 2>&1 | tee "$CHAOS_LOG"; then
  echo "==> chaos sweep FAILED"
  grep "CHAOS REPLAY SEED" "$CHAOS_LOG" || true
  rm -f "$CHAOS_LOG"
  exit 1
fi
# A replay-seed marker means a campaign failed even if the process managed
# to exit zero: fail the script on any occurrence.
if grep -q "CHAOS REPLAY SEED" "$CHAOS_LOG"; then
  echo "==> chaos sweep printed a replay seed; failing"
  rm -f "$CHAOS_LOG"
  exit 1
fi
rm -f "$CHAOS_LOG"

# Same workflow for the primary-failover kill campaigns: fresh random seeds
# every run, replay any failure with STAB_FAILOVER_SEEDS=<seed>.
NUM_FSEEDS="${STAB_CI_FAILOVER_SEEDS:-3}"
FSEEDS=""
for ((i = 0; i < NUM_FSEEDS; ++i)); do
  FSEEDS+="${FSEEDS:+,}$(( (RANDOM * 32768 + RANDOM) * 32768 + RANDOM + 1 ))"
done
echo "==> failover kill-campaign sweep: STAB_FAILOVER_SEEDS=$FSEEDS"
FAILOVER_LOG="$(mktemp)"
if ! STAB_FAILOVER_SEEDS="$FSEEDS" "$ROOT/build/tests/failover_test" \
    --gtest_filter='FailoverProperty.*' 2>&1 | tee "$FAILOVER_LOG"; then
  echo "==> failover sweep FAILED"
  grep "FAILOVER REPLAY SEED" "$FAILOVER_LOG" || true
  rm -f "$FAILOVER_LOG"
  exit 1
fi
if grep -q "FAILOVER REPLAY SEED" "$FAILOVER_LOG"; then
  echo "==> failover sweep printed a replay seed; failing"
  rm -f "$FAILOVER_LOG"
  exit 1
fi
rm -f "$FAILOVER_LOG"

if [[ "${STAB_CI_SKIP_SANITIZER:-0}" == "1" ]]; then
  echo "==> sanitizer passes skipped (STAB_CI_SKIP_SANITIZER=1)"
  exit 0
fi

SAN_DIR="$ROOT/build-$SAN"
echo "==> $SAN sanitizer: configure + build (build-$SAN/)"
cmake -B "$SAN_DIR" -S "$ROOT" -DSTAB_SANITIZE="$SAN" "$@"
cmake --build "$SAN_DIR" -j \
  --target control_test core_test core_mt_test obs_test shard_test

echo "==> $SAN sanitizer: control_test + core_test + core_mt_test" \
     "+ obs_test + shard_test"
"$SAN_DIR/tests/control_test"
"$SAN_DIR/tests/core_test"
"$SAN_DIR/tests/core_mt_test"
"$SAN_DIR/tests/obs_test"
"$SAN_DIR/tests/shard_test"

# Fault-handling and real-time suites under the full sanitizer matrix —
# ASan, TSan, and UBSan as real legs: the crash-restart path destroys and
# rebuilds Stabilizers mid-simulation (lifetime hazards), the event loop
# and the TCP transport share a node's thread with user senders and
# handler teardown (ordering and lifetime hazards), and the failover codecs,
# TCP framing and epoch/cursor arithmetic exercise shifts, casts, and enum
# round-trips on hostile inputs (UB hazards).
for FSAN in address thread undefined; do
  FSAN_DIR="$ROOT/build-$FSAN"
  echo "==> $FSAN sanitizer: recovery_test + chaos_test + failover_test" \
       "+ net_test + integration_test + common_test (build-$FSAN/)"
  cmake -B "$FSAN_DIR" -S "$ROOT" -DSTAB_SANITIZE="$FSAN" "$@"
  cmake --build "$FSAN_DIR" -j --target recovery_test chaos_test \
    failover_test net_test integration_test common_test
  "$FSAN_DIR/tests/recovery_test"
  "$FSAN_DIR/tests/chaos_test"
  "$FSAN_DIR/tests/failover_test"
  "$FSAN_DIR/tests/net_test"
  "$FSAN_DIR/tests/integration_test"
  "$FSAN_DIR/tests/common_test"
  if [[ "$FSAN" == "thread" ]]; then
    # The refcounted fan-out hands one buffer to concurrent receiver threads
    # (InProc) and to the TCP node's loop via scatter-gather; net_test (run
    # just above) guards the shared-frame lifetime and ordering. obs_test
    # under TSan guards the registry's relaxed-atomic counters and the
    # tracer's mutexed append (its multithreaded hammer tests). The sharded
    # campaigns (ShardedChaos.*: per-shard failover domains + per-shard
    # digest replay, DESIGN.md §9) already ran as part of chaos_test just
    # above.
    echo "==> $FSAN sanitizer: obs_test"
    cmake --build "$FSAN_DIR" -j --target obs_test
    "$FSAN_DIR/tests/obs_test"
  fi
  if [[ "$FSAN" == "thread" || "$FSAN" == "undefined" ]]; then
    # core_mt_test is the one suite where application threads race the
    # lock-free report path (CAS-max report cells, the posted drain) and
    # the wait-free frontier reads against the node's Env thread. It runs
    # under TSan and UBSan here even when STAB_CI_SANITIZER selects a
    # different flavor for the configurable pass above.
    echo "==> $FSAN sanitizer: core_mt_test (lock-free report/read paths)"
    cmake --build "$FSAN_DIR" -j --target core_mt_test
    "$FSAN_DIR/tests/core_mt_test"
  fi
done

echo "==> CI OK"
