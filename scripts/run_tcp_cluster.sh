#!/usr/bin/env bash
# Multi-process integration test: deploy one Basil shard (f=1 -> 6 replicas) plus one
# client driver as separate OS processes over localhost TCP, commit >= TXNS real
# transactions end-to-end, and exercise crash recovery under f=1:
#
#   1. kill replica 5 once a third of the transactions have committed (liveness with
#      a dead replica),
#   2. restart the same replica with its data dir shortly after: it must replay its
#      WAL, catch up via peer state transfer (RECOVERED), and then participate in
#      >= MIN_REJOIN_COMMITS further commits (docs/RECOVERY.md).
#
# Every process also dumps a basil-metrics-v1 snapshot at shutdown (and every
# METRICS_INTERVAL seconds when set); after PASS the snapshots are aggregated with
# metrics_merge into BENCH_tcp_cluster.json in the current directory
# (docs/OBSERVABILITY.md).
#
# Usage: run_tcp_cluster.sh <path-to-basil_node> [metrics_merge] [--flags...]
#   metrics_merge: path to the aggregator binary ("" skips the BENCH artifact).
#   --txns N              transactions the client must commit (default 1000).
#   --workers W           strand + crypto pool threads per node (--workers,
#                         docs/TRANSPORT.md); replicas run one execution-state
#                         partition per worker. Default 2.
#   --metrics-interval S  periodic snapshot cadence in seconds (default 0 = only
#                         at shutdown / SIGUSR1).
#   --gateway             run the client behind the session gateway
#                         (docs/TRANSPORT.md "Session gateway"): --sessions
#                         logical sessions multiplexed over --lanes connections
#                         per replica instead of one closed loop on one socket.
#   --sessions N          gateway mode: logical sessions (default 4).
#   --lanes K             gateway mode: connections per replica (default 2).
set -u

USAGE="usage: run_tcp_cluster.sh <basil_node binary> [metrics_merge] [--txns N] [--workers W] [--metrics-interval S] [--gateway] [--sessions N] [--lanes K]"
BASIL_NODE="${1:?$USAGE}"
METRICS_MERGE="${2:-}"
if [ "$#" -ge 2 ]; then shift 2; else shift "$#"; fi

TXNS=1000
WORKERS=2
METRICS_INTERVAL=0
GATEWAY=0
SESSIONS=4
LANES=2
while [ "$#" -gt 0 ]; do
  case "$1" in
    --txns) TXNS="${2:?$USAGE}"; shift 2 ;;
    --workers) WORKERS="${2:?$USAGE}"; shift 2 ;;
    --metrics-interval) METRICS_INTERVAL="${2:?$USAGE}"; shift 2 ;;
    --gateway) GATEWAY=1; shift ;;
    --sessions) SESSIONS="${2:?$USAGE}"; shift 2 ;;
    --lanes) LANES="${2:?$USAGE}"; shift 2 ;;
    *) echo "unknown flag: $1"; echo "$USAGE"; exit 1 ;;
  esac
done
# Recovery has a fixed wall-clock floor (~1 s: peers' reconnect backoff toward the
# restarted node), and commits landing before the RECOVERED print do not count as
# rejoin participation. Short smoke runs (< 600 txns) finish inside that floor, so
# the participation threshold only applies to longer runs — the ctest config (1000)
# asserts >= 100; smoke runs still assert kill + WAL replay + RECOVERED.
if [ "$TXNS" -ge 600 ]; then
  MIN_REJOIN_COMMITS=$((TXNS / 10))
else
  MIN_REJOIN_COMMITS=0
fi

WORKDIR="$(mktemp -d)"
# Port base derived from the PID so parallel ctest invocations do not collide.
PORT_BASE=$((20000 + ($$ % 20000)))
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null
  done
  wait 2>/dev/null
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

CFG="$WORKDIR/cluster.cfg"
{
  echo "f 1"
  echo "shards 1"
  echo "seed 4242"
  echo "batch_size 4"
  echo "wal_fsync 8"  # Group-commit: one fdatasync per 8 WAL appends.
  for i in 0 1 2 3 4 5; do
    echo "node $i replica 127.0.0.1 $((PORT_BASE + i))"
  done
  echo "node 6 client 127.0.0.1 $((PORT_BASE + 6))"
} > "$CFG"

echo "== config =="
cat "$CFG"

DATA_DIR="$WORKDIR/data"
# Per-process metrics snapshots (written at shutdown, on SIGUSR1, and every
# METRICS_INTERVAL seconds when > 0).
metrics_path() { echo "$WORKDIR/metrics_node$1.json"; }
for i in 0 1 2 3 4 5; do
  "$BASIL_NODE" --config "$CFG" --id "$i" --data-dir "$DATA_DIR" \
    --workers "$WORKERS" \
    --metrics-out "$(metrics_path "$i")" \
    --metrics-interval "$METRICS_INTERVAL" > "$WORKDIR/replica$i.log" 2>&1 &
  PIDS+=($!)
done

# Wait for every replica to bind its listen socket.
for i in 0 1 2 3 4 5; do
  for _ in $(seq 1 100); do
    grep -q READY "$WORKDIR/replica$i.log" 2>/dev/null && break
    sleep 0.1
  done
  if ! grep -q READY "$WORKDIR/replica$i.log"; then
    echo "FAIL: replica $i did not become ready (workers=$WORKERS)"
    cat "$WORKDIR/replica$i.log"
    exit 1
  fi
done
echo "== replicas ready =="

# Gateway mode multiplexes the client's sessions over pooled connections; the
# workload, DONE accounting, and recovery choreography are identical either way.
GATEWAY_ARGS=()
if [ "$GATEWAY" -eq 1 ]; then
  GATEWAY_ARGS=(--gateway --sessions "$SESSIONS" --lanes "$LANES")
fi
"$BASIL_NODE" --config "$CFG" --id 6 --txns "$TXNS" --keys 16 --timeout 150 \
  --workers "$WORKERS" --metrics-out "$(metrics_path 6)" \
  "${GATEWAY_ARGS[@]}" > "$WORKDIR/client.log" 2>&1 &
CLIENT_PID=$!
PIDS+=("$CLIENT_PID")

# Fail fast if a replica that is supposed to be alive exits: without this a dead
# replica leaves the client grinding against a short quorum until its timeout.
# replica 5 is exempt between the deliberate kill and the restart.
check_replicas_alive() {
  local i pid
  for i in 0 1 2 3 4; do
    pid="${PIDS[$i]}"
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: replica $i (pid $pid) exited before the run finished (workers=$WORKERS)"
      echo "     final metrics snapshot (if written): $(metrics_path "$i")"
      echo "-- replica$i.log --"; tail -10 "$WORKDIR/replica$i.log"
      exit 1
    fi
  done
  if [ "$KILLED" -eq 0 ] && ! kill -0 "${PIDS[5]}" 2>/dev/null; then
    echo "FAIL: replica 5 exited before the deliberate kill"
    echo "     final metrics snapshot (if written): $(metrics_path 5)"
    echo "-- replica5.log --"; tail -10 "$WORKDIR/replica5.log"
    exit 1
  fi
  if [ "$RESTARTED" -eq 1 ] && [ -n "$RESTART_PID" ] && \
     ! kill -0 "$RESTART_PID" 2>/dev/null; then
    echo "FAIL: restarted replica 5 (pid $RESTART_PID) exited prematurely"
    echo "     final metrics snapshot (if written): $(metrics_path 5)"
    echo "-- replica5b.log --"; tail -10 "$WORKDIR/replica5b.log"
    exit 1
  fi
}

# Kill replica 5 (the highest index: never the lone holder of anything with f=1) at
# a third of the run, restart it — same id, same data dir — shortly after (commits
# landing in between are the missed state it must transfer), and require progress
# throughout. Restarting early maximizes the post-recovery runway.
KILL_AT=$((TXNS / 3))
RESTART_AT=$((TXNS / 3 + TXNS / 12))
KILLED=0
RESTARTED=0
RESTART_PID=
while kill -0 "$CLIENT_PID" 2>/dev/null; do
  check_replicas_alive
  PROGRESS=$(grep -c PROGRESS "$WORKDIR/client.log" 2>/dev/null || true)
  COMMITTED=$((PROGRESS * 100))
  if [ "$KILLED" -eq 0 ] && [ "$COMMITTED" -ge "$KILL_AT" ]; then
    echo "== killing replica 5 at ~$COMMITTED commits =="
    kill -9 "${PIDS[5]}" 2>/dev/null
    KILLED=1
  fi
  if [ "$KILLED" -eq 1 ] && [ "$RESTARTED" -eq 0 ] && \
     [ "$COMMITTED" -ge "$RESTART_AT" ]; then
    echo "== restarting replica 5 at ~$COMMITTED commits =="
    "$BASIL_NODE" --config "$CFG" --id 5 --data-dir "$DATA_DIR" \
      --workers "$WORKERS" \
      --metrics-out "$(metrics_path 5)" \
      --metrics-interval "$METRICS_INTERVAL" > "$WORKDIR/replica5b.log" 2>&1 &
    RESTART_PID=$!
    PIDS+=("$RESTART_PID")
    RESTARTED=1
  fi
  sleep 0.2
done
wait "$CLIENT_PID"
CLIENT_RC=$?

echo "== client log tail =="
tail -5 "$WORKDIR/client.log"

if [ "$KILLED" -ne 1 ]; then
  echo "FAIL: client finished before the replica kill was exercised"
  exit 1
fi
if [ "$RESTARTED" -ne 1 ]; then
  echo "FAIL: client finished before the replica restart was exercised"
  exit 1
fi
if [ "$CLIENT_RC" -ne 0 ]; then
  echo "FAIL: client exited with $CLIENT_RC"
  for i in 0 1 2 3 4; do
    echo "-- replica$i.log --"; tail -3 "$WORKDIR/replica$i.log"
  done
  echo "-- replica5b.log --"; tail -3 "$WORKDIR/replica5b.log"
  exit 1
fi
if ! grep -q "DONE committed=$TXNS" "$WORKDIR/client.log"; then
  echo "FAIL: client did not report committed=$TXNS"
  exit 1
fi
# Gateway mode: the mux must have carried real envelope traffic without dropping
# a session to backpressure or shedding a frame (mirrors the replica dropped=0
# guard below).
if [ "$GATEWAY" -eq 1 ]; then
  if ! grep -q "GATEWAY sessions=$SESSIONS" "$WORKDIR/client.log"; then
    echo "FAIL: gateway client did not report its GATEWAY summary"
    exit 1
  fi
  GW_DROPPED_SESSIONS=$(grep GATEWAY "$WORKDIR/client.log" | grep -o "dropped_sessions=[0-9]*" | cut -d= -f2)
  GW_DROPPED_FRAMES=$(grep GATEWAY "$WORKDIR/client.log" | grep -o "dropped=[0-9]*" | tail -1 | cut -d= -f2)
  if [ "${GW_DROPPED_SESSIONS:-1}" -ne 0 ] || [ "${GW_DROPPED_FRAMES:-1}" -ne 0 ]; then
    echo "FAIL: gateway shed traffic (dropped_sessions=$GW_DROPPED_SESSIONS dropped=$GW_DROPPED_FRAMES)"
    exit 1
  fi
fi

# The restarted replica must have replayed a non-empty WAL/snapshot, completed state
# transfer, and then participated in the quorum for >= MIN_REJOIN_COMMITS commits.
echo "== restarted replica log =="
cat "$WORKDIR/replica5b.log"
if ! grep -q "REPLAY" "$WORKDIR/replica5b.log"; then
  echo "FAIL: restarted replica did not report a WAL replay"
  exit 1
fi
REPLAYED=$(grep -o "wal=[0-9]*" "$WORKDIR/replica5b.log" | cut -d= -f2)
SNAPPED=$(grep -o "snapshot=[0-9]*" "$WORKDIR/replica5b.log" | cut -d= -f2)
if [ "$((REPLAYED + SNAPPED))" -lt 1 ]; then
  echo "FAIL: restarted replica replayed no durable state (wal=$REPLAYED snapshot=$SNAPPED)"
  exit 1
fi
# Wait for RECOVERED (state transfer completes quickly once peers answer).
for _ in $(seq 1 100); do
  grep -q RECOVERED "$WORKDIR/replica5b.log" 2>/dev/null && break
  sleep 0.1
done
if ! grep -q "RECOVERED" "$WORKDIR/replica5b.log"; then
  echo "FAIL: restarted replica never completed state transfer"
  exit 1
fi
# Stop it cleanly and compare its commit counter at recovery vs. shutdown.
kill "$RESTART_PID" 2>/dev/null
for _ in $(seq 1 100); do
  grep -q STOPPED "$WORKDIR/replica5b.log" 2>/dev/null && break
  sleep 0.1
done
C0=$(grep RECOVERED "$WORKDIR/replica5b.log" | grep -o "commits=[0-9]*" | cut -d= -f2)
C1=$(grep STOPPED "$WORKDIR/replica5b.log" | grep -o "commits=[0-9]*" | cut -d= -f2)
A0=$(grep RECOVERED "$WORKDIR/replica5b.log" | grep -o "applied=[0-9]*" | cut -d= -f2)
A1=$(grep STOPPED "$WORKDIR/replica5b.log" | grep -o "applied=[0-9]*" | cut -d= -f2)
if [ -z "$C0" ] || [ -z "$C1" ] || [ -z "$A0" ] || [ -z "$A1" ]; then
  echo "FAIL: could not parse commit counters from the restarted replica"
  exit 1
fi
# Late state-transfer chunks (peers beyond the 2f+1 done-quorum) also bump the
# commit counter; subtract them so the assertion measures real quorum votes.
REJOIN_COMMITS=$(((C1 - C0) - (A1 - A0)))
if [ "$MIN_REJOIN_COMMITS" -gt 0 ] && [ "$REJOIN_COMMITS" -lt "$MIN_REJOIN_COMMITS" ]; then
  echo "FAIL: restarted replica participated in only $REJOIN_COMMITS commits after recovery (need >= $MIN_REJOIN_COMMITS)"
  exit 1
fi
# Stop the surviving replicas cleanly so each writes its final metrics snapshot,
# then aggregate every per-process snapshot into BENCH_tcp_cluster.json.
for i in 0 1 2 3 4; do
  kill "${PIDS[$i]}" 2>/dev/null
done
for i in 0 1 2 3 4; do
  for _ in $(seq 1 100); do
    grep -q STOPPED "$WORKDIR/replica$i.log" 2>/dev/null && break
    sleep 0.1
  done
done
# A healthy run sheds nothing: every replica that stopped cleanly must report
# dropped=0 (outbox backpressure never discarded a frame).
for log in "$WORKDIR"/replica[0-4].log "$WORKDIR/replica5b.log"; do
  DROPPED=$(grep STOPPED "$log" | grep -o "dropped=[0-9]*" | cut -d= -f2)
  if [ -n "$DROPPED" ] && [ "$DROPPED" -ne 0 ]; then
    echo "FAIL: $(basename "$log") shed $DROPPED outbox frame(s) under backpressure"
    exit 1
  fi
done
if [ -n "$METRICS_MERGE" ] && [ -x "$METRICS_MERGE" ]; then
  SNAPSHOTS=("$WORKDIR"/metrics_node*.json)
  if [ -e "${SNAPSHOTS[0]}" ]; then
    if ! "$METRICS_MERGE" --out BENCH_tcp_cluster.json "${SNAPSHOTS[@]}"; then
      echo "FAIL: metrics_merge could not aggregate ${#SNAPSHOTS[@]} snapshots"
      exit 1
    fi
  else
    echo "FAIL: no metrics snapshots were written under $WORKDIR"
    exit 1
  fi
fi

echo "PASS: $TXNS transactions committed over TCP (workers=$WORKERS); replica 5 was killed, restarted from its WAL, recovered via state transfer, and participated in $REJOIN_COMMITS post-recovery commits"
exit 0
