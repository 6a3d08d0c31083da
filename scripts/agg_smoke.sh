#!/usr/bin/env bash
# Aggregation smoke test: build a two-level fleet tree — four publishing
# profiled daemons under two mid aggds under one root aggd — and drive it
# with loadgen's tree mode: one marked session per daemon fanning a single
# union stream out by shard route, with a deterministic mid-frame hangup on
# the first connections. Asserts the root's merged epochs are bit-identical
# to a local single-engine run over the union stream, that the hangups
# produced nonzero reconnect telemetry, that profctl can replay the epochs
# from the root's retention ring, and that every tier drains cleanly on
# SIGTERM. Under a minute of wall clock end to end.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORKDIR/profiled" ./cmd/profiled
go build -o "$WORKDIR/aggd" ./cmd/aggd
go build -o "$WORKDIR/loadgen" ./cmd/loadgen
go build -o "$WORKDIR/profctl" ./cmd/profctl

EPOCH=10000
D0=127.0.0.1:19233; D1=127.0.0.1:19235; D2=127.0.0.1:19237; D3=127.0.0.1:19239
MID1=127.0.0.1:19243; MID2=127.0.0.1:19245
ROOT=127.0.0.1:19247

wait_log() { # pid logfile pattern what
    for i in $(seq 1 50); do
        kill -0 "$1" 2>/dev/null || { cat "$2"; echo "FAIL: $4 died at startup"; exit 1; }
        grep -q "$3" "$2" && return 0
        sleep 0.1
    done
    cat "$2"; echo "FAIL: $4 did not come up"; exit 1
}

echo "== start 4 publishing daemons"
i=0
for addr in $D0 $D1 $D2 $D3; do
    "$WORKDIR/profiled" -listen "$addr" -telemetry "" -quiet \
        -publish -machine-id "m$i" -epoch-length "$EPOCH" -epoch-deadline -1s \
        >"$WORKDIR/profiled$i.log" 2>&1 &
    PIDS+=($!)
    eval "DPID$i=$!"
    i=$((i+1))
done
wait_log "$DPID0" "$WORKDIR/profiled0.log" "serving wire protocol" "profiled m0"
wait_log "$DPID3" "$WORKDIR/profiled3.log" "serving wire protocol" "profiled m3"

echo "== start 2 mid aggds and the root"
"$WORKDIR/aggd" -listen "$MID1" -telemetry "" -source mid1 \
    -children "$D0,$D1" -epoch-length "$EPOCH" -deadline -1s \
    >"$WORKDIR/mid1.log" 2>&1 &
MID1PID=$!; PIDS+=($!)
"$WORKDIR/aggd" -listen "$MID2" -telemetry "" -source mid2 \
    -children "$D2,$D3" -epoch-length "$EPOCH" -deadline -1s \
    >"$WORKDIR/mid2.log" 2>&1 &
MID2PID=$!; PIDS+=($!)
"$WORKDIR/aggd" -listen "$ROOT" -telemetry "" -source root \
    -children "$MID1,$MID2" -epoch-length "$EPOCH" -deadline -1s \
    >"$WORKDIR/root.log" 2>&1 &
ROOTPID=$!; PIDS+=($!)
wait_log "$MID1PID" "$WORKDIR/mid1.log" "serving merged epochs" "aggd mid1"
wait_log "$MID2PID" "$WORKDIR/mid2.log" "serving merged epochs" "aggd mid2"
wait_log "$ROOTPID" "$WORKDIR/root.log" "serving merged epochs" "aggd root"

echo "== tree run: union stream across the fleet, hangup on first connections"
cat > "$WORKDIR/fleet.scn" <<SCN
scenario fleet
seed 1
interval $EPOCH
entries 2048
shards 4

phase run 50000 {
	source workload gcc
}

fault hangup 12000..14000
SCN
"$WORKDIR/loadgen" -tree-daemons "$D0,$D1,$D2,$D3" -tree-root "$ROOT" \
    -scenario "$WORKDIR/fleet.scn" \
    | tee "$WORKDIR/tree.out"

grep -q "bit-identical to single-engine union run" "$WORKDIR/tree.out" \
    || { echo "FAIL: root profile diverged from the union run"; exit 1; }
grep -Eq "reconnects: [1-9]" "$WORKDIR/tree.out" \
    || { echo "FAIL: the hangup injection produced no reconnects"; exit 1; }

echo "== profctl replays the merged epochs from the root's retention"
"$WORKDIR/profctl" -addr "$ROOT" -interval "$EPOCH" -epochs 5 -top 3 \
    >"$WORKDIR/profctl.out" \
    || { cat "$WORKDIR/profctl.out"; echo "FAIL: profctl saw partial epochs at the root"; exit 1; }
grep -q 'epoch 4 from "root"' "$WORKDIR/profctl.out" \
    || { cat "$WORKDIR/profctl.out"; echo "FAIL: profctl did not replay all 5 epochs"; exit 1; }

echo "== drain every tier with SIGTERM"
for pid in "$ROOTPID" "$MID1PID" "$MID2PID" "$DPID0" "$DPID1" "$DPID2" "$DPID3"; do
    kill -TERM "$pid"
done
for pid in "$ROOTPID" "$MID1PID" "$MID2PID" "$DPID0" "$DPID1" "$DPID2" "$DPID3"; do
    for i in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: pid $pid did not exit after SIGTERM"
        exit 1
    fi
    wait "$pid" || { echo "FAIL: pid $pid exited non-zero"; exit 1; }
done
grep -q "shut down cleanly" "$WORKDIR/root.log" \
    || { cat "$WORKDIR/root.log"; echo "FAIL: root aggd did not drain cleanly"; exit 1; }
grep -q "drained cleanly" "$WORKDIR/profiled0.log" \
    || { cat "$WORKDIR/profiled0.log"; echo "FAIL: profiled m0 did not drain cleanly"; exit 1; }

echo "PASS: agg smoke"
