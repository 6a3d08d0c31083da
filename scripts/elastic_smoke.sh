#!/usr/bin/env bash
# Elastic smoke test: start profiled with the online controller on a
# hair trigger and a deliberately tiny queue, then drive it with loadgen's
# chaos harness — full-speed sessions that keep the queue pinned at its
# high water, mid-frame disconnects, and frame corruption — and assert:
#
#   1. the controller actually moves: live resizes commit and the ladder
#      degrades (coarsen/shrink/park notices reach the clients);
#   2. every surviving session's profiles are bit-identical to a local
#      mirror split segment-wise at the announced resize boundaries
#      (loadgen -verify) — the park-and-restage contract end to end,
#      across connection faults;
#   3. the daemon's /metrics tells the same story (elastic + ladder +
#      per-tenant counters), and it still drains cleanly on SIGTERM.
#
# Under a minute of wall clock end to end.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
DAEMON=""
trap '{ [ -n "$DAEMON" ] && kill -9 "$DAEMON"; rm -rf "$WORKDIR"; } 2>/dev/null || true' EXIT

echo "== build"
go build -o "$WORKDIR/profiled" ./cmd/profiled
go build -o "$WORKDIR/loadgen" ./cmd/loadgen

LISTEN=127.0.0.1:19143
TELEMETRY=127.0.0.1:19144

# Block policy (no -shed): backpressure keeps the queue full, which is the
# controller's pressure signal, and lossless profiles keep every session
# verifiable bit-for-bit. Queue 8 with the default 3/4 high water engages
# at queue length 6; engage/settle 1 makes the ladder move at nearly every
# pressured boundary, so 300k events are far more than enough to bottom
# out at park and exercise a resume from it.
echo "== start profiled (elastic, block policy, queue 8, hair-trigger controller)"
"$WORKDIR/profiled" -listen "$LISTEN" -telemetry "$TELEMETRY" \
    -elastic -elastic-engage 1 -elastic-settle 1 \
    -queue 8 -budget 64 -max-shards 2 \
    -journal-dir "$WORKDIR/journal" -journal-sync batch \
    -resume-grace 10s -quiet \
    >"$WORKDIR/profiled.log" 2>&1 &
DAEMON=$!
for i in $(seq 1 50); do
    kill -0 "$DAEMON" 2>/dev/null || { cat "$WORKDIR/profiled.log"; echo "FAIL: daemon died at startup"; exit 1; }
    grep -q "serving wire protocol" "$WORKDIR/profiled.log" && break
    sleep 0.1
done

echo "== chaos run: 4 verified sessions vs the resizing daemon, hangup + corruption injection"
cat > "$WORKDIR/elastic.scn" <<'SCN'
scenario elastic-chaos
seed 1
interval 2000
entries 2048

phase run 300000 {
	source workload gcc
}

fault hangup 6000..7000
fault corrupt 14000..15000
fault hangup 30000..31000
fault corrupt 60000..61000
fault hangup 120000..121000
fault corrupt 200000..201000
SCN
"$WORKDIR/loadgen" -addr "$LISTEN" -metrics "http://$TELEMETRY/metrics" \
    -sessions 4 -scenario "$WORKDIR/elastic.scn" \
    -max-attempts 20 -verify \
    | tee "$WORKDIR/loadgen.out"

grep -q " 0 failed" "$WORKDIR/loadgen.out" || { echo "FAIL: a session failed (or diverged from its local mirror)"; exit 1; }
grep -Eq "^reconnects: [1-9]" "$WORKDIR/loadgen.out" || { echo "FAIL: fault injection produced no reconnects"; exit 1; }
grep -Eq "^elastic: [1-9][0-9]* resize" "$WORKDIR/loadgen.out" || { echo "FAIL: the controller committed no resizes"; exit 1; }
grep -Eq "^elastic: .*degrade=[1-9]" "$WORKDIR/loadgen.out" || { echo "FAIL: no degrade notices reached the clients"; exit 1; }
grep -Eq "^elastic: .*park=[1-9]" "$WORKDIR/loadgen.out" || { echo "FAIL: the ladder never bottomed out at park"; exit 1; }
grep -Eq "^verify: [1-9] session\(s\) bit-identical, 0 skipped" "$WORKDIR/loadgen.out" || { echo "FAIL: not every surviving session verified bit-identical"; exit 1; }
grep -Eq "hwprof_elastic_resizes_total [1-9]" "$WORKDIR/loadgen.out" || { echo "FAIL: daemon counted no elastic resizes in /metrics"; exit 1; }
grep -Eq 'hwprof_elastic_actions_total\{op="park"\} [1-9]' "$WORKDIR/loadgen.out" || { echo "FAIL: daemon counted no park actions in /metrics"; exit 1; }
grep -Eq 'hwprof_tenant_resizes_total\{tenant="127.0.0.1"\} [1-9]' "$WORKDIR/loadgen.out" || { echo "FAIL: per-tenant resize counter missing from /metrics"; exit 1; }
grep -q "hwprof_ladder_rung_sessions" "$WORKDIR/loadgen.out" || { echo "FAIL: ladder rung gauge missing from /metrics"; exit 1; }

echo "== drain with SIGTERM"
kill -TERM "$DAEMON"
for i in $(seq 1 50); do
    kill -0 "$DAEMON" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$DAEMON" 2>/dev/null; then
    cat "$WORKDIR/profiled.log"
    echo "FAIL: daemon did not exit after SIGTERM"
    kill -9 "$DAEMON"
    exit 1
fi
wait "$DAEMON" || { cat "$WORKDIR/profiled.log"; echo "FAIL: daemon exited non-zero"; exit 1; }
grep -q "drained cleanly" "$WORKDIR/profiled.log" || { cat "$WORKDIR/profiled.log"; echo "FAIL: daemon did not report a clean drain"; exit 1; }

echo "PASS: elastic smoke"
