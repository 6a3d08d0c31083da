#!/usr/bin/env bash
# Loadgen smoke test: start profiled in shed policy with a small admission
# budget, then drive it with the chaos harness — concurrent sessions over
# budget, mid-frame disconnects, and frame corruption — and assert the
# daemon refuses the overflow, sheds under pressure, resumes every killed
# session, reports it all in /metrics, and still drains cleanly on SIGTERM.
# About thirty seconds of wall clock end to end.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
DAEMON=""
# A failed assertion must not leave the daemon holding the fixed ports.
trap '{ [ -n "$DAEMON" ] && kill -9 "$DAEMON"; rm -rf "$WORKDIR"; } 2>/dev/null || true' EXIT

echo "== build"
go build -o "$WORKDIR/profiled" ./cmd/profiled
go build -o "$WORKDIR/loadgen" ./cmd/loadgen

LISTEN=127.0.0.1:19133
TELEMETRY=127.0.0.1:19134

echo "== start profiled (shed policy, budget 4, resume on)"
"$WORKDIR/profiled" -listen "$LISTEN" -telemetry "$TELEMETRY" \
    -shed -queue 8 -budget 4 -resume-grace 10s -quiet \
    >"$WORKDIR/profiled.log" 2>&1 &
DAEMON=$!
for i in $(seq 1 50); do
    kill -0 "$DAEMON" 2>/dev/null || { cat "$WORKDIR/profiled.log"; echo "FAIL: daemon died at startup"; exit 1; }
    grep -q "serving wire protocol" "$WORKDIR/profiled.log" && break
    sleep 0.1
done

echo "== chaos run: 6 sessions over a 4-session budget, disconnect injection"
cat > "$WORKDIR/overload.scn" <<'SCN'
scenario overload
seed 1
interval 10000
entries 2048

phase run 150000 {
	source workload gcc
}

fault hangup 8000..9000
fault hangup 80000..81000
SCN
"$WORKDIR/loadgen" -addr "$LISTEN" -metrics "http://$TELEMETRY/metrics" \
    -sessions 6 -scenario "$WORKDIR/overload.scn" \
    | tee "$WORKDIR/loadgen.out"

grep -q " 0 failed" "$WORKDIR/loadgen.out" || { echo "FAIL: a session failed outright"; exit 1; }
grep -q " 2 admission-refused" "$WORKDIR/loadgen.out" || { echo "FAIL: the budget did not refuse the two over-budget sessions"; exit 1; }
grep -Eq "^shed: [1-9][0-9]* of" "$WORKDIR/loadgen.out" || { echo "FAIL: shed policy shed nothing under overload"; exit 1; }
grep -Eq "^reconnects: [1-9]" "$WORKDIR/loadgen.out" || { echo "FAIL: disconnect injection produced no reconnects"; exit 1; }
grep -Eq "hwprof_resumes_total [1-9]" "$WORKDIR/loadgen.out" || { echo "FAIL: daemon reported no resumes in /metrics"; exit 1; }
grep -Eq "hwprof_events_shed_total [1-9]" "$WORKDIR/loadgen.out" || { echo "FAIL: daemon reported no shed events in /metrics"; exit 1; }
grep -Eq "hwprof_admission_refused_cost_total 2" "$WORKDIR/loadgen.out" || { echo "FAIL: daemon did not count the admission refusals"; exit 1; }

echo "== chaos run: frame corruption must park and resume, not kill"
cat > "$WORKDIR/corrupt.scn" <<'SCN'
scenario corrupt
seed 1
interval 10000
entries 2048

phase run 60000 {
	source workload gcc
}

fault corrupt 4000..5000
fault corrupt 30000..31000
SCN
"$WORKDIR/loadgen" -addr "$LISTEN" -metrics "http://$TELEMETRY/metrics" \
    -sessions 2 -scenario "$WORKDIR/corrupt.scn" \
    | tee "$WORKDIR/loadgen2.out"
grep -q " 0 failed" "$WORKDIR/loadgen2.out" || { echo "FAIL: corruption killed a session instead of parking it"; exit 1; }
grep -Eq "hwprof_frames_corrupt_total [1-9]" "$WORKDIR/loadgen2.out" || { echo "FAIL: daemon counted no corrupt frames"; exit 1; }
grep -Eq "^reconnects: [1-9]" "$WORKDIR/loadgen2.out" || { echo "FAIL: corruption produced no reconnects"; exit 1; }

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

echo "PASS: loadgen smoke"
