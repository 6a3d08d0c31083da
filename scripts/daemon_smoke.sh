#!/usr/bin/env bash
# Daemon smoke test: build profiled and profctl, start the daemon, stream a
# short synthetic workload through it, scrape the telemetry endpoint, then
# drain with SIGTERM and assert a clean exit and a CPU profile that
# `go tool pprof` reads. Five seconds of wall clock, exercising the whole
# serving path end to end.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

echo "== build"
go build -o "$WORKDIR/profiled" ./cmd/profiled
go build -o "$WORKDIR/profctl" ./cmd/profctl

LISTEN=127.0.0.1:19123
TELEMETRY=127.0.0.1:19124

echo "== start profiled"
"$WORKDIR/profiled" -listen "$LISTEN" -telemetry "$TELEMETRY" \
    -cpu-profile "$WORKDIR/cpu.pb.gz" >"$WORKDIR/profiled.log" 2>&1 &
DAEMON=$!
# The daemon must not have died, and must be accepting, before we dial.
for i in $(seq 1 50); do
    kill -0 "$DAEMON" 2>/dev/null || { cat "$WORKDIR/profiled.log"; echo "FAIL: daemon died at startup"; exit 1; }
    grep -q "serving wire protocol" "$WORKDIR/profiled.log" && break
    sleep 0.1
done

echo "== stream a workload through it"
"$WORKDIR/profctl" -addr "$LISTEN" -workload gcc -intervals 3 -top 3 | tee "$WORKDIR/profctl.out"
grep -q "interval 2:" "$WORKDIR/profctl.out" || { echo "FAIL: profctl printed no third interval"; exit 1; }

echo "== scrape telemetry"
SCRAPE=$(curl -sf "http://$TELEMETRY/metrics" 2>/dev/null \
    || wget -qO- "http://$TELEMETRY/metrics")
echo "$SCRAPE" | grep -q "^hwprof_sessions_total 1$" || { echo "FAIL: telemetry did not count the session"; echo "$SCRAPE"; exit 1; }
echo "$SCRAPE" | grep -q "^hwprof_intervals_total 4$" || { echo "FAIL: telemetry did not count the intervals"; echo "$SCRAPE"; exit 1; }
echo "$SCRAPE" | grep -q "^hwprof_session_errors_total 0$" || { echo "FAIL: the smoke session errored"; echo "$SCRAPE"; exit 1; }

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

echo "== read the daemon's CPU profile"
go tool pprof -top "$WORKDIR/profiled" "$WORKDIR/cpu.pb.gz" >"$WORKDIR/pprof.out" 2>&1 \
    || { cat "$WORKDIR/pprof.out"; echo "FAIL: go tool pprof could not read the CPU profile"; exit 1; }
grep -q "^Type: cpu" "$WORKDIR/pprof.out" || { cat "$WORKDIR/pprof.out"; echo "FAIL: the profile is not a CPU profile"; exit 1; }
head -n 12 "$WORKDIR/pprof.out"

echo "PASS: daemon smoke"
