#!/usr/bin/env bash
# Crash-durability smoke test: loadgen spawns a journaled profiled, streams
# concurrent sessions to a fixed offset, SIGKILLs the daemon mid-epoch, and
# restarts it on the same address — the restart replays the write-ahead
# journals and re-parks every session. Asserts each reconnecting session's
# profiles come out bit-identical to an uninterrupted local run, the
# recovery counters in /metrics are clean, and the journals are retired
# once the sessions drain. Runs both durable sync policies; ~15 seconds.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

echo "== build"
go build -o "$WORKDIR/profiled" ./cmd/profiled
go build -o "$WORKDIR/loadgen" ./cmd/loadgen

LISTEN=127.0.0.1:19143
TELEMETRY=127.0.0.1:19144

cat > "$WORKDIR/crash.scn" <<'SCN'
scenario crash
seed 1
interval 10000
entries 2048
shards 2

phase run 60000 {
	source workload gcc
}
SCN

for SYNC in batch interval; do
    JOURNAL="$WORKDIR/journal-$SYNC"
    echo "== crash run (sync $SYNC): 4 sessions, SIGKILL mid-epoch, restart, resume"
    "$WORKDIR/loadgen" -addr "$LISTEN" \
        -kill-daemon-at 25000 -daemon-bin "$WORKDIR/profiled" \
        -daemon-journal-dir "$JOURNAL" -daemon-journal-sync "$SYNC" \
        -daemon-telemetry "$TELEMETRY" \
        -sessions 4 -scenario "$WORKDIR/crash.scn" \
        2>"$WORKDIR/daemon-$SYNC.log" | tee "$WORKDIR/loadgen-$SYNC.out"

    grep -q "crash: PASS" "$WORKDIR/loadgen-$SYNC.out" \
        || { cat "$WORKDIR/daemon-$SYNC.log"; echo "FAIL: crash run did not pass"; exit 1; }
    grep -q "recovery counters clean (4 recovered, 0 failures)" "$WORKDIR/loadgen-$SYNC.out" \
        || { echo "FAIL: recovery counters not clean"; exit 1; }
    grep -q "4 session(s) recovered" "$WORKDIR/daemon-$SYNC.log" \
        || { cat "$WORKDIR/daemon-$SYNC.log"; echo "FAIL: restarted daemon did not report 4 recovered sessions"; exit 1; }
    [ "$(grep -c "resumed from" "$WORKDIR/daemon-$SYNC.log")" -ge 4 ] \
        || { cat "$WORKDIR/daemon-$SYNC.log"; echo "FAIL: fewer than 4 sessions resumed against the restarted daemon"; exit 1; }
    # Drained sessions retire their journals: nothing must remain for a
    # third daemon generation to recover.
    [ -z "$(ls -A "$JOURNAL" 2>/dev/null)" ] \
        || { ls -laR "$JOURNAL"; echo "FAIL: journals not retired after the sessions drained"; exit 1; }
done

echo "PASS: crash smoke"
