#!/usr/bin/env bash
# Builds the profiled daemon and the end-to-end benchmark from this
# checkout's sources, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload remote-short --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root, the Go build cache included. A checkout that lacks the
# repository's sources fails the build, and the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/profiled ]]; then
	echo "e2ebench: $root holds no hwprof sources to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"
go build -o "$out/bin/profiled" ./cmd/profiled
(cd e2ebench && go build -o "$out/bin/e2ebench" .)

# The commit, when the checkout is a git repository of its own.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse HEAD 2>/dev/null || true)"
exec "$out/bin/e2ebench" -profiled "$out/bin/profiled" -root "$root" -commit "$commit" "$@"
