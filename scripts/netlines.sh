#!/usr/bin/env bash
# Net lines: for each Go package with a changed .go file, print its line
# counts at a base ref and in the working tree, with the difference, plus a
# total row. Three counts per package: non-test Go ("go"), the code lines
# of that Go ("code": non-blank and not a //-only comment) and tests
# ("test"). Untracked .go files count as added. Usage:
#
#     scripts/netlines.sh [base-ref]        (default HEAD~1)
#
# Writes the table to stdout; when GITHUB_STEP_SUMMARY is set (CI), the
# table is also appended there as a fenced block.
set -euo pipefail

cd "$(dirname "$0")/.."

BASE=${1:-HEAD~1}
if ! git rev-parse --verify --quiet "$BASE^{commit}" >/dev/null; then
    echo "netlines: unknown ref $BASE" >&2
    exit 1
fi

# counts reads Go source on stdin and prints "<lines> <code lines>".
counts() {
    awk '{ n++ } /[^[:space:]]/ && !/^[[:space:]]*\/\// { c++ } END { printf "%d %d\n", n, c }'
}

# tally reads "<path> <lines> <code lines>" rows and prints the package's
# "<go> <code> <test>" totals.
tally() {
    awk '$1 ~ /_test\.go$/ { t += $2; next } { g += $2; c += $3 } END { printf "%d %d %d\n", g, c, t }'
}

# delta formats a signed difference.
delta() { if [ "$1" -gt 0 ]; then echo "+$1"; else echo "$1"; fi; }

changed=$({
    git diff --name-only "$BASE" -- '*.go'
    git ls-files --others --exclude-standard -- '*.go'
} | sort -u)

TABLE=$(
    printf '%-26s %22s %22s %22s\n' package "go: base -> now" "code: base -> now" "test: base -> now"
    tg0=0 tg1=0 tc0=0 tc1=0 tt0=0 tt1=0
    for dir in $(for f in $changed; do dirname "$f"; done | sort -u); do
        prefix=""
        [ "$dir" = . ] || prefix="$dir/"
        # The root package's files are listed by the pathspec ".".
        read -r g0 c0 t0 < <(
            git ls-tree --name-only "$BASE" -- "${prefix:-.}" | grep '\.go$' | while read -r f; do
                echo "$f $(git show "$BASE:$f" | counts)"
            done | tally
        )
        read -r g1 c1 t1 < <(
            for f in "$prefix"*.go; do
                if [ -f "$f" ]; then echo "$f $(counts <"$f")"; fi
            done | tally
        )
        printf '%-26s %6d -> %6d %6s %6d -> %6d %6s %6d -> %6d %6s\n' "$dir" \
            "$g0" "$g1" "$(delta $((g1 - g0)))" "$c0" "$c1" "$(delta $((c1 - c0)))" "$t0" "$t1" "$(delta $((t1 - t0)))"
        tg0=$((tg0 + g0)) tg1=$((tg1 + g1)) tc0=$((tc0 + c0)) tc1=$((tc1 + c1)) tt0=$((tt0 + t0)) tt1=$((tt1 + t1))
    done
    printf '%-26s %6d -> %6d %6s %6d -> %6d %6s %6d -> %6d %6s\n' total \
        "$tg0" "$tg1" "$(delta $((tg1 - tg0)))" "$tc0" "$tc1" "$(delta $((tc1 - tc0)))" "$tt0" "$tt1" "$(delta $((tt1 - tt0)))"
)
echo "$TABLE"

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### Net lines: $BASE vs this tree (advisory)"
        echo '```'
        echo "$TABLE"
        echo '```'
    } >>"$GITHUB_STEP_SUMMARY"
fi
