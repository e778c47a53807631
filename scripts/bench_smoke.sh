#!/usr/bin/env sh
# bench_smoke.sh PATTERN [PACKAGE...] — run the benchmarks matching
# PATTERN in the given packages (default: the root package) once each
# (-benchtime=1x) and fail when any '|'-separated alternative of PATTERN
# names no benchmark that reported a result, so a deleted or renamed
# benchmark cannot leave a pattern that runs nothing.
#
#   scripts/bench_smoke.sh 'BenchmarkServeCacheHit'
#   scripts/bench_smoke.sh 'BenchmarkSessionPredict|BenchmarkConvT2x2' ./internal/unet ./internal/nn
set -eu

cd "$(dirname "$0")/.."
pattern=$1
shift
[ $# -gt 0 ] || set -- .
out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! go test -run=NoTests -bench="$pattern" -benchtime=1x "$@" >"$out" 2>&1; then
    cat "$out"
    exit 1
fi
cat "$out"

fail=0
for alt in $(echo "$pattern" | tr '|' ' '); do
    if ! awk '/^Benchmark/ && $2 ~ /^[0-9]+$/ { print $1 }' "$out" | grep -qE -- "$alt"; then
        echo "bench-smoke: -bench alternative '$alt' matches no benchmark that ran" >&2
        fail=1
    fi
done
exit "$fail"
