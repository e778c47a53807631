#!/usr/bin/env sh
# nofma.sh PKG... — fail when an arm64 build of cmd/seaice-train holds a
# fused multiply-add in any symbol of the listed packages.
#
# Go may fuse x*y + z into one instruction on arm64 (and other non-amd64
# targets), which rounds once instead of twice and so changes result bits
# against amd64. An explicit float64(x*y) conversion forbids the fusion.
# This script cross-builds, disassembles the listed packages' symbols
# (functions inlined into them included) and counts FMADD, FMSUB, FNMADD
# and FNMSUB. It needs no arm64 host: the check is static.
#
#   scripts/nofma.sh internal/noise internal/scene
set -eu

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || { echo "usage: scripts/nofma.sh PKG..." >&2; exit 2; }
module=$(go list -m)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

GOARCH=arm64 go build -o "$dir/seaice-train" ./cmd/seaice-train

fail=0
for pkg in "$@"; do
    pkg=${pkg#./}
    pkg=${pkg%/}
    go tool objdump -s "^$module/$pkg\." "$dir/seaice-train" >"$dir/dis"
    if ! grep -q '^TEXT ' "$dir/dis"; then
        echo "nofma: no symbol of $pkg in the arm64 seaice-train" >&2
        fail=1
        continue
    fi
    n=$(grep -cE '[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[DS]?[[:space:]]' "$dir/dis" || true)
    if [ "$n" -ne 0 ]; then
        echo "nofma: $pkg has $n fused multiply-add instruction(s):" >&2
        awk '/^TEXT / { sym = $2 } /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[DS]?[[:space:]]/ { print "  " sym ": " $0 }' "$dir/dis" >&2
        fail=1
    else
        echo "nofma: $pkg ok"
    fi
done
exit "$fail"
