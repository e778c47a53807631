#!/usr/bin/env sh
# nofma.sh PKG... — fail when an arm64 build of any cmd/ binary holds a
# fused multiply-add in a symbol of the listed packages.
#
# Go may fuse x*y + z into one instruction on arm64 (and other non-amd64
# targets), which rounds once instead of twice and so changes result bits
# against amd64. An explicit float64(x*y) conversion forbids the fusion.
# This script cross-builds every cmd/ binary, disassembles the module's
# symbols (functions inlined into them included) and counts FMADD, FMSUB,
# FNMADD and FNMSUB per package. A package passes when no binary that
# links it holds one, and fails when none links it. It needs no arm64
# host: the check is static.
#
#   scripts/nofma.sh internal/noise internal/scene
set -eu

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || { echo "usage: scripts/nofma.sh PKG..." >&2; exit 2; }
module=$(go list -m)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

bins=""
for cmd in cmd/*/; do
    bin=$(basename "$cmd")
    GOARCH=arm64 go build -o "$dir/$bin" "./$cmd"
    go tool objdump -s "^$module/" "$dir/$bin" >"$dir/$bin.dis"
    bins="$bins $bin"
done

fused='[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[DS]?[[:space:]]'
fail=0
for pkg in "$@"; do
    pkg=${pkg#./}
    pkg=${pkg%/}
    linked=""
    bad=0
    for bin in $bins; do
        # The package's symbols: from its TEXT line to the next TEXT line.
        awk -v p="$module/$pkg." 'index($0, "TEXT ") == 1 { keep = index($2, p) == 1 } keep' \
            "$dir/$bin.dis" >"$dir/pkg.dis"
        grep -q '^TEXT ' "$dir/pkg.dis" || continue
        linked="$linked $bin"
        n=$(grep -cE "$fused" "$dir/pkg.dis" || true)
        if [ "$n" -ne 0 ]; then
            echo "nofma: $pkg has $n fused multiply-add instruction(s) in $bin:" >&2
            awk -v re="$fused" '/^TEXT / { sym = $2 } $0 ~ re { print "  " sym ": " $0 }' "$dir/pkg.dis" >&2
            bad=1
        fi
    done
    if [ -z "$linked" ]; then
        echo "nofma: no arm64 cmd/ binary links $pkg" >&2
        fail=1
    elif [ "$bad" -ne 0 ]; then
        fail=1
    else
        echo "nofma: $pkg ok ($(echo $linked | tr ' ' ','))"
    fi
done
exit "$fail"
