#!/usr/bin/env sh
# docs_lint.sh — documentation lint, run by CI.
#
# Fails when:
#   1. any internal/ package lacks a package comment (go vet does not
#      enforce this; `go doc` prints the comment on line 3 when present);
#   2. ARCHITECTURE.md does not mention an internal/ package (the layer
#      map must stay complete as packages are added);
#   3. ARCHITECTURE.md or README.md names an internal/<pkg> that does not
#      exist (a deleted package must not leave a stale row behind).
set -eu

cd "$(dirname "$0")/.."
fail=0

for d in internal/*/; do
    pkg=$(basename "$d")
    doc=$(go doc "./internal/$pkg" 2>/dev/null | sed -n '3p')
    if [ -z "$doc" ]; then
        echo "docs-lint: internal/$pkg lacks a package comment" >&2
        fail=1
    fi
    if ! grep -q "internal/$pkg\b" ARCHITECTURE.md; then
        echo "docs-lint: ARCHITECTURE.md does not cover internal/$pkg" >&2
        fail=1
    fi
done

for doc in ARCHITECTURE.md README.md; do
    for pkg in $(grep -oE 'internal/[a-z0-9_]+' "$doc" | sort -u); do
        if [ ! -d "$pkg" ]; then
            echo "docs-lint: $doc names $pkg, which does not exist" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs-lint: FAILED" >&2
    exit 1
fi
echo "docs-lint: ok ($(ls -d internal/*/ | wc -l | tr -d ' ') packages covered)"
