#!/usr/bin/env sh
# docs_lint.sh — documentation lint, run by CI.
#
# Fails when:
#   1. any internal/ package lacks a package comment (go vet does not
#      enforce this; `go doc` prints the comment on line 3 when present);
#   2. ARCHITECTURE.md does not mention an internal/ package (the layer
#      map must stay complete as packages are added);
#   3. ARCHITECTURE.md or README.md names an internal/<pkg> that does not
#      exist (a deleted package must not leave a stale row behind);
#   4. README.md, ARCHITECTURE.md, the verify skill, the CI workflow or a
#      script names a binary seaice-<x> with no cmd/seaice-<x> (a deleted
#      command must not leave a stale recipe behind). A name preceded by
#      a letter, digit, '_' or '-' is not a binary: x-seaice-stats is a
#      response header.
#   5. README.md, ARCHITECTURE.md, the verify skill, the CI workflow, a
#      script or a Go file outside bench/ names a BENCH_<x>.json that is
#      not at the repo root (a deleted record must not stay cited).
#   6. any .go file imports encoding/gob, tests included: every on-disk
#      format is an explicit internal/record body, byte-stable and
#      checksummed, and a test that writes gob tests a format no code
#      reads.
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

for doc in README.md ARCHITECTURE.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml scripts/*.sh; do
    [ -f "$doc" ] || continue
    for bin in $(grep -oE '(^|[^A-Za-z0-9_-])seaice-[a-z0-9]+' "$doc" | sed 's/.*seaice-/seaice-/' | sort -u); do
        if [ ! -d "cmd/$bin" ]; then
            echo "docs-lint: $doc names $bin, which has no cmd/$bin" >&2
            fail=1
        fi
    done
done

for doc in README.md ARCHITECTURE.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml scripts/*.sh $(find . -name '*.go' -not -path './bench/*'); do
    [ -f "$doc" ] || continue
    for rec in $(grep -oE 'BENCH_[A-Za-z0-9_]+\.json' "$doc" | sort -u); do
        if [ ! -f "$rec" ]; then
            echo "docs-lint: $doc names $rec, which is not at the repo root" >&2
            fail=1
        fi
    done
done

for f in $(grep -rl --include='*.go' 'encoding/gob' . || true); do
    echo "docs-lint: $f uses encoding/gob; encode on-disk state with internal/record" >&2
    fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "docs-lint: FAILED" >&2
    exit 1
fi
echo "docs-lint: ok ($(ls -d internal/*/ | wc -l | tr -d ' ') packages, $(ls -d cmd/*/ | wc -l | tr -d ' ') binaries covered)"
