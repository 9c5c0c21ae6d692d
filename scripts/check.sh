#!/usr/bin/env bash
# check.sh — the full CI gate: build, vet, one uncached race-enabled test
# pass (which includes the determinism-invariant lint gate,
# TestDeterminismInvariants, and the -j byte-identity tests) and the bench
# module's own vet and tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Uncached, so the suites guarding byte-determinism (fault schedule,
# serving, health, churn, pool) run fresh even when nothing changed.
echo "== go test -race -count=1 ./..."
go test -race -count=1 ./...

# bench/ is its own Go module, so ./... above never reaches its goldens or
# its metric-name checks.
echo "== go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./...
go -C bench test ./...

echo "check.sh: all gates green"
