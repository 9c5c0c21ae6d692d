#!/usr/bin/env bash
# check.sh — the full CI gate: build, vet, race-enabled tests (which include
# the determinism-invariant lint gate, TestDeterminismInvariants), the bench
# module's own vet and tests, the -j byte-identity smokes and a benchmark
# smoke pass. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

# bench/ is its own Go module, so ./... above never reaches its goldens or
# its metric-name checks.
echo "== go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./...
go -C bench test ./...

# Dedicated uncached pass over the fault-injection / resilient-transport /
# resilience-experiment tests: these are the suites guarding the
# byte-determinism of the fault schedule, so they must run fresh even when
# the package-wide run above was cached.
echo "== go test -race -count=1 (resilience)"
go test -race -count=1 -run 'Resilien|Fault|WaitTimeout' \
  ./internal/faults/ ./internal/remoting/ ./internal/sim/ ./internal/experiments/

# The serving engine and its sweep, uncached and race-enabled: the batcher
# and the transports interleave many simulated processes per request.
echo "== go test -race -count=1 (serving)"
go test -race -count=1 -run 'TestServ' ./internal/serve/ ./internal/experiments/

# The pool control plane and the churn sweep guard the other half of that
# determinism story: zero-churn cells must reproduce the serving sweep
# byte for byte and a fault-free control plane must be invisible. Uncached
# and race-enabled for the same reason as above.
echo "== go test -race -count=1 (health control plane + churn)"
go test -race -count=1 ./internal/health/
go test -race -count=1 -run 'TestChurn' ./internal/experiments/

# The pool scheduler's acceptance gates, uncached and race-enabled: the
# zero-churn defrag arm must be a byte-level no-op, the defrag arm must
# strictly reduce stranded capacity without regressing goodput, and the
# whole sweep must render byte-identically at every worker count.
echo "== go test -race -count=1 (pool scheduler + sweep)"
go test -race -count=1 ./internal/pool/
go test -race -count=1 -run 'TestPool' ./internal/experiments/ .

echo "== reproduce -exp serving smoke (-j byte-identity + trace)"
serving_trace="$(mktemp)"
serving_j1="$(go run ./cmd/reproduce -exp serving -j 1)"
serving_j8="$(go run ./cmd/reproduce -exp serving -j 8 -trace "$serving_trace")"
if [ "$serving_j1" != "${serving_j8%$'\n'wrote serving trace*}" ]; then
  echo "serving output differs between -j 1 and -j 8" >&2
  exit 1
fi
[ -s "$serving_trace" ] || { echo "serving trace file is empty" >&2; exit 1; }
rm -f "$serving_trace"

echo "== reproduce -exp churn smoke (-j byte-identity)"
churn_j1="$(go run ./cmd/reproduce -exp churn -j 1)"
churn_j8="$(go run ./cmd/reproduce -exp churn -j 8)"
if [ "$churn_j1" != "$churn_j8" ]; then
  echo "churn output differs between -j 1 and -j 8" >&2
  exit 1
fi

echo "== reproduce -exp pool smoke (-j byte-identity)"
pool_j1="$(go run ./cmd/reproduce -exp pool -j 1)"
pool_j8="$(go run ./cmd/reproduce -exp pool -j 8)"
if [ "$pool_j1" != "$pool_j8" ]; then
  echo "pool output differs between -j 1 and -j 8" >&2
  exit 1
fi

# Coverage-guided fuzz smoke of Run-versus-Step delivery order and of
# the event heap against its sorted-slice reference. The recorded seeds
# always run as part of `go test` above; the search itself is opt-in
# locally (CI always runs its own 10s passes).
if [ "${CDI_FUZZ:-0}" = "1" ]; then
  echo "== fuzz smoke (FuzzRunStepOrder, 10s)"
  go test ./internal/sim -run xxx -fuzz FuzzRunStepOrder -fuzztime=10s
  echo "== fuzz smoke (FuzzEventHeap, 10s)"
  go test ./internal/sim -run xxx -fuzz FuzzEventHeap -fuzztime=10s
fi

echo "== bench.sh --smoke"
scripts/bench.sh --smoke

echo "check.sh: all gates green"
