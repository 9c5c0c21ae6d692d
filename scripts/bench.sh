#!/usr/bin/env bash
# bench.sh — run the table/figure benchmarks with -benchmem and record the
# results as machine-readable JSON, one file per invocation:
#
#   scripts/bench.sh                 # full run -> BENCH_<n>.json (n auto-increments)
#   scripts/bench.sh -bench Sim      # restrict the benchmark pattern
#   scripts/bench.sh --smoke         # 1-iteration sanity pass used by check.sh;
#                                    # validates the pipeline, writes nothing
#
# Each BENCH_<n>.json is an object with host metadata plus one entry per
# benchmark: {name, ns_per_op, bytes_per_op, allocs_per_op}. The sequence of
# files is the repo's perf trajectory: compare allocs_per_op of BenchmarkSim*
# across files to see the effect of engine changes (stdlib toolchain only —
# the parse is plain awk, no external JSON tools).
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='.'
benchtime=''
smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke)
            smoke=1
            pattern='BenchmarkSimEngineEvents'
            benchtime='1x'
            ;;
        -bench)
            shift
            pattern="$1"
            ;;
        -benchtime)
            shift
            benchtime="$1"
            ;;
        *)
            echo "bench.sh: unknown argument $1" >&2
            exit 2
            ;;
    esac
    shift
done

raw="$(mktemp)"
if [ "$smoke" = 1 ]; then
    out="$(mktemp)"
    trap 'rm -f "$raw" "$out"' EXIT
else
    trap 'rm -f "$raw"' EXIT
    n=1
    while [ -e "BENCH_${n}.json" ]; do
        n=$((n + 1))
    done
    out="BENCH_${n}.json"
fi

args=(-run '^$' -bench "$pattern" -benchmem)
if [ -n "$benchtime" ]; then
    args+=(-benchtime "$benchtime")
fi
echo "== go test ${args[*]} ." >&2
go test "${args[@]}" . | tee "$raw" >&2

# Benchmark lines look like:
#   BenchmarkSimEngineEvents-4   123456   987 ns/op   0 B/op   0 allocs/op
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"benchmarks\": [", date, goos, goarch
    count = 0
}
/^Benchmark/ && /ns\/op/ {
    name = $1
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (bytes == "") bytes = 0
    if (allocs == "") allocs = 0
    if (count++) printf ","
    printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs
}
END {
    if (count == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "\n  ]\n}\n"
}' "$raw" > "$out"

if [ "$smoke" = 1 ]; then
    # The smoke pass only proves the run+parse pipeline: the file must be
    # non-empty, syntactically sane, and contain the engine benchmark.
    grep -q '"name": "BenchmarkSimEngineEvents' "$out"
    grep -q '"allocs_per_op":' "$out"
    echo "bench.sh --smoke: pipeline ok" >&2
else
    echo "bench.sh: wrote $out ($(grep -c '"name"' "$out") benchmarks)" >&2
fi
