#!/usr/bin/env bash
# bench.sh — run the benchmark suite and append the next BENCH_<n>.json
# snapshot to the repo's performance trajectory.
#
# Every BENCH_<n>.json captures one machine's run: benchmark names, ns/op,
# B/op, allocs/op, and the custom reported metrics (the reproduction's
# headline numbers). Snapshots are append-only — perf PRs add a new file
# and compare against the previous one rather than rewriting history.
#
# Each benchmark runs COUNT times and benchjson keeps its fastest run, so
# a row is the best of five passes rather than one noisy pass.
#
# Environment knobs:
#   BENCHTIME  -benchtime value (default 1x — one full pipeline pass)
#   BENCH      -bench regexp   (default . — everything)
#   COUNT      -count value    (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
BENCH="${BENCH:-.}"
COUNT="${COUNT:-5}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./... | tee "$raw"

n=1
while [ -e "BENCH_${n}.json" ]; do
  n=$((n + 1))
done

go run ./scripts/benchjson < "$raw" > "BENCH_${n}.json"
echo "wrote BENCH_${n}.json"
