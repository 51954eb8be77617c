#!/usr/bin/env bash
# bench_smoke.sh — performance smoke gates.
#
# Two gates, selected by the optional mode argument (default: all):
#
#   pipeline  BenchmarkPipelineNoRegistry (a full source -> filter -> sink
#             run with no metrics registry attached, where every
#             instrumentation hook must cost one nil pointer comparison)
#             must not regress more than BENCH_SMOKE_LIMIT percent (default
#             5) against the recorded baseline.
#             With no baseline recorded yet, records one and succeeds.
#   batch     BenchmarkFig5SEQBatch (the fig5 SEQ workload with edge
#             batching disabled vs the engine default) — the batched run
#             must be at least BENCH_BATCH_MIN_GAIN percent faster,
#             best-of-N on both sides. The measured pair is refreshed in
#             results/bench_baseline.txt for the record.
#
#   make bench-smoke            # both gates
#   make bench-batch            # batching gate only
#   BENCH_SMOKE_COUNT=10 ...    # more repetitions (default 5, best wins)
#   BENCH_SMOKE_LIMIT=15 ...    # relax the pipeline bar (default 5%)
#   BENCH_BATCH_MIN_GAIN=10 ... # relax the batching bar (default 20%)
#   rm results/bench_baseline.txt && make bench-smoke   # re-record
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
baseline_file=results/bench_baseline.txt

pipeline_gate() {
	local bench=BenchmarkPipelineNoRegistry
	local runs="${BENCH_SMOKE_COUNT:-5}"
	local benchtime="${BENCH_SMOKE_TIME:-0.3s}"
	local limit="${BENCH_SMOKE_LIMIT:-5}"

	local out
	out=$(go test ./internal/asp/ -run '^$' -bench "^${bench}\$" \
		-count="$runs" -benchtime="$benchtime")
	echo "$out"

	local best
	best=$(echo "$out" | awk -v b="$bench" '$1 ~ "^"b {print $3}' | sort -n | head -1)
	if [ -z "$best" ]; then
		echo "bench-smoke: no result for $bench" >&2
		exit 1
	fi

	if [ ! -f "$baseline_file" ]; then
		mkdir -p "$(dirname "$baseline_file")"
		printf '%s %s ns/op\n' "$bench" "$best" >"$baseline_file"
		echo "bench-smoke: recorded baseline $best ns/op in $baseline_file"
		return
	fi

	local base
	base=$(awk -v b="$bench" '$1 == b {print $2}' "$baseline_file")
	if [ -z "$base" ]; then
		echo "bench-smoke: $baseline_file has no entry for $bench; delete it to re-record" >&2
		exit 1
	fi

	echo "bench-smoke: best $best ns/op vs baseline $base ns/op (limit +${limit}%)"
	if awk -v best="$best" -v base="$base" -v l="$limit" 'BEGIN{exit !(best > base * (1 + l / 100))}'; then
		echo "bench-smoke: FAIL — no-registry fast path regressed more than ${limit}%" >&2
		exit 1
	fi
	echo "bench-smoke: OK"
}

batch_gate() {
	local bench=BenchmarkFig5SEQBatch
	local min_gain="${BENCH_BATCH_MIN_GAIN:-20}"
	local runs="${BENCH_BATCH_COUNT:-4}"
	local benchtime="${BENCH_BATCH_TIME:-8x}"

	local out
	out=$(go test . -run '^$' -bench "^${bench}\$" \
		-count="$runs" -benchtime="$benchtime")
	echo "$out"

	local unbatched batched
	unbatched=$(echo "$out" | awk -v b="$bench/batch=1" '$1 ~ "^"b {print $3}' | sort -n | head -1)
	batched=$(echo "$out" | awk -v b="$bench/batch=default" '$1 ~ "^"b {print $3}' | sort -n | head -1)
	if [ -z "$unbatched" ] || [ -z "$batched" ]; then
		echo "bench-batch: missing results for $bench" >&2
		exit 1
	fi

	local gain
	gain=$(awk -v u="$unbatched" -v b="$batched" 'BEGIN{printf "%.1f", (u / b - 1) * 100}')
	echo "bench-batch: unbatched $unbatched ns/op, batched $batched ns/op: +${gain}% throughput"
	if awk -v u="$unbatched" -v b="$batched" -v g="$min_gain" \
		'BEGIN{exit !(u / b < 1 + g / 100)}'; then
		echo "bench-batch: FAIL — edge batching gained less than ${min_gain}%" >&2
		exit 1
	fi

	# Refresh the recorded pair, preserving every other baseline entry.
	mkdir -p "$(dirname "$baseline_file")"
	touch "$baseline_file"
	local tmp
	tmp=$(mktemp)
	grep -v "^${bench}/" "$baseline_file" | grep -v '^# batched' >"$tmp" || true
	{
		printf '%s/batch=1 %s ns/op\n' "$bench" "$unbatched"
		printf '%s/batch=default %s ns/op\n' "$bench" "$batched"
		printf '# batched throughput gain: +%s%%\n' "$gain"
	} >>"$tmp"
	mv "$tmp" "$baseline_file"
	echo "bench-batch: OK (recorded in $baseline_file)"
}

case "$mode" in
all)
	pipeline_gate
	batch_gate
	;;
pipeline) pipeline_gate ;;
batch) batch_gate ;;
*)
	echo "usage: $0 [all|pipeline|batch]" >&2
	exit 2
	;;
esac
