#!/usr/bin/env bash
# bench_smoke.sh — performance smoke gates.
#
# Four gates, selected by the optional mode argument (default: all):
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
#   observed  BenchmarkSourceFilterHop at the default batch size with a
#             metrics registry attached vs. without one, both measured in
#             this invocation (a commit against itself, not against another
#             machine's baseline): best-of-N registry=on may be at most
#             BENCH_OBS_LIMIT percent (default 15) slower than registry=off,
#             at a 0.1 % and at a 100 % filter pass rate.
#   fcep      BenchmarkMachineITER4 (the benchmark's iter_nfa program stepped
#             through the automaton alone) may allocate at most once
#             per event — a count, which repeats exactly on any machine, not
#             a time, so there is no limit to relax.
#
#   make bench-smoke            # all gates
#   make bench-batch            # batching gate only
#   BENCH_SMOKE_COUNT=10 ...    # more repetitions (default 5, best wins)
#   BENCH_SMOKE_LIMIT=15 ...    # relax the pipeline bar (default 5%)
#   BENCH_BATCH_MIN_GAIN=10 ... # relax the batching bar (default 20%)
#   BENCH_OBS_LIMIT=25 ...      # relax the registry bar (default 15%)
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

observed_gate() {
	local bench=BenchmarkSourceFilterHop
	local runs="${BENCH_SMOKE_COUNT:-5}"
	local limit="${BENCH_OBS_LIMIT:-15}"

	local out
	out=$(go test ./internal/asp/ -run '^$' -bench "^${bench}\$/pass=/batch=64\$/registry=" \
		-count="$runs" -benchtime=20x)
	echo "$out"

	# Best ns/op per sub-benchmark, then registry=on against registry=off
	# within each pass rate.
	echo "$out" | awk -v b="$bench" -v l="$limit" '
		$1 ~ "^"b"/" {
			split($1, part, "/")
			pass = part[2]; reg = part[4]; sub(/-[0-9]+$/, "", reg)
			k = pass SUBSEP reg
			if (!(k in best) || $3 < best[k]) best[k] = $3
			seen[pass] = 1
		}
		END {
			for (pass in seen) {
				off = best[pass SUBSEP "registry=off"]; on = best[pass SUBSEP "registry=on"]
				if (off == "" || on == "") { print "bench-observed: missing results for " pass > "/dev/stderr"; bad = 1; continue }
				n++
				printf "bench-observed: %s: registry=off %d ns/op, registry=on %d ns/op: %+.1f%% (limit +%s%%)\n", pass, off, on, (on / off - 1) * 100, l
				if (on > off * (1 + l / 100)) bad = 1
			}
			if (n == 0 || bad) { print "bench-observed: FAIL — an attached registry costs more than " l "% on the source -> filter hop" > "/dev/stderr"; exit 1 }
			print "bench-observed: OK"
		}'
}

fcep_gate() {
	local bench=BenchmarkMachineITER4
	local limit=1

	local out
	out=$(go test ./internal/nfa/ -run '^$' -bench "^${bench}\$" -benchtime=3x)
	echo "$out"

	echo "$out" | awk -v b="$bench" -v l="$limit" '
		$1 ~ "^"b {
			for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/event") allocs = $i
		}
		END {
			if (allocs == "") { print "bench-fcep: no allocs/event in the output of " b > "/dev/stderr"; exit 1 }
			printf "bench-fcep: %s allocs/event (limit %s)\n", allocs, l
			if (allocs + 0 > l + 0) { print "bench-fcep: FAIL — the automaton allocates for events it does not keep" > "/dev/stderr"; exit 1 }
			print "bench-fcep: OK"
		}'
}

case "$mode" in
all)
	pipeline_gate
	batch_gate
	observed_gate
	fcep_gate
	;;
pipeline) pipeline_gate ;;
batch) batch_gate ;;
observed) observed_gate ;;
fcep) fcep_gate ;;
*)
	echo "usage: $0 [all|pipeline|batch|observed|fcep]" >&2
	exit 2
	;;
esac
