#!/usr/bin/env bash
# dist_smoke.sh — end-to-end distributed smoke test with real processes.
#
# Builds the benchrunner and cep2asp-worker binaries (with -race by
# default), starts a coordinator expecting two external worker processes,
# runs the distsmoke experiment (a short keyed SEQ workload on the
# 3-process cluster), and fails if the distributed match set differs from
# the single-process run of the identical job. Workers run in respawn
# loops because the coordinator tears its control plane down between
# runs; each loop rejoins until the benchrunner exits.
#
# The run doubles as the observability-plane gate: every process serves
# metrics + pprof, the coordinator's /cluster/metrics federation is
# scraped and cross-checked against the run's match count
# (-cluster-check), and a fully sampled end-to-end trace is exported to
# TRACE_OUT and verified to contain spans from remote workers and
# network hops.
#
# A second phase re-runs the workload under transport chaos: a netreset
# severs the coordinator→worker data link mid-stream, and the run must
# restore from its latest checkpoint — the supervision block's FASP-dist
# line reports at least one restart and `completed`, the match set still
# equals the single-process run and the /cluster/metrics cross-check
# passes. `make dist-chaos` runs this phase alone.
#
# Usage: scripts/dist_smoke.sh [extra benchrunner args...]
#   RACE=0        disable the race detector (default: enabled)
#   WORKERS=N     total cluster size incl. coordinator (default: 3)
#   TRACE_OUT=P   Chrome trace JSON path (default: results/trace_distsmoke.json)
#   PHASES="..."  which phases to run: "base chaos" (default), "base", "chaos"

set -euo pipefail
cd "$(dirname "$0")/.."

RACE="${RACE:-1}"
WORKERS="${WORKERS:-3}"
TRACE_OUT="${TRACE_OUT:-results/trace_distsmoke.json}"
PHASES="${PHASES:-base chaos}"
PORT=$((20000 + RANDOM % 20000))
ADDR="127.0.0.1:${PORT}"
BIN="$(mktemp -d)"
LOG="${BIN}/workers.log"

BUILDFLAGS=()
if [[ "$RACE" == "1" ]]; then
    BUILDFLAGS+=(-race)
    # Make data races fatal in the spawned binaries, not just reported.
    export GORACE="halt_on_error=1"
fi

echo "building binaries (race=${RACE})..."
go build "${BUILDFLAGS[@]}" -o "$BIN/benchrunner" ./cmd/benchrunner
go build "${BUILDFLAGS[@]}" -o "$BIN/cep2asp-worker" ./cmd/cep2asp-worker

worker_pids=()
cleanup() {
    for pid in "${worker_pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    # The respawn loops run the workers in subshells; kill by binary path
    # (unique per invocation: it lives in this run's temp dir).
    pkill -f "$BIN/cep2asp-worker" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

for ((i = 1; i < WORKERS; i++)); do
    (
        while :; do
            "$BIN/cep2asp-worker" -join "$ADDR" -name "smoke-$i" \
                -metrics-addr 127.0.0.1:0 >>"$LOG" 2>&1 || true
            sleep 0.2
        done
    ) &
    worker_pids+=($!)
done

if [[ " $PHASES " == *" base "* ]]; then
    echo "running distsmoke on $ADDR with $((WORKERS - 1)) external workers..."
    if "$BIN/benchrunner" -exp distsmoke -scale bench \
        -dist-workers "$WORKERS" -dist-external -dist-listen "$ADDR" \
        -metrics-addr 127.0.0.1:0 -cluster-check \
        -trace-rate 1 -trace-out "$TRACE_OUT" \
        -checkpoint-interval 10ms "$@"; then
        echo "dist-smoke: run PASS"
    else
        status=$?
        echo "dist-smoke: FAIL (exit $status); worker log tail:"
        tail -20 "$LOG" || true
        exit "$status"
    fi

    # The exported trace must be a real cluster trace: non-empty, with spans
    # attributed to at least one remote worker (pid > 0) and network-hop
    # spans crossing process boundaries.
    if [[ ! -s "$TRACE_OUT" ]]; then
        echo "dist-smoke: FAIL: trace file $TRACE_OUT missing or empty"
        exit 1
    fi
    for want in '"pid":1' '"cat":"net"'; do
        if ! grep -q "$want" "$TRACE_OUT"; then
            echo "dist-smoke: FAIL: trace $TRACE_OUT has no $want spans"
            exit 1
        fi
    done
    if ! grep -q '"cat":"barrier"' "$TRACE_OUT"; then
        # Barrier spans require at least one completed checkpoint; a very
        # fast run may legitimately finish before the first interval fires.
        echo "dist-smoke: note: no barrier spans (run completed before a checkpoint fired)"
    fi
    echo "dist-smoke: PASS (trace: $TRACE_OUT)"
fi

if [[ " $PHASES " == *" chaos "* ]]; then
    # The restore-from-checkpoint gate: one mid-stream connection reset on
    # the coordinator→worker-1 data link at frame 3 (early — the smoke
    # workload only ships a handful of frames per link at the default batch
    # size). The coordinator's write fails, the attempt fails, and the
    # restart policy restores every process from the latest checkpoint —
    # the run completes after at least one restart, the match set still
    # equals the single-process run (distsmoke's own gate), and the
    # /cluster/metrics cross-check passes.
    echo "running distsmoke under netreset chaos on $ADDR (restore-from-checkpoint gate)..."
    OUT="${BIN}/chaos.out"
    status=0
    "$BIN/benchrunner" -exp distsmoke -scale bench \
        -dist-workers "$WORKERS" -dist-external -dist-listen "$ADDR" \
        -metrics-addr 127.0.0.1:0 -cluster-check \
        -chaos "netreset:0>1@3" -restart-policy 3 \
        -checkpoint-interval 10ms "$@" | tee "$OUT" || status=$?
    if [[ "$status" != 0 ]]; then
        echo "dist-chaos: FAIL (exit $status); worker log tail:"
        tail -20 "$LOG" || true
        exit "$status"
    fi
    # The supervision block's distributed line:
    #   <name> FASP-dist <n> restarts, <d> dead letters, completed
    line="$(sed -n '/^supervision:/,/^$/p' "$OUT" | grep -E '[[:space:]]FASP-dist[[:space:]]' || true)"
    restarts="$(sed -nE 's/.*FASP-dist[[:space:]]+([0-9]+) restarts,.*/\1/p' <<<"$line")"
    if [[ -z "$restarts" || "$restarts" -lt 1 || "$line" != *", completed" ]]; then
        echo "dist-chaos: FAIL: want the FASP-dist supervision line to report >= 1 restart and completed, got: ${line:-<none>}"
        exit 1
    fi
    echo "dist-chaos: PASS (netreset restored from checkpoint after $restarts restart(s))"
fi
