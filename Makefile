GO ?= go

.PHONY: build test flake race vet loc bench chaos overload dist-smoke dist-chaos

build:
	$(GO) build ./...

# Non-test Go lines per package directory and in total. bench/ is a module
# of its own and is left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' \
		| sort -k2

# bench/ is a module of its own, which ./... does not reach: its tests run
# every workload at smoke size in both modes and compare the match sets.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

# The two root tests whose outcome once depended on goroutine scheduling
# (recall lower bound, pattern-aware vs oldest-first), repeated until a
# one-in-ten flake would show.
flake:
	$(GO) test -count=50 -run 'TestRecallEstimateLowerBound|TestPatternAware' .

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Supervision under fault injection: panic isolation, chaos kills, restart
# policies and poison-record routing, and core.Run's attempt loop composing
# them with re-planning and quality demands, all under the race detector.
chaos:
	$(GO) test -race -run 'Supervised|Chaos|Quarantine|Poison|Restart|Backoff|Budget|DLQ|ShutdownTimeout|Failure|Replan|Compose' \
		. ./internal/asp/ ./internal/chaos/ ./internal/supervise/ ./internal/cep/ ./internal/checkpoint/ ./internal/core/ ./internal/optimizer/

# Bounded-state soak: budgets, shed/pause policies, memory admission and
# the DLQ cap, under the race detector with a real GOMEMLIMIT in force.
overload:
	GOMEMLIMIT=1GiB $(GO) test -race -run 'Overload|Shed|Pause|Budget|DLQ|StateStats|MemController|Gate|Recall|Quality' \
		. ./internal/asp/ ./internal/nfa/ ./internal/overload/ ./internal/supervise/ ./internal/harness/

# Multi-process smoke: a coordinator plus two real cep2asp-worker
# processes (race-enabled binaries) run a short keyed SEQ workload over
# loopback TCP; the distributed match set must equal the single-process
# run. Also gates the observability plane: /cluster/metrics is scraped
# and must list every worker with match counters summing to the run's
# match count, and the exported Chrome trace
# (results/trace_distsmoke.json) must contain remote-worker and
# network-hop spans. Fails non-zero on any divergence or data race.
dist-smoke:
	./scripts/dist_smoke.sh

# Network fault-tolerance gate alone: the distsmoke workload with a
# netreset severing the coordinator→worker data link mid-stream. The
# transport must heal it by transparent reconnect — zero job restarts,
# cep2asp_net_reconnects_total >= 1 in the /cluster/metrics scrape, and
# the match set still equal to the single-process run.
dist-chaos:
	PHASES=chaos ./scripts/dist_smoke.sh
