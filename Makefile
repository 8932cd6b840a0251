GO ?= go

.PHONY: all build vet test race stress bench benchpool benchcompress fuzz soak chaos warmcache traceguard servesmoke loadsmoke benchload check

all: check

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite, so CI keeps the tree
# formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress repeats the timing-sensitive resilience tests (breakers,
# including the serve tier's breaker across windows, timeouts, circuit
# rejections, replica ejection, the legacy-predictor watchdog), the
# executor's single-flight, the retry and Retry-After tests, the proxy
# hop's amplification bound and the exact trace-tiling check under the
# race detector, so a flake shows up in CI instead of one run in N.
stress:
	$(GO) test -race -count=10 -run 'Breaker|Timeout|Circuit|Eject|Watchdog|SingleFlight|StitchedTraces|Retry|Amplif|Proxy' ./internal/batch ./internal/pool ./internal/core ./internal/llm ./internal/serve

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# benchpool measures the replica pool's hedged-tail win (p99 with one
# occasionally-stalling backend vs a 3-replica hedged pool) and the
# affinity routing's cold-vs-warm shard win (warm misroute rate, guarded
# at zero vs the P2C baseline), appending one JSON line each to
# BENCH_pool.json. The benchmarks themselves fail unless hedging at
# least halves the p99 and affinity keeps every warm prompt on its
# owner.
benchpool:
	MQO_BENCH_JSON=$(CURDIR)/BENCH_pool.json \
		$(GO) test -bench 'BenchmarkPoolHedgedTail|BenchmarkPoolAffinityColdWarm' -benchtime 3x -run '^$$' ./internal/pool/
	@tail -n 2 BENCH_pool.json

# fuzz smokes every fuzz target for a bounded interval (go test -fuzz
# accepts one target per package invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzPoolPick -fuzztime $(FUZZTIME) -run '^$$' ./internal/pool/
	$(GO) test -fuzz FuzzReplayLog -fuzztime $(FUZZTIME) -run '^$$' ./internal/batch/
	$(GO) test -fuzz FuzzSegmentReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/promptcache/
	$(GO) test -fuzz FuzzScenarioConfig -fuzztime $(FUZZTIME) -run '^$$' ./internal/load/
	$(GO) test -fuzz FuzzCompress -fuzzminimizetime 10x -fuzztime $(FUZZTIME) -run '^$$' ./internal/prompt/
	$(GO) test -fuzz FuzzCount -fuzztime $(FUZZTIME) -run '^$$' ./internal/token/
	$(GO) test -fuzz FuzzVocab -fuzztime $(FUZZTIME) -run '^$$' ./internal/encode/

# soak runs the chaos soak (replica pool + hedging + breakers + disk
# cache + surrogate fallback under injected faults) and the serving-tier
# soak (mixed-tenant coalescing + backpressure over /v1/query) with the
# race detector. -short keeps CI at 2k query executions; drop it locally
# for the full 10k.
soak:
	$(GO) test -race -tags soak -short -run 'TestSoak' ./internal/core/ ./internal/serve/

# chaos runs the fault-injection experiment at a fixed seed and asserts
# that the surrogate fallback actually answered queries and that the
# run reproduced across worker counts (the experiment fails otherwise).
chaos:
	$(GO) run ./cmd/mqobench -exp faults -fast -seed 1 > chaos.log; \
		status=$$?; cat chaos.log; \
		if [ $$status -ne 0 ]; then rm -f chaos.log; exit $$status; fi
	grep -Eq 'chaos: surrogate fallback answered [1-9][0-9]* queries' chaos.log
	rm -f chaos.log

# warmcache proves the persistent prompt cache end-to-end across two
# processes: a cold mqobench run populates the cache directory, and the
# warm re-run must answer every prompt from disk. The warm run's metrics
# snapshot (BENCH_cache.json) must contain zero predictor calls
# (mqo_sim_queries_total absent) and zero cache misses; the target fails
# otherwise.
warmcache:
	rm -rf warmcache.dir
	$(GO) run ./cmd/mqobench -exp table4 -fast -seed 1 -cache-dir warmcache.dir > /dev/null
	$(GO) run ./cmd/mqobench -exp table4 -fast -seed 1 -cache-dir warmcache.dir -metrics-json BENCH_cache.json > /dev/null 2>&1
	rm -rf warmcache.dir
	@if grep -q mqo_sim_queries_total BENCH_cache.json; then \
		echo "warmcache: FAIL - warm run paid predictor calls"; exit 1; fi
	@if grep -q mqo_cache_misses_total BENCH_cache.json; then \
		echo "warmcache: FAIL - warm run missed the cache"; exit 1; fi
	@grep -q mqo_cache_hits_total BENCH_cache.json || \
		{ echo "warmcache: FAIL - no cache hits recorded"; exit 1; }
	@echo "warmcache: warm run served entirely from cache (BENCH_cache.json)"

# traceguard proves end-to-end latency attribution: a fully-traced
# mqorun must produce, for every query, a ledger whose billed stages
# tile the query's span exactly, and an SLO report whose JSON a
# strict consumer can parse. A generous 30s p99 objective makes the
# -require-slo verdict deterministic on any CI machine.
traceguard:
	$(GO) run ./cmd/mqorun -dataset cora -scale 0.1 -queries 25 -seed 1 -workers 4 \
		-trace-sample 1 -slo-latency-p99 30s \
		-trace-json traceguard.json -metrics-json traceguard-metrics.json > /dev/null
	$(GO) run ./cmd/traceguard -trace traceguard.json -require-slo
	rm -f traceguard.json traceguard-metrics.json

# loadsmoke is the CI load gate: the short deterministic "smoke"
# scenario (fixed seed, sim predictor, open-loop Poisson arrivals)
# drives the in-process serving tier, and the run fails on any SLO
# violation, any client/server verdict disagreement, or a >1%
# decode-error share. The generous 30s p99 objective makes the verdict
# deterministic on any CI machine; the honest tail numbers live in
# BENCH_load.json.
loadsmoke:
	$(GO) run ./cmd/mqoload -preset smoke -require-slo -max-decode-errors 0.01

# benchload appends one report row per headline scenario (steady near
# capacity, flood past it) to the committed BENCH_load.json trajectory:
# p50/p95/p99 latency, tokens per query, coalescing and affinity rates,
# 429 share, queue peak, and the SLO verdict cross-checked against the
# same run's /debug/slo.
benchload:
	$(GO) run ./cmd/mqoload -preset steady -out BENCH_load.json -max-decode-errors 0
	$(GO) run ./cmd/mqoload -preset flood -out BENCH_load.json -max-decode-errors 0
	@tail -n 2 BENCH_load.json

# benchcompress runs the standard prompt-compression sweep (levels 1-3
# plus two token budgets on the calibration datasets) and appends one
# JSON row per dataset to the committed BENCH_compress.json trajectory.
# The benchmark itself is the guard: it fails unless level-1
# compression saves >= 10% of metered input tokens on every dataset at
# same-shape accuracy.
benchcompress:
	MQO_BENCH_JSON=$(CURDIR)/BENCH_compress.json \
		$(GO) test -bench BenchmarkCompressSweep -benchtime 1x -run '^$$' ./internal/experiments/
	@tail -n 3 BENCH_compress.json

# servesmoke proves the online serving tier end to end across a real
# process boundary: llmserve starts with -serve, mixed-tenant
# concurrent queries hit POST /v1/query, the coalescing metrics must be
# nonzero and the SLO verdict 200, and SIGTERM must drain cleanly.
servesmoke:
	$(GO) build -o servesmoke-llmserve.bin ./cmd/llmserve
	$(GO) run ./cmd/servesmoke -llmserve ./servesmoke-llmserve.bin; \
		status=$$?; rm -f servesmoke-llmserve.bin; exit $$status

check: build vet test race
