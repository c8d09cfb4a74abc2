GO ?= go

.PHONY: all build test vet lint vuln race soak obs-smoke bench-smoke service-smoke fuzz-smoke test-routing chiplet-smoke chiplet-scale ci experiments clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs staticcheck when it is installed; the check is advisory and
# the target succeeds (with a notice) on machines without the tool.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# vuln runs govulncheck when it is installed, same gating as lint.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# soak runs the long fault-injection soaks (all six architectures, plus
# every routing strategy on the optimized fabrics, at a 1e-4 fault rate)
# under the race detector. The tests self-skip with -short, so
# `go test -short ./...` stays fast.
soak:
	$(GO) test -race -run TestFaultSoak ./internal/core

# obs-smoke exercises the observability path end to end: a traced
# saturation search writes the JSONL flit trace at two worker-pool
# sizes, jsontrace -validate schema-checks it, and cmp proves the trace
# is byte-identical regardless of parallelism (the determinism
# guarantee of DESIGN.md section 9).
obs-smoke:
	@mkdir -p bin
	$(GO) build -o bin/motsim ./cmd/motsim
	$(GO) build -o bin/jsontrace ./examples/jsontrace
	./bin/motsim -sat -workers 1 -trace-out bin/trace_w1.jsonl >/dev/null
	./bin/motsim -sat -workers 4 -trace-out bin/trace_w4.jsonl >/dev/null
	./bin/jsontrace -validate bin/trace_w1.jsonl
	cmp bin/trace_w1.jsonl bin/trace_w4.jsonl
	@echo "obs-smoke: trace schema valid and byte-identical at 1 and 4 workers"

# bench-smoke guards the simulation hot path: the kernel micro-benchmarks
# (including the queue at real depths with the hardware delay set), the
# NI transaction path, and the per-scheme strategy planning paths
# (all of which must stay zero-alloc) plus the end-to-end Fig6a
# regeneration run once, and benchguard fails the target
# on a >10% wall-clock or any allocs/op regression against
# bench/baseline.json. benchstat, when installed, prints a nicer delta
# report (advisory, like lint). After a legitimate improvement refresh
# the baseline with `make bench-smoke BENCHGUARD_FLAGS=-update`.
BENCHGUARD_FLAGS ?=
bench-smoke:
	@mkdir -p bin
	$(GO) build -o bin/benchguard ./cmd/benchguard
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem ./internal/sim | tee bin/bench_kernel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNITransaction|BenchmarkStrategy' -benchmem ./internal/network | tee bin/bench_ni.txt
	ASYNCNOC_WORKERS=1 $(GO) test -run '^$$' -bench 'BenchmarkFig6aLatency' -benchtime 1x -benchmem . | tee bin/bench_fig6a.txt
	ASYNCNOC_WORKERS=1 $(GO) test -run '^$$' -bench 'BenchmarkChipletHierarchy' -benchtime 1x -benchmem . | tee bin/bench_chiplet.txt
	./bin/benchguard -baseline bench/baseline.json -json bench/BENCH_smoke.json $(BENCHGUARD_FLAGS) bin/bench_kernel.txt bin/bench_ni.txt bin/bench_fig6a.txt bin/bench_chiplet.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bin/bench_kernel.txt bin/bench_ni.txt bin/bench_fig6a.txt bin/bench_chiplet.txt; \
	fi

# service-smoke exercises simulation-as-a-service end to end: asyncnocd
# starts on an ephemeral port over a temp cache dir, the same Fig6a-point
# job is submitted twice (the second response must be a cache hit served
# in < 10ms), SIGTERM must drain cleanly (exit 0, store flushed), and a
# restart over the same cache dir must serve the job from disk without
# recomputing (DESIGN.md section 13).
service-smoke:
	sh scripts/service_smoke.sh

# fuzz-smoke gives the store's entry decoder, the event kernel and the
# -topology parser a short randomized beating on every CI run. Decode
# must never panic, and any entry it accepts must re-encode
# byte-identically (acceptance implies integrity). The scheduler must
# dispatch exactly what the sorted-slice reference model does, with
# exact queue and slab counts, under any mix of delay classes and
# deadlines. ParseTopology must never panic, and any value it
# accepts must format back to kind:WxH and parse to the same selection.
# Longer campaigns: go test -fuzz FuzzStoreDecode -fuzztime 10m
# ./internal/store (or FuzzScheduler in ./internal/sim,
# FuzzParseTopology in ./internal/cliflags).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzStoreDecode -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzScheduler -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzParseTopology -fuzztime 10s ./internal/cliflags

# test-routing is the scheme-shootout slice: the routing package (the
# Strategy interface and all five multicast schemes) runs alone with a
# coverage gate — the strategy layer must keep >= 90% statement coverage.
test-routing:
	@mkdir -p bin
	$(GO) test -coverprofile=bin/routing_cover.out ./internal/routing
	@total=$$($(GO) tool cover -func=bin/routing_cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "test-routing: internal/routing coverage $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 90.0) ? 0 : 1 }' || \
		{ echo "test-routing: coverage $$total% below the 90% gate"; exit 1; }

# chiplet-smoke runs the hierarchical composition end to end: the golden
# 2x2-of-4x4 table and the traced die-to-die runs under all five routing
# schemes, then a traced motsim run of the same composition whose JSONL
# trace must pass the schema check.
chiplet-smoke:
	@mkdir -p bin
	$(GO) test -run 'TestChipletGolden2x2of4x4|TestChipletShardDeterminism' -count=1 .
	$(GO) build -o bin/motsim ./cmd/motsim
	$(GO) build -o bin/jsontrace ./examples/jsontrace
	./bin/motsim -topology chiplet:2x2 -n 4 -bench Multicast10 -load 0.3 -seed 2016 \
		-warmup 100 -measure 300 -drain 600 -trace-out bin/chiplet.jsonl >/dev/null
	./bin/jsontrace -validate bin/chiplet.jsonl
	@echo "chiplet-smoke: 2x2-of-4x4 golden table locked; composed trace schema valid"

# chiplet-scale is the paper-scale composed deliverable (manual; takes
# minutes): an 8x8 interposer mesh of 8x8 MoT dies — 4096 terminals —
# under all five routing strategies, with the per-hierarchy-level table
# logged.
chiplet-scale:
	ASYNCNOC_SCALE=1 $(GO) test -run TestChipletScale8x8of8x8 -count=1 -timeout 60m -v .

# ci is the gate: vet, build, the full suite under the race detector
# (engine determinism, property, and fault-layer tests included), the
# fault soak, the observability smoke, the hot-path benchmark guard, the
# service and fuzz smokes, and the optional static analyzers.
ci: vet build test-routing chiplet-smoke race soak obs-smoke bench-smoke service-smoke fuzz-smoke lint vuln

# experiments regenerates the paper's tables at CI scale.
experiments:
	$(GO) run ./cmd/experiments -quick

clean:
	$(GO) clean ./...
