# Build / verify entry points. `make verify` is the tier-1 gate plus the
# race detector; CI should run exactly that.

GO ?= go

# Headline benchmarks captured in BENCH_<n>.json: the parallel-runner
# sweep, the engine fan-out, a full end-to-end artifact, plus the
# per-subsystem micro-benches (memsim access path, cpusim step loop,
# cluster discrete-event run, the shared Zipf sampler every cluster run
# draws from). Rows whose code was deleted are listed in cmd/benchjson's
# retired table. BenchmarkCalibration
# is the host-speed canary bench-gate normalizes by — keep it in every
# captured point.
BENCH_REGEX ?= BenchmarkSweepParallel|BenchmarkEngineCells|BenchmarkFig13EndToEnd|BenchmarkEmbeddingKernel|BenchmarkHierarchyAccess|BenchmarkCacheLookupHit|BenchmarkCacheFillEvict|BenchmarkAccessSequential|BenchmarkCoreStepLoop|BenchmarkClusterSimulate|BenchmarkOpenLoopParallel|BenchmarkChaosOpenLoop|BenchmarkHetSched|BenchmarkZipfShared|BenchmarkCalibration
BENCH_PKGS  ?= . ./internal/memsim ./internal/cpusim ./internal/cluster ./internal/hetsched ./internal/stats
BENCHTIME   ?= 2s
BENCH_N     ?= 0
# Runs per benchmark in a capture; benchjson folds repeats to the
# fastest run, rejecting episodic noisy-neighbor slowdowns.
BENCH_COUNT ?= 3

.PHONY: build vet test race bench-test bench bench-json bench-compare bench-gate golden golden-update fuzz loc verify

# Per-target budget for `make fuzz` (matches CI's fuzz-smoke job).
FUZZTIME ?= 20s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency gate: the deterministic parallel runner, the engine
# cell fan-out, and the scheduler all run under the race detector. Must
# pass clean — a data race here would void the byte-identical-output
# guarantee dlrmbench -workers rests on.
# -timeout 20m: the exp package's registry-wide suites run ~8 minutes
# under the race detector on a 1-CPU host, past the 10m default.
race:
	$(GO) test -race -timeout 20m ./...

# The end-to-end benchmark under bench/ is its own module, so `go test
# ./...` at the root never compiles it; a cluster or hetsched API change
# could break it unseen. Vet and test it here (a few seconds).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Emit the perf-trajectory point BENCH_$(BENCH_N).json (plus the raw
# go-bench text as BENCH_$(BENCH_N).bench for benchstat). Run on an idle
# machine; bump BENCH_N per committed point (0 = pre-optimization seed).
# benchjson fails when any benchmark named in BENCH_REGEX is missing from
# the capture.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_REGEX)' -benchmem -benchtime $(BENCHTIME) -count $(BENCH_COUNT) $(BENCH_PKGS) | tee BENCH_$(BENCH_N).bench | $(GO) run ./cmd/benchjson -bench '$(BENCH_REGEX)' -out BENCH_$(BENCH_N).json
	@echo "wrote BENCH_$(BENCH_N).json"

# Compare two committed trajectory points. Uses benchstat on the raw
# .bench files when installed; always prints the dependency-free
# benchjson ratio table.
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then benchstat BENCH_$(OLD).bench BENCH_$(NEW).bench; fi
	$(GO) run ./cmd/benchjson -compare BENCH_$(OLD).json BENCH_$(NEW).json

# Perf-regression gate on the committed trajectory: compare the two most
# recent BENCH_<n>.json points and fail on any >$(BENCH_GATE_PCT)%
# regression in ns/op (normalized by the BenchmarkCalibration host-speed
# canary — successive points are captured on hosts whose effective speed
# drifts) or in allocs/op (raw; allocation counts don't drift). CI runs
# this on every push, so a new trajectory point must pass the gate
# against its predecessor before it is committed. Points that predate
# BenchmarkCalibration (BENCH_0/BENCH_1) can't be ns-gated — benchjson
# skips the ns gate and still gates allocs when the canary is missing
# from the older file (DESIGN.md §13.4). A BENCH_<n>.bench capture
# without its BENCH_<n>.json twin (a truncated or abandoned point) fails
# the gate instead of being silently skipped.
BENCH_GATE_PCT ?= 10
bench-gate:
	@set -e; \
	for b in BENCH_[0-9]*.bench; do \
		[ -e "$$b" ] || continue; \
		if [ ! -e "$${b%.bench}.json" ]; then echo "bench-gate: $$b has no $${b%.bench}.json twin (truncated or abandoned capture)"; exit 1; fi; \
	done; \
	files=$$(ls BENCH_[0-9]*.json 2>/dev/null | sort -t_ -k2 -n); \
	n=$$(echo $$files | wc -w); \
	if [ $$n -lt 2 ]; then echo "bench-gate: fewer than two committed BENCH_<n>.json points; nothing to gate"; exit 0; fi; \
	old=$$(echo $$files | awk '{print $$(NF-1)}'); new=$$(echo $$files | awk '{print $$NF}'); \
	echo "bench-gate: $$old -> $$new (threshold $(BENCH_GATE_PCT)%)"; \
	$(GO) run ./cmd/benchjson -compare -gate $(BENCH_GATE_PCT) -calibrate 'BenchmarkCalibration' $$old $$new

# Re-pin after a DELIBERATE change to simulator arithmetic (review the
# diff — these files are the regression baseline). One `go test -update`
# over every package whose tests import internal/pin rewrites
# internal/exp/testdata/golden.json and every testdata/*.pin value file
# (the engine, cluster, hetsched and Zipf-stream pins); a second run
# leaves git diff empty. `golden` is the historical alias.
PIN_PKGS = $(shell $(GO) list -f '{{.ImportPath}}{{range .TestImports}} {{.}}{{end}}' ./... | awk '/ dlrmsim\/internal\/pin( |$$)/ {print $$1}')
golden-update:
	$(GO) test $(PIN_PKGS) -update

golden: golden-update

# Fuzz the structural invariants: cache residency/accounting, shard-plan
# row ownership, seed-splitting collision freedom, the shared Zipf
# sampler's head table agreeing with rejection-inversion, arrival-stream
# monotonicity/determinism, phase-graph validation-vs-scheduling
# agreement, cluster-config validation-vs-simulation agreement, the
# copy heap's pop order against a sort, and the trace-file reader's
# checks and round trip. Each target gets FUZZTIME; the checked-in corpora under
# testdata/fuzz run on every plain `make test` as ordinary seed cases.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCacheAccess -fuzztime $(FUZZTIME) ./internal/memsim
	$(GO) test -run '^$$' -fuzz FuzzShardPlan -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzChaosSchedule -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzClusterConfig -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzSplitSeed -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzZipfHead -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzArrivalStream -fuzztime $(FUZZTIME) ./internal/traffic
	$(GO) test -run '^$$' -fuzz FuzzPhaseGraph -fuzztime $(FUZZTIME) ./internal/hetsched
	$(GO) test -run '^$$' -fuzz FuzzCopyOrder -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzTraceRead -fuzztime $(FUZZTIME) ./internal/trace

# Non-test Go lines per package under internal/ and cmd/, then their
# total: the size score a simplicity change reports.
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d total\n' $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

verify: build vet test race bench-test
