GO ?= go

.PHONY: all build lint unimported vet test race fuzz cover examples-smoke bench bench-hot bench-smoke bench-scale-smoke bench-serve bench-diff bench-baseline profile

all: build vet test

# Formatting + vet, the blocking half of the CI lint job (staticcheck and
# govulncheck run there best-effort; install them locally to match).
# e2ebench is its own module, which the root ./... never reaches: vetting
# it here catches an exported-API change that breaks it.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	cd e2ebench && $(GO) vet .

# Fail when an internal package has no importer but itself (its own code,
# in-package tests and external tests all count as itself): nothing else
# runs it, yet every refactor has to keep its tests green. The CI lint job
# runs this. Allow-listed: internal/exact, the exhaustive-search oracle
# ROADMAP item 2 keeps for checking the planner.
UNIMPORTED_ALLOW = laermoe/internal/exact
unimported:
	@list=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./...) || exit 1; \
	echo "$$list" | awk -v allow='$(UNIMPORTED_ALLOW)' ' \
		{ pkg[$$1] = 1; for (i = 2; i <= NF; i++) if ($$i != $$1) used[$$i] = 1 } \
		END { \
			split(allow, a, " "); for (i in a) used[a[i]] = 1; \
			bad = 0; \
			for (p in pkg) if (p ~ /\/internal\// && !(p in used)) { print "unimported internal package: " p; bad = 1 } \
			exit bad \
		}'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The worker-pool runner and the online engine's per-layer fan-out make
# the race detector load-bearing.
race:
	$(GO) test -race ./...

# Fuzz every Fuzz* target in the module for 10 s each (the CI fuzz
# step). -fuzz refuses a pattern matching two targets, so each name is
# anchored; a new target is picked up without editing this rule or CI.
fuzz:
	@set -e; $(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$dir"/*_test.go 2>/dev/null); do \
			echo "fuzz $$pkg $$name"; \
			$(GO) test -run=NONE -fuzz="^$$name\$$" -fuzztime=10s "$$pkg"; \
		done; \
	done

# The coverage gate (the CI coverage step runs it): every listed package
# must cover at least 85% of its statements, or the target fails.
cover:
	@set -e; for pkg in ./internal/planner ./internal/trace ./internal/forecast ./internal/faults ./internal/serve ./internal/journal ./internal/training ./internal/sim ./internal/executor ./internal/comm ./internal/baselines; do \
		$(GO) test -coverprofile=cover.out "$$pkg"; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg total coverage: $${pct}%"; \
		awk -v p="$$pct" 'BEGIN { exit (p+0 < 85) ? 1 : 0 }' || { echo "$$pkg coverage $${pct}% below 85%"; exit 1; }; \
	done

# Run every example end to end in quick mode (the CI examples-smoke step):
# example drift must not land silently. examples/serve self-hosts a daemon
# and asserts its decisions match training.RunOnline byte for byte.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/rebalance
	$(GO) run ./examples/straggler
	$(GO) run ./examples/convergence
	$(GO) run ./examples/scaling
	$(GO) run ./examples/online -quick
	$(GO) run ./examples/forecast -quick
	$(GO) run ./examples/serve -quick

# Headline experiment benchmarks (each regenerates a paper artifact).
bench:
	$(GO) test -run=NONE -bench='BenchmarkFig8EndToEnd|BenchmarkFig11PlannerScaling|BenchmarkTable4Scalability' -benchtime=1x -benchmem .

# Hot-path micro benchmarks with allocation reporting (the predictor
# update path must stay at 0 allocs/op; the serve observe path must keep
# reusing its retained routing matrices; an executor iteration prices
# each layer's token All-to-All once).
bench-hot:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/sim/ ./internal/executor/ ./internal/planner/ ./internal/trace/ ./internal/forecast/ ./internal/serve/

# The CI allocation-regression smoke: same packages as bench-hot at a
# fixed small iteration budget and at GOMAXPROCS 1, the setting
# benchmarks/baseline.txt was recorded at (the observe rows allocate more
# per op with more CPUs), so the alloc columns are stable enough to diff
# against it. Ends with the frontier-scale smoke so the baseline carries
# the large-shape row too.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=100x -benchmem -cpu 1 \
		./internal/sim/ ./internal/executor/ ./internal/planner/ ./internal/trace/ ./internal/forecast/ ./internal/serve/
	@$(MAKE) --no-print-directory bench-scale-smoke

# One incremental epoch of the N=4096-GPU x E=16384-expert frontier cell
# on a warmed planner (the shape the drift-delta path exists for). Kept
# out of the package sweep above because even a single op is seconds;
# -benchtime=1x bounds it.
bench-scale-smoke:
	$(GO) test -run=NONE -bench=BenchmarkScaleSmoke -benchtime=1x ./internal/experiments/

# Serving load harness: 500 paced drifting sessions against a self-hosted
# journaled daemon, ending with a timed journal-replay restart. The same
# run (plus an SLO gate) closes the CI daemon-smoke job; the report lands
# next to the micro-benchmark baselines.
bench-serve:
	@mkdir -p benchmarks
	$(GO) run ./cmd/laer-bench -quick -journal-dir benchmarks/serve-bench-jnl -report benchmarks/serve-bench.json
	@rm -rf benchmarks/serve-bench-jnl

# Compare the current hot-path benchmarks against the checked-in
# baseline (benchmarks/baseline.txt). The warm-solve, generator, observe,
# request-dispatch, iteration, N=128 lite-routing and lite-traffic, and
# layer-replan benchmarks ($(BENCH_GATE)) are a blocking gate: a >15%
# ns/op or allocs/op regression fails the build. Everything else stays
# informational — single-shot samples on the remaining benchmarks are
# too noisy to gate on. benchstat output is printed additionally when
# installed. After an intentional perf change, refresh with
# `make bench-baseline` and commit the result.
BENCH_GATE = BenchmarkSolveWarm|BenchmarkGenerator|BenchmarkObserve|BenchmarkRequestDispatch|BenchmarkRunIteration|BenchmarkLite(Routing|Traffic)128|BenchmarkLayerReplan
bench-diff:
	@mkdir -p benchmarks
	$(MAKE) --no-print-directory bench-smoke > benchmarks/current.txt || (cat benchmarks/current.txt; exit 1)
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat benchmarks/baseline.txt benchmarks/current.txt; \
	fi
	$(GO) run ./cmd/benchdiff -gate -threshold 0.15 -match '$(BENCH_GATE)' \
		benchmarks/baseline.txt benchmarks/current.txt

# Refresh the checked-in benchmark baseline (run on the reference machine
# after an intentional perf change, and commit the result).
bench-baseline:
	@mkdir -p benchmarks
	$(MAKE) --no-print-directory bench-smoke > benchmarks/baseline.txt
	@tail -n +1 benchmarks/baseline.txt | head -5

# CPU+heap profiles of the planner-heavy experiments, the standard entry
# point for perf work (pprof files land in ./profiles).
profile: build
	@mkdir -p profiles
	$(GO) run ./cmd/laer-exp -quick -cpuprofile profiles/fig11.cpu.pprof -memprofile profiles/fig11.heap.pprof fig11
	$(GO) run ./cmd/laer-exp -quick -cpuprofile profiles/scale.cpu.pprof -memprofile profiles/scale.heap.pprof scale
	@echo "profiles written to ./profiles; inspect with: go tool pprof -top profiles/fig11.cpu.pprof"
