# Developer entry points. `make check` is the full pre-merge gate: gofmt,
# vet, the race detector over every package (with a doubled run of the
# packages that share state between goroutines), and a short run of each
# native fuzz target.

GO ?= go

.PHONY: build test fmt vet race fuzz check bench bench-compare figures verify-corpus cover loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails when gofmt would rewrite any file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The race detector over every package. The concurrent packages then get
# a second, repeated pass: -count=2 re-runs every test against warm state
# (the plan cache starts empty), and scheduling-sensitive
# races get a second draw. These are the packages whose state goroutines
# share: hop, the weakly held list of idle build scratches and the Table
# of scripts and templates that concurrent compiles draw from
# (TestConcurrentBuilds); opt, the Appendix C optimizer's worker pool (its
# workers fill the result slots of points the master prepared, each
# selecting through a private lop.Table; the path-equivalence test runs
# the paper grid at 4 workers) and the shared plan cache; workload, concurrent
# simulate calls over one compiled program (program_test.go) and batch
# Run's prefetch workers, which prepare its next jobs beside the event
# loop and store the scripts they compile in the service's map of held
# scripts (Service.scripts); server, the daemon's sessions, which prepare
# jobs (compile, search and simulate) beside the sequencer as it steps the
# service and simulates its own, and hand it each op by pointer; and yarn,
# the ResourceManager all of them allocate from. The prefetch tests then
# run again at 1, 2 and 4 Ps: the pool has GOMAXPROCS workers, and Run
# must write the same bytes at every count (prefetch_test.go).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/hop ./internal/opt ./internal/workload ./internal/server ./internal/yarn
	$(GO) test -race -cpu 1,2,4 -run 'Prefetch|RunStopsItsWorkers' ./internal/workload

# Each native fuzz target, for a fixed short time. A finding lands in the
# package's testdata/fuzz/ as a regression input for plain `go test`.
# FuzzPrepare's and FuzzParse's inputs are whole scripts and FuzzRunSpec's
# whole run descriptions, which the fuzzer would otherwise spend most of
# the 10 s minimizing, so their minimization is capped; so is
# FuzzDifferential's, whose every input runs a generated program under all
# six verify configurations and the reference interpreter, and
# FuzzDecision's, whose every input runs three resource searches and
# re-costs every cost-cell answer of a generated program at three sizes.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/server
	$(GO) test -run xxx -fuzz FuzzPrepare -fuzztime 10s -fuzzminimizetime 2s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzRunSpec -fuzztime 10s -fuzzminimizetime 2s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 2s ./internal/dml
	$(GO) test -run xxx -fuzz FuzzDifferential -fuzztime 10s -fuzzminimizetime 2s ./internal/verify
	$(GO) test -run xxx -fuzz FuzzDecision -fuzztime 10s -fuzzminimizetime 2s ./internal/opt

check: fmt vet race fuzz

# Differential plan verification: the paper corpus plus a fixed-seed fuzz
# stream plus the loop corpus (forced for/parfor over batch slices), each
# program run under every resource configuration and against the naive
# reference interpreter, with the memory-estimate auditor on.
verify-corpus:
	$(GO) run ./cmd/elastic-verify -corpus -fuzz 25 -fuzz-loops 10 -seed 1 -v

# Non-test Go lines per package, counted as ROADMAP counts them: lines that
# are neither blank nor start with // (after indentation). Fails when a
# package exceeds its cap in LOC_CAPS (ROADMAP's housekeeping caps).
LOC_CAPS = elasticml/internal/dml=1033 elasticml/internal/hop=2396 elasticml/internal/workload=2181
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | { \
	t=0; over=0; while read pkg dir files; do \
		n=0; [ -z "$$files" ] || n=$$(cd "$$dir" && cat $$files | grep -cvE '^[[:space:]]*(//|$$)'); \
		printf '%6d %s\n' "$$n" "$$pkg"; t=$$((t + n)); \
		for c in $(LOC_CAPS); do \
			if [ "$${c%=*}" = "$$pkg" ] && [ "$$n" -gt "$${c#*=}" ]; then \
				echo "$$pkg: $$n non-test lines, over its cap of $${c#*=}" >&2; over=1; \
			fi; \
		done; \
	done; printf '%6d total\n' "$$t"; exit $$over; }

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The paper's tables and figures plus the simulated-time sweeps.
figures:
	$(GO) run ./cmd/elastic-bench -quick -exp all

# The repo's benchmark (BENCHMARK.json): four workloads over the decision
# path, end-to-end and per-layer metrics. See benchmark/README.md.
bench:
	$(GO) run ./benchmark

# Paired runs of the benchmark, a reference commit against the working tree:
# `make bench-compare REF=<commit> [PAIRS=10] [WORKLOAD=all] [SEED=2]`.
# Prints medians, quartiles, pairs won and ratios per workload and
# end-to-end metric; fails on a regression beyond a BENCHMARK.json bound.
PAIRS ?= 10
WORKLOAD ?= all
SEED ?= 2
bench-compare:
	$(GO) run ./tools/benchcompare -ref "$(REF)" -pairs $(PAIRS) -workload $(WORKLOAD) -seed $(SEED)
