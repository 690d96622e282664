# Tier-1 gate: `make check` is what CI (and every PR) must keep green.
# It vets, builds and tests every package, re-runs the concurrent
# packages (the parallel experiment session and the interpreter it drives)
# under the race detector in short mode, and checks the figure and arena
# outputs byte for byte against their goldens.
#
# `make check-deep` is the slower tier-2 gate: the whole tree race-enabled
# and shuffled, a fuzz smoke pass over the seed corpora, the simcheck
# property suite, and a figure regeneration with shadow-model self-checking
# on. See TESTING.md for the oracle taxonomy behind each layer.

GO ?= go

.PHONY: check check-deep vet build test race race-full golden fuzz-smoke simcheck \
	arena paths bench bench-json bench-pairs figures metrics serve smoke-serve \
	chaos chaos-replay converge walsoak lines clean

# The benchmark is a module of its own (e2ebench/go.mod), so its tests run
# from its directory.
check: vet build test race golden
	cd e2ebench && $(GO) test ./...

check-deep: check
	$(GO) test -race -shuffle=on ./...
	$(MAKE) fuzz-smoke
	$(MAKE) simcheck
	$(MAKE) chaos
	$(MAKE) converge
	$(MAKE) walsoak
	$(GO) run ./cmd/experiments -figure 16 -workloads 181.mcf -selfcheck
	$(MAKE) arena
	$(MAKE) paths
	$(MAKE) smoke-serve

# gofmt -l lists every file whose formatting differs; any output fails.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# Shuffled so tests cannot silently grow order dependencies.
test:
	$(GO) test -shuffle=on ./...

# The concurrent packages: the parallel experiment session, the interpreter
# it drives and the daemon with its clients.
RACE_PKGS = ./internal/experiments/... ./internal/machine/... \
	./internal/server/... ./internal/client/... ./internal/chaos/... \
	./internal/simcheck/... ./internal/cache/... ./internal/hwpf/... \
	./internal/walstore/... ./internal/ring/... ./internal/api/... \
	./internal/blpath/...

# The race run uses -short so it stays fast enough for a pre-commit gate;
# TestParallelMatchesSerial (the full parallel-vs-serial determinism check)
# runs race-enabled in full via `make race-full`. Shuffled for the same
# reason as `test`: the server/client/chaos suites must not grow order
# dependencies.
race:
	$(GO) test -race -short -shuffle=on $(RACE_PKGS)

race-full:
	$(GO) test -race -shuffle=on $(RACE_PKGS)

# Byte-identity gate: the paper figures (also with the rpt hardware
# prefetcher, the one figure job whose hooked lanes keep hierarchies of
# their own), the prefetcher arena and the Ball-Larus path table over
# every workload (the one figure job whose translations dispatch a
# compare+branch on the equality truth table), all computed in parallel,
# must equal their committed outputs. The arena golden belongs to the
# end-to-end benchmark and is only read here; the same arena run also
# writes its per-cell obs counters, which must equal the metrics golden.
golden:
	$(GO) run ./cmd/experiments -figure all -j 2 | cmp - figures_output.txt
	$(GO) run ./cmd/experiments -figure all -j 2 -hwpf rpt | cmp - internal/experiments/testdata/figures_hwpf_rpt.golden
	$(GO) run ./cmd/experiments -figure arena -j 2 -metrics /tmp/stridepf-arena-metrics.json | cmp - e2ebench/testdata/arena_all.golden
	cmp /tmp/stridepf-arena-metrics.json internal/experiments/testdata/arena_metrics.golden
	$(GO) run ./cmd/experiments -figure paths -j 2 | cmp - internal/experiments/testdata/paths_all.golden

# Short coverage-guided fuzzing runs seeded from testdata/fuzz corpora.
# ~10s per target: enough to exercise the mutator, not a soak test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseProgram -fuzztime 10s ./internal/ir
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime 10s ./internal/mc
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 10s ./internal/profile
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/walstore
	$(GO) test -run '^$$' -fuzz FuzzPathNumbering -fuzztime 10s ./internal/blpath
	$(GO) test -run '^$$' -fuzz FuzzDecodeParams -fuzztime 10s ./internal/api

# Differential/metamorphic property checks (see TESTING.md).
simcheck:
	$(GO) run ./cmd/simcheck -n 8

# Interpreter micro-benchmarks, diffed against the committed baseline:
# fails on a >10% ns/op regression. Appends to BENCH_history.jsonl but
# leaves BENCH_interp.json alone (refresh that with bench-json).
bench:
	$(GO) run ./cmd/interpbench -o /tmp/stridepf-bench.json -compare BENCH_interp.json

# Refresh BENCH_interp.json with current numbers (history appended too).
bench-json:
	$(GO) run ./cmd/interpbench -o BENCH_interp.json

# Dynamic instruction-pair frequencies over the workloads. They only propose
# superinstruction candidates: a fusion rule stays only if counting shows
# the workloads' translations form it (DESIGN.md section 7).
bench-pairs:
	$(GO) run ./cmd/interpbench -pairs

# Regenerate all paper figures (parallel across GOMAXPROCS workers).
figures:
	$(GO) run ./cmd/experiments -figure all

# The prefetcher-arena cross product (hardware scheme x workload x cache
# config) on the short workload set; see EXPERIMENTS.md, "Prefetcher arena".
arena:
	$(GO) run ./cmd/experiments -figure arena -workloads 181.mcf,197.parser

# Path-sensitive stride discovery: the Ball-Larus path figure over the short
# workload set (the ground-truth kernels ride along automatically) plus the
# pathtruth oracle property; see EXPERIMENTS.md, "Path-sensitive discovery".
paths:
	$(GO) run ./cmd/experiments -figure paths -workloads 181.mcf,197.parser
	$(GO) run ./cmd/simcheck -prop pathtruth -n 8

# Run the stride-profiling service daemon (see cmd/strided and DESIGN.md §9).
serve:
	$(GO) run ./cmd/strided

# End-to-end daemon smoke: boot strided on a loopback port, assert the
# figure-16 endpoint's bytes equal the experiments CLI's output, and shut
# down gracefully.
smoke-serve:
	$(GO) build -o /tmp/stridepf-strided ./cmd/strided
	$(GO) run ./cmd/experiments -figure 16 -workloads 197.parser -o /tmp/stridepf-fig16-cli.txt
	/tmp/stridepf-strided -addr 127.0.0.1:8471 -workloads 197.parser & \
	pid=$$!; \
	sleep 1; \
	curl -fsS http://127.0.0.1:8471/healthz > /dev/null && \
	curl -fsS http://127.0.0.1:8471/v1/figure/16 -o /tmp/stridepf-fig16-http.txt; \
	status=$$?; \
	kill -INT $$pid; wait $$pid; \
	test $$status -eq 0 && cmp /tmp/stridepf-fig16-cli.txt /tmp/stridepf-fig16-http.txt
	@echo "smoke-serve: figure endpoint byte-identical to CLI"

# Full-length fault-injection soak (see TESTING.md, "Fault injection"):
# N concurrent resilient clients push shards through a chaos-wrapped
# in-process strided under -race; the merged store must end up
# byte-identical to the fault-free offline profmerge of the same shards.
# The test prints its seed; reproduce any failure with
# `make chaos-replay SEED=<seed>`. Pass CHAOS_SEED=N to pick a seed here.
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -tags soak -run TestChaosSoakFull -v -count=1 ./internal/chaos

# Replay a recorded fault plan: identical per-site fault schedules, so a
# failure found by `make chaos` reproduces from its printed seed alone.
chaos-replay:
	@test -n "$(SEED)" || { echo "usage: make chaos-replay SEED=<seed from a failing run>"; exit 1; }
	CHAOS_SEED=$(SEED) $(GO) test -race -tags soak -run TestChaosSoakFull -v -count=1 ./internal/chaos

# Full-length online-loop convergence soak (see TESTING.md, "Convergence"):
# a drifting DriftKernel workload drives repeated plan re-convergence while
# a subscriber follows /v1/plan/watch through a fault-injected transport;
# delivered deltas must be exactly epochs 1..E and replaying them must
# reproduce the server's plan. Shortened form runs in tier 1; pass
# CHAOS_SEED=N to replay a seed.
converge:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -tags soak -run TestConvergeSoakFull -v -count=1 ./internal/chaos

# Deep torn-write soak over the WAL-backed store (see TESTING.md,
# "Recovery oracle"): hundreds of open/upload/kill-at-random-offset cycles
# across several seeds, each reopen checked byte-identical to the offline
# profmerge of the committed prefix.
walsoak:
	$(GO) test -race -tags soak -run TestWALKillLoopFull -v -count=1 ./internal/walstore

# Figure 16 with the prefetch-effectiveness observer on: per-class
# accuracy/coverage/timeliness JSON plus the sampled event trace
# (EXPERIMENTS.md, "Prefetch-effectiveness metrics").
metrics:
	$(GO) run ./cmd/experiments -figure 16 -metrics metrics.json \
		-trace trace.jsonl -trace-sample 64

# Go line counts outside the end-to-end benchmark (e2ebench/) and the
# directory its builds leave (.bench_build/): non-test files, then all.
GO_FILES = find . -name '*.go' -not -path './e2ebench/*' -not -path './.bench_build/*'
lines:
	@echo "non-test Go lines: $$($(GO_FILES) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "all Go lines: $$($(GO_FILES) | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
