GO ?= go

.PHONY: all build vet fmt-check test short race flake mutants fuzz fuzz-smoke bench bench-smoke benchstat docs-check experiments-check examples soak soak-smoke check

all: check

build:
	$(GO) build ./...

# The durable log appends through a mapped window on Linux and with write(2)
# elsewhere (internal/wal/window_*.go): vetting it for another platform keeps
# the path this host never builds compiling.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/wal

# Formatting gate: gofmt must have nothing to say about any file in the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# -count=1: the gate never passes on a cached result.
test: build
	$(GO) test -count=1 ./...

# Trimmed run: randomized sweeps shrink, chaos soak tests are skipped.
short:
	$(GO) test -short ./...

# Race detector across every package (the live transport and chaos tests
# are the main customers, but nothing is exempt).
race:
	$(GO) test -race ./...

# Flake hunt, kept out of `check`: the live soak, chaos and server-failover
# tests, the attach, lease, complaint and per-link-series tests, the
# quiet-tail, in-view retention and dead-peer tests, and the watchdog,
# heartbeat, gray-failure, link-failure and read-progress-deadline tests,
# whose schedules the kernel and the Go scheduler
# choose, FLAKE_COUNT times each at GOMAXPROCS 1 and 2. Any failure fails the target; "green" means every run
# passed, not that a rerun did.
FLAKE_COUNT ?= 10
FLAKE_TESTS = TestLiveSoak|TestLiveChaos|TestLiveServer|TestLiveFlashCrowd|TestLiveAttachLease|TestLivePartitionedHome|TestLiveSlowConsumer|TestLiveEveryNumber|TestLiveQuietTail|TestLiveRetentionWithinView|TestLiveDeadPeer|TestLiveWatchdog|TestLiveGrayFailure|TestLiveLinkFailure|TestLiveHeartbeats|TestSlowLoris|TestTrickledSender|TestFrameRun

flake:
	$(GO) test -count=$(FLAKE_COUNT) -cpu 1,2 -timeout 0 -run '$(FLAKE_TESTS)' ./internal/live/ ./internal/soak/

# Planted-fault judge, kept out of `check`: cmd/vsgm-mutants plants each
# mutant of its committed catalogue (cmd/vsgm-mutants/catalogue.json) in turn
# and runs the hunters it names, each for the same wall budget, then prints
# the caught-by matrix. It fails when a mutant survives every hunter it names.
# See docs/TESTING.md ("Planted faults").
mutants:
	$(GO) run ./cmd/vsgm-mutants

# Native fuzzing of the wire codec: malformed length prefixes and truncated
# payloads must error, never panic or over-allocate.
fuzz:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/wire/

# Quick fuzz pass over every wire-facing decoder (frames, raw bodies, WAL
# record bodies), the durable log's record scanner, and the shard machine's
# command and snapshot decoders: 5 seconds per target, run as part of the
# pre-merge gate. The documentation gate checks that this list and the
# tree's fuzzers agree in both directions.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzUnmarshalFrame -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeWALRecord -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzScanWAL -fuzztime=5s ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeCreditFrame -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzKVCommand -fuzztime=5s ./internal/shard/
	$(GO) test -fuzz=FuzzMachineRestore -fuzztime=5s ./internal/shard/

# Every benchmark in the tree, including the transport data-path set
# (BenchmarkFabricBroadcast, BenchmarkWireMarshal, BenchmarkMsgBufGrowth,
# BenchmarkAssemblerBulk) and the simulated KV front door (BenchmarkWorldSet,
# BenchmarkWorldGet: one World.Do on a warm 4 × 3 World; add -cpuprofile on
# ./internal/shard/ for its profile). The front door is not in BENCH_PATTERN.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Data-path benchmarks with regression tracking — the transport set plus the
# end-point automaton's receive and send paths: run the set six times, save
# it as BENCH_new.txt, and compare against BENCH_baseline.txt with
# cmd/vsgm-benchstat (benchstat-style old/new/delta tables, JSON copy in
# BENCH_transport.json). The first run seeds the baseline; refresh it by
# deleting BENCH_baseline.txt.
BENCH_PATTERN = BenchmarkFabricBroadcast|BenchmarkSendUnderBackpressure|BenchmarkWireMarshal|BenchmarkMsgBufGrowth|BenchmarkLinkScale|BenchmarkAssemblerBulk|BenchmarkEndpointReceivePath|BenchmarkEndpointSendPath
BENCH_PKGS = ./internal/wire/ ./internal/live/ ./internal/core/

benchstat:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem -count=6 -run=^$$ $(BENCH_PKGS) | tee BENCH_new.txt
	@if [ -f BENCH_baseline.txt ]; then \
		$(GO) run ./cmd/vsgm-benchstat -json BENCH_transport.json BENCH_baseline.txt BENCH_new.txt; \
	else \
		$(GO) run ./cmd/vsgm-benchstat -json BENCH_transport.json BENCH_new.txt; \
		cp BENCH_new.txt BENCH_baseline.txt; \
		echo "baseline seeded: BENCH_baseline.txt"; \
	fi

# Zero-copy regression guard for the pre-merge gate: one steady-state run of
# the link-scale receive benchmark. benchLinkScale fails the run if the
# receive path exceeds its allocs/op ceiling — a payload copy (or a dropped
# buffer release) sneaking back into the hot path fails `make check` here
# rather than surfacing as a benchstat regression later.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLinkScale/links=1000$$' -benchtime 100000x ./internal/live/

# Documentation gate: every intra-repo markdown link must resolve, every
# public flag of the operator-facing binaries must appear in
# docs/OPERATIONS.md, the vsgm_* metric catalogue must match the code in
# both directions, docs/ARCHITECTURE.md must map every package, and the
# fuzz-smoke recipe must run every fuzzer in the tree and name none that is
# missing.
docs-check:
	$(GO) run ./cmd/vsgm-docscheck

# Numbers-in-prose gate: every line of the experiment tables cmd/vsgm-bench
# generates must appear verbatim in EXPERIMENTS.md, so the committed tables
# regenerate from the committed code and a change that moves a simulated
# number (or the simulator's schedule) fails here instead of going stale.
experiments-check:
	@out=$$($(GO) run ./cmd/vsgm-bench -markdown) || exit 1; \
	missing=$$(printf '%s\n' "$$out" | grep -vxFf EXPERIMENTS.md); \
	if [ -n "$$missing" ]; then echo "EXPERIMENTS.md lacks these generated lines:"; echo "$$missing"; exit 1; fi; \
	echo "EXPERIMENTS.md holds every generated line"

# Every example runs to completion: the examples are the facade's only
# end-to-end callers, so a facade change that breaks one fails here.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d >/dev/null || { echo "example $$d failed"; exit 1; }; \
	done

# Long-soak chaos harness (cmd/vsgm-soak): the live TCP cluster under
# randomized adversarial phases with the spec suite attached. Each run logs its
# replay seed (override with SOAK_SEED or VSGM_SEED); on a violation the report
# artifact path is printed. See docs/TESTING.md ("Regime 7: long soak") and
# docs/OPERATIONS.md for the knobs. The sharded KV's randomized hunter is
# TestWorldPhases in internal/shard, which the plain test run covers.
SOAK_DURATION ?= 60s
SOAK_SEED ?= 0

soak:
	$(GO) run ./cmd/vsgm-soak -duration $(SOAK_DURATION) -seed $(SOAK_SEED)

# A short taste of the same harness for the pre-merge gate.
soak-smoke:
	$(GO) run ./cmd/vsgm-soak -duration 15s -seed $(SOAK_SEED) -q

# The simulator's explorer tests replay thousands of single-threaded schedules
# through code the rest of internal/sim already races; under the race detector
# they would multiply the slice's time and add no coverage, so the race slice
# skips them (the gate's plain test run covers them).
EXPLORER_TESTS = ^Test(Exhaustive|Swarm|Explorer)

# The packages check races in one plain run: every package in the module but
# the three that follow it with lines of their own, so a new package is raced
# without being listed.
RACE_PKGS = $(filter-out vsgm/internal/sim vsgm/internal/soak vsgm/cmd/vsgm-soak,$(shell $(GO) list ./...))

# The pre-merge gate: vet (internal/wal for darwin too), the formatting
# check, the full suite, the
# benchmark module's own vet and tests (bench/ is a separate module outside
# tier-1, so nothing else compiles it against this tree: a symbol it uses
# going missing would otherwise surface only when the benchmark is run), the
# race detector on every package — no package is exempt; the simulator skips
# only its explorer tests and the soak package and its command run under
# -short (where the long live soaks skip: their convergence waits are
# wall-clock budgets, and the live transport they drive is raced in
# internal/live; the command's tests run 1 ms live soaks) — a
# fuzz smoke pass over the decoders, the documentation gate, the
# experiment-tables gate, every example, and a short soak.
check: vet fmt-check test
	cd bench && GOFLAGS=-mod=mod $(GO) vet . && GOFLAGS=-mod=mod $(GO) test -count=1 .
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -skip '$(EXPLORER_TESTS)' ./internal/sim/
	$(GO) test -race -short ./internal/soak/ ./cmd/vsgm-soak/
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke
	$(MAKE) docs-check
	$(MAKE) experiments-check
	$(MAKE) examples
	$(MAKE) soak-smoke
