GO ?= go

.PHONY: all build vet fmt-check test short race fuzz fuzz-smoke bench bench-smoke benchstat docs-check fsck-smoke kv-smoke detector-smoke soak soak-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to say about any file in the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test: build
	$(GO) test ./...

# Trimmed run: randomized sweeps shrink, chaos soak tests are skipped.
short:
	$(GO) test -short ./...

# Race detector across every package (the live transport and chaos tests
# are the main customers, but nothing is exempt).
race:
	$(GO) test -race ./...

# Native fuzzing of the wire codec: malformed length prefixes and truncated
# payloads must error, never panic or over-allocate.
fuzz:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/wire/

# Quick fuzz pass over every wire-facing decoder (frames, raw bodies, WAL
# record bodies), the encoder's view memo table, the durable log's record
# scanner, and the shard machine's command and snapshot decoders: 5 seconds
# per target, run as part of the pre-merge gate.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzViewEncodingCache -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzUnmarshalFrame -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeWALRecord -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzScanWAL -fuzztime=5s ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeCreditFrame -fuzztime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzKVCommand -fuzztime=5s ./internal/shard/
	$(GO) test -fuzz=FuzzMachineRestore -fuzztime=5s ./internal/shard/

# Every benchmark in the tree, including the transport data-path set
# (BenchmarkFabricBroadcast, BenchmarkWireMarshal, BenchmarkMsgBufGrowth,
# BenchmarkAssemblerBulk).
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
# both directions, and docs/ARCHITECTURE.md must map every package.
docs-check:
	$(GO) run ./cmd/vsgm-docscheck

# WAL fsck/repair smoke: build a state directory — a membership server's,
# then a shard replica's — corrupt it, and drive cmd/vsgm-fsck through
# dry-run, repair, and a clean re-open.
fsck-smoke:
	$(GO) test -run TestFsckCLI -count=1 ./cmd/vsgm-fsck/

# Sharded-KV smoke for the pre-merge gate: a scripted multi-shard
# bring-up through cmd/vsgm-kv — writes and reads across shards, a slot
# reshard and a group reshard, crash/recover from the durable store,
# partition/heal, and the no-lost-acknowledged-writes verify. See
# docs/SHARDING.md.
kv-smoke:
	$(GO) test -run TestKVSmoke -count=1 ./cmd/vsgm-kv/

# Failure-detector smoke for the pre-merge gate: a seeded flapping-link
# soak slice that must stay within the bounded-churn budget with flap
# damping engaged, a seeded gray-failure slice whose one-way link breaks
# must reconcile symmetrically, and the client-side arbitrary-state
# scramble slice. Replay any failure with the VSGM_SEED the test logs.
detector-smoke:
	$(GO) test -run 'TestDetectorSmoke|TestLiveSoakClientScramble' -count=1 ./internal/soak/
	$(GO) test -run 'TestLiveGrayFailureAsymmetricPartition' -count=1 ./internal/live/

# Long-soak chaos harness (cmd/vsgm-soak): every mode — the small simulated
# cluster, the 10k-client sampled-checking world, the live TCP cluster, and
# the sharded KV with resharding under churn — under randomized adversarial
# phases with the spec suite attached. Each run
# logs its replay seed (override with SOAK_SEED or VSGM_SEED); on a
# violation the report artifact path is printed. See docs/TESTING.md
# ("Regime 7: long soak") and docs/OPERATIONS.md for the knobs.
SOAK_DURATION ?= 60s
SOAK_SEED ?= 0

soak:
	$(GO) run ./cmd/vsgm-soak -mode all -duration $(SOAK_DURATION) -seed $(SOAK_SEED)

# A ~30s taste of the same harness for the pre-merge gate: a few seconds of
# virtual time in each simulated mode plus a short live soak.
soak-smoke:
	$(GO) run ./cmd/vsgm-soak -mode sim -duration 2s -seed $(SOAK_SEED) -q
	$(GO) run ./cmd/vsgm-soak -mode world -duration 5s -seed $(SOAK_SEED) -q
	$(GO) run ./cmd/vsgm-soak -mode live -duration 15s -seed $(SOAK_SEED) -q

# The pre-merge gate: vet, the formatting check, the full suite, the
# benchmark module's own vet and tests (bench/ is a separate module outside
# tier-1, so nothing else compiles it against this tree: a symbol it uses
# going missing would otherwise surface only when the benchmark is run), the
# race detector on the concurrency-heavy packages — with the end-point
# automaton and the wire packages, whose buffer reference counts cross the
# node's lock, and the metrics registry, whose counters and collectors are the
# only path from the transport's goroutines to every reader — and on the
# single-threaded replication stack (simulator, spec checkers, total order,
# RSM, shard), a fuzz smoke pass over the decoders, the
# documentation gate, and a short soak.
check: vet fmt-check test
	cd bench && GOFLAGS=-mod=mod $(GO) vet . && GOFLAGS=-mod=mod $(GO) test -count=1 .
	$(GO) test -race ./internal/live/ ./internal/wal/ ./internal/membership/ ./cmd/vsgm-live/ \
		./internal/core/ ./internal/wire/... ./internal/obs/ \
		./internal/totalorder/ ./internal/rsm/ ./internal/shard/ ./internal/sim/ ./internal/spec/
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke
	$(MAKE) docs-check
	$(MAKE) fsck-smoke
	$(MAKE) kv-smoke
	$(MAKE) detector-smoke
	$(MAKE) soak-smoke
