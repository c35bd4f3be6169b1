GO ?= go

.PHONY: all build vet test race differential bench benchcmp benchbase clockcheck obs-smoke wire-smoke chaos-smoke fleet-smoke durable-smoke fuzz ci clean

# The benchmarks the allocation gate watches: the happens-before front-end
# (snapshot stamping), the sharded pipeline
# fed by it, the detection back-end layout (inline/open-addressed store vs
# the map reference), the disabled-path cost of the obs metrics facility,
# and the RDB2 wire codec against the streaming text parser.
GATE_BENCH = BenchmarkStampAll|BenchmarkProcessAction|BenchmarkPipelineFrontend|BenchmarkDetectBackend|BenchmarkObsDisabled|BenchmarkWireDecode|BenchmarkWireEncode|BenchmarkTextParse
GATE_PKGS  = ./internal/hb ./internal/pipeline ./internal/core ./internal/obs ./internal/wire

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full test suite under the Go race detector; the pipeline package's shard
# goroutines get the heaviest exercise here.
race:
	$(GO) test -race ./...

# The serial-vs-sharded differential tests: trace replay, single-shard
# byte-for-byte, the live same-runtime comparison, the stamping
# differentials (StampAll, Stream and the clone-per-event reference agree
# clock-for-clock over the trace corpus; export/import continues the serial
# run exactly), and the back-end layout differentials (allocation-free
# store vs the map-based reference, including the h2sim/snitch workloads
# in the root package).
differential:
	$(GO) test -race -run 'TestDifferential|TestSingleShardByteForByte|TestParallelMatchesSerial|TestCorpusStamping|TestEngineExportImportDifferential' \
		. ./internal/pipeline ./internal/monitor ./internal/hb ./internal/core -v

bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# Run the stamping + pipeline benchmarks and diff them against the
# checked-in BENCH_baseline.json with benchstat-style thresholds. Fails on
# allocs/op or ns/op regressions (see cmd/benchgate for the rules).
benchcmp:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)' -benchmem $(GATE_PKGS) \
		| $(GO) run ./cmd/benchgate -baseline BENCH_baseline.json

# Regenerate the baseline after an intentional performance change.
benchbase:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)' -benchmem $(GATE_PKGS) \
		| $(GO) run ./cmd/benchgate -write BENCH_baseline.json \
		  -note "regenerated by make benchbase"

# Full test suite with poisoned clock snapshots: any consumer writing
# through a shared Event.Clock panics (the hb immutability contract).
clockcheck:
	$(GO) test -tags=clockcheck ./...

# Observability smoke: internal/obs under -race, the disabled-path
# zero-alloc gates (bench gate + obscheck -allocs over scoped registries
# and stage spans), the rd2 -http / curl /metrics / obscheck end-to-end
# check, and a live rd2d Prometheus scrape with /sessions (see ci.sh -obs).
obs-smoke:
	./ci.sh -obs-only

# Streaming wire-format smoke: rd2d on localhost ingesting an H2 circuit
# trace streamed through rd2 -send, races diffed against the offline run,
# then a SIGTERM mid-stream drain (see ci.sh -wire).
wire-smoke:
	./ci.sh -wire-only

# Fault-tolerance smoke: chaos tests under -race (injected panics, corrupt
# streams, severed connections, resume-at-every-chunk-boundary differential),
# a short decoder fuzz budget, and live rd2d -inject runs (see ci.sh -chaos).
chaos-smoke:
	./ci.sh -chaos-only

# Fleet-scheduling smoke: the multi-tenant scheduler tests under -race and
# -tags=clockcheck, a live fleet-vs-perconn differential over the trace
# corpus (byte-identical JSONL verdicts), and the hot-tenant fairness check
# (see ci.sh -fleet).
fleet-smoke:
	./ci.sh -fleet-only

# Durable-session smoke: the crash/restart differential tests under -race
# (torn snapshots, truncated WALs, TTL expiry of on-disk state), then a
# live SIGKILL-restart-resume differential with injected mid-snapshot and
# mid-WAL-append crashes (see ci.sh -durable).
durable-smoke:
	./ci.sh -durable-only

# Short fuzz sessions for the two trace parsers (the wire decoder must
# error, never panic, on corrupt frames).
fuzz:
	$(GO) test -fuzz FuzzWireRoundTrip -fuzztime 30s ./internal/wire
	$(GO) test -fuzz FuzzParseEvent -fuzztime 30s ./internal/trace

ci: vet build race differential wire-smoke

clean:
	$(GO) clean ./...
