#!/bin/sh
# CI entry point: vet (the rd2dbench module too), build, full
# race-instrumented tests, the
# serial-vs-sharded and back-end-layout differential suites, the idle-flush
# tests under -race at GOMAXPROCS 1, 2 and 4, smoke-size
# allocation gates on the happens-before front-end and the detection
# back-end, and a ratio gate on the back-end layout. Mirrors `make ci` for
# hosts without make.
#
# Flags:
#   -clockcheck   additionally run the whole test suite with poisoned clock
#                 snapshots (-tags=clockcheck): any consumer that writes
#                 through a shared Event.Clock panics. Guarded by this flag
#                 so the default tier-1 run stays fast.
#   -obs          additionally run the observability smoke: internal/obs
#                 under -race, the disabled-path zero-alloc gate
#                 (allocs-slack 0 — exactly zero allocations, including
#                 scoped registries and stage spans via obscheck -allocs),
#                 an HTTP end-to-end check (rd2 -http -serve, curl
#                 /metrics, obscheck schema validation), and a live rd2d
#                 scrape: stream a session in, then validate
#                 /metrics?format=prom with the strict Prometheus parser
#                 (obscheck -prom) and the /sessions listing.
#   -obs-only     run only the observability smoke (used by `make obs-smoke`).
#   -wire         additionally run the streaming smoke: record an H2 circuit
#                 in the RDB2 binary wire format, analyze it offline, stream
#                 it into a live rd2d daemon with rd2 -send, SIGTERM the
#                 daemon, and require the two JSONL race reports to be
#                 identical; then SIGTERM a second daemon mid-stream and
#                 require a clean drain with a complete final report.
#   -wire-only    run only the streaming smoke (used by `make wire-smoke`).
#   -chaos        additionally run the fault-tolerance smoke: the chaos test
#                 suite under -race with a hard timeout (injected worker and
#                 rep panics, corrupt streams under resync, abrupt client
#                 disconnects, the sever-at-every-chunk-boundary resume
#                 differential), a short fuzz budget over the corrupt-frame
#                 corpus, and live-binary injection runs (rd2d -inject +
#                 rd2 -send -resume) asserting the daemon never crashes or
#                 hangs and every faulted session reports itself degraded.
#   -chaos-only   run only the fault-tolerance smoke (used by `make chaos-smoke`).
#   -fleet        additionally run the fleet-scheduling smoke: the fleet test
#                 suite (differential, admission, chaos, starvation) under
#                 -race and again under -tags=clockcheck, the whole rd2d
#                 suite under -race twenty times at each of GOMAXPROCS 1, 2
#                 and 4 (the session-lifecycle gate), then live
#                 binaries: each daemon mode (per-conn and -fleet) streams
#                 the whole examples/traces corpus and its JSONL verdicts
#                 must be byte-identical to offline rd2 -report, and a
#                 fairness smoke where a quota-compliant background tenant
#                 must keep >= 80% of its isolated ingest rate while a hot
#                 tenant saturates the shared worker pool.
#   -fleet-only   run only the fleet-scheduling smoke (used by `make fleet-smoke`).
#   -durable      additionally run the durable-session smoke: the
#                 crash/restart differential tests under -race (in-process
#                 crash, WAL-only restart, torn snapshot, truncated WAL,
#                 snapshot-beyond-WAL, TTL expiry of on-disk state,
#                 checkpoint cadence), then live binaries: rd2 -send
#                 -resume -restart-window streams a long trace into rd2d
#                 -statedir while fault injection SIGKILLs the daemon three
#                 times over: mid-snapshot at -ckpt-every 128 (ckpt-crash,
#                 leaving a half-written snapshot), mid-WAL-append at
#                 -ckpt-every 128 (wal-crash, leaving a torn WAL tail), and
#                 mid-WAL-append at the default replay budget, where no
#                 snapshot exists and the restart replays the WAL alone;
#                 each time the daemon restarts over the same state dir and
#                 the recovered JSONL verdicts must be byte-identical to an
#                 uninterrupted baseline run.
#   -durable-only run only the durable-session smoke (used by `make durable-smoke`).
set -eu

cd "$(dirname "$0")"

CLOCKCHECK=0
OBS=0
OBSONLY=0
WIRE=0
WIREONLY=0
CHAOS=0
CHAOSONLY=0
FLEET=0
FLEETONLY=0
DURABLE=0
DURABLEONLY=0
for arg in "$@"; do
    case "$arg" in
    -clockcheck) CLOCKCHECK=1 ;;
    -obs) OBS=1 ;;
    -obs-only) OBS=1; OBSONLY=1 ;;
    -wire) WIRE=1 ;;
    -wire-only) WIRE=1; WIREONLY=1 ;;
    -chaos) CHAOS=1 ;;
    -chaos-only) CHAOS=1; CHAOSONLY=1 ;;
    -fleet) FLEET=1 ;;
    -fleet-only) FLEET=1; FLEETONLY=1 ;;
    -durable) DURABLE=1 ;;
    -durable-only) DURABLE=1; DURABLEONLY=1 ;;
    *) echo "usage: ci.sh [-clockcheck] [-obs|-obs-only] [-wire|-wire-only] [-chaos|-chaos-only] [-fleet|-fleet-only] [-durable|-durable-only]" >&2; exit 2 ;;
    esac
done
ONLY=0
if [ "$OBSONLY" = 1 ] || [ "$WIREONLY" = 1 ] || [ "$CHAOSONLY" = 1 ] || [ "$FLEETONLY" = 1 ] || [ "$DURABLEONLY" = 1 ]; then
    ONLY=1
else
    # The streaming smoke is part of the default CI path.
    WIRE=1
fi

if [ "$ONLY" = 0 ]; then
    echo "== go vet =="
    go vet ./...
    # rd2dbench is a separate module compiled against internal/{core,hb,
    # pipeline,fleet,wire}, and nothing else builds it: without this step an
    # internal API change passes CI and fails only the benchmark run.
    (cd rd2dbench && go vet ./...)

    echo "== go build =="
    go build ./...

    echo "== go test -race =="
    go test -race ./...

    echo "== differential (serial vs sharded pipeline, clone vs snapshot vs streamed stamping, export/import, back-end layouts) =="
    # The root package carries the back-end layout differentials over the
    # live h2sim/snitch workloads; internal/core carries them over generated
    # traces, compaction interleavings, and the example-trace corpus.
    go test -race -run 'TestDifferential|TestSingleShardByteForByte|TestParallelMatchesSerial|TestCorpusStamping|TestEngineExportImportDifferential' \
        . ./internal/pipeline ./internal/monitor ./internal/hb ./internal/core -v

    echo "== idle flush under -race at GOMAXPROCS 1, 2, 4 =="
    # A per-conn rd2d runner hands its partial shard batches to the
    # detectors before it sleeps on an empty queue, so a verdict never waits
    # for the next frame. The flush moves work between the runner and the
    # shard goroutines; run its tests at several core counts. Fail if the
    # pattern selects fewer than the two tests.
    FLUSHRUN='^(TestFlushDeliversPartialBatch|TestVerdictBeforeNextFrame)$'
    if [ "$(go test -list "$FLUSHRUN" ./internal/pipeline ./cmd/rd2d | grep -c '^Test')" != 2 ]; then
        echo "idle flush: -run '$FLUSHRUN' does not match both tests" >&2
        exit 1
    fi
    for procs in 1 2 4; do
        GOMAXPROCS=$procs go test -race -count=5 -run "$FLUSHRUN" ./internal/pipeline ./cmd/rd2d
    done

    echo "== stamp differential under -tags=clockcheck (poisoned snapshots) =="
    # StampAll, Stream and the clone-per-event reference over the corpus and
    # generated traces. Fail if the pattern selects no test, so a rename can
    # never turn this step into a gate that checks nothing.
    STAMPRUN='TestCorpusStampingByteIdentical|TestDifferentialSnapshotVsCloneStamping'
    if ! go test -tags=clockcheck -list "$STAMPRUN" ./internal/pipeline | grep -q '^Test'; then
        echo "stamp differential: -run '$STAMPRUN' matches no test" >&2
        exit 1
    fi
    go test -tags=clockcheck -count=1 -run "$STAMPRUN" -v ./internal/pipeline

    echo "== back-end differential under -tags=clockcheck (poisoned snapshots) =="
    # The layout back-end clones promoted clocks through its arena; poisoned
    # snapshots catch any path that instead retained or wrote a shared clock.
    go test -tags=clockcheck -count=1 -run 'TestDifferentialBackend' \
        . ./internal/core

    echo "== bench smoke (front-end + back-end allocation gate vs BENCH_baseline.json) =="
    {
        go test -run '^$' -bench 'BenchmarkStampAll|BenchmarkProcessAction' \
            -benchmem -benchtime 100x ./internal/hb
        go test -run '^$' -bench 'BenchmarkPipelineFrontend' \
            -benchmem -benchtime 5x ./internal/pipeline
        go test -run '^$' -bench 'BenchmarkDetectBackend' \
            -benchmem -benchtime 20x ./internal/core
    } | go run ./cmd/benchgate -baseline BENCH_baseline.json -allocs-only

    echo "== bench ratio gate (layout back end vs map reference, interleaved rounds) =="
    # The two variants alternate binary-run by binary-run so host-speed
    # drift hits both sides equally; benchgate takes the median ns/op per
    # side. An absolute ns/op gate would be meaningless on a noisy box — a
    # ratio of medians from interleaved samples is stable. Both sides are
    # single-detector replays of the same stamped trace, so the
    # allocation-free layout must never be slower than the map-based
    # reference it replaced. dist=churn is the gated pair —
    # it exercises every layer (inline set, spill, table growth, arena
    # recycling) and showed the widest margin at introduction (~0.5x).
    LAYOUTTMP=$(mktemp -d)
    go test -c -o "$LAYOUTTMP/core.test" ./internal/core
    for round in 1 2 3; do
        "$LAYOUTTMP/core.test" -test.run '^$' \
            -test.bench 'BenchmarkDetectBackend/dist=churn/layout=table$' -test.benchtime 20x
        "$LAYOUTTMP/core.test" -test.run '^$' \
            -test.bench 'BenchmarkDetectBackend/dist=churn/layout=map$' -test.benchtime 20x
    done > "$LAYOUTTMP/bench.out"
    go run ./cmd/benchgate -baseline '' \
        -ratio "BenchmarkDetectBackend/dist=churn/layout=table,BenchmarkDetectBackend/dist=churn/layout=map,1.0" \
        < "$LAYOUTTMP/bench.out"
    rm -rf "$LAYOUTTMP"
fi

if [ "$CLOCKCHECK" = 1 ]; then
    echo "== go test -tags=clockcheck (poisoned snapshots) =="
    go test -tags=clockcheck ./...
fi

if [ "$OBS" = 1 ]; then
    echo "== obs: go test -race ./internal/obs/... =="
    go test -race ./internal/obs/...

    echo "== obs: disabled-path zero-alloc gate (allocs-slack 0) =="
    go test -run '^$' -bench 'BenchmarkObsDisabled' -benchmem -benchtime 1000x ./internal/obs \
        | go run ./cmd/benchgate -baseline BENCH_baseline.json -allocs-only -allocs-slack 0

    echo "== obs: scoped-registry + span disabled-path alloc gate (obscheck -allocs) =="
    go run ./cmd/obscheck -allocs

    echo "== obs: http smoke (rd2 -http -serve / curl /metrics / obscheck) =="
    OBSTMP=$(mktemp -d)
    RD2PID=""
    cleanup() {
        [ -n "$RD2PID" ] && kill "$RD2PID" 2>/dev/null || true
        rm -rf "$OBSTMP"
    }
    trap cleanup EXIT
    OBSADDR=127.0.0.1:36061
    go run ./cmd/tracegen -seed 7 -threads 4 -ops-min 20 -ops-max 40 > "$OBSTMP/run.trace"
    go build -o "$OBSTMP/rd2" ./cmd/rd2
    "$OBSTMP/rd2" -trace "$OBSTMP/run.trace" -q -http "$OBSADDR" -serve 2> "$OBSTMP/rd2.log" &
    RD2PID=$!
    ok=0
    i=0
    while [ $i -lt 50 ]; do
        if curl -fsS "http://$OBSADDR/metrics" > "$OBSTMP/snap.json" 2>/dev/null; then
            ok=1
            break
        fi
        i=$((i + 1))
        sleep 0.2
    done
    if [ "$ok" != 1 ]; then
        echo "obs smoke: /metrics never came up on $OBSADDR" >&2
        cat "$OBSTMP/rd2.log" >&2
        exit 1
    fi
    curl -fsS "http://$OBSADDR/healthz" | grep -q ok
    go run ./cmd/obscheck "$OBSTMP/snap.json"
    kill "$RD2PID" 2>/dev/null || true
    wait "$RD2PID" 2>/dev/null || true
    RD2PID=""

    echo "== obs: rd2d prom scrape (stream a session, /metrics?format=prom, /sessions) =="
    PROMADDR=127.0.0.1:36062
    PROMHTTP=127.0.0.1:36063
    go build -o "$OBSTMP/rd2d" ./cmd/rd2d
    go build -o "$OBSTMP/rd2obs" ./cmd/rd2
    "$OBSTMP/rd2d" -listen "$PROMADDR" -http "$PROMHTTP" -q \
        2> "$OBSTMP/rd2d.log" &
    RD2PID=$!
    ok=0
    i=0
    while [ $i -lt 50 ]; do
        if curl -fsS "http://$PROMHTTP/healthz" > /dev/null 2>&1; then
            ok=1
            break
        fi
        i=$((i + 1))
        sleep 0.2
    done
    [ "$ok" = 1 ] || { echo "obs smoke: rd2d /healthz never came up" >&2; cat "$OBSTMP/rd2d.log" >&2; exit 1; }
    rc=0
    "$OBSTMP/rd2obs" -trace "$OBSTMP/run.trace" -send "$PROMADDR" -send-wait 10s -q || rc=$?
    [ "$rc" -le 1 ] || { echo "obs smoke: rd2 -send rc $rc" >&2; cat "$OBSTMP/rd2d.log" >&2; exit 1; }
    # The finished session lingers (default resume TTL), so the scrape sees
    # its per-session series next to the rolled-up globals.
    curl -fsS "http://$PROMHTTP/metrics?format=prom" > "$OBSTMP/scrape.prom"
    go run ./cmd/obscheck -prom "$OBSTMP/scrape.prom"
    grep -q 'session="' "$OBSTMP/scrape.prom" || {
        echo "obs smoke: prom scrape has no per-session series" >&2
        head -20 "$OBSTMP/scrape.prom" >&2
        exit 1
    }
    curl -fsS "http://$PROMHTTP/sessions" > "$OBSTMP/sessions.json"
    grep -q '"stage.detect"' "$OBSTMP/sessions.json" || {
        echo "obs smoke: /sessions has no stage digests" >&2
        cat "$OBSTMP/sessions.json" >&2
        exit 1
    }
    kill -TERM "$RD2PID" 2>/dev/null || true
    wait "$RD2PID" 2>/dev/null || true
    RD2PID=""
    echo "obs smoke OK"
fi

if [ "$WIRE" = 1 ]; then
    echo "== wire: rd2d end-to-end (stream vs offline, SIGTERM drain) =="
    WIRETMP=$(mktemp -d)
    RD2DPID=""
    cleanup_wire() {
        [ -n "$RD2DPID" ] && kill "$RD2DPID" 2>/dev/null || true
        rm -rf "$WIRETMP"
        [ -n "${OBSTMP:-}" ] && rm -rf "$OBSTMP" || true
    }
    trap cleanup_wire EXIT
    WIREADDR=127.0.0.1:36072
    go build -o "$WIRETMP/rd2" ./cmd/rd2
    go build -o "$WIRETMP/rd2d" ./cmd/rd2d
    go build -o "$WIRETMP/tracegen" ./cmd/tracegen

    # Record an H2 circuit directly in the RDB2 binary wire format.
    "$WIRETMP/tracegen" -h2 ComplexConcurrency -o "$WIRETMP/h2.rdb"

    # Offline reference run over the binary trace (exit 1 = races found).
    rc=0
    "$WIRETMP/rd2" -trace "$WIRETMP/h2.rdb" -q -report "$WIRETMP/off.jsonl" || rc=$?
    [ "$rc" -le 1 ] || { echo "wire smoke: offline rd2 failed (rc $rc)" >&2; exit 1; }

    # Online: stream the same trace into a live daemon, then SIGTERM it.
    # -compact-every 0 keeps reported point clocks byte-identical to the
    # offline run (compaction trims dead-thread clock entries).
    "$WIRETMP/rd2d" -listen "$WIREADDR" -q -compact-every 0 \
        -report "$WIRETMP/on.jsonl" 2> "$WIRETMP/rd2d.log" &
    RD2DPID=$!
    rc=0
    "$WIRETMP/rd2" -trace "$WIRETMP/h2.rdb" -send "$WIREADDR" -send-wait 10s -q || rc=$?
    [ "$rc" -le 1 ] || { echo "wire smoke: rd2 -send failed (rc $rc)" >&2; cat "$WIRETMP/rd2d.log" >&2; exit 1; }
    kill -TERM "$RD2DPID"
    rc=0
    wait "$RD2DPID" || rc=$?
    RD2DPID=""
    [ "$rc" -le 1 ] || { echo "wire smoke: rd2d exited rc $rc" >&2; cat "$WIRETMP/rd2d.log" >&2; exit 1; }
    # Discovery order differs between the serial offline run and the
    # sharded online session; the sorted reports must be identical. The
    # daemon stamps each record with its session id and per-session seq
    # (offline rd2 does not) — strip that prefix before comparing.
    sort "$WIRETMP/off.jsonl" > "$WIRETMP/off.sorted"
    sed 's/^{"session":"[^"]*","seq":[0-9]*,/{/' "$WIRETMP/on.jsonl" \
        | sort > "$WIRETMP/on.sorted"
    if ! diff -q "$WIRETMP/off.sorted" "$WIRETMP/on.sorted" > /dev/null; then
        echo "wire smoke: streamed race report differs from offline report" >&2
        diff "$WIRETMP/off.sorted" "$WIRETMP/on.sorted" | head >&2
        exit 1
    fi
    echo "wire smoke: $(wc -l < "$WIRETMP/on.jsonl") streamed race records match offline"

    # SIGTERM mid-stream: a much longer stream is cut by the drain; the
    # daemon must still exit cleanly with a complete final report.
    "$WIRETMP/tracegen" -h2 ComplexConcurrency -h2-ops 60000 -o "$WIRETMP/big.rdb"
    "$WIRETMP/rd2d" -listen "$WIREADDR" -q \
        -report "$WIRETMP/drain.jsonl" 2> "$WIRETMP/drain.log" &
    RD2DPID=$!
    "$WIRETMP/rd2" -trace "$WIRETMP/big.rdb" -send "$WIREADDR" -send-wait 10s -q 2>/dev/null || true &
    SENDPID=$!
    sleep 0.5
    kill -TERM "$RD2DPID"
    rc=0
    wait "$RD2DPID" || rc=$?
    RD2DPID=""
    wait "$SENDPID" 2>/dev/null || true
    [ "$rc" -le 1 ] || { echo "wire smoke: drain exited rc $rc" >&2; cat "$WIRETMP/drain.log" >&2; exit 1; }
    grep -q "draining" "$WIRETMP/drain.log" || { echo "wire smoke: no drain log line" >&2; cat "$WIRETMP/drain.log" >&2; exit 1; }
    grep -q "race records written" "$WIRETMP/drain.log" || { echo "wire smoke: no final report line" >&2; cat "$WIRETMP/drain.log" >&2; exit 1; }
    grep -q "drained:" "$WIRETMP/drain.log" || { echo "wire smoke: no drained totals line" >&2; cat "$WIRETMP/drain.log" >&2; exit 1; }
    echo "wire smoke OK"
fi

if [ "$CHAOS" = 1 ]; then
    echo "== chaos: fault-tolerance tests (-race, hard timeout) =="
    go test -race -timeout 180s \
        -run 'TestDaemonSurvives|TestDaemonResync|TestDaemonClientGone|TestDaemonResumeAtEveryChunkBoundary' \
        ./cmd/rd2d
    go test -race -timeout 120s \
        -run 'TestResync|TestSessionDedup|TestChunkGap|TestAdoptState|TestResumableClient' \
        ./internal/wire
    go test -race -timeout 60s ./internal/faultinject

    echo "== chaos: wire decoder fuzz (short budget over the corrupt-frame corpus) =="
    go test -run '^$' -fuzz 'FuzzWireRoundTrip' -fuzztime 10s ./internal/wire

    echo "== chaos: live daemon under injected faults =="
    CHAOSTMP=$(mktemp -d)
    CHAOSPID=""
    cleanup_chaos() {
        [ -n "$CHAOSPID" ] && kill -9 "$CHAOSPID" 2>/dev/null || true
        rm -rf "$CHAOSTMP"
        [ -n "${WIRETMP:-}" ] && rm -rf "$WIRETMP" || true
        [ -n "${OBSTMP:-}" ] && rm -rf "$OBSTMP" || true
    }
    trap cleanup_chaos EXIT
    CHAOSADDR=127.0.0.1:36083
    go build -o "$CHAOSTMP/rd2" ./cmd/rd2
    go build -o "$CHAOSTMP/rd2d" ./cmd/rd2d
    go run ./cmd/tracegen -seed 11 -threads 4 -ops-min 20 -ops-max 40 > "$CHAOSTMP/run.trace"

    for inject in worker-panic:25 rep-panic:30; do
        "$CHAOSTMP/rd2d" -listen "$CHAOSADDR" -q -resync -inject "$inject" \
            -report "$CHAOSTMP/chaos.jsonl" 2> "$CHAOSTMP/rd2d.log" &
        CHAOSPID=$!
        # The client run is bounded: a hang is a failure, not a stall.
        rc=0
        timeout 30 "$CHAOSTMP/rd2" -trace "$CHAOSTMP/run.trace" \
            -send "$CHAOSADDR" -send-wait 10s -resume -q 2> "$CHAOSTMP/send.log" || rc=$?
        [ "$rc" -le 1 ] || {
            echo "chaos smoke ($inject): rd2 -send rc $rc" >&2
            cat "$CHAOSTMP/send.log" "$CHAOSTMP/rd2d.log" >&2
            exit 1
        }
        # The fault must be surfaced, not swallowed: the client saw an
        # explicitly degraded session.
        grep -q "degraded" "$CHAOSTMP/send.log" || {
            echo "chaos smoke ($inject): client never saw a degraded summary" >&2
            cat "$CHAOSTMP/send.log" "$CHAOSTMP/rd2d.log" >&2
            exit 1
        }
        # The daemon survived the injected panic and shuts down cleanly,
        # within a hard deadline (a wedged daemon is a failure).
        kill -0 "$CHAOSPID" 2>/dev/null || {
            echo "chaos smoke ($inject): daemon died" >&2
            cat "$CHAOSTMP/rd2d.log" >&2
            exit 1
        }
        kill -TERM "$CHAOSPID"
        i=0
        while kill -0 "$CHAOSPID" 2>/dev/null; do
            i=$((i + 1))
            if [ $i -gt 50 ]; then
                echo "chaos smoke ($inject): daemon hung on shutdown" >&2
                cat "$CHAOSTMP/rd2d.log" >&2
                kill -9 "$CHAOSPID" 2>/dev/null || true
                exit 1
            fi
            sleep 0.2
        done
        wait "$CHAOSPID" 2>/dev/null || true
        CHAOSPID=""
        echo "chaos smoke ($inject): degraded session reported, daemon survived"
    done
    echo "chaos smoke OK"
fi

if [ "$FLEET" = 1 ]; then
    echo "== fleet: scheduler + daemon tests (-race) =="
    go test -race -timeout 180s ./internal/fleet
    go test -race -timeout 300s -run 'TestFleet|TestMaxSessionsCap' ./cmd/rd2d
    # The session-lifecycle gate: the whole suite, twenty runs under -race
    # at each core count.
    for procs in 1 2 4; do
        GOMAXPROCS=$procs go test -race -count=20 -timeout 1800s ./cmd/rd2d
    done

    echo "== fleet: differential + chaos under -tags=clockcheck (poisoned snapshots) =="
    go test -tags=clockcheck -count=1 -timeout 300s \
        -run 'TestFleetDifferentialCorpus|TestFleetMultiTenantChaos' ./cmd/rd2d

    echo "== fleet: live daemon-vs-offline differential over examples/traces, both modes =="
    FLEETTMP=$(mktemp -d)
    FLEETPID=""
    HOTPIDS=""
    cleanup_fleet() {
        [ -n "$FLEETPID" ] && kill "$FLEETPID" 2>/dev/null || true
        for p in $HOTPIDS; do kill "$p" 2>/dev/null || true; done
        rm -rf "$FLEETTMP"
        [ -n "${CHAOSTMP:-}" ] && rm -rf "$CHAOSTMP" || true
        [ -n "${WIRETMP:-}" ] && rm -rf "$WIRETMP" || true
        [ -n "${OBSTMP:-}" ] && rm -rf "$OBSTMP" || true
    }
    trap cleanup_fleet EXIT
    FLEETADDR=127.0.0.1:36093
    go build -o "$FLEETTMP/rd2" ./cmd/rd2
    go build -o "$FLEETTMP/rd2d" ./cmd/rd2d

    # Offline reference: rd2 -report over every corpus trace (exit 1 = races).
    : > "$FLEETTMP/off.jsonl"
    for tracefile in examples/traces/*; do
        rc=0
        "$FLEETTMP/rd2" -trace "$tracefile" -q -report "$FLEETTMP/one.jsonl" || rc=$?
        [ "$rc" -le 1 ] || { echo "fleet smoke: offline rd2 $tracefile rc $rc" >&2; exit 1; }
        cat "$FLEETTMP/one.jsonl" >> "$FLEETTMP/off.jsonl"
    done
    sort "$FLEETTMP/off.jsonl" > "$FLEETTMP/off.sorted"
    [ -s "$FLEETTMP/off.sorted" ] || { echo "fleet smoke: corpus produced no race records" >&2; exit 1; }

    # Stream the whole corpus through each daemon mode; after the same
    # session/seq strip and sort as the wire smoke, the JSONL verdicts must
    # be byte-identical to offline. -compact-every 0 keeps point-clock
    # renderings identical to the offline run.
    for mode in perconn fleet; do
        if [ "$mode" = fleet ]; then
            MODEFLAGS="-fleet -fleet-workers 2 -max-sessions 64"
        else
            MODEFLAGS=""
        fi
        # shellcheck disable=SC2086
        "$FLEETTMP/rd2d" -listen "$FLEETADDR" -q -compact-every 0 $MODEFLAGS \
            -report "$FLEETTMP/$mode.jsonl" 2> "$FLEETTMP/$mode.log" &
        FLEETPID=$!
        for tracefile in examples/traces/*; do
            rc=0
            timeout 60 "$FLEETTMP/rd2" -trace "$tracefile" -send "$FLEETADDR" \
                -send-wait 10s -tenant smoke -q || rc=$?
            [ "$rc" -le 1 ] || {
                echo "fleet smoke ($mode): rd2 -send $tracefile rc $rc" >&2
                cat "$FLEETTMP/$mode.log" >&2
                exit 1
            }
        done
        kill -TERM "$FLEETPID"
        rc=0
        wait "$FLEETPID" || rc=$?
        FLEETPID=""
        [ "$rc" -le 1 ] || { echo "fleet smoke ($mode): rd2d rc $rc" >&2; cat "$FLEETTMP/$mode.log" >&2; exit 1; }
        sed 's/^{"session":"[^"]*","seq":[0-9]*,/{/' "$FLEETTMP/$mode.jsonl" \
            | sort > "$FLEETTMP/$mode.sorted"
        if ! diff -q "$FLEETTMP/off.sorted" "$FLEETTMP/$mode.sorted" > /dev/null; then
            echo "fleet smoke ($mode): daemon verdicts differ from offline rd2" >&2
            diff "$FLEETTMP/off.sorted" "$FLEETTMP/$mode.sorted" | head >&2
            exit 1
        fi
        echo "fleet smoke ($mode): $(wc -l < "$FLEETTMP/$mode.sorted") verdicts byte-identical to offline rd2"
    done

    echo "== fleet: fairness smoke (hot tenant vs quota-compliant background tenant) =="
    # The background tenant is paced by its own 5000 events/s token bucket;
    # a saturating hot tenant (three unthrottled streams) must not push its
    # ingest below 80% of the isolated rate, i.e. the contended send may
    # take at most 1.25x the isolated send (plus a fixed scheduling slack).
    go run ./cmd/tracegen -seed 5 -threads 4 -ops-min 400 -ops-max 400 > "$FLEETTMP/bg.trace"
    go run ./cmd/tracegen -seed 9 -threads 4 -ops-min 20000 -ops-max 20000 > "$FLEETTMP/hot.trace"
    "$FLEETTMP/rd2d" -listen "$FLEETADDR" -q -fleet -fleet-workers 2 \
        -tenant-quota 'bg:events=5000,burst=250' 2> "$FLEETTMP/fair.log" &
    FLEETPID=$!

    T0=$(date +%s%N)
    rc=0
    timeout 60 "$FLEETTMP/rd2" -trace "$FLEETTMP/bg.trace" -send "$FLEETADDR" \
        -send-wait 10s -tenant bg -q || rc=$?
    [ "$rc" -le 1 ] || { echo "fleet smoke: isolated bg send rc $rc" >&2; cat "$FLEETTMP/fair.log" >&2; exit 1; }
    T1=$(date +%s%N)
    D_ISO=$(( (T1 - T0) / 1000000 ))

    for i in 1 2 3; do
        timeout 120 "$FLEETTMP/rd2" -trace "$FLEETTMP/hot.trace" -send "$FLEETADDR" \
            -send-wait 10s -tenant hot -q 2>/dev/null &
        HOTPIDS="$HOTPIDS $!"
    done
    sleep 0.3 # let the hot tenant get resident and saturate the pool
    T0=$(date +%s%N)
    rc=0
    timeout 60 "$FLEETTMP/rd2" -trace "$FLEETTMP/bg.trace" -send "$FLEETADDR" \
        -send-wait 10s -tenant bg -q || rc=$?
    [ "$rc" -le 1 ] || { echo "fleet smoke: contended bg send rc $rc" >&2; cat "$FLEETTMP/fair.log" >&2; exit 1; }
    T1=$(date +%s%N)
    D_HOT=$(( (T1 - T0) / 1000000 ))
    for p in $HOTPIDS; do wait "$p" || true; done
    HOTPIDS=""

    LIMIT=$(( D_ISO * 5 / 4 + 150 ))
    echo "fleet smoke: bg isolated ${D_ISO}ms, under hot tenant ${D_HOT}ms (limit ${LIMIT}ms)"
    [ "$D_HOT" -le "$LIMIT" ] || {
        echo "fleet smoke: background tenant fell below 80% of its isolated ingest rate" >&2
        cat "$FLEETTMP/fair.log" >&2
        exit 1
    }
    kill -TERM "$FLEETPID"
    wait "$FLEETPID" 2>/dev/null || true
    FLEETPID=""
    echo "fleet smoke OK"
fi

if [ "$DURABLE" = 1 ]; then
    echo "== durable: crash/restart differential tests (-race) =="
    go test -race -timeout 300s \
        -run 'TestDurable|TestScanReport|TestHealthzPhases' ./cmd/rd2d
    go test -race -timeout 120s ./internal/pipeline

    echo "== durable: live SIGKILL-restart-resume differential (torn snapshot, torn WAL, WAL only) =="
    DURTMP=$(mktemp -d)
    DURPID=""
    DSENDPID=""
    cleanup_durable() {
        [ -n "$DURPID" ] && kill -9 "$DURPID" 2>/dev/null || true
        [ -n "$DSENDPID" ] && kill -9 "$DSENDPID" 2>/dev/null || true
        rm -rf "$DURTMP"
        [ -n "${FLEETTMP:-}" ] && rm -rf "$FLEETTMP" || true
        [ -n "${CHAOSTMP:-}" ] && rm -rf "$CHAOSTMP" || true
        [ -n "${WIRETMP:-}" ] && rm -rf "$WIRETMP" || true
        [ -n "${OBSTMP:-}" ] && rm -rf "$OBSTMP" || true
    }
    trap cleanup_durable EXIT
    DURADDR=127.0.0.1:36113
    go build -o "$DURTMP/rd2" ./cmd/rd2
    go build -o "$DURTMP/rd2d" ./cmd/rd2d
    # Long enough for several 16 KiB frames (so both injection points land
    # mid-stream) and for multiple checkpoints at -ckpt-every 128.
    go run ./cmd/tracegen -seed 17 -threads 4 -ops-min 3000 -ops-max 3000 \
        > "$DURTMP/run.trace"

    # Uninterrupted baseline verdicts. -compact-every 0 on every daemon in
    # this smoke so point-clock renderings cannot drift with restart timing.
    "$DURTMP/rd2d" -listen "$DURADDR" -q -compact-every 0 \
        -report "$DURTMP/base.jsonl" 2> "$DURTMP/base.log" &
    DURPID=$!
    rc=0
    timeout 60 "$DURTMP/rd2" -trace "$DURTMP/run.trace" -send "$DURADDR" \
        -send-wait 10s -resume -q || rc=$?
    [ "$rc" -le 1 ] || { echo "durable smoke: baseline send rc $rc" >&2; cat "$DURTMP/base.log" >&2; exit 1; }
    kill -TERM "$DURPID"
    rc=0
    wait "$DURPID" || rc=$?
    DURPID=""
    [ "$rc" -le 1 ] || { echo "durable smoke: baseline rd2d rc $rc" >&2; cat "$DURTMP/base.log" >&2; exit 1; }
    sed 's/^{"session":"[^"]*","seq":[0-9]*,/{/' "$DURTMP/base.jsonl" \
        | sort > "$DURTMP/base.sorted"
    [ -s "$DURTMP/base.sorted" ] || { echo "durable smoke: trace produced no race records" >&2; exit 1; }

    # Each run is an injection and a replay budget. ckpt-crash:2 dies by
    # SIGKILL on the second snapshot with the snapshot file half-written in
    # place; wal-crash:3 dies on the third WAL append with half a frame on
    # disk. At the default budget the trace is far too short for a
    # snapshot, so that restart replays the WAL from byte zero. Every time
    # the restarted daemon must recover to the exact baseline verdicts.
    for run in ckpt-crash:2,128 wal-crash:3,128 wal-crash:3,default; do
        inject=${run%,*}
        budget=""
        [ "${run#*,}" = default ] || budget="-ckpt-every ${run#*,}"
        rm -rf "$DURTMP/state"
        rm -f "$DURTMP/dur.jsonl"
        # $budget is unquoted on purpose: empty, or a flag and its value.
        "$DURTMP/rd2d" -listen "$DURADDR" -q -compact-every 0 \
            -statedir "$DURTMP/state" $budget \
            -report "$DURTMP/dur.jsonl" -inject "$inject" \
            2> "$DURTMP/dur1.log" &
        DURPID=$!
        timeout 120 "$DURTMP/rd2" -trace "$DURTMP/run.trace" -send "$DURADDR" \
            -send-wait 10s -resume -restart-window 60s -q \
            2> "$DURTMP/send.log" &
        DSENDPID=$!
        # The injected fault must SIGKILL the daemon mid-stream; a daemon
        # that outlives the deadline means the injection never fired.
        i=0
        while kill -0 "$DURPID" 2>/dev/null; do
            i=$((i + 1))
            if [ $i -gt 300 ]; then
                echo "durable smoke ($run): daemon never crashed" >&2
                cat "$DURTMP/dur1.log" >&2
                exit 1
            fi
            sleep 0.2
        done
        rc=0
        wait "$DURPID" || rc=$?
        DURPID=""
        [ "$rc" -ge 128 ] || {
            echo "durable smoke ($run): daemon exited rc $rc, expected a SIGKILL death" >&2
            cat "$DURTMP/dur1.log" >&2
            exit 1
        }
        if [ -z "$budget" ] && ls "$DURTMP"/state/*/snap.ckpt > /dev/null 2>&1; then
            echo "durable smoke ($run): a snapshot exists below the default replay budget" >&2
            exit 1
        fi
        # Restart over the same state dir and report file; the client's
        # restart window keeps it redialing the refused port until the
        # reborn daemon has rehydrated and adopts the session.
        "$DURTMP/rd2d" -listen "$DURADDR" -q -compact-every 0 \
            -statedir "$DURTMP/state" $budget \
            -report "$DURTMP/dur.jsonl" 2> "$DURTMP/dur2.log" &
        DURPID=$!
        rc=0
        wait "$DSENDPID" || rc=$?
        DSENDPID=""
        [ "$rc" -le 1 ] || {
            echo "durable smoke ($run): resumed rd2 -send rc $rc" >&2
            cat "$DURTMP/send.log" "$DURTMP/dur1.log" "$DURTMP/dur2.log" >&2
            exit 1
        }
        kill -TERM "$DURPID"
        rc=0
        wait "$DURPID" || rc=$?
        DURPID=""
        [ "$rc" -le 1 ] || { echo "durable smoke ($run): restarted rd2d rc $rc" >&2; cat "$DURTMP/dur2.log" >&2; exit 1; }
        sed 's/^{"session":"[^"]*","seq":[0-9]*,/{/' "$DURTMP/dur.jsonl" \
            | sort > "$DURTMP/dur.sorted"
        if ! diff -q "$DURTMP/base.sorted" "$DURTMP/dur.sorted" > /dev/null; then
            echo "durable smoke ($run): recovered verdicts differ from baseline" >&2
            diff "$DURTMP/base.sorted" "$DURTMP/dur.sorted" | head >&2
            exit 1
        fi
        echo "durable smoke ($run): $(wc -l < "$DURTMP/dur.sorted") verdicts byte-identical across the SIGKILL restart"
    done
    echo "durable smoke OK"
fi

echo "CI OK"
