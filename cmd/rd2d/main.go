// Command rd2d is the online commutativity race detection daemon: the
// streaming counterpart of cmd/rd2. It listens on TCP for RDB2 binary
// trace streams (internal/wire), runs one detection session per
// connection — incremental happens-before stamping feeding the sharded
// detection pipeline — and reports races as they are found, while the
// monitored program is still running.
//
//	rd2d -listen 127.0.0.1:7029 -spec dict -report races.jsonl -http :6060
//
// Producers stream events with `rd2 -trace run.trace -send addr` (replay
// an existing trace), `tracegen -wire` piped over the network, or any
// writer of the wire format (wire.Client). Each session is acknowledged
// with a one-line JSON summary {"events":N,"races":M,"clean":true}.
//
// Production shape: per-connection ingest queues are bounded — when
// detection falls behind, the socket blocks and TCP flow control pushes
// back on the producer instead of buffering without limit; reads carry an
// idle timeout; SIGTERM/SIGINT drains gracefully (in-flight sessions stop
// ingesting, flush their pending shards, and write complete reports before
// the process exits). -http serves /metrics with ingest counters (frames,
// bytes, events, queue depth, backpressure stalls) next to the detector
// metrics.
//
// The exit status is 1 when any session found races, 2 on startup errors.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/ecl"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/translate"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rd2d", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7029", "TCP address to accept wire streams on")
	specName := fs.String("spec", "dict", "default specification: built-in name or file path")
	bind := fs.String("bind", "", "per-object specs, e.g. 0=dict,3=set")
	engine := fs.String("engine", "bounded", "conflict engine: bounded or enumerating")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "detection shards per session")
	maxRaces := fs.Int("max-races", 100, "maximum races retained per session")
	queueLen := fs.Int("queue", 1024, "per-connection ingest queue depth in events")
	idleTimeout := fs.Duration("idle-timeout", 30*time.Second, "per-read idle timeout (0 disables)")
	writeTimeout := fs.Duration("write-timeout", DefaultWriteTimeout, "summary/ack write deadline (also applied to the -report writer when it supports deadlines)")
	resumeTTL := fs.Duration("resume-ttl", DefaultResumeTTL, "how long a resumable session survives a lost connection")
	resync := fs.Bool("resync", false, "corruption resync: skip corrupt frames and continue (session reports degraded)")
	stateDir := fs.String("statedir", "", "persist resumable sessions here (crash-safe checkpoint/restore across daemon restarts)")
	ckptEvery := fs.Int("ckpt-every", DefaultCkptEvery, "with -statedir: snapshot a durable session at most once per this many events")
	fsyncMode := fs.String("fsync", "ckpt", "with -statedir: off (safe against process crashes only), ckpt (fsync WAL and snapshot at checkpoints), always (also fsync every WAL append)")
	inject := fs.String("inject", "", "fault injection for chaos testing, e.g. rep-panic:100 or worker-panic:50")
	compactOps := fs.Int("compact-every", 4096, "compact reclaimable detector state at most once per this many events (0 disables; compaction may trim dead-thread entries from reported point clocks)")
	fleetMode := fs.Bool("fleet", false, "multi-tenant fleet scheduling: run sessions as quanta on a shared worker pool with per-tenant deficit-round-robin fairness (each session runs one serial detector; -shards applies only to per-conn mode)")
	fleetWorkers := fs.Int("fleet-workers", 0, "fleet worker pool size (with -fleet; 0 = GOMAXPROCS)")
	fleetQuantum := fs.Int("fleet-quantum", 0, "events granted per tenant scheduling round (0 = built-in default)")
	maxSessions := fs.Int("max-sessions", 0, "reject new sessions beyond this resident count with a retryable busy summary (0 = unbounded; enforced with or without -fleet)")
	globalRate := fs.Float64("global-events-per-sec", 0, "daemon-wide ingest budget; resident sessions overdraft it, but new sessions are rejected busy while it is overdrawn (0 = unlimited)")
	tenantQuota := fs.String("tenant-quota", "",
		"per-tenant quotas: 'name:events=5000,burst=500,sessions=4,arena=64MB;...' (name 'default' sets the quota for unlisted tenants)")
	reportPath := fs.String("report", "", "stream structured race records (JSON Lines) to this file")
	httpAddr := fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (enables metrics)")
	statsInterval := fs.Duration("stats-interval", 0, "emit a metrics snapshot to stderr at this interval (enables metrics)")
	statsJSON := fs.Bool("stats-json", false, "emit -stats-interval snapshots as JSON instead of text")
	quiet := fs.Bool("q", false, "log only startup and shutdown, not per-session lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "rd2d: ", 0)
	cfg := daemonConfig{
		defaultSpec:  *specName,
		shards:       *shards,
		maxRaces:     *maxRaces,
		queueLen:     *queueLen,
		idleTimeout:  *idleTimeout,
		writeTimeout: *writeTimeout,
		resumeTTL:    *resumeTTL,
		resync:       *resync,
		stateDir:     *stateDir,
		ckptEvery:    *ckptEvery,
		compactOps:   *compactOps,
		logger:       logger,
		fleet:        *fleetMode,
		fleetWorkers: *fleetWorkers,
		fleetQuantum: *fleetQuantum,
		maxSessions:  *maxSessions,
		globalRate:   *globalRate,
	}
	if *tenantQuota != "" {
		def, quotas, err := parseTenantQuotas(*tenantQuota)
		if err != nil {
			logger.Printf("%v", err)
			return 2
		}
		cfg.defaultQuota = def
		cfg.tenantQuotas = quotas
	}
	if *quiet {
		cfg.logger = nil
	}
	var err error
	if cfg.fsyncMode, err = parseFsyncMode(*fsyncMode); err != nil {
		logger.Printf("%v", err)
		return 2
	}
	if *inject != "" {
		if err := parseInject(*inject, &cfg); err != nil {
			logger.Printf("%v", err)
			return 2
		}
		logger.Printf("fault injection armed: %s", *inject)
	}

	if cfg.defaultRep, err = loadRep(*specName); err != nil {
		logger.Printf("%v", err)
		return 2
	}
	cfg.binds = map[trace.ObjID]ap.Rep{}
	cfg.bindSpecs = map[trace.ObjID]string{}
	if *bind != "" {
		for _, pair := range strings.Split(*bind, ",") {
			kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
			if len(kv) != 2 {
				logger.Printf("bad -bind entry %q", pair)
				return 2
			}
			id, err := strconv.Atoi(kv[0])
			if err != nil {
				logger.Printf("bad object id %q", kv[0])
				return 2
			}
			rep, err := loadRep(kv[1])
			if err != nil {
				logger.Printf("%v", err)
				return 2
			}
			cfg.binds[trace.ObjID(id)] = rep
			cfg.bindSpecs[trace.ObjID(id)] = kv[1]
		}
	}
	switch *engine {
	case "bounded":
		cfg.engine = core.EngineBounded
	case "enumerating":
		cfg.engine = core.EngineEnumerating
	default:
		logger.Printf("unknown engine %q", *engine)
		return 2
	}

	if *httpAddr != "" || *statsInterval > 0 {
		obs.SetEnabled(true)
	}

	var reportFile *os.File
	if *reportPath != "" {
		if *stateDir != "" {
			// Durable mode appends: prior sessions' records survive the
			// restart, and scanReport recovers each session's high-water
			// seq (truncating a torn last line) so rehydrated reporters
			// suppress replayed records instead of duplicating them.
			seqs, serr := scanReport(*reportPath)
			if serr != nil {
				logger.Printf("report: %v", serr)
				return 2
			}
			cfg.reportSeqs = seqs
			reportFile, err = os.OpenFile(*reportPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		} else {
			reportFile, err = os.Create(*reportPath)
		}
		if err != nil {
			logger.Printf("%v", err)
			return 2
		}
		defer reportFile.Close()
		cfg.reporter = core.NewReportWriter(&deadlineWriter{f: reportFile, d: *writeTimeout})
	}

	d, err := newDaemon(*listen, cfg)
	if err != nil {
		logger.Printf("%v", err)
		return 2
	}
	if *httpAddr != "" {
		srv, err := obs.ServeHandler(*httpAddr, d.httpHandler())
		if err != nil {
			logger.Printf("%v", err)
			return 2
		}
		defer srv.Close()
		logger.Printf("metrics on http://%s/metrics, sessions on /sessions", srv.Addr())
	}
	if *statsInterval > 0 {
		if *statsJSON {
			em := obs.StartEmitter(os.Stderr, obs.Default, *statsInterval, true)
			defer em.Stop()
		} else {
			defer d.startStatsTable(os.Stderr, *statsInterval)()
		}
	}
	if *stateDir != "" {
		// Rehydrate before serving: the listener is bound (connections
		// queue in the accept backlog) and /healthz answers 503
		// "rehydrating" until every checkpointed session is parked again.
		d.phase.Store(phaseRehydrating)
		d.rehydrate()
		d.phase.Store(phaseServing)
	}
	logger.Printf("listening on %s (spec %s, %d shards)", d.Addr(), *specName, *shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Printf("%v: draining...", s)
		d.Shutdown()
	}()

	if err := d.Serve(); err != nil {
		logger.Printf("%v", err)
		return 2
	}
	// All sessions drained: the report is complete.
	if cfg.reporter != nil {
		if err := cfg.reporter.Err(); err != nil {
			logger.Printf("report: %v", err)
			return 2
		}
		logger.Printf("%d race records written to %s", cfg.reporter.Count(), *reportPath)
	}
	logger.Printf("drained: %d sessions, %d events, %d races, %d failed, %d degraded",
		d.sessionSeq.Load(), d.totalEvents.Load(), d.totalRaces.Load(), d.failed.Load(), d.degraded.Load())
	if d.totalRaces.Load() > 0 {
		return 1
	}
	return 0
}

// parseTenantQuotas parses the -tenant-quota grammar: semicolon-separated
// tenant entries, each 'name:key=value,...' with keys events (float,
// events/s), burst (events), sessions (count), and arena (bytes, with an
// optional K/M/G suffix). The tenant name 'default' sets the quota applied
// to tenants without an entry.
func parseTenantQuotas(spec string) (def fleet.Quota, quotas map[string]fleet.Quota, err error) {
	quotas = map[string]fleet.Quota{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, body, ok := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return def, nil, fmt.Errorf("bad -tenant-quota entry %q (want name:key=value,...)", entry)
		}
		var q fleet.Quota
		for _, kv := range strings.Split(body, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return def, nil, fmt.Errorf("bad -tenant-quota field %q in %q", kv, entry)
			}
			switch k {
			case "events":
				if q.EventsPerSec, err = strconv.ParseFloat(v, 64); err != nil || q.EventsPerSec < 0 {
					return def, nil, fmt.Errorf("bad -tenant-quota events %q", v)
				}
			case "burst":
				if q.Burst, err = strconv.Atoi(v); err != nil || q.Burst < 0 {
					return def, nil, fmt.Errorf("bad -tenant-quota burst %q", v)
				}
			case "sessions":
				if q.MaxSessions, err = strconv.Atoi(v); err != nil || q.MaxSessions < 0 {
					return def, nil, fmt.Errorf("bad -tenant-quota sessions %q", v)
				}
			case "arena":
				if q.MaxArenaBytes, err = parseBytes(v); err != nil {
					return def, nil, fmt.Errorf("bad -tenant-quota arena %q: %v", v, err)
				}
			default:
				return def, nil, fmt.Errorf("unknown -tenant-quota key %q (want events, burst, sessions, or arena)", k)
			}
		}
		if name == "default" {
			def = q
		} else {
			quotas[name] = q
		}
	}
	return def, quotas, nil
}

// parseBytes parses a byte count with an optional K/M/G (or KB/MB/GB)
// binary suffix.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	for _, suf := range []struct {
		tag string
		m   int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}} {
		if strings.HasSuffix(s, suf.tag) {
			s, mult = strings.TrimSuffix(s, suf.tag), suf.m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a non-negative byte count, e.g. 64MB")
	}
	return n * mult, nil
}

// parseInject arms the daemon's deterministic fault hooks from a comma
// list of kind:count pairs (chaos testing; see internal/faultinject).
func parseInject(spec string, cfg *daemonConfig) error {
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -inject entry %q (want kind:count)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -inject count %q", kv[1])
		}
		switch kv[0] {
		case "rep-panic":
			cfg.injectRepPanic = int64(n)
		case "worker-panic":
			cfg.injectWorkerPanic = n
		case "ckpt-crash":
			cfg.injectCkptCrash = n
		case "wal-crash":
			cfg.injectWalCrash = n
		default:
			return fmt.Errorf("unknown -inject kind %q (want rep-panic, worker-panic, ckpt-crash, or wal-crash)", kv[0])
		}
	}
	return nil
}

// deadlineWriter applies the daemon write timeout to the JSONL report
// writer. Regular files do not support write deadlines (SetWriteDeadline
// returns ErrNoDeadline) and are written as-is; pipes and sockets — where
// a stuck reader could otherwise wedge every session's race reporting —
// honor the deadline.
type deadlineWriter struct {
	f *os.File
	d time.Duration
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if w.d > 0 {
		w.f.SetWriteDeadline(time.Now().Add(w.d)) // best-effort; see above
	}
	return w.f.Write(p)
}

// loadRep resolves a built-in spec name or parses a spec file and
// translates it (same resolution as cmd/rd2).
func loadRep(name string) (ap.Rep, error) {
	if rep, err := specs.Rep(name); err == nil {
		return rep, nil
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("spec %q is neither built-in (%v) nor readable: %v",
			name, specs.Names(), err)
	}
	spec, err := ecl.ParseSpec(string(src))
	if err != nil {
		return nil, err
	}
	return translate.Translate(spec)
}
