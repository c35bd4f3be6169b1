package main

// This file implements the operator surfaces over the per-session metric
// scopes: the /sessions JSON endpoint (one row per live or recently
// finished session, with queue, race, and per-stage latency figures read
// from the session's scope) and the -stats-interval text table. Both read
// the same sessionInfo snapshot, so what an operator tails on stderr is
// what a dashboard scrapes over HTTP.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// stageStat is the per-stage latency digest of one session: span count and
// the p50/p99 of the stage's latency histogram, in nanoseconds.
type stageStat struct {
	Count uint64 `json:"count"`
	P50Ns uint64 `json:"p50_ns"`
	P99Ns uint64 `json:"p99_ns"`
}

// sessionInfo is one /sessions row.
type sessionInfo struct {
	Session  string `json:"session"`           // scope id (client sid or conn-<n>)
	Ordinal  int64  `json:"ordinal"`           // daemon-local session number
	Tenant   string `json:"tenant,omitempty"`  // quota/scheduling tenant
	State    string `json:"state"`             // new | attached | parked | completed
	Sched    string `json:"sched,omitempty"`   // fleet state: idle | runnable | running | throttled
	Resumes  int    `json:"resumes,omitempty"` // times re-attached after a lost conn
	Events   int    `json:"events"`            // events ingested off the wire
	Races    uint64 `json:"races"`
	Queue    int    `json:"queue"`       // current ingest queue depth, events
	QueuePk  int64  `json:"queue_peak"`  // high-water ingest backlog
	AckedSeq uint64 `json:"acked_chunk"` // last acked chunk seq (resumable streams)
	LastSeq  uint64 `json:"last_seq"`    // last JSONL race record seq stamped
	Degraded bool   `json:"degraded"`
	// Stages holds the per-stage latency digests, keyed by stage name
	// (stage.decode .. stage.report), read from the session scope.
	Stages map[string]stageStat `json:"stages,omitempty"`
}

// info snapshots one session. Detection state owned by the runner is read
// from the session's metric scope, and decoder figures from the atomics the
// read loop publishes, never from the runner's or the decoder's private
// fields, so this is safe mid-flight.
func (s *session) info() sessionInfo {
	in := sessionInfo{
		Session: s.name,
		Ordinal: s.id,
		Tenant:  s.tenant,
		Queue:   len(s.queue),
		QueuePk: s.ob.queue.Peak(),
		Races:   s.scope.Counter("core.races").Load(),
	}
	if s.sr != nil {
		in.LastSeq = s.sr.Seq()
	}
	if s.entry != nil {
		in.Sched = s.entry.State()
	}
	s.mu.Lock()
	// A connection stalled in its tenant's throttle overrides the
	// scheduler state: the session is not waiting for a worker, its
	// producer is being rate limited.
	if s.th != nil && s.th.Stalling() {
		in.Sched = "throttled"
	}
	switch s.state {
	case stateNew:
		in.State = "new" // being set up; a rehydrating session replays its WAL here
	case stateAttached:
		in.State = "attached"
	case stateParked:
		in.State = "parked"
	case stateCompleted:
		in.State = "completed"
	}
	in.Resumes = s.resumes
	s.mu.Unlock()
	in.Events = int(s.decEvents.Load())
	in.Degraded = s.decDegraded.Load()
	if n := s.decAcked.Load(); n > 0 {
		in.AckedSeq = n - 1
	}
	// Once final closes the summary is immutable and has the exact figures
	// (including runner panics the decoder cannot see). A session that is
	// still mid-finalize keeps its live approximation — never block a
	// monitoring read on a draining runner.
	select {
	case <-s.final:
		sum := s.summary
		in.Events, in.Races = sum.Events, uint64(sum.Races)
		in.Degraded, in.LastSeq = sum.Degraded, sum.Seq
	default:
	}
	snap := s.scope.Snapshot()
	for name, h := range snap.Timers {
		stage, ok := strings.CutSuffix(name, "_ns")
		if !ok || !strings.HasPrefix(stage, "stage.") || h.Count == 0 {
			continue
		}
		if in.Stages == nil {
			in.Stages = map[string]stageStat{}
		}
		in.Stages[stage] = stageStat{Count: h.Count, P50Ns: h.P50Ns, P99Ns: h.P99Ns}
	}
	return in
}

// sessionInfos snapshots every tracked session, ordered by ordinal.
func (d *daemon) sessionInfos() []sessionInfo {
	d.trackMu.Lock()
	ss := make([]*session, 0, len(d.tracked))
	for _, s := range d.tracked {
		ss = append(ss, s)
	}
	d.trackMu.Unlock()
	out := make([]sessionInfo, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ordinal < out[j].Ordinal })
	return out
}

// httpHandler is the daemon's observability mux: the standard obs routes
// (/metrics with ?session= and ?format=prom, /debug/*, /healthz) plus the
// daemon-aware /sessions listing.
func (d *daemon) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(d.obsRoot()))
	// Readiness: overrides the obs handler's static /healthz with the
	// daemon's lifecycle phase, so load balancers and restart scripts can
	// wait out rehydration and stop routing to a draining daemon.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if p := d.phase.Load(); p != phaseServing {
			http.Error(w, phaseName(p), http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d.sessionInfos()) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d.sched.Tenants()) //nolint:errcheck // client went away
	})
	return mux
}

// startStatsTable emits a compact per-session table to w every interval —
// the text mode of -stats-interval. Returns a stop func.
func (d *daemon) startStatsTable(w io.Writer, every time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		start := time.Now()
		prev := map[string]int{}
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fmt.Fprint(w, d.formatStatsTable(time.Since(start), every, prev))
			}
		}
	}()
	return func() { close(stop); <-done }
}

// formatStatsTable renders one -stats-interval tick: a row per session and
// a global roll-up footer. prev carries each session's event count from the
// last tick for the events/s column.
func (d *daemon) formatStatsTable(up, every time.Duration, prev map[string]int) string {
	infos := d.sessionInfos()
	var b strings.Builder
	fmt.Fprintf(&b, "-- rd2d sessions @ %s --\n", up.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-24s %-12s %-10s %-10s %10s %8s %7s %7s\n",
		"SESSION", "TENANT", "STATE", "SCHED", "EVENTS", "EV/S", "QUEUE", "RACES")
	totEvents, totRate, totQueue, totRaces := 0, 0.0, 0, uint64(0)
	tenantRate := map[string]float64{}
	seen := map[string]bool{}
	for _, in := range infos {
		rate := float64(in.Events-prev[in.Session]) / every.Seconds()
		if rate < 0 {
			rate = 0
		}
		prev[in.Session] = in.Events
		seen[in.Session] = true
		flags := ""
		if in.Degraded {
			flags = " !degraded"
		}
		sched := in.Sched
		if sched == "" {
			sched = "-"
		}
		fmt.Fprintf(&b, "  %-24s %-12s %-10s %-10s %10d %8.0f %7d %7d%s\n",
			in.Session, in.Tenant, in.State, sched, in.Events, rate, in.Queue, in.Races, flags)
		totEvents += in.Events
		totRate += rate
		totQueue += in.Queue
		totRaces += in.Races
		tenantRate[in.Tenant] += rate
	}
	for name := range prev {
		if !seen[name] {
			delete(prev, name) // session lingered out; stop charging its rate
		}
	}
	fmt.Fprintf(&b, "  %-24s %-12s %-10s %-10s %10d %8.0f %7d %7d\n",
		"TOTAL", "", fmt.Sprintf("%d sess", len(infos)), "", totEvents, totRate, totQueue, totRaces)
	// Per-tenant rollup: resident sessions, cumulative throttled events,
	// admission rejects, and this tick's ingest rate.
	for _, ts := range d.sched.Tenants() {
		fmt.Fprintf(&b, "  tenant %-17s %12s %8.0f ev/s %8d rejects\n",
			ts.Name, fmt.Sprintf("%d sess", ts.Sessions), tenantRate[ts.Name], ts.Rejects)
	}
	return b.String()
}
