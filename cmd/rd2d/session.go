package main

// This file implements fault-tolerant detection sessions (DESIGN.md §9):
// a session is decoupled from its TCP connection. Plain streams still live
// and die with their connection, but a stream that opens with a hello
// frame (a client-chosen session id) becomes resumable — if its connection
// drops mid-stream the session is parked with its full detection state
// (happens-before engine, pipeline shards, interning table, chunk cursor)
// and a reconnecting client resumes it by replaying unacknowledged chunks,
// which the decoder deduplicates by sequence number. The analysis worker
// is supervised: a panic degrades the session to a partial-but-honest
// report instead of killing the daemon.

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Session lifecycle metrics: the active-session gauge moves by exactly one
// per session regardless of how it ends (clean close, idle timeout, worker
// panic, TTL expiry — see obs.Gauge.Enter), and the counters classify ends.
var (
	obsActiveSessions = obs.GetGauge("rd2d.active_sessions")
	obsSessionPanics  = obs.GetCounter("rd2d.session_panics")
	obsResumes        = obs.GetCounter("rd2d.sessions_resumed")
	obsParks          = obs.GetCounter("rd2d.sessions_parked")
	obsExpired        = obs.GetCounter("rd2d.sessions_expired")
	obsDegraded       = obs.GetCounter("rd2d.sessions_degraded")
)

// sessObs bundles the per-session instruments, resolved from the session's
// scope so every write rolls up into the daemon-global series: ingest
// counters (frames, events, races, backpressure), the queue-depth gauge
// whose peak is the session's high-water backlog, and the two stage spans
// the session records itself (wire decode and report emit; the stamp span
// is recorded by the worker around the hb engine, and the dispatch and
// detect spans come from the pipeline instruments resolved against the
// same scope).
type sessObs struct {
	frames *obs.Counter
	events *obs.Counter
	races  *obs.Counter
	stalls *obs.Counter
	queue  *obs.Gauge
	decode *obs.Span
	report *obs.Span
}

func newSessObs(scope *obs.Registry) *sessObs {
	return &sessObs{
		frames: scope.Counter("rd2d.frames"),
		events: scope.Counter("rd2d.events"),
		races:  scope.Counter("rd2d.races"),
		stalls: scope.Counter("rd2d.backpressure_stalls"),
		queue:  scope.Gauge("rd2d.queue_events"),
		decode: scope.Span(obs.StageDecode),
		report: scope.Span(obs.StageReport),
	}
}

// session states (guarded by session.mu).
const (
	stateAttached  = iota // a connection's read loop is feeding the queue
	stateParked           // no connection; detection state held under TTL
	stateCompleted        // summary finalized (stored for re-delivery)
)

// DefaultResumeTTL is how long a parked session waits for its client.
const DefaultResumeTTL = 30 * time.Second

// session is one detection run: the bounded event queue between the
// connection read loop and the supervised analysis worker, plus the state
// needed to park and resume across connections.
type session struct {
	d      *daemon
	id     int64  // daemon-local ordinal (logging)
	sid    string // client session id; "" = bound to one connection
	name   string // scope id: sid, or "conn-<id>" for plain sessions
	tenant string // quota/scheduling tenant (fleet.DefaultTenant when unset)

	// Fleet-mode execution (nil with -fleet off): the run-queue entry on
	// the shared scheduler and its serial runner. admit releases the
	// session's admission reservation; finalize calls it (idempotent).
	entry  *fleet.Entry
	runner *fleetRunner
	admit  func()

	// Durable-session state (nil without -statedir or for plain streams):
	// the WAL + snapshot machinery and, on a rehydrated session, the
	// checkpointed state the worker imports before processing.
	dur     *durSession
	restore *sessionRestore

	scope *obs.Registry // per-session metric scope (rolls up to the root)
	ob    *sessObs
	sr    *core.SessionReporter // stamps session+seq on JSONL records (nil without -report)

	queue chan trace.Event
	done  chan struct{} // worker exited (detection results final)
	final chan struct{} // summary assembled (read s.summary after this)

	// Worker-owned detection state; touched outside the worker only after
	// <-done (the channel close is the happens-before edge).
	en          *hb.Engine
	p           *pipeline.Pipeline
	registered  map[trace.ObjID]bool
	wrapRep     func(ap.Rep) ap.Rep // fault-injection hook (nil normally)
	events      int
	races       int
	shardPanics int
	degraded    bool // pipeline degraded or worker panicked
	panicked    bool
	procErr     error
	lastEv      trace.Event // most recent event, formatted only in panic reports

	// Reader-published stream facts (set before the queue closes).
	clean   atomic.Bool
	readErr atomic.Value // string

	mu      sync.Mutex
	state   int
	conn    pokeable        // current connection (attached), for liveness pokes
	dec     *wire.Decoder   // decoder holding the stream's cross-conn state
	th      *fleet.Throttle // current connection's ingest throttle
	ttl     *time.Timer
	resumes int

	finishOnce   sync.Once
	summary      wire.Summary // immutable once final is closed
	releaseGauge func()
}

// pokeable is the slice of net.Conn the session needs from its connection.
type pokeable interface{ SetReadDeadline(time.Time) error }

// newSession creates a session and starts its supervised worker. Every
// session gets its own metric scope ("session" = its id) under the daemon's
// registry root: the engine, pipeline shards, decoder, and the session's
// own ingest instruments all record into it, and every write rolls up into
// the global series, so /sessions and /metrics?session=ID attribute the
// fleet numbers per tenant at no extra bookkeeping.
func (d *daemon) newSession(sid, tenant string, restore *sessionRestore) *session {
	id := d.sessionSeq.Add(1)
	name := sid
	if name == "" {
		name = fmt.Sprintf("conn-%d", id)
	}
	if tenant == "" {
		tenant = fleet.DefaultTenant
	}
	scope := d.obsRoot().Scope("session", name)
	s := &session{
		d:          d,
		id:         id,
		sid:        sid,
		name:       name,
		tenant:     tenant,
		restore:    restore,
		scope:      scope,
		ob:         newSessObs(scope),
		queue:      make(chan trace.Event, d.cfg.queueLen),
		done:       make(chan struct{}),
		final:      make(chan struct{}),
		registered: map[trace.ObjID]bool{},
		en:         hb.NewObs(scope),
	}
	if restore != nil {
		s.dur = restore.dur
	} else if d.cfg.stateDir != "" && sid != "" {
		ds, err := d.openDurSession(sid, tenant)
		if err != nil {
			// Durability is best-effort infrastructure, detection is the
			// job: run the session ephemeral and say so loudly.
			d.cfg.logger.Printf("session %q: durable state unavailable, running ephemeral: %v", sid, err)
		} else {
			s.dur = ds
		}
	}
	ccfg := core.Config{Engine: d.cfg.engine, MaxRaces: d.cfg.maxRaces, Obs: scope}
	if d.cfg.reporter != nil {
		s.sr = d.cfg.reporter.Session(name)
		if restore != nil {
			// Replayed events regenerate already-durable JSONL records;
			// the suppression window swallows them, keeping numbering
			// contiguous across the restart.
			s.sr.Restore(restore.meta.ReporterSeq, restore.durableSeq)
		}
		ccfg.OnRace = func(r core.Race) {
			_, spec := d.repFor(r.Obj)
			start := s.ob.report.Start()
			s.sr.Write(r, spec)
			s.ob.report.End(start, 1)
		}
	}
	if d.cfg.injectRepPanic > 0 {
		s.wrapRep = faultinject.WrapAllReps(d.cfg.injectRepPanic)
	}
	s.releaseGauge = obsActiveSessions.Enter()
	d.track(s)
	if d.cfg.fleet {
		// Fleet mode: no private goroutine, no per-session shards. The
		// session runs as quanta on the shared worker pool.
		s.startFleet(ccfg)
	} else {
		s.p = pipeline.New(pipeline.Config{Shards: d.cfg.shards, Core: ccfg, Obs: scope})
		go s.work()
	}
	return s
}

// logf logs one line for this session through the daemon logger.
func (s *session) logf(format string, args ...any) {
	who := fmt.Sprintf("session %d", s.id)
	if s.sid != "" {
		who = fmt.Sprintf("session %d (id %q)", s.id, s.sid)
	}
	s.d.cfg.logger.Printf("%s: %s", who, fmt.Sprintf(format, args...))
}

// work is the supervised analysis worker: incremental happens-before
// stamping into the sharded pipeline, with lazy registration and periodic
// compaction. A panic is recovered — logged with the offending event and
// stack, counted, and degraded to a partial result — and the worker keeps
// draining the queue so the connection read loop can never block forever
// on a dead session.
func (s *session) work() {
	defer close(s.done)
	defer func() {
		if r := recover(); r != nil {
			s.panicked = true
			s.degraded = true
			obsSessionPanics.Inc()
			s.logf("recovered worker panic at event %s: %v\n%s", s.lastEv, r, debug.Stack())
			for range s.queue {
			} // drain: the reader must never block on a dead worker
			s.collect()
		}
	}()
	s.applyRestore()
	stamp := s.scope.Span(obs.StageStamp)
	sinceCompact := 0
	for e := range s.queue {
		// Before the count advances, the worker sits exactly at the frame
		// boundary a checkpoint needs (events processed == boundary cum).
		s.maybeCheckpoint()
		s.events++
		sinceCompact++
		if s.procErr != nil {
			continue // drain
		}
		s.lastEv = e
		if n := s.d.cfg.injectWorkerPanic; n > 0 && s.events == n {
			panic(fmt.Sprintf("faultinject: injected worker panic at event %d", n))
		}
		start := stamp.Start()
		_, err := s.en.Process(&e)
		stamp.End(start, 1)
		if err != nil {
			s.procErr = fmt.Errorf("event %d (%s): %w", e.Seq, e.String(), err)
			continue
		}
		// Lazy registration ahead of the object's first action, then the
		// event itself, then the post-join compaction check.
		if e.Kind == trace.ActionEvent && !s.registered[e.Act.Obj] {
			rep, _ := s.d.repFor(e.Act.Obj)
			if s.wrapRep != nil {
				rep = s.wrapRep(rep)
			}
			s.p.Register(e.Act.Obj, rep)
			s.registered[e.Act.Obj] = true
		}
		s.p.Process(&e)
		if e.Kind == trace.JoinEvent && s.d.cfg.compactOps > 0 && sinceCompact >= s.d.cfg.compactOps {
			s.p.Compact(s.en.MeetLive())
			sinceCompact = 0
		}
	}
	s.collect()
}

// collect closes the pipeline and harvests its results, under its own
// panic guard: even a detector that dies during the final merge yields
// whatever it reported before dying (an honestly degraded result) rather
// than losing the session.
func (s *session) collect() {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = true
			s.degraded = true
			obsSessionPanics.Inc()
			s.logf("recovered panic collecting results: %v\n%s", r, debug.Stack())
		}
	}()
	if err := s.p.Close(); err != nil && s.procErr == nil {
		s.procErr = err
	}
	st := s.p.Stats()
	s.races = st.Races
	s.shardPanics = s.p.ShardPanics()
	if s.p.Degraded() {
		s.degraded = true
	}
}

// setConn records the attached connection (for liveness pokes) under mu.
func (s *session) setConn(c pokeable) {
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
}

// setReadErr records the stream error that ends the session, if no
// detection error claims the summary first.
func (s *session) setReadErr(msg string) { s.readErr.Store(msg) }

// park detaches the session from its dead connection and starts the
// resume TTL. It returns false when the daemon is draining — the caller
// finalizes instead, so a drain never leaves work behind. The transition
// is atomic with the drain check (d.mu) so Shutdown's parked-session sweep
// can never miss it.
func (s *session) park() bool {
	s.d.mu.Lock()
	if s.d.draining {
		s.d.mu.Unlock()
		return false
	}
	s.mu.Lock()
	if s.state == stateCompleted {
		s.mu.Unlock()
		s.d.mu.Unlock()
		return false
	}
	s.state = stateParked
	s.conn = nil
	ttl := s.d.cfg.resumeTTL
	if ttl <= 0 {
		ttl = DefaultResumeTTL
	}
	s.ttl = time.AfterFunc(ttl, s.expire)
	s.mu.Unlock()
	s.d.mu.Unlock()
	obsParks.Inc()
	s.logf("parked (%d events so far, resume ttl %v)", s.d.snapshotEvents(s), ttl)
	return true
}

// expire fires when a parked session's TTL runs out with no reconnect.
func (s *session) expire() {
	s.mu.Lock()
	if s.state != stateParked {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	obsExpired.Inc()
	sum := s.finalize()
	s.logf("resume ttl expired: %d events, %d races, clean=%v degraded=%v",
		sum.Events, sum.Races, sum.Clean, sum.Degraded)
}

// snapshotEvents reads the decoder's event count for logging (the worker's
// count is not synchronized until done).
func (d *daemon) snapshotEvents(s *session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dec != nil {
		return s.dec.Events()
	}
	return 0
}

// finalize ends the session exactly once: close the queue, wait for the
// worker, assemble the summary from detection results plus stream facts
// (resync skips, resumes), do the daemon bookkeeping, and release the
// active-session gauge. Every later (or concurrent) call waits and returns
// the same summary. Callers must guarantee no read loop is feeding the
// queue — clean end, parked, or drain-cut states all do.
func (s *session) finalize() wire.Summary {
	s.finishOnce.Do(func() {
		s.mu.Lock()
		s.state = stateCompleted
		if s.ttl != nil {
			s.ttl.Stop()
			s.ttl = nil
		}
		s.mu.Unlock()
		close(s.queue)
		if s.entry != nil {
			// Fleet mode: the closed queue is drained and collected by a
			// shared worker; wake the entry so an idle session notices.
			s.entry.Wake()
		}
		<-s.done
		if s.entry != nil {
			s.entry.Close()
		}
		if s.admit != nil {
			s.admit()
		}
		if s.dur != nil {
			// The session is final: its summary is in memory for
			// re-delivery and its durability obligation is over.
			s.dur.destroy()
		}

		s.mu.Lock()
		sum := wire.Summary{
			Events:      s.events,
			Races:       s.races,
			Clean:       s.clean.Load(),
			Resumes:     s.resumes,
			SessionID:   s.sid,
			ShardPanics: s.shardPanics,
		}
		if s.panicked {
			sum.ShardPanics++ // the worker itself counts as a failed unit
		}
		if s.dec != nil {
			sum.SkippedFrames = s.dec.SkippedFrames()
			sum.SkippedBytes = s.dec.SkippedBytes()
		}
		sum.Degraded = s.degraded || sum.SkippedFrames > 0 || sum.SkippedBytes > 0
		if s.procErr != nil {
			sum.Error = s.procErr.Error()
		} else if m, ok := s.readErr.Load().(string); ok && m != "" {
			sum.Error = m
		}
		if s.sr != nil {
			sum.Seq = s.sr.Seq()
		}
		s.summary = sum
		s.mu.Unlock()

		obsSessions.Inc()
		s.ob.queue.Set(0) // queue drained; clear its contribution to the global sum
		s.ob.events.Add(uint64(sum.Events))
		s.ob.races.Add(uint64(sum.Races))
		s.d.totalEvents.Add(int64(sum.Events))
		s.d.totalRaces.Add(int64(sum.Races))
		if sum.Error != "" {
			s.d.failed.Add(1)
		}
		if sum.Degraded {
			obsDegraded.Inc()
			s.d.degraded.Add(1)
			// Mark the shared JSONL report so its race records for this
			// session are self-describingly incomplete.
			if s.d.cfg.reporter != nil {
				s.d.cfg.reporter.WriteNote(map[string]any{
					"note":           "degraded",
					"session":        s.name,
					"seq":            sum.Seq,
					"session_id":     s.sid,
					"events":         sum.Events,
					"races":          sum.Races,
					"skipped_frames": sum.SkippedFrames,
					"skipped_bytes":  sum.SkippedBytes,
					"shard_panics":   sum.ShardPanics,
				})
			}
		}
		s.releaseGauge()
		// Keep the completed session visible (summary re-delivery for
		// resumable streams, a terminal /sessions row for operators), then
		// forget it and detach its metric scope. Writes from stragglers
		// keep rolling up into the global series after the drop.
		linger := s.d.cfg.resumeTTL
		if linger <= 0 {
			linger = DefaultResumeTTL
		}
		time.AfterFunc(linger, func() {
			if s.sid != "" {
				s.d.dropSession(s.sid, s)
			}
			s.d.untrack(s)
		})
		close(s.final)
	})
	<-s.final
	return s.summary
}

// waitSummary blocks until the session is finalized and returns its
// summary (the re-delivery path for completed sessions).
func (s *session) waitSummary() wire.Summary {
	<-s.final
	return s.summary
}

// isCompleted reports whether the session has been finalized.
func (s *session) isCompleted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateCompleted
}
