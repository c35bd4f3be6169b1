package main

// This file implements fault-tolerant detection sessions (DESIGN.md §9):
// a session is decoupled from its TCP connection. Plain streams still live
// and die with their connection, but a stream that opens with a hello
// frame (a client-chosen session id) becomes resumable — if its connection
// drops mid-stream the session is parked with its full detection state
// (happens-before engine, pipeline shards, interning table, chunk cursor)
// and a reconnecting client resumes it by replaying unacknowledged chunks,
// which the decoder deduplicates by sequence number.
//
// Detection runs through one session runner (run/step/finish below): the
// per-event body, the checkpoint cut-point, supervision and the result
// harvest exist once. Per-conn and -fleet sessions differ only in the
// detector the session owns (the sharded pipeline, or one serial
// core.Detector) and in who drives the runner (a dedicated goroutine
// blocking on the queue, or fleet quanta on the shared worker pool). A
// panic degrades the session to a partial-but-honest report instead of
// killing the daemon.

import (
	"fmt"
	"math"
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
	"repro/internal/vclock"
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
// whose peak is the session's high-water backlog, and the stage spans the
// session records itself (wire decode, hb stamping and report emit). The
// detect span is the runner's only for a serial detector; the pipeline
// records dispatch and detect itself, against the same scope.
type sessObs struct {
	frames *obs.Counter
	events *obs.Counter
	races  *obs.Counter
	stalls *obs.Counter
	queue  *obs.Gauge
	decode *obs.Span
	stamp  *obs.Span
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
		stamp:  scope.Span(obs.StageStamp),
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
// connection read loop and the supervised session runner, plus the state
// needed to park and resume across connections.
type session struct {
	d      *daemon
	id     int64  // daemon-local ordinal (logging)
	sid    string // client session id; "" = bound to one connection
	name   string // scope id: sid, or "conn-<id>" for plain sessions
	tenant string // quota/scheduling tenant (fleet.DefaultTenant when unset)

	// entry is the session's run-queue entry on the shared scheduler
	// (-fleet only; nil when a dedicated goroutine drives the runner).
	// admit releases the session's admission reservation; finalize calls
	// it (idempotent).
	entry *fleet.Entry
	admit func()

	// Durable-session state (nil without -statedir or for plain streams):
	// the WAL + snapshot machinery.
	dur *durSession

	scope *obs.Registry // per-session metric scope (rolls up to the root)
	ob    *sessObs
	sr    *core.SessionReporter // stamps session+seq on JSONL records (nil without -report)

	queue chan trace.Event
	done  chan struct{} // runner finished (detection results final)
	final chan struct{} // summary assembled (read s.summary after this)

	// Runner-owned detection state; touched outside the runner only after
	// <-done (the channel close is the happens-before edge). Both drivers
	// run the runner one call at a time (the fleet scheduler's mutex
	// hand-off orders quanta that hop between workers).
	en           *hb.Engine
	det          detector
	detect       *obs.Span // stage.detect around det.Process; nil when det records it
	registered   map[trace.ObjID]bool
	wrapRep      func(ap.Rep) ap.Rep // fault-injection hook (nil normally)
	events       int
	sinceCompact int
	races        int
	shardPanics  int
	degraded     bool // detector degraded or runner panicked
	panicked     bool // runner panicked: later steps drain uncounted
	finished     bool
	procErr      error
	lastEv       trace.Event // the event being stepped; formatted only in panic reports

	// Reader-published stream facts (set before the queue closes).
	clean   atomic.Bool
	readErr atomic.Value // string

	// Decoder figures the read loop publishes at every frame, for
	// monitoring reads that must not touch the decoder it is mutating.
	decEvents   atomic.Int64
	decDegraded atomic.Bool
	decAcked    atomic.Uint64 // last acked chunk + 1; 0 = none yet

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

// newSession creates a session, gives it its detector, and starts the
// driver of its runner. Every session gets its own metric scope ("session"
// = its id) under the daemon's registry root: the engine, detector,
// decoder, and the session's own ingest instruments all record into it,
// and every write rolls up into the global series, so /sessions and
// /metrics?session=ID attribute the fleet numbers per tenant at no extra
// bookkeeping.
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
	// Fleet sessions own one serial detector and no goroutine; per-conn
	// sessions own the sharded pipeline, which records its own dispatch
	// and detect spans.
	var serial *core.Detector
	if d.cfg.fleet {
		serial = core.New(ccfg)
		s.det, s.detect = serial, scope.Span(obs.StageDetect)
	} else {
		s.det = pipeline.New(pipeline.Config{Shards: d.cfg.shards, Core: ccfg, Obs: scope})
	}
	s.applyRestore(restore)
	if serial != nil {
		s.entry = d.sched.Register(tenant, &quantum{s: s, det: serial})
	} else {
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

// detector is the detection back-end a session runner drives: the sharded
// pipeline (per-conn) or one serial core.Detector (-fleet).
type detector interface {
	Register(trace.ObjID, ap.Rep)
	Process(*trace.Event) error
	Compact(vclock.VC) int
	Export() (*core.DetectorState, error)
	ImportState(*core.DetectorState, func(trace.ObjID) (ap.Rep, error)) error
	Flush()
	Close() error
	Stats() core.Stats
	ShardPanics() int
}

// work is the per-conn driver: a dedicated goroutine that blocks on the
// queue until it closes.
func (s *session) work() {
	for {
		if _, more := s.run(math.MaxInt, true); !more {
			return
		}
	}
}

// quantum is the -fleet driver: the shared worker pool runs the session in
// non-blocking quanta under deficit-round-robin tenant scheduling. det is
// the session's serial detector, whose arena footprint is charged to the
// tenant's arena quota after every quantum.
type quantum struct {
	s   *session
	det *core.Detector
}

// RunQuantum implements fleet.Runnable. When the queue runs dry it yields
// and relies on the read loop's per-enqueue Wake.
func (q *quantum) RunQuantum(n int) (used int, more bool) {
	used, more = q.s.run(n, false)
	if !q.s.finished {
		// After finish the entry is closing, which zeroes the charge.
		q.s.entry.SetArenaBytes(q.det.ArenaBytes())
	}
	return used, more
}

// run steps up to n queued events, blocking for each when block is set
// (flushing the detector's partial batches before it sleeps), and
// finishes the session when the queue closes. more reports whether
// the caller should run again without waiting for input: n events were
// taken, or a panic cut the call short. A panic is recovered here — logged
// with the offending event and stack, counted, and degraded to a partial
// result — and later calls drain the rest of the queue uncounted, so the
// read loop can never block forever on a dead session.
func (s *session) run(n int, block bool) (used int, more bool) {
	if s.finished {
		return 0, false
	}
	defer func() {
		if r := recover(); r != nil {
			s.panicked = true
			s.degraded = true
			obsSessionPanics.Inc()
			s.logf("recovered worker panic at event %s: %v\n%s", s.lastEv, r, debug.Stack())
			more = true
		}
	}()
	for used < n {
		// Events are received into the session, not a local: a local
		// handed to the detector interface would escape, one heap
		// allocation per event.
		ok := true
		select {
		case s.lastEv, ok = <-s.queue:
		default:
			if !block {
				return used, false
			}
			// About to sleep on an empty queue: hand the detector's
			// partial batches over first, so no verdict waits on input
			// that has not arrived. Under backlog batches stay full.
			s.det.Flush()
			s.lastEv, ok = <-s.queue
		}
		if !ok {
			s.finish()
			return used, false
		}
		used++
		s.step(&s.lastEv)
	}
	return used, true
}

// step is the per-event body: checkpoint cut-point, happens-before
// stamping, lazy registration ahead of the object's first action,
// detection, and the post-join compaction check.
func (s *session) step(e *trace.Event) {
	if s.panicked {
		return
	}
	// Before the count advances, the runner sits exactly at the frame
	// boundary a checkpoint needs (events processed == boundary cum).
	s.maybeCheckpoint()
	s.events++
	s.sinceCompact++
	if s.procErr != nil {
		return // drain
	}
	if n := s.d.cfg.injectWorkerPanic; n > 0 && s.events == n {
		panic(fmt.Sprintf("faultinject: injected worker panic at event %d", n))
	}
	start := s.ob.stamp.Start()
	_, err := s.en.Process(e)
	s.ob.stamp.End(start, 1)
	if err != nil {
		s.procErr = fmt.Errorf("event %d (%s): %w", e.Seq, e.String(), err)
		return
	}
	if e.Kind == trace.ActionEvent && !s.registered[e.Act.Obj] {
		rep, _ := s.d.repFor(e.Act.Obj)
		if s.wrapRep != nil {
			rep = s.wrapRep(rep)
		}
		s.det.Register(e.Act.Obj, rep)
		s.registered[e.Act.Obj] = true
	}
	if s.detect != nil {
		start := s.detect.Start()
		err = s.det.Process(e)
		s.detect.End(start, 1)
	} else {
		err = s.det.Process(e)
	}
	if err != nil {
		s.procErr = fmt.Errorf("event %d (%s): %w", e.Seq, e.String(), err)
		return
	}
	if e.Kind == trace.JoinEvent && s.d.cfg.compactOps > 0 && s.sinceCompact >= s.d.cfg.compactOps {
		s.det.Compact(s.en.MeetLive())
		s.sinceCompact = 0
	}
}

// finish closes the detector, harvests its results and publishes them
// through s.done, under its own panic guard: even a detector that dies
// during the final merge yields whatever it reported before dying (an
// honestly degraded result) rather than losing the session.
func (s *session) finish() {
	s.finished = true
	defer close(s.done)
	defer func() {
		if r := recover(); r != nil {
			s.panicked = true
			s.degraded = true
			obsSessionPanics.Inc()
			s.logf("recovered panic collecting results: %v\n%s", r, debug.Stack())
		}
	}()
	if err := s.det.Close(); err != nil && s.procErr == nil {
		s.procErr = err
	}
	s.races = s.det.Stats().Races
	s.shardPanics = s.det.ShardPanics()
	if s.shardPanics > 0 {
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
	s.logf("parked (%d events so far, resume ttl %v)", s.decEvents.Load(), ttl)
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

// publishDecoder copies the decoder figures monitoring reads into the
// session's atomics. Called by whoever is driving dec: the read loop at
// each frame, or rehydration after WAL replay.
func (s *session) publishDecoder(dec *wire.Decoder) {
	s.decEvents.Store(int64(dec.Events()))
	s.decDegraded.Store(dec.Degraded())
	if n, ok := dec.AckedChunk(); ok {
		s.decAcked.Store(n + 1)
	}
}

// finalize ends the session exactly once: close the queue, wait for the
// runner, assemble the summary from detection results plus stream facts
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
			// Wake the fleet entry so an idle session's runner notices.
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
