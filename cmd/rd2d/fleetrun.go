package main

// Fleet-mode session execution. With -fleet a session owns no worker
// goroutine and no per-session pipeline shards: its detection state is a
// single serial core.Detector plus the incremental happens-before
// engine, and the work happens in quanta — non-blocking drains of the
// session's ingest queue — executed by internal/fleet's shared worker
// pool under deficit-round-robin tenant scheduling. One worker runs an
// entry at a time and every quantum hand-off goes through the scheduler
// mutex, so the runner's state stays as goroutine-confined as the
// per-conn worker's even though quanta hop between workers.
//
// Verdicts are byte-identical to the per-conn path: the same engine
// stamps events in the same order, the same detector algorithm sees
// them, and races stream through the same OnRace reporter hook (ci.sh
// -fleet holds the two modes to a normalized JSONL diff).

import (
	"fmt"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fleetRunner adapts one session to fleet.Runnable.
type fleetRunner struct {
	s     *session
	det   *core.Detector
	stamp *obs.Span

	sinceCompact int
	dead         bool // worker-equivalent panic: drain without processing
	finished     bool
}

// startFleet wires a new session into the shared scheduler instead of
// starting a private worker: serial detector, run-queue entry.
func (s *session) startFleet(ccfg core.Config) {
	r := &fleetRunner{
		s:     s,
		det:   core.New(ccfg),
		stamp: s.scope.Span(obs.StageStamp),
	}
	s.runner = r
	s.applyRestore()
	s.entry = s.d.sched.Register(s.tenant, r)
}

// RunQuantum drains up to n events from the session queue, never
// blocking: when the queue runs dry it yields (used, false) and relies
// on the read loop's per-enqueue Wake; when the queue is closed it
// collects final results and closes s.done. A panic in detection is
// recovered here the way session.work recovers it — degrade, keep
// draining — so one poisoned session cannot take down a shared worker
// or wedge its producer's read loop.
func (r *fleetRunner) RunQuantum(n int) (used int, more bool) {
	s := r.s
	if r.finished {
		return 0, false
	}
	defer func() {
		if p := recover(); p != nil {
			r.dead = true
			s.panicked = true
			s.degraded = true
			obsSessionPanics.Inc()
			s.logf("recovered worker panic at event %s: %v\n%s", s.lastEv, p, debug.Stack())
			more = true // reschedule: later quanta drain the rest of the stream
		}
		if !r.finished {
			s.entry.SetArenaBytes(r.det.ArenaBytes())
		}
	}()
	for used < n {
		select {
		case e, ok := <-s.queue:
			if !ok {
				r.finish()
				return used, false
			}
			used++
			r.process(&e)
		default:
			return used, false
		}
	}
	return used, true
}

// process runs one event: the per-event body of session.work, against
// the serial detector instead of the pipeline.
func (r *fleetRunner) process(e *trace.Event) {
	s := r.s
	if r.dead {
		return // post-panic drain: not analyzed, not counted (as per-conn)
	}
	// Quantum execution is serialized by the scheduler, so the runner sits
	// at a frame boundary between events exactly like the serial worker.
	s.maybeCheckpoint()
	s.events++
	r.sinceCompact++
	if s.procErr != nil {
		return // drain
	}
	s.lastEv = *e
	if k := s.d.cfg.injectWorkerPanic; k > 0 && s.events == k {
		panic(fmt.Sprintf("faultinject: injected worker panic at event %d", k))
	}
	start := r.stamp.Start()
	_, err := s.en.Process(e)
	r.stamp.End(start, 1)
	if err != nil {
		s.procErr = fmt.Errorf("event %d (%s): %w", e.Seq, e.String(), err)
		return
	}
	if e.Kind == trace.ActionEvent && !s.registered[e.Act.Obj] {
		rep, _ := s.d.repFor(e.Act.Obj)
		if s.wrapRep != nil {
			rep = s.wrapRep(rep)
		}
		r.det.Register(e.Act.Obj, rep)
		s.registered[e.Act.Obj] = true
	}
	if perr := r.det.Process(e); perr != nil && s.procErr == nil {
		s.procErr = fmt.Errorf("event %d (%s): %w", e.Seq, e.String(), perr)
		return
	}
	if e.Kind == trace.JoinEvent && s.d.cfg.compactOps > 0 && r.sinceCompact >= s.d.cfg.compactOps {
		r.det.Compact(s.en.MeetLive())
		r.sinceCompact = 0
	}
}

// finish harvests the detector once the queue closes and publishes the
// results through s.done — the fleet-mode equivalent of session.collect.
// The collect guard applies here too: a detector that dies flushing
// still yields its honest partial counts.
func (r *fleetRunner) finish() {
	if r.finished {
		return
	}
	r.finished = true
	s := r.s
	func() {
		defer func() {
			if p := recover(); p != nil {
				s.panicked = true
				s.degraded = true
				obsSessionPanics.Inc()
				s.logf("recovered panic collecting results: %v\n%s", p, debug.Stack())
			}
		}()
		r.det.FlushObs()
		s.races = r.det.Stats().Races
	}()
	s.entry.SetArenaBytes(r.det.ArenaBytes())
	close(s.done)
}
