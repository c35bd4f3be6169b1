package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hb"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/wire"
)

// pipelined replays one input through the sharded pipeline the way a
// per-connection session feeds it, timing the producer side: Register,
// Process and Compact (dispatch), ExportState every snapEvery events (the
// Barrier quiesce included), and Close. Decoding and stamping are not
// timed here; the serial pass accounts them.
func (l *layers) pipelined(in *input, rep ap.Rep) error {
	tr, err := wire.DecodeTrace(bytes.NewReader(in.stream(in.name, "")))
	if err != nil {
		return err
	}
	var out countWriter
	sr := core.NewReportWriter(&out).Session(in.name)
	p := pipeline.New(pipeline.Config{Core: core.Config{MaxRaces: 100, OnRace: func(r core.Race) {
		sr.Write(r, specName)
	}}})
	en := hb.New()
	registered := map[trace.ObjID]bool{}
	since := 0
	for i := range tr.Events {
		e := &tr.Events[i]
		if _, err := en.Process(e); err != nil {
			p.Close()
			return err
		}
		since++
		t0 := time.Now()
		register(p.Register, registered, e, rep)
		p.Process(e)
		if e.Kind == trace.JoinEvent && since >= compactEvery {
			p.Compact(en.MeetLive())
			since = 0
		}
		l.dispatch += time.Since(t0)
		if (i+1)%snapEvery == 0 {
			t0 = time.Now()
			if _, err := p.ExportState(); err != nil {
				p.Close()
				return err
			}
			l.pipeExport += time.Since(t0)
			l.pipeSnapshots++
		}
	}
	t0 := time.Now()
	if err := p.Close(); err != nil {
		return err
	}
	l.pipeClose += time.Since(t0)
	l.pipeEvents += len(tr.Events)
	l.pipeSessions++
	return nil
}

// fleetRun is a benchmark fleet.Runnable: the serial per-event body of a
// fleet session (stamp, register, detect, compact) over a bounded queue,
// as rd2d's fleet runner does it. Its fields are confined to whichever
// worker runs the current quantum; the producer reads them only after
// done is closed, and nothing writes them later.
type fleetRun struct {
	queue chan trace.Event
	done  chan struct{}
	rep   ap.Rep
	en    *hb.Engine
	det   *core.Detector
	reg   map[trace.ObjID]bool
	since int
	err   error

	wokeAt    atomic.Int64 // unix ns of the first wake not yet served, 0 if none
	finished  bool
	quanta    int
	wakeToRun []time.Duration
}

// RunQuantum never panics: the scheduler would swallow the panic and the
// producer would wait for done forever. A failed event is recorded and
// the rest of the queue drained.
func (r *fleetRun) RunQuantum(n int) (used int, more bool) {
	if r.finished {
		return 0, false
	}
	r.quanta++
	if w := r.wokeAt.Swap(0); w != 0 {
		r.wakeToRun = append(r.wakeToRun, time.Duration(time.Now().UnixNano()-w))
	}
	for used < n {
		select {
		case e, ok := <-r.queue:
			if !ok {
				r.finished = true
				close(r.done)
				return used, false
			}
			used++
			if r.err == nil {
				r.err = r.process(&e)
			}
		default:
			return used, false
		}
	}
	return used, true
}

func (r *fleetRun) process(e *trace.Event) error {
	r.since++
	if _, err := r.en.Process(e); err != nil {
		return fmt.Errorf("event %d: %w", e.Seq, err)
	}
	register(r.det.Register, r.reg, e, r.rep)
	if err := r.det.Process(e); err != nil {
		return err
	}
	if e.Kind == trace.JoinEvent && r.since >= compactEvery {
		r.det.Compact(r.en.MeetLive())
		r.since = 0
	}
	return nil
}

// fleet runs the sessions of set through a fleet.Scheduler with a worker
// per CPU, fed by one producer goroutine per slot that decodes and
// enqueues like rd2d's read loop. It times admission and wake-to-run
// latency (from an enqueue that finds no wake pending until the quantum
// that serves it starts) and counts quanta.
func (l *layers) fleet(set []*input, rep ap.Rep, tenants []string) error {
	sched := fleet.New(fleet.Config{Workers: runtime.GOMAXPROCS(0)})
	defer sched.Stop()
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(slots)
	for s := 0; s < slots; s++ {
		go func() {
			defer wg.Done()
			for i := s; i < len(set); i += slots {
				tenant := fleet.DefaultTenant
				if len(tenants) > 0 {
					tenant = tenants[i%len(tenants)]
				}
				if err := l.fleetSession(sched, set[i], rep, tenant, &mu); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (l *layers) fleetSession(sched *fleet.Scheduler, in *input, rep ap.Rep, tenant string, mu *sync.Mutex) error {
	dec, err := wire.NewDecoder(bytes.NewReader(in.stream(in.name, tenant)))
	if err != nil {
		return err
	}
	if _, err := dec.ReadHello(); err != nil {
		return err
	}
	t0 := time.Now()
	release, err := sched.Admit(tenant)
	admit := time.Since(t0)
	if err != nil {
		return err
	}
	defer release()
	r := &fleetRun{
		queue: make(chan trace.Event, 1024), // rd2d's default -queue
		done:  make(chan struct{}),
		rep:   rep,
		en:    hb.New(),
		det:   core.New(core.Config{MaxRaces: 100}),
		reg:   map[trace.ObjID]bool{},
	}
	entry := sched.Register(tenant, r)
	defer entry.Close()
	var derr error
	for {
		e, err := dec.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				derr = err
			}
			break
		}
		r.queue <- e
		r.wokeAt.CompareAndSwap(0, time.Now().UnixNano())
		entry.Wake()
	}
	close(r.queue)
	r.wokeAt.CompareAndSwap(0, time.Now().UnixNano())
	entry.Wake()
	<-r.done
	if derr == nil {
		derr = r.err
	}
	if derr != nil {
		return fmt.Errorf("fleet replay %s: %w", in.name, derr)
	}
	mu.Lock()
	l.admit += admit
	l.fleetSessions++
	l.quanta += r.quanta
	l.wakeToRun = append(l.wakeToRun, r.wakeToRun...)
	mu.Unlock()
	return nil
}
