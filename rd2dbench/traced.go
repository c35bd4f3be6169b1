package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// replayEvents is how much input each traced pass replays (inputs cycle
// until at least this many events): enough that per-event figures are
// steady, little enough that a traced run stays short.
const replayEvents = 200_000

// snapEvery is the snapshot cadence of the traced replay: rd2d's default
// -ckpt-every. The replay snapshots on every workload, so the cost of a
// checkpoint is known even where the daemon's mode takes none.
const snapEvery = 4096

// layers accumulates the traced in-process replay: the daemon's per-event
// order (decode, stamp, register and detect, report), compaction at joins
// and a snapshot every snapEvery events, each call timed from outside
// through the layers' public functions.
type layers struct {
	sessions, events, syncEvents, actions, checks int
	bytes                                         int
	decode, stampSync, stampBody, detect, report  time.Duration
	compact                                       time.Duration
	compactions                                   int
	records, races                                int
	reportBytes                                   int64
	snapshots                                     int
	wireState, hbExport, coreExport               time.Duration
	peakActive                                    int
	arenaBytes                                    int64
	timedWall, untimedWall                        time.Duration
	decodeAllocs                                  uint64
	allocEvents                                   int

	// Per-connection pipeline pass.
	pipeEvents, pipeSnapshots, pipeSessions int
	dispatch, pipeExport, pipeClose         time.Duration

	// Fleet pass.
	fleetSessions, quanta int
	admit                 time.Duration
	wakeToRun             []time.Duration
}

// countWriter counts bytes written.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// isSync reports whether stamping an event of kind k walks
// synchronization state (fork, join, acquire, release, send, receive,
// end) rather than stamping a body event with its thread's clock.
func isSync(k trace.EventKind) bool {
	switch k {
	case trace.ActionEvent, trace.ReadEvent, trace.WriteEvent, trace.BeginEvent, trace.DieEvent:
		return false
	}
	return true
}

// replaySet cycles through ins until replayEvents events are covered.
func replaySet(ins []*input) []*input {
	var set []*input
	for n, i := 0, 0; n < replayEvents; i++ {
		in := ins[i%len(ins)]
		set = append(set, in)
		n += in.events
	}
	return set
}

// traceLayers runs every traced pass over ins.
func traceLayers(ins []*input, tenants []string) (*layers, error) {
	rep, err := specs.Rep(specName)
	if err != nil {
		return nil, err
	}
	l := &layers{}
	set := replaySet(ins)
	for _, in := range set {
		// Untimed and timed replays of the same input back to back, so
		// the overhead of timing each call is measured on equal footing.
		t0 := time.Now()
		if err := l.serial(in, rep, false); err != nil {
			return nil, err
		}
		l.untimedWall += time.Since(t0)
		t0 = time.Now()
		if err := l.serial(in, rep, true); err != nil {
			return nil, err
		}
		l.timedWall += time.Since(t0)
	}
	if err := l.allocs(set); err != nil {
		return nil, err
	}
	for _, in := range set {
		if err := l.pipelined(in, rep); err != nil {
			return nil, err
		}
	}
	if err := l.fleet(set, rep, tenants); err != nil {
		return nil, err
	}
	return l, nil
}

// clock returns the current time when timed, and the zero time otherwise.
func clock(timed bool) time.Time {
	if timed {
		return time.Now()
	}
	return time.Time{}
}

// serial replays one input through the serial per-event body. With timed
// set it accounts every call to its layer; without, it is the baseline
// the timing overhead is measured against.
func (l *layers) serial(in *input, rep ap.Rep, timed bool) error {
	var out countWriter
	rw := core.NewReportWriter(&out)
	sr := rw.Session(in.name)
	var report time.Duration
	det := core.New(core.Config{MaxRaces: 100, OnRace: func(r core.Race) {
		t := clock(timed)
		sr.Write(r, specName)
		if timed {
			report += time.Since(t)
		}
	}})
	stream := in.stream(in.name, "")
	dec, err := wire.NewDecoder(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	if _, err := dec.ReadHello(); err != nil {
		return err
	}
	en := hb.New()
	registered := map[trace.ObjID]bool{}
	since, n := 0, 0
	for {
		t0 := clock(timed)
		e, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("traced %s: %w", in.name, err)
		}
		t1 := clock(timed)
		n++
		since++
		if _, err := en.Process(&e); err != nil {
			return fmt.Errorf("traced %s: %w", in.name, err)
		}
		t2 := clock(timed)
		register(det.Register, registered, &e, rep)
		if err := det.Process(&e); err != nil {
			return fmt.Errorf("traced %s: %w", in.name, err)
		}
		t3 := clock(timed)
		if timed {
			l.decode += t1.Sub(t0)
			if isSync(e.Kind) {
				l.stampSync += t2.Sub(t1)
				l.syncEvents++
			} else {
				l.stampBody += t2.Sub(t1)
			}
			l.detect += t3.Sub(t2)
		}
		if e.Kind == trace.JoinEvent && since >= compactEvery {
			det.Compact(en.MeetLive())
			since = 0
			if timed {
				l.compact += time.Since(t3)
				l.compactions++
			}
		}
		if n%snapEvery == 0 {
			s0 := clock(timed)
			_ = dec.State()
			s1 := clock(timed)
			en.ExportState()
			s2 := clock(timed)
			det.ExportState()
			if timed {
				l.wireState += s1.Sub(s0)
				l.hbExport += s2.Sub(s1)
				l.coreExport += time.Since(s2)
				l.snapshots++
			}
		}
	}
	if !timed {
		return nil
	}
	st := det.Stats()
	l.sessions++
	l.events += n
	l.bytes += len(stream)
	l.actions += st.Actions
	l.checks += st.Checks
	l.races += st.Races
	l.peakActive = max(l.peakActive, st.PeakActive)
	l.arenaBytes = max(l.arenaBytes, det.ArenaBytes())
	l.report += report
	l.detect -= report // detect is self time: reporting runs inside Process
	l.records += rw.Count()
	l.reportBytes += out.n
	return nil
}

// allocs counts heap allocations of decoding alone.
func (l *layers) allocs(set []*input) error {
	streams := make([][]byte, len(set))
	for i, in := range set {
		streams[i] = in.stream(in.name, "")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range streams {
		dec, err := wire.NewDecoder(bytes.NewReader(s))
		if err != nil {
			return err
		}
		if _, err := dec.ReadHello(); err != nil {
			return err
		}
		for {
			if _, err := dec.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return err
			}
			l.allocEvents++
		}
	}
	runtime.ReadMemStats(&after)
	l.decodeAllocs += after.Mallocs - before.Mallocs
	return nil
}
