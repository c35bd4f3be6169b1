package core

// This file retains the original map-based detection back-end verbatim as
// RefDetector: per object a map[ap.Point]*refPtState with one heap-allocated
// state per point. It exists as the executable specification the
// allocation-free layout of store.go is differential-tested against
// (identical Races, Stats, DistinctObjects, and JSONL reports over the whole
// corpus — see backend_differential_test.go and ci.sh) and as the "map"
// side of BenchmarkDetectBackend's layout ratio gate. It deliberately does
// not publish obs metrics: running it next to a Detector must not
// double-count the process-global core.* counters.

import (
	"fmt"

	"repro/internal/ap"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// RefDetector is the frozen map-based commutativity race detector. Its
// verdicts are the reference the arena-backed Detector must reproduce
// exactly. It is not safe for concurrent use.
type RefDetector struct {
	cfg      Config
	reps     map[trace.ObjID]ap.Rep
	objects  map[trace.ObjID]*refObjState
	races    []Race
	racyObjs map[trace.ObjID]struct{}
	deadRacy int
	stats    Stats
	ptBuf    []ap.Point
	cfBuf    []ap.Point
}

type refObjState struct {
	rep    ap.Rep
	active map[ap.Point]*refPtState
}

// refPtState is the reference per-point shadow state (see ptState for the
// epoch-or-clock semantics it shares).
type refPtState struct {
	epoch      vclock.Epoch
	vc         vclock.VC
	lastAct    trace.Action
	lastThread vclock.Tid
	lastSeq    int
}

func (ps *refPtState) ordered(c vclock.VC) bool {
	if ps.vc == nil {
		return ps.epoch.LEQ(c)
	}
	return ps.vc.LEQ(c)
}

func (ps *refPtState) clock() vclock.VC {
	if ps.vc == nil {
		return ps.epoch.VC()
	}
	return ps.vc.Clone()
}

// NewReference returns a map-based reference detector with the given
// configuration.
func NewReference(cfg Config) *RefDetector {
	if cfg.MaxRaces == 0 {
		cfg.MaxRaces = DefaultMaxRaces
	}
	return &RefDetector{
		cfg:      cfg,
		reps:     map[trace.ObjID]ap.Rep{},
		objects:  map[trace.ObjID]*refObjState{},
		racyObjs: map[trace.ObjID]struct{}{},
	}
}

// Register associates an object with its access point representation.
func (d *RefDetector) Register(obj trace.ObjID, rep ap.Rep) {
	d.reps[obj] = rep
}

// Process consumes one stamped event (see Detector.Process).
func (d *RefDetector) Process(e *trace.Event) error {
	switch e.Kind {
	case trace.ActionEvent:
		return d.action(e)
	case trace.DieEvent:
		d.reclaim(e.Act.Obj)
		return nil
	default:
		return nil
	}
}

func (d *RefDetector) action(e *trace.Event) error {
	if e.Clock == nil {
		return fmt.Errorf("core: event %d (%s) has no vector clock; stamp events before detection", e.Seq, e)
	}
	obj := e.Act.Obj
	st := d.objects[obj]
	if st == nil {
		rep, ok := d.reps[obj]
		if !ok {
			return fmt.Errorf("core: object o%d has no registered representation", obj)
		}
		st = &refObjState{rep: rep, active: map[ap.Point]*refPtState{}}
		d.objects[obj] = st
	}
	d.stats.Actions++

	pts, err := st.rep.Touch(d.ptBuf[:0], e.Act)
	if err != nil {
		return err
	}
	d.ptBuf = pts[:0]

	// Phase 1: check for commutativity races.
	checks := 0
	raced := false
	useBounded := st.rep.Bounded() && d.cfg.Engine != EngineEnumerating
	for _, pt := range pts {
		if useBounded {
			cands := st.rep.Conflicts(d.cfBuf[:0], pt)
			d.cfBuf = cands[:0]
			for _, cand := range cands {
				checks++
				if ps, ok := st.active[cand]; ok && !ps.ordered(e.Clock) {
					d.report(e, st, pt, cand, ps)
					raced = true
				}
			}
		} else {
			for cand, ps := range st.active {
				checks++
				if st.rep.ConflictsWith(pt, cand) && !ps.ordered(e.Clock) {
					d.report(e, st, pt, cand, ps)
					raced = true
				}
			}
		}
	}
	d.stats.Checks += checks
	if raced {
		d.stats.RacyEvents++
	}

	// Phase 2: fold the event's clock into the touched points.
	for _, pt := range pts {
		if ps, ok := st.active[pt]; ok {
			switch {
			case ps.vc != nil:
				ps.vc = ps.vc.Join(e.Clock)
			case e.Thread == ps.epoch.T:
				ps.epoch.C = e.Clock.Get(e.Thread)
			default:
				ps.vc = e.Clock.Clone().JoinEpoch(ps.epoch)
			}
			ps.lastAct = e.Act
			ps.lastThread = e.Thread
			ps.lastSeq = e.Seq
		} else {
			ps := &refPtState{
				lastAct:    e.Act,
				lastThread: e.Thread,
				lastSeq:    e.Seq,
			}
			if ep := vclock.EpochOf(e.Thread, e.Clock); ep.C > 0 {
				ps.epoch = ep
			} else {
				ps.vc = e.Clock.Clone()
			}
			st.active[pt] = ps
			d.addActive(1)
		}
	}
	return nil
}

func (d *RefDetector) addActive(n int) {
	d.stats.ActivePoints += n
	if d.stats.ActivePoints > d.stats.PeakActive {
		d.stats.PeakActive = d.stats.ActivePoints
	}
}

func (d *RefDetector) report(e *trace.Event, st *refObjState, pt, cand ap.Point, ps *refPtState) {
	d.stats.Races++
	d.racyObjs[e.Act.Obj] = struct{}{}
	if len(d.races) >= d.cfg.MaxRaces && d.cfg.OnRace == nil {
		return
	}
	r := Race{
		Obj:          e.Act.Obj,
		Second:       e.Act,
		SecondThread: e.Thread,
		SecondSeq:    e.Seq,
		SecondClock:  e.Clock.Clone(),
		SecondPoint:  st.rep.Describe(pt),
		First:        ps.lastAct,
		FirstThread:  ps.lastThread,
		FirstSeq:     ps.lastSeq,
		FirstClock:   ps.clock(),
		FirstPoint:   st.rep.Describe(cand),
	}
	if len(d.races) < d.cfg.MaxRaces {
		d.races = append(d.races, r)
	}
	if d.cfg.OnRace != nil {
		d.cfg.OnRace(r)
	}
}

// Compact removes every active point whose accumulated clock is ⊑ threshold
// (see Detector.Compact for the soundness argument).
func (d *RefDetector) Compact(threshold vclock.VC) int {
	if threshold.Bottom() {
		return 0
	}
	removed := 0
	for _, st := range d.objects {
		for pt, ps := range st.active {
			if ps.ordered(threshold) {
				delete(st.active, pt)
				removed++
			}
		}
	}
	d.addActive(-removed)
	d.stats.Reclaimed += removed
	return removed
}

func (d *RefDetector) reclaim(obj trace.ObjID) {
	st := d.objects[obj]
	if st == nil {
		delete(d.reps, obj)
		return
	}
	d.stats.Reclaimed += len(st.active)
	d.addActive(-len(st.active))
	delete(d.objects, obj)
	delete(d.reps, obj)
	if _, ok := d.racyObjs[obj]; ok {
		delete(d.racyObjs, obj)
		d.deadRacy++
	}
}

// Races returns the retained race reports (capped at Config.MaxRaces).
func (d *RefDetector) Races() []Race { return d.races }

// Stats returns a snapshot of the counters.
func (d *RefDetector) Stats() Stats { return d.stats }

// DistinctObjects returns the number of distinct objects with at least one
// race (exact under retention caps and reclamation, like Detector's).
func (d *RefDetector) DistinctObjects() int {
	return len(d.racyObjs) + d.deadRacy
}

// RunTrace stamps the trace with a fresh happens-before engine and runs the
// reference detector over every event.
func (d *RefDetector) RunTrace(tr *trace.Trace) error {
	en := hb.New()
	for i := range tr.Events {
		e := &tr.Events[i]
		if _, err := en.Process(e); err != nil {
			return fmt.Errorf("core: event %d (%s): %w", i, e, err)
		}
		if err := d.Process(e); err != nil {
			return err
		}
	}
	return nil
}
