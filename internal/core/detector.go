// Package core implements the paper's commutativity race detector
// (Algorithm 1, Section 5). The detector consumes an event stream whose
// events carry vector clocks (stamped by internal/hb or by the monitored
// runtime) and maintains, per shared object:
//
//	active(o)  — the set of access points touched so far
//	pt.vc      — for each active point, the join of the clocks of all
//	             events that touched it
//
// For an action event e with points η(a), phase 1 looks for an active
// conflicting point whose accumulated clock is not ⊑ vc(e) — exactly when
// some earlier event that touched the point may happen in parallel with e
// (Theorem 5.1) — and reports a commutativity race. Phase 2 folds vc(e)
// into the touched points' clocks.
//
// Two engines are provided, matching Section 5.4:
//
//	EngineBounded     — iterate Conflicts(pt) and look each candidate up in
//	                    active(o): Θ(1) work per action for representations
//	                    translated from ECL (Theorem 6.6).
//	EngineEnumerating — iterate active(o) and test ConflictsWith: Θ(|A|)
//	                    work per action; the paper's "direct approach".
//
// EngineAuto picks Bounded when the object's representation supports it.
package core

import (
	"fmt"
	"io"

	"repro/internal/ap"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// obsFlushInterval is the batched-flush cadence in actions; it doubles as
// the phase-1 latency sampling rate (one timed action per interval), which
// keeps the two monotonic clock reads off 63 of every 64 actions.
const obsFlushInterval = 64

// pendingObs accumulates metric deltas between flushes.
type pendingObs struct {
	actions   int
	checks    int
	races     int
	racyEvts  int
	reclaimed int
	active    int
	lookups   int // spill-table probe sequences (core.table.lookups)
	probes    int // spill-table slot inspections (core.table.probes)
	tableLive int // delta of live spill-table entries (core.table.live)
}

// Engine selects the conflict-lookup strategy.
type Engine int

// The engines of Section 5.4.
const (
	EngineAuto Engine = iota
	EngineBounded
	EngineEnumerating
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineBounded:
		return "bounded"
	case EngineEnumerating:
		return "enumerating"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Race is one reported commutativity race: the current event races with an
// earlier event that touched a conflicting access point.
type Race struct {
	Obj trace.ObjID

	// The current (second) event.
	Second       trace.Action
	SecondThread vclock.Tid
	SecondSeq    int
	SecondClock  vclock.VC
	SecondPoint  string

	// The conflicting active point and the last event that touched it.
	// FirstClock is the point's accumulated clock (the join over all
	// touching events), so the event actually concurrent with Second may
	// be an earlier toucher of the same point than First — the algorithm
	// retains only the join (see the proof of Theorem 5.1).
	First       trace.Action
	FirstThread vclock.Tid
	FirstSeq    int
	FirstClock  vclock.VC
	FirstPoint  string
}

// String renders the race report.
func (r Race) String() string {
	return fmt.Sprintf(
		"commutativity race on o%d: t%d %s (event %d, %s, point %s) conflicts with t%d %s (event %d, clock %s, point %s)",
		int(r.Obj),
		r.SecondThread, r.Second, r.SecondSeq, r.SecondClock, r.SecondPoint,
		r.FirstThread, r.First, r.FirstSeq, r.FirstClock, r.FirstPoint)
}

// Stats aggregates detector counters. Checks is the number of conflict
// lookups in phase 1 — the quantity Section 5.4 and Fig 4 reason about.
type Stats struct {
	Actions      int // action events processed
	Checks       int // phase-1 conflict checks (candidate lookups or active scans)
	Races        int // race reports (point pairs)
	RacyEvents   int // events that participated in at least one race
	ActivePoints int // currently active points across live objects
	PeakActive   int // maximum of ActivePoints over time
	Reclaimed    int // points reclaimed by object death
}

// Config configures a Detector.
type Config struct {
	Engine Engine
	// OnRace, when set, is invoked for every race found.
	OnRace func(Race)
	// MaxRaces caps the retained Races slice (counters keep counting).
	// Zero means DefaultMaxRaces.
	MaxRaces int
	// Obs is the registry the detector's metrics record into. Nil means
	// obs.Default (all detectors aggregate process-wide, the historical
	// behavior); rd2d passes each session's scope so the same series also
	// exist per session.
	Obs *obs.Registry
}

// DefaultMaxRaces is the default cap on retained race reports.
const DefaultMaxRaces = 10000

// Detector is the commutativity race detector. It is not safe for
// concurrent use; the monitored runtime serializes events into it.
//
// Object state lives in the allocation-free layout of store.go (inline
// small-sets spilling to open-addressed tables) backed by the detector's
// private arena (arena.go); the map-based layout it replaced survives as
// RefDetector (reference.go), which differential tests hold it to.
type Detector struct {
	cfg      Config
	ob       *coreObs
	reps     map[trace.ObjID]ap.Rep
	objects  map[trace.ObjID]*objState
	races    []Race
	racyObjs map[trace.ObjID]struct{}
	deadRacy int // racy objects already reclaimed (still counted as distinct)
	stats    Stats
	pend     pendingObs
	ptBuf    []ap.Point
	cfBuf    []ap.Point
	arena    backendArena
	scratch  []ptEntry // Compact's table-rebuild buffer

	// Last-object memoization: consecutive actions on the same object (the
	// common case in sharded streams) skip the d.objects map hit. lastSt is
	// invalidated when the object dies.
	lastObj trace.ObjID
	lastSt  *objState
}

// ptState is the per-access-point shadow state. Points touched so far by a
// single thread are stored in FastTrack epoch form (vc == nil, epoch = c@t):
// by the epoch lemma (see vclock.Epoch) the one-comparison check
// epoch.LEQ(d) gives the same verdict as the full accumulated clock, and no
// clock is allocated. The first cross-thread touch promotes the point to a
// full clock (carved from the detector's arena) that folds in the epoch.
// ptState is stored by value in objState's inline array or spill table; it
// holds no pointers into either, so table rebuilds may copy it freely.
type ptState struct {
	epoch      vclock.Epoch // valid while vc == nil
	vc         vclock.VC    // full accumulated clock after promotion
	lastAct    trace.Action
	lastThread vclock.Tid
	lastSeq    int
	desc       string // memoized rep.Describe of this point ("" until first race)
}

// ordered reports whether the point's accumulated clock is ⊑ c — the
// phase-1 test of Algorithm 1.
func (ps *ptState) ordered(c vclock.VC) bool {
	if ps.vc == nil {
		return ps.epoch.LEQ(c)
	}
	return ps.vc.LEQ(c)
}

// clock returns an independent copy of the point's accumulated clock for
// race reports (epoch points expand to their sparse equivalent).
func (ps *ptState) clock() vclock.VC {
	if ps.vc == nil {
		return ps.epoch.VC()
	}
	return ps.vc.Clone()
}

// New returns a detector with the given configuration.
func New(cfg Config) *Detector {
	if cfg.MaxRaces == 0 {
		cfg.MaxRaces = DefaultMaxRaces
	}
	ob := defaultCoreObs
	if cfg.Obs != nil {
		ob = newCoreObs(cfg.Obs)
	}
	d := &Detector{
		cfg:      cfg,
		ob:       ob,
		reps:     map[trace.ObjID]ap.Rep{},
		objects:  map[trace.ObjID]*objState{},
		racyObjs: map[trace.ObjID]struct{}{},
	}
	d.arena.ob = ob
	return d
}

// Register associates an object with its access point representation.
// Objects must be registered before their first action.
func (d *Detector) Register(obj trace.ObjID, rep ap.Rep) {
	d.reps[obj] = rep
}

// Process consumes one stamped event. Only action and die events are
// examined; synchronization events are handled upstream by the
// happens-before engine. e.Clock may be a segment snapshot shared with
// other events (the hb immutability contract): the detector only reads it
// — LEQ checks, Get, and clones into its own shadow state — never writes
// through it.
func (d *Detector) Process(e *trace.Event) error {
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

// action runs Algorithm 1 on one action event.
func (d *Detector) action(e *trace.Event) error {
	if e.Clock == nil {
		return fmt.Errorf("core: event %d (%s) has no vector clock; stamp events before detection", e.Seq, e)
	}
	obj := e.Act.Obj
	st := d.lastSt
	if st == nil || obj != d.lastObj {
		st = d.objects[obj]
		if st == nil {
			rep, ok := d.reps[obj]
			if !ok {
				return fmt.Errorf("core: object o%d has no registered representation", obj)
			}
			st = d.arena.newObjState()
			st.rep = rep
			d.objects[obj] = st
			d.ob.tblInline.Add(1)
		}
		d.lastObj, d.lastSt = obj, st
	}
	d.stats.Actions++
	d.pend.actions++

	pts, err := st.rep.Touch(d.ptBuf[:0], e.Act)
	if err != nil {
		return err
	}
	d.ptBuf = pts[:0]

	// Phase 1: check for commutativity races. Checks are counted locally
	// and folded into stats once per action; one action per flush interval
	// is span-timed for the core.phase1_ns latency histogram.
	t0 := int64(0)
	if d.stats.Actions&(obsFlushInterval-1) == 0 {
		t0 = d.ob.phase1.Start()
	}
	checks := 0
	raced := false
	useBounded := st.rep.Bounded() && d.cfg.Engine != EngineEnumerating
	for _, pt := range pts {
		if useBounded {
			cands := st.rep.Conflicts(d.cfBuf[:0], pt)
			d.cfBuf = cands[:0]
			for _, cand := range cands {
				checks++
				if ps := d.lookup(st, cand); ps != nil && !ps.ordered(e.Clock) {
					d.report(e, st, pt, cand, ps)
					raced = true
				}
			}
		} else if t := st.table; t != nil {
			for i, u := range t.used {
				if !u {
					continue
				}
				checks++
				cand, ps := t.keys[i], &t.states[i]
				if st.rep.ConflictsWith(pt, cand) && !ps.ordered(e.Clock) {
					d.report(e, st, pt, cand, ps)
					raced = true
				}
			}
		} else {
			for i := 0; i < st.n; i++ {
				checks++
				cand, ps := st.keys[i], &st.states[i]
				if st.rep.ConflictsWith(pt, cand) && !ps.ordered(e.Clock) {
					d.report(e, st, pt, cand, ps)
					raced = true
				}
			}
		}
	}
	d.ob.phase1.ObserveSince(t0)
	d.stats.Checks += checks
	d.pend.checks += checks
	if raced {
		d.stats.RacyEvents++
		d.pend.racyEvts++
	}

	// Phase 2: fold the event's clock into the touched points. The state
	// pointer from lookupOrInsert stays valid for the body of one iteration
	// (nothing else inserts into st before the next lookupOrInsert).
	for _, pt := range pts {
		if ps, existed := d.lookupOrInsert(st, pt); existed {
			switch {
			case ps.vc != nil:
				ps.vc = ps.vc.Join(e.Clock)
			case e.Thread == ps.epoch.T:
				// Same writer: same-thread clocks are pointwise monotone,
				// so the join collapses to overwriting the epoch.
				ps.epoch.C = e.Clock.Get(e.Thread)
			default:
				// Second thread: promote to a full clock. The accumulated
				// history of the old writer is represented by its epoch,
				// which the lemma makes order-equivalent to its full clock.
				// The carve is wide enough that JoinEpoch cannot grow it.
				w := len(e.Clock)
				if t := int(ps.epoch.T) + 1; t > w {
					w = t
				}
				ps.vc = d.arena.cloneClock(e.Clock, w).JoinEpoch(ps.epoch)
			}
			ps.lastAct = e.Act
			ps.lastThread = e.Thread
			ps.lastSeq = e.Seq
		} else {
			ps.lastAct = e.Act
			ps.lastThread = e.Thread
			ps.lastSeq = e.Seq
			if ep := vclock.EpochOf(e.Thread, e.Clock); ep.C > 0 {
				ps.epoch = ep
			} else {
				// Clock without an own-entry (not produced by internal/hb):
				// the epoch lemma does not apply, keep the full clock.
				ps.vc = d.arena.cloneClock(e.Clock, 0)
			}
			d.addActive(1)
		}
	}
	if d.stats.Actions&(obsFlushInterval-1) == 0 {
		d.FlushObs()
	}
	return nil
}

// addActive moves the active-point count by n and maintains the peak at
// every change — including the negative deltas of reclaim and Compact, so
// the invariant PeakActive == max-over-time(ActivePoints) holds locally
// wherever the count moves rather than only on the action path.
func (d *Detector) addActive(n int) {
	d.stats.ActivePoints += n
	if d.stats.ActivePoints > d.stats.PeakActive {
		d.stats.PeakActive = d.stats.ActivePoints
	}
	d.pend.active += n
}

// FlushObs publishes the batched metric deltas to the process-global obs
// counters. It runs automatically every obsFlushInterval actions and on
// reclaim/compaction; call it after a run (RunTrace and pipeline shard
// drain do) so final snapshots are exact.
func (d *Detector) FlushObs() {
	p := &d.pend
	if p.actions != 0 {
		d.ob.actions.Add(uint64(p.actions))
	}
	if p.checks != 0 {
		d.ob.checks.Add(uint64(p.checks))
	}
	if p.races != 0 {
		d.ob.races.Add(uint64(p.races))
	}
	if p.racyEvts != 0 {
		d.ob.racyEvts.Add(uint64(p.racyEvts))
	}
	if p.reclaimed != 0 {
		d.ob.reclaimed.Add(uint64(p.reclaimed))
	}
	if p.active != 0 {
		d.ob.active.Add(int64(p.active))
	}
	if p.lookups != 0 {
		d.ob.tblLookups.Add(uint64(p.lookups))
	}
	if p.probes != 0 {
		d.ob.tblProbes.Add(uint64(p.probes))
	}
	if p.tableLive != 0 {
		d.ob.tblLive.Add(int64(p.tableLive))
	}
	*p = pendingObs{}
}

func (d *Detector) report(e *trace.Event, st *objState, pt, cand ap.Point, ps *ptState) {
	d.stats.Races++
	d.pend.races++
	d.racyObjs[e.Act.Obj] = struct{}{}
	if len(d.races) >= d.cfg.MaxRaces && d.cfg.OnRace == nil {
		// Beyond the retention cap with nobody listening: count only and
		// skip the (comparatively expensive) report construction.
		return
	}
	// Report construction dominates the allocation profile of racy traces
	// (string formatting plus clock snapshots), so both are de-duplicated:
	// Describe strings are memoized in the point state (racy points race
	// repeatedly) and clock snapshots are carved from the never-recycled
	// report slab. Contents are identical to Describe/Clone output.
	if ps.desc == "" {
		ps.desc = st.rep.Describe(cand)
	}
	r := Race{
		Obj:          e.Act.Obj,
		Second:       e.Act,
		SecondThread: e.Thread,
		SecondSeq:    e.Seq,
		SecondClock:  d.arena.reportClock(e.Clock),
		SecondPoint:  d.describe(st, pt),
		First:        ps.lastAct,
		FirstThread:  ps.lastThread,
		FirstSeq:     ps.lastSeq,
		FirstClock:   d.reportPtClock(ps),
		FirstPoint:   ps.desc,
	}
	if len(d.races) < d.cfg.MaxRaces {
		d.races = append(d.races, r)
	}
	if d.cfg.OnRace != nil {
		d.cfg.OnRace(r)
	}
}

// describe renders pt for a race report, memoizing in the point's state
// when pt is already active (the second point of one race is routinely the
// first point of the next).
func (d *Detector) describe(st *objState, pt ap.Point) string {
	if ps := d.lookup(st, pt); ps != nil {
		if ps.desc == "" {
			ps.desc = st.rep.Describe(pt)
		}
		return ps.desc
	}
	return st.rep.Describe(pt)
}

// reportPtClock snapshots a point's accumulated clock for a race report,
// carving from the report slab (promoted clocks by copy, epochs by their
// sparse ⟨…, C, …⟩ expansion — the same contents ptState.clock returns).
func (d *Detector) reportPtClock(ps *ptState) vclock.VC {
	if ps.vc != nil {
		return d.arena.reportClock(ps.vc)
	}
	return d.arena.reportEpochVC(ps.epoch)
}

// Compact removes every active point whose accumulated clock is ⊑
// threshold — the Section 5.3 "remove unnecessary active access points"
// optimization the paper leaves as future work. Pass the meet of all live
// threads' clocks (hb.Engine.MeetLive): a point dominated by that meet is
// ordered before every possible future event, so it can never participate
// in a race again and dropping it cannot change any verdict. Soundness
// assumes future threads are forked by currently live threads (true for
// fork–join programs; a root thread appearing from nowhere would not
// dominate the threshold).
func (d *Detector) Compact(threshold vclock.VC) int {
	if threshold.Bottom() {
		return 0
	}
	removed := 0
	for _, st := range d.objects {
		removed += d.compactObj(st, threshold)
	}
	d.addActive(-removed)
	d.stats.Reclaimed += removed
	d.pend.reclaimed += removed
	d.FlushObs()
	return removed
}

// reclaim implements the Section 5.3 optimization: when an object dies, all
// of its access points, clocks, and registration state are released. The
// representation entry and the racy-object marker go too — under object
// churn (millions of short-lived objects) they would otherwise grow without
// bound; the distinct-object count is preserved in a counter. A dead
// object's id must not be reused (the monitored runtime never does).
func (d *Detector) reclaim(obj trace.ObjID) {
	st := d.objects[obj]
	if st == nil {
		delete(d.reps, obj)
		return
	}
	if obj == d.lastObj {
		// Drop the memo before the objState is recycled: the arena may hand
		// it to a different object while lastObj still names this one.
		d.lastSt = nil
	}
	released := d.releaseObj(st)
	d.stats.Reclaimed += released
	d.pend.reclaimed += released
	d.addActive(-released)
	// Flush so live snapshots see the drop (and its gauge churn)
	// immediately after a burst of frees, not an interval later.
	d.FlushObs()
	delete(d.objects, obj)
	delete(d.reps, obj)
	if _, ok := d.racyObjs[obj]; ok {
		delete(d.racyObjs, obj)
		d.deadRacy++
	}
}

// Races returns the retained race reports (capped at Config.MaxRaces).
func (d *Detector) Races() []Race { return d.races }

// Stats returns a snapshot of the counters.
func (d *Detector) Stats() Stats { return d.stats }

// Close publishes the batched metric deltas (FlushObs) and returns nil. A
// serial detector owns no goroutines; Close exists so it and the sharded
// pipeline share one shutdown surface.
func (d *Detector) Close() error {
	d.FlushObs()
	return nil
}

// Flush does nothing: a serial detector holds no batches, every action is
// decided inside Process. It mirrors pipeline.Pipeline.Flush.
func (d *Detector) Flush() {}

// ShardPanics returns 0: a serial detector does not supervise itself, so a
// panic propagates to its caller. It mirrors pipeline.Pipeline.ShardPanics.
func (d *Detector) ShardPanics() int { return 0 }

// ArenaBytes returns the total bytes the detector's arena has requested
// from the heap. The arena recycles internally and never frees, so this is
// a monotone upper bound on the detector's resident detection-state
// footprint — the figure the fleet scheduler charges against per-tenant
// arena-byte quotas.
func (d *Detector) ArenaBytes() int64 { return d.arena.allocBytes }

// StatSnapshot exposes the counters through the unified obs.StatSource
// surface (the order matches the Stats struct).
func (s Stats) StatSnapshot() []obs.Stat {
	return []obs.Stat{
		{Name: "actions", Value: int64(s.Actions)},
		{Name: "checks", Value: int64(s.Checks)},
		{Name: "races", Value: int64(s.Races)},
		{Name: "racy_events", Value: int64(s.RacyEvents)},
		{Name: "active_points", Value: int64(s.ActivePoints)},
		{Name: "peak_active", Value: int64(s.PeakActive)},
		{Name: "reclaimed_points", Value: int64(s.Reclaimed)},
	}
}

// StatSnapshot implements obs.StatSource: the counters plus the exact
// distinct racy-object count.
func (d *Detector) StatSnapshot() []obs.Stat {
	return append(d.stats.StatSnapshot(),
		obs.Stat{Name: "distinct_objects", Value: int64(d.DistinctObjects())})
}

// DistinctObjects returns the number of distinct objects with at least one
// race — the "(distinct)" column of Table 2 for RD2. Unlike Races, this
// count is exact even when the retained reports are capped, and it survives
// object reclamation.
func (d *Detector) DistinctObjects() int {
	return len(d.racyObjs) + d.deadRacy
}

// RunTrace stamps the trace with a fresh happens-before engine and runs the
// detector over every event. Objects must already be registered.
func (d *Detector) RunTrace(tr *trace.Trace) error {
	defer d.FlushObs()
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

// RunSource stamps and detects over a streaming event source (a wire
// decoder, a text scanner, an in-memory slice) without materializing the
// trace: one event is live at a time. Objects must already be registered.
// It reports the identical race set as RunTrace over the same events.
func (d *Detector) RunSource(src trace.Source) error {
	defer d.FlushObs()
	st := hb.NewStream(src)
	for {
		e, err := st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if err := d.Process(&e); err != nil {
			return err
		}
	}
}
