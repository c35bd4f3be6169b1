package core

// Durable-session state transfer for the detection back-end (DESIGN.md
// §15). A Detector's resumable state is the per-object active-point shadow
// store: for every live object, every active point with its accumulated
// clock (epoch or full form) and last-action metadata, plus the racy-object
// accounting and the lifetime counters. ExportState deep-copies that into a
// self-contained DetectorState; ImportState rebuilds it in a fresh detector
// through the ordinary arena/store insertion paths, so the restored
// detector's probe behavior, growth thresholds, and obs gauges are the ones
// a live detector would have.
//
// Not exported: the retained Races slice (verdicts already streamed through
// OnRace before the checkpoint; the slice only feeds offline Races() output)
// and memoized Describe strings (re-derived deterministically on the next
// race). Points are exported in sorted order, so snapshot bytes are
// deterministic for a given detector state; with an enumerating engine the
// rebuilt table's scan order may therefore differ from the pre-export
// table's insertion history, which can reorder same-action verdicts —
// bounded representations (every translated ECL spec) are unaffected.

import (
	"fmt"
	"sort"

	"repro/internal/ap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// PointExport is one active point's shadow state. VC nil means the point is
// in epoch form.
type PointExport struct {
	Pt         ap.Point
	Epoch      vclock.Epoch
	VC         vclock.VC
	LastAct    trace.Action
	LastThread vclock.Tid
	LastSeq    int
}

// ObjectExport is one live object's active-point set.
type ObjectExport struct {
	Obj    trace.ObjID
	Points []PointExport
}

// DetectorState is a self-contained export of a Detector, ordered
// deterministically (objects and racy ids ascending, points sorted).
type DetectorState struct {
	Objects  []ObjectExport
	RacyObjs []trace.ObjID
	DeadRacy int
	Stats    Stats
}

// Export is ExportState with the sharded pipeline's fallible signature
// (pipeline.Pipeline.Export), so either can back a checkpoint. It never
// fails.
func (d *Detector) Export() (*DetectorState, error) { return d.ExportState(), nil }

// ExportState deep-copies the detector's resumable state. The detector
// remains usable; the export shares no mutable memory with it (Action
// value slices are shared but never written by the detector).
func (d *Detector) ExportState() *DetectorState {
	st := &DetectorState{DeadRacy: d.deadRacy, Stats: d.stats}
	for obj, os := range d.objects {
		oe := ObjectExport{Obj: obj}
		export := func(pt ap.Point, ps *ptState) {
			pe := PointExport{
				Pt:         pt,
				Epoch:      ps.epoch,
				LastAct:    ps.lastAct,
				LastThread: ps.lastThread,
				LastSeq:    ps.lastSeq,
			}
			if ps.vc != nil {
				pe.VC = append(vclock.VC(nil), ps.vc...)
			}
			oe.Points = append(oe.Points, pe)
		}
		if t := os.table; t != nil {
			for i, u := range t.used {
				if u {
					export(t.keys[i], &t.states[i])
				}
			}
		} else {
			for i := 0; i < os.n; i++ {
				export(os.keys[i], &os.states[i])
			}
		}
		sort.Slice(oe.Points, func(i, j int) bool {
			a, b := oe.Points[i].Pt, oe.Points[j].Pt
			if a.Class != b.Class {
				return a.Class < b.Class
			}
			return a.Val.Less(b.Val)
		})
		st.Objects = append(st.Objects, oe)
	}
	sort.Slice(st.Objects, func(i, j int) bool { return st.Objects[i].Obj < st.Objects[j].Obj })
	for obj := range d.racyObjs {
		st.RacyObjs = append(st.RacyObjs, obj)
	}
	sort.Slice(st.RacyObjs, func(i, j int) bool { return st.RacyObjs[i] < st.RacyObjs[j] })
	return st
}

// ImportState loads an export into the detector, which must be fresh (no
// objects, no processed events). repFor resolves each imported object's
// representation — the daemon's spec bindings, exactly as at Register time.
// Historical counters from the export are folded into the detector's stats;
// ActivePoints is re-derived from the inserted points.
func (d *Detector) ImportState(st *DetectorState, repFor func(trace.ObjID) (ap.Rep, error)) error {
	if len(d.objects) != 0 || d.stats.Actions != 0 {
		return fmt.Errorf("core: ImportState into a non-fresh detector")
	}
	for _, oe := range st.Objects {
		rep, err := repFor(oe.Obj)
		if err != nil {
			return fmt.Errorf("core: importing o%d: %w", oe.Obj, err)
		}
		d.reps[oe.Obj] = rep
		os := d.arena.newObjState()
		os.rep = rep
		d.objects[oe.Obj] = os
		d.ob.tblInline.Add(1)
		for _, pe := range oe.Points {
			ps, existed := d.lookupOrInsert(os, pe.Pt)
			if existed {
				return fmt.Errorf("core: importing o%d: duplicate point in snapshot", oe.Obj)
			}
			ps.epoch = pe.Epoch
			if pe.VC != nil {
				ps.vc = d.arena.cloneClock(pe.VC, 0)
			}
			ps.lastAct = pe.LastAct
			ps.lastThread = pe.LastThread
			ps.lastSeq = pe.LastSeq
			d.addActive(1)
		}
	}
	for _, obj := range st.RacyObjs {
		d.racyObjs[obj] = struct{}{}
	}
	d.deadRacy += st.DeadRacy
	d.stats.Actions += st.Stats.Actions
	d.stats.Checks += st.Stats.Checks
	d.stats.Races += st.Stats.Races
	d.stats.RacyEvents += st.Stats.RacyEvents
	d.stats.Reclaimed += st.Stats.Reclaimed
	if st.Stats.PeakActive > d.stats.PeakActive {
		d.stats.PeakActive = st.Stats.PeakActive
	}
	return nil
}
