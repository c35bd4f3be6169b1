package pipeline

// Durable-session state transfer for the sharded pipeline (DESIGN.md §15).
// The pipeline's resumable state is the union of its shard detectors'
// exports; ExportState quiesces every shard at the producer's current
// stream position (Barrier) and merges the per-shard exports into one
// core.DetectorState, so a snapshot is independent of the shard count it
// was taken under. ImportState routes the merged state back out by the
// pipeline's own object→shard hash — under a different -shards the objects
// simply land on their new owners.
//
// Per-object state (points, clocks, racy ids) survives the round trip
// exactly. The historical scalar counters cannot be re-attributed to shards
// once merged, so the import folds them into shard 0; merged totals after
// Close remain exact, except PeakActive, whose merged value is the sum of
// per-shard peaks and may drift low across a restore (the per-shard peak
// history is gone). Race verdicts are unaffected.

import (
	"sort"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/trace"
)

// ExportState quiesces every shard after all previously produced items and
// merges their detector exports into one deterministic, shard-count
// independent DetectorState. Must be called from the producing goroutine.
// It fails if any shard was retired by a panic or stopped by an error —
// partial state must never be checkpointed.
func (p *Pipeline) ExportState() (*core.DetectorState, error) {
	states := make([]*core.DetectorState, len(p.shards))
	err := p.Barrier(func(i int, det *core.Detector) {
		states[i] = det.ExportState()
	})
	if err != nil {
		return nil, err
	}
	merged := &core.DetectorState{}
	for _, st := range states {
		merged.Objects = append(merged.Objects, st.Objects...)
		merged.RacyObjs = append(merged.RacyObjs, st.RacyObjs...)
		merged.DeadRacy += st.DeadRacy
		merged.Stats.Actions += st.Stats.Actions
		merged.Stats.Checks += st.Stats.Checks
		merged.Stats.Races += st.Stats.Races
		merged.Stats.RacyEvents += st.Stats.RacyEvents
		merged.Stats.ActivePoints += st.Stats.ActivePoints
		merged.Stats.PeakActive += st.Stats.PeakActive
		merged.Stats.Reclaimed += st.Stats.Reclaimed
	}
	sort.Slice(merged.Objects, func(i, j int) bool { return merged.Objects[i].Obj < merged.Objects[j].Obj })
	sort.Slice(merged.RacyObjs, func(i, j int) bool { return merged.RacyObjs[i] < merged.RacyObjs[j] })
	return merged, nil
}

// Export is ExportState under the name core.Detector shares, so a serial
// detector and a pipeline are interchangeable behind one checkpoint call.
func (p *Pipeline) Export() (*core.DetectorState, error) { return p.ExportState() }

// ImportState loads a merged export into the pipeline's fresh shard
// detectors: each object's state goes to its owning shard (the same routing
// Process uses), historical counters and the dead-racy count to shard 0.
// repFor resolves each object's representation, exactly as at Register
// time. Must be called from the producing goroutine before any events are
// produced.
func (p *Pipeline) ImportState(st *core.DetectorState, repFor func(trace.ObjID) (ap.Rep, error)) error {
	parts := make([]core.DetectorState, len(p.shards))
	for _, oe := range st.Objects {
		sh := p.shardOf(oe.Obj)
		parts[sh].Objects = append(parts[sh].Objects, oe)
	}
	for _, obj := range st.RacyObjs {
		sh := p.shardOf(obj)
		parts[sh].RacyObjs = append(parts[sh].RacyObjs, obj)
	}
	parts[0].DeadRacy = st.DeadRacy
	parts[0].Stats = st.Stats
	errs := make([]error, len(p.shards))
	if err := p.Barrier(func(i int, det *core.Detector) {
		errs[i] = det.ImportState(&parts[i], repFor)
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
