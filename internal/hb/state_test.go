package hb

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

func stateTestTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for seed := int64(1); seed <= 4; seed++ {
		cfg := trace.GenConfig{
			Threads: 5, Objects: 3, Keys: 6, Vals: 4, Locks: 3,
			OpsMin: 40, OpsMax: 120, PSize: 10, PGet: 35, PLocked: 35, PRemove: 20,
		}
		out = append(out, trace.Generate(rand.New(rand.NewSource(seed)), cfg))
	}
	// A hand-built trace driving channels and thread death explicitly, so
	// chanState queues and dead flags cross the export boundary.
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	tr.Append(trace.Fork(0, 2))
	tr.Append(trace.Send(1, 0))
	tr.Append(trace.Send(1, 0))
	tr.Append(trace.Send(2, 1))
	tr.Append(trace.Acquire(1, 0))
	tr.Append(trace.Release(1, 0))
	tr.Append(trace.Event{Kind: trace.EndEvent, Thread: 2})
	tr.Append(trace.Recv(0, 0))
	tr.Append(trace.Recv(0, 1))
	tr.Append(trace.Acquire(0, 0))
	tr.Append(trace.Recv(0, 0))
	tr.Append(trace.Join(0, 2))
	tr.Append(trace.Release(0, 0))
	tr.Append(trace.Fork(0, 3))
	tr.Append(trace.Send(3, 0))
	tr.Append(trace.Recv(1, 0))
	tr.Append(trace.Join(0, 1))
	out = append(out, tr)
	return out
}

// stampVia runs the trace through an engine that is exported/imported at
// the split point, returning the stamp clock of every event (deep-copied).
func stampVia(t *testing.T, tr *trace.Trace, split int) []vclock.VC {
	t.Helper()
	en := New()
	var clocks []vclock.VC
	for i := range tr.Events {
		if i == split {
			st := en.ExportState()
			en2 := New()
			if err := en2.ImportState(st); err != nil {
				t.Fatalf("ImportState: %v", err)
			}
			// The old engine keeps working after export; mutate it to prove
			// the export shares nothing.
			for j := 0; j < 3; j++ {
				e := trace.Acquire(0, 99)
				en.Process(&e)
				r := trace.Release(0, 99)
				en.Process(&r)
			}
			en = en2
		}
		e := tr.Events[i]
		c, err := en.Process(&e)
		if err != nil {
			t.Fatalf("Process(%v): %v", e, err)
		}
		var cp vclock.VC
		if c != nil {
			cp = append(vclock.VC(nil), c...)
		}
		clocks = append(clocks, cp)
	}
	return clocks
}

// An engine rebuilt from an export at any split point must stamp the rest
// of the trace with clocks value-equal to the uninterrupted run, and agree
// on MeetLive (the compaction threshold).
func TestEngineExportImportDifferential(t *testing.T) {
	for ti, tr := range stateTestTraces(t) {
		want := stampVia(t, tr, -1)
		for split := 0; split <= tr.Len(); split += 1 + tr.Len()/7 {
			got := stampVia(t, tr, split)
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("trace %d split %d: event %d (%v): clock %v != %v",
						ti, split, i, tr.Events[i], got[i], want[i])
				}
			}
		}
	}
}

func TestEngineExportImportMeetLive(t *testing.T) {
	for _, tr := range stateTestTraces(t) {
		en := New()
		for i := range tr.Events {
			e := tr.Events[i]
			if _, err := en.Process(&e); err != nil {
				t.Fatalf("Process: %v", err)
			}
		}
		en2 := New()
		if err := en2.ImportState(en.ExportState()); err != nil {
			t.Fatalf("ImportState: %v", err)
		}
		if a, b := en.MeetLive(), en2.MeetLive(); !a.Equal(b) {
			t.Fatalf("MeetLive diverged: %v vs %v", a, b)
		}
		if en.Threads() != en2.Threads() {
			t.Fatalf("Threads diverged: %d vs %d", en.Threads(), en2.Threads())
		}
	}
}
