package monitor

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestReplayRecorded records a live concurrent workload with a serial
// detector attached, then re-analyzes the recorded trace offline through
// the parallel-stamping pipeline at several shard/worker settings, and
// requires every verdict to match the live run — the offline re-analysis
// leg of the ISSUE 6 differential.
func TestReplayRecorded(t *testing.T) {
	rt := NewRuntime()
	rt.Record()
	live := AttachRD2(rt, core.Config{})

	main := rt.Main()
	d1, d2 := rt.NewDict(), rt.NewDict()
	lock := rt.NewLock()
	workers := make([]*Thread, 0, 4)
	for w := 0; w < 4; w++ {
		w := w
		workers = append(workers, main.Go(func(th *Thread) {
			for i := 0; i < 40; i++ {
				k := trace.IntValue(int64(i % 6))
				d1.Put(th, k, trace.IntValue(int64(w*100+i+1)))
				if i%3 == 0 {
					lock.Lock(th)
					d2.Put(th, k, trace.IntValue(int64(i+1)))
					lock.Unlock(th)
				}
				d1.Get(th, k)
			}
		}))
	}
	main.JoinAll(workers...)
	d1.Size(main)
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}

	kinds := rt.ObjectKinds()
	if len(kinds) != 2 {
		t.Fatalf("ObjectKinds = %v, want two dicts", kinds)
	}

	liveStats := live.Detector.Stats()
	for _, cfg := range []pipeline.Config{{Shards: 1}, {Shards: 4}} {
		label := fmt.Sprintf("shards=%d", cfg.Shards)
		p, err := ReplayRecorded(rt, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		st := p.Stats()
		if st.Races != liveStats.Races || st.Checks != liveStats.Checks ||
			st.Actions != liveStats.Actions {
			t.Fatalf("%s: stats %+v, live %+v", label, st, liveStats)
		}
		if p.DistinctObjects() != live.Detector.DistinctObjects() {
			t.Fatalf("%s: distinct objects %d, live %d",
				label, p.DistinctObjects(), live.Detector.DistinctObjects())
		}
	}

	// The recorded trace's clocks must have survived the replays intact
	// (ReplayRecorded strips clocks on a copy, never in place).
	for i, e := range rt.Trace().Events {
		if e.Clock == nil {
			t.Fatalf("recorded event %d lost its clock", i)
		}
	}

	// Without a recording, ReplayRecorded must refuse.
	if _, err := ReplayRecorded(NewRuntime(), pipeline.Config{}); err == nil {
		t.Fatal("ReplayRecorded without Record should fail")
	}
}
