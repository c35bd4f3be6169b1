package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/trace"
)

var dictRep = specs.MustRep("dict")

// raceKey is the (Obj, FirstSeq, SecondSeq) triple the differential
// acceptance criterion compares.
func raceKey(r core.Race) [3]int {
	return [3]int{int(r.Obj), r.FirstSeq, r.SecondSeq}
}

// runSerial runs the serial detector over tr with every object registered.
func runSerial(t *testing.T, tr *trace.Trace, objects int, cfg core.Config) *core.Detector {
	t.Helper()
	d := core.New(cfg)
	for o := 0; o < objects; o++ {
		d.Register(trace.ObjID(o), dictRep)
	}
	if err := d.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	return d
}

// runParallel runs the pipeline over tr with every object registered.
func runParallel(t *testing.T, tr *trace.Trace, objects int, cfg Config) *Pipeline {
	t.Helper()
	p := New(cfg)
	for o := 0; o < objects; o++ {
		p.Register(trace.ObjID(o), dictRep)
	}
	if err := p.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDifferentialRandomTraces is the acceptance differential: on
// randomized multi-object traces, the sharded pipeline reports the exact
// same race set (as (Obj, FirstSeq, SecondSeq) triples), Races, Checks, and
// DistinctObjects as the serial detector. Five seeds, several shard counts.
func TestDifferentialRandomTraces(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.Threads, gcfg.Objects, gcfg.Keys = 4, 6, 3
	gcfg.OpsMin, gcfg.OpsMax = 8, 20
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), gcfg)
		serial := runSerial(t, tr, gcfg.Objects, core.Config{})
		wantRaces := append([]core.Race(nil), serial.Races()...)
		core.SortRaces(wantRaces)

		for _, shards := range []int{1, 2, 3, 7} {
			p := runParallel(t, tr, gcfg.Objects, Config{Shards: shards, BatchSize: 4})
			name := fmt.Sprintf("seed=%d shards=%d", seed, shards)
			if got, want := p.Stats().Races, serial.Stats().Races; got != want {
				t.Errorf("%s: races = %d, want %d", name, got, want)
			}
			if got, want := p.Stats().Checks, serial.Stats().Checks; got != want {
				t.Errorf("%s: checks = %d, want %d", name, got, want)
			}
			if got, want := p.Stats().Actions, serial.Stats().Actions; got != want {
				t.Errorf("%s: actions = %d, want %d", name, got, want)
			}
			if got, want := p.DistinctObjects(), serial.DistinctObjects(); got != want {
				t.Errorf("%s: distinct = %d, want %d", name, got, want)
			}
			got := p.Races()
			if len(got) != len(wantRaces) {
				t.Fatalf("%s: %d retained races, want %d", name, len(got), len(wantRaces))
			}
			for i := range got {
				if raceKey(got[i]) != raceKey(wantRaces[i]) {
					t.Errorf("%s: race[%d] = %v, want %v", name, i, raceKey(got[i]), raceKey(wantRaces[i]))
				}
			}
		}
	}
}

// TestSingleShardByteForByte: with -shards 1 the pipeline's merged report
// must render byte-for-byte identically to the serial detector's reports
// after both are put in the canonical (SecondSeq, FirstSeq) order.
func TestSingleShardByteForByte(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.Objects = 3
	for _, seed := range []int64{11, 22, 33} {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), gcfg)
		serial := runSerial(t, tr, gcfg.Objects, core.Config{})
		sorted := append([]core.Race(nil), serial.Races()...)
		core.SortRaces(sorted)
		var want strings.Builder
		for _, r := range sorted {
			fmt.Fprintln(&want, r)
		}

		p := runParallel(t, tr, gcfg.Objects, Config{Shards: 1})
		var got strings.Builder
		for _, r := range p.Races() {
			fmt.Fprintln(&got, r)
		}
		if got.String() != want.String() {
			t.Errorf("seed %d: single-shard report differs from serial:\n--- serial ---\n%s--- shards=1 ---\n%s",
				seed, want.String(), got.String())
		}
	}
}

// TestShardCountEdgeCases: more shards than objects, and a shard count of
// exactly the object count, still produce the serial verdicts.
func TestShardCountEdgeCases(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.Objects = 2
	tr := trace.Generate(rand.New(rand.NewSource(7)), gcfg)
	serial := runSerial(t, tr, gcfg.Objects, core.Config{})
	for _, shards := range []int{2, 16} {
		p := runParallel(t, tr, gcfg.Objects, Config{Shards: shards, BatchSize: 1, QueueLen: 1})
		if p.Stats().Races != serial.Stats().Races {
			t.Errorf("shards=%d: races = %d, want %d", shards, p.Stats().Races, serial.Stats().Races)
		}
		if p.Shards() != shards {
			t.Errorf("Shards() = %d, want %d", p.Shards(), shards)
		}
	}
}

// TestPipelineFig3 pins the running example: the pipeline finds exactly the
// fig 3 race.
func TestPipelineFig3(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(2, 0, trace.StrValue("a.com"), trace.IntValue(1), trace.NilValue).
		Put(1, 0, trace.StrValue("a.com"), trace.IntValue(2), trace.IntValue(1)).
		JoinAll(0, 1, 2).
		Size(0, 0, 1).
		Trace()
	p := runParallel(t, tr, 1, Config{Shards: 4})
	races := p.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v", races)
	}
	if races[0].First.Method != "put" || races[0].Second.Method != "put" {
		t.Errorf("race = %v, want the two puts", races[0])
	}
	if !races[0].FirstClock.Concurrent(races[0].SecondClock) {
		t.Errorf("reported clocks must be concurrent: %s vs %s",
			races[0].FirstClock, races[0].SecondClock)
	}
}

// TestCompactThroughPipeline: compaction requests travel the shard streams
// without changing verdicts, and reclamation totals surface in the merged
// stats.
func TestCompactThroughPipeline(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.Objects = 4
	tr := trace.Generate(rand.New(rand.NewSource(99)), gcfg)

	serial := runSerial(t, tr, gcfg.Objects, core.Config{})

	p := New(Config{Shards: 3, BatchSize: 2})
	for o := 0; o < gcfg.Objects; o++ {
		p.Register(trace.ObjID(o), dictRep)
	}
	en := hb.New()
	for i := range tr.Events {
		e := &tr.Events[i]
		if _, err := en.Process(e); err != nil {
			t.Fatal(err)
		}
		if err := p.Process(e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == trace.JoinEvent {
			p.Compact(en.MeetLive())
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Races != serial.Stats().Races {
		t.Errorf("races with compaction = %d, want %d", p.Stats().Races, serial.Stats().Races)
	}
	if p.Stats().Reclaimed == 0 {
		t.Error("the joinall trace shape must reclaim dominated points")
	}
}

// TestErrorPropagation: an action on an unregistered object surfaces as the
// merged error, tagged with the earliest failing event.
func TestErrorPropagation(t *testing.T) {
	tr := trace.NewBuilder().
		Put(0, 5, trace.StrValue("k"), trace.IntValue(1), trace.NilValue).
		Trace()
	p := New(Config{Shards: 2})
	err := p.RunTrace(tr)
	if err == nil || !strings.Contains(err.Error(), "no registered representation") {
		t.Fatalf("err = %v, want registration failure", err)
	}
	// Close is idempotent and keeps returning the error.
	if err2 := p.Close(); err2 == nil {
		t.Fatal("second Close lost the error")
	}
}

// TestMaxRacesCap: the merged retention honors the configured cap while the
// counters stay exact.
func TestMaxRacesCap(t *testing.T) {
	b := trace.NewBuilder().Fork(0, 1).Fork(0, 2)
	for i := 0; i < 20; i++ {
		b.Put(1, trace.ObjID(i%4), trace.StrValue("k"), trace.IntValue(int64(i+1)), trace.IntValue(int64(i)))
		b.Put(2, trace.ObjID(i%4), trace.StrValue("k"), trace.IntValue(int64(i+100)), trace.IntValue(int64(i+1)))
	}
	tr := b.Trace()
	p := New(Config{Shards: 3, Core: core.Config{MaxRaces: 5}})
	for o := 0; o < 4; o++ {
		p.Register(trace.ObjID(o), dictRep)
	}
	if err := p.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	if len(p.Races()) > 5 {
		t.Errorf("retained %d races, cap is 5", len(p.Races()))
	}
	if p.Stats().Races <= 5 {
		t.Errorf("race counter %d should exceed the retention cap", p.Stats().Races)
	}
}

// TestOnRaceFromShards: the OnRace callback fires once per race from shard
// goroutines; a mutex-protected counter must observe all of them.
func TestOnRaceFromShards(t *testing.T) {
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	count := 0
	cfg := Config{Shards: 4, Core: core.Config{OnRace: func(core.Race) {
		<-mu
		count++
		mu <- struct{}{}
	}}}
	gcfg := trace.DefaultGenConfig()
	gcfg.Objects = 5
	tr := trace.Generate(rand.New(rand.NewSource(13)), gcfg)
	p := runParallel(t, tr, gcfg.Objects, cfg)
	if count != p.Stats().Races {
		t.Errorf("OnRace fired %d times for %d races", count, p.Stats().Races)
	}
}

// TestDieEventsRouted: object death reaches the owning shard and reclaims
// its points.
func TestDieEventsRouted(t *testing.T) {
	b := trace.NewBuilder()
	for o := 0; o < 8; o++ {
		b.Put(0, trace.ObjID(o), trace.StrValue("k"), trace.IntValue(1), trace.NilValue)
		b.Die(0, trace.ObjID(o))
	}
	p := New(Config{Shards: 4})
	for o := 0; o < 8; o++ {
		p.Register(trace.ObjID(o), dictRep)
	}
	if err := p.RunTrace(b.Trace()); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ActivePoints != 0 {
		t.Errorf("active points = %d after all objects died", p.Stats().ActivePoints)
	}
	if p.Stats().Reclaimed == 0 {
		t.Error("die events must reclaim points")
	}
}

// TestBottomCompactIsNoop mirrors the serial detector's contract.
func TestBottomCompactIsNoop(t *testing.T) {
	p := New(Config{Shards: 2})
	if p.Compact(nil) != 0 {
		t.Fatal("bottom threshold must be a no-op")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStampErrorKeepsPrefix: a stamping error (a receive with no pending
// send) stops RunTrace and RunSource at a positioned error, after the
// valid prefix was detected by the shards.
func TestStampErrorKeepsPrefix(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	tr.Append(trace.Act(1, trace.Action{Obj: 0, Method: "size", Rets: []trace.Value{trace.IntValue(0)}}))
	tr.Append(trace.Recv(1, 7)) // no pending send
	tr.Append(trace.Act(1, trace.Action{Obj: 0, Method: "size", Rets: []trace.Value{trace.IntValue(0)}}))

	for _, mode := range []string{"trace", "source"} {
		p := New(Config{Shards: 2})
		p.Register(0, dictRep)
		var err error
		if mode == "trace" {
			err = p.RunTrace(unstampedCopy(tr))
		} else {
			err = p.RunSource(unstampedCopy(tr).Source())
		}
		if err == nil || !strings.Contains(err.Error(), "event 2 (t1 recv c7)") {
			t.Fatalf("%s: err = %v, want the position of the bad receive", mode, err)
		}
		if n := p.Stats().Actions; n != 1 {
			t.Fatalf("%s: %d actions detected, want the 1 before the error", mode, n)
		}
	}
}

// TestFlushDeliversPartialBatch checks that Flush hands a partial batch to
// its shard: a racy pair far under one default batch is reported before
// Close. A second Flush with nothing pending sends no batch.
func TestFlushDeliversPartialBatch(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	reg := obs.NewRegistry()
	raced := make(chan core.Race, 1)
	p := New(Config{Obs: reg, Core: core.Config{OnRace: func(r core.Race) {
		select {
		case raced <- r:
		default:
		}
	}}})
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(2, 0, trace.StrValue("a.com"), trace.IntValue(1), trace.NilValue).
		Put(1, 0, trace.StrValue("a.com"), trace.IntValue(2), trace.IntValue(1)).
		Trace()
	p.Register(0, dictRep)
	en := hb.New()
	for i := range tr.Events {
		if _, err := en.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if err := p.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	batches := reg.Counter("pipeline.batches")
	dispatch := reg.Span(obs.StageDispatch)
	if n := dispatch.Latency().Count; n != 0 {
		t.Fatalf("%d batches dispatched before Flush, want 0 (the pair is under one batch)", n)
	}

	p.Flush()
	select {
	case r := <-raced:
		if r.First.Method != "put" || r.Second.Method != "put" {
			t.Errorf("race = %v, want the two puts", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no race reported within 10s of Flush")
	}
	if n := dispatch.Latency().Count; n != 1 {
		t.Fatalf("Flush dispatched %d batches, want 1", n)
	}

	p.Flush()
	if n := dispatch.Latency().Count; n != 1 {
		t.Fatalf("second Flush with nothing pending: %d batches dispatched in all, want 1", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drains every shard, so the shard-side batch count is final.
	if n := batches.Load(); n != 1 {
		t.Fatalf("pipeline.batches = %d after the second Flush and Close, want 1", n)
	}
	if n := dispatch.Latency().Count; n != 1 {
		t.Fatalf("stage.dispatch samples = %d after Close, want 1", n)
	}
}
