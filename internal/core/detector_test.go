package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ap"
	"repro/internal/ecl"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/translate"
	"repro/internal/vclock"
)

const dictSrc = `
object dict
method put(k, v) / (p)
method get(k) / (v)
method size() / (r)
commute put(k1, v1)/(p1), put(k2, v2)/(p2)
    when k1 != k2 || (v1 == p1 && v2 == p2)
commute put(k1, v1)/(p1), get(k2)/(v2) when k1 != k2 || v1 == p1
commute put(k1, v1)/(p1), size()/(r)
    when (v1 == nil && p1 == nil) || (v1 != nil && p1 != nil)
commute get(k1)/(v1), get(k2)/(v2) when true
commute get(k1)/(v1), size()/(r) when true
commute size()/(r1), size()/(r2) when true
`

var (
	dictSpec = ecl.MustParseSpec(dictSrc)
	dictRep  = translate.MustTranslate(dictSpec)
	aCom     = trace.StrValue("a.com")
	bCom     = trace.StrValue("b.com")
	c1       = trace.IntValue(1)
	c2       = trace.IntValue(2)
)

// fig3Trace is the running example of Fig 3: two threads put the same key
// concurrently; the main thread joins both and reads the size.
func fig3Trace() *trace.Trace {
	return trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(2, 0, aCom, c1, trace.NilValue). // a1 (τ3 in the paper)
		Put(1, 0, aCom, c2, c1).             // a2 (τ2)
		JoinAll(0, 1, 2).
		Size(0, 0, 1). // a3
		Trace()
}

func newDictDetector(cfg Config) *Detector {
	d := New(cfg)
	d.Register(0, dictRep)
	return d
}

// TestFig3RaceDetected is experiment E2: the two concurrent puts of 'a.com'
// race; the size after joinall does not.
func TestFig3RaceDetected(t *testing.T) {
	for _, engine := range []Engine{EngineBounded, EngineEnumerating} {
		d := newDictDetector(Config{Engine: engine})
		if err := d.RunTrace(fig3Trace()); err != nil {
			t.Fatal(err)
		}
		races := d.Races()
		if len(races) != 1 {
			t.Fatalf("[%s] races = %d, want exactly 1: %v", engine, len(races), races)
		}
		r := races[0]
		if r.Second.Method != "put" || r.First.Method != "put" {
			t.Errorf("[%s] race between %s and %s, want the two puts", engine, r.First, r.Second)
		}
		if !strings.Contains(r.SecondPoint, `"a.com"`) {
			t.Errorf("[%s] racing point %q should name the key", engine, r.SecondPoint)
		}
		if !r.FirstClock.Concurrent(r.SecondClock) {
			t.Errorf("[%s] reported clocks must be concurrent: %s vs %s", engine, r.FirstClock, r.SecondClock)
		}
		if d.DistinctObjects() != 1 {
			t.Errorf("[%s] distinct objects = %d", engine, d.DistinctObjects())
		}
	}
}

// TestFig3NoJoinallSizeRaces: without the joinall, size races with the
// resizing put a1 (via o:size vs o:resize) but not with the non-resizing
// put a2 — the discussion at the end of Section 2.
func TestFig3NoJoinallSizeRaces(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(2, 0, aCom, c1, trace.NilValue). // resizes
		Put(1, 0, aCom, c2, c1).             // does not resize
		Size(0, 0, 1).                       // concurrent with both puts
		Trace()
	d := newDictDetector(Config{})
	if err := d.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	var sizeRaces []Race
	for _, r := range d.Races() {
		if r.Second.Method == "size" {
			sizeRaces = append(sizeRaces, r)
		}
	}
	if len(sizeRaces) != 1 {
		t.Fatalf("size races = %v, want exactly one (against the resizing put)", sizeRaces)
	}
	if sizeRaces[0].FirstSeq != 2 {
		t.Errorf("size should race with the resizing put (event 2), got event %d", sizeRaces[0].FirstSeq)
	}
}

func TestOrderedOperationsDoNotRace(t *testing.T) {
	// Sequential puts on one thread never race.
	tr := trace.NewBuilder().
		Put(0, 0, aCom, c1, trace.NilValue).
		Put(0, 0, aCom, c2, c1).
		Size(0, 0, 1).
		Trace()
	d := newDictDetector(Config{})
	if err := d.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Races()); n != 0 {
		t.Fatalf("sequential trace produced %d races", n)
	}
}

func TestLockProtectedOperationsDoNotRace(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Acquire(1, 0).
		Put(1, 0, aCom, c1, trace.NilValue).
		Release(1, 0).
		Acquire(2, 0).
		Put(2, 0, aCom, c2, c1).
		Release(2, 0).
		Trace()
	d := newDictDetector(Config{})
	if err := d.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Races()); n != 0 {
		t.Fatalf("lock-ordered trace produced %d races", n)
	}
}

func TestConcurrentDifferentKeysDoNotRace(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(1, 0, aCom, c1, trace.NilValue).
		Put(2, 0, bCom, c2, trace.NilValue).
		Trace()
	d := newDictDetector(Config{})
	if err := d.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Races()); n != 0 {
		t.Fatalf("different-key puts raced: %v", d.Races())
	}
}

func TestConcurrentResizingPutsOnDifferentKeysStillCommute(t *testing.T) {
	// Both puts touch o:resize — but resize does not conflict with resize
	// (Fig 7(c)); only size observations conflict with resizes.
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(1, 0, aCom, c1, trace.NilValue).
		Put(2, 0, bCom, c2, trace.NilValue).
		Size(1, 0, 2).
		Trace()
	d := newDictDetector(Config{})
	if err := d.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	// size by t1 is concurrent with t2's resizing put: exactly one race.
	if n := len(d.Races()); n != 1 {
		t.Fatalf("races = %d, want 1 (size vs t2's resize): %v", n, d.Races())
	}
}

func TestUnregisteredObjectFails(t *testing.T) {
	d := New(Config{})
	tr := trace.NewBuilder().Size(0, 7, 0).Trace()
	if err := d.RunTrace(tr); err == nil {
		t.Fatal("unregistered object must error")
	}
}

func TestUnstampedEventFails(t *testing.T) {
	d := newDictDetector(Config{})
	ev := trace.Act(0, trace.Action{Obj: 0, Method: "size", Rets: []trace.Value{trace.IntValue(0)}})
	if err := d.Process(&ev); err == nil {
		t.Fatal("unstamped action must error")
	}
}

func TestBadActionFails(t *testing.T) {
	d := newDictDetector(Config{})
	tr := trace.NewBuilder().Act(0, 0, "frob", nil, nil).Trace()
	if err := d.RunTrace(tr); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestSyncEventsIgnoredByDetector(t *testing.T) {
	d := newDictDetector(Config{})
	for _, ev := range []trace.Event{
		trace.Fork(0, 1), trace.Join(0, 1), trace.Acquire(0, 0),
		trace.Release(0, 0), trace.Read(0, 0), trace.Write(0, 0),
		{Kind: trace.BeginEvent}, {Kind: trace.EndEvent},
	} {
		e := ev
		if err := d.Process(&e); err != nil {
			t.Fatalf("%s: %v", e.String(), err)
		}
	}
}

func TestObjectDeathReclaims(t *testing.T) {
	d := newDictDetector(Config{})
	d.Register(1, dictRep)
	tr := trace.NewBuilder().
		Put(0, 0, aCom, c1, trace.NilValue).
		Put(0, 1, aCom, c1, trace.NilValue).
		Die(0, 0).
		Trace()
	if err := d.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Reclaimed == 0 {
		t.Error("death must reclaim points")
	}
	if st.ActivePoints >= st.PeakActive {
		t.Errorf("active %d should drop below peak %d after death", st.ActivePoints, st.PeakActive)
	}
	// Dying twice (or an unknown object) is harmless.
	ev := trace.Die(0, 0)
	if err := d.Process(&ev); err != nil {
		t.Fatal(err)
	}
}

// TestNoRaceAcrossDeath: races are only reported among accesses within an
// object's lifetime; after death, old accesses are forgotten and the
// object's registration is released (a fresh object reusing the id must be
// registered anew, as the monitored runtime does for every created object).
func TestNoRaceAcrossDeath(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).
		Put(1, 0, aCom, c1, trace.NilValue).
		Die(1, 0).
		Put(0, 0, aCom, c2, trace.NilValue). // concurrent with t1's put, but object is new
		Trace()
	d := newDictDetector(Config{})
	en := hb.New()
	for i := range tr.Events {
		if _, err := en.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if tr.Events[i].Kind == trace.ActionEvent {
			if _, ok := d.reps[0]; !ok {
				d.Register(0, dictRep) // revival requires re-registration
			}
		}
		if err := d.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(d.Races()); n != 0 {
		t.Fatalf("race across object death: %v", d.Races())
	}
}

// TestFig4CheckCounts is experiment E3: three concurrent resizing puts on
// distinct keys followed by a size. With access points the size performs one
// conflict check (o:size vs o:resize); the direct approach checks all three
// recorded put invocations.
func TestFig4CheckCounts(t *testing.T) {
	build := func() *trace.Trace {
		return trace.NewBuilder().
			Fork(0, 1).Fork(0, 2).Fork(0, 3).
			Put(1, 0, aCom, c1, trace.NilValue).
			Put(2, 0, bCom, c2, trace.NilValue).
			Put(3, 0, trace.StrValue("c.com"), c1, trace.NilValue).
			Size(0, 0, 3).
			Trace()
	}

	// Bounded engine on the translated representation. The size action's
	// own check count is the difference between running the trace with and
	// without the trailing size.
	d := newDictDetector(Config{Engine: EngineBounded})
	if err := d.RunTrace(build()); err != nil {
		t.Fatal(err)
	}
	checksWith := d.Stats().Checks

	d2 := newDictDetector(Config{Engine: EngineBounded})
	noSize := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).Fork(0, 3).
		Put(1, 0, aCom, c1, trace.NilValue).
		Put(2, 0, bCom, c2, trace.NilValue).
		Put(3, 0, trace.StrValue("c.com"), c1, trace.NilValue).
		Trace()
	if err := d2.RunTrace(noSize); err != nil {
		t.Fatal(err)
	}
	sizeChecks := checksWith - d2.Stats().Checks
	if sizeChecks != 1 {
		t.Errorf("bounded: size performed %d checks, want 1 (Fig 4)", sizeChecks)
	}

	// Direct approach: naive representation + enumerating engine.
	commute := func(a, b trace.Action) bool {
		ok, err := dictSpec.Commutes(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	d3 := New(Config{Engine: EngineEnumerating})
	d3.Register(0, ap.NewNaiveRep(commute))
	if err := d3.RunTrace(build()); err != nil {
		t.Fatal(err)
	}
	d4 := New(Config{Engine: EngineEnumerating})
	d4.Register(0, ap.NewNaiveRep(commute))
	if err := d4.RunTrace(noSize); err != nil {
		t.Fatal(err)
	}
	naiveSizeChecks := d3.Stats().Checks - d4.Stats().Checks
	if naiveSizeChecks != 3 {
		t.Errorf("direct: size performed %d checks, want 3 (Fig 4)", naiveSizeChecks)
	}
}

// oracleRaces computes, per action event, whether it races with any earlier
// action event on the same object: ei ∥ ej and ¬ϕ(ai, aj). This is the
// specification-level definition (Definition 4.3) that Theorem 5.1 says
// Algorithm 1 matches.
func oracleRaces(t *testing.T, tr *trace.Trace) []bool {
	t.Helper()
	out := make([]bool, tr.Len())
	var acts []*trace.Event
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Kind != trace.ActionEvent {
			continue
		}
		for _, prev := range acts {
			if prev.Act.Obj != e.Act.Obj {
				continue
			}
			if !prev.Clock.Concurrent(e.Clock) {
				continue
			}
			ok, err := dictSpec.Commutes(prev.Act, e.Act)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				out[e.Seq] = true
			}
		}
		acts = append(acts, e)
	}
	return out
}

// TestPropTheorem51DetectorMatchesOracle: on random realizable dictionary
// traces, the detector flags exactly the events that the specification-level
// oracle says race — for both engines and for the hand-written
// representation.
func TestPropTheorem51DetectorMatchesOracle(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Objects = 2
	reps := map[string]func() (ap.Rep, Engine){
		"translated-bounded":    func() (ap.Rep, Engine) { return dictRep, EngineBounded },
		"translated-enumerated": func() (ap.Rep, Engine) { return dictRep, EngineEnumerating },
		"handwritten-bounded":   func() (ap.Rep, Engine) { return ap.DictRep{}, EngineBounded },
	}
	for name, mk := range reps {
		err := quick.Check(func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			tr := trace.Generate(r, cfg)
			rep, engine := mk()
			d := New(Config{Engine: engine})
			for o := 0; o < cfg.Objects; o++ {
				d.Register(trace.ObjID(o), rep)
			}
			flagged := make([]bool, tr.Len())
			d2 := New(Config{Engine: engine, OnRace: func(rc Race) {
				flagged[rc.SecondSeq] = true
			}})
			for o := 0; o < cfg.Objects; o++ {
				d2.Register(trace.ObjID(o), rep)
			}
			if err := d2.RunTrace(tr); err != nil {
				t.Log(err)
				return false
			}
			want := oracleRaces(t, tr)
			for i := range want {
				if want[i] != flagged[i] {
					t.Logf("%s seed %d: event %d (%s): oracle %v detector %v",
						name, seed, i, tr.Events[i].String(), want[i], flagged[i])
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 60})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPropEnginesAgree: the bounded and enumerating engines report identical
// race sets on random traces.
func TestPropEnginesAgree(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := trace.Generate(r, cfg)
		counts := map[Engine]int{}
		for _, engine := range []Engine{EngineBounded, EngineEnumerating} {
			d := New(Config{Engine: engine})
			for o := 0; o < cfg.Objects; o++ {
				d.Register(trace.ObjID(o), dictRep)
			}
			if err := d.RunTrace(tr); err != nil {
				t.Log(err)
				return false
			}
			counts[engine] = d.Stats().Races
		}
		return counts[EngineBounded] == counts[EngineEnumerating]
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxRacesCap(t *testing.T) {
	// Many racing puts: reports capped but counters keep counting.
	b := trace.NewBuilder()
	for i := 1; i <= 8; i++ {
		b.Fork(0, vclock.Tid(i))
	}
	for i := 1; i <= 8; i++ {
		b.Put(vclock.Tid(i), 0, aCom, trace.IntValue(int64(i)), trace.NilValue)
	}
	d := newDictDetector(Config{MaxRaces: 3})
	if err := d.RunTrace(b.Trace()); err != nil {
		t.Fatal(err)
	}
	if len(d.Races()) != 3 {
		t.Errorf("retained races = %d, want 3", len(d.Races()))
	}
	if d.Stats().Races <= 3 {
		t.Errorf("race counter = %d, want > 3", d.Stats().Races)
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{
		EngineAuto: "auto", EngineBounded: "bounded", EngineEnumerating: "enumerating",
		Engine(9): "Engine(9)",
	} {
		if got := e.String(); got != want {
			t.Errorf("Engine(%d) = %q, want %q", int(e), got, want)
		}
	}
}

func TestRaceString(t *testing.T) {
	d := newDictDetector(Config{})
	if err := d.RunTrace(fig3Trace()); err != nil {
		t.Fatal(err)
	}
	s := d.Races()[0].String()
	for _, frag := range []string{"commutativity race", "o0", "put", "conflicts with"} {
		if !strings.Contains(s, frag) {
			t.Errorf("race string %q missing %q", s, frag)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newDictDetector(Config{})
	if err := d.RunTrace(fig3Trace()); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Actions != 3 {
		t.Errorf("actions = %d, want 3", st.Actions)
	}
	if st.Checks == 0 {
		t.Error("checks should be counted")
	}
	if st.RacyEvents != 1 {
		t.Errorf("racy events = %d, want 1", st.RacyEvents)
	}
	if st.ActivePoints == 0 || st.PeakActive < st.ActivePoints {
		t.Errorf("active accounting broken: %+v", st)
	}
}

func BenchmarkDetectorBounded(b *testing.B) {
	benchDetector(b, EngineBounded)
}

func BenchmarkDetectorEnumerating(b *testing.B) {
	benchDetector(b, EngineEnumerating)
}

func benchDetector(b *testing.B, engine Engine) {
	r := rand.New(rand.NewSource(42))
	cfg := trace.DefaultGenConfig()
	cfg.Threads = 4
	cfg.OpsMin, cfg.OpsMax = 200, 200
	tr := trace.Generate(r, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(Config{Engine: engine, MaxRaces: 1})
		for o := 0; o < cfg.Objects; o++ {
			d.Register(trace.ObjID(o), dictRep)
		}
		if err := d.RunTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStampErrorKeepsPrefix: a stamping error (a receive with no pending
// send) stops RunTrace and RunSource at the same positioned error, after
// the valid prefix was detected.
func TestStampErrorKeepsPrefix(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	tr.Append(trace.Act(1, trace.Action{Obj: 0, Method: "size", Rets: []trace.Value{trace.IntValue(0)}}))
	tr.Append(trace.Recv(1, 9)) // no pending send
	tr.Append(trace.Act(1, trace.Action{Obj: 0, Method: "size", Rets: []trace.Value{trace.IntValue(0)}}))

	for _, mode := range []string{"trace", "source"} {
		d := New(Config{})
		d.Register(0, dictRep)
		var err error
		if mode == "trace" {
			err = d.RunTrace(tr)
		} else {
			err = d.RunSource(tr.Source())
		}
		if err == nil || !strings.Contains(err.Error(), "event 2 (t1 recv c9)") {
			t.Fatalf("%s: err = %v, want the position of the bad receive", mode, err)
		}
		if n := d.Stats().Actions; n != 1 {
			t.Fatalf("%s: %d actions detected, want the 1 before the error", mode, n)
		}
	}
}
