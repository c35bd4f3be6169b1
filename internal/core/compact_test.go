package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/vclock"
)

func TestCompactRemovesDominatedPoints(t *testing.T) {
	// After joinall, every point accumulated before the join is dominated
	// by the sole live thread's clock and can be compacted away.
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(1, 0, aCom, c1, trace.NilValue).
		Put(2, 0, bCom, c2, trace.NilValue).
		JoinAll(0, 1, 2).
		Trace()
	d := newDictDetector(Config{})
	en := hb.New()
	for i := range tr.Events {
		if _, err := en.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if err := d.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats().ActivePoints
	if before == 0 {
		t.Fatal("no active points accumulated")
	}
	removed := d.Compact(en.MeetLive())
	if removed != before {
		t.Fatalf("removed %d of %d; all pre-join points are dominated", removed, before)
	}
	if d.Stats().ActivePoints != 0 {
		t.Fatalf("active = %d after full compaction", d.Stats().ActivePoints)
	}
}

func TestCompactKeepsConcurrentPoints(t *testing.T) {
	// Without the joins, t1's and t2's points stay potentially racy and
	// must survive compaction.
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(1, 0, aCom, c1, trace.NilValue).
		Put(2, 0, bCom, c2, trace.NilValue).
		Trace()
	d := newDictDetector(Config{})
	en := hb.New()
	for i := range tr.Events {
		if _, err := en.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if err := d.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if removed := d.Compact(en.MeetLive()); removed != 0 {
		t.Fatalf("removed %d live points", removed)
	}
}

func TestCompactBottomThresholdIsNoop(t *testing.T) {
	d := newDictDetector(Config{})
	if d.Compact(nil) != 0 {
		t.Fatal("bottom threshold must remove nothing")
	}
}

// TestMeetLiveTracksJoinsAndEnds: a join ends the joined thread, a
// transaction end does not (Begin/End delimit an atomic block).
func TestMeetLiveTracksJoinsAndEnds(t *testing.T) {
	en := hb.New()
	events := []trace.Event{
		trace.Fork(0, 1),
		trace.Fork(0, 2),
		{Kind: trace.BeginEvent, Thread: 2},
		{Kind: trace.EndEvent, Thread: 2},
		trace.Join(0, 1),
	}
	for i := range events {
		if _, err := en.Process(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	// t1 is joined; t0 and t2 are live, so the meet is theirs.
	want := en.ThreadClock(0).Clone().MeetWith(en.ThreadClock(2))
	if meet := en.MeetLive(); !meet.Equal(want) {
		t.Fatalf("meet = %s, want the meet of t0 and t2 %s", meet, want)
	}
	join := trace.Join(0, 2)
	if _, err := en.Process(&join); err != nil {
		t.Fatal(err)
	}
	// Only t0 is live; the meet equals t0's clock.
	if meet := en.MeetLive(); !meet.Equal(en.ThreadClock(0)) {
		t.Fatalf("meet = %s, want t0's clock %s", meet, en.ThreadClock(0))
	}
}

// TestPropCompactionPreservesRaces: running the detector with aggressive
// periodic compaction reports exactly the same number of races as running
// it without, on random realizable traces.
func TestPropCompactionPreservesRaces(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := trace.Generate(r, cfg)

		runWith := func(compactEvery int) (int, int) {
			d := New(Config{})
			for o := 0; o < cfg.Objects; o++ {
				d.Register(trace.ObjID(o), dictRep)
			}
			en := hb.New()
			for i := range tr.Events {
				if _, err := en.Process(&tr.Events[i]); err != nil {
					t.Fatal(err)
				}
				if err := d.Process(&tr.Events[i]); err != nil {
					t.Fatal(err)
				}
				if compactEvery > 0 && i%compactEvery == 0 {
					d.Compact(en.MeetLive())
				}
			}
			return d.Stats().Races, d.Stats().Reclaimed
		}
		plain, _ := runWith(0)
		compacted, _ := runWith(1)
		if plain != compacted {
			t.Logf("seed %d: races %d without compaction vs %d with", seed, plain, compacted)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVClockMeet(t *testing.T) {
	a := vclock.VC{3, 0, 1}
	b := vclock.VC{2, 1}
	got := vclock.Meet(a, b)
	if !got.Equal(vclock.VC{2, 0, 0}) {
		t.Fatalf("meet = %s", got)
	}
	if vclock.Meet() != nil {
		t.Fatal("empty meet must be bottom")
	}
	if !vclock.Meet(a).Equal(a) {
		t.Fatal("unary meet is identity")
	}
	// Meet is a lower bound of both.
	if !got.LEQ(a) || !got.LEQ(b) {
		t.Fatal("meet must be a lower bound")
	}
}
