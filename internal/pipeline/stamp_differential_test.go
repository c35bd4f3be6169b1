package pipeline

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// cloneStampAll is the historical clone-per-event happens-before stamper
// (Table 1 with a fresh Clone for every stamped clock), kept verbatim as
// the differential reference for the segment-snapshot engine in internal/hb.
func cloneStampAll(tr *trace.Trace) error {
	threads := map[vclock.Tid]vclock.VC{}
	locks := map[trace.LockID]vclock.VC{}
	chans := map[trace.ChanID][]vclock.VC{}
	clockOf := func(t vclock.Tid) vclock.VC {
		c, ok := threads[t]
		if !ok {
			c = vclock.VC(nil).Inc(t)
			threads[t] = c
		}
		return c
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		t := e.Thread
		ct := clockOf(t)
		switch e.Kind {
		case trace.ForkEvent:
			if _, exists := threads[e.Other]; exists {
				return fmt.Errorf("thread t%d forked twice", e.Other)
			}
			e.Clock = ct.Clone()
			threads[e.Other] = ct.Clone().Inc(e.Other)
			threads[t] = ct.Inc(t)
		case trace.JoinEvent:
			cu, ok := threads[e.Other]
			if !ok {
				return fmt.Errorf("join on unknown thread t%d", e.Other)
			}
			threads[t] = ct.Join(cu)
			e.Clock = threads[t].Clone()
		case trace.AcquireEvent:
			threads[t] = ct.Join(locks[e.Lock])
			e.Clock = threads[t].Clone()
		case trace.ReleaseEvent:
			e.Clock = ct.Clone()
			locks[e.Lock] = ct.Clone()
			threads[t] = ct.Inc(t)
		case trace.SendEvent:
			e.Clock = ct.Clone()
			chans[e.Chan] = append(chans[e.Chan], ct.Clone())
			threads[t] = ct.Inc(t)
		case trace.RecvEvent:
			q := chans[e.Chan]
			if len(q) == 0 {
				return fmt.Errorf("receive on channel c%d with no pending send", e.Chan)
			}
			msg := q[0]
			chans[e.Chan] = q[1:]
			threads[t] = ct.Join(msg)
			e.Clock = threads[t].Clone()
		default:
			e.Clock = ct.Clone()
		}
	}
	return nil
}

// unstampedCopy returns a private raw copy of the trace so each stamper
// stamps its own events.
func unstampedCopy(tr *trace.Trace) *trace.Trace {
	ev := make([]trace.Event, len(tr.Events))
	copy(ev, tr.Events)
	for i := range ev {
		ev[i].Clock = nil
	}
	return &trace.Trace{Events: ev}
}

// detectStamped runs a serial detector over an already-stamped trace
// without re-stamping it.
func detectStamped(t *testing.T, tr *trace.Trace, objects int) *core.Detector {
	t.Helper()
	d := core.New(core.Config{})
	for o := 0; o < objects; o++ {
		d.Register(trace.ObjID(o), dictRep)
	}
	for i := range tr.Events {
		if err := d.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestDifferentialSnapshotVsCloneStamping is the stamping differential the
// tentpole's acceptance criterion requires: on randomized traces, the
// zero-clone snapshot stamper must produce byte-identical Event.Clock
// values to the historical clone-per-event stamper, and both stampings must
// drive the serial detector and the sharded pipeline to identical race
// verdicts.
func TestDifferentialSnapshotVsCloneStamping(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.Threads, gcfg.Objects, gcfg.Keys = 5, 4, 3
	gcfg.OpsMin, gcfg.OpsMax = 10, 30
	for _, seed := range []int64{41, 42, 43, 44, 45, 46, 47, 48} {
		r := rand.New(rand.NewSource(seed))
		snapTr := trace.Generate(r, gcfg)
		cloneTr := trace.Generate(rand.New(rand.NewSource(seed)), gcfg) // identical trace

		if err := hb.StampAll(snapTr); err != nil {
			t.Fatal(err)
		}
		if err := cloneStampAll(cloneTr); err != nil {
			t.Fatal(err)
		}

		for i := range snapTr.Events {
			got, want := snapTr.Events[i].Clock, cloneTr.Events[i].Clock
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: event %d (%s): snapshot clock %s != clone clock %s",
					seed, i, snapTr.Events[i].String(), got, want)
			}
		}

		// Identical race verdicts: serial on both stampings, sharded on the
		// snapshot stamping.
		serialClone := detectStamped(t, cloneTr, gcfg.Objects)
		serialSnap := detectStamped(t, snapTr, gcfg.Objects)
		if got, want := serialSnap.Stats().Races, serialClone.Stats().Races; got != want {
			t.Fatalf("seed %d: serial races differ: snapshot %d, clone %d", seed, got, want)
		}
		wantRaces := append([]core.Race(nil), serialClone.Races()...)
		core.SortRaces(wantRaces)
		gotRaces := append([]core.Race(nil), serialSnap.Races()...)
		core.SortRaces(gotRaces)
		for i := range wantRaces {
			if raceKey(gotRaces[i]) != raceKey(wantRaces[i]) {
				t.Fatalf("seed %d: serial race[%d] differs: %v vs %v",
					seed, i, raceKey(gotRaces[i]), raceKey(wantRaces[i]))
			}
		}

		for _, shards := range []int{1, 3} {
			p := runParallel(t, snapTr, gcfg.Objects, Config{Shards: shards, BatchSize: 8})
			if got, want := p.Stats().Races, serialClone.Stats().Races; got != want {
				t.Errorf("seed %d shards %d: races = %d, want %d", seed, shards, got, want)
			}
			got := p.Races()
			if len(got) != len(wantRaces) {
				t.Fatalf("seed %d shards %d: %d retained races, want %d", seed, shards, len(got), len(wantRaces))
			}
			for i := range got {
				if raceKey(got[i]) != raceKey(wantRaces[i]) {
					t.Errorf("seed %d shards %d: race[%d] = %v, want %v",
						seed, shards, i, raceKey(got[i]), raceKey(wantRaces[i]))
				}
			}
		}
	}
}

// TestCorpusStampingByteIdentical holds the three stampers to one another
// over every trace in examples/traces (text and binary formats): the
// batch stamper hb.StampAll, the incremental hb.Stream (the rd2d ingest
// front end), and the clone-per-event reference must produce equal clocks
// on every event.
func TestCorpusStampingByteIdentical(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "traces")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := wire.ParseAny(f)
		f.Close()
		if err != nil {
			t.Fatalf("parsing %s: %v", ent.Name(), err)
		}
		n++

		ref := unstampedCopy(tr)
		if err := cloneStampAll(ref); err != nil {
			t.Fatalf("%s: clone reference: %v", ent.Name(), err)
		}
		batch := unstampedCopy(tr)
		if err := hb.StampAll(batch); err != nil {
			t.Fatalf("%s: StampAll: %v", ent.Name(), err)
		}
		st := hb.NewStream(unstampedCopy(tr).Source())
		for i := range ref.Events {
			e, err := st.Next()
			if err != nil {
				t.Fatalf("%s: Stream ended after %d of %d events: %v", ent.Name(), i, len(ref.Events), err)
			}
			want := ref.Events[i].Clock
			if got := batch.Events[i].Clock; !slices.Equal(got, want) {
				t.Fatalf("%s event %d (%s): StampAll clock %s, reference %s",
					ent.Name(), i, ref.Events[i].String(), got, want)
			}
			if !slices.Equal(e.Clock, want) {
				t.Fatalf("%s event %d (%s): Stream clock %s, reference %s",
					ent.Name(), i, ref.Events[i].String(), e.Clock, want)
			}
		}
		if _, err := st.Next(); err != io.EOF {
			t.Fatalf("%s: Stream after last event: %v, want EOF", ent.Name(), err)
		}
	}
	if n == 0 {
		t.Fatal("empty trace corpus")
	}
}
