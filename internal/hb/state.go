package hb

import (
	"fmt"
	"sort"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Durable-session state transfer (DESIGN.md §15): an Engine's entire
// analysis state is its thread clocks, lock clocks, and in-flight channel
// message clocks — all plain vector clocks once the segment-sharing
// discipline is stripped. ExportState deep-copies them into a
// self-contained EngineState; ImportState rebuilds a fresh engine that
// stamps the continuation of the stream with clocks equal (as values) to
// the uninterrupted run's. Segment bookkeeping (shared/tok) is *not*
// carried over: imported clocks start as private mutable segment heads, and
// the first freeze re-enters the sharing discipline. That changes which
// events share snapshot pointers, never the clock values, so detection
// verdicts are unaffected.

// ThreadClock is one thread's exported slot.
type ThreadClock struct {
	Seen  bool
	Dead  bool
	Clock vclock.VC
}

// ChanClocks is one channel's in-flight message clocks, oldest first.
type ChanClocks struct {
	Chan  trace.ChanID
	Queue []vclock.VC
}

// LockClock is one lock's exported clock L(l).
type LockClock struct {
	Lock  trace.LockID
	Clock vclock.VC
}

// EngineState is a self-contained export of an Engine. Locks and channels
// are sorted by id so serializations are deterministic.
type EngineState struct {
	Threads []ThreadClock
	Locks   []LockClock
	Chans   []ChanClocks
}

// ExportState deep-copies the engine's analysis state. The engine remains
// usable; the export shares no memory with it.
func (en *Engine) ExportState() *EngineState {
	st := &EngineState{Threads: make([]ThreadClock, len(en.threads))}
	for i, ts := range en.threads {
		st.Threads[i] = ThreadClock{Seen: ts.seen, Dead: ts.dead, Clock: cloneVC(ts.clock)}
	}
	for l, c := range en.locks {
		st.Locks = append(st.Locks, LockClock{Lock: l, Clock: cloneVC(c)})
	}
	sort.Slice(st.Locks, func(i, j int) bool { return st.Locks[i].Lock < st.Locks[j].Lock })
	for ch, cs := range en.chans {
		if cs == nil || len(cs.queue) == 0 {
			continue
		}
		q := make([]vclock.VC, len(cs.queue))
		for i, c := range cs.queue {
			q[i] = cloneVC(c)
		}
		st.Chans = append(st.Chans, ChanClocks{Chan: ch, Queue: q})
	}
	sort.Slice(st.Chans, func(i, j int) bool { return st.Chans[i].Chan < st.Chans[j].Chan })
	return st
}

// ImportState loads an export into the engine, which must be fresh (no
// events processed). Clocks are copied in as private mutable segment heads
// with clean segment bookkeeping.
func (en *Engine) ImportState(st *EngineState) error {
	if len(en.threads) != 0 || en.seen != 0 || len(en.locks) != 0 || len(en.chans) != 0 {
		return fmt.Errorf("hb: ImportState into a non-fresh engine")
	}
	en.threads = make([]threadState, len(st.Threads))
	for i, tc := range st.Threads {
		en.threads[i] = threadState{clock: cloneVC(tc.Clock), seen: tc.Seen, dead: tc.Dead}
		if tc.Seen {
			en.seen++
		}
	}
	for _, lc := range st.Locks {
		en.locks[lc.Lock] = cloneVC(lc.Clock)
	}
	for _, cc := range st.Chans {
		q := make([]vclock.VC, len(cc.Queue))
		for i, c := range cc.Queue {
			q[i] = cloneVC(c)
		}
		en.chans[cc.Chan] = &chanState{queue: q}
	}
	return nil
}

func cloneVC(c vclock.VC) vclock.VC {
	if c == nil {
		return nil
	}
	return append(vclock.VC(nil), c...)
}
