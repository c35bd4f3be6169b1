package hb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/vclock"
)

func mustStamp(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if err := StampAll(tr); err != nil {
		t.Fatal(err)
	}
}

func TestForkOrdersParentBeforeChild(t *testing.T) {
	tr := trace.NewBuilder().
		Get(0, 0, trace.StrValue("k"), trace.NilValue). // before fork
		Fork(0, 1).
		Get(1, 0, trace.StrValue("k"), trace.NilValue). // child
		Get(0, 0, trace.StrValue("k"), trace.NilValue). // parent after fork
		Trace()
	mustStamp(t, tr)
	before, child, after := tr.Events[0].Clock, tr.Events[2].Clock, tr.Events[3].Clock
	if !before.LEQ(child) {
		t.Error("pre-fork parent event must happen before child events")
	}
	if !child.Concurrent(after) {
		t.Error("child and post-fork parent events must be concurrent")
	}
}

func TestJoinOrdersChildBeforeParent(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).
		Get(1, 0, trace.StrValue("k"), trace.NilValue).
		Join(0, 1).
		Size(0, 0, 0).
		Trace()
	mustStamp(t, tr)
	child, after := tr.Events[1].Clock, tr.Events[3].Clock
	if !child.LEQ(after) {
		t.Error("joined child's events must happen before parent's later events")
	}
}

func TestLockOrdersCriticalSections(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Acquire(1, 0).
		Get(1, 0, trace.StrValue("k"), trace.NilValue).
		Release(1, 0).
		Acquire(2, 0).
		Get(2, 0, trace.StrValue("k"), trace.NilValue).
		Release(2, 0).
		Trace()
	mustStamp(t, tr)
	first, second := tr.Events[3].Clock, tr.Events[6].Clock
	if !first.LEQ(second) {
		t.Error("critical sections on the same lock must be ordered")
	}
}

func TestDifferentLocksDoNotOrder(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Acquire(1, 0).
		Get(1, 0, trace.StrValue("k"), trace.NilValue).
		Release(1, 0).
		Acquire(2, 1).
		Get(2, 0, trace.StrValue("k"), trace.NilValue).
		Release(2, 1).
		Trace()
	mustStamp(t, tr)
	first, second := tr.Events[3].Clock, tr.Events[6].Clock
	if !first.Concurrent(second) {
		t.Error("critical sections on different locks must stay concurrent")
	}
}

func TestFig3Structure(t *testing.T) {
	// The execution of Fig 3: main forks τ2 and τ3; both put 'a.com'; main
	// joins both and calls size. The two puts must be concurrent, and both
	// must happen before the size.
	aCom := trace.StrValue("a.com")
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(2, 0, aCom, trace.IntValue(1), trace.NilValue).
		Put(1, 0, aCom, trace.IntValue(2), trace.IntValue(1)).
		JoinAll(0, 1, 2).
		Size(0, 0, 1).
		Trace()
	mustStamp(t, tr)
	a1, a2 := tr.Events[2].Clock, tr.Events[3].Clock
	a3 := tr.Events[6].Clock
	if !a1.Concurrent(a2) {
		t.Errorf("a1 %v and a2 %v must be concurrent", a1, a2)
	}
	if !a1.LEQ(a3) || !a2.LEQ(a3) {
		t.Errorf("a1 %v and a2 %v must both precede a3 %v", a1, a2, a3)
	}
}

func TestSameThreadOrdered(t *testing.T) {
	tr := trace.NewBuilder().
		Get(0, 0, trace.StrValue("a"), trace.NilValue).
		Get(0, 0, trace.StrValue("b"), trace.NilValue).
		Trace()
	mustStamp(t, tr)
	if tr.Events[0].Clock.Concurrent(tr.Events[1].Clock) {
		t.Error("same-thread events are never concurrent")
	}
}

func TestErrors(t *testing.T) {
	en := New()
	ev := trace.Join(0, 9)
	if _, err := en.Process(&ev); err == nil {
		t.Error("join of unknown thread should fail")
	}
	f1 := trace.Fork(0, 1)
	if _, err := en.Process(&f1); err != nil {
		t.Fatal(err)
	}
	f2 := trace.Fork(0, 1)
	if _, err := en.Process(&f2); err == nil {
		t.Error("double fork should fail")
	}
	bad := trace.Event{Kind: trace.EventKind(99), Thread: 0}
	if _, err := en.Process(&bad); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestStampAllErrorMentionsEvent(t *testing.T) {
	tr := trace.NewBuilder().Fork(0, 1).Join(0, 7).Trace()
	if err := StampAll(tr); err == nil {
		t.Fatal("expected error")
	}
}

func TestThreadsAndLockClock(t *testing.T) {
	en := New()
	en.ThreadClock(0)
	en.ThreadClock(3)
	if en.Threads() != 2 {
		t.Fatalf("Threads = %d", en.Threads())
	}
	if !en.LockClock(5).Bottom() {
		t.Fatal("unreleased lock clock must be bottom")
	}
	rel := trace.Release(0, 5)
	if _, err := en.Process(&rel); err != nil {
		t.Fatal(err)
	}
	if en.LockClock(5).Bottom() {
		t.Fatal("released lock clock must carry the releaser's clock")
	}
}

func TestRootThreadsConcurrent(t *testing.T) {
	// Two threads that appear without any fork relation are incomparable.
	tr := trace.NewBuilder().
		Get(0, 0, trace.StrValue("k"), trace.NilValue).
		Get(1, 0, trace.StrValue("k"), trace.NilValue).
		Trace()
	mustStamp(t, tr)
	if !tr.Events[0].Clock.Concurrent(tr.Events[1].Clock) {
		t.Error("unrelated root threads must be concurrent")
	}
}

// reachable computes the reference happens-before relation of a well-formed
// trace as the transitive closure of program order, fork edges, join edges
// and lock-chain edges.
func reachable(tr *trace.Trace) [][]bool {
	n := tr.Len()
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	lastOf := map[vclock.Tid]int{}
	forkOf := map[vclock.Tid]int{}
	lastRel := map[trace.LockID]int{}
	for i, e := range tr.Events {
		if p, ok := lastOf[e.Thread]; ok {
			adj[p][i] = true
		} else if f, ok := forkOf[e.Thread]; ok {
			adj[f][i] = true
		}
		lastOf[e.Thread] = i
		switch e.Kind {
		case trace.ForkEvent:
			forkOf[e.Other] = i
		case trace.JoinEvent:
			if p, ok := lastOf[e.Other]; ok {
				adj[p][i] = true
			} else if f, ok := forkOf[e.Other]; ok {
				adj[f][i] = true
			}
		case trace.AcquireEvent:
			if p, ok := lastRel[e.Lock]; ok {
				adj[p][i] = true
			}
		case trace.ReleaseEvent:
			lastRel[e.Lock] = i
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !adj[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if adj[k][j] {
					adj[i][j] = true
				}
			}
		}
	}
	return adj
}

func TestPropClocksMatchReferenceHB(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := trace.Generate(r, cfg)
		if err := StampAll(tr); err != nil {
			t.Logf("stamp: %v", err)
			return false
		}
		reach := reachable(tr)
		for i := 0; i < tr.Len(); i++ {
			for j := i + 1; j < tr.Len(); j++ {
				ei, ej := tr.Events[i], tr.Events[j]
				if ei.Thread == ej.Thread {
					// Program order: clocks must not claim the reverse.
					if !ei.Clock.LEQ(ej.Clock) {
						t.Logf("seed %d: program order violated at %d,%d", seed, i, j)
						return false
					}
					continue
				}
				want := reach[i][j]
				got := ei.Clock.LEQ(ej.Clock)
				if got != want {
					t.Logf("seed %d: events %d(%s) and %d(%s): vc says %v, reference says %v",
						seed, i, ei.String(), j, ej.String(), got, want)
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProcessAction(b *testing.B) {
	en := New()
	f := trace.Fork(0, 1)
	if _, err := en.Process(&f); err != nil {
		b.Fatal(err)
	}
	ev := trace.Act(1, trace.Action{Obj: 0, Method: "get",
		Args: []trace.Value{trace.StrValue("k")}, Rets: []trace.Value{trace.NilValue}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := en.Process(&ev); err != nil {
			b.Fatal(err)
		}
	}
}

func TestChannelOrdersSendBeforeRecv(t *testing.T) {
	tr := trace.NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(1, 0, trace.StrValue("k"), trace.IntValue(1), trace.NilValue).
		Trace()
	tr.Append(trace.Send(1, 0))
	tr.Append(trace.Recv(2, 0))
	tr.Append(trace.Act(2, trace.Action{Obj: 0, Method: "get",
		Args: []trace.Value{trace.StrValue("k")}, Rets: []trace.Value{trace.IntValue(1)}}))
	mustStamp(t, tr)
	putClock := tr.Events[2].Clock
	getClock := tr.Events[5].Clock
	if !putClock.LEQ(getClock) {
		t.Errorf("channel handoff must order put %s before get %s", putClock, getClock)
	}
}

func TestChannelFIFOMatching(t *testing.T) {
	// Two sends by different threads, two receives: first recv pairs with
	// first send.
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	tr.Append(trace.Fork(0, 2))
	tr.Append(trace.Fork(0, 3))
	tr.Append(trace.Send(1, 0)) // msg 1
	tr.Append(trace.Send(2, 0)) // msg 2
	tr.Append(trace.Recv(3, 0)) // gets msg 1: ordered after t1's send only
	mustStamp(t, tr)
	send1 := tr.Events[3].Clock
	send2 := tr.Events[4].Clock
	recv := tr.Events[5].Clock
	if !send1.LEQ(recv) {
		t.Error("first send must order before first recv")
	}
	if send2.LEQ(recv) {
		t.Error("second send must stay concurrent with first recv")
	}
}

func TestRecvWithoutSendFails(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Recv(0, 0))
	if err := StampAll(tr); err == nil {
		t.Fatal("recv without send must fail")
	}
}

// TestTransactionEndKeepsThreadLive: Begin/End delimit a transaction, not
// the thread's life. A thread that closed a transaction can still act, so
// MeetLive must keep its clock: here t1's later put races with t2's put,
// and a meet that left t1 out would dominate t2's put and let compaction
// reclaim the point the race needs.
func TestTransactionEndKeepsThreadLive(t *testing.T) {
	tr, err := trace.Parse(strings.NewReader(`t0 fork t1
t0 fork t2
t1 begin
t1 end
t2 act o0.put("a", 1)/nil
t0 join t2
t1 act o0.put("a", 2)/1
t0 join t1
`))
	if err != nil {
		t.Fatal(err)
	}
	en := New()
	for i := 0; i < 6; i++ { // through t0 join t2
		if _, err := en.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	put := tr.Events[4].Clock
	if meet := en.MeetLive(); put.LEQ(meet) {
		t.Fatalf("MeetLive %s dominates t2's put %s although t1 is still live", meet, put)
	}
	for i := 6; i < len(tr.Events); i++ {
		if _, err := en.Process(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if put.LEQ(tr.Events[6].Clock) {
		t.Fatalf("t1's put %s is ordered after t2's put %s; want a race", tr.Events[6].Clock, put)
	}
	if meet := en.MeetLive(); !meet.Equal(en.ThreadClock(0)) {
		t.Fatalf("after both joins MeetLive = %s, want t0's clock %s", meet, en.ThreadClock(0))
	}
}
