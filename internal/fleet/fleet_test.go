package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// enableObs flips the global instrumentation switch for tests that
// assert on fleet.* counters, restoring it afterwards.
func enableObs(t *testing.T) {
	t.Helper()
	old := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(old) })
}

// testClock is a manually advanced clock injected as Scheduler.now, so
// bucket refills are deterministic. It starts at the real current time
// because New seeds the global bucket from the real clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Now()} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBucket(t *testing.T) {
	now := time.Now()
	b := newBucket(100, 10, now) // 100 tok/s, depth 10, starts full

	if d := b.take(10, now); d != 0 {
		t.Fatalf("full bucket refused burst: wait %v", d)
	}
	if d := b.take(1, now); d == 0 {
		t.Fatal("empty bucket granted a token")
	}
	// 50ms accrues 5 tokens.
	now = now.Add(50 * time.Millisecond)
	if d := b.take(5, now); d != 0 {
		t.Fatalf("refill missing: wait %v", d)
	}
	// Overdraft: forceTake always lands, then overdrawn until repaid.
	b.forceTake(20, now)
	if !b.overdrawn(now) {
		t.Fatal("bucket not overdrawn after forceTake")
	}
	if !b.overdrawn(now.Add(100 * time.Millisecond)) {
		t.Fatal("overdraft repaid too early")
	}
	if b.overdrawn(now.Add(300 * time.Millisecond)) {
		t.Fatal("overdraft not repaid by refill")
	}
	// Refill clamps at burst.
	b2 := newBucket(100, 10, now)
	b2.take(10, now)
	b2.refill(now.Add(time.Hour))
	if b2.tok != 10 {
		t.Fatalf("burst clamp: tok = %v, want 10", b2.tok)
	}
}

func TestAdmitSessionTable(t *testing.T) {
	enableObs(t)
	s := New(Config{MaxSessions: 2})
	defer s.Stop()

	rel1, err := s.Admit("a")
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	rel2, err := s.Admit("b")
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	_, err = s.Admit("c")
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("admit over cap: err = %v, want *BusyError", err)
	}
	if busy.Tenant != "c" {
		t.Fatalf("busy tenant = %q, want c", busy.Tenant)
	}
	if got := s.ob.rejects.Load(); got != 1 {
		t.Fatalf("fleet.rejects = %d, want 1", got)
	}

	rel1()
	rel1() // idempotent: must not free a second slot
	if _, err := s.Admit("c"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if _, err := s.Admit("d"); err == nil {
		t.Fatal("double release freed two slots")
	}
	rel2()
}

func TestAdmitTenantQuotas(t *testing.T) {
	s := New(Config{
		Tenants: map[string]Quota{"small": {MaxSessions: 1}},
	})
	defer s.Stop()

	rel, err := s.Admit("small")
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if _, err := s.Admit("small"); err == nil {
		t.Fatal("tenant session quota not enforced")
	}
	// Other tenants are unaffected.
	if _, err := s.Admit("other"); err != nil {
		t.Fatalf("admit other tenant: %v", err)
	}
	rel()
	if _, err := s.Admit("small"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestAdmitArenaQuota(t *testing.T) {
	s := New(Config{
		Tenants: map[string]Quota{"mem": {MaxArenaBytes: 1 << 20}},
	})
	defer s.Stop()

	e := s.Register("mem", runFunc(func(n int) (int, bool) { return 0, false }))
	e.SetArenaBytes(2 << 20)
	if _, err := s.Admit("mem"); err == nil {
		t.Fatal("arena quota not enforced")
	}
	e.SetArenaBytes(1 << 19)
	if _, err := s.Admit("mem"); err != nil {
		t.Fatalf("admit under quota: %v", err)
	}
	e.Close()
	if got := s.Tenants()[0].ArenaBytes; got != 0 {
		t.Fatalf("arena bytes after entry close = %d, want 0", got)
	}
}

func TestAdmitGlobalOverdraft(t *testing.T) {
	clk := newTestClock()
	s := New(Config{GlobalEventsPerSec: 100, GlobalBurst: 10})
	s.now = clk.Now
	defer s.Stop()

	th := s.Throttle("a")
	th.Wait(50) // tenant unlimited: never blocks, overdrafts the global budget
	if _, err := s.Admit("b"); err == nil {
		t.Fatal("admission open while global budget overdrawn")
	}
	clk.Advance(2 * time.Second) // budget repaid
	if _, err := s.Admit("b"); err != nil {
		t.Fatalf("admit after budget repaid: %v", err)
	}
}

// runFunc adapts a function to Runnable.
type runFunc func(n int) (int, bool)

func (f runFunc) RunQuantum(n int) (int, bool) { return f(n) }

// drainRun is a Runnable with a fixed amount of work; it also snapshots
// a peer's progress at the moment it finishes, for fairness assertions.
type drainRun struct {
	mu        sync.Mutex
	remaining int
	used      int
	grants    []int
	onDone    func()
	done      chan struct{}
}

func newDrainRun(work int) *drainRun {
	return &drainRun{remaining: work, done: make(chan struct{})}
}

func (r *drainRun) RunQuantum(n int) (int, bool) {
	r.mu.Lock()
	u := n
	if u > r.remaining {
		u = r.remaining
	}
	r.remaining -= u
	r.used += u
	r.grants = append(r.grants, u)
	fin := r.remaining == 0
	onDone := r.onDone
	r.mu.Unlock()
	if fin {
		if onDone != nil {
			onDone()
		}
		close(r.done)
		return u, false
	}
	return u, true
}

// gateRun is a Runnable whose one quantum blocks until its channel
// closes, holding a worker.
type gateRun chan struct{}

func (g gateRun) RunQuantum(int) (int, bool) {
	<-g
	return 0, false
}

func (r *drainRun) usedNow() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

func waitDone(t *testing.T, r *drainRun) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		t.Fatal("runnable did not drain")
	}
}

// With one worker and one entry per tenant, DRR is strict alternation:
// each tenant gets exactly one quantum per round.
func TestDRRAlternation(t *testing.T) {
	const quantum = 10
	s := New(Config{Workers: 1, Quantum: quantum})
	ra, rb := newDrainRun(100), newDrainRun(100)
	ea := s.Register("a", ra)
	eb := s.Register("b", rb)
	ea.Wake()
	eb.Wake()
	waitDone(t, ra)
	waitDone(t, rb)
	s.Stop()

	for _, r := range []*drainRun{ra, rb} {
		if len(r.grants) != 10 {
			t.Fatalf("grants = %v, want ten rounds of %d", r.grants, quantum)
		}
		for _, g := range r.grants {
			if g != quantum {
				t.Fatalf("grants = %v, want all %d", r.grants, quantum)
			}
		}
	}
	ea.Close()
	eb.Close()
	if st := ea.State(); st != "closed" {
		t.Fatalf("closed entry state = %q", st)
	}
}

// A tenant with many queued sessions earns the same per-round grant as
// a tenant with one: when the single-session tenant finishes its N
// events, the three-session tenant must not have consumed more than
// N + O(quantum) events in total.
func TestDRRTenantFairness(t *testing.T) {
	const quantum = 10
	s := New(Config{Workers: 1, Quantum: quantum})

	hot := []*drainRun{newDrainRun(100), newDrainRun(100), newDrainRun(100)}
	bg := newDrainRun(100)
	var hotAtBgDone atomic.Int64
	bg.onDone = func() {
		var sum int
		for _, r := range hot {
			sum += r.usedNow()
		}
		hotAtBgDone.Store(int64(sum))
	}
	// The gate holds the only worker until both tenants are queued, so
	// neither gets a head start of unopposed rounds.
	gate := make(chan struct{})
	s.Register("gate", gateRun(gate)).Wake()
	for _, r := range hot {
		s.Register("hot", r).Wake()
	}
	s.Register("bg", bg).Wake()
	close(gate)

	waitDone(t, bg)
	for _, r := range hot {
		waitDone(t, r)
	}
	s.Stop()

	// While bg drained its 100 events, tenant "hot" should have been
	// granted ~100 events total across its three sessions (one quantum
	// per round for each tenant), not ~300.
	got := hotAtBgDone.Load()
	if got < 100-2*quantum || got > 100+2*quantum {
		t.Fatalf("hot tenant consumed %d events while bg consumed 100; want ~100", got)
	}
}

// A parked (idle) entry re-runs when woken, and work enqueued around
// the park/run boundary is never lost.
func TestWakeAfterIdle(t *testing.T) {
	s := New(Config{Workers: 2, Quantum: 4})
	defer s.Stop()

	var processed atomic.Int64
	var pending atomic.Int64
	r := runFunc(func(n int) (int, bool) {
		used := 0
		for used < n && pending.Load() > 0 {
			pending.Add(-1)
			processed.Add(1)
			used++
		}
		return used, pending.Load() > 0
	})
	e := s.Register("a", r)

	const total = 5000
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				pending.Add(1)
				e.Wake()
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for processed.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d/%d events", processed.Load(), total)
		}
		e.Wake() // pending>0 guarantees a wake is legal; loop covers lost-wake bugs
		time.Sleep(time.Millisecond)
	}
}

// Stop drains queued quanta before the workers exit.
func TestStopDrains(t *testing.T) {
	s := New(Config{Workers: 2, Quantum: 8})
	runs := make([]*drainRun, 6)
	for i := range runs {
		runs[i] = newDrainRun(64)
		s.Register("t", runs[i]).Wake()
	}
	s.Stop()
	for i, r := range runs {
		select {
		case <-r.done:
		default:
			t.Fatalf("entry %d not drained at Stop: used %d/64", i, r.usedNow())
		}
	}
	if _, err := s.Admit("t"); err == nil {
		t.Fatal("admission open after Stop")
	}
}

// A panicking Runnable is absorbed: counted, dropped, and the worker
// keeps serving other entries.
func TestRunnablePanicBackstop(t *testing.T) {
	enableObs(t)
	var logged atomic.Int64
	s := New(Config{
		Workers: 1,
		Logf:    func(string, ...any) { logged.Add(1) },
	})
	s.Register("bad", runFunc(func(int) (int, bool) { panic("boom") })).Wake()
	good := newDrainRun(10)
	s.Register("good", good).Wake()
	waitDone(t, good)
	s.Stop()
	if got := s.ob.panics.Load(); got != 1 {
		t.Fatalf("fleet.panics = %d, want 1", got)
	}
	if logged.Load() == 0 {
		t.Fatal("panic not logged")
	}
}

// Throttle.Wait blocks a hot tenant at its events/s quota but leaves an
// unlimited tenant untouched; sleeps route through the injectable
// sleeper so the test is fast and deterministic.
func TestThrottleWait(t *testing.T) {
	clk := newTestClock()
	s := New(Config{
		Tenants: map[string]Quota{"hot": {EventsPerSec: 1000, Burst: 100}},
	})
	s.now = clk.Now
	var slept atomic.Int64
	s.sleep = func(d time.Duration) {
		slept.Add(int64(d))
		clk.Advance(d)
	}
	defer s.Stop()

	free := s.Throttle("free")
	free.Wait(1 << 20)
	if slept.Load() != 0 {
		t.Fatal("unlimited tenant slept")
	}

	hot := s.Throttle("hot")
	hot.Wait(100) // burst covers this
	if slept.Load() != 0 {
		t.Fatalf("burst not honored: slept %v", time.Duration(slept.Load()))
	}
	hot.Wait(500) // must wait ~500ms at 1000 ev/s
	got := time.Duration(slept.Load())
	if got < 300*time.Millisecond || got > 800*time.Millisecond {
		t.Fatalf("throttle slept %v for 500 events at 1000/s; want ~500ms", got)
	}
	if hot.Stalling() {
		t.Fatal("Stalling still set after Wait returned")
	}
}

func TestTenantsSnapshot(t *testing.T) {
	enableObs(t)
	s := New(Config{MaxSessions: 1})
	defer s.Stop()
	rel, err := s.Admit("b")
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	defer rel()
	s.Throttle("a").Wait(7)
	ts := s.Tenants()
	if len(ts) != 2 || ts[0].Name != "a" || ts[1].Name != "b" {
		t.Fatalf("tenants = %+v, want [a b]", ts)
	}
	if ts[0].Events != 7 {
		t.Fatalf("tenant a events = %d, want 7", ts[0].Events)
	}
	if ts[1].Sessions != 1 {
		t.Fatalf("tenant b sessions = %d, want 1", ts[1].Sessions)
	}
}
