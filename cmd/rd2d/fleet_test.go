package main

// Fleet-mode acceptance: the shared-worker scheduler must be a drop-in
// replacement for the per-connection pipeline (identical verdicts over the
// corpus), enforce admission and per-tenant quotas at the wire, keep its
// goroutine count O(workers) rather than O(sessions), stay fair to
// background tenants under a saturating hot tenant, and survive the chaos
// harness (hundreds of severed-and-resumed sessions across tenants) with
// no lost or duplicated verdicts.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// streamOnce runs one plain-client session against d and returns the summary.
func streamOnce(t *testing.T, d *daemon, tr *trace.Trace, tenant string) wire.Summary {
	t.Helper()
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		if err := cl.SetTenant(tenant); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := cl.Close(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestFleetDifferentialCorpus is the fleet-vs-perconn oracle: every corpus
// trace must produce the identical summary and the identical JSONL race set
// whether it runs on a dedicated pipeline or on the shared worker pool.
// Compaction is disabled on both sides so reported point clocks render
// byte-identically regardless of when a worker got around to compacting.
func TestFleetDifferentialCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus traces found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			tr := loadCorpusTrace(t, path)
			if tr.Len() == 0 {
				t.Skip("empty trace")
			}

			run := func(fleetMode bool) (wire.Summary, []string) {
				var report bytes.Buffer
				d, done := testDaemonCfg(t, &report, func(c *daemonConfig) {
					c.compactOps = 0
					if fleetMode {
						c.fleet = true
						c.fleetWorkers = 2
					}
				})
				sum := streamOnce(t, d, tr, "")
				d.Shutdown()
				if err := <-done; err != nil {
					t.Fatalf("Serve: %v", err)
				}
				return sum, raceLines(t, &report)
			}

			baseSum, baseRaces := run(false)
			fleetSum, fleetRaces := run(true)

			if baseSum.Error != "" || !baseSum.Clean || baseSum.Events != tr.Len() {
				t.Fatalf("per-conn summary %+v, want clean over %d events", baseSum, tr.Len())
			}
			if fleetSum.Error != "" || !fleetSum.Clean || fleetSum.Events != tr.Len() {
				t.Fatalf("fleet summary %+v, want clean over %d events", fleetSum, tr.Len())
			}
			if fleetSum.Races != baseSum.Races {
				t.Fatalf("fleet found %d races, per-conn found %d", fleetSum.Races, baseSum.Races)
			}
			if len(fleetRaces) != len(baseRaces) {
				t.Fatalf("fleet wrote %d race records, per-conn %d", len(fleetRaces), len(baseRaces))
			}
			for i := range fleetRaces {
				if fleetRaces[i] != baseRaces[i] {
					t.Fatalf("race record %d differs:\n  fleet:    %s\n  per-conn: %s",
						i, fleetRaces[i], baseRaces[i])
				}
			}
		})
	}
}

// TestMaxSessionsCapWithoutFleet checks the -max-sessions hard cap with
// fleet scheduling OFF: the scheduler still gates admission, the cap+1-th
// connection gets an explicit busy summary (ErrBusy at the client), the
// reject is counted in obs, and releasing a session frees the slot.
func TestMaxSessionsCapWithoutFleet(t *testing.T) {
	obs.SetEnabled(true)
	busyBefore := obsBusy.Load()
	tr, _ := racyTrace(t)
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.maxSessions = 2
	})

	// Two resident sessions: hello + one event each, connection held open.
	var held []*wire.Client
	for i := 0; i < 2; i++ {
		cl, err := wire.Dial(d.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, cl)
		if err := cl.WriteEvent(&tr.Events[0]); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitTenantSessions(t, d, fleet.DefaultTenant, 2)

	// The third hello must be shed with a wire-level busy reject.
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteEvent(&tr.Events[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := cl.Close(5 * time.Second)
	if !errors.Is(err, wire.ErrBusy) {
		t.Fatalf("over-cap close: err = %v, want ErrBusy (summary %+v)", err, sum)
	}
	if !sum.Busy || sum.Error == "" {
		t.Fatalf("over-cap summary %+v, want busy with a reason", sum)
	}
	if got := obsBusy.Load(); got != busyBefore+1 {
		t.Fatalf("busy reject counter = %d, want %d", got, busyBefore+1)
	}

	// Dropping one resident session frees its slot for a full run.
	held[0].Abort()
	waitTenantSessions(t, d, fleet.DefaultTenant, 1)
	if sum := streamOnce(t, d, tr, ""); sum.Busy || sum.Error != "" {
		t.Fatalf("post-release session: %+v, want admitted and clean", sum)
	}

	held[1].Abort()
	waitTenantSessions(t, d, fleet.DefaultTenant, 0)
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// waitTenantSessions polls the scheduler until the tenant holds exactly n
// resident sessions (0 is satisfied by the tenant being absent entirely).
func waitTenantSessions(t *testing.T, d *daemon, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		for _, ts := range d.sched.Tenants() {
			if ts.Name == tenant {
				got = ts.Sessions
			}
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q has %d resident sessions, want %d", tenant, got, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetParkedSessionsGoroutineBudget parks a crowd of resumable fleet
// sessions (connection severed mid-stream, state resident awaiting resume)
// and checks the daemon's goroutine count stayed O(workers): a parked fleet
// session is a run-queue entry plus heap state, not a goroutine. The final
// shutdown then mass-finalizes every parked session through the shared
// workers, which must drain without losing Serve.
func TestFleetParkedSessionsGoroutineBudget(t *testing.T) {
	tr, _ := racyTrace(t)
	const sessions = 24
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.fleet = true
		c.fleetWorkers = 2
		c.idleTimeout = time.Minute // keep parked sessions resident while we count
	})

	baseline := settledGoroutines()

	// Raw stream prefix: header+hello plus the first chunk, then a hard
	// close. All sids share one length so one layout fits every session.
	const frameSize = 96
	layoutSid := sidForPark(0)
	prefix, chunks := sessionLayout(t, tr, frameSize, layoutSid)
	if len(chunks) < 2 {
		t.Fatalf("trace encodes to %d chunks at frame size %d, need >= 2", len(chunks), frameSize)
	}
	for i := 0; i < sessions; i++ {
		sid := sidForPark(i)
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		enc.FrameSize = frameSize
		if err := enc.SetSession(sid); err != nil {
			t.Fatal(err)
		}
		for j := range tr.Events {
			if err := enc.WriteEvent(&tr.Events[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf.Bytes()[:prefix+chunks[0]]); err != nil {
			t.Fatalf("session %d: write: %v", i, err)
		}
		conn.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, in := range d.sessionInfos() {
			if in.State == "parked" {
				parked++
			}
		}
		if parked == sessions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions parked, want %d", parked, sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := settledGoroutines(); got > baseline+sessions/2 {
		t.Fatalf("goroutines grew from %d to %d across %d parked sessions; want O(workers), not O(sessions)",
			baseline, got, sessions)
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func sidForPark(i int) string { return fmt.Sprintf("park-%03d", i) }

// settledGoroutines samples runtime.NumGoroutine until two consecutive
// reads agree, filtering out goroutines that are mid-exit.
func settledGoroutines() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestFleetMultiTenantChaos is the fleet chaos acceptance: ~a hundred
// concurrent resumable sessions spread across three tenants, every one of
// them severed mid-stream by a proxy and resumed, against a fleet daemon
// running each tenant at its session quota. Every session must finish with
// the exact event count and race verdicts of an unsevered baseline — no
// lost or duplicated verdicts — and every quota slot must be released.
func TestFleetMultiTenantChaos(t *testing.T) {
	tr := loadCorpusTrace(t, filepath.Join("..", "..", "examples", "traces", "dict-rand.trace"))

	// Unsevered per-conn baseline for the expected summary and race set.
	var baseReport bytes.Buffer
	bd, bdone := testDaemonCfg(t, &baseReport, func(c *daemonConfig) { c.compactOps = 0 })
	baseSum := streamOnce(t, bd, tr, "")
	bd.Shutdown()
	if err := <-bdone; err != nil {
		t.Fatalf("baseline Serve: %v", err)
	}
	if baseSum.Error != "" || !baseSum.Clean {
		t.Fatalf("baseline summary %+v", baseSum)
	}
	baseRaces := raceLines(t, &baseReport)

	tenants := []string{"red", "blu", "grn"}
	perTenant := 34
	if testing.Short() {
		perTenant = 8
	}
	quotas := map[string]fleet.Quota{}
	for _, tn := range tenants {
		quotas[tn] = fleet.Quota{MaxSessions: perTenant}
	}
	var report bytes.Buffer
	d, done := testDaemonCfg(t, &report, func(c *daemonConfig) {
		c.fleet = true
		c.compactOps = 0
		c.tenantQuotas = quotas
		c.idleTimeout = time.Minute
	})

	// Chunk layout (all sids share one length) for mid-stream cut offsets.
	const frameSize = 128
	prefix, chunks := sessionLayout(t, tr, frameSize, sidForChaos(tenants[0], 0))
	if len(chunks) < 3 {
		t.Fatalf("trace encodes to %d chunks, need >= 3 for varied cuts", len(chunks))
	}
	cutAt := func(i int) int64 {
		// Rotate the sever point across every resumable boundary short of
		// end-of-stream so each session is cut, none trivially completes.
		cut := int64(prefix)
		for k := 0; k <= i%(len(chunks)-1); k++ {
			cut += int64(chunks[k])
		}
		return cut
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*perTenant)
	for _, tn := range tenants {
		for i := 0; i < perTenant; i++ {
			tn, i := tn, i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sid := sidForChaos(tn, i)
				proxy := newSeverProxy(t, d, sid, cutAt(i))
				rc, err := wire.DialSession(proxy.addr(), sid, 2*time.Second)
				if err != nil {
					errs <- fmt.Errorf("%s: dial: %w", sid, err)
					return
				}
				if err := rc.SetTenant(tn); err != nil {
					errs <- fmt.Errorf("%s: %w", sid, err)
					return
				}
				rc.SetFrameSize(frameSize)
				rc.Backoff = 5 * time.Millisecond
				rc.Retries = 8
				if err := rc.SendSource(tr.Source()); err != nil {
					errs <- fmt.Errorf("%s: send: %w", sid, err)
					return
				}
				sum, err := rc.Close(30 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("%s: close: %w", sid, err)
					return
				}
				switch {
				case sum.Error != "" || !sum.Clean || sum.Degraded:
					errs <- fmt.Errorf("%s: summary %+v, want clean", sid, sum)
				case sum.Events != tr.Len():
					errs <- fmt.Errorf("%s: %d events analyzed, want %d (no loss, no duplication)", sid, sum.Events, tr.Len())
				case sum.Races != baseSum.Races:
					errs <- fmt.Errorf("%s: %d races, baseline %d", sid, sum.Races, baseSum.Races)
				case sum.Resumes < 1:
					errs <- fmt.Errorf("%s: never resumed (cut=%d)", sid, cutAt(i))
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every quota slot must be back: completed sessions release admission
	// even though their table entries linger for observability.
	for _, tn := range tenants {
		waitTenantSessions(t, d, tn, 0)
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// The shared JSONL report must hold exactly perTenant*len(tenants)
	// copies of the baseline race multiset — raceLines already enforced a
	// dense per-session seq, so duplicates or gaps cannot hide.
	got := raceLines(t, &report)
	want := make([]string, 0, len(baseRaces)*len(tenants)*perTenant)
	for _, line := range baseRaces {
		for i := 0; i < len(tenants)*perTenant; i++ {
			want = append(want, line)
		}
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("chaos run wrote %d race records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("race record %d differs:\n  got:  %s\n  want: %s", i, got[i], want[i])
		}
	}
}

func sidForChaos(tenant string, i int) string { return fmt.Sprintf("%s-%03d", tenant, i) }

// hogRunnable is a synthetic always-runnable fleet entry: it claims every
// grant in full and reports more work until stopped, occupying its worker
// for simulated detection time on each quantum.
type hogRunnable struct {
	stop   atomic.Bool
	grants atomic.Int64
}

func (h *hogRunnable) RunQuantum(n int) (int, bool) {
	h.grants.Add(1)
	time.Sleep(50 * time.Microsecond)
	return n, !h.stop.Load()
}

// TestFleetNoStarvationUnderHotTenant pins the pool to ONE worker and
// saturates it with three never-finishing hot-tenant entries registered
// straight on the scheduler, then streams a real background-tenant session
// through the daemon. Deficit round robin owes the background tenant a
// grant every round, so the session must complete with exact verdicts; a
// FIFO or per-session scheduler would starve it behind the infinite hot
// backlog and time out.
func TestFleetNoStarvationUnderHotTenant(t *testing.T) {
	// A few thousand events keep the background session in flight long
	// enough that the worker is demonstrably contended the whole way.
	gen := trace.GenConfig{
		Threads: 4, Objects: 3, Keys: 8, Vals: 4, Locks: 2,
		OpsMin: 500, OpsMax: 500, PSize: 10, PGet: 40, PLocked: 25, PRemove: 25,
	}
	tr := trace.Generate(rand.New(rand.NewSource(7)), gen)
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	det := core.New(core.Config{})
	for _, e := range tr.Events {
		if e.Kind == trace.ActionEvent {
			det.Register(e.Act.Obj, rep)
		}
	}
	if err := det.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	wantRaces := det.Stats().Races

	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.fleet = true
		c.fleetWorkers = 1
		c.fleetQuantum = 64
	})

	hogs := make([]*hogRunnable, 3)
	entries := make([]*fleet.Entry, 3)
	for i := range hogs {
		hogs[i] = &hogRunnable{}
		entries[i] = d.sched.Register("hot", hogs[i])
		entries[i].Wake()
	}

	sum := streamOnce(t, d, tr, "bg")
	if sum.Error != "" || !sum.Clean || sum.Events != tr.Len() || sum.Races != wantRaces {
		t.Fatalf("background summary %+v, want clean with %d events / %d races",
			sum, tr.Len(), wantRaces)
	}
	// The hot tenant really was saturating the single worker the whole time.
	var hotGrants int64
	for _, h := range hogs {
		hotGrants += h.grants.Load()
	}
	if hotGrants < 10 {
		t.Fatalf("hot tenant got only %d grants; the worker was never contended", hotGrants)
	}

	for i, h := range hogs {
		h.stop.Store(true)
		entries[i].Close()
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestFleetTenantSurfaces checks the operator surfaces grew the tenant
// dimension: /sessions rows carry tenant and scheduler state, the stats
// table prints a per-tenant rollup, and /tenants serves the scheduler's
// per-tenant snapshot.
func TestFleetTenantSurfaces(t *testing.T) {
	obs.SetEnabled(true)
	tr, wantRaces := racyTrace(t)
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.fleet = true
		c.fleetWorkers = 2
	})
	if sum := streamOnce(t, d, tr, "acme"); sum.Races != wantRaces || sum.Error != "" {
		t.Fatalf("summary %+v, want %d races", sum, wantRaces)
	}

	var row *sessionInfo
	for _, in := range d.sessionInfos() {
		in := in
		if in.Tenant == "acme" {
			row = &in
		}
	}
	if row == nil {
		t.Fatal("/sessions has no row for tenant acme")
	}
	if row.Sched == "" {
		t.Fatalf("session row %+v has no scheduler state", row)
	}

	table := d.formatStatsTable(time.Second, time.Second, map[string]int{})
	if !strings.Contains(table, "TENANT") || !strings.Contains(table, "acme") {
		t.Fatalf("stats table missing tenant column or row:\n%s", table)
	}
	if !strings.Contains(table, "tenant acme") {
		t.Fatalf("stats table missing per-tenant rollup:\n%s", table)
	}

	srv := httptest.NewServer(d.httpHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats []fleet.TenantStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range stats {
		if ts.Name == "acme" {
			found = true
			if ts.Events == 0 {
				t.Fatalf("/tenants row %+v shows no ingested events", ts)
			}
		}
	}
	if !found {
		t.Fatalf("/tenants missing tenant acme: %+v", stats)
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestFleetSurvivesInjectedWorkerPanic arms the worker panic injector with
// the fleet scheduler on: the quantum's recover must degrade the session
// (partial but honest summary, the runner counted as a failed unit), the
// shared worker pool must keep serving other sessions, and shutdown must
// stay clean — one poisoned session cannot take down the fleet. The
// recovery log line must name the exact event the quantum panicked on.
func TestFleetSurvivesInjectedWorkerPanic(t *testing.T) {
	tr, _ := racyTrace(t)
	const panicAt = 10
	var logs logBuffer
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.fleet = true
		c.fleetWorkers = 2
		c.injectWorkerPanic = panicAt
		c.logger = log.New(&logs, "", 0)
	})

	sum := streamOnce(t, d, tr, "acme")
	if !sum.Degraded {
		t.Fatalf("fleet worker panic not marked degraded: %+v", sum)
	}
	if sum.ShardPanics < 1 {
		t.Fatalf("summary shard_panics = %d, want >= 1 (the runner)", sum.ShardPanics)
	}
	if sum.Events == 0 || sum.Events >= tr.Len() {
		t.Fatalf("degraded fleet session analyzed %d events, want partial (0 < n < %d)",
			sum.Events, tr.Len())
	}

	// The pool survived: a second session (degraded too — the injector is
	// armed per session) still gets its summary through the same workers.
	sum = streamOnce(t, d, tr, "acme")
	if !sum.Degraded || sum.ShardPanics < 1 {
		t.Fatalf("second fleet session after panic: %+v", sum)
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.degraded.Load(); got != 2 {
		t.Fatalf("daemon degraded counter = %d, want 2", got)
	}
	requirePanicLines(t, logs.String(), tr, panicAt, 2)
}
