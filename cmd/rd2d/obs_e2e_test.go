package main

// End-to-end acceptance for the fleet observability surfaces: two client
// sessions stream concurrently into one daemon wired to a private metric
// registry, and the test checks the operator's view — /sessions rows with
// disjoint per-session figures, all five stage histograms populated, the
// per-session /metrics filter, and a Prometheus scrape whose per-session
// series sum to the rolled-up global series. A -fleet session must show
// its own four stages (no shard dispatch).

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

func TestDaemonObservabilityEndToEnd(t *testing.T) {
	obs.SetEnabled(true)
	root := obs.NewRegistry()

	trA := loadCorpusTrace(t, filepath.Join("..", "..", "examples", "traces", "fig3.trace"))
	trB := loadCorpusTrace(t, filepath.Join("..", "..", "examples", "traces", "dict-rand.trace"))
	if trA.Len() == trB.Len() {
		t.Fatalf("corpus traces must differ in length to prove per-session isolation (both %d)", trA.Len())
	}

	var report bytes.Buffer
	d, done := testDaemonCfg(t, &report, func(c *daemonConfig) { c.obsRoot = root })

	sums := map[string]wire.Summary{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, st := range []struct {
		sid string
		tr  *trace.Trace
	}{{"alpha", trA}, {"beta", trB}} {
		st := st
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := wire.DialSession(d.Addr(), st.sid, 2*time.Second)
			if err != nil {
				t.Errorf("%s: %v", st.sid, err)
				return
			}
			if err := cl.SendSource(st.tr.Source()); err != nil {
				t.Errorf("%s: send: %v", st.sid, err)
				return
			}
			sum, err := cl.Close(15 * time.Second)
			if err != nil {
				t.Errorf("%s: close: %v", st.sid, err)
				return
			}
			mu.Lock()
			sums[st.sid] = sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("client streams failed")
	}
	if sums["alpha"].Races == 0 {
		t.Fatalf("fig3 session found no races; stage.report cannot be exercised: %+v", sums["alpha"])
	}

	h := d.httpHandler()

	// /sessions: one row per session, each with its own event count.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
	if rec.Code != 200 {
		t.Fatalf("/sessions: HTTP %d", rec.Code)
	}
	var rows []sessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("/sessions: %v\n%s", err, rec.Body.String())
	}
	byID := map[string]sessionInfo{}
	for _, r := range rows {
		byID[r.Session] = r
	}
	if len(byID) != 2 {
		t.Fatalf("/sessions: %d distinct sessions, want 2:\n%s", len(byID), rec.Body.String())
	}
	for sid, tr := range map[string]*trace.Trace{"alpha": trA, "beta": trB} {
		row, ok := byID[sid]
		if !ok {
			t.Fatalf("/sessions: no row for %q", sid)
		}
		if row.State != "completed" {
			t.Errorf("%s: state %q, want completed", sid, row.State)
		}
		if row.Events != tr.Len() {
			t.Errorf("%s: %d events in /sessions, want %d (its own trace only)", sid, row.Events, tr.Len())
		}
		if row.Races != uint64(sums[sid].Races) {
			t.Errorf("%s: %d races in /sessions, summary says %d", sid, row.Races, sums[sid].Races)
		}
		if row.LastSeq != sums[sid].Seq {
			t.Errorf("%s: last_seq %d, summary seq %d", sid, row.LastSeq, sums[sid].Seq)
		}
	}

	// All five pipeline stages must have populated their latency histograms
	// for the racy session (stage.report only fires when records are written).
	stages := []string{obs.StageDecode, obs.StageStamp,
		obs.StageDispatch, obs.StageDetect, obs.StageReport}
	for _, st := range stages {
		if byID["alpha"].Stages[st].Count == 0 {
			t.Errorf("alpha: stage %q has no samples: %+v", st, byID["alpha"].Stages)
		}
	}
	for _, st := range stages[:4] {
		if byID["beta"].Stages[st].Count == 0 {
			t.Errorf("beta: stage %q has no samples: %+v", st, byID["beta"].Stages)
		}
	}

	// Per-session metrics filter: known scope is served, unknown is a 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?session=alpha", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "rd2d.events") {
		t.Fatalf("/metrics?session=alpha: HTTP %d\n%s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?session=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("/metrics?session=nope: HTTP %d, want 404", rec.Code)
	}

	// Prometheus exposition: parse strictly, then check that for every
	// additive series carrying a session label, the per-session samples sum
	// to the label-free rolled-up global sample.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prom", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics?format=prom: HTTP %d", rec.Code)
	}
	samples, err := obs.ParsePrometheus(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("prom scrape does not parse: %v", err)
	}
	perSession := map[string]float64{}
	global := map[string]float64{}
	for _, s := range samples {
		if _, isBucket := s.Labels["le"]; isBucket || strings.HasSuffix(s.Name, "_peak") {
			continue // bucket and high-watermark series are not plain sums
		}
		if _, scoped := s.Labels["session"]; scoped {
			perSession[s.Name] += s.Value
		} else {
			global[s.Name] = s.Value
		}
	}
	if len(perSession) == 0 {
		t.Fatalf("prom scrape has no session-labelled series:\n%s", rec.Body.String())
	}
	for name, sum := range perSession {
		got, ok := global[name]
		if !ok {
			t.Errorf("prom: per-session series %q has no rolled-up global series", name)
			continue
		}
		if got != sum {
			t.Errorf("prom: %s global %v != sum of per-session series %v", name, got, sum)
		}
	}

	// The shared JSONL report carries both sessions' records with dense
	// per-session seqs even when their writes interleave.
	raceLines(t, &report)

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// A -fleet session runs one serial detector with no shards: its stages
	// are decode, stamp, detect (recorded by the runner) and report, with
	// no dispatch.
	froot := obs.NewRegistry()
	var freport bytes.Buffer
	fd, fdone := testDaemonCfg(t, &freport, func(c *daemonConfig) {
		c.obsRoot = froot
		c.fleet, c.fleetWorkers = true, 2
	})
	fsum := streamOnce(t, fd, trA, "")
	var frow *sessionInfo
	for _, in := range fd.sessionInfos() {
		in := in
		frow = &in
	}
	if frow == nil || frow.Events != trA.Len() || frow.Races != uint64(fsum.Races) {
		t.Fatalf("fleet /sessions row %+v, want %d events and %d races", frow, trA.Len(), fsum.Races)
	}
	for _, st := range []string{obs.StageDecode, obs.StageStamp, obs.StageDetect, obs.StageReport} {
		if frow.Stages[st].Count == 0 {
			t.Errorf("fleet: stage %q has no samples: %+v", st, frow.Stages)
		}
	}
	if n := frow.Stages[obs.StageDetect].Count; n != uint64(trA.Len()) {
		t.Errorf("fleet: stage.detect counted %d events, want %d", n, trA.Len())
	}
	if _, ok := frow.Stages[obs.StageDispatch]; ok {
		t.Errorf("fleet: stage.dispatch recorded without shards: %+v", frow.Stages)
	}
	fd.Shutdown()
	if err := <-fdone; err != nil {
		t.Fatalf("fleet Serve: %v", err)
	}
}
