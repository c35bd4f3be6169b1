package main

// Durable-session tests (DESIGN.md §15): a daemon "crash" here is a daemon
// that is simply abandoned — no Shutdown, no listener close, nothing
// flushed or finalized — so its on-disk state is exactly what a SIGKILL
// would leave behind (its goroutines leak for the test binary's lifetime,
// which is the price of an in-process crash). A second daemon rehydrates
// the same state dir and the resumed stream must reproduce the verdicts of
// an uninterrupted run, down to the JSONL race records and their per-session
// seq numbering — including when the snapshot is torn or the WAL tail is
// truncated between the two lives.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// encodeSession encodes tr as a resumable session stream (no end frame).
func encodeSession(t *testing.T, tr *trace.Trace, sid string, frameSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = frameSize
	if err := enc.SetSession(sid); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// severInto writes data into addr, half-closes, and drains acks until the
// daemon parks the session and closes the connection — a deterministic
// mid-stream connection loss.
func severInto(t *testing.T, addr string, data []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	io.Copy(io.Discard, conn)
}

// waitParked blocks until sid's session is parked with a drained queue,
// plus a beat for the worker to finish its in-flight event and checkpoint.
func waitParked(t *testing.T, d *daemon, sid string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		s := d.sessions[sid]
		d.mu.Unlock()
		if s != nil {
			s.mu.Lock()
			parked := s.state == stateParked
			s.mu.Unlock()
			if parked && len(s.queue) == 0 {
				time.Sleep(100 * time.Millisecond)
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("session never parked")
}

func waitFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never appeared", path)
}

func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never removed", path)
}

// durableRestartDiff is the crash/restart differential: stream a prefix
// into a durable daemon, crash it, optionally corrupt the on-disk state,
// rehydrate a second daemon over the same state dir, resume with a fresh
// client, and hold summary plus JSONL verdicts to an uninterrupted
// baseline run of the same worker mode.
func durableRestartDiff(t *testing.T, mode string, corrupt func(t *testing.T, sdir, sid string)) {
	tr, _ := racyTrace(t)
	const sid = "dur"
	modeCfg := func(c *daemonConfig) {
		switch mode {
		case "fleet":
			c.fleet = true
		}
		c.obsRoot = obs.NewRegistry()
	}

	data := encodeSession(t, tr, sid, 1<<20) // probe: one big frame
	frameSize := len(data) / 6
	if frameSize < 64 {
		frameSize = 64
	}
	data = encodeSession(t, tr, sid, frameSize)
	cut := len(data) * 3 / 5

	// Baseline: same mode, no state dir, unsevered.
	var baseReport bytes.Buffer
	bd, bdone := testDaemonCfg(t, &baseReport, modeCfg)
	brc, err := wire.DialSession(bd.Addr(), sid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	brc.SetFrameSize(frameSize)
	if err := brc.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	baseSum, err := brc.Close(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bd.Shutdown()
	if err := <-bdone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if baseSum.Error != "" || !baseSum.Clean || baseSum.Events != tr.Len() {
		t.Fatalf("baseline summary %+v, want clean over %d events", baseSum, tr.Len())
	}
	baseRaces := raceLines(t, &baseReport)

	// Phase 1: partial stream into the durable daemon, then crash it.
	stateDir := t.TempDir()
	reportPath := filepath.Join(t.TempDir(), "report.jsonl")
	rep1, err := os.Create(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := testDaemonCfg(t, nil, func(c *daemonConfig) {
		modeCfg(c)
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = time.Hour
		c.reporter = core.NewReportWriter(rep1)
	})
	severInto(t, d1.Addr(), data[:cut])
	waitParked(t, d1, sid)
	sdir := filepath.Join(stateDir, sid)
	waitFile(t, filepath.Join(sdir, "wal"))
	waitFile(t, filepath.Join(sdir, "snap.ckpt"))
	rep1.Close()
	// Crash: abandon d1. Its parked session, open WAL fd, and TTL timer
	// leak; the state dir holds whatever was durable at this instant.

	if corrupt != nil {
		corrupt(t, sdir, sid)
	}

	// Phase 2: rehydrate a fresh daemon over the same state dir and resume.
	seqs, err := scanReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := os.OpenFile(reportPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	d2, done2 := testDaemonCfg(t, nil, func(c *daemonConfig) {
		modeCfg(c)
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = time.Hour
		c.reporter = core.NewReportWriter(rep2)
		c.reportSeqs = seqs
	})
	d2.rehydrate()
	d2.mu.Lock()
	_, rehydrated := d2.sessions[sid]
	d2.mu.Unlock()
	if !rehydrated {
		t.Fatal("session not rehydrated from the state dir")
	}

	// A fresh client resends the whole stream with the same chunking; the
	// rehydrated decoder state deduplicates the already-ingested prefix.
	rc, err := wire.DialSession(d2.Addr(), sid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rc.SetFrameSize(frameSize)
	if err := rc.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := rc.Close(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d2.Shutdown()
	if err := <-done2; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	if sum.Error != "" || !sum.Clean || sum.Degraded {
		t.Fatalf("resumed summary %+v, want clean undegraded", sum)
	}
	if sum.Events != tr.Len() {
		t.Fatalf("resumed session analyzed %d events, want %d (no loss, no duplication)", sum.Events, tr.Len())
	}
	if sum.Races != baseSum.Races {
		t.Fatalf("resumed session found %d races, baseline %d", sum.Races, baseSum.Races)
	}
	if sum.Resumes < 1 {
		t.Fatalf("resumed session reports %d resumes, want >= 1", sum.Resumes)
	}

	// The JSONL report across both daemon lives must match the baseline
	// record-for-record, with dense per-session seq numbering (raceLines
	// checks density, so a replay that re-emitted or skipped records fails
	// here even before the content comparison).
	reportData, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	got := raceLines(t, bytes.NewBuffer(reportData))
	if len(got) != len(baseRaces) {
		t.Fatalf("%d race records across the restart, baseline %d", len(got), len(baseRaces))
	}
	for i := range got {
		if got[i] != baseRaces[i] {
			t.Fatalf("race record %d differs:\n  restarted: %s\n  baseline:  %s", i, got[i], baseRaces[i])
		}
	}

	// A cleanly completed session's durability obligation is over.
	waitGone(t, sdir)
}

// TestDurableRestartDifferential runs the crash/restart differential in
// both worker modes: the serial pipeline worker and fleet quanta on the
// shared pool.
func TestDurableRestartDifferential(t *testing.T) {
	for _, mode := range []string{"serial", "fleet"} {
		t.Run(mode, func(t *testing.T) { durableRestartDiff(t, mode, nil) })
	}
}

// TestDurableTornSnapshotRecovery flips a bit in the snapshot between the
// crash and the restart (a machine-crash artifact tmp+rename cannot
// prevent). The CRC rejects it, recovery replays the WAL from byte zero,
// and the verdicts still match the baseline.
func TestDurableTornSnapshotRecovery(t *testing.T) {
	durableRestartDiff(t, "serial", func(t *testing.T, sdir, _ string) {
		if err := faultinject.FlipFileBits(filepath.Join(sdir, "snap.ckpt"), 7, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableTruncatedWALRecovery removes the snapshot and truncates the
// WAL mid-stream: genesis replay hits the torn tail, truncates it, and the
// resuming client's resend covers everything the cut lost (those frames'
// acks died with the daemon or are resent anyway by a fresh client).
func TestDurableTruncatedWALRecovery(t *testing.T) {
	durableRestartDiff(t, "serial", func(t *testing.T, sdir, sid string) {
		if err := os.Remove(filepath.Join(sdir, "snap.ckpt")); err != nil {
			t.Fatal(err)
		}
		hdr := len(wire.AppendStreamHeader(nil, sid, "default"))
		if err := faultinject.TruncateFile(filepath.Join(sdir, "wal"), 11, hdr+1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableSnapshotBeyondWALRecovery keeps a valid snapshot but cuts the
// WAL below the offset it references (a machine crash that lost WAL pages
// after the snapshot renamed into place). The loader must treat the
// snapshot as torn and fall back to genesis replay rather than seeking
// past the end of the file.
func TestDurableSnapshotBeyondWALRecovery(t *testing.T) {
	durableRestartDiff(t, "serial", func(t *testing.T, sdir, sid string) {
		meta, _, _, err := loadSnapshot(filepath.Join(sdir, "snap.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		hdr := int64(len(wire.AppendStreamHeader(nil, sid, "default")))
		cut := meta.WalOff - 1
		if cut <= hdr {
			t.Fatalf("snapshot wal offset %d leaves no room below it", meta.WalOff)
		}
		if err := os.Truncate(filepath.Join(sdir, "wal"), cut); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableExpiredStateGC ages a crashed session's state past the resume
// TTL: rehydration must garbage-collect it instead of resurrecting a
// session whose client has long given up — and a brand-new session under
// the same id must start a clean first life (fresh seq numbering, full
// verdicts).
func TestDurableExpiredStateGC(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	const sid = "dur-expired"
	data := encodeSession(t, tr, sid, 256)

	stateDir := t.TempDir()
	d1, _ := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = time.Hour
	})
	severInto(t, d1.Addr(), data[:len(data)*3/5])
	waitParked(t, d1, sid)
	sdir := filepath.Join(stateDir, sid)
	waitFile(t, filepath.Join(sdir, "wal"))
	// Crash d1, then age the state two hours into the past.
	old := time.Now().Add(-2 * time.Hour)
	for _, name := range []string{"wal", "snap.ckpt"} {
		p := filepath.Join(sdir, name)
		if _, err := os.Stat(p); err == nil {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}

	var report bytes.Buffer
	d2, done2 := testDaemonCfg(t, &report, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
		c.stateDir = stateDir
		c.resumeTTL = time.Minute
	})
	d2.rehydrate()
	if _, err := os.Stat(sdir); !os.IsNotExist(err) {
		t.Fatalf("expired state dir %s survived rehydration", sdir)
	}
	d2.mu.Lock()
	_, resurrected := d2.sessions[sid]
	d2.mu.Unlock()
	if resurrected {
		t.Fatal("expired session resurrected into the session table")
	}

	// The same sid starts a fresh life: full verdicts, seq from 1.
	rc, err := wire.DialSession(d2.Addr(), sid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := rc.Close(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d2.Shutdown()
	if err := <-done2; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if sum.Error != "" || !sum.Clean || sum.Races != wantRaces || sum.Events != tr.Len() {
		t.Fatalf("fresh-life summary %+v, want clean %d races over %d events", sum, wantRaces, tr.Len())
	}
	if got := raceLines(t, &report); len(got) != wantRaces {
		t.Fatalf("fresh life wrote %d race records, want %d (stale seq suppression leaked?)", len(got), wantRaces)
	}
}

// TestDurableLiveTTLDestroysState: when a parked durable session's resume
// TTL expires in a live daemon, finalize must remove its state dir — the
// durability obligation ends with the session.
func TestDurableLiveTTLDestroysState(t *testing.T) {
	tr, _ := racyTrace(t)
	const sid = "dur-ttl"
	data := encodeSession(t, tr, sid, 256)

	stateDir := t.TempDir()
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = 300 * time.Millisecond
	})
	severInto(t, d.Addr(), data[:len(data)*3/5])
	waitGone(t, filepath.Join(stateDir, sid))
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDurableSnapshotCodecRoundTrip pins the snapshot serialization: every
// field of the metadata, engine, and detector sections survives a write →
// load cycle, including nil vector clocks (epoch form) and nil values.
func TestDurableSnapshotCodecRoundTrip(t *testing.T) {
	meta := snapMeta{
		SID: "s-1", Tenant: "acme", Spec: "dict",
		Events: 42, WalOff: 1234, Resumes: 2, ReporterSeq: 7,
		Registered: []trace.ObjID{1, 3, 9},
		DecState: wire.DecoderState{
			Version: 2, SID: "s-1", Tenant: "acme",
			Intern: []string{"put", "get"},
			Events: 42, Frames: 5, ExpectChunk: 6, SeenChunk: true,
			DupChunks: 1, SkippedBytes: 10, SkippedFrames: 2, Resyncs: 1,
		},
	}
	en := &hb.EngineState{
		Threads: []hb.ThreadClock{
			{Seen: true, Clock: vclock.VC{1, 2, 3}},
			{Seen: true, Dead: true, Clock: vclock.VC{0, 5}},
			{}, // never seen: nil clock
		},
		Locks: []hb.LockClock{{Lock: 1, Clock: vclock.VC{4}}},
		Chans: []hb.ChanClocks{{Chan: 2, Queue: []vclock.VC{{1}, {2, 2}}}},
	}
	det := &core.DetectorState{
		Objects: []core.ObjectExport{{Obj: 1, Points: []core.PointExport{
			{
				Pt:    ap.Point{Class: 1, Val: trace.IntValue(5)},
				Epoch: vclock.Epoch{T: 1, C: 3},
				LastAct: trace.Action{
					Obj: 1, Method: "put",
					Args: []trace.Value{trace.IntValue(1), trace.StrValue("x"), trace.NilValue},
					Rets: []trace.Value{trace.BoolValue(true)},
				},
				LastThread: 2, LastSeq: 17,
			},
			{
				Pt: ap.Point{Class: 2, Val: trace.StrValue("k")},
				VC: vclock.VC{3, 1},
			},
		}}},
		RacyObjs: []trace.ObjID{1},
		DeadRacy: 1,
		Stats: core.Stats{
			Actions: 10, Checks: 9, Races: 1, RacyEvents: 2,
			ActivePoints: 2, PeakActive: 3, Reclaimed: 4,
		},
	}

	var buf bytes.Buffer
	if err := writeSnapshot(&buf, &meta, en, det); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	gm, gen, gdet, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*gm, meta) {
		t.Errorf("meta round trip:\n got %+v\nwant %+v", *gm, meta)
	}
	if !reflect.DeepEqual(gen, en) {
		t.Errorf("engine round trip:\n got %+v\nwant %+v", gen, en)
	}
	if !reflect.DeepEqual(gdet, det) {
		t.Errorf("detector round trip:\n got %+v\nwant %+v", gdet, det)
	}

	// Any corruption — a flipped bit anywhere, a truncated tail, an empty
	// file — must be rejected, never half-loaded.
	data := buf.Bytes()
	for _, off := range []int{1, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := loadSnapshot(path); err == nil {
			t.Errorf("bit flip at offset %d loaded without error", off)
		}
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSnapshot(path); err == nil {
		t.Error("truncated snapshot loaded without error")
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSnapshot(path); err == nil {
		t.Error("empty snapshot loaded without error")
	}
}

// TestScanReport pins the report-file recovery scan: per-session high-water
// seqs, degraded notes skipped, and a torn final line truncated in place.
func TestScanReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.jsonl")
	if seqs, err := scanReport(path); err != nil || len(seqs) != 0 {
		t.Fatalf("missing report: seqs=%v err=%v, want empty, nil", seqs, err)
	}
	content := `{"session":"a","seq":1,"object":1}
{"session":"a","seq":2,"object":2}
{"note":"degraded","session":"a","seq":9}
{"session":"b","seq":1,"object":3}
{"session":"a","seq":3,"obj`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, err := scanReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if seqs["a"] != 2 || seqs["b"] != 1 || len(seqs) != 2 {
		t.Fatalf("seqs = %v, want a:2 b:1 (note skipped, torn line dropped)", seqs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"seq":3`)) || data[len(data)-1] != '\n' {
		t.Fatalf("torn line not truncated: %q", data)
	}
}

// TestHealthzPhases checks the /healthz readiness surface: 200 only while
// serving, 503 with the phase name during rehydration and drain.
func TestHealthzPhases(t *testing.T) {
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
	})
	h := d.httpHandler()
	get := func() (int, string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		return rr.Code, rr.Body.String()
	}
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("serving healthz = %d %q, want 200 ok", code, body)
	}
	d.phase.Store(phaseRehydrating)
	if code, body := get(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("rehydrating")) {
		t.Fatalf("rehydrating healthz = %d %q, want 503 rehydrating", code, body)
	}
	d.phase.Store(phaseServing)
	d.Shutdown()
	if code, body := get(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, body)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
