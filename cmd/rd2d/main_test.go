package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// racyTrace returns a generated dictionary workload with at least one race
// under the dict spec, plus the offline (in-memory, serial) race count it
// must match when streamed.
func racyTrace(t *testing.T) (*trace.Trace, int) {
	t.Helper()
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 50; seed++ {
		cfg := trace.GenConfig{
			Threads: 4, Objects: 3, Keys: 4, Vals: 3, Locks: 2,
			OpsMin: 8, OpsMax: 16, PSize: 15, PGet: 35, PLocked: 30, PRemove: 25,
		}
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		det := core.New(core.Config{})
		for _, e := range tr.Events {
			if e.Kind == trace.ActionEvent {
				det.Register(e.Act.Obj, rep)
			}
		}
		if err := det.RunTrace(tr); err != nil {
			t.Fatal(err)
		}
		if n := det.Stats().Races; n > 0 {
			return tr, n
		}
	}
	t.Fatal("no seed under 50 produced a racy trace")
	return nil, 0
}

func testDaemon(t *testing.T, report *bytes.Buffer) (*daemon, chan error) {
	return testDaemonCfg(t, report, nil)
}

// testDaemonCfg is testDaemon with a config mutator hook (fault-injection
// and resilience tests arm injectors / resync / TTLs through it).
func testDaemonCfg(t *testing.T, report *bytes.Buffer, mut func(*daemonConfig)) (*daemon, chan error) {
	t.Helper()
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemonConfig{
		defaultRep:  rep,
		defaultSpec: "dict",
		shards:      2,
		queueLen:    64,
		idleTimeout: 5 * time.Second,
		compactOps:  32,
	}
	if report != nil {
		cfg.reporter = core.NewReportWriter(report)
	}
	if mut != nil {
		mut(&cfg)
	}
	d, err := newDaemon("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve() }()
	return d, done
}

// TestDaemonEndToEnd streams a trace through a live daemon and checks the
// session summary against offline in-memory detection.
func TestDaemonEndToEnd(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	var report bytes.Buffer
	d, done := testDaemon(t, &report)

	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := cl.Close(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Error != "" {
		t.Fatalf("session error: %s", sum.Error)
	}
	if !sum.Clean {
		t.Fatal("summary not clean despite end-of-stream frame")
	}
	if sum.Events != tr.Len() {
		t.Fatalf("summary events = %d, want %d", sum.Events, tr.Len())
	}
	if sum.Races != wantRaces {
		t.Fatalf("streamed detection found %d races, offline found %d", sum.Races, wantRaces)
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := d.cfg.reporter.Count(); n != wantRaces {
		t.Fatalf("JSONL report has %d records, want %d", n, wantRaces)
	}
	if got := d.totalRaces.Load(); got != int64(wantRaces) {
		t.Fatalf("daemon total races = %d, want %d", got, wantRaces)
	}
}

// TestDaemonConcurrentSessions runs several clients at once; sessions are
// independent, so every summary must match the offline count.
func TestDaemonConcurrentSessions(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	d, done := testDaemon(t, nil)

	const clients = 4
	errs := make(chan error, clients)
	sums := make(chan wire.Summary, clients)
	for i := 0; i < clients; i++ {
		go func() {
			cl, err := wire.Dial(d.Addr(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if err := cl.SendSource(tr.Source()); err != nil {
				errs <- err
				return
			}
			sum, err := cl.Close(10 * time.Second)
			if err != nil {
				errs <- err
				return
			}
			sums <- sum
		}()
	}
	for i := 0; i < clients; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case sum := <-sums:
			if sum.Error != "" || sum.Races != wantRaces || sum.Events != tr.Len() {
				t.Fatalf("session summary %+v, want %d races over %d events", sum, wantRaces, tr.Len())
			}
		}
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.totalRaces.Load(); got != int64(clients*wantRaces) {
		t.Fatalf("daemon total races = %d, want %d", got, clients*wantRaces)
	}
}

// TestDaemonDrainMidStream starts a stream, never finishes it, and calls
// Shutdown while the connection is open. The daemon must cut the read,
// analyze everything already flushed, write a complete final report, and
// still acknowledge the session with a summary marked unclean.
func TestDaemonDrainMidStream(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	var report bytes.Buffer
	obs.SetEnabled(true) // the wait below counts stamped events
	d, done := testDaemonCfg(t, &report, func(c *daemonConfig) { c.obsRoot = obs.NewRegistry() })

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Flush the frames but send no end-of-stream; hold the socket open so
	// the daemon's reader is blocked mid-stream.
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	// Let the daemon ingest what was flushed, then drain: once the runner
	// has stamped every event, the read loop has read every byte.
	waitFor(t, "the runner to stamp every flushed event", func() bool {
		ss := trackedSessions(d)
		return len(ss) == 1 && ss[0].ob.stamp.Items() == uint64(tr.Len())
	})
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary after drain: %v", err)
	}
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Clean {
		t.Fatal("drained session reported clean")
	}
	if sum.Error != "" {
		t.Fatalf("session error: %s", sum.Error)
	}
	if sum.Events != tr.Len() {
		t.Fatalf("drained session analyzed %d of %d flushed events", sum.Events, tr.Len())
	}
	if sum.Races != wantRaces {
		t.Fatalf("drained session found %d races, offline found %d", sum.Races, wantRaces)
	}
	if n := d.cfg.reporter.Count(); n != wantRaces {
		t.Fatalf("final report has %d records, want %d", n, wantRaces)
	}
}

// firstWriteSignal is a writer that closes first on its first write and
// passes every write on to w (discarding it when w is nil).
type firstWriteSignal struct {
	w     io.Writer
	once  sync.Once
	first chan struct{}
}

func (w *firstWriteSignal) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.first) })
	if w.w == nil {
		return len(p), nil
	}
	return w.w.Write(p)
}

// racyPrefix returns the shortest prefix of tr on which the offline serial
// detector already reports a race.
func racyPrefix(t *testing.T, tr *trace.Trace) []trace.Event {
	t.Helper()
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	det := core.New(core.Config{})
	for i := range tr.Events {
		e := tr.Events[i]
		if e.Kind == trace.ActionEvent {
			det.Register(e.Act.Obj, rep)
		}
		if err := det.Process(&e); err != nil {
			t.Fatal(err)
		}
		if det.Stats().Races > 0 {
			return tr.Events[:i+1]
		}
	}
	t.Fatal("racy trace has no racy prefix")
	return nil
}

// TestVerdictBeforeNextFrame sends one events frame holding a racy prefix
// of a trace, far less than a shard batch, and then neither another frame
// nor an end-of-stream: the connection stays open and idle. The race must
// still be reported while the stream is open. In per-conn mode this holds
// only because the runner flushes its partial shard batches before it
// sleeps on an empty ingest queue; without that the record would wait for
// input that never arrives, until the stream ends.
func TestVerdictBeforeNextFrame(t *testing.T) {
	tr, _ := racyTrace(t)
	prefix := racyPrefix(t, tr)
	if len(prefix) >= pipeline.DefaultBatchSize/2 {
		t.Fatalf("racy prefix has %d events; it must stay well under one shard batch (%d)",
			len(prefix), pipeline.DefaultBatchSize)
	}
	for _, m := range runnerModes {
		t.Run(m.name, func(t *testing.T) {
			sink := &firstWriteSignal{first: make(chan struct{})}
			d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
				m.cfg(c)
				c.reporter = core.NewReportWriter(sink)
				// The idle timeout must outlast the wait below: an idle
				// cut ends the stream, and end-of-stream flushes anyway.
				c.idleTimeout = time.Minute
			})
			conn, err := net.Dial("tcp", d.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			enc := wire.NewEncoder(conn)
			for i := range prefix {
				if err := enc.WriteEvent(&prefix[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-sink.first:
			case <-time.After(10 * time.Second):
				t.Fatalf("no race record 10s after a %d-event racy frame on an open stream", len(prefix))
			}
			d.Shutdown()
			if err := <-done; err != nil {
				t.Fatalf("Serve: %v", err)
			}
		})
	}
}

// TestDaemonClientGoneMidFrame severs the connection in the middle of an
// events frame (inside the final frame's payload/CRC). The daemon must keep
// serving, analyze every fully delivered frame, and emit a non-clean summary
// with an explicit error for the cut session.
func TestDaemonClientGoneMidFrame(t *testing.T) {
	tr, _ := racyTrace(t)
	d, done := testDaemon(t, nil)

	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = 128 // several frames, so some events land before the cut
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Drop the 8-byte end frame plus the tail of the last events frame: the
	// daemon sees a frame that starts but never finishes.
	if _, err := conn.Write(data[:len(data)-10]); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary after mid-frame cut: %v", err)
	}
	conn.Close()
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Clean {
		t.Fatal("mid-frame cut reported clean")
	}
	if sum.Error == "" {
		t.Fatal("mid-frame cut carried no error")
	}
	if sum.Events == 0 || sum.Events >= tr.Len() {
		t.Fatalf("analyzed %d events, want partial (0 < n < %d)", sum.Events, tr.Len())
	}

	// The daemon is still healthy.
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	if sum, err = cl.Close(10 * time.Second); err != nil || sum.Error != "" {
		t.Fatalf("post-cut session failed: %v %q", err, sum.Error)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.failed.Load(); got != 1 {
		t.Fatalf("failed sessions = %d, want 1", got)
	}
}

// TestDaemonClientGoneMidVarint severs the connection one byte into a frame
// length varint — the nastiest cut point, since the decoder is mid-way
// through a multi-byte integer. The daemon must report the truncation and
// keep serving.
func TestDaemonClientGoneMidVarint(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	d, done := testDaemon(t, nil)

	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf) // default frame size: one big first frame
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Layout: 5-byte header, then sync(2) + kind(1) + length uvarint. A
	// payload >= 128 bytes makes the varint multi-byte; byte 8 is its first
	// byte and must have the continuation bit set for the cut to land
	// mid-varint.
	if len(data) < 9 || data[8]&0x80 == 0 {
		t.Fatalf("first frame payload too small for a multi-byte length varint")
	}

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(data[:9]); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary after mid-varint cut: %v", err)
	}
	conn.Close()
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Clean || sum.Error == "" {
		t.Fatalf("mid-varint cut summary = %+v, want unclean with error", sum)
	}
	if sum.Events != 0 {
		t.Fatalf("analyzed %d events from a headerless cut, want 0", sum.Events)
	}

	// The daemon is still healthy.
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err = cl.Close(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Races != wantRaces {
		t.Fatalf("post-cut session found %d races, want %d", sum.Races, wantRaces)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDaemonRejectsGarbage: a client speaking the wrong protocol gets an
// error summary, and the daemon survives to serve the next session.
func TestDaemonRejectsGarbage(t *testing.T) {
	d, done := testDaemon(t, nil)

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary: %v", err)
	}
	conn.Close()
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Error == "" {
		t.Fatal("garbage stream accepted without error")
	}

	// The daemon is still healthy.
	tr, wantRaces := racyTrace(t)
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err = cl.Close(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Races != wantRaces {
		t.Fatalf("post-garbage session found %d races, want %d", sum.Races, wantRaces)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.failed.Load(); got != 1 {
		t.Fatalf("failed sessions = %d, want 1", got)
	}
}

// TestSessionInfosWhileStreaming polls /sessions rows while a resumable
// session streams. The read loop owns its decoder, so info must see only
// the figures the loop publishes: under -race an unsynchronized read of
// the decoder fails this test. The published figures must also only grow.
func TestSessionInfosWhileStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := trace.Generate(rng, trace.GenConfig{
		Threads: 4, Objects: 4, Keys: 8, Vals: 4, Locks: 2,
		OpsMin: 2000, OpsMax: 3000, PSize: 15, PGet: 35, PLocked: 30, PRemove: 25,
	})
	d, done := testDaemon(t, nil)

	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		attached, lastEvents, lastAcked := 0, 0, uint64(0)
		for {
			select {
			case <-stop:
				polled <- attached
				return
			default:
			}
			for _, in := range d.sessionInfos() {
				if in.State != "attached" {
					continue
				}
				attached++
				if in.Events < lastEvents || in.AckedSeq < lastAcked {
					t.Errorf("/sessions went backwards: events %d -> %d, acked %d -> %d",
						lastEvents, in.Events, lastAcked, in.AckedSeq)
				}
				lastEvents, lastAcked = in.Events, in.AckedSeq
			}
		}
	}()

	cl, err := wire.DialSession(d.Addr(), "polled", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetFrameSize(256)
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := cl.Close(15 * time.Second)
	close(stop)
	if n := <-polled; n == 0 {
		t.Fatal("no /sessions poll saw the session attached")
	}
	if err != nil || sum.Error != "" || sum.Events != tr.Len() {
		t.Fatalf("summary %+v (err %v), want %d events", sum, err, tr.Len())
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestSessionInfoStates: /sessions names the state a session is in, and a
// session still being set up — a rehydrating one replays its WAL there —
// shows as new, not attached.
func TestSessionInfoStates(t *testing.T) {
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) { c.obsRoot = obs.NewRegistry() })
	s := d.newSession("info-states", "", nil)
	if got := s.info().State; got != "new" {
		t.Fatalf("/sessions state %q, want new", got)
	}
	for _, step := range []struct {
		to, cause uint8
		want      string
	}{
		{stateAttached, causeConnect, "attached"},
		{stateCompleted, causeEnd, "completed"},
	} {
		s.mu.Lock()
		ok := s.transition(step.to, step.cause)
		s.mu.Unlock()
		if !ok {
			t.Fatalf("edge to %d (cause %d) refused", step.to, step.cause)
		}
		if got := s.info().State; got != step.want {
			t.Fatalf("/sessions state %q, want %q", got, step.want)
		}
	}
	s.finalize()
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestZeroConfigResolvesDefaults: newDaemon resolves every zero duration
// and cadence to its default once, and -write-timeout 0 means the default
// deadline for the JSONL report writer as for acks and summaries, never no
// deadline.
func TestZeroConfigResolvesDefaults(t *testing.T) {
	d, err := newDaemon("127.0.0.1:0", daemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.ln.Close()
	if d.cfg.writeTimeout != DefaultWriteTimeout || d.cfg.resumeTTL != DefaultResumeTTL ||
		d.cfg.ckptEvery != DefaultCkptEvery {
		t.Fatalf("resolved write timeout %v, resume ttl %v, ckpt cadence %d; want the defaults",
			d.cfg.writeTimeout, d.cfg.resumeTTL, d.cfg.ckptEvery)
	}
	w, err := d.openReport(filepath.Join(t.TempDir(), "races.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.f.Close()
	if w.d != DefaultWriteTimeout || d.cfg.reporter == nil {
		t.Fatalf("report writer deadline %v, want %v", w.d, DefaultWriteTimeout)
	}
}

// TestArenaQuotaRequiresFleet: only fleet sessions can report their
// detector arena, so an arena quota without -fleet must fail at startup
// (exit 2, naming -fleet) instead of being silently unenforced.
func TestArenaQuotaRequiresFleet(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	rc := run([]string{"-listen", "127.0.0.1:0", "-tenant-quota", "acme:events=100,arena=64MB"})
	os.Stderr = stderr
	w.Close()
	msg, _ := io.ReadAll(r)
	if rc != 2 {
		t.Fatalf("rd2d exited %d, want 2; stderr:\n%s", rc, msg)
	}
	if !strings.Contains(string(msg), "-fleet") {
		t.Fatalf("startup error does not name -fleet:\n%s", msg)
	}
}

// TestRemovedFlagsRejected: the daemon always runs the bounded engine,
// retains no races, uses the built-in fleet quantum and serves JSON only on
// /metrics, so these flags are unknown and fail startup with exit 2.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "bounded"}, {"-max-races", "1"}, {"-fleet-quantum", "1"}, {"-stats-json"},
	} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		rc := run(append([]string{"-listen", "127.0.0.1:0"}, args...))
		os.Stderr = stderr
		w.Close()
		msg, _ := io.ReadAll(r)
		if rc != 2 || !strings.Contains(string(msg), "flag provided but not defined: "+args[0]) {
			t.Fatalf("rd2d %v exited %d, want 2 for an unknown flag; stderr:\n%s", args, rc, msg)
		}
	}
}
