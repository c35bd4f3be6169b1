package main

// Fault-tolerance tests for the daemon: injected shard/worker panics must
// degrade (never crash) a session, corrupt streams under -resync must yield
// either a full correct report or an explicitly degraded/failed one, and a
// resumable session severed at every chunk boundary must reproduce the
// exact race set of an unsevered run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/wire"
)

// logBuffer is a daemon log sink safe for the concurrent session workers.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// requirePanicLines checks that the daemon log carries want recovered
// worker panic lines and that each names the injected event: the event
// text of tr's panicAt-th event and the injector's own message.
func requirePanicLines(t *testing.T, logs string, tr *trace.Trace, panicAt, want int) {
	t.Helper()
	line := fmt.Sprintf("recovered worker panic at event %s: faultinject: injected worker panic at event %d",
		tr.Events[panicAt-1].String(), panicAt)
	if got := strings.Count(logs, "recovered worker panic"); got != want {
		t.Fatalf("%d recovered worker panic lines, want %d:\n%s", got, want, logs)
	}
	if got := strings.Count(logs, line); got != want {
		t.Fatalf("%d log lines contain %q, want %d:\n%s", got, line, want, logs)
	}
}

// runnerModes are the two ways rd2d drives a session runner: a dedicated
// goroutine over the sharded pipeline (per-conn), and quanta on the shared
// worker pool over one serial detector (-fleet).
var runnerModes = []struct {
	name string
	cfg  func(*daemonConfig)
}{
	{"perconn", func(*daemonConfig) {}},
	{"fleet", func(c *daemonConfig) { c.fleet, c.fleetWorkers = true, 2 }},
}

// TestDaemonSurvivesWorkerPanic arms the runner panic injector in both
// modes. The session must finish with a degraded (partial but honest)
// summary with the runner counted as a failed unit, the daemon (and in
// fleet mode the shared worker pool) must keep serving, shutdown must stay
// clean, and the recovery log line must name the exact event the runner
// panicked on.
func TestDaemonSurvivesWorkerPanic(t *testing.T) {
	tr, _ := racyTrace(t)
	const panicAt = 10
	for _, m := range runnerModes {
		t.Run(m.name, func(t *testing.T) {
			var logs logBuffer
			d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
				m.cfg(c)
				c.injectWorkerPanic = panicAt
				c.logger = log.New(&logs, "", 0)
			})

			sum := streamOnce(t, d, tr, "acme")
			if !sum.Degraded {
				t.Fatalf("worker panic not marked degraded: %+v", sum)
			}
			if sum.ShardPanics < 1 {
				t.Fatalf("summary shard_panics = %d, want >= 1 (the runner)", sum.ShardPanics)
			}
			if sum.Events == 0 || sum.Events >= tr.Len() {
				t.Fatalf("degraded session analyzed %d events, want partial (0 < n < %d)",
					sum.Events, tr.Len())
			}

			// The daemon survived: a second session still gets a summary (it
			// is degraded too — the injector is armed per session — but
			// delivered).
			sum = streamOnce(t, d, tr, "acme")
			if !sum.Degraded || sum.ShardPanics < 1 {
				t.Fatalf("second session after panic: %+v", sum)
			}

			d.Shutdown()
			if err := <-done; err != nil {
				t.Fatalf("Serve: %v", err)
			}
			if got := d.degraded.Load(); got != 2 {
				t.Fatalf("daemon degraded counter = %d, want 2", got)
			}
			requirePanicLines(t, logs.String(), tr, panicAt, 2)
		})
	}
}

// TestDaemonStampErrorPositioned streams a malformed trace (a receive with
// no pending send) into the per-conn and the fleet runner. Both must fail
// the session with the same positioned error and count every event.
func TestDaemonStampErrorPositioned(t *testing.T) {
	bad := &trace.Trace{}
	bad.Append(trace.Fork(0, 1))
	bad.Append(trace.Act(1, trace.Action{Obj: 0, Method: "size", Rets: []trace.Value{trace.IntValue(0)}}))
	bad.Append(trace.Recv(1, 3)) // no pending send
	bad.Append(trace.Act(1, trace.Action{Obj: 0, Method: "size", Rets: []trace.Value{trace.IntValue(0)}}))

	for _, fleetMode := range []bool{false, true} {
		d, done := testDaemonCfg(t, nil, func(c *daemonConfig) { c.fleet = fleetMode })
		cl, err := wire.Dial(d.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.SendSource(bad.Source()); err != nil {
			t.Fatal(err)
		}
		sum, err := cl.Close(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		d.Shutdown()
		if err := <-done; err != nil {
			t.Fatalf("fleet=%v: Serve: %v", fleetMode, err)
		}
		if !strings.HasPrefix(sum.Error, "event 2 (t1 recv c3): ") {
			t.Fatalf("fleet=%v: session error %q, want the position of the bad receive", fleetMode, sum.Error)
		}
		if sum.Events != bad.Len() {
			t.Fatalf("fleet=%v: %d events counted, want %d", fleetMode, sum.Events, bad.Len())
		}
	}
}

// TestDaemonParksOnConnectionReset: a client that vanishes with a TCP
// reset (a crash, or a close with the daemon's acks unread) has lost its
// connection as surely as one that sent a FIN, so its resumable session
// must park for a resume rather than fail.
func TestDaemonParksOnConnectionReset(t *testing.T) {
	tr, _ := racyTrace(t)
	const sid, frameSize = "reset", 96
	d, done := testDaemon(t, nil)
	prefix, chunks := sessionLayout(t, tr, frameSize, sid, "")
	data := encodeSession(t, tr, sid, frameSize)

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(data[:prefix+chunks[0]]); err != nil {
		t.Fatal(err)
	}
	// The first ack proves the daemon read chunk 0, so the reset cannot
	// discard stream bytes it has not read yet.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
		t.Fatalf("waiting for the first ack: %v", err)
	}
	conn.(*net.TCPConn).SetLinger(0) // Close sends RST, not FIN
	conn.Close()

	waitState(t, d, sid, stateParked)
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDaemonSurvivesRepPanic arms the shared rep-panic countdown: some Touch
// call deep in the detection path panics — on a pipeline shard per-conn,
// in the runner itself with -fleet. The supervisor must recover it, mark
// the session degraded, and deliver the summary.
func TestDaemonSurvivesRepPanic(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	for _, m := range runnerModes {
		t.Run(m.name, func(t *testing.T) {
			d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
				m.cfg(c)
				c.injectRepPanic = 25
			})

			sum := streamOnce(t, d, tr, "")
			if !sum.Degraded || sum.ShardPanics < 1 {
				t.Fatalf("rep panic summary = %+v, want degraded with shard_panics >= 1", sum)
			}
			// Partial but honest: no invented races.
			if sum.Races > wantRaces {
				t.Fatalf("degraded session invented races: %d > offline %d", sum.Races, wantRaces)
			}

			d.Shutdown()
			if err := <-done; err != nil {
				t.Fatalf("Serve: %v", err)
			}
		})
	}
}

// TestDaemonResyncCorruptionVariants streams every fault-injector corruption
// variant of a valid session at a -resync daemon. The hard guarantee: the
// daemon always answers with a summary — a full correct report, or one
// explicitly marked degraded/failed — and never crashes, hangs, or silently
// drops data.
func TestDaemonResyncCorruptionVariants(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.resync = true
	})

	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = 128
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, v := range faultinject.CorruptStream(data, 77, len(wire.Magic)+1) {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(v.Data); err != nil {
			t.Fatalf("%s: write: %v", v.Name, err)
		}
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := bufio.NewReader(conn).ReadBytes('\n')
		conn.Close()
		if err != nil {
			t.Fatalf("%s: daemon sent no summary: %v", v.Name, err)
		}
		var sum wire.Summary
		if err := json.Unmarshal(line, &sum); err != nil {
			t.Fatalf("%s: bad summary %q: %v", v.Name, line, err)
		}
		if sum.Error == "" && !sum.Degraded {
			// The daemon claims a full, undegraded report: it must actually
			// be the correct one.
			if sum.Events != tr.Len() || sum.Races != wantRaces {
				t.Fatalf("%s: claimed-clean summary %+v, want %d events / %d races",
					v.Name, sum, tr.Len(), wantRaces)
			}
		}
		t.Logf("%s: events=%d races=%d degraded=%v skipped_frames=%d err=%q",
			v.Name, sum.Events, sum.Races, sum.Degraded, sum.SkippedFrames, sum.Error)
	}

	// After the whole corruption family, a pristine session is still exact.
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
	if sum.Error != "" || sum.Degraded || sum.Races != wantRaces || sum.Events != tr.Len() {
		t.Fatalf("post-corruption session summary %+v, want clean %d races / %d events",
			sum, wantRaces, tr.Len())
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// severProxy forwards TCP between a client and the daemon, hard-closing the
// FIRST connection after exactly cut client-to-daemon bytes. Every later
// connection is forwarded transparently, so a resumable client can sever at
// a precise byte offset and then resume.
type severProxy struct {
	ln  net.Listener
	d   *daemon
	cut int64

	mu      sync.Mutex
	severed bool
}

func newSeverProxy(t *testing.T, d *daemon, cut int64) *severProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &severProxy{ln: ln, d: d, cut: cut}
	t.Cleanup(func() { ln.Close() })
	go p.serve()
	return p
}

func (p *severProxy) addr() string { return p.ln.Addr().String() }

func (p *severProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(c)
	}
}

func (p *severProxy) handle(client net.Conn) {
	server, err := net.Dial("tcp", p.d.Addr())
	if err != nil {
		client.Close()
		return
	}
	p.mu.Lock()
	first := !p.severed
	p.severed = true
	p.mu.Unlock()

	acked := &firstWriteSignal{w: client, first: make(chan struct{})}
	go func() { // daemon -> client (acks, summary)
		io.Copy(acked, server)
		client.Close()
	}()
	if first {
		io.CopyN(server, client, p.cut)
		// Sever only after the daemon has acked a chunk of this connection,
		// which it does only once the hello is routed. Until then the
		// session does not exist, and the client's reconnect could reach
		// the daemon first and open it afresh, leaving nothing to resume.
		// Every cut covers at least the first chunk.
		select {
		case <-acked.first:
		case <-time.After(10 * time.Second):
		}
		client.Close()
		server.Close()
		return
	}
	io.Copy(server, client)
	server.Close()
}

// sessionLayout returns the on-wire length of the header+hello prefix and
// of each chunk of tr encoded as a resumable session of the given tenant (""
// for none), so tests can compute the exact byte offset of every chunk
// boundary.
func sessionLayout(t *testing.T, tr *trace.Trace, frameSize int, sid, tenant string) (prefix int, chunks []int) {
	t.Helper()
	st := encodeStream(t, tr, sid, tenant, frameSize)
	for _, c := range st.chunks {
		chunks = append(chunks, len(c))
	}
	return len(st.prefix), chunks
}

// raceLines extracts the sorted race records (notes excluded) from a JSONL
// report buffer. Every record must carry its owning session id and a dense
// per-session seq (1..N in file order, surviving resumes); both are checked
// here and then stripped so runs under different session ids — a plain
// baseline vs a severed resumable stream — compare equal.
func raceLines(t *testing.T, report *bytes.Buffer) []string {
	t.Helper()
	var out []string
	lastSeq := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(report.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad report line %q: %v", line, err)
		}
		if _, isNote := m["note"]; isNote {
			continue
		}
		sess, _ := m["session"].(string)
		if sess == "" {
			t.Fatalf("race record missing session id: %q", line)
		}
		seq, _ := m["seq"].(float64)
		if uint64(seq) != lastSeq[sess]+1 {
			t.Fatalf("session %q: race record seq %v, want %d (dense and monotonic): %q",
				sess, m["seq"], lastSeq[sess]+1, line)
		}
		lastSeq[sess] = uint64(seq)
		delete(m, "session")
		delete(m, "seq")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

func loadCorpusTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := wire.ParseAny(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return tr
}

// TestDaemonResumeAtEveryChunkBoundary is the resilience acceptance check:
// for each corpus trace, a resumable stream severed (and resumed) at every
// chunk boundary must produce the identical sorted race set — and event
// count — as an unsevered run.
func TestDaemonResumeAtEveryChunkBoundary(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus traces found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			diffResumeCorpus(t, path)
		})
	}
}

func diffResumeCorpus(t *testing.T, path string) {
	tr := loadCorpusTrace(t, path)
	if tr.Len() == 0 {
		t.Skip("empty trace")
	}

	// Size frames so the stream splits into a handful of chunks; the layout
	// below reports the real boundaries whatever the split.
	var probe bytes.Buffer
	if err := wire.EncodeTrace(&probe, tr); err != nil {
		t.Fatal(err)
	}
	frameSize := probe.Len() / 5
	if frameSize < 64 {
		frameSize = 64
	}
	const sid = "diff"
	prefix, chunks := sessionLayout(t, tr, frameSize, sid, "")

	// Baseline: unsevered run.
	var baseReport bytes.Buffer
	d, done := testDaemon(t, &baseReport)
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	baseSum, err := cl.Close(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if baseSum.Error != "" || !baseSum.Clean || baseSum.Events != tr.Len() {
		t.Fatalf("baseline summary %+v, want clean over %d events", baseSum, tr.Len())
	}
	baseRaces := raceLines(t, &baseReport)

	cut := int64(prefix)
	for k, chunkLen := range chunks {
		cut += int64(chunkLen)
		var report bytes.Buffer
		d, done := testDaemon(t, &report)
		proxy := newSeverProxy(t, d, cut)

		rc, err := wire.DialSession(proxy.addr(), sid, 2*time.Second)
		if err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		rc.SetFrameSize(frameSize)
		rc.Backoff = 5 * time.Millisecond
		if err := rc.SendSource(tr.Source()); err != nil {
			t.Fatalf("boundary %d: send: %v", k, err)
		}
		sum, err := rc.Close(15 * time.Second)
		if err != nil {
			t.Fatalf("boundary %d: close: %v", k, err)
		}
		d.Shutdown()
		if err := <-done; err != nil {
			t.Fatalf("boundary %d: Serve: %v", k, err)
		}

		if sum.Error != "" || !sum.Clean || sum.Degraded {
			t.Fatalf("boundary %d: summary %+v, want clean undegraded", k, sum)
		}
		if sum.Events != tr.Len() {
			t.Fatalf("boundary %d: %d events analyzed, want %d (no loss, no duplication)",
				k, sum.Events, tr.Len())
		}
		if sum.Races != baseSum.Races {
			t.Fatalf("boundary %d: %d races, baseline %d", k, sum.Races, baseSum.Races)
		}
		if sum.Resumes < 1 {
			t.Fatalf("boundary %d: session was never resumed (cut=%d bytes)", k, cut)
		}
		got := raceLines(t, &report)
		if len(got) != len(baseRaces) {
			t.Fatalf("boundary %d: %d race records, baseline %d", k, len(got), len(baseRaces))
		}
		for i := range got {
			if got[i] != baseRaces[i] {
				t.Fatalf("boundary %d: race record %d differs:\n  severed:  %s\n  baseline: %s",
					k, i, got[i], baseRaces[i])
			}
		}
	}
}
