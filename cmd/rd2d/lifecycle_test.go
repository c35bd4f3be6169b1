package main

// Session lifecycle tests (DESIGN.md §9): the stale-hello regression, and a
// seeded model test that drives random interleavings of every edge of the
// transition table through a live daemon and holds each session's edge log
// to a reference model.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// waitState blocks on the broadcast of sid's session until it is in state
// want, and returns the session. The session must exist.
func waitState(t *testing.T, d *daemon, sid string, want uint8) *session {
	t.Helper()
	d.mu.Lock()
	s := d.sessions[sid]
	d.mu.Unlock()
	if s == nil {
		t.Fatalf("no session %q", sid)
	}
	timeout := time.After(10 * time.Second)
	for {
		s.mu.Lock()
		st, changed := s.state, s.changed
		s.mu.Unlock()
		if st == want {
			return s
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("session %q stuck in state %d, want %d", sid, st, want)
		}
	}
}

// waitEdges blocks on the session's broadcast until it has taken n edges,
// and returns its edge log.
func waitEdges(t *testing.T, s *session, n int) []edge {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		s.mu.Lock()
		edges, changed := slices.Clone(s.edges), s.changed
		s.mu.Unlock()
		if len(edges) >= n {
			return edges
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("session %q took edges %v, want %d of them", s.name, edges, n)
		}
	}
}

// trackedSessions lists every session d tracks, live or lingering.
func trackedSessions(d *daemon) []*session {
	d.trackMu.Lock()
	defer d.trackMu.Unlock()
	var ss []*session
	for _, s := range d.tracked {
		ss = append(ss, s)
	}
	return ss
}

// waitFor polls a progress counter until cond holds. It is for progress
// that takes no lifecycle edge: events decoded, events stamped.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sessionStream is a trace encoded as a resumable session: the stream
// header and hello, each chunk frame, and the end frame.
type sessionStream struct {
	prefix []byte
	chunks [][]byte
	end    []byte
}

// encodeStream encodes tr as a resumable session of the given tenant (""
// for none).
func encodeStream(t *testing.T, tr *trace.Trace, sid, tenant string, frameSize int) sessionStream {
	t.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = frameSize
	if err := enc.SetSession(sid); err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		if err := enc.SetTenant(tenant); err != nil {
			t.Fatal(err)
		}
	}
	var st sessionStream
	total := 0
	enc.OnFrame = func(_ uint64, frame []byte) error {
		st.chunks = append(st.chunks, bytes.Clone(frame))
		total += len(frame)
		return nil
	}
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	st.prefix = bytes.Clone(buf.Bytes()[:n-total])
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	st.end = bytes.Clone(buf.Bytes()[n:])
	return st
}

// lineConn is a raw client connection that reads the daemon's JSON lines.
type lineConn struct {
	net.Conn
	r *bufio.Reader
}

func dialLine(t *testing.T, addr string) *lineConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(20 * time.Second))
	return &lineConn{Conn: c, r: bufio.NewReader(c)}
}

func (c *lineConn) send(t *testing.T, parts ...[]byte) {
	t.Helper()
	for _, b := range parts {
		if _, err := c.Write(b); err != nil {
			t.Fatal(err)
		}
	}
}

// sendChunks sends chunks [from, to) of st and reads their acks, so the
// daemon has consumed them when it returns.
func (c *lineConn) sendChunks(t *testing.T, st sessionStream, from, to int) {
	t.Helper()
	c.send(t, st.chunks[from:to]...)
	for i := from; i < to; i++ {
		var ack struct {
			Ack *uint64 `json:"ack"`
		}
		if line := c.line(t); json.Unmarshal(line, &ack) != nil || ack.Ack == nil {
			t.Fatalf("want an ack, got %q", line)
		}
	}
}

func (c *lineConn) line(t *testing.T) []byte {
	t.Helper()
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading from the daemon: %v", err)
	}
	return line
}

// summary reads lines up to the session summary, skipping acks.
func (c *lineConn) summary(t *testing.T) wire.Summary {
	t.Helper()
	for {
		line := c.line(t)
		var m map[string]json.RawMessage
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if _, ack := m["ack"]; ack {
			continue
		}
		var sum wire.Summary
		if err := json.Unmarshal(line, &sum); err != nil {
			t.Fatalf("bad summary %q: %v", line, err)
		}
		return sum
	}
}

// TestStaleHelloLosesToLiveReader: connection A is accepted before B, both
// for the same session id, but B's hello arrives first and B is attached
// when A's hello lands. A is the stale one: it must get an error summary at
// once, and B must stream on to a clean summary that never resumed, with
// the verdicts of offline detection.
func TestStaleHelloLosesToLiveReader(t *testing.T) {
	tr, _ := racyTrace(t)
	wantRaces, wantLines := offlineRaceLines(t, tr)
	const sid = "stale"
	st := encodeStream(t, tr, sid, "", 96)
	var report bytes.Buffer
	d, done := testDaemonCfg(t, &report, func(c *daemonConfig) { c.compactOps = 0 })

	a := dialLine(t, d.Addr())
	defer a.Close()
	b := dialLine(t, d.Addr())
	defer b.Close()
	b.send(t, st.prefix)
	b.sendChunks(t, st, 0, 1)
	waitState(t, d, sid, stateAttached)

	a.send(t, st.prefix)
	if sum := a.summary(t); sum.Error == "" {
		t.Fatalf("stale connection got summary %+v, want an error", sum)
	}

	b.sendChunks(t, st, 1, len(st.chunks))
	b.send(t, st.end)
	sum := b.summary(t)
	if sum.Error != "" || !sum.Clean || sum.Degraded || sum.Resumes != 0 {
		t.Fatalf("live session summary %+v, want clean, never resumed", sum)
	}
	if sum.Events != tr.Len() || sum.Races != wantRaces {
		t.Fatalf("live session: %d events, %d races; want %d, %d", sum.Events, sum.Races, tr.Len(), wantRaces)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := strippedRaceLines(report.String()); !slices.Equal(got, wantLines) {
		t.Fatalf("race records differ from offline:\n got %q\nwant %q", got, wantLines)
	}
}

// modelSession is the test's view of one session id: its stream, where its
// client is, and the edge log the reference model predicts for the
// session object of the current daemon life.
type modelSession struct {
	sid   string
	tr    int // index into the model's traces
	st    sessionStream
	state uint8 // stateNew: no session in this daemon life yet
	edges []edge
	conn  *lineConn // the holding connection while attached
	next  int       // chunks the daemon has acked
	clean bool      // completed by an end frame
	gone  bool      // completed in an earlier, crashed life: never used again
}

// lifecycleModel is the reference model: the edges each client or daemon
// action must take, given the state the session is in.
var lifecycleModel = map[string]struct {
	from  uint8
	edges []edge
}{
	"connect": {stateNew, []edge{{stateNew, stateAttached, causeConnect}}},
	"sever":   {stateAttached, []edge{{stateAttached, stateParked, causeSever}}},
	"resume":  {stateParked, []edge{{stateParked, stateAttached, causeResume}}},
	"takeover": {stateAttached, []edge{
		{stateAttached, stateParked, causeEvict}, {stateParked, stateAttached, causeResume}}},
	"ttl":       {stateParked, []edge{{stateParked, stateCompleted, causeTTL}}},
	"end":       {stateAttached, []edge{{stateAttached, stateCompleted, causeEnd}}},
	"drain":     {stateParked, []edge{{stateParked, stateCompleted, causeDrain}}},
	"drain-cut": {stateAttached, []edge{{stateAttached, stateCompleted, causeDrain}}},
	"rehydrate": {stateNew, []edge{{stateNew, stateParked, causeRehydrate}}},
}

// TestLifecycleModel drives the session lifecycle through seeded random
// interleavings of connect, sever, resume, takeover by a newer connection,
// stale hellos, TTL fire, busy rejects, plain streams, crash and
// rehydration, and a final drain, on a durable daemon with an admission
// cap. After every step each session's edge log must equal the reference
// model's; every session of a drained daemon completes exactly once; and
// each clean session's JSONL records equal offline detection (an unclean
// one's are a subset). Odd seeds run fleet sessions, which alone can be
// crashed: a parked fleet session with an empty queue and an idle entry
// has nothing in flight, so the crash leaves exactly what was acked.
func TestLifecycleModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runLifecycleModel(t, seed) })
	}
}

func runLifecycleModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fleetMode := seed%2 == 1
	const maxSessions, sids = 3, 5
	racy, _ := racyTrace(t)
	traces := []*trace.Trace{racy, loadCorpusTrace(t, filepath.Join("..", "..", "examples", "traces", "dict-rand.trace"))}
	offline := make([][]string, len(traces))
	for i, tr := range traces {
		_, offline[i] = offlineRaceLines(t, tr)
	}
	ms := make([]*modelSession, sids)
	for i := range ms {
		sid := fmt.Sprintf("m%d-%d", seed, i)
		tr := rng.Intn(len(traces))
		ms[i] = &modelSession{sid: sid, tr: tr, st: encodeStream(t, traces[tr], sid, "", 64+rng.Intn(64))}
		if len(ms[i].st.chunks) < 2 {
			t.Fatalf("%s encodes to %d chunks, want several", sid, len(ms[i].st.chunks))
		}
	}

	stateDir := t.TempDir()
	reportPath := filepath.Join(t.TempDir(), "report.jsonl")
	var lives []*daemon
	start := func() (*daemon, chan error) {
		seqs, err := scanReport(reportPath)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := os.OpenFile(reportPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
			c.obsRoot = obs.NewRegistry()
			c.fleet, c.fleetWorkers = fleetMode, 2
			c.compactOps = 0
			c.stateDir = stateDir
			c.ckptEvery = 8
			// The model fires TTLs itself. Ten seconds is far longer than
			// a seed runs (well under one even under -race), and short
			// enough that finished sessions, which linger one TTL with
			// their detection state, stop holding memory soon after.
			c.resumeTTL = 10 * time.Second
			c.idleTimeout = time.Minute
			c.maxSessions = maxSessions
			c.reporter = core.NewReportWriter(rep)
			c.reportSeqs = seqs
		})
		d.rehydrate()
		lives = append(lives, d)
		return d, done
	}
	d, done := start()

	// apply records a model step for m and checks the session's edge log.
	apply := func(m *modelSession, step string) {
		t.Helper()
		want := lifecycleModel[step]
		if m.state != want.from {
			t.Fatalf("%s: model step %s from state %d", m.sid, step, m.state)
		}
		m.edges = append(m.edges, want.edges...)
		m.state = want.edges[len(want.edges)-1].to
		d.mu.Lock()
		s := d.sessions[m.sid]
		d.mu.Unlock()
		if s == nil {
			t.Fatalf("%s: no session after %s", m.sid, step)
		}
		if got := waitEdges(t, s, len(m.edges)); !slices.Equal(got, m.edges) {
			t.Fatalf("%s after %s: edges %v, model %v", m.sid, step, got, m.edges)
		}
	}
	resident := func() int {
		n := 0
		for _, m := range ms {
			if m.state == stateAttached || m.state == stateParked {
				n++
			}
		}
		return n
	}
	lookup := func(m *modelSession) *session {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.sessions[m.sid]
	}
	// sever closes m's holding connection, which the daemon sees as a lost
	// connection.
	sever := func(m *modelSession) {
		m.conn.Close()
		m.conn = nil
		apply(m, "sever")
	}

	for step := 0; step < 60; step++ {
		m := ms[rng.Intn(len(ms))]
		if m.gone {
			continue
		}
		switch r := rng.Intn(10); {
		case r == 0 && len(lives) == 1:
			// A plain stream: one connection, start to end. Only in the
			// first life, as plain session names restart with the daemon.
			cl, err := wire.Dial(d.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SendSource(traces[0].Source()); err != nil {
				t.Fatal(err)
			}
			sum, err := cl.Close(15 * time.Second)
			if full := resident() >= maxSessions; full != sum.Busy || (!full && (err != nil || !sum.Clean)) {
				t.Fatalf("plain stream with %d resident: summary %+v, err %v", resident(), sum, err)
			}
		case r == 1 && fleetMode: // crash: every session parks and goes quiet, then a new life
			for _, m := range ms {
				if m.state == stateAttached {
					sever(m)
				}
			}
			for _, m := range ms {
				if m.state == stateParked {
					s := lookup(m)
					waitFor(t, "the parked session's runner to go idle", func() bool {
						return len(s.queue) == 0 && s.entry.State() == "idle"
					})
				}
			}
			d, done = start()
			for _, m := range ms {
				m.edges = nil
				switch m.state {
				case stateCompleted:
					m.gone = true
				case stateParked:
					m.state = stateNew
					apply(m, "rehydrate")
				}
			}
		case m.state == stateNew:
			c := dialLine(t, d.Addr())
			c.send(t, m.st.prefix)
			if resident() >= maxSessions {
				c.send(t, m.st.chunks[0])
				c.Conn.(*net.TCPConn).CloseWrite()
				if sum := c.summary(t); !sum.Busy {
					t.Fatalf("%s: connect with %d resident got %+v, want busy", m.sid, resident(), sum)
				}
				c.Close()
				if lookup(m) != nil {
					t.Fatalf("%s: busy reject left a session behind", m.sid)
				}
				continue
			}
			k := 1 + rng.Intn(len(m.st.chunks)-1)
			c.sendChunks(t, m.st, 0, k)
			m.conn, m.next = c, k
			apply(m, "connect")
		case m.state == stateAttached && r < 5:
			sever(m)
		case m.state == stateAttached && r < 7: // a newer connection takes over
			c := dialLine(t, d.Addr())
			c.send(t, m.st.prefix)
			k := m.next + rng.Intn(len(m.st.chunks)-m.next)
			c.sendChunks(t, m.st, m.next, k)
			old := m.conn
			m.conn, m.next = c, k
			apply(m, "takeover")
			old.Close() // not before the edges: an EOF would sever it first
		case m.state == stateAttached:
			m.conn.sendChunks(t, m.st, m.next, len(m.st.chunks))
			m.conn.send(t, m.st.end)
			sum := m.conn.summary(t)
			tr := traces[m.tr]
			if sum.Error != "" || !sum.Clean || sum.Events != tr.Len() || sum.Races != len(offline[m.tr]) {
				t.Fatalf("%s: end summary %+v, want clean with %d events, %d races",
					m.sid, sum, tr.Len(), len(offline[m.tr]))
			}
			m.conn.Close()
			m.conn, m.clean = nil, true
			apply(m, "end")
		case m.state == stateParked && r < 4: // the resume TTL fires
			s := lookup(m)
			s.mu.Lock()
			n := len(s.edges)
			s.mu.Unlock()
			s.expire(n - 1) // a timer from an earlier park: stale
			s.expire(n)
			apply(m, "ttl")
		case m.state == stateParked && r < 6: // a stale hello from before the resume
			stale := dialLine(t, d.Addr())
			c := dialLine(t, d.Addr())
			c.send(t, m.st.prefix)
			c.sendChunks(t, m.st, 0, m.next)
			m.conn = c
			apply(m, "resume")
			stale.send(t, m.st.prefix)
			if sum := stale.summary(t); sum.Error == "" {
				t.Fatalf("%s: stale hello got %+v, want an error", m.sid, sum)
			}
			stale.Close()
		case m.state == stateParked:
			c := dialLine(t, d.Addr())
			c.send(t, m.st.prefix)
			from := rng.Intn(m.next + 1) // replaying acked chunks is harmless
			k := m.next + rng.Intn(len(m.st.chunks)-m.next)
			c.sendChunks(t, m.st, from, k)
			m.conn, m.next = c, k
			apply(m, "resume")
		case m.state == stateCompleted && r < 3: // a late reconnect gets the summary again
			c := dialLine(t, d.Addr())
			c.send(t, m.st.prefix)
			if sum := c.summary(t); sum.SessionID != m.sid || sum.Error != "" || sum.Clean != m.clean {
				t.Fatalf("%s: re-delivered summary %+v", m.sid, sum)
			}
			c.Close()
		}
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for _, m := range ms {
		switch m.state {
		case stateAttached:
			apply(m, "drain-cut")
			m.conn.Close()
		case stateParked:
			apply(m, "drain")
		}
	}

	// A session completes at most once, by its last edge, and every session
	// of the drained life completed.
	for i, life := range lives {
		for _, s := range trackedSessions(life) {
			s.mu.Lock()
			edges := slices.Clone(s.edges)
			s.mu.Unlock()
			completions := 0
			for _, e := range edges {
				if e.to == stateCompleted {
					completions++
				}
			}
			last := edges[len(edges)-1].to == stateCompleted
			if completions > 1 || completions == 1 && !last || i == len(lives)-1 && completions != 1 {
				t.Fatalf("%s (life %d): %d completions, edges %v", s.name, i, completions, edges)
			}
			plain := []edge{{stateNew, stateAttached, causeConnect}, {stateAttached, stateCompleted, causeEnd}}
			if s.sid == "" && !slices.Equal(edges, plain) {
				t.Fatalf("plain %s: edges %v, want %v", s.name, edges, plain)
			}
		}
	}

	// JSONL: dense seqs per session across every life, clean sessions equal
	// to offline, unclean ones a subset of it.
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	raceLines(t, bytes.NewBuffer(data))
	bySession := map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		var rec struct {
			Session string `json:"session"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Session != "" {
			bySession[rec.Session] = append(bySession[rec.Session], line)
		}
	}
	for name, lines := range bySession {
		got := strippedRaceLines(strings.Join(lines, "\n"))
		want, clean := offline[0], true
		if i := slices.IndexFunc(ms, func(m *modelSession) bool { return m.sid == name }); i >= 0 {
			want, clean = offline[ms[i].tr], ms[i].clean
		}
		if clean && !slices.Equal(got, want) {
			t.Fatalf("clean session %s: race records differ from offline:\n got %q\nwant %q", name, got, want)
		}
		for _, line := range got {
			if !slices.Contains(want, line) {
				t.Fatalf("session %s reported a race offline detection does not: %s", name, line)
			}
		}
	}
	for _, life := range lives[:len(lives)-1] {
		life.Shutdown()
	}
}
