package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// slots is the number of concurrent producer connections. The host this
// benchmark was written on has two CPUs; more producers than CPUs would
// measure the client's scheduling, not the daemon.
const slots = 2

// sessionRun is one session as the producer saw it.
type sessionRun struct {
	sid    string
	tenant string
	in     *input

	// Open loop only: when the hello and each frame were due.
	start time.Time
	sched []time.Time
	late  []time.Duration

	firstFrame time.Time // first events frame written
	firstAck   time.Time // first {"ack":N} read
	endSent    time.Time // end-of-stream frame written
	done       time.Time // summary read
	sum        wire.Summary
	err        error
}

// failed reports whether the session counts against fail_ratio: a
// transport error, a busy reject, a degraded or failed session, or a
// summary that does not account for every event sent.
func (r *sessionRun) failed() bool {
	s := r.sum
	return r.err != nil || s.Busy || s.Degraded || s.Error != "" || !s.Clean || s.Events != r.in.events
}

// runSession streams one resumable session over a fresh connection: the
// stream header and hello, every frame (each when it is due, if the run
// has a schedule), and the end frame; then it waits for the summary. Acks
// are read concurrently, as a resumable client must, so the daemon never
// stalls writing them.
func runSession(addr string, r *sessionRun) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		r.err = err
		return
	}
	defer conn.Close()
	read := make(chan error, 1)
	go func() {
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				read <- fmt.Errorf("reading summary: %w", err)
				return
			}
			if bytes.HasPrefix(line, []byte(`{"ack":`)) {
				if r.firstAck.IsZero() {
					r.firstAck = time.Now()
				}
				continue
			}
			r.done = time.Now()
			read <- json.Unmarshal(line, &r.sum)
			return
		}
	}()
	werr := r.send(conn)
	select {
	case err = <-read:
	case <-time.After(120 * time.Second):
		conn.Close()
		<-read
		err = errors.New("no summary within 120s")
	}
	switch {
	case err != nil && werr != nil:
		r.err = fmt.Errorf("%v (after write error %v)", err, werr)
	case err != nil:
		r.err = err
	}
}

// send writes the session's bytes, pacing frames by r.sched when set.
func (r *sessionRun) send(conn net.Conn) error {
	if r.sched != nil {
		sleepUntil(r.start)
	}
	if _, err := conn.Write(wire.AppendStreamHeader(nil, r.sid, r.tenant)); err != nil {
		return err
	}
	for j, f := range r.in.frames {
		if r.sched != nil {
			due := r.sched[j]
			sleepUntil(due)
			r.late = append(r.late, time.Since(due))
		}
		if j == 0 {
			r.firstFrame = time.Now()
		}
		if _, err := conn.Write(f.b); err != nil {
			return err
		}
	}
	if _, err := conn.Write(r.in.end); err != nil {
		return err
	}
	r.endSent = time.Now()
	return nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sessionSource hands out the sessions of one daemon run: inputs and
// tenants round-robin, ids unique for the daemon's lifetime (finished
// sessions linger under their id for -resume-ttl, so an id is never
// reused).
type sessionSource struct {
	prefix  string
	ins     []*input
	tenants []string

	mu sync.Mutex
	n  int
}

func (src *sessionSource) next(phase string) *sessionRun {
	src.mu.Lock()
	n := src.n
	src.n++
	src.mu.Unlock()
	r := &sessionRun{sid: fmt.Sprintf("%s-%s%d", src.prefix, phase, n), in: src.ins[n%len(src.ins)]}
	if len(src.tenants) > 0 {
		r.tenant = src.tenants[n%len(src.tenants)]
	}
	return r
}

// closedLoop runs back-to-back sessions on every slot until dur has
// passed, each connection streaming as fast as TCP accepts. Sessions in
// flight at the deadline finish.
func closedLoop(addr string, src *sessionSource, dur time.Duration) []*sessionRun {
	deadline := time.Now().Add(dur)
	var mu sync.Mutex
	var runs []*sessionRun
	var wg sync.WaitGroup
	wg.Add(slots)
	for s := 0; s < slots; s++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := src.next("c")
				runSession(addr, r)
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs
}

// openLoop runs the open-loop phase for dur. Each slot plays a monitored
// program that produces rate events/s without pause: its sessions follow
// one another back to back, and a session releases each frame when the
// program would have produced the frame's last event, and its hello when
// the previous session's last event was due. Slots are staggered by half
// a session. Sessions are registered in reg before their hello is sent,
// so the report tailer can key their records. A session that cannot start
// on time (its slot's previous session has not drained) starts late and
// keeps its schedule, so the lateness of its frames shows the backlog.
func openLoop(addr string, src *sessionSource, rate float64, dur time.Duration, reg *registry) []*sessionRun {
	at := func(events int) time.Duration { return time.Duration(float64(events) / rate * float64(time.Second)) }
	t0 := time.Now().Add(20 * time.Millisecond)
	end := t0.Add(dur)
	var mu sync.Mutex
	var runs []*sessionRun
	var wg sync.WaitGroup
	wg.Add(slots)
	for s := 0; s < slots; s++ {
		go func() {
			defer wg.Done()
			start := t0.Add(at(src.ins[0].events) * time.Duration(s) / slots)
			for start.Before(end) {
				r := src.next("o")
				r.start = start
				r.sched = make([]time.Time, len(r.in.frames))
				for j, f := range r.in.frames {
					r.sched[j] = start.Add(at(f.cum))
				}
				reg.add(r)
				runSession(addr, r)
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
				start = start.Add(at(r.in.events))
			}
		}()
	}
	wg.Wait()
	return runs
}

// sample is one open-loop latency and the scheduled time it counts from.
type sample struct {
	at time.Time
	d  time.Duration
}

// registry maps open-loop session ids to their runs for the tailer.
type registry struct {
	mu   sync.Mutex
	runs map[string]*sessionRun
}

func (g *registry) add(r *sessionRun) {
	g.mu.Lock()
	g.runs[r.sid] = r
	g.mu.Unlock()
}

func (g *registry) get(sid string) *sessionRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs[sid]
}

// tailer follows the -report JSONL file and times every record of a
// registered session: latency runs from the scheduled send time of the
// frame carrying the record's second event to the moment the record is
// read. The file is a regular file polled at tailPoll; rd2d writes each
// record with one unbuffered write.
type tailer struct {
	f     *os.File
	reg   *registry
	stop  chan struct{}
	done  chan struct{}
	lat   []sample // owned by the tail goroutine until done
	err   error
	carry []byte
}

const tailPoll = 200 * time.Microsecond

// startTailer begins following path from its current end.
func startTailer(path string, reg *registry) (*tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	t := &tailer{f: f, reg: reg, stop: make(chan struct{}), done: make(chan struct{})}
	go t.run()
	return t, nil
}

func (t *tailer) run() {
	defer close(t.done)
	defer t.f.Close()
	buf := make([]byte, 1<<20)
	stopping := false
	for {
		n, err := t.f.Read(buf)
		if n > 0 {
			t.consume(buf[:n], time.Now())
			continue
		}
		if err != nil && err != io.EOF {
			t.err = err
			return
		}
		select {
		case <-t.stop:
			if stopping {
				return
			}
			// One more pass to the end of the file picks up every record
			// written before stop was closed.
			stopping = true
			continue
		default:
		}
		time.Sleep(tailPoll)
	}
}

// finish stops the tailer once everything written so far has been read.
// Call it only after every registered session's summary has arrived:
// rd2d writes a session's records before its summary.
func (t *tailer) finish() ([]sample, error) {
	close(t.stop)
	<-t.done
	return t.lat, t.err
}

func (t *tailer) consume(b []byte, now time.Time) {
	if len(t.carry) > 0 {
		b = append(t.carry, b...)
		t.carry = nil
	}
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			t.carry = append([]byte(nil), b...)
			return
		}
		if sid, seq, ok := recordKey(b[:i]); ok {
			if r := t.reg.get(sid); r != nil && seq < r.in.events {
				at := r.sched[r.in.frameOf(seq)]
				t.lat = append(t.lat, sample{at, now.Sub(at)})
			}
		}
		b = b[i+1:]
	}
}

// recordKey extracts (session, second.seq) from one JSONL race record
// without a full decode: session and seq are the record's leading fields,
// and the second side's seq follows its action, method, thread fields.
func recordKey(line []byte) (sid string, seq int, ok bool) {
	const pre = `{"session":"`
	if !bytes.HasPrefix(line, []byte(pre)) {
		return "", 0, false
	}
	rest := line[len(pre):]
	q := bytes.IndexByte(rest, '"')
	if q < 0 {
		return "", 0, false
	}
	sid = string(rest[:q])
	i := bytes.Index(rest, []byte(`"second":{`))
	if i < 0 {
		return "", 0, false
	}
	rest = rest[i:]
	j := bytes.Index(rest, []byte(`"seq":`))
	if j < 0 {
		return "", 0, false
	}
	rest = rest[j+len(`"seq":`):]
	k := 0
	for k < len(rest) && rest[k] >= '0' && rest[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(string(rest[:k]))
	return sid, n, err == nil
}
