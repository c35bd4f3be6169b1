package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Ingest metrics (DESIGN.md §8) that are daemon-wide by nature: connection
// counters and bytes read. Everything attributable to one session — frames,
// events, races, queue depth and its high-water mark, backpressure stalls —
// lives in the per-session scope (sessObs) and rolls up into the global
// series on write.
var (
	obsConns     = obs.GetCounter("rd2d.conns")
	obsActive    = obs.GetGauge("rd2d.active_conns")
	obsBytes     = obs.GetCounter("rd2d.bytes")
	obsSessions  = obs.GetCounter("rd2d.sessions_done")
	obsDrainCuts = obs.GetCounter("rd2d.sessions_drained")
	obsBusy      = obs.GetCounter("rd2d.busy_rejects")
)

// daemonConfig is the resolved configuration of a daemon instance.
type daemonConfig struct {
	defaultRep   ap.Rep
	defaultSpec  string
	binds        map[trace.ObjID]ap.Rep
	bindSpecs    map[trace.ObjID]string
	engine       core.Engine
	shards       int
	maxRaces     int
	queueLen     int           // per-connection ingest queue, in events
	idleTimeout  time.Duration // per-read deadline; 0 disables
	writeTimeout time.Duration // summary, ack and report write deadline; 0 = DefaultWriteTimeout
	resumeTTL    time.Duration // parked-session lifetime; 0 = DefaultResumeTTL
	resync       bool          // corruption resync: skip corrupt frames (degraded)
	compactOps   int           // compact at most once per this many events; 0 disables
	reporter     *core.ReportWriter
	logger       *log.Logger
	obsRoot      *obs.Registry // registry the session scopes hang under; nil = obs.Default

	// Fault injection (ci.sh -chaos / -durable; inert when zero).
	injectRepPanic    int64 // panic on the N-th rep Touch per session
	injectWorkerPanic int   // panic on the N-th event in the session worker
	injectCkptCrash   int   // SIGKILL with a half-written snapshot on the N-th checkpoint
	injectWalCrash    int   // SIGKILL with a half-written frame on the N-th WAL append

	// Durable sessions (DESIGN.md §15; off when stateDir is empty).
	stateDir   string
	ckptEvery  int               // replay budget in events between snapshots; 0 = DefaultCkptEvery
	fsyncMode  int               // fsyncOff | fsyncCkpt | fsyncAlways
	reportSeqs map[string]uint64 // per-session durable JSONL seq from a prior life

	// Fleet scheduling (DESIGN.md §14). maxSessions, globalRate and the
	// events/burst/sessions quota fields are enforced even with fleet off —
	// the scheduler always exists and gates admission; only the shared
	// worker pool is opt-in. The arena quota needs it: only fleet sessions
	// own a serial detector whose arena can be read between quanta, so
	// rd2d refuses arena= without -fleet.
	fleet        bool                   // run sessions on the shared worker pool
	fleetWorkers int                    // pool size; 0 = GOMAXPROCS
	maxSessions  int                    // resident session cap; 0 = unbounded
	globalRate   float64                // daemon-wide events/s budget; 0 = unlimited
	fleetQuantum int                    // DRR grant per tenant round; 0 = fleet.DefaultQuantum
	defaultQuota fleet.Quota            // quota for tenants not in tenantQuotas
	tenantQuotas map[string]fleet.Quota // per-tenant overrides
}

// DefaultWriteTimeout bounds summary, ack and report writes to dead
// readers.
const DefaultWriteTimeout = 5 * time.Second

// daemon accepts wire streams over TCP and runs detection sessions:
// incremental happens-before stamping feeding a detector (the sharded
// pipeline, or one serial detector per -fleet session), races streamed to
// the shared JSONL reporter as found. Plain streams are one
// session per connection; hello-framed streams open resumable sessions
// that survive connection loss (see session.go).
type daemon struct {
	cfg   daemonConfig
	ln    net.Listener
	sched *fleet.Scheduler

	mu        sync.Mutex
	conns     map[*countingConn]struct{}
	sessions  map[string]*session // resumable sessions by client session id
	draining  bool
	drainOnce sync.Once

	// tracked lists every live or lingering session by scope name for
	// /sessions and the stats table. Its own lock, not d.mu: newSession
	// runs under d.mu on the resume path, and monitoring reads must never
	// contend with the accept/route path.
	trackMu sync.Mutex
	tracked map[string]*session

	wg          sync.WaitGroup
	sessionSeq  atomic.Int64
	totalEvents atomic.Int64
	totalRaces  atomic.Int64
	failed      atomic.Int64
	degraded    atomic.Int64

	// phase drives /healthz readiness: starting → rehydrating → serving →
	// draining. In-process embedders get serving straight from newDaemon;
	// the rd2d binary interposes rehydrating while the state dir loads.
	phase atomic.Int32

	// Daemon-wide injection countdowns for the durable chaos harness.
	walAppendN atomic.Int64
	snapshotN  atomic.Int64
}

// Daemon phases, reported by /healthz.
const (
	phaseStarting = int32(iota)
	phaseRehydrating
	phaseServing
	phaseDraining
)

func phaseName(p int32) string {
	switch p {
	case phaseRehydrating:
		return "rehydrating"
	case phaseServing:
		return "serving"
	case phaseDraining:
		return "draining"
	}
	return "starting"
}

// newDaemon starts listening on addr.
func newDaemon(addr string, cfg daemonConfig) (*daemon, error) {
	if cfg.queueLen <= 0 {
		cfg.queueLen = 1024
	}
	if cfg.compactOps < 0 {
		cfg.compactOps = 4096
	}
	if cfg.writeTimeout <= 0 {
		cfg.writeTimeout = DefaultWriteTimeout
	}
	if cfg.resumeTTL <= 0 {
		cfg.resumeTTL = DefaultResumeTTL
	}
	if cfg.ckptEvery <= 0 {
		cfg.ckptEvery = DefaultCkptEvery
	}
	if cfg.logger == nil {
		cfg.logger = log.New(io.Discard, "", 0)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		cfg:      cfg,
		ln:       ln,
		conns:    map[*countingConn]struct{}{},
		sessions: map[string]*session{},
		tracked:  map[string]*session{},
	}
	workers := 0
	if cfg.fleet {
		workers = cfg.fleetWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	d.sched = fleet.New(fleet.Config{
		Workers:            workers,
		MaxSessions:        cfg.maxSessions,
		GlobalEventsPerSec: cfg.globalRate,
		Quantum:            cfg.fleetQuantum,
		Default:            cfg.defaultQuota,
		Tenants:            cfg.tenantQuotas,
		Obs:                d.obsRoot(),
		Logf:               cfg.logger.Printf,
	})
	d.phase.Store(phaseServing)
	return d, nil
}

// obsRoot returns the registry session scopes hang under.
func (d *daemon) obsRoot() *obs.Registry {
	if d.cfg.obsRoot != nil {
		return d.cfg.obsRoot
	}
	return obs.Default
}

// track registers a session for /sessions listing (newest wins on a reused
// scope name, mirroring the resumable-session table).
func (d *daemon) track(s *session) {
	d.trackMu.Lock()
	d.tracked[s.name] = s
	d.trackMu.Unlock()
}

// untrack forgets a lingered session and detaches its metric scope, unless
// the name has been taken over by a newer session.
func (d *daemon) untrack(s *session) {
	d.trackMu.Lock()
	if d.tracked[s.name] == s {
		delete(d.tracked, s.name)
		d.obsRoot().DropScope("session", s.name)
	}
	d.trackMu.Unlock()
}

// Addr returns the bound listen address.
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// Serve runs the accept loop until Shutdown closes the listener. It
// returns after every in-flight session has drained. Each accepted
// connection gets an ordinal, which decides who may take over a session
// another connection holds (see claim).
func (d *daemon) Serve() error {
	for ord := int64(1); ; ord++ {
		conn, err := d.ln.Accept()
		if err != nil {
			d.Shutdown()
			// Every session has finalized; stop the fleet workers (Stop
			// drains any quanta still queued, so it must come after the
			// drain, never before).
			d.sched.Stop()
			if errors.Is(err, net.ErrClosed) { // the drain closed the listener
				return nil
			}
			return err
		}
		cc := &countingConn{Conn: conn, idle: d.cfg.idleTimeout}
		d.mu.Lock()
		if d.draining {
			d.mu.Unlock()
			conn.Close()
			continue
		}
		d.conns[cc] = struct{}{}
		d.wg.Add(1)
		d.mu.Unlock()
		go func() {
			defer d.wg.Done()
			d.handle(cc, ord)
		}()
	}
}

// Shutdown begins a graceful drain and waits for every session to flush
// its pending shards and report. Safe to call more than once: later
// callers wait for the first drain to finish.
func (d *daemon) Shutdown() {
	d.drainOnce.Do(d.drain)
	d.wg.Wait()
}

// drain stops the daemon taking work. It refuses new connections and
// sessions, cuts every read (a session treats the cut as the end of its
// input and finalizes what it has), and completes every parked session
// by the drain edge. Each edge is taken under the lock that checks the
// state, so a concurrent resume either attached first, and its read is
// cut with the rest, or finds the session completed. It also waits out
// sessions a TTL edge completed, so none is still finalizing when Serve
// stops the scheduler.
func (d *daemon) drain() {
	d.phase.Store(phaseDraining)
	d.mu.Lock()
	d.draining = true
	for cc := range d.conns {
		cc.cut()
	}
	var drained, done []*session
	for _, s := range d.sessions {
		s.mu.Lock()
		switch {
		case s.state == stateParked && s.transition(stateCompleted, causeDrain):
			drained = append(drained, s)
		case s.state == stateCompleted:
			done = append(done, s)
		}
		s.mu.Unlock()
	}
	d.mu.Unlock()
	d.ln.Close()
	for _, s := range drained {
		obsDrainCuts.Inc()
		sum := s.finalize()
		s.logf("drain: finalized parked session: %d events, %d races, clean=%v",
			sum.Events, sum.Races, sum.Clean)
	}
	for _, s := range done {
		s.waitSummary()
	}
}

// dropSession forgets a completed resumable session (TTL after finalize),
// unless the id has already been taken over by a newer session.
func (d *daemon) dropSession(sid string, s *session) {
	d.mu.Lock()
	if d.sessions[sid] == s {
		delete(d.sessions, sid)
	}
	d.mu.Unlock()
}

// repFor resolves the access point representation and spec name for an
// object (static per-daemon: -bind overrides, else the default spec).
func (d *daemon) repFor(obj trace.ObjID) (ap.Rep, string) {
	if rep, ok := d.cfg.binds[obj]; ok {
		return rep, d.cfg.bindSpecs[obj]
	}
	return d.cfg.defaultRep, d.cfg.defaultSpec
}

// countingConn counts bytes read and applies the idle read deadline. A
// cut ends its reads for good: the drain cuts every connection, and a
// newer connection claiming a session cuts the holder. mu serializes the
// cut with the per-read deadline refresh, so a refresh can never undo it.
type countingConn struct {
	net.Conn
	idle  time.Duration
	bytes int64

	mu      sync.Mutex
	stopped bool // cut: every read times out at once
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.stopped {
		c.Conn.SetReadDeadline(time.Now())
	} else if c.idle > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.bytes += int64(n)
	return n, err
}

// cut makes the blocked read, and every later one, return a timeout.
func (c *countingConn) cut() {
	c.mu.Lock()
	c.stopped = true
	c.Conn.SetReadDeadline(time.Now())
	c.mu.Unlock()
}

// writeJSON writes one JSON line to conn under the write timeout. Errors
// are ignored: the client may already be gone (abort, drain), and both
// summaries and acks are re-deliverable through the resume path.
func (d *daemon) writeJSON(conn net.Conn, v any) {
	conn.SetWriteDeadline(time.Now().Add(d.cfg.writeTimeout))
	if b, err := json.Marshal(v); err == nil {
		conn.Write(append(b, '\n'))
	}
}

// handle runs one connection, plain or resumable, down one path: read the
// stream header and hello, claim the session (a new one for a plain
// stream), feed its queue, then take the edge that ends this connection's
// hold on it, and write the summary unless the session parked.
func (d *daemon) handle(cc *countingConn, ord int64) {
	conn := cc.Conn
	defer func() {
		conn.Close()
		d.mu.Lock()
		delete(d.conns, cc)
		d.mu.Unlock()
	}()
	obsConns.Inc()
	obsActive.Add(1)
	defer obsActive.Add(-1)
	defer func() { obsBytes.Add(uint64(cc.bytes)) }()

	sid := ""
	dec, err := wire.NewDecoder(cc)
	if err == nil {
		dec.SetResync(d.cfg.resync)
		sid, err = dec.ReadHello()
	}
	if err != nil {
		d.cfg.logger.Printf("conn %s: handshake failed: %v", conn.RemoteAddr(), err)
		d.failed.Add(1)
		obsSessions.Inc()
		d.writeJSON(conn, wire.Summary{Error: err.Error()})
		return
	}
	tenant := dec.Tenant()
	if tenant == "" {
		tenant = fleet.DefaultTenant
	}
	th := d.sched.Throttle(tenant)
	s, attached, err := d.claim(sid, tenant, cc, dec, th, ord)
	switch {
	case isBusy(err):
		d.rejectBusy(conn, sid, tenant, err)
		return
	case err != nil:
		d.cfg.logger.Printf("conn %s: %v", conn.RemoteAddr(), err)
		d.writeJSON(conn, wire.Summary{SessionID: sid, Error: err.Error()})
		return
	case !attached:
		// Late reconnect to a finished session: re-deliver its summary.
		d.writeJSON(conn, s.waitSummary())
		s.logf("summary re-delivered to %s", conn.RemoteAddr())
		return
	}
	if s.detach(d.readLoop(s, dec, th)) {
		return
	}
	sum := s.finalize()
	d.writeJSON(conn, sum)
	s.logf("done: %d events, %d races, clean=%v degraded=%v resumes=%d err=%q",
		sum.Events, sum.Races, sum.Clean, sum.Degraded, sum.Resumes, sum.Error)
}

// nextChunk reads the decoder's chunk cursor for logging.
func nextChunk(dec *wire.Decoder) uint64 {
	if n, ok := dec.AckedChunk(); ok {
		return n + 1
	}
	return 0
}

// claimWait bounds how long a connection waits for the older connection
// it cut to let go of the session.
const claimWait = 2 * time.Second

// claim routes a connection to its session and attaches it. A plain stream
// (no sid) or an unknown sid gets a new, admitted session by the connect
// edge; the sid is published under d.mu, so two racing hellos cannot both
// create it. A parked session is resumed. A session held by an older
// connection, perhaps a half-dead peer the client already gave up on, is
// reclaimed: the holder is cut and the claimant waits on the broadcast for
// its evict edge, for at most claimWait. A claimant older than the holder
// is the stale one and loses at once, leaving the live reader alone. A
// completed session comes back unattached, for summary re-delivery.
func (d *daemon) claim(sid, tenant string, cc *countingConn, dec *wire.Decoder, th *fleet.Throttle, ord int64) (s *session, attached bool, err error) {
	d.mu.Lock()
	if s = d.sessions[sid]; s == nil {
		if d.draining {
			d.mu.Unlock()
			return nil, false, errors.New("draining: no new sessions")
		}
		// Admission happens under d.mu with the publish. Resumes bypass
		// it: a parked session is already resident, and shedding a
		// reconnect would strand detection state the daemon still holds.
		release, err := d.sched.Admit(tenant)
		if err != nil {
			d.mu.Unlock()
			return nil, false, err
		}
		s = d.newSession(sid, tenant, nil)
		s.admit = release
		if sid != "" {
			d.sessions[sid] = s
		}
		s.mu.Lock()
		s.attach(cc, dec, th, ord)
		s.transition(stateAttached, causeConnect)
		s.mu.Unlock()
		d.mu.Unlock()
		s.logf("connected (%s, tenant %q)", cc.RemoteAddr(), tenant)
		return s, true, nil
	}
	d.mu.Unlock()
	if s.tenant != tenant {
		// The hello's tenant rides every replayed hello, so a mismatch is
		// a client bug or a sid collision across tenants — never resume
		// one tenant's session with another's credentials.
		return nil, false, fmt.Errorf("session %q belongs to tenant %q, hello says %q",
			sid, s.tenant, tenant)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var giveUp <-chan time.Time
	for {
		switch {
		case s.state == stateParked:
			s.attach(cc, dec, th, ord)
			s.transition(stateAttached, causeResume)
			s.resumes++
			obsResumes.Inc()
			s.logf("resumed by %s (replay expected from chunk %d)", cc.RemoteAddr(), nextChunk(dec))
			return s, true, nil
		case s.state == stateCompleted:
			return s, false, nil
		case ord < s.ord:
			return nil, false, fmt.Errorf("session %q is attached to a newer connection", sid)
		}
		if !s.evicting && s.conn != nil {
			s.evicting = true
			s.conn.cut()
		}
		if giveUp == nil {
			t := time.NewTimer(claimWait)
			defer t.Stop()
			giveUp = t.C
		}
		changed := s.changed
		s.mu.Unlock()
		select {
		case <-changed:
			s.mu.Lock()
		case <-giveUp:
			s.mu.Lock()
			return nil, false, fmt.Errorf("session %q is attached to another connection", sid)
		}
	}
}

// isBusy reports whether err is a fleet admission reject.
func isBusy(err error) bool {
	var busy *fleet.BusyError
	return errors.As(err, &busy)
}

// busyDrainTimeout bounds how long a rejected connection is drained so
// the producer can read the busy line before the socket closes.
const busyDrainTimeout = 5 * time.Second

// rejectBusy turns an admission reject into the wire-level busy
// summary: write the line, half-close the write side so it is flushed
// ahead of any reset, then drain whatever the producer already has in
// flight (closing with unread inbound data would RST the connection and
// race the reject line off the wire). Clients surface the line as
// wire.ErrBusy and retry with backoff (rd2 -send exits 6 when retries
// run out).
func (d *daemon) rejectBusy(conn net.Conn, sid, tenant string, cause error) {
	obsBusy.Inc()
	d.failed.Add(1)
	obsSessions.Inc()
	d.cfg.logger.Printf("conn %s: busy reject (tenant %q): %v", conn.RemoteAddr(), tenant, cause)
	d.writeJSON(conn, wire.Summary{SessionID: sid, Busy: true, Error: cause.Error()})
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(busyDrainTimeout))
	io.Copy(io.Discard, conn)
}

// readLoop decodes events from one connection into the session queue until
// the stream ends (whatever way), returning the terminal decode error. Each
// decode is recorded in the session's stage.decode span (latency includes
// waiting for bytes — the span's p99 is time-to-next-event as the worker
// experiences it), and ingest counters land in the session scope. Each
// event is charged to the tenant's throttle before it is enqueued: an
// over-quota tenant stalls right here, in its own connection's read
// loop, and TCP flow control pushes back on exactly that producer. In
// fleet mode the enqueue also wakes the session's run-queue entry. The
// decoder figures /sessions shows are published at every frame and at the
// end, because the decoder itself belongs to this loop.
func (d *daemon) readLoop(s *session, dec *wire.Decoder, th *fleet.Throttle) error {
	lastFrames := dec.Frames()
	for {
		start := s.ob.decode.Start()
		e, err := dec.Next()
		if f := dec.Frames(); f > lastFrames || err != nil {
			s.ob.frames.Add(uint64(f - lastFrames))
			lastFrames = f
			s.publishDecoder(dec)
		}
		if err != nil {
			return err
		}
		s.ob.decode.End(start, 1)
		th.Wait(1)
		if obs.Enabled() {
			select {
			case s.queue <- e:
			default:
				s.ob.stalls.Inc()
				s.queue <- e
			}
			s.ob.queue.Set(int64(len(s.queue)))
		} else {
			s.queue <- e
		}
		if s.entry != nil {
			s.entry.Wake()
		}
	}
}

// connLost reports whether err looks like a lost connection (resumable)
// rather than stream corruption (not worth resuming: the client would
// replay the same bytes).
func connLost(err error) bool {
	if errors.Is(err, io.EOF) {
		return true // unclean EOF at a frame boundary: peer went away
	}
	if errors.Is(err, wire.ErrTruncated) {
		return true // stream cut mid-frame (includes read timeouts mid-frame)
	}
	if errors.Is(err, syscall.ECONNRESET) {
		return true // peer aborted (crash, or closed with our acks unread)
	}
	return isTimeout(err)
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
