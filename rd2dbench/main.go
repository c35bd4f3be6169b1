// Command rd2dbench is the end-to-end benchmark of rd2d, the online
// commutativity race detection daemon. run.sh builds ./cmd/rd2d and this
// program from the checkout's sources and runs it from the checkout root:
//
//	bash rd2dbench/run.sh --workload h2-stream --seed 1 --seconds 30 --trace 0
//	bash rd2dbench/run.sh --workload all
//
// A run starts rd2d as a child process with production flags, streams
// seeded, pre-encoded RDB2 sessions to it over loopback from at most two
// connections, and measures the daemon from outside only: the wire (the
// send time of every frame, acks, summaries), the -report JSONL file, and
// /proc/<pid>. Every session's race records are then held to an offline
// serial replay of the same bytes; any difference fails the run (exit
// status 1 and "correct": false). The last line of standard output is the
// result as one JSON object and the line before it records the host and
// configuration; the tables are written to standard error.
//
// # Phases
//
// A run measures two phases against one daemon: the open loop for two
// thirds of --seconds, then the closed loop for the rest. The open loop
// offers a fixed load: each connection plays a
// monitored program producing events at a fixed rate without pause. Its
// sessions follow one another back to back, and each frame is released
// when the program would have produced the frame's last event, however
// fast the daemon answers. Latencies count from those scheduled times, so
// a stall shows up in the latency of every later event, and
// gen_late_p99_ms says how far behind its schedule the producer ran. The
// closed loop then streams back-to-back sessions on both connections as
// fast as TCP takes them. rd2d's per-connection ingest queue is bounded
// and pushes back through TCP, so this is the highest rate with no growing
// backlog.
//
// # Offered load
//
// Sessions are cut into frames of wire.DefaultFrameSize (16 KiB), the size
// every producer in the repo sends. The open loop offers a quarter of the
// workload's closed-loop capacity (openLoad), half of that on each
// connection. The capacity is a constant per workload, not measured at
// run time, so a slower daemon meets the same offered load and shows it
// in latency. Each is the median closed-loop rate (events ÷ time from the
// first frame to the last summary) of five runs of this benchmark (seeds
// 801–805, --seconds 16) on a 2-CPU x86-64 Linux VM with go1.24.0:
// h2-stream 546k, dict-durable 678k, fleet-churn 849k events/s. So each
// connection offers 68k, 85k and 106k events/s, and a frame carries on
// average 28, 23 and 14 ms of the program's events (fleet-churn's short
// sessions end in a partial frame).
//
// # End-to-end metrics
//
//	verdict_p95_ms      ms        open loop: scheduled send of a record's second event →
//	                              the benchmark reading that record from the report,
//	                              lower quartile of the p95 of 0.5 s stretches
//	session_p50_ms      ms        open loop: scheduled hello → summary read,
//	session_p99_ms                median over ten stretches
//	peak_rss_mb         MB        daemon VmHWM after the open loop
//	setup_s             s         rd2d exec → its "listening on" line, median of 21 starts
//
// # Closed-loop figures
//
//	throughput_eps      events/s  events ÷ wall time, median of 0.5 s stretches
//	cpu_ns_per_event    ns        daemon user+sys CPU (/proc/<pid>/stat) ÷ events,
//	                              median of the same stretches
//
// A session's events count as spread evenly from its first frame to its
// summary, and the daemon's CPU time is read at every stretch boundary.
// The first second is left out: the daemon is still retiring the open
// loop's sessions. Both figures are measured on every run and printed with
// the tables, but reported with the per-layer metrics, not bounded as
// end-to-end metrics: on the shared host above, other tenants' load moves
// them more than the widest bound a run may allow. Ten 30 s runs per
// workload spread 0.17–0.20 (quartile distance ÷ median) on both, batches
// of runs minutes apart differed by up to half in h2-stream's cpu ns per
// event, and a single-threaded CPU loop alone spread 0.16 between 16 s
// blocks. The open-loop metrics hold still: at a fixed offered load the
// daemon has CPU to spare. They catch a stall or a daemon that falls
// behind, not a small change in CPU cost; judge that from the closed-loop
// figures over paired runs.
//
// Session latency quantiles are taken in each of ten equal stretches of
// the open loop and the median over stretches is reported. The verdict p95
// is taken per 0.5 s stretch and its lower quartile over stretches is
// reported: a stretch a collection or another tenant stalled has a p95
// well above the rest, and those stalls show in verdict_p99_ms instead.
// With the median over ten stretches the fleet-churn p95 spread 0.18–0.22
// between runs; with this, 0.05–0.08. Verdict latency is
// bimodal in per-connection mode: the pipeline hands events to its shards
// in batches of 128, so the part of a frame that does not fill a batch
// waits for the next frame. The p95 is that wait, most of one frame's
// worth of the program's time, plus the daemon's work. The median sits
// between the two modes and moves from run to run (spread 0.15 over eight
// h2-stream runs), and fleet-churn yields only about 300 records per
// stretch, too few for a steady p99 (spread 0.2–0.35 against 0.09 for the
// p95). So verdict_p50_ms, verdict_p99_ms and gen_late_p99_ms (frame write
// time − schedule, the backlog signal) are measured in the same run but
// reported with the per-layer metrics.
//
// Sessions that fail, degrade, are rejected busy or account for fewer
// events than were sent count in the result's "failed" field (and in
// fail_ratio with --trace 1). No workload is expected to fail a session,
// so one failed session makes the run incorrect, like a wrong verdict.
//
// # Workloads
//
// Every workload is a sequence of fixed-shape sessions, so the per-event
// cost does not drift with run length. Every session opens with a hello
// carrying an id the benchmark chose: rd2d reports plain streams as
// conn-<n>, which a client cannot map to its own connection.
//
// h2-stream runs per-connection mode with default flags (every workload
// shortens -resume-ttl; see the gotchas). A recorded H2
// ComplexConcurrency circuit (testdata/h2-complex.rdb, 47k events) is
// streamed as back-to-back sessions. About a fifth of its events yield a
// race record, on two hot store maps, so the report path and hot-object
// detection dominate; checkpointing and the fleet scheduler are bypassed.
//
// dict-durable runs per-connection mode with -statedir and -fsync ckpt.
// genDict provides the input: fork/join waves (compaction runs at joins),
// objects that die and are replaced (state stays bounded), about a third
// sync events, 1–3% racy events and enough live access points that a
// snapshot costs milliseconds. Checkpoint export, WAL appends, lock-heavy
// stamping and wide-state detection dominate; reporting is light.
// trace.Generate cannot produce this input: it caps keys at ten and joins
// only at the end.
//
// fleet-churn runs -fleet with three tenants and no quotas. Many short
// sessions (2–5k events) with unique ids arrive back to back at a fixed
// event rate, so session set-up and teardown, admission and
// deficit-round-robin dispatch dominate; the sharded pipeline and
// checkpointing are bypassed, and detection per session is small.
//
// # Per-layer metrics
//
// With --trace 1 the run also replays the same inputs in-process through
// the layers' public functions (wire, hb, core, pipeline, fleet), in the
// daemon's per-event order: decode → stamp → register/detect → report,
// compaction at joins and a snapshot every 4096 events. Each call is
// timed. The table sums the layers the workload's mode runs against
// cpu_ns_per_event and prints the rest as an explicit unattributed line.
// Layers a mode bypasses are still replayed and reported (what they would
// cost on this input) but left out of that mode's sum. Which layer metric
// should move which end-to-end metric or closed-loop figure, and on which
// workload:
//
//	wire.*              cpu_ns_per_event on all three; the largest share on fleet-churn
//	hb.*                cpu_ns_per_event on dict-durable (sync-heavy); flat on h2-stream
//	core.detect_*, core.checks_*, core.peak_*, core.arena_*, core.compact*
//	                    cpu_ns_per_event and peak_rss_mb on dict-durable; smaller on h2-stream
//	core.report_*, core.races_*
//	                    throughput_eps and verdict_p99_ms on h2-stream; flat elsewhere
//	*.export_*, snapshots
//	                    throughput_eps, verdict_p99_ms, gen_late_p99_ms on dict-durable;
//	                    absent elsewhere
//	pipeline.*          throughput_eps on h2-stream and dict-durable; bypassed on fleet-churn
//	fleet.*             session_p50_ms and session_p99_ms on fleet-churn; bypassed elsewhere
//	rd2d.*              session_p99_ms on fleet-churn, verdict_p99_ms on h2-stream
//	                    (client-observed in the untraced run)
//	traced.*            accounting: the replay's time outside timed calls, and the cost
//	                    of timing (timed against untimed replay of the same input)
//	offline.serial_eps  the oracle's single-threaded rate, the baseline for throughput_eps
//
// # Gotchas
//
//   - The timed daemon never gets -http or -stats-interval: either enables
//     rd2d's metrics registry and changes the cost being measured. It runs
//     with -q and its stderr is drained.
//   - With -statedir rd2d reads the whole -report file at start-up, so a
//     FIFO there would block it; the benchmark tails a regular file.
//   - Finished sessions linger for -resume-ttl, so peak RSS depends on
//     the session rate and, until the TTL has passed, on run length. The
//     daemon runs with a TTL of 2s (resumeTTL), and peak RSS is read after
//     the open loop, whose offered load is fixed per workload. Session ids
//     are never reused.
//   - H2 recordings are not a function of their seed (the monitored
//     threads are goroutines), so h2-stream replays a committed recording
//     and its input does not change with --seed.
//   - Compaction trims the clocks race records carry, so the oracle
//     compacts at rd2d's cadence; pipeline shards report concurrently, so
//     a session's records are compared as a multiset.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/wire"
)

// workload is one traffic mix: the daemon's mode and the sessions sent.
type workload struct {
	name    string
	flags   []string // rd2d flags beyond -listen, -q, -report and -statedir
	durable bool     // run the daemon with a -statedir
	tenants []string // tenants declared in the hellos, round-robin
	// capacity is the workload's closed-loop throughput_eps as measured
	// (see the package doc); it sets the open loop's fixed offered load.
	capacity float64
	inputs   func(seed int64) ([]*input, error)
}

// openLoad is the share of a workload's measured capacity the open loop
// offers, split evenly over the slots.
const openLoad = 0.25

// openRate is the event rate of each open-loop slot.
func (wl *workload) openRate() float64 { return wl.capacity * openLoad / slots }

var workloads = []*workload{
	{
		name:     "h2-stream",
		capacity: 546_000,
		inputs:   h2Inputs,
	},
	{
		name:     "dict-durable",
		flags:    []string{"-fsync", "ckpt"},
		durable:  true,
		capacity: 678_000,
		inputs: dictInputs("dict", 24, func(int, int) dictShape {
			return dictShape{waves: 8, workers: 4, ops: 700, objects: 64, privKeys: 16, locks: 8,
				pLocked: 0.25, pShared: 0.06, hot: 2, pGet: 0.4, pDie: 0.25}
		}),
	},
	{
		name:     "fleet-churn",
		flags:    []string{"-fleet"},
		tenants:  []string{"tenant-a", "tenant-b", "tenant-c"},
		capacity: 849_000,
		// Session sizes are a ladder from 2k to 5k events, the same on every
		// seed, so the mix of short and long sessions does not move the
		// per-session overheads between seeds; the seed varies contents.
		inputs: dictInputs("churn", 48, func(i, n int) dictShape {
			return dictShape{waves: 1, workers: 2 + i%2, ops: 700 + 400*i/n, objects: 8, privKeys: 8, locks: 4,
				pLocked: 0.25, pShared: 0.02, hot: 2, pGet: 0.4, pDie: 0.25}
		}),
	},
}

func workloadNamed(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// resumeTTL is the daemon's -resume-ttl. A finished session stays in
// memory this long. With the 30s default a run never reaches the steady
// state: retained sessions pile up for the whole run, so the heap, the
// collector's work per event and peak RSS grow with run length (fleet-churn
// reached 1.7 GB in a 60s run). Two seconds is a fifth of the open loop
// at --seconds 30.
const resumeTTL = "2s"

// setupStarts is how many times a run starts rd2d to time its set-up; the
// last start is the daemon the phases measure.
const setupStarts = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type named struct {
	name string
	metric
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records where and how a result was measured.
type stamp struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Source     string   `json:"source_sha256"`
	OpenS      float64  `json:"open_loop_s"`
	ClosedS    float64  `json:"closed_loop_s"`
	Conns      int      `json:"conns"`
	OpenRate   float64  `json:"open_rate_events_per_s_per_conn"`
	FrameSize  int      `json:"frame_bytes"`
	Inputs     int      `json:"distinct_sessions"`
	Flags      []string `json:"rd2d_flags"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("rd2dbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "h2-stream, dict-durable, fleet-churn, or all")
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Float64("seconds", 30, "measured seconds: a third for the open loop, the rest for the closed loop")
	traceFlag := fset.Int("trace", 0, "1 reports the per-layer metrics of a traced in-process replay instead of the end-to-end metrics")
	bin := fset.String("rd2d", "", "rd2d binary under test")
	work := fset.String("work", filepath.Join(".bench_build", "work"), "directory for reports and state")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else if wl := workloadNamed(*name); wl != nil {
		wls = []*workload{wl}
	}
	p := split(*seconds)
	if len(wls) == 0 || *bin == "" || p.stretches() < 4 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "usage: rd2dbench -rd2d BIN --workload h2-stream|dict-durable|fleet-churn|all [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "rd2dbench: %v\n", err)
		return 2
	}
	traced := *traceFlag == 1 || *name == "all"
	res := result{Correct: true, Metrics: map[string]metric{}}
	src := sourceID()
	for _, wl := range wls {
		o, err := runWorkload(wl, *bin, *work, *seed, p, traced, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "rd2dbench: %s: %v\n", wl.name, err)
			return 2
		}
		o.stamp.Source = src
		b, _ := json.Marshal(map[string]stamp{"stamp": o.stamp})
		fmt.Fprintln(stdout, string(b))
		for _, m := range o.mismatches {
			fmt.Fprintf(stderr, "rd2dbench: %s: %s\n", wl.name, m)
		}
		res.Attempted += o.attempted
		res.Failed += o.failed
		res.Correct = res.Correct && len(o.mismatches) == 0
		ms := o.e2e
		switch {
		case *name == "all":
			ms = append(ms, o.layer...)
		case traced:
			ms = o.layer
		}
		for _, m := range ms {
			key := m.name
			if len(wls) > 1 {
				key = wl.name + "." + key
			}
			res.Metrics[key] = m.metric
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "rd2dbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome is one workload's measurements.
type outcome struct {
	stamp
	attempted, failed int
	mismatches        []string
	e2e, layer        []named
}

// measured is what the daemon run observed.
type measured struct {
	plan
	setups       []float64
	open, closed []*sessionRun
	verdictLat   []sample
	rss          int64
	closedStart  time.Time
	closedCPU    []time.Duration // daemon CPU time at each closed-loop stretch boundary
}

// sampleCPU reads pid's CPU time at t0 and at the end of each of n
// stretches of width after it, and sends the readings when done.
func sampleCPU(pid int, t0 time.Time, width time.Duration, n int) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	go func() {
		var cpu []time.Duration
		for k := 0; k <= n; k++ {
			sleepUntil(t0.Add(time.Duration(k) * width))
			c, err := cpuTime(pid)
			if err != nil {
				break
			}
			cpu = append(cpu, c)
		}
		out <- cpu
	}()
	return out
}

// closedStretches returns, for each stretch of the closed loop, the
// events/s and the daemon's CPU ns per event. A session's events are
// counted as spread evenly from its first frame to its summary.
func (m *measured) closedStretches() (eps, cpuNs []float64) {
	for k := 0; k < m.stretches(); k++ {
		lo := m.closedStart.Add(closedWarmup + time.Duration(k)*stretch)
		hi := lo.Add(stretch)
		events := 0.0
		for _, r := range m.closed {
			if r.failed() || !r.done.After(r.firstFrame) {
				continue
			}
			from, to := r.firstFrame, r.done
			if lo.After(from) {
				from = lo
			}
			if hi.Before(to) {
				to = hi
			}
			if in := to.Sub(from); in > 0 {
				events += float64(r.in.events) * float64(in) / float64(r.done.Sub(r.firstFrame))
			}
		}
		eps = append(eps, events/stretch.Seconds())
		cpuNs = append(cpuNs, ratio(float64(m.closedCPU[k+1]-m.closedCPU[k]), events))
	}
	return eps, cpuNs
}

func runWorkload(wl *workload, bin, work string, seed int64, p plan, traced bool, log io.Writer) (*outcome, error) {
	ins, err := wl.inputs(seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reportOf := func(i int) string { return filepath.Join(dir, fmt.Sprintf("report-%d.jsonl", i)) }
	flagsFor := func(i int) []string {
		f := []string{"-listen", "127.0.0.1:0", "-q", "-report", reportOf(i), "-resume-ttl", resumeTTL}
		if wl.durable {
			f = append(f, "-statedir", filepath.Join(dir, fmt.Sprintf("state-%d", i)))
		}
		return append(f, wl.flags...)
	}
	src := &sessionSource{prefix: fmt.Sprintf("%s-%d", wl.name, seed), ins: ins, tenants: wl.tenants}
	m, err := drive(wl, bin, flagsFor, reportOf(setupStarts-1), src, p)
	if err != nil {
		return nil, err
	}

	oracles := map[*input]*oracle{}
	offEvents, offTime := 0, time.Duration(0)
	for _, in := range ins {
		o, err := offline(in)
		if err != nil {
			return nil, err
		}
		oracles[in] = o
		offEvents += in.events
		offTime += o.elapsed
	}
	got, degraded, err := readReport(reportOf(setupStarts - 1))
	if err != nil {
		return nil, err
	}
	runs := append(append([]*sessionRun(nil), m.open...), m.closed...)
	o := &outcome{attempted: len(runs)}
	for _, r := range runs {
		if degraded[r.sid] {
			r.sum.Degraded = true
		}
		if r.failed() {
			o.failed++
		}
	}
	o.mismatches = checkVerdicts(runs, got, oracles)
	var tails []named
	if o.e2e, tails, err = m.endToEnd(); err != nil {
		return nil, err
	}
	var flags []string
	for _, f := range flagsFor(setupStarts - 1) {
		flags = append(flags, strings.ReplaceAll(f, dir, "<work>"))
	}
	o.stamp = stamp{
		Workload: wl.name, Seed: seed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OpenS: p.open.Seconds(), ClosedS: p.closed.Seconds(), Conns: slots,
		OpenRate: wl.openRate(), FrameSize: wire.DefaultFrameSize, Inputs: len(ins), Flags: flags,
	}
	fmt.Fprintf(log, "== %s  seed %d: %d open-loop + %d closed-loop sessions, %d failed, %d failed or mismatching\n",
		wl.name, seed, len(m.open), len(m.closed), o.failed, len(o.mismatches))
	printMetrics(log, o.e2e)
	printMetrics(log, tails)
	printStretches(log, m)
	if !traced {
		return o, nil
	}
	l, err := traceLayers(ins, wl.tenants)
	if err != nil {
		return nil, err
	}
	rows := l.rows(wl)
	cpuNs := tails[1].Value
	o.layer = append(tails, l.metrics(rows, cpuNs, m, float64(offEvents)/offTime.Seconds(), o.failed, o.attempted)...)
	printLayers(log, l, rows, cpuNs)
	printMetrics(log, o.layer[len(tails):])
	return o, nil
}

// drive times rd2d's set-up over setupStarts starts, then runs both
// phases against the last daemon and drains it.
func drive(wl *workload, bin string, flagsFor func(int) []string, report string, src *sessionSource, p plan) (*measured, error) {
	m := &measured{plan: p}
	var d *daemon
	for i := 0; i < setupStarts; i++ {
		var err error
		if d, err = startDaemon(bin, flagsFor(i)); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.setup.Seconds())
		if i < setupStarts-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	if err := m.phases(d, wl, src, report); err != nil {
		d.kill()
		return nil, err
	}
	return m, d.stop()
}

func (m *measured) phases(d *daemon, wl *workload, src *sessionSource, report string) error {
	reg := &registry{runs: map[string]*sessionRun{}}
	tl, err := startTailer(report, reg)
	if err != nil {
		return err
	}
	m.open = openLoop(d.addr, src, wl.openRate(), m.plan.open, reg)
	if m.verdictLat, err = tl.finish(); err != nil {
		return err
	}
	if m.rss, err = peakRSS(d.pid()); err != nil {
		return err
	}
	m.closedStart = time.Now()
	cpu := sampleCPU(d.pid(), m.closedStart.Add(closedWarmup), stretch, m.stretches())
	m.closed = closedLoop(d.addr, src, m.plan.closed)
	if m.closedCPU = <-cpu; len(m.closedCPU) != m.stretches()+1 {
		return fmt.Errorf("read the daemon's CPU time at %d of %d closed-loop stretch boundaries", len(m.closedCPU), m.stretches()+1)
	}
	return nil
}

// endToEnd computes the end-to-end metrics, and the closed-loop figures
// (cpu_ns_per_event second) and open-loop tails reported beside the
// per-layer metrics.
func (m *measured) endToEnd() (e2e, tails []named, err error) {
	events := 0
	for _, r := range m.closed {
		if !r.failed() {
			events += r.in.events
		}
	}
	var sess, late []sample
	t0 := m.open[0].start
	for _, r := range m.open {
		for j, d := range r.late {
			late = append(late, sample{r.sched[j], d})
		}
		if !r.failed() {
			sess = append(sess, sample{r.start, r.done.Sub(r.start)})
		}
		if r.start.Before(t0) {
			t0 = r.start
		}
	}
	if events == 0 || len(sess) == 0 || len(m.verdictLat) == 0 || len(late) == 0 {
		return nil, nil, fmt.Errorf("nothing to measure: %d closed-loop events, %d open-loop sessions, %d verdicts",
			events, len(sess), len(m.verdictLat))
	}
	width := m.plan.open / windows
	eps, cpuNs := m.closedStretches()
	e2e = []named{
		{"verdict_p95_ms", metric{windowed(m.verdictLat, t0, stretch, 0.95, 0.25), "ms"}},
		{"session_p50_ms", metric{windowed(sess, t0, width, 0.5, 0.5), "ms"}},
		{"session_p99_ms", metric{windowed(sess, t0, width, 0.99, 0.5), "ms"}},
		{"peak_rss_mb", metric{float64(m.rss) / (1 << 20), "MB"}},
		{"setup_s", metric{quantile(m.setups, 0.5), "s"}},
	}
	tails = []named{
		{"throughput_eps", metric{quantile(eps, 0.5), "events/s"}},
		{"cpu_ns_per_event", metric{quantile(cpuNs, 0.5), "ns"}},
		{"verdict_p50_ms", metric{windowed(m.verdictLat, t0, width, 0.5, 0.5), "ms"}},
		{"verdict_p99_ms", metric{windowed(m.verdictLat, t0, width, 0.99, 0.5), "ms"}},
		{"gen_late_p99_ms", metric{windowed(late, t0, width, 0.99, 0.5), "ms"}},
	}
	return e2e, tails, nil
}

// plan is how a run's --seconds are spent: the open loop, then the closed
// loop.
type plan struct{ open, closed time.Duration }

// openShare is the share of --seconds the open loop gets. The end-to-end
// metrics are measured in it; the closed loop's figures are reported with
// the per-layer metrics (see the package doc).
const openShare = 2.0 / 3

func split(seconds float64) plan {
	total := time.Duration(seconds * float64(time.Second))
	open := time.Duration(float64(total) * openShare)
	return plan{open, total - open}
}

// closedWarmup is the start of the closed loop its figures leave out: the
// daemon is still retiring the open loop's sessions and its heap grows to
// the closed loop's size.
const closedWarmup = time.Second

// stretch is the width of the closed-loop stretches the rate and the CPU
// time per event are measured over.
const stretch = 500 * time.Millisecond

// stretches is the number of measured closed-loop stretches.
func (p plan) stretches() int { return int((p.closed - closedWarmup) / stretch) }

// windows is how many stretches of equal length the open loop is cut into
// by scheduled time. A latency quantile is taken in each and the median
// of those is reported: latency as a typical stretch of the open loop saw
// it, which one stall (a collection, an fsync) cannot move as far as it
// moves the quantile of the pooled samples.
const windows = 10

// minWindowSamples is the fewest samples a stretch needs to count.
const minWindowSamples = 20

// windowed returns the over-quantile, across stretches of width from t0,
// of the q-quantile of the samples scheduled in each, in milliseconds. It falls
// back to the quantile of the pooled samples when no stretch has
// minWindowSamples.
func windowed(samples []sample, t0 time.Time, width time.Duration, q, over float64) float64 {
	by := map[int][]float64{}
	all := make([]float64, len(samples))
	for i, s := range samples {
		w := int(s.at.Sub(t0) / width)
		by[w] = append(by[w], ms(s.d))
		all[i] = ms(s.d)
	}
	var qs []float64
	for _, xs := range by {
		if len(xs) >= minWindowSamples {
			qs = append(qs, quantile(xs, q))
		}
	}
	if len(qs) == 0 {
		return quantile(all, q)
	}
	return quantile(qs, over)
}

// row is one layer's traced cost per event.
type row struct {
	name string
	ns   float64
}

// rows lists the layers the workload's mode runs, per event.
func (l *layers) rows(wl *workload) []row {
	ns := time.Nanosecond
	rows := []row{
		{"wire decode", per(l.decode, l.events, ns)},
		{"hb stamp", per(l.stampSync+l.stampBody, l.events, ns)},
		{"core detect", per(l.detect, l.events, ns)},
		{"core report", per(l.report, l.events, ns)},
		{"core compact", per(l.compact, l.events, ns)},
	}
	if slices.Contains(wl.flags, "-fleet") {
		rows = append(rows, row{"fleet admit", per(l.admit, l.events, ns)})
	} else {
		rows = append(rows, row{"pipeline dispatch", per(l.dispatch, l.pipeEvents, ns)})
	}
	if wl.durable {
		snap := per(l.wireState+l.hbExport, l.snapshots, ns) + per(l.pipeExport, l.pipeSnapshots, ns)
		rows = append(rows, row{"checkpoint export", snap * ratio(float64(l.snapshots), float64(l.events))})
	}
	return rows
}

// metrics computes the per-layer metrics.
func (l *layers) metrics(rows []row, cpuNs float64, m *measured, serialEPS float64, failed, attempted int) []named {
	ns, us, msec := time.Nanosecond, time.Microsecond, time.Millisecond
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
	}
	self := l.decode + l.stampSync + l.stampBody + l.detect + l.report + l.compact + l.wireState + l.hbExport + l.coreExport
	var firstAck, drain, wake []float64
	for _, r := range m.open {
		if !r.failed() {
			firstAck = append(firstAck, ms(r.firstAck.Sub(r.firstFrame)))
			drain = append(drain, ms(r.done.Sub(r.endSent)))
		}
	}
	for _, d := range l.wakeToRun {
		wake = append(wake, float64(d)/float64(us))
	}
	f := func(x int) float64 { return float64(x) }
	return []named{
		{"wire.decode_ns_per_event", metric{per(l.decode, l.events, ns), "ns"}},
		{"wire.decode_allocs_per_event", metric{ratio(float64(l.decodeAllocs), f(l.allocEvents)), "count"}},
		{"wire.bytes_per_event", metric{ratio(f(l.bytes), f(l.events)), "B"}},
		{"wire.state_us_per_snapshot", metric{per(l.wireState, l.snapshots, us), "us"}},
		{"hb.stamp_sync_ns_per_event", metric{per(l.stampSync, l.syncEvents, ns), "ns"}},
		{"hb.stamp_body_ns_per_event", metric{per(l.stampBody, l.events-l.syncEvents, ns), "ns"}},
		{"hb.sync_share", metric{ratio(f(l.syncEvents), f(l.events)), "ratio"}},
		{"hb.export_us_per_snapshot", metric{per(l.hbExport, l.snapshots, us), "us"}},
		{"core.detect_ns_per_action", metric{per(l.detect, l.actions, ns), "ns"}},
		{"core.checks_per_action", metric{ratio(f(l.checks), f(l.actions)), "count"}},
		{"core.peak_active_points", metric{f(l.peakActive), "count"}},
		{"core.arena_bytes", metric{float64(l.arenaBytes), "B"}},
		{"core.compact_us_per_call", metric{per(l.compact, l.compactions, us), "us"}},
		{"core.compactions", metric{ratio(f(l.compactions), f(l.sessions)), "count"}},
		{"core.report_ns_per_record", metric{per(l.report, l.records, ns), "ns"}},
		{"core.report_bytes_per_record", metric{ratio(float64(l.reportBytes), f(l.records)), "B"}},
		{"core.races_per_kevent", metric{1000 * ratio(f(l.races), f(l.events)), "count"}},
		{"core.export_ms_per_snapshot", metric{per(l.coreExport, l.snapshots, msec), "ms"}},
		{"pipeline.export_ms_per_snapshot", metric{per(l.pipeExport, l.pipeSnapshots, msec), "ms"}},
		{"snapshots", metric{ratio(f(l.snapshots), f(l.sessions)), "count"}},
		{"pipeline.dispatch_ns_per_event", metric{per(l.dispatch, l.pipeEvents, ns), "ns"}},
		{"pipeline.close_ms", metric{per(l.pipeClose, l.pipeSessions, msec), "ms"}},
		{"fleet.admit_us", metric{per(l.admit, l.fleetSessions, us), "us"}},
		{"fleet.wake_to_run_us_p99", metric{quantile(wake, 0.99), "us"}},
		{"fleet.quanta_per_session", metric{ratio(f(l.quanta), f(l.fleetSessions)), "count"}},
		{"rd2d.first_ack_ms_p50", metric{quantile(firstAck, 0.5), "ms"}},
		{"rd2d.drain_ms_p50", metric{quantile(drain, 0.5), "ms"}},
		{"rd2d.unattributed_ns_per_event", metric{cpuNs - sum, "ns"}},
		{"traced.unattributed_pct", metric{100 * ratio(float64(l.timedWall-self), float64(l.timedWall)), "%"}},
		{"traced.overhead_pct", metric{100 * ratio(float64(l.timedWall-l.untimedWall), float64(l.untimedWall)), "%"}},
		{"offline.serial_eps", metric{serialEPS, "events/s"}},
		{"fail_ratio", metric{ratio(f(failed), f(attempted)), "ratio"}},
	}
}

func printMetrics(w io.Writer, ms []named) {
	for _, m := range ms {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.name, m.Value, m.Unit)
	}
}

// printStretches prints the closed loop's rate and the daemon's CPU per
// event in each stretch, the figures throughput_eps and cpu_ns_per_event
// are picked from.
func printStretches(w io.Writer, m *measured) {
	eps, cpuNs := m.closedStretches()
	fmt.Fprintf(w, "   closed-loop stretches (%v each): events/s, daemon cpu ns/event\n", stretch)
	for k := range eps {
		fmt.Fprintf(w, "   %34.0f %14.1f\n", eps[k], cpuNs[k])
	}
}

// printLayers prints the traced per-layer table against the daemon's CPU
// per event, with the remainder as its own line.
func printLayers(w io.Writer, l *layers, rows []row, cpuNs float64) {
	fmt.Fprintf(w, "   traced in-process replay: %d sessions, %d events\n", l.sessions, l.events)
	fmt.Fprintf(w, "   %-34s %14s %s\n", "layer (this mode)", "ns/event", "share of cpu_ns_per_event")
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
		fmt.Fprintf(w, "   %-34s %14.1f %5.1f%%\n", r.name, r.ns, 100*r.ns/cpuNs)
	}
	fmt.Fprintf(w, "   %-34s %14.1f %5.1f%%\n", "unattributed", cpuNs-sum, 100*(cpuNs-sum)/cpuNs)
	fmt.Fprintf(w, "   %-34s %14.1f\n", "daemon cpu_ns_per_event", cpuNs)
}

// per is d/n in units of unit; 0 when n is 0.
func per(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// ratio is a/b; 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// sourceID hashes the Go sources and go.mod files of the checkout outside
// the benchmark, naming the code a result was measured on even where the
// checkout is not a git repository.
func sourceID() string {
	h := sha256.New()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || p == "rd2dbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s %d\n", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
