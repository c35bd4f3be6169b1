// Command obscheck validates observability invariants for CI. It has three
// modes:
//
// Default: validate a metrics snapshot against the obs JSON schema. It
// reads one snapshot (as served by the -http /metrics endpoint of rd2 or
// rd2d) from stdin or from a file argument, and exits 0 iff the snapshot
// is well-formed: all required keys present, gauge peaks >= values,
// histogram bucket sums consistent, and quantiles monotone. ci.sh -obs
// uses it to gate the HTTP smoke test.
//
//	rd2 -trace run.trace -http :6060 -serve &
//	curl -s localhost:6060/metrics | obscheck
//
// -allocs: assert the disabled-metrics fast path of scoped registries and
// stage spans allocates exactly zero bytes per operation (the contract that
// keeps always-on instrumentation free in production builds). Runs
// in-process with testing.AllocsPerRun; no input.
//
// -prom: validate Prometheus exposition text (as served by
// /metrics?format=prom) from stdin or a file: strict 0.0.4 parse, at least
// one sample, and every per-scope labelled series must have a label-free
// rolled-up parent series.
//
//	curl -s 'localhost:6060/metrics?format=prom' | obscheck -prom
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("obscheck", flag.ContinueOnError)
	allocs := fs.Bool("allocs", false, "assert the disabled path of scoped registries and spans is 0 allocs/op")
	prom := fs.Bool("prom", false, "validate Prometheus exposition text instead of a JSON snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *allocs {
		return checkAllocs()
	}

	var data []byte
	var err error
	switch fs.NArg() {
	case 0:
		data, err = io.ReadAll(os.Stdin)
	case 1:
		data, err = os.ReadFile(fs.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: obscheck [-allocs|-prom] [input-file] (default: stdin)")
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
		return 2
	}
	if *prom {
		return checkProm(data)
	}
	if err := obs.ValidateSnapshot(data); err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: invalid snapshot: %v\n", err)
		return 1
	}
	fmt.Println("obscheck: snapshot ok")
	return 0
}

// checkAllocs pins the disabled-metrics fast path at zero allocations per
// operation for every instrument kind, through a session scope (so the
// rollup chain is linked) and for stage spans. This is the no-test-binary
// twin of internal/obs's TestObsDisabledZeroAlloc, runnable as a bare CI
// gate without compiling the test tree.
func checkAllocs() int {
	obs.SetEnabled(false)
	scope := obs.NewRegistry().Scope("session", "obscheck")
	c := scope.Counter("check.counter")
	g := scope.Gauge("check.gauge")
	h := scope.Histogram("check.histogram")
	tm := scope.Timer("check.timer_ns")
	sp := scope.Span(obs.StageDetect)
	// Fleet scheduler instruments (DESIGN.md §14): the per-event tenant
	// throttle fast path and the per-quantum schedule span are the two
	// calls on the fleet hot path, so they share the zero-alloc contract.
	freg := obs.NewRegistry()
	fsched := fleet.New(fleet.Config{Obs: freg})
	fth := fsched.Throttle("obscheck")
	fquanta := freg.Counter("fleet.quanta")
	frunnable := freg.Gauge("fleet.runnable")
	fsp := freg.Span(obs.StageSchedule)
	// Durable-session checkpoint instruments (DESIGN.md §15): the WAL
	// append counter sits on rd2d's per-frame ingest path, so the whole
	// rd2d.ckpt.* family shares the zero-alloc contract when metrics are off.
	dreg := obs.NewRegistry()
	dwal := dreg.Counter("rd2d.ckpt.wal_appends")
	dsync := dreg.Counter("rd2d.ckpt.wal_syncs")
	dbytes := dreg.Counter("rd2d.ckpt.bytes")
	dns := dreg.Counter("rd2d.ckpt.ns")
	fail := 0
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"counter.Inc", func() { c.Inc() }},
		{"counter.Add", func() { c.Add(3) }},
		{"gauge.Add", func() { g.Add(1) }},
		{"gauge.Set", func() { g.Set(2) }},
		{"histogram.Observe", func() { h.Observe(500) }},
		{"timer.ObserveSince", func() { tm.ObserveSince(tm.Start()) }},
		{"span.Start/End", func() { sp.End(sp.Start(), 7) }},
		{"fleet.Throttle.Wait", func() { fth.Wait(1) }},
		{"fleet.quanta.Inc", func() { fquanta.Inc() }},
		{"fleet.runnable.Add", func() { frunnable.Add(1) }},
		{"fleet stage.schedule span", func() { fsp.End(fsp.Start(), 1) }},
		{"ckpt.wal_appends.Inc", func() { dwal.Inc() }},
		{"ckpt.wal_syncs.Inc", func() { dsync.Inc() }},
		{"ckpt.bytes.Add", func() { dbytes.Add(4096) }},
		{"ckpt.ns.Add", func() { dns.Add(1000) }},
	} {
		if n := testing.AllocsPerRun(1000, op.fn); n != 0 {
			fmt.Fprintf(os.Stderr, "obscheck: disabled %s allocates %v per op, want 0\n", op.name, n)
			fail = 1
		}
	}
	if fail == 0 {
		fmt.Println("obscheck: disabled scoped path is 0 allocs/op")
	}
	return fail
}

// checkProm strictly parses Prometheus exposition text and checks the
// scope-rollup shape: any series carrying scope labels must coexist with a
// label-free global series of the same name.
func checkProm(data []byte) int {
	samples, err := obs.ParsePrometheus(strings.NewReader(string(data)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: invalid prometheus exposition: %v\n", err)
		return 1
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "obscheck: prometheus exposition has no samples")
		return 1
	}
	scopeLabels := func(s obs.PromSample) int {
		n := len(s.Labels)
		if _, bucket := s.Labels["le"]; bucket {
			n-- // the bucket label is structural, not a scope
		}
		return n
	}
	global := map[string]bool{}
	for _, s := range samples {
		if scopeLabels(s) == 0 {
			global[s.Name] = true
		}
	}
	for _, s := range samples {
		if scopeLabels(s) > 0 && !global[s.Name] {
			fmt.Fprintf(os.Stderr, "obscheck: scoped series %s has no rolled-up global series\n", s.Key())
			return 1
		}
	}
	fmt.Printf("obscheck: prometheus exposition ok (%d samples)\n", len(samples))
	return 0
}
