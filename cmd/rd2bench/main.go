// Command rd2bench regenerates the paper's evaluation artifacts:
//
//	rd2bench -table2       Table 2 — qps / seconds and race counts for
//	                       every benchmark under uninstrumented,
//	                       FASTTRACK and RD2 instrumentation
//	rd2bench -fig4         Fig 4 — conflict checks for a size() after n
//	                       concurrent puts: access points vs invocations
//	rd2bench -complexity   Section 5.4 — Θ(1) bounded engine vs Θ(|A|)
//	                       enumerating engine as the trace grows
//	rd2bench -races        Section 7 — rediscover the three harmful races
//	                       (freedPageSpace, chunks, samples-size hint)
//	rd2bench -shardscale   sharded pipeline throughput at 1, 2, 4, and
//	                       GOMAXPROCS shards vs the serial detector
//	rd2bench -replay f     replay a recorded trace file (text or .rdb
//	                       binary, auto-detected) through serial and
//	                       sharded detection
//
// With no selection flags, everything runs (except -shardscale, which is
// opt-in). -scale multiplies workload sizes (higher = more stable timings).
// -shards N > 1 adds a sharded-pipeline column to Table 2. -cpuprofile and
// -memprofile write pprof profiles of the selected experiments.
//
// Observability (see DESIGN.md §7): -http serves /metrics, /debug/vars and
// /debug/pprof while experiments run; -stats-interval emits periodic text
// snapshots to stderr; -obs prints the unified per-detector stat tables
// after Table 2 plus a final metrics snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rd2bench", flag.ContinueOnError)
	table2 := fs.Bool("table2", false, "run the Table 2 benchmark suite")
	fig4 := fs.Bool("fig4", false, "run the Fig 4 check-count experiment")
	complexity := fs.Bool("complexity", false, "run the Section 5.4 scaling experiment")
	races := fs.Bool("races", false, "run the Section 7 race rediscovery")
	overhead := fs.Bool("overhead", false, "run the per-event analysis cost comparison")
	ablation := fs.Bool("ablation", false, "run the design-choice ablations")
	shardscale := fs.Bool("shardscale", false, "run the shard-scaling throughput experiment")
	replayPath := fs.String("replay", "", "replay a recorded trace file (text or .rdb RDB2 binary, auto-detected by magic header) through serial and sharded detection")
	replaySpec := fs.String("replay-spec", "dict", "built-in specification registered for every object during -replay")
	scale := fs.Int("scale", 2, "workload scale multiplier")
	seed := fs.Int64("seed", 42, "workload random seed")
	shards := fs.Int("shards", 0, "add a sharded-pipeline pass with N shards to Table 2 (0 = off)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	httpAddr := fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (enables metrics)")
	statsInterval := fs.Duration("stats-interval", 0, "emit a metrics snapshot to stderr at this interval (enables metrics)")
	obsFlag := fs.Bool("obs", false, "print per-detector stat tables and a final metrics snapshot (enables metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := !*table2 && !*fig4 && !*complexity && !*races && !*overhead && !*ablation &&
		!*shardscale && *replayPath == ""

	if *httpAddr != "" || *statsInterval > 0 || *obsFlag {
		obs.SetEnabled(true)
	}
	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rd2bench: metrics on http://%s/metrics\n", srv.Addr())
	}
	if *statsInterval > 0 {
		em := obs.StartEmitter(os.Stderr, obs.Default, *statsInterval)
		defer em.Stop()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			}
		}()
	}

	if *table2 || all {
		fmt.Println("== Table 2: performance and races ==")
		rows := harness.RunTable2(harness.Config{Scale: *scale, Seed: *seed, Shards: *shards})
		fmt.Print(harness.RenderTable2(rows))
		fmt.Println()
		if *obsFlag {
			fmt.Println("== Detector counters (unified stat surface) ==")
			fmt.Print(harness.RenderDetectorStats(rows))
			fmt.Println()
		}
	}
	if *replayPath != "" {
		fmt.Println("== Trace replay: serial vs sharded detection ==")
		if err := runReplay(*replayPath, *replaySpec, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 1
		}
		fmt.Println()
	}
	if *shardscale {
		fmt.Println("== Shard scaling: sharded pipeline vs serial RD2 ==")
		counts := []int{1, 2, 4}
		if n := runtime.GOMAXPROCS(0); n > 4 {
			counts = append(counts, n)
		}
		rows := harness.RunShardScaling(counts, *scale, *seed)
		fmt.Print(harness.RenderShardScaling(rows))
		fmt.Println()
	}
	if *fig4 || all {
		fmt.Println("== Fig 4: conflict checks for size() after n resizing puts ==")
		rows, err := harness.RunFig4(8)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 1
		}
		fmt.Print(harness.RenderFig4(rows))
		fmt.Println()
	}
	if *complexity || all {
		fmt.Println("== Section 5.4: bounded vs enumerating engine scaling ==")
		sizes := []int{1000, 2000, 4000, 8000}
		if *scale > 4 {
			sizes = append(sizes, 16000)
		}
		rows, err := harness.RunComplexity(sizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 1
		}
		fmt.Print(harness.RenderComplexity(rows))
		fmt.Println()
	}
	if *overhead || all {
		fmt.Println("== Per-event analysis cost ==")
		rows, err := harness.RunOverhead(20000**scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 1
		}
		fmt.Print(harness.RenderOverhead(rows))
		fmt.Println()
	}
	if *ablation || all {
		fmt.Println("== Design-choice ablations ==")
		rows, err := harness.RunAblations(500**scale, 8)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 1
		}
		fmt.Print(harness.RenderAblations(rows))
		fmt.Println()
	}
	if *races || all {
		fmt.Println("== Section 7: harmful race rediscovery ==")
		reports, err := harness.RunRaceDiscovery(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2bench: %v\n", err)
			return 1
		}
		fmt.Print(harness.RenderRaceReports(reports))
	}
	if *obsFlag {
		fmt.Fprint(os.Stderr, obs.FormatSnapshot(obs.Default.Snapshot()))
	}
	return 0
}

// runReplay loads a recorded trace (format auto-detected: RDB2 binary or
// text) and runs it through the serial detector and the sharded pipeline,
// reporting wall-clock throughput and the (identical) race counts.
func runReplay(path, specName string, shards int) error {
	rep, err := specs.Rep(specName)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := wire.ParseAny(f)
	if err != nil {
		return err
	}
	objs := map[trace.ObjID]bool{}
	for _, e := range tr.Events {
		if e.Kind == trace.ActionEvent {
			objs[e.Act.Obj] = true
		}
	}

	serial := core.New(core.Config{})
	for o := range objs {
		serial.Register(o, rep)
	}
	t0 := time.Now()
	if err := serial.RunTrace(tr); err != nil {
		return err
	}
	serialDur := time.Since(t0)

	if shards <= 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	p := pipeline.New(pipeline.Config{Shards: shards})
	for o := range objs {
		p.Register(o, rep)
	}
	t0 = time.Now()
	if err := p.RunTrace(tr); err != nil {
		return err
	}
	shardedDur := time.Since(t0)

	evs := float64(tr.Len())
	fmt.Printf("  %-22s %10d events  %8d objects\n", path, tr.Len(), len(objs))
	fmt.Printf("  serial:    %12v  %10.0f events/s  %d races\n",
		serialDur.Round(time.Microsecond), evs/serialDur.Seconds(), serial.Stats().Races)
	fmt.Printf("  %d shards: %12v  %10.0f events/s  %d races\n",
		shards, shardedDur.Round(time.Microsecond), evs/shardedDur.Seconds(), p.Stats().Races)
	return nil
}
