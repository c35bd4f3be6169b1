package pipeline

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// BenchmarkPipelineFrontend measures the full producer path end-to-end:
// happens-before stamping plus routing every stamped event into the shard
// detectors (RunTrace), on an action-dominated multi-object trace. One op is
// one whole-trace run, so allocs/op is the total allocation count of the
// stamp-and-feed front-end plus detection.
func BenchmarkPipelineFrontend(b *testing.B) {
	gcfg := trace.GenConfig{
		Threads: 8, Objects: 32, Keys: 64, Vals: 8, Locks: 4,
		OpsMin: 1500, OpsMax: 1500,
		PSize: 5, PGet: 45, PLocked: 10, PRemove: 20,
	}
	tr := trace.Generate(rand.New(rand.NewSource(7)), gcfg)

	shardCounts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		shardCounts = append(shardCounts, p)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := New(Config{Shards: shards})
				for o := 0; o < gcfg.Objects; o++ {
					p.Register(trace.ObjID(o), dictRep)
				}
				if err := p.RunTrace(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
