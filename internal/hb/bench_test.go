package hb

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// benchGenConfig returns a generator config whose traces are dominated by
// action events (the realistic regime: Table 2 workloads interleave long
// runs of dictionary operations between synchronization points).
func benchGenConfig(opsPerThread, pLocked int) trace.GenConfig {
	return trace.GenConfig{
		Threads: 8, Objects: 16, Keys: 64, Vals: 8, Locks: 4,
		OpsMin: opsPerThread, OpsMax: opsPerThread,
		PSize: 5, PGet: 45, PLocked: pLocked, PRemove: 20,
	}
}

// BenchmarkStampAll measures the happens-before front-end alone: stamping a
// fixed pre-generated trace with a fresh engine per iteration. One op is one
// whole-trace StampAll, so allocs/op is the total front-end allocation count
// for the trace — the quantity the snapshot-stamping tentpole targets.
func BenchmarkStampAll(b *testing.B) {
	for _, bc := range []struct {
		name    string
		ops     int
		pLocked int
	}{
		// ~10% sync events: the action-dominated regime of real traces.
		{"action", 2000, 10},
		// ~55% sync events: stresses the segment-rollover slow path.
		{"syncheavy", 500, 60},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := trace.Generate(rand.New(rand.NewSource(42)), benchGenConfig(bc.ops, bc.pLocked))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := StampAll(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
