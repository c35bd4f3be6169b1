package vclock

import (
	"fmt"
	"testing"
)

// The satellite benchmarks for the LEQ/Join fast paths: the pre-existing
// implementations went through Get (a bounds check and branch per entry) or
// grow on every call; the specialized paths do one length comparison up
// front. leqViaGet/joinViaGrow reproduce the old code as baselines.

func leqViaGet(c, d VC) bool {
	for i, v := range c {
		if v > d.Get(Tid(i)) {
			return false
		}
	}
	return true
}

func joinViaGrow(c, d VC) VC {
	c = c.grow(len(d))
	for i, v := range d {
		if v > c[i] {
			c[i] = v
		}
	}
	return c
}

func benchClocks(n int) (VC, VC) {
	c, d := make(VC, n), make(VC, n)
	for i := range c {
		c[i] = uint64(i)
		d[i] = uint64(i + 1) // c ⊑ d, full scan required
	}
	return c, d
}

func BenchmarkLEQFastPath(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		c, d := benchClocks(n)
		b.Run(fmt.Sprintf("fast/width=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.LEQ(d) {
					b.Fatal("order broken")
				}
			}
		})
		b.Run(fmt.Sprintf("viaGet/width=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !leqViaGet(c, d) {
					b.Fatal("order broken")
				}
			}
		})
	}
}

func BenchmarkJoinFastPath(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		c, d := benchClocks(n)
		b.Run(fmt.Sprintf("fast/width=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c = c.Join(d)
			}
		})
		b.Run(fmt.Sprintf("viaGrow/width=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c = joinViaGrow(c, d)
			}
		})
	}
}

func BenchmarkEpochLEQ(b *testing.B) {
	_, d := benchClocks(64)
	e := Epoch{T: 32, C: 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !e.LEQ(d) {
			b.Fatal("order broken")
		}
	}
}
