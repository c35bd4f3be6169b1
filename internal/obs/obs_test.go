package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled flips the global switch for one test and restores it.
func withEnabled(t *testing.T) {
	t.Helper()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(false) })
}

func TestDisabledMetricsDropUpdates(t *testing.T) {
	SetEnabled(false)
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	c.Add(10)
	g.Add(5)
	g.Set(7)
	h.Observe(100)
	if c.Load() != 0 || g.Load() != 0 || g.Peak() != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("disabled metrics recorded: counter=%d gauge=%d/%d hist=%d",
			c.Load(), g.Load(), g.Peak(), h.Snapshot().Count)
	}
	if Clock() != 0 {
		t.Fatal("Clock() must return 0 while disabled")
	}
}

func TestCounterAndGauge(t *testing.T) {
	withEnabled(t)
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Add(10)
	g.Add(-7)
	if g.Load() != 3 || g.Peak() != 10 {
		t.Fatalf("gauge = %d peak %d, want 3 peak 10", g.Load(), g.Peak())
	}
	g.Add(4) // 7 < old peak: peak must not move
	if g.Peak() != 10 {
		t.Fatalf("peak moved to %d on a sub-peak rise", g.Peak())
	}
	g.Set(25)
	if g.Load() != 25 || g.Peak() != 25 {
		t.Fatalf("set: gauge = %d peak %d, want 25/25", g.Load(), g.Peak())
	}
}

func TestGaugeConcurrentPeak(t *testing.T) {
	withEnabled(t)
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Load() != 0 {
		t.Fatalf("gauge settled at %d, want 0", g.Load())
	}
	if p := g.Peak(); p < 1 || p > 8 {
		t.Fatalf("peak = %d, want within [1,8]", p)
	}
}

// TestGaugeEnterReleasesExactlyOnce is the regression test for the
// active-session gauge: a session that ends through more than one path
// (panic recovery AND idle-timeout cleanup both firing, say) must decrement
// the gauge exactly once, no matter how many times release runs.
func TestGaugeEnterReleasesExactlyOnce(t *testing.T) {
	withEnabled(t)
	var g Gauge
	release := g.Enter()
	if g.Load() != 1 {
		t.Fatalf("gauge after Enter = %d, want 1", g.Load())
	}
	release()
	release() // second (and any further) release is a no-op
	release()
	if g.Load() != 0 {
		t.Fatalf("gauge after repeated release = %d, want 0", g.Load())
	}

	// Concurrent double-release: still exactly one decrement per Enter.
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		rel := g.Enter()
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel()
			}()
		}
	}
	wg.Wait()
	if g.Load() != 0 {
		t.Fatalf("gauge settled at %d after concurrent releases, want 0", g.Load())
	}
	if p := g.Peak(); p < 1 {
		t.Fatalf("peak = %d, want >= 1", p)
	}
}

// TestGaugeEnterDisabled: when metrics are off at Enter time the increment
// is suppressed, and the returned release must not decrement either — even
// if metrics get enabled in between.
func TestGaugeEnterDisabled(t *testing.T) {
	SetEnabled(false)
	var g Gauge
	release := g.Enter()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(false) })
	release()
	if g.Load() != 0 {
		t.Fatalf("gauge = %d after disabled Enter + enabled release, want 0", g.Load())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	withEnabled(t)
	var h Histogram
	// 90 fast (≤16ns bucket), 9 medium, 1 slow observation.
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 9; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := uint64(90*10 + 9*1000 + 1_000_000); s.SumNs != want {
		t.Fatalf("sum = %d, want %d", s.SumNs, want)
	}
	if s.P50Ns != bucketUpper(bucketIndex(10)) {
		t.Fatalf("p50 = %d, want the 10ns bucket bound %d", s.P50Ns, bucketUpper(bucketIndex(10)))
	}
	if s.P99Ns != bucketUpper(bucketIndex(1000)) {
		t.Fatalf("p99 = %d, want the 1000ns bucket bound %d", s.P99Ns, bucketUpper(bucketIndex(1000)))
	}
	if s.MaxNs != bucketUpper(bucketIndex(1_000_000)) {
		t.Fatalf("max = %d, want the 1ms bucket bound", s.MaxNs)
	}
	if s.P50Ns > s.P90Ns || s.P90Ns > s.P99Ns {
		t.Fatalf("quantiles not monotone: %d %d %d", s.P50Ns, s.P90Ns, s.P99Ns)
	}
}

func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1 << 20, 20}, {1<<62 + 1, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestTimerSpans(t *testing.T) {
	withEnabled(t)
	var tm Timer
	start := tm.Start()
	if start <= 0 {
		t.Fatal("Start() must be positive while enabled")
	}
	time.Sleep(time.Millisecond)
	tm.ObserveSince(start)
	s := tm.Histogram.Snapshot()
	if s.Count != 1 {
		t.Fatalf("span count = %d, want 1", s.Count)
	}
	if s.SumNs < uint64(500*time.Microsecond) {
		t.Fatalf("span = %dns, want >= 0.5ms", s.SumNs)
	}
	// A token from the disabled era is dropped.
	tm.ObserveSince(0)
	if tm.Histogram.Snapshot().Count != 1 {
		t.Fatal("zero token must be ignored")
	}
}

func TestRegistrySharingAndReset(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	c1 := r.Counter("x.same")
	c2 := r.Counter("x.same")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Inc()
	g := r.Gauge("x.g")
	g.Add(3)
	r.Timer("x.t").Observe(50)
	r.Histogram("x.h").Observe(50)
	r.Reset()
	if c1.Load() != 0 || g.Load() != 0 || g.Peak() != 0 {
		t.Fatal("Reset must zero counters and gauges")
	}
	if r.Timer("x.t").Histogram.Snapshot().Count != 0 || r.Histogram("x.h").Snapshot().Count != 0 {
		t.Fatal("Reset must zero histograms and timers")
	}
}

func TestSnapshotJSONRoundTripAndValidate(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("a.count").Add(7)
	r.Gauge("a.depth").Add(2)
	r.Timer("a.span_ns").Observe(123)
	r.Histogram("a.lat_ns").Observe(456)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshot(data); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.count"] != 7 || back.Gauges["a.depth"].Value != 2 {
		t.Fatalf("round trip lost values: %+v", back)
	}
}

func TestValidateSnapshotRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `[`,
		"not object":      `[1,2]`,
		"missing section": `{"taken_unix_ns":1,"uptime_ns":1,"enabled":true,"counters":{},"gauges":{},"histograms":{}}`,
		"bad types":       `{"taken_unix_ns":1,"uptime_ns":1,"enabled":true,"counters":{"x":"y"},"gauges":{},"histograms":{},"timers":{}}`,
		"zero timestamp":  `{"taken_unix_ns":0,"uptime_ns":1,"enabled":true,"counters":{},"gauges":{},"histograms":{},"timers":{}}`,
		"peak below":      `{"taken_unix_ns":1,"uptime_ns":1,"enabled":true,"counters":{},"gauges":{"g":{"value":5,"peak":1}},"histograms":{},"timers":{}}`,
		"quantile order":  `{"taken_unix_ns":1,"uptime_ns":1,"enabled":true,"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum_ns":1,"mean_ns":1,"p50_ns":9,"p90_ns":3,"p99_ns":9,"max_ns":9}},"timers":{}}`,
	}
	for name, data := range cases {
		if err := ValidateSnapshot([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFormatSnapshotAndStats(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("z.events").Add(3)
	r.Gauge("z.depth").Add(1)
	r.Timer("z.span_ns").Observe(200)
	out := FormatSnapshot(r.Snapshot())
	for _, want := range []string{"z.events", "z.depth", "z.span_ns", "peak 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSnapshot missing %q in:\n%s", want, out)
		}
	}
	stats := FormatStats("RD2", []Stat{{"actions", 10}, {"races", 2}})
	if !strings.Contains(stats, "RD2:") || !strings.Contains(stats, "actions") || !strings.Contains(stats, "races") {
		t.Errorf("FormatStats output malformed:\n%s", stats)
	}
}

// firstWrite records everything written and closes first on the first
// write.
type firstWrite struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	first chan struct{}
}

func (w *firstWrite) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() == 0 {
		close(w.first)
	}
	return w.buf.Write(p)
}

// TestEmitterText: Stop flushes one text snapshot even before the first
// tick, and the ticker emits on its own between Start and Stop.
func TestEmitterText(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("e.ticks").Add(1)
	var buf bytes.Buffer
	e := StartEmitter(&buf, r, time.Hour) // only the Stop flush fires
	e.Stop()
	if n := strings.Count(buf.String(), "e.ticks"); n != 1 {
		t.Fatalf("Stop flushed %d snapshots, want 1:\n%s", n, buf.String())
	}
	w := &firstWrite{first: make(chan struct{})}
	e = StartEmitter(w, r, time.Millisecond)
	select {
	case <-w.first:
	case <-time.After(10 * time.Second):
		t.Fatal("ticker emitted no snapshot in 10s")
	}
	e.Stop()
	if n := strings.Count(w.buf.String(), "e.ticks"); n < 2 {
		t.Fatalf("want a ticked snapshot and the Stop flush, got %d:\n%s", n, w.buf.String())
	}
}
