package obs

// Span names for the five stages of the online detection pipeline, in
// stream order. Each names a Span (a "<name>_ns" latency timer plus a
// "<name>_items" throughput counter) recorded per session scope and rolled
// up globally, so operators can see where time goes between the wire and
// the race report — per tenant and fleet-wide.
const (
	StageDecode   = "stage.decode"   // wire frame → decoded events
	StageStamp    = "stage.stamp"    // happens-before vector-clock stamping
	StageDispatch = "stage.dispatch" // shard routing + queue handoff
	StageDetect   = "stage.detect"   // per-shard commutativity race detection
	StageReport   = "stage.report"   // race record serialization / JSONL emit
	StageSchedule = "stage.schedule" // fleet-mode run quantum (wait + execute)
)

// Span is a start/stop pair over a named histogram pair: span latency in
// nanoseconds and a count of items the span covered (events decoded,
// events stamped, races written...). It is deliberately tiny — two metric
// pointers — so stages can hold one per instance and the disabled path
// stays one branch per call with zero allocation:
//
//	sp := reg.Span(obs.StageDecode)
//	start := sp.Start()            // 0 when disabled
//	... decode a batch ...
//	sp.End(start, nEvents)         // no-op when start == 0
type Span struct {
	lat   *Timer
	items *Counter
}

// Span returns the named span, creating its backing "<name>_ns" timer and
// "<name>_items" counter if needed (scoped registries link both up their
// rollup chains, like any other metric).
func (r *Registry) Span(name string) *Span {
	r.mu.Lock()
	sp, ok := r.spans[name]
	r.mu.Unlock()
	if ok {
		return sp
	}
	// Create the backing metrics outside our lock (Timer/Counter retake
	// it), then publish under the lock, keeping the first-created span.
	lat := r.Timer(name + "_ns")
	items := r.Counter(name + "_items")
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp, ok := r.spans[name]; ok {
		return sp
	}
	sp = &Span{lat: lat, items: items}
	if r.spans == nil {
		r.spans = map[string]*Span{}
	}
	r.spans[name] = sp
	return sp
}

// GetSpan returns the named span from the Default registry.
func GetSpan(name string) *Span { return Default.Span(name) }

// Start returns an opaque span start token (0 when disabled).
func (s *Span) Start() int64 { return Clock() }

// End records the span from a Start token and adds items to the span's
// throughput counter. A zero token (span started while disabled) is
// ignored, so enable/disable races drop the span instead of recording
// garbage.
func (s *Span) End(start int64, items int) {
	if start <= 0 || !enabled.Load() {
		return
	}
	s.lat.ObserveSince(start)
	if items > 0 {
		s.items.Add(uint64(items))
	}
}

// Items returns the span's throughput counter value.
func (s *Span) Items() uint64 { return s.items.Load() }

// Latency returns a snapshot of the span's latency histogram.
func (s *Span) Latency() HistogramSnapshot { return s.lat.Histogram.Snapshot() }
