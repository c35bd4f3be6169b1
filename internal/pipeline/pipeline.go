// Package pipeline parallelizes commutativity race detection (Algorithm 1)
// across CPU cores.
//
// Happens-before stamping (internal/hb) is inherently order-dependent — the
// auxiliary maps T and L of Table 1 evolve with every synchronization event
// — so it stays serial. Detection, however, is strictly per-object: all of
// Algorithm 1's state lives in the per-object objState (active points and
// their accumulated clocks), and an action on object o reads and writes
// only o's state. Hash-partitioning objects onto N shards, each owning a
// private core.Detector, therefore preserves every race verdict: each
// shard sees exactly the subsequence of stamped events for its objects, in
// trace order, which is indistinguishable (to a per-object algorithm) from
// the serial run. The differential tests in this package assert that
// equivalence on randomized traces.
//
// The producer (whoever calls Process — the monitored runtime's emit path,
// RunTrace, or an rd2d session runner) batches events per shard and hands
// them over bounded channels, amortizing channel synchronization over
// BatchSize events. A batch leaves when it is full, or earlier when the
// producer calls Flush: rd2d's per-connection runner does so whenever its
// ingest queue runs dry, so a verdict never waits for input that has not
// arrived, while under backlog batches stay full. Registrations and
// compaction thresholds travel the same ordered streams, so a shard never
// sees an action before its object's registration, wherever the batch
// boundaries fall.
//
// Determinism: per-shard race reports are merged and sorted with
// core.SortRaces, so the merged report is independent of shard count and
// goroutine scheduling. Stats are summed across shards; Checks, Races,
// Actions, and DistinctObjects are exactly the serial counts (disjoint
// object partitions), while PeakActive becomes the sum of per-shard peaks
// (an upper bound on the serial peak, as shards peak at different times).
//
// Access point representations must be immutable after construction (the
// ap.Rep contract); ap.NaiveRep interns state inside Touch and is therefore
// not safe under the pipeline — use it only with the serial detector.
package pipeline

import (
	"fmt"
	"log"
	"runtime"
	"runtime/debug"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// pipeObs bundles the pipeline-wide obs instruments, resolved once per
// pipeline from Config.Obs (per-shard instruments live on each shard so
// every worker updates its own cache line). Pipelines built against an rd2d
// session scope produce per-session series that roll up into the globals.
type pipeObs struct {
	events  *obs.Counter
	batches *obs.Counter
	// panics counts recovered detector-shard panics (supervision): each
	// one degrades its pipeline to a partial-but-honest result.
	panics *obs.Counter
	// dispatch spans batch handoffs to shard queues (items = batch length;
	// latency includes backpressure blocking on a full queue). detect spans
	// each shard batch through its private detector (items = events).
	dispatch *obs.Span
	detect   *obs.Span
}

func newPipeObs(reg *obs.Registry) *pipeObs {
	if reg == nil {
		reg = obs.Default
	}
	return &pipeObs{
		events:   reg.Counter("pipeline.events"),
		batches:  reg.Counter("pipeline.batches"),
		panics:   reg.Counter("pipeline.shard_panics"),
		dispatch: reg.Span(obs.StageDispatch),
		detect:   reg.Span(obs.StageDetect),
	}
}

// Defaults for Config fields left zero.
const (
	DefaultBatchSize = 128
	DefaultQueueLen  = 8
)

// Config configures a Pipeline.
type Config struct {
	// Shards is the number of detector shards; <= 0 means GOMAXPROCS.
	Shards int
	// BatchSize is the number of items handed to a shard per channel send;
	// <= 0 means DefaultBatchSize.
	BatchSize int
	// QueueLen is the per-shard channel depth in batches; <= 0 means
	// DefaultQueueLen. The producer blocks when a shard falls this far
	// behind (backpressure instead of unbounded buffering).
	QueueLen int
	// Core configures each shard's private detector. MaxRaces caps both the
	// per-shard retention and the merged report (negative: nothing is
	// retained or merged). OnRace, when set, is
	// invoked from shard goroutines and must be safe for concurrent use.
	Core core.Config
	// Obs is the registry the pipeline's counters, gauges, and stage spans
	// record into (an rd2d session scope, say); nil means obs.Default. When
	// Core.Obs is nil it inherits this registry, so shard detectors report
	// into the same scope.
	Obs *obs.Registry
}

// itemKind discriminates the messages on a shard's stream.
type itemKind uint8

const (
	itemEvent    itemKind = iota // ev: a stamped action or die event
	itemRegister                 // ev.Act.Obj + rep: object registration
	itemCompact                  // threshold: compaction request
	itemCtl                      // ctl: barrier control function (Barrier)
)

// ctlItem is one shard's share of a Barrier: fn runs on the shard goroutine
// against its private detector, then done receives whether it actually ran
// (false when the shard was retired by a panic or stopped by an error). The
// channel is buffered so the shard never blocks on a slow barrier caller.
type ctlItem struct {
	fn   func(*core.Detector)
	done chan bool
}

// item is one ordered message to a shard.
type item struct {
	kind      itemKind
	ev        trace.Event
	rep       ap.Rep
	threshold vclock.VC
	ctl       *ctlItem
}

// shard is one worker: a private detector fed over a bounded channel. Each
// shard owns its obs instruments (distinct cache lines, no cross-shard
// contention): queue depth in batches (producer increments on send, worker
// decrements after processing — the peak is the high-water backlog),
// events processed, and races found, updated once per batch.
//
// The detector's back-end arena (recycled object states, spill tables, and
// promoted clocks — see core/arena.go) is detector-private and unlocked,
// which is sound here because the detector is goroutine-confined: only the
// shard worker calls Process/Compact, and the merge path reads Races and
// Stats strictly after the worker's done channel closes. Race records
// themselves carry clocks from the arena's never-recycled report slab, so
// merged reports stay valid after further shard processing.
type shard struct {
	det    *core.Detector
	ch     chan []item
	done   chan struct{}
	err    error // first processing error (shard keeps draining)
	errSeq int
	panics int  // recovered panics (first one retires the detector)
	dead   bool // detector retired after a panic; shard drains only

	obsQueue  *obs.Gauge   // pipeline.shard.<i>.queue_batches
	obsEvents *obs.Counter // pipeline.shard.<i>.events
	obsRaces  *obs.Counter // pipeline.shard.<i>.races
	lastRaces int          // detector race count at last batch boundary
}

// Pipeline is a sharded parallel commutativity race detector. The producer
// side (Register, Process, Compact, Flush, Barrier, Close) must be called
// from a single goroutine, or externally serialized — the monitored
// runtime's emit lock provides exactly that. Results (Races, Stats,
// DistinctObjects) are available after Close; calling them closes the
// pipeline implicitly.
type Pipeline struct {
	cfg     Config
	ob      *pipeObs
	shards  []*shard
	pending [][]item    // per-shard batch under construction (producer-owned)
	free    chan []item // recycled batch buffers
	closed  bool

	// Merged results, filled by Close.
	races    []core.Race
	stats    core.Stats
	distinct int
	panics   int
	err      error
}

// New starts a pipeline with cfg.Shards detector goroutines.
func New(cfg Config) *Pipeline {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	if cfg.Core.Obs == nil {
		cfg.Core.Obs = reg
	}
	p := &Pipeline{
		cfg:     cfg,
		ob:      newPipeObs(reg),
		pending: make([][]item, cfg.Shards),
		free:    make(chan []item, cfg.Shards*(cfg.QueueLen+2)),
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			det:       core.New(cfg.Core),
			ch:        make(chan []item, cfg.QueueLen),
			done:      make(chan struct{}),
			obsQueue:  reg.Gauge(fmt.Sprintf("pipeline.shard.%d.queue_batches", i)),
			obsEvents: reg.Counter(fmt.Sprintf("pipeline.shard.%d.events", i)),
			obsRaces:  reg.Counter(fmt.Sprintf("pipeline.shard.%d.races", i)),
		}
		p.shards = append(p.shards, s)
		go p.run(s)
	}
	return p
}

// Shards returns the shard count.
func (p *Pipeline) Shards() int { return len(p.shards) }

// run is the shard goroutine: drain batches, feed the private detector.
// The detector work is supervised (runBatch): a panic retires the detector
// but never kills the goroutine, so the producer is never left blocking on
// a dead shard and the session degrades instead of crashing.
func (p *Pipeline) run(s *shard) {
	defer close(s.done)
	for batch := range s.ch {
		start := p.ob.detect.Start()
		nEvents := p.runBatch(s, batch)
		p.ob.detect.End(start, nEvents)
		// Metrics once per batch, not per item: queue depth drops, and the
		// shard's event/race counters advance by this batch's delta.
		if obs.Enabled() {
			s.obsQueue.Add(-1)
			p.ob.batches.Inc()
			if nEvents > 0 {
				s.obsEvents.Add(uint64(nEvents))
				p.ob.events.Add(uint64(nEvents))
			}
			if !s.dead {
				if r := s.det.Stats().Races; r > s.lastRaces {
					s.obsRaces.Add(uint64(r - s.lastRaces))
					s.lastRaces = r
				}
			}
		}
		// Recycle the buffer; drop item contents so clocks and reps are not
		// retained past their batch.
		clear(batch)
		select {
		case p.free <- batch[:0]:
		default:
		}
	}
	// Publish the detector's batched deltas once the stream drains, so
	// post-run snapshots are exact. A retired detector may be mid-update:
	// leave it alone.
	if !s.dead {
		s.det.FlushObs()
	}
}

// runBatch feeds one batch to the shard's detector under a panic guard and
// returns the number of events it carried. A recovered panic is logged with
// the offending item and stack, counted (pipeline.shard_panics), and
// retires the detector: the shard keeps draining so the producer never
// blocks, the races found before the panic are still merged (best-effort,
// see Close), and the pipeline reports Degraded.
func (p *Pipeline) runBatch(s *shard, batch []item) (nEvents int) {
	i := 0
	defer func() {
		if r := recover(); r != nil {
			s.panics++
			s.dead = true
			p.ob.panics.Inc()
			at := "batch boundary"
			if i < len(batch) {
				switch batch[i].kind {
				case itemEvent:
					at = fmt.Sprintf("event %d (%s)", batch[i].ev.Seq, &batch[i].ev)
				case itemRegister:
					at = fmt.Sprintf("register obj %d", batch[i].ev.Act.Obj)
				case itemCompact:
					at = "compact"
				case itemCtl:
					at = "barrier ctl"
				}
			}
			log.Printf("pipeline: recovered shard panic at %s: %v\n%s", at, r, debug.Stack())
		}
	}()
	for ; i < len(batch); i++ {
		it := &batch[i]
		switch it.kind {
		case itemEvent:
			nEvents++
			// After a failure or a panic the shard keeps draining (so the
			// producer never blocks) but stops detecting.
			if s.err != nil || s.dead {
				continue
			}
			if err := s.det.Process(&it.ev); err != nil {
				s.err, s.errSeq = err, it.ev.Seq
			}
		case itemRegister:
			if s.dead {
				continue
			}
			s.det.Register(it.ev.Act.Obj, it.rep)
		case itemCompact:
			if s.dead {
				continue
			}
			s.det.Compact(it.threshold)
		case itemCtl:
			// The done send rides a defer so a panicking fn still signals
			// (as skipped) before the outer recover retires the shard —
			// Barrier must never deadlock on a dying shard.
			func() {
				ran := false
				defer func() { it.ctl.done <- ran }()
				if s.err == nil && !s.dead {
					it.ctl.fn(s.det)
					ran = true
				}
			}()
		}
	}
	return nEvents
}

// splitmix64 is the shard hash: cheap, and scrambles the low bits so dense
// sequential object ids spread evenly over any shard count.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardOf maps an object to its owning shard.
func (p *Pipeline) shardOf(obj trace.ObjID) int {
	return int(splitmix64(uint64(int64(obj))) % uint64(len(p.shards)))
}

// send hands one finished batch to shard i under the stage.dispatch span
// (items = batch length; the latency includes blocking on a full shard
// queue, so dispatch p99 is the backpressure signal).
func (p *Pipeline) send(i int, buf []item) {
	start := p.ob.dispatch.Start()
	p.shards[i].obsQueue.Add(1)
	p.shards[i].ch <- buf
	p.ob.dispatch.End(start, len(buf))
}

// push appends an item to a shard's pending batch, flushing when full.
func (p *Pipeline) push(i int, it item) {
	buf := p.pending[i]
	if buf == nil {
		select {
		case buf = <-p.free:
		default:
			buf = make([]item, 0, p.cfg.BatchSize)
		}
	}
	buf = append(buf, it)
	if len(buf) >= p.cfg.BatchSize {
		p.send(i, buf)
		p.pending[i] = nil
		return
	}
	p.pending[i] = buf
}

// Register associates an object with its access point representation. Like
// the serial detector, objects must be registered before their first
// action; the registration travels the owning shard's ordered stream. The
// rep must be immutable (safe for concurrent use from other shards that
// share it for other objects).
func (p *Pipeline) Register(obj trace.ObjID, rep ap.Rep) {
	p.push(p.shardOf(obj), item{
		kind: itemRegister,
		ev:   trace.Event{Act: trace.Action{Obj: obj}},
		rep:  rep,
	})
}

// Process routes one stamped event to its object's shard. Synchronization
// events are dropped here — the serial happens-before engine upstream has
// already folded them into every event's clock. The event's clock is a
// segment snapshot shared with every other event of the same thread
// segment (and possibly with lock clocks and in-flight channel messages);
// it travels into the shard by reference with zero copying, which is safe
// because both the engine and all shard detectors honor the hb package's
// Event.Clock immutability contract (verified by the -tags=clockcheck
// build). The event must not be mutated by the caller afterwards.
func (p *Pipeline) Process(e *trace.Event) error {
	switch e.Kind {
	case trace.ActionEvent, trace.DieEvent:
		p.push(p.shardOf(e.Act.Obj), item{kind: itemEvent, ev: *e})
	}
	return nil
}

// Compact broadcasts a compaction threshold to every shard. It is
// asynchronous — each shard compacts when the request reaches the head of
// its stream — so it returns 0; reclamation totals surface in the merged
// Stats after Close. The threshold must not be mutated afterwards.
func (p *Pipeline) Compact(threshold vclock.VC) int {
	if threshold.Bottom() {
		return 0
	}
	for i := range p.shards {
		p.push(i, item{kind: itemCompact, threshold: threshold})
	}
	return 0
}

// Flush sends every pending partial batch to its shard; with nothing
// pending it sends nothing. Like the rest of the producer surface it must
// be called from the producing goroutine, before Close. It moves only batch
// boundaries, never the order of any shard's stream, so verdicts do not
// depend on when it is called. Barrier and Close call it; rd2d's
// per-connection session runner calls it each time it is about to block on
// an empty ingest queue, so the tail of a frame reaches the detectors
// without waiting for the next frame.
func (p *Pipeline) Flush() {
	for i, buf := range p.pending {
		if buf != nil {
			p.send(i, buf)
			p.pending[i] = nil
		}
	}
}

// Barrier quiesces every shard at the current stream position and runs fn on
// each shard's goroutine against its private detector — after everything
// produced so far, before anything produced later. It flushes pending partial
// batches, broadcasts a control item, and blocks until all shards have
// executed (or skipped) it; like the rest of the producer surface it must be
// called from the producing goroutine. rd2d's durable checkpointing uses it
// to export the sharded detectors at an exact event boundary, and to import
// restored shard states before the first event. fn sees each detector
// exclusively and must not retain it. A shard retired by a panic or stopped
// by a processing error skips fn and Barrier reports it: state gathered from
// the surviving shards would be incomplete, so the caller must abandon the
// checkpoint (the session is degraded anyway).
func (p *Pipeline) Barrier(fn func(i int, det *core.Detector)) error {
	if p.closed {
		return fmt.Errorf("pipeline: Barrier after Close")
	}
	p.Flush()
	ctls := make([]*ctlItem, len(p.shards))
	for i := range p.shards {
		i := i
		c := &ctlItem{
			fn:   func(det *core.Detector) { fn(i, det) },
			done: make(chan bool, 1),
		}
		ctls[i] = c
		p.send(i, []item{{kind: itemCtl, ctl: c}})
	}
	var skipped []int
	for i, c := range ctls {
		if !<-c.done {
			skipped = append(skipped, i)
		}
	}
	if len(skipped) > 0 {
		return fmt.Errorf("pipeline: barrier skipped on degraded shards %v", skipped)
	}
	return nil
}

// Close flushes pending batches, waits for every shard to drain, and merges
// results. It is idempotent; the first call returns the first error (by
// event sequence) any shard hit.
func (p *Pipeline) Close() error {
	if p.closed {
		return p.err
	}
	p.closed = true
	p.Flush()
	for _, s := range p.shards {
		close(s.ch)
	}
	for _, s := range p.shards {
		<-s.done
	}

	// Merge: stats sum exactly (disjoint object partitions) except
	// PeakActive, which becomes the sum of per-shard peaks. A shard whose
	// detector was retired by a panic may hold inconsistent state, so its
	// merge is itself supervised: whatever it can still report is kept,
	// and a second panic forfeits only that shard's contribution.
	// Pre-size the merged report: appending shard by shard would
	// re-copy the fat Race structs on every growth doubling.
	total := 0
	for _, s := range p.shards {
		total += len(s.det.Races())
	}
	p.races = make([]core.Race, 0, total)
	errSeq := 0
	for _, s := range p.shards {
		p.panics += s.panics
		p.mergeShard(s)
		if s.err != nil && (p.err == nil || s.errSeq < errSeq) {
			p.err = fmt.Errorf("pipeline: event %d: %w", s.errSeq, s.err)
			errSeq = s.errSeq
		}
	}
	core.SortRaces(p.races)
	if max := p.cfg.Core.MaxRaces; max == 0 && len(p.races) > core.DefaultMaxRaces {
		p.races = p.races[:core.DefaultMaxRaces]
	} else if max > 0 && len(p.races) > max {
		p.races = p.races[:max]
	}
	return p.err
}

// mergeShard folds one shard's results into the pipeline totals, under a
// panic guard so a detector corrupted by a recovered panic cannot take
// down the merge. The races snapshot is taken first — if the detector dies
// midway, whatever was already copied out is still reported.
func (p *Pipeline) mergeShard(s *shard) {
	defer func() {
		if r := recover(); r != nil {
			s.panics++
			p.panics++
			p.ob.panics.Inc()
			log.Printf("pipeline: recovered shard panic during merge: %v\n%s", r, debug.Stack())
		}
	}()
	p.races = append(p.races, s.det.Races()...)
	st := s.det.Stats()
	p.stats.Actions += st.Actions
	p.stats.Checks += st.Checks
	p.stats.Races += st.Races
	p.stats.RacyEvents += st.RacyEvents
	p.stats.ActivePoints += st.ActivePoints
	p.stats.PeakActive += st.PeakActive
	p.stats.Reclaimed += st.Reclaimed
	p.distinct += s.det.DistinctObjects()
}

// Degraded reports whether any shard lost work to a recovered panic: the
// merged race set is then partial but honest — every race listed was
// found, none are invented, some may be missing. Valid after Close.
func (p *Pipeline) Degraded() bool { return p.panics > 0 }

// ShardPanics returns the number of recovered shard panics (after Close).
func (p *Pipeline) ShardPanics() int { return p.panics }

// Races returns the merged race reports in canonical order (closing the
// pipeline if still open), capped like the serial detector's retention.
func (p *Pipeline) Races() []core.Race {
	p.Close()
	return p.races
}

// Stats returns the merged counters (closing the pipeline if still open).
func (p *Pipeline) Stats() core.Stats {
	p.Close()
	return p.stats
}

// DistinctObjects returns the number of distinct racy objects across all
// shards (closing the pipeline if still open).
func (p *Pipeline) DistinctObjects() int {
	p.Close()
	return p.distinct
}

// StatSnapshot implements obs.StatSource over the merged counters (closing
// the pipeline if still open), so harness tables render the pipeline with
// the same code path as the serial detectors.
func (p *Pipeline) StatSnapshot() []obs.Stat {
	p.Close()
	return append(p.stats.StatSnapshot(),
		obs.Stat{Name: "distinct_objects", Value: int64(p.distinct)},
		obs.Stat{Name: "shards", Value: int64(len(p.shards))})
}

// Err returns the merged error after Close (nil before).
func (p *Pipeline) Err() error { return p.err }

// RunTrace stamps the trace with a fresh happens-before engine, feeds
// every event through the shards, and closes the pipeline. Objects must
// already be registered. Stamping reuses one frozen snapshot per thread
// segment end-to-end: the same clock slice flows from the engine through
// the per-shard batches into the detectors without a single clone.
func (p *Pipeline) RunTrace(tr *trace.Trace) error {
	en := hb.NewObs(p.cfg.Obs)
	for i := range tr.Events {
		e := &tr.Events[i]
		if _, err := en.Process(e); err != nil {
			p.Close()
			return fmt.Errorf("pipeline: event %d (%s): %w", i, e, err)
		}
		if err := p.Process(e); err != nil {
			p.Close()
			return err
		}
	}
	return p.Close()
}
