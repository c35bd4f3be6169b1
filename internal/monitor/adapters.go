package monitor

import (
	"fmt"

	"repro/internal/ap"
	"repro/internal/atomicity"
	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/pipeline"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// RD2 glues a core.Detector to a monitored runtime: it forwards events and
// registers each newly created object's access point representation by kind.
// It is the tool of the paper's evaluation ("RD2").
type RD2 struct {
	Detector *core.Detector
	reps     map[string]ap.Rep
}

// NewRD2 wraps a commutativity race detector with the standard spec library
// (dict, set, counter, queue, register, multiset).
func NewRD2(cfg core.Config) *RD2 {
	r := &RD2{Detector: core.New(cfg), reps: map[string]ap.Rep{}}
	for _, name := range specs.Names() {
		r.reps[name] = specs.MustRep(name)
	}
	return r
}

// RegisterKind installs (or overrides) the representation used for objects
// of the given kind.
func (r *RD2) RegisterKind(kind string, rep ap.Rep) {
	r.reps[kind] = rep
}

// WrapReps rewrites every registered representation through wrap — the
// fault-injection hook (e.g. faultinject.WrapAllReps) and, generally, the
// way to interpose on Touch for all kinds at once. Call before the
// workload creates objects.
func (r *RD2) WrapReps(wrap func(ap.Rep) ap.Rep) {
	for kind, rep := range r.reps {
		r.reps[kind] = wrap(rep)
	}
}

// Process implements Analysis.
func (r *RD2) Process(e *trace.Event) error { return r.Detector.Process(e) }

// ObjectCreated implements ObjectObserver.
func (r *RD2) ObjectCreated(obj trace.ObjID, kind string) {
	if rep, ok := r.reps[kind]; ok {
		r.Detector.Register(obj, rep)
	}
}

// Compact implements Compactor: the runtime triggers it after joins so the
// detector sheds points that can never race again.
func (r *RD2) Compact(threshold vclock.VC) int {
	return r.Detector.Compact(threshold)
}

// AttachRD2 creates an RD2 analysis, attaches it to the runtime, and
// returns it.
func AttachRD2(rt *Runtime, cfg core.Config) *RD2 {
	r := NewRD2(cfg)
	rt.Attach(r)
	return r
}

// RD2Parallel glues the sharded detection pipeline to a monitored runtime:
// happens-before stamping stays on the runtime's serial emit path, while
// conflict checking runs on the pipeline's shard goroutines. Close must be
// called after the workload quiesces (all monitored threads joined) to
// flush the shards and merge results.
type RD2Parallel struct {
	Pipeline *pipeline.Pipeline
	reps     map[string]ap.Rep
}

// NewRD2Parallel wraps a detection pipeline with the standard spec library.
func NewRD2Parallel(cfg pipeline.Config) *RD2Parallel {
	r := &RD2Parallel{Pipeline: pipeline.New(cfg), reps: map[string]ap.Rep{}}
	for _, name := range specs.Names() {
		r.reps[name] = specs.MustRep(name)
	}
	return r
}

// RegisterKind installs (or overrides) the representation used for objects
// of the given kind. The rep must be immutable (shards share it).
func (r *RD2Parallel) RegisterKind(kind string, rep ap.Rep) {
	r.reps[kind] = rep
}

// WrapReps rewrites every registered representation through wrap (see
// RD2.WrapReps). Wrapped reps must stay shard-safe.
func (r *RD2Parallel) WrapReps(wrap func(ap.Rep) ap.Rep) {
	for kind, rep := range r.reps {
		r.reps[kind] = wrap(rep)
	}
}

// Process implements Analysis. Calls arrive serialized under the runtime's
// emit lock — exactly the single-producer discipline the pipeline needs.
func (r *RD2Parallel) Process(e *trace.Event) error { return r.Pipeline.Process(e) }

// ObjectCreated implements ObjectObserver; the registration travels the
// owning shard's ordered stream ahead of the object's first action.
func (r *RD2Parallel) ObjectCreated(obj trace.ObjID, kind string) {
	if rep, ok := r.reps[kind]; ok {
		r.Pipeline.Register(obj, rep)
	}
}

// Compact implements Compactor; the request is asynchronous (see
// pipeline.Pipeline.Compact).
func (r *RD2Parallel) Compact(threshold vclock.VC) int {
	return r.Pipeline.Compact(threshold)
}

// Close flushes and joins the shards; results are available afterwards via
// r.Pipeline. Idempotent.
func (r *RD2Parallel) Close() error { return r.Pipeline.Close() }

// AttachRD2Parallel creates a sharded RD2 analysis, attaches it to the
// runtime, and returns it.
func AttachRD2Parallel(rt *Runtime, cfg pipeline.Config) *RD2Parallel {
	r := NewRD2Parallel(cfg)
	rt.Attach(r)
	return r
}

// ReplayRecorded re-analyzes a recorded execution offline: the recorded
// trace is re-stamped from scratch by the serial happens-before engine and
// re-detected on the sharded pipeline, with every monitored object
// re-registered by kind. Live analyses attached during recording are
// untouched — the recorded events are copied with their clocks stripped, so
// the live run's shared snapshots stay immutable. The returned pipeline is
// closed: results are ready to read. Use it to re-check a live session's
// verdicts with different detection settings (shard count, retention caps)
// without re-running the workload.
func ReplayRecorded(rt *Runtime, cfg pipeline.Config) (*pipeline.Pipeline, error) {
	tr := rt.Trace()
	if tr == nil {
		return nil, fmt.Errorf("monitor: no recorded trace (call Record before the workload)")
	}
	ev := make([]trace.Event, len(tr.Events))
	copy(ev, tr.Events)
	for i := range ev {
		ev[i].Clock = nil
	}
	p := pipeline.New(cfg)
	reps := map[string]ap.Rep{}
	for _, name := range specs.Names() {
		reps[name] = specs.MustRep(name)
	}
	for _, ok := range rt.ObjectKinds() {
		if rep, found := reps[ok.Kind]; found {
			p.Register(ok.Obj, rep)
		}
	}
	err := p.RunTrace(&trace.Trace{Events: ev})
	return p, err
}

// AttachFastTrack creates a FASTTRACK detector, attaches it, and returns it.
func AttachFastTrack(rt *Runtime) *fasttrack.Detector {
	d := fasttrack.New(nil)
	rt.Attach(d)
	return d
}

// Atomicity glues the commutativity atomicity checker to a monitored
// runtime, registering representations by object kind like RD2 does.
type Atomicity struct {
	Checker *atomicity.Checker
	reps    map[string]ap.Rep
}

// NewAtomicity wraps an atomicity checker with the standard spec library.
func NewAtomicity() *Atomicity {
	a := &Atomicity{Checker: atomicity.New(), reps: map[string]ap.Rep{}}
	for _, name := range specs.Names() {
		a.reps[name] = specs.MustRep(name)
	}
	return a
}

// Process implements Analysis.
func (a *Atomicity) Process(e *trace.Event) error { return a.Checker.Process(e) }

// ObjectCreated implements ObjectObserver.
func (a *Atomicity) ObjectCreated(obj trace.ObjID, kind string) {
	if rep, ok := a.reps[kind]; ok {
		a.Checker.Register(obj, rep)
	}
}

// AttachAtomicity creates an atomicity analysis, attaches it, and returns
// it.
func AttachAtomicity(rt *Runtime) *Atomicity {
	a := NewAtomicity()
	rt.Attach(a)
	return a
}
