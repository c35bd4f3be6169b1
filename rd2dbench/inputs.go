package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"

	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// h2Fixture is one recorded H2 ComplexConcurrency circuit (tracegen -h2
// ComplexConcurrency -seed 1). H2 recordings are not a function of their
// seed — the monitored threads are real goroutines — so the benchmark
// replays this committed recording instead of recording at set-up.
//
//go:embed testdata/h2-complex.rdb
var h2Fixture []byte

// input is one pre-encoded session body: the seq'd events frames of a
// resumable RDB2 stream and its end-of-stream frame. Frames are cut at the
// encoder's wire.DefaultFrameSize, the size every producer in the repo
// (rd2 -send, wire.ResumableClient) sends. The stream header and
// hello frame carry the session id and tenant, so they are built per
// session (wire.AppendStreamHeader); the frames are shared by every
// session that replays this input.
type input struct {
	name   string
	events int
	frames []frame
	end    []byte
	bytes  int // frames + end frame
}

// frame is one seq'd events frame and the cumulative event count of the
// stream through it.
type frame struct {
	b   []byte
	cum int
}

// stream renders the complete wire stream a session with id sid and
// tenant would send.
func (in *input) stream(sid, tenant string) []byte {
	b := wire.AppendStreamHeader(make([]byte, 0, in.bytes+64), sid, tenant)
	for _, f := range in.frames {
		b = append(b, f.b...)
	}
	return append(b, in.end...)
}

// frameOf returns the index of the frame that carries event seq.
func (in *input) frameOf(seq int) int {
	lo, hi := 0, len(in.frames)
	for lo < hi {
		m := (lo + hi) / 2
		if in.frames[m].cum > seq {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// encodeInput encodes tr as the body of a resumable session.
func encodeInput(name string, tr *trace.Trace) (*input, error) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	const sid = "s"
	if err := enc.SetSession(sid); err != nil {
		return nil, err
	}
	in := &input{name: name, events: tr.Len()}
	enc.OnFrame = func(_ uint64, b []byte) error {
		f := frame{b: append([]byte(nil), b...), cum: enc.Events()}
		in.frames = append(in.frames, f)
		in.bytes += len(f.b)
		return nil
	}
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", name, err)
		}
	}
	if err := enc.Close(); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	head := len(wire.AppendStreamHeader(nil, sid, ""))
	in.end = append([]byte(nil), buf.Bytes()[head+in.bytes:]...)
	in.bytes += len(in.end)
	if n := len(in.frames); n == 0 || in.frames[n-1].cum != in.events {
		return nil, fmt.Errorf("encoding %s: frames cover %d of %d events", name, in.frames[len(in.frames)-1].cum, in.events)
	}
	return in, nil
}

// h2Inputs decodes the committed H2 recording into the single h2-stream
// session body.
func h2Inputs(int64) ([]*input, error) {
	tr, err := wire.DecodeTrace(bytes.NewReader(h2Fixture))
	if err != nil {
		return nil, fmt.Errorf("h2 fixture: %w", err)
	}
	in, err := encodeInput("h2-complex", tr)
	if err != nil {
		return nil, err
	}
	return []*input{in}, nil
}

// dictShape parameterizes genDict.
type dictShape struct {
	waves    int     // fork/join waves per session
	workers  int     // threads forked per wave
	ops      int     // dictionary operations per worker per wave
	objects  int     // live dictionary objects at any time
	privKeys int     // keys per object private to each worker slot
	locks    int     // lock universe
	pLocked  float64 // share of operations wrapped in acquire/release
	pShared  float64 // share of operations on an unlocked shared key (the racy ones)
	hot      int     // live objects the shared keys belong to
	pGet     float64 // share of operations that are gets (the rest are puts)
	pDie     float64 // share of objects that die and are replaced after each wave
}

// genDict generates one well-formed dictionary session from seed. Main
// thread 0 runs waves: it forks shape.workers threads, the workers'
// operations interleave at random, and main joins them all — so
// compaction (which rd2d runs at joins) finds dominated points. Each
// worker slot owns a private key range per object, so its accesses commute
// with every other worker's and race only with a predecessor in the same
// slot, which a join has ordered before it. The shared keys, touched
// unlocked, are where races come from. Between waves some objects die and
// fresh ids replace them, so detector state stays bounded however long a
// session runs. Return values follow the dictionary semantics.
func genDict(seed int64, sh dictShape) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder()
	live := make([]trace.ObjID, sh.objects)
	for i := range live {
		live[i] = trace.ObjID(i)
	}
	nextObj := trace.ObjID(sh.objects)
	state := map[trace.ObjID]map[int64]trace.Value{}
	get := func(o trace.ObjID, k int64) trace.Value {
		if v, ok := state[o][k]; ok {
			return v
		}
		return trace.NilValue
	}
	nextTid := vclock.Tid(1)
	for w := 0; w < sh.waves; w++ {
		tids := make([]vclock.Tid, sh.workers)
		left := make([]int, sh.workers)
		for i := range tids {
			tids[i] = nextTid
			nextTid++
			left[i] = sh.ops
			b.Fork(0, tids[i])
		}
		for remaining := sh.workers * sh.ops; remaining > 0; remaining-- {
			slot := r.Intn(sh.workers)
			for left[slot] == 0 {
				slot = (slot + 1) % sh.workers
			}
			left[slot]--
			t := tids[slot]
			o := live[r.Intn(len(live))]
			k := int64(slot*sh.privKeys + r.Intn(sh.privKeys))
			locked := false
			if r.Float64() < sh.pShared {
				o, k = live[r.Intn(sh.hot)], -1
			} else if r.Float64() < sh.pLocked {
				locked = true
			}
			l := trace.LockID(r.Intn(sh.locks))
			if locked {
				b.Acquire(t, l)
			}
			key := trace.IntValue(k)
			if r.Float64() < sh.pGet {
				b.Get(t, o, key, get(o, k))
			} else {
				v := trace.IntValue(int64(1 + r.Intn(3)))
				if r.Intn(5) == 0 {
					v = trace.NilValue
				}
				prev := get(o, k)
				if state[o] == nil {
					state[o] = map[int64]trace.Value{}
				}
				state[o][k] = v
				b.Put(t, o, key, v, prev)
			}
			if locked {
				b.Release(t, l)
			}
		}
		for _, t := range tids {
			b.Join(0, t)
		}
		for i, o := range live {
			if r.Float64() < sh.pDie {
				b.Die(0, o)
				delete(state, o)
				live[i] = nextObj
				nextObj++
			}
		}
	}
	return b.Trace()
}

// dictInputs generates n distinct sessions; session i has shape(i, n)
// and is a pure function of (seed, i).
func dictInputs(prefix string, n int, shape func(i, n int) dictShape) func(int64) ([]*input, error) {
	return func(seed int64) ([]*input, error) {
		r := rand.New(rand.NewSource(seed))
		ins := make([]*input, n)
		for i := range ins {
			in, err := encodeInput(fmt.Sprintf("%s-%d", prefix, i), genDict(r.Int63(), shape(i, n)))
			if err != nil {
				return nil, err
			}
			ins[i] = in
		}
		return ins, nil
	}
}
