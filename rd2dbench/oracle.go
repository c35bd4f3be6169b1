package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// specName is the commutativity specification rd2d runs with (its -spec
// default); every object in every workload is a dictionary.
const specName = "dict"

// compactEvery is rd2d's -compact-every default: compaction runs at a join
// once at least this many events have passed since the previous one.
const compactEvery = 4096

// verdicts is an order-independent digest of one session's race records:
// how many there are and the sum of a 64-bit hash of each normalized
// record. Shards of the per-connection pipeline report concurrently, so
// only the multiset of records is deterministic, not their order.
type verdicts struct {
	records int
	sum     uint64
}

func (v *verdicts) add(normalized []byte) {
	h := fnv.New64a()
	h.Write(normalized)
	v.records++
	v.sum += h.Sum64()
}

// sessionPrefix is how every rd2d race record starts: the session id and
// per-session seq lead the record so they can be stripped textually.
var sessionPrefix = []byte(`{"session":"`)

// normalize strips the session id and seq from one rd2d JSONL race record,
// leaving the bytes an offline session-less report holds for the same
// race. ok is false for lines that are not session race records (notes).
func normalize(line []byte) (sid string, rec []byte, ok bool) {
	line = bytes.TrimRight(line, "\n")
	if !bytes.HasPrefix(line, sessionPrefix) {
		return "", nil, false
	}
	rest := line[len(sessionPrefix):]
	q := bytes.IndexByte(rest, '"')
	if q < 0 {
		return "", nil, false
	}
	sid = string(rest[:q])
	rest = rest[q+1:]
	if !bytes.HasPrefix(rest, []byte(`,"seq":`)) {
		return "", nil, false
	}
	c := bytes.IndexByte(rest[1:], ',')
	if c < 0 {
		return "", nil, false
	}
	rec = append([]byte{'{'}, rest[1+c+1:]...)
	return sid, rec, true
}

// readReport digests the daemon's -report file per session. Sessions that
// rd2d marked degraded in the file are returned in degraded.
func readReport(path string) (got map[string]*verdicts, degraded map[string]bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	got = map[string]*verdicts{}
	degraded = map[string]bool{}
	br := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if sid, rec, ok := normalize(line); ok {
				v := got[sid]
				if v == nil {
					v = &verdicts{}
					got[sid] = v
				}
				v.add(rec)
			} else if bytes.Contains(line, []byte(`"note":"degraded"`)) {
				var note struct{ Session string }
				if json.Unmarshal(line, &note) == nil {
					degraded[note.Session] = true
				}
			}
		}
		if errors.Is(err, io.EOF) {
			return got, degraded, nil
		}
		if err != nil {
			return nil, nil, err
		}
	}
}

// oracle is the offline serial verdict of one input.
type oracle struct {
	verdicts
	races   int
	elapsed time.Duration
}

// offline replays an input's exact wire bytes through one serial
// core.Detector, with rd2d's lazy registration and compaction cadence
// (Compact(MeetLive()) at a join once compactEvery events have passed;
// compaction trims the clocks reported races carry, so the cadence must
// match). It is the verdict oracle for every session that streamed the
// input, and its rate is the single-threaded baseline.
func offline(in *input) (*oracle, error) {
	o := &oracle{}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	t0 := time.Now()
	races, err := replay(in, func(r core.Race) {
		buf.Reset()
		enc.Encode(r.Record(specName)) // a bytes.Buffer write cannot fail
		o.add(bytes.TrimRight(buf.Bytes(), "\n"))
	})
	if err != nil {
		return nil, err
	}
	o.elapsed = time.Since(t0)
	o.races = races
	return o, nil
}

// replay decodes, stamps and detects in serially, calling onRace for every
// race, and returns the detector's race count.
func replay(in *input, onRace func(core.Race)) (races int, err error) {
	rep, err := specs.Rep(specName)
	if err != nil {
		return 0, err
	}
	det := core.New(core.Config{MaxRaces: 1, OnRace: onRace})
	dec, err := wire.NewDecoder(bytes.NewReader(in.stream("oracle", "")))
	if err != nil {
		return 0, err
	}
	if _, err := dec.ReadHello(); err != nil {
		return 0, err
	}
	en := hb.New()
	registered := map[trace.ObjID]bool{}
	since := 0
	for {
		e, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return det.Stats().Races, nil
		}
		if err != nil {
			return 0, fmt.Errorf("oracle %s: %w", in.name, err)
		}
		since++
		if _, err := en.Process(&e); err != nil {
			return 0, fmt.Errorf("oracle %s: event %d: %w", in.name, e.Seq, err)
		}
		register(det.Register, registered, &e, rep)
		if err := det.Process(&e); err != nil {
			return 0, fmt.Errorf("oracle %s: %w", in.name, err)
		}
		if e.Kind == trace.JoinEvent && since >= compactEvery {
			det.Compact(en.MeetLive())
			since = 0
		}
	}
}

// register binds an object's representation ahead of its first action, as
// rd2d does lazily.
func register(reg func(trace.ObjID, ap.Rep), registered map[trace.ObjID]bool, e *trace.Event, rep ap.Rep) {
	if e.Kind == trace.ActionEvent && !registered[e.Act.Obj] {
		reg(e.Act.Obj, rep)
		registered[e.Act.Obj] = true
	}
}

// checkVerdicts holds every session's streamed records and summary to its
// input's oracle. It returns one line per session that failed or whose
// verdicts differ: no workload is expected to fail a session, so a failed
// one (a busy reject among them) is as wrong as a wrong verdict.
func checkVerdicts(runs []*sessionRun, got map[string]*verdicts, oracles map[*input]*oracle) []string {
	var bad []string
	for _, r := range runs {
		if r.failed() {
			s := r.sum
			bad = append(bad, fmt.Sprintf("session %s (%s) failed: error %v; summary %d of %d events, clean %t, busy %t, degraded %t, %q",
				r.sid, r.in.name, r.err, s.Events, r.in.events, s.Clean, s.Busy, s.Degraded, s.Error))
			continue
		}
		want := oracles[r.in]
		have := verdicts{}
		if v := got[r.sid]; v != nil {
			have = *v
		}
		switch {
		case have != want.verdicts:
			bad = append(bad, fmt.Sprintf("session %s (%s): %d records, digest %x; offline %d, digest %x",
				r.sid, r.in.name, have.records, have.sum, want.records, want.sum))
		case r.sum.Races != want.races || r.sum.Seq != uint64(want.records):
			bad = append(bad, fmt.Sprintf("session %s (%s): summary says %d races, seq %d; offline %d races, %d records",
				r.sid, r.in.name, r.sum.Races, r.sum.Seq, want.races, want.records))
		}
	}
	return bad
}
