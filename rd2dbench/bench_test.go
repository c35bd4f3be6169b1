package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// The inputs a run streams are a pure function of the seed, to the byte.
func TestInputsAreSeedDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, err := wl.inputs(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wl.inputs(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d and %d inputs from one seed", wl.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i].stream("s", "t"), b[i].stream("s", "t")) {
				t.Errorf("%s: input %d differs between two generations from seed 7", wl.name, i)
			}
		}
	}
	a, _ := workloadNamed("dict-durable").inputs(1)
	b, _ := workloadNamed("dict-durable").inputs(2)
	if bytes.Equal(a[0].stream("s", ""), b[0].stream("s", "")) {
		t.Error("seeds 1 and 2 gave the same dict-durable input")
	}
}

// The tailer keys each record by (session, second.seq) and times it from
// the scheduled send of the frame that carried that event.
func TestVerdictLatencyJoin(t *testing.T) {
	in := &input{name: "syn", events: 30, frames: []frame{{cum: 10}, {cum: 20}, {cum: 30}}}
	t0 := time.Unix(1000, 0)
	r := &sessionRun{sid: "s-1", in: in, sched: []time.Time{t0, t0.Add(5 * time.Millisecond), t0.Add(10 * time.Millisecond)}}
	tl := &tailer{reg: &registry{runs: map[string]*sessionRun{r.sid: r}}}
	rec := func(sid string, first, second int) string {
		return fmt.Sprintf(`{"session":%q,"seq":1,"object":0,"spec":"dict",`+
			`"first":{"action":"o0.put(1, 2)/nil","method":"put","thread":1,"seq":%d,"point":"p","clock":[1]},`+
			`"second":{"action":"o0.put(1, 3)/2","method":"put","thread":2,"seq":%d,"point":"p","clock":[0,1]}}`+"\n",
			sid, first, second)
	}
	report := rec("s-1", 0, 9) + rec("s-1", 3, 10) + rec("other", 0, 15) + rec("s-1", 25, 29)
	now := t0.Add(50 * time.Millisecond)
	tl.consume([]byte(report[:70]), now) // a read that ends inside a record
	tl.consume([]byte(report[70:]), now)
	want := []sample{{t0, 50 * time.Millisecond}, {r.sched[1], 45 * time.Millisecond}, {r.sched[2], 40 * time.Millisecond}}
	if fmt.Sprint(tl.lat) != fmt.Sprint(want) {
		t.Errorf("latencies %v, want %v", tl.lat, want)
	}
}

// The oracle accepts a report that matches the offline replay and flags
// the one session whose report has a single altered record, or that
// failed.
func TestOracleFlagsAlteredRecord(t *testing.T) {
	in, err := encodeInput("racy", genDict(3, dictShape{waves: 2, workers: 3, ops: 300, objects: 4, privKeys: 4,
		locks: 2, pLocked: 0.25, pShared: 0.05, hot: 2, pGet: 0.4, pDie: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline(in)
	if err != nil {
		t.Fatal(err)
	}
	if want.records < 2 {
		t.Fatalf("input yields %d records; the test needs races", want.records)
	}
	var buf bytes.Buffer
	rw := core.NewReportWriter(&buf)
	var runs []*sessionRun
	for _, sid := range []string{"a", "b"} {
		sr := rw.Session(sid)
		if _, err := replay(in, func(r core.Race) { sr.Write(r, specName) }); err != nil {
			t.Fatal(err)
		}
		sum := wire.Summary{Events: in.events, Races: want.races, Clean: true, Seq: uint64(want.records)}
		runs = append(runs, &sessionRun{sid: sid, in: in, sum: sum})
	}
	oracles := map[*input]*oracle{in: want}
	check := func(report string) []string {
		path := filepath.Join(t.TempDir(), "report.jsonl")
		if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := readReport(path)
		if err != nil {
			t.Fatal(err)
		}
		return checkVerdicts(runs, got, oracles)
	}
	if bad := check(buf.String()); len(bad) != 0 {
		t.Fatalf("faithful report flagged: %v", bad)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	i := len(lines) - 2 // the last record, one of session b's
	if !strings.HasPrefix(lines[i], `{"session":"b"`) {
		t.Fatalf("unexpected last record %q", lines[i])
	}
	lines[i] = strings.Replace(lines[i], `"object":`, `"object":9`, 1)
	bad := check(strings.Join(lines, ""))
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "session b ") {
		t.Errorf("altered record: got %v, want one mismatch for session b", bad)
	}
	// A session rd2d rejected busy is flagged though its report is faithful.
	runs[0].sum.Busy = true
	if bad := check(buf.String()); len(bad) != 1 || !strings.HasPrefix(bad[0], "session a ") {
		t.Errorf("busy session: got %v, want one failure for session a", bad)
	}
}
