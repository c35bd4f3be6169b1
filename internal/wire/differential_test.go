package wire

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/specs"
	"repro/internal/trace"
)

// TestDifferentialExamples checks, for every committed example trace, that
//
//  1. text → wire → text round-trips byte-identically, and
//  2. serial detection over the streamed wire decoder, stamped one event at
//     a time with hb.Engine.Process as rd2d's session runner does, reports
//     the identical race set as detection over the in-memory trace.Parse
//     result.
func TestDifferentialExamples(t *testing.T) {
	paths, err := filepath.Glob("../../examples/traces/*.trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example traces found")
	}
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Parse(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}

			// Round trip: canonical text of the parsed trace must survive
			// the wire format exactly.
			var buf bytes.Buffer
			if err := EncodeTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if want, have := trace.Format(tr), trace.Format(got); want != have {
				t.Fatalf("text→wire→text not identical:\nwant:\n%s\nhave:\n%s", want, have)
			}

			objs := map[trace.ObjID]bool{}
			for _, e := range tr.Events {
				if e.Kind == trace.ActionEvent {
					objs[e.Act.Obj] = true
				}
			}

			// In-memory detection over the parsed trace.
			mem := core.New(core.Config{})
			for o := range objs {
				mem.Register(o, rep)
			}
			if err := mem.RunTrace(tr); err != nil {
				t.Fatal(err)
			}

			// Streaming detection over the wire decoder — no trace.Trace
			// is ever materialized on this path.
			d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			str := core.New(core.Config{})
			for o := range objs {
				str.Register(o, rep)
			}
			en := hb.New()
			for {
				e, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := en.Process(&e); err != nil {
					t.Fatalf("event %d (%s): %v", e.Seq, e.String(), err)
				}
				if err := str.Process(&e); err != nil {
					t.Fatal(err)
				}
			}

			want, have := mem.Races(), str.Races()
			core.SortRaces(want)
			core.SortRaces(have)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("race sets differ:\nin-memory: %+v\nstreamed:  %+v", want, have)
			}
			if len(want) == 0 && filepath.Base(path) != "locked.trace" && filepath.Base(path) != "dict-locked.trace" {
				t.Logf("note: %s is race-free under dict", path)
			}
		})
	}
}

// TestCommittedBinaryMatchesText pins the committed .rdb artifact to its
// text twin: both must decode to the same canonical trace.
func TestCommittedBinaryMatchesText(t *testing.T) {
	tf, err := os.Open("../../examples/traces/dict-rand.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	text, err := trace.Parse(tf)
	if err != nil {
		t.Fatal(err)
	}

	bf, err := os.Open("../../examples/traces/dict-rand.rdb")
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	bin, err := ParseAny(bf)
	if err != nil {
		t.Fatal(err)
	}

	if want, have := trace.Format(text), trace.Format(bin); want != have {
		t.Fatalf("dict-rand.rdb does not match dict-rand.trace:\nwant:\n%s\nhave:\n%s", want, have)
	}
}
